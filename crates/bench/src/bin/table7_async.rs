//! **Table 7 (extension, not in the paper): sync vs buffered-async
//! federated rounds.** The paper's protocol is a synchronous barrier —
//! every round waits for the slowest client. This binary quantifies what
//! the FedAsync/FedBuff-style buffered schedule (determinism rule 8's
//! seeded virtual clock) trades for dropping that barrier: final AUC,
//! client trainings, staleness exposure, and measured wire traffic.
//!
//! Every row runs over real channel transports, so the frame codec and
//! [`rte_fed::WireStats`] byte counters are on the path; the comm-cost
//! column is measured, not analytic. Usage mirrors the other tables:
//!
//! ```text
//! cargo run --release -p rte-bench --bin table7_async -- --quick
//! ```

use rte_bench::BenchArgs;
use rte_core::{build_experiment_clients, model_factory};
use rte_fed::{
    local_links, render_async_history, run_fedasync, run_link_rounds, AsyncConfig,
    AsyncRoundRecord, FaultPolicy, LocalLink, MethodOutcome,
};
use rte_nn::models::ModelKind;

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

struct Row {
    label: String,
    average_auc: f64,
    trainings: usize,
    mean_staleness: f64,
    wire_bytes: u64,
}

fn wire_bytes(links: &[LocalLink]) -> u64 {
    links
        .iter()
        .map(|l| l.stats.bytes_sent + l.stats.bytes_received)
        .sum()
}

fn staleness_stats(records: &[AsyncRoundRecord]) -> (usize, f64) {
    let arrivals: Vec<u64> = records
        .iter()
        .flat_map(|r| r.arrivals.iter().map(|&(_, s)| s))
        .collect();
    let mean = if arrivals.is_empty() {
        0.0
    } else {
        arrivals.iter().sum::<u64>() as f64 / arrivals.len() as f64
    };
    (arrivals.len(), mean)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    let clients = build_experiment_clients(&config)?;
    let factory = model_factory(ModelKind::FlNet, config.model_scale);
    let k = clients.len();
    let rounds = config.fed.rounds;
    println!(
        "Table 7 (extension): sync barrier vs buffered async, {k} clients, \
         FedProx, {rounds} sync rounds' worth of training"
    );

    let mut rows = Vec::new();

    // Sync baseline: the barrier protocol, K trainings per round.
    let mut links = local_links(&clients, &factory, &config.fed, None)?;
    let outcome: MethodOutcome = run_link_rounds(
        &clients,
        &factory,
        &config.fed,
        &mut links,
        None,
        &FaultPolicy::default(),
        None,
        None,
    )?
    .outcome;
    rows.push(Row {
        label: format!("sync FedProx (barrier, B={k})"),
        average_auc: outcome.average_auc,
        trainings: rounds * k,
        mean_staleness: 0.0,
        wire_bytes: wire_bytes(&links),
    });

    // Async sweep: same total training budget (≈ rounds·K arrivals),
    // spent through buffers of shrinking size — B=1 is fully async.
    let budget = rounds * k;
    let mut shown_schedule = None;
    for (buffer, dropout) in [(k.div_ceil(2), 0.0), (1, 0.0), (k.div_ceil(2), 0.2)] {
        let mut async_cfg = AsyncConfig::new(budget.div_ceil(buffer), buffer);
        async_cfg.dropout = dropout;
        let mut links = local_links(&clients, &factory, &config.fed, None)?;
        let (run, records) = run_fedasync(
            &clients,
            &factory,
            &config.fed,
            &async_cfg,
            &mut links,
            &FaultPolicy::default(),
        )?;
        let (arrived, mean_staleness) = staleness_stats(&records);
        rows.push(Row {
            label: if dropout > 0.0 {
                format!("fedasync B={buffer}, {:.0}% dropout", dropout * 100.0)
            } else {
                format!("fedasync B={buffer}")
            },
            average_auc: run.outcome.average_auc,
            trainings: arrived,
            mean_staleness,
            wire_bytes: wire_bytes(&links),
        });
        if dropout == 0.0 && buffer > 1 {
            shown_schedule = Some(records);
        }
    }

    println!(
        "\n{:<32} {:>9} {:>11} {:>11} {:>11}",
        "Schedule", "avg AUC", "trainings", "staleness", "wire"
    );
    println!("{}", "-".repeat(78));
    for row in &rows {
        println!(
            "{:<32} {:>9.4} {:>11} {:>11.2} {:>11}",
            row.label,
            row.average_auc,
            row.trainings,
            row.mean_staleness,
            human_bytes(row.wire_bytes)
        );
    }

    if let Some(records) = shown_schedule {
        println!();
        println!(
            "{}",
            render_async_history("Buffered schedule (seeded virtual clock)", &records)
        );
    }
    println!(
        "Shape to note: the buffered schedules spend the same training budget\n\
         without the per-round barrier; smaller buffers aggregate more often and\n\
         tolerate stragglers, paying with staleness-discounted updates. The whole\n\
         table replays bit-for-bit — arrival order comes from the seeded virtual\n\
         clock (rule 8), not the scheduler."
    );
    Ok(())
}
