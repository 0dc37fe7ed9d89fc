//! **Table 8 (extension, not in the paper): federated training under
//! seeded fault injection.** Sweeps a fault-rate axis (the chaos
//! palette scaled up from benign to hostile) against a retry-policy
//! axis (attempt budgets and quorum floors) and reports what the
//! resilient round loop paid to finish: completed rounds, re-deploy
//! retries, missed client slots, quorum aborts, and measured wire
//! traffic.
//!
//! Every cell runs over real channel transports wrapped in
//! [`rte_net::ChaosTransport`], so the frame codec, the CRCs that catch
//! injected corruption, and the [`rte_fed::LocalLink`] byte counters
//! are all on the path. The whole table replays bit-for-bit — every
//! drop, duplicate and corrupted byte comes from the chaos seed's
//! streams (determinism rule 9), never from the scheduler:
//!
//! ```text
//! cargo run --release -p rte-bench --bin table8_chaos -- --quick
//! ```

use rte_bench::BenchArgs;
use rte_core::{build_experiment_clients, model_factory};
use rte_fed::{local_links, run_rounds_resilient, FaultPolicy, FedError, LocalLink, RoundEvent};
use rte_net::{ChaosConfig, ChaosTransport, RetryPolicy};
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

/// The palette at strength `rate`: every fault class armed
/// proportionally (drops lead, corruption trails), latency always on.
fn palette(seed: u64, rate: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_p: rate,
        dup_p: rate * 0.5,
        reorder_p: rate * 0.6,
        reorder_window: 3,
        corrupt_p: rate * 0.4,
        latency_min: 1,
        latency_max: 6,
    }
}

struct Cell {
    fault_rate: f64,
    policy_label: String,
    completed_rounds: usize,
    average_auc: f64,
    retries: u64,
    missed: usize,
    aborted_at: Option<usize>,
    wire_bytes: u64,
    frames_dropped: u64,
    frames_corrupted: u64,
}

struct JsonEntry {
    fields: Vec<(String, String)>,
}

fn render_json(cells: &[Cell]) -> String {
    let entries: Vec<JsonEntry> = cells
        .iter()
        .map(|c| JsonEntry {
            fields: vec![
                ("metric".into(), "\"chaos_cell\"".into()),
                ("fault_rate".into(), format!("{:.2}", c.fault_rate)),
                ("policy".into(), format!("\"{}\"", c.policy_label)),
                ("completed_rounds".into(), c.completed_rounds.to_string()),
                (
                    "average_auc".into(),
                    if c.average_auc.is_nan() {
                        "null".into()
                    } else {
                        format!("{:.4}", c.average_auc)
                    },
                ),
                ("retries".into(), c.retries.to_string()),
                ("missed_slots".into(), c.missed.to_string()),
                (
                    "quorum_abort_round".into(),
                    c.aborted_at.map_or("null".into(), |r| r.to_string()),
                ),
                ("wire_bytes".into(), c.wire_bytes.to_string()),
                ("frames_dropped".into(), c.frames_dropped.to_string()),
                ("frames_corrupted".into(), c.frames_corrupted.to_string()),
            ],
        })
        .collect();
    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str("  {");
        for (j, (k, v)) in e.fields.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{k}\": {v}"));
        }
        json.push_str(if i + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("]\n");
    json
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    let clients = build_experiment_clients(&config)?;
    let factory = model_factory(ModelKind::FlNet, config.model_scale);
    let k = clients.len();
    let rounds = config.fed.rounds;
    println!(
        "Table 8 (extension): FedProx under seeded chaos, {k} clients, \
         {rounds} rounds, chaos seed {}",
        config.fed.seed
    );

    // Policy axis: a thin budget, a generous budget, and the generous
    // budget with a strict quorum floor that turns sustained faults
    // into a typed abort instead of a degraded table.
    let policies: Vec<(String, FaultPolicy)> = vec![
        (
            "retries=2".into(),
            FaultPolicy {
                retry: RetryPolicy::immediate(2),
                min_quorum: 1,
                ..FaultPolicy::default()
            },
        ),
        (
            "retries=4".into(),
            FaultPolicy {
                retry: RetryPolicy::immediate(4),
                min_quorum: 1,
                ..FaultPolicy::default()
            },
        ),
        (
            format!("retries=4,quorum={k}"),
            FaultPolicy {
                retry: RetryPolicy::immediate(4),
                min_quorum: k,
                ..FaultPolicy::default()
            },
        ),
    ];

    let mut cells = Vec::new();
    for &rate in &[0.0, 0.1, 0.25, 0.4] {
        for (label, policy) in &policies {
            let chaos = palette(config.fed.seed, rate);
            let mut links: Vec<ChaosTransport<LocalLink>> =
                local_links(&clients, &factory, &config.fed, None)?
                    .into_iter()
                    .enumerate()
                    .map(|(lane, link)| ChaosTransport::new(link, chaos.clone(), lane as u64))
                    .collect::<Result<_, _>>()?;
            let result = run_rounds_resilient(
                &clients,
                &factory,
                &config.fed,
                &mut links,
                policy,
                None,
                None,
            );
            let (completed, auc, retries, missed, aborted_at) = match result {
                Ok(run) => {
                    let missed = run
                        .events
                        .iter()
                        .filter(|e| matches!(e, RoundEvent::Missed { .. }))
                        .count();
                    (
                        run.completed_rounds,
                        run.outcome.average_auc,
                        run.retries,
                        missed,
                        None,
                    )
                }
                Err(FedError::QuorumLost { round, .. }) => (round - 1, f64::NAN, 0, 0, Some(round)),
                Err(e) => return Err(e.into()),
            };
            let mut wire_bytes = 0u64;
            let mut dropped = 0u64;
            let mut corrupted = 0u64;
            for link in links {
                let stats = link.stats().clone();
                dropped += stats.drops;
                corrupted += stats.corruptions;
                let inner = link.into_inner();
                wire_bytes += inner.stats.bytes_sent + inner.stats.bytes_received;
            }
            cells.push(Cell {
                fault_rate: rate,
                policy_label: label.clone(),
                completed_rounds: completed,
                average_auc: auc,
                retries,
                missed,
                aborted_at,
                wire_bytes,
                frames_dropped: dropped,
                frames_corrupted: corrupted,
            });
        }
    }

    println!(
        "\n{:<8} {:<20} {:>7} {:>9} {:>8} {:>7} {:>8} {:>10}",
        "faults", "policy", "rounds", "avg AUC", "retries", "missed", "aborted", "wire"
    );
    println!("{}", "-".repeat(84));
    for c in &cells {
        println!(
            "{:<8} {:<20} {:>7} {:>9} {:>8} {:>7} {:>8} {:>10}",
            format!("{:.0}%", c.fault_rate * 100.0),
            c.policy_label,
            format!("{}/{rounds}", c.completed_rounds),
            if c.average_auc.is_nan() {
                "—".to_string()
            } else {
                format!("{:.4}", c.average_auc)
            },
            c.retries,
            c.missed,
            c.aborted_at.map_or("—".to_string(), |r| format!("r{r}")),
            human_bytes(c.wire_bytes)
        );
    }
    println!(
        "\nShape to note: retries convert drops and CRC-caught corruption into\n\
         extra deploy traffic (the wire column grows with the fault rate); the\n\
         thin budget starts missing slots the generous one saves; and the\n\
         strict-quorum column turns sustained faults into a typed QuorumLost\n\
         abort instead of a silently degraded table. Rerunning prints these\n\
         exact bytes — every fault is drawn from the chaos seed (rule 9)."
    );

    let json = render_json(&cells);
    // Same convention as the corpus dump: workspace root by default,
    // `RTE_BENCH_CHAOS_JSON` overrides.
    let path = rte_tensor::knobs::raw("RTE_BENCH_CHAOS_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench: wrote chaos grid to {path}"),
        Err(e) => eprintln!("bench: could not write {path}: {e}"),
    }
    Ok(())
}
