//! **Figure 2 counterpart**: the paper's Fig. 2(a-d) are schematics of the
//! four personalization variants (FedProx-LG, IFCA, assigned clustering,
//! α-portion sync). This binary runs each with per-round evaluation and
//! prints the personalized-accuracy series, so the algorithms drawn in the
//! figure can be watched doing their job.

use rte_bench::BenchArgs;
use rte_core::{build_clients, run_method_on_clients};
use rte_eda::corpus::generate_corpus;
use rte_fed::Method;
use rte_nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let mut config = args.experiment_config();
    config.fed.eval_every = 1;

    eprintln!("generating corpus …");
    let corpus = generate_corpus(&config.corpus)?;
    let clients = build_clients(&corpus)?;

    println!("Figure 2 counterpart: per-round average personalized ROC AUC (FLNet)\n");
    let variants = [
        ("(a) FedProx-LG", Method::FedProxLg),
        ("(b) IFCA", Method::Ifca),
        ("(c) Assigned clustering", Method::AssignedClustering),
        ("(d) FedProx + α-portion sync", Method::AlphaSync),
    ];
    let mut finals = Vec::new();
    for (label, method) in variants {
        let outcome = run_method_on_clients(method, &clients, ModelKind::FlNet, &config)?;
        println!("{}", rte_core::report::render_history(label, &outcome));
        finals.push((label, outcome.average_auc));
    }
    println!("Final averages:");
    for (label, auc) in finals {
        println!("  {label:<32} {auc:.3}");
    }
    println!(
        "\nExpected shape (paper Table 3 row ordering for FLNet): IFCA and assigned\n\
         clustering land near FedProx; FedProx-LG trails the others."
    );
    Ok(())
}
