//! Federated training across the paper's nine clients: builds the Table 2
//! corpus, runs FedProx on FLNet without any client's data leaving its
//! silo, and compares against the local-only baselines.
//!
//! ```text
//! cargo run --release --example federated_training
//! ```

use decentralized_routability::core::{
    build_experiment_clients, run_method_on_clients, ExperimentConfig,
};
use decentralized_routability::fed::Method;
use decentralized_routability::nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Quick settings: a few rounds over a reduced corpus. Use the
    // rte-bench binaries for the full experiment matrix.
    let mut config = ExperimentConfig::scaled();
    config.corpus.placement_scale = 0.03;
    config.fed.rounds = 5;
    config.fed.local_steps = 10;

    println!("generating the nine-client Table 2 corpus …");
    let clients = build_experiment_clients(&config)?;
    for c in &clients {
        println!(
            "  client {}: {} train / {} test placements",
            c.id,
            c.weight(),
            c.test.len()
        );
    }

    println!("\ntraining local baselines (b1..b9) …");
    let local = run_method_on_clients(Method::LocalOnly, &clients, ModelKind::FlNet, &config)?;

    println!("running FedProx for {} rounds …", config.fed.rounds);
    let fedprox = run_method_on_clients(Method::FedProx, &clients, ModelKind::FlNet, &config)?;

    println!("\nper-client ROC AUC (higher is better):");
    println!("{:<10} {:>8} {:>8}", "client", "local", "FedProx");
    for k in 0..clients.len() {
        println!(
            "{:<10} {:>8.3} {:>8.3}",
            format!("client {}", k + 1),
            local.per_client_auc[k],
            fedprox.per_client_auc[k]
        );
    }
    println!(
        "{:<10} {:>8.3} {:>8.3}",
        "average", local.average_auc, fedprox.average_auc
    );
    println!(
        "\npaper (Table 3, full scale): local 0.72, FedProx 0.78 — collaboration\n\
         should lift the average without any raw data ever being shared."
    );
    Ok(())
}
