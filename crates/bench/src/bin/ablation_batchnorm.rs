//! **Ablation B (§4.2 claim)**: BatchNorm layers destabilize federated
//! aggregation because their running statistics are averaged across
//! heterogeneous clients. This ablation trains the RouteNet replica with
//! and without BatchNorm under both centralized training and FedProx, and
//! prints the 2×2 outcome: the FL penalty should shrink when BatchNorm is
//! removed.

use rte_bench::BenchArgs;
use rte_core::{build_experiment_clients, ExperimentConfig};
use rte_eda::features::FEATURE_CHANNELS;
use rte_fed::{methods, Method, ModelFactory};
use rte_nn::models::{RouteNet, RouteNetConfig};
use rte_tensor::rng::Xoshiro256;

fn routenet_factory(batchnorm: bool) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut cfg = RouteNetConfig::new(FEATURE_CHANNELS);
        cfg.base = 8;
        cfg.mid = 16;
        cfg.batchnorm = batchnorm;
        Box::new(RouteNet::new(cfg, &mut rng))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config: ExperimentConfig = args.experiment_config();
    eprintln!("building clients …");
    let clients = build_experiment_clients(&config)?;

    println!("Ablation B: BatchNorm under federated aggregation (RouteNet replica)\n");
    println!(
        "{:<26} {:>12} {:>10} {:>12}",
        "Variant", "Centralized", "FedProx", "FL penalty"
    );
    println!("{}", "-".repeat(64));
    for (label, bn) in [("RouteNet with BN", true), ("RouteNet without BN", false)] {
        let factory = routenet_factory(bn);
        let central = methods::run_method(Method::Centralized, &clients, &factory, &config.fed)?;
        let fedprox = methods::run_method(Method::FedProx, &clients, &factory, &config.fed)?;
        println!(
            "{label:<26} {:>12.3} {:>10.3} {:>12.3}",
            central.average_auc,
            fedprox.average_auc,
            central.average_auc - fedprox.average_auc
        );
    }
    println!(
        "\nExpected shape (§4.2): the centralized-vs-FedProx gap is larger with\n\
         BatchNorm than without — averaging BN running statistics across\n\
         heterogeneous clients is a real cost of the RouteNet/PROS designs."
    );
    Ok(())
}
