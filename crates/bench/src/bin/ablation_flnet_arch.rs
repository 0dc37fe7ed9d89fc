//! **Ablation A (§4.2 claim)**: FLNet's design choices — few layers, big
//! kernels — are what make it robust to parameter averaging. This
//! ablation sweeps kernel size and depth under FedProx and prints the
//! resulting average AUC grid: the paper's 2-layer / 9×9 corner should be
//! at or near the top, and deeper variants should lose more under FL.

use rte_bench::BenchArgs;
use rte_core::build_experiment_clients;
use rte_eda::features::FEATURE_CHANNELS;
use rte_fed::{methods, Method, ModelFactory};
use rte_nn::models::{FlNet, FlNetConfig};
use rte_tensor::rng::Xoshiro256;

fn flnet_factory(kernel: usize, depth: usize) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        let cfg = FlNetConfig {
            in_channels: FEATURE_CHANNELS,
            hidden: 16,
            kernel,
            depth,
        };
        Box::new(FlNet::new(cfg, &mut rng))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    eprintln!("building clients …");
    let clients = build_experiment_clients(&config)?;

    println!("Ablation A: FLNet architecture sweep under FedProx (average ROC AUC)\n");
    println!("{:<10} {:>8} {:>8}", "kernel", "depth 2", "depth 4");
    println!("{}", "-".repeat(28));
    let mut results = Vec::new();
    for kernel in [3usize, 5, 9] {
        let mut row = format!("{kernel:<10}");
        for depth in [2usize, 4] {
            let factory = flnet_factory(kernel, depth);
            let outcome = methods::run_method(Method::FedProx, &clients, &factory, &config.fed)?;
            row.push_str(&format!(" {:>8.3}", outcome.average_auc));
            results.push((kernel, depth, outcome.average_auc));
        }
        println!("{row}");
    }
    let best = results
        .iter()
        .cloned()
        .fold((0usize, 0usize, f64::MIN), |acc, r| {
            if r.2 > acc.2 {
                r
            } else {
                acc
            }
        });
    println!(
        "\nBest cell: kernel {} / depth {} (AUC {:.3}).",
        best.0, best.1, best.2
    );
    println!(
        "Expected shape (§4.2): large kernels preserve the receptive field that\n\
         routability needs, while extra depth buys little or hurts under FL —\n\
         the paper's 9×9 / depth-2 choice should sit at or near the best cell."
    );
    Ok(())
}
