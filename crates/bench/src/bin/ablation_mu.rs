//! **Ablation C (§4.1)**: sweep of the FedProx proximal strength μ.
//! μ = 0 recovers FedAvg; very large μ freezes clients at the global
//! model. The paper picks μ = 1e-4; the sweep shows the usable basin
//! around that value and both failure modes outside it.

use rte_bench::BenchArgs;
use rte_core::{build_experiment_clients, model_factory};
use rte_fed::methods;
use rte_fed::Method;
use rte_nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    eprintln!("building clients …");
    let clients = build_experiment_clients(&config)?;
    let factory = model_factory(ModelKind::FlNet, config.model_scale);

    println!("Ablation C: FedProx proximal strength sweep (FLNet, average ROC AUC)\n");
    println!("{:>10} {:>10}", "mu", "avg AUC");
    println!("{}", "-".repeat(22));
    let mut results = Vec::new();
    for mu in [0.0f32, 1e-4, 1e-2, 1.0] {
        let mut fed = config.fed.clone();
        fed.mu = mu;
        let outcome = methods::run_method(Method::FedProx, &clients, &factory, &fed)?;
        println!("{mu:>10.0e} {:>10.3}", outcome.average_auc);
        results.push((mu, outcome.average_auc));
    }
    let best = results.iter().cloned().fold(
        (0.0f32, f64::MIN),
        |acc, r| if r.1 > acc.1 { r } else { acc },
    );
    println!("\nBest mu: {:.0e} (AUC {:.3}).", best.0, best.1);
    println!(
        "Expected shape: small positive mu performs at least as well as mu = 0,\n\
         and mu = 1 over-constrains local training, costing accuracy."
    );
    Ok(())
}
