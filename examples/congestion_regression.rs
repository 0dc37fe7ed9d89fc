//! Beyond DRC hotspots: the paper's conclusion argues the collaborative
//! training flow extends to other layout-level predictions. This example
//! demonstrates that generality by switching the task to *congestion
//! regression* — predicting the continuous routing-demand map instead of
//! binary hotspots — while reusing the identical federated machinery
//! (only the label tensors change).
//!
//! ```text
//! cargo run --release --example congestion_regression
//! ```

use decentralized_routability::eda::congestion::analyse;
use decentralized_routability::eda::corpus::{CorpusConfig, PAPER_CLIENTS};
use decentralized_routability::eda::features::{extract_features, FEATURE_CHANNELS};
use decentralized_routability::eda::netlist::generate_netlist;
use decentralized_routability::eda::placement::{place, PlacementConfig};
use decentralized_routability::fed::methods::fedprox_rounds;
use decentralized_routability::fed::{Client, ClientSet, FedConfig, ModelFactory};
use decentralized_routability::nn::load_state_dict;
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::Tensor;

/// Builds one client whose labels are normalized congestion maps.
fn regression_client(
    spec_index: usize,
    n_designs: usize,
    placements_per_design: usize,
    test_designs: usize,
) -> Result<Client, Box<dyn std::error::Error>> {
    const TASK_SALT: u64 = 0xC0DE_57A7;
    let spec = PAPER_CLIENTS[spec_index - 1];
    let corpus_seed = CorpusConfig::scaled().seed ^ TASK_SALT;
    let root = Xoshiro256::seed_from(corpus_seed).derive(spec_index as u64);
    let build_split =
        |role: u64, designs: usize| -> Result<ClientSet, Box<dyn std::error::Error>> {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            let mut n = 0usize;
            let role_stream = root.derive(role);
            for d in 0..designs {
                let mut ds = role_stream.derive(d as u64);
                let netlist = generate_netlist(spec.family, ds.next_u64())?;
                for p in 0..placements_per_design {
                    let mut ps = ds.derive(p as u64 + 1);
                    let config = PlacementConfig::new(16, 16, ps.next_u64());
                    let placement = place(&netlist, &config)?;
                    // One analysis gives the inputs and the regression target.
                    let analysis = analyse(&netlist, &placement);
                    let features = extract_features(&analysis)?;
                    // Continuous label: combined demand squashed to [0, 1).
                    let combined = analysis.demand().combined();
                    let mean = combined.iter().sum::<f64>() / combined.len() as f64;
                    let label: Vec<f32> = combined
                        .iter()
                        .map(|&v| (v / (v + 2.0 * mean.max(1e-9))) as f32)
                        .collect();
                    xs.extend_from_slice(features.data());
                    ys.extend_from_slice(&label);
                    n += 1;
                }
            }
            Ok(ClientSet::new(
                Tensor::from_vec(xs, &[n, FEATURE_CHANNELS, 16, 16])?,
                Tensor::from_vec(ys, &[n, 1, 16, 16])?,
            )?)
        };
    let train = build_split(0, n_designs)?;
    let test = build_split(1, test_designs)?;
    Ok(Client::new(spec_index, train, test))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three clients from three different families.
    println!("building congestion-regression clients (families: ITC'99, ISCAS'89, ISPD'15) …");
    let clients = vec![
        regression_client(1, 2, 4, 1)?,
        regression_client(4, 3, 3, 1)?,
        regression_client(9, 3, 3, 2)?,
    ];

    let factory: ModelFactory = Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: FEATURE_CHANNELS,
                hidden: 16,
                kernel: 9,
                depth: 2,
            },
            &mut rng,
        ))
    });

    let mut fed = FedConfig::scaled();
    fed.rounds = 4;
    fed.local_steps = 10;
    println!(
        "running FedProx for {} rounds on the regression task …",
        fed.rounds
    );
    let (global, _) = fedprox_rounds(&clients, &factory, &fed)?;

    // Evaluate RMSE per client (regression metric, not AUC).
    let mut model = factory(fed.seed);
    load_state_dict(model.as_mut(), &global)?;
    println!("\nper-client congestion-map RMSE (lower is better):");
    for client in &clients {
        let n = client.test.len();
        let indices: Vec<usize> = (0..n).collect();
        let (x, y) = client.test.minibatch(&indices);
        let pred = model.forward(&x, false)?;
        let mse: f64 = pred
            .data()
            .iter()
            .zip(y.data().iter())
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / pred.numel() as f64;
        println!("  client {}: RMSE {:.4}", client.id, mse.sqrt());
    }
    println!(
        "\nSame federated stack, different task — the only change was the label\n\
         tensor, demonstrating the paper's claim of generality to other\n\
         layout-level predictions."
    );
    Ok(())
}
