//! Deployment round trip: train a generalized model with FedProx, save it
//! to disk the way an EDA developer would ship it, load it back and verify
//! the deployed copy scores identically on a client's private test data.
//!
//! ```text
//! cargo run --release --example model_deployment
//! ```

use std::fs::File;

use decentralized_routability::core::{build_experiment_clients, model_factory, ExperimentConfig};
use decentralized_routability::fed::evaluate_auc;
use decentralized_routability::fed::methods::fedprox_rounds;
use decentralized_routability::nn::load_state_dict;
use decentralized_routability::nn::models::{ModelKind, ModelScale};
use decentralized_routability::nn::serialize::{read_state_dict, write_state_dict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::scaled();
    config.corpus.placement_scale = 0.02;
    config.fed.rounds = 3;
    config.fed.local_steps = 8;

    println!("training a generalized FLNet with FedProx …");
    let clients = build_experiment_clients(&config)?;
    let factory = model_factory(ModelKind::FlNet, ModelScale::Scaled);
    let (global, _) = fedprox_rounds(&clients, &factory, &config.fed)?;

    // Ship it: persist the aggregated parameters.
    let path = std::env::temp_dir().join("flnet_global.rtesd");
    write_state_dict(&mut File::create(&path)?, &global)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("saved global model to {} ({bytes} bytes)", path.display());

    // Client side: load and evaluate on private test data.
    let loaded = read_state_dict(&mut File::open(&path)?)?;
    let mut deployed = factory(config.fed.seed);
    load_state_dict(deployed.as_mut(), &loaded)?;

    let mut reference = factory(config.fed.seed);
    load_state_dict(reference.as_mut(), &global)?;

    println!("\nper-client AUC of the deployed (disk round-tripped) model:");
    for client in &clients {
        let auc_deployed = evaluate_auc(deployed.as_mut(), &client.test, 16)?;
        let auc_reference = evaluate_auc(reference.as_mut(), &client.test, 16)?;
        assert!(
            (auc_deployed - auc_reference).abs() < 1e-12,
            "serialization must be lossless"
        );
        println!("  client {}: {auc_deployed:.3}", client.id);
    }
    println!("\ndeployed model is bit-identical to the trained one.");
    std::fs::remove_file(&path)?;
    Ok(())
}
