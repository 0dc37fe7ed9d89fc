//! Regenerates **Table 1**: the FLNet model architecture configuration.
//!
//! Prints the layer table exactly as the paper formats it, derived from
//! the actual constructed model (kernel sizes, filter counts, activations
//! and the parameter count), so the printed table cannot drift from the
//! implementation.

use rte_eda::features::FEATURE_CHANNELS;
use rte_nn::models::{FlNet, FlNetConfig};
use rte_nn::Layer;
use rte_tensor::rng::Xoshiro256;

fn main() {
    // Every shared flag is refused: the table is a constant of the code.
    rte_bench::BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = FlNetConfig::new(FEATURE_CHANNELS);
    let mut rng = Xoshiro256::seed_from(0);
    let mut model = FlNet::new(config, &mut rng);

    println!("Table 1: FLNet Model Architecture Configuration");
    println!(
        "{:<14} {:>11} {:>9} {:>11}",
        "Layer", "Kernel size", "#Filters", "Activation"
    );
    println!("{}", "-".repeat(48));
    println!(
        "{:<14} {:>11} {:>9} {:>11}",
        "input_conv",
        format!("{0}x{0}", config.kernel),
        config.hidden,
        "ReLU"
    );
    println!(
        "{:<14} {:>11} {:>9} {:>11}",
        "output_conv",
        format!("{0}x{0}", config.kernel),
        1,
        "None"
    );
    println!();

    // Verify the printed table against the real model.
    let mut names = Vec::new();
    model.visit_params("", &mut |n, p| {
        names.push((n, p.value.shape().dims().to_vec()))
    });
    println!(
        "Constructed model parameters ({} scalars total):",
        model.param_count()
    );
    for (name, dims) in &names {
        println!("  {:<22} {:?}", name, dims);
    }
    let expected = [
        (
            "input_conv/weight",
            vec![config.hidden, FEATURE_CHANNELS, 9, 9],
        ),
        ("input_conv/bias", vec![config.hidden]),
        ("output_conv/weight", vec![1, config.hidden, 9, 9]),
        ("output_conv/bias", vec![1]),
    ];
    for (name, dims) in expected {
        assert!(
            names.iter().any(|(n, d)| n == name && *d == dims),
            "model drifted from Table 1: missing {name} {dims:?}"
        );
    }
    println!("\nTable 1 verified against the constructed model.");
}
