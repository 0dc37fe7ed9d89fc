//! Regenerates **Table 2**: the per-client experiment data setup — which
//! benchmark family each client draws from, design counts and placement
//! counts — by actually generating the corpus and counting what came out.

use std::collections::HashSet;

use rte_bench::BenchArgs;
use rte_eda::corpus::generate_corpus_for_specs_with;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    let specs = config.client_specs()?;
    eprintln!(
        "generating corpus (seed {:#x}, scale {:.3}) …",
        config.corpus.seed, config.corpus.placement_scale
    );
    let corpus = generate_corpus_for_specs_with(&specs, &config.corpus, config.corpus_parallelism)?;

    println!("Table 2: Experiment Data Setup for Each Client");
    println!(
        "{:<9} {:<34} {:<34}",
        "Client", "Training Designs (Num Placements)", "Testing Designs (Num Placements)"
    );
    println!("{}", "-".repeat(78));
    for client in &corpus.clients {
        let train_designs: HashSet<&str> = client
            .train
            .samples()
            .iter()
            .map(|s| s.design.as_str())
            .collect();
        let test_designs: HashSet<&str> = client
            .test
            .samples()
            .iter()
            .map(|s| s.design.as_str())
            .collect();
        println!(
            "Client {:<2} {:<34} {:<34}",
            client.spec.index,
            format!(
                "{} designs in {} ({})",
                train_designs.len(),
                client.spec.family,
                client.train.len()
            ),
            format!(
                "{} designs in {} ({})",
                test_designs.len(),
                client.spec.family,
                client.test.len()
            ),
        );
    }
    println!("{}", "-".repeat(78));
    // The paper's figures describe its nine clients, not a synthesised
    // `--clients N` universe.
    let paper = config.population.is_none();
    println!(
        "Totals: {} training + {} testing placements{}",
        corpus.total_train(),
        corpus.total_test(),
        if paper {
            " (paper: 7,131 across 74 designs)"
        } else {
            ""
        }
    );
    if paper {
        let paper_total: usize = specs
            .iter()
            .map(|c| c.train_placements + c.test_placements)
            .sum();
        println!(
            "Paper-scale totals this config would target at scale 1.0: {paper_total} placements"
        );
    }
    println!(
        "Per-client hotspot rates (label balance): {}",
        corpus
            .clients
            .iter()
            .map(|c| format!("C{} {:.1}%", c.spec.index, 100.0 * c.train.hotspot_rate()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
