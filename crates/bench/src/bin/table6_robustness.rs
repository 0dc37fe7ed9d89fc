//! Generates **Table 6** (new to this reproduction): federation
//! robustness under hostile clients.
//!
//! The paper's threat model assumes honest clients; this bench measures
//! what happens when that fails. For every attack in a fixed palette
//! (clean baseline, label noise, feature drift, sign-flip and
//! scaled-noise Byzantine updates) it runs each method under each
//! aggregation defense (weighted mean, coordinate-wise median, trimmed
//! mean) and prints one attack × defense × method grid of per-client
//! AUCs. A client whose model diverged under attack renders as a `div`
//! cell — the run itself never aborts.
//!
//! The grid on stdout is a pure function of the configuration: timings
//! go to stderr, so `tests/scenario_determinism.rs`-style byte
//! comparisons across `RTE_THREADS` / `RTE_SIMD` settings hold for this
//! binary's output too.
//!
//! Run:
//!
//! ```text
//! cargo run -p rte-bench --release --bin table6_robustness
//! cargo run -p rte-bench --release --bin table6_robustness -- --quick
//! cargo run -p rte-bench --release --bin table6_robustness -- \
//!     --adversaries 3 --dropout 0.1 --scenario-seed 7
//! ```

use rte_bench::BenchArgs;
use rte_core::report::render_robustness_grid;
use rte_core::{build_experiment_clients, model_factory};
use rte_fed::{run_scenario, Aggregation, Attack, Method, ScenarioConfig};
use rte_nn::models::ModelKind;

/// Scenario-specific options layered on top of the shared [`BenchArgs`].
struct ScenarioArgs {
    /// Number of hostile clients (the highest-indexed ones).
    adversaries: usize,
    /// Per-round per-client dropout probability.
    dropout: f32,
    /// Seed of the scenario streams (independent of the training seed).
    scenario_seed: u64,
    /// Everything the other table binaries also accept.
    shared: BenchArgs,
}

impl ScenarioArgs {
    fn parse() -> Result<Self, String> {
        let mut adversaries = 2usize;
        let mut dropout = 0.0f32;
        let mut scenario_seed = 0x7AB6u64;
        let mut rest = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--adversaries" => {
                    let v = it.next().ok_or("--adversaries needs a value")?;
                    adversaries = v.parse().map_err(|_| format!("bad adversary count {v}"))?;
                }
                "--dropout" => {
                    let v = it.next().ok_or("--dropout needs a value")?;
                    dropout = v.parse().map_err(|_| format!("bad dropout {v}"))?;
                    if !(0.0..1.0).contains(&dropout) {
                        return Err(format!("dropout {dropout} outside [0, 1)"));
                    }
                }
                "--scenario-seed" => {
                    let v = it.next().ok_or("--scenario-seed needs a value")?;
                    scenario_seed = v.parse().map_err(|_| format!("bad scenario seed {v}"))?;
                }
                other => rest.push(other.to_string()),
            }
        }
        Ok(ScenarioArgs {
            adversaries,
            dropout,
            scenario_seed,
            shared: BenchArgs::parse_for(env!("CARGO_BIN_NAME"), rest)?,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ScenarioArgs::parse().unwrap_or_else(|e| {
        eprintln!(
            "table6_robustness also takes [--adversaries N] [--dropout F] [--scenario-seed N]"
        );
        rte_bench::usage_exit(&e)
    });
    let config = args.shared.experiment_config();

    // The attack palette: one grid per attack. The amplified sign-flip
    // overflows the weighted mean's f32 coordinates within a round or
    // two (diverged clients render as `div` cells), while the robust
    // rules shed it — the contrast the table exists to show. A merely
    // large scale would only saturate the sigmoid to a flat 0.5.
    let attacks: &[Attack] = if args.shared.quick {
        &[Attack::None, Attack::SignFlip { scale: 1e38 }]
    } else {
        &[
            Attack::None,
            Attack::LabelNoise { rate: 0.3 },
            Attack::FeatureDrift { sigma: 1.5 },
            Attack::SignFlip { scale: 1e38 },
            Attack::ScaledNoise { sigma: 2.0 },
        ]
    };
    let defenses = [
        Aggregation::WeightedMean,
        Aggregation::Median,
        Aggregation::TrimmedMean { trim_ratio: 0.25 },
    ];
    let methods: &[Method] = if args.shared.quick {
        &[Method::FedProx]
    } else {
        &[Method::FedProx, Method::AlphaSync]
    };

    eprintln!(
        "running robustness matrix ({} attacks × {} defenses × {} methods, {} adversaries, \
         dropout {:.2}) …",
        attacks.len(),
        defenses.len(),
        methods.len(),
        args.adversaries,
        args.dropout
    );
    let start = std::time::Instant::now();
    let clients = build_experiment_clients(&config)?;
    let factory = model_factory(ModelKind::FlNet, config.model_scale);

    for attack in attacks {
        let scenario = ScenarioConfig::honest(args.scenario_seed, clients.len())
            .hostile_tail(args.adversaries, *attack)
            .with_dropout(args.dropout);
        let mut rows = Vec::new();
        for &method in methods {
            for defense in defenses {
                let mut fed = config.fed.clone();
                fed.aggregation = defense;
                let attack_start = std::time::Instant::now();
                let outcome = run_scenario(method, &clients, &factory, &fed, &scenario)?;
                eprintln!(
                    "  {} / {} / {}: {:.1?}",
                    attack.label(),
                    method.label(),
                    defense.label(),
                    attack_start.elapsed()
                );
                rows.push(outcome);
            }
        }
        let title = format!(
            "Robustness under {} ({} of {} clients hostile, dropout {:.2})",
            attack.label(),
            args.adversaries,
            clients.len(),
            args.dropout
        );
        println!("{}", render_robustness_grid(&title, clients.len(), &rows));
    }
    eprintln!("elapsed: {:.1?}", start.elapsed());
    Ok(())
}
