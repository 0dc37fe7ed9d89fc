//! `bench_e2e` — the repository's benchmark.
//!
//! Five federated workloads, four end-to-end metrics, a per-layer
//! ledger and a traced run, all measured **from outside** through the
//! program's public functions; nothing in the program knows it is being
//! measured. See `README.md` next to this package for the tables, and
//! `BENCHMARK.json` at the repository root for the manifest the
//! benchmark driver reads.
//!
//! ```text
//! bash bench_e2e/run.sh                                   # every workload, the whole ledger
//! bash bench_e2e/run.sh --workload table3_quick --seed 42 --seconds 10 --trace 0
//! bash bench_e2e/run.sh --smoke                           # every check, smallest sizes
//! bash bench_e2e/run.sh --repeat 2 --seed 1337            # two sets must agree
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalogue;
mod cli;
mod clock;
mod json;
mod ledger;
mod probes;
mod procfs;
mod replica;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;
mod wrap;

use std::process::ExitCode;

/// Prints one workload's metrics for a reader, then the detail line the
/// full run collects, then — last — the one-line result.
fn print_run(result: &runner::RunResult) {
    for (name, value, unit, summary) in &result.metrics {
        match summary {
            // n is in single digits: quartiles are the furthest
            // percentiles that mean anything, so no p99 is printed.
            Some(s) if s.n > 1 => println!(
                "{name:<36} {value:>14.6} {unit:<8} n={} min={:.6} q1={:.6} q3={:.6} max={:.6} \
                 spread={:.4}",
                s.n,
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.spread()
            ),
            _ => println!("{name:<36} {value:>14.6} {unit}"),
        }
    }
    for failure in &result.failures {
        println!("FAILED {failure}");
    }
    println!("{}{}", suite::DETAIL_PREFIX, result.detail().render());
    println!("{}", result.result_line().render());
}

fn main() -> ExitCode {
    let args = match cli::Args::parse_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload.is_some() {
        // A run with failed iterations still reports: the result line
        // carries `correct: false` and the failed count.
        runner::run(&args).map(|result| {
            print_run(&result);
            true
        })
    } else {
        suite::run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
