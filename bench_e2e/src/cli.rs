//! Command-line arguments.
//!
//! Two ways in. With `--workload` the program runs that one workload in
//! this process and ends with the one-line JSON result — the form the
//! benchmark driver calls, once per workload and seed. Without it the
//! program runs every workload, each in a child process of its own (so
//! each has its own peak RSS), untraced then traced, and prints and
//! writes the whole ledger.

use std::path::PathBuf;

use crate::catalogue::{DEFAULT_SEED, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 22.0;

/// Usage text.
pub const USAGE: &str = "\
usage: bench_e2e [--workload NAME --trace 0|1] [--seed N] [--seconds S]
                 [--smoke] [--repeat K] [--out PATH] [--trace-out PATH]

  --workload NAME   run one workload in this process and print its result line
                    (fedprox_inproc, table3_quick, wire_channel_routenet,
                    wire_uds_2proc, stream_100c); without it, run them all
  --trace 0|1       0: end-to-end metrics from untraced iterations (default)
                    1: per-layer metrics from traced iterations and probes
  --seed N          workload seed (default 42; 1337 is the held-out seed)
  --seconds S       how long one run measures (default 22)
  --smoke           every workload at its smallest size, one iteration
  --repeat K        run K full sets and check they agree within the bounds
  --out PATH        where the full run writes its results JSON
  --trace-out PATH  where a traced run writes its spans as JSON lines";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `Some` selects the single-workload form.
    pub workload: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Smallest sizes, one iteration.
    pub smoke: bool,
    /// Number of full sets.
    pub repeat: usize,
    /// Results file of the full run.
    pub out: Option<PathBuf>,
    /// Span file of a traced run.
    pub trace_out: Option<PathBuf>,
}

fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("bad value {text:?} for {flag}"))
}

impl Args {
    /// Parses from an explicit iterator.
    ///
    /// # Errors
    ///
    /// A message for an unknown flag, a malformed value, or a
    /// combination that cannot run — so a typo never measures the
    /// wrong thing.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            repeat: 1,
            out: None,
            trace_out: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workload" => out.workload = Some(value(&mut it, "--workload")?),
                "--seed" => out.seed = value(&mut it, "--seed")?,
                "--seconds" => out.seconds = value(&mut it, "--seconds")?,
                "--trace" => {
                    out.trace = match value::<u8>(&mut it, "--trace")? {
                        0 => false,
                        1 => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => out.smoke = true,
                "--repeat" => out.repeat = value(&mut it, "--repeat")?,
                "--out" => out.out = Some(value(&mut it, "--out")?),
                "--trace-out" => out.trace_out = Some(value(&mut it, "--trace-out")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if let Some(name) = &out.workload {
            if !WORKLOADS.iter().any(|w| w.name == name) {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload {name}; one of {}",
                    known.join(", ")
                ));
            }
            if out.repeat != 1 || out.out.is_some() {
                return Err("--repeat and --out belong to the full run, not --workload".into());
            }
        } else if out.trace || out.trace_out.is_some() {
            return Err("--trace and --trace-out need --workload".into());
        }
        if !(out.seconds.is_finite() && (0.0..=3600.0).contains(&out.seconds)) {
            return Err(format!("--seconds {} is out of range", out.seconds));
        }
        if out.repeat == 0 {
            return Err("--repeat must be at least 1".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        Args::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_form_parses() {
        let a = parse(&[
            "--workload",
            "stream_100c",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("stream_100c"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(
            !parse(&["--workload", "table3_quick", "--trace", "0"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn defaults_select_the_full_run() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workload, None);
        assert_eq!(
            (a.seed, a.seconds, a.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, 1)
        );
        let a = parse(&["--smoke", "--repeat", "2", "--out", "r.json"]).unwrap();
        assert!(a.smoke);
        assert_eq!(a.repeat, 2);
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
    }

    #[test]
    fn mistakes_are_refused() {
        for bad in [
            &["--frobnicate"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--workload", "nope"],
            &["--trace", "1"],
            &["--workload", "table3_quick", "--trace", "2"],
            &["--workload", "table3_quick", "--repeat", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--repeat", "0"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_seconds_is_the_manifests_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            manifest.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
