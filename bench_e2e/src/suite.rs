//! The full run: every workload, untraced then traced, each in a child
//! process of its own; the printed ledger; the results file; and the
//! `--repeat` agreement check.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::catalogue::{EndToEnd, END_TO_END, HELD_OUT_SEED, PER_LAYER, SCHEMA_VERSION, WORKLOADS};
use crate::cli::Args;
use crate::json::{parse, Value};
use crate::runner::out_dir;

/// Prefix of the detail line a workload process prints before its
/// result line.
pub const DETAIL_PREFIX: &str = "#detail ";

/// One workload process's output, parsed.
struct ChildRun {
    detail: Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.detail
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn failed(&self) -> f64 {
        self.detail
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::INFINITY)
    }
}

/// Re-executes this binary for one workload.
fn run_child(workload: &str, trace: bool, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let detail = stdout
        .lines()
        .rev()
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    Ok(ChildRun {
        detail: parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
    })
}

/// `git rev-parse HEAD` and whether the tree is dirty; `unknown` where
/// there is no repository (an exported checkout).
fn git_provenance() -> (String, Value) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) if !commit.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            (commit, Value::Bool(dirty))
        }
        _ => ("unknown".to_string(), Value::Null),
    }
}

/// Whether two medians agree within `bound` (relative to the smaller).
fn agree(a: f64, b: f64, bound: f64) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    hi - lo <= bound * lo.abs()
}

/// One full set: `(end-to-end run, traced run)` per workload, in
/// catalogue order.
type Set = Vec<(ChildRun, ChildRun)>;

fn run_set(args: &Args) -> Result<Set, String> {
    let mut runs = Vec::with_capacity(WORKLOADS.len());
    for w in &WORKLOADS {
        eprintln!("bench_e2e: {} …", w.name);
        let e2e = run_child(w.name, false, args)?;
        let traced = run_child(w.name, true, args)?;
        runs.push((e2e, traced));
    }
    Ok(runs)
}

fn print_set(set: &Set) {
    println!("End-to-end metrics (median over timed iterations)");
    print!("{:<24}", "workload");
    for m in &END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>10}", "failed");
    for (w, (e2e, traced)) in WORKLOADS.iter().zip(set) {
        print!("{:<24}", w.name);
        for m in &END_TO_END {
            print!(" {:>18.4}", e2e.metric(m.name).unwrap_or(f64::NAN));
        }
        println!(" {:>10}", e2e.failed() + traced.failed());
    }
    println!();
    println!("Per-layer metrics (traced run and probes; 0 = layer not exercised)");
    print!("{:<36} {:>8}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>22}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<36} {:>8}", m.name, m.unit);
        for (_, traced) in set {
            print!(" {:>22.4}", traced.metric(m.name).unwrap_or(f64::NAN));
        }
        println!();
    }
    println!();
}

/// Compares the sets pairwise: end-to-end medians within their bounds,
/// counts exactly. Returns the disagreements.
fn disagreements(sets: &[Set]) -> Vec<String> {
    let mut out = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let per_set = |pick: &dyn Fn(&(ChildRun, ChildRun)) -> Option<f64>| -> Vec<f64> {
            sets.iter()
                .map(|s| pick(&s[wi]).unwrap_or(f64::NAN))
                .collect()
        };
        for &EndToEnd {
            name, bound, unit, ..
        } in &END_TO_END
        {
            let values = per_set(&|(e2e, _)| e2e.metric(name));
            let ok = values
                .iter()
                .all(|a| values.iter().all(|b| agree(*a, *b, bound)));
            println!(
                "repeat: {:<24} {:<12} {:?} {unit}  {}",
                w.name,
                name,
                values,
                if ok {
                    format!("agree within {bound}")
                } else {
                    format!("DISAGREE beyond {bound}")
                }
            );
            if !ok {
                out.push(format!(
                    "{}/{name}: {values:?} differ by more than {bound}",
                    w.name
                ));
            }
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes"))
        {
            let values = per_set(&|(_, traced)| traced.metric(m.name));
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                out.push(format!("{}/{}: counts {values:?} differ", w.name, m.name));
            }
        }
    }
    out
}

fn results_json(sets: &[Set], args: &Args) -> Value {
    let (commit, dirty) = git_provenance();
    let set_values = sets.iter().map(|set| {
        Value::Arr(
            WORKLOADS
                .iter()
                .zip(set)
                .map(|(w, (e2e, traced))| {
                    Value::obj([
                        ("workload", Value::str(w.name)),
                        ("why", Value::str(w.why)),
                        ("end_to_end", e2e.detail.clone()),
                        ("per_layer", traced.detail.clone()),
                    ])
                })
                .collect(),
        )
    });
    Value::obj([
        ("schema_version", Value::Num(f64::from(SCHEMA_VERSION))),
        ("commit", Value::str(commit)),
        ("dirty", dirty),
        ("seed", Value::Num(args.seed as f64)),
        ("held_out_seed", Value::Num(HELD_OUT_SEED as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("sets", Value::Arr(set_values.collect())),
        // This benchmark measures; it claims no gain.
        ("claim", Value::Null),
    ])
}

/// Runs the whole benchmark. `Ok(true)` when every iteration passed
/// its checks and, under `--repeat`, every pair of sets agreed.
pub fn run(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::with_capacity(args.repeat);
    for k in 0..args.repeat {
        if args.repeat > 1 {
            eprintln!("bench_e2e: set {} of {}", k + 1, args.repeat);
        }
        let set = run_set(args)?;
        print_set(&set);
        sets.push(set);
    }
    let mut problems: Vec<String> = Vec::new();
    for set in &sets {
        for (w, (e2e, traced)) in WORKLOADS.iter().zip(set) {
            for (run, what) in [(e2e, "end-to-end"), (traced, "traced")] {
                if run.failed() > 0.0 {
                    let why = run.detail.get("failures").map(Value::render);
                    problems.push(format!(
                        "{} ({what}): {} failed iterations {}",
                        w.name,
                        run.failed(),
                        why.unwrap_or_default()
                    ));
                }
            }
        }
    }
    if sets.len() > 1 {
        problems.extend(disagreements(&sets));
    }

    let results = results_json(&sets, args);
    let path = match &args.out {
        Some(path) => path.clone(),
        None => out_dir()?.join("results.json"),
    };
    if let Some(parent) = path.parent().filter(|p| *p != Path::new("")) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    println!("traces:  {}/trace-<workload>.jsonl", out_dir()?.display());
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    println!("{}", Value::obj([("claim", Value::Null)]).render());
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_relative_to_the_smaller_value() {
        assert!(agree(1.0, 1.04, 0.05));
        assert!(agree(1.04, 1.0, 0.05));
        assert!(!agree(1.0, 1.06, 0.05));
        assert!(agree(0.0, 0.0, 0.1));
        assert!(!agree(f64::NAN, 1.0, 0.1));
    }

    #[test]
    fn results_end_with_a_null_claim() {
        let args = Args::parse_from(Vec::new()).unwrap();
        let text = results_json(&[], &args).render();
        assert!(text.ends_with("\"claim\": null}"), "{text}");
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("schema_version").unwrap().as_f64(),
            Some(f64::from(SCHEMA_VERSION))
        );
        assert_eq!(v.get("held_out_seed").unwrap().as_f64(), Some(1337.0));
        assert!(v.get("commit").unwrap().as_str().is_some());
    }
}
