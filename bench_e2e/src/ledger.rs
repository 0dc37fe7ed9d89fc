//! From spans, counts and probes to the per-layer metrics.
//!
//! A traced run yields, per traced iteration, the spans the benchmark
//! recorded and the exact counts the workload reported. This module
//! turns them into one value per catalogued per-layer metric. A metric
//! whose span never occurred in a workload reads 0 there.

use std::collections::BTreeMap;

use crate::stats::{median, percentile};
use crate::trace::{self_times, totals_by_name, NameTotals, Span};

/// One traced iteration's raw material.
pub struct TracedIteration {
    /// Every span of the iteration.
    pub spans: Vec<Span>,
    /// The workload's exact counts (`rounds`, `wire_bytes`, …).
    pub facts: BTreeMap<&'static str, f64>,
}

/// How a span name becomes a metric value.
#[derive(Clone, Copy)]
enum From {
    /// Mean duration over every span of the name, all iterations pooled.
    Mean,
    /// Summed duration per iteration, median over iterations.
    TotalPerIteration,
    /// Span count per iteration, median over iterations.
    CountPerIteration,
}

/// `(metric, span name, aggregation, nanoseconds per metric unit)`.
const SPAN_METRICS: [(&str, &str, From, f64); 26] = [
    ("net.send.us", "net.send", From::Mean, 1e3),
    ("net.recv_wait.ms", "net.recv_wait", From::Mean, 1e6),
    (
        "net.accept_fleet.ms",
        "net.accept_fleet",
        From::TotalPerIteration,
        1e6,
    ),
    ("fed.train_slot.ms", "fed.train_slot", From::Mean, 1e6),
    (
        "fed.train_slot.count",
        "fed.train_slot",
        From::CountPerIteration,
        1.0,
    ),
    ("fed.aggregate.us", "fed.aggregate", From::Mean, 1e3),
    ("fed.eval_global.ms", "fed.eval_global", From::Mean, 1e6),
    (
        "fed.message_encode.us",
        "fed.message_encode",
        From::Mean,
        1e3,
    ),
    (
        "fed.message_decode.us",
        "fed.message_decode",
        From::Mean,
        1e3,
    ),
    (
        "fed.checkpoint_write.ms",
        "fed.checkpoint_write",
        From::Mean,
        1e6,
    ),
    (
        "eda.generate.ms",
        "eda.generate",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.build_clients.ms",
        "core.build_clients",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "eda.shard_write.ms",
        "eda.shard_write",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "eda.compact.ms",
        "eda.compact",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "eda.open_validate.ms",
        "eda.open_validate",
        From::TotalPerIteration,
        1e6,
    ),
    ("eda.read.calls", "eda.read", From::CountPerIteration, 1.0),
    ("eda.read.busy_ms", "eda.read", From::TotalPerIteration, 1e6),
    (
        "core.method.local.ms",
        "core.method.local",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.central.ms",
        "core.method.central",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.fedprox.ms",
        "core.method.fedprox",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.fedprox_lg.ms",
        "core.method.fedprox_lg",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.ifca.ms",
        "core.method.ifca",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.finetune.ms",
        "core.method.finetune",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.assigned.ms",
        "core.method.assigned",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.method.alpha_sync.ms",
        "core.method.alpha_sync",
        From::TotalPerIteration,
        1e6,
    ),
    (
        "core.render_table.us",
        "core.render_table",
        From::TotalPerIteration,
        1e3,
    ),
];

/// Layers a span name's first segment can name, for the self-time
/// shares.
const LAYERS: [(&str, &str); 4] = [
    ("bench.self_share.fed", "fed."),
    ("bench.self_share.net", "net."),
    ("bench.self_share.eda", "eda."),
    ("bench.self_share.core", "core."),
];

/// `num / den`, reading 0 when there is nothing to divide (an empty
/// float sum is `-0.0`, which must not print as `-0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num != 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of one fact over the iterations that report it.
fn fact(iterations: &[TracedIteration], key: &str) -> f64 {
    let values: Vec<f64> = iterations
        .iter()
        .filter_map(|it| it.facts.get(key).copied())
        .collect();
    median(&values)
}

/// Where the run's time went, for one iteration: the share of the
/// `bench.run` span no named span covers, and each layer's share of
/// all self time recorded inside the run.
fn run_shares(spans: &[Span]) -> Option<(f64, [f64; LAYERS.len()])> {
    let run = spans.iter().find(|s| s.name == "bench.run")?;
    let selfs = self_times(spans);
    let self_of = |s: &Span| selfs.get(&s.id).copied().unwrap_or(0) as f64;
    let inside: Vec<&Span> = spans
        .iter()
        .filter(|s| s.start_ns >= run.start_ns && s.end_ns <= run.end_ns)
        .collect();
    let all_self: f64 = inside.iter().map(|s| self_of(s)).sum();
    let mut layers = [0.0; LAYERS.len()];
    for (share, (_, prefix)) in layers.iter_mut().zip(&LAYERS) {
        let layer_self: f64 = inside
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| self_of(s))
            .sum();
        *share = ratio(layer_self, all_self);
    }
    Some((ratio(self_of(run), run.duration_ns() as f64), layers))
}

/// Computes every span- and count-derived per-layer metric.
///
/// `threads` is the workload's pinned thread count; `overheads` holds,
/// per pair of neighbouring untraced and traced iterations, traced ÷
/// untraced `run_s` − 1.
pub fn per_layer(
    iterations: &[TracedIteration],
    threads: usize,
    overheads: &[f64],
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_iteration: Vec<BTreeMap<&'static str, NameTotals>> = iterations
        .iter()
        .map(|it| totals_by_name(&it.spans))
        .collect();
    let mut pooled: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for totals in &per_iteration {
        for (name, t) in totals {
            let p = pooled.entry(name).or_default();
            p.count += t.count;
            p.total_ns += t.total_ns;
            p.self_ns += t.self_ns;
        }
    }
    let pooled_of = |name: &str| pooled.get(name).copied().unwrap_or_default();
    let across = |name: &str, pick: fn(&NameTotals) -> f64| -> f64 {
        let values: Vec<f64> = per_iteration
            .iter()
            .map(|totals| totals.get(name).map_or(0.0, pick))
            .collect();
        median(&values)
    };

    for (metric, span, from, ns_per_unit) in SPAN_METRICS {
        let value = match from {
            From::Mean => pooled_of(span).mean_ns() / ns_per_unit,
            From::TotalPerIteration => across(span, |t| t.total_ns as f64) / ns_per_unit,
            From::CountPerIteration => across(span, |t| t.count as f64),
        };
        out.insert(metric, value);
    }
    let round_ms: Vec<f64> = iterations
        .iter()
        .flat_map(|it| &it.spans)
        .filter(|s| s.name == "fed.round")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    out.insert("fed.round.p50.ms", percentile(&round_ms, 50.0));
    out.insert("fed.round.p90.ms", percentile(&round_ms, 90.0));

    let slots = pooled_of("fed.train_slot");
    out.insert(
        "fed.train_step.us",
        ratio(slots.mean_ns(), fact(iterations, "steps_per_slot")) / 1e3,
    );
    out.insert(
        "fed.coord_wait_share",
        ratio(
            pooled_of("net.recv_wait").total_ns as f64,
            pooled_of("fed.round").total_ns as f64,
        ),
    );
    out.insert(
        "fed.parallel_efficiency",
        ratio(
            slots.total_ns as f64,
            threads as f64 * pooled_of("fed.train_phase").total_ns as f64,
        ),
    );

    let rounds = fact(iterations, "rounds");
    out.insert(
        "net.frames_per_round",
        ratio(fact(iterations, "wire_frames"), rounds),
    );
    out.insert(
        "net.bytes_per_round",
        ratio(fact(iterations, "wire_bytes"), rounds),
    );
    out.insert("fed.checkpoint_bytes", fact(iterations, "checkpoint_bytes"));
    out.insert("eda.compress_ratio", fact(iterations, "compress_ratio"));
    out.insert(
        "eda.read.amplification",
        ratio(
            fact(iterations, "samples_decoded"),
            fact(iterations, "samples_consumed"),
        ),
    );

    // Spans and probes are plain nanoseconds; this is the clock to read
    // them against.
    out.insert("bench.clock_ghz", fact(iterations, "clock_ghz"));
    out.insert("bench.trace_overhead", median(overheads));
    let shares: Vec<(f64, [f64; LAYERS.len()])> = iterations
        .iter()
        .filter_map(|it| run_shares(&it.spans))
        .collect();
    let unattributed: Vec<f64> = shares.iter().map(|(u, _)| *u).collect();
    out.insert("bench.unattributed_share", median(&unattributed));
    for (i, (metric, _)) in LAYERS.iter().enumerate() {
        let layer: Vec<f64> = shares.iter().map(|(_, l)| l[i]).collect();
        out.insert(metric, median(&layer));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::PER_LAYER;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            round: 0,
            client: -1,
        }
    }

    fn iteration() -> TracedIteration {
        // run [0,1000]: round [0,800] with a train phase [0,600] whose
        // two slots overlap on two threads, an aggregate, and 100 ns
        // nobody named; eval [800,1000].
        let spans = vec![
            span(1, 0, "bench.run", 0, 1000),
            span(2, 1, "fed.round", 0, 800),
            span(3, 2, "fed.train_phase", 0, 600),
            span(4, 3, "fed.train_slot", 0, 500),
            span(5, 3, "fed.train_slot", 100, 600),
            span(6, 5, "eda.read", 200, 300),
            span(7, 2, "fed.aggregate", 600, 700),
            span(8, 1, "fed.eval_global", 800, 1000),
        ];
        let facts = BTreeMap::from([
            ("rounds", 2.0),
            ("steps_per_slot", 5.0),
            ("wire_bytes", 3000.0),
            ("wire_frames", 8.0),
            ("samples_decoded", 30.0),
            ("samples_consumed", 20.0),
            ("clock_ghz", 3.5),
        ]);
        TracedIteration { spans, facts }
    }

    #[test]
    fn spans_and_facts_become_metrics() {
        let m = per_layer(&[iteration(), iteration()], 2, &[0.02, 0.04]);
        assert_eq!(m["fed.train_slot.count"], 2.0);
        assert_eq!(m["bench.clock_ghz"], 3.5);
        assert_eq!(m["fed.train_slot.ms"], 500.0 / 1e6);
        assert_eq!(m["fed.train_step.us"], 100.0 / 1e3);
        assert_eq!(m["fed.aggregate.us"], 0.1);
        assert_eq!(m["fed.round.p50.ms"], 800.0 / 1e6);
        assert_eq!(m["fed.parallel_efficiency"], 1000.0 / (2.0 * 600.0));
        assert_eq!(m["eda.read.calls"], 1.0);
        assert_eq!(m["eda.read.amplification"], 1.5);
        assert_eq!(m["net.bytes_per_round"], 1500.0);
        assert_eq!(m["net.frames_per_round"], 4.0);
        assert!((m["bench.trace_overhead"] - 0.03).abs() < 1e-12);
        // Nothing in the run is unnamed except inside fed.round.
        assert_eq!(m["bench.unattributed_share"], 0.0);
        // Self times: round 100, phase 0, slots 500 + 400, read 100,
        // aggregate 100, eval 200 → fed 1300 of 1400, eda 100 of 1400.
        assert!((m["bench.self_share.fed"] - 1300.0 / 1400.0).abs() < 1e-12);
        assert!((m["bench.self_share.eda"] - 100.0 / 1400.0).abs() < 1e-12);
        assert_eq!(m["bench.self_share.net"], 0.0);
        // Spans that never occurred read 0.
        assert_eq!(m["net.send.us"], 0.0);
        assert_eq!(m["core.method.ifca.ms"], 0.0);
    }

    #[test]
    fn an_empty_trace_reads_zero_everywhere() {
        let m = per_layer(&[], 1, &[]);
        assert!(m.values().all(|v| *v == 0.0), "{m:?}");
    }

    /// Ledger and probes together cover the catalogue exactly.
    #[test]
    fn every_catalogued_metric_has_a_source() {
        let mut names: Vec<&str> = per_layer(&[iteration()], 2, &[0.0]).into_keys().collect();
        let mut probes = BTreeMap::new();
        crate::probes::run(
            crate::probes::Effort::SMOKE,
            decentralized_routability::nn::models::ModelKind::FlNet,
            decentralized_routability::nn::models::ModelScale::Scaled,
            512,
            &mut probes,
        );
        names.extend(probes.keys());
        names.extend([
            "eda.read_pass_read.samples_per_s",
            "eda.read_pass_mmap.samples_per_s",
            "eda.read_pass_v2.samples_per_s",
        ]);
        names.sort_unstable();
        let mut catalogue: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        catalogue.sort_unstable();
        assert_eq!(names, catalogue);
    }
}
