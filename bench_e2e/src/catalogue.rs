//! The metric and workload catalogue — the benchmark's vocabulary.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test below keeps the two in step. A later change cites these names
//! when it claims a gain or promises to hold a number still, so names
//! are never reused for a different measurement.

/// Version of the result-file layout written by the full run.
pub const SCHEMA_VERSION: u32 = 1;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 42;

/// Held-out seed: a claim tuned on [`DEFAULT_SEED`] must also hold here.
pub const HELD_OUT_SEED: u64 = 1337;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: defined on every workload, never zero, with
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics, in print order.
///
/// The three times are stated at the reference clock (`clock.rs`): the
/// hosts this runs on step their core clock between about 2.9 and
/// 4.1 GHz, and plain seconds followed it by a quarter. Every bound is
/// the widest the driver's contract admits: with the clock taken out,
/// ten runs on ten seeds still spread by 2 to 6 % on a quiet host, a
/// busy one doubles that, and a bound under three times the spread
/// rejects unchanged code.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric. The name's first segment is the layer (crate)
/// whose public function it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, `layer.what.unit-ish`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, in print order. Every traced run reports all
/// of them; one a workload does not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 61] = [
    // tensor — probes at FLNet-scaled layer shapes.
    lower("tensor.conv2d_fwd.us", "us"),
    lower("tensor.conv2d_bwd.us", "us"),
    higher("tensor.matmul.gflops", "gflop/s"),
    // nn — probes on the workload's model.
    lower("nn.forward.us", "us"),
    lower("nn.backward.us", "us"),
    lower("nn.adam_step.us", "us"),
    lower("nn.model_build.us", "us"),
    lower("nn.serialize.us", "us"),
    lower("nn.deserialize.us", "us"),
    lower("nn.state_bytes", "bytes"),
    // net — probes, then spans and counts from the wire workloads.
    higher("net.crc32.mb_per_s", "MB/s"),
    lower("net.frame_encode.us", "us"),
    lower("net.frame_decode.us", "us"),
    lower("net.send.us", "us"),
    lower("net.recv_wait.ms", "ms"),
    lower("net.frames_per_round", "count"),
    lower("net.bytes_per_round", "bytes"),
    lower("net.accept_fleet.ms", "ms"),
    // fed — spans around rounds, slots, aggregation, evaluation.
    lower("fed.round.p50.ms", "ms"),
    lower("fed.round.p90.ms", "ms"),
    lower("fed.train_slot.ms", "ms"),
    lower("fed.train_slot.count", "count"),
    lower("fed.train_step.us", "us"),
    lower("fed.aggregate.us", "us"),
    lower("fed.eval_global.ms", "ms"),
    lower("fed.message_encode.us", "us"),
    lower("fed.message_decode.us", "us"),
    lower("fed.checkpoint_write.ms", "ms"),
    lower("fed.checkpoint_bytes", "bytes"),
    lower("fed.coord_wait_share", "ratio"),
    higher("fed.parallel_efficiency", "ratio"),
    // eda / core — data generation, shards, client construction.
    lower("eda.generate.ms", "ms"),
    lower("core.build_clients.ms", "ms"),
    lower("eda.shard_write.ms", "ms"),
    lower("eda.compact.ms", "ms"),
    higher("eda.compress_ratio", "ratio"),
    lower("eda.open_validate.ms", "ms"),
    lower("eda.read.calls", "count"),
    lower("eda.read.busy_ms", "ms"),
    lower("eda.read.amplification", "ratio"),
    higher("eda.read_pass_read.samples_per_s", "1/s"),
    higher("eda.read_pass_mmap.samples_per_s", "1/s"),
    higher("eda.read_pass_v2.samples_per_s", "1/s"),
    // metrics — probes at the workload's per-client score count.
    lower("metrics.roc_auc.us", "us"),
    lower("metrics.eval_report.us", "us"),
    // core — one span per training method of the table run.
    lower("core.method.local.ms", "ms"),
    lower("core.method.central.ms", "ms"),
    lower("core.method.fedprox.ms", "ms"),
    lower("core.method.fedprox_lg.ms", "ms"),
    lower("core.method.ifca.ms", "ms"),
    lower("core.method.finetune.ms", "ms"),
    lower("core.method.assigned.ms", "ms"),
    lower("core.method.alpha_sync.ms", "ms"),
    lower("core.render_table.us", "us"),
    // bench — quality of the ledger itself, and the clock it ran at.
    higher("bench.clock_ghz", "GHz"),
    lower("bench.trace_overhead", "ratio"),
    lower("bench.unattributed_share", "ratio"),
    higher("bench.self_share.fed", "ratio"),
    higher("bench.self_share.net", "ratio"),
    higher("bench.self_share.eda", "ratio"),
    higher("bench.self_share.core", "ratio"),
];

/// One workload: its name (final — later issues cite it) and why it
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "fedprox_inproc",
        why: "FedProx+FLNet on the 9-client fleet, in process on 2 threads: almost all train steps, no wire, no disk - a tensor/nn kernel win must show here and a wire or reader change must not",
    },
    WorkloadDef {
        name: "table3_quick",
        why: "the table3_flnet --quick run users start most: all eight methods plus table rendering, the only workload on the seven non-FedProx loops, forward-only passes and the metrics layer",
    },
    WorkloadDef {
        name: "wire_channel_routenet",
        why: "8 clients, 1.2 MB RouteNet state, 1 local step, in-process links, a checkpoint every round: serialize, CRC, frame and checkpoint cost dominate, so a kernel win shows only by its train share",
    },
    WorkloadDef {
        name: "wire_uds_2proc",
        why: "the benchmark is the coordinator over Unix sockets to 2 real rte-client processes: spawn, per-process fleet build, socket copies and a coordinator blocked while clients train",
    },
    WorkloadDef {
        name: "stream_100c",
        why: "100-client universe out of core: set-up writes and compacts 200 shards, the run streams them back in 8-sample chunks through 100-way training, aggregation and evaluation",
    },
];

#[cfg(test)]
/// True when `name` is usable as a metric or workload name: starts
/// with a letter or digit, then letters, digits, `_`, `.`, `-`; at most
/// 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// True when `unit` is a usable unit: 1–16 of letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn name_validation() {
        for good in ["run_s", "fed.round.p50.ms", "a", "9lives", "x-y_z.1"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "sl/ash",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_validation() {
        for good in ["s", "ms", "1/s", "MB/s", "gflop/s", "%", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap()
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the program prints. They must say the same thing.
    #[test]
    fn manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = manifest
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = manifest.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }

        let e2e = manifest.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(want.bound));
        }

        let layers = manifest.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
    }
}
