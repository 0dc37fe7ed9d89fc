//! Probes: timed loops over one public function each.
//!
//! A probe runs one function of one layer at the shapes the workload
//! uses, outside any round loop, so a layer's cost is known on its own
//! and can be set against the share of the run it explains. Each probe
//! reports the median over a few batches of calls; inputs and results
//! pass through `black_box` so the measured work is not optimized away.
//! Probes run on one thread (`*_with(…, Parallelism::serial())` where a
//! kernel has a thread budget): they measure the function, not the pool.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use decentralized_routability::core::model_factory;
use decentralized_routability::eda::features::FEATURE_CHANNELS;
use decentralized_routability::eda::mmap::MmapShardReader;
use decentralized_routability::eda::shard::{CorpusReader, ShardReader};
use decentralized_routability::eda::EdaError;
use decentralized_routability::fed::{EvalReport, Parallelism};
use decentralized_routability::metrics::roc_auc;
use decentralized_routability::net::frame::crc32;
use decentralized_routability::net::Frame;
use decentralized_routability::nn::loss::mse;
use decentralized_routability::nn::models::{ModelKind, ModelScale};
use decentralized_routability::nn::optim::{Adam, Optimizer};
use decentralized_routability::nn::serialize::{read_state_dict, write_state_dict};
use decentralized_routability::nn::state_dict;
use decentralized_routability::tensor::conv::{conv2d_backward_with, conv2d_with, Conv2dSpec};
use decentralized_routability::tensor::linalg::matmul;
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::Tensor;

use crate::clock::now_ns;
use crate::stats::median;

/// How long the probes may take: batches per probe (the median batch
/// is reported) and the target wall-clock of one batch.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    batches: usize,
    batch_ns: u64,
}

impl Effort {
    /// Three batches of 40 ms: about two seconds for all probes.
    pub const FULL: Effort = Effort {
        batches: 3,
        batch_ns: 40_000_000,
    };
    /// One batch of 4 ms, for the smoke run: the numbers exist and are
    /// the right order of magnitude, no more.
    pub const SMOKE: Effort = Effort {
        batches: 1,
        batch_ns: 4_000_000,
    };
}

/// Median nanoseconds per call of `op`.
fn ns_per_call(effort: Effort, mut op: impl FnMut()) -> f64 {
    // One warm call, which also sizes the batch.
    let start = now_ns();
    op();
    let first = now_ns().saturating_sub(start).max(1);
    let calls = (effort.batch_ns / first).clamp(1, 100_000) as usize;
    let batches: Vec<f64> = (0..effort.batches)
        .map(|_| {
            let start = now_ns();
            for _ in 0..calls {
                op();
            }
            now_ns().saturating_sub(start) as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

fn random_tensor(dims: &[usize], rng: &mut Xoshiro256) -> Tensor {
    Tensor::from_fn(dims, |_| rng.uniform())
}

/// Grid extent of every corpus in the repository's configs.
const GRID: usize = 16;
/// Minibatch size of the scaled profile.
const BATCH: usize = 4;

/// `tensor.*`: the FLNet-scaled input convolution (6→16 channels, 9×9,
/// batch 4, 16×16 grid) forward and backward, and the GEMM shape its
/// backward pass is dominated by.
fn tensor_probes(effort: Effort, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Xoshiro256::seed_from(0xBE7C);
    let spec = Conv2dSpec::same(9);
    let x = random_tensor(&[BATCH, FEATURE_CHANNELS, GRID, GRID], &mut rng);
    let w = random_tensor(&[16, FEATURE_CHANNELS, 9, 9], &mut rng);
    let bias = random_tensor(&[16], &mut rng);
    let dy = random_tensor(&[BATCH, 16, GRID, GRID], &mut rng);
    let serial = Parallelism::serial();
    out.insert(
        "tensor.conv2d_fwd.us",
        ns_per_call(effort, || {
            black_box(conv2d_with(black_box(&x), &w, Some(&bias), spec, serial).expect("shapes"));
        }) / 1e3,
    );
    out.insert(
        "tensor.conv2d_bwd.us",
        ns_per_call(effort, || {
            black_box(conv2d_backward_with(black_box(&x), &w, &dy, spec, serial).expect("shapes"));
        }) / 1e3,
    );
    let (m, k, n) = (128, 729, 576);
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform()).collect();
    let mut c = vec![0.0f32; m * n];
    let ns = ns_per_call(effort, || {
        matmul(black_box(&a), &b, m, k, n, &mut c);
        black_box(&mut c);
    });
    out.insert("tensor.matmul.gflops", (2 * m * k * n) as f64 / ns);
}

/// `nn.*` and the `net.*` codecs, on the workload's model and its
/// serialized state.
fn model_probes(
    effort: Effort,
    kind: ModelKind,
    scale: ModelScale,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let factory = model_factory(kind, scale);
    let mut rng = Xoshiro256::seed_from(0xBE7D);
    let x = random_tensor(&[BATCH, FEATURE_CHANNELS, GRID, GRID], &mut rng);
    let y = Tensor::from_fn(&[BATCH, 1, GRID, GRID], |_| f32::from(rng.bernoulli(0.2)));

    out.insert(
        "nn.model_build.us",
        ns_per_call(effort, || {
            black_box(factory(black_box(7)));
        }) / 1e3,
    );
    let mut model = factory(7);
    out.insert(
        "nn.forward.us",
        ns_per_call(effort, || {
            black_box(model.forward(black_box(&x), true).expect("forward"));
        }) / 1e3,
    );
    let pred = model.forward(&x, true).expect("forward");
    let grad = mse(&pred, &y).expect("loss").grad;
    out.insert(
        "nn.backward.us",
        ns_per_call(effort, || {
            model.zero_grad();
            black_box(model.backward(black_box(&grad)).expect("backward"));
        }) / 1e3,
    );
    let mut adam = Adam::new(2e-3, 1e-5);
    out.insert(
        "nn.adam_step.us",
        ns_per_call(effort, || adam.step(black_box(model.as_mut()))) / 1e3,
    );

    let state = state_dict(model.as_mut());
    let mut bytes = Vec::new();
    write_state_dict(&mut bytes, &state).expect("Vec write");
    out.insert("nn.state_bytes", bytes.len() as f64);
    out.insert(
        "nn.serialize.us",
        ns_per_call(effort, || {
            let mut buf = Vec::with_capacity(bytes.len());
            write_state_dict(&mut buf, black_box(&state)).expect("Vec write");
            black_box(buf);
        }) / 1e3,
    );
    out.insert(
        "nn.deserialize.us",
        ns_per_call(effort, || {
            black_box(read_state_dict(black_box(bytes.as_slice())).expect("own bytes"));
        }) / 1e3,
    );

    // A frame carrying that state: what one deploy or update costs the
    // frame layer, each way.
    let frame = Frame::new(3, 1, 0, bytes);
    let encoded = frame.encode().expect("under the frame cap");
    out.insert(
        "net.frame_encode.us",
        ns_per_call(effort, || {
            black_box(black_box(&frame).encode().expect("under the frame cap"));
        }) / 1e3,
    );
    out.insert(
        "net.frame_decode.us",
        ns_per_call(effort, || {
            black_box(Frame::decode(black_box(&encoded)).expect("own bytes"));
        }) / 1e3,
    );
    let mib: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let ns = ns_per_call(effort, || {
        black_box(crc32(black_box(&mib)));
    });
    out.insert("net.crc32.mb_per_s", mib.len() as f64 / 1e6 / (ns / 1e9));
}

/// `metrics.*` at the number of scores one client's evaluation ranks.
fn metrics_probes(effort: Effort, score_count: usize, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Xoshiro256::seed_from(0xBE7E);
    let n = score_count.max(2);
    let scores: Vec<f32> = (0..n).map(|_| rng.uniform()).collect();
    let mut labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.2)).collect();
    // Both classes present whatever the draw.
    labels[0] = true;
    labels[1] = false;
    out.insert(
        "metrics.roc_auc.us",
        ns_per_call(effort, || {
            black_box(roc_auc(black_box(&scores), &labels).expect("two classes"));
        }) / 1e3,
    );
    out.insert(
        "metrics.eval_report.us",
        ns_per_call(effort, || {
            black_box(EvalReport::from_scores(black_box(&scores), &labels).expect("two classes"));
        }) / 1e3,
    );
}

/// Samples per second of one full sequential pass over every shard.
fn pass_rate(effort: Effort, mut pass: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    pass()?; // warm the page cache, as every later pass finds it
    let mut rates = Vec::with_capacity(effort.batches);
    for _ in 0..effort.batches {
        let start = now_ns();
        let samples = pass()?;
        rates.push(samples as f64 / (now_ns().saturating_sub(start).max(1) as f64 / 1e9));
    }
    Ok(median(&rates))
}

/// One sequential pass over every shard of `dir`, each shard read whole
/// by `read_all` (which returns how many samples it decoded).
fn full_pass(
    dir: &Path,
    read_all: impl Fn(&ShardReader, &mut Vec<f32>, &mut Vec<f32>) -> Result<usize, EdaError>,
) -> Result<u64, String> {
    let reader = CorpusReader::open(dir).map_err(|e| e.to_string())?;
    let (mut features, mut labels) = (Vec::new(), Vec::new());
    let mut samples = 0u64;
    for client in reader.clients() {
        for shard in [&client.train, &client.test] {
            features.clear();
            labels.clear();
            samples +=
                read_all(shard, &mut features, &mut labels).map_err(|e| e.to_string())? as u64;
        }
    }
    black_box((&features, &labels));
    Ok(samples)
}

fn read_pass(dir: &Path) -> Result<u64, String> {
    full_pass(dir, |shard, features, labels| {
        shard.read_batch_into(0..shard.len(), features, labels)?;
        Ok(shard.len())
    })
}

fn mmap_pass(dir: &Path) -> Result<u64, String> {
    full_pass(dir, |shard, features, labels| {
        let mapped = MmapShardReader::open(shard.path())?;
        mapped.read_batch_into(0..mapped.len(), features, labels)?;
        Ok(mapped.len())
    })
}

/// `eda.read_pass_*`: one full pass over the workload's own shards by
/// each reader — raw through `read`, raw through `mmap`, compacted (v2)
/// through `read`. Only a workload that writes shards has directories
/// to pass over.
pub fn shard_probes(
    effort: Effort,
    raw_dir: &Path,
    compacted_dir: &Path,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    out.insert(
        "eda.read_pass_read.samples_per_s",
        pass_rate(effort, || read_pass(raw_dir))?,
    );
    out.insert(
        "eda.read_pass_mmap.samples_per_s",
        pass_rate(effort, || mmap_pass(raw_dir))?,
    );
    out.insert(
        "eda.read_pass_v2.samples_per_s",
        pass_rate(effort, || read_pass(compacted_dir))?,
    );
    Ok(())
}

/// Runs every probe that needs no files.
pub fn run(
    effort: Effort,
    kind: ModelKind,
    scale: ModelScale,
    score_count: usize,
    out: &mut BTreeMap<&'static str, f64>,
) {
    tensor_probes(effort, out);
    model_probes(effort, kind, scale, out);
    metrics_probes(effort, score_count, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_loop_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                black_box((0..n).fold(0u64, |a, b| black_box(a ^ b)));
            }
        };
        let small = ns_per_call(Effort::FULL, spin(1_000));
        let large = ns_per_call(Effort::SMOKE, spin(100_000));
        assert!(small > 0.0);
        assert!(large > 10.0 * small, "{small} vs {large}");
    }
}
