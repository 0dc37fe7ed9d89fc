//! Criterion micro-benchmarks for the tensor kernels that dominate
//! training time (conv2d forward, weight gradient and input gradient on
//! the layers the three models are built from, RouteNet's transposed
//! convolution, elementwise sweeps across SIMD arms, pixel shuffle),
//! whole FLNet and RouteNet train steps, building RouteNet and the cost
//! of one parallel region, plus a machine-readable `BENCH_kernels.json`
//! perf-trajectory dump.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use rte_fed::{ClientSet, LocalTrainer};
use rte_nn::models::{FlNet, FlNetConfig, RouteNet, RouteNetConfig};
use rte_nn::{state_dict, Layer};
use rte_tensor::conv::{
    conv2d, conv2d_backward_params_with, conv2d_backward_with, conv2d_with, conv_transpose2d,
    conv_transpose2d_backward, pixel_shuffle, Conv2dSpec,
};
use rte_tensor::parallel::{self, Parallelism};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::simd::{self, ConvGeom, SimdBackend};
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

/// The arms available on this machine, scalar first (the baseline).
fn arms() -> Vec<SimdBackend> {
    SimdBackend::supported()
}

/// One convolution layer as a model runs it: batch 4 on the 16×16 grid
/// every corpus config uses (8×8 behind RouteNet's pool and PROS's
/// stride-2 stage, which takes the grid down to it).
struct ConvCase {
    name: &'static str,
    c_in: usize,
    c_out: usize,
    extent: usize,
    kernel: usize,
    spec: Conv2dSpec,
}

/// Batch size of every convolution row.
const BATCH: usize = 4;

/// One timed pass of a layer: its row-name segment and what to run.
type Pass = (&'static str, Box<dyn FnMut()>);

impl ConvCase {
    /// Output extent of the layer.
    fn out_extent(&self) -> usize {
        self.spec.out_extent(self.extent, self.kernel)
    }

    /// `(x, w, bias, dy)` for the layer.
    fn tensors(&self) -> (Tensor, Tensor, Tensor, Tensor) {
        let (k, e, o) = (self.kernel, self.extent, self.out_extent());
        (
            rand_tensor(&[BATCH, self.c_in, e, e], 1),
            rand_tensor(&[self.c_out, self.c_in, k, k], 2),
            rand_tensor(&[self.c_out], 3),
            rand_tensor(&[BATCH, self.c_out, o, o], 4),
        )
    }

    /// Shape column of the JSON dump (the stride only where it is not 1).
    fn shape(&self) -> String {
        let (k, e, s) = (self.kernel, self.extent, self.spec);
        let stride = if s.stride == 1 {
            String::new()
        } else {
            format!(" s{}", s.stride)
        };
        format!(
            "{BATCH}x{}x{e}x{e}->{} k{k}{stride} p{} d{}",
            self.c_in, self.c_out, s.padding, s.dilation
        )
    }

    /// Multiply-adds of one pass (forward, `dw` or `dx` alike) with
    /// every tap counted, padding included — the denominator of the
    /// GMAC/s column.
    fn macs(&self) -> f64 {
        let taps = self.c_in * self.kernel * self.kernel;
        (BATCH * self.c_out * taps * self.out_extent().pow(2)) as f64
    }

    /// The three passes of the layer, each a closure over its own
    /// operands: forward and the params-only backward (`dw` + `db`)
    /// through the batched entry points on `par`, and the input
    /// gradient through the kernel itself, image by image — no public
    /// entry point computes `dx` alone.
    fn passes(&self, par: Parallelism) -> [Pass; 3] {
        let spec = self.spec;
        let (x, w, b, dy) = self.tensors();
        let forward = {
            let (x, w) = (x.clone(), w.clone());
            move || {
                black_box(conv2d_with(black_box(&x), &w, Some(&b), spec, par).unwrap());
            }
        };
        let dw = {
            let (w, dy) = (w.clone(), dy.clone());
            move || {
                black_box(conv2d_backward_params_with(black_box(&x), &w, &dy, spec, par).unwrap());
            }
        };
        let padded = self.extent + 2 * spec.padding;
        let g = ConvGeom {
            c_in: self.c_in,
            c_out: self.c_out,
            hp: padded,
            wp: padded,
            kh: self.kernel,
            kw: self.kernel,
            stride: spec.stride,
            dilation: spec.dilation,
        };
        let mut dyp = vec![0.0f32; g.dy_padded_len()];
        let mut dx = vec![0.0f32; BATCH * self.c_in * self.extent * self.extent];
        let dx_pass = move || {
            let image = dx.len() / BATCH;
            let items = dx.chunks_exact_mut(image);
            for (dx_n, dy_n) in items.zip(dy.data().chunks_exact(dy.numel() / BATCH)) {
                let arm = simd::global();
                simd::conv_dx_acc_padded_with(
                    arm,
                    &g,
                    spec.padding,
                    w.data(),
                    dy_n,
                    &mut dyp,
                    dx_n,
                );
            }
            black_box(dx[0]);
        };
        [
            ("forward", Box::new(forward)),
            ("dw", Box::new(dw)),
            ("dx", Box::new(dx_pass)),
        ]
    }
}

/// FLNet's two layers at scaled capacity, its output layer at the
/// paper's 64 filters (a single output channel: the shape a GEMM
/// lowering serves worst), RouteNet's two 8×8 encoder layers and its
/// single-channel head at the paper's widths, a PROS-style dilated 3×3
/// block, and PROS's stride-2 `down_conv` at the paper's widths.
fn conv_cases() -> Vec<ConvCase> {
    let case = |name, c_in, c_out, extent, kernel, spec| ConvCase {
        name,
        c_in,
        c_out,
        extent,
        kernel,
        spec,
    };
    vec![
        case("flnet_input", 6, 16, 16, 9, Conv2dSpec::same(9)),
        case("flnet_output", 16, 1, 16, 9, Conv2dSpec::same(9)),
        case("flnet_output_paper", 64, 1, 16, 9, Conv2dSpec::same(9)),
        case("routenet_conv2", 32, 64, 8, 7, Conv2dSpec::same(7)),
        case("routenet_conv3", 64, 32, 8, 9, Conv2dSpec::same(9)),
        case("routenet_head", 32, 1, 16, 5, Conv2dSpec::same(5)),
        case("pros_dilated", 16, 16, 8, 3, Conv2dSpec::same_dilated(3, 2)),
        case(
            "pros_down_conv",
            32,
            64,
            16,
            3,
            Conv2dSpec {
                stride: 2,
                padding: 1,
                dilation: 1,
            },
        ),
    ]
}

/// Shape column and multiply-adds of [`upconv_passes`].
const UPCONV_SHAPE: &str = "4x32x8x8->32 k4 s2 p1";
const UPCONV_MACS: f64 = (BATCH * 32 * 32 * 4 * 4 * 8 * 8) as f64;

/// RouteNet's `upconv` at the paper's widths, forward and the full
/// backward — the convolution kernels with the operands swapped — on the
/// process-global arm and thread budget.
fn upconv_passes() -> [Pass; 2] {
    let spec = Conv2dSpec {
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    let x = rand_tensor(&[BATCH, 32, 8, 8], 1);
    let w = rand_tensor(&[32, 32, 4, 4], 2);
    let b = rand_tensor(&[32], 3);
    let dy = rand_tensor(&[BATCH, 32, 16, 16], 4);
    let forward = {
        let (x, w) = (x.clone(), w.clone());
        move || {
            black_box(conv_transpose2d(black_box(&x), &w, Some(&b), spec).unwrap());
        }
    };
    let backward = move || {
        black_box(conv_transpose2d_backward(black_box(&x), &w, &dy, spec).unwrap());
    };
    [
        ("forward", Box::new(forward)),
        ("backward", Box::new(backward)),
    ]
}

/// RouteNet at the paper's widths, built and Kaiming-initialised: what a
/// federated slot used to pay before every deploy.
fn routenet_paper_model_build() {
    let mut rng = Xoshiro256::seed_from(22);
    black_box(RouteNet::new(RouteNetConfig::new(6), &mut rng));
}

fn bench_conv2d(c: &mut Criterion) {
    for case in conv_cases() {
        for (pass, mut run) in case.passes(parallel::global()) {
            c.bench_function(&format!("conv2d_{pass}_{}", case.name), |bench| {
                bench.iter(&mut run)
            });
        }
    }
    for (pass, mut run) in upconv_passes() {
        let name = format!("conv_transpose2d_{pass}_routenet_upconv");
        c.bench_function(&name, |bench| bench.iter(&mut run));
    }
}

/// One local training step exactly as a federated client runs it:
/// minibatch draw, forward, loss, params-only backward, the FedProx term
/// and the Adam update.
struct TrainStep {
    trainer: LocalTrainer,
    data: ClientSet,
    net: Box<dyn Layer>,
    reference: rte_nn::StateDict,
    rng: Xoshiro256,
}

impl TrainStep {
    /// Batch 4 of a 6-channel 16×16 corpus through `net`.
    fn new(mut net: Box<dyn Layer>) -> Self {
        let mut rng = Xoshiro256::seed_from(21);
        let x = Tensor::from_fn(&[8, 6, 16, 16], |_| rng.uniform());
        let y = Tensor::from_fn(&[8, 1, 16, 16], |_| f32::from(rng.bernoulli(0.15)));
        TrainStep {
            trainer: LocalTrainer::new(2e-3, 1e-5, 1e-4, BATCH),
            data: ClientSet::new(x, y).unwrap(),
            reference: state_dict(net.as_mut()),
            net,
            rng: Xoshiro256::seed_from(23),
        }
    }

    /// FLNet at scaled capacity (hidden 16).
    fn flnet() -> Self {
        let config = FlNetConfig {
            hidden: 16,
            ..FlNetConfig::new(6)
        };
        Self::new(Box::new(FlNet::new(config, &mut Xoshiro256::seed_from(22))))
    }

    /// RouteNet at the paper's widths (32 / 64 filters).
    fn routenet_paper() -> Self {
        let config = RouteNetConfig::new(6);
        Self::new(Box::new(RouteNet::new(
            config,
            &mut Xoshiro256::seed_from(22),
        )))
    }

    fn run(&mut self) -> f32 {
        self.trainer
            .train(
                self.net.as_mut(),
                &self.data,
                Some(&self.reference),
                1,
                &mut self.rng,
            )
            .unwrap()
    }
}

/// `(row name, shape column, constructor)` of a train-step row.
type TrainRow = (&'static str, &'static str, fn() -> TrainStep);

/// The train-step rows.
const TRAIN_STEPS: [TrainRow; 2] = [
    (
        "flnet_train_step",
        "batch 4, 6x16x16, hidden 16, k9",
        TrainStep::flnet,
    ),
    (
        "routenet_paper_train_step",
        "batch 4, 6x16x16, base 32, mid 64",
        TrainStep::routenet_paper,
    ),
];

fn bench_train_step(c: &mut Criterion) {
    for (name, _, build) in TRAIN_STEPS {
        let mut step = build();
        c.bench_function(name, |bench| bench.iter(|| black_box(step.run())));
    }
    c.bench_function("routenet_paper_model_build", |bench| {
        bench.iter(routenet_paper_model_build)
    });
}

/// Opens and joins one two-worker region that does nothing: the price
/// `rte_tensor::conv` weighs a call's multiply-adds against before it
/// fans out (its `PAR_MIN_CALL_MACS`).
fn parallel_region() {
    let mut slots = [0u8; 2];
    parallel::for_each_chunk_mut(Parallelism::new(2), &mut slots, 1, |i, s| {
        s[0] = i as u8;
    });
    black_box(slots);
}

fn bench_parallel_region(c: &mut Criterion) {
    c.bench_function("parallel_region", |bench| bench.iter(parallel_region));
}

/// Length of every elementwise sweep row: a paper-round-sized 1M
/// elements.
const SWEEP_LEN: usize = 1 << 20;

/// The Adam row's step: the paper's β and lr at step 3.
const ADAM: simd::AdamStep = simd::AdamStep {
    beta1: 0.9,
    beta2: 0.999,
    bias1: 0.271,
    bias2: 0.00299,
    lr: 2e-4,
    eps: 1e-8,
    weight_decay: 1e-5,
};

/// Every elementwise sweep on `arm`, over [`SWEEP_LEN`] elements. A
/// sweep that rewrites its operand in place starts every iteration from
/// a fresh copy of it, the copy inside the row, so that repeating it
/// never drifts into zeros or subnormals.
fn sweep_passes(arm: SimdBackend) -> Vec<Pass> {
    let x = rand_tensor(&[SWEEP_LEN], 9).data().to_vec();
    let g = rand_tensor(&[SWEEP_LEN], 10).data().to_vec();
    let mut sig = x.clone();
    simd::sigmoid_with(arm, &mut sig);
    // `f(arm, buf, operand)` with `buf` reset to `from` first.
    let fresh = |from: &[f32],
                 operand: &[f32],
                 f: fn(SimdBackend, &mut [f32], &[f32])|
     -> Box<dyn FnMut()> {
        let (from, operand, mut buf) = (from.to_vec(), operand.to_vec(), from.to_vec());
        Box::new(move || {
            buf.copy_from_slice(&from);
            f(arm, black_box(&mut buf), black_box(&operand));
        })
    };
    let passes: Vec<Pass> = vec![
        (
            "scale",
            fresh(&x, &[], |arm, b, _| simd::scale_with(arm, 0.37, b)),
        ),
        ("relu", fresh(&x, &[], |arm, b, _| simd::relu_with(arm, b))),
        ("relu_backward", fresh(&g, &x, simd::relu_backward_with)),
        (
            "sigmoid",
            fresh(&x, &[], |arm, b, _| simd::sigmoid_with(arm, b)),
        ),
        (
            "sigmoid_backward",
            fresh(&g, &sig, simd::sigmoid_backward_with),
        ),
    ];
    let (mut y, mut value, mut m, mut v) = (
        x.clone(),
        x.clone(),
        vec![0.0; SWEEP_LEN],
        vec![0.0; SWEEP_LEN],
    );
    let (gx, gm) = (g.clone(), g);
    [
        (
            "axpy",
            Box::new(move || simd::axpy_with(arm, 0.37, black_box(&gx), &mut y))
                as Box<dyn FnMut()>,
        ),
        (
            "sum",
            Box::new(move || {
                black_box(simd::sum_with(arm, black_box(&x)));
            }),
        ),
        (
            "adam_step",
            Box::new(move || {
                simd::adam_step_with(arm, &mut value, &mut m, &mut v, black_box(&gm), &ADAM)
            }),
        ),
    ]
    .into_iter()
    .chain(passes)
    .collect()
}

fn bench_elementwise_arms(c: &mut Criterion) {
    for arm in arms() {
        for (name, mut run) in sweep_passes(arm) {
            c.bench_function(&format!("{name}_{arm}_1m"), |bench| bench.iter(&mut run));
        }
    }
}

fn bench_conv2d_parallel(c: &mut Criterion) {
    // Batch-parallel conv: a paper-shaped FLNet stage at batch 8, run with
    // 1 worker vs all cores. Identical outputs, different wall-clock.
    let x = rand_tensor(&[8, 6, 32, 32], 9);
    let w = rand_tensor(&[16, 6, 9, 9], 10);
    let b = rand_tensor(&[16], 11);
    let spec = Conv2dSpec::same(9);
    c.bench_function("conv2d_batch8_1thread", |bench| {
        bench.iter(|| {
            conv2d_with(
                black_box(&x),
                black_box(&w),
                Some(&b),
                spec,
                Parallelism::serial(),
            )
            .unwrap()
        })
    });
    c.bench_function("conv2d_batch8_all_cores", |bench| {
        bench.iter(|| {
            conv2d_with(
                black_box(&x),
                black_box(&w),
                Some(&b),
                spec,
                Parallelism::auto(),
            )
            .unwrap()
        })
    });
    let y = conv2d(&x, &w, Some(&b), spec).unwrap();
    c.bench_function("conv2d_backward_batch8_1thread", |bench| {
        bench.iter(|| {
            conv2d_backward_with(
                black_box(&x),
                black_box(&w),
                black_box(&y),
                spec,
                Parallelism::serial(),
            )
            .unwrap()
        })
    });
    c.bench_function("conv2d_backward_batch8_all_cores", |bench| {
        bench.iter(|| {
            conv2d_backward_with(
                black_box(&x),
                black_box(&w),
                black_box(&y),
                spec,
                Parallelism::auto(),
            )
            .unwrap()
        })
    });
}

fn bench_pixel_shuffle(c: &mut Criterion) {
    let x = rand_tensor(&[4, 32, 8, 8], 6);
    c.bench_function("pixel_shuffle_r2", |bench| {
        bench.iter(|| pixel_shuffle(black_box(&x), 2).unwrap())
    });
}

/// Best-of-batches ns/iter for `f`, measured with the same warmup →
/// calibrate → batch scheme as the criterion stand-in (kept local so the
/// JSON dump works identically under the real criterion crate).
fn measure_ns(mut f: impl FnMut()) -> f64 {
    const WARMUP: u32 = 3;
    const BUDGET: Duration = Duration::from_millis(400);
    for _ in 0..WARMUP {
        f();
    }
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let batch = ((BUDGET.as_secs_f64() / 10.0 / per_iter) as u64).clamp(1, 1_000_000);
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0u32;
    while started.elapsed() < BUDGET && batches < 30 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / batch as f64;
        if ns < best {
            best = ns;
        }
        batches += 1;
    }
    best
}

/// One record of the perf-trajectory dump. Every row is measured on one
/// thread; the commit is stamped once for the whole file.
struct JsonEntry {
    kernel: String,
    shape: String,
    arm: &'static str,
    ns_per_iter: f64,
    speedup_vs_scalar: f64,
    /// Multiply-adds per iteration; 0 for rows that are not a product.
    macs: f64,
}

impl JsonEntry {
    /// 10⁹ multiply-adds per second, for the rows that have a count.
    fn gmac_per_s(&self) -> Option<f64> {
        (self.macs > 0.0).then(|| self.macs / self.ns_per_iter)
    }
}

/// Measures the hot elementwise sweeps, every
/// [`conv_cases`] layer's three passes, [`upconv_passes`], the
/// [`TRAIN_STEPS`], one model build and one parallel region on every
/// available arm, single-threaded, and writes
/// `BENCH_kernels.json`
/// (override the path with `RTE_BENCH_JSON`) so the perf trajectory is
/// machine-trackable from PR to PR.
///
/// Skipped when a bench filter is passed (`cargo bench --bench kernels
/// -- <name>`): a targeted run should neither pay the full sweep nor
/// overwrite the tracked trajectory with partial-context numbers.
fn emit_kernels_json(_c: &mut Criterion) {
    if std::env::args().skip(1).any(|a| !a.starts_with('-')) {
        println!("bench: filter given, skipping BENCH_kernels.json dump");
        return;
    }
    let mut entries: Vec<JsonEntry> = Vec::new();
    let sweep_shape = format!("{SWEEP_LEN}");
    for arm in arms() {
        let mut cases: Vec<(String, String, f64, f64)> = sweep_passes(arm)
            .into_iter()
            .map(|(name, mut run)| (name.into(), sweep_shape.clone(), measure_ns(&mut run), 0.0))
            .collect();
        // The convolutions and the train step dispatch on the
        // process-global arm and thread budget, so pin both for the
        // measurement.
        let before = (simd::global(), parallel::global());
        let serial = Parallelism::serial();
        simd::set_global(arm);
        parallel::set_global(serial);
        for case in conv_cases() {
            for (pass, mut run) in case.passes(serial) {
                let ns = measure_ns(&mut run);
                let name = format!("conv2d_{pass}_{}", case.name);
                cases.push((name, case.shape(), ns, case.macs()));
            }
        }
        for (pass, mut run) in upconv_passes() {
            let name = format!("conv_transpose2d_{pass}_routenet_upconv");
            let ns = measure_ns(&mut run);
            cases.push((name, UPCONV_SHAPE.into(), ns, UPCONV_MACS));
        }
        for (name, shape, build) in TRAIN_STEPS {
            let mut step = build();
            let ns = measure_ns(|| {
                black_box(step.run());
            });
            cases.push((name.into(), shape.into(), ns, 0.0));
        }
        // No kernel in them, so one row each: with the baseline arm's.
        if arm == SimdBackend::Scalar {
            cases.push((
                "routenet_paper_model_build".into(),
                "6 channels, base 32, mid 64".into(),
                measure_ns(routenet_paper_model_build),
                0.0,
            ));
            cases.push((
                "parallel_region".into(),
                "2 workers, no work".into(),
                measure_ns(parallel_region),
                0.0,
            ));
        }
        simd::set_global(before.0);
        parallel::set_global(before.1);
        for (kernel, shape, ns, macs) in cases {
            let baseline = entries
                .iter()
                .find(|e| e.kernel == kernel && e.arm == SimdBackend::Scalar.name())
                .map(|e| e.ns_per_iter)
                .unwrap_or(ns);
            entries.push(JsonEntry {
                kernel,
                shape,
                arm: arm.name(),
                ns_per_iter: ns,
                speedup_vs_scalar: baseline / ns,
                macs,
            });
        }
    }
    let commit = rte_bench::commit();
    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"kernel\": \"{}\", \"shape\": \"{}\", \"arm\": \"{}\", \"threads\": 1, \
             \"commit\": \"{commit}\", \"ns_per_iter\": {:.1}, \"speedup_vs_scalar\": {:.3}{}}}{}\n",
            e.kernel,
            e.shape,
            e.arm,
            e.ns_per_iter,
            e.speedup_vs_scalar,
            e.gmac_per_s()
                .map_or_else(String::new, |r| format!(", \"gmac_per_s\": {r:.2}")),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    // Default to the workspace root (cargo runs benches from the
    // package dir) so the tracked perf trajectory lives next to the
    // README; `RTE_BENCH_JSON` overrides.
    let path = rte_tensor::knobs::raw("RTE_BENCH_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench: wrote perf trajectory to {path}"),
        Err(e) => eprintln!("bench: could not write {path}: {e}"),
    }
    for e in &entries {
        println!(
            "bench: json {:<34} {:>33} arm {:<6} {:>12.1} ns/iter  {:>6.2}x vs scalar{}",
            e.kernel,
            e.shape,
            e.arm,
            e.ns_per_iter,
            e.speedup_vs_scalar,
            e.gmac_per_s()
                .map_or_else(String::new, |r| format!("  {r:>6.2} GMAC/s"))
        );
    }
}

criterion_group!(
    benches,
    bench_conv2d,
    bench_train_step,
    bench_parallel_region,
    bench_elementwise_arms,
    bench_conv2d_parallel,
    bench_pixel_shuffle,
    emit_kernels_json
);
criterion_main!(benches);
