//! Property tests for the SIMD backend's determinism contract: every
//! dispatched kernel must produce **bit-identical** results on the
//! scalar arm and on whatever arm runtime detection picks (AVX2 on x86
//! CI). This is the guarantee that lets `RTE_SIMD` be a pure wall-clock
//! knob, exactly like `RTE_THREADS` — pinned here at two levels:
//!
//! - kernel level: randomized shapes (including empty and
//!   non-multiple-of-8 tails) through every elementwise sweep, and
//!   randomized geometries — strided, dilated, transposed — through the
//!   convolution kernels,
//! - system level: a full FedProx experiment whose [`MethodOutcome`]
//!   (losses, per-client AUCs, every `EvalReport` field) must not drift
//!   by a single bit when the process-global arm changes.
//!
//! On machines without AVX2 the detected arm *is* scalar and the
//! comparisons are trivially true — the suite stays meaningful on CI
//! x86 runners, where both arms genuinely differ.

use std::sync::Mutex;

use proptest::prelude::*;

use decentralized_routability::fed::{
    methods, Client, ClientSet, FedConfig, Method, MethodOutcome, ModelFactory, Parallelism,
};
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::tensor::conv::{
    conv_transpose2d, conv_transpose2d_backward, Conv2dSpec,
};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global arm serialize on this lock so
/// they cannot observe each other's override (the kernel-level tests
/// use explicit `_with` arms and need no locking).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..len).map(|_| rng.normal()).collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// The arm the dispatched kernels would pick with `RTE_SIMD` unset.
fn detected() -> SimdBackend {
    SimdBackend::detect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Elementwise sweeps and reductions: scalar vs detected arm,
    /// bitwise, over random lengths crossing the 8-lane boundary.
    #[test]
    fn elementwise_kernels_are_bitwise_arm_invariant(
        len in 0usize..70,
        alpha_scaled in -40i32..40,
        seed in 0u64..100_000,
    ) {
        let alpha = alpha_scaled as f32 * 0.1;
        let x = rand_vec(len, seed);
        let g = rand_vec(len, seed ^ 10);

        let mut want = x.clone();
        simd::axpy_with(SimdBackend::Scalar, alpha, &g, &mut want);
        let mut got = x.clone();
        simd::axpy_with(detected(), alpha, &g, &mut got);
        assert_bits_eq(&got, &want, "axpy");

        let mut want = x.clone();
        simd::scale_with(SimdBackend::Scalar, alpha, &mut want);
        let mut got = x.clone();
        simd::scale_with(detected(), alpha, &mut got);
        assert_bits_eq(&got, &want, "scale");

        let want = simd::sum_with(SimdBackend::Scalar, &x);
        let got = simd::sum_with(detected(), &x);
        assert_eq!(got.to_bits(), want.to_bits(), "sum: {got} vs {want}");

        let step = simd::AdamStep {
            beta1: 0.9,
            beta2: 0.999,
            bias1: 0.271,
            bias2: 0.00299,
            lr: 2e-4,
            eps: 1e-8,
            weight_decay: 1e-5,
        };
        let m0 = rand_vec(len, seed ^ 20);
        let v0: Vec<f32> = rand_vec(len, seed ^ 30).iter().map(|v| v.abs()).collect();
        let (mut wp, mut wm, mut wv) = (x.clone(), m0.clone(), v0.clone());
        simd::adam_step_with(SimdBackend::Scalar, &mut wp, &mut wm, &mut wv, &g, &step);
        let (mut gp, mut gm, mut gv) = (x.clone(), m0, v0);
        simd::adam_step_with(detected(), &mut gp, &mut gm, &mut gv, &g, &step);
        assert_bits_eq(&gp, &wp, "adam value");
        assert_bits_eq(&gm, &wm, "adam m");
        assert_bits_eq(&gv, &wv, "adam v");

        let mut want = x.clone();
        simd::relu_with(SimdBackend::Scalar, &mut want);
        let mut got = x.clone();
        simd::relu_with(detected(), &mut got);
        assert_bits_eq(&got, &want, "relu");

        let mut want = g.clone();
        simd::relu_backward_with(SimdBackend::Scalar, &mut want, &x);
        let mut got = g.clone();
        simd::relu_backward_with(detected(), &mut got, &x);
        assert_bits_eq(&got, &want, "relu_backward");

        let mut want = x.clone();
        simd::sigmoid_with(SimdBackend::Scalar, &mut want);
        let mut got = x.clone();
        simd::sigmoid_with(detected(), &mut got);
        assert_bits_eq(&got, &want, "sigmoid");

        let y = want;
        let mut want = g.clone();
        simd::sigmoid_backward_with(SimdBackend::Scalar, &mut want, &y);
        let mut got = g;
        simd::sigmoid_backward_with(detected(), &mut got, &y);
        assert_bits_eq(&got, &want, "sigmoid_backward");
    }

    /// Implicit-GEMM convolution kernels: scalar vs detected arm,
    /// bitwise, over random geometries — single and multiple channels on
    /// either side (both register-tile shapes), output widths on and off
    /// the 8-lane boundary, stride 1–3 (the strided reads of either
    /// arm), dilation 1–3. The kernels never test a tap against the image
    /// border, so a fully random "padded image" exercises them as well as
    /// a zero-bordered one.
    #[test]
    fn implicit_conv_kernels_are_bitwise_arm_invariant(
        c_in in 1usize..6,
        c_out in 1usize..7,
        oh in 1usize..12,
        ow in 1usize..20,
        kh in 1usize..5,
        kw in 1usize..5,
        stride in 1usize..4,
        dilation in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let g = simd::ConvGeom {
            c_in,
            c_out,
            hp: (oh - 1) * stride + dilation * (kh - 1) + 1,
            wp: (ow - 1) * stride + dilation * (kw - 1) + 1,
            kh,
            kw,
            stride,
            dilation,
        };
        let xp = rand_vec(g.padded_len(), seed);
        let w = rand_vec(c_out * g.ckk(), seed ^ 1);
        let dy = rand_vec(c_out * oh * ow, seed ^ 2);

        let mut want = vec![0.0f32; c_out * oh * ow];
        simd::conv_fwd_with(SimdBackend::Scalar, &g, &xp, &w, &mut want);
        let mut got = vec![f32::NAN; c_out * oh * ow];
        simd::conv_fwd_with(detected(), &g, &xp, &w, &mut got);
        assert_bits_eq(&got, &want, "conv_fwd");

        let mut want = rand_vec(c_out * g.ckk(), seed ^ 3);
        let mut got = want.clone();
        simd::conv_dw_acc_with(SimdBackend::Scalar, &g, &xp, &dy, &mut want);
        simd::conv_dw_acc_with(detected(), &g, &xp, &dy, &mut got);
        assert_bits_eq(&got, &want, "conv_dw_acc");

        let mut want = rand_vec(g.padded_len(), seed ^ 4);
        let mut got = want.clone();
        simd::conv_dx_acc_with(SimdBackend::Scalar, &g, &w, &dy, &mut want);
        simd::conv_dx_acc_with(detected(), &g, &w, &dy, &mut got);
        assert_bits_eq(&got, &want, "conv_dx_acc");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The padding-aware entry points of the implicit kernels: scalar vs
    /// detected arm, bitwise, and against the entry points that know
    /// nothing about the padding. On an image whose ring really is zero
    /// and operands that really are finite, leaving the ring's rows out
    /// (`conv_fwd_skip_with`, `conv_dw_acc_skip_with`) must not move a
    /// bit; `conv_dx_acc_padded_with` into a zeroed `dx` must produce the
    /// centre of what `conv_dx_acc_with` gathers over the whole padded
    /// image, because the ring pixels it skips are cropped anyway. At
    /// stride 1–3.
    #[test]
    fn padded_conv_kernels_are_bitwise_arm_and_skip_invariant(
        c_in in 1usize..10,
        c_out in 1usize..7,
        h in 1usize..12,
        w_blocks in 1usize..3,
        half_k in 0usize..4,
        stride in 1usize..4,
        dilation in 1usize..3,
        seed in 0u64..100_000,
    ) {
        // "Same" padding, image width a multiple of 8: at stride 1 the
        // register tiles rather than the rotating fallback.
        let (k, wd) = (2 * half_k + 1, 8 * w_blocks);
        let padding = dilation * half_k;
        let g = simd::ConvGeom {
            c_in,
            c_out,
            hp: h + 2 * padding,
            wp: wd + 2 * padding,
            kh: k,
            kw: k,
            stride,
            dilation,
        };
        let (oh, ow) = (g.oh(), g.ow());
        let mut xp = vec![0.0f32; g.padded_len()];
        let x = rand_vec(c_in * h * wd, seed);
        for (row, src) in x.chunks_exact(wd).enumerate() {
            let (ci, i) = (row / h, row % h);
            let at = (ci * g.hp + i + padding) * g.wp + padding;
            xp[at..at + wd].copy_from_slice(src);
        }
        let w = rand_vec(c_out * g.ckk(), seed ^ 1);
        let dy = rand_vec(c_out * oh * ow, seed ^ 2);
        let skip = simd::skippable_rows(padding, &w);
        prop_assert_eq!(skip, padding);

        let mut full = vec![0.0f32; c_out * oh * ow];
        simd::conv_fwd_with(SimdBackend::Scalar, &g, &xp, &w, &mut full);
        for arm in [SimdBackend::Scalar, detected()] {
            let mut got = vec![f32::NAN; c_out * oh * ow];
            simd::conv_fwd_skip_with(arm, &g, skip, &xp, &w, &mut got);
            assert_bits_eq(&got, &full, "conv_fwd_skip");
        }

        let dw0 = rand_vec(c_out * g.ckk(), seed ^ 3);
        let mut full = dw0.clone();
        simd::conv_dw_acc_with(SimdBackend::Scalar, &g, &xp, &dy, &mut full);
        for arm in [SimdBackend::Scalar, detected()] {
            let mut got = dw0.clone();
            simd::conv_dw_acc_skip_with(arm, &g, skip, &xp, &dy, &mut got);
            assert_bits_eq(&got, &full, "conv_dw_acc_skip");
        }

        let mut dxp = vec![0.0f32; g.padded_len()];
        simd::conv_dx_acc_with(SimdBackend::Scalar, &g, &w, &dy, &mut dxp);
        let centre: Vec<f32> = (0..c_in * h)
            .flat_map(|row| {
                let at = ((row / h) * g.hp + row % h + padding) * g.wp + padding;
                dxp[at..at + wd].to_vec()
            })
            .collect();
        for arm in [SimdBackend::Scalar, detected()] {
            let mut dyp = rand_vec(g.dy_padded_len(), seed ^ 4);
            let mut got = vec![0.0f32; c_in * h * wd];
            simd::conv_dx_acc_padded_with(arm, &g, padding, &w, &dy, &mut dyp, &mut got);
            assert_bits_eq(&got, &centre, "conv_dx_acc_padded");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Transposed convolutions — the convolution kernels with the
    /// operands swapped — forward and backward: scalar vs detected
    /// process-global arm, bitwise, at stride 1–3, kernels 1–4 wide,
    /// padding up to what leaves an output.
    #[test]
    fn transposed_conv_is_bitwise_arm_invariant(
        n in 1usize..3,
        c_in in 1usize..6,
        c_out in 1usize..6,
        h in 1usize..8,
        wd in 1usize..10,
        k in 1usize..5,
        stride in 1usize..4,
        pad_sel in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let spec = Conv2dSpec { stride, padding: pad_sel % ((k - 1) / 2 + 1), dilation: 1 };
        let (oh, ow) = (spec.transpose_out_extent(h, k), spec.transpose_out_extent(wd, k));
        let x = Tensor::from_vec(rand_vec(n * c_in * h * wd, seed), &[n, c_in, h, wd]).unwrap();
        let w = Tensor::from_vec(rand_vec(c_in * c_out * k * k, seed ^ 1), &[c_in, c_out, k, k]).unwrap();
        let b = Tensor::from_vec(rand_vec(c_out, seed ^ 2), &[c_out]).unwrap();
        let dy = Tensor::from_vec(rand_vec(n * c_out * oh * ow, seed ^ 3), &[n, c_out, oh, ow]).unwrap();
        let _guard = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
        let before = simd::global();
        let runs = [SimdBackend::Scalar, detected()].map(|arm| {
            simd::set_global(arm);
            let y = conv_transpose2d(&x, &w, Some(&b), spec).unwrap();
            (y, conv_transpose2d_backward(&x, &w, &dy, spec).unwrap())
        });
        simd::set_global(before);
        let [(want_y, want), (got_y, got)] = &runs;
        assert_bits_eq(got_y.data(), want_y.data(), "conv_transpose2d");
        assert_bits_eq(got.dx.data(), want.dx.data(), "conv_transpose2d dx");
        assert_bits_eq(got.dw.data(), want.dw.data(), "conv_transpose2d dw");
        assert_bits_eq(got.db.data(), want.db.data(), "conv_transpose2d db");
    }
}

/// A small heterogeneous client: labels keyed to channel 0 with a
/// per-client threshold shift (mirrors `tests/parallel_determinism.rs`).
fn synthetic_client(id: usize, n_train: usize, n_test: usize, seed: u64) -> Client {
    let threshold = 0.4 + 0.15 * (id as f32 % 3.0) / 3.0;
    let make = |n: usize, salt: u64| -> ClientSet {
        let mut rng = Xoshiro256::seed_from(seed ^ salt);
        let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let v = x.data()[ni * 128 + i];
                y.data_mut()[ni * 64 + i] = if v > threshold { 1.0 } else { 0.0 };
            }
            for i in 0..64 {
                x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
            }
        }
        ClientSet::new(x, y).unwrap()
    };
    Client::new(id, make(n_train, 0xAAAA), make(n_test, 0xBBBB))
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        ))
    })
}

fn assert_outcomes_bitwise_equal(a: &MethodOutcome, b: &MethodOutcome, what: &str) {
    assert_eq!(a.average_auc.to_bits(), b.average_auc.to_bits(), "{what}");
    assert_eq!(a.per_client_auc.len(), b.per_client_auc.len(), "{what}");
    for (k, (x, y)) in a
        .per_client_auc
        .iter()
        .zip(b.per_client_auc.iter())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: client {k}: {x} vs {y}");
    }
    for (ra, rb) in a.per_client.iter().zip(b.per_client.iter()) {
        assert_eq!(ra.auc.to_bits(), rb.auc.to_bits(), "{what}: report AUC");
        assert_eq!(
            ra.average_precision.to_bits(),
            rb.average_precision.to_bits(),
            "{what}: report AP"
        );
        assert_eq!(ra.confusion, rb.confusion, "{what}: report confusion");
        assert_eq!(ra.histogram, rb.histogram, "{what}: report histogram");
    }
    assert_eq!(a.history.len(), b.history.len(), "{what}");
    for (ra, rb) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(
            ra.mean_train_loss.to_bits(),
            rb.mean_train_loss.to_bits(),
            "{what}: round {} training loss",
            ra.round
        );
        for (x, y) in ra.per_client_auc.iter().zip(rb.per_client_auc.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: round {}", ra.round);
        }
    }
}

/// A full FedProx experiment must produce a bit-identical
/// [`MethodOutcome`] on the scalar and the detected arm — end to end:
/// corpus tensors through conv/activation/optimizer sweeps to AUC. Run
/// at both thread counts so the SIMD axis composes with the thread axis.
#[test]
fn fedprox_outcome_is_bitwise_arm_invariant() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    let clients: Vec<Client> = (0..3)
        .map(|k| synthetic_client(k + 1, 4, 2, 9000 + k as u64))
        .collect();
    let factory = factory();
    let mut config = FedConfig::tiny();
    config.rounds = 2;
    config.local_steps = 2;
    config.batch_size = 2;
    config.mu = 0.05;
    config.seed = 77;
    for threads in [1usize, 4] {
        config.parallelism = Parallelism::new(threads);
        simd::set_global(SimdBackend::Scalar);
        let scalar = methods::run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        simd::set_global(SimdBackend::detect());
        let dispatched = methods::run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert_outcomes_bitwise_equal(
            &scalar,
            &dispatched,
            &format!(
                "fedprox scalar vs {} @ {threads} threads",
                SimdBackend::detect()
            ),
        );
    }
    simd::set_global(before);
}

/// The forced-arm knob must round-trip through the process global, and
/// `parse` must accept exactly the documented spellings.
#[test]
fn global_arm_override_round_trips() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);
    assert_eq!(simd::global(), SimdBackend::Scalar);
    simd::set_global(before);
    assert_eq!(simd::global(), before);
    assert_eq!(SimdBackend::parse("scalar"), SimdBackend::Scalar);
    assert_eq!(SimdBackend::parse("auto"), SimdBackend::detect());
}
