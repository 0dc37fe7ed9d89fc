//! Ten real training steps of every model in the zoo must leave the
//! same bits in every parameter and buffer whatever the SIMD arm and
//! the thread budget: the whole stack a federated client runs —
//! minibatch draw, forward, loss, params-only backward through the
//! implicit-GEMM kernels (forward tiles, the `dw` tile, the gather `dx`
//! behind every layer but the first), the FedProx term, Adam — in one
//! comparison per model.

use rte_fed::{ClientSet, LocalTrainer};
use rte_nn::models::{FlNet, FlNetConfig, Pros, ProsConfig, RouteNet, RouteNetConfig};
use rte_nn::{state_dict, Layer, StateDict};
use rte_tensor::parallel::{self, Parallelism};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::simd::{self, SimdBackend};
use rte_tensor::Tensor;

/// Builds one model, always from the same seed.
type Build = fn() -> Box<dyn Layer>;

/// The three models at reduced widths (the layer *kinds* and kernel
/// sizes are the paper's; ten steps of the full widths would dominate
/// the debug test run).
fn models() -> Vec<(&'static str, Build)> {
    fn flnet() -> Box<dyn Layer> {
        let config = FlNetConfig {
            hidden: 8,
            ..FlNetConfig::new(3)
        };
        Box::new(FlNet::new(config, &mut Xoshiro256::seed_from(5)))
    }
    fn routenet() -> Box<dyn Layer> {
        let config = RouteNetConfig {
            base: 8,
            mid: 12,
            ..RouteNetConfig::new(3)
        };
        Box::new(RouteNet::new(config, &mut Xoshiro256::seed_from(6)))
    }
    fn pros() -> Box<dyn Layer> {
        let config = ProsConfig {
            base: 8,
            refinements: 1,
            ..ProsConfig::new(3)
        };
        Box::new(Pros::new(config, &mut Xoshiro256::seed_from(7)))
    }
    vec![("FLNet", flnet), ("RouteNet", routenet), ("PROS", pros)]
}

/// Ten `LocalTrainer::train` steps from a fixed seed; returns the loss
/// and the state the model ends in.
fn train(build: Build) -> (f32, StateDict) {
    let mut rng = Xoshiro256::seed_from(31);
    let x = Tensor::from_fn(&[6, 3, 16, 16], |_| rng.uniform());
    let y = Tensor::from_fn(&[6, 1, 16, 16], |_| f32::from(rng.bernoulli(0.2)));
    let data = ClientSet::new(x, y).unwrap();
    let mut model = build();
    let reference = state_dict(model.as_mut());
    let trainer = LocalTrainer::new(2e-3, 1e-5, 1e-3, 4);
    let loss = trainer
        .train(model.as_mut(), &data, Some(&reference), 10, &mut rng)
        .unwrap();
    (loss, state_dict(model.as_mut()))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "210 unoptimized train steps take a minute; CI's release matrix runs it"
)]
fn ten_train_steps_are_bitwise_arm_and_thread_invariant() {
    let before = (simd::global(), parallel::global());
    for (name, build) in models() {
        simd::set_global(SimdBackend::Scalar);
        parallel::set_global(Parallelism::serial());
        let (want_loss, want) = train(build);
        for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
            for threads in [1, 2, 4] {
                simd::set_global(arm);
                parallel::set_global(Parallelism::new(threads));
                let (loss, got) = train(build);
                let tag = format!("{name} [{arm}, {threads} threads]");
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{tag}: loss");
                assert_eq!(got.len(), want.len(), "{tag}: entries");
                for ((g_name, g), (w_name, w)) in got.iter().zip(want.iter()) {
                    assert_eq!(g_name, w_name, "{tag}: entry order");
                    let same =
                        (g.data().iter().zip(w.data())).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same && g.shape() == w.shape(), "{tag}: {g_name} differs");
                }
            }
        }
    }
    simd::set_global(before.0);
    parallel::set_global(before.1);
}

/// FNV-1a over the little-endian bytes of 32-bit words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `(model, digest)` of [`train`]'s loss and final state, computed at
/// `88a5b1b`: the same bits on every arm and thread budget, and across
/// commits.
const GOLDEN: [(&str, u64); 3] = [
    ("FLNet", 0x55b5_90d9_915a_1525),
    ("RouteNet", 0x799f_357c_c89b_d63b),
    ("PROS", 0x0061_9b63_2e45_8dee),
];

/// Ten steps of each model leave the bits they left when the digests
/// were taken — on whatever arm and thread budget the process runs
/// (`RTE_SIMD`, `RTE_THREADS`). The invariance test above compares
/// arms and thread counts within one commit; this one pins the result
/// across commits, so a kernel rewrite that moves a bit of any layer's
/// forward or backward shows here.
#[test]
fn ten_train_steps_match_their_golden_digests() {
    for ((name, build), (golden_name, golden)) in models().into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let (loss, state) = train(build);
        let words = std::iter::once(loss.to_bits()).chain(
            state
                .iter()
                .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits())),
        );
        let got = fnv1a(words);
        assert_eq!(got, golden, "{name}: digest {got:#018x}");
    }
}
