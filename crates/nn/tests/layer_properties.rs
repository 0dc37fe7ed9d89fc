//! Property-based tests of layer semantics: algebraic identities that
//! must hold for arbitrary inputs and architectures.

use proptest::prelude::*;

use rte_nn::models::{build_model, FlNet, FlNetConfig, ModelKind, ModelScale};
use rte_nn::{
    load_state_dict, state_dict, BatchNorm2d, Conv2d, Layer, NnError, Param, Relu, Sequential,
    Sigmoid,
};
use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal() * 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(seed in 0u64..10_000) {
        let x = rand_tensor(&[2, 3, 4, 4], seed);
        let mut relu = Relu::new();
        let once = relu.forward(&x, true).unwrap();
        let twice = relu.forward(&once, true).unwrap();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
    }

    /// Sigmoid maps into (0,1) and is monotone: larger inputs give larger
    /// outputs elementwise.
    #[test]
    fn sigmoid_bounded_monotone(seed in 0u64..10_000, delta in 0.01f32..3.0) {
        let x = rand_tensor(&[12], seed);
        let mut sig = Sigmoid::new();
        let y = sig.forward(&x, true).unwrap();
        prop_assert!(y.data().iter().all(|&v| v > 0.0 && v < 1.0));
        let y2 = sig.forward(&x.map(|v| v + delta), true).unwrap();
        for (a, b) in y.data().iter().zip(y2.data().iter()) {
            prop_assert!(b > a);
        }
    }

    /// Loading a state dict fully determines model output: two models of
    /// the same architecture with different inits agree after loading.
    #[test]
    fn state_dict_determines_output(seed_a in 0u64..10_000, seed_b in 0u64..10_000) {
        let cfg = FlNetConfig { in_channels: 2, hidden: 4, kernel: 3, depth: 2 };
        let mut rng_a = Xoshiro256::seed_from(seed_a);
        let mut rng_b = Xoshiro256::seed_from(seed_b ^ 0xABCD);
        let mut a = FlNet::new(cfg, &mut rng_a);
        let mut b = FlNet::new(cfg, &mut rng_b);
        let sd = state_dict(&mut a);
        load_state_dict(&mut b, &sd).unwrap();
        let x = rand_tensor(&[1, 2, 6, 6], seed_a ^ seed_b);
        let ya = a.forward(&x, false).unwrap();
        let yb = b.forward(&x, false).unwrap();
        prop_assert_eq!(ya, yb);
    }

    /// A Sequential of one layer behaves exactly like the layer.
    #[test]
    fn sequential_single_stage_is_transparent(seed in 0u64..10_000) {
        let mut rng1 = Xoshiro256::seed_from(seed);
        let mut rng2 = Xoshiro256::seed_from(seed);
        let mut bare = Conv2d::new(2, 3, 3, Conv2dSpec::same(3), &mut rng1);
        let mut seq = Sequential::new();
        seq.push("conv", Conv2d::new(2, 3, 3, Conv2dSpec::same(3), &mut rng2));
        let x = rand_tensor(&[1, 2, 5, 5], seed ^ 7);
        let ya = bare.forward(&x, true).unwrap();
        let yb = seq.forward(&x, true).unwrap();
        prop_assert_eq!(ya, yb);
        let g = rand_tensor(&[1, 3, 5, 5], seed ^ 8);
        let da = bare.backward(&g).unwrap();
        let db = seq.backward(&g).unwrap();
        prop_assert_eq!(da, db);
    }

    /// BatchNorm in training mode is invariant to affine input rescaling
    /// of each channel (per-channel standardization removes scale/shift).
    #[test]
    fn batchnorm_normalizes_away_affine_input_changes(
        seed in 0u64..10_000,
        scale in 0.5f32..4.0,
        shift in -3.0f32..3.0,
    ) {
        let x = rand_tensor(&[4, 2, 4, 4], seed);
        let mut bn1 = BatchNorm2d::new(2);
        let mut bn2 = BatchNorm2d::new(2);
        let y1 = bn1.forward(&x, true).unwrap();
        let y2 = bn2.forward(&x.map(|v| v * scale + shift), true).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data().iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Zeroing gradients is complete: after zero_grad every parameter
    /// gradient is exactly zero, whatever training happened before.
    #[test]
    fn zero_grad_is_complete(seed in 0u64..10_000, steps in 1usize..4) {
        let cfg = FlNetConfig { in_channels: 2, hidden: 3, kernel: 3, depth: 2 };
        let mut rng = Xoshiro256::seed_from(seed);
        let mut model = FlNet::new(cfg, &mut rng);
        let x = rand_tensor(&[1, 2, 4, 4], seed ^ 1);
        let g = rand_tensor(&[1, 1, 4, 4], seed ^ 2);
        for _ in 0..steps {
            model.forward(&x, true).unwrap();
            model.backward(&g).unwrap();
        }
        model.zero_grad();
        model.visit_params("", &mut |name, p| {
            assert_eq!(p.grad.norm_sq(), 0.0, "{name}");
        });
    }
}

/// Every parameter gradient of `model`, in visiting order.
fn grads(model: &mut dyn Layer) -> Vec<(String, Tensor)> {
    let mut out = Vec::new();
    model.visit_params("", &mut |name, p: &mut Param| {
        out.push((name, p.grad.clone()))
    });
    out
}

/// `backward_params` is `backward` minus the input gradient: on all
/// three models — FLNet's plain chain, RouteNet's shortcut, PROS's
/// residual blocks and its strided (lowered) `down_conv` — it must leave
/// bit-identical `Param::grad`s.
#[test]
fn backward_params_leaves_the_gradients_backward_leaves() {
    for kind in ModelKind::ALL {
        let x = rand_tensor(&[3, 5, 16, 16], 21);
        let g = rand_tensor(&[3, 1, 16, 16], 22);
        let build = || build_model(kind, 5, ModelScale::Scaled, &mut Xoshiro256::seed_from(23));
        let mut full = build();
        full.forward(&x, true).unwrap();
        full.backward(&g).unwrap();
        let mut params_only = build();
        params_only.forward(&x, true).unwrap();
        params_only.backward_params(&g).unwrap();
        let (want, got) = (grads(full.as_mut()), grads(params_only.as_mut()));
        assert_eq!(want.len(), got.len(), "{kind}");
        for ((name, w), (_, g)) in want.iter().zip(got.iter()) {
            let same = w
                .data()
                .iter()
                .zip(g.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{kind}: {name} differs between backward and backward_params"
            );
            assert!(w.norm_sq() > 0.0, "{kind}: {name} got no gradient at all");
        }
    }
}

/// An evaluation-mode forward caches nothing — and clears what a
/// training-mode forward left — so a backward after it is refused
/// instead of silently differentiating stale activations.
#[test]
fn backward_after_eval_forward_is_refused() {
    for kind in ModelKind::ALL {
        let mut model = build_model(kind, 5, ModelScale::Scaled, &mut Xoshiro256::seed_from(31));
        let x = rand_tensor(&[2, 5, 16, 16], 32);
        let g = rand_tensor(&[2, 1, 16, 16], 33);
        model.forward(&x, true).unwrap();
        model.forward(&x, false).unwrap();
        for result in [model.backward(&g).map(drop), model.backward_params(&g)] {
            assert!(
                matches!(result, Err(NnError::BackwardBeforeForward { .. })),
                "{kind}: {result:?}"
            );
        }
        // A training-mode forward makes it differentiable again.
        model.forward(&x, true).unwrap();
        model.backward(&g).unwrap();
    }
}
