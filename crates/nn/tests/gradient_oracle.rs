//! Finite differences against the analytic gradients, through the public
//! [`Layer`] surface: a layer's `backward` must return `dL/dx` and
//! accumulate `dL/dw` and `dL/db` for `L = Σ y ∘ g`, whatever kernels
//! compute them. Every layer kind of the zoo is checked on its own — the
//! strided convolutions of the paper's baselines (PROS's `down_conv`,
//! RouteNet's `upconv`), the ReLU and sigmoid sweeps, BatchNorm in train
//! mode, max pooling and the pixel shuffle — and so are the two losses'
//! `grad` and FLNet, RouteNet and PROS whole.

use rte_nn::loss::{bce, mse};
use rte_nn::models::{FlNet, FlNetConfig, Pros, ProsConfig, RouteNet, RouteNetConfig};
use rte_nn::{BatchNorm2d, Conv2d, ConvTranspose2d, Layer, MaxPool2d, PixelShuffle, Relu, Sigmoid};
use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

/// How a central difference is taken and judged.
#[derive(Clone, Copy)]
struct Fd {
    /// Half the step.
    eps: f32,
    /// The difference may miss the analytic value by
    /// `rel · (1 + the larger of the two magnitudes)`.
    rel: f64,
    /// Whether the loss runs the layer in training mode.
    training: bool,
}

/// Layers linear in each operand (the convolutions, the pixel shuffle),
/// and piecewise-linear ones probed away from their kinks (ReLU, max
/// pooling): the difference is exact but for rounding, and a wide step
/// keeps that small.
const LINEAR: Fd = Fd {
    eps: 0.25,
    rel: 1e-3,
    training: false,
};

/// Smooth nonlinear layers: the sigmoid, BatchNorm's normalization and
/// the losses. Here the tolerance has to be relative: a central
/// difference is off by about `eps² · f‴ / 6`, which wants a narrow
/// step, while the loss is evaluated in `f32`, whose rounding (about
/// 1e-7 of the loss) the difference divides by `2 · eps`, which wants a
/// wide one. At `eps = 1e-2` each stays near 1e-4 of the gradients
/// checked here, and 1e-2 leaves room for both.
const SMOOTH: Fd = Fd {
    eps: 1e-2,
    rel: 1e-2,
    training: false,
};

/// `Σ y ∘ g` in `f64`, `y` the layer's output on `x`.
fn loss(layer: &mut dyn Layer, x: &Tensor, g: &Tensor, training: bool) -> f64 {
    let y = layer.forward(x, training).unwrap();
    y.data()
        .iter()
        .zip(g.data())
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum()
}

/// About a dozen coordinates of a tensor of `len` elements, the first
/// and the last among them.
fn probes(len: usize) -> impl Iterator<Item = usize> {
    let step = (len / 11).max(1);
    (0..len).step_by(step).chain(std::iter::once(len - 1))
}

/// The central difference of `f` at 0 with half-step `eps`.
fn central(eps: f32, mut f: impl FnMut(f32) -> f64) -> f64 {
    (f(eps) - f(-eps)) / (2.0 * f64::from(eps))
}

/// `analytic` within `rel` (see [`Fd::rel`]) of a central difference.
fn assert_close(numeric: f64, analytic: f32, rel: f64, what: &str) {
    let analytic = f64::from(analytic);
    let tolerance = rel * (1.0 + numeric.abs().max(analytic.abs()));
    assert!(
        (numeric - analytic).abs() < tolerance,
        "{what}: numeric {numeric} vs analytic {analytic}"
    );
}

/// Element `i` of the parameter called `name`, set to `to` when given.
fn param(layer: &mut dyn Layer, name: &str, i: usize, to: Option<f32>) -> f32 {
    let mut was = f32::NAN;
    layer.visit_params("", &mut |n, p| {
        if n == name {
            let v = &mut p.value.data_mut()[i];
            was = *v;
            *v = to.unwrap_or(was);
        }
    });
    was
}

/// Checks `dx` at the probed coordinates `keep` admits, and the gradient
/// of every parameter, of `layer` on `x` against central differences of
/// the loss.
fn check_layer_where(
    layer: &mut dyn Layer,
    x: &Tensor,
    fd: Fd,
    seed: u64,
    keep: impl Fn(usize) -> bool,
) {
    let (g, dx) = backward(layer, x, seed);
    let mut inputs = 0;
    for i in probes(x.numel()).filter(|&i| keep(i)) {
        let numeric = central(fd.eps, |by| {
            let mut moved = x.clone();
            moved.data_mut()[i] += by;
            loss(layer, &moved, &g, fd.training)
        });
        assert_close(numeric, dx.data()[i], fd.rel, &format!("dx[{i}]"));
        inputs += 1;
    }
    assert!(inputs >= 3, "only {inputs} input coordinates probed");

    for (name, grad) in param_grads(layer) {
        for i in probes(grad.numel()) {
            let numeric = central(fd.eps, |by| {
                let was = param(layer, &name, i, None);
                param(layer, &name, i, Some(was + by));
                let moved = loss(layer, x, &g, fd.training);
                param(layer, &name, i, Some(was));
                moved
            });
            assert_close(numeric, grad.data()[i], fd.rel, &format!("d{name}[{i}]"));
        }
    }
}

/// A random `g` shaped like `layer`'s output on `x`, and the `dx` a
/// train-mode backward of `g` returns; the parameter gradients are left
/// in the layer.
fn backward(layer: &mut dyn Layer, x: &Tensor, seed: u64) -> (Tensor, Tensor) {
    let y = layer.forward(x, true).unwrap();
    let g = rand_tensor(y.shape().dims(), seed ^ 1);
    layer.zero_grad();
    let dx = layer.backward(&g).unwrap();
    assert_eq!(dx.shape(), x.shape(), "dx shape");
    (g, dx)
}

/// Every parameter's name and accumulated gradient.
fn param_grads(layer: &mut dyn Layer) -> Vec<(String, Tensor)> {
    let mut params = Vec::new();
    layer.visit_params("", &mut |name, p| params.push((name, p.grad.clone())));
    params
}

/// [`check_layer_where`] at every probed coordinate of a normal input
/// shaped `x_dims`.
fn check_layer(layer: &mut dyn Layer, x_dims: &[usize], fd: Fd, seed: u64) {
    check_layer_where(layer, &rand_tensor(x_dims, seed), fd, seed, |_| true);
}

/// PROS's `down_conv`: k3, stride 2, padding 1 — on the even grid the
/// model runs it on (16 → 8), and on an odd one (9 → 5), whose last
/// window reaches into the padding on the far side.
#[test]
fn conv2d_at_down_conv_geometry_matches_finite_differences() {
    let spec = Conv2dSpec {
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    for (extent, seed) in [(16, 11), (9, 12)] {
        let mut layer = Conv2d::new(4, 6, 3, spec, &mut Xoshiro256::seed_from(seed));
        check_layer(&mut layer, &[2, 4, extent, extent], LINEAR, seed);
    }
}

/// RouteNet's `upconv`: a k4, stride 2, padding 1 transposed
/// convolution that doubles an 8×8 map.
#[test]
fn conv_transpose2d_at_upconv_geometry_matches_finite_differences() {
    let spec = Conv2dSpec {
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    let mut layer = ConvTranspose2d::new(5, 3, 4, spec, &mut Xoshiro256::seed_from(21));
    check_layer(&mut layer, &[2, 5, 8, 8], LINEAR, 21);
}

/// ReLU is linear on either side of 0, so it is probed only where the
/// input is at least two steps from the kink: neither side of the
/// difference crosses it.
#[test]
fn relu_matches_finite_differences_away_from_its_kink() {
    let x = rand_tensor(&[2, 3, 9, 7], 31);
    let away = |i: usize| x.data()[i].abs() >= 2.0 * LINEAR.eps;
    check_layer_where(&mut Relu::new(), &x, LINEAR, 31, away);
}

#[test]
fn sigmoid_matches_finite_differences() {
    check_layer(&mut Sigmoid::new(), &[2, 3, 9, 7], SMOOTH, 32);
}

/// BatchNorm in train mode normalizes with the batch's own statistics,
/// so every input reaches every output of its channel, and the loss runs
/// in train mode too. `γ` and `β` start at 1 and 0; they are moved off
/// those first.
#[test]
fn batchnorm_in_train_mode_matches_finite_differences() {
    let mut layer = BatchNorm2d::new(3);
    let mut rng = Xoshiro256::seed_from(33);
    layer.visit_params("", &mut |_, p| {
        for v in p.value.data_mut() {
            *v += 0.5 * rng.normal();
        }
    });
    let fd = Fd {
        training: true,
        ..SMOOTH
    };
    check_layer(&mut layer, &[2, 3, 5, 6], fd, 33);
}

/// Max pooling is linear while every window's maximum stays where it is:
/// the input is a shuffle of values a whole unit apart, so a step of a
/// quarter never reorders a window.
#[test]
fn max_pool_matches_finite_differences() {
    let dims = [2, 3, 8, 8];
    let n = dims.iter().product();
    let order = Xoshiro256::seed_from(34).sample_indices(n, n);
    let x = Tensor::from_fn(&dims, |i| order[i] as f32 - n as f32 / 2.0);
    check_layer_where(&mut MaxPool2d::new(2, 2), &x, LINEAR, 34, |_| true);
}

#[test]
fn pixel_shuffle_matches_finite_differences() {
    check_layer(&mut PixelShuffle::new(2), &[2, 8, 4, 5], LINEAR, 35);
}

/// The value of a loss at `pred`, for one target.
type LossValue = fn(&Tensor, &Tensor) -> f32;

/// `grad` of both losses against a central difference of their value.
/// MSE is quadratic, so a wide step is exact but for rounding; BCE is
/// checked on predictions in `(0.2, 0.8)`, away from its clamp, and with
/// a step narrow enough for its third derivative there. Eight elements
/// keep each gradient large beside the loss's `f32` rounding.
#[test]
fn loss_gradients_match_finite_differences() {
    let mut rng = Xoshiro256::seed_from(36);
    let dims = [2, 1, 2, 2];
    let pred = Tensor::from_fn(&dims, |_| 0.2 + 0.6 * rng.uniform());
    let target = Tensor::from_fn(&dims, |_| f32::from(rng.bernoulli(0.5)));
    let losses: [(&str, LossValue, f32, Tensor); 3] = [
        (
            "mse",
            |p, t| mse(p, t).unwrap().value,
            0.05,
            mse(&pred, &target).unwrap().grad,
        ),
        (
            "bce",
            |p, t| bce(p, t, 1.0).unwrap().value,
            1e-3,
            bce(&pred, &target, 1.0).unwrap().grad,
        ),
        (
            "bce (pos_weight 3)",
            |p, t| bce(p, t, 3.0).unwrap().value,
            1e-3,
            bce(&pred, &target, 3.0).unwrap().grad,
        ),
    ];
    for (name, value, eps, grad) in losses {
        for i in 0..pred.numel() {
            let (mut plus, mut minus) = (pred.clone(), pred.clone());
            plus.data_mut()[i] += eps;
            minus.data_mut()[i] -= eps;
            let diff = f64::from(value(&plus, &target)) - f64::from(value(&minus, &target));
            let numeric = diff / f64::from(2.0 * eps);
            let what = format!("{name} grad[{i}]");
            assert_close(numeric, grad.data()[i], SMOOTH.rel, &what);
        }
    }
}

/// `base + by · grad / |grad|`, and `|grad|` in `f64`.
fn along(base: &[f32], grad: &Tensor, by: f32) -> (Vec<f32>, f64) {
    let norm = grad
        .data()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    let unit = |v: f32| (f64::from(by) * f64::from(v) / norm.max(f64::MIN_POSITIVE)) as f32;
    let moved = base
        .iter()
        .zip(grad.data())
        .map(|(&b, &v)| b + unit(v))
        .collect();
    (moved, norm)
}

/// `dx` and every parameter gradient of a whole model in train mode, on
/// `train_determinism`'s input shape. A probe per coordinate does not
/// work here: a step in one weight shifts a whole BatchNorm channel, so
/// any step wide enough to rise above the `f32` rounding of a deep
/// forward moves some of its ReLU units across their kink. Each gradient
/// is instead checked as a whole, by the derivative of the loss along
/// it, which must be its norm: every coordinate adds to that, and a unit
/// step of `1e-4` spread over all of them moves few units across a kink.
/// It is a projection, so it catches a gradient that is wrong by a tenth
/// of its norm or more, whatever the direction of the error.
fn check_model(model: &mut dyn Layer, seed: u64) {
    const EPS: f32 = 3e-4;
    let x = rand_tensor(&[2, 3, 16, 16], seed);
    let (g, dx) = backward(model, &x, seed);
    let mut norm = 0.0;
    let numeric = central(EPS, |by| {
        let moved;
        (moved, norm) = along(x.data(), &dx, by);
        let moved = Tensor::from_vec(moved, x.shape().dims()).unwrap();
        loss(model, &moved, &g, true)
    });
    assert_close(numeric, norm as f32, SMOOTH.rel, "|dx|");

    for (name, grad) in param_grads(model) {
        let value = Tensor::from_fn(grad.shape().dims(), |i| param(model, &name, i, None));
        let set = |model: &mut dyn Layer, to: &[f32]| {
            model.visit_params("", &mut |n, p| {
                if n == name {
                    p.value.data_mut().copy_from_slice(to);
                }
            });
        };
        let numeric = central(EPS, |by| {
            let moved;
            (moved, norm) = along(value.data(), &grad, by);
            set(model, &moved);
            let moved = loss(model, &x, &g, true);
            set(model, value.data());
            moved
        });
        assert_close(numeric, norm as f32, SMOOTH.rel, &format!("|d{name}|"));
    }
}

/// The models at `train_determinism`'s reduced widths: the layer kinds
/// and kernel sizes are the paper's.
#[test]
fn flnet_matches_finite_differences() {
    let config = FlNetConfig {
        hidden: 8,
        ..FlNetConfig::new(3)
    };
    check_model(&mut FlNet::new(config, &mut Xoshiro256::seed_from(5)), 41);
}

#[test]
fn routenet_matches_finite_differences() {
    let config = RouteNetConfig {
        base: 8,
        mid: 12,
        ..RouteNetConfig::new(3)
    };
    check_model(
        &mut RouteNet::new(config, &mut Xoshiro256::seed_from(6)),
        42,
    );
}

#[test]
fn pros_matches_finite_differences() {
    let config = ProsConfig {
        base: 8,
        refinements: 1,
        ..ProsConfig::new(3)
    };
    check_model(&mut Pros::new(config, &mut Xoshiro256::seed_from(7)), 43);
}
