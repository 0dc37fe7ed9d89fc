//! Finite differences against the analytic gradients, through the public
//! [`Layer`] surface: a layer's `backward` must return `dL/dx` and
//! accumulate `dL/dw` and `dL/db` for `L = Σ y ∘ g`, whatever kernels
//! compute them. These are the strided layers of the paper's baselines —
//! PROS's `down_conv` and RouteNet's `upconv` — whose backward passes run
//! on the same implicit kernels as every other convolution.

use rte_nn::{Conv2d, ConvTranspose2d, Layer};
use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

/// `Σ y ∘ g` in `f64`, `y` the layer's evaluation-mode output on `x`.
fn loss(layer: &mut dyn Layer, x: &Tensor, g: &Tensor) -> f64 {
    let y = layer.forward(x, false).unwrap();
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

/// A central difference of `loss` in one coordinate against `analytic`.
/// A convolution is linear in each of its operands, so the difference is
/// exact but for rounding, and a wide step keeps that small.
fn assert_close(numeric: f64, analytic: f32, what: &str) {
    let analytic = f64::from(analytic);
    let tolerance = 1e-3 * (1.0 + numeric.abs().max(analytic.abs()));
    assert!(
        (numeric - analytic).abs() < tolerance,
        "{what}: numeric {numeric} vs analytic {analytic}"
    );
}

/// Adds `by` to element `i` of the parameter called `name`.
fn nudge(layer: &mut dyn Layer, name: &str, i: usize, by: f32) {
    layer.visit_params("", &mut |n, p| {
        if n == name {
            p.value.data_mut()[i] += by;
        }
    });
}

/// Half the step of every central difference.
const EPS: f32 = 0.25;

/// Checks `dx`, and the gradient of every parameter, of `layer` on an
/// input shaped `x_dims` against central differences of the loss.
fn check_layer(layer: &mut dyn Layer, x_dims: &[usize], seed: u64) {
    let x = rand_tensor(x_dims, seed);
    let y = layer.forward(&x, true).unwrap();
    let g = rand_tensor(y.shape().dims(), seed ^ 1);
    layer.zero_grad();
    let dx = layer.backward(&g).unwrap();
    assert_eq!(dx.shape(), x.shape(), "dx shape");

    for i in probes(x.numel()) {
        let (mut plus, mut minus) = (x.clone(), x.clone());
        plus.data_mut()[i] += EPS;
        minus.data_mut()[i] -= EPS;
        let numeric = (loss(layer, &plus, &g) - loss(layer, &minus, &g)) / f64::from(2.0 * EPS);
        assert_close(numeric, dx.data()[i], &format!("dx[{i}]"));
    }

    let mut params = Vec::new();
    layer.visit_params("", &mut |name, p| params.push((name, p.grad.clone())));
    for (name, grad) in params {
        for i in probes(grad.numel()) {
            nudge(layer, &name, i, EPS);
            let up = loss(layer, &x, &g);
            nudge(layer, &name, i, -2.0 * EPS);
            let down = loss(layer, &x, &g);
            nudge(layer, &name, i, EPS);
            let numeric = (up - down) / f64::from(2.0 * EPS);
            assert_close(numeric, grad.data()[i], &format!("d{name}[{i}]"));
        }
    }
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
        check_layer(&mut layer, &[2, 4, extent, extent], seed);
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
    check_layer(&mut layer, &[2, 5, 8, 8], 21);
}
