//! RouteNet replica (Xie et al., ICCAD'18).
//!
//! A fully-convolutional estimator with an encoder (pooling), a
//! trans-convolutional decoder and a full-resolution shortcut, using
//! BatchNorm throughout — the structural traits the paper identifies as
//! fragile under federated parameter averaging.

use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::{
    BatchNorm2d, Conv2d, ConvTranspose2d, Layer, MaxPool2d, NnError, Param, Relu, Sequential,
    Sigmoid,
};

/// Configuration of the [`RouteNet`] replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteNetConfig {
    /// Number of input feature channels.
    pub in_channels: usize,
    /// Filter count of the full-resolution stages (replica default 32).
    pub base: usize,
    /// Filter count of the encoder bottleneck (replica default 64).
    pub mid: usize,
    /// Whether to include BatchNorm layers (`true` matches RouteNet; the
    /// `ablation_batchnorm` bench flips this to isolate BatchNorm's effect
    /// on federated training).
    pub batchnorm: bool,
}

impl RouteNetConfig {
    /// Replica-default configuration.
    pub fn new(in_channels: usize) -> Self {
        RouteNetConfig {
            in_channels,
            base: 32,
            mid: 64,
            batchnorm: true,
        }
    }
}

/// RouteNet replica: `stem` (9×9 conv at full resolution) feeding both a
/// pooled encoder/decoder path and a shortcut that is added back before the
/// 5×5 output head.
///
/// ```text
/// x ─ stem ─┬─ pool ─ conv7×7 ─ conv9×9 ─ transconv ─┐
///           └────────────── shortcut ──────────── (+) ─ head ─ σ
/// ```
///
/// Spatial extents must be even (one 2× down/upsampling stage).
#[derive(Debug)]
pub struct RouteNet {
    stem: Sequential,
    encoder: Sequential,
    head: Sequential,
    config: RouteNetConfig,
    /// Whether the last forward ran in training mode (and so left the
    /// three chains holding what `backward` consumes).
    saw_forward: bool,
}

impl RouteNet {
    /// Builds a RouteNet replica with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if any configured extent is zero.
    pub fn new(config: RouteNetConfig, rng: &mut Xoshiro256) -> Self {
        assert!(
            config.in_channels > 0 && config.base > 0 && config.mid > 0,
            "RouteNet: zero extent in config"
        );
        let mut stem = Sequential::new();
        stem.push(
            "conv1",
            Conv2d::new(config.in_channels, config.base, 9, Conv2dSpec::same(9), rng),
        );
        if config.batchnorm {
            stem.push("bn1", BatchNorm2d::new(config.base));
        }
        stem.push("act1", Relu::new());

        let mut encoder = Sequential::new();
        encoder.push("pool", MaxPool2d::new(2, 2));
        encoder.push(
            "conv2",
            Conv2d::new(config.base, config.mid, 7, Conv2dSpec::same(7), rng),
        );
        if config.batchnorm {
            encoder.push("bn2", BatchNorm2d::new(config.mid));
        }
        encoder.push("act2", Relu::new());
        encoder.push(
            "conv3",
            Conv2d::new(config.mid, config.base, 9, Conv2dSpec::same(9), rng),
        );
        if config.batchnorm {
            encoder.push("bn3", BatchNorm2d::new(config.base));
        }
        encoder.push("act3", Relu::new());
        encoder.push(
            "upconv",
            ConvTranspose2d::new(
                config.base,
                config.base,
                4,
                Conv2dSpec {
                    stride: 2,
                    padding: 1,
                    dilation: 1,
                },
                rng,
            ),
        );
        encoder.push("act4", Relu::new());

        let mut head = Sequential::new();
        head.push(
            "output_conv",
            Conv2d::new(config.base, 1, 5, Conv2dSpec::same(5), rng),
        );
        head.push("output_act", Sigmoid::new());

        RouteNet {
            stem,
            encoder,
            head,
            config,
            saw_forward: false,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> RouteNetConfig {
        self.config
    }

    /// Backpropagates `dy` through the head and the encoder and returns
    /// the gradient w.r.t. the stem's output.
    fn backward_to_stem(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        if !self.saw_forward {
            return Err(NnError::BackwardBeforeForward {
                layer: "RouteNet".into(),
            });
        }
        let d_merged = self.head.backward(dy)?;
        // The merge was an addition: gradient flows to both branches.
        let d_skip_from_encoder = self.encoder.backward(&d_merged)?;
        Ok(d_skip_from_encoder.add(&d_merged)?)
    }
}

impl Layer for RouteNet {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let skip = self.stem.forward(x, training)?;
        let deep = self.encoder.forward(&skip, training)?;
        let merged = deep.add(&skip)?;
        self.saw_forward = training;
        self.head.forward(&merged, training)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let d_skip = self.backward_to_stem(dy)?;
        self.stem.backward(&d_skip)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        let d_skip = self.backward_to_stem(dy)?;
        self.stem.backward_params(&d_skip)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        self.stem.visit_params(prefix, f);
        self.encoder.visit_params(prefix, f);
        self.head.visit_params(prefix, f);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        self.stem.visit_buffers(prefix, f);
        self.encoder.visit_buffers(prefix, f);
        self.head.visit_buffers(prefix, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RouteNetConfig {
        RouteNetConfig {
            in_channels: 3,
            base: 4,
            mid: 6,
            batchnorm: true,
        }
    }

    #[test]
    fn forward_preserves_extent() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut net = RouteNet::new(small(), &mut rng);
        let y = net.forward(&Tensor::zeros(&[2, 3, 12, 12]), true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 1, 12, 12]);
    }

    #[test]
    fn backward_matches_input_shape() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut net = RouteNet::new(small(), &mut rng);
        net.forward(&Tensor::ones(&[1, 3, 8, 8]), true).unwrap();
        let dx = net.backward(&Tensor::ones(&[1, 1, 8, 8])).unwrap();
        assert_eq!(dx.shape().dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut net = RouteNet::new(small(), &mut rng);
        assert!(net.backward(&Tensor::zeros(&[1, 1, 8, 8])).is_err());
    }

    #[test]
    fn batchnorm_flag_controls_buffers() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut with_bn = RouteNet::new(small(), &mut rng);
        let mut n_bn = 0;
        with_bn.visit_buffers("", &mut |_, _| n_bn += 1);
        assert_eq!(n_bn, 6); // 3 BN layers × (mean, var)

        let mut cfg = small();
        cfg.batchnorm = false;
        let mut without = RouteNet::new(cfg, &mut rng);
        let mut n = 0;
        without.visit_buffers("", &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn gradient_check_through_shortcut() {
        let mut cfg = small();
        cfg.batchnorm = false; // keep the finite-difference loss deterministic
        let mut rng = Xoshiro256::seed_from(5);
        let mut net = RouteNet::new(cfg, &mut rng);
        let mut data_rng = Xoshiro256::seed_from(6);
        let x = Tensor::from_fn(&[1, 3, 8, 8], |_| data_rng.normal() * 0.5);
        let g = Tensor::from_fn(&[1, 1, 8, 8], |_| data_rng.normal());
        net.forward(&x, true).unwrap();
        let dx = net.backward(&g).unwrap();
        let eps = 2e-2f32;
        let loss_net = |xv: &Tensor| -> f64 {
            let mut rng2 = Xoshiro256::seed_from(5);
            let mut cfg2 = small();
            cfg2.batchnorm = false;
            let mut net2 = RouteNet::new(cfg2, &mut rng2);
            let y = net2.forward(xv, true).unwrap();
            y.data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        for i in (0..x.numel()).step_by(37) {
            let mut p = x.clone();
            p.data_mut()[i] += eps;
            let mut m = x.clone();
            m.data_mut()[i] -= eps;
            let numeric = ((loss_net(&p) - loss_net(&m)) / (2.0 * eps as f64)) as f32;
            let got = dx.data()[i];
            assert!(
                (numeric - got).abs() < 5e-2 * (1.0 + numeric.abs().max(got.abs())),
                "dx[{i}]: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn output_layer_name_present() {
        let mut rng = Xoshiro256::seed_from(7);
        let mut net = RouteNet::new(small(), &mut rng);
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n));
        assert!(names.contains(&"output_conv/weight".to_string()));
    }
}
