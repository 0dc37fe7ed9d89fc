//! PROS replica (Chen et al., ICCAD'20).
//!
//! The most complex of the three estimators: a strided encoder, a stack of
//! dilated-convolution residual blocks for multi-scale context, refinement
//! blocks, and sub-pixel (pixel-shuffle) upsampling — all with BatchNorm.
//! Its high non-linearity is exactly what the paper shows to be fragile
//! under decentralized training (Table 5).

use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::models::Residual;
use crate::{BatchNorm2d, Conv2d, Layer, NnError, Param, PixelShuffle, Relu, Sequential, Sigmoid};

/// Configuration of the [`Pros`] replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProsConfig {
    /// Number of input feature channels.
    pub in_channels: usize,
    /// Base filter count at full resolution (replica default 32; the
    /// encoder works at `2·base`).
    pub base: usize,
    /// Dilations of the context blocks (PROS uses an increasing schedule).
    pub dilations: Vec<usize>,
    /// Number of refinement residual blocks after the context stack.
    pub refinements: usize,
    /// Whether to include BatchNorm layers (`true` matches PROS).
    pub batchnorm: bool,
}

impl ProsConfig {
    /// Replica-default configuration.
    pub fn new(in_channels: usize) -> Self {
        ProsConfig {
            in_channels,
            base: 32,
            dilations: vec![1, 2, 4],
            refinements: 2,
            batchnorm: true,
        }
    }
}

/// PROS replica:
///
/// ```text
/// x → head(3×3) → down(3×3, s2) → [dilated residual]×D →
///     [refinement residual]×R → up-conv(→4·base) → pixel-shuffle(2) →
///     output(3×3) → σ
/// ```
///
/// Spatial extents must be even (one 2× down/upsampling stage).
#[derive(Debug)]
pub struct Pros {
    net: Sequential,
    config: ProsConfig,
}

impl Pros {
    /// Builds a PROS replica with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if any configured extent is zero or `dilations` is empty.
    pub fn new(config: ProsConfig, rng: &mut Xoshiro256) -> Self {
        assert!(
            config.in_channels > 0 && config.base > 0 && !config.dilations.is_empty(),
            "Pros: invalid config"
        );
        let b = config.base;
        let wide = 2 * b;
        let mut net = Sequential::new();

        net.push(
            "head_conv",
            Conv2d::new(config.in_channels, b, 3, Conv2dSpec::same(3), rng),
        );
        if config.batchnorm {
            net.push("head_bn", BatchNorm2d::new(b));
        }
        net.push("head_act", Relu::new());

        net.push(
            "down_conv",
            Conv2d::new(
                b,
                wide,
                3,
                Conv2dSpec {
                    stride: 2,
                    padding: 1,
                    dilation: 1,
                },
                rng,
            ),
        );
        if config.batchnorm {
            net.push("down_bn", BatchNorm2d::new(wide));
        }
        net.push("down_act", Relu::new());

        for (i, &d) in config.dilations.iter().enumerate() {
            let mut inner = Sequential::new();
            inner.push(
                "conv",
                Conv2d::new(wide, wide, 3, Conv2dSpec::same_dilated(3, d), rng),
            );
            if config.batchnorm {
                inner.push("bn", BatchNorm2d::new(wide));
            }
            inner.push("act", Relu::new());
            net.push(format!("dilated{i}"), Residual::new(inner));
        }

        for i in 0..config.refinements {
            let mut inner = Sequential::new();
            inner.push("conv", Conv2d::new(wide, wide, 3, Conv2dSpec::same(3), rng));
            if config.batchnorm {
                inner.push("bn", BatchNorm2d::new(wide));
            }
            inner.push("act", Relu::new());
            net.push(format!("refine{i}"), Residual::new(inner));
        }

        // Sub-pixel upsampling: expand to 4·base channels, shuffle ×2 back
        // to full resolution with `base` channels.
        net.push(
            "up_conv",
            Conv2d::new(wide, 4 * b, 3, Conv2dSpec::same(3), rng),
        );
        net.push("up_act", Relu::new());
        net.push("up_shuffle", PixelShuffle::new(2));

        net.push(
            "output_conv",
            Conv2d::new(b, 1, 3, Conv2dSpec::same(3), rng),
        );
        net.push("output_act", Sigmoid::new());

        Pros { net, config }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ProsConfig {
        &self.config
    }
}

impl Layer for Pros {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        self.net.forward(x, training)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        self.net.backward(dy)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        self.net.backward_params(dy)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        self.net.visit_params(prefix, f);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        self.net.visit_buffers(prefix, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ProsConfig {
        ProsConfig {
            in_channels: 3,
            base: 4,
            dilations: vec![1, 2],
            refinements: 1,
            batchnorm: true,
        }
    }

    #[test]
    fn forward_preserves_extent() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut net = Pros::new(small(), &mut rng);
        let y = net.forward(&Tensor::zeros(&[1, 3, 12, 12]), true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 12, 12]);
    }

    #[test]
    fn backward_matches_input_shape() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut net = Pros::new(small(), &mut rng);
        net.forward(&Tensor::ones(&[2, 3, 8, 8]), true).unwrap();
        let dx = net.backward(&Tensor::ones(&[2, 1, 8, 8])).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 3, 8, 8]);
    }

    #[test]
    fn has_dilated_and_refinement_blocks() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut net = Pros::new(small(), &mut rng);
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n));
        assert!(names.iter().any(|n| n.starts_with("dilated0/")));
        assert!(names.iter().any(|n| n.starts_with("dilated1/")));
        assert!(names.iter().any(|n| n.starts_with("refine0/")));
        assert!(names.contains(&"output_conv/weight".to_string()));
    }

    #[test]
    fn batchnorm_count_follows_config() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut net = Pros::new(small(), &mut rng);
        let mut n = 0;
        net.visit_buffers("", &mut |_, _| n += 1);
        // head + down + 2 dilated + 1 refine = 5 BN layers × 2 buffers.
        assert_eq!(n, 10);

        let mut cfg = small();
        cfg.batchnorm = false;
        let mut net2 = Pros::new(cfg, &mut rng);
        let mut n2 = 0;
        net2.visit_buffers("", &mut |_, _| n2 += 1);
        assert_eq!(n2, 0);
    }

    #[test]
    fn deeper_than_routenet_in_layers() {
        // Sanity on the paper's complexity narrative: PROS has more
        // sequential stages than FLNet's two convolutions.
        let mut rng = Xoshiro256::seed_from(5);
        let net = Pros::new(ProsConfig::new(3), &mut rng);
        assert!(net.net.len() > 10);
    }
}
