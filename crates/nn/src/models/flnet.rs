//! FLNet — the paper's federated-learning co-designed estimator.

use rte_tensor::conv::Conv2dSpec;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::{Conv2d, Layer, NnError, Param, Relu, Sequential, Sigmoid};

/// Configuration of [`FlNet`] (paper Table 1: two 9×9 convolutions,
/// 64 hidden filters, ReLU after the input conv, no BatchNorm).
///
/// `depth` > 2 inserts extra 9×9 hidden convolutions and exists for the
/// §4.2 robustness ablation; the paper's model is `depth = 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlNetConfig {
    /// Number of input feature channels.
    pub in_channels: usize,
    /// Hidden filter count (paper: 64).
    pub hidden: usize,
    /// Square kernel size (paper: 9).
    pub kernel: usize,
    /// Total number of convolution layers (paper: 2).
    pub depth: usize,
}

impl FlNetConfig {
    /// Paper-default configuration for the given input channel count.
    pub fn new(in_channels: usize) -> Self {
        FlNetConfig {
            in_channels,
            hidden: 64,
            kernel: 9,
            depth: 2,
        }
    }
}

/// FLNet (paper Table 1): `input_conv (k×k, C→H, ReLU)` followed by
/// `output_conv (k×k, H→1)` and a sigmoid that turns the map into hotspot
/// probabilities.
///
/// The deliberately small depth and absence of BatchNorm make its loss
/// surface robust to the parameter averaging of federated aggregation —
/// the paper's core §4.2 claim, reproduced by the `ablation_batchnorm` and
/// `ablation_flnet_arch` benchmark binaries.
#[derive(Debug)]
pub struct FlNet {
    net: Sequential,
    config: FlNetConfig,
}

impl FlNet {
    /// Builds an FLNet with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config.depth < 2` or any extent is zero.
    pub fn new(config: FlNetConfig, rng: &mut Xoshiro256) -> Self {
        assert!(config.depth >= 2, "FlNet needs at least input+output conv");
        assert!(
            config.in_channels > 0 && config.hidden > 0 && config.kernel > 0,
            "FlNet: zero extent in config"
        );
        let spec = Conv2dSpec::same(config.kernel);
        let mut net = Sequential::new();
        net.push(
            "input_conv",
            Conv2d::new(config.in_channels, config.hidden, config.kernel, spec, rng),
        );
        net.push("input_act", Relu::new());
        for i in 0..config.depth - 2 {
            net.push(
                format!("hidden_conv{i}"),
                Conv2d::new(config.hidden, config.hidden, config.kernel, spec, rng),
            );
            net.push(format!("hidden_act{i}"), Relu::new());
        }
        net.push(
            "output_conv",
            Conv2d::new(config.hidden, 1, config.kernel, spec, rng),
        );
        net.push("output_act", Sigmoid::new());
        FlNet { net, config }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> FlNetConfig {
        self.config
    }
}

impl Layer for FlNet {
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

    #[test]
    fn paper_config_matches_table1() {
        let cfg = FlNetConfig::new(9);
        assert_eq!(cfg.hidden, 64);
        assert_eq!(cfg.kernel, 9);
        assert_eq!(cfg.depth, 2);
    }

    #[test]
    fn parameter_count_is_two_convs() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut net = FlNet::new(FlNetConfig::new(3), &mut rng);
        // input: 64·3·81 + 64, output: 1·64·81 + 1
        assert_eq!(net.param_count(), 64 * 3 * 81 + 64 + 64 * 81 + 1);
    }

    #[test]
    fn preserves_spatial_extent() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut net = FlNet::new(
            FlNetConfig {
                in_channels: 4,
                hidden: 8,
                kernel: 9,
                depth: 2,
            },
            &mut rng,
        );
        let y = net.forward(&Tensor::zeros(&[1, 4, 17, 23]), false).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 17, 23]);
    }

    #[test]
    fn depth_ablation_adds_hidden_layers() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut cfg = FlNetConfig::new(2);
        cfg.hidden = 4;
        cfg.kernel = 3;
        cfg.depth = 4;
        let mut net = FlNet::new(cfg, &mut rng);
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n));
        assert!(names.iter().any(|n| n.starts_with("hidden_conv0/")));
        assert!(names.iter().any(|n| n.starts_with("hidden_conv1/")));
    }

    #[test]
    fn no_batchnorm_buffers() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut net = FlNet::new(FlNetConfig::new(2), &mut rng);
        let mut buffers = 0;
        net.visit_buffers("", &mut |_, _| buffers += 1);
        assert_eq!(buffers, 0, "FLNet must not contain BatchNorm state");
    }

    #[test]
    fn output_layer_name_matches_lg_partition() {
        // FedProx-LG keys on the "output_conv" prefix to decide the local
        // part; make sure the name is stable.
        let mut rng = Xoshiro256::seed_from(5);
        let mut net = FlNet::new(FlNetConfig::new(2), &mut rng);
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n));
        assert!(names.contains(&"output_conv/weight".to_string()));
    }
}
