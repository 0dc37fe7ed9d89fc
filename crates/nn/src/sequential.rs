//! Sequential layer composition.

use rte_tensor::Tensor;

use crate::layer::join_path;
use crate::{Layer, NnError, Param};

/// A named chain of layers executed in order.
///
/// Parameter paths are `{stage_name}/{param_name}`, so a model built as
/// `input_conv → relu → output_conv` exposes `input_conv/weight`,
/// `input_conv/bias`, `output_conv/weight`, `output_conv/bias` — the names
/// that the federated-learning personalization methods (e.g. FedProx-LG's
/// global/local split on the output layer) key on.
///
/// # Example
///
/// ```
/// use rte_nn::{Conv2d, Layer, Relu, Sequential};
/// use rte_tensor::conv::Conv2dSpec;
/// use rte_tensor::rng::Xoshiro256;
/// use rte_tensor::Tensor;
///
/// let mut rng = Xoshiro256::seed_from(0);
/// let mut net = Sequential::new();
/// net.push("conv", Conv2d::new(1, 4, 3, Conv2dSpec::same(3), &mut rng));
/// net.push("relu", Relu::new());
/// let y = net.forward(&Tensor::zeros(&[1, 1, 6, 6]), true)?;
/// assert_eq!(y.shape().dims(), &[1, 4, 6, 6]);
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    stages: Vec<(String, Box<dyn Layer>)>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.stages.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("Sequential")
            .field("stages", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { stages: Vec::new() }
    }

    /// Appends a named stage.
    pub fn push(&mut self, name: impl Into<String>, layer: impl Layer + 'static) {
        self.stages.push((name.into(), Box::new(layer)));
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in &mut self.stages {
            cur = Some(layer.forward(cur.as_ref().unwrap_or(x), training)?);
        }
        Ok(cur.unwrap_or_else(|| x.clone()))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in self.stages.iter_mut().rev() {
            cur = Some(layer.backward(cur.as_ref().unwrap_or(dy))?);
        }
        Ok(cur.unwrap_or_else(|| dy.clone()))
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        // Every stage but the first must hand a gradient to the stage
        // before it; only the first stage's input gradient goes unread.
        let Some(((_, first), rest)) = self.stages.split_first_mut() else {
            return Ok(());
        };
        let mut cur: Option<Tensor> = None;
        for (_, layer) in rest.iter_mut().rev() {
            cur = Some(layer.backward(cur.as_ref().unwrap_or(dy))?);
        }
        first.backward_params(cur.as_ref().unwrap_or(dy))
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        for (name, layer) in &mut self.stages {
            layer.visit_params(&join_path(prefix, name), f);
        }
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        for (name, layer) in &mut self.stages {
            layer.visit_buffers(&join_path(prefix, name), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Relu};
    use rte_tensor::conv::Conv2dSpec;
    use rte_tensor::rng::Xoshiro256;

    fn small_net() -> Sequential {
        let mut rng = Xoshiro256::seed_from(0);
        let mut net = Sequential::new();
        net.push("c1", Conv2d::new(1, 2, 3, Conv2dSpec::same(3), &mut rng));
        net.push("act", Relu::new());
        net.push("c2", Conv2d::new(2, 1, 3, Conv2dSpec::same(3), &mut rng));
        net
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = small_net();
        let x = Tensor::ones(&[2, 1, 5, 5]);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 1, 5, 5]);
        let dx = net.backward(&Tensor::ones(&[2, 1, 5, 5])).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 1, 5, 5]);
    }

    #[test]
    fn param_paths_are_prefixed() {
        let mut net = small_net();
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n));
        assert_eq!(names, vec!["c1/weight", "c1/bias", "c2/weight", "c2/bias"]);
    }

    #[test]
    fn debug_lists_stage_names() {
        let net = small_net();
        let dbg = format!("{net:?}");
        assert!(dbg.contains("c1") && dbg.contains("act") && dbg.contains("c2"));
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }
}
