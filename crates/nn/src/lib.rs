//! Minimal CNN framework and the model zoo of the decentralized
//! routability estimation reproduction.
//!
//! The crate provides exactly what the paper's three estimators need:
//!
//! - [`Layer`]: the forward/backward building block trait, with named
//!   [`Param`]s (learnable) and buffers (non-learnable state such as
//!   BatchNorm running statistics — which *are* communicated in federated
//!   aggregation, a detail the paper's §4.2 analysis hinges on),
//! - layers: [`Conv2d`], [`ConvTranspose2d`], [`BatchNorm2d`], [`Relu`],
//!   [`Sigmoid`], [`MaxPool2d`], [`PixelShuffle`], [`Sequential`],
//! - [`loss`]: MSE (the paper's Eq. 1 data term) and BCE,
//! - [`optim`]: Adam (the paper's optimizer) with L2 regularization,
//! - [`models`]: **FLNet** (Table 1), a **RouteNet** replica and a **PROS**
//!   replica,
//! - [`state_dict`] / [`load_state_dict`]: ordered named parameter
//!   snapshots, the unit of communication in federated learning.
//!
//! # Example
//!
//! ```
//! use rte_nn::models::{FlNet, FlNetConfig};
//! use rte_nn::Layer;
//! use rte_tensor::{rng::Xoshiro256, Tensor};
//!
//! let mut rng = Xoshiro256::seed_from(0);
//! let mut net = FlNet::new(FlNetConfig::new(4), &mut rng);
//! let x = Tensor::zeros(&[1, 4, 16, 16]);
//! let y = net.forward(&x, false)?;
//! assert_eq!(y.shape().dims(), &[1, 1, 16, 16]);
//! # Ok::<(), rte_nn::NnError>(())
//! ```

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]

mod activation;
mod batchnorm;
mod conv2d;
mod error;
mod layer;
pub mod loss;
pub mod models;
pub mod optim;
mod pixelshuffle;
mod pooling;
mod sequential;
pub mod serialize;
mod state;

pub use activation::{Relu, Sigmoid};
pub use batchnorm::BatchNorm2d;
pub use conv2d::{Conv2d, ConvTranspose2d};
pub use error::NnError;
pub use layer::{Layer, Param};
pub use pixelshuffle::PixelShuffle;
pub use pooling::MaxPool2d;
pub use sequential::Sequential;
pub use state::{load_state_dict, state_dict, StateDict};
