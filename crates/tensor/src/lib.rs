//! Dense `f32` tensor kernels for the decentralized routability estimation
//! reproduction.
//!
//! This crate is the numeric substrate of the workspace: a small, fully
//! deterministic replacement for the parts of a deep-learning tensor backend
//! that the paper's models need. It provides:
//!
//! - [`Tensor`]: an owned, row-major, N-dimensional `f32` array,
//! - [`conv`]: 2-D convolution forward/backward with stride, padding and
//!   dilation (NCHW layout), transposed convolution and max pooling,
//! - [`linalg`]: the scalar reference matrix product,
//! - [`simd`]: the runtime-dispatched SIMD backend (AVX2 / scalar arms,
//!   `RTE_SIMD` knob) with bit-identical lane-ordered reductions,
//! - [`parallel`]: a dependency-free scoped thread pool with a
//!   bit-determinism contract (same results at any thread count),
//! - [`rng`]: a seedable xoshiro256** PRNG with SplitMix64 stream derivation
//!   so every experiment in the workspace is bit-reproducible,
//! - [`init`]: weight initializers (Kaiming uniform weights, uniform
//!   biases).
//!
//! # Example
//!
//! ```
//! use rte_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.add(&b)?;
//! assert_eq!(c.data(), &[1.5, 2.5, 3.5, 4.5]);
//! # Ok::<(), rte_tensor::TensorError>(())
//! ```

pub mod conv;
pub mod init;
pub mod knobs;
pub mod linalg;
pub mod parallel;
pub mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use shape::Shape;
pub use tensor::{Tensor, TensorError};
