//! Client-side data containers.
//!
//! A [`ClientSet`] is one private data split. It has two backends
//! behind one API: the default **in-memory** backend (pre-batched NCHW
//! tensors, exactly as before the streaming subsystem existed) and the
//! **streaming** backend ([`crate::stream::StreamingClientSet`]), which
//! reads each batch straight from a record source (a shard file read
//! with `seek`+`read`, a memory-mapped shard, or a splice of sources)
//! and keeps nothing between reads, so corpora larger than RAM can
//! train and evaluate. Minibatch *index selection* lives here, in one
//! place, for both backends — which is what makes the streamed path
//! bit-identical to the in-memory one.

use std::sync::Arc;

use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::stream::{ConcatSource, RecordSource, StreamingClientSet, TensorSource};
use crate::FedError;

/// Storage backend of a [`ClientSet`].
///
/// In-memory tensors sit behind [`Arc`] so cloning a client (and pooling
/// splits into a [`ConcatSource`]) shares the planes instead of deep-
/// copying them.
#[derive(Debug, Clone, PartialEq)]
enum Backend {
    /// Pre-batched tensors resident in memory (the default).
    InMemory {
        features: Arc<Tensor>,
        labels: Arc<Tensor>,
    },
    /// Batches read straight from a [`RecordSource`], nothing kept.
    Streaming(StreamingClientSet),
}

/// One data split held privately by a client: features `(N, C, H, W)` and
/// labels `(N, 1, H, W)`, resident in memory or streamed out-of-core.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSet {
    backend: Backend,
}

impl ClientSet {
    /// Wraps pre-batched feature/label tensors (the in-memory backend).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] if ranks, batch sizes or
    /// spatial extents disagree, or the label tensor is not single-channel.
    pub fn new(features: Tensor, labels: Tensor) -> Result<Self, FedError> {
        if features.shape().rank() != 4 || labels.shape().rank() != 4 {
            return Err(FedError::InvalidConfig {
                reason: "features and labels must be rank-4 (NCHW)".into(),
            });
        }
        if features.dim(0) != labels.dim(0)
            || labels.dim(1) != 1
            || features.dim(2) != labels.dim(2)
            || features.dim(3) != labels.dim(3)
        {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "feature shape {} incompatible with label shape {}",
                    features.shape(),
                    labels.shape()
                ),
            });
        }
        Ok(ClientSet {
            backend: Backend::InMemory {
                features: Arc::new(features),
                labels: Arc::new(labels),
            },
        })
    }

    /// Wraps a streaming split (the out-of-core backend). Minibatches
    /// drawn from it are bit-identical to an in-memory set holding the
    /// same records.
    pub fn streaming(set: StreamingClientSet) -> Self {
        ClientSet {
            backend: Backend::Streaming(set),
        }
    }

    /// The streaming backend, when this set uses one (the benches and
    /// determinism tests reach its record source through it).
    pub fn as_streaming(&self) -> Option<&StreamingClientSet> {
        match &self.backend {
            Backend::Streaming(s) => Some(s),
            Backend::InMemory { .. } => None,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::InMemory { features, .. } => features.dim(0),
            Backend::Streaming(s) => s.len(),
        }
    }

    /// True when the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(channels, height, width)` of every sample.
    pub fn geometry(&self) -> (usize, usize, usize) {
        match &self.backend {
            Backend::InMemory { features, .. } => {
                (features.dim(1), features.dim(2), features.dim(3))
            }
            Backend::Streaming(s) => s.geometry(),
        }
    }

    /// The full feature tensor — `None` for streaming splits, whose
    /// whole point is never materializing it.
    pub fn features(&self) -> Option<&Tensor> {
        match &self.backend {
            Backend::InMemory { features, .. } => Some(features.as_ref()),
            Backend::Streaming(_) => None,
        }
    }

    /// The full label tensor — `None` for streaming splits.
    pub fn labels(&self) -> Option<&Tensor> {
        match &self.backend {
            Backend::InMemory { labels, .. } => Some(labels.as_ref()),
            Backend::Streaming(_) => None,
        }
    }

    /// Copies the samples at `indices` into a contiguous minibatch.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for out-of-bounds indices and
    /// [`FedError::Stream`] when a streaming backend's storage fails.
    pub fn try_minibatch(&self, indices: &[usize]) -> Result<(Tensor, Tensor), FedError> {
        match &self.backend {
            Backend::InMemory { features, labels } => {
                let n = indices.len();
                let (c, h, w) = (features.dim(1), features.dim(2), features.dim(3));
                let xs = c * h * w;
                let ys = h * w;
                let mut x = Tensor::zeros(&[n, c, h, w]);
                let mut y = Tensor::zeros(&[n, 1, h, w]);
                for (bi, &si) in indices.iter().enumerate() {
                    if si >= self.len() {
                        return Err(FedError::InvalidConfig {
                            reason: format!(
                                "minibatch index {si} out of bounds ({} samples)",
                                self.len()
                            ),
                        });
                    }
                    x.data_mut()[bi * xs..(bi + 1) * xs]
                        .copy_from_slice(&features.data()[si * xs..(si + 1) * xs]);
                    y.data_mut()[bi * ys..(bi + 1) * ys]
                        .copy_from_slice(&labels.data()[si * ys..(si + 1) * ys]);
                }
                Ok((x, y))
            }
            Backend::Streaming(s) => s.gather(indices),
        }
    }

    /// Copies the samples at `indices` into a contiguous minibatch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or streaming storage fails —
    /// fallible callers use [`ClientSet::try_minibatch`].
    pub fn minibatch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        self.try_minibatch(indices)
            .expect("minibatch index out of bounds")
    }

    /// Copies the contiguous samples `range` into a minibatch. For the
    /// in-memory backend this is two bulk `copy_from_slice` calls (the
    /// evaluation hot path); the streaming backend reads it from its
    /// source at most `chunk` records per call.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the range is empty or
    /// ends past `len()`, [`FedError::Stream`] on storage failures.
    pub fn try_minibatch_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> Result<(Tensor, Tensor), FedError> {
        match &self.backend {
            Backend::InMemory { features, labels } => {
                if range.start >= range.end || range.end > self.len() {
                    return Err(FedError::InvalidConfig {
                        reason: format!(
                            "minibatch range {range:?} invalid for {} samples",
                            self.len()
                        ),
                    });
                }
                let n = range.len();
                let (c, h, w) = (features.dim(1), features.dim(2), features.dim(3));
                let xs = c * h * w;
                let ys = h * w;
                let mut x = Tensor::zeros(&[n, c, h, w]);
                let mut y = Tensor::zeros(&[n, 1, h, w]);
                x.data_mut()
                    .copy_from_slice(&features.data()[range.start * xs..range.end * xs]);
                y.data_mut()
                    .copy_from_slice(&labels.data()[range.start * ys..range.end * ys]);
                Ok((x, y))
            }
            Backend::Streaming(s) => s.range_batch(range),
        }
    }

    /// Copies the contiguous samples `range` into a minibatch.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, ends past `len()`, or streaming
    /// storage fails — fallible callers use
    /// [`ClientSet::try_minibatch_range`].
    pub fn minibatch_range(&self, range: std::ops::Range<usize>) -> (Tensor, Tensor) {
        self.try_minibatch_range(range)
            .expect("minibatch range invalid")
    }

    /// Samples a random minibatch of `batch_size` (the full split, in
    /// order, when `batch_size >= len`). This is the **single derivation
    /// point** of training minibatch indices: both backends consume the
    /// RNG identically, so streamed training replays the in-memory batch
    /// sequence exactly.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Stream`] when streaming storage fails.
    pub fn try_sample_minibatch(
        &self,
        batch_size: usize,
        rng: &mut Xoshiro256,
    ) -> Result<(Tensor, Tensor), FedError> {
        let n = self.len();
        if batch_size >= n && n > 0 {
            // Full-set "batch": the contiguous range path is one bulk
            // copy (or one streamed read) and yields the same bytes as
            // gathering indices 0..n one by one.
            return self.try_minibatch_range(0..n);
        }
        let indices: Vec<usize> = if batch_size >= n {
            (0..n).collect()
        } else {
            rng.sample_indices(n, batch_size)
        };
        self.try_minibatch(&indices)
    }

    /// Samples a random minibatch of `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if streaming storage fails — fallible callers use
    /// [`ClientSet::try_sample_minibatch`].
    pub fn sample_minibatch(&self, batch_size: usize, rng: &mut Xoshiro256) -> (Tensor, Tensor) {
        self.try_sample_minibatch(batch_size, rng)
            .expect("minibatch sampling failed")
    }

    /// Concatenates several splits into one (used by centralized
    /// training). All-in-memory inputs pool eagerly into one tensor
    /// pair; otherwise the result streams from a [`ConcatSource`] over
    /// the parts, so pooling never forces the corpus into memory.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] if the splits disagree on
    /// geometry or the list is empty.
    pub fn concat(sets: &[&ClientSet]) -> Result<ClientSet, FedError> {
        let first = sets.first().ok_or_else(|| FedError::InvalidConfig {
            reason: "concat of zero client sets".into(),
        })?;
        let (c, h, w) = first.geometry();
        for s in sets {
            if s.geometry() != (c, h, w) {
                return Err(FedError::InvalidConfig {
                    reason: "client sets disagree on geometry".into(),
                });
            }
        }
        if sets
            .iter()
            .all(|s| matches!(s.backend, Backend::InMemory { .. }))
        {
            let total: usize = sets.iter().map(|s| s.len()).sum();
            let mut x = Vec::with_capacity(total * c * h * w);
            let mut y = Vec::with_capacity(total * h * w);
            for s in sets {
                let features = s.features().expect("in-memory backend");
                let labels = s.labels().expect("in-memory backend");
                x.extend_from_slice(features.data());
                y.extend_from_slice(labels.data());
            }
            return ClientSet::new(
                Tensor::from_vec(x, &[total, c, h, w])?,
                Tensor::from_vec(y, &[total, 1, h, w])?,
            );
        }
        // Mixed or fully out-of-core: splice the sources logically. The
        // chunk size carries over from the largest streamed part (a pure
        // wall-clock/memory knob — any value yields the same bytes).
        let mut sources: Vec<Arc<dyn RecordSource>> = Vec::with_capacity(sets.len());
        let mut chunk = 0usize;
        for s in sets {
            match &s.backend {
                Backend::InMemory { features, labels } => {
                    // Shares the Arc'd planes — no deep copy of the
                    // in-memory parts.
                    sources.push(Arc::new(TensorSource::from_shared(
                        Arc::clone(features),
                        Arc::clone(labels),
                    )?));
                }
                Backend::Streaming(stream) => {
                    chunk = chunk.max(stream.chunk_len());
                    sources.push(Arc::clone(stream.source()));
                }
            }
        }
        let concat: Arc<dyn RecordSource> = Arc::new(ConcatSource::new(sources)?);
        Ok(ClientSet::streaming(StreamingClientSet::new(
            concat, chunk,
        )?))
    }
}

/// A federated client: private train/test splits plus its aggregation
/// weight `n_k` (its training sample count, per the paper's weighted
/// averaging).
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    /// 1-based client index, matching the paper's Table 2.
    pub id: usize,
    /// Private training split.
    pub train: ClientSet,
    /// Private testing split (unseen designs).
    pub test: ClientSet,
}

impl Client {
    /// Creates a client.
    pub fn new(id: usize, train: ClientSet, test: ClientSet) -> Self {
        Client { id, train, test }
    }

    /// Aggregation weight `n_k` — the number of training samples.
    pub fn weight(&self) -> usize {
        self.train.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, fill: f32) -> ClientSet {
        ClientSet::new(
            Tensor::full(&[n, 2, 4, 4], fill),
            Tensor::zeros(&[n, 1, 4, 4]),
        )
        .unwrap()
    }

    /// The same split, streamed from a TensorSource.
    fn streamed(n: usize, fill: f32, chunk: usize) -> ClientSet {
        let source = TensorSource::new(
            Tensor::full(&[n, 2, 4, 4], fill),
            Tensor::zeros(&[n, 1, 4, 4]),
        )
        .unwrap();
        ClientSet::streaming(StreamingClientSet::new(Arc::new(source), chunk).unwrap())
    }

    #[test]
    fn new_validates_shapes() {
        assert!(ClientSet::new(Tensor::zeros(&[2, 3, 4, 4]), Tensor::zeros(&[2, 1, 4, 4])).is_ok());
        // batch mismatch
        assert!(
            ClientSet::new(Tensor::zeros(&[2, 3, 4, 4]), Tensor::zeros(&[3, 1, 4, 4])).is_err()
        );
        // multi-channel labels
        assert!(
            ClientSet::new(Tensor::zeros(&[2, 3, 4, 4]), Tensor::zeros(&[2, 2, 4, 4])).is_err()
        );
        // rank
        assert!(ClientSet::new(Tensor::zeros(&[2, 3, 4]), Tensor::zeros(&[2, 1, 4, 4])).is_err());
    }

    #[test]
    fn minibatch_copies_rows() {
        let mut features = Tensor::zeros(&[3, 1, 2, 2]);
        for i in 0..3 {
            for j in 0..4 {
                features.data_mut()[i * 4 + j] = i as f32;
            }
        }
        let set = ClientSet::new(features, Tensor::zeros(&[3, 1, 2, 2])).unwrap();
        let (x, _) = set.minibatch(&[2, 0]);
        assert_eq!(x.data()[..4], [2.0; 4]);
        assert_eq!(x.data()[4..], [0.0; 4]);
    }

    #[test]
    fn minibatch_range_matches_index_minibatch() {
        let mut features = Tensor::zeros(&[4, 2, 2, 2]);
        for (i, v) in features.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        let mut labels = Tensor::zeros(&[4, 1, 2, 2]);
        for (i, v) in labels.data_mut().iter_mut().enumerate() {
            *v = (i % 2) as f32;
        }
        let set = ClientSet::new(features, labels).unwrap();
        let (xr, yr) = set.minibatch_range(1..3);
        let (xi, yi) = set.minibatch(&[1, 2]);
        assert_eq!(xr, xi);
        assert_eq!(yr, yi);
    }

    #[test]
    #[should_panic(expected = "minibatch range")]
    fn minibatch_range_rejects_out_of_bounds() {
        let set = set(3, 0.0);
        let _ = set.minibatch_range(2..5);
    }

    #[test]
    fn sample_minibatch_bounds() {
        let set = set(5, 1.0);
        let mut rng = Xoshiro256::seed_from(1);
        let (x, y) = set.sample_minibatch(3, &mut rng);
        assert_eq!(x.dim(0), 3);
        assert_eq!(y.dim(0), 3);
        // Oversized request degrades to the full set.
        let (x, _) = set.sample_minibatch(10, &mut rng);
        assert_eq!(x.dim(0), 5);
    }

    #[test]
    fn streaming_backend_serves_identical_minibatches() {
        let mut features = Tensor::zeros(&[6, 2, 4, 4]);
        for (i, v) in features.data_mut().iter_mut().enumerate() {
            *v = (i % 97) as f32 * 0.25;
        }
        let labels = Tensor::from_fn(&[6, 1, 4, 4], |i| (i % 3 == 0) as u8 as f32);
        let memory = ClientSet::new(features.clone(), labels.clone()).unwrap();
        let stream = ClientSet::streaming(
            StreamingClientSet::new(Arc::new(TensorSource::new(features, labels).unwrap()), 2)
                .unwrap(),
        );
        assert_eq!(memory.len(), stream.len());
        assert_eq!(memory.geometry(), stream.geometry());
        assert_eq!(memory.minibatch(&[4, 1, 1]), stream.minibatch(&[4, 1, 1]));
        assert_eq!(memory.minibatch_range(1..5), stream.minibatch_range(1..5));
        // The RNG-driven sampler consumes the stream identically.
        let mut rng_a = Xoshiro256::seed_from(9);
        let mut rng_b = Xoshiro256::seed_from(9);
        assert_eq!(
            memory.sample_minibatch(3, &mut rng_a),
            stream.sample_minibatch(3, &mut rng_b)
        );
        assert!(stream.features().is_none());
        assert!(memory.features().is_some());
    }

    #[test]
    fn concat_of_streamed_parts_keeps_the_largest_chunk() {
        let a = streamed(2, 1.0, 2);
        let b = streamed(3, 2.0, 5);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all.as_streaming().unwrap().chunk_len(), 5);
        let eager = ClientSet::concat(&[&set(2, 1.0), &set(3, 2.0)]).unwrap();
        assert_eq!(all.minibatch_range(0..5), eager.minibatch_range(0..5));
    }

    #[test]
    fn concat_pools_samples() {
        let a = set(2, 1.0);
        let b = set(3, 2.0);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all.features().unwrap().data()[0], 1.0);
        assert_eq!(all.features().unwrap().data()[2 * 32], 2.0);
        assert!(ClientSet::concat(&[]).is_err());
    }

    #[test]
    fn concat_with_streaming_part_stays_streaming() {
        let a = set(2, 1.0);
        let b = streamed(3, 2.0, 2);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.as_streaming().is_some(), "must not materialize");
        // Same bytes as the eager concat of the same data.
        let eager = ClientSet::concat(&[&a, &set(3, 2.0)]).unwrap();
        assert_eq!(all.minibatch_range(0..5), eager.minibatch_range(0..5));
    }

    #[test]
    fn client_weight_is_train_size() {
        let c = Client::new(3, set(7, 0.0), set(2, 0.0));
        assert_eq!(c.weight(), 7);
        assert_eq!(c.id, 3);
    }
}
