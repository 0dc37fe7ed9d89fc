//! Client-side data containers.
//!
//! A [`ClientSet`] is one private data split: a
//! [`crate::stream::StreamingClientSet`] over a [`RecordSource`]. A split
//! built from tensors ([`ClientSet::new`]) reads from a
//! [`TensorSource`]; a split on disk reads from a shard file (with
//! `seek`+`read` or through a memory map) and keeps nothing between
//! reads, so corpora larger than RAM can train and evaluate. The gather,
//! the range read and the pooling are the same code for every source.
//! Minibatch *index selection* lives here, in one place, whatever the
//! source — which is what makes every source yield the same batches bit
//! for bit.

use std::sync::Arc;

use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::stream::{ConcatSource, RecordSource, StreamingClientSet, TensorSource};
use crate::FedError;

/// One data split held privately by a client: features `(N, C, H, W)` and
/// labels `(N, 1, H, W)`, read from a [`RecordSource`].
#[derive(Debug, Clone)]
pub struct ClientSet {
    stream: StreamingClientSet,
}

impl ClientSet {
    /// Wraps pre-batched feature/label tensors. The chunk is the split's
    /// length, so any range read is one bulk copy from the tensors.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] if ranks, batch sizes or
    /// spatial extents disagree, or the label tensor is not single-channel.
    pub fn new(features: Tensor, labels: Tensor) -> Result<Self, FedError> {
        let source = TensorSource::new(features, labels)?;
        let chunk = source.len().max(1);
        Ok(ClientSet::streaming(StreamingClientSet::new(
            Arc::new(source),
            chunk,
        )?))
    }

    /// Wraps a streaming split. Minibatches drawn from it are
    /// bit-identical to a tensor-backed set holding the same records.
    pub fn streaming(stream: StreamingClientSet) -> Self {
        ClientSet { stream }
    }

    /// The shared record source the split reads from.
    pub fn source(&self) -> &Arc<dyn RecordSource> {
        self.stream.source()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// True when the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(channels, height, width)` of every sample.
    pub fn geometry(&self) -> (usize, usize, usize) {
        self.stream.geometry()
    }

    /// Copies the samples at `indices` into a contiguous minibatch.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for out-of-bounds indices and
    /// [`FedError::Stream`] when the source's storage fails.
    pub fn try_minibatch(&self, indices: &[usize]) -> Result<(Tensor, Tensor), FedError> {
        self.stream.gather(indices)
    }

    /// Copies the samples at `indices` into a contiguous minibatch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the source's storage
    /// fails — fallible callers use [`ClientSet::try_minibatch`].
    pub fn minibatch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        self.try_minibatch(indices)
            .expect("minibatch index out of bounds")
    }

    /// Copies the contiguous samples `range` into a minibatch (the
    /// evaluation hot path), reading at most the split's chunk of
    /// records per source call.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the range is empty or
    /// ends past `len()`, [`FedError::Stream`] on storage failures.
    pub fn try_minibatch_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> Result<(Tensor, Tensor), FedError> {
        self.stream.range_batch(range)
    }

    /// Copies the contiguous samples `range` into a minibatch.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, ends past `len()`, or the source's
    /// storage fails — fallible callers use
    /// [`ClientSet::try_minibatch_range`].
    pub fn minibatch_range(&self, range: std::ops::Range<usize>) -> (Tensor, Tensor) {
        self.try_minibatch_range(range)
            .expect("minibatch range invalid")
    }

    /// Samples a random minibatch of `batch_size` (the full split, in
    /// order, when `batch_size >= len`). This is the **single derivation
    /// point** of training minibatch indices: the RNG is consumed the
    /// same way whatever the source, so streamed training replays the
    /// tensor-backed batch sequence exactly.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Stream`] when the source's storage fails.
    pub fn try_sample_minibatch(
        &self,
        batch_size: usize,
        rng: &mut Xoshiro256,
    ) -> Result<(Tensor, Tensor), FedError> {
        let n = self.len();
        if batch_size >= n && n > 0 {
            // Full-set "batch": the contiguous range path reads in
            // chunks and yields the same bytes as gathering indices 0..n
            // one by one.
            return self.try_minibatch_range(0..n);
        }
        let indices: Vec<usize> = if batch_size >= n {
            (0..n).collect()
        } else {
            rng.sample_indices(n, batch_size)
        };
        self.try_minibatch(&indices)
    }

    /// Concatenates several splits into one (used by centralized
    /// training): a [`ConcatSource`] over the parts' sources, so pooling
    /// copies no record and never forces the corpus into memory. The
    /// chunk carries over from the largest part's (any chunk yields the
    /// same bytes).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] if the splits disagree on
    /// geometry or the list is empty ([`ConcatSource::new`]'s checks).
    pub fn concat(sets: &[&ClientSet]) -> Result<ClientSet, FedError> {
        let sources = sets.iter().map(|s| Arc::clone(s.source())).collect();
        let chunk = sets.iter().map(|s| s.stream.chunk_len()).max().unwrap_or(1);
        Ok(ClientSet::streaming(StreamingClientSet::new(
            Arc::new(ConcatSource::new(sources)?),
            chunk,
        )?))
    }
}

/// A federated client: private train/test splits plus its aggregation
/// weight `n_k` (its training sample count, per the paper's weighted
/// averaging).
#[derive(Debug, Clone)]
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
        let (x, y) = set.try_sample_minibatch(3, &mut rng).unwrap();
        assert_eq!(x.dim(0), 3);
        assert_eq!(y.dim(0), 3);
        // Oversized request degrades to the full set.
        let (x, _) = set.try_sample_minibatch(10, &mut rng).unwrap();
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
            memory.try_sample_minibatch(3, &mut rng_a).unwrap(),
            stream.try_sample_minibatch(3, &mut rng_b).unwrap()
        );
    }

    #[test]
    fn concat_of_streamed_parts_keeps_the_largest_chunk() {
        let a = streamed(2, 1.0, 2);
        let b = streamed(3, 2.0, 5);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        let spliced = |chunk| {
            let parts = vec![Arc::clone(a.source()), Arc::clone(b.source())];
            let source = Arc::new(ConcatSource::new(parts).unwrap());
            ClientSet::streaming(StreamingClientSet::new(source, chunk).unwrap())
        };
        assert_eq!(all.stream.chunk_len(), 5);
        assert_eq!(all.minibatch_range(0..5), spliced(2).minibatch_range(0..5));
        let pooled = ClientSet::concat(&[&set(2, 1.0), &set(3, 2.0)]).unwrap();
        assert_eq!(all.minibatch_range(0..5), pooled.minibatch_range(0..5));
    }

    #[test]
    fn concat_pools_samples() {
        let a = set(2, 1.0);
        let b = set(3, 2.0);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        let (x, _) = all.minibatch_range(0..5);
        assert_eq!(x.data()[0], 1.0);
        assert_eq!(x.data()[2 * 32], 2.0);
        assert!(ClientSet::concat(&[]).is_err());
        let other = ClientSet::new(Tensor::zeros(&[1, 3, 4, 4]), Tensor::zeros(&[1, 1, 4, 4]));
        assert!(ClientSet::concat(&[&a, &other.unwrap()]).is_err());
    }

    #[test]
    fn concat_with_streaming_part_stays_streaming() {
        let a = set(2, 1.0);
        let b = streamed(3, 2.0, 2);
        let all = ClientSet::concat(&[&a, &b]).unwrap();
        assert_eq!(all.len(), 5);
        // Pooling splices the parts' sources; no record is copied.
        assert!(all.source().descriptor().starts_with("concat["));
        let pooled = ClientSet::concat(&[&a, &set(3, 2.0)]).unwrap();
        assert_eq!(all.minibatch_range(0..5), pooled.minibatch_range(0..5));
    }

    #[test]
    fn client_weight_is_train_size() {
        let c = Client::new(3, set(7, 0.0), set(2, 0.0));
        assert_eq!(c.weight(), 7);
        assert_eq!(c.id, 3);
    }
}
