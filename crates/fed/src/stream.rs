//! Bounded-memory data feeding: every client split reads its records
//! from a source, so corpora that do not fit in RAM train like ones that
//! do.
//!
//! The federated formulation assumes clients iterate local data they
//! cannot hold (or share) wholesale; this module models that directly:
//!
//! - [`RecordSource`] — the minimal random-access contract a sample
//!   store must offer (length, geometry, "read records `a..b` into flat
//!   f32 buffers"). The EDA shard files implement it via adapters in
//!   `rte-core` (`seek`+`read`, and a memory map); [`TensorSource`] backs
//!   it with in-memory tensors, and [`ConcatSource`] splices several
//!   sources into one logical store.
//! - [`StreamingClientSet`] — the one storage of a [`crate::ClientSet`].
//!   It feeds [`crate::LocalTrainer`] and [`crate::eval::Evaluator`] by
//!   reading each batch straight from its source, at most `chunk`
//!   records per range read, and holds nothing between calls. Tensors in
//!   memory, a seekable shard file and a memory-mapped one are three
//!   sources behind it.
//!
//! # Determinism contract
//!
//! The source changes *where bytes are read from*, never *which bytes a
//! minibatch holds*: minibatch index sampling stays in
//! [`crate::ClientSet`] (one derivation point for every source), and
//! records hold the same f32 bit patterns the generated tensors do.
//! Streamed training and evaluation are therefore **bit-identical to
//! the tensor-backed path at any thread count and any chunk size** —
//! `tests/streaming_determinism.rs` pins the full `MethodOutcome` and
//! every `EvalReport` field across both axes.

use std::ops::Range;
use std::sync::Arc;

use rte_tensor::Tensor;

use crate::FedError;

/// Random-access source of fixed-geometry `(features, label)` records.
///
/// Implementations must be cheap to read from at arbitrary offsets
/// (seekable or mapped files, in-memory tensors). Contiguous reads go
/// through [`RecordSource::read_into`]; random minibatch gathers go
/// through [`RecordSource::read_rows_into`], whose default is the same
/// `read_into` once per run of consecutive rows.
pub trait RecordSource: Send + Sync {
    /// Total number of records.
    fn len(&self) -> usize;

    /// True when the source holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(channels, height, width)` of every record.
    fn geometry(&self) -> (usize, usize, usize);

    /// Appends records `range` (record-major, row-major planes) to the
    /// flat output buffers.
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] for out-of-range reads or storage failures
    /// (I/O errors, checksum mismatches).
    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError>;

    /// Appends the records at `rows`, in that order, to the flat output
    /// buffers (a random minibatch gather).
    ///
    /// The default issues one [`RecordSource::read_into`] per ascending
    /// run of consecutive rows; sources whose storage unit is larger
    /// than a record (compressed frames) override it to load each unit
    /// once per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RecordSource::read_into`].
    fn read_rows_into(
        &self,
        rows: &[usize],
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        let mut i = 0usize;
        while i < rows.len() {
            let start = rows[i];
            let mut j = i + 1;
            while j < rows.len() && rows[j] == start + (j - i) {
                j += 1;
            }
            self.read_into(start..start + (j - i), features, labels)?;
            i = j;
        }
        Ok(())
    }

    /// Stable human-readable identity (file path, construction recipe)
    /// used for `Debug` of the wrapping client set.
    fn descriptor(&self) -> String;
}

/// [`RecordSource`] over in-memory NCHW tensors — what
/// [`crate::ClientSet::new`] reads from. Random gathers use the trait's
/// default [`RecordSource::read_rows_into`].
#[derive(Debug, Clone, PartialEq)]
pub struct TensorSource {
    features: Tensor,
    labels: Tensor,
}

impl TensorSource {
    /// Wraps pre-batched `(N, C, H, W)` features and `(N, 1, H, W)`
    /// labels.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] if ranks, batch sizes or
    /// spatial extents disagree, or the label tensor is not
    /// single-channel.
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
        Ok(TensorSource { features, labels })
    }
}

impl RecordSource for TensorSource {
    fn len(&self) -> usize {
        self.features.dim(0)
    }

    fn geometry(&self) -> (usize, usize, usize) {
        (
            self.features.dim(1),
            self.features.dim(2),
            self.features.dim(3),
        )
    }

    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        if range.start >= range.end || range.end > self.len() {
            return Err(FedError::Stream {
                reason: format!("record range {range:?} invalid for {} records", self.len()),
            });
        }
        let (c, h, w) = self.geometry();
        let xs = c * h * w;
        let ys = h * w;
        features.extend_from_slice(&self.features.data()[range.start * xs..range.end * xs]);
        labels.extend_from_slice(&self.labels.data()[range.start * ys..range.end * ys]);
        Ok(())
    }

    fn descriptor(&self) -> String {
        let (c, h, w) = self.geometry();
        format!("tensor({}x{c}x{h}x{w})", self.len())
    }
}

/// [`RecordSource`] that splices several sources into one logical store
/// (record `i` of source `k` appears after every record of sources
/// `0..k`) — how centralized training pools client splits without
/// materializing them.
pub struct ConcatSource {
    sources: Vec<Arc<dyn RecordSource>>,
    /// Exclusive running totals: `ends[k]` = records in sources `0..=k`.
    ends: Vec<usize>,
}

impl ConcatSource {
    /// Concatenates `sources` in order.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an empty list or
    /// geometry disagreements between sources.
    pub fn new(sources: Vec<Arc<dyn RecordSource>>) -> Result<Self, FedError> {
        let first = sources.first().ok_or_else(|| FedError::InvalidConfig {
            reason: "concat of zero record sources".into(),
        })?;
        let geometry = first.geometry();
        let mut ends = Vec::with_capacity(sources.len());
        let mut total = 0usize;
        for s in &sources {
            if s.geometry() != geometry {
                return Err(FedError::InvalidConfig {
                    reason: "record sources disagree on geometry".into(),
                });
            }
            total += s.len();
            ends.push(total);
        }
        Ok(ConcatSource { sources, ends })
    }
}

impl RecordSource for ConcatSource {
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    fn geometry(&self) -> (usize, usize, usize) {
        self.sources[0].geometry()
    }

    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        if range.start >= range.end || range.end > self.len() {
            return Err(FedError::Stream {
                reason: format!("record range {range:?} invalid for {} records", self.len()),
            });
        }
        let mut pos = range.start;
        for (k, source) in self.sources.iter().enumerate() {
            if pos >= range.end {
                break;
            }
            let start_of_k = self.ends[k] - source.len();
            if pos >= self.ends[k] {
                continue;
            }
            let local_start = pos - start_of_k;
            let local_end = (range.end - start_of_k).min(source.len());
            source.read_into(local_start..local_end, features, labels)?;
            pos = start_of_k + local_end;
        }
        Ok(())
    }

    fn descriptor(&self) -> String {
        let parts: Vec<String> = self.sources.iter().map(|s| s.descriptor()).collect();
        format!("concat[{}]", parts.join("+"))
    }
}

/// A client split streamed from a [`RecordSource`] that keeps nothing
/// between reads.
///
/// Contiguous ranges (evaluation, full-batch loss, a training split no
/// larger than its batch) are read straight into the batch in source
/// calls of at most `chunk` records; random minibatch gathers hand the
/// source the requested rows in one [`RecordSource::read_rows_into`]
/// call. The split holds only its source and chunk size, so read-side
/// memory is the batch being built, whatever the split or fleet size.
///
/// Cloning shares the underlying source.
#[derive(Clone)]
pub struct StreamingClientSet {
    source: Arc<dyn RecordSource>,
    chunk: usize,
}

impl std::fmt::Debug for StreamingClientSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingClientSet")
            .field("source", &self.source.descriptor())
            .field("len", &self.source.len())
            .field("chunk", &self.chunk)
            .finish()
    }
}

impl StreamingClientSet {
    /// Wraps `source`, reading at most `chunk` samples per source call.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for a zero chunk size.
    pub fn new(source: Arc<dyn RecordSource>, chunk: usize) -> Result<Self, FedError> {
        if chunk == 0 {
            return Err(FedError::InvalidConfig {
                reason: "streaming chunk size must be positive".into(),
            });
        }
        Ok(StreamingClientSet { source, chunk })
    }

    /// Number of samples in the split.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True when the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(channels, height, width)` of every sample.
    pub fn geometry(&self) -> (usize, usize, usize) {
        self.source.geometry()
    }

    /// Most samples one range read asks the source for.
    pub fn chunk_len(&self) -> usize {
        self.chunk
    }

    /// The shared record source.
    pub fn source(&self) -> &Arc<dyn RecordSource> {
        &self.source
    }

    /// Copies the contiguous samples `range` into a minibatch, in source
    /// reads of at most `chunk` records each (the evaluation hot path).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an empty or out-of-bounds
    /// range and [`FedError::Stream`] for storage failures.
    pub fn range_batch(&self, range: Range<usize>) -> Result<(Tensor, Tensor), FedError> {
        if range.start >= range.end || range.end > self.len() {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "minibatch range {range:?} invalid for {} samples",
                    self.len()
                ),
            });
        }
        let (c, h, w) = self.geometry();
        let n = range.len();
        let mut features = Vec::with_capacity(n * c * h * w);
        let mut labels = Vec::with_capacity(n * h * w);
        for start in range.clone().step_by(self.chunk) {
            let end = (start + self.chunk).min(range.end);
            self.source
                .read_into(start..end, &mut features, &mut labels)?;
        }
        let x = Tensor::from_vec(features, &[n, c, h, w])?;
        let y = Tensor::from_vec(labels, &[n, 1, h, w])?;
        Ok((x, y))
    }

    /// Copies the samples at `indices` into a minibatch with one
    /// [`RecordSource::read_rows_into`] call (random training access).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for out-of-bounds indices and
    /// [`FedError::Stream`] for storage failures.
    pub fn gather(&self, indices: &[usize]) -> Result<(Tensor, Tensor), FedError> {
        let (c, h, w) = self.geometry();
        let n = indices.len();
        if let Some(&bad) = indices.iter().find(|&&si| si >= self.len()) {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "minibatch index {bad} out of bounds ({} samples)",
                    self.len()
                ),
            });
        }
        let mut features = Vec::with_capacity(n * c * h * w);
        let mut labels = Vec::with_capacity(n * h * w);
        self.source
            .read_rows_into(indices, &mut features, &mut labels)?;
        let x = Tensor::from_vec(features, &[n, c, h, w])?;
        let y = Tensor::from_vec(labels, &[n, 1, h, w])?;
        Ok((x, y))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// A 0..n counting source: sample `i`'s features are `i` everywhere,
    /// labels `i % 2`. It counts source calls, the largest range one
    /// call asked for, and how often each record was read.
    struct CountingSource {
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        calls: AtomicUsize,
        widest_call: AtomicUsize,
        record_reads: Vec<AtomicUsize>,
    }

    impl CountingSource {
        fn new(n: usize) -> Self {
            CountingSource::with_plane(n, 3)
        }

        /// `n` records of 2 channels on a `side × side` plane.
        fn with_plane(n: usize, side: usize) -> Self {
            CountingSource {
                n,
                c: 2,
                h: side,
                w: side,
                calls: AtomicUsize::new(0),
                widest_call: AtomicUsize::new(0),
                record_reads: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }

        fn widest_call(&self) -> usize {
            self.widest_call.load(Ordering::Relaxed)
        }

        /// Per-record read counts since the last call; resets them.
        fn take_record_reads(&self) -> Vec<usize> {
            self.record_reads
                .iter()
                .map(|r| r.swap(0, Ordering::Relaxed))
                .collect()
        }
    }

    impl RecordSource for CountingSource {
        fn len(&self) -> usize {
            self.n
        }

        fn geometry(&self) -> (usize, usize, usize) {
            (self.c, self.h, self.w)
        }

        fn read_into(
            &self,
            range: Range<usize>,
            features: &mut Vec<f32>,
            labels: &mut Vec<f32>,
        ) -> Result<(), FedError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.widest_call.fetch_max(range.len(), Ordering::Relaxed);
            for i in range {
                self.record_reads[i].fetch_add(1, Ordering::Relaxed);
                features.extend(std::iter::repeat_n(i as f32, self.c * self.h * self.w));
                labels.extend(std::iter::repeat_n((i % 2) as f32, self.h * self.w));
            }
            Ok(())
        }

        fn descriptor(&self) -> String {
            format!("counting({})", self.n)
        }
    }

    fn streaming(n: usize, chunk: usize) -> StreamingClientSet {
        StreamingClientSet::new(Arc::new(CountingSource::new(n)), chunk).unwrap()
    }

    #[test]
    fn zero_chunk_rejected() {
        let err = StreamingClientSet::new(Arc::new(CountingSource::new(4)), 0).unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig { .. }));
    }

    #[test]
    fn range_batch_matches_source_content() {
        let set = streaming(10, 3);
        let (x, y) = set.range_batch(2..7).unwrap();
        assert_eq!(x.shape().dims(), &[5, 2, 3, 3]);
        assert_eq!(y.shape().dims(), &[5, 1, 3, 3]);
        for bi in 0..5 {
            let want = (2 + bi) as f32;
            assert!(x.data()[bi * 18..(bi + 1) * 18].iter().all(|&v| v == want));
            assert!(y.data()[bi * 9..(bi + 1) * 9]
                .iter()
                .all(|&v| v == ((2 + bi) % 2) as f32));
        }
    }

    #[test]
    fn reads_each_record_once_within_the_chunk_bound() {
        let chunk = 8;
        let source = Arc::new(CountingSource::with_plane(37, 8));
        let set = StreamingClientSet::new(source.clone(), chunk).unwrap();
        // Sequential passes at a batch above and below the chunk: every
        // record is read exactly once, never more than `chunk` per call.
        for batch in [16usize, 4] {
            let mut rows = 0;
            for start in (0..set.len()).step_by(batch) {
                let end = (start + batch).min(set.len());
                let (x, _) = set.range_batch(start..end).unwrap();
                assert!(x.data()[..128].iter().all(|&v| v == start as f32));
                rows += x.dim(0);
            }
            assert_eq!(rows, 37);
            assert_eq!(source.take_record_reads(), vec![1; 37], "batch {batch}");
        }
        assert_eq!(source.widest_call(), chunk);
        // A training call of `steps` steps on a split no larger than its
        // batch reads that split once, not once per step.
        let small = Arc::new(CountingSource::with_plane(5, 8));
        let data =
            crate::ClientSet::streaming(StreamingClientSet::new(small.clone(), chunk).unwrap());
        let mut rng = rte_tensor::rng::Xoshiro256::seed_from(3);
        let mut model = rte_nn::models::FlNet::new(
            rte_nn::models::FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        );
        let trainer = crate::LocalTrainer::new(1e-3, 0.0, 0.0, 5);
        trainer.train(&mut model, &data, None, 6, &mut rng).unwrap();
        assert_eq!(small.take_record_reads(), vec![1; 5]);
        assert_eq!(small.calls(), 1);
    }

    #[test]
    fn gather_matches_range_batch_rows() {
        let set = streaming(9, 2);
        let (xr, yr) = set.range_batch(3..6).unwrap();
        let (xg, yg) = set.gather(&[3, 4, 5]).unwrap();
        assert_eq!(xr, xg);
        assert_eq!(yr, yg);
        // Out-of-order gather reorders rows.
        let (x, _) = set.gather(&[5, 3]).unwrap();
        assert!(x.data()[..18].iter().all(|&v| v == 5.0));
        assert!(x.data()[18..].iter().all(|&v| v == 3.0));
    }

    #[test]
    fn invalid_ranges_and_indices_are_errors() {
        let set = streaming(4, 2);
        assert!(set.range_batch(2..2).is_err());
        assert!(set.range_batch(2..9).is_err());
        assert!(set.gather(&[4]).is_err());
    }

    #[test]
    fn concat_source_splices_in_order() {
        let a: Arc<dyn RecordSource> = Arc::new(CountingSource::new(3));
        let b: Arc<dyn RecordSource> = Arc::new(CountingSource::new(2));
        let concat = ConcatSource::new(vec![a, b]).unwrap();
        assert_eq!(concat.len(), 5);
        let mut f = Vec::new();
        let mut l = Vec::new();
        // Crosses the seam: records 2 (from a) then 0, 1 (from b).
        concat.read_into(2..5, &mut f, &mut l).unwrap();
        assert!(f[..18].iter().all(|&v| v == 2.0));
        assert!(f[18..36].iter().all(|&v| v == 0.0));
        assert!(f[36..].iter().all(|&v| v == 1.0));
        assert!(ConcatSource::new(Vec::new()).is_err());
    }

    #[test]
    fn tensor_source_round_trips() {
        let features = Tensor::from_fn(&[3, 2, 2, 2], |i| i as f32);
        let labels = Tensor::from_fn(&[3, 1, 2, 2], |i| (i % 2) as f32);
        let src = TensorSource::new(features.clone(), labels.clone()).unwrap();
        assert_eq!(src.len(), 3);
        let mut f = Vec::new();
        let mut l = Vec::new();
        src.read_into(0..3, &mut f, &mut l).unwrap();
        assert_eq!(f, features.data());
        assert_eq!(l, labels.data());
        // Shape validation is ClientSet::new's.
        assert!(
            TensorSource::new(Tensor::zeros(&[2, 2, 2, 2]), Tensor::zeros(&[3, 1, 2, 2])).is_err()
        );
    }
}
