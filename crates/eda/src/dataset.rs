//! Samples and datasets.
//!
//! A [`Sample`] is one placement solution: its feature tensor and its DRC
//! hotspot label map. A [`Dataset`] is a client's train or test split and
//! knows how to assemble NCHW minibatches for `rte-nn`.

use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::congestion::Analysis;
use crate::drc::{design_h_affinity, hotspots_with, DrcScratch};
use crate::features::{extract_features, FEATURE_CHANNELS};
use crate::netlist::Netlist;
use crate::placement::{place_into, PlaceScratch, Placement, PlacementConfig};
use crate::EdaError;

/// One placement solution with features and ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Input features, `(FEATURE_CHANNELS, H, W)`.
    pub features: Tensor,
    /// Binary hotspot labels, `(1, H, W)`.
    pub label: Tensor,
    /// Name of the design this placement belongs to.
    pub design: String,
}

/// Everything one worker needs between a placement config and a
/// [`Sample`] that is not part of the sample: the placement itself, its
/// analysis and every intermediate map. A worker that keeps one
/// allocates, per sample in steady state, the sample's two tensors and
/// its name.
#[derive(Debug)]
pub(crate) struct GenScratch {
    place: PlaceScratch,
    placement: Placement,
    analysis: Analysis,
    drc: DrcScratch,
}

impl GenScratch {
    pub(crate) fn new() -> Self {
        GenScratch {
            place: PlaceScratch::default(),
            placement: Placement::empty(),
            analysis: Analysis::new(),
            drc: DrcScratch::default(),
        }
    }
}

/// Generates one [`Sample`] by placing `netlist` with `config` and running
/// the demand model and DRC oracle.
///
/// # Errors
///
/// Propagates placement or labelling configuration errors.
pub fn generate_sample(netlist: &Netlist, config: &PlacementConfig) -> Result<Sample, EdaError> {
    sample_with(
        netlist,
        design_h_affinity(netlist),
        config,
        &mut GenScratch::new(),
    )
}

/// [`generate_sample`] given the design's constant and a worker's
/// scratch: place → analyse → features + labels.
pub(crate) fn sample_with(
    netlist: &Netlist,
    h_affinity: f64,
    config: &PlacementConfig,
    scratch: &mut GenScratch,
) -> Result<Sample, EdaError> {
    place_into(netlist, config, &mut scratch.place, &mut scratch.placement)?;
    scratch.analysis.run(netlist, &scratch.placement);
    let features = extract_features(&scratch.analysis)?;
    let mut label_rng = Xoshiro256::seed_from(config.seed ^ 0x7AB3_15D0_0C0F_FEE5);
    let label = hotspots_with(
        netlist.family,
        h_affinity,
        &scratch.analysis,
        &mut label_rng,
        &mut scratch.drc,
    );
    Ok(Sample {
        features,
        label,
        design: netlist.name.clone(),
    })
}

/// An ordered collection of samples (one client's train or test split).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    samples: Vec<Sample>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Fraction of hotspot tiles over the whole dataset.
    pub fn hotspot_rate(&self) -> f64 {
        let mut hot = 0usize;
        let mut total = 0usize;
        for s in &self.samples {
            hot += s.label.data().iter().filter(|&&v| v > 0.5).count();
            total += s.label.numel();
        }
        if total == 0 {
            0.0
        } else {
            hot as f64 / total as f64
        }
    }

    /// Assembles the samples at `indices` into a `(N, C, H, W)` feature
    /// batch and `(N, 1, H, W)` label batch.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::InvalidConfig`] if `indices` is empty, out of
    /// bounds, or the samples disagree on geometry.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Tensor), EdaError> {
        if indices.is_empty() {
            return Err(EdaError::InvalidConfig {
                reason: "empty batch".into(),
            });
        }
        let first = indices[0];
        let proto = self
            .samples
            .get(first)
            .ok_or_else(|| EdaError::InvalidConfig {
                reason: format!("index {first} out of bounds ({} samples)", self.len()),
            })?;
        let (h, w) = (proto.features.dim(1), proto.features.dim(2));
        let n = indices.len();
        let mut x = Tensor::zeros(&[n, FEATURE_CHANNELS, h, w]);
        let mut y = Tensor::zeros(&[n, 1, h, w]);
        let xs = FEATURE_CHANNELS * h * w;
        let ys = h * w;
        for (bi, &si) in indices.iter().enumerate() {
            let s = self
                .samples
                .get(si)
                .ok_or_else(|| EdaError::InvalidConfig {
                    reason: format!("index {si} out of bounds ({} samples)", self.len()),
                })?;
            if s.features.dim(1) != h || s.features.dim(2) != w {
                return Err(EdaError::InvalidConfig {
                    reason: "samples disagree on grid size".into(),
                });
            }
            x.data_mut()[bi * xs..(bi + 1) * xs].copy_from_slice(s.features.data());
            y.data_mut()[bi * ys..(bi + 1) * ys].copy_from_slice(s.label.data());
        }
        Ok((x, y))
    }

    /// Batch over every sample, in order.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::InvalidConfig`] for an empty dataset.
    pub fn full_batch(&self) -> Result<(Tensor, Tensor), EdaError> {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<I: IntoIterator<Item = Sample>>(iter: I) -> Self {
        Dataset {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Sample> for Dataset {
    fn extend<I: IntoIterator<Item = Sample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::generate_netlist;
    use crate::Family;

    fn tiny_dataset(n: usize) -> Dataset {
        let nl = generate_netlist(Family::Itc99, 1).unwrap();
        (0..n)
            .map(|i| generate_sample(&nl, &PlacementConfig::new(16, 16, i as u64)).unwrap())
            .collect()
    }

    #[test]
    fn sample_shapes() {
        let ds = tiny_dataset(1);
        let s = &ds.samples()[0];
        assert_eq!(s.features.shape().dims(), &[FEATURE_CHANNELS, 16, 16]);
        assert_eq!(s.label.shape().dims(), &[1, 16, 16]);
        assert!(s.design.starts_with("b_"));
    }

    #[test]
    fn placements_of_one_design_differ_but_correlate() {
        let ds = tiny_dataset(2);
        let a = &ds.samples()[0];
        let b = &ds.samples()[1];
        assert_ne!(a.features, b.features, "different seeds, different maps");
        assert_eq!(a.design, b.design);
    }

    #[test]
    fn batch_layout() {
        let ds = tiny_dataset(3);
        let (x, y) = ds.batch(&[2, 0]).unwrap();
        assert_eq!(x.shape().dims(), &[2, FEATURE_CHANNELS, 16, 16]);
        assert_eq!(y.shape().dims(), &[2, 1, 16, 16]);
        // First batch row is sample 2.
        assert_eq!(
            &x.data()[..FEATURE_CHANNELS * 256],
            ds.samples()[2].features.data()
        );
        assert_eq!(&y.data()[..256], ds.samples()[2].label.data());
    }

    #[test]
    fn batch_errors() {
        let ds = tiny_dataset(2);
        assert!(ds.batch(&[]).is_err());
        assert!(ds.batch(&[5]).is_err());
        assert!(Dataset::new().full_batch().is_err());
    }

    #[test]
    fn hotspot_rate_bounds() {
        let ds = tiny_dataset(4);
        let r = ds.hotspot_rate();
        assert!((0.0..=1.0).contains(&r));
        assert!(r > 0.0, "expected some hotspots in ITC'99 designs");
        assert_eq!(Dataset::new().hotspot_rate(), 0.0);
    }

    #[test]
    fn collect_and_extend() {
        let mut ds = tiny_dataset(1);
        let more = tiny_dataset(2);
        ds.extend(more.samples().to_vec());
        assert_eq!(ds.len(), 3);
    }
}
