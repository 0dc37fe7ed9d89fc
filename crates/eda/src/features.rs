//! Input feature extraction (§4.4 of the paper).
//!
//! Produces the `c`-channel tensor a routability estimator consumes. The
//! channels follow the paper's menu — *cell density features* (cell
//! density, pin density, macro/routing blockage) and *wire density
//! features* (RUDY, directional fly-line demand):
//!
//! | # | channel | kind |
//! |---|---------|------|
//! | 0 | standard-cell density | cell density |
//! | 1 | pin density | cell density |
//! | 2 | macro / routing blockage mask | cell density |
//! | 3 | RUDY | wire density |
//! | 4 | horizontal fly-lines (directional RUDY) | wire density |
//! | 5 | vertical fly-lines (directional RUDY) | wire density |
//!
//! The directional channels are bounding-box estimates, deliberately
//! weaker than the L-routed demand that drives the DRC labels: the
//! estimator has to learn both the fly-line → real-congestion mapping and
//! each family's direction weighting — neither is readable off a single
//! channel.
//!
//! Each channel is squashed with `x / (x + k)` (a saturating soft
//! normalizer with channel-specific scale `k`). Unlike per-sample max
//! normalization this keeps *absolute* scale differences between designs
//! and families visible — the inter-client heterogeneity the federated
//! experiments need.

use rte_tensor::Tensor;

use crate::congestion::Analysis;
use crate::EdaError;

/// Number of feature channels produced by [`extract_features`].
pub const FEATURE_CHANNELS: usize = 6;

/// Soft normalization scales per channel (`x / (x + k)`), chosen so typical
/// gcell values land mid-range.
const CHANNEL_SCALES: [f64; FEATURE_CHANNELS] = [4.0, 12.0, 1.0, 25.0, 14.0, 14.0];

/// Extracts the `(FEATURE_CHANNELS, H, W)` input tensor from one
/// placement's [`Analysis`].
///
/// # Errors
///
/// Returns [`EdaError::Tensor`] only on internal shape inconsistencies
/// (defensive; the geometry is derived from the analysis itself).
pub fn extract_features(analysis: &Analysis) -> Result<Tensor, EdaError> {
    let grid = analysis.grid();
    let mut data = Vec::with_capacity(FEATURE_CHANNELS * grid.cells());
    squash_into(&mut data, 0, analysis.cell_density().iter().copied());
    squash_into(&mut data, 1, analysis.pin_density().iter().copied());
    squash_into(&mut data, 2, analysis.blockage().iter().copied());
    squash_into(&mut data, 3, analysis.rudy());
    squash_into(&mut data, 4, analysis.fly_h());
    squash_into(&mut data, 5, analysis.fly_v());
    Ok(Tensor::from_vec(
        data,
        &[FEATURE_CHANNELS, grid.height, grid.width],
    )?)
}

/// Appends one channel's map, squashed with the channel's scale.
fn squash_into(data: &mut Vec<f32>, channel: usize, values: impl Iterator<Item = f64>) {
    let k = CHANNEL_SCALES[channel];
    data.extend(values.map(|v| (v / (v + k)) as f32));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::analyse;
    use crate::netlist::generate_netlist;
    use crate::placement::{place, PlacementConfig};
    use crate::Family;

    fn sample(family: Family, seed: u64) -> Tensor {
        let nl = generate_netlist(family, seed).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, seed ^ 0xF00)).unwrap();
        extract_features(&analyse(&nl, &pl)).unwrap()
    }

    #[test]
    fn shape_and_range() {
        let f = sample(Family::Itc99, 1);
        assert_eq!(f.shape().dims(), &[FEATURE_CHANNELS, 16, 16]);
        assert!(f.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn channels_are_informative() {
        // Every channel except blockage must vary across the die for a
        // typical design; the blockage channel may be all-zero for
        // macro-free families.
        let f = sample(Family::Ispd15, 2);
        for c in 0..FEATURE_CHANNELS {
            let hw = 256;
            let slice = &f.data()[c * hw..(c + 1) * hw];
            let min = slice.iter().copied().fold(f32::INFINITY, f32::min);
            let max = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if c == 2 {
                continue;
            }
            assert!(max > min, "channel {c} is constant");
        }
    }

    #[test]
    fn macro_family_has_blockage_channel() {
        let f = sample(Family::Ispd15, 3);
        let hw = 256;
        let blockage = &f.data()[2 * hw..3 * hw];
        assert!(blockage.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn families_have_different_feature_statistics() {
        // The heterogeneity check: mean RUDY differs strongly between the
        // lightest and heaviest family.
        let hw = 256;
        let mean_rudy =
            |f: &Tensor| -> f32 { f.data()[3 * hw..4 * hw].iter().sum::<f32>() / hw as f32 };
        let light = mean_rudy(&sample(Family::Iscas89, 4));
        let heavy = mean_rudy(&sample(Family::Ispd15, 4));
        assert!(
            heavy > light * 1.3,
            "ISPD'15 RUDY {heavy} vs ISCAS'89 {light}"
        );
    }

    #[test]
    fn deterministic() {
        let a = sample(Family::Iwls05, 5);
        let b = sample(Family::Iwls05, 5);
        assert_eq!(a, b);
    }
}
