//! DRC hotspot oracle (ground-truth label generation).
//!
//! The paper's labels come from Innovus detailed routing + DRC checking.
//! This oracle substitutes a supply/demand model: a gcell becomes a DRC
//! hotspot when its smoothed routing demand (plus a pin-accessibility
//! term and macro-boundary pressure) exceeds the design's routing
//! capacity. Capacity is *relative* to the design's mean demand — real
//! routers also scale track supply with design size via die sizing — with
//! family-specific tightness, per-design jitter and label noise, so label
//! statistics differ across families the way the paper's clients differ.

use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::congestion::Analysis;
use crate::netlist::Netlist;
use crate::Family;

/// Extra congestion pressure on gcells adjacent to macro blockages
/// (routes detour around blockages).
const MACRO_EDGE_PRESSURE: f64 = 0.15;

/// Standard deviation of the per-design direction-affinity jitter: each
/// design's metal usage deviates systematically from its family norm.
/// Because the jitter is stable across all placements of one design, a
/// model trained on few designs learns *their* idiosyncrasies and pays on
/// unseen designs — the generalization gap that collaborative training
/// closes (clients jointly see many more designs).
const DESIGN_AFFINITY_JITTER: f64 = 0.16;

/// Amplitude (in overflow-score units) of the low-frequency congestion
/// field added per placement: the component of detailed-routing outcomes
/// that no placement-time feature can predict. This bounds achievable AUC
/// the way real DRC data does — smoothly, not by pointwise label flips.
const CHAOS_AMPLITUDE: f64 = 0.38;

/// Coarse grid extent of the correlated congestion field.
const CHAOS_GRID: usize = 4;

/// Per-design systematic horizontal-affinity: family norm plus a stable
/// per-design deviation derived from the design name. A constant of the
/// design — the corpus generator computes it once per netlist, not once
/// per placement.
pub(crate) fn design_h_affinity(netlist: &Netlist) -> f64 {
    let profile = netlist.family.profile();
    // Hash the design name into a deterministic standard-normal deviate.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in netlist.name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    let mut rng = Xoshiro256::seed_from(hash);
    (profile.h_affinity + DESIGN_AFFINITY_JITTER * rng.normal_f64()).clamp(0.05, 0.95)
}

/// The oracle's intermediate maps, kept by a worker between placements.
#[derive(Debug, Default)]
pub(crate) struct DrcScratch {
    weighted: Vec<f64>,
    score: Vec<f64>,
    blurred: Vec<f64>,
    chaos: Vec<f64>,
}

/// Smooth random field: `CHAOS_GRID × CHAOS_GRID` Gaussian knots,
/// bilinearly interpolated to `w × h`.
fn correlated_field(w: usize, h: usize, rng: &mut Xoshiro256, field: &mut Vec<f64>) {
    let g = CHAOS_GRID;
    let knots: [f64; CHAOS_GRID * CHAOS_GRID] = std::array::from_fn(|_| rng.normal_f64());
    field.clear();
    for y in 0..h {
        // Map pixel to knot coordinates (cell centers).
        let fy = (y as f64 + 0.5) / h as f64 * (g - 1) as f64;
        let y0 = (fy.floor() as usize).min(g - 2);
        let ty = fy - y0 as f64;
        for x in 0..w {
            let fx = (x as f64 + 0.5) / w as f64 * (g - 1) as f64;
            let x0 = (fx.floor() as usize).min(g - 2);
            let tx = fx - x0 as f64;
            let k00 = knots[y0 * g + x0];
            let k01 = knots[y0 * g + x0 + 1];
            let k10 = knots[(y0 + 1) * g + x0];
            let k11 = knots[(y0 + 1) * g + x0 + 1];
            let top = k00 * (1.0 - tx) + k01 * tx;
            let bot = k10 * (1.0 - tx) + k11 * tx;
            field.push(top * (1.0 - ty) + bot * ty);
        }
    }
}

/// Computes the `(1, H, W)` binary hotspot label map for an analysed
/// placement of `netlist`.
///
/// `label_rng` supplies the per-design capacity jitter and tile-flip
/// noise; pass a stream derived from the placement seed for reproducible
/// labels.
pub fn drc_hotspots(netlist: &Netlist, analysis: &Analysis, label_rng: &mut Xoshiro256) -> Tensor {
    hotspots_with(
        netlist.family,
        design_h_affinity(netlist),
        analysis,
        label_rng,
        &mut DrcScratch::default(),
    )
}

/// [`drc_hotspots`] given the design's constants and a worker's scratch.
pub(crate) fn hotspots_with(
    family: Family,
    h_affinity: f64,
    analysis: &Analysis,
    label_rng: &mut Xoshiro256,
    scratch: &mut DrcScratch,
) -> Tensor {
    let grid = analysis.grid();
    let (w, h) = (grid.width, grid.height);
    let profile = family.profile();
    let demand = analysis.demand();

    // Direction-weighted demand: families load their routing layers
    // differently (h_affinity) and each design deviates systematically
    // from its family norm — the per-family and per-design twists a
    // cross-design model must reconcile.
    let wh = 2.0 * h_affinity;
    let wv = 2.0 * (1.0 - h_affinity);
    let weighted = &mut scratch.weighted;
    weighted.clear();
    weighted.extend(
        demand
            .horizontal
            .iter()
            .zip(demand.vertical.iter())
            .map(|(&hd, &vd)| wh * hd + wv * vd),
    );

    // Per-design effective capacity: relative tightness × mean weighted
    // demand, jittered per design run.
    let mean = (weighted.iter().sum::<f64>() / (w * h) as f64).max(1e-9);
    let jitter = 1.0 + profile.capacity_jitter * label_rng.normal_f64();
    let capacity = (profile.route_capacity / 2.0) * mean * jitter.max(0.3);

    let pins = analysis.pin_density();
    let pin_mean = pins.iter().sum::<f64>() / (w * h) as f64;
    let blockage = analysis.blockage();

    // Raw overflow score per gcell.
    let score = &mut scratch.score;
    score.clear();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let mut s = weighted[i] / capacity;
            if pin_mean > 0.0 {
                s += profile.pin_weight * pins[i] / pin_mean;
            }
            // Macro boundary pressure: free gcell touching a blockage.
            if blockage[i] == 0.0 {
                let near_macro = neighbors(x, y, w, h)
                    .into_iter()
                    .flatten()
                    .any(|(nx, ny)| blockage[ny * w + nx] > 0.0);
                if near_macro {
                    s += MACRO_EDGE_PRESSURE;
                }
            } else {
                s = 0.0; // Inside a macro there is nothing to route.
            }
            score.push(s);
        }
    }

    // 3×3 binomial blur: DRC violations cluster spatially.
    let blurred = &mut scratch.blurred;
    blur3(score, w, h, blurred);

    // Low-frequency unpredictable congestion (detailed-routing effects).
    let chaos = &mut scratch.chaos;
    correlated_field(w, h, label_rng, chaos);
    for (b, c) in blurred.iter_mut().zip(chaos.iter()) {
        *b += CHAOS_AMPLITUDE * c;
    }

    Tensor::from_fn(&[1, h, w], |i| {
        let mut hot = blurred[i] > profile.hotspot_threshold;
        if label_rng.bernoulli(profile.label_noise) {
            hot = !hot;
        }
        if blockage[i] > 0.0 {
            hot = false;
        }
        if hot {
            1.0
        } else {
            0.0
        }
    })
}

fn neighbors(x: usize, y: usize, w: usize, h: usize) -> [Option<(usize, usize)>; 4] {
    [
        (x > 0).then(|| (x - 1, y)),
        (x + 1 < w).then(|| (x + 1, y)),
        (y > 0).then(|| (x, y - 1)),
        (y + 1 < h).then(|| (x, y + 1)),
    ]
}

/// 3×3 binomial blur with edge clamping, `src` into `out`.
fn blur3(src: &[f64], w: usize, h: usize, out: &mut Vec<f64>) {
    const K: [[f64; 3]; 3] = [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]];
    out.clear();
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for (dy, row) in K.iter().enumerate() {
                for (dx, &kv) in row.iter().enumerate() {
                    let sy = y as isize + dy as isize - 1;
                    let sx = x as isize + dx as isize - 1;
                    if sy < 0 || sy >= h as isize || sx < 0 || sx >= w as isize {
                        continue;
                    }
                    acc += kv * src[sy as usize * w + sx as usize];
                    wsum += kv;
                }
            }
            out.push(acc / wsum);
        }
    }
}

/// Fraction of hotspot tiles in a `(1, H, W)` label map.
pub fn hotspot_rate(label: &Tensor) -> f64 {
    if label.numel() == 0 {
        return 0.0;
    }
    label.data().iter().filter(|&&v| v > 0.5).count() as f64 / label.numel() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::analyse;
    use crate::netlist::generate_netlist;
    use crate::placement::{place, PlacementConfig};
    use crate::Family;

    fn labels_for(family: Family, seed: u64) -> (Tensor, f64) {
        let nl = generate_netlist(family, seed).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, seed)).unwrap();
        let mut rng = Xoshiro256::seed_from(seed ^ 0x1AB);
        let l = drc_hotspots(&nl, &analyse(&nl, &pl), &mut rng);
        let r = hotspot_rate(&l);
        (l, r)
    }

    #[test]
    fn labels_are_binary_and_shaped() {
        let (l, _) = labels_for(Family::Itc99, 1);
        assert_eq!(l.shape().dims(), &[1, 16, 16]);
        assert!(l.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn hotspot_rate_is_sane_for_all_families() {
        for family in Family::ALL {
            let mut total = 0.0;
            let n = 6;
            for seed in 0..n {
                total += labels_for(family, seed).1;
            }
            let rate = total / n as f64;
            assert!(
                (0.01..0.55).contains(&rate),
                "{family}: hotspot rate {rate}"
            );
        }
    }

    #[test]
    fn tighter_families_have_more_hotspots() {
        let avg =
            |family: Family| -> f64 { (0..8).map(|s| labels_for(family, s).1).sum::<f64>() / 8.0 };
        let easy = avg(Family::Iscas89);
        let hard = avg(Family::Ispd15);
        assert!(
            hard > easy,
            "ISPD'15 rate {hard} should exceed ISCAS'89 {easy}"
        );
    }

    #[test]
    fn deterministic_given_rng() {
        let nl = generate_netlist(Family::Iwls05, 3).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 3)).unwrap();
        let d = analyse(&nl, &pl);
        let a = drc_hotspots(&nl, &d, &mut Xoshiro256::seed_from(9));
        let b = drc_hotspots(&nl, &d, &mut Xoshiro256::seed_from(9));
        assert_eq!(a, b);
    }

    #[test]
    fn hotspots_track_demand() {
        // Tiles labelled hot must have systematically higher demand.
        let nl = generate_netlist(Family::Itc99, 5).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 5)).unwrap();
        let d = analyse(&nl, &pl);
        let mut rng = Xoshiro256::seed_from(1);
        let l = drc_hotspots(&nl, &d, &mut rng);
        let combined = d.demand().combined();
        let mut hot_sum = 0.0;
        let mut hot_n = 0.0;
        let mut cold_sum = 0.0;
        let mut cold_n = 0.0;
        for i in 0..combined.len() {
            if l.data()[i] > 0.5 {
                hot_sum += combined[i];
                hot_n += 1.0;
            } else {
                cold_sum += combined[i];
                cold_n += 1.0;
            }
        }
        if hot_n > 0.0 && cold_n > 0.0 {
            assert!(
                hot_sum / hot_n > cold_sum / cold_n,
                "hot mean demand must exceed cold"
            );
        }
    }

    #[test]
    fn blur_preserves_constant_fields() {
        let src = vec![2.5; 25];
        let mut out = Vec::new();
        blur3(&src, 5, 5, &mut out);
        assert_eq!(out.len(), 25);
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }
}
