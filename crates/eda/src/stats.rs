//! Design and placement statistics.
//!
//! Standard physical-design quality metrics over the synthetic substrate:
//! half-perimeter wirelength (HPWL), routing demand summaries and
//! overflow rates. The placer and router tests use these to assert
//! quality relationships (e.g. clustered placements beat random ones on
//! HPWL), and the `table2_data_setup` binary reports them per client.

use crate::congestion::{route_demand, DemandMap};
use crate::netlist::Netlist;
use crate::placement::Placement;

/// Wirelength and congestion summary of one placed design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignStats {
    /// Total half-perimeter wirelength over all nets (gcell units).
    pub total_hpwl: f64,
    /// Mean HPWL per net.
    pub avg_hpwl: f64,
    /// Maximum net HPWL (the longest net).
    pub max_hpwl: f64,
    /// Mean combined routing demand per gcell.
    pub mean_demand: f64,
    /// Peak combined routing demand over all gcells.
    pub peak_demand: f64,
    /// Fraction of gcells whose demand exceeds twice the mean (a
    /// capacity-free congestion indicator).
    pub congested_fraction: f64,
}

impl DesignStats {
    /// Computes statistics for a placed design.
    pub fn compute(netlist: &Netlist, placement: &Placement) -> Self {
        let demand = route_demand(netlist, placement);
        Self::from_demand(netlist, placement, &demand)
    }

    /// Computes statistics reusing an existing demand map (avoids
    /// re-routing when the caller already has one).
    pub fn from_demand(netlist: &Netlist, placement: &Placement, demand: &DemandMap) -> Self {
        let mut total_hpwl = 0.0f64;
        let mut max_hpwl = 0.0f64;
        for net in netlist.nets.iter() {
            let mut x0 = usize::MAX;
            let mut x1 = 0usize;
            let mut y0 = usize::MAX;
            let mut y1 = 0usize;
            for c in net.cells {
                let px = placement.x[c.0 as usize] as usize;
                let py = placement.y[c.0 as usize] as usize;
                x0 = x0.min(px);
                x1 = x1.max(px);
                y0 = y0.min(py);
                y1 = y1.max(py);
            }
            let hpwl = (x1 - x0) as f64 + (y1 - y0) as f64;
            total_hpwl += hpwl;
            max_hpwl = max_hpwl.max(hpwl);
        }
        let n_nets = netlist.nets.len().max(1) as f64;
        let combined = demand.combined();
        let n_cells = combined.len().max(1) as f64;
        let mean_demand = combined.iter().sum::<f64>() / n_cells;
        let peak_demand = combined.iter().copied().fold(0.0, f64::max);
        let congested = combined.iter().filter(|&&d| d > 2.0 * mean_demand).count() as f64;
        DesignStats {
            total_hpwl,
            avg_hpwl: total_hpwl / n_nets,
            max_hpwl,
            mean_demand,
            peak_demand,
            congested_fraction: congested / n_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::generate_netlist;
    use crate::placement::{place, GridDims, Placement, PlacementConfig};
    use crate::Family;
    use rte_tensor::rng::Xoshiro256;

    #[test]
    fn stats_are_finite_and_consistent() {
        let nl = generate_netlist(Family::Itc99, 1).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 1)).unwrap();
        let s = DesignStats::compute(&nl, &pl);
        assert!(s.total_hpwl > 0.0);
        assert!(s.avg_hpwl <= s.max_hpwl);
        assert!(s.mean_demand > 0.0);
        assert!(s.peak_demand >= s.mean_demand);
        assert!((0.0..=1.0).contains(&s.congested_fraction));
    }

    #[test]
    fn clustered_placement_beats_random_on_hpwl() {
        // The placer's whole job: intra-cluster nets should be shorter
        // than under a random scatter of the same netlist.
        let nl = generate_netlist(Family::Iscas89, 2).unwrap();
        let placed = place(&nl, &PlacementConfig::new(16, 16, 3)).unwrap();
        let placed_stats = DesignStats::compute(&nl, &placed);

        let mut rng = Xoshiro256::seed_from(9);
        let random = Placement {
            grid: GridDims::new(16, 16),
            x: (0..nl.cells.len())
                .map(|_| rng.range_usize(0, 16) as u16)
                .collect(),
            y: (0..nl.cells.len())
                .map(|_| rng.range_usize(0, 16) as u16)
                .collect(),
            macro_rects: vec![],
        };
        let random_stats = DesignStats::compute(&nl, &random);
        assert!(
            placed_stats.total_hpwl < random_stats.total_hpwl,
            "placed HPWL {} should beat random {}",
            placed_stats.total_hpwl,
            random_stats.total_hpwl
        );
    }

    #[test]
    fn from_demand_matches_compute() {
        let nl = generate_netlist(Family::Iwls05, 4).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 5)).unwrap();
        let demand = route_demand(&nl, &pl);
        assert_eq!(
            DesignStats::compute(&nl, &pl),
            DesignStats::from_demand(&nl, &pl, &demand)
        );
    }

    #[test]
    fn bigger_families_have_more_wirelength() {
        let small = generate_netlist(Family::Iscas89, 7).unwrap();
        let large = generate_netlist(Family::Ispd15, 7).unwrap();
        let cfg = PlacementConfig::new(16, 16, 1);
        let s = DesignStats::compute(&small, &place(&small, &cfg).unwrap());
        let l = DesignStats::compute(&large, &place(&large, &cfg).unwrap());
        assert!(l.total_hpwl > s.total_hpwl);
    }
}
