//! Seeded placement engine.
//!
//! Real data in the paper comes from many Innovus runs per design with
//! different synthesis/physical-design settings. Here, one
//! [`PlacementConfig`] (seed + target density + spreading effort) plays the
//! role of one tool-settings combination: clusters get anchor points,
//! cells scatter around their cluster anchor, macros claim rectangular
//! blockages, and a capacity-driven spreading pass legalizes density.
//! Different configs on the same netlist produce correlated but distinct
//! placements — exactly the intra-design variation the corpus needs.

use rte_tensor::rng::Xoshiro256;

use crate::netlist::Netlist;
use crate::EdaError;

/// Gcell grid dimensions of the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Number of gcell columns.
    pub width: usize,
    /// Number of gcell rows.
    pub height: usize,
}

impl GridDims {
    /// Creates grid dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        GridDims { width, height }
    }

    /// Total number of gcells.
    pub fn cells(&self) -> usize {
        self.width * self.height
    }
}

/// A rectangular macro blockage in inclusive gcell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroRect {
    /// Left column.
    pub x0: usize,
    /// Bottom row.
    pub y0: usize,
    /// Right column (inclusive).
    pub x1: usize,
    /// Top row (inclusive).
    pub y1: usize,
}

impl MacroRect {
    /// True when `(x, y)` lies inside the rectangle.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        (self.x0..=self.x1).contains(&x) && (self.y0..=self.y1).contains(&y)
    }
}

/// One placement run's settings (the synthetic analogue of a logic
/// synthesis + physical design settings combination in §5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Die grid.
    pub grid: GridDims,
    /// Run seed: different seeds = different placement solutions.
    pub seed: u64,
    /// Fraction of per-gcell capacity the spreader targets, in `(0, 1]`.
    pub target_density: f32,
    /// Number of density-spreading sweeps (placement "effort").
    pub spread_iterations: usize,
}

impl PlacementConfig {
    /// A reasonable default on a `width × height` grid.
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        PlacementConfig {
            grid: GridDims::new(width, height),
            seed,
            target_density: 0.7,
            spread_iterations: 4,
        }
    }
}

/// A placed design: one gcell coordinate per cell plus macro blockages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Die grid.
    pub grid: GridDims,
    /// Per-cell gcell column, indexed by `CellId`.
    pub x: Vec<u16>,
    /// Per-cell gcell row, indexed by `CellId`.
    pub y: Vec<u16>,
    /// Macro blockage rectangles.
    pub macro_rects: Vec<MacroRect>,
}

impl Placement {
    /// No cells on no grid: what [`place_into`] fills.
    pub(crate) fn empty() -> Self {
        Placement {
            grid: GridDims::new(0, 0),
            x: Vec::new(),
            y: Vec::new(),
            macro_rects: Vec::new(),
        }
    }

    /// Per-gcell standard-cell counts (macros excluded), row-major.
    pub fn cell_density(&self, netlist: &Netlist) -> Vec<f64> {
        let mut cells = vec![0.0; self.grid.cells()];
        self.densities_into(netlist, &mut cells, &mut vec![0.0; self.grid.cells()]);
        cells
    }

    /// Per-gcell pin counts (all cells), row-major.
    pub fn pin_density(&self, netlist: &Netlist) -> Vec<f64> {
        let mut pins = vec![0.0; self.grid.cells()];
        self.densities_into(netlist, &mut vec![0.0; self.grid.cells()], &mut pins);
        pins
    }

    /// Row-major blockage mask: 1.0 inside a macro rect, else 0.0.
    pub fn blockage_mask(&self) -> Vec<f64> {
        let mut mask = vec![0.0; self.grid.cells()];
        self.blockage_into(&mut mask);
        mask
    }

    /// Both density maps in one walk over the cells, added onto zeroed
    /// row-major `cells` (standard cells only) and `pins` (all cells).
    pub(crate) fn densities_into(&self, netlist: &Netlist, cells: &mut [f64], pins: &mut [f64]) {
        for cell in &netlist.cells {
            let i = cell.id.0 as usize;
            let gcell = self.y[i] as usize * self.grid.width + self.x[i] as usize;
            pins[gcell] += cell.pins as f64;
            if !cell.is_macro {
                cells[gcell] += 1.0;
            }
        }
    }

    /// Sets `mask` to 1.0 inside every macro rect (clipped to the grid).
    pub(crate) fn blockage_into(&self, mask: &mut [f64]) {
        for rect in &self.macro_rects {
            for y in rect.y0..=rect.y1.min(self.grid.height - 1) {
                for x in rect.x0..=rect.x1.min(self.grid.width - 1) {
                    mask[y * self.grid.width + x] = 1.0;
                }
            }
        }
    }
}

/// Buffers [`place`] works in and does not return; a worker keeps one
/// and places design after design without allocating.
#[derive(Debug, Default)]
pub(crate) struct PlaceScratch {
    blocked: Vec<bool>,
    anchors: Vec<(f64, f64)>,
    bin_count: Vec<usize>,
    /// Spreading's bins as intrusive LIFO lists: the cell on top of each
    /// bin, and under every cell the one pushed before it.
    bin_top: Vec<u32>,
    below: Vec<u32>,
}

/// End of a bin list.
const NO_CELL: u32 = u32::MAX;

/// Places `netlist` on the configured grid.
///
/// # Errors
///
/// Returns [`EdaError::InvalidConfig`] for an empty grid, a grid too small
/// for spreading, or a non-positive target density.
pub fn place(netlist: &Netlist, config: &PlacementConfig) -> Result<Placement, EdaError> {
    let mut placement = Placement::empty();
    place_into(
        netlist,
        config,
        &mut PlaceScratch::default(),
        &mut placement,
    )?;
    Ok(placement)
}

/// The smallest grid [`place`] spreads on is 4×4.
pub(crate) fn check_grid(grid: GridDims) -> Result<(), EdaError> {
    if grid.width < 4 || grid.height < 4 {
        return Err(EdaError::InvalidConfig {
            reason: format!("grid {}×{} too small (min 4×4)", grid.width, grid.height),
        });
    }
    Ok(())
}

/// [`place`] into an existing [`Placement`], every field overwritten.
pub(crate) fn place_into(
    netlist: &Netlist,
    config: &PlacementConfig,
    scratch: &mut PlaceScratch,
    out: &mut Placement,
) -> Result<(), EdaError> {
    let grid = config.grid;
    check_grid(grid)?;
    if !(0.0..=1.0).contains(&config.target_density) || config.target_density <= 0.0 {
        return Err(EdaError::InvalidConfig {
            reason: format!("target density {} out of (0, 1]", config.target_density),
        });
    }
    let mut rng = Xoshiro256::seed_from(config.seed ^ 0x97AC_E0FA_11CE_D001);

    // 1. Macro rectangles, edge-biased, non-overlapping (best effort).
    let n_macros = netlist.macro_count();
    out.grid = grid;
    let macro_rects = &mut out.macro_rects;
    macro_rects.clear();
    // The draws of a Fisher–Yates shuffle over the macro cells. Nothing
    // ever read the shuffled list, but everything drawn after it depends
    // on the generator having advanced past it.
    for i in (1..n_macros).rev() {
        rng.range_usize(0, i + 1);
    }
    for _ in 0..n_macros {
        for _attempt in 0..8 {
            let mw = rng.range_usize(2, (grid.width / 4).max(3));
            let mh = rng.range_usize(2, (grid.height / 4).max(3));
            // Bias towards edges: pick an edge band half the time.
            let (x0, y0) = if rng.bernoulli(0.5) {
                let along_x = rng.bernoulli(0.5);
                if along_x {
                    (
                        rng.range_usize(0, grid.width - mw),
                        if rng.bernoulli(0.5) {
                            0
                        } else {
                            grid.height - mh
                        },
                    )
                } else {
                    (
                        if rng.bernoulli(0.5) {
                            0
                        } else {
                            grid.width - mw
                        },
                        rng.range_usize(0, grid.height - mh),
                    )
                }
            } else {
                (
                    rng.range_usize(0, grid.width - mw),
                    rng.range_usize(0, grid.height - mh),
                )
            };
            let rect = MacroRect {
                x0,
                y0,
                x1: x0 + mw - 1,
                y1: y0 + mh - 1,
            };
            let overlaps = macro_rects
                .iter()
                .any(|r| rect.x0 <= r.x1 && r.x0 <= rect.x1 && rect.y0 <= r.y1 && r.y0 <= rect.y1);
            if !overlaps {
                macro_rects.push(rect);
                break;
            }
        }
    }
    let blocked = &mut scratch.blocked;
    blocked.clear();
    blocked.resize(grid.cells(), false);
    for rect in macro_rects.iter() {
        for y in rect.y0..=rect.y1 {
            for x in rect.x0..=rect.x1 {
                blocked[y * grid.width + x] = true;
            }
        }
    }
    let free_cells = blocked.iter().filter(|&&b| !b).count().max(1);

    // 2. Cluster anchors on free sites.
    let anchors = &mut scratch.anchors;
    anchors.clear();
    for _ in 0..netlist.cluster_count {
        let mut x;
        let mut y;
        loop {
            x = rng.range_usize(0, grid.width);
            y = rng.range_usize(0, grid.height);
            if !blocked[y * grid.width + x] {
                break;
            }
        }
        anchors.push((x as f64, y as f64));
    }

    // 3. Scatter cells around anchors; spread shrinks with density target
    //    (denser targets cluster harder, like high-utilization runs).
    let spread =
        (grid.width.min(grid.height) as f64) * (0.10 + 0.22 * (1.0 - config.target_density as f64));
    let (xs, ys) = (&mut out.x, &mut out.y);
    for coords in [&mut *xs, &mut *ys] {
        coords.clear();
        coords.resize(netlist.cells.len(), 0);
    }
    let mut macro_rect_iter = macro_rects.iter();
    for cell in &netlist.cells {
        let i = cell.id.0 as usize;
        if cell.is_macro {
            // Macro cells sit at their rect's center (or fall back to a
            // random site if we ran out of placeable rects).
            if let Some(rect) = macro_rect_iter.next() {
                xs[i] = ((rect.x0 + rect.x1) / 2) as u16;
                ys[i] = ((rect.y0 + rect.y1) / 2) as u16;
                continue;
            }
        }
        let (ax, ay) = anchors[cell.cluster as usize % anchors.len()];
        let mut x = (ax + rng.normal_f64() * spread).round();
        let mut y = (ay + rng.normal_f64() * spread).round();
        x = x.clamp(0.0, (grid.width - 1) as f64);
        y = y.clamp(0.0, (grid.height - 1) as f64);
        let (mut xi, mut yi) = (x as usize, y as usize);
        // Nudge off blockages by walking towards the die center.
        let mut guard = 0;
        while blocked[yi * grid.width + xi] && guard < grid.width + grid.height {
            if xi * 2 < grid.width {
                xi += 1;
            } else {
                xi = xi.saturating_sub(1);
            }
            if blocked[yi * grid.width + xi] {
                if yi * 2 < grid.height {
                    yi += 1;
                } else {
                    yi = yi.saturating_sub(1);
                }
            }
            guard += 1;
        }
        xs[i] = xi as u16;
        ys[i] = yi as u16;
    }

    // 4. Density spreading: move cells out of overfull bins into the
    //    least-full free neighbor.
    let std_cells = netlist.cells.len() - n_macros;
    let capacity = ((std_cells as f64 / free_cells as f64) / config.target_density as f64)
        .ceil()
        .max(1.0) as usize;
    let (bin_count, bin_top, below) = (
        &mut scratch.bin_count,
        &mut scratch.bin_top,
        &mut scratch.below,
    );
    below.clear();
    below.resize(netlist.cells.len(), NO_CELL);
    for _ in 0..config.spread_iterations {
        bin_count.clear();
        bin_count.resize(grid.cells(), 0);
        bin_top.clear();
        bin_top.resize(grid.cells(), NO_CELL);
        for cell in &netlist.cells {
            if cell.is_macro {
                continue;
            }
            let i = cell.id.0 as usize;
            let b = ys[i] as usize * grid.width + xs[i] as usize;
            bin_count[b] += 1;
            below[i] = bin_top[b];
            bin_top[b] = cell.id.0;
        }
        let mut moved = false;
        for by in 0..grid.height {
            for bx in 0..grid.width {
                let b = by * grid.width + bx;
                while bin_count[b] > capacity {
                    // Least-full unblocked 4-neighbor.
                    let mut best: Option<(usize, usize, usize)> = None;
                    let neighbors = [
                        (bx.wrapping_sub(1), by),
                        (bx + 1, by),
                        (bx, by.wrapping_sub(1)),
                        (bx, by + 1),
                    ];
                    for (nx, ny) in neighbors {
                        if nx >= grid.width || ny >= grid.height {
                            continue;
                        }
                        let nb = ny * grid.width + nx;
                        if blocked[nb] {
                            continue;
                        }
                        if best.is_none_or(|(_, _, c)| bin_count[nb] < c) {
                            best = Some((nx, ny, bin_count[nb]));
                        }
                    }
                    let Some((nx, ny, n_count)) = best else { break };
                    if n_count + 1 >= bin_count[b] {
                        break; // No improvement possible.
                    }
                    // The cell that entered the bin last leaves first.
                    let cell = bin_top[b] as usize;
                    assert!(cell < below.len(), "overfull bin has members");
                    bin_top[b] = below[cell];
                    xs[cell] = nx as u16;
                    ys[cell] = ny as u16;
                    bin_count[b] -= 1;
                    let nb = ny * grid.width + nx;
                    bin_count[nb] += 1;
                    below[cell] = bin_top[nb];
                    bin_top[nb] = cell as u32;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{generate_netlist, CellId, Net};
    use crate::Family;

    fn config(seed: u64) -> PlacementConfig {
        PlacementConfig::new(16, 16, seed)
    }

    /// Total half-perimeter wirelength over every net, in gcells.
    fn total_hpwl(netlist: &Netlist, placement: &Placement) -> usize {
        let span = |coords: &[u16], cells: &[CellId]| {
            let at = || cells.iter().map(|c| usize::from(coords[c.0 as usize]));
            at().max().unwrap_or(0) - at().min().unwrap_or(0)
        };
        let hpwl = |net: Net| span(&placement.x, net.cells) + span(&placement.y, net.cells);
        netlist.nets.iter().map(hpwl).sum()
    }

    #[test]
    fn clustered_placement_beats_random_on_hpwl() {
        // The placer's whole job: intra-cluster nets should be shorter
        // than under a random scatter of the same netlist.
        let nl = generate_netlist(Family::Iscas89, 2).unwrap();
        let placed = place(&nl, &config(3)).unwrap();
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
        let (placed, random) = (total_hpwl(&nl, &placed), total_hpwl(&nl, &random));
        assert!(
            placed < random,
            "placed HPWL {placed} should beat random {random}"
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let nl = generate_netlist(Family::Itc99, 1).unwrap();
        let a = place(&nl, &config(5)).unwrap();
        let b = place(&nl, &config(5)).unwrap();
        let c = place(&nl, &config(6)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn all_cells_on_grid() {
        let nl = generate_netlist(Family::Ispd15, 2).unwrap();
        let p = place(&nl, &config(1)).unwrap();
        assert_eq!(p.x.len(), nl.cells.len());
        for i in 0..nl.cells.len() {
            assert!((p.x[i] as usize) < p.grid.width);
            assert!((p.y[i] as usize) < p.grid.height);
        }
    }

    #[test]
    fn spreading_reduces_peak_density() {
        let nl = generate_netlist(Family::Iwls05, 3).unwrap();
        let mut no_spread = config(9);
        no_spread.spread_iterations = 0;
        let mut spread = config(9);
        spread.spread_iterations = 8;
        let p0 = place(&nl, &no_spread).unwrap();
        let p1 = place(&nl, &spread).unwrap();
        let peak0 = p0.cell_density(&nl).into_iter().fold(0.0f64, f64::max);
        let peak1 = p1.cell_density(&nl).into_iter().fold(0.0f64, f64::max);
        assert!(
            peak1 <= peak0,
            "spreading must not raise peak: {peak0} -> {peak1}"
        );
        assert!(
            peak1 < peak0,
            "spreading should lower peak: {peak0} -> {peak1}"
        );
    }

    #[test]
    fn density_sums_to_standard_cells() {
        let nl = generate_netlist(Family::Ispd15, 4).unwrap();
        let p = place(&nl, &config(2)).unwrap();
        let total: f64 = p.cell_density(&nl).iter().sum();
        let std_cells = nl.cells.len() - nl.macro_count();
        assert_eq!(total as usize, std_cells);
        let pins: f64 = p.pin_density(&nl).iter().sum();
        assert_eq!(pins as usize, nl.total_pins());
    }

    #[test]
    fn macros_make_blockages() {
        let nl = generate_netlist(Family::Ispd15, 5).unwrap();
        assert!(nl.macro_count() > 0);
        let p = place(&nl, &config(3)).unwrap();
        assert!(!p.macro_rects.is_empty());
        let mask = p.blockage_mask();
        assert!(mask.iter().any(|&m| m > 0.0));
    }

    #[test]
    fn rejects_bad_configs() {
        let nl = generate_netlist(Family::Iscas89, 1).unwrap();
        let mut c = config(1);
        c.grid = GridDims::new(2, 16);
        assert!(place(&nl, &c).is_err());
        let mut c = config(1);
        c.target_density = 0.0;
        assert!(place(&nl, &c).is_err());
    }

    #[test]
    fn different_density_targets_differ() {
        let nl = generate_netlist(Family::Itc99, 8).unwrap();
        let mut loose = config(4);
        loose.target_density = 0.4;
        let mut tight = config(4);
        tight.target_density = 0.9;
        let pl = place(&nl, &loose).unwrap();
        let pt = place(&nl, &tight).unwrap();
        assert_ne!(pl, pt);
    }
}
