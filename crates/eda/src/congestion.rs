//! Probabilistic global-routing demand and RUDY.
//!
//! Two complementary wire-demand models:
//!
//! - [`route_demand`]: star-decomposes each net around its pin median and
//!   accumulates both L-shaped routes of every two-pin connection at half
//!   weight each, split into horizontal and vertical track demand — a
//!   standard probabilistic global-router surrogate.
//! - [`Analysis::rudy`]: Rectangular Uniform wire DensitY (Spindler &
//!   Johannes), the feature the paper's §4.4 names explicitly: each net
//!   spreads `HPWL / area` uniformly over its bounding box.
//!
//! [`route_demand`] drives the DRC oracle (labels); RUDY and the
//! directional fly-line maps ([`Analysis::fly_h`], [`Analysis::fly_v`])
//! are model inputs (features). Labels therefore correlate with — but
//! are not identical to — the features, leaving the CNN a learnable but
//! non-trivial mapping.
//!
//! All five maps, and the three cell maps beside them, come out of one
//! walk over the nets: [`Analysis`]. [`route_demand`] is a view over it.
//!
//! # Bits
//!
//! A map cell's value is the sum of its addends *in net order* (a net's
//! own addends to one cell are all equal, so their order among
//! themselves is immaterial). Which array or lane holds a cell while the
//! walk runs is free, and the walk uses that: the three bounding-box
//! maps sit interleaved per gcell so one short vector add serves them,
//! and vertical demand is accumulated transposed so that column segments
//! are contiguous runs like row segments, then transposed once. Adding
//! `+0.0` is free too — no map ever holds `-0.0`, so `m + 0.0` is `m`
//! bit for bit — which lets a segment be added a fixed number of cells at
//! a time with the weight masked to zero past its end.
//!
//! No placement is analysed twice, so a branch that depends on where the
//! pins fell is a branch the predictor has not seen: the walk is written
//! to have few of them (a counting median instead of a sort, masked
//! fixed-width segment adds instead of variable-length loops).

use crate::netlist::Netlist;
use crate::placement::{GridDims, Placement};

/// Directional routing demand per gcell (row-major `height × width`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DemandMap {
    /// Gcell columns.
    pub width: usize,
    /// Gcell rows.
    pub height: usize,
    /// Horizontal track demand.
    pub horizontal: Vec<f64>,
    /// Vertical track demand.
    pub vertical: Vec<f64>,
}

impl DemandMap {
    /// Combined demand (`horizontal + vertical`) per gcell.
    pub fn combined(&self) -> Vec<f64> {
        self.horizontal
            .iter()
            .zip(self.vertical.iter())
            .map(|(&h, &v)| h + v)
            .collect()
    }
}

/// Net-degree wirelength correction (Chu's FLUTE-style q-factor, linear
/// approximation): multi-pin nets need more wire than their star
/// decomposition suggests.
fn degree_weight(degree: usize) -> f64 {
    // Branch-free: up to degree 3 this is `1.0 + 0.08 * 0.0`, exactly 1.
    1.0 + 0.08 * (degree.max(3) as f64 - 3.0)
}

/// Lanes of [`Analysis`]'s interleaved bounding-box maps.
const RUDY: usize = 0;
const FLY_H: usize = 1;
const FLY_V: usize = 2;

/// Everything the feature extractor and the DRC oracle read off one
/// placement, computed in one walk over the nets and one over the cells.
///
/// The value is reusable: [`Analysis::run`] overwrites every map in
/// place, so a worker that analyses placement after placement of one
/// grid allocates nothing after the first.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    demand: DemandMap,
    /// Per gcell `[RUDY, horizontal fly-lines, vertical fly-lines, 0]`.
    boxes: Vec<[f64; 4]>,
    cell_density: Vec<f64>,
    pin_density: Vec<f64>,
    blockage: Vec<f64>,
    /// Demand while the walk runs, each with [`RUN_PAD`] cells of slack
    /// behind the map: horizontal row-major, vertical transposed
    /// (`width × height`, a gcell column per row).
    horizontal: Vec<f64>,
    vertical_t: Vec<f64>,
    /// The current net's pin coordinates, in pin order.
    pin_x: Vec<u16>,
    pin_y: Vec<u16>,
    /// Sorting space for the median of a net too wide to count.
    sorted: Vec<u16>,
}

impl Analysis {
    /// An empty analysis; [`Analysis::run`] sizes it.
    pub fn new() -> Self {
        Analysis::default()
    }

    /// Analyses `placement` of `netlist`, replacing whatever this value
    /// held.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not hold one coordinate pair per
    /// cell of the netlist. Every coordinate must lie on the placement's
    /// own grid, as [`crate::placement::place`] guarantees; one that
    /// does not either panics or is counted in another row.
    pub fn run(&mut self, netlist: &Netlist, placement: &Placement) {
        assert!(
            placement.x.len() == netlist.cells.len() && placement.y.len() == netlist.cells.len(),
            "placement holds {}×{} coordinates for a netlist of {} cells",
            placement.x.len(),
            placement.y.len(),
            netlist.cells.len()
        );
        let GridDims {
            width: w,
            height: h,
        } = placement.grid;
        let gcells = w * h;
        self.demand.width = w;
        self.demand.height = h;
        for map in [
            &mut self.cell_density,
            &mut self.pin_density,
            &mut self.blockage,
        ] {
            map.clear();
            map.resize(gcells, 0.0);
        }
        for map in [&mut self.horizontal, &mut self.vertical_t] {
            map.clear();
            map.resize(gcells + RUN_PAD, 0.0);
        }
        self.boxes.clear();
        self.boxes.resize(gcells, [0.0; 4]);

        placement.densities_into(netlist, &mut self.cell_density, &mut self.pin_density);
        placement.blockage_into(&mut self.blockage);

        let horizontal = &mut self.horizontal[..];
        let vertical_t = &mut self.vertical_t[..];
        for net in netlist.nets.iter() {
            let deg = net.degree();
            if self.pin_x.len() < deg {
                self.pin_x.resize(deg, 0);
                self.pin_y.resize(deg, 0);
            }
            let (pin_x, pin_y) = (&mut self.pin_x[..deg], &mut self.pin_y[..deg]);
            // One gather serves the bounding box, the median and the
            // per-pin routes below.
            let (mut x0, mut x1, mut y0, mut y1) = (u16::MAX, 0u16, u16::MAX, 0u16);
            for ((c, px), py) in net.cells.iter().zip(pin_x.iter_mut()).zip(pin_y.iter_mut()) {
                let (x, y) = (placement.x[c.0 as usize], placement.y[c.0 as usize]);
                (*px, *py) = (x, y);
                x0 = x0.min(x);
                x1 = x1.max(x);
                y0 = y0.min(y);
                y1 = y1.max(y);
            }
            if x0 == x1 && y0 == y1 {
                continue; // Single-gcell net: no wire demand on any map.
            }
            let weight = degree_weight(deg);

            let bw = f64::from(x1 - x0 + 1);
            let bh = f64::from(y1 - y0 + 1);
            let area = bw * bh;
            let hpwl = (bw - 1.0) + (bh - 1.0);
            let mut add = [0.0; 4];
            add[RUDY] = weight * hpwl / area;
            add[FLY_H] = weight * (bw - 1.0) / area;
            add[FLY_V] = weight * (bh - 1.0) / area;
            for y in usize::from(y0)..=usize::from(y1) {
                for cell in &mut self.boxes[y * w + usize::from(x0)..=y * w + usize::from(x1)] {
                    for (lane, a) in cell.iter_mut().zip(add) {
                        *lane += a;
                    }
                }
            }

            // Median pin location = star center.
            let cx = usize::from(median(pin_x, &mut self.sorted));
            let cy = usize::from(median(pin_y, &mut self.sorted));
            let half = 0.5 * weight;
            for (&px, &py) in pin_x.iter().zip(pin_y.iter()) {
                let (px, py) = (usize::from(px), usize::from(py));
                if px == cx && py == cy {
                    continue;
                }
                // L-shape 1: horizontal at py, then vertical at cx (half weight).
                // L-shape 2: vertical at px, then horizontal at cy (half weight).
                let (xa, x_len) = (px.min(cx), px.abs_diff(cx) + 1);
                let (ya, y_len) = (py.min(cy), py.abs_diff(cy) + 1);
                add_run(horizontal, py * w + xa, x_len, half);
                add_run(horizontal, cy * w + xa, x_len, half);
                add_run(vertical_t, cx * h + ya, y_len, half);
                add_run(vertical_t, px * h + ya, y_len, half);
            }
        }
        self.demand.horizontal.clear();
        self.demand
            .horizontal
            .extend_from_slice(&horizontal[..gcells]);
        self.demand.vertical.clear();
        self.demand
            .vertical
            .extend((0..gcells).map(|i| vertical_t[i % w * h + i / w]));
    }

    /// The grid of the placement analysed.
    pub fn grid(&self) -> GridDims {
        GridDims::new(self.demand.width, self.demand.height)
    }

    /// L-routed directional demand (what [`route_demand`] returns).
    pub fn demand(&self) -> &DemandMap {
        &self.demand
    }

    /// RUDY per gcell, row-major: each net adds `HPWL / bbox_area`
    /// uniformly over its bounding box.
    pub fn rudy(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.boxes.iter().map(|b| b[RUDY])
    }

    /// Horizontal fly-line density per gcell, row-major. A net of bbox
    /// `bw × bh` adds `(bw−1)/area` here and `(bh−1)/area` to
    /// [`Analysis::fly_v`] — the classic estimate of which routing
    /// direction a net will load. These are *features* (§4.4's
    /// fly-lines): deliberately weaker than the L-routed demand the DRC
    /// oracle uses for labels, leaving the estimator a real mapping to
    /// learn.
    pub fn fly_h(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.boxes.iter().map(|b| b[FLY_H])
    }

    /// Vertical fly-line density per gcell, row-major ([`Analysis::fly_h`]).
    pub fn fly_v(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.boxes.iter().map(|b| b[FLY_V])
    }

    /// Standard-cell count per gcell ([`Placement::cell_density`]).
    pub fn cell_density(&self) -> &[f64] {
        &self.cell_density
    }

    /// Pin count per gcell ([`Placement::pin_density`]).
    pub fn pin_density(&self) -> &[f64] {
        &self.pin_density
    }

    /// Macro blockage mask ([`Placement::blockage_mask`]).
    pub fn blockage(&self) -> &[f64] {
        &self.blockage
    }
}

/// Cells [`add_run`] touches at a time, and how far past a segment's
/// last cell it may therefore reach.
const RUN_CHUNK: usize = 4;
const RUN_PAD: usize = RUN_CHUNK - 1;

/// `RUN_MASKS[n]` keeps the weight's bits in the first `n` cells of a
/// chunk and clears them to `+0.0` in the rest.
const RUN_MASKS: [[u64; RUN_CHUNK]; RUN_CHUNK + 1] = {
    const KEEP: u64 = u64::MAX;
    [
        [0, 0, 0, 0],
        [KEEP, 0, 0, 0],
        [KEEP, KEEP, 0, 0],
        [KEEP, KEEP, KEEP, 0],
        [KEEP, KEEP, KEEP, KEEP],
    ]
};

/// Adds `weight` to `map[start..start + len]`, a whole chunk of cells at
/// a time: cells past the end of the segment get `+0.0` added, which
/// leaves them as they are. Segments are mostly shorter than a chunk, so
/// this is one straight-line vector add where a loop over the cells
/// would end on a branch nobody can predict.
#[inline]
fn add_run(map: &mut [f64], start: usize, len: usize, weight: f64) {
    let mut done = 0;
    while done < len {
        let mask = &RUN_MASKS[(len - done).min(RUN_CHUNK)];
        let chunk = &mut map[start + done..start + done + RUN_CHUNK];
        for (v, m) in chunk.iter_mut().zip(mask) {
            *v += f64::from_bits(weight.to_bits() & m);
        }
        done += RUN_CHUNK;
    }
}

/// Nets up to this degree get their median by counting.
const COUNTED_MEDIAN: usize = 16;

/// What sorting `axis` would leave at `[len / 2]`. For the degrees nets
/// have, found by counting how many pins lie below and up to each
/// candidate — compares and adds, where a sort of four values is mostly
/// mispredicted branches; `sorted` is used only beyond
/// [`COUNTED_MEDIAN`], where counting's square would start to show.
#[inline]
fn median(axis: &[u16], sorted: &mut Vec<u16>) -> u16 {
    let target = axis.len() / 2;
    if axis.len() <= COUNTED_MEDIAN {
        for &v in axis {
            let below = axis.iter().filter(|&&u| u < v).count();
            let through = axis.iter().filter(|&&u| u <= v).count();
            if below <= target && target < through {
                return v;
            }
        }
    }
    sorted.clear();
    sorted.extend_from_slice(axis);
    sorted.sort_unstable();
    sorted[target]
}

/// Analyses one placement: [`Analysis::run`] on a fresh value.
///
/// # Panics
///
/// As [`Analysis::run`].
pub fn analyse(netlist: &Netlist, placement: &Placement) -> Analysis {
    let mut analysis = Analysis::new();
    analysis.run(netlist, placement);
    analysis
}

/// Computes directional routing demand via probabilistic L-routing of the
/// star decomposition of every net.
///
/// # Panics
///
/// Panics if the placement does not cover the netlist
/// ([`Analysis::run`]).
pub fn route_demand(netlist: &Netlist, placement: &Placement) -> DemandMap {
    analyse(netlist, placement).demand
}

/// The three maps as they were first written — one walk over the nets
/// each, straight from the definitions. [`Analysis`] is checked against
/// these bit for bit; nothing else runs them.
#[cfg(test)]
mod oracle {
    use super::DemandMap;
    use crate::netlist::Netlist;
    use crate::placement::Placement;

    fn degree_weight(degree: usize) -> f64 {
        if degree <= 3 {
            1.0
        } else {
            1.0 + 0.08 * (degree as f64 - 3.0)
        }
    }

    /// Three walks, two sorted `Vec`s per net: the map definitions.
    pub fn route_demand(netlist: &Netlist, placement: &Placement) -> DemandMap {
        let (w, h) = (placement.grid.width, placement.grid.height);
        let mut horizontal = vec![0.0f64; w * h];
        let mut vertical = vec![0.0f64; w * h];
        for net in netlist.nets.iter() {
            let deg = net.degree();
            let weight = degree_weight(deg);
            // Median pin location = star center.
            let mut xs: Vec<usize> = net
                .cells
                .iter()
                .map(|c| placement.x[c.0 as usize] as usize)
                .collect();
            let mut ys: Vec<usize> = net
                .cells
                .iter()
                .map(|c| placement.y[c.0 as usize] as usize)
                .collect();
            xs.sort_unstable();
            ys.sort_unstable();
            let (cx, cy) = (xs[deg / 2], ys[deg / 2]);
            for pin in net.cells {
                let px = placement.x[pin.0 as usize] as usize;
                let py = placement.y[pin.0 as usize] as usize;
                if px == cx && py == cy {
                    continue;
                }
                // L-shape 1: horizontal at py, then vertical at cx (half weight).
                // L-shape 2: vertical at px, then horizontal at cy (half weight).
                let half = 0.5 * weight;
                add_h_segment(&mut horizontal, w, py, px, cx, half);
                add_v_segment(&mut vertical, w, cx, py, cy, half);
                add_v_segment(&mut vertical, w, px, py, cy, half);
                add_h_segment(&mut horizontal, w, cy, px, cx, half);
            }
        }
        DemandMap {
            width: w,
            height: h,
            horizontal,
            vertical,
        }
    }

    fn add_h_segment(map: &mut [f64], w: usize, row: usize, x0: usize, x1: usize, weight: f64) {
        let (lo, hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        for x in lo..=hi {
            map[row * w + x] += weight;
        }
    }

    fn add_v_segment(map: &mut [f64], w: usize, col: usize, y0: usize, y1: usize, weight: f64) {
        let (lo, hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        for y in lo..=hi {
            map[y * w + col] += weight;
        }
    }

    pub fn rudy_directional(netlist: &Netlist, placement: &Placement) -> (Vec<f64>, Vec<f64>) {
        let (w, h) = (placement.grid.width, placement.grid.height);
        let mut hmap = vec![0.0f64; w * h];
        let mut vmap = vec![0.0f64; w * h];
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
            let bw = (x1 - x0 + 1) as f64;
            let bh = (y1 - y0 + 1) as f64;
            let area = bw * bh;
            let weight = degree_weight(net.degree());
            let hd = weight * (bw - 1.0) / area;
            let vd = weight * (bh - 1.0) / area;
            if hd <= 0.0 && vd <= 0.0 {
                continue;
            }
            for y in y0..=y1 {
                for x in x0..=x1 {
                    hmap[y * w + x] += hd;
                    vmap[y * w + x] += vd;
                }
            }
        }
        (hmap, vmap)
    }

    pub fn rudy(netlist: &Netlist, placement: &Placement) -> Vec<f64> {
        let (w, h) = (placement.grid.width, placement.grid.height);
        let mut map = vec![0.0f64; w * h];
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
            let bw = (x1 - x0 + 1) as f64;
            let bh = (y1 - y0 + 1) as f64;
            let hpwl = (bw - 1.0) + (bh - 1.0);
            if hpwl <= 0.0 {
                continue; // Single-gcell net: no wire demand.
            }
            let density = degree_weight(net.degree()) * hpwl / (bw * bh);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    map[y * w + x] += density;
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{generate_netlist, Cell, CellId, Nets};
    use crate::placement::{place, GridDims, PlacementConfig};
    use crate::Family;

    /// Hand-built two-cell netlist with one net.
    fn two_pin_fixture(a: (u16, u16), b: (u16, u16)) -> (Netlist, Placement) {
        let cells = vec![
            Cell {
                id: CellId(0),
                pins: 2,
                is_macro: false,
                cluster: 0,
            },
            Cell {
                id: CellId(1),
                pins: 2,
                is_macro: false,
                cluster: 0,
            },
        ];
        let mut nets = Nets::new();
        nets.push(&[CellId(0), CellId(1)]);
        let nl = Netlist {
            name: "fixture".into(),
            family: Family::Iscas89,
            cells,
            nets,
            cluster_count: 1,
        };
        let pl = Placement {
            grid: GridDims::new(8, 8),
            x: vec![a.0, b.0],
            y: vec![a.1, b.1],
            macro_rects: vec![],
        };
        (nl, pl)
    }

    #[test]
    fn straight_net_demand_lies_on_its_row() {
        let (nl, pl) = two_pin_fixture((1, 3), (5, 3));
        let d = route_demand(&nl, &pl);
        // Median of {1,5} = 5 (index 1), {3,3} = 3; only pin (1,3) routes.
        // Both L options coincide on row 3, columns 1..=5.
        for x in 1..=5 {
            assert!(d.horizontal[3 * 8 + x] > 0.0, "col {x}");
        }
        // No vertical demand beyond the degenerate segments at the pins.
        let v_total: f64 = d.vertical.iter().sum();
        let v_on_path: f64 = d.vertical[3 * 8 + 1] + d.vertical[3 * 8 + 5];
        assert!((v_total - v_on_path).abs() < 1e-12);
    }

    #[test]
    fn l_shapes_split_weight() {
        let (nl, pl) = two_pin_fixture((0, 0), (4, 4));
        let d = route_demand(&nl, &pl);
        // Corner gcells of the two L options get half weight each; demand
        // is symmetric under swapping the two L's.
        let h_total: f64 = d.horizontal.iter().sum();
        let v_total: f64 = d.vertical.iter().sum();
        assert!(h_total > 0.0 && v_total > 0.0);
        assert!((h_total - v_total).abs() < 1e-9, "{h_total} vs {v_total}");
    }

    #[test]
    fn rudy_uniform_over_bbox() {
        let (nl, pl) = two_pin_fixture((2, 1), (5, 3));
        let map: Vec<f64> = analyse(&nl, &pl).rudy().collect();
        // bbox 4×3, HPWL = 3+2 = 5 → density 5/12 in every bbox gcell.
        let expect = 5.0 / 12.0;
        for y in 1..=3 {
            for x in 2..=5 {
                assert!((map[y * 8 + x] - expect).abs() < 1e-12);
            }
        }
        assert_eq!(map[0], 0.0);
    }

    #[test]
    fn single_gcell_net_adds_nothing() {
        let (nl, pl) = two_pin_fixture((3, 3), (3, 3));
        assert!(analyse(&nl, &pl).rudy().all(|v| v == 0.0));
        let d = route_demand(&nl, &pl);
        assert!(d.combined().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn demand_scales_with_design_size() {
        let small = generate_netlist(Family::Iscas89, 1).unwrap();
        let large = generate_netlist(Family::Ispd15, 1).unwrap();
        let cfg = PlacementConfig::new(16, 16, 3);
        let ps = place(&small, &cfg).unwrap();
        let pl = place(&large, &cfg).unwrap();
        let mean = |d: DemandMap| d.combined().iter().sum::<f64>() / (d.width * d.height) as f64;
        let ds = mean(route_demand(&small, &ps));
        let dl = mean(route_demand(&large, &pl));
        assert!(
            dl > ds * 1.5,
            "ISPD'15 demand {dl} should dwarf ISCAS'89 {ds}"
        );
    }

    #[test]
    fn degree_weight_monotone() {
        assert_eq!(degree_weight(2), 1.0);
        assert_eq!(degree_weight(3), 1.0);
        assert!(degree_weight(8) > degree_weight(4));
    }

    #[test]
    fn rudy_correlates_with_routed_demand() {
        // The feature (RUDY) must be informative about the demand that
        // drives labels: check positive correlation on a real design.
        let nl = generate_netlist(Family::Itc99, 9).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 4)).unwrap();
        let r: Vec<f64> = analyse(&nl, &pl).rudy().collect();
        let d = route_demand(&nl, &pl).combined();
        let n = r.len() as f64;
        let (mr, md) = (r.iter().sum::<f64>() / n, d.iter().sum::<f64>() / n);
        let mut cov = 0.0;
        let mut vr = 0.0;
        let mut vd = 0.0;
        for i in 0..r.len() {
            cov += (r[i] - mr) * (d[i] - md);
            vr += (r[i] - mr) * (r[i] - mr);
            vd += (d[i] - md) * (d[i] - md);
        }
        let corr = cov / (vr.sqrt() * vd.sqrt());
        assert!(corr > 0.5, "RUDY/demand correlation {corr}");
    }
}

#[cfg(test)]
mod directional_tests {
    use super::*;
    use crate::netlist::generate_netlist;
    use crate::placement::{place, PlacementConfig};
    use crate::Family;

    #[test]
    fn directional_components_sum_to_rudy() {
        let nl = generate_netlist(Family::Itc99, 3).unwrap();
        let pl = place(&nl, &PlacementConfig::new(16, 16, 3)).unwrap();
        let analysis = analyse(&nl, &pl);
        let total: Vec<f64> = analysis.rudy().collect();
        let (h, v): (Vec<f64>, Vec<f64>) = (analysis.fly_h().collect(), analysis.fly_v().collect());
        for i in 0..total.len() {
            assert!(
                (total[i] - (h[i] + v[i])).abs() < 1e-9,
                "gcell {i}: {} vs {} + {}",
                total[i],
                h[i],
                v[i]
            );
        }
    }

    #[test]
    fn wide_net_loads_horizontal() {
        // A 2-pin net spanning columns only must produce zero vertical RUDY.
        use crate::netlist::{Cell, CellId, Netlist, Nets};
        use crate::placement::{GridDims, Placement};
        let mut nets = Nets::new();
        nets.push(&[CellId(0), CellId(1)]);
        let nl = Netlist {
            name: "wide".into(),
            family: Family::Iscas89,
            cells: vec![
                Cell {
                    id: CellId(0),
                    pins: 2,
                    is_macro: false,
                    cluster: 0,
                },
                Cell {
                    id: CellId(1),
                    pins: 2,
                    is_macro: false,
                    cluster: 0,
                },
            ],
            nets,
            cluster_count: 1,
        };
        let pl = Placement {
            grid: GridDims::new(8, 8),
            x: vec![1, 6],
            y: vec![4, 4],
            macro_rects: vec![],
        };
        let analysis = analyse(&nl, &pl);
        assert!(analysis.fly_h().sum::<f64>() > 0.0);
        assert_eq!(analysis.fly_v().sum::<f64>(), 0.0);
    }
}

/// [`Analysis`] against the [`oracle`], bit for bit.
#[cfg(test)]
mod one_pass_properties {
    use proptest::prelude::*;
    use rte_tensor::rng::Xoshiro256;

    use super::*;
    use crate::netlist::{generate_netlist, CellId, Nets};
    use crate::placement::{place, MacroRect, PlacementConfig};
    use crate::Family;

    const GRIDS: [(usize, usize); 5] = [(4, 4), (7, 5), (16, 16), (12, 20), (32, 32)];

    fn bits(map: &[f64]) -> Vec<u64> {
        map.iter().map(|v| v.to_bits()).collect()
    }

    /// Every map of `analysis` equals its definition on this placement.
    fn assert_matches_oracle(analysis: &Analysis, nl: &Netlist, pl: &Placement) {
        let demand = oracle::route_demand(nl, pl);
        assert_eq!(analysis.grid(), pl.grid);
        assert_eq!(
            (demand.width, demand.height),
            (pl.grid.width, pl.grid.height)
        );
        assert_eq!(
            bits(&analysis.demand().horizontal),
            bits(&demand.horizontal)
        );
        assert_eq!(bits(&analysis.demand().vertical), bits(&demand.vertical));
        let rudy: Vec<f64> = analysis.rudy().collect();
        assert_eq!(bits(&rudy), bits(&oracle::rudy(nl, pl)));
        let (fly_h, fly_v) = oracle::rudy_directional(nl, pl);
        assert_eq!(bits(&analysis.fly_h().collect::<Vec<_>>()), bits(&fly_h));
        assert_eq!(bits(&analysis.fly_v().collect::<Vec<_>>()), bits(&fly_v));
        assert_eq!(bits(analysis.cell_density()), bits(&pl.cell_density(nl)));
        assert_eq!(bits(analysis.pin_density()), bits(&pl.pin_density(nl)));
        assert_eq!(bits(analysis.blockage()), bits(&pl.blockage_mask()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated designs of every family, placed on every grid shape
        /// over the density and effort ranges the corpus draws from, one
        /// reused `Analysis` against a fresh one against the oracle. The
        /// ISPD'15 and IWLS'05 cases are the macro-heavy ones; degree-2
        /// nets are the most common degree in all four.
        #[test]
        fn analysis_matches_the_three_walks(
            family in 0usize..4,
            design_seed in 0u64..1_000,
            grid in 0usize..GRIDS.len(),
            seed in 0u64..1_000_000,
            density in 0.3f32..1.0,
            effort in 0usize..8,
        ) {
            let nl = generate_netlist(Family::ALL[family], design_seed).unwrap();
            let (w, h) = GRIDS[grid];
            let mut reused = Analysis::new();
            // Leave another placement's maps behind first: `run` must
            // not depend on what the value held.
            reused.run(&nl, &place(&nl, &PlacementConfig::new(16, 16, seed ^ 1)).unwrap());
            let config = PlacementConfig {
                grid: GridDims::new(w, h),
                seed,
                target_density: density,
                spread_iterations: effort,
            };
            let pl = place(&nl, &config).unwrap();
            reused.run(&nl, &pl);
            assert_matches_oracle(&reused, &nl, &pl);
            let fresh = analyse(&nl, &pl);
            assert_matches_oracle(&fresh, &nl, &pl);
            // The public views are this same pass.
            prop_assert_eq!(&route_demand(&nl, &pl), reused.demand());
            prop_assert_eq!(bits(&fresh.rudy().collect::<Vec<_>>()), bits(&reused.rudy().collect::<Vec<_>>()));
            prop_assert_eq!(bits(&fresh.fly_h().collect::<Vec<_>>()), bits(&reused.fly_h().collect::<Vec<_>>()));
            prop_assert_eq!(bits(&fresh.fly_v().collect::<Vec<_>>()), bits(&reused.fly_v().collect::<Vec<_>>()));
        }

        /// Hand-shaped connectivity the generator rarely or never emits:
        /// nets of exactly two pins, nets far wider than anything the
        /// scratch has seen (up to 400 pins, repeats allowed), nets whose
        /// pins all share one gcell, and macro rects that reach past the
        /// grid edge — on scattered coordinates rather than a placer's.
        #[test]
        fn analysis_matches_on_shaped_nets(
            grid in 0usize..GRIDS.len(),
            seed in 0u64..1_000_000,
            n_nets in 1usize..60,
        ) {
            let (w, h) = GRIDS[grid];
            let mut nl = generate_netlist(Family::Ispd15, seed % 7).unwrap();
            let n_cells = nl.cells.len();
            let mut rng = Xoshiro256::seed_from(seed);
            let x: Vec<u16> = (0..n_cells).map(|_| rng.range_usize(0, w) as u16).collect();
            let y: Vec<u16> = (0..n_cells).map(|_| rng.range_usize(0, h) as u16).collect();
            let mut nets = Nets::new();
            let mut pins = Vec::new();
            for _ in 0..n_nets {
                pins.clear();
                match rng.range_usize(0, 4) {
                    0 => pins.extend((0..2).map(|_| CellId(rng.range_usize(0, n_cells) as u32))),
                    1 => {
                        let deg = rng.range_usize(17, 401);
                        pins.extend((0..deg).map(|_| CellId(rng.range_usize(0, n_cells) as u32)));
                    }
                    2 => {
                        // Every cell that landed in one gcell.
                        let at = rng.range_usize(0, n_cells);
                        pins.extend(
                            (0..n_cells)
                                .filter(|&i| (x[i], y[i]) == (x[at], y[at]))
                                .map(|i| CellId(i as u32)),
                        );
                        pins.push(CellId(at as u32));
                    }
                    _ => {
                        let deg = rng.range_usize(3, 9);
                        pins.extend((0..deg).map(|_| CellId(rng.range_usize(0, n_cells) as u32)));
                    }
                }
                nets.push(&pins);
            }
            nl.nets = nets;
            let x0 = rng.range_usize(0, w);
            let y0 = rng.range_usize(0, h);
            let pl = Placement {
                grid: GridDims::new(w, h),
                x,
                y,
                macro_rects: vec![MacroRect { x0, y0, x1: x0 + 3, y1: y0 + 2 }],
            };
            assert_matches_oracle(&analyse(&nl, &pl), &nl, &pl);
        }
    }

    #[test]
    #[should_panic(expected = "coordinates for a netlist of")]
    fn a_placement_of_another_design_is_refused_up_front() {
        let nl = generate_netlist(Family::Iscas89, 1).unwrap();
        let other = generate_netlist(Family::Iscas89, 2).unwrap();
        assert_ne!(nl.cells.len(), other.cells.len());
        let pl = place(&other, &PlacementConfig::new(16, 16, 1)).unwrap();
        let _ = route_demand(&nl, &pl);
    }
}
