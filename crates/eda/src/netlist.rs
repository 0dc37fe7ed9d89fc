//! Synthetic netlist generation.
//!
//! Generates clustered random netlists that honor a [`FamilyProfile`]:
//! cells are partitioned into logical clusters (modules), each net picks a
//! home cluster and stays inside it with probability `cluster_tightness`,
//! escaping to the whole design otherwise. Together with the Rent-style
//! fanout distribution this produces the locality structure placers and
//! routers see in real designs: mostly short nets plus a heavy tail of
//! global nets.

use rte_tensor::rng::Xoshiro256;

use crate::{EdaError, Family, FamilyProfile};

/// Index of a cell within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Index of a net within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A standard cell or macro instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// This cell's id (its index in [`Netlist::cells`]).
    pub id: CellId,
    /// Number of physical pins.
    pub pins: u8,
    /// True for macro blocks (placed as rectangular blockages).
    pub is_macro: bool,
    /// Logical cluster (module) this cell belongs to.
    pub cluster: u16,
}

/// A multi-pin net connecting two or more cells: a borrowed view into
/// its netlist's [`Nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net<'a> {
    /// This net's id (its position in [`Netlist::nets`]).
    pub id: NetId,
    /// Connected cells (first entry is the driver). At least two entries,
    /// all distinct.
    pub cells: &'a [CellId],
}

impl Net<'_> {
    /// Number of pins on the net.
    pub fn degree(&self) -> usize {
        self.cells.len()
    }
}

/// The connectivity of a design, stored flat: one pin array for all nets
/// and one offset per net boundary, so walking every net's pins is one
/// linear read and a netlist is two allocations however many nets it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nets {
    /// `offsets[i]..offsets[i + 1]` is net `i`'s range of `pins`; always
    /// starts with 0.
    offsets: Vec<u32>,
    pins: Vec<CellId>,
}

impl Nets {
    /// No nets.
    pub fn new() -> Self {
        Nets::with_capacity(0, 0)
    }

    /// No nets, with room for `nets` nets of `pins` pins in total.
    pub fn with_capacity(nets: usize, pins: usize) -> Self {
        let mut offsets = Vec::with_capacity(nets + 1);
        offsets.push(0);
        Nets {
            offsets,
            pins: Vec::with_capacity(pins),
        }
    }

    /// Appends a net; its id is its position.
    ///
    /// # Panics
    ///
    /// Panics if the total pin count would exceed `u32::MAX`.
    pub fn push(&mut self, cells: &[CellId]) {
        self.pins.extend_from_slice(cells);
        self.offsets
            .push(u32::try_from(self.pins.len()).expect("pin count fits u32"));
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no nets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of pins over all nets.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// The nets in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Net<'_>> {
        self.offsets.windows(2).enumerate().map(|(i, w)| Net {
            id: NetId(i as u32),
            cells: &self.pins[w[0] as usize..w[1] as usize],
        })
    }
}

impl Default for Nets {
    fn default() -> Self {
        Nets::new()
    }
}

/// A synthetic design: cells plus connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Synthetic design name, unique per (family, seed).
    pub name: String,
    /// The benchmark family this design imitates.
    pub family: Family,
    /// All cells; `cells[i].id == CellId(i)`.
    pub cells: Vec<Cell>,
    /// All nets, in id order.
    pub nets: Nets,
    /// Number of logical clusters.
    pub cluster_count: usize,
}

impl Netlist {
    /// Total pin count over all cells.
    pub fn total_pins(&self) -> usize {
        self.cells.iter().map(|c| c.pins as usize).sum()
    }

    /// Number of macro cells.
    pub fn macro_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_macro).count()
    }

    /// Mean net degree.
    pub fn avg_net_degree(&self) -> f64 {
        if self.nets.is_empty() {
            return 0.0;
        }
        self.nets.pin_count() as f64 / self.nets.len() as f64
    }
}

/// Generates a netlist for `family` from a design seed.
///
/// Distinct seeds give distinct designs; the same `(family, seed)` pair is
/// bit-reproducible. Seeds therefore play the role of design identity in
/// the Table 2 corpus (no two clients share a seed).
///
/// # Errors
///
/// Currently infallible in practice; returns [`EdaError::InvalidConfig`]
/// if the family profile is degenerate (defensive).
pub fn generate_netlist(family: Family, design_seed: u64) -> Result<Netlist, EdaError> {
    let profile = family.profile();
    validate_profile(&profile)?;
    let mut rng = Xoshiro256::seed_from(design_seed ^ 0xDE51_6E5E_EDDA_7A00);

    let n_cells = rng.range_usize(profile.cell_count.0, profile.cell_count.1 + 1);
    let n_clusters = rng.range_usize(profile.cluster_count.0, profile.cluster_count.1 + 1);

    // Cluster sizes via random proportions (Dirichlet-ish through
    // normalized uniforms) so modules have uneven, realistic sizes.
    let weights: Vec<f64> = (0..n_clusters).map(|_| 0.2 + rng.uniform_f64()).collect();
    let total_w: f64 = weights.iter().sum();
    let mut cluster_of_cell = Vec::with_capacity(n_cells);
    for (ci, w) in weights.iter().enumerate() {
        let share = ((w / total_w) * n_cells as f64).round() as usize;
        for _ in 0..share {
            cluster_of_cell.push(ci as u16);
        }
    }
    while cluster_of_cell.len() < n_cells {
        cluster_of_cell.push(rng.range_usize(0, n_clusters) as u16);
    }
    cluster_of_cell.truncate(n_cells);
    rng.shuffle(&mut cluster_of_cell);

    let n_macros = (n_cells as f64 * profile.macro_fraction * 0.02).round() as usize;
    let mut cells: Vec<Cell> = (0..n_cells)
        .map(|i| Cell {
            id: CellId(i as u32),
            pins: rng.range_usize(
                profile.pins_per_cell.0 as usize,
                profile.pins_per_cell.1 as usize + 1,
            ) as u8,
            is_macro: false,
            cluster: cluster_of_cell[i],
        })
        .collect();
    // Promote a few cells to macros (they get many pins).
    for _ in 0..n_macros {
        let i = rng.range_usize(0, n_cells);
        cells[i].is_macro = true;
        cells[i].pins = cells[i].pins.saturating_mul(4).max(12);
    }

    // Cells per cluster, for intra-cluster net sampling.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_clusters];
    for c in &cells {
        members[c.cluster as usize].push(c.id.0);
    }

    let n_nets = (n_cells as f64 * profile.nets_per_cell).round() as usize;
    let mut nets = Nets::with_capacity(
        n_nets,
        (n_nets as f64 * (profile.avg_fanout + 0.5)) as usize,
    );
    let mut sampler = IndexSampler::new(n_cells);
    let mut chosen: Vec<CellId> = Vec::new();
    for _ in 0..n_nets {
        // Degree: 2 + Poisson tail shaped by avg_fanout and the Rent
        // exponent (heavier tail for higher exponents).
        let extra = rng.poisson((profile.avg_fanout - 2.0).max(0.0));
        let tail_boost = if rng.uniform_f64() < (profile.rent_exponent - 0.5) {
            rng.range_usize(0, 6)
        } else {
            0
        };
        let degree = 2 + extra + tail_boost;
        let local = rng.uniform_f64() < profile.cluster_tightness;
        let home = rng.range_usize(0, n_clusters);
        chosen.clear();
        if local && members[home].len() >= degree {
            let pool = &members[home];
            let picks = sampler.sample(&mut rng, pool.len(), degree);
            chosen.extend(picks.iter().map(|&i| CellId(pool[i as usize])));
        } else {
            // Global net: sample from the whole design.
            let picks = sampler.sample(&mut rng, n_cells, degree.min(n_cells));
            chosen.extend(picks.iter().map(|&i| CellId(i)));
        }
        if chosen.len() >= 2 {
            nets.push(&chosen);
        }
    }

    Ok(Netlist {
        name: design_name(family, design_seed),
        family,
        cells,
        nets,
        cluster_count: n_clusters,
    })
}

/// `Xoshiro256::sample_indices` in O(k): the same partial Fisher–Yates,
/// the same draws and the same picks, over one identity permutation that
/// is kept between calls instead of `0..n` being rebuilt for every net.
/// Each call first undoes the previous call's swaps (last one first), so
/// the buffer is the identity again whenever a draw starts.
struct IndexSampler {
    idx: Vec<u32>,
    /// Swap partner of position `i` in the last draw.
    swapped: Vec<u32>,
}

impl IndexSampler {
    /// A sampler for populations of up to `n_max`.
    fn new(n_max: usize) -> Self {
        IndexSampler {
            idx: (0..n_max as u32).collect(),
            swapped: Vec::new(),
        }
    }

    /// `k` distinct indices of `0..n`, valid until the next call.
    fn sample(&mut self, rng: &mut Xoshiro256, n: usize, k: usize) -> &[u32] {
        assert!(k <= n && n <= self.idx.len(), "cannot sample {k} from {n}");
        for (i, &j) in self.swapped.iter().enumerate().rev() {
            self.idx.swap(i, j as usize);
        }
        self.swapped.clear();
        for i in 0..k {
            let j = rng.range_usize(i, n);
            self.idx.swap(i, j);
            self.swapped.push(j as u32);
        }
        &self.idx[..k]
    }
}

/// The name [`generate_netlist`] gives the design of `(family, seed)`,
/// without synthesizing it.
pub(crate) fn design_name(family: Family, design_seed: u64) -> String {
    format!("{}_{design_seed:08x}", family_slug(family))
}

fn family_slug(family: Family) -> &'static str {
    match family {
        Family::Iscas89 => "s",
        Family::Itc99 => "b",
        Family::Iwls05 => "iwls",
        Family::Ispd15 => "ispd",
    }
}

fn validate_profile(p: &FamilyProfile) -> Result<(), EdaError> {
    if p.cell_count.0 == 0 || p.cell_count.0 > p.cell_count.1 {
        return Err(EdaError::InvalidConfig {
            reason: format!("bad cell count range {:?}", p.cell_count),
        });
    }
    if p.cluster_count.0 == 0 {
        return Err(EdaError::InvalidConfig {
            reason: "zero clusters".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_per_seed() {
        let a = generate_netlist(Family::Itc99, 42).unwrap();
        let b = generate_netlist(Family::Itc99, 42).unwrap();
        assert_eq!(a, b);
        let c = generate_netlist(Family::Itc99, 43).unwrap();
        assert_ne!(a.cells.len(), 0);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_family_cell_range() {
        for family in Family::ALL {
            let p = family.profile();
            for seed in 0..5 {
                let nl = generate_netlist(family, seed).unwrap();
                assert!(
                    (p.cell_count.0..=p.cell_count.1).contains(&nl.cells.len()),
                    "{family}: {} cells",
                    nl.cells.len()
                );
            }
        }
    }

    #[test]
    fn nets_are_valid() {
        let nl = generate_netlist(Family::Iwls05, 7).unwrap();
        for (i, net) in nl.nets.iter().enumerate() {
            assert_eq!(net.id, NetId(i as u32));
            assert!(net.degree() >= 2, "net degree {}", net.degree());
            let distinct: HashSet<_> = net.cells.iter().collect();
            assert_eq!(distinct.len(), net.degree(), "duplicate pins");
            for c in net.cells {
                assert!((c.0 as usize) < nl.cells.len());
            }
        }
    }

    /// The O(k) sampler against `Xoshiro256::sample_indices`, draw for
    /// draw: same picks in the same order and the same generator state
    /// afterwards, over mixed `(n, k)` on one sampler — so every draw
    /// also checks that the previous one left the identity behind.
    #[test]
    fn index_sampler_replays_sample_indices() {
        let n_max = 300;
        let mut sampler = IndexSampler::new(n_max);
        let mut shape = Xoshiro256::seed_from(0x5A3B);
        for case in 0..2_000u64 {
            let n = shape.range_usize(1, n_max + 1);
            let k = match case % 4 {
                0 => n,
                1 => shape.range_usize(0, n.min(8) + 1),
                _ => shape.range_usize(0, n + 1),
            };
            let mut ours = Xoshiro256::seed_from(case);
            let mut theirs = ours.clone();
            let picks: Vec<usize> = sampler
                .sample(&mut ours, n, k)
                .iter()
                .map(|&i| i as usize)
                .collect();
            assert_eq!(
                picks,
                theirs.sample_indices(n, k),
                "case {case}: {k} of {n}"
            );
            assert_eq!(ours.next_u64(), theirs.next_u64(), "case {case}: rng state");
        }
    }

    #[test]
    fn average_degree_tracks_profile() {
        for family in Family::ALL {
            let p = family.profile();
            let mut total = 0.0;
            let n = 4;
            for seed in 0..n {
                total += generate_netlist(family, seed).unwrap().avg_net_degree();
            }
            let avg = total / n as f64;
            assert!(
                (avg - p.avg_fanout).abs() < 1.2,
                "{family}: avg degree {avg} vs profile {}",
                p.avg_fanout
            );
        }
    }

    #[test]
    fn clusters_are_used() {
        let nl = generate_netlist(Family::Ispd15, 3).unwrap();
        let used: HashSet<u16> = nl.cells.iter().map(|c| c.cluster).collect();
        assert!(used.len() > 1, "cells should span clusters");
        assert!(used.len() <= nl.cluster_count);
    }

    #[test]
    fn most_nets_are_intra_cluster() {
        // The locality knob must actually bias connectivity.
        let nl = generate_netlist(Family::Iscas89, 11).unwrap();
        let intra = nl
            .nets
            .iter()
            .filter(|n| {
                let c0 = nl.cells[n.cells[0].0 as usize].cluster;
                n.cells.iter().all(|c| nl.cells[c.0 as usize].cluster == c0)
            })
            .count();
        let frac = intra as f64 / nl.nets.len() as f64;
        assert!(frac > 0.3, "intra-cluster fraction {frac}");
    }

    #[test]
    fn ispd_family_has_macros() {
        let nl = generate_netlist(Family::Ispd15, 1).unwrap();
        assert!(nl.macro_count() > 0);
        let nl2 = generate_netlist(Family::Iscas89, 1).unwrap();
        assert_eq!(nl2.macro_count(), 0);
    }

    #[test]
    fn names_encode_family_and_seed() {
        let nl = generate_netlist(Family::Itc99, 0xAB).unwrap();
        assert!(nl.name.starts_with("b_"));
        assert!(nl.name.contains("000000ab"));
    }
}
