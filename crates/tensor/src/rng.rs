//! Deterministic pseudo-random number generation.
//!
//! All stochastic components of the workspace (netlist synthesis, placement
//! perturbation, label noise, weight initialization, batch shuffling, client
//! scheduling) draw from [`Xoshiro256`] streams derived from a single
//! experiment seed via [`SplitMix64`], making every reported number
//! bit-reproducible across runs and machines.

/// SplitMix64 generator, used to seed and to derive independent
/// [`Xoshiro256`] streams from one master seed.
///
/// # Example
///
/// ```
/// use rte_tensor::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(42);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
pub use rte_codec::SplitMix64;

/// xoshiro256** generator: the workhorse PRNG of the workspace.
///
/// Fast, high-quality and fully deterministic. Use [`Xoshiro256::derive`] to
/// obtain statistically independent sub-streams for different components so
/// that adding randomness consumption in one module does not perturb another.
///
/// # Example
///
/// ```
/// use rte_tensor::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(7);
/// let x = rng.uniform(); // in [0, 1)
/// assert!((0.0..1.0).contains(&x));
/// let die = rng.range_usize(1, 7); // in [1, 7)
/// assert!((1..7).contains(&die));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Xoshiro256 {
    s: [u64; 4],
    /// Cached second normal variate from Box-Muller.
    spare_normal: Option<f64>,
}

impl Xoshiro256 {
    /// Creates a generator seeded by expanding `seed` with SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // xoshiro must not be seeded with all zeros; SplitMix64 of any seed
        // can in principle emit four zeros only with negligible probability,
        // but guard anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent sub-stream labelled by `label`.
    ///
    /// The sub-stream's seed mixes this generator's *current* state with the
    /// label, so two different labels (or the same label at different points
    /// of the parent stream) give unrelated streams.
    pub fn derive(&self, label: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(self.s[0] ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut mixed = sm.next_u64() ^ self.s[3];
        mixed = mixed.wrapping_add(sm.next_u64());
        Xoshiro256::seed_from(mixed)
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.uniform_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_in: lo must be <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal variate via Box-Muller (mean 0, std 1).
    pub fn normal(&mut self) -> f32 {
        self.normal_f64() as f32
    }

    /// Standard normal `f64` variate.
    pub fn normal_f64(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box-Muller transform; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// Uses Lemire-style multiply-shift rejection-free mapping, adequate for
    /// simulation workloads (bias is at most 2^-32 relative for ranges used
    /// here).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        let x = self.next_u64();
        lo + ((x as u128 * span as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Poisson-distributed count with mean `lambda` (Knuth's algorithm;
    /// intended for small lambda as used in netlist synthesis).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn poisson(&mut self, lambda: f64) -> usize {
        assert!(lambda.is_finite() && lambda >= 0.0, "invalid lambda");
        if lambda == 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                // Numerical safety valve for very large lambda.
                return k;
            }
        }
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (partial Fisher-Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range_usize(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(1);
        let mut c = Xoshiro256::seed_from(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let parent = Xoshiro256::seed_from(9);
        let mut s1 = parent.derive(1);
        let mut s2 = parent.derive(2);
        let a: Vec<u64> = (0..4).map(|_| s1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| s2.next_u64()).collect();
        assert_ne!(a, b);
        // Deriving the same label twice from the same parent state matches.
        let mut s1b = parent.derive(1);
        let c: Vec<u64> = (0..4).map(|_| s1b.next_u64()).collect();
        assert_eq!(a, c);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..1000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Xoshiro256::seed_from(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from(13);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn range_usize_bounds() {
        let mut rng = Xoshiro256::seed_from(17);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.range_usize(2, 8);
            assert!((2..8).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit");
    }

    #[test]
    fn poisson_mean() {
        let mut rng = Xoshiro256::seed_from(19);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.poisson(3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from(23);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Xoshiro256::seed_from(29);
        let sample = rng.sample_indices(100, 30);
        assert_eq!(sample.len(), 30);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Xoshiro256::seed_from(37);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
