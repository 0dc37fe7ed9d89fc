//! The benchmark's one wall-clock site, and the core clock it is read
//! against.
//!
//! Every timing in this package is a difference of two [`now_ns`]
//! readings against one process-wide origin, so span timestamps from
//! different threads share a time base and can be compared directly.
//!
//! The machines the benchmark runs on are slices of shared hosts whose
//! core clock steps between about 2.9 and 4.1 GHz every few seconds and
//! drifts over minutes (measured: the same iteration takes 0.87 s or
//! 1.17 s), so a time in plain seconds measures the host's governor as
//! much as the program. [`core_ghz`] reads the clock the way a program
//! sees it, and the end-to-end timings are reported at [`REFERENCE_GHZ`].

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use decentralized_routability::fed::Parallelism;
use decentralized_routability::tensor::parallel;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // rte-lint: allow(L4) benchmark timing — measured durations are
    // reported, never fed back into a training or protocol decision.
    let now = Instant::now();
    let origin = *ORIGIN.get_or_init(|| now);
    now.duration_since(origin).as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

/// The clock end-to-end timings are reported at: a time measured while
/// the cores ran at `g` GHz is multiplied by `g / REFERENCE_GHZ`.
pub const REFERENCE_GHZ: f64 = 3.0;

/// Multiplies in one calibration chain.
const CHAIN_MULS: u32 = 2_000_000;
/// Cycles one multiply of the chain takes: a 64-bit integer multiply
/// whose operand is the previous product has had a latency of 3 cycles
/// on every x86-64 core since 2008, and nothing else is on the chain's
/// critical path. On a core where it is another constant, every
/// reading — and so every reported time — is off by that constant
/// alike, which no comparison of two runs on that machine notices.
const CYCLES_PER_MUL: f64 = 3.0;
/// Chains per reading; the fastest counts, because an interrupt or a
/// preemption can only make a chain look slower than the clock is.
const CHAINS_PER_READING: usize = 3;

/// The clock of the calling thread's core over about 2 ms, in GHz.
fn chain_ghz() -> f64 {
    let mut best_ns = u64::MAX;
    for _ in 0..CHAINS_PER_READING {
        // Odd, so no product is ever zero; the multiplier's latency does
        // not depend on the value anyway.
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        let start = now_ns();
        for _ in 0..CHAIN_MULS {
            x = x.wrapping_mul(x);
        }
        let elapsed = now_ns().saturating_sub(start);
        black_box(x);
        best_ns = best_ns.min(elapsed.max(1));
    }
    f64::from(CHAIN_MULS) * CYCLES_PER_MUL / best_ns as f64
}

/// The effective core clock in GHz with `cores` cores busy at once — as
/// many as the workload keeps busy, because the clock a core gets
/// depends on how many of its neighbours are awake. Each core times a
/// chain of dependent integer multiplies, whose cycle count is known,
/// and the readings are averaged.
pub fn core_ghz(cores: usize) -> f64 {
    let cores = cores.max(1);
    let slots = vec![(); cores];
    let readings = parallel::map_with(
        Parallelism::new(cores),
        &slots,
        || (),
        |_, _, _| chain_ghz(),
    );
    readings.iter().sum::<f64>() / readings.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_reads_a_plausible_clock() {
        for cores in [1, 2] {
            let ghz = core_ghz(cores);
            assert!((0.2..10.0).contains(&ghz), "{cores} cores: {ghz} GHz");
        }
    }

    #[test]
    fn readings_never_go_backwards() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert_eq!(secs_between(5, 2), 0.0);
        assert_eq!(secs_between(1_000_000_000, 3_500_000_000), 2.5);
    }
}
