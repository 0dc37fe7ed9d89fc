//! Clocks for async round scheduling.
//!
//! Determinism contract rule 8: asynchronous federation is driven by a
//! **seeded virtual clock** — arrival times are drawn from a named RNG
//! stream and replayed through a deterministic event queue, so the
//! arrival *order* (the only thing aggregation depends on) is a pure
//! function of the seed. CI pins async outcomes byte-for-byte because
//! nothing on this path reads the machine clock.
//!
//! [`WallClock`] is the documented opt-out: real elapsed time, real
//! nondeterminism. It is the sanctioned exception to lint rule L4 in
//! this crate and nothing deterministic may depend on it.

use std::collections::BTreeMap;

/// SplitMix64 — the stream-splitting generator, shared with
/// `rte_tensor::rng` from the `rte-codec` leaf.
pub use rte_codec::SplitMix64;

/// A deterministic discrete-event queue keyed by `(tick, lane, seq)`.
///
/// `lane` is a caller-chosen tie-break (client index, by convention):
/// two events at the same tick pop in lane order, and two events on the
/// same `(tick, lane)` pop in insertion order via the internal sequence
/// number — so the pop order is a pure function of the pushes, never of
/// hash order or wall-clock interleaving.
#[derive(Debug)]
pub struct EventQueue<T> {
    events: BTreeMap<(u64, u64, u64), T>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `tick` on `lane`.
    pub fn push(&mut self, tick: u64, lane: u64, event: T) {
        let key = (tick, lane, self.seq);
        self.seq += 1;
        self.events.insert(key, event);
    }

    /// Pops the earliest event: `(tick, lane, event)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let key = *self.events.keys().next()?;
        let event = self.events.remove(&key)?;
        Some((key.0, key.1, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The virtual clock: a monotone tick counter advanced by the event
/// loop, never by the machine. Rule 8's deterministic time source.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// Creates a clock at tick zero.
    pub fn new() -> Self {
        VirtualClock { now: 0 }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances to `tick` (monotone: earlier values are ignored, so a
    /// buggy caller cannot move time backwards).
    pub fn advance_to(&mut self, tick: u64) {
        if tick > self.now {
            self.now = tick;
        }
    }
}

/// Real elapsed time in milliseconds — **the documented opt-out** from
/// rule 8. Only the wall-clock async mode reads this; everything else
/// in the workspace is forbidden from it by lint rule L4 (this file is
/// the sanctioned exception).
pub struct WallClock {
    start: std::time::Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock {
    /// Starts the clock now.
    pub fn new() -> Self {
        WallClock {
            // rte-lint: allow(L4) sanctioned wall-clock site: the
            // non-deterministic async opt-out measures real latency here.
            start: std::time::Instant::now(),
        }
    }

    /// Milliseconds elapsed since the clock was created.
    pub fn elapsed_ms(&self) -> u64 {
        // rte-lint: allow(L4) sanctioned wall-clock site (see `new`).
        self.start.elapsed().as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = rng.next_range(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(rng.next_range(5, 5), 5);
        assert_eq!(rng.next_range(9, 3), 9);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn event_queue_pops_in_tick_lane_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 2, "late-high-lane");
        q.push(5, 1, "late-low-lane");
        q.push(1, 9, "early");
        q.push(5, 1, "late-low-lane-second");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap(), (1, 9, "early"));
        assert_eq!(q.pop().unwrap(), (5, 1, "late-low-lane"));
        assert_eq!(q.pop().unwrap(), (5, 1, "late-low-lane-second"));
        assert_eq!(q.pop().unwrap(), (5, 2, "late-high-lane"));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn virtual_clock_is_monotone() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), 0);
        clock.advance_to(10);
        clock.advance_to(3);
        assert_eq!(clock.now(), 10);
    }

    #[test]
    fn wall_clock_advances() {
        let clock = WallClock::new();
        // Cannot assert real elapsed time deterministically; only that
        // the reading is well-formed (non-panicking, monotone-ish).
        let a = clock.elapsed_ms();
        let b = clock.elapsed_ms();
        assert!(b >= a);
    }
}
