//! Dependency-free scoped parallel execution.
//!
//! The workspace is forbidden from pulling runtime dependencies, so this
//! module implements the small slice of a data-parallel runtime the
//! kernels and the federated round loop need on top of
//! [`std::thread::scope`]: fork worker threads for one bounded batch of
//! work, join them before returning. There is no persistent pool or work
//! registry — every call owns its threads for its own lifetime, which
//! keeps the module trivially correct under nested use. Nested use is
//! also budget-safe: on worker threads the [`global`] default degrades
//! to serial, so an outer fan-out (e.g. the federated round loop) never
//! multiplies into `threads²` kernel workers.
//!
//! # Determinism contract
//!
//! Every helper here guarantees **bit-identical results for any thread
//! count**, including 1. The rules that make this hold:
//!
//! - work items are independent: item `i` reads shared inputs and writes
//!   only its own output slot (or disjoint chunk),
//! - per-item floating-point evaluation is the same code path whether it
//!   runs inline or on a worker,
//! - reductions are never performed concurrently — callers combine
//!   per-item partial results on their own thread, in item order.
//!   [`map_ordered`] hands each result over as soon as every earlier
//!   item's has been, while the workers still run, so a fold (the
//!   federated round's running aggregate) combines the completed prefix
//!   without waiting for the whole region or holding every result;
//!   [`map_with`] is the same delivery into a `Vec`.
//!
//! `tests/determinism.rs` and the workspace property tests pin this
//! contract down for the federated pipeline end to end.
//!
//! # Example
//!
//! ```
//! use rte_tensor::parallel::{map_with, Parallelism};
//!
//! let squares = map_with(
//!     Parallelism::new(4),
//!     &[1, 2, 3, 4, 5],
//!     || (),              // per-worker scratch state (none here)
//!     |(), _i, &x| x * x, // runs on a worker thread
//! );
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// How many threads a parallel region may use.
///
/// `threads == 0` means "ask the OS" ([`std::thread::available_parallelism`]);
/// any other value is used as-is. The value is a *cap*: regions never spawn
/// more workers than they have work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Worker-thread cap. `0` resolves to the machine's available
    /// parallelism at use time.
    pub threads: usize,
}

impl Default for Parallelism {
    /// Defaults to automatic thread count (`threads == 0`).
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl Parallelism {
    /// Exactly `threads` workers (`0` = automatic).
    pub const fn new(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// Single-threaded execution (runs inline, never spawns).
    pub const fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// Use all available hardware parallelism.
    pub const fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Reads the `RTE_THREADS` environment variable (the workspace-wide
    /// thread knob, also honored by CI): unset or empty means
    /// [`Parallelism::auto`].
    ///
    /// # Panics
    ///
    /// Panics on an unparsable value (e.g. `RTE_THREADS=four`). An
    /// explicit knob that cannot be honored must fail loudly, not
    /// silently fall back to a different thread count — the same policy
    /// [`crate::simd::SimdBackend::from_env`] applies to `RTE_SIMD`.
    pub fn from_env() -> Self {
        match crate::knobs::raw("RTE_THREADS") {
            Some(v) => Self::parse(&v),
            None => Parallelism::auto(),
        }
    }

    /// [`Parallelism::from_env`]'s parsing rule, factored out for tests:
    /// empty means auto, otherwise a non-negative integer (`0` = auto).
    ///
    /// # Panics
    ///
    /// See [`Parallelism::from_env`].
    pub fn parse(value: &str) -> Self {
        let v = value.trim();
        if v.is_empty() {
            return Parallelism::auto();
        }
        match v.parse::<usize>() {
            Ok(n) => Parallelism::new(n),
            Err(_) => panic!(
                "RTE_THREADS={v:?} is not a valid thread count; accepted values: \
                 a non-negative integer (0 = all cores) or unset/empty for auto"
            ),
        }
    }

    /// The concrete thread count this configuration resolves to (≥ 1).
    pub fn resolve(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Worker count for `jobs` work items: the resolved thread count,
    /// never more than the number of jobs, never less than 1.
    pub fn workers_for(self, jobs: usize) -> usize {
        self.resolve().min(jobs).max(1)
    }
}

/// Process-wide default used by kernels whose public signatures predate
/// the parallel subsystem (e.g. [`crate::conv::conv2d`]). Stored as the
/// raw `threads` value; the sentinel means "not yet initialized", in
/// which case the first [`global`] read resolves it from `RTE_THREADS`
/// (unset = auto) — so the environment knob governs both the federated
/// round loop and the kernels, exactly as the README documents.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(GLOBAL_UNSET);

/// Sentinel for "read `RTE_THREADS` on first use".
const GLOBAL_UNSET: usize = usize::MAX;

std::thread_local! {
    /// Worker threads spawned by this module force nested global-default
    /// regions to serial (see [`global`]): an outer fan-out already owns
    /// the thread budget, so inner kernels spawning `threads²` workers
    /// would only add churn. Explicit `_with` calls are unaffected.
    static NESTED_SERIAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the process-wide default [`Parallelism`] for kernels that are not
/// called through an explicit `_with` variant.
///
/// Results are bit-identical for every setting; this knob only trades
/// wall-clock for threads.
pub fn set_global(par: Parallelism) {
    GLOBAL_THREADS.store(par.threads, Ordering::Relaxed);
}

/// The current default [`Parallelism`] for this thread: serial on worker
/// threads spawned by this module (no oversubscription from nesting),
/// otherwise the [`set_global`] process default — initialized from
/// `RTE_THREADS` (unset = auto) on first use.
pub fn global() -> Parallelism {
    if NESTED_SERIAL.with(|flag| flag.get()) {
        return Parallelism::serial();
    }
    let raw = GLOBAL_THREADS.load(Ordering::Relaxed);
    if raw == GLOBAL_UNSET {
        let par = Parallelism::from_env();
        // Benign race: concurrent first readers compute the same value.
        GLOBAL_THREADS.store(par.threads, Ordering::Relaxed);
        return par;
    }
    Parallelism::new(raw)
}

/// Maps `f` over `items` on up to `par` worker threads, returning results
/// **in item order** regardless of scheduling: [`map_ordered`]'s
/// deliveries, pushed into a `Vec`.
///
/// `init` builds one scratch state per worker *on that worker's thread*
/// (so the state type does not need to be `Send`); `f` receives the
/// worker's state, the item index and the item. Items are handed out
/// dynamically (atomic cursor), so uneven item costs still balance.
///
/// With one worker (or ≤ 1 item) everything runs inline on the caller's
/// thread — same code path, no spawn.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn map_with<T, R, S, I, F>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    map_ordered(par, items, init, f, |_, r| out.push(r));
    out
}

/// Maps `f` over `items` on up to `par` worker threads and hands every
/// result to `sink` **on the calling thread, in item order**, as soon as
/// the results of all earlier items have been handed over — while the
/// workers still run. A caller that folds the results in `sink` (the
/// federated round's running aggregate) combines them in item order
/// without ever holding all of them.
///
/// `init` and `f` are as in [`map_with`]; `sink` receives the item index
/// and its result. A result that finishes before an earlier item's waits
/// in its slot until that item's result has been handed over, so what is
/// held at once is the results that overtook the slowest item still
/// running; [`map_ordered_within`] bounds them. With one worker (or ≤ 1
/// item) each item runs inline and goes straight to `sink`.
///
/// # Panics
///
/// Propagates panics from `f` with their original payloads, once every
/// worker has stopped (the items before the panicking one have reached
/// `sink`, no item after it has), and panics from `sink`.
pub fn map_ordered<T, R, S, I, F, K>(par: Parallelism, items: &[T], init: I, f: F, sink: K)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    K: FnMut(usize, R),
{
    map_ordered_within(par, items, usize::MAX, init, f, sink);
}

/// [`map_ordered`] with a lookahead of `window` items: item `i` starts
/// only once item `i - window` has left `sink`, so at most `window`
/// items are running or waiting in their slots at once, whatever the
/// item count. `window` is a bound, not a schedule: results and their
/// order are those of [`map_ordered`] for every `window ≥ 1`.
///
/// # Panics
///
/// Panics if `window` is zero; otherwise as [`map_ordered`].
pub fn map_ordered_within<T, R, S, I, F, K>(
    par: Parallelism,
    items: &[T],
    window: usize,
    init: I,
    f: F,
    mut sink: K,
) where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    K: FnMut(usize, R),
{
    assert!(window > 0, "map_ordered_within: zero window");
    let workers = par.workers_for(items.len());
    if workers <= 1 {
        let mut state = init();
        for (i, item) in items.iter().enumerate() {
            sink(i, f(&mut state, i, item));
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    // Only items in `delivered..delivered + window` can be held, so a
    // ring of `window` slots never holds two at one place.
    let ring = window.min(items.len());
    // The calling thread counts as running until it leaves the region.
    let handoff = Mutex::new(Handoff {
        slots: (0..ring).map(|_| None).collect(),
        running: workers + 1,
        delivered: 0,
        stopped: false,
    });
    let changed = Condvar::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (cursor, init, f, handoff, changed) = (&cursor, &init, &f, &handoff, &changed);
            handles.push(scope.spawn(move || {
                let _leaving = Leaving(handoff, changed);
                NESTED_SERIAL.with(|flag| flag.set(true));
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let mut guard = handoff.lock().expect(UNPOISONED);
                    while i - guard.delivered >= window {
                        if guard.stopped {
                            return; // no room will come
                        }
                        guard = changed.wait(guard).expect(UNPOISONED);
                    }
                    drop(guard);
                    let result = f(&mut state, i, &items[i]);
                    handoff.lock().expect(UNPOISONED).slots[i % ring] = Some(result);
                    changed.notify_all();
                }
            }));
        }
        // Stops the workers waiting for room if `sink` panics, so the
        // scope's joins end.
        let _leaving = Leaving(&handoff, &changed);
        for next in 0..items.len() {
            let mut guard = handoff.lock().expect(UNPOISONED);
            guard.delivered = next;
            changed.notify_all();
            let mut guard = changed
                .wait_while(guard, |h| h.slots[next % ring].is_none() && h.running > 1)
                .expect(UNPOISONED);
            // Every worker has ended and this item never came: the
            // worker that took it panicked.
            let Some(result) = guard.slots[next % ring].take() else {
                break;
            };
            drop(guard);
            sink(next, result);
        }
        for handle in handles {
            // Re-raise the worker's own panic payload so the original
            // assertion message reaches the caller.
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// What [`map_ordered_within`]'s workers and its calling thread share:
/// each finished item's result in its ring slot, how many of them have
/// not left, how many items have left `sink`, and whether a panic
/// stopped the region. Every change is announced on one condition
/// variable.
struct Handoff<R> {
    slots: Vec<Option<R>>,
    running: usize,
    delivered: usize,
    stopped: bool,
}

/// A worker holds the [`Handoff`] lock only to store a result or to wait
/// for room, which cannot panic, so the lock is never poisoned.
const UNPOISONED: &str = "no worker panics while it holds the handoff lock";

/// Counts a thread out of the region when it leaves, finished or
/// panicked, so the calling thread never waits for an item whose worker
/// is gone. A panic stops the region: no room will come for the workers
/// that wait for it once a worker or the sink is gone.
struct Leaving<'a, R>(&'a Mutex<Handoff<R>>, &'a Condvar);

impl<R> Drop for Leaving<'_, R> {
    fn drop(&mut self) {
        let mut handoff = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        handoff.running -= 1;
        handoff.stopped |= std::thread::panicking();
        self.1.notify_all();
    }
}

/// Splits `data` into consecutive `chunk_len` pieces and runs `f` on each,
/// distributing chunks across up to `par` worker threads.
///
/// Chunk `i` covers `data[i*chunk_len .. (i+1)*chunk_len]`; chunks are
/// disjoint, so workers write concurrently without synchronization.
/// Assignment is static (round-robin by chunk index), which is ideal for
/// the uniform per-chunk cost of batched kernels.
///
/// # Panics
///
/// Panics if `chunk_len` is zero or does not divide `data.len()`;
/// propagates worker panics.
pub fn for_each_chunk_mut<T, F>(par: Parallelism, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "for_each_chunk_mut: zero chunk length");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "for_each_chunk_mut: data length {} not a multiple of chunk length {chunk_len}",
        data.len()
    );
    let workers = par.workers_for(data.len() / chunk_len);
    if workers <= 1 {
        data.chunks_mut(chunk_len)
            .enumerate()
            .for_each(|(i, chunk)| f(i, chunk));
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[i % workers].push((i, chunk));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let f = &f;
            scope.spawn(move || {
                NESTED_SERIAL.with(|flag| flag.set(true));
                bucket.into_iter().for_each(|(i, chunk)| f(i, chunk));
            });
        }
        // The scope's implicit joins re-raise worker panics with their
        // original payloads.
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_and_workers() {
        assert_eq!(Parallelism::serial().resolve(), 1);
        assert_eq!(Parallelism::new(3).resolve(), 3);
        assert!(Parallelism::auto().resolve() >= 1);
        assert_eq!(Parallelism::new(8).workers_for(3), 3);
        assert_eq!(Parallelism::new(2).workers_for(100), 2);
        assert_eq!(Parallelism::new(4).workers_for(0), 1);
    }

    #[test]
    fn map_with_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 7] {
            let out = map_with(
                Parallelism::new(threads),
                &items,
                || (),
                |(), i, &x| {
                    assert_eq!(i, x);
                    x * 2
                },
            );
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_with_worker_state_is_reused() {
        // Each worker counts how many items it saw; the counts must sum to
        // the item count no matter how work was stolen.
        use std::sync::Mutex;
        let totals = Mutex::new(Vec::new());
        let items = [0u8; 50];
        map_with(
            Parallelism::new(4),
            &items,
            || 0usize,
            |seen, _, _| {
                *seen += 1;
                *seen
            },
        )
        .into_iter()
        .for_each(|c| totals.lock().unwrap().push(c));
        // `c` is the per-worker running count at the time each item ran;
        // the number of items is what must be conserved.
        assert_eq!(totals.lock().unwrap().len(), 50);
    }

    /// Item 0 is the slowest: with more than one worker it does not
    /// finish until every later item has, so every later result waits;
    /// the sink still sees 0, 1, 2, … with each item's own result.
    #[test]
    fn ordered_delivery_is_strictly_in_item_order() {
        use std::time::{Duration, Instant};
        let items: Vec<u64> = (0..23).collect();
        for threads in [1, 2, 4, 7] {
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            map_ordered(
                Parallelism::new(threads),
                &items,
                || (),
                |(), i, &x| {
                    if i > 0 {
                        finished.fetch_add(1, Ordering::SeqCst);
                    } else if threads > 1 {
                        let start = Instant::now();
                        while finished.load(Ordering::SeqCst) < items.len() - 1 {
                            assert!(start.elapsed() < Duration::from_secs(20), "wedged");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    x * 10
                },
                |i, r| seen.push((i, r)),
            );
            let want: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 10)).collect();
            assert_eq!(seen, want, "{threads} threads");
        }
    }

    /// The sink runs while the workers do: the last item cannot finish
    /// until the calling thread has been handed item 0's result.
    #[test]
    fn ordered_delivery_overlaps_the_workers() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let delivered = AtomicBool::new(false);
        let items: Vec<usize> = (0..8).collect();
        let last = items.len() - 1;
        map_ordered(
            Parallelism::new(2),
            &items,
            || (),
            |(), i, _| {
                if i == last {
                    let start = Instant::now();
                    while !delivered.load(Ordering::SeqCst) {
                        assert!(start.elapsed() < Duration::from_secs(20), "no delivery");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            },
            |i, ()| {
                if i == 0 {
                    delivered.store(true, Ordering::SeqCst);
                }
            },
        );
    }

    #[test]
    fn ordered_delivery_keeps_a_panic_payload() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_ordered(
                    Parallelism::new(threads),
                    &items,
                    || (),
                    |(), _, &x| {
                        assert!(x != 5, "item {x} is poisoned");
                        x
                    },
                    |i, _| seen.push(i),
                )
            }))
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("poisoned"), "payload lost: {msg:?}");
            assert_eq!(seen, [0, 1, 2, 3, 4], "{threads} threads");
        }
    }

    /// Every item whose index is a multiple of the window is slow, so
    /// later results pile up behind it: no more than `window` items are
    /// ever running or held, and the sink still sees 0, 1, 2, ….
    #[test]
    fn ordered_window_bounds_what_is_held() {
        let items: Vec<usize> = (0..41).collect();
        for threads in [1, 2, 4, 7] {
            for window in [1, 3, 8, 64] {
                let (held, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let mut seen = Vec::new();
                map_ordered_within(
                    Parallelism::new(threads),
                    &items,
                    window,
                    || (),
                    |(), i, &x| {
                        peak.fetch_max(held.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        if i % window == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        x * 3
                    },
                    |i, r| {
                        seen.push((i, r));
                        held.fetch_sub(1, Ordering::SeqCst);
                    },
                );
                let what = format!("window {window}, {threads} threads");
                let want: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
                assert_eq!(seen, want, "{what}");
                assert!(peak.load(Ordering::SeqCst) <= window, "{what}: {peak:?}");
            }
        }
    }

    /// A panicking item keeps its payload under a window too, and the
    /// workers waiting for room behind it stop instead of waiting for
    /// ever; a panicking sink's payload reaches the caller the same way.
    #[test]
    fn ordered_window_keeps_a_panic_payload() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_ordered_within(
                    Parallelism::new(threads),
                    &items,
                    2,
                    || (),
                    |(), _, &x| {
                        assert!(x != 5, "item {x} is poisoned");
                        x
                    },
                    |i, _| seen.push(i),
                )
            }))
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("poisoned"), "payload lost: {msg:?}");
            assert_eq!(seen, [0, 1, 2, 3, 4], "{threads} threads");
            let caught = std::panic::catch_unwind(|| {
                map_ordered_within(
                    Parallelism::new(threads),
                    &items,
                    2,
                    || (),
                    |(), _, &x| x,
                    |i, _| assert!(i != 7, "sink refused item {i}"),
                )
            })
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("sink refused"), "payload lost: {msg:?}");
        }
    }

    #[test]
    fn chunks_cover_all_data_once() {
        let mut data = vec![0u32; 60];
        for threads in [1, 3, 8] {
            data.iter_mut().for_each(|x| *x = 0);
            for_each_chunk_mut(Parallelism::new(threads), &mut data, 5, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + i as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, 1 + (i / 5) as u32, "index {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_chunks_rejected() {
        let mut data = vec![0u32; 7];
        for_each_chunk_mut(Parallelism::serial(), &mut data, 2, |_, _| {});
    }

    #[test]
    fn global_default_round_trips() {
        let before = global();
        set_global(Parallelism::new(3));
        assert_eq!(global(), Parallelism::new(3));
        set_global(before);
    }

    #[test]
    fn nested_regions_degrade_to_serial_on_workers() {
        // On a worker thread the global default must read as serial, so a
        // kernel called from inside a fan-out cannot oversubscribe.
        let items = [(); 8];
        let seen = map_with(
            Parallelism::new(4),
            &items,
            || (),
            |(), _, _| global().resolve(),
        );
        assert!(seen.iter().all(|&t| t == 1), "{seen:?}");
        // Back on the caller's thread, the nested-serial flag is unset
        // (other tests mutate the process default concurrently, so only
        // the flag itself can be asserted race-free).
        assert!(!NESTED_SERIAL.with(|flag| flag.get()));
    }

    #[test]
    fn parse_accepts_integers_and_empty() {
        assert_eq!(Parallelism::parse("4"), Parallelism::new(4));
        assert_eq!(Parallelism::parse(" 2 "), Parallelism::new(2));
        assert_eq!(Parallelism::parse("0"), Parallelism::auto());
        assert_eq!(Parallelism::parse(""), Parallelism::auto());
        assert_eq!(Parallelism::parse("  "), Parallelism::auto());
    }

    #[test]
    #[should_panic(expected = "accepted values")]
    fn parse_rejects_garbage_loudly() {
        let _ = Parallelism::parse("four");
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            map_with(
                Parallelism::new(4),
                &items,
                || (),
                |(), _, &x| {
                    assert!(x < 3, "item {x} out of range");
                    x
                },
            )
        })
        .expect_err("must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("out of range"), "payload lost: {msg:?}");
    }
}
