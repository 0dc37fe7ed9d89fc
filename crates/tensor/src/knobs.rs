//! The single sanctioned environment-read site of the workspace.
//!
//! Every runtime knob (`RTE_THREADS`, `RTE_SIMD`, `RTE_BENCH_JSON`, …)
//! is read through [`raw`] and then handed to a *strict* parser that
//! fails loudly on unrecognized values with the accepted-values list —
//! never a silent fallback, because a knob the operator set and the
//! program ignored is a determinism bug waiting to be misdiagnosed.
//!
//! `rte-lint` rule L3 enforces the discipline mechanically: a raw
//! `std::env::var` anywhere else in library code is a hard CI failure,
//! so the full knob surface stays auditable from this one file.
//!
//! # Knob registry
//!
//! | variable | parser | accepted values |
//! |----------|--------|-----------------|
//! | `RTE_THREADS` | [`crate::parallel::Parallelism::parse`] | non-negative integer; empty/`0` = auto |
//! | `RTE_SIMD` | [`crate::simd::SimdBackend::parse`] | `auto`, `scalar`, `avx2`, `avx512`; empty = auto |
//! | `RTE_BENCH_JSON` | used verbatim (a path) | any path; empty = default location |

/// Reads one environment variable, treating *unset* and *set-but-empty*
/// identically as `None`.
///
/// This is the only raw environment read the determinism lints permit
/// (`rte-lint` L3). Callers must route the returned string through a
/// strict parser that panics on unrecognized values — see the knob
/// registry in the module docs.
pub fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => Some(v),
        _ => None,
    }
}
