//! # tqs-telemetry
//!
//! Hand-rolled, dependency-free observability for the TQS workspace. The
//! workspace builds fully offline (the classic ecosystem crates are no-op
//! shims under `crates/compat/`), so instead of `tracing` + `metrics` this
//! crate provides the three layers every other crate instruments through:
//!
//! * [`trace`] — structured spans/events on a thread-local span stack,
//!   exported in Chrome trace-event format (one event object per line) that
//!   Perfetto and `chrome://tracing` open directly.
//! * [`metrics`] — a process-wide registry of atomic counters and
//!   log-linear histograms with mergeable [`MetricsSnapshot`]s, serialized
//!   through the workspace's hand-rolled [`json`] module.
//! * [`profile`] — per-query [`QueryProfile`]s: operator-level row counts
//!   and timings the engines collect and `DbmsConnector::query_profile`
//!   surfaces next to EXPLAIN.
//!
//! ## The enable gate
//!
//! Everything is gated on one process-global flag ([`set_enabled`] /
//! [`enabled`]): while disabled, a counter bump or span entry is a single
//! relaxed atomic load and an early return — no allocation, no lock, no
//! clock read — which is what keeps the allocation-free execution hot path
//! at full speed (`tqs_benchmark --trace 1` reports the enabled overhead as
//! `driver.trace_overhead_pct`). The flag defaults to **off**; callers opt
//! in with `set_enabled(true)`.
//!
//! This crate sits at the bottom of the workspace graph and depends on
//! nothing, so `tqs-pager`, `tqs-engine`, `tqs-optimizer`, `tqs-core` and
//! `tqs-campaign` can all instrument through it.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use json::{Json, JsonError};
pub use metrics::{
    counter, histogram, reset_metrics, snapshot_metrics, Counter, Histogram, HistogramSnapshot,
    MetricsSnapshot,
};
pub use profile::{OpProfile, QueryProfile};
pub use trace::{
    event, event_with, export_chrome_trace, render_chrome_trace, span, span_with, take_events,
    SpanGuard, TraceEvent,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection on? One relaxed load — the gate every span,
/// counter and profile hook checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Serialize tests that toggle the process-global flag or drain the global
/// trace collector.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_gates_collection() {
        let _g = test_guard();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }
}

#[cfg(test)]
mod histogram_fuzz {
    //! Satellite: record/merge associativity — folding per-shard histogram
    //! snapshots must be independent of fold order, the property that lets a
    //! fleet merge worker snapshots into one artifact.

    use super::metrics::{Histogram, HistogramSnapshot};
    use super::test_guard;
    use proptest::prelude::*;

    fn snap(samples: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h.snapshot()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_associative_and_matches_combined_recording(
            a in proptest::collection::vec(any::<u64>(), 0..24),
            b in proptest::collection::vec(any::<u64>(), 0..24),
            c in proptest::collection::vec(any::<u64>(), 0..24),
        ) {
            let _g = test_guard();
            super::set_enabled(true);
            let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
            // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
            let left = sa.merge(&sb).merge(&sc);
            let right = sa.merge(&sb.merge(&sc));
            super::set_enabled(false);
            prop_assert_eq!(&left, &right);
            // Commutativity while we're here.
            prop_assert_eq!(&sa.merge(&sb), &sb.merge(&sa));
            // And the merged snapshot equals recording everything into one
            // histogram (sums can overflow u64 in the adversarial domain;
            // wrapping is fine for the equality check because both sides
            // wrap identically).
            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            super::set_enabled(true);
            let combined = snap(&all);
            super::set_enabled(false);
            prop_assert_eq!(left.count, combined.count);
            prop_assert_eq!(left.min, combined.min);
            prop_assert_eq!(left.max, combined.max);
            prop_assert_eq!(&left.buckets, &combined.buckets);
        }
    }
}
