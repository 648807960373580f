//! The process-wide metrics registry: atomic counters and log-linear
//! histograms with mergeable snapshots.
//!
//! Metric handles are `&'static` — a site registers once (the [`counter!`]
//! and [`histogram!`](crate::histogram) macros cache the handle in
//! a local `OnceLock`) and then updates are a single relaxed atomic op. Every
//! update is gated on the global [`enabled`](crate::enabled) flag, so with
//! telemetry off an instrumented hot path pays one predictable branch on an
//! always-cached atomic load and nothing else.
//!
//! Naming convention (see the README's Observability guide):
//! `layer.component.metric`, e.g. `engine.row.join.rows_out`,
//! `pager.pool.hits`, `optimizer.enumerate.memo_hits`,
//! `campaign.oracle.pass`.

use crate::enabled;
use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`; a no-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one; a no-op while telemetry is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Sub-bucket resolution of the log-linear histogram: each power-of-two
/// octave is split into `2^SUB_BITS` linear sub-buckets (~12% relative
/// error), the classic HDR layout.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Values `0..SUB` get exact buckets; octaves `SUB_BITS..=63` get `SUB`
/// sub-buckets each.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of a recorded value (log-linear, monotone in the value).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Smallest value that lands in bucket `i` — the inverse of
/// [`bucket_index`] on bucket lower bounds.
fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let group = (i as u64 / SUB) - 1 + SUB_BITS as u64; // the octave's msb
    let sub = i as u64 & (SUB - 1);
    (1 << group) | (sub << (group - SUB_BITS as u64))
}

/// A log-linear histogram of `u64` samples (typically nanoseconds or row
/// counts). Recording is lock-free; snapshots are mergeable and associative.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        // `AtomicU64` is not Copy; build the boxed array through a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: v.try_into().expect("BUCKETS-sized vec"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample; a no-op while telemetry is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_lower_bound(i), n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one histogram. `merge` is associative and
/// commutative, so per-shard/per-run snapshots fold in any order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `(bucket lower bound, samples)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count == 0 {
            return other.clone();
        }
        if other.count == 0 {
            return self.clone();
        }
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, n) in &other.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        HistogramSnapshot {
            buckets: merged.into_iter().collect(),
            count: self.count + other.count,
            // Nanosecond sums can exceed u64 when folding adversarial or
            // multi-day snapshots; wrapping keeps merge total (and matches
            // the wrapping fetch_add on the live histogram).
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        self.max
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), Json::count(self.count as usize)),
            ("sum".to_string(), Json::count(self.sum as usize)),
            ("min".to_string(), Json::count(self.min as usize)),
            ("max".to_string(), Json::count(self.max as usize)),
            ("mean".to_string(), Json::Num(self.mean())),
            ("p50".to_string(), Json::count(self.quantile(0.5) as usize)),
            ("p99".to_string(), Json::count(self.quantile(0.99) as usize)),
            (
                "buckets".to_string(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(bound, n)| {
                            Json::Arr(vec![Json::count(bound as usize), Json::count(n as usize)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The registry: name → handle maps behind a mutex that is touched only at
/// registration (once per site) and snapshot time, never on the update path.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Register (or look up) the process-wide counter named `name`. Handles are
/// leaked once per distinct name — the metric namespace is a small static
/// set, so this is a bounded, intentional leak.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().expect("registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Register (or look up) the process-wide histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().expect("registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Reset every registered metric to zero — `tqs_benchmark` isolates runs
/// with this, and tests use it for a clean slate. Handles stay valid.
pub fn reset_metrics() {
    let r = registry();
    for c in r.counters.lock().expect("registry poisoned").values() {
        c.reset();
    }
    for h in r.histograms.lock().expect("registry poisoned").values() {
        h.reset();
    }
}

/// A point-in-time copy of the whole registry. Mergeable (associative and
/// commutative, like its histograms) so multi-process fleets can fold
/// per-worker snapshots into one artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            let merged = match out.histograms.get(k) {
                Some(mine) => mine.merge(v),
                None => v.clone(),
            };
            out.histograms.insert(k.clone(), merged);
        }
        out
    }

    /// Serialize through the workspace JSON module (deterministic member
    /// order: the registry maps are sorted by name).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::count(*v as usize)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshot every registered metric, dropping empty histograms.
pub fn snapshot_metrics() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, c)| (k.to_string(), c.get()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| (k.to_string(), h.snapshot()))
            .collect(),
    }
}

/// Cache a `&'static Counter` handle at the use site:
/// `counter!("pager.pool.hits").incr()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Cache a `&'static Histogram` handle at the use site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;

    #[test]
    fn bucket_index_is_monotone_and_inverts_on_bounds() {
        let mut last = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "bucket index must be monotone at {v}");
            last = i;
            assert!(bucket_lower_bound(i) <= v);
            assert!(i < BUCKETS);
        }
        for i in 0..BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
        }
    }

    #[test]
    fn counters_only_move_while_enabled() {
        let _g = test_guard();
        let c = counter("test.metrics.gate");
        c.reset();
        crate::set_enabled(false);
        c.add(5);
        assert_eq!(c.get(), 0);
        crate::set_enabled(true);
        c.add(5);
        assert_eq!(c.get(), 5);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_snapshot_aggregates() {
        let _g = test_guard();
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_000_106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000_000);
        assert!(s.quantile(0.5) <= 100);
        assert!(s.quantile(1.0) >= 917_504); // bucket lower bound of 1e6
        crate::set_enabled(false);
    }

    #[test]
    fn snapshot_merge_matches_combined_recording() {
        let _g = test_guard();
        crate::set_enabled(true);
        let (a, b, combined) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 1 << 30] {
            a.record(v);
            combined.record(v);
        }
        for v in [0u64, 9, 77_777] {
            b.record(v);
            combined.record(v);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), combined.snapshot());
        crate::set_enabled(false);
    }

    #[test]
    fn metrics_snapshot_serializes_and_merges() {
        let _g = test_guard();
        crate::set_enabled(true);
        counter("test.metrics.snap").reset();
        counter("test.metrics.snap").add(3);
        let one = snapshot_metrics();
        let folded = one.merge(&one);
        assert_eq!(folded.counters["test.metrics.snap"], 6);
        let parsed = Json::parse(&one.to_json().to_string()).unwrap();
        assert!(parsed.get("counters").is_some());
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("test.metrics.snap"))
                .and_then(Json::as_usize),
            Some(3)
        );
        crate::set_enabled(false);
    }
}
