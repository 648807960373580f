//! Live and final campaign statistics.
//!
//! Workers publish progress through a shared, lock-free [`LiveStats`]; a
//! monitor (or the final report) snapshots it into [`CampaignStats`], the
//! machine-readable record the status endpoint serves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tqs_telemetry::Json;

/// Totals carried over from a campaign's previous runs, replayed from the
/// checkpoint journal's run records on resume. Keeping them separate from
/// the live counters lets the per-run numbers stay honest while the rates
/// (`queries_per_sec`, `plans_per_sec`) report *cumulative* throughput —
/// a killed-and-resumed campaign no longer resets its clock and briefly
/// reports inflated (then deflated) rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    pub elapsed: Duration,
    pub queries: usize,
    pub statements: usize,
    pub plans: usize,
}

/// Shared atomic counters the worker fleet bumps as it hunts.
#[derive(Debug)]
pub struct LiveStats {
    started: Instant,
    /// Totals from this campaign's previous runs (zero for a fresh start).
    prior: RunTotals,
    /// Statements the oracles actually exercised (skips excluded).
    queries: AtomicUsize,
    /// Engine-level statements executed (every hinted plan, replay and
    /// minimization probe behind each oracle-level query) — the counter the
    /// execution hot path drives directly.
    statements: AtomicUsize,
    /// Optimizer-enumerated plans executed (plan-space cells only) — the
    /// paper's coverage unit: the same statement steered onto many plans.
    plans: AtomicUsize,
    /// Raw (pre-dedup) bug reports.
    raw_reports: AtomicUsize,
    /// Bug classes newly discovered this run.
    new_classes: AtomicUsize,
    /// Cells fully drained this run.
    cells_drained: AtomicUsize,
    /// Distinct isomorphic query structures explored so far (published by
    /// the fleet so live status readers see it mid-run).
    diversity: AtomicUsize,
    /// Worker panics caught and converted into `HarnessPanic` classes.
    panics_caught: AtomicUsize,
    /// Cell attempts retried after a failure (panic or IO error).
    retries: AtomicUsize,
    /// Cells quarantined after exhausting their retry budget.
    quarantined: AtomicUsize,
    /// Cells checkpointed complete-with-timeout (wall-clock deadline hit).
    deadline_cells: AtomicUsize,
}

impl LiveStats {
    /// Start a run's counters with the totals of the campaign's previous
    /// runs already on the books.
    pub fn start_with_prior(prior: RunTotals) -> LiveStats {
        LiveStats {
            started: Instant::now(),
            prior,
            queries: AtomicUsize::new(0),
            statements: AtomicUsize::new(0),
            plans: AtomicUsize::new(0),
            raw_reports: AtomicUsize::new(0),
            new_classes: AtomicUsize::new(0),
            cells_drained: AtomicUsize::new(0),
            diversity: AtomicUsize::new(0),
            panics_caught: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            deadline_cells: AtomicUsize::new(0),
        }
    }

    pub(crate) fn add_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_deadline_cell(&self) {
        self.deadline_cells.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_queries(&self, n: usize) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_statements(&self, n: usize) {
        self.statements.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_plans(&self, n: usize) {
        self.plans.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_raw_reports(&self, n: usize) {
        self.raw_reports.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_new_class(&self) {
        self.new_classes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cell_drained(&self) {
        self.cells_drained.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the campaign's current structural-diversity count so live
    /// status readers see it without touching the campaign's locks.
    pub(crate) fn set_diversity(&self, n: usize) {
        self.diversity.store(n, Ordering::Relaxed);
    }

    pub(crate) fn cells_drained(&self) -> usize {
        self.cells_drained.load(Ordering::Relaxed)
    }

    pub(crate) fn new_classes_found(&self) -> usize {
        self.new_classes.load(Ordering::Relaxed)
    }

    /// This run's totals in journal-record form (what
    /// `Checkpoint::append_run_with` persists so the next resume carries the
    /// clock forward).
    pub(crate) fn run_totals(&self) -> RunTotals {
        RunTotals {
            elapsed: self.started.elapsed(),
            queries: self.queries.load(Ordering::Relaxed),
            statements: self.statements.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the counters. `total_classes`/`cells_total`/
    /// `torn_tails_repaired` come from the campaign (they include state
    /// resumed from disk, which the live counters deliberately do not).
    pub fn snapshot(
        &self,
        cells_total: usize,
        cells_done: usize,
        total_classes: usize,
        torn_tails_repaired: usize,
    ) -> CampaignStats {
        CampaignStats {
            elapsed: self.started.elapsed(),
            prior: self.prior,
            queries: self.queries.load(Ordering::Relaxed),
            statements: self.statements.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
            raw_reports: self.raw_reports.load(Ordering::Relaxed),
            new_classes: self.new_classes.load(Ordering::Relaxed),
            cells_drained: self.cells_drained.load(Ordering::Relaxed),
            cells_done,
            cells_total,
            bug_classes: total_classes,
            diversity: self.diversity.load(Ordering::Relaxed),
            torn_tails_repaired,
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            deadline_cells: self.deadline_cells.load(Ordering::Relaxed),
        }
    }
}

/// One snapshot of campaign progress. Counters are per *run* — a resumed
/// campaign starts fresh counters but carries its class/cell totals forward
/// — while `prior` holds the previous runs' totals so the throughput rates
/// stay cumulative across kill/resume.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    pub elapsed: Duration,
    /// Totals from the campaign's previous runs (zero for a fresh start).
    pub prior: RunTotals,
    /// Statements exercised this run.
    pub queries: usize,
    /// Engine-level statements executed this run (hinted plans, replays and
    /// minimization probes included).
    pub statements: usize,
    /// Optimizer-enumerated plans executed this run (plan-space cells only).
    pub plans: usize,
    /// Raw bug reports this run (pre-dedup).
    pub raw_reports: usize,
    /// Classes newly discovered this run.
    pub new_classes: usize,
    /// Cells drained this run.
    pub cells_drained: usize,
    /// Cells done overall, including previous runs of the campaign.
    pub cells_done: usize,
    pub cells_total: usize,
    /// Deduplicated bug classes overall (resumed state included).
    pub bug_classes: usize,
    /// Distinct isomorphic query structures explored this run.
    pub diversity: usize,
    /// Campaign files (checkpoint journal, corpus) whose torn final line —
    /// left by a kill mid-append — was truncated when this campaign resumed.
    pub torn_tails_repaired: usize,
    /// Worker panics caught and converted into `HarnessPanic` classes this
    /// run.
    pub panics_caught: usize,
    /// Cell attempts retried this run (after a panic or IO failure).
    pub retries: usize,
    /// Cells quarantined to the poison list this run.
    pub quarantined: usize,
    /// Cells checkpointed complete-with-timeout this run.
    pub deadline_cells: usize,
}

impl CampaignStats {
    /// Wall-clock across every run of the campaign, this one included.
    pub(crate) fn total_elapsed(&self) -> Duration {
        self.elapsed + self.prior.elapsed
    }

    /// Oracle-exercised statements across every run.
    pub(crate) fn total_queries(&self) -> usize {
        self.queries + self.prior.queries
    }

    /// Engine-level statements across every run.
    pub(crate) fn total_statements(&self) -> usize {
        self.statements + self.prior.statements
    }

    /// Optimizer-enumerated plans across every run.
    pub(crate) fn total_plans(&self) -> usize {
        self.plans + self.prior.plans
    }

    /// Fleet throughput: oracle-exercised statements per wall-clock second,
    /// cumulative across resume — the rate doesn't reset when a killed
    /// campaign restarts.
    pub fn queries_per_sec(&self) -> f64 {
        self.total_queries() as f64 / self.total_elapsed().as_secs_f64().max(1e-9)
    }

    /// Raw engine throughput: statements executed per wall-clock second —
    /// the rate the allocation-free execution path feeds directly.
    /// Cumulative across resume.
    pub(crate) fn statements_per_sec(&self) -> f64 {
        self.total_statements() as f64 / self.total_elapsed().as_secs_f64().max(1e-9)
    }

    /// Plan-space throughput: optimizer-enumerated plans executed per
    /// wall-clock second — the paper's coverage rate. Cumulative across
    /// resume.
    pub(crate) fn plans_per_sec(&self) -> f64 {
        self.total_plans() as f64 / self.total_elapsed().as_secs_f64().max(1e-9)
    }

    /// Raw divergence sightings per hour — the flood the triage collapses.
    pub(crate) fn raw_reports_per_hour(&self) -> f64 {
        self.raw_reports as f64 / (self.elapsed.as_secs_f64().max(1e-9) / 3600.0)
    }

    /// Newly discovered bug classes per hour of campaign time.
    pub(crate) fn bugs_per_hour(&self) -> f64 {
        self.new_classes as f64 / (self.elapsed.as_secs_f64().max(1e-9) / 3600.0)
    }

    /// Raw sightings per distinct class this run — how hard the fleet would
    /// drown a human without fingerprint triage. 0 when nothing was found.
    pub fn dedup_ratio(&self) -> f64 {
        if self.new_classes == 0 {
            return 0.0;
        }
        self.raw_reports as f64 / self.new_classes as f64
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "elapsed_sec".to_string(),
                Json::Num(self.elapsed.as_secs_f64()),
            ),
            (
                "prior_elapsed_sec".to_string(),
                Json::Num(self.prior.elapsed.as_secs_f64()),
            ),
            (
                "total_elapsed_sec".to_string(),
                Json::Num(self.total_elapsed().as_secs_f64()),
            ),
            ("queries".to_string(), Json::count(self.queries)),
            (
                "total_queries".to_string(),
                Json::count(self.total_queries()),
            ),
            (
                "queries_per_sec".to_string(),
                Json::Num(self.queries_per_sec()),
            ),
            ("statements".to_string(), Json::count(self.statements)),
            (
                "total_statements".to_string(),
                Json::count(self.total_statements()),
            ),
            (
                "statements_per_sec".to_string(),
                Json::Num(self.statements_per_sec()),
            ),
            ("plans".to_string(), Json::count(self.plans)),
            ("total_plans".to_string(), Json::count(self.total_plans())),
            ("plans_per_sec".to_string(), Json::Num(self.plans_per_sec())),
            ("raw_reports".to_string(), Json::count(self.raw_reports)),
            (
                "raw_reports_per_hour".to_string(),
                Json::Num(self.raw_reports_per_hour()),
            ),
            ("new_classes".to_string(), Json::count(self.new_classes)),
            ("bug_classes".to_string(), Json::count(self.bug_classes)),
            ("bugs_per_hour".to_string(), Json::Num(self.bugs_per_hour())),
            ("dedup_ratio".to_string(), Json::Num(self.dedup_ratio())),
            ("cells_drained".to_string(), Json::count(self.cells_drained)),
            ("cells_done".to_string(), Json::count(self.cells_done)),
            ("cells_total".to_string(), Json::count(self.cells_total)),
            ("diversity".to_string(), Json::count(self.diversity)),
            (
                "torn_tails_repaired".to_string(),
                Json::count(self.torn_tails_repaired),
            ),
            ("panics_caught".to_string(), Json::count(self.panics_caught)),
            ("retries".to_string(), Json::count(self.retries)),
            ("quarantined".to_string(), Json::count(self.quarantined)),
            (
                "deadline_cells".to_string(),
                Json::count(self.deadline_cells),
            ),
        ])
    }
}

/// Summary of one re-verification run ([`crate::reverify::ReverifyCampaign`]):
/// how the persisted bug classes fared against each engine build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReverifyStats {
    pub elapsed: Duration,
    /// Corpus entries examined (one per persisted bug class).
    pub entries: usize,
    /// Engine builds each class was re-executed against.
    pub builds: usize,
    /// Per-(class, build) verdicts issued (`entries × builds`).
    pub verdicts: usize,
    pub still_failing: usize,
    pub fixed: usize,
    pub flaky: usize,
    pub stale: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_live_counters_and_campaign_totals() {
        let live = LiveStats::start_with_prior(RunTotals::default());
        live.add_queries(10);
        live.add_queries(5);
        live.add_plans(34);
        live.add_raw_reports(6);
        live.add_new_class();
        live.add_new_class();
        live.cell_drained();
        live.set_diversity(17);
        let s = live.snapshot(8, 5, 4, 1);
        assert_eq!(s.queries, 15);
        assert_eq!(s.plans, 34);
        assert_eq!(s.raw_reports, 6);
        assert_eq!(s.new_classes, 2);
        assert_eq!(s.cells_drained, 1);
        assert_eq!(s.cells_done, 5);
        assert_eq!(s.cells_total, 8);
        assert_eq!(s.bug_classes, 4);
        assert_eq!(s.diversity, 17);
        assert_eq!(s.torn_tails_repaired, 1);
        assert!((s.dedup_ratio() - 3.0).abs() < 1e-9);
        assert!(s.queries_per_sec() > 0.0);
    }

    #[test]
    fn supervision_counters_flow_into_the_snapshot() {
        let live = LiveStats::start_with_prior(RunTotals::default());
        live.add_panic_caught();
        live.add_panic_caught();
        live.add_retry();
        live.add_retry();
        live.add_retry();
        live.add_quarantined();
        live.add_deadline_cell();
        let s = live.snapshot(4, 4, 0, 0);
        assert_eq!(s.panics_caught, 2);
        assert_eq!(s.retries, 3);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.deadline_cells, 1);
        let parsed = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("panics_caught").unwrap().as_usize(), Some(2));
        assert_eq!(parsed.get("quarantined").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn json_snapshot_has_the_bench_fields() {
        let live = LiveStats::start_with_prior(RunTotals::default());
        live.add_queries(4);
        live.set_diversity(3);
        let j = live.snapshot(2, 2, 1, 0).to_json();
        let parsed = Json::parse(&j.to_string()).unwrap();
        for key in [
            "elapsed_sec",
            "prior_elapsed_sec",
            "total_elapsed_sec",
            "queries",
            "total_queries",
            "queries_per_sec",
            "plans",
            "total_plans",
            "plans_per_sec",
            "raw_reports",
            "bug_classes",
            "dedup_ratio",
            "cells_total",
            "diversity",
            "torn_tails_repaired",
            "panics_caught",
            "retries",
            "quarantined",
            "deadline_cells",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        assert_eq!(parsed.get("queries").unwrap().as_usize(), Some(4));
    }

    #[test]
    fn dedup_ratio_is_zero_without_classes() {
        let live = LiveStats::start_with_prior(RunTotals::default());
        live.add_raw_reports(3);
        assert_eq!(live.snapshot(1, 0, 0, 0).dedup_ratio(), 0.0);
    }

    #[test]
    fn rates_are_cumulative_across_prior_runs() {
        // A resumed campaign's rates must blend the previous runs' totals
        // with this run's counters instead of restarting the clock.
        let prior = RunTotals {
            elapsed: Duration::from_secs(10),
            queries: 1_000,
            statements: 3_000,
            plans: 5_000,
        };
        let live = LiveStats::start_with_prior(prior);
        live.add_queries(50);
        live.add_statements(150);
        live.add_plans(250);
        let s = live.snapshot(4, 4, 0, 0);
        assert_eq!(s.prior, prior);
        assert_eq!(s.total_queries(), 1_050);
        assert_eq!(s.total_statements(), 3_150);
        assert_eq!(s.total_plans(), 5_250);
        // The live run just started, so elapsed is ~0; cumulative rates are
        // dominated by the 10 prior seconds and cannot spike toward the
        // fresh-clock value of 50 / ~0s.
        assert!(s.total_elapsed() >= prior.elapsed);
        assert!(s.queries_per_sec() <= 1_050.0 / 10.0 + 1.0);
        assert!(s.queries_per_sec() > 0.0);
        let parsed = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("total_queries").unwrap().as_usize(), Some(1_050));
        assert_eq!(parsed.get("queries").unwrap().as_usize(), Some(50));
    }
}
