//! Campaign and re-verification statistics.
//!
//! Each hunt cell counts what it did and hands the counts back with its
//! outcome; `Campaign::run` adds them into the run's [`CampaignStats`] as the
//! cell retires, on the run thread.

use std::time::Duration;

/// Totals carried over from a campaign's previous runs, replayed from the
/// checkpoint journal's run records on resume. Keeping them separate from
/// this run's counters lets the per-run numbers stay honest while
/// `queries_per_sec` reports *cumulative* throughput — a killed-and-resumed
/// campaign does not reset its clock and briefly report an inflated (then
/// deflated) rate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    pub elapsed: Duration,
    pub queries: usize,
    pub statements: usize,
    pub plans: usize,
}

/// What one run of a campaign did. Counters are per *run* — a resumed
/// campaign starts fresh counters but carries its class/cell totals forward
/// — while `prior` holds the previous runs' totals so the throughput rate
/// stays cumulative across kill/resume.
#[derive(Debug, Clone, Default)]
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

    /// Fleet throughput: oracle-exercised statements per wall-clock second,
    /// cumulative across resume — the rate doesn't reset when a killed
    /// campaign restarts.
    pub fn queries_per_sec(&self) -> f64 {
        self.total_queries() as f64 / self.total_elapsed().as_secs_f64().max(1e-9)
    }

    /// Raw sightings per distinct class this run — how hard the fleet would
    /// drown a human without fingerprint triage. 0 when nothing was found.
    pub fn dedup_ratio(&self) -> f64 {
        if self.new_classes == 0 {
            return 0.0;
        }
        self.raw_reports as f64 / self.new_classes as f64
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
    fn dedup_ratio_is_zero_without_classes() {
        let stats = CampaignStats {
            raw_reports: 3,
            ..Default::default()
        };
        assert_eq!(stats.dedup_ratio(), 0.0);
        let stats = CampaignStats {
            new_classes: 2,
            ..stats
        };
        assert!((stats.dedup_ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rates_are_cumulative_across_prior_runs() {
        // A resumed campaign's rate must blend the previous runs' totals
        // with this run's counters instead of restarting the clock.
        let prior = RunTotals {
            elapsed: Duration::from_secs(10),
            queries: 1_000,
            statements: 3_000,
            plans: 5_000,
        };
        let stats = CampaignStats {
            elapsed: Duration::from_millis(1),
            prior,
            queries: 50,
            ..Default::default()
        };
        assert_eq!(stats.total_queries(), 1_050);
        assert!(stats.total_elapsed() >= prior.elapsed);
        // The run just started, so its own rate would be 50 / 1 ms; the
        // cumulative rate is dominated by the 10 prior seconds instead.
        let rate = stats.queries_per_sec();
        assert!((rate - 1_050.0 / 10.001).abs() < 1e-6, "{rate}");
    }
}
