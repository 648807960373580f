//! Figure 10: effect of parallel search — the standard hunt campaign's cell
//! grid drained by 1 to 5 workers on the campaign's work-stealing fleet.
//!
//! Cells are budget-bound and seeded by `(campaign seed, cell id)`, so every
//! point does the same work and finds the same bug classes; what the worker
//! count moves is the wall clock. Sized by the `TQS_CAMPAIGN_*` knobs of
//! [`standard_campaign_config`] (`TQS_CAMPAIGN_WORKERS` is overridden per
//! point); each point hunts in its own sub-directory of `TQS_CAMPAIGN_DIR`.

use tqs_bench::standard_campaign_config;
use tqs_campaign::{Campaign, CampaignConfig};

fn main() {
    let base = standard_campaign_config();
    println!(
        "Figure 10 — parallel search: {} shards × {} profiles × {} oracles × {} engines, \
         {} queries/cell, {} hardware threads",
        base.shards,
        base.profiles.len(),
        base.oracles.len(),
        base.engines.len(),
        base.queries_per_cell,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "workers", "queries", "classes", "diversity", "wall (s)", "queries/s"
    );
    for workers in 1..=5 {
        let dir = base.dir.join(format!("fig10-workers-{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(CampaignConfig {
            dir,
            workers,
            ..base.clone()
        })
        .expect("fresh campaign directory");
        let stats = campaign.run().expect("campaign run");
        assert!(campaign.is_complete());
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10.2} {:>12.1}",
            workers,
            stats.queries,
            stats.bug_classes,
            stats.diversity,
            stats.elapsed.as_secs_f64(),
            stats.queries_per_sec()
        );
    }
}
