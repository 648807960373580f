//! Figure 10: effect of parallel search — one hunt campaign's cell grid
//! drained by 1 to 5 workers on the campaign fleet, which hands out cells
//! in id order from one shared cursor.
//!
//! Cells are budget-bound and seeded by `(campaign seed, cell id)`, so every
//! point does the same work and finds the same bug classes; what the worker
//! count moves is the wall clock. `TQS_ITER` is the query budget per cell;
//! each point hunts in its own sub-directory of `target/exp_fig10`.

use tqs_bench::{budget, standard_dsg};
use tqs_campaign::{Campaign, CampaignConfig, EngineKind, OracleSpec, PlanMode, Workload};
use tqs_engine::ProfileId;

fn main() {
    let base = CampaignConfig {
        dir: "target/exp_fig10".into(),
        dsg: standard_dsg(240, 77),
        shards: 4,
        workers: 1,
        profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
        engines: vec![EngineKind::Row, EngineKind::Disk],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: budget(150),
        seed: 0xCA3A,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    };
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
