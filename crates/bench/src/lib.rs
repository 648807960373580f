//! Shared helpers for the `exp_*` experiment binaries that regenerate every
//! table and figure of the paper's evaluation
//! (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded results).

use std::path::PathBuf;
use tqs_campaign::{CampaignConfig, EngineKind, OracleSpec, PlanMode, SupervisorConfig, Workload};
use tqs_core::backend::{BuildSpec, EngineConnector};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_pager::EnvFaultPolicy;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

/// The hot-path workload mix `exp_obs` measures telemetry overhead on: one
/// statement per hot execution path over the standard shopping schema.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hash_join",
        "SELECT T1.goodsId, T2.goodsName FROM T1 INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    ),
    (
        "merge_join",
        "SELECT /*+ MERGE_JOIN(T2) */ T1.goodsId, T2.goodsName FROM T1 \
         INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    ),
    (
        "nested_loop_join",
        "SELECT /*+ NL_JOIN(T2) */ T1.goodsId, T2.goodsName FROM T1 \
         INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    ),
    (
        "three_way_join",
        "SELECT T3.price FROM T1 INNER JOIN T2 ON T1.goodsId = T2.goodsId \
         INNER JOIN T3 ON T2.goodsName = T3.goodsName",
    ),
    (
        "cross_join",
        "SELECT T2.goodsId FROM T1 CROSS JOIN T4 CROSS JOIN T2",
    ),
    (
        "group_by",
        "SELECT T2.goodsName, COUNT(*) AS cnt FROM T1 INNER JOIN T2 \
         ON T1.goodsId = T2.goodsId GROUP BY T2.goodsName",
    ),
    (
        "subquery_filter",
        "SELECT T1.orderId FROM T1 WHERE T1.goodsId IN \
         (SELECT T2.goodsId FROM T2 WHERE T2.goodsName = 'book')",
    ),
];

/// The standard testing database used across experiments: the shopping-order
/// wide table (the paper's running example) with 2–5% key noise.
pub fn standard_dsg(n_rows: usize, seed: u64) -> DsgConfig {
    DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows,
            seed,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: seed ^ 0xABCD,
            max_injections: 32,
        }),
    }
}

/// Build a TQS session against the *faulty* build of `profile`.
pub fn standard_session(profile: ProfileId, iterations: usize, seed: u64) -> TqsSession {
    TqsSession::builder()
        .connector(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Faulty,
            profile,
        ))
        .dsg(DsgDatabase::build(&standard_dsg(250, seed)))
        .config(TqsConfig {
            iterations,
            queries_per_hour: iterations.div_ceil(24).max(1),
            ..Default::default()
        })
        .build()
        .expect("engine connector accepts the standard catalog")
}

/// Iteration budget: `TQS_ITER` env var or the default.
pub fn budget(default: usize) -> usize {
    std::env::var("TQS_ITER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A `usize` environment knob with a default.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The standard hunt campaign, built from the shared `TQS_CAMPAIGN_*`
/// environment knobs:
///
/// * `TQS_CAMPAIGN_QUERIES` — query budget per cell (default 150)
/// * `TQS_CAMPAIGN_SHARDS` — wide-table shards (default 4)
/// * `TQS_CAMPAIGN_WORKERS` — worker threads (default 4)
/// * `TQS_CAMPAIGN_DIR` — campaign directory (default `target/exp_campaign`)
///
/// `exp_campaign` hunts it and `exp_reverify` re-verifies its corpus, so the
/// campaign *identity* (seed, recipe, grid, budget) lives in exactly one
/// place — a knob mismatch between the two binaries is caught by the
/// checkpoint-header check instead of silently re-verifying a different hunt.
pub fn standard_campaign_config() -> CampaignConfig {
    CampaignConfig {
        dir: std::env::var("TQS_CAMPAIGN_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/exp_campaign")),
        dsg: standard_dsg(240, 77),
        shards: env_usize("TQS_CAMPAIGN_SHARDS", 4),
        workers: env_usize("TQS_CAMPAIGN_WORKERS", 4),
        profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
        engines: vec![EngineKind::Row, EngineKind::Disk],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: env_usize("TQS_CAMPAIGN_QUERIES", 150),
        seed: 0xCA3A,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// The plan-space hunt campaign driven by `exp_plans`: every cell runs in
/// [`PlanMode::Space`] — each generated statement is lowered through the
/// optimizer, its plan space enumerated, and every enumerated plan executed
/// against the wide-table ground truth — across all three engines on faulty
/// builds (which seed the `FaultKind::OPTIMIZER` complement into the
/// enumerator). Environment knobs:
///
/// * `TQS_PLANS_QUERIES` — query budget per cell (default 40)
/// * `TQS_PLANS_SHARDS` — wide-table shards (default 2)
/// * `TQS_PLANS_WORKERS` — worker threads (default 2)
/// * `TQS_PLANS_DIR` — campaign directory (default `target/exp_plans`)
pub fn plan_campaign_config() -> CampaignConfig {
    CampaignConfig {
        dir: std::env::var("TQS_PLANS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/exp_plans")),
        dsg: standard_dsg(200, 77),
        shards: env_usize("TQS_PLANS_SHARDS", 2),
        workers: env_usize("TQS_PLANS_WORKERS", 2),
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row, EngineKind::Columnar, EngineKind::Disk],
        plan_modes: vec![PlanMode::Space],
        workloads: vec![Workload::Select],
        queries_per_cell: env_usize("TQS_PLANS_QUERIES", 40),
        seed: 0x91A5,
        minimize: false,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// The supervised chaos campaign driven by `exp_chaos`: a small select+DML
/// grid with *no* injected failures. `exp_chaos` runs it once as-is for the
/// fault-free reference, then again with [`chaos_supervisor`] layered on and
/// asserts the surviving bug-class sets are identical. Environment knobs:
///
/// * `TQS_CHAOS_QUERIES` — query budget per cell (default 40)
/// * `TQS_CHAOS_WORKERS` — worker threads (default 2)
/// * `TQS_CHAOS_DIR` — campaign directory (default `target/exp_chaos`)
pub fn chaos_campaign_config() -> CampaignConfig {
    CampaignConfig {
        dir: std::env::var("TQS_CHAOS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/exp_chaos")),
        dsg: standard_dsg(160, 77),
        shards: 3,
        workers: env_usize("TQS_CHAOS_WORKERS", 2),
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row, EngineKind::Columnar],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select, Workload::Dml],
        queries_per_cell: env_usize("TQS_CHAOS_QUERIES", 40),
        seed: 0xC4A0,
        minimize: false,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// The chaos supervisor layered onto [`chaos_campaign_config`] for the
/// faulted leg: seeded panics in a deterministic subset of cells plus
/// environmental IO faults on every corpus/checkpoint append. Knobs:
///
/// * `TQS_CHAOS_PANIC_PCT` — percentage of cells that panic (default 40)
/// * `TQS_CHAOS_FAULT_PCT` — per-IO-op injected fault rate (default 25)
pub fn chaos_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        chaos_panic_pct: env_usize("TQS_CHAOS_PANIC_PCT", 40).min(100) as u8,
        // Over the default 12-cell grid this seed picks 4 panicking cells,
        // 2 of them persistent — both retry and quarantine get exercised.
        chaos_seed: 0xd,
        env_faults: EnvFaultPolicy::seeded(9, env_usize("TQS_CHAOS_FAULT_PCT", 25).min(100) as u8),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_session_builds_for_every_profile() {
        for p in ProfileId::ALL {
            let s = standard_session(p, 5, 1);
            assert_eq!(s.connector.info().name, p.name());
        }
        assert_eq!(budget(42), 42);
    }
}
