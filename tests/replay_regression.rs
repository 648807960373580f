//! Replay-from-log regression (ROADMAP item): a recorded bug-hunt session,
//! served back by `ReplayConnector`, reproduces the original run bit-for-bit
//! — same counts, same timelines — without the engine ever being present.

use tqs_core::backend::{
    BuildSpec, DbmsConnector, EngineConnector, EngineKind, RecordingConnector,
};
use tqs_core::baselines::{run_oracle_on, BaselineConfig};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::oracle::TqsOracle;
use tqs_core::tqs::RunStats;
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn dsg() -> DsgDatabase {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 150,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 8,
            max_injections: 16,
        }),
    })
}

fn hunt_cfg() -> BaselineConfig {
    BaselineConfig {
        iterations: 100,
        queries_per_hour: 20,
        seed: 4242,
    }
}

fn assert_same_run(a: &RunStats, b: &RunStats) {
    assert_eq!(a.dbms, b.dbms);
    assert_eq!(a.tool, b.tool);
    assert_eq!(a.queries_generated, b.queries_generated);
    assert_eq!(a.queries_executed, b.queries_executed);
    assert_eq!(a.queries_skipped, b.queries_skipped);
    assert_eq!(a.diversity, b.diversity);
    assert_eq!(a.bug_count, b.bug_count);
    assert_eq!(a.bug_type_count, b.bug_type_count);
    let timeline = |t: &[tqs_core::tqs::TimelinePoint]| -> Vec<(usize, usize)> {
        t.iter().map(|p| (p.hour, p.value)).collect()
    };
    assert_eq!(timeline(&a.bug_timeline), timeline(&b.bug_timeline));
    assert_eq!(
        timeline(&a.diversity_timeline),
        timeline(&b.diversity_timeline)
    );
    assert_eq!(
        timeline(&a.bug_type_timeline),
        timeline(&b.bug_type_timeline)
    );
}

#[test]
fn a_replayed_hunt_reproduces_the_recorded_session_exactly() {
    let d = dsg();

    // 1. Record a ground-truth hunt on the faulty TiDB-like build.
    let mut rec = RecordingConnector::new(EngineKind::Row.faulty(ProfileId::TidbLike));
    rec.load_catalog(&d.db.catalog).unwrap();
    let live = run_oracle_on(&mut TqsOracle::new(&d), None, &mut rec, &d, &hunt_cfg());
    assert!(live.bug_count > 0, "the recorded hunt must catch bugs");

    // 2. Replay: the identical hunt configuration against the trace alone —
    //    no engine behind the connector, outcomes served from the log.
    let mut replay = rec.replay();
    let replayed = run_oracle_on(&mut TqsOracle::new(&d), None, &mut replay, &d, &hunt_cfg());
    assert_same_run(&live, &replayed);

    // 3. And again — replay is repeatable, the regression suite property.
    let mut replay = rec.replay();
    let again = run_oracle_on(&mut TqsOracle::new(&d), None, &mut replay, &d, &hunt_cfg());
    assert_same_run(&live, &again);
}

#[test]
fn replay_differs_when_the_recorded_build_differs() {
    // The trace is the single source of truth: replaying a pristine
    // recording yields a clean run even though the query stream is the same.
    let d = dsg();
    let mut rec = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Pristine,
        ProfileId::TidbLike,
    ));
    rec.load_catalog(&d.db.catalog).unwrap();
    let live = run_oracle_on(&mut TqsOracle::new(&d), None, &mut rec, &d, &hunt_cfg());
    assert_eq!(live.bug_count, 0);
    let mut replay = rec.replay();
    let replayed = run_oracle_on(&mut TqsOracle::new(&d), None, &mut replay, &d, &hunt_cfg());
    assert_eq!(replayed.bug_count, 0);
    assert_eq!(live.queries_executed, replayed.queries_executed);
}
