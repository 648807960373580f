//! The oracles' judge phase is on the books: every result judgement lands in
//! `core.oracle.judge.ns` / `core.oracle.judge.rows`, and the three-way panel
//! makes exactly one per hint set (the first reference's answer against the
//! build under test), whether it asks its references for the statement or
//! answers from its memo; the references are never judged against each other.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::hintgen::hint_sets_for;
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict, TqsOracle};
use tqs_engine::ProfileId;
use tqs_storage::widegen::ShoppingConfig;

/// `(judgements, rows judged)` since the last reset.
fn judge_metrics() -> (u64, u64) {
    let snapshot = tqs_telemetry::snapshot_metrics();
    (
        snapshot
            .histograms
            .get("core.oracle.judge.ns")
            .map_or(0, |h| h.count),
        snapshot
            .counters
            .get("core.oracle.judge.rows")
            .copied()
            .unwrap_or(0),
    )
}

#[test]
fn every_judgement_is_counted_and_the_panel_makes_one_per_hint_set() {
    let d = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    });
    let mut gen = QueryGenerator::new(Default::default());
    let stmts: Vec<_> = (0..20)
        .map(|_| gen.generate(&d, None, &UniformScorer))
        .collect();
    let mut disk = EngineKind::Disk.connect_pristine(ProfileId::MysqlLike, &d);
    let mut tqs = TqsOracle::new(&d);
    let mut panel = DifferentialOracle::panel(vec![
        Box::new(EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d))
            as Box<dyn DbmsConnector>,
        Box::new(EngineKind::Columnar.connect_pristine(ProfileId::MysqlLike, &d)),
    ]);

    // Off: the oracles judge, the books stay empty.
    tqs_telemetry::reset_metrics();
    for stmt in &stmts {
        tqs.check(stmt, &mut disk);
    }
    assert_eq!(judge_metrics(), (0, 0));

    tqs_telemetry::set_enabled(true);
    let mut hint_sets = 0;
    for stmt in &stmts {
        if matches!(tqs.check(stmt, &mut disk), OracleVerdict::Pass) {
            hint_sets += hint_sets_for(ProfileId::MysqlLike, stmt).len() as u64;
        }
    }
    let (judgements, rows) = judge_metrics();
    assert!(hint_sets > 0, "no statement passed the ground-truth oracle");
    assert_eq!(judgements, hint_sets, "one judgement per executed hint set");
    assert!(rows > 0);

    // Each statement is its own unit, so its first check asks the panel once;
    // the repeat of a statement in its unit is answered from the panel's
    // memo. Both make one judgement per hint set.
    tqs_telemetry::reset_metrics();
    let mut hint_sets = 0;
    let mut repeats = 0;
    for stmt in &stmts {
        panel.begin_unit();
        if matches!(panel.check(stmt, &mut disk), OracleVerdict::Pass) {
            hint_sets += hint_sets_for(ProfileId::MysqlLike, stmt).len() as u64;
            let before = judge_metrics().0;
            assert!(matches!(panel.check(stmt, &mut disk), OracleVerdict::Pass));
            repeats += judge_metrics().0 - before;
        }
    }
    tqs_telemetry::set_enabled(false);
    assert!(hint_sets > 0, "no statement passed the panel");
    assert_eq!(judge_metrics().0, hint_sets + repeats);
    assert_eq!(repeats, hint_sets, "a repeat: one judgement per hint set");
}
