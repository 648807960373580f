//! The differential oracle asks its reference panel once per statement per
//! unit, whatever the number of hint sets: counting decorators around the
//! references show every other hint set and every repeat answered from the
//! memo, the memo dropped by `begin_unit` and `reference_mut`, and a failed
//! reference asked again by the next hint set; the
//! `core.oracle.panel.{executions,memo_hits}` counters agree.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use std::cell::Cell;
use std::rc::Rc;

use tqs_core::backend::{
    ConnectorError, ConnectorInfo, DbmsConnector, EngineConnector, EngineKind, SqlOutcome,
};
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::hintgen::hint_sets_for;
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict};
use tqs_engine::ProfileId;
use tqs_sql::ast::SelectStmt;
use tqs_sql::hints::HintSet;
use tqs_storage::widegen::ShoppingConfig;
use tqs_storage::Catalog;

/// A reference that counts its executions and fails the first `failures`.
struct Counting {
    inner: EngineConnector,
    calls: Rc<Cell<usize>>,
    failures: usize,
}

impl Counting {
    fn boxed(inner: EngineConnector, failures: usize) -> (Box<dyn DbmsConnector>, Rc<Cell<usize>>) {
        let calls = Rc::new(Cell::new(0));
        let conn = Counting {
            inner,
            calls: Rc::clone(&calls),
            failures,
        };
        (Box::new(conn), calls)
    }
}

impl DbmsConnector for Counting {
    fn info(&self) -> ConnectorInfo {
        self.inner.info()
    }

    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError> {
        self.inner.load_catalog(catalog)
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        self.calls.set(self.calls.get() + 1);
        if self.calls.get() <= self.failures {
            return Err(ConnectorError::new("transient failure"));
        }
        self.inner.execute_with_hints(stmt, hints)
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        self.inner.explain(stmt)
    }
}

/// `(executions, memo_hits)` since the last reset.
fn panel_metrics() -> (u64, u64) {
    let counters = tqs_telemetry::snapshot_metrics().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        get("core.oracle.panel.executions"),
        get("core.oracle.panel.memo_hits"),
    )
}

/// `core.oracle.judge.ns` samples since the last reset.
fn judgements() -> u64 {
    let snapshot = tqs_telemetry::snapshot_metrics();
    snapshot
        .histograms
        .get("core.oracle.judge.ns")
        .map_or(0, |h| h.count)
}

#[test]
fn the_panel_answers_each_statement_once_per_unit() {
    let d = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    });
    let profile = ProfileId::MysqlLike;
    let mut disk = EngineKind::Disk.connect_pristine(profile, &d);
    // A statement with several hint sets, all of which the build under test
    // executes: then every hint set is judged against the panel's answer.
    let mut gen = QueryGenerator::new(Default::default());
    let (stmt, n) = (0..50)
        .map(|_| gen.generate(&d, None, &UniformScorer))
        .find_map(|stmt| {
            let sets = hint_sets_for(profile, &stmt);
            let all_run = sets
                .iter()
                .all(|hs| disk.execute_with_hints(&stmt, hs).is_ok());
            (sets.len() >= 3 && all_run).then_some((stmt, sets.len()))
        })
        .expect("a multi-hint-set statement the disk build executes");
    let pristine = |kind: EngineKind| kind.connect_pristine(profile, &d);

    tqs_telemetry::set_enabled(true);
    tqs_telemetry::reset_metrics();

    let (row, row_calls) = Counting::boxed(pristine(EngineKind::Row), 0);
    let (col, col_calls) = Counting::boxed(pristine(EngineKind::Columnar), 0);
    let mut panel = DifferentialOracle::panel(vec![row, col]);
    let calls = || (row_calls.get(), col_calls.get());

    // Two checks of one statement in one unit: each reference executes once,
    // for the first hint set, and every hint set is judged against the first
    // reference's answer. The repeat makes one judgement per hint set and
    // asks nobody.
    panel.begin_unit();
    assert!(matches!(panel.check(&stmt, &mut disk), OracleVerdict::Pass));
    assert_eq!(calls(), (1, 1));
    assert_eq!(judgements(), n as u64, "a first sighting: one per hint set");
    assert!(matches!(panel.check(&stmt, &mut disk), OracleVerdict::Pass));
    assert_eq!(calls(), (1, 1), "the repeat is answered from the memo");
    assert_eq!(judgements(), 2 * n as u64, "a repeat: one per hint set");
    assert_eq!(panel_metrics(), (1, 2 * n as u64 - 1));

    // A new unit and a changed reference both forget the answer.
    panel.begin_unit();
    panel.check(&stmt, &mut disk);
    assert_eq!(calls(), (2, 2), "after begin_unit");
    panel.reference_mut();
    panel.check(&stmt, &mut disk);
    assert_eq!(calls(), (3, 3), "after reference_mut");
    assert_eq!(panel_metrics(), (3, 4 * n as u64 - 3));

    // A reference that fails once: the first hint set is skipped and nothing
    // is remembered, so the second hint set asks the panel again; its answer
    // serves the rest of the check and the repeat.
    tqs_telemetry::reset_metrics();
    let (row, row_calls) = Counting::boxed(pristine(EngineKind::Row), 0);
    let (col, col_calls) = Counting::boxed(pristine(EngineKind::Columnar), 1);
    let mut flaky = DifferentialOracle::panel(vec![row, col]);
    assert!(matches!(flaky.check(&stmt, &mut disk), OracleVerdict::Pass));
    assert_eq!((row_calls.get(), col_calls.get()), (2, 2));
    assert!(matches!(flaky.check(&stmt, &mut disk), OracleVerdict::Pass));
    assert_eq!((row_calls.get(), col_calls.get()), (2, 2));
    assert_eq!(panel_metrics(), (2, 2 * n as u64 - 2));

    // Off: the memo still works, the books stay shut.
    tqs_telemetry::set_enabled(false);
    tqs_telemetry::reset_metrics();
    flaky.begin_unit();
    flaky.check(&stmt, &mut disk);
    flaky.check(&stmt, &mut disk);
    assert_eq!((row_calls.get(), col_calls.get()), (3, 3));
    assert_eq!(panel_metrics(), (0, 0));
}
