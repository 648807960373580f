//! Backend abstraction: the boundary between the TQS harness and the DBMS it
//! drives.
//!
//! The paper's claim is that TQS is DBMS-agnostic — the same harness found
//! logic bugs in MySQL, MariaDB, TiDB and X-DB. [`DbmsConnector`] is that
//! boundary in this reproduction: it captures everything the orchestrator,
//! the baselines, the campaign fleet and the bug minimizer need from a
//! database — statement execution (plain, hinted, or raw SQL), `EXPLAIN`,
//! hint-dialect metadata, catalog loading, and fault-fired introspection.
//!
//! Three implementations ship here:
//!
//! * [`EngineConnector`] — the in-process simulated DBMS, opened in exactly
//!   one way: [`EngineConnector::open`]`(`[`EngineKind`]`, `[`BuildSpec`]`,
//!   ProfileId)`, then [`EngineConnector::loaded`] for a catalog. The kind
//!   picks the executor — row-at-a-time ([`tqs_engine::Database`]),
//!   batch-at-a-time ([`tqs_engine::ColumnarDatabase`]) or
//!   out of a disk-backed page store ([`tqs_engine::DiskDatabase`]) — and the
//!   connector holds it behind the one [`tqs_engine::Engine`] front. The three
//!   executors carry pairwise-disjoint fault complements, which is what makes
//!   cross-engine differential testing
//!   ([`crate::oracle::DifferentialOracle`]) meaningful.
//! * [`RecordingConnector`] — a transparent proxy over any connector that
//!   logs every statement and its full outcome.
//! * [`ReplayConnector`] — serves recorded outcomes back from such a trace,
//!   turning any recorded bug-hunt session into a deterministic regression
//!   suite that runs without the original backend.
//!
//! New backends (a SQLite shim, a networked DBMS) implement the trait without
//! touching the rest of tqs-core; the README's "Writing a new connector"
//! section walks through it, and [`crate::conformance`] provides the shared
//! behavioral test suite every implementation should pass.

use std::collections::HashMap;
use std::fmt;

use tqs_engine::{
    ColumnarDatabase, Database, DbmsProfile, DiskDatabase, Engine, FaultKind, ProfileId,
};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_sql::parser::{parse_dml, parse_stmt};
use tqs_sql::render::render_dml;
use tqs_sql::value::Value;
use tqs_storage::{Catalog, ResultSet, Row};
use tqs_telemetry::QueryProfile;

use crate::dsg::DsgDatabase;

/// Error surfaced by a connector. Deliberately stringly-typed: backends have
/// wildly different error taxonomies, and the harness only ever needs to know
/// that a statement did not produce a result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectorError {
    pub message: String,
}

impl ConnectorError {
    pub fn new(message: impl Into<String>) -> Self {
        ConnectorError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConnectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "connector error: {}", self.message)
    }
}

impl std::error::Error for ConnectorError {}

/// Result of executing one (possibly transformed) statement.
#[derive(Debug, Clone)]
pub struct SqlOutcome {
    pub result: ResultSet,
    /// Fault provenance: which latent faults fired while producing `result`.
    /// Simulated engines report this for the Table 4 root-cause analysis;
    /// connectors to real DBMSs leave it empty (real systems don't confess).
    pub fired: Vec<FaultKind>,
}

/// Static metadata about the backend a connector drives.
#[derive(Debug, Clone)]
pub struct ConnectorInfo {
    /// Display name of the build, e.g. "MySQL-like".
    pub name: String,
    /// Version string of the build.
    pub version: String,
    /// Hint dialect the backend speaks: which profile's hint sets / session
    /// switches `hint_sets_for` should generate when transforming queries.
    pub dialect: ProfileId,
    /// Whether this build carries seeded latent faults. Fault-aware oracles
    /// (the `PlanSpaceOracle`) use this to decide which optimizer fault
    /// complement to enumerate under; connectors to real DBMSs report false.
    pub seeded_faults: bool,
}

/// Everything the TQS harness needs from a DBMS.
///
/// Required methods are [`info`](DbmsConnector::info),
/// [`load_catalog`](DbmsConnector::load_catalog),
/// [`execute_with_hints`](DbmsConnector::execute_with_hints) and
/// [`explain`](DbmsConnector::explain); plain and raw-SQL execution have
/// default implementations in terms of those.
pub trait DbmsConnector {
    /// Name, version and hint dialect of the backend build.
    fn info(&self) -> ConnectorInfo;

    /// Load (or replace) the schema and data the harness will test against.
    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError>;

    /// Execute a transformed query: apply the hint set's session switches,
    /// splice its hints into the statement, execute, restore the session.
    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError>;

    /// `EXPLAIN`: a textual rendering of the plan the backend would choose.
    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError>;

    /// Execute a statement with the default (un-hinted) plan.
    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        self.execute_with_hints(stmt, &HintSet::new("default"))
    }

    /// Execute raw SQL text (parse, then execute).
    fn execute_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        let stmt = parse_stmt(sql).map_err(|e| ConnectorError::new(e.to_string()))?;
        self.execute(&stmt)
    }

    /// Execute one DML or transaction-control statement (INSERT / UPDATE /
    /// DELETE, BEGIN / COMMIT / ROLLBACK). The outcome's result set is a
    /// single `rows_affected` row, so mutation sessions flow through the
    /// same recording/replay machinery as queries. Backends without
    /// mutation support return an error, which drivers count as a skip —
    /// exactly like any other execution failure.
    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        let _ = stmt;
        Err(ConnectorError::new("backend does not support DML"))
    }

    /// Execute raw DML text (parse, then execute).
    fn execute_dml_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        let stmt = parse_dml(sql).map_err(|e| ConnectorError::new(e.to_string()))?;
        self.execute_dml(&stmt)
    }

    /// Operator-level profile (rows in/out, nanoseconds per operator) of the
    /// most recently executed statement — the runtime companion to
    /// [`explain`](DbmsConnector::explain). `None` when the backend doesn't
    /// collect profiles, telemetry is disabled, or nothing ran yet.
    fn query_profile(&self) -> Option<QueryProfile> {
        None
    }
}

/// Shape a [`tqs_engine::DmlOutcome`] as a one-row `rows_affected` result
/// set, keeping the fault provenance — the uniform [`SqlOutcome`] form every
/// trace consumer already understands.
fn dml_sql_outcome(out: &tqs_engine::DmlOutcome) -> SqlOutcome {
    let mut result = ResultSet::new(vec!["rows_affected".to_string()]);
    result
        .rows
        .push(Row::new(vec![Value::Int(out.rows_affected as i64)]));
    SqlOutcome {
        result,
        fired: out.fired.clone(),
    }
}

/// Which executor a build runs on. Each carries its own fault complement
/// (row faults, columnar faults, disk/storage faults), so the kind decides
/// *which* latent bugs are reachable at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The row-at-a-time in-memory executor (the paper's model).
    Row,
    /// The columnar batch executor sharing the optimizer.
    Columnar,
    /// The disk-backed executor over the `tqs-pager` page store (buffer
    /// pool, WAL, leaf chains) with the storage-layer fault complement.
    Disk,
}

impl EngineKind {
    pub const ALL: [EngineKind; 3] = [EngineKind::Row, EngineKind::Columnar, EngineKind::Disk];

    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Row => "row",
            EngineKind::Columnar => "columnar",
            EngineKind::Disk => "disk",
        }
    }

    /// The seeded-fault build of this engine, catalog not yet loaded (so a
    /// recording wrapper can journal the load).
    pub fn faulty(self, profile: ProfileId) -> EngineConnector {
        EngineConnector::open(self, BuildSpec::Faulty, profile)
    }

    /// The fault-free build of this engine, catalog loaded from `dsg`.
    pub fn connect_pristine(self, profile: ProfileId, dsg: &DsgDatabase) -> EngineConnector {
        EngineConnector::open(self, BuildSpec::Pristine, profile).loaded(dsg)
    }
}

/// Which build of a profile runs: with its seeded faults, or with every one
/// of them fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSpec {
    /// The seeded-fault build — what a hunt tests and what produced a corpus.
    Faulty,
    /// The fault-free build of the same profile: soundness tests, reference
    /// panels, "every root cause fixed".
    Pristine,
}

impl BuildSpec {
    pub const ALL: [BuildSpec; 2] = [BuildSpec::Faulty, BuildSpec::Pristine];

    pub fn label(self) -> &'static str {
        match self {
            BuildSpec::Faulty => "faulty",
            BuildSpec::Pristine => "pristine",
        }
    }
}

/// The first connector: the in-process simulated DBMS of [`tqs_engine`] —
/// one engine session, whichever executor runs it.
pub struct EngineConnector {
    engine: Box<dyn Engine + Send>,
    dialect: ProfileId,
    /// Operator profile of the last executed statement (telemetry on only).
    last_profile: Option<QueryProfile>,
}

impl EngineConnector {
    /// The `build` of profile `id` on the `kind` executor, no catalog loaded
    /// yet. Each executor's faulty build carries its own complement: Table 4
    /// on row, [`FaultKind::COLUMNAR`] on columnar, [`FaultKind::DISK`] on
    /// disk (whose page store lives in a per-connector temp directory).
    pub fn open(kind: EngineKind, build: BuildSpec, id: ProfileId) -> Self {
        let of = |faulty: DbmsProfile| match build {
            BuildSpec::Faulty => faulty,
            BuildSpec::Pristine => faulty.fault_free(),
        };
        let empty = Catalog::new();
        let engine: Box<dyn Engine + Send> = match kind {
            EngineKind::Row => Box::new(Database::new(empty, of(DbmsProfile::build(id)))),
            EngineKind::Columnar => {
                Box::new(ColumnarDatabase::new(empty, of(DbmsProfile::columnar(id))))
            }
            EngineKind::Disk => Box::new(
                DiskDatabase::new(empty, of(DbmsProfile::disk(id)))
                    .expect("disk store creation in the temp dir"),
            ),
        };
        EngineConnector {
            engine,
            dialect: id,
            last_profile: None,
        }
    }

    /// This connector with the DSG database's catalog loaded.
    pub fn loaded(mut self, dsg: &DsgDatabase) -> Self {
        self.load_catalog(&dsg.db.catalog)
            .expect("engine catalog load");
        self
    }

    /// Convert an engine outcome, stashing its operator profile so
    /// [`DbmsConnector::query_profile`] can serve it after the call.
    fn finish(
        &mut self,
        r: Result<tqs_engine::ExecOutcome, tqs_engine::EngineError>,
    ) -> Result<SqlOutcome, ConnectorError> {
        self.last_profile = None;
        let out = r.map_err(engine_error)?;
        self.last_profile = out.profile;
        Ok(SqlOutcome {
            result: out.result,
            fired: out.fired,
        })
    }
}

fn engine_error(e: tqs_engine::EngineError) -> ConnectorError {
    ConnectorError::new(e.to_string())
}

impl DbmsConnector for EngineConnector {
    fn info(&self) -> ConnectorInfo {
        let profile = self.engine.profile();
        ConnectorInfo {
            name: profile.info.name.clone(),
            version: profile.info.version.clone(),
            dialect: self.dialect,
            seeded_faults: !profile.faults.is_empty(),
        }
    }

    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError> {
        self.engine
            .load_catalog(catalog.clone())
            .map_err(engine_error)
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        let r = self.engine.execute_with_hints(stmt, hints);
        self.finish(r)
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        self.engine.explain(stmt).map_err(engine_error)
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        let r = self.engine.execute(stmt);
        self.finish(r)
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        self.last_profile = None;
        let out = self.engine.execute_dml(stmt).map_err(engine_error)?;
        Ok(dml_sql_outcome(&out))
    }

    fn query_profile(&self) -> Option<QueryProfile> {
        self.last_profile.clone()
    }
}

/// One entry in a [`RecordingConnector`] trace. Statement entries keep the
/// *full* result set (not just the row count) so a [`ReplayConnector`] can
/// serve the recorded session verbatim.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    LoadCatalog {
        tables: usize,
    },
    Statement {
        /// Hint-set label ("default" for plain execution, "sql" for raw text).
        label: String,
        sql: String,
        /// The recorded outcome, or the error message.
        outcome: Result<SqlOutcome, String>,
    },
    Explain {
        sql: String,
        /// `Ok(plan_text)` or the error message.
        outcome: Result<String, String>,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::LoadCatalog { tables } => write!(f, "LOAD\t{tables} tables"),
            TraceEvent::Statement {
                label,
                sql,
                outcome,
            } => match outcome {
                Ok(out) => write!(
                    f,
                    "EXEC\t{label}\t{sql}\t{} rows\tfired={:?}",
                    out.result.row_count(),
                    out.fired
                ),
                Err(e) => write!(f, "EXEC\t{label}\t{sql}\tERROR: {e}"),
            },
            TraceEvent::Explain { sql, outcome } => match outcome {
                Ok(plan) => write!(f, "EXPLAIN\t{sql}\t{}", plan.replace('\n', "\\n")),
                Err(e) => write!(f, "EXPLAIN\t{sql}\tERROR: {e}"),
            },
        }
    }
}

/// A transparent proxy connector that records every statement sent to the
/// backend and every outcome that came back — the seed of a replay-from-log
/// backend, and a debugging aid when a bug report needs its full session
/// context.
pub struct RecordingConnector<C: DbmsConnector> {
    inner: C,
    trace: Vec<TraceEvent>,
}

impl<C: DbmsConnector> RecordingConnector<C> {
    pub fn new(inner: C) -> Self {
        RecordingConnector {
            inner,
            trace: Vec::new(),
        }
    }

    /// Everything recorded so far, in submission order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Drain the recorded trace, leaving the recorder empty. Long-running
    /// drivers (a campaign worker recording a witness per statement) call
    /// this between statements so the trace holds exactly one statement's
    /// events instead of growing for the whole hunt.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// The trace as a line-oriented text log (one event per line).
    pub fn replay_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.trace {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    pub fn into_inner(self) -> C {
        self.inner
    }

    /// A [`ReplayConnector`] serving this trace (recorded so far).
    pub fn replay(&self) -> ReplayConnector {
        ReplayConnector::from_trace(self.inner.info(), self.trace.clone())
    }

    fn record_statement(
        &mut self,
        label: &str,
        sql: String,
        outcome: &Result<SqlOutcome, ConnectorError>,
    ) {
        self.trace.push(TraceEvent::Statement {
            label: label.to_string(),
            sql,
            outcome: match outcome {
                Ok(o) => Ok(o.clone()),
                Err(e) => Err(e.message.clone()),
            },
        });
    }
}

impl<C: DbmsConnector> DbmsConnector for RecordingConnector<C> {
    fn info(&self) -> ConnectorInfo {
        self.inner.info()
    }

    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError> {
        self.trace.push(TraceEvent::LoadCatalog {
            tables: catalog.len(),
        });
        self.inner.load_catalog(catalog)
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        let out = self.inner.execute_with_hints(stmt, hints);
        self.record_statement(&hints.label, tqs_sql::render::render_stmt(stmt), &out);
        out
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        let out = self.inner.explain(stmt);
        self.trace.push(TraceEvent::Explain {
            sql: tqs_sql::render::render_stmt(stmt),
            outcome: match &out {
                Ok(plan) => Ok(plan.clone()),
                Err(e) => Err(e.message.clone()),
            },
        });
        out
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        let out = self.inner.execute(stmt);
        self.record_statement("default", tqs_sql::render::render_stmt(stmt), &out);
        out
    }

    fn execute_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        let out = self.inner.execute_sql(sql);
        self.record_statement("sql", sql.to_string(), &out);
        out
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        let out = self.inner.execute_dml(stmt);
        self.record_statement("dml", render_dml(stmt), &out);
        out
    }

    fn execute_dml_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        let out = self.inner.execute_dml_sql(sql);
        self.record_statement("dml", sql.to_string(), &out);
        out
    }

    fn query_profile(&self) -> Option<QueryProfile> {
        self.inner.query_profile()
    }
}

/// The replay-from-log backend: serves outcomes recorded by a
/// [`RecordingConnector`] without the original engine. Statements are keyed
/// by `(hint-set label, rendered SQL)` and served in recording order; a key
/// whose queue is exhausted keeps returning its last recorded outcome (the
/// simulated engines are deterministic, so repeats agree). A statement that
/// was never recorded surfaces as a [`ConnectorError`] — which a driver
/// counts as a skip, exactly like any other backend failure.
///
/// Because query generation is seeded, replaying a recorded bug-hunt session
/// with the same session configuration reproduces its statements — and
/// therefore its verdicts — exactly, turning any recorded hunt into a
/// deterministic regression suite.
pub struct ReplayConnector {
    info: ConnectorInfo,
    statements: HashMap<(String, String), std::collections::VecDeque<Result<SqlOutcome, String>>>,
    explains: HashMap<String, std::collections::VecDeque<Result<String, String>>>,
}

impl ReplayConnector {
    /// Build a replay backend from a recorded trace. `info` is what the
    /// replayed backend will report (a [`RecordingConnector`] passes its
    /// inner connector's info through [`RecordingConnector::replay`]).
    pub fn from_trace(info: ConnectorInfo, trace: Vec<TraceEvent>) -> Self {
        let mut statements: HashMap<_, std::collections::VecDeque<_>> = HashMap::new();
        let mut explains: HashMap<_, std::collections::VecDeque<_>> = HashMap::new();
        for ev in trace {
            match ev {
                TraceEvent::LoadCatalog { .. } => {}
                TraceEvent::Statement {
                    label,
                    sql,
                    outcome,
                } => {
                    statements
                        .entry((label, sql))
                        .or_default()
                        .push_back(outcome);
                }
                TraceEvent::Explain { sql, outcome } => {
                    explains.entry(sql).or_default().push_back(outcome);
                }
            }
        }
        ReplayConnector {
            info,
            statements,
            explains,
        }
    }

    /// Does the trace hold an outcome for `(label, sql)`? Re-verification
    /// uses this to tell a *stale* witness (the failing statement was never
    /// recorded, so the trace cannot testify) from a witness that replays
    /// but no longer demonstrates the divergence.
    pub fn contains(&self, label: &str, sql: &str) -> bool {
        self.statements
            .contains_key(&(label.to_string(), sql.to_string()))
    }

    /// Pop the next recorded outcome; an exhausted queue keeps serving its
    /// last entry (the simulated engines are deterministic, so repeats of a
    /// statement agree with the recording).
    fn drain<T: Clone>(
        queue: &mut std::collections::VecDeque<Result<T, String>>,
    ) -> Result<T, ConnectorError> {
        let outcome = if queue.len() > 1 {
            queue.pop_front().expect("non-empty queue")
        } else {
            queue.front().cloned().expect("non-empty queue")
        };
        outcome.map_err(ConnectorError::new)
    }

    fn serve(&mut self, label: &str, sql: String) -> Result<SqlOutcome, ConnectorError> {
        let key = (label.to_string(), sql);
        let Some(queue) = self.statements.get_mut(&key) else {
            return Err(ConnectorError::new(format!(
                "replay miss: `{}` [{}] was not recorded",
                key.1, key.0
            )));
        };
        Self::drain(queue)
    }
}

impl DbmsConnector for ReplayConnector {
    fn info(&self) -> ConnectorInfo {
        self.info.clone()
    }

    fn load_catalog(&mut self, _catalog: &Catalog) -> Result<(), ConnectorError> {
        // The data lives in the recorded outcomes; any catalog is accepted so
        // the standard session assembly works unchanged.
        Ok(())
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        self.serve(&hints.label, tqs_sql::render::render_stmt(stmt))
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        let sql = tqs_sql::render::render_stmt(stmt);
        let Some(queue) = self.explains.get_mut(&sql) else {
            return Err(ConnectorError::new(format!(
                "replay miss: EXPLAIN `{sql}` was not recorded"
            )));
        };
        Self::drain(queue)
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        self.serve("default", tqs_sql::render::render_stmt(stmt))
    }

    fn execute_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        // Raw text is recorded verbatim under the "sql" label; fall back to
        // the parsed rendering in case the recording side executed the
        // normalized statement instead.
        match self.serve("sql", sql.to_string()) {
            Ok(out) => Ok(out),
            Err(_) => {
                let stmt = parse_stmt(sql).map_err(|e| ConnectorError::new(e.to_string()))?;
                self.execute(&stmt)
            }
        }
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        self.serve("dml", render_dml(stmt))
    }

    fn execute_dml_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        // Raw DML text is recorded under its canonical rendering; try the
        // verbatim text first, then the normalized form.
        match self.serve("dml", sql.to_string()) {
            Ok(out) => Ok(out),
            Err(miss) => {
                let stmt = parse_dml(sql).map_err(|_| miss)?;
                self.execute_dml(&stmt)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dsg() -> DsgDatabase {
        use crate::dsg::{DsgConfig, WideSource};
        use tqs_storage::widegen::ShoppingConfig;
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 60,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: None,
        })
    }

    #[test]
    fn engine_connector_reports_profile_metadata() {
        for id in ProfileId::ALL {
            let conn = EngineKind::Row.faulty(id);
            let info = conn.info();
            assert_eq!(info.name, id.name());
            assert_eq!(info.dialect, id);
            assert!(!info.version.is_empty());
        }
    }

    #[test]
    fn connect_loads_the_dsg_catalog() {
        let dsg = small_dsg();
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &dsg);
        let table = &dsg.db.metas[0].name;
        let out = conn
            .execute_sql(&format!("SELECT COUNT(*) AS c FROM {table}"))
            .expect("count over a loaded table");
        assert_eq!(out.result.row_count(), 1);
        assert!(out.fired.is_empty());
    }

    #[test]
    fn query_profile_follows_the_most_recent_statement() {
        let dsg = small_dsg();
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &dsg);
        let table = &dsg.db.metas[0].name;
        // The flag is process-wide: keep it on for exactly the two statements.
        tqs_telemetry::set_enabled(true);
        let select = conn.execute_sql(&format!("SELECT COUNT(*) AS c FROM {table}"));
        let after_select = conn.query_profile();
        let dml = conn.execute_dml_sql("BEGIN");
        let after_dml = conn.query_profile();
        tqs_telemetry::set_enabled(false);
        select.expect("count over a loaded table");
        dml.expect("BEGIN");
        assert!(
            after_select.is_some(),
            "a SELECT leaves its operator profile"
        );
        assert!(
            after_dml.is_none(),
            "a DML statement has no operator profile; the SELECT's must not linger"
        );
    }

    #[test]
    fn execute_default_matches_execute_with_empty_hints() {
        let dsg = small_dsg();
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::TidbLike, &dsg);
        let table = &dsg.db.metas[0].name;
        let col = &dsg.db.metas[0].columns[0];
        let stmt = parse_stmt(&format!("SELECT {table}.{col} FROM {table}")).unwrap();
        let plain = conn.execute(&stmt).unwrap();
        let empty = conn
            .execute_with_hints(&stmt, &HintSet::new("default"))
            .unwrap();
        assert!(plain.result.same_bag(&empty.result));
    }

    #[test]
    fn recording_connector_traces_every_call() {
        let dsg = small_dsg();
        let mut conn = RecordingConnector::new(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Pristine,
            ProfileId::MariadbLike,
        ));
        conn.load_catalog(&dsg.db.catalog).unwrap();
        let table = &dsg.db.metas[0].name;
        let col = &dsg.db.metas[0].columns[0];
        let sql = format!("SELECT {table}.{col} FROM {table}");
        conn.execute_sql(&sql).unwrap();
        let stmt = parse_stmt(&sql).unwrap();
        conn.execute(&stmt).unwrap();
        conn.explain(&stmt).unwrap();
        let _ = conn.execute_sql("SELECT x.a FROM missing x");

        let trace = conn.trace();
        assert_eq!(
            trace.len(),
            4 + 1,
            "load + 3 statements + explain: {trace:#?}"
        );
        assert!(matches!(trace[0], TraceEvent::LoadCatalog { tables } if tables > 0));
        assert!(matches!(&trace[3], TraceEvent::Explain { .. }));
        assert!(matches!(
            &trace[4],
            TraceEvent::Statement {
                outcome: Err(_),
                ..
            }
        ));
        let log = conn.replay_log();
        assert_eq!(log.lines().count(), 5);
        assert!(log.contains("EXPLAIN"));
        assert!(log.contains("ERROR"));
    }

    #[test]
    fn columnar_connector_reports_columnar_metadata() {
        for id in ProfileId::ALL {
            let conn = EngineKind::Columnar.faulty(id);
            let info = conn.info();
            assert!(info.name.contains("[columnar]"), "{}", info.name);
            assert_eq!(info.dialect, id);
        }
    }

    #[test]
    fn columnar_connector_agrees_with_row_connector_when_pristine() {
        let dsg = small_dsg();
        let mut row = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &dsg);
        let mut col = EngineKind::Columnar.connect_pristine(ProfileId::MysqlLike, &dsg);
        let table = &dsg.db.metas[0].name;
        let cols = &dsg.db.metas[0].columns;
        let sql = format!("SELECT {table}.{} FROM {table}", cols[0]);
        let a = row.execute_sql(&sql).unwrap();
        let b = col.execute_sql(&sql).unwrap();
        assert!(a.result.same_bag(&b.result));
        assert!(col
            .explain(&parse_stmt(&sql).unwrap())
            .unwrap()
            .contains("columnar"));
    }

    #[test]
    fn disk_connector_reports_disk_metadata() {
        for id in ProfileId::ALL {
            let conn = EngineKind::Disk.faulty(id);
            let info = conn.info();
            assert!(info.name.contains("[disk]"), "{}", info.name);
            assert!(info.version.ends_with("-disk"), "{}", info.version);
            assert_eq!(info.dialect, id);
        }
    }

    #[test]
    fn disk_connector_agrees_with_row_connector_when_pristine() {
        let dsg = small_dsg();
        let mut row = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &dsg);
        let mut disk = EngineKind::Disk.connect_pristine(ProfileId::MysqlLike, &dsg);
        let table = &dsg.db.metas[0].name;
        let cols = &dsg.db.metas[0].columns;
        let sql = format!("SELECT {table}.{} FROM {table}", cols[0]);
        let a = row.execute_sql(&sql).unwrap();
        let b = disk.execute_sql(&sql).unwrap();
        assert!(a.result.same_bag(&b.result));
        assert!(disk
            .explain(&parse_stmt(&sql).unwrap())
            .unwrap()
            .contains("executor: disk"));
    }

    #[test]
    fn replay_connector_serves_recorded_outcomes_deterministically() {
        let dsg = small_dsg();
        let mut rec =
            RecordingConnector::new(EngineKind::Row.faulty(ProfileId::XdbLike).loaded(&dsg));
        let table = &dsg.db.metas[0].name;
        let col = &dsg.db.metas[0].columns[0];
        let stmt = parse_stmt(&format!("SELECT {table}.{col} FROM {table}")).unwrap();
        let hs = HintSet::new("hash-join");
        let live_plain = rec.execute(&stmt).unwrap();
        let live_hinted = rec.execute_with_hints(&stmt, &hs).unwrap();
        let live_explain = rec.explain(&stmt).unwrap();
        assert!(rec.execute_sql("SELECT x.a FROM missing x").is_err());

        let mut replay = rec.replay();
        assert_eq!(replay.info().name, "X-DB-like");
        replay.load_catalog(&dsg.db.catalog).unwrap();
        // Recorded statements come back with full, identical result sets —
        // repeatedly, since the queue keeps serving its last outcome.
        for _ in 0..2 {
            let plain = replay.execute(&stmt).unwrap();
            assert!(plain.result.same_bag(&live_plain.result));
            assert_eq!(plain.fired, live_plain.fired);
        }
        let hinted = replay.execute_with_hints(&stmt, &hs).unwrap();
        assert!(hinted.result.same_bag(&live_hinted.result));
        assert_eq!(replay.explain(&stmt).unwrap(), live_explain);
        // Recorded errors replay as errors; unrecorded statements miss.
        assert!(replay.execute_sql("SELECT x.a FROM missing x").is_err());
        let other = parse_stmt(&format!("SELECT {table}.{col} FROM {table} WHERE 1 = 2"));
        assert!(replay.execute(&other.unwrap()).is_err(), "unrecorded stmt");
    }
}
