//! The connector decorator wrapped around every connector the benchmark
//! constructs. It is how engine time, statement counts and result rows are
//! measured without touching the engines: the oracles only ever see a
//! `DbmsConnector`.

use crate::trace::Tracer;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tqs_campaign::EngineKind;
use tqs_core::backend::{ConnectorError, ConnectorInfo, DbmsConnector, SqlOutcome};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_storage::Catalog;
use tqs_telemetry::QueryProfile;

/// Span names of one decorated connector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub exec: &'static str,
    pub dml: &'static str,
    pub load: &'static str,
}

impl Layer {
    /// Pristine panel members of a differential oracle.
    pub const REFERENCE: Layer = Layer {
        exec: "engine.reference.exec",
        dml: "engine.reference.dml_exec",
        load: "engine.reference.load",
    };

    /// The build under test on `engine`.
    pub fn of(engine: EngineKind) -> Layer {
        match engine {
            EngineKind::Row => Layer {
                exec: "engine.row.exec",
                dml: "engine.row.dml_exec",
                load: "engine.row.load",
            },
            EngineKind::Columnar => Layer {
                exec: "engine.columnar.exec",
                dml: "engine.columnar.dml_exec",
                load: "engine.columnar.load",
            },
            EngineKind::Disk => Layer {
                exec: "engine.disk.exec",
                dml: "engine.disk.dml_exec",
                load: "engine.disk.load",
            },
        }
    }
}

/// What one decorated connector did. Counts repeat exactly for a given
/// input; the nanosecond fields are busy time inside the inner connector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    pub statements: u64,
    pub rows_out: u64,
    pub errors: u64,
    pub exec_ns: u64,
    pub dml_statements: u64,
    pub dml_exec_ns: u64,
    pub load_ns: u64,
}

impl ConnStats {
    /// `self - earlier`, field by field (counters only grow).
    pub fn since(&self, earlier: &ConnStats) -> ConnStats {
        ConnStats {
            statements: self.statements - earlier.statements,
            rows_out: self.rows_out - earlier.rows_out,
            errors: self.errors - earlier.errors,
            exec_ns: self.exec_ns - earlier.exec_ns,
            dml_statements: self.dml_statements - earlier.dml_statements,
            dml_exec_ns: self.dml_exec_ns - earlier.dml_exec_ns,
            load_ns: self.load_ns - earlier.load_ns,
        }
    }

    pub fn add(&mut self, other: &ConnStats) {
        self.statements += other.statements;
        self.rows_out += other.rows_out;
        self.errors += other.errors;
        self.exec_ns += other.exec_ns;
        self.dml_statements += other.dml_statements;
        self.dml_exec_ns += other.dml_exec_ns;
        self.load_ns += other.load_ns;
    }
}

/// Shared handle on a decorator's counters: the driver keeps one while the
/// connector itself moves into an oracle or a recorder.
pub type StatsHandle = Rc<RefCell<ConnStats>>;

pub struct Metered<C: DbmsConnector> {
    inner: C,
    layer: Layer,
    stats: StatsHandle,
    tracer: Tracer,
}

impl<C: DbmsConnector> Metered<C> {
    pub fn new(inner: C, layer: Layer, tracer: Tracer) -> Self {
        Metered {
            inner,
            layer,
            stats: Rc::new(RefCell::new(ConnStats::default())),
            tracer,
        }
    }

    pub fn stats_handle(&self) -> StatsHandle {
        Rc::clone(&self.stats)
    }

    fn select(
        &mut self,
        run: impl FnOnce(&mut C) -> Result<SqlOutcome, ConnectorError>,
    ) -> Result<SqlOutcome, ConnectorError> {
        let _span = self.tracer.span(self.layer.exec);
        let started = Instant::now();
        let out = run(&mut self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.statements += 1;
        s.exec_ns += ns;
        match &out {
            Ok(o) => s.rows_out += o.result.row_count() as u64,
            Err(_) => s.errors += 1,
        }
        out
    }

    fn dml(
        &mut self,
        run: impl FnOnce(&mut C) -> Result<SqlOutcome, ConnectorError>,
    ) -> Result<SqlOutcome, ConnectorError> {
        let _span = self.tracer.span(self.layer.dml);
        let started = Instant::now();
        let out = run(&mut self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.dml_statements += 1;
        s.dml_exec_ns += ns;
        if out.is_err() {
            s.errors += 1;
        }
        out
    }
}

impl<C: DbmsConnector> DbmsConnector for Metered<C> {
    fn info(&self) -> ConnectorInfo {
        self.inner.info()
    }

    fn load_catalog(&mut self, catalog: &Catalog) -> Result<(), ConnectorError> {
        let _span = self.tracer.span(self.layer.load);
        let started = Instant::now();
        let out = self.inner.load_catalog(catalog);
        self.stats.borrow_mut().load_ns += started.elapsed().as_nanos() as u64;
        out
    }

    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<SqlOutcome, ConnectorError> {
        self.select(|c| c.execute_with_hints(stmt, hints))
    }

    fn explain(&mut self, stmt: &SelectStmt) -> Result<String, ConnectorError> {
        self.inner.explain(stmt)
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<SqlOutcome, ConnectorError> {
        self.select(|c| c.execute(stmt))
    }

    fn execute_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        self.select(|c| c.execute_sql(sql))
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<SqlOutcome, ConnectorError> {
        self.dml(|c| c.execute_dml(stmt))
    }

    fn execute_dml_sql(&mut self, sql: &str) -> Result<SqlOutcome, ConnectorError> {
        self.dml(|c| c.execute_dml_sql(sql))
    }

    fn query_profile(&self) -> Option<QueryProfile> {
        self.inner.query_profile()
    }
}
