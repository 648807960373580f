//! Mutation workloads: DML + transactions with a delta-maintained ground
//! truth.
//!
//! Three pieces make mutation testing a first-class axis next to SELECT
//! hunting:
//!
//! * [`MutationGroundTruth`] — an independent reference implementation of
//!   the DML semantics that maintains its state *incrementally*: every
//!   mutation applies a delta and records its exact inverse in a
//!   transaction undo log; `ROLLBACK` replays the undo log backwards and
//!   `COMMIT` drops it. The committed view is derived by applying the
//!   pending undo entries to the live state — the ground truth is never
//!   rebuilt from scratch (the delta-vs-rebuild proptest proves the two
//!   agree after every statement).
//! * [`DmlGenerator`] — a seeded generator of mutation *programs*:
//!   interleavings of INSERT / UPDATE / DELETE and well-formed
//!   BEGIN … COMMIT/ROLLBACK blocks, with literals drawn from the DSG value
//!   pools so statements are admissible and predicates are selective.
//! * [`DmlOracle`] — runs a program on any [`DbmsConnector`] and verifies
//!   every statement's `rows_affected` and every touched table's final
//!   committed state against the ground truth, reporting divergences as
//!   [`OracleKind::Mutation`] bugs with full fault provenance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqs_sql::ast::{
    Assignment, BinOp, DeleteStmt, DmlStmt, Expr, InsertStmt, SelectItem, SelectStmt, UpdateStmt,
};
use tqs_sql::eval::{eval_expr, eval_predicate, NoSubqueries, SliceRow};
use tqs_sql::hints::HintSet;
use tqs_sql::render::render_program;
use tqs_sql::value::Value;
use tqs_storage::{Catalog, ResultSet, Row};

use crate::backend::DbmsConnector;
use crate::bugs::{BugReport, OracleKind};
use crate::dsg::DsgDatabase;
use crate::oracle::{same_bag, OracleVerdict};

/// The rows of one table with their stable identities: `(row id, values)`.
pub(crate) type IdentityRows = Vec<(u64, Vec<Value>)>;

/// The hint-set label the mutation oracle executes its verification SELECTs
/// under, so recorded witness traces key them apart from hunt queries.
pub(crate) const DML_VERIFY_LABEL: &str = "dml-verify";

/// One table's reference state: rows tagged with stable identities assigned
/// at load/insert time, in engine order.
#[derive(Debug, Clone, PartialEq)]
struct TableState {
    name: String,
    /// `(row identity, values)` — the identity is the witness that rollback
    /// restores *the same rows*, not merely equal-looking ones.
    rows: Vec<(u64, Vec<Value>)>,
}

/// One inverse delta in the transaction undo log. Indices are positions at
/// the moment the forward op applied, so replaying the log *backwards*
/// restores the pre-transaction state exactly (the same invariant as
/// [`tqs_engine::DmlOp`]).
#[derive(Debug, Clone)]
enum Undo {
    /// Inverse of an insert: remove the row at `at`.
    Insert { table: usize, at: usize },
    /// Inverse of an update: restore the old values at `at`.
    Update {
        table: usize,
        at: usize,
        old: Vec<Value>,
    },
    /// Inverse of a delete: re-insert the identified row at `at`.
    Delete {
        table: usize,
        at: usize,
        id: u64,
        old: Vec<Value>,
    },
}

/// Delta-maintained reference state for mutation workloads.
///
/// Semantics mirror the pristine engine exactly: INSERT evaluates constant
/// VALUES (missing columns become NULL) and type-checks against the column,
/// UPDATE matches rows with the three-valued-logic reference evaluator and
/// every SET expression sees the pre-update row, DELETE removes matching
/// rows. Statements are atomic: any error leaves the state untouched.
#[derive(Debug, Clone)]
pub struct MutationGroundTruth {
    /// Column metadata (types, arity) — row data lives in `tables`.
    schema: Catalog,
    tables: Vec<TableState>,
    next_id: u64,
    /// `Some` inside a transaction: the inverse of every op applied since
    /// BEGIN, in application order.
    undo: Option<Vec<Undo>>,
}

impl MutationGroundTruth {
    /// Capture the catalog's current rows as the committed starting state.
    pub fn new(catalog: &Catalog) -> Self {
        let mut next_id = 0u64;
        let tables = catalog
            .iter()
            .map(|t| TableState {
                name: t.name.clone(),
                rows: t
                    .rows
                    .iter()
                    .map(|r| {
                        next_id += 1;
                        (next_id, r.values.clone())
                    })
                    .collect(),
            })
            .collect();
        MutationGroundTruth {
            schema: catalog.clone(),
            tables,
            next_id,
            undo: None,
        }
    }

    pub fn in_txn(&self) -> bool {
        self.undo.is_some()
    }

    fn table_idx(&self, name: &str) -> Result<usize, String> {
        self.tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown table {name}"))
    }

    /// The live (in-transaction) rows of a table, identities included.
    pub fn visible_rows(&self, table: &str) -> Result<&[(u64, Vec<Value>)], String> {
        Ok(&self.tables[self.table_idx(table)?].rows)
    }

    /// The committed rows of a table: the live state with the open
    /// transaction's deltas *undone* — derived by inverse application, never
    /// by re-running statements.
    pub fn committed_rows(&self, table: &str) -> Result<Vec<(u64, Vec<Value>)>, String> {
        let ti = self.table_idx(table)?;
        let mut rows = self.tables[ti].rows.clone();
        if let Some(undo) = &self.undo {
            for u in undo.iter().rev() {
                match u {
                    Undo::Insert { table, at } if *table == ti && *at < rows.len() => {
                        rows.remove(*at);
                    }
                    Undo::Update { table, at, old } if *table == ti => {
                        if let Some(r) = rows.get_mut(*at) {
                            r.1 = old.clone();
                        }
                    }
                    Undo::Delete { table, at, id, old } if *table == ti => {
                        let at = (*at).min(rows.len());
                        rows.insert(at, (*id, old.clone()));
                    }
                    _ => {}
                }
            }
        }
        Ok(rows)
    }

    /// The committed state of a table as a [`ResultSet`] (for bag comparison
    /// against a `SELECT *` from the backend).
    pub(crate) fn committed_result(&self, table: &str) -> Result<ResultSet, String> {
        let t = self
            .schema
            .table(table)
            .ok_or_else(|| format!("unknown table {table}"))?;
        let mut rs = ResultSet::new(t.column_names());
        for (_, values) in self.committed_rows(table)? {
            rs.rows.push(Row::new(values));
        }
        Ok(rs)
    }

    /// The full live state, table by table — what the delta-vs-rebuild
    /// harness compares byte-for-byte against a from-scratch replay.
    pub fn snapshot(&self) -> Vec<(String, IdentityRows)> {
        self.tables
            .iter()
            .map(|t| (t.name.clone(), t.rows.clone()))
            .collect()
    }

    /// Apply one statement, returning the number of rows affected. Errors
    /// leave the state exactly as it was.
    pub fn apply(&mut self, stmt: &DmlStmt) -> Result<usize, String> {
        match stmt {
            DmlStmt::Begin => {
                if self.undo.is_some() {
                    return Err("BEGIN inside an open transaction".into());
                }
                self.undo = Some(Vec::new());
                Ok(0)
            }
            DmlStmt::Commit => {
                if self.undo.take().is_none() {
                    return Err("COMMIT without an open transaction".into());
                }
                Ok(0)
            }
            DmlStmt::Rollback => {
                let Some(undo) = self.undo.take() else {
                    return Err("ROLLBACK without an open transaction".into());
                };
                for u in undo.iter().rev() {
                    match u {
                        Undo::Insert { table, at } => {
                            self.tables[*table].rows.remove(*at);
                        }
                        Undo::Update { table, at, old } => {
                            self.tables[*table].rows[*at].1 = old.clone();
                        }
                        Undo::Delete { table, at, id, old } => {
                            self.tables[*table].rows.insert(*at, (*id, old.clone()));
                        }
                    }
                }
                Ok(0)
            }
            DmlStmt::Insert(i) => self.apply_insert(i),
            DmlStmt::Update(u) => self.apply_update(u),
            DmlStmt::Delete(d) => self.apply_delete(d),
        }
    }

    fn push_undo(&mut self, u: Undo) {
        if let Some(undo) = &mut self.undo {
            undo.push(u);
        }
    }

    fn apply_insert(&mut self, stmt: &InsertStmt) -> Result<usize, String> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self
            .schema
            .table(&stmt.table)
            .ok_or_else(|| format!("unknown table {}", stmt.table))?;
        let mut col_indices = Vec::with_capacity(stmt.columns.len());
        for c in &stmt.columns {
            col_indices.push(
                schema
                    .column_index(c)
                    .ok_or_else(|| format!("unknown column {c} in {}", stmt.table))?,
            );
        }
        let scope = SliceRow::new(&[], &[]);
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for exprs in &stmt.rows {
            let mut values = vec![Value::Null; schema.columns.len()];
            for (ci, e) in col_indices.iter().zip(exprs) {
                values[*ci] = eval_expr(e, &scope, &NoSubqueries).map_err(|e| e.to_string())?;
            }
            for (v, c) in values.iter().zip(&schema.columns) {
                if !c.ty.admits(v) {
                    return Err(format!("value {v} not admitted by column {}", c.name));
                }
            }
            rows.push(values);
        }
        let n = rows.len();
        for values in rows {
            self.next_id += 1;
            let id = self.next_id;
            let at = self.tables[ti].rows.len();
            self.tables[ti].rows.push((id, values));
            self.push_undo(Undo::Insert { table: ti, at });
        }
        Ok(n)
    }

    fn apply_update(&mut self, stmt: &UpdateStmt) -> Result<usize, String> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self
            .schema
            .table(&stmt.table)
            .ok_or_else(|| format!("unknown table {}", stmt.table))?;
        let mut set_cols = Vec::with_capacity(stmt.set.len());
        for a in &stmt.set {
            let ci = schema
                .column_index(&a.column)
                .ok_or_else(|| format!("unknown column {} in {}", a.column, stmt.table))?;
            set_cols.push((ci, &a.value));
        }
        let matched = self.matching(ti, schema, stmt.where_clause.as_ref())?;
        let cols: Vec<(String, String)> = schema
            .columns
            .iter()
            .map(|c| (schema.name.clone(), c.name.clone()))
            .collect();
        // Two-phase: evaluate every new row against the pre-statement state,
        // then apply — a failed SET leaves nothing half-written.
        let mut writes = Vec::with_capacity(matched.len());
        for &at in &matched {
            let old = self.tables[ti].rows[at].1.clone();
            let mut new = old.clone();
            let scope = SliceRow::new(&cols, &old);
            for (ci, e) in &set_cols {
                let v = eval_expr(e, &scope, &NoSubqueries).map_err(|e| e.to_string())?;
                if !schema.columns[*ci].ty.admits(&v) {
                    return Err(format!(
                        "value {v} not admitted by column {}",
                        schema.columns[*ci].name
                    ));
                }
                new[*ci] = v;
            }
            writes.push((at, old, new));
        }
        let n = writes.len();
        for (at, old, new) in writes {
            self.tables[ti].rows[at].1 = new;
            self.push_undo(Undo::Update { table: ti, at, old });
        }
        Ok(n)
    }

    fn apply_delete(&mut self, stmt: &DeleteStmt) -> Result<usize, String> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self
            .schema
            .table(&stmt.table)
            .ok_or_else(|| format!("unknown table {}", stmt.table))?;
        let matched = self.matching(ti, schema, stmt.where_clause.as_ref())?;
        let n = matched.len();
        for (removed, &i) in matched.iter().enumerate() {
            let at = i - removed;
            let (id, old) = self.tables[ti].rows.remove(at);
            self.push_undo(Undo::Delete {
                table: ti,
                at,
                id,
                old,
            });
        }
        Ok(n)
    }

    /// Row positions whose WHERE predicate is *true* (3VL), against the
    /// pre-statement state.
    fn matching(
        &self,
        ti: usize,
        schema: &tqs_storage::Table,
        where_clause: Option<&Expr>,
    ) -> Result<Vec<usize>, String> {
        let rows = &self.tables[ti].rows;
        let Some(pred) = where_clause else {
            return Ok((0..rows.len()).collect());
        };
        let cols: Vec<(String, String)> = schema
            .columns
            .iter()
            .map(|c| (schema.name.clone(), c.name.clone()))
            .collect();
        let mut out = Vec::new();
        for (i, (_, values)) in rows.iter().enumerate() {
            let scope = SliceRow::new(&cols, values);
            if eval_predicate(pred, &scope, &NoSubqueries).map_err(|e| e.to_string())? == Some(true)
            {
                out.push(i);
            }
        }
        Ok(out)
    }
}

/// Parameters for the mutation-program generator.
#[derive(Debug, Clone)]
pub struct DmlGenConfig {
    /// Mutation statements per program (transaction control rides on top).
    pub statements: usize,
    pub seed: u64,
}

impl Default for DmlGenConfig {
    fn default() -> Self {
        DmlGenConfig {
            statements: 8,
            seed: 31,
        }
    }
}

/// Probability that the next mutation opens a BEGIN … COMMIT/ROLLBACK block
/// of 2–4 statements instead of auto-committing.
const TXN_PROBABILITY: f64 = 0.4;
/// Probability that a transaction block ends in ROLLBACK.
const ROLLBACK_PROBABILITY: f64 = 0.35;

/// Seeded generator of mutation programs over a DSG database. Literals come
/// from the DSG value pools, so generated statements are admissible and
/// predicates actually select rows; every transaction block is well-formed
/// and closed, so a program always ends at a commit boundary.
pub struct DmlGenerator {
    pub cfg: DmlGenConfig,
    rng: StdRng,
}

impl DmlGenerator {
    pub fn new(cfg: DmlGenConfig) -> Self {
        let seed = cfg.seed;
        DmlGenerator {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One program: `cfg.statements` mutations, some grouped into
    /// transaction blocks.
    pub fn generate_program(&mut self, dsg: &DsgDatabase) -> Vec<DmlStmt> {
        let mut out = Vec::new();
        let mut mutations = 0usize;
        while mutations < self.cfg.statements {
            if self.rng.gen_bool(TXN_PROBABILITY) {
                out.push(DmlStmt::Begin);
                let n = self.rng.gen_range(2..=4usize);
                for _ in 0..n {
                    out.push(self.mutation(dsg));
                    mutations += 1;
                }
                out.push(if self.rng.gen_bool(ROLLBACK_PROBABILITY) {
                    DmlStmt::Rollback
                } else {
                    DmlStmt::Commit
                });
            } else {
                out.push(self.mutation(dsg));
                mutations += 1;
            }
        }
        out
    }

    fn mutation(&mut self, dsg: &DsgDatabase) -> DmlStmt {
        let metas = &dsg.db.metas;
        let m = &metas[self.rng.gen_range(0..metas.len())];
        match self.rng.gen_range(0..10) {
            0..=3 => self.insert(dsg, &m.name, &m.columns),
            4..=7 => self.update(dsg, &m.name, &m.columns),
            _ => self.delete(dsg, &m.name, &m.columns),
        }
    }

    fn pool_value(&mut self, dsg: &DsgDatabase, table: &str, column: &str) -> Value {
        let pool = dsg.sample_values(table, column);
        if pool.is_empty() {
            return Value::Null;
        }
        pool[self.rng.gen_range(0..pool.len())].clone()
    }

    fn insert(&mut self, dsg: &DsgDatabase, table: &str, columns: &[String]) -> DmlStmt {
        let mut values = Vec::with_capacity(columns.len());
        for c in columns {
            // Mostly pool values; occasionally NULL to seed the NULL-key
            // corner cases the M2 fault needs.
            let v = if self.rng.gen_bool(0.12) {
                Value::Null
            } else {
                self.pool_value(dsg, table, c)
            };
            values.push(Expr::lit(v));
        }
        DmlStmt::Insert(InsertStmt {
            table: table.to_string(),
            columns: columns.to_vec(),
            rows: vec![values],
        })
    }

    fn update(&mut self, dsg: &DsgDatabase, table: &str, columns: &[String]) -> DmlStmt {
        let n_set = self.rng.gen_range(1..=2usize.min(columns.len()));
        let mut set = Vec::with_capacity(n_set);
        let mut used = Vec::new();
        for _ in 0..n_set {
            let c = &columns[self.rng.gen_range(0..columns.len())];
            if used.contains(c) {
                continue;
            }
            used.push(c.clone());
            let v = self.pool_value(dsg, table, c);
            set.push(Assignment {
                column: c.clone(),
                value: Expr::lit(v),
            });
        }
        let where_clause = if self.rng.gen_bool(0.85) {
            Some(self.predicate(dsg, table, columns))
        } else {
            None
        };
        DmlStmt::Update(UpdateStmt {
            table: table.to_string(),
            set,
            where_clause,
        })
    }

    fn delete(&mut self, dsg: &DsgDatabase, table: &str, columns: &[String]) -> DmlStmt {
        // Always filtered: an unconditional DELETE would drain the table and
        // starve every later statement of rows to mutate.
        DmlStmt::Delete(DeleteStmt {
            table: table.to_string(),
            where_clause: Some(self.predicate(dsg, table, columns)),
        })
    }

    fn predicate(&mut self, dsg: &DsgDatabase, table: &str, columns: &[String]) -> Expr {
        let c = &columns[self.rng.gen_range(0..columns.len())];
        let col = Expr::col(table, c);
        let v = self.pool_value(dsg, table, c);
        match self.rng.gen_range(0..10) {
            0..=3 => Expr::eq(col, Expr::lit(v)),
            4..=5 => Expr::binary(BinOp::Gt, col, Expr::lit(v)),
            6 => Expr::is_null(col),
            // The shape M2 needs: a NULL-carrying row matching the predicate
            // through the IS NULL arm.
            7 => Expr::or(Expr::eq(col.clone(), Expr::lit(v)), Expr::is_null(col)),
            _ => Expr::binary(BinOp::Lt, col, Expr::lit(v)),
        }
    }
}

/// The mutation oracle: run a DML program on a backend, mirror it on the
/// delta-maintained ground truth, and verify (a) every statement's
/// `rows_affected` and (b) every touched table's final committed state.
pub struct DmlOracle {
    catalog: Catalog,
}

impl DmlOracle {
    /// `catalog` is the pristine starting state; every
    /// [`check_program`](Self::check_program) reloads it into the backend so
    /// programs are independent.
    pub fn new(catalog: &Catalog) -> Self {
        DmlOracle {
            catalog: catalog.clone(),
        }
    }

    pub fn from_dsg(dsg: &DsgDatabase) -> Self {
        Self::new(&dsg.db.catalog)
    }

    /// A `SELECT t.c1, t.c2, … FROM t` over every column — the canonical
    /// verification probe for one table.
    fn select_all(&self, table: &str) -> Option<SelectStmt> {
        let t = self.catalog.table(table)?;
        let mut stmt = SelectStmt::new(tqs_sql::ast::FromClause::single(&t.name));
        stmt.items = t
            .columns
            .iter()
            .map(|c| SelectItem::column(&t.name, &c.name))
            .collect();
        Some(stmt)
    }

    /// Check one program against one backend. The backend is reloaded with
    /// the pristine catalog first; a backend that cannot load or execute DML
    /// at all yields `Skip`.
    pub fn check_program(
        &self,
        program: &[DmlStmt],
        conn: &mut dyn DbmsConnector,
    ) -> OracleVerdict {
        if conn.load_catalog(&self.catalog).is_err() {
            return OracleVerdict::Skip;
        }
        let info = conn.info();
        let mut gt = MutationGroundTruth::new(&self.catalog);
        let mut fired = Vec::new();
        let mut reports: Vec<BugReport> = Vec::new();
        let mut executed = false;
        let mut touched: Vec<String> = Vec::new();

        let run_stmt = |stmt: &DmlStmt,
                        gt: &mut MutationGroundTruth,
                        conn: &mut dyn DbmsConnector,
                        fired: &mut Vec<tqs_engine::FaultKind>,
                        reports: &mut Vec<BugReport>,
                        executed: &mut bool|
         -> bool {
            let expected = gt.apply(stmt);
            let observed = conn.execute_dml(stmt);
            match (expected, observed) {
                // Both sides reject: the statement doesn't count.
                (Err(_), Err(_)) => true,
                (Ok(exp), Ok(out)) => {
                    *executed = true;
                    for f in &out.fired {
                        if !fired.contains(f) {
                            fired.push(*f);
                        }
                    }
                    let obs = out
                        .result
                        .rows
                        .first()
                        .and_then(|r| match r.get(0) {
                            Value::Int(n) => Some(*n),
                            _ => None,
                        })
                        .unwrap_or(-1);
                    if obs != exp as i64 {
                        reports.push(mutation_report(
                            &info.name,
                            program,
                            tqs_sql::render::render_dml(stmt),
                            exp,
                            obs.max(0) as usize,
                            fired.clone(),
                        ));
                    }
                    true
                }
                // One side rejects what the other accepts: semantic
                // divergence; the two states can no longer be compared.
                (Ok(exp), Err(e)) => {
                    *executed = true;
                    reports.push(mutation_report(
                        &info.name,
                        program,
                        format!("{}: {e}", tqs_sql::render::render_dml(stmt)),
                        exp,
                        0,
                        fired.clone(),
                    ));
                    false
                }
                (Err(e), Ok(_)) => {
                    *executed = true;
                    reports.push(mutation_report(
                        &info.name,
                        program,
                        format!(
                            "{}: ground truth rejected: {e}",
                            tqs_sql::render::render_dml(stmt)
                        ),
                        0,
                        1,
                        fired.clone(),
                    ));
                    false
                }
            }
        };

        for stmt in program {
            if let Some(t) = stmt.table() {
                if !touched.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                    touched.push(t.to_string());
                }
            }
            if !run_stmt(stmt, &mut gt, conn, &mut fired, &mut reports, &mut executed) {
                return OracleVerdict::Bugs(reports);
            }
        }
        // A program that leaves a transaction open is closed with ROLLBACK on
        // both sides, so the final comparison sees committed state only.
        if gt.in_txn()
            && !run_stmt(
                &DmlStmt::Rollback,
                &mut gt,
                conn,
                &mut fired,
                &mut reports,
                &mut executed,
            )
        {
            return OracleVerdict::Bugs(reports);
        }

        for table in &touched {
            let Some(probe) = self.select_all(table) else {
                continue;
            };
            let Ok(expected) = gt.committed_result(table) else {
                continue;
            };
            let Ok(out) = conn.execute_with_hints(&probe, &HintSet::new(DML_VERIFY_LABEL)) else {
                continue;
            };
            executed = true;
            for f in &out.fired {
                if !fired.contains(f) {
                    fired.push(*f);
                }
            }
            if !same_bag(&expected, &out.result) {
                reports.push(mutation_report(
                    &info.name,
                    program,
                    format!(
                        "final state of {table} diverged: {}",
                        tqs_sql::render::render_stmt(&probe)
                    ),
                    expected.row_count(),
                    out.result.row_count(),
                    fired.clone(),
                ));
            }
        }

        OracleVerdict::from_reports(executed, reports)
    }
}

/// Assemble a [`OracleKind::Mutation`] report. `detail` describes the exact
/// divergence (statement or probe) and travels in `transformed_sql`; the
/// reproducer is the whole program.
fn mutation_report(
    dbms: &str,
    program: &[DmlStmt],
    detail: String,
    expected_rows: usize,
    observed_rows: usize,
    mut fired: Vec<tqs_engine::FaultKind>,
) -> BugReport {
    fired.sort();
    fired.dedup();
    BugReport {
        dbms: dbms.to_string(),
        oracle: OracleKind::Mutation,
        sql: render_program(program),
        transformed_sql: detail,
        hint_label: "dml".to_string(),
        expected_rows,
        observed_rows,
        fired,
        minimized_sql: None,
        fingerprint: None,
        keys: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BuildSpec, EngineConnector, EngineKind};
    use crate::conformance::conformance_dsg;
    use tqs_engine::{FaultKind, ProfileId};
    use tqs_sql::parser::parse_program;

    fn small_catalog() -> Catalog {
        use tqs_sql::types::{ColumnDef, ColumnType};
        use tqs_storage::Table;
        let mut cat = Catalog::new();
        let mut t = Table::new(
            "t1",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c1) in [(1, Value::Int(10)), (2, Value::Null), (3, Value::Int(30))] {
            t.push_row(Row::new(vec![Value::Int(id), c1])).unwrap();
        }
        cat.add_table(t);
        cat
    }

    fn ids(gt: &MutationGroundTruth, table: &str) -> Vec<i64> {
        gt.visible_rows(table)
            .unwrap()
            .iter()
            .map(|(_, v)| match &v[0] {
                Value::Int(i) => *i,
                other => panic!("non-int id {other}"),
            })
            .collect()
    }

    #[test]
    fn ground_truth_applies_deltas_and_rolls_back_exactly() {
        let mut gt = MutationGroundTruth::new(&small_catalog());
        let before = gt.snapshot();
        for stmt in parse_program(
            "BEGIN; INSERT INTO t1 (id, col1) VALUES (4, 40); \
             UPDATE t1 SET col1 = 99 WHERE t1.id = 1; DELETE FROM t1 WHERE t1.id = 3",
        )
        .unwrap()
        {
            gt.apply(&stmt).unwrap();
        }
        assert!(gt.in_txn());
        assert_eq!(ids(&gt, "t1"), vec![1, 2, 4], "own writes visible");
        // The committed view is the pre-transaction state, identities intact.
        let committed = gt.committed_rows("t1").unwrap();
        assert_eq!(committed, before[0].1, "uncommitted deltas invisible");
        gt.apply(&DmlStmt::Rollback).unwrap();
        assert_eq!(gt.snapshot(), before, "rollback restores byte-identically");

        // Committing makes the deltas the new committed state.
        for stmt in parse_program("BEGIN; DELETE FROM t1 WHERE t1.col1 IS NULL; COMMIT").unwrap() {
            gt.apply(&stmt).unwrap();
        }
        assert_eq!(ids(&gt, "t1"), vec![1, 3]);
        assert_eq!(gt.committed_rows("t1").unwrap().len(), 2);
    }

    #[test]
    fn ground_truth_statements_are_atomic() {
        let mut gt = MutationGroundTruth::new(&small_catalog());
        let before = gt.snapshot();
        // Second VALUES row is inadmissible: nothing may stick.
        let stmt = parse_program("INSERT INTO t1 (id, col1) VALUES (7, 70), ('oops', 80)").unwrap();
        assert!(gt.apply(&stmt[0]).is_err());
        assert_eq!(gt.snapshot(), before);
        assert!(gt.apply(&DmlStmt::Commit).is_err(), "no open txn");
        assert!(gt.apply(&DmlStmt::Rollback).is_err());
    }

    #[test]
    fn generator_emits_wellformed_closed_programs() {
        let dsg = conformance_dsg();
        let mut gen = DmlGenerator::new(DmlGenConfig {
            statements: 12,
            seed: 7,
        });
        for _ in 0..10 {
            let program = gen.generate_program(&dsg);
            let mutations = program.iter().filter(|s| !s.is_txn_control()).count();
            assert!(mutations >= 12);
            let mut depth = 0i32;
            for s in &program {
                match s {
                    DmlStmt::Begin => {
                        assert_eq!(depth, 0, "nested BEGIN");
                        depth += 1;
                    }
                    DmlStmt::Commit | DmlStmt::Rollback => {
                        assert_eq!(depth, 1, "txn control outside a block");
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "program left a transaction open");
            // Round-trips through the renderer and parser.
            let text = render_program(&program);
            assert_eq!(parse_program(&text).unwrap(), program);
        }
    }

    #[test]
    fn oracle_is_sound_on_pristine_engines_and_flags_faulty_ones() {
        let dsg = conformance_dsg();
        let oracle = DmlOracle::from_dsg(&dsg);
        let mut gen = DmlGenerator::new(DmlGenConfig {
            seed: 13,
            ..Default::default()
        });
        let programs: Vec<Vec<DmlStmt>> = (0..12).map(|_| gen.generate_program(&dsg)).collect();

        let mut pristine =
            EngineConnector::open(EngineKind::Row, BuildSpec::Pristine, ProfileId::MysqlLike);
        let mut executed = 0;
        for p in &programs {
            match oracle.check_program(p, &mut pristine) {
                OracleVerdict::Bugs(r) => panic!("false positive on pristine: {r:#?}"),
                OracleVerdict::Pass => executed += 1,
                OracleVerdict::Skip => {}
            }
        }
        assert!(executed >= 10, "only {executed}/12 programs executed");

        let mut faulty = EngineKind::Row.faulty(ProfileId::MysqlLike);
        let mut implicated: Vec<FaultKind> = Vec::new();
        for p in &programs {
            for r in oracle.check_program(p, &mut faulty).into_bugs() {
                assert_eq!(r.oracle, OracleKind::Mutation);
                assert!(r.sql.contains(';'), "reproducer is the whole program");
                implicated.extend(r.fired);
            }
        }
        implicated.sort();
        implicated.dedup();
        assert!(
            !implicated.is_empty(),
            "mutation oracle never implicated a DML fault on a faulty build"
        );
        assert!(implicated.iter().all(|f| FaultKind::DML.contains(f)));
    }

    #[test]
    fn oracle_flags_all_three_engines() {
        let dsg = conformance_dsg();
        let oracle = DmlOracle::from_dsg(&dsg);
        let mut gen = DmlGenerator::new(DmlGenConfig {
            seed: 17,
            ..Default::default()
        });
        let programs: Vec<Vec<DmlStmt>> = (0..15).map(|_| gen.generate_program(&dsg)).collect();
        for kind in EngineKind::ALL {
            let (name, mut conn) = (kind.label(), kind.faulty(ProfileId::MysqlLike));
            let mut bugs = 0;
            for p in &programs {
                bugs += oracle.check_program(p, &mut conn).into_bugs().len();
            }
            assert!(bugs > 0, "{name} engine: no mutation bugs over 15 programs");
        }
    }
}
