//! The simulated DBMS: optimizer (hint- and switch-steerable plan choice),
//! statement execution and the session interface used by TQS.
//!
//! One statement pipeline (`Database::execute_plan`) serves every executor:
//! scan, joins in plan order, WHERE, then one tail — projection or
//! aggregation, DISTINCT, LIMIT; [`result_tail`], which the ground truth
//! ends with too — over row-id relations ([`Rel`]), whichever kernel built
//! them. Each operator compiles its column references once
//! ([`ColumnSlots`]) and reads values in place; values are built only for
//! the result set.

use crate::dml::{apply_mutation, DmlOp, DmlOutcome};
use crate::exec::{
    col_index, execute_join, executor_metric, ColumnPruner, ColumnSlots, ExecContext, ExecError,
    Executor, Rel,
};
use crate::faults::FaultKind::{
    self, AntiJoinMaterializationNullDrop, ConstantCacheNullSafeEq, SemiJoinWrongResults,
};
use crate::faults::{FaultSet, TriggerContext};
use crate::plan::{join_prerequisites, JoinAlgo, PhysicalJoin, PhysicalPlan, SubqueryPlan};
use crate::profiles::DbmsProfile;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tqs_sql::ast::{
    BinOp, ColumnRef, DmlStmt, Expr, Join, JoinType, SelectItem, SelectStmt, TableRef,
};
#[cfg(test)]
use tqs_sql::eval::in_membership;
use tqs_sql::eval::{
    eval_expr, eval_predicate, ChainedResolver, ColumnResolver, EvalError, SubqueryHandler,
    SubqueryMemo, SubquerySource,
};
use tqs_sql::hints::{Hint, HintSet, SemiJoinStrategy, SessionSwitch, SwitchName};
use tqs_sql::parser::{parse_dml, parse_stmt, ParseError};
use tqs_sql::value::Value;
use tqs_storage::{result_tail, Catalog, ResultSet, Row, Table, TailError};
use tqs_telemetry::QueryProfile;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    UnknownTable(String),
    Parse(ParseError),
    Exec(ExecError),
    Eval(EvalError),
    Unsupported(String),
    /// The disk engine's page store failed (I/O error or injected crash).
    Storage(String),
    /// A binding the FROM clause names twice.
    NotUniqueTable(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Storage(m) => write!(f, "storage: {m}"),
            EngineError::NotUniqueTable(b) => write!(f, "not unique table/alias: `{b}`"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}
impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}
impl From<TailError> for EngineError {
    fn from(e: TailError) -> Self {
        match e {
            TailError::Eval(e) => EngineError::Eval(e),
            TailError::Unsupported(m) => EngineError::Unsupported(m.into()),
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub result: ResultSet,
    pub plan: PhysicalPlan,
    /// Faults that fired during this execution. The detector must not look at
    /// this; the benchmark harness uses it as "developer root-cause analysis"
    /// when reproducing Table 4.
    pub fired: Vec<FaultKind>,
    /// Operator-level row counts and timings, collected only while telemetry
    /// is enabled (`None` otherwise — the hot path stays allocation-free).
    pub profile: Option<QueryProfile>,
}

/// The open transaction of a session: the catalog as it stood at `BEGIN`
/// (cheap to keep — tables are `Arc`-shared until mutated) plus the ops
/// applied since, in order.
#[derive(Debug, Clone)]
pub(crate) struct DmlTxn {
    snapshot: Catalog,
    ops: Vec<DmlOp>,
}

/// A simulated DBMS instance: a loaded catalog, a profile (with its latent
/// faults), and per-session optimizer switches.
#[derive(Debug, Clone)]
pub struct Database {
    pub catalog: Catalog,
    pub profile: DbmsProfile,
    pub(crate) switches: HashMap<SwitchName, bool>,
    /// The open transaction, if any (single-session visibility: this
    /// session's own uncommitted writes live directly in `catalog`).
    txn: Option<DmlTxn>,
}

/// A session of the simulated DBMS, whichever executor runs it.
///
/// The three executors — [`Database`] (row), [`crate::ColumnarDatabase`] and
/// [`crate::DiskDatabase`] — differ in where base relations come from and in
/// which join / filter kernel runs. An executor supplies exactly that (the
/// required methods); the rest of the session surface is written once, in the
/// provided methods.
pub trait Engine {
    /// The session state: catalog, profile, switches, open transaction.
    fn session(&self) -> &Database;

    fn session_mut(&mut self) -> &mut Database;

    /// Replace the data the session runs over.
    fn load_catalog(&mut self, catalog: Catalog) -> Result<(), EngineError>;

    /// Execute a statement and return its result set, plan and fired faults.
    fn execute(&mut self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError>;

    /// Execute one DML / transaction-control statement.
    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<DmlOutcome, EngineError>;

    /// The line EXPLAIN appends under the plan to name the executor (the row
    /// executor, being the plan's default reading, has none).
    fn executor_note(&self) -> Option<String>;

    fn catalog(&self) -> &Catalog {
        &self.session().catalog
    }

    fn profile(&self) -> &DbmsProfile {
        &self.session().profile
    }

    /// Is a transaction open on this session?
    fn in_txn(&self) -> bool {
        self.session().txn.is_some()
    }

    /// `SET optimizer_switch='name=on|off'`.
    fn apply_switch(&mut self, s: SessionSwitch) {
        self.session_mut().switches.insert(s.name, s.on);
    }

    fn reset_switches(&mut self) {
        self.session_mut().switches.clear();
    }

    /// EXPLAIN: the physical plan the optimizer would choose, then the
    /// executor note.
    fn explain(&self, stmt: &SelectStmt) -> Result<String, EngineError> {
        let mut out = self.session().plan(stmt)?.explain();
        out.extend(self.executor_note());
        Ok(out)
    }

    /// Execute a transformed query: apply the hint set's session switches,
    /// splice its hints into the statement, execute, then restore switches.
    fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<ExecOutcome, EngineError> {
        let saved = self.session().switches.clone();
        for s in &hints.switches {
            self.apply_switch(*s);
        }
        let mut hinted = stmt.clone();
        hinted.hints.extend(hints.hints.iter().cloned());
        let out = self.execute(&hinted);
        self.session_mut().switches = saved;
        out
    }

    /// Execute SQL text (parses, then executes).
    fn execute_sql(&mut self, sql: &str) -> Result<ExecOutcome, EngineError> {
        let stmt = parse_stmt(sql)?;
        self.execute(&stmt)
    }

    /// Execute DML text (parses one statement, then executes).
    fn execute_dml_sql(&mut self, sql: &str) -> Result<DmlOutcome, EngineError> {
        let stmt = parse_dml(sql)?;
        self.execute_dml(&stmt)
    }
}

impl Database {
    pub fn new(catalog: Catalog, profile: DbmsProfile) -> Self {
        Database {
            catalog,
            profile,
            switches: HashMap::new(),
            txn: None,
        }
    }

    /// Ops the open transaction has applied so far (empty outside one). The
    /// disk engine replays these onto its scanned catalog so a session sees
    /// its own uncommitted writes.
    pub(crate) fn txn_ops(&self) -> &[DmlOp] {
        self.txn.as_ref().map(|t| t.ops.as_slice()).unwrap_or(&[])
    }

    /// Drop any open transaction without touching the catalog — the disk
    /// engine's crash recovery discards in-flight state this way after it
    /// has rebuilt the catalog from durable storage.
    pub(crate) fn clear_txn(&mut self) {
        self.txn = None;
    }
}

/// The row executor: scans the session's own catalog, row-at-a-time kernels.
impl Engine for Database {
    fn session(&self) -> &Database {
        self
    }

    fn session_mut(&mut self) -> &mut Database {
        self
    }

    fn load_catalog(&mut self, catalog: Catalog) -> Result<(), EngineError> {
        self.catalog = catalog;
        Ok(())
    }

    fn execute(&mut self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError> {
        let (plan, ctx) = self.begin(stmt, Executor::Row)?;
        let _stmt_span = tqs_telemetry::span("engine", "row.execute");
        self.execute_plan(&RowKernel, &self.catalog, stmt, plan, ctx)
    }

    /// Execute one DML / transaction-control statement against this session.
    ///
    /// Mutations apply immediately to `catalog` (this session sees its own
    /// writes); `BEGIN` snapshots, `ROLLBACK` restores the snapshot exactly
    /// and `COMMIT` makes the delta permanent. The enabled
    /// [`FaultKind::DML`] faults fire here on their trigger shapes — see the
    /// [`crate::dml`] module docs.
    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<DmlOutcome, EngineError> {
        match stmt {
            DmlStmt::Begin => {
                if self.txn.is_some() {
                    return Err(EngineError::Unsupported(
                        "BEGIN inside an open transaction".into(),
                    ));
                }
                self.txn = Some(DmlTxn {
                    snapshot: self.catalog.clone(),
                    ops: Vec::new(),
                });
                Ok(DmlOutcome::default())
            }
            DmlStmt::Commit => {
                let t = self.txn.take().ok_or_else(|| {
                    EngineError::Unsupported("COMMIT without an open transaction".into())
                })?;
                let mut out = DmlOutcome {
                    ops: t.ops,
                    ..DmlOutcome::default()
                };
                if self
                    .profile
                    .faults
                    .contains(FaultKind::DmlCommitBoundaryTornVisibility)
                {
                    // The commit publishes every buffered change except the
                    // last: tear it back off the live catalog.
                    if let Some(last) = out.ops.pop() {
                        last.revert(&mut self.catalog);
                        out.fire(FaultKind::DmlCommitBoundaryTornVisibility);
                    }
                }
                Ok(out)
            }
            DmlStmt::Rollback => {
                let t = self.txn.take().ok_or_else(|| {
                    EngineError::Unsupported("ROLLBACK without an open transaction".into())
                })?;
                self.catalog = t.snapshot;
                let mut out = DmlOutcome::default();
                if self
                    .profile
                    .faults
                    .contains(FaultKind::DmlRollbackLeaksInsertedRow)
                {
                    // The rollback missed the transaction's first insert: the
                    // row comes back, appended at the end of its table.
                    let leaked = t.ops.iter().find_map(|op| match op {
                        DmlOp::Insert { table, row, .. } => Some((table.clone(), row.clone())),
                        _ => None,
                    });
                    if let Some((table, row)) = leaked {
                        if let Some(tab) = self.catalog.table_mut(&table) {
                            let idx = tab.rows.len();
                            tab.rows.push(Row::new(row.clone()));
                            out.ops.push(DmlOp::Insert { table, idx, row });
                            out.fire(FaultKind::DmlRollbackLeaksInsertedRow);
                        }
                    }
                }
                Ok(out)
            }
            _ => {
                let out = apply_mutation(&mut self.catalog, &self.profile.faults, stmt)?;
                if let Some(t) = self.txn.as_mut() {
                    t.ops.extend(out.ops.iter().cloned());
                }
                Ok(out)
            }
        }
    }

    fn executor_note(&self) -> Option<String> {
        None
    }
}

impl Database {
    fn switch_on(&self, name: SwitchName) -> bool {
        *self.switches.get(&name).unwrap_or(&true)
    }

    /// The optimizer: choose a physical plan for `stmt` given the session
    /// switches, the statement's hints and the profile defaults.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<PhysicalPlan, EngineError> {
        if let Some(b) = stmt.from.repeated_binding() {
            return Err(EngineError::NotUniqueTable(b.to_string()));
        }
        let mut notes = Vec::new();
        let materialization = self.materialization_enabled(stmt);
        let semi_strategy = self.semi_strategy(stmt);
        let subquery_plan = self.subquery_plan(stmt, materialization, semi_strategy);

        // Join order: AST order unless a JOIN_ORDER hint gives a valid
        // alternative (base table stays first; every ON must only reference
        // bindings already joined).
        let mut join_order: Vec<usize> = (0..stmt.from.joins.len()).collect();
        if let Some(Hint::JoinOrder(order)) =
            stmt.hints.iter().find(|h| matches!(h, Hint::JoinOrder(_)))
        {
            if let Some(reordered) = self.reorder_joins(stmt, order) {
                join_order = reordered;
                notes.push("join order forced by JOIN_ORDER hint".into());
            } else {
                notes.push("JOIN_ORDER hint ignored (invalid order)".into());
            }
        }

        // Outer-join simplification: a LEFT OUTER JOIN whose right side is
        // referenced by a null-rejecting WHERE conjunct or by a later inner
        // join condition is rewritten to an inner join.
        let simplify: Vec<bool> = stmt
            .from
            .joins
            .iter()
            .enumerate()
            .map(|(i, j)| {
                j.join_type == JoinType::LeftOuter && self.null_rejecting_reference(stmt, i)
            })
            .collect();

        let mut joins = Vec::new();
        for &i in &join_order {
            let j = &stmt.from.joins[i];
            let binding = j.table.binding().to_string();
            let (join_type, simplified) = if simplify[i] {
                notes.push(format!(
                    "left outer join {binding} simplified to inner join"
                ));
                (JoinType::Inner, true)
            } else {
                (j.join_type, false)
            };
            let right_has_key = self.right_has_key(j);
            let algo = self.choose_algo(stmt, &binding, join_type, right_has_key);
            let buffer_rows = self.buffer_for(algo, join_type);
            joins.push(PhysicalJoin {
                right_binding: binding,
                join_type,
                algo,
                simplified_from_outer: simplified,
                buffer_rows,
            });
        }

        Ok(PhysicalPlan {
            base_binding: stmt.from.base.binding().to_string(),
            joins,
            join_order,
            subquery_plan,
            notes,
        })
    }

    pub(crate) fn materialization_enabled(&self, stmt: &SelectStmt) -> bool {
        if let Some(Hint::Materialization(b)) = stmt
            .hints
            .iter()
            .find(|h| matches!(h, Hint::Materialization(_)))
        {
            return *b;
        }
        self.switch_on(SwitchName::Materialization) && self.profile.default_materialization
    }

    pub(crate) fn semi_strategy(&self, stmt: &SelectStmt) -> Option<SemiJoinStrategy> {
        for h in &stmt.hints {
            match h {
                Hint::NoSemiJoin => return None,
                Hint::SemiJoin(Some(s)) => return Some(*s),
                Hint::SemiJoin(None) => return Some(SemiJoinStrategy::Materialization),
                _ => {}
            }
        }
        if self.profile.default_semijoin_transform {
            Some(SemiJoinStrategy::Materialization)
        } else {
            Some(SemiJoinStrategy::FirstMatch)
        }
    }

    fn subquery_plan(
        &self,
        stmt: &SelectStmt,
        materialization: bool,
        semi: Option<SemiJoinStrategy>,
    ) -> SubqueryPlan {
        if !stmt.has_subquery() {
            return SubqueryPlan::DirectPerRow;
        }
        if stmt
            .hints
            .iter()
            .any(|h| matches!(h, Hint::SubqueryToDerived))
        {
            return SubqueryPlan::SubqueryToDerived;
        }
        match semi {
            Some(s) if self.profile.default_semijoin_transform => {
                SubqueryPlan::SemiJoinTransform(s)
            }
            _ if materialization => SubqueryPlan::Materialize,
            _ => SubqueryPlan::DirectPerRow,
        }
    }

    fn reorder_joins(&self, stmt: &SelectStmt, order: &[String]) -> Option<Vec<usize>> {
        let needs = join_prerequisites(&stmt.from)?;
        let mut result = Vec::new();
        for name in order {
            if name.eq_ignore_ascii_case(stmt.from.base.binding()) {
                continue;
            }
            let idx = stmt
                .from
                .joins
                .iter()
                .position(|j| j.table.binding().eq_ignore_ascii_case(name))?;
            if !result.contains(&idx) {
                result.push(idx);
            }
        }
        for i in 0..stmt.from.joins.len() {
            if !result.contains(&i) {
                result.push(i);
            }
        }
        // valid when every join comes after the joins its ON clause needs
        let mut placed = vec![false; result.len()];
        for &i in &result {
            if needs[i].iter().any(|&k| !placed[k]) {
                return None;
            }
            placed[i] = true;
        }
        Some(result)
    }

    /// Does a WHERE conjunct or a later inner-join condition reject NULLs of
    /// the right side of join `idx`?
    fn null_rejecting_reference(&self, stmt: &SelectStmt, idx: usize) -> bool {
        let binding = stmt.from.joins[idx].table.binding().to_lowercase();
        let mentions = |e: &Expr| -> bool {
            e.column_refs().iter().any(|c| {
                c.table
                    .as_ref()
                    .map(|t| t.to_lowercase() == binding)
                    .unwrap_or(false)
            })
        };
        // later join conditions
        for j in stmt.from.joins.iter().skip(idx + 1) {
            if matches!(j.join_type, JoinType::Inner | JoinType::Semi) {
                if let Some(on) = &j.on {
                    if mentions(on) {
                        return true;
                    }
                }
            }
        }
        // null-rejecting WHERE conjuncts (comparisons, not IS NULL)
        if let Some(w) = &stmt.where_clause {
            for c in w.conjuncts() {
                if let Expr::Binary { op, .. } = c {
                    if op.is_comparison() && *op != BinOp::NullSafeEq && mentions(c) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn right_has_key(&self, join: &Join) -> bool {
        let table = match self.catalog.table(&join.table.table) {
            Some(t) => t,
            None => return false,
        };
        match &join.on {
            Some(on) => on.column_refs().iter().any(|c| {
                c.table
                    .as_ref()
                    .map(|t| t.eq_ignore_ascii_case(join.table.binding()))
                    .unwrap_or(false)
                    && table.has_key_on(&c.column)
            }),
            None => false,
        }
    }

    fn choose_algo(
        &self,
        stmt: &SelectStmt,
        binding: &str,
        join_type: JoinType,
        right_has_key: bool,
    ) -> JoinAlgo {
        let applies = |tables: &Vec<String>| {
            tables.is_empty() || tables.iter().any(|t| t.eq_ignore_ascii_case(binding))
        };
        let mut forbidden_hash = false;
        for h in &stmt.hints {
            match h {
                Hint::HashJoin(t) if applies(t) => return JoinAlgo::HashJoin,
                Hint::MergeJoin(t) if applies(t) => return JoinAlgo::SortMergeJoin,
                Hint::NlJoin(t) if applies(t) => {
                    return if self.switch_on(SwitchName::BlockNestedLoop) {
                        JoinAlgo::BlockNestedLoop
                    } else {
                        JoinAlgo::NestedLoop
                    }
                }
                Hint::IndexJoin(t) if applies(t) => return JoinAlgo::IndexJoin,
                Hint::NoHashJoin(t) if applies(t) => forbidden_hash = true,
                _ => {}
            }
        }
        if join_type == JoinType::Cross {
            return JoinAlgo::NestedLoop;
        }
        let mut algo = self.profile.default_equi_algo;
        // profile/switch modulation
        if algo == JoinAlgo::IndexJoin && !right_has_key {
            algo = JoinAlgo::HashJoin;
        }
        if self.profile.default_equi_algo == JoinAlgo::BlockNestedLoopHashed {
            algo = if right_has_key
                && self.switch_on(SwitchName::BatchedKeyAccess)
                && self.switch_on(SwitchName::JoinCacheBka)
            {
                JoinAlgo::BatchedKeyAccess
            } else if self.switch_on(SwitchName::JoinCacheHashed) {
                JoinAlgo::BlockNestedLoopHashed
            } else {
                JoinAlgo::BlockNestedLoop
            };
        }
        if algo == JoinAlgo::HashJoin && (!self.switch_on(SwitchName::HashJoin) || forbidden_hash) {
            algo = if self.switch_on(SwitchName::BlockNestedLoop) {
                JoinAlgo::BlockNestedLoop
            } else {
                JoinAlgo::NestedLoop
            };
        }
        if algo == JoinAlgo::BlockNestedLoopHashed && !self.switch_on(SwitchName::JoinCacheHashed) {
            algo = JoinAlgo::BlockNestedLoop;
        }
        if algo == JoinAlgo::BatchedKeyAccess && !self.switch_on(SwitchName::JoinCacheBka) {
            algo = JoinAlgo::BlockNestedLoop;
        }
        if !self.switch_on(SwitchName::BlockNestedLoop) && algo == JoinAlgo::BlockNestedLoop {
            algo = JoinAlgo::NestedLoop;
        }
        algo
    }

    fn buffer_for(&self, algo: JoinAlgo, join_type: JoinType) -> Option<usize> {
        let buffered = matches!(
            algo,
            JoinAlgo::BlockNestedLoop
                | JoinAlgo::BlockNestedLoopHashed
                | JoinAlgo::BatchedKeyAccess
        );
        if !buffered {
            return None;
        }
        let outer = matches!(
            join_type,
            JoinType::LeftOuter | JoinType::RightOuter | JoinType::FullOuter
        );
        if outer && !self.switch_on(SwitchName::OuterJoinWithCache) {
            return None;
        }
        Some(self.profile.join_buffer_rows)
    }

    /// The prologue every executor opens a statement with: the plan, and an
    /// execution context carrying the statement's trigger context — the
    /// session and plan facts the fault triggers read, built once here.
    pub(crate) fn begin(
        &self,
        stmt: &SelectStmt,
        executor: Executor,
    ) -> Result<(PhysicalPlan, ExecContext), EngineError> {
        let plan = self.plan(stmt)?;
        let mut ctx = ExecContext::new(self.profile.faults);
        ctx.executor = executor;
        ctx.trigger = TriggerContext {
            semi_strategy: self.semi_strategy(stmt),
            materialization: self.materialization_enabled(stmt),
            subquery_present: stmt.has_subquery(),
            subquery_plan: Some(plan.subquery_plan),
            switched_off: (SwitchName::ALL.into_iter())
                .filter(|&n| !self.switch_on(n))
                .collect(),
            ..TriggerContext::default()
        };
        ctx.check_cancelled()?;
        Ok((plan, ctx))
    }

    /// The statement pipeline every executor runs, over `catalog` — the
    /// session's own, or the one the disk executor scanned out of its page
    /// store — with `kernel`'s operators: base scan, joins in plan order,
    /// WHERE, then [`Database::finish`]. Scans keep only the columns the
    /// statement can observe ([`ColumnPruner`]). The operator clocks, profile
    /// entries and `engine.<executor>.*` counters are booked here.
    pub(crate) fn execute_plan<K: Kernel>(
        &self,
        kernel: &K,
        catalog: &Catalog,
        stmt: &SelectStmt,
        plan: PhysicalPlan,
        mut ctx: ExecContext,
    ) -> Result<ExecOutcome, EngineError> {
        let pruner = ColumnPruner::new(stmt);
        let scan = |from: &TableRef| {
            let table = find_table(catalog, &from.table)?;
            let keep = pruner.keep_indices(table, from.binding());
            Ok::<_, EngineError>(Rel::scan(table, from.binding(), &keep))
        };
        let op_t0 = ctx.op_start();
        let mut rel = scan(&stmt.from.base)?;
        if op_t0.is_some() {
            let rows = rel.len() as u64;
            ctx.op_end(op_t0, "scan", rows, rows);
            executor_metric!(counter, ctx.executor, "scan.rows_out").add(rows);
        }

        for (pj, &i) in plan.joins.iter().zip(&plan.join_order) {
            ctx.check_cancelled()?;
            let ast_join = &stmt.from.joins[i];
            let right = scan(&ast_join.table)?;
            let op_t0 = ctx.op_start();
            let rows_in = (rel.len() + right.len()) as u64;
            let (on, batch) = (ast_join.on.as_ref(), kernel.probe_batch());
            rel = execute_join(&rel, &right, pj, on, batch, &mut ctx)?;
            if op_t0.is_some() {
                let rows_out = rel.len() as u64;
                let ns = ctx.op_end(op_t0, pj.algo.profile_label(), rows_in, rows_out);
                executor_metric!(counter, ctx.executor, "join.rows_in").add(rows_in);
                executor_metric!(counter, ctx.executor, "join.rows_out").add(rows_out);
                executor_metric!(histogram, ctx.executor, "join.ns").record(ns);
            }
        }

        // The predicate the kernel rewrote, if it did, is held here so that
        // it outlives `sub`, whose memo keys on node addresses.
        let rewritten = stmt
            .where_clause
            .as_ref()
            .and_then(|pred| kernel.rewrite_where(pred, &rel, &mut ctx));
        let sub = EngineSubqueries::new(catalog, &ctx);
        if let Some(pred) = rewritten.as_ref().or(stmt.where_clause.as_ref()) {
            let op_t0 = ctx.op_start();
            let rows_in = rel.len() as u64;
            rel = kernel.filter(pred, rel, &mut ctx, &sub)?;
            if op_t0.is_some() {
                let rows_out = rel.len() as u64;
                ctx.op_end(op_t0, "filter", rows_in, rows_out);
                executor_metric!(counter, ctx.executor, "filter.rows_in").add(rows_in);
                executor_metric!(counter, ctx.executor, "filter.rows_out").add(rows_out);
            }
        }
        self.finish(stmt, plan, &rel, sub, ctx)
    }

    /// The tail every executor closes a statement with: [`result_tail`] —
    /// projection or aggregation, DISTINCT and LIMIT, the one
    /// implementation the ground truth runs too — over the filtered
    /// relation, read in place through slots compiled once for the tail's
    /// expressions; then the statement's books — telemetry and the faults
    /// the subqueries fired.
    fn finish(
        &self,
        stmt: &SelectStmt,
        plan: PhysicalPlan,
        rel: &Rel,
        sub: EngineSubqueries<'_>,
        mut ctx: ExecContext,
    ) -> Result<ExecOutcome, EngineError> {
        let op_t0 = ctx.op_start();
        let rows_in = rel.len() as u64;
        let items = stmt.items.iter().filter_map(SelectItem::expr);
        let slots = ColumnSlots::new(stmt.group_by.iter().chain(items), &rel.cols);
        let row = |i| rel.resolver(&slots, i);
        let result = result_tail(stmt, &rel.cols, rel.len(), row, &sub)?;
        if op_t0.is_some() {
            let grouped = stmt.is_grouped();
            let rows_out = result.rows.len() as u64;
            let op = if grouped { "group" } else { "project" };
            ctx.op_end(op_t0, op, rows_in, rows_out);
            if grouped {
                executor_metric!(counter, ctx.executor, "group.rows_in").add(rows_in);
                executor_metric!(counter, ctx.executor, "group.rows_out").add(rows_out);
            }
            executor_metric!(counter, ctx.executor, "statements").incr();
        }

        ctx.fired.extend(sub.into_fired());
        ctx.fired.dedup();
        Ok(ExecOutcome {
            result,
            plan,
            fired: ctx.fired,
            profile: ctx.profile,
        })
    }
}

/// `name` in `catalog`, or the engine's unknown-table error.
pub(crate) fn find_table<'a>(
    catalog: &'a Catalog,
    name: &str,
) -> Result<&'a Arc<Table>, EngineError> {
    catalog
        .shared_table(name)
        .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
}

/// One kernel's operators: what [`Database::execute_plan`] runs a statement
/// with.
pub(crate) trait Kernel {
    /// The probe batch [`execute_join`] runs every join step with; `None`
    /// probes row by row.
    fn probe_batch(&self) -> Option<usize> {
        None
    }

    /// The WHERE predicate as the kernel's faults rewrite it against `rel`,
    /// `None` when it stands as written.
    fn rewrite_where(&self, _pred: &Expr, _rel: &Rel, _ctx: &mut ExecContext) -> Option<Expr> {
        None
    }

    /// The rows of `rel` on which `pred` holds.
    fn filter(
        &self,
        pred: &Expr,
        rel: Rel,
        ctx: &mut ExecContext,
        sub: &EngineSubqueries<'_>,
    ) -> Result<Rel, EngineError>;
}

/// The row kernel: [`execute_join`] probing row by row, and a WHERE
/// evaluated row by row that keeps ids. The row and the disk executor run
/// it.
pub(crate) struct RowKernel;

impl Kernel for RowKernel {
    /// Fault #6: `<=>` comparisons against a literal reuse a constant that
    /// was type-converted against the first row; if that first value was
    /// NULL, the cached constant degrades to NULL.
    fn rewrite_where(&self, pred: &Expr, rel: &Rel, ctx: &mut ExecContext) -> Option<Expr> {
        let active = ctx.faults.active(&ctx.trigger);
        if !active.contains(ConstantCacheNullSafeEq) || rel.is_empty() {
            return None;
        }
        let mut fired = false;
        let rewritten = rewrite_null_safe_eq(pred, &mut |col: &tqs_sql::ast::ColumnRef| {
            let idx = col_index(&rel.cols, col.table.as_deref(), &col.column)?;
            if rel.value(0, idx).is_null() {
                fired = true;
                Some(Value::Null)
            } else {
                None
            }
        });
        if fired {
            ctx.fire(ConstantCacheNullSafeEq);
        }
        fired.then_some(rewritten)
    }

    fn filter(
        &self,
        pred: &Expr,
        mut rel: Rel,
        _ctx: &mut ExecContext,
        sub: &EngineSubqueries<'_>,
    ) -> Result<Rel, EngineError> {
        let slots = ColumnSlots::new([pred], &rel.cols);
        rel.retain(|rel, i| {
            eval_predicate(pred, &rel.resolver(&slots, i), sub).map(|t| t == Some(true))
        })?;
        Ok(rel)
    }
}

/// Rewrite literals compared via `<=>` against a column for which `decide`
/// returns a replacement (the cached-constant corruption).
fn rewrite_null_safe_eq(
    e: &Expr,
    decide: &mut impl FnMut(&tqs_sql::ast::ColumnRef) -> Option<Value>,
) -> Expr {
    match e {
        Expr::Binary {
            op: BinOp::NullSafeEq,
            left,
            right,
        } => {
            if let (Expr::Column(c), Expr::Literal(_)) = (left.as_ref(), right.as_ref()) {
                if let Some(v) = decide(c) {
                    return Expr::Binary {
                        op: BinOp::NullSafeEq,
                        left: left.clone(),
                        right: Box::new(Expr::Literal(v)),
                    };
                }
            }
            if let (Expr::Literal(_), Expr::Column(c)) = (left.as_ref(), right.as_ref()) {
                if let Some(v) = decide(c) {
                    return Expr::Binary {
                        op: BinOp::NullSafeEq,
                        left: Box::new(Expr::Literal(v)),
                        right: right.clone(),
                    };
                }
            }
            e.clone()
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_null_safe_eq(left, decide)),
            right: Box::new(rewrite_null_safe_eq(right, decide)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_null_safe_eq(expr, decide)),
        },
        other => other.clone(),
    }
}

/// Subquery execution for WHERE-clause IN/EXISTS, with the faults the
/// statement's subquery plan activates. Shared with the columnar executor,
/// whose WHERE phase delegates subquery evaluation here.
pub(crate) struct EngineSubqueries<'a> {
    catalog: &'a Catalog,
    /// The faults active on the statement ([`FaultSet::active`] of its
    /// trigger context, which holds the plan's subquery strategy).
    active: FaultSet,
    fired: RefCell<Vec<FaultKind>>,
    /// One evaluation per distinct (subquery, outer binding, probe) instead
    /// of one per outer row — shared semantics with the ground-truth
    /// evaluator, see [`SubqueryMemo`]. Faults fire on the miss path only;
    /// `fire` is an idempotent insert, so `fired` comes out the same.
    memo: SubqueryMemo,
}

impl<'a> EngineSubqueries<'a> {
    /// Subqueries of the statement `ctx` belongs to, scanning `catalog`.
    pub(crate) fn new(catalog: &'a Catalog, ctx: &ExecContext) -> Self {
        EngineSubqueries {
            catalog,
            active: ctx.faults.active(&ctx.trigger),
            fired: RefCell::new(Vec::new()),
            memo: SubqueryMemo::new(),
        }
    }

    /// End of the statement: book the memo's counters, hand back the faults
    /// that fired.
    pub(crate) fn into_fired(self) -> Vec<FaultKind> {
        if tqs_telemetry::enabled() {
            let (evaluations, memo_hits) = self.memo.counts();
            tqs_telemetry::counter!("engine.subquery.evaluations").add(evaluations);
            tqs_telemetry::counter!("engine.subquery.memo_hits").add(memo_hits);
        }
        self.fired.into_inner()
    }

    fn fire(&self, kind: FaultKind) {
        let mut f = self.fired.borrow_mut();
        if !f.contains(&kind) {
            f.push(kind);
        }
    }
}

impl SubquerySource for EngineSubqueries<'_> {
    fn has_own_column(&self, stmt: &SelectStmt, column: &str) -> bool {
        self.catalog
            .table(&stmt.from.base.table)
            .is_some_and(|t| t.column_index(column).is_some())
    }

    /// Execute the (single-table) subquery with correlation support. `stmt`
    /// is only ever borrowed: nested subqueries are memoized by node
    /// address, so no node may be evaluated through a temporary copy.
    fn subquery_values(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        let table = self.catalog.table(&stmt.from.base.table).ok_or_else(|| {
            EvalError::Unsupported(format!("unknown table {}", stmt.from.base.table))
        })?;
        if !stmt.from.joins.is_empty() {
            return Err(EvalError::Unsupported("joins inside subquery".into()));
        }
        let Some(SelectItem::Expr { expr, .. }) = stmt.items.first() else {
            return Err(EvalError::Unsupported(
                "subquery must project one expression".into(),
            ));
        };
        // The WHERE as a conjunction (all must hold; every conjunct is
        // evaluated, as `AND` does). Fault #1: under semi-join
        // materialization, equality conditions in the subquery's WHERE are
        // neither pushed down nor evaluated.
        let mut conjuncts: Vec<&Expr> = stmt.where_clause.iter().collect();
        let drops_equalities = self.active.contains(SemiJoinWrongResults);
        if let (true, Some(w)) = (drops_equalities, &stmt.where_clause) {
            let mut flat = w.conjuncts();
            let all = flat.len();
            flat.retain(|c| !matches!(c, Expr::Binary { op: BinOp::Eq, .. }));
            if flat.len() < all {
                self.fire(SemiJoinWrongResults);
                conjuncts = flat;
            }
        }
        let binding = stmt.from.base.binding();
        let mut out = Vec::new();
        for row in &table.rows {
            // Borrow the stored row directly — no per-call table clone, no
            // per-row scope materialization.
            let inner = TableRow {
                binding,
                table,
                row: &row.values,
            };
            let resolver = ChainedResolver {
                inner: &inner,
                outer,
            };
            let mut keep = true;
            for pred in &conjuncts {
                keep &= eval_predicate(pred, &resolver, self)? == Some(true);
            }
            if keep {
                out.push(eval_expr(expr, &resolver, self)?);
            }
        }
        // Fault #5: the materialized probe set silently drops NULLs, turning
        // NOT IN's UNKNOWN into FALSE.
        if self.active.contains(AntiJoinMaterializationNullDrop) && out.iter().any(|v| v.is_null())
        {
            self.fire(AntiJoinMaterializationNullDrop);
            out.retain(|v| !v.is_null());
        }
        Ok(out)
    }
}

impl SubqueryHandler for EngineSubqueries<'_> {
    fn in_subquery(
        &self,
        probe: &Value,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Option<bool>, EvalError> {
        #[cfg(test)]
        if per_row_reference::on() {
            return Ok(in_membership(probe, &self.subquery_values(stmt, outer)?));
        }
        self.memo.in_subquery(self, probe, stmt, outer)
    }

    fn exists(&self, stmt: &SelectStmt, outer: &dyn ColumnResolver) -> Result<bool, EvalError> {
        #[cfg(test)]
        if per_row_reference::on() {
            return Ok(!self.subquery_values(stmt, outer)?.is_empty());
        }
        self.memo.exists(self, stmt, outer)
    }
}

/// Test-only switch back to one subquery evaluation per outer row, the
/// reference the memoized path is compared against.
#[cfg(test)]
pub(crate) mod per_row_reference {
    use std::cell::Cell;

    thread_local! {
        static ON: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn on() -> bool {
        ON.with(Cell::get)
    }

    /// Run `f` with every subquery predicate on this thread evaluated
    /// directly.
    pub(crate) fn with<T>(f: impl FnOnce() -> T) -> T {
        ON.with(|on| on.set(true));
        let out = f();
        ON.with(|on| on.set(false));
        out
    }
}

/// Borrow-based resolver over one stored table row (subquery scans): the
/// same resolution rules as a scanned relation's scope, without cloning the
/// table or materializing per-row scope entries.
struct TableRow<'a> {
    binding: &'a str,
    table: &'a Table,
    row: &'a [Value],
}

impl ColumnResolver for TableRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<&Value> {
        if let Some(q) = &col.table {
            if !q.eq_ignore_ascii_case(self.binding) {
                return None;
            }
        }
        self.table
            .columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(&col.column))
            .map(|i| &self.row[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{DbmsProfile, ProfileId, ProfileInfo};
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t1 = Table::new(
            "t1",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c) in [(1, Some(10)), (2, Some(20)), (3, None)] {
            t1.push_row(Row::new(vec![
                Value::Int(id),
                c.map(Value::Int).unwrap_or(Value::Null),
            ]))
            .unwrap();
        }
        cat.add_table(t1);
        let mut t2 = Table::new(
            "t2",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Varchar(100)),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c) in [(10, "a"), (20, "b"), (30, "c")] {
            t2.push_row(Row::new(vec![Value::Int(id), Value::str(c)]))
                .unwrap();
        }
        cat.add_table(t2);
        cat
    }

    fn db(profile: ProfileId) -> Database {
        Database::new(catalog(), DbmsProfile::pristine(profile))
    }

    #[test]
    fn single_table_select_and_where() {
        let mut d = db(ProfileId::MysqlLike);
        let out = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.col1 > 10")
            .unwrap();
        assert_eq!(out.result.row_count(), 1);
        assert!(out.fired.is_empty());
    }

    #[test]
    fn inner_join_across_profiles_gives_same_answer_when_pristine() {
        let sql = "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id";
        let mut results = Vec::new();
        for p in ProfileId::ALL {
            let out = db(p).execute_sql(sql).unwrap();
            results.push(out.result);
        }
        for r in &results[1..] {
            assert!(results[0].same_bag(r));
        }
        assert_eq!(results[0].row_count(), 2);
    }

    #[test]
    fn hints_change_the_physical_plan() {
        let mut d = db(ProfileId::MysqlLike);
        let base = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let hash = d.plan(&base).unwrap();
        let merge = d
            .plan(
                &parse_stmt(
                    "SELECT /*+ MERGE_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id",
                )
                .unwrap(),
            )
            .unwrap();
        assert_ne!(hash.signature(), merge.signature());
        assert_eq!(merge.joins[0].algo, JoinAlgo::SortMergeJoin);
        let nl = d
            .plan(
                &parse_stmt("SELECT /*+ NL_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(nl.joins[0].algo, JoinAlgo::BlockNestedLoop);
        // and the result stays the same on a pristine build
        let a = d.execute(&base).unwrap().result;
        let b = d
            .execute_sql("SELECT /*+ MERGE_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
            .unwrap()
            .result;
        assert!(a.same_bag(&b));
    }

    #[test]
    fn switches_change_mariadb_algorithms() {
        let mut d = db(ProfileId::MariadbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let default_algo = d.plan(&stmt).unwrap().joins[0].algo;
        assert_eq!(default_algo, JoinAlgo::BatchedKeyAccess);
        d.apply_switch(SessionSwitch::off(SwitchName::JoinCacheBka));
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BlockNestedLoopHashed
        );
        d.apply_switch(SessionSwitch::off(SwitchName::JoinCacheHashed));
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BlockNestedLoop
        );
        d.reset_switches();
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BatchedKeyAccess
        );
    }

    /// The MariaDB-like join-cache planning keys on the profile's default
    /// algorithm, not on its display name: every shipped build's name says
    /// MariaDB exactly when that algorithm is BNLH, and a renamed
    /// MariaDB-like build plans identically under every switch.
    #[test]
    fn a_renamed_mariadb_like_profile_plans_identically() {
        let builds = [DbmsProfile::build, DbmsProfile::columnar, DbmsProfile::disk];
        for id in ProfileId::ALL {
            for build in builds {
                let p = build(id);
                let bnlh = p.default_equi_algo == JoinAlgo::BlockNestedLoopHashed;
                assert_eq!(p.info.name.starts_with("MariaDB"), bnlh, "{}", p.info.name);
            }
        }
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let off = |names: &[SwitchName]| names.iter().map(|&n| SessionSwitch::off(n)).collect();
        let switch_sets: [Vec<SessionSwitch>; 5] = [
            vec![],
            off(&[SwitchName::JoinCacheBka]),
            off(&[SwitchName::JoinCacheHashed]),
            off(&[SwitchName::JoinCacheBka, SwitchName::JoinCacheHashed]),
            off(&[SwitchName::BlockNestedLoop, SwitchName::JoinCacheHashed]),
        ];
        for build in builds {
            let profile = build(ProfileId::MariadbLike);
            let renamed = DbmsProfile {
                info: ProfileInfo {
                    name: "Renamed".into(),
                    ..profile.info.clone()
                },
                ..profile.clone()
            };
            let mut shipped = Database::new(catalog(), profile);
            let mut renamed = Database::new(catalog(), renamed);
            for switches in &switch_sets {
                for d in [&mut shipped, &mut renamed] {
                    d.reset_switches();
                    for &s in switches {
                        d.apply_switch(s);
                    }
                }
                assert_eq!(renamed.plan(&stmt), shipped.plan(&stmt), "{switches:?}");
            }
        }
        let default = Database::new(catalog(), DbmsProfile::build(ProfileId::MariadbLike));
        assert_eq!(
            default.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BatchedKeyAccess
        );
    }

    #[test]
    fn left_outer_join_simplification() {
        let mut d = db(ProfileId::XdbLike);
        let stmt = parse_stmt(
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id WHERE t2.col1 = 'a'",
        )
        .unwrap();
        let plan = d.plan(&stmt).unwrap();
        assert!(plan.joins[0].simplified_from_outer);
        assert_eq!(plan.joins[0].join_type, JoinType::Inner);
        // without the null-rejecting predicate the outer join survives
        let stmt =
            parse_stmt("SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id").unwrap();
        assert!(!d.plan(&stmt).unwrap().joins[0].simplified_from_outer);
        // simplification does not change results on a pristine build
        let simplified = parse_stmt(
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id WHERE t2.col1 = 'a'",
        )
        .unwrap();
        let out = d.execute(&simplified).unwrap();
        assert_eq!(out.result.row_count(), 1);
    }

    #[test]
    fn join_order_hint_validity() {
        let mut d = db(ProfileId::MysqlLike);
        let stmt =
            parse_stmt("SELECT /*+ JOIN_ORDER(t2, t1) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
                .unwrap();
        let plan = d.plan(&stmt).unwrap();
        assert!(plan.notes.iter().any(|n| n.contains("JOIN_ORDER")));
        let out = d.execute(&stmt).unwrap();
        assert_eq!(out.result.row_count(), 2);
    }

    /// The hint-application body is the one copy all three executors run:
    /// the switches apply while the statement runs and are restored after a
    /// successful and after a failing statement.
    #[test]
    fn execute_with_hints_restores_switches() {
        let profile = || DbmsProfile::pristine(ProfileId::MariadbLike);
        let engines: [Box<dyn Engine>; 3] = [
            Box::new(db(ProfileId::MariadbLike)),
            Box::new(crate::ColumnarDatabase::new(catalog(), profile())),
            Box::new(crate::DiskDatabase::new(catalog(), profile()).unwrap()),
        ];
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let missing = parse_stmt("SELECT x.a FROM missing x").unwrap();
        let hs = HintSet::new("bnl")
            .with_switch(SessionSwitch::off(SwitchName::JoinCacheBka))
            .with_switch(SessionSwitch::off(SwitchName::JoinCacheHashed));
        for mut d in engines {
            let out = d.execute_with_hints(&stmt, &hs).unwrap();
            assert_eq!(out.result.row_count(), 2);
            assert_eq!(out.plan.joins[0].algo, JoinAlgo::BlockNestedLoop);
            // switches restored afterwards
            assert_eq!(
                d.session().plan(&stmt).unwrap().joins[0].algo,
                JoinAlgo::BatchedKeyAccess
            );
            assert!(matches!(
                d.execute_with_hints(&missing, &hs),
                Err(EngineError::UnknownTable(_))
            ));
            assert_eq!(
                d.session().plan(&stmt).unwrap().joins[0].algo,
                JoinAlgo::BatchedKeyAccess
            );
        }
    }

    #[test]
    fn in_subquery_and_not_in_null_semantics() {
        let mut d = db(ProfileId::MysqlLike);
        let inq = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)")
            .unwrap();
        assert_eq!(inq.result.row_count(), 2);
        // NOT IN over a set that contains no NULLs
        let notin = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.id NOT IN (SELECT t2.id FROM t2)")
            .unwrap();
        assert_eq!(notin.result.row_count(), 3);
        // NOT IN over a set containing NULL → empty (col1 of t1 has a NULL)
        let notin_null = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.id NOT IN (SELECT t1.col1 FROM t1)")
            .unwrap();
        assert_eq!(notin_null.result.row_count(), 0);
    }

    #[test]
    fn semi_join_wrong_results_fault_changes_subquery_answer() {
        let mut faulty = Database::new(catalog(), DbmsProfile::build(ProfileId::MysqlLike));
        faulty.profile.default_semijoin_transform = true;
        let sql = "SELECT t1.id FROM t1 WHERE t1.col1 IN \
                   (SELECT t2.id FROM t2 WHERE t2.col1 = 'zzz')";
        let out = faulty.execute_sql(sql).unwrap();
        // correct answer: empty (no t2.col1 = 'zzz'); the fault drops the
        // equality and returns rows
        assert!(out.fired.contains(&FaultKind::SemiJoinWrongResults));
        assert!(out.result.row_count() > 0);
        let pristine = db(ProfileId::MysqlLike).execute_sql(sql).unwrap();
        assert_eq!(pristine.result.row_count(), 0);
    }

    /// `SemiJoinWrongResults` and `AntiJoinMaterializationNullDrop` are in
    /// the statement's active set exactly when its subquery plan and
    /// materialization let the subquery evaluation fire them — and they
    /// fire exactly then — on every profile under every hint set TQS
    /// generates for a statement with a subquery (tqs-core's
    /// `hint_sets_for`: the default and its four subquery sets).
    #[test]
    fn the_subquery_faults_are_active_exactly_when_their_plan_fires_them() {
        let hint_sets = [
            HintSet::new("default"),
            HintSet::new("semijoin-materialization")
                .with_hint(Hint::SemiJoin(Some(SemiJoinStrategy::Materialization))),
            HintSet::new("no-semijoin").with_hint(Hint::NoSemiJoin),
            HintSet::new("subquery-to-derived").with_hint(Hint::SubqueryToDerived),
            HintSet::new("materialization-off")
                .with_switch(SessionSwitch::off(SwitchName::Materialization))
                .with_hint(Hint::Materialization(false)),
        ];
        // An equality in the subquery's WHERE for the first fault to drop,
        // a NULL (t1 row 3) in its values for the second.
        let stmt = parse_stmt(
            "SELECT t2.id FROM t2 WHERE t2.id NOT IN \
             (SELECT t1.col1 FROM t1 WHERE t1.id = t1.id)",
        )
        .unwrap();
        let kinds = [SemiJoinWrongResults, AntiJoinMaterializationNullDrop];
        let mut seen = HashMap::new();
        for id in ProfileId::ALL {
            for hs in &hint_sets {
                let profile = DbmsProfile {
                    faults: FaultSet::of(&kinds),
                    ..DbmsProfile::build(id)
                };
                let mut d = Database::new(catalog(), profile);
                let fired = d.execute_with_hints(&stmt, hs).unwrap().fired;
                for &s in &hs.switches {
                    d.apply_switch(s);
                }
                let mut hinted = stmt.clone();
                hinted.hints.extend(hs.hints.iter().cloned());
                let (plan, ctx) = d.begin(&hinted, Executor::Row).unwrap();
                let active = ctx.faults.active(&ctx.trigger);
                let sq = plan.subquery_plan;
                let fires = [
                    sq == SubqueryPlan::SemiJoinTransform(SemiJoinStrategy::Materialization),
                    ctx.trigger.materialization
                        && matches!(
                            sq,
                            SubqueryPlan::Materialize | SubqueryPlan::SemiJoinTransform(_)
                        ),
                ];
                for (kind, fires) in kinds.into_iter().zip(fires) {
                    let case = format!("{id:?} under {}: {kind:?}", hs.label);
                    assert_eq!(active.contains(kind), fires, "{case} active");
                    assert_eq!(fired.contains(&kind), fires, "{case} fired");
                    seen.entry(kind).or_insert_with(Vec::new).push(fires);
                }
                if (id, hs.label.as_str()) == (ProfileId::MysqlLike, "subquery-to-derived") {
                    // The semi-join strategy is materialization, but the
                    // plan derives the subquery: nothing drops equalities.
                    assert_eq!(
                        ctx.trigger.semi_strategy,
                        Some(SemiJoinStrategy::Materialization)
                    );
                    assert_eq!(sq, SubqueryPlan::SubqueryToDerived);
                    assert!(!active.contains(SemiJoinWrongResults));
                }
            }
        }
        for (kind, fires) in seen {
            assert!(fires.contains(&true) && fires.contains(&false), "{kind:?}");
        }
    }

    #[test]
    fn group_by_and_aggregates() {
        let mut d = db(ProfileId::TidbLike);
        let out = d
            .execute_sql(
                "SELECT t2.col1, COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id GROUP BY t2.col1",
            )
            .unwrap();
        assert_eq!(out.result.row_count(), 2);
        let out = d
            .execute_sql("SELECT COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id")
            .unwrap();
        assert_eq!(out.result.rows[0].values[0], Value::Int(2));
    }

    #[test]
    fn distinct_and_limit() {
        let mut d = db(ProfileId::MysqlLike);
        let out = d
            .execute_sql("SELECT DISTINCT t2.col1 FROM t2 JOIN t1 ON t2.id = t1.col1")
            .unwrap();
        assert_eq!(out.result.row_count(), 2);
        let out = d.execute_sql("SELECT t2.col1 FROM t2 LIMIT 2").unwrap();
        assert_eq!(out.result.row_count(), 2);
    }

    #[test]
    fn errors_for_unknown_tables_and_bad_sql() {
        let mut d = db(ProfileId::MysqlLike);
        assert!(matches!(
            d.execute_sql("SELECT x.a FROM missing x"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            d.execute_sql("SELEKT 1"),
            Err(EngineError::Parse(_))
        ));
    }

    /// A FROM clause may not name a binding twice, in any case; an alias
    /// makes the second occurrence distinct.
    #[test]
    fn a_repeated_binding_is_not_unique() {
        let mut d = db(ProfileId::MysqlLike);
        for (sql, binding) in [
            (
                "SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id JOIN t2 ON t1.id = t2.id",
                "t2",
            ),
            ("SELECT t1.id FROM t1 CROSS JOIN T1", "T1"),
            (
                "SELECT x.id FROM t1 AS x JOIN t2 AS X ON x.col1 = X.id",
                "X",
            ),
        ] {
            let err = d.execute_sql(sql).unwrap_err();
            assert_eq!(err, EngineError::NotUniqueTable(binding.into()), "{sql}");
            assert!(err.to_string().contains("not unique table/alias"));
            assert!(d.explain(&parse_stmt(sql).unwrap()).is_err(), "{sql}");
        }
        let aliased =
            "SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id JOIN t2 AS c ON t1.id = c.id";
        assert_eq!(d.execute_sql(aliased).unwrap().result.row_count(), 0);
    }

    /// Under the NULL/row-0 confusion fault a NULL probe key matches build
    /// row 0 on every algorithm but the merge join: the hash join's answer
    /// is the same on every run and equals the nested loop's. The merge join
    /// has no interception point for it, so the fault is not armed there.
    #[test]
    fn null_zero_confusion_matches_build_row_zero_on_a_hash_join() {
        let mut cat = Catalog::new();
        for (name, keys) in [
            ("a", vec![None, Some(1), Some(2)]),
            ("b", (1..=6).map(Some).collect()),
        ] {
            let mut t = Table::new(
                name,
                vec![
                    ColumnDef::new("k", ColumnType::Int { unsigned: false }),
                    ColumnDef::new("j", ColumnType::Int { unsigned: false }),
                ],
            );
            for (j, k) in keys.into_iter().enumerate() {
                let k = k.map(Value::Int).unwrap_or(Value::Null);
                t.push_row(Row::new(vec![k, Value::Int(10 + j as i64)]))
                    .unwrap();
            }
            cat.add_table(t);
        }
        let profile = DbmsProfile {
            faults: FaultSet::of(&[FaultKind::LeftToInnerNullZeroConfusion]),
            ..DbmsProfile::build(ProfileId::XdbLike)
        };
        let mut d = Database::new(cat, profile);
        let sql = "SELECT a.j, b.j FROM a LEFT OUTER JOIN b ON a.k = b.k WHERE b.j > 0";
        let hashed = d.execute_sql(sql).unwrap();
        assert_eq!(hashed.plan.joins[0].algo, JoinAlgo::HashJoin);
        assert_eq!(hashed.fired, vec![FaultKind::LeftToInnerNullZeroConfusion]);
        for _ in 0..20 {
            assert_eq!(d.execute_sql(sql).unwrap().result.rows, hashed.result.rows);
        }
        let merge_sql = sql.replace("SELECT", "SELECT /*+ MERGE_JOIN(b) */");
        let (plan, ctx) = d
            .begin(&parse_stmt(&merge_sql).unwrap(), Executor::Row)
            .unwrap();
        assert_eq!(plan.joins[0].algo, JoinAlgo::SortMergeJoin);
        assert!(plan.joins[0].simplified_from_outer);
        let step = ctx.faults.active(&ctx.trigger_ctx(&plan.joins[0]));
        assert!(!step.contains(FaultKind::LeftToInnerNullZeroConfusion));
        let merged = d.execute_sql(&merge_sql).unwrap();
        assert!(merged.fired.is_empty());
        assert_eq!(merged.result.row_count(), 2);
        d.apply_switch(SessionSwitch::off(SwitchName::BlockNestedLoop));
        let nl_sql = sql.replace("SELECT", "SELECT /*+ NL_JOIN(b) */");
        let nested = d.execute_sql(&nl_sql).unwrap();
        assert_eq!(nested.plan.joins[0].algo, JoinAlgo::NestedLoop);
        assert_eq!(nested.fired, hashed.fired);
        assert!(nested.result.same_bag(&hashed.result));
        // a's NULL key is paired with b's row 0 (j = 10)
        assert_eq!(hashed.result.row_count(), 3);
    }

    /// The cached `<=>` constant is converted against the first row of the
    /// relation: when that row's value is NULL, the literal degrades to NULL.
    #[test]
    fn null_safe_eq_constant_cache_reads_the_first_row() {
        let mut cat = Catalog::new();
        let mut t = Table::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int { unsigned: false }),
                ColumnDef::new("c", ColumnType::Int { unsigned: false }),
            ],
        );
        for (id, c) in [(1, None), (2, Some(5)), (3, None)] {
            let c = c.map(Value::Int).unwrap_or(Value::Null);
            t.push_row(Row::new(vec![Value::Int(id), c])).unwrap();
        }
        cat.add_table(t);
        let profile = DbmsProfile {
            faults: FaultSet::of(&[FaultKind::ConstantCacheNullSafeEq]),
            ..DbmsProfile::build(ProfileId::MysqlLike)
        };
        let sql = "SELECT t.id FROM t WHERE t.c <=> 5";
        let out = Database::new(cat.clone(), profile)
            .execute_sql(sql)
            .unwrap();
        assert_eq!(out.fired, vec![FaultKind::ConstantCacheNullSafeEq]);
        let ids: Vec<&Value> = out.result.rows.iter().map(|r| r.get(0)).collect();
        assert_eq!(ids, [&Value::Int(1), &Value::Int(3)]);
        let mut clean = Database::new(cat, DbmsProfile::pristine(ProfileId::MysqlLike));
        assert_eq!(clean.execute_sql(sql).unwrap().result.row_count(), 1);
    }

    #[test]
    fn explain_mentions_chosen_algorithm() {
        let d = db(ProfileId::TidbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let e = d.explain(&stmt).unwrap();
        assert!(e.contains("index lookup join") || e.contains("hash join"));
    }
}
