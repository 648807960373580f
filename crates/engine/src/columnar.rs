//! The second simulated engine: a columnar, batch-at-a-time executor.
//!
//! Where [`crate::engine::Database`] executes row-at-a-time over [`Rel`],
//! [`ColumnarDatabase`] keeps every intermediate relation column-major
//! (`ColumnarRel`) and drives joins and WHERE filtering in probe batches of
//! `batch_size` rows: hashed joins encode and probe a whole batch of keys at
//! a time, and simple `column <op> literal` conjuncts are evaluated as tight
//! per-column loops over a selection bitmap instead of building a row scope
//! per tuple.
//!
//! Both engines share the session front ([`Engine`]), the optimizer
//! ([`Database::plan`]), the statement pipeline (`Database::execute_plan`),
//! the subquery machinery and the projection/aggregation tail; this module
//! supplies only the kernel the pipeline runs with. So on fault-free builds
//! they are answer-identical by construction of the shared semantics — a
//! property the workspace pins with a proptest. What differs is the physical
//! execution — and therefore the *fault complement*: the columnar build
//! carries [`FaultKind::COLUMNAR`] (batch-tail loss, NULL-mask misalignment,
//! dictionary truncation, selection-bitmap corruption), which cannot occur in
//! the row engine, and none of the Table 4 row faults. That disjointness is
//! what makes cross-engine differential testing (`DifferentialOracle` in
//! tqs-core) a meaningful oracle.

use crate::dml::DmlOutcome;
use crate::engine::{Database, Engine, EngineError, EngineSubqueries, ExecOutcome, Kernel};
use crate::exec::{
    build_table, col_index, extract_equi_keys, residual_ok, ExecContext, Executor, Rel, Relation,
    ScopeLayout,
};
use crate::faults::{FaultKind, TriggerContext};
use crate::plan::PhysicalJoin;
use crate::profiles::DbmsProfile;
use std::borrow::Cow;
use tqs_sql::ast::{BinOp, ColumnRef, DmlStmt, Expr, JoinType, SelectStmt};
use tqs_sql::eval::{eval_predicate, ColumnResolver};
use tqs_sql::value::{null_safe_eq, sql_compare, KeyBuf, SqlCmp, Value};
use tqs_storage::{Catalog, Table};

/// Default number of rows per probe/filter batch.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 64;

/// A column-major intermediate relation: one `Vec<Value>` per output column,
/// all of equal length.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnarRel {
    /// (binding, column name) per column, parallel to `columns`.
    pub cols: Vec<(String, String)>,
    pub columns: Vec<Vec<Value>>,
}

impl ColumnarRel {
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocation-free resolver for row `i`, consumable by the reference
    /// evaluator — gathers nothing; the one matched value is cloned on
    /// resolution.
    pub fn resolver(&self, i: usize) -> ColRow<'_> {
        ColRow { rel: self, i }
    }

    fn push_gathered(&mut self, src: &ColumnarRel, row: usize, offset: usize) {
        for (ci, col) in src.columns.iter().enumerate() {
            self.columns[offset + ci].push(col[row].clone());
        }
    }

    fn push_nulls(&mut self, offset: usize, width: usize) {
        for ci in 0..width {
            self.columns[offset + ci].push(Value::Null);
        }
    }
}

impl Relation for ColumnarRel {
    fn scan(table: &Table, binding: &str, keep: &[usize]) -> ColumnarRel {
        // `vec![v; n]` clones drop the capacity; build each Vec explicitly.
        let mut columns: Vec<Vec<Value>> = (0..keep.len())
            .map(|_| Vec::with_capacity(table.rows.len()))
            .collect();
        for row in &table.rows {
            for (out_ci, &i) in keep.iter().enumerate() {
                columns[out_ci].push(row.values[i].clone());
            }
        }
        ColumnarRel {
            cols: keep
                .iter()
                .map(|&i| (binding.to_string(), table.columns[i].name.clone()))
                .collect(),
            columns,
        }
    }

    fn len(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    fn value(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// A row-major copy, for handing the tail of the pipeline (projection,
    /// aggregation) to the shared engine code.
    fn row_major(&self) -> Cow<'_, Rel> {
        let rows = (0..self.len())
            .map(|i| self.columns.iter().map(|c| c[i].clone()).collect())
            .collect();
        Cow::Owned(Rel {
            cols: self.cols.clone(),
            rows,
        })
    }
}

/// The columnar simulated DBMS: shares the optimizer, catalog, session
/// switches and subquery machinery with [`Database`], but executes through
/// the vectorized pipeline in this module.
#[derive(Debug, Clone)]
pub struct ColumnarDatabase {
    inner: Database,
    pub(crate) batch_size: usize,
}

impl ColumnarDatabase {
    pub fn new(catalog: Catalog, profile: DbmsProfile) -> Self {
        ColumnarDatabase {
            inner: Database::new(catalog, profile),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

/// The columnar executor: scans the session's own catalog column-major,
/// batch-at-a-time kernels. Mutation and transaction semantics are the inner
/// row session's wholesale — including the DML fault complement, which the
/// columnar builds also carry — because scans re-read the catalog per
/// statement.
impl Engine for ColumnarDatabase {
    fn session(&self) -> &Database {
        &self.inner
    }

    fn session_mut(&mut self) -> &mut Database {
        &mut self.inner
    }

    fn load_catalog(&mut self, catalog: Catalog) -> Result<(), EngineError> {
        self.inner.load_catalog(catalog)
    }

    fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<DmlOutcome, EngineError> {
        self.inner.execute_dml(stmt)
    }

    fn executor_note(&self) -> Option<String> {
        Some(format!(
            "-> executor: columnar, batch {} rows\n",
            self.batch_size
        ))
    }

    /// Execute a statement through the shared pipeline with the columnar
    /// kernel.
    fn execute(&mut self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError> {
        let (plan, ctx) = self.inner.begin(stmt, Executor::Columnar)?;
        let _stmt_span = tqs_telemetry::span("engine", "columnar.execute");
        self.inner
            .execute_plan(self, &self.inner.catalog, stmt, plan, ctx)
    }
}

/// The columnar kernel: [`ColumnarRel`] intermediates, [`columnar_join`]
/// probing in batches, and a vectorized WHERE.
impl Kernel for ColumnarDatabase {
    type Rel = ColumnarRel;

    fn join(
        &self,
        left: &ColumnarRel,
        right: &ColumnarRel,
        join: &PhysicalJoin,
        on: Option<&Expr>,
        ctx: &mut ExecContext,
    ) -> Result<ColumnarRel, EngineError> {
        Ok(columnar_join(left, right, join, on, ctx, self.batch_size))
    }

    /// Vectorized WHERE: conjuncts of the form `column <op> literal` run as
    /// tight per-column loops over the selection bitmap; everything else
    /// falls back to the reference evaluator per row (still batched so the
    /// selection-bitmap fault has a lane structure to corrupt).
    fn filter(
        &self,
        pred: &Expr,
        rel: ColumnarRel,
        ctx: &mut ExecContext,
        sub: &EngineSubqueries<'_>,
    ) -> Result<ColumnarRel, EngineError> {
        let n = rel.len();
        let mut sel = vec![true; n];
        let conjuncts = pred.conjuncts();
        let filter_trigger = TriggerContext::default();
        let null_as_true = ctx
            .faults
            .active(FaultKind::ColumnarFilterNullAsTrue, &filter_trigger);
        for c in conjuncts {
            match vectorizable(c, &rel) {
                Some((ci, op, lit, reversed)) => {
                    let col = &rel.columns[ci];
                    for (i, v) in col.iter().enumerate() {
                        let truth = compare_value(v, op, lit, reversed);
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
                None => {
                    for i in 0..n {
                        let resolver = rel.resolver(i);
                        let truth = eval_predicate(c, &resolver, sub)?;
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
            }
        }
        let mut out = ColumnarRel {
            cols: rel.cols.clone(),
            columns: vec![Vec::new(); rel.width()],
        };
        for (i, keep) in sel.iter().enumerate() {
            if *keep {
                out.push_gathered(&rel, i, 0);
            }
        }
        Ok(out)
    }
}

impl ColumnarDatabase {
    fn apply_truth(
        &self,
        truth: Option<bool>,
        i: usize,
        sel: &mut [bool],
        null_as_true: bool,
        ctx: &mut ExecContext,
    ) {
        match truth {
            Some(true) => {}
            // The selection-bitmap fault: the last lane of a *full* batch is
            // never cleared, so a NULL predicate there stays selected.
            None if null_as_true && i % self.batch_size == self.batch_size - 1 => {
                ctx.fire(FaultKind::ColumnarFilterNullAsTrue);
            }
            _ => sel[i] = false,
        }
    }
}

/// Can this conjunct run through the vectorized comparison kernel?
/// Returns (column index, operator, literal, literal-on-the-left).
fn vectorizable<'a>(e: &'a Expr, rel: &ColumnarRel) -> Option<(usize, BinOp, &'a Value, bool)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::NullSafeEq
    ) {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => {
            col_index(&rel.cols, c.table.as_deref(), &c.column).map(|ci| (ci, *op, v, false))
        }
        (Expr::Literal(v), Expr::Column(c)) => {
            col_index(&rel.cols, c.table.as_deref(), &c.column).map(|ci| (ci, *op, v, true))
        }
        _ => None,
    }
}

/// Three-valued comparison matching the reference evaluator's `tv_compare`.
fn compare_value(v: &Value, op: BinOp, lit: &Value, reversed: bool) -> Option<bool> {
    let (l, r) = if reversed { (lit, v) } else { (v, lit) };
    if op == BinOp::NullSafeEq {
        return Some(null_safe_eq(l, r));
    }
    if l.is_null() || r.is_null() {
        return None;
    }
    match sql_compare(l, r) {
        SqlCmp::Ordering(o) => Some(match op {
            BinOp::Eq => o == std::cmp::Ordering::Equal,
            BinOp::Ne => o != std::cmp::Ordering::Equal,
            BinOp::Lt => o == std::cmp::Ordering::Less,
            BinOp::Le => o != std::cmp::Ordering::Greater,
            BinOp::Gt => o == std::cmp::Ordering::Greater,
            BinOp::Ge => o != std::cmp::Ordering::Less,
            _ => unreachable!("non-comparison op in vectorized kernel"),
        }),
        SqlCmp::Unknown => None,
    }
}

/// Borrow-based resolver over row `i` of a columnar relation.
pub(crate) struct ColRow<'a> {
    rel: &'a ColumnarRel,
    i: usize,
}

impl ColumnResolver for ColRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        col_index(&self.rel.cols, col.table.as_deref(), &col.column)
            .map(|ci| self.rel.columns[ci][self.i].clone())
    }
}

/// Encode the join key of row `i` against `key_idx` column vectors into
/// `buf` (cleared first). Returns `false` for a NULL key (never matches).
/// The dictionary-truncation fault clips long varchar keys to their first 8
/// bytes — raw, without the canonical case folding, exactly like the old
/// `"S:{clip}|"` text segment.
fn encode_key_into(
    columns: &[Vec<Value>],
    key_idx: &[usize],
    i: usize,
    truncate: bool,
    ctx: &mut ExecContext,
    buf: &mut KeyBuf,
) -> bool {
    buf.clear();
    for &ci in key_idx {
        let v = &columns[ci][i];
        if v.is_null() {
            return false;
        }
        if truncate {
            if let Some(s) = v.as_str() {
                if s.len() > 8 {
                    // Clip at the last char boundary at or before byte 8 —
                    // the fault corrupts answers, it must not panic on
                    // multi-byte UTF-8 data.
                    let mut cut = 8;
                    while !s.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    ctx.fire(FaultKind::ColumnarDictTruncation);
                    buf.push_str_raw(&s[..cut]);
                    continue;
                }
            }
        }
        buf.push_canonical(v);
    }
    true
}

/// Execute one physical join step over columnar inputs: build a hash table
/// over the build (right) side, then probe the left side one batch at a
/// time. Non-equi joins degrade to a (correct) batched nested loop.
pub(crate) fn columnar_join(
    left: &ColumnarRel,
    right: &ColumnarRel,
    join: &PhysicalJoin,
    on: Option<&Expr>,
    ctx: &mut ExecContext,
    batch_size: usize,
) -> ColumnarRel {
    let t = ctx.trigger_ctx(join);
    let keys = extract_equi_keys(&left.cols, &right.cols, on);
    let layout = ScopeLayout::compile(&keys.residual, &left.cols, &right.cols);
    let n_left = left.len();

    // Batch-tail loss: hashed probes past the last complete batch are never
    // flushed, so those left rows vanish from the join entirely.
    let mut live_until = n_left;
    if !keys.left_idx.is_empty()
        && ctx.faults.active(FaultKind::ColumnarBatchTailDrop, &t)
        && n_left % batch_size != 0
        && n_left > batch_size
    {
        live_until = (n_left / batch_size) * batch_size;
        ctx.fire(FaultKind::ColumnarBatchTailDrop);
    }

    // Match computation.
    let truncate = ctx.faults.active(FaultKind::ColumnarDictTruncation, &t);
    let mut matches: Vec<Vec<usize>> = vec![Vec::new(); n_left];
    if keys.left_idx.is_empty() {
        // No equi key: batched nested loop (correct for cross/theta joins).
        for (li, row_matches) in matches.iter_mut().enumerate().take(live_until) {
            for ri in 0..right.len() {
                if residual_ok(&keys.residual, &layout, left, li, right, ri) {
                    row_matches.push(ri);
                }
            }
        }
    } else {
        let table = build_table(right.len(), |ri, buf| {
            encode_key_into(&right.columns, &keys.right_idx, ri, truncate, ctx, buf)
        });
        let mut scratch = KeyBuf::new();
        let mut start = 0;
        while start < live_until {
            let end = (start + batch_size).min(live_until);
            for (li, row_matches) in matches[start..end].iter_mut().enumerate() {
                let li = start + li;
                if !encode_key_into(
                    &left.columns,
                    &keys.left_idx,
                    li,
                    truncate,
                    ctx,
                    &mut scratch,
                ) {
                    continue;
                }
                let mut ms = table.get(&scratch).cloned().unwrap_or_default();
                ms.retain(|&ri| residual_ok(&keys.residual, &layout, left, li, right, ri));
                *row_matches = ms;
            }
            start = end;
        }
    }

    // Assemble the output column-major.
    let (cols, left_width, right_width) = match join.join_type {
        JoinType::Semi | JoinType::Anti => (left.cols.clone(), left.width(), 0),
        _ => {
            let mut c = left.cols.clone();
            c.extend(right.cols.clone());
            (c, left.width(), right.width())
        }
    };
    let mut out = ColumnarRel {
        columns: vec![Vec::new(); cols.len()],
        cols,
    };
    let misalign = ctx.faults.active(FaultKind::ColumnarNullPadMisalign, &t);
    let mut first_pad = true;
    let mut right_matched = vec![false; right.len()];
    for (li, ms) in matches.iter().enumerate().take(live_until) {
        match join.join_type {
            JoinType::Inner
            | JoinType::Cross
            | JoinType::LeftOuter
            | JoinType::RightOuter
            | JoinType::FullOuter => {
                for &ri in ms {
                    right_matched[ri] = true;
                    out.push_gathered(left, li, 0);
                    out.push_gathered(right, ri, left_width);
                }
                if ms.is_empty()
                    && matches!(join.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                {
                    out.push_gathered(left, li, 0);
                    // NULL-mask misalignment: the first padded row replays
                    // build row 0 instead of NULLs.
                    if misalign && first_pad && !right.is_empty() {
                        ctx.fire(FaultKind::ColumnarNullPadMisalign);
                        out.push_gathered(right, 0, left_width);
                    } else {
                        out.push_nulls(left_width, right_width);
                    }
                    first_pad = false;
                }
            }
            JoinType::Semi => {
                if !ms.is_empty() {
                    out.push_gathered(left, li, 0);
                }
            }
            JoinType::Anti => {
                if ms.is_empty() {
                    out.push_gathered(left, li, 0);
                }
            }
        }
    }

    // Right/full outer: pad unmatched right rows on the left side.
    if matches!(join.join_type, JoinType::RightOuter | JoinType::FullOuter) {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                if misalign && first_pad && n_left > 0 {
                    ctx.fire(FaultKind::ColumnarNullPadMisalign);
                    out.push_gathered(left, 0, 0);
                } else {
                    for ci in 0..left_width {
                        out.columns[ci].push(Value::Null);
                    }
                }
                first_pad = false;
                out.push_gathered(right, ri, left_width);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::plan::JoinAlgo;
    use crate::profiles::ProfileId;
    use tqs_sql::hints::HintSet;
    use tqs_sql::parser::parse_stmt;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Row;

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

    fn columnar(id: ProfileId) -> ColumnarDatabase {
        ColumnarDatabase::new(catalog(), DbmsProfile::columnar(id).fault_free())
    }

    fn row_db(id: ProfileId) -> Database {
        Database::new(catalog(), DbmsProfile::pristine(id))
    }

    #[test]
    fn columnar_matches_row_engine_on_basic_queries() {
        let queries = [
            "SELECT t1.id FROM t1 WHERE t1.col1 > 10",
            "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)",
            "SELECT t2.col1, COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id GROUP BY t2.col1",
            "SELECT DISTINCT t2.col1 FROM t2 JOIN t1 ON t2.id = t1.col1",
        ];
        for id in ProfileId::ALL {
            let mut col = columnar(id);
            let mut row = row_db(id);
            for q in queries {
                let a = col.execute_sql(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                let b = row.execute_sql(q).unwrap();
                assert!(
                    a.result.same_bag(&b.result),
                    "{id:?} diverged on {q}: columnar {} vs row {}",
                    a.result.pretty(),
                    b.result.pretty()
                );
                assert!(a.fired.is_empty());
            }
        }
    }

    #[test]
    fn batch_boundaries_do_not_change_answers_when_pristine() {
        let mut small = columnar(ProfileId::MysqlLike);
        small.batch_size = 2;
        let mut big = columnar(ProfileId::MysqlLike);
        let q = "SELECT t1.id, t2.col1 FROM t1 JOIN t2 ON t1.col1 = t2.id";
        let a = small.execute_sql(q).unwrap();
        let b = big.execute_sql(q).unwrap();
        assert!(a.result.same_bag(&b.result));
    }

    #[test]
    fn explain_mentions_the_columnar_executor() {
        let db = columnar(ProfileId::TidbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let e = db.explain(&stmt).unwrap();
        assert!(e.contains("executor: columnar"));
    }

    #[test]
    fn batch_tail_drop_loses_probe_rows() {
        let mut db = ColumnarDatabase::new(catalog(), DbmsProfile::columnar(ProfileId::MysqlLike));
        db.batch_size = 2; // 3 probe rows → one full batch + a dropped tail
        let q = "SELECT t1.id, t2.col1 FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = db.execute_sql(q).unwrap();
        let mut clean = columnar(ProfileId::MysqlLike);
        clean.batch_size = 2;
        let clean = clean.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarBatchTailDrop));
        assert!(
            out.result.row_count() < clean.result.row_count(),
            "tail probe rows must vanish: {} vs {}",
            out.result.pretty(),
            clean.result.pretty()
        );
    }

    #[test]
    fn null_pad_misalignment_corrupts_first_padded_row() {
        let mut db = ColumnarDatabase::new(
            catalog(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarNullPadMisalign]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let q = "SELECT t1.id, t2.col1 FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = db.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarNullPadMisalign));
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(out.result.row_count(), clean.result.row_count());
        assert!(!out.result.same_bag(&clean.result));
    }

    #[test]
    fn filter_null_as_true_keeps_a_batch_tail_lane() {
        let mut db = ColumnarDatabase::new(
            catalog(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarFilterNullAsTrue]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        db.batch_size = 3; // t1 has 3 rows; row 3 (NULL col1) sits on the lane
        let q = "SELECT t1.id FROM t1 WHERE t1.col1 > 5";
        let out = db.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarFilterNullAsTrue));
        assert_eq!(out.result.row_count(), 3, "{}", out.result.pretty());
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(clean.result.row_count(), 2);
    }

    #[test]
    fn dict_truncation_collides_long_varchar_keys() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let mut t = Table::new(
                name,
                vec![ColumnDef::new("k", ColumnType::Varchar(100)).not_null()],
            );
            let suffix = if name == "a" { "left" } else { "right" };
            t.push_row(Row::new(vec![Value::str(format!("prefix01_{suffix}"))]))
                .unwrap();
            cat.add_table(t);
        }
        let mut faulty = ColumnarDatabase::new(
            cat.clone(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarDictTruncation]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let q = "SELECT a.k FROM a JOIN b ON a.k = b.k";
        let out = faulty.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarDictTruncation));
        assert_eq!(out.result.row_count(), 1, "truncated keys must collide");
        let mut clean = ColumnarDatabase::new(
            cat,
            DbmsProfile::columnar(ProfileId::MysqlLike).fault_free(),
        );
        assert_eq!(clean.execute_sql(q).unwrap().result.row_count(), 0);
    }

    #[test]
    fn dict_truncation_survives_multibyte_utf8_keys() {
        // A 2-byte char straddling the byte-8 cut must not panic the probe.
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let mut t = Table::new(
                name,
                vec![ColumnDef::new("k", ColumnType::Varchar(100)).not_null()],
            );
            t.push_row(Row::new(vec![Value::str(format!("aaaaaaaé-{name}"))]))
                .unwrap();
            cat.add_table(t);
        }
        let mut faulty = ColumnarDatabase::new(
            cat,
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarDictTruncation]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let out = faulty
            .execute_sql("SELECT a.k FROM a JOIN b ON a.k = b.k")
            .unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarDictTruncation));
        assert_eq!(out.result.row_count(), 1, "clipped keys must collide");
    }

    #[test]
    fn hints_steer_the_shared_optimizer() {
        let mut db = columnar(ProfileId::MysqlLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let merge = db
            .execute_with_hints(
                &stmt,
                &HintSet::new("merge").with_hint(tqs_sql::hints::Hint::MergeJoin(vec![])),
            )
            .unwrap();
        assert_eq!(merge.plan.joins[0].algo, JoinAlgo::SortMergeJoin);
        let default = db.execute(&stmt).unwrap();
        assert!(merge.result.same_bag(&default.result));
    }
}
