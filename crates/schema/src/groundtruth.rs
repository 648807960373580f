//! Ground-truth result generation (§3.4).
//!
//! Given a join query over the normalized schema, fold the per-table join
//! bitmaps with the rules of Table 2, pull the surviving wide-table rows,
//! deduplicate, then apply the query's filters, grouping and projections with
//! the *reference* expression evaluator. The output is the result set a
//! correct DBMS must return (full-set verification), or must at least contain
//! (subset verification, used when a cross join is present).
//!
//! Only the fold and the subquery source (`GtSubqueries`, which answers a
//! subquery from the wide table) are the ground truth's own. Surviving rows
//! are value rows under one `(binding, column)` header per statement, read
//! through [`SliceRow`]; WHERE is the reference evaluator's, and projection,
//! grouping, aggregates and DISTINCT are [`result_tail`], the tail the
//! engines end every statement with — so the two sides cannot drift apart
//! there, where a drift would only produce false bug reports.

use crate::normalize::NormalizedDb;
use tqs_sql::ast::{JoinType, SelectItem, SelectStmt};
#[cfg(test)]
use tqs_sql::eval::in_membership;
use tqs_sql::eval::{
    eval_expr, eval_predicate, ChainedResolver, ColumnResolver, EvalError, SliceRow,
    SubqueryHandler, SubqueryMemo, SubquerySource,
};
use tqs_sql::value::{KeyBuf, KeySet, Value};
use tqs_storage::{result_tail, ResultSet, Row, TailError};

/// Errors raised while recovering ground truth. `Unsupported` marks query
/// shapes outside the generator's contract (the orchestrator simply skips
/// them rather than reporting a bug).
#[derive(Debug, Clone, PartialEq)]
pub enum GtError {
    UnknownTable(String),
    /// The FROM clause repeats a binding (see
    /// [`tqs_sql::ast::FromClause::repeated_binding`]); engines reject the
    /// statement the same way.
    NotUniqueTable(String),
    Unsupported(String),
    Eval(EvalError),
}

impl std::fmt::Display for GtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            GtError::NotUniqueTable(b) => write!(f, "not unique table/alias: `{b}`"),
            GtError::Unsupported(m) => write!(f, "unsupported for ground truth: {m}"),
            GtError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for GtError {}

impl From<EvalError> for GtError {
    fn from(e: EvalError) -> Self {
        GtError::Eval(e)
    }
}

impl From<TailError> for GtError {
    fn from(e: TailError) -> Self {
        match e {
            TailError::Eval(e) => GtError::Eval(e),
            TailError::Unsupported(m) => GtError::Unsupported(m.into()),
        }
    }
}

/// The recovered ground truth for one query.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    pub result: ResultSet,
    /// Subset verification mode (cross join present): the DBMS result must
    /// contain every ground-truth row but may contain more.
    pub subset_mode: bool,
}

impl GroundTruth {
    /// Check a DBMS result set against this ground truth.
    pub fn matches(&self, observed: &ResultSet) -> bool {
        if self.subset_mode {
            self.result.subset_of(observed)
        } else {
            self.result.same_bag(observed)
        }
    }
}

/// Evaluator bound to one normalized database.
pub struct GroundTruthEvaluator<'a> {
    db: &'a NormalizedDb,
}

impl<'a> GroundTruthEvaluator<'a> {
    pub fn new(db: &'a NormalizedDb) -> Self {
        GroundTruthEvaluator { db }
    }

    /// `getGT(q)` from Algorithm 1.
    pub fn evaluate(&self, stmt: &SelectStmt) -> Result<GroundTruth, GtError> {
        if stmt.limit.is_some() {
            return Err(GtError::Unsupported("LIMIT changes cardinality".into()));
        }
        // Resolve bindings → schema tables; reject self-joins (the wide table
        // cannot disambiguate two copies of the same table).
        let mut bindings: Vec<(String, String)> = Vec::new(); // (binding, table)
        for tref in stmt.from.tables() {
            let table = self
                .db
                .meta(&tref.table)
                .ok_or_else(|| GtError::UnknownTable(tref.table.clone()))?
                .name
                .clone();
            if bindings.iter().any(|(_, t)| t.eq_ignore_ascii_case(&table)) {
                return Err(GtError::Unsupported(format!("self-join on {table}")));
            }
            bindings.push((tref.binding().to_string(), table));
        }
        if let Some(b) = stmt.from.repeated_binding() {
            return Err(GtError::NotUniqueTable(b.to_string()));
        }

        // Visible bindings: everything except the right side of semi/anti
        // joins (those only filter).
        let mut visible: Vec<bool> = vec![true; bindings.len()];
        for (i, j) in stmt.from.joins.iter().enumerate() {
            if matches!(j.join_type, JoinType::Semi | JoinType::Anti) {
                visible[i + 1] = false;
            }
        }

        // Join conditions and output expressions may only reference visible
        // bindings (plus, for a join's own ON, its right-hand binding).
        for (i, j) in stmt.from.joins.iter().enumerate() {
            if let Some(on) = &j.on {
                for c in on.column_refs() {
                    if let Some(t) = &c.table {
                        let idx = bindings.iter().position(|(b, _)| b.eq_ignore_ascii_case(t));
                        match idx {
                            Some(k) if k == i + 1 || visible[k] => {}
                            _ => {
                                return Err(GtError::Unsupported(format!(
                                    "join condition references out-of-scope binding {t}"
                                )))
                            }
                        }
                    }
                }
            }
        }

        // Right/full outer joins are only supported as the first join step:
        // later in a chain their result contains NULL-extended rows for right
        // rows unmatched *by the accumulated left side*, which the per-table
        // bitmap fold cannot express. The query generator respects the same
        // restriction, so in practice this only rejects hand-written queries.
        for (i, j) in stmt.from.joins.iter().enumerate() {
            if i > 0 && matches!(j.join_type, JoinType::RightOuter | JoinType::FullOuter) {
                return Err(GtError::Unsupported(
                    "right/full outer join after the first join step".into(),
                ));
            }
        }

        // Fold the join bitmap per Table 2.
        let mut subset_mode = false;
        let mut acc = self
            .db
            .bitmap
            .bitmap(&bindings[0].1)
            .ok_or_else(|| GtError::UnknownTable(bindings[0].1.clone()))?
            .clone();
        for (i, j) in stmt.from.joins.iter().enumerate() {
            let right = self
                .db
                .bitmap
                .bitmap(&bindings[i + 1].1)
                .ok_or_else(|| GtError::UnknownTable(bindings[i + 1].1.clone()))?;
            acc = match j.join_type {
                JoinType::Inner | JoinType::Semi => acc.and(right),
                JoinType::LeftOuter => acc,
                JoinType::RightOuter => right.clone(),
                JoinType::FullOuter => acc.or(right),
                JoinType::Anti => acc.and_not(right),
                JoinType::Cross => {
                    subset_mode = true;
                    acc.and(right)
                }
            };
        }

        // One header for the statement: the visible bindings' columns, in
        // FROM order; per binding, the wide-table column each one reads.
        let mut header: Vec<(String, String)> = Vec::new();
        let mut parts: Vec<(&str, Vec<Option<usize>>)> = Vec::new();
        for ((binding, table), _) in bindings.iter().zip(&visible).filter(|(_, v)| **v) {
            let meta = self.db.meta(table).expect("resolved table");
            header.extend(meta.columns.iter().map(|c| (binding.clone(), c.clone())));
            parts.push((table, wide_columns(self.db, &meta.columns)));
        }

        // Value rows for the surviving wide rows, kept where the WHERE
        // filter holds under the reference evaluator. Witnesses are
        // deduplicated by schema-row *identity* (the RowID-map targets), not
        // by cell values: many wide rows witness the same combination of
        // schema rows (that is what denormalization means), but two
        // *distinct* schema rows whose contents happen to coincide — e.g.
        // after NULL-noise corrupted their keys — must keep their own result
        // rows, exactly as a physical scan returns both.
        let sub = GtSubqueries {
            db: self.db,
            memo: Default::default(),
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut seen = KeySet::default();
        let mut identity = KeyBuf::new();
        for wide_row in acc.ones() {
            identity.clear();
            for (table, _) in &parts {
                let rowid = if self.db.bitmap.get(table, wide_row) {
                    self.db.rowid_map.get(wide_row, table)
                } else {
                    None
                };
                // Tagged so `None` and `Some(0)` stay distinct.
                match rowid {
                    Some(id) => identity.push_int(id as i128),
                    None => identity.push_null(),
                }
            }
            if seen.contains(&identity) {
                continue;
            }
            seen.insert(identity.clone());
            let wide = self.db.wide.table.rows.get(wide_row);
            let mut row = Vec::with_capacity(header.len());
            for (table, columns) in &parts {
                let matched = self.db.bitmap.get(table, wide_row);
                push_cells(wide.filter(|_| matched), columns, &mut row);
            }
            if let Some(pred) = &stmt.where_clause {
                if eval_predicate(pred, &SliceRow::new(&header, &row), &sub)? != Some(true) {
                    continue;
                }
            }
            rows.push(row);
        }

        // Projection / aggregation. Aggregates cannot be verified in subset
        // mode (a cross join's full result multiplies the counts), so such
        // queries are skipped rather than misjudged.
        if subset_mode && stmt.is_grouped() {
            return Err(GtError::Unsupported("aggregation over a cross join".into()));
        }
        let row = |i: usize| SliceRow::new(&header, &rows[i]);
        let result = result_tail(stmt, &header, rows.len(), row, &sub)?;
        sub.record_counts();
        Ok(GroundTruth {
            result,
            subset_mode,
        })
    }
}

/// The wide-table column index of each of `columns`.
fn wide_columns(db: &NormalizedDb, columns: &[String]) -> Vec<Option<usize>> {
    columns
        .iter()
        .map(|c| db.wide.table.column_index(c))
        .collect()
}

/// Append the cells `columns` of the wide-table row `wide` to `row`: NULL
/// throughout for no row, NULL for a column the wide table lacks.
fn push_cells(wide: Option<&Row>, columns: &[Option<usize>], row: &mut Vec<Value>) {
    row.extend(columns.iter().map(|c| match (wide, c) {
        (Some(wide), Some(c)) => wide.get(*c).clone(),
        _ => Value::Null,
    }));
}

/// Reference subquery evaluation: generated subqueries are single-table
/// SELECTs, which we answer from the wide table via the table's bitmap
/// (distinct witnesses = the table's rows), chained to the outer scope for
/// correlated references.
struct GtSubqueries<'a> {
    db: &'a NormalizedDb,
    /// One walk over the wide table per distinct (subquery, outer binding,
    /// probe) instead of one per outer row — shared semantics with the
    /// engines, see [`SubqueryMemo`].
    memo: SubqueryMemo,
}

impl GtSubqueries<'_> {
    /// End of the statement: book the memo's counters.
    fn record_counts(&self) {
        if tqs_telemetry::enabled() {
            let (evaluations, memo_hits) = self.memo.counts();
            tqs_telemetry::counter!("schema.groundtruth.subquery.evaluations").add(evaluations);
            tqs_telemetry::counter!("schema.groundtruth.subquery.memo_hits").add(memo_hits);
        }
    }
}

impl SubquerySource for GtSubqueries<'_> {
    fn has_own_column(&self, stmt: &SelectStmt, column: &str) -> bool {
        self.db
            .meta(&stmt.from.base.table)
            .is_some_and(|meta| meta.columns.iter().any(|c| c.eq_ignore_ascii_case(column)))
    }

    fn subquery_values(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        if !stmt.from.joins.is_empty() {
            return Err(EvalError::Unsupported(
                "ground-truth subqueries must be single-table".into(),
            ));
        }
        let Some(table) = self.db.meta(&stmt.from.base.table) else {
            return Err(EvalError::Unsupported(format!(
                "unknown subquery table {}",
                stmt.from.base.table
            )));
        };
        let binding = stmt.from.base.binding();
        let bm = match self.db.bitmap.bitmap(&table.name) {
            Some(b) => b,
            None => return Ok(Vec::new()),
        };
        let Some(SelectItem::Expr { expr, .. }) = stmt.items.first() else {
            return Err(EvalError::Unsupported(
                "subquery must project a single expression".into(),
            ));
        };
        let header: Vec<(String, String)> = (table.columns.iter())
            .map(|c| (binding.to_string(), c.clone()))
            .collect();
        let columns = wide_columns(self.db, &table.columns);
        let mut out = Vec::new();
        let mut seen = KeySet::default();
        let (mut row, mut fingerprint) = (Vec::new(), KeyBuf::new());
        for wide_row in bm.ones() {
            row.clear();
            push_cells(self.db.wide.table.rows.get(wide_row), &columns, &mut row);
            fingerprint.clear();
            row.iter().for_each(|v| fingerprint.push_group(v));
            if seen.contains(&fingerprint) {
                continue;
            }
            seen.insert(fingerprint.clone());
            let resolver = ChainedResolver {
                inner: &SliceRow::new(&header, &row),
                outer,
            };
            if let Some(pred) = &stmt.where_clause {
                if eval_predicate(pred, &resolver, self)? != Some(true) {
                    continue;
                }
            }
            out.push(eval_expr(expr, &resolver, self)?);
        }
        Ok(out)
    }
}

impl SubqueryHandler for GtSubqueries<'_> {
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
mod per_row_reference {
    use std::cell::Cell;

    thread_local! {
        static ON: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn on() -> bool {
        ON.with(Cell::get)
    }

    /// Run `f` with every subquery predicate on this thread evaluated
    /// directly.
    pub(super) fn with<T>(f: impl FnOnce() -> T) -> T {
        ON.with(|on| on.set(true));
        let out = f();
        ON.with(|on| on.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdDiscoveryConfig, FdSet};
    use crate::normalize::normalize;
    use tqs_sql::ast::{FromClause, Join, TableRef};
    use tqs_sql::parser::parse_stmt;
    use tqs_storage::widegen::{shopping_orders, ShoppingConfig};
    use tqs_storage::Row;

    fn db() -> NormalizedDb {
        let wide = shopping_orders(&ShoppingConfig {
            n_rows: 200,
            ..Default::default()
        });
        let fds = FdSet::discover(&wide, &FdDiscoveryConfig::default());
        normalize(wide, &fds)
    }

    fn goods_and_names(db: &NormalizedDb) -> (String, String) {
        (
            db.table_with_pk("goodsId").unwrap().name.clone(),
            db.table_with_pk("goodsName").unwrap().name.clone(),
        )
    }

    #[test]
    fn example_3_5_price_of_flower() {
        let d = db();
        let (goods, names) = goods_and_names(&d);
        let sql = format!(
            "SELECT {names}.price FROM {goods} INNER JOIN {names} ON \
             {goods}.goodsName = {names}.goodsName WHERE {goods}.goodsName = 'flower'"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        assert!(!gt.subset_mode);
        // all goods named "flower" share one price (goodsName → price), and
        // potentially several goodsIds carry that name
        assert!(!gt.result.is_empty());
        let first = &gt.result.rows[0].values[0];
        for r in &gt.result.rows {
            assert_eq!(format!("{}", r.values[0]), format!("{first}"));
        }
    }

    #[test]
    fn inner_join_cardinality_matches_dimension_size() {
        let d = db();
        let (goods, names) = goods_and_names(&d);
        let sql = format!(
            "SELECT {goods}.goodsId, {names}.price FROM {goods} INNER JOIN {names} \
             ON {goods}.goodsName = {names}.goodsName"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        // one row per goods row (goodsName always matches its price row)
        let n_goods = d.catalog.table(&goods).unwrap().row_count();
        assert_eq!(gt.result.row_count(), n_goods);
    }

    #[test]
    fn base_join_keeps_fact_multiplicity() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let sql = format!(
            "SELECT T1.orderId, {goods}.goodsName FROM T1 INNER JOIN {goods} ON \
             T1.goodsId = {goods}.goodsId"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        // every base row joins exactly one goods row → row per base row
        let n_base = d.catalog.table("T1").unwrap().row_count();
        assert_eq!(gt.result.row_count(), n_base);
    }

    #[test]
    fn semi_and_anti_join_on_clean_data() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let n_base = d.catalog.table("T1").unwrap().row_count();
        let semi = parse_stmt(&format!(
            "SELECT T1.orderId FROM T1 SEMI JOIN {goods} ON T1.goodsId = {goods}.goodsId"
        ))
        .unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&semi).unwrap();
        assert_eq!(gt.result.row_count(), n_base);
        let anti = parse_stmt(&format!(
            "SELECT T1.orderId FROM T1 ANTI JOIN {goods} ON T1.goodsId = {goods}.goodsId"
        ))
        .unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&anti).unwrap();
        assert_eq!(gt.result.row_count(), 0);
    }

    #[test]
    fn aggregates_and_group_by() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let sql = format!(
            "SELECT {goods}.goodsName, COUNT(*) AS cnt FROM T1 INNER JOIN {goods} ON \
             T1.goodsId = {goods}.goodsId GROUP BY {goods}.goodsName"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        let total: i64 = gt
            .result
            .rows
            .iter()
            .map(|r| r.values[1].as_i128_exact().unwrap() as i64)
            .sum();
        assert_eq!(total as usize, d.catalog.table("T1").unwrap().row_count());
    }

    #[test]
    fn distinct_projection() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let sql = format!(
            "SELECT DISTINCT {goods}.goodsName FROM T1 INNER JOIN {goods} ON \
             T1.goodsId = {goods}.goodsId"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        let names = d
            .catalog
            .table(&d.table_with_pk("goodsName").unwrap().name)
            .unwrap();
        assert_eq!(gt.result.row_count(), names.row_count());
    }

    #[test]
    fn cross_join_sets_subset_mode() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let mut from = FromClause::single("T1");
        from.joins.push(Join {
            join_type: tqs_sql::ast::JoinType::Cross,
            table: TableRef::new(goods.clone()),
            on: None,
        });
        let mut stmt = tqs_sql::ast::SelectStmt::new(from);
        stmt.items = vec![SelectItem::column("T1", "orderId")];
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        assert!(gt.subset_mode);
        // subset verification: a superset passes, a smaller set fails
        let mut superset = gt.result.clone();
        superset.rows.push(Row::new(vec![Value::str("extra")]));
        assert!(gt.matches(&superset));
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let d = db();
        assert!(matches!(
            GroundTruthEvaluator::new(&d).evaluate(&parse_stmt("SELECT * FROM nosuch").unwrap()),
            Err(GtError::UnknownTable(_))
        ));
        assert!(matches!(
            GroundTruthEvaluator::new(&d).evaluate(
                &parse_stmt("SELECT T1.orderId FROM T1 JOIN T1 ON T1.orderId = T1.orderId")
                    .unwrap()
            ),
            Err(GtError::Unsupported(_))
        ));
        assert!(matches!(
            GroundTruthEvaluator::new(&d)
                .evaluate(&parse_stmt("SELECT T1.orderId FROM T1 LIMIT 3").unwrap()),
            Err(GtError::Unsupported(_))
        ));
    }

    #[test]
    fn a_repeated_binding_is_not_unique() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        for (sql, binding) in [
            (
                format!("SELECT * FROM T1 AS x INNER JOIN {goods} AS x ON x.RowID = x.RowID"),
                "x",
            ),
            (
                format!("SELECT * FROM T1 AS g CROSS JOIN {goods} AS G"),
                "G",
            ),
        ] {
            let err = GroundTruthEvaluator::new(&d)
                .evaluate(&parse_stmt(&sql).unwrap())
                .unwrap_err();
            assert_eq!(err, GtError::NotUniqueTable(binding.into()), "{sql}");
            assert!(err.to_string().contains("not unique table/alias"));
        }
    }

    #[test]
    fn in_subquery_ground_truth() {
        let d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let sql = format!(
            "SELECT T1.orderId FROM T1 WHERE T1.goodsId IN \
             (SELECT {goods}.goodsId FROM {goods} WHERE {goods}.goodsName = 'book')"
        );
        let stmt = parse_stmt(&sql).unwrap();
        let gt = GroundTruthEvaluator::new(&d).evaluate(&stmt).unwrap();
        // every returned base row indeed bought a 'book' good — cross-check
        // against the wide table directly.
        let expected = d
            .wide
            .table
            .rows
            .iter()
            .filter(|r| {
                let idx = d.wide.attr_index("goodsName").unwrap() + 1;
                r.get(idx).as_str() == Some("book")
            })
            .count();
        assert_eq!(gt.result.row_count(), expected);
    }

    /// The noisy database the equivalence property runs on: NULLs and
    /// out-of-domain keys in the fact table's foreign keys and in the
    /// dimension tables, so bindings repeat, go NULL and miss.
    fn noisy_db() -> &'static NormalizedDb {
        static DB: std::sync::OnceLock<NormalizedDb> = std::sync::OnceLock::new();
        DB.get_or_init(|| {
            let mut d = db();
            let noise = crate::noise::inject_noise(
                &mut d,
                &crate::noise::NoiseConfig {
                    epsilon: 0.08,
                    seed: 11,
                    max_injections: 40,
                },
            );
            assert!(!noise.is_empty());
            d
        })
    }

    /// One statement over the shopping schema, a pure function of `picks`:
    /// the fact table alone, under a cross join, or joined to the table the
    /// subqueries select from; one or two `[NOT] IN` / `[NOT] EXISTS`
    /// predicates, uncorrelated, correlated (qualified and bare), probing a
    /// string column with a number and back, and nested.
    fn subquery_statement(d: &NormalizedDb, picks: &[usize]) -> SelectStmt {
        let (g, n) = goods_and_names(d);
        let u = d.table_with_pk("userId").unwrap().name.clone();
        let predicates = [
            format!("T1.goodsId IN (SELECT {g}.goodsId FROM {g})"),
            format!(
                "T1.goodsId NOT IN (SELECT {g}.goodsId FROM {g} WHERE {g}.goodsName <> 'book')"
            ),
            format!("EXISTS (SELECT {g}.goodsName FROM {g} WHERE {g}.goodsId = T1.goodsId)"),
            format!("NOT EXISTS (SELECT {u}.userId FROM {u} WHERE {u}.userId = T1.userId)"),
            format!("T1.userId NOT IN (SELECT {u}.userId FROM {u} WHERE {u}.userName <> 'x')"),
            format!(
                "T1.quantity IN (SELECT {g}.goodsId - 1110 FROM {g} WHERE {g}.goodsId <= T1.quantity + 1112)"
            ),
            format!("T1.goodsId IN (SELECT {u}.userId FROM {u})"),
            format!(
                "T1.userId NOT IN (SELECT {g}.goodsId FROM {g} WHERE {g}.goodsId = T1.quantity + 1110)"
            ),
            format!("EXISTS (SELECT goodsName FROM {g} WHERE goodsId = quantity + 1112)"),
            format!(
                "EXISTS (SELECT {g}.goodsId FROM {g} WHERE {g}.goodsId = T1.goodsId AND \
                 {g}.goodsId > T1.quantity + 1115)"
            ),
            format!(
                "T1.goodsId IN (SELECT {g}.goodsId FROM {g} WHERE {g}.goodsName IN \
                 (SELECT {n}.goodsName FROM {n}))"
            ),
            format!(
                "NOT EXISTS (SELECT {g}.goodsId FROM {g} WHERE {g}.goodsId = T1.goodsId AND \
                 {g}.goodsName IN (SELECT {n}.goodsName FROM {n} WHERE {n}.price > T1.quantity * 4))"
            ),
        ];
        let mut picks = picks.iter().copied();
        let mut pick = |n: usize| picks.next().unwrap_or(0) % n;
        let from = [
            "T1".to_string(),
            format!("{u} CROSS JOIN T1"),
            format!("T1 INNER JOIN {g} ON T1.goodsId = {g}.goodsId"),
        ][pick(3)]
        .clone();
        let (a, b) = (&predicates[pick(12)], &predicates[pick(12)]);
        let filter = match pick(4) {
            0 => a.clone(),
            1 => format!("{a} AND {b}"),
            2 => format!("{a} OR {b}"),
            _ => format!("NOT ({a})"),
        };
        parse_stmt(&format!(
            "SELECT T1.orderId, T1.goodsId FROM {from} WHERE {filter}"
        ))
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The memoized ground truth against the reference it replaced, one
        /// subquery evaluation per outer row.
        #[test]
        fn memoized_and_per_row_subqueries_give_the_same_ground_truth(
            picks in proptest::collection::vec(0usize..1000, 4),
        ) {
            let d = noisy_db();
            let stmt = subquery_statement(d, &picks);
            let truth = |stmt: &SelectStmt| {
                GroundTruthEvaluator::new(d)
                    .evaluate(stmt)
                    .map(|gt| (gt.result.columns, gt.result.rows, gt.subset_mode))
            };
            let memoized = truth(&stmt);
            let reference = per_row_reference::with(|| truth(&stmt));
            proptest::prop_assert!(memoized.is_ok(), "{:?}", memoized);
            proptest::prop_assert_eq!(memoized, reference);
        }
    }
}
