//! The second simulated engine: a columnar, batch-at-a-time executor.
//!
//! [`ColumnarDatabase`] shares everything but its kernel with
//! [`crate::engine::Database`]: the session front ([`Engine`]), the optimizer
//! ([`Database::plan`]), the statement pipeline (`Database::execute_plan`)
//! over row-id relations ([`crate::exec::Rel`]), the one join step
//! ([`crate::exec::execute_join`]), the subquery machinery and the
//! projection/aggregation tail. Its kernel ([`Kernel`]) supplies two things:
//!
//! * a probe batch of `batch_size` rows for the join step: every equi join
//!   is the hashed probe whatever the plan's algorithm, and the batch is
//!   where the batch-tail fault cuts the probe side;
//! * a vectorized WHERE: `column <op> literal` conjuncts run as tight
//!   per-column loops over a selection bitmap instead of through the
//!   reference evaluator, in lanes of `batch_size` rows.
//!
//! So on fault-free builds the two engines are answer-identical by
//! construction of the shared semantics — a property the workspace pins
//! with a proptest. What differs is the *fault complement*: the columnar
//! build carries [`FaultKind::COLUMNAR`](crate::FaultKind::COLUMNAR) (batch-tail loss, NULL-mask
//! misalignment, dictionary truncation, selection-bitmap corruption) and
//! none of the Table 4 row faults. The join step holds both complements'
//! interception points and each build's fault set decides which can fire;
//! that disjointness is what makes cross-engine differential testing
//! (`DifferentialOracle` in tqs-core) a meaningful oracle. Like every
//! interception point, the filter reads the statement's active set.

use crate::dml::DmlOutcome;
use crate::engine::{Database, Engine, EngineError, EngineSubqueries, ExecOutcome, Kernel};
use crate::exec::{col_index, ColumnSlots, ExecContext, Executor, Rel};
use crate::faults::FaultKind::ColumnarFilterNullAsTrue;
use crate::profiles::DbmsProfile;
use tqs_sql::ast::{BinOp, DmlStmt, Expr, SelectStmt};
use tqs_sql::eval::{compare, eval_predicate};
use tqs_sql::value::Value;
use tqs_storage::Catalog;

/// Default number of rows per probe/filter batch.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 64;

/// The columnar simulated DBMS: shares the optimizer, catalog, session
/// switches, subquery machinery and join step with [`Database`], and runs
/// them with the batch kernel in this module.
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

/// The columnar executor: scans the session's own catalog, batch-at-a-time
/// kernels. Mutation and transaction semantics are the inner
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

/// The columnar kernel: the shared join step probing in batches, and a
/// vectorized WHERE.
impl Kernel for ColumnarDatabase {
    fn probe_batch(&self) -> Option<usize> {
        Some(self.batch_size)
    }

    /// Vectorized WHERE: conjuncts of the form `column <op> literal` run as
    /// tight per-column loops over the selection bitmap; everything else
    /// falls back to the reference evaluator per row (still batched so the
    /// selection-bitmap fault has a lane structure to corrupt).
    fn filter(
        &self,
        pred: &Expr,
        mut rel: Rel,
        ctx: &mut ExecContext,
        sub: &EngineSubqueries<'_>,
    ) -> Result<Rel, EngineError> {
        let n = rel.len();
        let mut sel = vec![true; n];
        let conjuncts = pred.conjuncts();
        let null_as_true = ctx
            .faults
            .active(&ctx.trigger)
            .contains(ColumnarFilterNullAsTrue);
        let slots = ColumnSlots::new([pred], &rel.cols);
        for c in conjuncts {
            match vectorizable(c, &rel) {
                Some((ci, op, lit, reversed)) => {
                    for i in 0..n {
                        let v = rel.value(i, ci);
                        let truth = match reversed {
                            true => compare(op, lit, v),
                            false => compare(op, v, lit),
                        };
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
                None => {
                    for i in 0..n {
                        let truth = eval_predicate(c, &rel.resolver(&slots, i), sub)?;
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
            }
        }
        rel.retain(|_, i| Ok::<_, EngineError>(sel[i]))?;
        Ok(rel)
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
                ctx.fire(ColumnarFilterNullAsTrue);
            }
            _ => sel[i] = false,
        }
    }
}

/// Can this conjunct run through the vectorized comparison kernel?
/// Returns (column index, operator, literal, literal-on-the-left).
fn vectorizable<'a>(e: &'a Expr, rel: &Rel) -> Option<(usize, BinOp, &'a Value, bool)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultSet};
    use crate::plan::JoinAlgo;
    use crate::profiles::ProfileId;
    use tqs_sql::hints::HintSet;
    use tqs_sql::parser::parse_stmt;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::{Row, Table};

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

    /// The misaligned NULL mask on right and full outer joins: the first
    /// pad — a left-side pad for RIGHT OUTER, the unmatched left row's
    /// right-side pad for FULL OUTER — replays the other side's row 0, and
    /// every later pad stays NULL.
    #[test]
    fn null_pad_misalignment_corrupts_right_and_full_outer_pads() {
        let faulty = || {
            ColumnarDatabase::new(
                catalog(),
                DbmsProfile {
                    faults: FaultSet::of(&[FaultKind::ColumnarNullPadMisalign]),
                    ..DbmsProfile::columnar(ProfileId::MysqlLike)
                },
            )
        };
        let cells = |out: &ExecOutcome| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> =
                out.result.rows.iter().map(|r| r.values.clone()).collect();
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        let (i, s, null) = (Value::Int, Value::str, Value::Null);
        // t2.id = 30 matches nothing: its left-side pad replays t1's row 0.
        let q = "SELECT t1.id, t2.col1 FROM t1 RIGHT OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = faulty().execute_sql(q).unwrap();
        assert_eq!(out.fired, vec![FaultKind::ColumnarNullPadMisalign]);
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(
            cells(&clean),
            vec![
                vec![i(1), s("a")],
                vec![i(2), s("b")],
                vec![null.clone(), s("c")]
            ]
        );
        assert_eq!(
            cells(&out),
            vec![vec![i(1), s("a")], vec![i(1), s("c")], vec![i(2), s("b")]]
        );
        // t1's NULL row pads first and replays t2's row 0; t2.id = 30 pads
        // second, with NULLs.
        let q = "SELECT t1.id, t2.col1 FROM t1 FULL OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = faulty().execute_sql(q).unwrap();
        assert_eq!(out.fired, vec![FaultKind::ColumnarNullPadMisalign]);
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(
            cells(&clean),
            vec![
                vec![i(1), s("a")],
                vec![i(2), s("b")],
                vec![i(3), null.clone()],
                vec![null.clone(), s("c")]
            ]
        );
        assert_eq!(
            cells(&out),
            vec![
                vec![i(1), s("a")],
                vec![i(2), s("b")],
                vec![i(3), s("a")],
                vec![null, s("c")]
            ]
        );
    }

    /// The batch-tail fault fires only on a partial last batch, and only
    /// under a plan whose algorithm hashes its keys.
    #[test]
    fn batch_tail_drop_stays_silent_on_whole_batches_and_merge_plans() {
        let q = "SELECT t1.id, t2.col1 FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id";
        let stmt = parse_stmt(q).unwrap();
        let run = |batch_size: usize, hints: Option<HintSet>| {
            let mut db = ColumnarDatabase::new(
                catalog(),
                DbmsProfile {
                    faults: FaultSet::of(&[FaultKind::ColumnarBatchTailDrop]),
                    ..DbmsProfile::columnar(ProfileId::MysqlLike)
                },
            );
            db.batch_size = batch_size;
            match hints {
                Some(h) => db.execute_with_hints(&stmt, &h).unwrap(),
                None => db.execute(&stmt).unwrap(),
            }
        };
        let clean = columnar(ProfileId::MysqlLike).execute(&stmt).unwrap();
        // t1's 3 probe rows are exactly one batch of 3: nothing is cut.
        let whole = run(3, None);
        assert!(whole.fired.is_empty(), "{:?}", whole.fired);
        assert!(whole.result.same_bag(&clean.result));
        // A batch of 2 leaves a partial tail, but a merge plan never
        // batches its probe.
        let merge = HintSet::new("merge").with_hint(tqs_sql::hints::Hint::MergeJoin(vec![]));
        let merged = run(2, Some(merge));
        assert_eq!(merged.plan.joins[0].algo, JoinAlgo::SortMergeJoin);
        assert!(merged.fired.is_empty(), "{:?}", merged.fired);
        assert!(merged.result.same_bag(&clean.result));
        // …while the default (hashed) plan with the same batch does cut it.
        assert!(run(2, None)
            .fired
            .contains(&FaultKind::ColumnarBatchTailDrop));
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
