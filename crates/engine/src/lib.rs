//! # tqs-engine
//!
//! A from-scratch, in-memory relational engine standing in for the DBMSs the
//! paper tests (MySQL, MariaDB, TiDB, X-DB):
//!
//! * [`plan`] — physical plans, seven join algorithms, EXPLAIN.
//! * [`engine`] — the session ([`Database`]: catalog, profile, switches,
//!   open transaction, the hint- and optimizer_switch-steerable optimizer),
//!   the one front every executor is driven through ([`Engine`]), the one
//!   statement pipeline all three run (scan → joins → WHERE → projection),
//!   and the row kernel it runs with.
//! * [`exec`] — physical operators with fault interception points, and what
//!   the row and columnar kernels share (the relation interface, key
//!   extraction, residual ON predicates, hash-table build, column lookup).
//! * [`columnar`] — the second executor: the column-major, batch-at-a-time
//!   kernel, its own fault complement.
//! * [`disk`] — the third executor: base relations scanned out of the
//!   `tqs-pager` page store (buffer pool, WAL, B+trees) with a storage-layer
//!   fault complement, then the row kernel; durable DML, crash injection.
//! * [`faults`] — the 20-entry fault catalog modeled on Table 4, plus the
//!   columnar and disk complements.
//! * [`profiles`] — the four simulated DBMS builds with their latent faults.
//!
//! The engine is *correct* when its fault set is empty; every wrong answer is
//! produced by an explicitly enabled fault that only fires on a specific
//! physical plan and data corner case, which is what makes hint-steered,
//! ground-truth-verified testing (TQS) necessary to find them.

pub mod cancel;
pub mod columnar;
pub mod disk;
pub mod dml;
pub mod engine;
pub mod exec;
pub mod faults;
pub mod plan;
pub mod profiles;

pub use cancel::CancelToken;
pub use columnar::ColumnarDatabase;
pub use disk::DiskDatabase;
pub use dml::{DmlOp, DmlOutcome};
pub use engine::{Database, Engine, EngineError, ExecOutcome};
pub use exec::{ExecContext, Rel};
pub use faults::{FaultKind, FaultSet};
pub use plan::{join_prerequisites, JoinAlgo, PhysicalJoin};
pub use profiles::{DbmsProfile, ProfileId};

#[cfg(test)]
mod subquery_equivalence;

#[cfg(test)]
mod proptests {
    use crate::engine::{Database, Engine};
    use crate::profiles::{DbmsProfile, ProfileId};
    use proptest::prelude::*;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_sql::value::Value;
    use tqs_storage::{Catalog, Row, Table};

    fn make_db(rows_a: &[(i64, Option<i64>)], rows_b: &[i64]) -> Database {
        let mut cat = Catalog::new();
        let mut a = Table::new(
            "a",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("fk", ColumnType::Int { unsigned: false }),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, fk) in rows_a {
            a.push_row(Row::new(vec![
                Value::Int(*id),
                fk.map(Value::Int).unwrap_or(Value::Null),
            ]))
            .unwrap();
        }
        cat.add_table(a);
        let mut b = Table::new(
            "b",
            vec![ColumnDef::new("id", ColumnType::Int { unsigned: false }).not_null()],
        )
        .with_primary_key(vec!["id"]);
        for id in rows_b {
            b.push_row(Row::new(vec![Value::Int(*id)])).unwrap();
        }
        cat.add_table(b);
        Database::new(cat, DbmsProfile::pristine(ProfileId::MysqlLike))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On a pristine engine, every join algorithm hint returns the same
        /// bag for the same query — the differential-testing invariant.
        #[test]
        fn pristine_engine_is_plan_invariant(
            rows_a in proptest::collection::vec((0i64..20, proptest::option::of(0i64..10)), 1..25),
            rows_b in proptest::collection::vec(0i64..10, 1..10),
        ) {
            // dedupe primary keys
            let mut seen = std::collections::HashSet::new();
            let rows_a: Vec<(i64, Option<i64>)> =
                rows_a.into_iter().filter(|(id, _)| seen.insert(*id)).collect();
            let mut seen = std::collections::HashSet::new();
            let rows_b: Vec<i64> = rows_b.into_iter().filter(|id| seen.insert(*id)).collect();
            let mut db = make_db(&rows_a, &rows_b);
            let base = "SELECT a.id, b.id FROM a {} b ON a.fk = b.id";
            for join_kw in ["JOIN", "LEFT OUTER JOIN"] {
                let plain = db.execute_sql(&base.replace("{}", join_kw)).unwrap();
                for hint in ["HASH_JOIN(b)", "MERGE_JOIN(b)", "NL_JOIN(b)", "INDEX_JOIN(b)"] {
                    let hinted = db
                        .execute_sql(&format!(
                            "SELECT /*+ {hint} */ a.id, b.id FROM a {join_kw} b ON a.fk = b.id"
                        ))
                        .unwrap();
                    prop_assert!(
                        plain.result.same_bag(&hinted.result),
                        "{join_kw} with {hint} diverged on a pristine engine"
                    );
                    prop_assert!(hinted.fired.is_empty());
                }
            }
        }
    }
}
