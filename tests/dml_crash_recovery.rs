//! DML crash recovery: transactions on the disk engine ride the store's WAL
//! commit protocol, so killing the process at every [`CrashPoint`] inside a
//! transaction's COMMIT exercises a *real* commit boundary. The invariants,
//! checked point by point:
//!
//! * work committed before the crash is fully visible after
//!   [`DiskDatabase::recover`];
//! * the in-flight transaction is atomic across the boundary — fully visible
//!   iff its commit batch reached the WAL sync (the commit point), fully
//!   invisible otherwise, never partial;
//! * a poisoned store refuses DML until recovered;
//! * running recovery again is a no-op (same catalog, same committed delta).

use std::collections::BTreeMap;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::{DbmsProfile, DiskDatabase, Engine, EngineError, ProfileId};
use tqs_pager::CrashPoint;
use tqs_sql::ast::{Assignment, DeleteStmt, DmlStmt, Expr, InsertStmt, UpdateStmt};
use tqs_sql::value::Value;
use tqs_storage::widegen::ShoppingConfig;
use tqs_storage::{Catalog, Row};

fn shopping_catalog() -> Catalog {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 96,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    })
    .db
    .catalog
    .clone()
}

fn rows_of(catalog: &Catalog) -> BTreeMap<String, Vec<Row>> {
    catalog
        .iter()
        .map(|t| (t.name.clone(), t.rows.clone()))
        .collect()
}

/// A non-NULL value from the named column (the predicates below need a
/// literal that actually selects rows).
fn sample(catalog: &Catalog, table: &str, column: &str) -> Value {
    let t = catalog.table(table).expect("sample table");
    let ci = t.column_index(column).expect("sample column");
    t.rows
        .iter()
        .map(|r| r.values[ci].clone())
        .find(|v| *v != Value::Null)
        .expect("a non-NULL sample value")
}

/// Duplicate an existing row of `table` as an INSERT — admissible by
/// construction.
fn insert_dup(catalog: &Catalog, table: &str) -> DmlStmt {
    let t = catalog.table(table).expect("insert table");
    let row = t.rows.first().expect("a row to duplicate");
    DmlStmt::Insert(InsertStmt {
        table: table.to_string(),
        columns: t.columns.iter().map(|c| c.name.clone()).collect(),
        rows: vec![row.values.iter().cloned().map(Expr::lit).collect()],
    })
}

/// The statement sequence whose COMMIT the crash points kill. Touches two
/// tables through all three mutation kinds, so "fully invisible" is a
/// multi-table claim.
fn in_flight_txn(catalog: &Catalog) -> Vec<DmlStmt> {
    let g = sample(catalog, "T1", "goodsId");
    let name = sample(catalog, "T2", "goodsName");
    vec![
        DmlStmt::Begin,
        insert_dup(catalog, "T1"),
        DmlStmt::Update(UpdateStmt {
            table: "T2".into(),
            set: vec![Assignment {
                column: "goodsName".into(),
                value: Expr::lit(name),
            }],
            where_clause: Some(Expr::eq(Expr::col("T2", "goodsId"), Expr::lit(g.clone()))),
        }),
        DmlStmt::Delete(DeleteStmt {
            table: "T1".into(),
            where_clause: Some(Expr::eq(Expr::col("T1", "goodsId"), Expr::lit(g))),
        }),
        DmlStmt::Commit,
    ]
}

#[test]
fn txn_killed_at_every_crash_point_is_atomic_across_recovery() {
    let catalog = shopping_catalog();
    let profile = || DbmsProfile::pristine(ProfileId::MysqlLike);

    // Reference: the same prelude + transaction, uninterrupted.
    let prelude = insert_dup(&catalog, "T2");
    let txn = in_flight_txn(&catalog);
    let mut reference = DiskDatabase::new(catalog.clone(), profile()).expect("reference build");
    reference.execute_dml(&prelude).expect("reference prelude");
    for stmt in &txn {
        reference.execute_dml(stmt).expect("reference txn");
    }
    let with_txn = rows_of(reference.catalog());

    for point in CrashPoint::ALL {
        let mut db = DiskDatabase::new(catalog.clone(), profile()).expect("disk build");

        // Committed work before the crash: one auto-committed INSERT.
        db.execute_dml(&prelude).expect("prelude commits cleanly");
        let before_txn = rows_of(db.catalog());
        let committed_ops_before = db.committed_ops().len();

        // Arm the kill, run the transaction: the statements apply in the
        // session, the COMMIT dies inside the store's commit protocol.
        db.arm_crash(point);
        for stmt in &txn[..txn.len() - 1] {
            db.execute_dml(stmt)
                .expect("in-txn statements touch no disk");
        }
        assert!(db.in_txn(), "{point}: transaction must be open pre-commit");
        let err = db
            .execute_dml(txn.last().unwrap())
            .expect_err("armed COMMIT must die mid-commit");
        assert!(
            matches!(&err, EngineError::Storage(m) if m.contains("injected crash")),
            "unexpected error at {point}: {err}"
        );
        assert!(db.is_poisoned(), "{point}: store must be poisoned");
        assert!(
            db.execute_dml(&prelude).is_err(),
            "{point}: a poisoned store must refuse DML"
        );

        // Recover: the restarted process's view.
        db.recover().expect("recovery after the injected crash");
        assert!(!db.is_poisoned());
        assert!(!db.in_txn(), "{point}: recovery must close the session txn");
        let recovered = rows_of(db.catalog());
        let recovered_ops = db.committed_ops().to_vec();

        if point.batch_is_committed() {
            // The WAL sync happened: the commit batch is durable, the
            // transaction is fully visible.
            assert_eq!(
                recovered, with_txn,
                "{point}: a synced commit batch must make the txn fully visible"
            );
            assert!(
                recovered_ops.len() > committed_ops_before,
                "{point}: the txn's ops must be in the recovered log"
            );
        } else {
            // The WAL record never became durable: the transaction vanishes
            // entirely — not one of its three statements survives.
            assert_eq!(
                recovered, before_txn,
                "{point}: an unsynced commit batch must leave the txn fully invisible"
            );
            assert_eq!(
                recovered_ops.len(),
                committed_ops_before,
                "{point}: the recovered log must hold exactly the pre-txn ops"
            );
        }

        // Recovery is idempotent: a second replay changes nothing.
        db.recover().expect("second recovery");
        assert_eq!(
            rows_of(db.catalog()),
            recovered,
            "{point}: repeated recovery must be a no-op on the catalog"
        );
        assert_eq!(
            db.committed_ops(),
            &recovered_ops[..],
            "{point}: repeated recovery must be a no-op on the committed delta"
        );

        // The recovered engine is live again: the same transaction now
        // commits cleanly.
        for stmt in &txn {
            db.execute_dml(stmt)
                .expect("the recovered engine accepts the txn");
        }
    }
}

/// A crash between two committed transactions (armed but never reaching a
/// commit boundary is impossible — the store only does I/O at boundaries),
/// so the other half of the matrix: kill an *auto-commit* statement at every
/// point and require the same atomicity.
#[test]
fn autocommit_killed_at_every_crash_point_is_atomic() {
    let catalog = shopping_catalog();
    let stmt = insert_dup(&catalog, "T2");

    for point in CrashPoint::ALL {
        let mut db =
            DiskDatabase::new(catalog.clone(), DbmsProfile::pristine(ProfileId::MysqlLike))
                .expect("disk build");
        let before = rows_of(db.catalog());
        db.arm_crash(point);
        let err = db
            .execute_dml(&stmt)
            .expect_err("armed auto-commit must die");
        assert!(
            matches!(&err, EngineError::Storage(m) if m.contains("injected crash")),
            "unexpected error at {point}: {err}"
        );
        db.recover().expect("recovery");

        let recovered = rows_of(db.catalog());
        if point.batch_is_committed() {
            let mut want = before.clone();
            let t2 = want.get_mut("T2").expect("T2 rows");
            t2.push(t2.first().cloned().expect("duplicated row"));
            assert_eq!(
                recovered, want,
                "{point}: a synced auto-commit must survive in full"
            );
        } else {
            assert_eq!(
                recovered, before,
                "{point}: an unsynced auto-commit must vanish entirely"
            );
        }
    }
}
