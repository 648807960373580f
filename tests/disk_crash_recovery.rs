//! Crash-recovery golden test for the disk engine: kill the store at every
//! [`CrashPoint`] inside a commit, reopen the files cold (exactly what a
//! restarted process sees), and assert two invariants:
//!
//! 1. **Committed prefix is byte-identical.** WAL redo recovery must
//!    reconstruct precisely the rows of every committed batch — no committed
//!    row lost, no uncommitted row visible, every surviving row
//!    value-for-value equal to the uninterrupted reference load.
//! 2. **The verdict material survives.** After [`DiskDatabase::recover`]
//!    resumes the interrupted load, every probe statement returns the same
//!    result bag and the same fired-fault provenance as the reference build
//!    — so an oracle that judged the build before the crash reaches the
//!    identical verdict after it.

use std::collections::BTreeMap;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::{DbmsProfile, DiskDatabase, Engine, EngineError, ProfileId};
use tqs_pager::{CrashPoint, DiskStore, DEFAULT_POOL_FRAMES};
use tqs_schema::NoiseConfig;
use tqs_sql::value::Value;
use tqs_storage::widegen::ShoppingConfig;
use tqs_storage::Catalog;

/// Probe statements covering the access paths the disk fault complement
/// gates on: a hash join (torn page / WAL loss / stale frame), a sort-merge
/// join (split high-key loss) and an IN-subquery (recovery double replay).
const PROBES: &[&str] = &[
    "SELECT T1.goodsId, T2.goodsName FROM T1 INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    "SELECT /*+ MERGE_JOIN(T2) */ T1.goodsId, T2.goodsName FROM T1 \
     INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    "SELECT T1.orderId FROM T1 WHERE T1.goodsId IN (SELECT T2.goodsId FROM T2)",
];

fn shopping_catalog() -> Catalog {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 130,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 13,
            max_injections: 12,
        }),
    })
    .db
    .catalog
    .clone()
}

/// Every table's rows as the store returns them, rowid included.
fn scan_all(db: &mut DiskDatabase) -> BTreeMap<String, Vec<(u64, Vec<Value>)>> {
    let names = db.catalog().table_names();
    names
        .into_iter()
        .map(|name| {
            let rows = db
                .scan_table(&name)
                .expect("scan the recovered table")
                .into_rows();
            (name, rows)
        })
        .collect()
}

/// Store-level golden for the exact commit boundary: a batch killed at
/// `BeforeWalAppend`/`WalAppended` must vanish entirely (its WAL record
/// never became durable), while a batch killed at `WalSynced`/
/// `MidHeapFlush`/`AfterFlush` must survive in full — the WAL sync is the
/// commit point, and redo recovery finishes the heap writes the kill
/// interrupted. Recovery itself must be idempotent: reopening twice (the
/// double-replay hazard [`FaultKind::DiskRecoveryDoubleReplay`] models)
/// yields byte-identical scans.
#[test]
fn batch_killed_at_every_crash_point_respects_the_commit_boundary() {
    let row = |i: i64| vec![Value::Int(i), Value::Varchar(format!("payload-{i}"))];
    let batch_a: Vec<Vec<Value>> = (0..48).map(row).collect();
    let batch_b: Vec<Vec<Value>> = (48..96).map(row).collect();

    // Reference: both batches committed with no interference.
    let base = std::env::temp_dir().join(format!("tqs-crash-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let reference = {
        let dir = base.join("reference");
        let mut store = DiskStore::create(&dir, DEFAULT_POOL_FRAMES).expect("reference store");
        store.create_table("t").expect("create table");
        store.commit().expect("commit the table");
        store.insert_batch("t", &batch_a).expect("batch A");
        store.insert_batch("t", &batch_b).expect("batch B");
        store.scan("t").expect("reference scan").into_rows()
    };
    assert_eq!(reference.len(), 96);

    for point in CrashPoint::ALL {
        let dir = base.join(point.label());
        let mut store = DiskStore::create(&dir, DEFAULT_POOL_FRAMES).expect("fresh store");
        store.create_table("t").expect("create table");
        store.commit().expect("commit the table");
        store.insert_batch("t", &batch_a).expect("batch A commits");
        store.set_crash_point(Some(point));
        let err = store
            .insert_batch("t", &batch_b)
            .expect_err("armed batch must die mid-commit");
        assert!(err.to_string().contains("injected crash"), "{point}: {err}");

        // The restarted process's view, twice — recovery must be idempotent.
        let (mut first, _) = DiskStore::open(&dir, DEFAULT_POOL_FRAMES).expect("first reopen");
        let got = first.scan("t").expect("scan after recovery").into_rows();
        drop(first);
        let (mut second, _) = DiskStore::open(&dir, DEFAULT_POOL_FRAMES).expect("second reopen");
        let again = second
            .scan("t")
            .expect("scan after re-recovery")
            .into_rows();
        assert_eq!(got, again, "{point}: recovery must be idempotent");

        let expected = if point.batch_is_committed() {
            &reference[..]
        } else {
            &reference[..batch_a.len()]
        };
        assert_eq!(
            got[..],
            *expected,
            "{point}: committed prefix must end exactly at the commit boundary \
             (got {} rows, expected {})",
            got.len(),
            expected.len()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn kill_at_every_crash_point_recovers_the_committed_prefix_and_the_verdict() {
    let catalog = shopping_catalog();

    // The uninterrupted reference: same catalog, same seeded-fault build.
    let mut reference = DiskDatabase::new(catalog.clone(), DbmsProfile::disk(ProfileId::MysqlLike))
        .expect("reference disk build");
    let want_rows = scan_all(&mut reference);
    let want_outcomes: Vec<_> = PROBES
        .iter()
        .map(|sql| reference.execute_sql(sql).expect("reference probe"))
        .collect();
    assert!(
        want_outcomes.iter().any(|o| !o.fired.is_empty()),
        "the probe set must exercise the disk fault complement"
    );

    for point in CrashPoint::ALL {
        // Arm the kill, then start the load that will die mid-commit.
        let mut db = DiskDatabase::new(Catalog::new(), DbmsProfile::disk(ProfileId::MysqlLike))
            .expect("empty disk build");
        db.arm_crash(point);
        let err = db
            .load_catalog(catalog.clone())
            .expect_err("the armed crash point must kill the load");
        assert!(
            matches!(&err, EngineError::Storage(m) if m.contains("injected crash")),
            "unexpected error at {point}: {err}"
        );
        assert!(db.is_poisoned(), "{point}: store must be poisoned");
        assert!(
            db.execute_sql(PROBES[0]).is_err(),
            "{point}: a poisoned store must refuse statements"
        );

        // Cold reopen — the restarted process's view. WAL redo recovery must
        // leave exactly a committed prefix of the reference data.
        let (mut cold, _) =
            DiskStore::open(db.dir(), DEFAULT_POOL_FRAMES).expect("cold reopen after the kill");
        for (table, want) in &want_rows {
            // A table whose creating commit was killed legitimately does not
            // exist yet — its committed prefix is empty.
            let got = match cold.scan(table) {
                Ok(scan) => scan.into_rows(),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => panic!("{point}: scan after cold reopen: {e}"),
            };
            assert!(
                got.len() <= want.len(),
                "{point}: {table}: recovered {} rows, reference has only {}",
                got.len(),
                want.len()
            );
            assert_eq!(
                got[..],
                want[..got.len()],
                "{point}: {table}: the committed prefix must be byte-identical"
            );
        }
        drop(cold);

        // Full recovery: replay the WAL, resume the interrupted load, and
        // converge on the reference state.
        db.recover().expect("recovery after the injected crash");
        assert!(!db.is_poisoned());
        assert!(db.last_recovery().is_some());
        assert_eq!(
            scan_all(&mut db),
            want_rows,
            "{point}: the resumed load must converge on the reference data"
        );

        // The discovering oracle's material is unchanged: same result bag,
        // same fired-fault provenance, for every probe.
        for (sql, want) in PROBES.iter().zip(&want_outcomes) {
            let got = db.execute_sql(sql).expect("probe after recovery");
            assert!(
                got.result.same_bag(&want.result),
                "{point}: result bag changed across crash+recovery for {sql}"
            );
            assert_eq!(
                got.fired, want.fired,
                "{point}: fault provenance changed across crash+recovery for {sql}"
            );
        }
    }
}
