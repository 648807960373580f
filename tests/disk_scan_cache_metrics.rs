//! The disk executor's scan cache is on the books:
//! `engine.disk.scan_cache.misses` counts a table's first read under a set
//! of active disk faults, `engine.disk.scan_cache.hits` every later one. A
//! reload that only rewinds the DML log keeps the cached scans; a load of
//! another catalog drops them.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use tqs_engine::{DbmsProfile, DiskDatabase, Engine, ProfileId};
use tqs_sql::types::{ColumnDef, ColumnType};
use tqs_sql::value::Value;
use tqs_storage::{Catalog, Row, Table};

fn table(name: &str, rows: i64) -> Table {
    let mut t = Table::new(
        name,
        vec![
            ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
            ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
        ],
    )
    .with_primary_key(vec!["id"]);
    for i in 1..=rows {
        t.push_row(Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
    }
    t
}

/// `(hits, misses)` of the scan cache while `work` runs.
fn lookups(work: impl FnOnce()) -> (u64, u64) {
    tqs_telemetry::reset_metrics();
    work();
    let counters = tqs_telemetry::snapshot_metrics().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        get("engine.disk.scan_cache.hits"),
        get("engine.disk.scan_cache.misses"),
    )
}

#[test]
fn the_scan_cache_counts_one_miss_per_table_and_survives_a_rewind() {
    let mut catalog = Catalog::new();
    catalog.add_table(table("t1", 100));
    catalog.add_table(table("t2", 25));
    let profile = DbmsProfile::disk(ProfileId::MysqlLike).fault_free();
    let mut db = DiskDatabase::new(catalog.clone(), profile).unwrap();
    let join = "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id";
    let run = |db: &mut DiskDatabase, times: usize| {
        for _ in 0..times {
            db.execute_sql(join).unwrap();
        }
    };
    tqs_telemetry::set_enabled(true);
    let first = lookups(|| run(&mut db, 10));
    let after_rewind = lookups(|| {
        db.execute_dml_sql("DELETE FROM t2 WHERE t2.id = 3")
            .unwrap();
        db.load_catalog(catalog.clone()).unwrap();
        run(&mut db, 1);
    });
    let mut other = catalog.clone();
    other.add_table(table("t3", 5));
    let after_full_load = lookups(|| {
        db.load_catalog(other).unwrap();
        run(&mut db, 1);
    });
    tqs_telemetry::set_enabled(false);
    assert_eq!(first, (18, 2), "two tables read ten times");
    assert_eq!(after_rewind, (2, 0), "a rewind keeps the cached scans");
    assert_eq!(after_full_load, (0, 2), "a full load drops them");
}
