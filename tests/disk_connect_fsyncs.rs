//! Opening a disk connector and loading a catalog into it costs exactly the
//! WAL commits of the load itself: connecting commits nothing (it used to
//! create the page store three times and commit an empty log table on the
//! way), so `pager.wal.fsyncs` of connect + load equals that of the first
//! load into a freshly opened connector. Reloading the catalog the store
//! already holds — what `DmlOracle` does before every program — rewinds the
//! DML log instead: one commit, whatever the program wrote.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use tqs_core::backend::{BuildSpec, DbmsConnector, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::ProfileId;
use tqs_sql::parser::parse_dml;
use tqs_storage::widegen::ShoppingConfig;

/// `pager.wal.fsyncs` and `engine.disk.load.rewinds` recorded while `work`
/// runs.
fn counted(work: impl FnOnce()) -> (u64, u64) {
    tqs_telemetry::reset_metrics();
    work();
    let counters = tqs_telemetry::snapshot_metrics().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (get("pager.wal.fsyncs"), get("engine.disk.load.rewinds"))
}

fn fsyncs_of(work: impl FnOnce()) -> u64 {
    counted(work).0
}

#[test]
fn connecting_a_disk_engine_commits_nothing_beyond_the_load() {
    let d = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    });
    tqs_telemetry::set_enabled(true);
    let mut open =
        EngineConnector::open(EngineKind::Disk, BuildSpec::Pristine, ProfileId::MysqlLike);
    let (first_load, first_rewinds) = counted(|| open.load_catalog(&d.db.catalog).unwrap());
    let connect_and_load = fsyncs_of(|| {
        EngineKind::Disk.connect_pristine(ProfileId::MysqlLike, &d);
    });
    let connect_only = fsyncs_of(|| {
        EngineKind::Disk.faulty(ProfileId::MysqlLike);
    });
    // Every row of one table deleted: the DML log grows past its first leaf.
    let table = &d.db.catalog.table_names()[0];
    assert!(d.db.catalog.table(table).unwrap().rows.len() > tqs_pager::MAX_LEAF_CELLS);
    let delete = parse_dml(&format!("DELETE FROM {table}")).unwrap();
    let dml_commits = fsyncs_of(|| {
        open.execute_dml(&delete).unwrap();
    });
    let (reload, rewinds) = counted(|| open.load_catalog(&d.db.catalog).unwrap());
    tqs_telemetry::set_enabled(false);
    assert!(first_load > 1, "a catalog load commits through the WAL");
    assert_eq!(first_rewinds, 0, "a first load is a full load");
    assert_eq!(connect_and_load, first_load);
    assert_eq!(connect_only, 0);
    assert_eq!(dml_commits, 1, "an auto-committed DELETE is one commit");
    assert_eq!(reload, 1, "a reload of the same catalog is one commit");
    assert_eq!(rewinds, 1);
}
