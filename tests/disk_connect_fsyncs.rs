//! Opening a disk connector and loading a catalog into it costs exactly the
//! WAL commits of the load itself: connecting commits nothing (it used to
//! create the page store three times and commit an empty log table on the
//! way), so `pager.wal.fsyncs` of connect + load equals that of a bare
//! `load_catalog` on an already-open connector.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use tqs_core::backend::{BuildSpec, DbmsConnector, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::ProfileId;
use tqs_storage::widegen::ShoppingConfig;

/// `pager.wal.fsyncs` recorded while `work` runs.
fn fsyncs_of(work: impl FnOnce()) -> u64 {
    tqs_telemetry::reset_metrics();
    work();
    tqs_telemetry::snapshot_metrics()
        .counters
        .get("pager.wal.fsyncs")
        .copied()
        .unwrap_or(0)
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
    open.load_catalog(&d.db.catalog).unwrap();
    let bare_load = fsyncs_of(|| open.load_catalog(&d.db.catalog).unwrap());
    let connect_and_load = fsyncs_of(|| {
        EngineKind::Disk.connect_pristine(ProfileId::MysqlLike, &d);
    });
    let connect_only = fsyncs_of(|| {
        EngineKind::Disk.faulty(ProfileId::MysqlLike);
    });
    tqs_telemetry::set_enabled(false);
    assert!(bare_load > 0, "a catalog load commits through the WAL");
    assert_eq!(connect_and_load, bare_load);
    assert_eq!(connect_only, 0);
}
