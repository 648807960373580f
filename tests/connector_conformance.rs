//! Every shipped `DbmsConnector` implementation must pass the shared
//! conformance suite: plan invariance and ground-truth soundness on pristine
//! builds, observable misbehavior on fault-seeded builds — both directly and
//! through the recording proxy (which must be transparent).

use tqs_core::backend::{
    BuildSpec, DbmsConnector, EngineConnector, EngineKind, RecordingConnector, TraceEvent,
};
use tqs_core::conformance::{
    assert_connector_conformance, assert_dml_conformance, conformance_dsg,
};
use tqs_engine::ProfileId;
use tqs_sql::hints::{HintSet, SessionSwitch, SwitchName};
use tqs_sql::parser::parse_stmt;

/// One column of the 24-cell connector matrix: `build` of every profile on
/// the `kind` executor passes the SELECT contract.
fn every_profile_conforms(kind: EngineKind, build: BuildSpec) {
    for profile in ProfileId::ALL {
        let mut conn = EngineConnector::open(kind, build, profile);
        assert_connector_conformance(&mut conn, build);
    }
}

#[test]
fn engine_connector_pristine_builds_conform() {
    every_profile_conforms(EngineKind::Row, BuildSpec::Pristine);
}

#[test]
fn engine_connector_seeded_builds_conform() {
    every_profile_conforms(EngineKind::Row, BuildSpec::Faulty);
}

#[test]
fn columnar_connector_pristine_builds_conform() {
    // The second engine must satisfy the same contract as the first: on a
    // fault-free columnar build every hinted plan matches the ground truth.
    every_profile_conforms(EngineKind::Columnar, BuildSpec::Pristine);
}

#[test]
fn columnar_connector_seeded_builds_conform() {
    // The columnar fault complement must be observable through the trait.
    every_profile_conforms(EngineKind::Columnar, BuildSpec::Faulty);
}

#[test]
fn disk_connector_pristine_builds_conform() {
    // The third engine executes over the leaf-chain page store; fault-free it
    // must satisfy the exact contract of the in-memory engines.
    every_profile_conforms(EngineKind::Disk, BuildSpec::Pristine);
}

#[test]
fn disk_connector_seeded_builds_conform() {
    // The storage-layer fault complement must be observable through the
    // trait, exactly like the row and columnar complements.
    every_profile_conforms(EngineKind::Disk, BuildSpec::Faulty);
}

/// What every cell of `EngineKind::ALL × BuildSpec::ALL × ProfileId::ALL`
/// reports and restores, whichever executor sits behind the one front. The
/// `info()` strings reach class keys and corpora, so they are pinned as the
/// literals the constructor families produced before `EngineConnector::open`
/// replaced them.
#[test]
fn every_cell_of_the_connector_matrix_reports_and_restores_the_same_way() {
    // Per executor: (name, version) per profile in `ProfileId::ALL` order,
    // and the note its EXPLAIN ends with.
    let expected = |kind: EngineKind| -> ([(&str, &str); 4], Option<&str>) {
        match kind {
            EngineKind::Row => (
                [
                    ("MySQL-like", "8.0.28-sim"),
                    ("MariaDB-like", "10.8.2-sim"),
                    ("TiDB-like", "5.4.0-sim"),
                    ("X-DB-like", "beta 8.0.18-sim"),
                ],
                None,
            ),
            EngineKind::Columnar => (
                [
                    ("MySQL-like [columnar]", "8.0.28-sim-col"),
                    ("MariaDB-like [columnar]", "10.8.2-sim-col"),
                    ("TiDB-like [columnar]", "5.4.0-sim-col"),
                    ("X-DB-like [columnar]", "beta 8.0.18-sim-col"),
                ],
                Some("-> executor: columnar, batch 64 rows\n"),
            ),
            EngineKind::Disk => (
                [
                    ("MySQL-like [disk]", "8.0.28-sim-disk"),
                    ("MariaDB-like [disk]", "10.8.2-sim-disk"),
                    ("TiDB-like [disk]", "5.4.0-sim-disk"),
                    ("X-DB-like [disk]", "beta 8.0.18-sim-disk"),
                ],
                Some("-> executor: disk (leaf-chain page store, 24-frame buffer pool, WAL)\n"),
            ),
        }
    };

    let dsg = conformance_dsg();
    let (t1, t2) = (&dsg.db.metas[0], &dsg.db.metas[1]);
    let join = parse_stmt(&format!(
        "SELECT {a}.{x} FROM {a} JOIN {b} ON {a}.{x} = {b}.{y}",
        a = t1.name,
        x = t1.columns[0],
        b = t2.name,
        y = t2.columns[0],
    ))
    .unwrap();
    let unknown_table = parse_stmt("SELECT x.a FROM missing x").unwrap();
    // Every session switch flipped off for the duration of one statement.
    let switched = SwitchName::ALL
        .into_iter()
        .fold(HintSet::new("all-off"), |hs, name| {
            hs.with_switch(SessionSwitch::off(name))
        });

    for kind in EngineKind::ALL {
        let (info, executor_note) = expected(kind);
        for build in BuildSpec::ALL {
            for (profile, (name, version)) in ProfileId::ALL.into_iter().zip(info) {
                let cell = format!("{} / {} / {profile:?}", kind.label(), build.label());
                let mut conn = EngineConnector::open(kind, build, profile).loaded(&dsg);

                // (a) the metadata that reaches class keys and corpora
                let got = conn.info();
                assert_eq!((got.name.as_str(), got.version.as_str()), (name, version));
                assert_eq!(got.dialect, profile, "{cell}");
                assert_eq!(got.seeded_faults, build == BuildSpec::Faulty, "{cell}");

                // (b) EXPLAIN ends with the executor note; the row plan has none
                let plan = conn.explain(&join).expect("explain");
                match executor_note {
                    Some(note) => assert!(plan.ends_with(note), "{cell}: {plan}"),
                    None => assert!(!plan.contains("executor"), "{cell}: {plan}"),
                }

                // (d) a hinted statement leaves the session switches as it
                // found them — when it succeeds and when it fails
                conn.execute_with_hints(&join, &switched)
                    .expect("hinted join");
                assert_eq!(conn.explain(&join).expect("explain"), plan, "{cell}");
                let err = conn
                    .execute_with_hints(&unknown_table, &switched)
                    .expect_err("unknown table");
                assert_eq!(err.message, "unknown table `missing`", "{cell}");
                assert_eq!(conn.explain(&join).expect("explain"), plan, "{cell}");

                // (e) malformed SQL reads the same through every executor
                let err = conn.execute_sql("SELEKT 1").expect_err("malformed SQL");
                assert_eq!(
                    err.message,
                    "parse error at byte 0: expected keyword SELECT, found Ident(\"SELEKT\")",
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn replay_connector_of_a_recorded_disk_session_conforms() {
    // A recorded disk session round-trips through the replay backend: the
    // witness trace stands in for the page store entirely.
    let mut rec = RecordingConnector::new(EngineConnector::open(
        EngineKind::Disk,
        BuildSpec::Faulty,
        ProfileId::MysqlLike,
    ));
    assert_connector_conformance(&mut rec, BuildSpec::Faulty);
    let mut replay = rec.replay();
    assert_connector_conformance(&mut replay, BuildSpec::Faulty);
}

#[test]
fn replay_connector_of_a_recorded_pristine_session_conforms() {
    // Record one full conformance run, then replay it without the engine:
    // the suite's seeded generator reproduces the same statements, so the
    // replay backend must pass the identical contract.
    let mut rec = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Pristine,
        ProfileId::MysqlLike,
    ));
    assert_connector_conformance(&mut rec, BuildSpec::Pristine);
    let mut replay = rec.replay();
    assert_connector_conformance(&mut replay, BuildSpec::Pristine);
}

#[test]
fn replay_connector_of_a_recorded_seeded_session_conforms() {
    let mut rec = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Faulty,
        ProfileId::TidbLike,
    ));
    assert_connector_conformance(&mut rec, BuildSpec::Faulty);
    let mut replay = rec.replay();
    assert_connector_conformance(&mut replay, BuildSpec::Faulty);
}

#[test]
fn recording_connector_is_a_transparent_pristine_proxy() {
    let mut conn = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Pristine,
        ProfileId::MysqlLike,
    ));
    assert_connector_conformance(&mut conn, BuildSpec::Pristine);
    // the proxy observed the whole session
    assert!(
        conn.trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::LoadCatalog { .. })),
        "trace must include the catalog load"
    );
    assert!(
        conn.trace().len() > 100,
        "trace too short: {}",
        conn.trace().len()
    );
}

#[test]
fn recording_connector_is_a_transparent_seeded_proxy() {
    let mut conn = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Faulty,
        ProfileId::TidbLike,
    ));
    assert_connector_conformance(&mut conn, BuildSpec::Faulty);
    // the trace carries the fault provenance the seeded build produced
    let fired_in_trace = conn.trace().iter().any(
        |e| matches!(e, TraceEvent::Statement { outcome: Ok(out), .. } if !out.fired.is_empty()),
    );
    assert!(
        fired_in_trace,
        "seeded faults must be visible in the recorded trace"
    );
    assert!(conn.replay_log().contains("EXEC"));
}

/// The DML section of the contract on `build` of every profile, on all three
/// executors.
fn every_engine_passes_dml_conformance(build: BuildSpec) {
    for profile in ProfileId::ALL {
        for kind in EngineKind::ALL {
            let mut conn = EngineConnector::open(kind, build, profile);
            assert_dml_conformance(&mut conn, build);
        }
    }
}

#[test]
fn engine_connectors_pass_dml_conformance_when_pristine() {
    // Visibility basics plus a clean pass of the mutation oracle.
    every_engine_passes_dml_conformance(BuildSpec::Pristine);
}

#[test]
fn engine_connectors_pass_dml_conformance_when_seeded() {
    // Every seeded build carries the shared DML fault complement, and the
    // suite requires it to misbehave observably — while still honoring the
    // fault-dodging visibility basics.
    every_engine_passes_dml_conformance(BuildSpec::Faulty);
}

#[test]
fn replay_connector_of_a_recorded_dml_session_conforms() {
    // DML statements key into the witness trace under ("dml", rendered
    // statement); a recorded mutation session must replay without the
    // engine, faults and all.
    let mut rec = RecordingConnector::new(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Faulty,
        ProfileId::MysqlLike,
    ));
    assert_dml_conformance(&mut rec, BuildSpec::Faulty);
    let mut replay = rec.replay();
    assert_dml_conformance(&mut replay, BuildSpec::Faulty);
}

#[test]
fn conformance_catches_a_connector_that_hides_misbehavior() {
    // A deliberately broken proxy that launders every fault away — the suite
    // must reject it on a seeded build.
    struct FaultHidingConnector(EngineConnector);

    impl DbmsConnector for FaultHidingConnector {
        fn info(&self) -> tqs_core::backend::ConnectorInfo {
            self.0.info()
        }

        fn load_catalog(
            &mut self,
            catalog: &tqs_storage::Catalog,
        ) -> Result<(), tqs_core::backend::ConnectorError> {
            self.0.load_catalog(catalog)
        }

        fn execute_with_hints(
            &mut self,
            stmt: &tqs_sql::ast::SelectStmt,
            _hints: &tqs_sql::hints::HintSet,
        ) -> Result<tqs_core::backend::SqlOutcome, tqs_core::backend::ConnectorError> {
            // always execute the default plan and strip the provenance
            let mut out = self.0.execute(stmt)?;
            out.fired.clear();
            Ok(out)
        }

        fn explain(
            &mut self,
            stmt: &tqs_sql::ast::SelectStmt,
        ) -> Result<String, tqs_core::backend::ConnectorError> {
            self.0.explain(stmt)
        }
    }

    let mut conn = FaultHidingConnector(EngineConnector::open(
        EngineKind::Row,
        BuildSpec::Pristine,
        ProfileId::XdbLike,
    ));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_connector_conformance(&mut conn, BuildSpec::Faulty);
    }));
    assert!(
        outcome.is_err(),
        "the suite must reject a connector that never misbehaves"
    );
}
