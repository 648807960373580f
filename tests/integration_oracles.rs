//! The redesigned oracle layer end-to-end:
//!
//! * Cross-engine differential testing — the faulty row engine against the
//!   pristine columnar engine on the same DSG catalog — must detect injected
//!   join faults without any ground-truth machinery.
//! * All four baseline oracles (TQS, PQS, TLP, NoRec) run through the
//!   `Oracle` trait uniformly, via the same runner.

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::baselines::{run_oracle_on, Baseline, BaselineConfig};
use tqs_core::bugs::OracleKind;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict, TqsOracle};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::{FaultKind, ProfileId};
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn dsg() -> DsgDatabase {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 200,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 17,
            max_injections: 24,
        }),
    })
}

#[test]
fn cross_engine_differential_detects_injected_join_faults() {
    // Row engine: faulty MySQL-like build (Table 4 complement).
    // Reference: pristine columnar build of the same dialect, same catalog.
    let d = dsg();
    let oracle =
        DifferentialOracle::new(EngineKind::Columnar.connect_pristine(ProfileId::MysqlLike, &d));
    let mut session = TqsSession::builder()
        .connector(EngineKind::Row.faulty(ProfileId::MysqlLike))
        .dsg(d)
        .config(TqsConfig {
            iterations: 150,
            queries_per_hour: 25,
            ..Default::default()
        })
        .oracle(oracle)
        .build()
        .unwrap();
    let stats = session.run();
    assert!(stats.tool.contains("differential"), "{}", stats.tool);
    assert!(
        stats.bug_count > 0,
        "cross-engine differential testing found nothing on a faulty build"
    );
    // The divergences must be attributable to injected row-engine join
    // faults: the columnar reference is pristine, so every fired fault in a
    // report belongs to the MySQL-like Table 4 complement.
    let implicated = session.bugs.implicated_faults();
    assert!(
        !implicated.is_empty(),
        "no fault provenance on any cross-engine report"
    );
    for f in &implicated {
        assert!(
            FaultKind::ALL.contains(f),
            "{f:?} is not a row-engine Table 4 fault"
        );
    }
    for r in &session.bugs.reports {
        assert_eq!(r.oracle, OracleKind::CrossEngine);
    }
}

#[test]
fn cross_engine_differential_is_sound_when_both_builds_are_pristine() {
    let d = dsg();
    let oracle =
        DifferentialOracle::new(EngineKind::Columnar.connect_pristine(ProfileId::XdbLike, &d));
    let mut session = TqsSession::builder()
        .connector(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Pristine,
            ProfileId::XdbLike,
        ))
        .dsg(d)
        .config(TqsConfig {
            iterations: 60,
            queries_per_hour: 20,
            ..Default::default()
        })
        .oracle(oracle)
        .build()
        .unwrap();
    let stats = session.run();
    assert_eq!(
        stats.bug_count, 0,
        "pristine row vs pristine columnar diverged: {:#?}",
        session.bugs.reports
    );
    assert!(stats.queries_executed > stats.queries_skipped);
}

#[test]
fn the_columnar_build_is_catchable_too() {
    // Two-sided detection: testing the *columnar* faulty build against the
    // pristine row engine flags the columnar batching faults.
    let d = dsg();
    let oracle =
        DifferentialOracle::new(EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d));
    let mut session = TqsSession::builder()
        .connector(EngineKind::Columnar.faulty(ProfileId::MysqlLike))
        .dsg(d)
        .config(TqsConfig {
            iterations: 120,
            queries_per_hour: 25,
            ..Default::default()
        })
        .oracle(oracle)
        .build()
        .unwrap();
    let stats = session.run();
    assert!(stats.bug_count > 0, "columnar faults went undetected");
    let implicated = session.bugs.implicated_faults();
    assert!(
        implicated.iter().any(|f| FaultKind::COLUMNAR.contains(f)),
        "no columnar fault implicated: {implicated:?}"
    );
}

#[test]
fn all_four_oracles_run_uniformly_through_the_trait() {
    // One runner, four oracles, one connector type — the API the redesign
    // exists to provide.
    let d = dsg();
    let cfg = BaselineConfig {
        iterations: 120,
        queries_per_hour: 20,
        seed: 7,
    };
    let mut results = Vec::new();
    let mut oracles: Vec<(Option<Baseline>, Box<dyn Oracle>)> = vec![
        (None, Box::new(TqsOracle::new(&d))),
        (Some(Baseline::Pqs), Baseline::Pqs.oracle(&d)),
        (Some(Baseline::Tlp), Baseline::Tlp.oracle(&d)),
        (Some(Baseline::NoRec), Baseline::NoRec.oracle(&d)),
    ];
    for (baseline, oracle) in oracles.iter_mut() {
        let mut conn = EngineKind::Row.faulty(ProfileId::MysqlLike).loaded(&d);
        let stats = run_oracle_on(oracle.as_mut(), *baseline, &mut conn, &d, &cfg);
        results.push((stats.tool.clone(), stats.bug_type_count));
    }
    let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["TQS", "PQS", "TLP", "NoRec"]);
    // TQS (ground truth) dominates every baseline on bug types — Figure 8.
    let tqs_types = results[0].1;
    for (name, types) in &results[1..] {
        assert!(
            tqs_types >= *types,
            "TQS types {tqs_types} < {name} types {types}"
        );
    }
}

#[test]
fn a_single_statement_flows_through_any_oracle() {
    // The minimal API surface: one stmt, one connector, one verdict.
    let d = dsg();
    let mut conn = EngineKind::Row.connect_pristine(ProfileId::TidbLike, &d);
    let table = &d.db.metas[0].name;
    let col = &d.db.metas[0].columns[0];
    let stmt = tqs_sql::parser::parse_stmt(&format!("SELECT {table}.{col} FROM {table}")).unwrap();
    let mut oracle = TqsOracle::new(&d);
    assert!(matches!(
        oracle.check(&stmt, &mut conn),
        OracleVerdict::Pass
    ));
}
