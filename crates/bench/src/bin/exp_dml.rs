//! Mutation-workload experiment: DML statement throughput per engine plus a
//! faulty-build hunt catch summary. Emits `BENCH_dml.json`.
//!
//! Two questions, one artifact:
//!
//! * **How fast do mutations execute?** Generated DML + transaction
//!   programs applied to long-lived pristine builds of the row, columnar
//!   and disk engines — statements/sec, with the disk engine paying the
//!   real WAL commit protocol at every commit boundary.
//! * **Does the hunt catch the seeded DML complement?** The mutation oracle
//!   runs generated programs against the faulty builds; the summary counts
//!   buggy programs, raw reports and distinct [`FaultKind::DML`] kinds per
//!   engine.
//!
//! Environment knobs:
//!
//! * `TQS_DML_PROGRAMS` — programs per engine and leg (default 60)
//! * `TQS_DML_OUT` — output JSON path (default `BENCH_dml.json`)

use std::collections::BTreeSet;
use std::time::Instant;
use tqs_bench::{env_usize, standard_dsg};
use tqs_campaign::Json;
use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::DsgDatabase;
use tqs_core::mutation::{DmlGenConfig, DmlGenerator, DmlOracle};
use tqs_core::oracle::OracleVerdict;
use tqs_engine::{ColumnarDatabase, Database, DbmsProfile, DiskDatabase, Engine, ProfileId};
use tqs_sql::ast::DmlStmt;

/// Apply every program to one long-lived engine, timing the statements.
/// State drifts as programs accumulate — that is the point: steady-state
/// mutation throughput, not load-then-mutate-once. Statements the engine
/// rejects (e.g. a predicate over rows a previous DELETE drained) count as
/// executed attempts.
fn time_engine(
    label: &str,
    programs: &[Vec<DmlStmt>],
    mut exec: impl FnMut(&DmlStmt) -> bool,
) -> Vec<(String, Json)> {
    let started = Instant::now();
    let mut stmts = 0usize;
    let mut rejected = 0usize;
    for program in programs {
        for stmt in program {
            stmts += 1;
            if !exec(stmt) {
                rejected += 1;
            }
        }
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let per_sec = stmts as f64 / secs;
    println!("{label:>9}  {per_sec:>12.1} DML stmts/sec  ({stmts} stmts, {rejected} rejected)");
    vec![
        (format!("{label}_dml_stmts_per_sec"), Json::Num(per_sec)),
        (format!("{label}_dml_stmts"), Json::count(stmts)),
        (format!("{label}_dml_rejected"), Json::count(rejected)),
    ]
}

/// Hunt leg: the mutation oracle over `programs` fresh programs against one
/// faulty connector (each program reloads the pristine catalog — the
/// campaign's per-program cost).
fn hunt(
    label: &str,
    dsg: &DsgDatabase,
    conn: &mut dyn DbmsConnector,
    programs: usize,
    seed: u64,
) -> Vec<(String, Json)> {
    let oracle = DmlOracle::from_dsg(dsg);
    let mut generator = DmlGenerator::new(DmlGenConfig {
        seed,
        ..Default::default()
    });
    let started = Instant::now();
    let mut buggy = 0usize;
    let mut reports = 0usize;
    let mut kinds = BTreeSet::new();
    for _ in 0..programs {
        let program = generator.generate_program(dsg);
        if let OracleVerdict::Bugs(found) = oracle.check_program(&program, conn) {
            buggy += 1;
            reports += found.len();
            kinds.extend(found.iter().flat_map(|r| r.fired.iter().copied()));
        }
    }
    let per_sec = programs as f64 / started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "{label:>9}  {per_sec:>12.1} programs/sec   ({buggy}/{programs} buggy, \
         {reports} reports, {} distinct DML kinds)",
        kinds.len()
    );
    vec![
        (format!("{label}_hunt_programs_per_sec"), Json::Num(per_sec)),
        (format!("{label}_hunt_buggy_programs"), Json::count(buggy)),
        (format!("{label}_hunt_reports"), Json::count(reports)),
        (
            format!("{label}_hunt_distinct_dml_kinds"),
            Json::count(kinds.len()),
        ),
    ]
}

fn main() {
    let programs = env_usize("TQS_DML_PROGRAMS", 60);
    let out_path = std::env::var("TQS_DML_OUT").unwrap_or_else(|_| "BENCH_dml.json".to_string());

    let dsg = DsgDatabase::build(&standard_dsg(240, 77));
    let catalog = dsg.db.catalog.clone();
    let mut generator = DmlGenerator::new(DmlGenConfig {
        seed: 77,
        ..Default::default()
    });
    let pool: Vec<Vec<DmlStmt>> = (0..programs)
        .map(|_| generator.generate_program(&dsg))
        .collect();

    println!("DML throughput — {programs} programs, pristine builds\n");
    let mut row = Database::new(catalog.clone(), DbmsProfile::pristine(ProfileId::MysqlLike));
    let mut members = time_engine("row", &pool, |stmt| row.execute_dml(stmt).is_ok());
    let mut col =
        ColumnarDatabase::new(catalog.clone(), DbmsProfile::pristine(ProfileId::MysqlLike));
    members.extend(time_engine("columnar", &pool, |stmt| {
        col.execute_dml(stmt).is_ok()
    }));
    let mut disk = DiskDatabase::new(catalog, DbmsProfile::pristine(ProfileId::MysqlLike))
        .expect("disk store creation in the temp dir");
    members.extend(time_engine("disk", &pool, |stmt| {
        disk.execute_dml(stmt).is_ok()
    }));

    println!("\nDML hunt — {programs} programs per faulty build\n");
    for kind in EngineKind::ALL {
        let mut conn = kind.faulty(ProfileId::MysqlLike).loaded(&dsg);
        members.extend(hunt(kind.label(), &dsg, &mut conn, programs, 909));
    }
    members.push(("programs".to_string(), Json::count(programs)));

    let body = Json::Obj(members).to_string();
    std::fs::write(&out_path, format!("{body}\n")).expect("write benchmark artifact");
    println!("\nwrote {out_path}");
}
