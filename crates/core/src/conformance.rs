//! Connector conformance suite.
//!
//! A reusable behavioral contract every [`DbmsConnector`](crate::backend::DbmsConnector)
//! implementation must satisfy, run from unit tests, integration tests and
//! (for out-of-tree backends) the connector author's own test suite:
//!
//! * **Pristine builds are plan-invariant**: on a fault-free backend, every
//!   hint-set transformation of a query returns the same bag as the wide-table
//!   ground truth, and no fault provenance is ever reported.
//! * **Seeded builds misbehave observably**: on a backend seeded with faults,
//!   a testing session must surface at least one ground-truth mismatch or
//!   fired fault — otherwise the connector is hiding the very behavior the
//!   harness exists to detect.
//! * **The session surface works**: `load_catalog` accepts a DSG catalog, raw
//!   SQL round-trips through `execute_sql`, and `explain` yields a plan.

use crate::backend::{BuildSpec, DbmsConnector};
use crate::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use crate::hintgen::hint_sets_for;
use crate::mutation::{DmlGenConfig, DmlGenerator, DmlOracle};
use crate::oracle::OracleVerdict;
use tqs_schema::{GroundTruthEvaluator, NoiseConfig};
use tqs_storage::widegen::ShoppingConfig;

/// The standard small testing database the suite drives connectors with.
pub fn conformance_dsg() -> DsgDatabase {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 150,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 9,
            max_injections: 16,
        }),
    })
}

/// Run the conformance contract against `conn`. Panics (with a diagnostic)
/// on any violation, like an assertion-style test helper.
pub fn assert_connector_conformance(conn: &mut dyn DbmsConnector, kind: BuildSpec) {
    let dsg = conformance_dsg();
    conn.load_catalog(&dsg.db.catalog)
        .expect("conformance: load_catalog must accept a DSG catalog");

    let info = conn.info();
    assert!(
        !info.name.is_empty(),
        "conformance: connector must report a build name"
    );

    // Raw-SQL round trip against a known table.
    let base = &dsg.db.metas[0].name;
    let sql_probe = conn
        .execute_sql(&format!("SELECT COUNT(*) AS c FROM {base}"))
        .expect("conformance: execute_sql must handle a trivial COUNT(*)");
    assert_eq!(sql_probe.result.row_count(), 1);

    let gt = GroundTruthEvaluator::new(&dsg.db);
    let mut generator = QueryGenerator::new(Default::default());
    let mut executed = 0usize;
    let mut mismatches = 0usize;
    let mut plan_divergences = 0usize;
    let mut fired_any = false;
    let mut explained = false;

    let iterations = match kind {
        BuildSpec::Pristine => 60,
        // Seeded builds get a longer budget: the faults are corner-case
        // triggers and need enough generated queries to fire.
        BuildSpec::Faulty => 150,
    };
    for _ in 0..iterations {
        let stmt = generator.generate(&dsg, None, &UniformScorer);
        let truth = match gt.evaluate(&stmt) {
            Ok(t) => t,
            Err(_) => continue,
        };
        if !explained {
            let plan = conn
                .explain(&stmt)
                .expect("conformance: explain must render a plan for a generated query");
            assert!(!plan.is_empty());
            explained = true;
        }
        let mut outcomes = Vec::new();
        for hs in hint_sets_for(info.dialect, &stmt) {
            if let Ok(out) = conn.execute_with_hints(&stmt, &hs) {
                outcomes.push((hs.label.clone(), out));
            }
        }
        if outcomes.is_empty() {
            continue;
        }
        executed += 1;
        for (label, out) in &outcomes {
            if !out.fired.is_empty() {
                fired_any = true;
            }
            if !truth.matches(&out.result) {
                mismatches += 1;
                if kind == BuildSpec::Pristine {
                    panic!(
                        "conformance: pristine {} diverged from ground truth under hint set \
                         `{label}` on:\n{}",
                        info.name,
                        tqs_sql::render::render_stmt(&stmt),
                    );
                }
            }
        }
        // Plan invariance: every transformed plan agrees with the default.
        // Select the baseline by label — failed executions are skipped above,
        // so position 0 is not guaranteed to be the un-hinted plan.
        let Some((default_label, default_out)) =
            outcomes.iter().find(|(label, _)| label == "default")
        else {
            continue;
        };
        for (label, out) in &outcomes {
            if label == default_label {
                continue;
            }
            if !default_out.result.same_bag(&out.result) {
                plan_divergences += 1;
                if kind == BuildSpec::Pristine {
                    panic!(
                        "conformance: pristine {} plan `{label}` disagrees with the default \
                         plan on:\n{}",
                        info.name,
                        tqs_sql::render::render_stmt(&stmt),
                    );
                }
            }
        }
    }

    assert!(
        executed * 2 >= iterations,
        "conformance: {} executed only {executed}/{iterations} generated queries",
        info.name
    );
    match kind {
        BuildSpec::Pristine => {
            assert!(
                !fired_any,
                "conformance: pristine {} reported fired faults",
                info.name
            );
        }
        BuildSpec::Faulty => {
            assert!(
                fired_any || mismatches > 0 || plan_divergences > 0,
                "conformance: seeded {} never misbehaved over {iterations} queries — \
                 faults are not observable through this connector",
                info.name
            );
        }
    }
}

/// The DML section of the conformance contract, for connectors that support
/// mutation statements:
///
/// * **Visibility basics hold on every build** (faulty or pristine): an
///   auto-committed INSERT is immediately visible, an UPDATE-only
///   transaction ended by ROLLBACK leaves the table untouched, and a DELETE
///   keyed on a non-NULL column removes exactly its rows. These shapes dodge
///   every seeded DML fault on purpose — they are the part of the contract
///   even a faulty build must honor.
/// * **Pristine builds pass the mutation oracle**: generated DML programs
///   leave the database byte-in-bag-identical to the delta-maintained ground
///   truth, with no fault provenance.
/// * **Seeded builds misbehave observably**: at least one generated program
///   must produce a mutation bug report.
///
/// Panics with a diagnostic on any violation. A connector without DML
/// support should simply not call this — the base contract
/// ([`assert_connector_conformance`]) never touches mutation paths.
pub fn assert_dml_conformance(conn: &mut dyn DbmsConnector, kind: BuildSpec) {
    let dsg = conformance_dsg();
    conn.load_catalog(&dsg.db.catalog)
        .expect("dml conformance: load_catalog must accept a DSG catalog");
    let info = conn.info();
    // A (table, column, marker, other) slot whose column admits literals of
    // its own type: an int marker where the column takes ints, a short
    // string marker otherwise.
    let mut slot = None;
    'outer: for t in dsg.db.catalog.iter() {
        for c in &t.columns {
            if c.ty.admits(&tqs_sql::value::Value::Int(987_654_321)) {
                slot = Some((t.name.clone(), c.name.clone(), "987654321", "1"));
                break 'outer;
            }
            if c.ty
                .admits(&tqs_sql::value::Value::Varchar("marker-987".into()))
            {
                slot = Some((t.name.clone(), c.name.clone(), "'marker-987'", "'x'"));
                break 'outer;
            }
        }
    }
    let (table, key_col, marker, other) =
        slot.expect("dml conformance: no column admits a marker literal");
    let count_sql = format!("SELECT COUNT(*) AS c FROM {table}");
    let count = |conn: &mut dyn DbmsConnector, sql: &str| -> i64 {
        let out = conn
            .execute_sql(sql)
            .expect("dml conformance: COUNT(*) probe");
        match out.result.rows[0].get(0) {
            tqs_sql::value::Value::Int(n) => *n,
            other => panic!("dml conformance: COUNT(*) returned {other}"),
        }
    };

    // 1. Auto-committed INSERT is immediately visible.
    let before = count(conn, &count_sql);
    conn.execute_dml_sql(&format!(
        "INSERT INTO {table} ({key_col}) VALUES ({marker})"
    ))
    .unwrap_or_else(|e| panic!("dml conformance: {} rejected INSERT: {e}", info.name));
    assert_eq!(
        count(conn, &count_sql),
        before + 1,
        "dml conformance: {} INSERT not visible",
        info.name
    );

    // 2. An UPDATE-only transaction ended by ROLLBACK changes nothing.
    //    (UPDATE shapes may fire faults inside the transaction; ROLLBACK
    //    restores the snapshot regardless — only inserts can leak under M4.)
    let snapshot = conn
        .execute_sql(&format!("SELECT {table}.{key_col} FROM {table}"))
        .expect("dml conformance: snapshot probe")
        .result;
    for sql in [
        "BEGIN".to_string(),
        format!("UPDATE {table} SET {key_col} = {other} WHERE {table}.{key_col} = {marker}"),
        "ROLLBACK".to_string(),
    ] {
        conn.execute_dml_sql(&sql)
            .unwrap_or_else(|e| panic!("dml conformance: {} rejected {sql}: {e}", info.name));
    }
    let after = conn
        .execute_sql(&format!("SELECT {table}.{key_col} FROM {table}"))
        .expect("dml conformance: post-rollback probe")
        .result;
    assert!(
        snapshot.same_bag(&after),
        "dml conformance: {} ROLLBACK did not restore the table",
        info.name
    );

    // 3. DELETE keyed on a non-NULL value removes exactly its rows.
    let out = conn
        .execute_dml_sql(&format!(
            "DELETE FROM {table} WHERE {table}.{key_col} = {marker}"
        ))
        .unwrap_or_else(|e| panic!("dml conformance: {} rejected DELETE: {e}", info.name));
    assert_eq!(
        out.result.rows[0].get(0),
        &tqs_sql::value::Value::Int(1),
        "dml conformance: {} DELETE affected the wrong row count",
        info.name
    );
    assert_eq!(count(conn, &count_sql), before);

    // 4. Generated mutation programs against the delta-maintained ground
    //    truth: sound when pristine, observably wrong when seeded.
    let oracle = DmlOracle::from_dsg(&dsg);
    let mut gen = DmlGenerator::new(DmlGenConfig::default());
    let programs = match kind {
        BuildSpec::Pristine => 10,
        BuildSpec::Faulty => 25,
    };
    let mut executed = 0usize;
    let mut bugs = 0usize;
    for _ in 0..programs {
        let program = gen.generate_program(&dsg);
        match oracle.check_program(&program, conn) {
            OracleVerdict::Bugs(reports) => {
                executed += 1;
                bugs += reports.len();
                if kind == BuildSpec::Pristine {
                    panic!(
                        "dml conformance: pristine {} diverged from the mutation ground \
                         truth: {reports:#?}",
                        info.name
                    );
                }
            }
            OracleVerdict::Pass => executed += 1,
            OracleVerdict::Skip => {}
        }
    }
    assert!(
        executed * 2 >= programs,
        "dml conformance: {} executed only {executed}/{programs} programs",
        info.name
    );
    if kind == BuildSpec::Faulty {
        assert!(
            bugs > 0,
            "dml conformance: seeded {} never misbehaved over {programs} mutation programs",
            info.name
        );
    }
    // Leave the connector reloaded with the pristine catalog.
    conn.load_catalog(&dsg.db.catalog)
        .expect("dml conformance: reload");
}
