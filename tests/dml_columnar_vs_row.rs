//! Cross-engine DML parity: on fault-free builds, the row, columnar and
//! disk engines execute generated mutation programs identically —
//! statement-for-statement `rows_affected`, identical executability, and
//! bag-identical final table states. This is the invariant that lets a
//! pristine build of any engine stand in as the reference in cross-engine
//! differential mutation testing.

use proptest::prelude::*;
use std::sync::OnceLock;
use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::mutation::{DmlGenConfig, DmlGenerator};
use tqs_engine::ProfileId;
use tqs_sql::ast::{FromClause, SelectItem, SelectStmt};
use tqs_sql::render::{render_dml, render_program};
use tqs_storage::widegen::ShoppingConfig;

fn shared_dsg() -> &'static DsgDatabase {
    static DSG: OnceLock<DsgDatabase> = OnceLock::new();
    DSG.get_or_init(|| {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 140,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: None,
        })
    })
}

/// `SELECT every column FROM table` — the probe for final-state comparison.
fn select_all(dsg: &DsgDatabase, table: &str) -> SelectStmt {
    let t = dsg.db.catalog.table(table).expect("probe table");
    let mut stmt = SelectStmt::new(FromClause::single(&t.name));
    stmt.items = t
        .columns
        .iter()
        .map(|c| SelectItem::column(&t.name, &c.name))
        .collect();
    stmt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Pristine row, columnar and disk builds are DML-answer-identical:
    /// same per-statement success and rows_affected, same final state of
    /// every table, no faults fired anywhere.
    #[test]
    fn pristine_engines_execute_dml_identically(
        seed in 0u64..10_000,
        profile_idx in 0usize..4,
    ) {
        let dsg = shared_dsg();
        let profile = ProfileId::ALL[profile_idx];
        let mut engines = [
            ("row", EngineKind::Row.connect_pristine(profile, dsg)),
            ("columnar", EngineKind::Columnar.connect_pristine(profile, dsg)),
            ("disk", EngineKind::Disk.connect_pristine(profile, dsg)),
        ];
        let mut generator = DmlGenerator::new(DmlGenConfig { seed, ..Default::default() });
        let program = generator.generate_program(dsg);
        let rendered = render_program(&program);

        for stmt in &program {
            let mut outcomes = Vec::with_capacity(engines.len());
            for (label, conn) in engines.iter_mut() {
                outcomes.push((*label, conn.execute_dml(stmt)));
            }
            let (ref_label, reference) = &outcomes[0];
            for (label, outcome) in &outcomes[1..] {
                match (reference, outcome) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            a.result.same_bag(&b.result),
                            "{} and {} disagree on rows_affected of {} in\n{}",
                            ref_label, label, render_dml(stmt), rendered
                        );
                        prop_assert!(a.fired.is_empty(), "pristine {} fired faults", ref_label);
                        prop_assert!(b.fired.is_empty(), "pristine {} fired faults", label);
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(
                        false,
                        "{} (ok={}) and {} (ok={}) disagree on executability of {} in\n{}",
                        ref_label, a.is_ok(), label, b.is_ok(), render_dml(stmt), rendered
                    ),
                }
            }
        }

        // Final committed state: every table, bag-identical across engines.
        for table in dsg.db.catalog.table_names() {
            let probe = select_all(dsg, &table);
            let mut results = Vec::with_capacity(engines.len());
            for (label, conn) in engines.iter_mut() {
                let out = conn.execute(&probe);
                prop_assert!(out.is_ok(), "{}: final-state probe of {} failed", label, table);
                results.push((*label, out.unwrap()));
            }
            let (ref_label, reference) = &results[0];
            for (label, out) in &results[1..] {
                prop_assert!(
                    reference.result.same_bag(&out.result),
                    "{} ({} rows) and {} ({} rows) diverged on final state of {} after\n{}",
                    ref_label, reference.result.row_count(),
                    label, out.result.row_count(),
                    table, rendered
                );
            }
        }
    }
}
