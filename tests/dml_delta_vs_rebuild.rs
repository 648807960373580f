//! Delta-vs-rebuild: the proof obligation behind the mutation ground truth.
//!
//! [`MutationGroundTruth`] maintains its state *incrementally* — every
//! mutation applies a delta, rollback reverse-applies an undo log, and the
//! committed view is derived by inverse application. This harness checks it
//! against an independent reference implemented right here in the test:
//! `NaiveDb` re-evaluates each statement functionally (building fresh row
//! vectors) and implements transactions by *cloning the whole state at
//! BEGIN* and restoring the clone on ROLLBACK — deliberately a different
//! mechanism from the undo log, so a bookkeeping bug in either side shows up
//! as a divergence.
//!
//! After **every statement** of a generated program we assert:
//!
//! * the incrementally-maintained live state is byte-identical to a
//!   from-scratch replay of the statement prefix (`NaiveDb::rebuild`),
//! * the undo-derived committed view equals the snapshot-at-BEGIN committed
//!   view, and
//! * both sides agree on statement success and `rows_affected`.
//!
//! A second property runs the same programs through the mutation oracle on
//! pristine builds of all three engines (row, columnar, disk) and requires a
//! clean pass.

use proptest::prelude::*;
use std::sync::OnceLock;
use tqs_core::backend::EngineKind;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::mutation::{DmlGenConfig, DmlGenerator, DmlOracle, MutationGroundTruth};
use tqs_core::oracle::OracleVerdict;
use tqs_engine::ProfileId;
use tqs_sql::ast::{DeleteStmt, DmlStmt, InsertStmt, UpdateStmt};
use tqs_sql::eval::{eval_expr, eval_predicate, NoSubqueries, SliceRow};
use tqs_sql::render::render_program;
use tqs_sql::value::Value;
use tqs_storage::Catalog;

fn shared_dsg() -> &'static DsgDatabase {
    static DSG: OnceLock<DsgDatabase> = OnceLock::new();
    DSG.get_or_init(|| {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(tqs_storage::widegen::ShoppingConfig {
                n_rows: 120,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: None,
        })
    })
}

type Rows = Vec<(u64, Vec<Value>)>;

/// The in-test reference: same DML semantics as [`MutationGroundTruth`],
/// different machinery. Statements rebuild row vectors functionally (which
/// makes them atomic for free), and transactions are whole-state snapshots
/// instead of undo logs. Row identities mirror the ground truth's contract:
/// ids are assigned 1.. globally in catalog load order, inserts take the
/// next id, and ids are never reused — not even after a rollback.
struct NaiveDb {
    schema: Catalog,
    tables: Vec<(String, Rows)>,
    next_id: u64,
    /// Deep copy of `tables` taken at BEGIN; ROLLBACK restores it wholesale.
    /// `next_id` is deliberately *not* part of the snapshot: identities
    /// consumed by a rolled-back insert stay consumed.
    txn_snapshot: Option<Vec<(String, Rows)>>,
}

impl NaiveDb {
    fn new(catalog: &Catalog) -> Self {
        let mut next_id = 0u64;
        let tables = catalog
            .iter()
            .map(|t| {
                let rows = t
                    .rows
                    .iter()
                    .map(|r| {
                        next_id += 1;
                        (next_id, r.values.clone())
                    })
                    .collect();
                (t.name.clone(), rows)
            })
            .collect();
        NaiveDb {
            schema: catalog.clone(),
            tables,
            next_id,
            txn_snapshot: None,
        }
    }

    /// From-scratch replay of a statement prefix: fresh state, apply every
    /// statement, ignore the ones that error (they leave state untouched).
    fn rebuild(catalog: &Catalog, prefix: &[DmlStmt]) -> Self {
        let mut db = NaiveDb::new(catalog);
        for stmt in prefix {
            let _ = db.apply(stmt);
        }
        db
    }

    fn live(&self) -> Vec<(String, Rows)> {
        self.tables.clone()
    }

    /// The committed view under snapshot semantics: whatever was live at
    /// BEGIN, or the live state itself outside a transaction.
    fn committed(&self) -> Vec<(String, Rows)> {
        self.txn_snapshot
            .clone()
            .unwrap_or_else(|| self.tables.clone())
    }

    fn table_idx(&self, name: &str) -> Result<usize, ()> {
        self.tables
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
            .ok_or(())
    }

    fn scope_cols(schema: &tqs_storage::Table) -> Vec<(String, String)> {
        schema
            .columns
            .iter()
            .map(|c| (schema.name.clone(), c.name.clone()))
            .collect()
    }

    fn apply(&mut self, stmt: &DmlStmt) -> Result<usize, ()> {
        match stmt {
            DmlStmt::Begin => {
                if self.txn_snapshot.is_some() {
                    return Err(());
                }
                self.txn_snapshot = Some(self.tables.clone());
                Ok(0)
            }
            DmlStmt::Commit => self.txn_snapshot.take().map(|_| 0).ok_or(()),
            DmlStmt::Rollback => match self.txn_snapshot.take() {
                Some(snap) => {
                    self.tables = snap;
                    Ok(0)
                }
                None => Err(()),
            },
            DmlStmt::Insert(i) => self.apply_insert(i),
            DmlStmt::Update(u) => self.apply_update(u),
            DmlStmt::Delete(d) => self.apply_delete(d),
        }
    }

    fn apply_insert(&mut self, stmt: &InsertStmt) -> Result<usize, ()> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self.schema.table(&stmt.table).ok_or(())?;
        let mut col_indices = Vec::with_capacity(stmt.columns.len());
        for c in &stmt.columns {
            col_indices.push(schema.column_index(c).ok_or(())?);
        }
        let scope = SliceRow::new(&[], &[]);
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for exprs in &stmt.rows {
            let mut values = vec![Value::Null; schema.columns.len()];
            for (ci, e) in col_indices.iter().zip(exprs) {
                values[*ci] = eval_expr(e, &scope, &NoSubqueries).map_err(|_| ())?;
            }
            for (v, c) in values.iter().zip(&schema.columns) {
                if !c.ty.admits(v) {
                    return Err(());
                }
            }
            rows.push(values);
        }
        let n = rows.len();
        for values in rows {
            self.next_id += 1;
            let id = self.next_id;
            self.tables[ti].1.push((id, values));
        }
        Ok(n)
    }

    fn apply_update(&mut self, stmt: &UpdateStmt) -> Result<usize, ()> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self.schema.table(&stmt.table).ok_or(())?;
        let cols = Self::scope_cols(schema);
        let mut set_cols = Vec::with_capacity(stmt.set.len());
        for a in &stmt.set {
            set_cols.push((schema.column_index(&a.column).ok_or(())?, &a.value));
        }
        let mut n = 0usize;
        let mut new_rows = Vec::with_capacity(self.tables[ti].1.len());
        for (id, values) in &self.tables[ti].1 {
            let scope = SliceRow::new(&cols, values);
            let matched = match &stmt.where_clause {
                None => true,
                Some(p) => eval_predicate(p, &scope, &NoSubqueries).map_err(|_| ())? == Some(true),
            };
            if matched {
                n += 1;
                let mut new = values.clone();
                for (ci, e) in &set_cols {
                    let v = eval_expr(e, &scope, &NoSubqueries).map_err(|_| ())?;
                    if !schema.columns[*ci].ty.admits(&v) {
                        return Err(());
                    }
                    new[*ci] = v;
                }
                new_rows.push((*id, new));
            } else {
                new_rows.push((*id, values.clone()));
            }
        }
        self.tables[ti].1 = new_rows;
        Ok(n)
    }

    fn apply_delete(&mut self, stmt: &DeleteStmt) -> Result<usize, ()> {
        let ti = self.table_idx(&stmt.table)?;
        let schema = self.schema.table(&stmt.table).ok_or(())?;
        let cols = Self::scope_cols(schema);
        let mut n = 0usize;
        let mut kept = Vec::with_capacity(self.tables[ti].1.len());
        for (id, values) in &self.tables[ti].1 {
            let scope = SliceRow::new(&cols, values);
            let doomed = match &stmt.where_clause {
                None => true,
                Some(p) => eval_predicate(p, &scope, &NoSubqueries).map_err(|_| ())? == Some(true),
            };
            if doomed {
                n += 1;
            } else {
                kept.push((*id, values.clone()));
            }
        }
        self.tables[ti].1 = kept;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every statement of a random DML + transaction program, the
    /// delta-maintained ground truth is byte-identical to a from-scratch
    /// rebuild, and its inverse-derived committed view matches the
    /// snapshot-based one.
    #[test]
    fn delta_ground_truth_matches_from_scratch_rebuild(seed in 0u64..10_000) {
        let dsg = shared_dsg();
        let catalog = &dsg.db.catalog;
        let mut generator = DmlGenerator::new(DmlGenConfig { seed, ..Default::default() });
        let program = generator.generate_program(dsg);
        let rendered = render_program(&program);

        let mut gt = MutationGroundTruth::new(catalog);
        let mut naive = NaiveDb::new(catalog);
        for (k, stmt) in program.iter().enumerate() {
            let expected = gt.apply(stmt);
            let observed = naive.apply(stmt);
            prop_assert_eq!(
                expected.is_ok(),
                observed.is_ok(),
                "statement {} of program disagreed on success (gt: {:?})\n{}",
                k, expected, rendered
            );
            if let (Ok(a), Ok(b)) = (&expected, &observed) {
                prop_assert_eq!(
                    a, b,
                    "rows_affected diverged at statement {} of\n{}", k, rendered
                );
            }
            prop_assert_eq!(
                gt.in_txn(),
                naive.txn_snapshot.is_some(),
                "transaction state diverged at statement {} of\n{}", k, rendered
            );
            // Live state: delta-maintained == running reference == rebuilt
            // from scratch over the prefix.
            prop_assert_eq!(
                gt.snapshot(),
                naive.live(),
                "live state diverged at statement {} of\n{}", k, rendered
            );
            prop_assert_eq!(
                gt.snapshot(),
                NaiveDb::rebuild(catalog, &program[..=k]).live(),
                "delta state != from-scratch rebuild at statement {} of\n{}", k, rendered
            );
            // Committed view: undo reverse-application == snapshot-at-BEGIN.
            for (name, rows) in naive.committed() {
                prop_assert_eq!(
                    gt.committed_rows(&name).unwrap(),
                    rows,
                    "committed view of {} diverged at statement {} of\n{}", name, k, rendered
                );
            }
        }
        // The generator closes every transaction block.
        prop_assert!(!gt.in_txn());
    }

    /// The same programs pass the mutation oracle on pristine builds of all
    /// three engines — row, columnar, and disk.
    #[test]
    fn pristine_engines_pass_the_mutation_oracle(
        seed in 0u64..10_000,
        profile_idx in 0usize..4,
    ) {
        let dsg = shared_dsg();
        let profile = ProfileId::ALL[profile_idx];
        let mut generator = DmlGenerator::new(DmlGenConfig { seed, ..Default::default() });
        let program = generator.generate_program(dsg);
        let oracle = DmlOracle::from_dsg(dsg);
        for (label, mut conn) in [
            ("row", EngineKind::Row.connect_pristine(profile, dsg)),
            ("columnar", EngineKind::Columnar.connect_pristine(profile, dsg)),
            ("disk", EngineKind::Disk.connect_pristine(profile, dsg)),
        ] {
            match oracle.check_program(&program, &mut conn) {
                OracleVerdict::Pass => {}
                OracleVerdict::Skip => prop_assert!(
                    false,
                    "{} engine skipped program\n{}", label, render_program(&program)
                ),
                OracleVerdict::Bugs(reports) => prop_assert!(
                    false,
                    "{} engine diverged from ground truth on\n{}\nfirst report: {} expected {} observed {}",
                    label,
                    render_program(&program),
                    reports[0].transformed_sql,
                    reports[0].expected_rows,
                    reports[0].observed_rows
                ),
            }
        }
    }
}

/// Mid-transaction, the committed view still shows the pre-BEGIN rows, and
/// ROLLBACK restores the *same row identities*, not merely equal values.
#[test]
fn rollback_restores_the_same_row_identities() {
    let dsg = shared_dsg();
    let catalog = &dsg.db.catalog;
    let mut gt = MutationGroundTruth::new(catalog);
    let table = catalog
        .iter()
        .next()
        .expect("non-empty catalog")
        .name
        .clone();
    let before = gt.visible_rows(&table).unwrap().to_vec();
    assert!(!before.is_empty());

    gt.apply(&DmlStmt::Begin).unwrap();
    let n = gt
        .apply(&DmlStmt::Delete(DeleteStmt {
            table: table.clone(),
            where_clause: None,
        }))
        .unwrap();
    assert_eq!(n, before.len());
    assert!(gt.visible_rows(&table).unwrap().is_empty());
    assert_eq!(gt.committed_rows(&table).unwrap(), before);

    gt.apply(&DmlStmt::Rollback).unwrap();
    assert_eq!(gt.visible_rows(&table).unwrap(), &before[..]);
}
