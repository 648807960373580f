//! DML execution: INSERT / UPDATE / DELETE application, transaction control
//! and the mutation fault complement, shared by all three engines.
//!
//! The row engine owns the canonical implementation
//! ([`crate::engine::Database::execute_dml`]): mutations apply directly to
//! the in-memory catalog, `BEGIN` snapshots the catalog (cheap — tables are
//! `Arc`-shared copy-on-write), `ROLLBACK` restores the snapshot and `COMMIT`
//! drops it. Every applied mutation is recorded as a [`DmlOp`] that knows its
//! exact inverse. The columnar engine delegates to its inner row database
//! (its scans re-read the shared catalog per statement). The disk engine
//! applies the same ops in memory, buffers them per transaction, and at each
//! commit boundary appends them to a dedicated log table in the page store —
//! riding the store's WAL commit protocol, so an armed
//! [`tqs_pager::CrashPoint`] kills a DML commit at a *real* commit/abort
//! boundary and recovery decides visibility by whether the log batch's WAL
//! record was fsynced.
//!
//! The five [`FaultKind::DML`](crate::faults::FaultKind::DML) faults
//! (Table-4 ids 35–39) fire *here*, on specific mutation shapes, never on any
//! SELECT path:
//!
//! * **M1 `DmlStaleIndexAfterUpdate`** — an UPDATE that writes an indexed
//!   column leaves the first matching row's keyed cells unchanged (the index
//!   was "updated", the base row was not).
//! * **M2 `DmlDeleteSkipsNullKey`** — a DELETE quietly skips matching rows
//!   that carry NULL in a WHERE-referenced column (the delete scan consults
//!   an index that never stored the NULL entry).
//! * **M3 `DmlLostUpdateThroughPrunedColumn`** — an UPDATE writing a column
//!   the WHERE clause never reads loses that write on every matching row
//!   after the first (the write-path pruned the "unneeded" column).
//! * **M4 `DmlRollbackLeaksInsertedRow`** — ROLLBACK restores the snapshot
//!   but re-appends the transaction's first inserted row.
//! * **M5 `DmlCommitBoundaryTornVisibility`** — COMMIT publishes every
//!   buffered change except the last one.

use crate::engine::EngineError;
use crate::faults::{FaultKind, FaultSet};
use tqs_sql::ast::{DeleteStmt, DmlStmt, Expr, InsertStmt, UpdateStmt};
use tqs_sql::eval::{eval_expr, eval_predicate, NoSubqueries, SliceRow};
use tqs_sql::value::Value;
use tqs_storage::{Catalog, Row};

/// Result of executing one DML / transaction-control statement.
#[derive(Debug, Clone, Default)]
pub struct DmlOutcome {
    /// Rows the statement actually touched (0 for transaction control).
    pub rows_affected: usize,
    /// DML faults that fired while applying this statement.
    pub fired: Vec<FaultKind>,
    /// The ops this statement made *durable-eligible*: for an auto-commit
    /// mutation, the ops it applied; for `COMMIT`, the whole transaction's
    /// effective ops; for `ROLLBACK`, normally empty (a leaked row under M4
    /// appears here); for `BEGIN` and in-transaction mutations the disk
    /// engine must not persist yet, so callers consult
    /// [`crate::engine::Database::in_txn`].
    pub ops: Vec<DmlOp>,
}

impl DmlOutcome {
    pub(crate) fn fire(&mut self, kind: FaultKind) {
        if !self.fired.contains(&kind) {
            self.fired.push(kind);
        }
    }
}

/// One applied mutation, recorded with enough state to replay it forward
/// (disk scans, delta-vs-rebuild checks) or invert it exactly (M5).
///
/// `idx` is the row's position in the table *at the moment the op applied*,
/// so replaying a sequence of ops in order over the same starting state
/// reproduces the final state byte-for-byte, and reverting them in reverse
/// order restores the starting state exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlOp {
    Insert {
        table: String,
        idx: usize,
        row: Vec<Value>,
    },
    Update {
        table: String,
        idx: usize,
        old: Vec<Value>,
        new: Vec<Value>,
    },
    Delete {
        table: String,
        idx: usize,
        old: Vec<Value>,
    },
}

impl DmlOp {
    pub fn table(&self) -> &str {
        match self {
            DmlOp::Insert { table, .. }
            | DmlOp::Update { table, .. }
            | DmlOp::Delete { table, .. } => table,
        }
    }

    /// Replay this op onto `catalog`. Out-of-range indices are clamped or
    /// skipped rather than panicking: the disk engine replays ops over
    /// *faulted* scans whose row counts may have been corrupted on purpose.
    pub fn apply(&self, catalog: &mut Catalog) {
        match self {
            DmlOp::Insert { table, idx, row } => {
                if let Some(t) = catalog.table_mut(table) {
                    let at = (*idx).min(t.rows.len());
                    t.rows.insert(at, Row::new(row.clone()));
                }
            }
            DmlOp::Update {
                table, idx, new, ..
            } => {
                if let Some(t) = catalog.table_mut(table) {
                    if let Some(r) = t.rows.get_mut(*idx) {
                        r.values = new.clone();
                    }
                }
            }
            DmlOp::Delete { table, idx, .. } => {
                if let Some(t) = catalog.table_mut(table) {
                    if *idx < t.rows.len() {
                        t.rows.remove(*idx);
                    }
                }
            }
        }
    }

    /// Undo this op on `catalog` (same clamping policy as [`DmlOp::apply`]).
    pub(crate) fn revert(&self, catalog: &mut Catalog) {
        match self {
            DmlOp::Insert { table, idx, .. } => {
                if let Some(t) = catalog.table_mut(table) {
                    if *idx < t.rows.len() {
                        t.rows.remove(*idx);
                    }
                }
            }
            DmlOp::Update {
                table, idx, old, ..
            } => {
                if let Some(t) = catalog.table_mut(table) {
                    if let Some(r) = t.rows.get_mut(*idx) {
                        r.values = old.clone();
                    }
                }
            }
            DmlOp::Delete { table, idx, old } => {
                if let Some(t) = catalog.table_mut(table) {
                    let at = (*idx).min(t.rows.len());
                    t.rows.insert(at, Row::new(old.clone()));
                }
            }
        }
    }

    /// Flatten to a value row for the disk engine's log table. The layout is
    /// `[tag, table, idx, arity, payload…]` where `payload` is the inserted /
    /// deleted row, or `old ++ new` for updates — all encoded by the store's
    /// ordinary row codec, so log batches get WAL protection for free.
    pub fn encode(&self) -> Vec<Value> {
        let (tag, table, idx, payload): (&str, &str, usize, Vec<&Value>) = match self {
            DmlOp::Insert { table, idx, row } => ("I", table, *idx, row.iter().collect()),
            DmlOp::Update {
                table,
                idx,
                old,
                new,
            } => ("U", table, *idx, old.iter().chain(new.iter()).collect()),
            DmlOp::Delete { table, idx, old } => ("D", table, *idx, old.iter().collect()),
        };
        let arity = match self {
            DmlOp::Update { old, .. } => old.len(),
            DmlOp::Insert { row, .. } => row.len(),
            DmlOp::Delete { old, .. } => old.len(),
        };
        let mut out = Vec::with_capacity(4 + payload.len());
        out.push(Value::str(tag));
        out.push(Value::str(table));
        out.push(Value::Int(idx as i64));
        out.push(Value::Int(arity as i64));
        out.extend(payload.into_iter().cloned());
        out
    }

    /// Inverse of [`DmlOp::encode`]; a malformed log row is a storage error.
    pub fn decode(vals: &[Value]) -> Result<DmlOp, EngineError> {
        let bad = |m: &str| EngineError::Storage(format!("corrupt DML log row: {m}"));
        if vals.len() < 4 {
            return Err(bad("fewer than 4 header values"));
        }
        let tag = vals[0]
            .as_str()
            .ok_or_else(|| bad("tag is not a string"))?
            .to_string();
        let table = vals[1]
            .as_str()
            .ok_or_else(|| bad("table is not a string"))?
            .to_string();
        let as_idx = |v: &Value| match v {
            Value::Int(i) if *i >= 0 => Ok(*i as usize),
            _ => Err(bad("index is not a non-negative integer")),
        };
        let idx = as_idx(&vals[2])?;
        let arity = as_idx(&vals[3])?;
        let payload = &vals[4..];
        match tag.as_str() {
            "I" | "D" => {
                if payload.len() != arity {
                    return Err(bad("payload arity mismatch"));
                }
                let row = payload.to_vec();
                Ok(if tag == "I" {
                    DmlOp::Insert { table, idx, row }
                } else {
                    DmlOp::Delete {
                        table,
                        idx,
                        old: row,
                    }
                })
            }
            "U" => {
                if payload.len() != arity * 2 {
                    return Err(bad("update payload arity mismatch"));
                }
                Ok(DmlOp::Update {
                    table,
                    idx,
                    old: payload[..arity].to_vec(),
                    new: payload[arity..].to_vec(),
                })
            }
            other => Err(bad(&format!("unknown tag `{other}`"))),
        }
    }
}

/// Column names (lowercased, deduped) an expression reads. Subquery interiors
/// are ignored — DML predicates reject subqueries at evaluation time anyway.
fn referenced_columns(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Column(c) => {
            let lc = c.column.to_lowercase();
            if !out.contains(&lc) {
                out.push(lc);
            }
        }
        Expr::Literal(_) | Expr::Exists { .. } => {}
        Expr::Binary { left, right, .. } => {
            referenced_columns(left, out);
            referenced_columns(right, out);
        }
        Expr::Unary { expr, .. }
        | Expr::IsNull { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::InSubquery { expr, .. } => referenced_columns(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            referenced_columns(expr, out);
            referenced_columns(low, out);
            referenced_columns(high, out);
        }
        Expr::InList { expr, list, .. } => {
            referenced_columns(expr, out);
            for item in list {
                referenced_columns(item, out);
            }
        }
    }
}

/// Row indices matching `where_clause` (all rows when absent), evaluated
/// against the pre-statement state with the reference three-valued-logic
/// evaluator — a row is affected only when the predicate is *true*.
fn matching_rows(
    table: &tqs_storage::Table,
    where_clause: Option<&Expr>,
) -> Result<Vec<usize>, EngineError> {
    let Some(pred) = where_clause else {
        return Ok((0..table.rows.len()).collect());
    };
    let cols: Vec<(String, String)> = table
        .columns
        .iter()
        .map(|c| (table.name.clone(), c.name.clone()))
        .collect();
    let mut out = Vec::new();
    for (i, row) in table.rows.iter().enumerate() {
        let scope = SliceRow::new(&cols, &row.values);
        if eval_predicate(pred, &scope, &NoSubqueries)? == Some(true) {
            out.push(i);
        }
    }
    Ok(out)
}

fn unknown_table(name: &str) -> EngineError {
    EngineError::UnknownTable(name.to_string())
}

/// Apply one mutation statement (never transaction control) to `catalog`,
/// firing whatever enabled DML faults its shape triggers. Returns the
/// outcome with the exact ops applied (post-fault — ops record what
/// *actually* happened, so replaying them reproduces even a corrupted state).
pub(crate) fn apply_mutation(
    catalog: &mut Catalog,
    faults: &FaultSet,
    stmt: &DmlStmt,
) -> Result<DmlOutcome, EngineError> {
    match stmt {
        DmlStmt::Insert(i) => apply_insert(catalog, i),
        DmlStmt::Update(u) => apply_update(catalog, faults, u),
        DmlStmt::Delete(d) => apply_delete(catalog, faults, d),
        other => Err(EngineError::Unsupported(format!(
            "apply_mutation on transaction control: {other:?}"
        ))),
    }
}

fn apply_insert(catalog: &mut Catalog, stmt: &InsertStmt) -> Result<DmlOutcome, EngineError> {
    let table = catalog
        .table(&stmt.table)
        .ok_or_else(|| unknown_table(&stmt.table))?;
    let tname = table.name.clone();
    let ncols = table.columns.len();
    let mut col_indices = Vec::with_capacity(stmt.columns.len());
    for c in &stmt.columns {
        let ci = table.column_index(c).ok_or_else(|| {
            EngineError::Unsupported(format!("INSERT: unknown column {c} in {tname}"))
        })?;
        col_indices.push(ci);
    }
    // VALUES rows must be constant expressions; an empty scope rejects any
    // column reference with an UnknownColumn error.
    let scope = SliceRow::new(&[], &[]);
    let mut rows = Vec::with_capacity(stmt.rows.len());
    for exprs in &stmt.rows {
        let mut values = vec![Value::Null; ncols];
        for (ci, e) in col_indices.iter().zip(exprs) {
            values[*ci] = eval_expr(e, &scope, &NoSubqueries)?;
        }
        rows.push(values);
    }
    let mut out = DmlOutcome::default();
    let t = catalog
        .table_mut(&tname)
        .ok_or_else(|| unknown_table(&tname))?;
    for values in rows {
        let idx = t.rows.len();
        t.push_row(Row::new(values.clone()))
            .map_err(EngineError::Unsupported)?;
        out.ops.push(DmlOp::Insert {
            table: tname.clone(),
            idx,
            row: values,
        });
        out.rows_affected += 1;
    }
    Ok(out)
}

fn apply_update(
    catalog: &mut Catalog,
    faults: &FaultSet,
    stmt: &UpdateStmt,
) -> Result<DmlOutcome, EngineError> {
    let table = catalog
        .table(&stmt.table)
        .ok_or_else(|| unknown_table(&stmt.table))?;
    let tname = table.name.clone();
    // Resolve SET targets and classify them for the fault shapes.
    let mut set_cols = Vec::with_capacity(stmt.set.len());
    for a in &stmt.set {
        let ci = table.column_index(&a.column).ok_or_else(|| {
            EngineError::Unsupported(format!("UPDATE: unknown column {} in {tname}", a.column))
        })?;
        set_cols.push((ci, table.columns[ci].name.clone(), &a.value));
    }
    let mut where_cols = Vec::new();
    if let Some(w) = &stmt.where_clause {
        referenced_columns(w, &mut where_cols);
    }
    let keyed_set: Vec<usize> = set_cols
        .iter()
        .filter(|(_, name, _)| table.has_key_on(name))
        .map(|(ci, _, _)| *ci)
        .collect();
    let pruned_set: Vec<usize> = set_cols
        .iter()
        .filter(|(_, name, _)| !where_cols.contains(&name.to_lowercase()))
        .map(|(ci, _, _)| *ci)
        .collect();
    let matched = matching_rows(table, stmt.where_clause.as_ref())?;
    let m1 = faults.contains(FaultKind::DmlStaleIndexAfterUpdate) && !keyed_set.is_empty();
    let m3 = faults.contains(FaultKind::DmlLostUpdateThroughPrunedColumn)
        && !pruned_set.is_empty()
        && matched.len() >= 2;

    let cols: Vec<(String, String)> = table
        .columns
        .iter()
        .map(|c| (tname.clone(), c.name.clone()))
        .collect();
    let col_types: Vec<_> = table
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();

    let mut out = DmlOutcome::default();
    let t = catalog
        .table_mut(&tname)
        .ok_or_else(|| unknown_table(&tname))?;
    for (k, &i) in matched.iter().enumerate() {
        let old = t.rows[i].values.clone();
        let mut new = old.clone();
        // Every SET expression sees the pre-update row (standard semantics).
        let scope = SliceRow::new(&cols, &old);
        for (ci, _, e) in &set_cols {
            let v = eval_expr(e, &scope, &NoSubqueries)?;
            let (cname, ty) = &col_types[*ci];
            if !ty.admits(&v) {
                return Err(EngineError::Unsupported(format!(
                    "UPDATE {tname}: value {v} not admitted by column {cname} ({ty})"
                )));
            }
            new[*ci] = v;
        }
        if m1 && k == 0 {
            // The index entry moved; the base row's keyed cells did not.
            for &ci in &keyed_set {
                new[ci] = old[ci].clone();
            }
            out.fire(FaultKind::DmlStaleIndexAfterUpdate);
        }
        if m3 && k >= 1 {
            // The write path pruned columns the predicate never read.
            for &ci in &pruned_set {
                new[ci] = old[ci].clone();
            }
            out.fire(FaultKind::DmlLostUpdateThroughPrunedColumn);
        }
        t.rows[i].values = new.clone();
        out.ops.push(DmlOp::Update {
            table: tname.clone(),
            idx: i,
            old,
            new,
        });
        out.rows_affected += 1;
    }
    Ok(out)
}

fn apply_delete(
    catalog: &mut Catalog,
    faults: &FaultSet,
    stmt: &DeleteStmt,
) -> Result<DmlOutcome, EngineError> {
    let table = catalog
        .table(&stmt.table)
        .ok_or_else(|| unknown_table(&stmt.table))?;
    let tname = table.name.clone();
    let matched = matching_rows(table, stmt.where_clause.as_ref())?;
    let mut where_cols = Vec::new();
    if let Some(w) = &stmt.where_clause {
        referenced_columns(w, &mut where_cols);
    }
    let where_indices: Vec<usize> = where_cols
        .iter()
        .filter_map(|c| table.column_index(c))
        .collect();
    let m2 = faults.contains(FaultKind::DmlDeleteSkipsNullKey) && !where_indices.is_empty();

    let mut out = DmlOutcome::default();
    let mut skipped = false;
    let mut removed = 0usize;
    let t = catalog
        .table_mut(&tname)
        .ok_or_else(|| unknown_table(&tname))?;
    for &i in &matched {
        if m2
            && where_indices
                .iter()
                .any(|&ci| t.rows[i - removed].values[ci] == Value::Null)
        {
            // The delete scan used an index that never stored NULL entries.
            skipped = true;
            continue;
        }
        let idx = i - removed;
        let old = t.rows.remove(idx).values;
        removed += 1;
        out.ops.push(DmlOp::Delete {
            table: tname.clone(),
            idx,
            old,
        });
        out.rows_affected += 1;
    }
    if skipped {
        out.fire(FaultKind::DmlDeleteSkipsNullKey);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Database, Engine};
    use crate::profiles::{DbmsProfile, ProfileId};
    use tqs_sql::parser::parse_dml;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t1 = Table::new(
            "t1",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
                ColumnDef::new("col2", ColumnType::Varchar(100)),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c1, c2) in [
            (1, Value::Int(10), Value::str("a")),
            (2, Value::Int(20), Value::str("b")),
            (3, Value::Null, Value::str("c")),
            (4, Value::Int(20), Value::str("d")),
        ] {
            t1.push_row(Row::new(vec![Value::Int(id), c1, c2])).unwrap();
        }
        cat.add_table(t1);
        cat
    }

    fn pristine() -> Database {
        Database::new(catalog(), DbmsProfile::pristine(ProfileId::MysqlLike))
    }

    fn seeded(kind: FaultKind) -> Database {
        Database::new(
            catalog(),
            DbmsProfile {
                faults: FaultSet::of(&[kind]),
                ..DbmsProfile::pristine(ProfileId::MysqlLike)
            },
        )
    }

    fn ids(db: &mut Database) -> Vec<i64> {
        db.execute_sql("SELECT t1.id FROM t1")
            .unwrap()
            .result
            .rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("non-int id {other}"),
            })
            .collect()
    }

    fn run(db: &mut Database, sql: &str) -> DmlOutcome {
        db.execute_dml(&parse_dml(sql).unwrap())
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let mut db = pristine();
        let out = run(
            &mut db,
            "INSERT INTO t1 (id, col1, col2) VALUES (5, 50, 'e'), (6, 60, 'f')",
        );
        assert_eq!(out.rows_affected, 2);
        assert_eq!(out.ops.len(), 2);
        assert!(out.fired.is_empty());
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 5, 6]);

        let out = run(&mut db, "UPDATE t1 SET col1 = col1 + 1 WHERE t1.col1 = 20");
        assert_eq!(out.rows_affected, 2);
        assert_eq!(
            db.catalog.table("t1").unwrap().cell(1, "col1"),
            Some(&Value::Int(21))
        );

        let out = run(&mut db, "DELETE FROM t1 WHERE t1.id > 4");
        assert_eq!(out.rows_affected, 2);
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4]);

        // NULL never matches an equality predicate (3VL).
        let out = run(&mut db, "DELETE FROM t1 WHERE t1.col1 = 999");
        assert_eq!(out.rows_affected, 0);
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4]);
    }

    #[test]
    fn missing_insert_columns_default_to_null() {
        let mut db = pristine();
        run(&mut db, "INSERT INTO t1 (id) VALUES (9)");
        let t = db.catalog.table("t1").unwrap();
        assert_eq!(t.cell(4, "col1"), Some(&Value::Null));
        assert_eq!(t.cell(4, "col2"), Some(&Value::Null));
    }

    #[test]
    fn dml_errors_surface() {
        let mut db = pristine();
        for sql in [
            "INSERT INTO nope (id) VALUES (1)",
            "INSERT INTO t1 (ghost) VALUES (1)",
            "INSERT INTO t1 (id) VALUES ('not an int')",
            "UPDATE t1 SET ghost = 1",
            "DELETE FROM t1 WHERE t1.ghost = 1",
        ] {
            assert!(
                db.execute_dml(&parse_dml(sql).unwrap()).is_err(),
                "{sql} should fail"
            );
        }
        // Errors must not have mutated anything.
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4]);
    }

    #[test]
    fn transactions_commit_and_rollback() {
        let mut db = pristine();
        assert!(db.execute_dml(&DmlStmt::Commit).is_err());
        assert!(db.execute_dml(&DmlStmt::Rollback).is_err());

        run(&mut db, "BEGIN");
        assert!(db.in_txn());
        assert!(db.execute_dml(&DmlStmt::Begin).is_err(), "nested BEGIN");
        run(&mut db, "INSERT INTO t1 (id, col1) VALUES (5, 50)");
        run(&mut db, "DELETE FROM t1 WHERE t1.id = 1");
        assert_eq!(ids(&mut db), vec![2, 3, 4, 5], "own writes visible in txn");
        assert_eq!(db.txn_ops().len(), 2);
        run(&mut db, "ROLLBACK");
        assert!(!db.in_txn());
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4], "rollback restores exactly");

        run(&mut db, "BEGIN");
        run(&mut db, "UPDATE t1 SET col2 = 'z' WHERE t1.id = 2");
        let out = run(&mut db, "COMMIT");
        assert_eq!(out.ops.len(), 1, "commit returns the effective txn ops");
        assert_eq!(
            db.catalog.table("t1").unwrap().cell(1, "col2"),
            Some(&Value::str("z"))
        );
    }

    #[test]
    fn ops_encode_decode_roundtrip() {
        let ops = vec![
            DmlOp::Insert {
                table: "t1".into(),
                idx: 4,
                row: vec![Value::Int(5), Value::Null, Value::str("x'y\"z")],
            },
            DmlOp::Update {
                table: "t1".into(),
                idx: 0,
                old: vec![Value::Int(1), Value::Int(10), Value::str("a")],
                new: vec![Value::Int(1), Value::Int(11), Value::str("a")],
            },
            DmlOp::Delete {
                table: "t1".into(),
                idx: 2,
                old: vec![Value::Int(3), Value::Null, Value::str("c")],
            },
        ];
        for op in &ops {
            assert_eq!(&DmlOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(DmlOp::decode(&[Value::Int(1)]).is_err());
        assert!(DmlOp::decode(&[
            Value::str("X"),
            Value::str("t"),
            Value::Int(0),
            Value::Int(0)
        ])
        .is_err());
    }

    #[test]
    fn ops_apply_then_revert_is_identity() {
        let mut db = pristine();
        let before = db.catalog.clone();
        let mut applied = Vec::new();
        for sql in [
            "INSERT INTO t1 (id, col1) VALUES (5, 50)",
            "UPDATE t1 SET col1 = 0 WHERE t1.id = 2",
            "DELETE FROM t1 WHERE t1.id = 1",
        ] {
            applied.extend(run(&mut db, sql).ops);
        }
        // Replaying the recorded ops over the starting state reproduces the
        // live catalog; reverting in reverse order restores the start.
        let mut replay = before.clone();
        for op in &applied {
            op.apply(&mut replay);
        }
        assert_eq!(
            replay.table("t1").unwrap().rows,
            db.catalog.table("t1").unwrap().rows
        );
        for op in applied.iter().rev() {
            op.revert(&mut db.catalog);
        }
        assert_eq!(
            db.catalog.table("t1").unwrap().rows,
            before.table("t1").unwrap().rows
        );
    }

    #[test]
    fn m1_stale_index_keeps_first_rows_keyed_cells() {
        let mut db = seeded(FaultKind::DmlStaleIndexAfterUpdate);
        // id is the primary key: writing it triggers the stale-index shape.
        let out = run(&mut db, "UPDATE t1 SET id = id + 100 WHERE t1.col1 = 20");
        assert_eq!(out.fired, vec![FaultKind::DmlStaleIndexAfterUpdate]);
        assert_eq!(
            ids(&mut db),
            vec![1, 2, 3, 104],
            "first match kept its old id"
        );
        // A non-keyed UPDATE stays clean.
        let out = run(&mut db, "UPDATE t1 SET col2 = 'w' WHERE t1.id = 1");
        assert!(out.fired.is_empty());
    }

    #[test]
    fn m2_delete_skips_null_key_rows() {
        let mut db = seeded(FaultKind::DmlDeleteSkipsNullKey);
        let out = run(
            &mut db,
            "DELETE FROM t1 WHERE t1.col1 = 20 OR (t1.col1 IS NULL)",
        );
        assert_eq!(out.fired, vec![FaultKind::DmlDeleteSkipsNullKey]);
        // Row 3 (col1 NULL) matched but was skipped; rows 2 and 4 went.
        assert_eq!(ids(&mut db), vec![1, 3]);
        assert_eq!(out.rows_affected, 2);
    }

    #[test]
    fn m3_loses_pruned_writes_after_first_match() {
        let mut db = seeded(FaultKind::DmlLostUpdateThroughPrunedColumn);
        // col2 is written but never read by WHERE → pruned on rows 2+.
        let out = run(&mut db, "UPDATE t1 SET col2 = 'hit' WHERE t1.col1 = 20");
        assert_eq!(out.fired, vec![FaultKind::DmlLostUpdateThroughPrunedColumn]);
        let t = db.catalog.table("t1").unwrap();
        assert_eq!(t.cell(1, "col2"), Some(&Value::str("hit")));
        assert_eq!(
            t.cell(3, "col2"),
            Some(&Value::str("d")),
            "second write lost"
        );
        // Single-row matches never trigger the shape.
        let out = run(&mut db, "UPDATE t1 SET col2 = 'one' WHERE t1.id = 1");
        assert!(out.fired.is_empty());
    }

    #[test]
    fn m4_rollback_leaks_first_inserted_row() {
        let mut db = seeded(FaultKind::DmlRollbackLeaksInsertedRow);
        run(&mut db, "BEGIN");
        run(&mut db, "INSERT INTO t1 (id, col1) VALUES (7, 70)");
        run(&mut db, "INSERT INTO t1 (id, col1) VALUES (8, 80)");
        let out = run(&mut db, "ROLLBACK");
        assert_eq!(out.fired, vec![FaultKind::DmlRollbackLeaksInsertedRow]);
        assert_eq!(out.ops.len(), 1, "the leak is itself an op");
        assert_eq!(
            ids(&mut db),
            vec![1, 2, 3, 4, 7],
            "first insert leaked through"
        );
        // A rollback of a txn with no inserts stays clean.
        run(&mut db, "BEGIN");
        run(&mut db, "DELETE FROM t1 WHERE t1.id = 7");
        let out = run(&mut db, "ROLLBACK");
        assert!(out.fired.is_empty());
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 7]);
    }

    #[test]
    fn m5_commit_drops_the_last_buffered_change() {
        let mut db = seeded(FaultKind::DmlCommitBoundaryTornVisibility);
        run(&mut db, "BEGIN");
        run(&mut db, "INSERT INTO t1 (id, col1) VALUES (7, 70)");
        run(&mut db, "INSERT INTO t1 (id, col1) VALUES (8, 80)");
        let out = run(&mut db, "COMMIT");
        assert_eq!(out.fired, vec![FaultKind::DmlCommitBoundaryTornVisibility]);
        assert_eq!(out.ops.len(), 1, "only the surviving op is durable");
        assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 7], "last change torn off");
        // An empty commit has nothing to tear.
        run(&mut db, "BEGIN");
        let out = run(&mut db, "COMMIT");
        assert!(out.fired.is_empty());
    }

    #[test]
    fn pristine_dml_never_fires() {
        let mut db = pristine();
        for sql in [
            "BEGIN",
            "INSERT INTO t1 (id, col1) VALUES (7, 70)",
            "UPDATE t1 SET id = id + 10, col2 = 'q' WHERE t1.col1 = 20",
            "DELETE FROM t1 WHERE t1.col1 IS NULL",
            "COMMIT",
        ] {
            let out = run(&mut db, sql);
            assert!(out.fired.is_empty(), "{sql} fired {:?}", out.fired);
        }
    }
}
