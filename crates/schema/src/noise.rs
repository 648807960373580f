//! Noise injection (§3.2): corrupt a small fraction of primary/foreign key
//! cells in the schema tables with boundary values or NULLs, then
//! re-synchronize the wide table, the RowID map and the join bitmap index so
//! that ground-truth recovery stays exact.
//!
//! One deliberate deviation from the paper's literal description: the Case-2
//! insertion (adding a wide row that keeps the referenced dimension content
//! reachable) is only performed when some referenced row would otherwise
//! become unreachable from the wide table. When other wide rows still map to
//! all the same dimension rows, inserting a duplicate witness is pointless,
//! so we skip it; when the insert does happen, any redundant witnesses it
//! carries are collapsed by the ground truth's identity-based row
//! deduplication — this is exactly the paper's own requirement that injected
//! noise "does not violate the ground-truth results of normal data".

use crate::normalize::NormalizedDb;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use tqs_sql::value::Value;

/// Which corruption is applied to a chosen key cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseKind {
    Null,
    Boundary,
}

/// Whether the corrupted column was the table's implicit primary key
/// (Case 1 of §3.2) or a foreign key column (Case 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NoiseCase {
    PrimaryKey,
    ForeignKey,
}

/// A record of one injected corruption, kept for bug-report provenance.
#[derive(Debug, Clone)]
pub struct NoiseRecord {
    pub table: String,
    pub column: String,
    pub schema_row: u32,
    pub kind: NoiseKind,
    pub case: NoiseCase,
    pub value: Value,
    /// Wide-table row appended by the synchronization rules, if any.
    pub inserted_wide_row: Option<u64>,
}

/// Noise-injection configuration. `epsilon` is the fraction of rows corrupted
/// per key column (the paper's ε).
#[derive(Debug, Clone)]
pub struct NoiseConfig {
    pub epsilon: f64,
    pub seed: u64,
    /// Hard cap on total injections (keeps small test schemas tractable).
    pub max_injections: usize,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            epsilon: 0.02,
            seed: 17,
            max_injections: 64,
        }
    }
}

/// Inject noise into `db` and return the records of what was corrupted.
pub fn inject_noise(db: &mut NormalizedDb, cfg: &NoiseConfig) -> Vec<NoiseRecord> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut records = Vec::new();
    let mut salt = 1u64;

    // Candidate (table, column, case) targets.
    let mut targets: Vec<(String, String, NoiseCase)> = Vec::new();
    for m in &db.metas {
        if m.implicit_pk.len() == 1 && !m.is_base {
            targets.push((
                m.name.clone(),
                m.implicit_pk[0].clone(),
                NoiseCase::PrimaryKey,
            ));
        }
    }
    for (from, cols, _to, _) in db.catalog.foreign_key_edges() {
        if cols.len() == 1 {
            targets.push((from, cols[0].clone(), NoiseCase::ForeignKey));
        }
    }
    targets.sort();
    targets.dedup();

    for (table, column, case) in targets {
        if records.len() >= cfg.max_injections {
            break;
        }
        let n_rows = match db.catalog.table(&table) {
            Some(t) => t.row_count(),
            None => continue,
        };
        if n_rows == 0 {
            continue;
        }
        let n_inject = ((n_rows as f64 * cfg.epsilon).ceil() as usize)
            .clamp(1, n_rows)
            .min(cfg.max_injections - records.len());
        let mut rows: Vec<usize> = (0..n_rows).collect();
        rows.shuffle(&mut rng);
        for &row in rows.iter().take(n_inject) {
            let kind = if rng.gen_bool(0.5) {
                NoiseKind::Null
            } else {
                NoiseKind::Boundary
            };
            let value = match kind {
                NoiseKind::Null => Value::Null,
                NoiseKind::Boundary => match unique_boundary(db, &table, &column, &mut salt) {
                    Some(v) => v,
                    None => Value::Null,
                },
            };
            if let Some(rec) = apply_noise(db, &table, &column, row as u32, case, kind, value) {
                records.push(rec);
            }
        }
    }
    records
}

/// Produce a boundary value for the column's type that appears nowhere in the
/// wide table column nor in the schema table column.
fn unique_boundary(db: &NormalizedDb, table: &str, column: &str, salt: &mut u64) -> Option<Value> {
    let ty = db.wide.attr_type(column)?;
    let existing: HashSet<String> = collect_existing(db, table, column);
    // First try the canonical boundary value, then salted alternates.
    let mut candidates = vec![ty.boundary_value()];
    for _ in 0..16 {
        *salt += 1;
        candidates.push(ty.alt_boundary_value(*salt));
    }
    candidates
        .into_iter()
        .find(|v| !existing.contains(&format!("{v}")))
}

fn collect_existing(db: &NormalizedDb, table: &str, column: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    if let Some(idx) = db.wide.attr_index(column) {
        for r in &db.wide.table.rows {
            out.insert(format!("{}", r.get(idx + 1)));
        }
    }
    if let Some(t) = db.catalog.table(table) {
        if let Some(ci) = t.column_index(column) {
            for r in &t.rows {
                out.insert(format!("{}", r.get(ci)));
            }
        }
    }
    out
}

/// Apply one corruption and synchronize the wide table, RowID map and bitmap.
pub fn apply_noise(
    db: &mut NormalizedDb,
    table: &str,
    column: &str,
    schema_row: u32,
    case: NoiseCase,
    kind: NoiseKind,
    value: Value,
) -> Option<NoiseRecord> {
    let meta = db.meta(table)?.clone();
    // Columns functionally dependent on the corrupted column (Fd(col_k)).
    let dependents = db.fds.determined_by(column);
    // Tables whose attribute columns fall entirely inside {col} ∪ dependents.
    let mut span: Vec<String> = vec![column.to_string()];
    span.extend(dependents.iter().cloned());
    let dep_tables: Vec<String> = db
        .metas
        .iter()
        .filter(|m| m.columns.iter().all(|c| span.contains(c)))
        .map(|m| m.name.clone())
        .collect();

    // Affected wide rows: those currently mapping to the corrupted row.
    let affected: Vec<usize> = db.rowid_map.reverse(table, schema_row);
    if affected.is_empty() {
        return None;
    }
    let exemplar = affected[0];

    // Snapshot the exemplar's relevant values BEFORE mutating anything.
    let mut snapshot: Vec<(String, Value)> = Vec::new();
    for c in &span {
        snapshot.push((
            c.clone(),
            db.wide
                .cell(exemplar as u64, c)
                .cloned()
                .unwrap_or(Value::Null),
        ));
    }
    let exemplar_maps: Vec<(String, Option<u32>)> = dep_tables
        .iter()
        .map(|t| (t.clone(), db.rowid_map.get(exemplar, t)))
        .collect();

    // 1. Corrupt the schema table cell.
    {
        let t = db.catalog.table_mut(table)?;
        t.set_cell(schema_row as usize, column, value.clone())
            .ok()?;
    }

    // 2. Decide whether the synchronization needs the insertion rule: when
    //    *any* dependent-table target row would otherwise lose its last
    //    wide-table witness. Witness loss is per table, so requiring it of
    //    every table at once would leave single-table orphans behind —
    //    injections interact: an earlier corruption may already have drained
    //    all other witnesses of one target while its siblings keep theirs.
    //    The inserted row adds a redundant witness for the targets that are
    //    still reachable, which the ground truth's identity-based
    //    deduplication renders harmless.
    let needs_insert = match case {
        NoiseCase::PrimaryKey => true,
        NoiseCase::ForeignKey => dep_tables
            .iter()
            .any(|t| match db.rowid_map.get(exemplar, t) {
                Some(target) => db
                    .rowid_map
                    .reverse(t, target)
                    .iter()
                    .all(|r| affected.contains(r)),
                None => false,
            }),
    };

    // 3. Update rule on the affected wide rows.
    for &r in &affected {
        match case {
            NoiseCase::PrimaryKey => {
                // Dependent columns become NULL; the key column keeps its
                // original (now dangling) value.
                for c in &dependents {
                    let _ = db.wide.set_cell(r as u64, c, Value::Null);
                }
            }
            NoiseCase::ForeignKey => {
                let _ = db.wide.set_cell(r as u64, column, value.clone());
                for c in &dependents {
                    let _ = db.wide.set_cell(r as u64, c, Value::Null);
                }
            }
        }
        for t in &dep_tables {
            db.rowid_map.set(r, t, None);
            db.bitmap.set(t, r, false);
        }
        // In the primary-key case the corrupted table itself also loses the
        // witnesses (its old key no longer exists).
        if case == NoiseCase::PrimaryKey {
            db.rowid_map.set(r, table, None);
            db.bitmap.set(table, r, false);
        }
    }

    // 4. Insertion rule: append a wide row witnessing the corrupted /
    //    orphaned dimension content.
    let mut inserted = None;
    if needs_insert {
        let attrs: Vec<Value> = db
            .wide
            .attr_names()
            .iter()
            .map(|c| {
                if c.eq_ignore_ascii_case(column) {
                    match case {
                        NoiseCase::PrimaryKey => value.clone(),
                        // Case 2 keeps the ORIGINAL key value so the orphaned
                        // dimension rows stay reachable.
                        NoiseCase::ForeignKey => snapshot
                            .iter()
                            .find(|(sc, _)| sc == c)
                            .map(|(_, v)| v.clone())
                            .unwrap_or(Value::Null),
                    }
                } else if span.contains(c) {
                    snapshot
                        .iter()
                        .find(|(sc, _)| sc == c)
                        .map(|(_, v)| v.clone())
                        .unwrap_or(Value::Null)
                } else {
                    Value::Null
                }
            })
            .collect();
        let new_row = db.wide.append(attrs).ok()?;
        db.rowid_map.push_row();
        db.bitmap.grow(db.wide.row_count());
        for (t, target) in &exemplar_maps {
            let target = match case {
                // The new row witnesses the *corrupted* row of the noised
                // table itself, and the exemplar's rows of deeper dimensions.
                NoiseCase::PrimaryKey if t.eq_ignore_ascii_case(table) => Some(schema_row),
                _ => *target,
            };
            if let Some(idx) = target {
                db.rowid_map.set(new_row as usize, t, Some(idx));
                db.bitmap.set(t, new_row as usize, true);
            }
        }
        // Primary-key case: the noised table may not be in dep_tables when it
        // holds extra columns; make sure the new row still witnesses it.
        if case == NoiseCase::PrimaryKey
            && !dep_tables.iter().any(|t| t.eq_ignore_ascii_case(table))
        {
            db.rowid_map.set(new_row as usize, table, Some(schema_row));
            db.bitmap.set(table, new_row as usize, true);
        }
        inserted = Some(new_row);
    }

    Some(NoiseRecord {
        table: meta.name,
        column: column.to_string(),
        schema_row,
        kind,
        case,
        value,
        inserted_wide_row: inserted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdDiscoveryConfig, FdSet};
    use crate::normalize::normalize;
    use tqs_storage::widegen::{shopping_orders, ShoppingConfig};

    fn db() -> NormalizedDb {
        let wide = shopping_orders(&ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        });
        let fds = FdSet::discover(&wide, &FdDiscoveryConfig::default());
        normalize(wide, &fds)
    }

    fn invariant_map_matches_bitmap(db: &NormalizedDb) {
        for row in 0..db.wide.row_count() {
            for m in &db.metas {
                assert_eq!(
                    db.rowid_map.get(row, &m.name).is_some(),
                    db.bitmap.get(&m.name, row),
                    "map/bitmap divergence at {} row {row}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn primary_key_noise_follows_case_1_rules() {
        let mut d = db();
        let users = d.table_with_pk("userId").unwrap().name.clone();
        let before_rows = d.wide.row_count();
        let affected_before = d.rowid_map.reverse(&users, 0);
        assert!(!affected_before.is_empty());
        let rec = apply_noise(
            &mut d,
            &users,
            "userId",
            0,
            NoiseCase::PrimaryKey,
            NoiseKind::Boundary,
            Value::str("ZZZZZZZZ"),
        )
        .unwrap();
        // a new wide row was inserted carrying the noisy key + dependents
        let new_row = rec.inserted_wide_row.unwrap();
        assert_eq!(new_row as usize, before_rows);
        assert_eq!(
            d.wide.cell(new_row, "userId"),
            Some(&Value::str("ZZZZZZZZ"))
        );
        assert!(!d.wide.cell(new_row, "userName").unwrap().is_null());
        assert!(d.wide.cell(new_row, "goodsId").unwrap().is_null());
        // previously-mapped wide rows lost the dependent values and mapping
        for r in &affected_before {
            assert!(d.wide.cell(*r as u64, "userName").unwrap().is_null());
            assert_eq!(d.rowid_map.get(*r, &users), None);
            assert!(!d.bitmap.get(&users, *r));
            // the key value itself is kept (now dangling)
            assert!(!d.wide.cell(*r as u64, "userId").unwrap().is_null());
        }
        // the new row witnesses the corrupted user row
        assert_eq!(d.rowid_map.get(new_row as usize, &users), Some(0));
        invariant_map_matches_bitmap(&d);
    }

    #[test]
    fn foreign_key_noise_follows_case_2_rules() {
        let mut d = db();
        // corrupt the base table's goodsId FK in one row
        let base = "T1".to_string();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        // pick base row 0; its wide witnesses:
        let affected = d.rowid_map.reverse(&base, 0);
        assert!(!affected.is_empty());
        let r0 = affected[0];
        let old_goods_name = d.wide.cell(r0 as u64, "goodsName").unwrap().clone();
        assert!(!old_goods_name.is_null());
        let rec = apply_noise(
            &mut d,
            &base,
            "goodsId",
            0,
            NoiseCase::ForeignKey,
            NoiseKind::Boundary,
            Value::Int(65_535),
        )
        .unwrap();
        // the wide rows now carry the noisy FK and NULLed dependents
        for r in &affected {
            assert_eq!(d.wide.cell(*r as u64, "goodsId"), Some(&Value::Int(65_535)));
            assert!(d.wide.cell(*r as u64, "goodsName").unwrap().is_null());
            assert_eq!(d.rowid_map.get(*r, &goods), None);
        }
        // the goods dimension value 1111-ish is shared by other wide rows in
        // this dataset, so the insertion rule is usually skipped; either way
        // the invariant holds.
        if let Some(new_row) = rec.inserted_wide_row {
            assert_eq!(d.wide.cell(new_row, "goodsName"), Some(&old_goods_name));
        }
        invariant_map_matches_bitmap(&d);
    }

    #[test]
    fn inject_noise_respects_epsilon_and_uniqueness() {
        let mut d = db();
        let recs = inject_noise(
            &mut d,
            &NoiseConfig {
                epsilon: 0.05,
                seed: 5,
                max_injections: 20,
            },
        );
        assert!(!recs.is_empty());
        assert!(recs.len() <= 20);
        invariant_map_matches_bitmap(&d);
        // boundary values must be unique per column
        let mut seen = std::collections::HashSet::new();
        for r in &recs {
            if r.kind == NoiseKind::Boundary {
                assert!(
                    seen.insert(format!("{}:{}", r.column, r.value)),
                    "duplicate boundary noise {:?}",
                    r
                );
            }
        }
    }

    #[test]
    fn null_noise_on_primary_key_keeps_invariants() {
        let mut d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        apply_noise(
            &mut d,
            &goods,
            "goodsId",
            3,
            NoiseCase::PrimaryKey,
            NoiseKind::Null,
            Value::Null,
        )
        .unwrap();
        // the schema table now holds a NULL key
        let t = d.catalog.table(&goods).unwrap();
        assert!(t.cell(3, "goodsId").unwrap().is_null());
        invariant_map_matches_bitmap(&d);
    }

    #[test]
    fn noise_on_unknown_row_is_a_noop() {
        let mut d = db();
        let goods = d.table_with_pk("goodsId").unwrap().name.clone();
        let n = d.catalog.table(&goods).unwrap().row_count() as u32;
        // reverse() of a non-existent row is empty → no record
        assert!(apply_noise(
            &mut d,
            &goods,
            "goodsId",
            n + 50,
            NoiseCase::PrimaryKey,
            NoiseKind::Null,
            Value::Null
        )
        .is_none());
    }
}
