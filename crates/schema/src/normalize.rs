//! Schema normalization: split the wide table into a 3NF multi-table schema
//! (3NF synthesis over the discovered FDs), populate the tables, and build
//! the RowID map table plus the join bitmap index (§3.1, Example 3.1/3.2).

use crate::bitmap::JoinBitmapIndex;
use crate::fd::FdSet;
use crate::rowmap::RowIdMap;
use std::collections::{BTreeMap, HashMap, HashSet};
use tqs_sql::types::{ColumnDef, ColumnType};
use tqs_sql::value::Value;
use tqs_storage::{Catalog, ForeignKey, Row, Table, WideTable, ROW_ID};

/// Metadata about one generated schema table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaTableMeta {
    pub name: String,
    /// The implicit primary key (wide-table column names).
    pub implicit_pk: Vec<String>,
    /// All attribute columns (wide-table column names), PK first.
    /// The physical table additionally has an explicit `RowID` column.
    pub columns: Vec<String>,
    /// True for the table holding the wide table's candidate key (the
    /// "fact"/base table, `T1` in the paper's example).
    pub is_base: bool,
}

/// The fully-materialized testing database produced by DSG's data layer.
#[derive(Debug, Clone)]
pub struct NormalizedDb {
    pub wide: WideTable,
    pub fds: FdSet,
    pub metas: Vec<SchemaTableMeta>,
    pub catalog: Catalog,
    pub rowid_map: RowIdMap,
    pub bitmap: JoinBitmapIndex,
}

impl NormalizedDb {
    pub fn meta(&self, table: &str) -> Option<&SchemaTableMeta> {
        self.metas
            .iter()
            .find(|m| m.name.eq_ignore_ascii_case(table))
    }

    /// The schema table whose implicit primary key is exactly `[col]`.
    pub fn table_with_pk(&self, col: &str) -> Option<&SchemaTableMeta> {
        self.metas
            .iter()
            .find(|m| m.implicit_pk.len() == 1 && m.implicit_pk[0].eq_ignore_ascii_case(col))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.metas.iter().map(|m| m.name.clone()).collect()
    }

    /// Column type of a wide-table attribute.
    pub fn attr_type(&self, col: &str) -> Option<ColumnType> {
        self.wide.attr_type(col)
    }
}

/// Run 3NF synthesis over the minimal cover and materialize everything.
pub fn normalize(wide: WideTable, fds: &FdSet) -> NormalizedDb {
    let cover = fds.minimal_cover();
    let all_attrs = wide.attr_names();

    // 1. Group minimal-cover FDs by LHS → candidate dimension tables.
    let mut groups: BTreeMap<Vec<String>, Vec<String>> = BTreeMap::new();
    for fd in &cover.fds {
        let mut lhs = fd.lhs.clone();
        lhs.sort();
        groups.entry(lhs).or_default().push(fd.rhs.clone());
    }

    // 2. Base table: the wide table's candidate key plus every attribute not
    //    covered by any dimension table.
    let key = fds.candidate_key();
    let covered: HashSet<String> = groups
        .iter()
        .flat_map(|(lhs, rhs)| lhs.iter().chain(rhs.iter()).cloned())
        .collect();
    let mut base_cols: Vec<String> = key.clone();
    for a in &all_attrs {
        if !covered.contains(a) && !base_cols.contains(a) {
            base_cols.push(a.clone());
        }
    }
    // the key itself is covered implicitly — make sure key attributes that
    // are only LHS of dimension tables stay in the base table so joins exist.
    for k in &key {
        if !base_cols.contains(k) {
            base_cols.push(k.clone());
        }
    }

    // 3. Drop dimension tables whose columns are a subset of another table.
    let mut dim_tables: Vec<(Vec<String>, Vec<String>)> = groups
        .into_iter()
        .map(|(lhs, mut rhs)| {
            rhs.sort();
            rhs.dedup();
            (lhs, rhs)
        })
        .collect();
    let col_set = |lhs: &Vec<String>, rhs: &Vec<String>| -> HashSet<String> {
        lhs.iter().chain(rhs.iter()).cloned().collect()
    };
    let mut keep = vec![true; dim_tables.len()];
    for i in 0..dim_tables.len() {
        for j in 0..dim_tables.len() {
            if i != j && keep[i] && keep[j] {
                let a = col_set(&dim_tables[i].0, &dim_tables[i].1);
                let b = col_set(&dim_tables[j].0, &dim_tables[j].1);
                if a.is_subset(&b) && (a != b || i > j) {
                    keep[i] = false;
                }
            }
        }
    }
    dim_tables = dim_tables
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(t, _)| t)
        .collect();

    // 4. Assemble metas: base first (T1), dimensions after (T2, T3, ...).
    let mut metas = Vec::new();
    metas.push(SchemaTableMeta {
        name: "T1".to_string(),
        implicit_pk: key.clone(),
        columns: order_columns(&base_cols, &key),
        is_base: true,
    });
    for (i, (lhs, rhs)) in dim_tables.iter().enumerate() {
        let mut columns = lhs.clone();
        columns.extend(rhs.iter().cloned());
        metas.push(SchemaTableMeta {
            name: format!("T{}", i + 2),
            implicit_pk: lhs.clone(),
            columns,
            is_base: false,
        });
    }

    // 5. Build physical tables and populate them, recording the RowID map.
    let table_names: Vec<String> = metas.iter().map(|m| m.name.clone()).collect();
    let mut rowid_map = RowIdMap::new(table_names.clone());
    let mut catalog = Catalog::new();
    // per-table: dedup map from full-tuple fingerprint → row index
    let mut dedup: Vec<HashMap<String, u32>> = vec![HashMap::new(); metas.len()];
    let mut phys: Vec<Table> = metas
        .iter()
        .map(|m| {
            let mut cols =
                vec![ColumnDef::new(ROW_ID, ColumnType::BigInt { unsigned: false }).not_null()];
            for c in &m.columns {
                let ty = wide.attr_type(c).expect("column type");
                cols.push(ColumnDef::new(c.clone(), ty));
            }
            let mut t = Table::new(m.name.clone(), cols).with_primary_key(vec![ROW_ID]);
            // secondary key on the implicit PK (helps the index-join path)
            t.keys.push(m.implicit_pk.clone());
            t
        })
        .collect();

    for wide_row in 0..wide.row_count() {
        rowid_map.push_row();
        for (ti, m) in metas.iter().enumerate() {
            let values: Vec<Value> = m
                .columns
                .iter()
                .map(|c| {
                    wide.cell(wide_row as u64, c)
                        .cloned()
                        .unwrap_or(Value::Null)
                })
                .collect();
            // data cleaning: skip fragments whose implicit PK contains NULL
            let pk_has_null = m.implicit_pk.iter().any(|k| {
                let idx = m.columns.iter().position(|c| c == k).unwrap();
                values[idx].is_null()
            });
            if pk_has_null {
                continue;
            }
            let fp = fingerprint(&values);
            let row_idx = if let Some(&existing) = dedup[ti].get(&fp) {
                existing
            } else {
                let idx = phys[ti].row_count() as u32;
                let mut row = Vec::with_capacity(values.len() + 1);
                row.push(Value::Int(idx as i64));
                row.extend(values);
                phys[ti].push_row(Row::new(row)).expect("row arity");
                dedup[ti].insert(fp, idx);
                idx
            };
            rowid_map.set(wide_row, &m.name, Some(row_idx));
        }
    }

    // 6. Foreign keys: a table referencing another table's single-column
    //    implicit PK gets an explicit FK (and a secondary key on the column).
    for i in 0..metas.len() {
        for j in 0..metas.len() {
            if i == j {
                continue;
            }
            if metas[j].implicit_pk.len() == 1 {
                let pk = &metas[j].implicit_pk[0];
                let is_own_pk = metas[i].implicit_pk == vec![pk.clone()];
                if metas[i].columns.contains(pk) && !is_own_pk {
                    phys[i].foreign_keys.push(ForeignKey {
                        columns: vec![pk.clone()],
                        ref_table: metas[j].name.clone(),
                        ref_columns: vec![pk.clone()],
                    });
                    if !phys[i].keys.iter().any(|k| k == &vec![pk.clone()]) {
                        phys[i].keys.push(vec![pk.clone()]);
                    }
                }
            }
        }
    }

    for t in phys {
        catalog.add_table(t);
    }

    // 7. Join bitmap index from the RowID map.
    let mut bitmap = JoinBitmapIndex::new(table_names, wide.row_count());
    for row in 0..wide.row_count() {
        for m in &metas {
            if rowid_map.get(row, &m.name).is_some() {
                bitmap.set(&m.name, row, true);
            }
        }
    }

    NormalizedDb {
        wide,
        fds: fds.clone(),
        metas,
        catalog,
        rowid_map,
        bitmap,
    }
}

fn order_columns(cols: &[String], pk: &[String]) -> Vec<String> {
    let mut out: Vec<String> = pk.to_vec();
    for c in cols {
        if !out.contains(c) {
            out.push(c.clone());
        }
    }
    out
}

fn fingerprint(values: &[Value]) -> String {
    let mut s = String::new();
    for v in values {
        if v.is_null() {
            s.push_str("\u{0}N");
        } else {
            s.push_str(&format!("{}:{v}", v.type_tag()));
        }
        s.push('\u{1}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdDiscoveryConfig, FdSet};
    use tqs_storage::widegen::{shopping_orders, tpch_like, ShoppingConfig, TpchLikeConfig};

    fn shopping_db() -> NormalizedDb {
        let wide = shopping_orders(&ShoppingConfig::default());
        let fds = FdSet::discover(&wide, &FdDiscoveryConfig::default());
        normalize(wide, &fds)
    }

    #[test]
    fn produces_base_plus_dimension_tables() {
        let db = shopping_db();
        assert!(db.metas.len() >= 4, "got {:?}", db.table_names());
        let base = db.meta("T1").unwrap();
        assert!(base.is_base);
        assert!(base.columns.contains(&"orderId".to_string()));
        assert!(base.columns.contains(&"goodsId".to_string()));
        assert!(base.columns.contains(&"userId".to_string()));
        // dimension tables for goodsId, goodsName and userId exist
        assert!(db.table_with_pk("goodsId").is_some());
        assert!(db.table_with_pk("goodsName").is_some());
        assert!(db.table_with_pk("userId").is_some());
        // derived attributes must not sit in the base table
        assert!(!base.columns.contains(&"goodsName".to_string()));
        assert!(!base.columns.contains(&"userName".to_string()));
    }

    #[test]
    fn dimension_tables_are_deduplicated_and_pk_unique() {
        let db = shopping_db();
        let goods = db.table_with_pk("goodsId").unwrap();
        let t = db.catalog.table(&goods.name).unwrap();
        // 24 goods in the generator config
        assert_eq!(t.row_count(), 24);
        // PK values are unique
        let idx = t.column_index("goodsId").unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &t.rows {
            assert!(seen.insert(format!("{}", r.get(idx))));
        }
    }

    #[test]
    fn every_table_has_rowid_and_catalog_metadata() {
        let db = shopping_db();
        for m in &db.metas {
            let t = db.catalog.table(&m.name).unwrap();
            assert_eq!(t.columns[0].name, ROW_ID);
            assert_eq!(t.primary_key, vec![ROW_ID.to_string()]);
            assert!(!t.keys.is_empty());
            // RowID values are dense 0..n
            for (i, r) in t.rows.iter().enumerate() {
                assert_eq!(r.get(0), &Value::Int(i as i64));
            }
        }
    }

    #[test]
    fn foreign_keys_follow_fd_structure() {
        let db = shopping_db();
        let edges = db.catalog.foreign_key_edges();
        let has = |from: &str, col: &str, to: &str| {
            edges.iter().any(|(f, c, t, _)| {
                db.meta(f).map(|m| m.is_base).unwrap_or(false) == (from == "base")
                    && c == &vec![col.to_string()]
                    && db.table_with_pk(col).map(|m| &m.name) == Some(t)
                    || (from != "base" && f == from && c == &vec![col.to_string()] && t == to)
            })
        };
        // base table references the goodsId and userId dimensions
        assert!(has("base", "goodsId", ""));
        assert!(has("base", "userId", ""));
        // goods table references the goodsName table (T3.goodsName → T4)
        let goods = db.table_with_pk("goodsId").unwrap().name.clone();
        let names = db.table_with_pk("goodsName").unwrap().name.clone();
        assert!(has(&goods, "goodsName", &names));
    }

    #[test]
    fn rowid_map_and_bitmap_are_consistent() {
        let db = shopping_db();
        assert_eq!(db.rowid_map.n_rows(), db.wide.row_count());
        for row in 0..db.wide.row_count() {
            for m in &db.metas {
                let mapped = db.rowid_map.get(row, &m.name).is_some();
                assert_eq!(mapped, db.bitmap.get(&m.name, row), "{} row {row}", m.name);
                // mapped row index is in range
                if let Some(idx) = db.rowid_map.get(row, &m.name) {
                    let t = db.catalog.table(&m.name).unwrap();
                    assert!((idx as usize) < t.row_count());
                }
            }
        }
        // clean data: every wide row maps into every table
        for m in &db.metas {
            assert_eq!(db.rowid_map.mapped_count(&m.name), db.wide.row_count());
        }
    }

    #[test]
    fn mapped_rows_carry_the_wide_values() {
        let db = shopping_db();
        let goods = db.table_with_pk("goodsId").unwrap();
        let t = db.catalog.table(&goods.name).unwrap();
        for row in 0..20 {
            let idx = db.rowid_map.get(row, &goods.name).unwrap() as usize;
            let wide_val = db.wide.cell(row as u64, "goodsId").unwrap();
            let table_val = t.cell(idx, "goodsId").unwrap();
            assert_eq!(format!("{wide_val}"), format!("{table_val}"));
        }
    }

    #[test]
    fn tpch_like_normalizes_into_multiple_dimensions() {
        let wide = tpch_like(&TpchLikeConfig {
            n_rows: 200,
            ..Default::default()
        });
        let fds = FdSet::discover(&wide, &FdDiscoveryConfig::default());
        let db = normalize(wide, &fds);
        assert!(db.metas.len() >= 4);
        assert!(db.table_with_pk("partkey").is_some());
        assert!(db.table_with_pk("suppkey").is_some());
        assert!(db.table_with_pk("custkey").is_some());
        assert!(db.table_with_pk("nationkey").is_some());
    }
}
