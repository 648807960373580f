//! In-memory tables, keys and the catalog handed to the simulated engine.

use crate::row::Row;
use std::collections::HashMap;
use std::sync::Arc;
use tqs_sql::types::ColumnDef;
use tqs_sql::value::Value;

/// A declared foreign key: `columns` of this table reference `ref_columns`
/// of `ref_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub ref_table: String,
    pub ref_columns: Vec<String>,
}

/// An in-memory table with schema metadata used by the optimizer
/// (primary key, secondary keys, foreign keys).
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Explicit primary key column names (possibly composite).
    pub primary_key: Vec<String>,
    /// Secondary (non-unique) key column names, one entry per index.
    pub keys: Vec<Vec<String>>,
    pub foreign_keys: Vec<ForeignKey>,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        Table {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
            keys: Vec::new(),
            foreign_keys: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn with_primary_key(mut self, cols: Vec<&str>) -> Self {
        self.primary_key = cols.into_iter().map(String::from).collect();
        self
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Push a row, checking arity and (loosely) type compatibility.
    pub fn push_row(&mut self, row: Row) -> Result<(), String> {
        if row.len() != self.columns.len() {
            return Err(format!(
                "table {}: row arity {} != column count {}",
                self.name,
                row.len(),
                self.columns.len()
            ));
        }
        for (v, c) in row.values.iter().zip(&self.columns) {
            if !c.ty.admits(v) {
                return Err(format!(
                    "table {}: value {v} not admitted by column {} ({})",
                    self.name, c.name, c.ty
                ));
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Cell accessor by (row, column name).
    pub fn cell(&self, row: usize, col: &str) -> Option<&Value> {
        let idx = self.column_index(col)?;
        self.rows.get(row).map(|r| r.get(idx))
    }

    /// Set a cell (used by noise injection).
    pub fn set_cell(&mut self, row: usize, col: &str, v: Value) -> Result<(), String> {
        let idx = self
            .column_index(col)
            .ok_or_else(|| format!("unknown column {col} in {}", self.name))?;
        let r = self
            .rows
            .get_mut(row)
            .ok_or_else(|| format!("row {row} out of range in {}", self.name))?;
        r.values[idx] = v;
        Ok(())
    }

    /// Whether any declared key (primary or secondary) starts with `col`,
    /// i.e. an index lookup join on that column is possible.
    pub fn has_key_on(&self, col: &str) -> bool {
        self.primary_key
            .first()
            .map(|c| c.eq_ignore_ascii_case(col))
            .unwrap_or(false)
            || self.keys.iter().any(|k| {
                k.first()
                    .map(|c| c.eq_ignore_ascii_case(col))
                    .unwrap_or(false)
            })
    }

    /// Render a MySQL-style `CREATE TABLE`, as shown in the paper's listings.
    pub fn create_table_sql(&self) -> String {
        let mut parts: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                format!(
                    "  {} {}{}",
                    c.name,
                    c.ty,
                    if c.nullable { "" } else { " NOT NULL" }
                )
            })
            .collect();
        if !self.primary_key.is_empty() {
            parts.push(format!("  PRIMARY KEY ({})", self.primary_key.join(", ")));
        }
        for (i, k) in self.keys.iter().enumerate() {
            parts.push(format!("  KEY {}_k{} ({})", self.name, i, k.join(", ")));
        }
        for (i, fk) in self.foreign_keys.iter().enumerate() {
            parts.push(format!(
                "  CONSTRAINT {}_ibfk_{} FOREIGN KEY ({}) REFERENCES {} ({})",
                self.name,
                i + 1,
                fk.columns.join(", "),
                fk.ref_table,
                fk.ref_columns.join(", ")
            ));
        }
        format!("CREATE TABLE {} (\n{}\n);", self.name, parts.join(",\n"))
    }
}

/// A named collection of tables — the testing database produced by DSG and
/// loaded into each simulated DBMS.
///
/// Tables are held behind [`Arc`], so cloning a catalog — which every worker
/// replica in a hunt does when it loads the testing database into its backend
/// — shares the (read-only) row storage instead of duplicating it. Mutation
/// through [`table_mut`](Catalog::table_mut) stays possible via copy-on-write
/// (`Arc::make_mut`): noise injection runs before the catalog is shared and
/// pays nothing; a hypothetical post-share writer pays for its own copy.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    /// Insertion order, so schema graphs and dumps are deterministic.
    order: Vec<String>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    pub fn add_table(&mut self, table: Table) {
        self.add_shared_table(Arc::new(table));
    }

    /// Insert an already-shared table without copying its rows (shard views
    /// and worker replicas hand catalogs around this way).
    pub(crate) fn add_shared_table(&mut self, table: Arc<Table>) {
        let key = table.name.to_lowercase();
        if !self.tables.contains_key(&key) {
            self.order.push(table.name.clone());
        }
        self.tables.insert(key, table);
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_lowercase()).map(Arc::as_ref)
    }

    /// The shared handle of a table.
    #[cfg(test)]
    fn shared_table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(&name.to_lowercase()).cloned()
    }

    /// Copy-on-write mutable access: cheap while the table is unshared,
    /// clones the row storage the first time a *shared* table is mutated.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_lowercase()).map(Arc::make_mut)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.order.clone()
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.order
            .iter()
            .filter_map(|n| self.tables.get(&n.to_lowercase()).map(Arc::as_ref))
    }

    /// All declared foreign-key relationships as
    /// `(from_table, from_cols, to_table, to_cols)`.
    pub fn foreign_key_edges(&self) -> Vec<(String, Vec<String>, String, Vec<String>)> {
        let mut out = Vec::new();
        for t in self.iter() {
            for fk in &t.foreign_keys {
                out.push((
                    t.name.clone(),
                    fk.columns.clone(),
                    fk.ref_table.clone(),
                    fk.ref_columns.clone(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::types::ColumnType;

    fn goods_table() -> Table {
        let mut t = Table::new(
            "T3",
            vec![
                ColumnDef::new("RowID", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("goodsId", ColumnType::Int { unsigned: false }),
                ColumnDef::new("goodsName", ColumnType::Varchar(100)),
            ],
        )
        .with_primary_key(vec!["RowID"]);
        t.keys.push(vec!["goodsId".into()]);
        t.push_row(Row::new(vec![
            Value::Int(0),
            Value::Int(1111),
            Value::str("book"),
        ]))
        .unwrap();
        t.push_row(Row::new(vec![
            Value::Int(1),
            Value::Int(1112),
            Value::str("food"),
        ]))
        .unwrap();
        t
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = goods_table();
        assert_eq!(t.column_index("GOODSNAME"), Some(2));
        assert!(t.column_index("missing").is_none());
    }

    #[test]
    fn push_row_validates_arity_and_types() {
        let mut t = goods_table();
        assert!(t.push_row(Row::new(vec![Value::Int(9)])).is_err());
        assert!(t
            .push_row(Row::new(vec![
                Value::Int(2),
                Value::str("oops"),
                Value::str("x")
            ]))
            .is_err());
        assert!(t
            .push_row(Row::new(vec![Value::Int(2), Value::Null, Value::Null]))
            .is_ok());
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn cell_get_set() {
        let mut t = goods_table();
        assert_eq!(t.cell(0, "goodsName"), Some(&Value::str("book")));
        t.set_cell(0, "goodsName", Value::Null).unwrap();
        assert_eq!(t.cell(0, "goodsName"), Some(&Value::Null));
        assert!(t.set_cell(0, "nope", Value::Null).is_err());
        assert!(t.set_cell(99, "goodsName", Value::Null).is_err());
    }

    #[test]
    fn key_metadata() {
        let t = goods_table();
        assert!(t.has_key_on("rowid"));
        assert!(t.has_key_on("goodsId"));
        assert!(!t.has_key_on("goodsName"));
    }

    #[test]
    fn create_table_sql_includes_keys_and_fks() {
        let mut t = goods_table();
        t.foreign_keys.push(ForeignKey {
            columns: vec!["goodsName".into()],
            ref_table: "T4".into(),
            ref_columns: vec!["goodsName".into()],
        });
        let sql = t.create_table_sql();
        assert!(sql.starts_with("CREATE TABLE T3 ("));
        assert!(sql.contains("PRIMARY KEY (RowID)"));
        assert!(sql.contains("FOREIGN KEY (goodsName) REFERENCES T4 (goodsName)"));
    }

    #[test]
    fn catalog_round_trip_and_fk_edges() {
        let mut cat = Catalog::new();
        cat.add_table(goods_table());
        let mut t4 = Table::new(
            "T4",
            vec![
                ColumnDef::new("RowID", ColumnType::BigInt { unsigned: false }),
                ColumnDef::new("goodsName", ColumnType::Varchar(100)),
            ],
        );
        t4.foreign_keys.push(ForeignKey {
            columns: vec!["goodsName".into()],
            ref_table: "T3".into(),
            ref_columns: vec!["goodsName".into()],
        });
        cat.add_table(t4);
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.table_names(), vec!["T3".to_string(), "T4".to_string()]);
        assert!(cat.table("t3").is_some());
        assert_eq!(cat.foreign_key_edges().len(), 1);
    }

    #[test]
    fn catalog_clone_shares_row_storage() {
        let mut cat = Catalog::new();
        cat.add_table(goods_table());
        let replica = cat.clone();
        let a = cat.shared_table("T3").unwrap();
        let b = replica.shared_table("T3").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "worker replicas must not copy rows");
    }

    #[test]
    fn table_mut_copies_on_write_without_touching_replicas() {
        let mut cat = Catalog::new();
        cat.add_table(goods_table());
        let replica = cat.clone();
        cat.table_mut("T3")
            .unwrap()
            .set_cell(0, "goodsName", Value::Null)
            .unwrap();
        assert_eq!(
            cat.table("T3").unwrap().cell(0, "goodsName"),
            Some(&Value::Null)
        );
        assert_eq!(
            replica.table("T3").unwrap().cell(0, "goodsName"),
            Some(&Value::str("book")),
            "copy-on-write must leave shared replicas unchanged"
        );
    }
}
