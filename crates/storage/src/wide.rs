//! The wide table (`T_w` in the paper).
//!
//! DSG treats the whole test dataset as one wide table, splits it into a
//! normalized schema, and later recovers ground-truth join results by mapping
//! join bitmaps back onto this table. Every row carries an explicit `RowID`;
//! noise synchronization appends rows and NULLs-out cells per §3.2.

use crate::row::Row;
use crate::table::Table;
use tqs_sql::types::{ColumnDef, ColumnType};
use tqs_sql::value::Value;

/// Name of the explicit row-identifier column maintained everywhere.
pub const ROW_ID: &str = "RowID";

/// A wide table: a [`Table`] whose first column is the explicit `RowID`.
#[derive(Debug, Clone)]
pub struct WideTable {
    pub table: Table,
}

impl WideTable {
    /// Create an empty wide table with the given attribute columns
    /// (a `RowID` column is prepended automatically).
    pub fn new(name: impl Into<String>, attrs: Vec<ColumnDef>) -> Self {
        let mut columns =
            vec![ColumnDef::new(ROW_ID, ColumnType::BigInt { unsigned: false }).not_null()];
        columns.extend(attrs);
        let table = Table::new(name, columns).with_primary_key(vec![ROW_ID]);
        WideTable { table }
    }

    /// Attribute columns, excluding `RowID`.
    pub fn attr_columns(&self) -> &[ColumnDef] {
        &self.table.columns[1..]
    }

    pub fn attr_names(&self) -> Vec<String> {
        self.attr_columns().iter().map(|c| c.name.clone()).collect()
    }

    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Append a row of attribute values; returns the assigned RowID.
    pub fn append(&mut self, attrs: Vec<Value>) -> Result<u64, String> {
        let rid = self.table.row_count() as u64;
        let mut values = Vec::with_capacity(attrs.len() + 1);
        values.push(Value::Int(rid as i64));
        values.extend(attrs);
        self.table.push_row(Row::new(values))?;
        Ok(rid)
    }

    /// Attribute values of a row (RowID stripped).
    pub fn attrs_of(&self, row_id: u64) -> Option<Vec<Value>> {
        self.table
            .rows
            .get(row_id as usize)
            .map(|r| r.values[1..].to_vec())
    }

    /// Value of one attribute cell.
    pub fn cell(&self, row_id: u64, col: &str) -> Option<&Value> {
        self.table.cell(row_id as usize, col)
    }

    pub fn set_cell(&mut self, row_id: u64, col: &str, v: Value) -> Result<(), String> {
        self.table.set_cell(row_id as usize, col, v)
    }

    /// Column index of an attribute within the *attribute* list (RowID
    /// excluded), used by FD discovery which never looks at RowID.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attr_columns()
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn attr_type(&self, name: &str) -> Option<ColumnType> {
        self.attr_index(name).map(|i| self.attr_columns()[i].ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide() -> WideTable {
        let mut w = WideTable::new(
            "Tw",
            vec![
                ColumnDef::new("orderId", ColumnType::Varchar(10)),
                ColumnDef::new("goodsId", ColumnType::Int { unsigned: false }),
                ColumnDef::new("price", ColumnType::Int { unsigned: false }),
            ],
        );
        w.append(vec![Value::str("0001"), Value::Int(1111), Value::Int(15)])
            .unwrap();
        w.append(vec![Value::str("0001"), Value::Int(1112), Value::Int(5)])
            .unwrap();
        w
    }

    #[test]
    fn rowids_are_dense_and_sequential() {
        let mut w = wide();
        assert_eq!(w.row_count(), 2);
        let rid = w
            .append(vec![Value::str("0002"), Value::Int(1111), Value::Int(15)])
            .unwrap();
        assert_eq!(rid, 2);
        assert_eq!(w.cell(2, ROW_ID), Some(&Value::Int(2)));
    }

    #[test]
    fn attr_accessors_skip_rowid() {
        let w = wide();
        assert_eq!(w.attr_names(), vec!["orderId", "goodsId", "price"]);
        assert_eq!(w.attr_index("goodsId"), Some(1));
        assert_eq!(
            w.attrs_of(0),
            Some(vec![Value::str("0001"), Value::Int(1111), Value::Int(15)])
        );
        assert_eq!(w.attrs_of(99), None);
    }

    #[test]
    fn cell_mutation_for_noise_sync() {
        let mut w = wide();
        w.set_cell(0, "price", Value::Null).unwrap();
        assert_eq!(w.cell(0, "price"), Some(&Value::Null));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut w = wide();
        assert!(w.append(vec![Value::str("x")]).is_err());
    }
}
