//! Row-range shard views over the wide table.
//!
//! A long-running hunt campaign partitions the wide table `T_w` into
//! contiguous row ranges and hands every worker one partition instead of a
//! copy of the whole catalog. A [`WideTableShard`] is a zero-copy view: it
//! holds the full table behind an [`Arc`] plus the row range it covers, and
//! only materializes its slice (with re-densified `RowID`s) when the DSG
//! normalization pipeline actually needs an owned table.

use crate::row::Row;
use crate::wide::WideTable;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use tqs_sql::value::Value;

/// Which of `count` contiguous row-range shards a view covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the table is split into (≥ 1).
    pub count: usize,
}

impl ShardSpec {
    /// The whole table as a single shard.
    pub fn whole() -> ShardSpec {
        ShardSpec { index: 0, count: 1 }
    }

    /// All `count` shard specs, in order.
    pub fn split(count: usize) -> Vec<ShardSpec> {
        let count = count.max(1);
        (0..count).map(|index| ShardSpec { index, count }).collect()
    }

    /// The contiguous row range this shard covers in a table of `total`
    /// rows. Ranges partition `0..total`: the first `total % count` shards
    /// take one extra row, so sizes differ by at most one.
    pub fn row_range(&self, total: usize) -> Range<usize> {
        assert!(self.count >= 1 && self.index < self.count, "{self:?}");
        let base = total / self.count;
        let extra = total % self.count;
        let lo = self.index * base + self.index.min(extra);
        let hi = lo + base + usize::from(self.index < extra);
        lo..hi
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}/{}", self.index, self.count)
    }
}

/// A zero-copy row-range view over a shared [`WideTable`].
#[derive(Debug, Clone)]
pub struct WideTableShard {
    wide: Arc<WideTable>,
    spec: ShardSpec,
    range: Range<usize>,
}

impl WideTableShard {
    /// View `spec`'s row range of `wide`. No rows are copied.
    pub fn view(wide: Arc<WideTable>, spec: ShardSpec) -> WideTableShard {
        let range = spec.row_range(wide.row_count());
        WideTableShard { wide, spec, range }
    }

    /// All shards of `wide`, sharing the same underlying storage.
    pub fn split(wide: Arc<WideTable>, count: usize) -> Vec<WideTableShard> {
        ShardSpec::split(count)
            .into_iter()
            .map(|spec| WideTableShard::view(Arc::clone(&wide), spec))
            .collect()
    }

    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The shared full table this shard views.
    pub fn wide(&self) -> &Arc<WideTable> {
        &self.wide
    }

    /// The covered row range (indices into the full table).
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    pub fn row_count(&self) -> usize {
        self.range.len()
    }

    /// The covered rows, borrowed from the shared storage.
    pub fn rows(&self) -> &[Row] {
        &self.wide.table.rows[self.range.clone()]
    }

    /// Attribute values of the shard-local row `i` (RowID stripped).
    pub fn attrs_of(&self, i: usize) -> Option<Vec<Value>> {
        if i >= self.range.len() {
            return None;
        }
        self.wide.attrs_of((self.range.start + i) as u64)
    }

    /// Materialize this shard as an owned [`WideTable`] with dense `RowID`s
    /// `0..row_count` — the shape the DSG normalization pipeline expects.
    /// This is the one place a shard copies rows, and it copies only its own
    /// partition.
    pub fn materialize(&self) -> WideTable {
        let mut out = WideTable::new(
            self.wide.table.name.clone(),
            self.wide.attr_columns().to_vec(),
        );
        for row in self.rows() {
            out.append(row.values[1..].to_vec())
                .expect("shard rows match the wide schema");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wide::ROW_ID;
    use tqs_sql::types::{ColumnDef, ColumnType};

    fn wide(n: usize) -> Arc<WideTable> {
        let mut w = WideTable::new(
            "Tw",
            vec![ColumnDef::new("v", ColumnType::Int { unsigned: false })],
        );
        for i in 0..n {
            w.append(vec![Value::Int(i as i64)]).unwrap();
        }
        Arc::new(w)
    }

    #[test]
    fn ranges_partition_the_table() {
        for total in [0usize, 1, 7, 10, 23] {
            for count in [1usize, 2, 3, 5] {
                let mut covered = 0;
                let mut next = 0;
                for spec in ShardSpec::split(count) {
                    let r = spec.row_range(total);
                    assert_eq!(r.start, next, "shards must be contiguous");
                    next = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total);
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = ShardSpec::split(3)
            .into_iter()
            .map(|s| s.row_range(10).len())
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn views_share_storage_and_cover_disjoint_rows() {
        let w = wide(10);
        let shards = WideTableShard::split(Arc::clone(&w), 3);
        assert_eq!(shards.len(), 3);
        for s in &shards {
            assert!(Arc::ptr_eq(s.wide(), &w), "views must be zero-copy");
        }
        let total: usize = shards.iter().map(|s| s.row_count()).sum();
        assert_eq!(total, 10);
        assert_eq!(shards[1].attrs_of(0), Some(vec![Value::Int(4)]));
        assert_eq!(shards[1].attrs_of(99), None);
    }

    #[test]
    fn materialize_redensifies_rowids() {
        let w = wide(7);
        let shard = WideTableShard::view(w, ShardSpec { index: 1, count: 2 });
        let owned = shard.materialize();
        assert_eq!(owned.row_count(), 3);
        // RowIDs restart at 0; the attribute values are the tail rows.
        assert_eq!(owned.cell(0, ROW_ID), Some(&Value::Int(0)));
        assert_eq!(owned.attrs_of(0), Some(vec![Value::Int(4)]));
        assert_eq!(owned.attrs_of(2), Some(vec![Value::Int(6)]));
    }

    #[test]
    fn whole_table_is_one_shard() {
        let w = wide(5);
        let shard = WideTableShard::view(Arc::clone(&w), ShardSpec::whole());
        assert_eq!(shard.row_count(), 5);
        assert_eq!(format!("{}", shard.spec()), "shard 0/1");
    }
}
