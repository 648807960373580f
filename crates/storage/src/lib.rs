//! # tqs-storage
//!
//! In-memory storage substrate for the TQS reproduction:
//!
//! * [`row`] — rows and bag-semantics result sets (the unit of comparison
//!   between engine output and ground truth), and [`result_tail`], the
//!   projection, grouping, aggregation, DISTINCT and LIMIT that the engines
//!   and the ground truth share.
//! * [`table`] — tables with key/foreign-key metadata and the [`table::Catalog`]
//!   loaded into each simulated DBMS.
//! * [`wide`] — the wide table `T_w` with explicit `RowID`s.
//! * [`shard`] — zero-copy row-range shard views over the wide table, the
//!   unit of data partitioning for fleet-scale hunt campaigns.
//! * [`widegen`] — synthetic wide-table generators standing in for the UCI
//!   KDD-Cup dataset and denormalized TPC-H samples used in the paper.

pub mod row;
pub mod shard;
pub mod table;
pub mod wide;
pub mod widegen;

pub use row::{result_tail, ResultSet, Row, TailError, TailRow};
pub use shard::{ShardSpec, WideTableShard};
pub use table::{Catalog, ForeignKey, Table};
pub use wide::{WideTable, ROW_ID};

#[cfg(test)]
mod proptests {
    use crate::row::{ResultSet, Row};
    use proptest::prelude::*;
    use tqs_sql::value::{Decimal, Value};

    fn arb_row(width: usize) -> impl Strategy<Value = Row> {
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                (-20i64..20).prop_map(Value::Int),
                "[a-c]{0,3}".prop_map(Value::Varchar),
            ],
            width,
        )
        .prop_map(Row::new)
    }

    /// Cell `pick` of a column of type `kind`: small pools, so that rows
    /// repeat, and in every pool the spellings the comparison must equate
    /// (`1.50`/`1.5`, `7`/`7u`, `'Tom'`/`'tom '`, `0.0`/`-0.0`, NaN/NaN,
    /// `'12abc'`/`12`, 2⁵³+1 against the double 2⁵³) beside ones it must
    /// not (`NULL`/`''`, `'12abc'`/`'12'`, 2⁵³+1/2⁵³ as integers).
    fn typed_cell(kind: u8, pick: u8) -> Value {
        const BIG: i64 = 1 << 53;
        let pool: &[Value] = &match kind {
            0 => vec![
                Value::Int(7),
                Value::UInt(7),
                Value::Bool(true),
                Value::Int(1),
                Value::Int(-7),
                Value::Date(7),
            ],
            1 => vec![
                Value::str("Tom"),
                Value::text("tom "),
                Value::str(""),
                Value::text(" "),
                Value::str("Tim"),
            ],
            2 => vec![
                Value::Double(0.0),
                Value::Double(-0.0),
                Value::Double(f64::NAN),
                Value::Float(f32::NAN),
                Value::Float(1.5),
                Value::Double(1.5),
                Value::Double(1.25),
            ],
            3 => vec![
                Value::Decimal(Decimal::new(150, 2)),
                Value::Decimal(Decimal::new(15, 1)),
                Value::Decimal(Decimal::new(151, 2)),
                Value::Decimal(Decimal::new(7, 0)),
                Value::Int(7),
                Value::Double(1.5),
            ],
            4 => vec![
                Value::str("12abc"),
                Value::Int(12),
                Value::str("12"),
                Value::Double(12.0),
                Value::str("abc"),
                Value::Bool(false),
            ],
            5 => vec![
                Value::Int(BIG + 1),
                Value::Int(BIG),
                Value::UInt(BIG as u64 + 1),
                Value::Double(BIG as f64),
                Value::Decimal(Decimal::new(BIG as i128 + 1, 0)),
            ],
            // Fractional decimals beyond what a double resolves.
            _ => vec![
                Value::Decimal(Decimal::new((BIG as i128 + 1) * 10, 1)),
                Value::Decimal(Decimal::new(BIG as i128 + 1, 0)),
                Value::Decimal(Decimal::new((BIG as i128 + 1) * 10 + 1, 1)),
                Value::Double(BIG as f64),
                Value::str("Tom"),
            ],
        };
        match pick as usize {
            0 => Value::Null,
            n => pool[n % pool.len()].clone(),
        }
    }

    const KINDS: u8 = 7;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The digest-chain judge returns the verdict of the scan it
        /// replaced — on equal bags, on bags one edit apart, either way
        /// round, in both modes.
        #[test]
        fn judge_agrees_with_the_scan_reference(
            kinds in proptest::collection::vec(0u8..KINDS, 1..4),
            picks in proptest::collection::vec(proptest::collection::vec(0u8..32, 3), 0..10),
            shuffle in any::<u64>(),
            edit in 0u8..6,
            at in any::<usize>(),
            col in any::<usize>(),
            pick in 0u8..32,
        ) {
            let row = |picks: &[u8]| {
                Row::new(kinds.iter().zip(picks).map(|(k, p)| typed_cell(*k, *p)).collect())
            };
            let a: Vec<Row> = picks.iter().map(|p| row(p)).collect();
            let mut b = a.clone();
            if !b.is_empty() {
                // A permutation: repeated swaps driven by `shuffle`.
                let n = b.len();
                for i in 0..n {
                    b.swap(i, (shuffle >> (i * 5)) as usize % n);
                }
                let at = at % n;
                match edit {
                    0 => {}
                    1 => drop(b.remove(at)),
                    2 => b.push(b[at].clone()),
                    3 => b[at].values[col % kinds.len()] = typed_cell(kinds[col % kinds.len()], pick),
                    4 => b[at].values.push(Value::Null),
                    _ => b[at] = row(&[pick, pick / 2, pick / 3]),
                }
            }
            let (a, b) = (ResultSet { columns: vec![], rows: a }, ResultSet { columns: vec![], rows: b });
            for (x, y) in [(&a, &b), (&b, &a)] {
                let embeds = x.embeds_in_by_scan(y);
                prop_assert_eq!(x.same_bag(y), x.rows.len() == y.rows.len() && embeds);
                prop_assert_eq!(x.subset_of(y), x.rows.len() <= y.rows.len() && embeds);
            }
        }
    }

    proptest! {
        /// Bag equality is invariant under permutation of rows.
        #[test]
        fn same_bag_is_order_insensitive(rows in proptest::collection::vec(arb_row(2), 0..8)) {
            let a = ResultSet { columns: vec!["x".into(), "y".into()], rows: rows.clone() };
            let mut shuffled = rows.clone();
            shuffled.reverse();
            let b = ResultSet { columns: vec!["x".into(), "y".into()], rows: shuffled };
            prop_assert!(a.same_bag(&b));
            prop_assert!(b.same_bag(&a));
        }

        /// Every bag is a subset of itself, and dropping a row keeps it a subset.
        #[test]
        fn subset_of_is_reflexive_and_monotone(rows in proptest::collection::vec(arb_row(2), 1..8)) {
            let full = ResultSet { columns: vec!["x".into(), "y".into()], rows: rows.clone() };
            prop_assert!(full.subset_of(&full));
            let mut fewer = rows;
            fewer.pop();
            let small = ResultSet { columns: vec!["x".into(), "y".into()], rows: fewer };
            prop_assert!(small.subset_of(&full));
        }
    }
}
