//! # tqs-sql
//!
//! SQL substrate shared by every other crate in the TQS workspace:
//!
//! * [`value`] — the [`value::Value`] model with MySQL-flavoured comparison,
//!   coercion and hashing semantics (the *correct* semantics the ground truth
//!   relies on, and the semantics the fault-injection layer perturbs).
//! * [`types`] — column types, their rendered names and the boundary values
//!   used by noise injection.
//! * [`ast`] — expression and `SELECT` statement AST, covering the paper's
//!   query space (seven join types, IN/EXISTS subqueries, aggregation).
//! * [`hints`] — optimizer hints and `optimizer_switch` session switches used
//!   to force alternative physical plans.
//! * [`render`] / [`parser`] — SQL text round-tripping.
//! * [`eval`] — the reference scalar expression evaluator with SQL
//!   three-valued logic.

pub mod ast;
pub mod eval;
pub mod hints;
pub mod parser;
pub mod render;
pub mod types;
pub mod value;

pub use ast::{
    AggFunc, Assignment, BinOp, ColumnRef, DeleteStmt, DmlStmt, Expr, FromClause, InsertStmt, Join,
    JoinType, SelectItem, SelectStmt, TableRef, UnOp, UpdateStmt,
};
pub use hints::{Hint, HintSet, SemiJoinStrategy, SessionSwitch, SwitchName};
pub use types::{ColumnDef, ColumnType};
pub use value::{Decimal, Value};

/// Standard 64-bit FNV-1a over a byte string (prime `0x100000001b3`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(0x100_0000_01b3, bytes)
}

/// The hash behind every persisted fingerprint and digest: plan graphs,
/// enumerated plans, statement seeds and a campaign's DSG recipe. It is the
/// FNV-1a fold with the prime `2^48 + 0x1b3` in place of the standard
/// `0x100000001b3`. Corpora and checkpoints already hold its values, so it
/// keeps that prime; it is not `DefaultHasher`, whose output may change
/// across Rust releases.
pub fn fingerprint_hash(bytes: &[u8]) -> u64 {
    fnv1a_fold(0x1_0000_0000_01b3, bytes)
}

fn fnv1a_fold(prime: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(prime)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

#[cfg(test)]
mod proptests {
    use crate::parser::{parse_expr, parse_stmt};
    use crate::render::{render_expr, render_stmt};
    use crate::value::{hash_key, sql_compare, SqlCmp, Value};
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i32>().prop_map(|i| Value::Int(i as i64)),
            any::<bool>().prop_map(Value::Bool),
            (-1000i64..1000).prop_map(|i| Value::Double(i as f64 / 8.0)),
            "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Varchar),
        ]
    }

    /// The char-wise case fold every string key and comparison used before
    /// the ASCII fast path, kept as the reference: trailing spaces trimmed,
    /// each char through `char::to_lowercase`.
    fn reference_fold(s: &str) -> String {
        s.trim_end_matches(' ')
            .chars()
            .flat_map(char::to_lowercase)
            .collect()
    }

    /// Strings that are all ASCII, or that mix ASCII with letters whose
    /// fold is not an ASCII byte map: the Kelvin sign folds to ASCII `k`,
    /// `İ` to two chars, `ẞ` to `ß`, and `Σ` to `σ` wherever it stands.
    fn arb_collated() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-dA-DkKsSzZ ]{0,6}",
            "[kKsSzZ \u{212A}\u{130}\u{1E9E}\u{3A3}\u{3C2}\u{3C3}]{0,6}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one case fold agrees with the char-wise reference: the
        /// collation order in both directions, the string hash key and the
        /// folded key bytes.
        #[test]
        fn case_fold_matches_the_char_wise_reference(a in arb_collated(), b in arb_collated()) {
            use crate::value::{collate_cmp, HashKey, KeyBuf};
            let (fa, fb) = (reference_fold(&a), reference_fold(&b));
            prop_assert_eq!(collate_cmp(&a, &b), fa.chars().cmp(fb.chars()), "{:?} vs {:?}", a, b);
            prop_assert_eq!(collate_cmp(&b, &a), fb.chars().cmp(fa.chars()), "{:?} vs {:?}", b, a);
            prop_assert_eq!(hash_key(&Value::str(a.as_str())), HashKey::Str(fa.clone()));
            let mut key = KeyBuf::new();
            key.push_str_folded(&a);
            let mut want = vec![KeyBuf::TAG_STR];
            want.extend_from_slice(&(fa.len() as u32).to_le_bytes());
            want.extend_from_slice(fa.as_bytes());
            prop_assert_eq!(key.as_bytes(), &want[..], "{:?}", a);
        }
    }

    proptest! {
        /// Equal values (per sql_compare) must produce equal hash keys —
        /// the invariant every hash join and GROUP BY relies on. Cross-family
        /// string/number pairs are excluded: those are only comparable after
        /// the join operator coerces both sides to a common type, which is the
        /// engine's job (and where several injected faults live).
        #[test]
        fn hash_key_consistent_with_equality(a in arb_value(), b in arb_value()) {
            let same_family = a.as_str().is_some() == b.as_str().is_some();
            if same_family {
                if let SqlCmp::Ordering(std::cmp::Ordering::Equal) = sql_compare(&a, &b) {
                    prop_assert_eq!(hash_key(&a), hash_key(&b));
                }
            }
        }

        /// sql_compare is symmetric (with the ordering reversed).
        #[test]
        fn compare_is_antisymmetric(a in arb_value(), b in arb_value()) {
            match (sql_compare(&a, &b), sql_compare(&b, &a)) {
                (SqlCmp::Unknown, SqlCmp::Unknown) => {}
                (SqlCmp::Ordering(x), SqlCmp::Ordering(y)) => prop_assert_eq!(x, y.reverse()),
                other => prop_assert!(false, "asymmetric {:?}", other),
            }
        }

        /// Rendering then parsing an expression is a fixpoint after one trip.
        #[test]
        fn expr_render_parse_roundtrip(v in arb_value(), col in "[a-z]{1,6}") {
            let e = crate::ast::Expr::eq(
                crate::ast::Expr::col("t1", &col),
                crate::ast::Expr::lit(v),
            );
            let text = render_expr(&e);
            let parsed = parse_expr(&text).unwrap();
            prop_assert_eq!(render_expr(&parsed), text);
        }

        /// Statements built from random small pieces round-trip through text.
        #[test]
        fn stmt_render_parse_roundtrip(
            n_joins in 0usize..3,
            jt_idx in 0usize..7,
            with_where in any::<bool>(),
        ) {
            use crate::ast::*;
            let mut from = FromClause::single("t0");
            for i in 0..n_joins {
                let jt = JoinType::ALL[(jt_idx + i) % 7];
                from.joins.push(Join {
                    join_type: jt,
                    table: TableRef::new(format!("t{}", i + 1)),
                    on: Some(Expr::eq(
                        Expr::col("t0", "c0"),
                        Expr::col(&format!("t{}", i + 1), "c0"),
                    )),
                });
            }
            let mut q = SelectStmt::new(from);
            if with_where {
                q.where_clause = Some(Expr::eq(Expr::col("t0", "c0"), Expr::lit(Value::Int(1))));
            }
            let text = render_stmt(&q);
            let parsed = parse_stmt(&text).unwrap();
            prop_assert_eq!(render_stmt(&parsed), text);
        }
    }
}
