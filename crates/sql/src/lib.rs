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
    use crate::parser::{parse_dml, parse_expr, parse_stmt};
    use crate::render::{render_dml, render_expr, render_stmt};
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

    /// One character: mostly the ASCII the dialect is written in, else
    /// multi-byte text, control characters and Unicode white space.
    fn arb_char() -> impl Strategy<Value = char> {
        prop_oneof![
            "[ -~]{1}",
            "[\u{0}\t\n\u{7F}\u{85}\u{A0}\u{2003}é€ß日\u{1F600}\u{FEFF}]{1}",
        ]
        .prop_map(|s: String| s.chars().next().unwrap_or(' '))
    }

    /// Arbitrary text: SQL-shaped characters, or any scalar value at all.
    fn arb_text() -> impl Strategy<Value = String> {
        prop_oneof![
            proptest::collection::vec(arb_char(), 0..40)
                .prop_map(|cs: Vec<char>| cs.into_iter().collect::<String>()),
            proptest::collection::vec(any::<u32>(), 0..20).prop_map(|us: Vec<u32>| {
                us.into_iter()
                    .filter_map(|u| char::from_u32(u % 0x11_0000))
                    .collect::<String>()
            }),
        ]
    }

    /// Statements as the renderers write them: hints, subqueries, DML and
    /// transaction control.
    fn rendered_statements() -> Vec<String> {
        let selects = [
            "SELECT /*+ MERGE_JOIN(t1, t2) NO_SEMIJOIN() */ t1.a FROM t1 \
             LEFT OUTER JOIN t2 ON t1.a = t2.a WHERE t2.b IS NOT NULL",
            "SELECT t0.c0 FROM t0 WHERE t0.c0 IN (SELECT t0.c0 FROM t0 WHERE \
             (t0.c0 NOT IN (SELECT t0.c0 FROM t0 WHERE t0.c0)) = t0.c0)",
            "SELECT DISTINCT t1.a, COUNT(*) FROM t1 CROSS JOIN t2 WHERE \
             CAST(t1.b AS decimal(10,2)) BETWEEN -1.5 AND 2e3 GROUP BY t1.a LIMIT 3",
            "SELECT * FROM t1 WHERE NOT EXISTS (SELECT * FROM t2 WHERE t2.a <=> t1.a)",
        ];
        let dml = [
            "INSERT INTO t1 (a, b, c) VALUES (1, 'x; y', NULL), (2, 'it''s', 3.5)",
            "UPDATE t1 SET a = 2, b = 'z' WHERE t1.a = 1 AND (b IS NOT NULL)",
            "DELETE FROM t1 WHERE a IN (1, 2, 3)",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ];
        selects
            .iter()
            .map(|s| render_stmt(&parse_stmt(s).unwrap()))
            .chain(dml.iter().map(|s| render_dml(&parse_dml(s).unwrap())))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Text that no renderer wrote — arbitrary strings, and rendered
        /// statements with one character deleted, inserted or replaced —
        /// makes the parsers fail with a `ParseError` or succeed, never panic.
        #[test]
        fn the_parsers_never_panic_on_arbitrary_or_edited_text(
            text in arb_text(),
            edit in (0usize..1000, 0usize..1000, 0u8..3, arb_char()),
        ) {
            let (pick, at, edit, ch) = edit;
            let rendered = rendered_statements();
            let stmt = &rendered[pick % rendered.len()];
            let mut chars: Vec<char> = stmt.chars().collect();
            let at = at % (chars.len() + 1);
            match edit {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => chars[at] = ch,
                _ => chars.insert(at, ch),
            }
            let edited: String = chars.into_iter().collect();
            for input in [&text, &edited] {
                let parsed = std::panic::catch_unwind(|| {
                    let _ = parse_stmt(input);
                    let _ = parse_dml(input);
                });
                prop_assert!(parsed.is_ok(), "a parser panicked on {:?}", input);
            }
        }

        /// Non-ASCII string literals survive render → parse → render.
        #[test]
        fn non_ascii_literals_round_trip(text in "[a-z '€éß日本\u{A0}\u{85}\u{1F600}]{0,10}") {
            let e = crate::ast::Expr::eq(
                crate::ast::Expr::col("t1", "a"),
                crate::ast::Expr::lit(Value::Varchar(text)),
            );
            let rendered = render_expr(&e);
            prop_assert_eq!(render_expr(&parse_expr(&rendered).unwrap()), rendered);
        }
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
