//! Property tests pinning the binary [`KeyBuf`] join/group-key encoding
//! against the PR-4 string encoding it replaced.
//!
//! The legacy `"I:{i}|"` / `"F:{f}|"` / `"S:{s}|"` text encoder (and its
//! fault segments `"S:|"`, `"F:0|"`, `"D:{double}|"`) is kept here, in test
//! code only, as the executable reference: the binary encoding must agree
//! with it on every match/no-match decision — including NULL keys and every
//! fault-triggered path — while additionally being *injective*, which the
//! text encoding was not (a `'|'` inside a string value could shift segment
//! boundaries).

use proptest::prelude::*;
use tqs_engine::exec::execute_join;
use tqs_engine::{ExecContext, FaultKind, FaultSet, JoinAlgo, PhysicalJoin, Rel};
use tqs_sql::ast::{Expr, JoinType};
use tqs_sql::value::{hash_key, sql_compare, Decimal, HashKey, KeyBuf, SqlCmp, Value};

// ---------------------------------------------------------------------------
// The legacy (PR-4) string encoding — reference implementation
// ---------------------------------------------------------------------------

fn legacy_canonical(v: &Value) -> String {
    match hash_key(v) {
        HashKey::Null => "N:".to_string(),
        HashKey::Int(i) => format!("I:{i}"),
        HashKey::Double(b) => format!("F:{}", f64::from_bits(b)),
        HashKey::Str(s) => format!("S:{s}"),
    }
}

/// Which key faults are active for the join under test (enabled in the
/// fault set *and* triggered by the execution path).
#[derive(Clone, Copy, Default)]
struct ActiveFaults {
    null_matches_empty: bool,
    float_precision: bool,
    varchar_via_double: bool,
    zero_split: bool,
}

fn legacy_is_boundary_like(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i >= 32_767 || *i <= -32_767,
        Value::UInt(u) => *u >= 32_767,
        Value::Varchar(s) | Value::Text(s) => {
            s.len() >= 8 && s.chars().all(|c| c == s.chars().next().unwrap())
        }
        Value::Float(f) => f.is_sign_negative() && *f == 0.0,
        Value::Double(f) => f.is_sign_negative() && *f == 0.0,
        _ => false,
    }
}

/// The PR-4 `encode_key`, verbatim semantics: `None` = never matches.
fn legacy_encode(values: &[&Value], f: ActiveFaults) -> Option<String> {
    let mut out = String::new();
    for v in values {
        if v.is_null() {
            if f.null_matches_empty {
                out.push_str("S:|");
                continue;
            }
            if f.float_precision {
                out.push_str("F:0|");
                continue;
            }
            return None;
        }
        if f.zero_split && legacy_is_boundary_like(v) {
            return None;
        }
        if f.varchar_via_double {
            if let Some(s) = v.as_str() {
                if s.len() > 8 {
                    out.push_str(&format!("D:{}|", v.as_f64_lossy().unwrap_or(0.0)));
                    continue;
                }
            }
        }
        if f.float_precision {
            if let Some(fl) = v.as_f64_lossy() {
                if v.as_str().is_none() {
                    let rounded = fl as f32 as f64;
                    out.push_str(&format!("F:{rounded}|"));
                    continue;
                }
            }
        }
        out.push_str(&legacy_canonical(v));
        out.push('|');
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Value generator
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        Just(Value::Int(32_767)),
        Just(Value::Int(-32_768)),
        any::<bool>().prop_map(Value::Bool),
        (-64i64..64).prop_map(|i| Value::Double(i as f64 / 8.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(0.1)),
        Just(Value::Double(1e-40)),
        (-64i64..64).prop_map(|i| Value::Float(i as f32 / 4.0)),
        Just(Value::Float(-0.0)),
        (-500i64..500).prop_map(|m| Value::Decimal(Decimal::new(m as i128, 2))),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Varchar),
        Just(Value::str("aaaaaaaa")),
        Just(Value::str("123456789x")),
        // Word-final Greek sigma: char-wise case folding must agree across
        // collate_cmp, hash_key and the binary encoder.
        Just(Value::str("AΣ")),
        Just(Value::str("Aσ")),
        Just(Value::str("aς")),
        "[a-z]{9,11}".prop_map(Value::Text),
        any::<i16>().prop_map(|d| Value::Date(d as i32)),
    ]
}

fn canonical_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| hash_key(x) == hash_key(y))
}

fn encode_canonical(vs: &[Value]) -> KeyBuf {
    let mut k = KeyBuf::new();
    for v in vs {
        k.push_canonical(v);
    }
    k
}

fn group_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.type_tag() == y.type_tag() && x.to_string() == y.to_string())
}

fn encode_group(vs: &[Value]) -> KeyBuf {
    let mut k = KeyBuf::new();
    for v in vs {
        k.push_group(v);
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Canonical binary keys are injective on the hash-key equivalence:
    /// equal bytes ⟺ element-wise equal `hash_key`s.
    #[test]
    fn canonical_keybuf_is_injective(
        a in proptest::collection::vec(arb_value(), 1..4),
        b in proptest::collection::vec(arb_value(), 1..4),
    ) {
        prop_assert_eq!(
            encode_canonical(&a) == encode_canonical(&b),
            canonical_equal(&a, &b)
        );
    }

    /// Group/DISTINCT binary keys are injective on the `(type_tag, Display)`
    /// equivalence the executors used to format per row.
    #[test]
    fn group_keybuf_is_injective(
        a in proptest::collection::vec(arb_value(), 1..4),
        b in proptest::collection::vec(arb_value(), 1..4),
    ) {
        prop_assert_eq!(
            encode_group(&a) == encode_group(&b),
            group_equal(&a, &b)
        );
    }

    /// Against the legacy text encoding (fault-free path): the binary key
    /// matches exactly when the legacy key matched. NULLs (`None`) never
    /// match on either side.
    #[test]
    fn canonical_matches_agree_with_legacy_text(
        a in arb_value(),
        b in arb_value(),
    ) {
        let legacy = match (
            legacy_encode(&[&a], ActiveFaults::default()),
            legacy_encode(&[&b], ActiveFaults::default()),
        ) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        let binary = !a.is_null()
            && !b.is_null()
            && encode_canonical(std::slice::from_ref(&a))
                == encode_canonical(std::slice::from_ref(&b));
        prop_assert_eq!(binary, legacy);
    }
}

/// The collision class the binary encoding *fixes*. Canonical legacy
/// segments case-fold their payload, so an embedded `"|S:"` could not fake a
/// tag — but the columnar dictionary-truncation fault emitted *raw*
/// `"S:{clip}|"` segments, where a `'|'` inside a clipped value shifts
/// segment boundaries and two different multi-column keys encode to the same
/// text. The binary form length-prefixes every string segment, so the
/// sequences stay distinct.
#[test]
fn binary_encoding_fixes_legacy_boundary_shift_collision() {
    let legacy_raw = |parts: &[&str]| parts.iter().map(|s| format!("S:{s}|")).collect::<String>();
    let binary_raw = |parts: &[&str]| {
        let mut k = KeyBuf::new();
        for p in parts {
            k.push_str_raw(p);
        }
        k
    };
    let a = ["ab|S:cd", "e"];
    let b = ["ab", "cd|S:e"];
    assert_eq!(
        legacy_raw(&a),
        legacy_raw(&b),
        "legacy raw text encoding collides across the segment boundary"
    );
    assert_ne!(
        binary_raw(&a),
        binary_raw(&b),
        "binary encoding must keep the sequences distinct"
    );
}

// ---------------------------------------------------------------------------
// Fault-path agreement, end to end through execute_join
// ---------------------------------------------------------------------------

fn rel_with_tags(keys: &[Value], binding: &str, tag_base: i64) -> Rel {
    Rel::from_rows(
        vec![
            (binding.to_string(), "k".to_string()),
            (binding.to_string(), "tag".to_string()),
        ],
        keys.iter()
            .enumerate()
            .map(|(i, k)| vec![k.clone(), Value::Int(tag_base + i as i64)])
            .collect(),
    )
}

fn join_spec(join_type: JoinType) -> PhysicalJoin {
    PhysicalJoin {
        right_binding: "r".into(),
        join_type,
        algo: JoinAlgo::HashJoin,
        simplified_from_outer: false,
        buffer_rows: None,
    }
}

fn on_clause() -> Expr {
    Expr::eq(Expr::col("l", "k"), Expr::col("r", "k"))
}

/// Reference match set from the legacy encoder: inner-join (li, ri) pairs.
fn legacy_pairs(left: &[Value], right: &[Value], f: ActiveFaults) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for (li, lk) in left.iter().enumerate() {
        for (ri, rk) in right.iter().enumerate() {
            let l = legacy_encode(&[lk], f);
            let r = legacy_encode(&[rk], f);
            if let (Some(l), Some(r)) = (l, r) {
                if l == r {
                    out.push((li as i64, 1000 + ri as i64));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Reference match set of the fault-free join: the inner-join (li, ri)
/// pairs SQL comparison holds equal (NULL keys never match).
fn sql_pairs(left: &[Value], right: &[Value]) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for (li, lk) in left.iter().enumerate() {
        for (ri, rk) in right.iter().enumerate() {
            if sql_compare(lk, rk) == SqlCmp::Ordering(std::cmp::Ordering::Equal) {
                out.push((li as i64, 1000 + ri as i64));
            }
        }
    }
    out
}

fn engine_pairs(
    left: &[Value],
    right: &[Value],
    join_type: JoinType,
    faults: FaultSet,
    materialization: bool,
) -> (Vec<(i64, i64)>, Vec<FaultKind>) {
    let l = rel_with_tags(left, "l", 0);
    let r = rel_with_tags(right, "r", 1000);
    let mut ctx = ExecContext::new(faults);
    ctx.trigger.materialization = materialization;
    let out = execute_join(
        &l,
        &r,
        &join_spec(join_type),
        Some(&on_clause()),
        None,
        &mut ctx,
    )
    .unwrap();
    let mut pairs: Vec<(i64, i64)> = out
        .to_rows()
        .iter()
        .map(|row| {
            let lt = row[1].as_i128_exact().unwrap() as i64;
            let rt = row
                .get(3)
                .and_then(|v| v.as_i128_exact())
                .map(|v| v as i64)
                .unwrap_or(-1);
            (lt, rt)
        })
        .collect();
    pairs.sort_unstable();
    let mut fired = ctx.fired;
    fired.sort();
    (pairs, fired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Inner hash joins under every key fault match exactly the rows the
    /// legacy string encoding matched: NULL≍'' under
    /// `HashJoinNullMatchesEmpty`, boundary keys vanishing under
    /// `HashJoinMaterializationZeroSplit`, and long varchar keys colliding
    /// through the lossy double route under `HashJoinVarcharViaDouble`.
    /// With no fault they match exactly the pairs SQL comparison holds
    /// equal, mixed types included (`1 = '1'`), which the canonical key
    /// alone cannot decide; `canonical_matches_agree_with_legacy_text` pins
    /// that key against the legacy one.
    #[test]
    fn hash_join_fault_paths_match_legacy(
        left in proptest::collection::vec(arb_value(), 1..8),
        right in proptest::collection::vec(arb_value(), 1..8),
        which in 0usize..4,
    ) {
        let (faults, active) = match which {
            0 => (FaultSet::none(), ActiveFaults::default()),
            1 => (
                FaultSet::of(&[FaultKind::HashJoinNullMatchesEmpty]),
                ActiveFaults { null_matches_empty: true, ..Default::default() },
            ),
            2 => (
                FaultSet::of(&[FaultKind::HashJoinMaterializationZeroSplit]),
                ActiveFaults { zero_split: true, ..Default::default() },
            ),
            _ => (
                FaultSet::of(&[FaultKind::HashJoinVarcharViaDouble]),
                ActiveFaults { varchar_via_double: true, ..Default::default() },
            ),
        };
        let (pairs, _) = engine_pairs(&left, &right, JoinType::Inner, faults, true);
        let reference = match which {
            0 => sql_pairs(&left, &right),
            _ => legacy_pairs(&left, &right, active),
        };
        prop_assert_eq!(pairs, reference);
    }

    /// The semi-join float-precision fault (NULL≍values rounding to +0 after
    /// the f32 round-trip) keeps exactly the legacy-matched left rows.
    #[test]
    fn semi_join_float_precision_matches_legacy(
        left in proptest::collection::vec(arb_value(), 1..8),
        right in proptest::collection::vec(arb_value(), 1..8),
    ) {
        let active = ActiveFaults { float_precision: true, ..Default::default() };
        // materialization=false triggers SemiJoinFloatPrecision on Semi.
        let (pairs, _) = engine_pairs(
            &left,
            &right,
            JoinType::Semi,
            FaultSet::of(&[FaultKind::SemiJoinFloatPrecision]),
            false,
        );
        let engine_lis: Vec<i64> = pairs.into_iter().map(|(li, _)| li).collect();
        let mut legacy_lis: Vec<i64> = legacy_pairs(&left, &right, active)
            .into_iter()
            .map(|(li, _)| li)
            .collect();
        legacy_lis.dedup();
        prop_assert_eq!(engine_lis, legacy_lis);
    }
}
