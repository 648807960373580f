//! Reference (correct) scalar expression evaluation with SQL three-valued
//! logic and MySQL-flavoured coercions.
//!
//! Both the ground-truth evaluator (DSG, §3.4) and the simulated engine's
//! filter/projection operators use this module. The engine's *join* operators
//! deliberately do not: they go through fault-interceptable comparators so
//! that injected optimizer bugs only affect specific physical plans.

use crate::ast::{BinOp, ColumnRef, Expr, SelectStmt, UnOp};
use crate::value::{null_safe_eq, sql_compare, KeyBuf, SqlCmp, Value};
use std::cell::{Cell, OnceCell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Errors surfaced during expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownColumn(String),
    Unsupported(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EvalError::Unsupported(m) => write!(f, "unsupported expression: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Resolves column references against the current row scope.
pub trait ColumnResolver {
    fn resolve(&self, col: &ColumnRef) -> Option<Value>;
}

/// Resolver over `(qualifier, column, value)` triples; the usual row scope.
pub struct ScopedRow<'a> {
    entries: &'a [(String, String, Value)],
}

impl<'a> ScopedRow<'a> {
    pub fn new(entries: &'a [(String, String, Value)]) -> Self {
        ScopedRow { entries }
    }
}

impl ColumnResolver for ScopedRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.entries
            .iter()
            .find(|(t, c, _)| {
                c.eq_ignore_ascii_case(&col.column)
                    && col
                        .table
                        .as_ref()
                        .map(|q| q.eq_ignore_ascii_case(t))
                        .unwrap_or(true)
            })
            .map(|(_, _, v)| v.clone())
    }
}

/// Allocation-free resolver over one row: borrowed `(qualifier, column)`
/// metadata (shared by every row of a relation) plus a borrowed value slice.
/// Replaces building an owned scope `Vec` per row — only the one matched
/// value is cloned, on resolution.
pub struct SliceRow<'a> {
    cols: &'a [(String, String)],
    values: &'a [Value],
}

impl<'a> SliceRow<'a> {
    pub fn new(cols: &'a [(String, String)], values: &'a [Value]) -> Self {
        debug_assert_eq!(cols.len(), values.len());
        SliceRow { cols, values }
    }
}

impl ColumnResolver for SliceRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.cols
            .iter()
            .zip(self.values.iter())
            .find(|((t, c), _)| {
                c.eq_ignore_ascii_case(&col.column)
                    && col
                        .table
                        .as_ref()
                        .map(|q| q.eq_ignore_ascii_case(t))
                        .unwrap_or(true)
            })
            .map(|(_, v)| v.clone())
    }
}

/// Chains an inner scope over an outer scope (correlated subqueries).
pub struct ChainedResolver<'a> {
    pub inner: &'a dyn ColumnResolver,
    pub outer: &'a dyn ColumnResolver,
}

impl ColumnResolver for ChainedResolver<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.inner.resolve(col).or_else(|| self.outer.resolve(col))
    }
}

/// Answers the subquery predicates met inside expressions. The interface is
/// verdict-shaped: `eval_expr` asks "is `probe` IN this subquery, for this
/// row" or "does this subquery return a row, for this row" and never sees
/// the subquery's value list, so an implementation can answer from a
/// [`SubqueryMemo`] without building or copying a list per outer row.
pub trait SubqueryHandler {
    /// `probe IN (stmt)` under three-valued logic ([`in_membership`]), with
    /// `outer` as the enclosing row scope for correlated references.
    fn in_subquery(
        &self,
        probe: &Value,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Option<bool>, EvalError>;

    /// `EXISTS (stmt)` in the scope of `outer`.
    fn exists(&self, stmt: &SelectStmt, outer: &dyn ColumnResolver) -> Result<bool, EvalError>;
}

/// What a memoizing [`SubqueryHandler`] supplies to its [`SubqueryMemo`]:
/// how to tell a subquery's own columns from outer ones, and the evaluation
/// itself — the miss path, where fault interception (if any) lives.
pub trait SubquerySource {
    /// Is `column` a column of the table `stmt` selects from?
    fn has_own_column(&self, stmt: &SelectStmt, column: &str) -> bool;

    /// Evaluate `stmt` for the row `outer`: the values of its single
    /// projected column.
    fn subquery_values(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError>;
}

/// Per-statement memo of subquery *verdicts*, shared by the engines'
/// `EngineSubqueries` and the ground truth's `GtSubqueries` so the two
/// cannot drift apart on what is evaluated once.
///
/// **Key.** A single-table subquery without a nested subquery is a function
/// of three things: the subquery node, the values of the outer columns it
/// reads ([`SelectStmt::outer_column_refs`]; none when uncorrelated) and —
/// for `IN` — the probe value. The memo classifies each node once, then
/// keys on the exact, type-tagged encoding of those values
/// ([`KeyBuf::push_group`]: `1`, `1.0` and `'1'` are three keys, so the
/// coercing comparison on the miss path is never second-guessed). A cross
/// join repeats every correlation value once per row of the other side, and
/// each repeat is a lookup instead of a scan of the inner table.
///
/// **Verdicts, not lists.** What is kept per key is the answer — `EXISTS`
/// → `bool`, `IN` → `Option<bool>` — because that is all `eval_expr`
/// consumes and it makes a hit free of any scan. A value list is kept only
/// for an uncorrelated subquery, where one list serves every probe; it is
/// evaluated once and shared, never cloned per row. A subquery carrying a
/// nested subquery, or whose outer reference does not resolve in the row at
/// hand, goes to the source unmemoized (a nested node is memoized on its
/// own), so errors surface exactly where they did.
///
/// **Address stability.** Nodes are identified by address. Every
/// `SelectStmt` handed to one memo must stay alive and in place until the
/// memo is dropped: evaluate through a borrow of the statement under
/// execution, never through a temporary clone whose address the next clone
/// may reuse. The memo itself must not outlive the statement execution it
/// was built for.
#[derive(Default)]
pub struct SubqueryMemo {
    nodes: RefCell<HashMap<usize, Rc<Node>>>,
    evaluations: Cell<u64>,
    memo_hits: Cell<u64>,
}

/// What the memo knows about one subquery node.
struct Node {
    /// Outer columns the subquery reads (empty: uncorrelated); `None` when
    /// it carries a nested subquery and is not memoized.
    outer: Option<Vec<ColumnRef>>,
    /// The value list of an uncorrelated `IN` subquery.
    list: OnceCell<Vec<Value>>,
    /// Verdict per encoded (outer binding, probe); `EXISTS` has no probe
    /// and stores `Some(bool)`.
    verdicts: RefCell<HashMap<KeyBuf, Option<bool>>>,
}

impl Node {
    /// The encoded values of the node's outer columns in `outer`; `None`
    /// when the node is not memoized or a reference does not resolve.
    fn binding_key(&self, outer: &dyn ColumnResolver) -> Option<KeyBuf> {
        let mut key = KeyBuf::new();
        for c in self.outer.as_ref()? {
            key.push_group(&outer.resolve(c)?);
        }
        Some(key)
    }
}

impl SubqueryMemo {
    pub fn new() -> SubqueryMemo {
        SubqueryMemo::default()
    }

    /// `(evaluations, memo_hits)` so far: how many predicates ran the
    /// subquery through the source, and how many were answered without.
    pub fn counts(&self) -> (u64, u64) {
        (self.evaluations.get(), self.memo_hits.get())
    }

    /// `probe IN (stmt)` for the row `outer`, evaluated through `src` at
    /// most once per distinct (outer binding, probe).
    pub fn in_subquery(
        &self,
        src: &dyn SubquerySource,
        probe: &Value,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Option<bool>, EvalError> {
        let node = self.node(src, stmt);
        let Some(mut key) = node.binding_key(outer) else {
            return Ok(in_membership(probe, &self.evaluate(src, stmt, outer)?));
        };
        key.push_group(probe);
        if let Some(verdict) = self.cached(&node, &key) {
            return Ok(verdict);
        }
        let correlated = node.outer.as_ref().is_some_and(|o| !o.is_empty());
        let verdict = if correlated {
            in_membership(probe, &self.evaluate(src, stmt, outer)?)
        } else {
            let list = match node.list.get() {
                Some(list) => {
                    self.memo_hits.set(self.memo_hits.get() + 1);
                    list
                }
                None => {
                    let list = self.evaluate(src, stmt, outer)?;
                    node.list.get_or_init(|| list)
                }
            };
            in_membership(probe, list)
        };
        node.verdicts.borrow_mut().insert(key, verdict);
        Ok(verdict)
    }

    /// `EXISTS (stmt)` for the row `outer`, evaluated through `src` at most
    /// once per distinct outer binding.
    pub fn exists(
        &self,
        src: &dyn SubquerySource,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<bool, EvalError> {
        let node = self.node(src, stmt);
        let Some(key) = node.binding_key(outer) else {
            return Ok(!self.evaluate(src, stmt, outer)?.is_empty());
        };
        if let Some(verdict) = self.cached(&node, &key) {
            return Ok(verdict == Some(true));
        }
        let found = !self.evaluate(src, stmt, outer)?.is_empty();
        node.verdicts.borrow_mut().insert(key, Some(found));
        Ok(found)
    }

    /// The node's record, classifying it on first sight.
    fn node(&self, src: &dyn SubquerySource, stmt: &SelectStmt) -> Rc<Node> {
        let addr = stmt as *const SelectStmt as usize;
        if let Some(node) = self.nodes.borrow().get(&addr) {
            return node.clone();
        }
        let outer = stmt
            .outer_column_refs(&|column| src.has_own_column(stmt, column))
            .map(|refs| refs.into_iter().cloned().collect());
        let node = Rc::new(Node {
            outer,
            list: OnceCell::new(),
            verdicts: RefCell::default(),
        });
        self.nodes.borrow_mut().insert(addr, node.clone());
        node
    }

    fn cached(&self, node: &Node, key: &KeyBuf) -> Option<Option<bool>> {
        let verdict = node.verdicts.borrow().get(key).copied();
        if verdict.is_some() {
            self.memo_hits.set(self.memo_hits.get() + 1);
        }
        verdict
    }

    fn evaluate(
        &self,
        src: &dyn SubquerySource,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        src.subquery_values(stmt, outer)
    }
}

/// Handler that rejects every subquery; useful for contexts where the query
/// generator guarantees none exist.
pub struct NoSubqueries;

impl SubqueryHandler for NoSubqueries {
    fn in_subquery(
        &self,
        _probe: &Value,
        _stmt: &SelectStmt,
        _outer: &dyn ColumnResolver,
    ) -> Result<Option<bool>, EvalError> {
        Err(EvalError::Unsupported("subquery in scalar context".into()))
    }

    fn exists(&self, _stmt: &SelectStmt, _outer: &dyn ColumnResolver) -> Result<bool, EvalError> {
        Err(EvalError::Unsupported("subquery in scalar context".into()))
    }
}

/// Evaluate an expression to a value (predicates evaluate to Bool or Null).
pub fn eval_expr(
    e: &Expr,
    row: &dyn ColumnResolver,
    sub: &dyn SubqueryHandler,
) -> Result<Value, EvalError> {
    match e {
        Expr::Column(c) => row
            .resolve(c)
            .ok_or_else(|| EvalError::UnknownColumn(format!("{:?}.{}", c.table, c.column))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, row, sub)?;
            let r = eval_expr(right, row, sub)?;
            Ok(eval_binary(*op, &l, &r))
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, row, sub)?;
            Ok(match op {
                UnOp::Not => match v.truthiness() {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                },
                UnOp::Neg => match v.as_f64_lossy() {
                    None => Value::Null,
                    Some(f) => match v.as_i128_exact() {
                        Some(i) => Value::Int((-i) as i64),
                        None => Value::Double(-f),
                    },
                },
            })
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row, sub)?;
            let b = v.is_null() != *negated;
            Ok(Value::Bool(b))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let lo = eval_expr(low, row, sub)?;
            let hi = eval_expr(high, row, sub)?;
            let ge = tv_compare(&v, &lo, |o| o != Ordering::Less);
            let le = tv_compare(&v, &hi, |o| o != Ordering::Greater);
            let both = tv_and(ge, le);
            Ok(tv_to_value(if *negated { tv_not(both) } else { both }))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let vals: Result<Vec<Value>, _> = list.iter().map(|e| eval_expr(e, row, sub)).collect();
            let tv = in_membership(&v, &vals?);
            Ok(tv_to_value(if *negated { tv_not(tv) } else { tv }))
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let tv = sub.in_subquery(&v, subquery, row)?;
            Ok(tv_to_value(if *negated { tv_not(tv) } else { tv }))
        }
        Expr::Exists { subquery, negated } => {
            let b = sub.exists(subquery, row)?;
            Ok(Value::Bool(b != *negated))
        }
        Expr::Cast { expr, ty } => {
            let v = eval_expr(expr, row, sub)?;
            Ok(cast_value(&v, *ty))
        }
    }
}

/// Evaluate a predicate with three-valued logic: `None` means UNKNOWN.
pub fn eval_predicate(
    e: &Expr,
    row: &dyn ColumnResolver,
    sub: &dyn SubqueryHandler,
) -> Result<Option<bool>, EvalError> {
    Ok(eval_expr(e, row, sub)?.truthiness())
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        BinOp::And => tv_to_value(tv_and(l.truthiness(), r.truthiness())),
        BinOp::Or => tv_to_value(tv_or(l.truthiness(), r.truthiness())),
        BinOp::NullSafeEq => Value::Bool(null_safe_eq(l, r)),
        BinOp::Eq => tv_to_value(tv_compare(l, r, |o| o == Ordering::Equal)),
        BinOp::Ne => tv_to_value(tv_compare(l, r, |o| o != Ordering::Equal)),
        BinOp::Lt => tv_to_value(tv_compare(l, r, |o| o == Ordering::Less)),
        BinOp::Le => tv_to_value(tv_compare(l, r, |o| o != Ordering::Greater)),
        BinOp::Gt => tv_to_value(tv_compare(l, r, |o| o == Ordering::Greater)),
        BinOp::Ge => tv_to_value(tv_compare(l, r, |o| o != Ordering::Less)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Exact integer path when both sides are integral and the op is not Div.
    if let (Some(a), Some(b)) = (l.as_i128_exact(), r.as_i128_exact()) {
        match op {
            BinOp::Add => return Value::Int((a + b) as i64),
            BinOp::Sub => return Value::Int((a - b) as i64),
            BinOp::Mul => return Value::Int(a.saturating_mul(b) as i64),
            _ => {}
        }
    }
    let (a, b) = match (l.as_f64_lossy(), r.as_f64_lossy()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Value::Null,
    };
    match op {
        BinOp::Add => Value::Double(a + b),
        BinOp::Sub => Value::Double(a - b),
        BinOp::Mul => Value::Double(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null // MySQL: division by zero yields NULL
            } else {
                Value::Double(a / b)
            }
        }
        _ => unreachable!(),
    }
}

/// Three-valued comparison helper.
fn tv_compare(l: &Value, r: &Value, pred: impl Fn(Ordering) -> bool) -> Option<bool> {
    match sql_compare(l, r) {
        SqlCmp::Unknown => None,
        SqlCmp::Ordering(o) => Some(pred(o)),
    }
}

pub(crate) fn tv_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn tv_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn tv_not(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

pub(crate) fn tv_to_value(tv: Option<bool>) -> Value {
    match tv {
        None => Value::Null,
        Some(b) => Value::Bool(b),
    }
}

/// SQL `IN` membership with correct NULL semantics:
/// TRUE if any member equals, else NULL if probe or any member is NULL,
/// else FALSE.
pub fn in_membership(probe: &Value, members: &[Value]) -> Option<bool> {
    if probe.is_null() {
        return if members.is_empty() {
            Some(false)
        } else {
            None
        };
    }
    let mut saw_null = false;
    for m in members {
        match sql_compare(probe, m) {
            SqlCmp::Unknown => saw_null = true,
            SqlCmp::Ordering(Ordering::Equal) => return Some(true),
            _ => {}
        }
    }
    if saw_null {
        None
    } else {
        Some(false)
    }
}

/// Correct CAST semantics (the faulty engine paths implement their own).
pub(crate) fn cast_value(v: &Value, ty: crate::types::ColumnType) -> Value {
    use crate::types::ColumnType as T;
    if v.is_null() {
        return Value::Null;
    }
    if ty.is_integer() {
        return match v.as_f64_lossy() {
            Some(f) => Value::Int(f.round() as i64),
            None => Value::Null,
        };
    }
    match ty {
        T::Float => Value::Float(v.as_f64_lossy().unwrap_or(0.0) as f32),
        T::Double | T::Decimal { .. } => Value::Double(v.as_f64_lossy().unwrap_or(0.0)),
        T::Varchar(_) | T::Char(_) | T::Text => Value::Varchar(match v {
            Value::Varchar(s) | Value::Text(s) => s.clone(),
            other => other.to_string(),
        }),
        T::Date => Value::Date(v.as_f64_lossy().unwrap_or(0.0) as i32),
        T::Bool => tv_to_value(v.truthiness()),
        _ => unreachable!("integer types handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn row() -> Vec<(String, String, Value)> {
        vec![
            ("t1".into(), "a".into(), Value::Int(3)),
            ("t1".into(), "b".into(), Value::Null),
            ("t1".into(), "name".into(), Value::str("Tom")),
        ]
    }

    #[test]
    fn column_resolution_qualified_and_bare() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let v = eval_expr(&Expr::col("t1", "a"), &scope, &NoSubqueries).unwrap();
        assert_eq!(v.as_i128_exact(), Some(3));
        let v = eval_expr(
            &Expr::Column(ColumnRef::bare("name")),
            &scope,
            &NoSubqueries,
        )
        .unwrap();
        assert_eq!(v.as_str(), Some("Tom"));
        assert!(eval_expr(&Expr::col("t9", "a"), &scope, &NoSubqueries).is_err());
    }

    #[test]
    fn three_valued_logic_null_propagation() {
        let r = row();
        let scope = ScopedRow::new(&r);
        // b = 1  → NULL
        let e = Expr::eq(Expr::col("t1", "b"), Expr::lit(Value::Int(1)));
        assert_eq!(eval_predicate(&e, &scope, &NoSubqueries).unwrap(), None);
        // (b = 1) OR (a = 3) → TRUE despite the NULL
        let e2 = Expr::or(
            e.clone(),
            Expr::eq(Expr::col("t1", "a"), Expr::lit(Value::Int(3))),
        );
        assert_eq!(
            eval_predicate(&e2, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        // (b = 1) AND (a = 3) → NULL
        let e3 = Expr::and(e, Expr::eq(Expr::col("t1", "a"), Expr::lit(Value::Int(3))));
        assert_eq!(eval_predicate(&e3, &scope, &NoSubqueries).unwrap(), None);
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(2), Value::Null]),
            None
        );
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(1), Value::Null]),
            Some(true)
        );
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(2), Value::Int(3)]),
            Some(false)
        );
        assert_eq!(in_membership(&Value::Null, &[Value::Int(1)]), None);
        assert_eq!(in_membership(&Value::Null, &[]), Some(false));
    }

    #[test]
    fn not_in_with_null_member_filters_everything() {
        // The classic trap exploited by the paper's Listing 1-style queries.
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::InList {
            expr: Box::new(Expr::col("t1", "a")),
            list: vec![Expr::lit(Value::Int(9)), Expr::lit(Value::Null)],
            negated: true,
        };
        assert_eq!(eval_predicate(&e, &scope, &NoSubqueries).unwrap(), None);
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::binary(BinOp::Add, Expr::col("t1", "a"), Expr::lit(Value::Int(4)));
        assert_eq!(
            eval_expr(&e, &scope, &NoSubqueries)
                .unwrap()
                .as_i128_exact(),
            Some(7)
        );
        let div0 = Expr::binary(
            BinOp::Div,
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(0)),
        );
        assert!(eval_expr(&div0, &scope, &NoSubqueries).unwrap().is_null());
    }

    #[test]
    fn null_safe_eq_and_is_null() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::binary(
            BinOp::NullSafeEq,
            Expr::col("t1", "b"),
            Expr::lit(Value::Null),
        );
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        let e = Expr::is_null(Expr::col("t1", "b"));
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn between_and_cast() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::Between {
            expr: Box::new(Expr::col("t1", "a")),
            low: Box::new(Expr::lit(Value::Int(1))),
            high: Box::new(Expr::lit(Value::Int(5))),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        let c = Expr::Cast {
            expr: Box::new(Expr::lit(Value::str("12abc"))),
            ty: crate::types::ColumnType::Int { unsigned: false },
        };
        assert_eq!(
            eval_expr(&c, &scope, &NoSubqueries)
                .unwrap()
                .as_i128_exact(),
            Some(12)
        );
    }

    /// A memoizing handler over one in-memory table `t2(k, v)`, shaped like
    /// the engines' and the ground truth's.
    struct Tables {
        t2: Vec<[Value; 2]>,
        memo: SubqueryMemo,
    }

    impl SubquerySource for Tables {
        fn has_own_column(&self, _stmt: &SelectStmt, column: &str) -> bool {
            matches!(column, "k" | "v")
        }

        fn subquery_values(
            &self,
            stmt: &SelectStmt,
            outer: &dyn ColumnResolver,
        ) -> Result<Vec<Value>, EvalError> {
            let Some(crate::ast::SelectItem::Expr { expr, .. }) = stmt.items.first() else {
                return Err(EvalError::Unsupported("one expression".into()));
            };
            let mut out = Vec::new();
            for [k, v] in &self.t2 {
                let scope = [
                    ("t2".to_string(), "k".to_string(), k.clone()),
                    ("t2".to_string(), "v".to_string(), v.clone()),
                ];
                let resolver = ChainedResolver {
                    inner: &ScopedRow::new(&scope),
                    outer,
                };
                let keep = match &stmt.where_clause {
                    Some(pred) => eval_predicate(pred, &resolver, self)? == Some(true),
                    None => true,
                };
                if keep {
                    out.push(eval_expr(expr, &resolver, self)?);
                }
            }
            Ok(out)
        }
    }

    impl SubqueryHandler for Tables {
        fn in_subquery(
            &self,
            probe: &Value,
            stmt: &SelectStmt,
            outer: &dyn ColumnResolver,
        ) -> Result<Option<bool>, EvalError> {
            self.memo.in_subquery(self, probe, stmt, outer)
        }

        fn exists(&self, stmt: &SelectStmt, outer: &dyn ColumnResolver) -> Result<bool, EvalError> {
            self.memo.exists(self, stmt, outer)
        }
    }

    type Verdict = Result<Option<bool>, EvalError>;

    /// Evaluate the WHERE of `SELECT 1 FROM t1 WHERE <pred>` once per value
    /// of `t1.a`, all through one memo; the verdicts and the memo's
    /// `(evaluations, memo_hits)`.
    fn filter(pred: &str, outer: &[Value]) -> (Vec<Verdict>, (u64, u64)) {
        let stmt = crate::parser::parse_stmt(&format!("SELECT t1.a FROM t1 WHERE {pred}")).unwrap();
        let tables = Tables {
            t2: vec![
                [Value::Int(1), Value::str("x")],
                [Value::Int(1), Value::str("y")],
                [Value::Int(2), Value::Null],
                [Value::Null, Value::str("2")],
            ],
            memo: SubqueryMemo::new(),
        };
        let verdicts = outer
            .iter()
            .map(|a| {
                let scope = [("t1".to_string(), "a".to_string(), a.clone())];
                eval_predicate(
                    stmt.where_clause.as_ref().unwrap(),
                    &ScopedRow::new(&scope),
                    &tables,
                )
            })
            .collect();
        (verdicts, tables.memo.counts())
    }

    #[test]
    fn a_correlated_subquery_is_evaluated_once_per_distinct_binding() {
        let outer = [
            Value::Int(1),
            Value::Int(3),
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::str("1"),
            Value::Int(3),
        ];
        let (verdicts, counts) = filter("EXISTS (SELECT t2.v FROM t2 WHERE t2.k = t1.a)", &outer);
        let t = Ok(Some(true));
        let f = Ok(Some(false));
        assert_eq!(
            verdicts,
            [t.clone(), f.clone(), f.clone(), t.clone(), f.clone(), t, f]
        );
        // 1, 3, NULL and '1' are four bindings: the key is the exact value,
        // whatever the comparison inside coerces.
        assert_eq!(counts, (4, 3));

        // IN: the probe is part of the key. NULL in the list makes a miss
        // UNKNOWN; a string column probed with a number coerces.
        let (verdicts, counts) = filter(
            "t1.a IN (SELECT t2.v FROM t2 WHERE t2.k = t1.a OR t2.k IS NULL)",
            &[Value::Int(2), Value::Int(2), Value::Int(1), Value::Int(1)],
        );
        assert_eq!(
            verdicts,
            [
                Ok(Some(true)),
                Ok(Some(true)),
                Ok(Some(false)),
                Ok(Some(false))
            ]
        );
        assert_eq!(counts, (2, 2));
        let (verdicts, counts) = filter(
            "t1.a NOT IN (SELECT t2.v FROM t2 WHERE t2.k = t1.a)",
            &[
                Value::Int(2),
                Value::Int(2),
                Value::Null,
                Value::Int(7),
                Value::Null,
            ],
        );
        assert_eq!(
            verdicts,
            [
                Ok(None),
                Ok(None),
                Ok(Some(true)),
                Ok(Some(true)),
                Ok(Some(true))
            ]
        );
        assert_eq!(counts, (3, 2));
    }

    #[test]
    fn an_uncorrelated_subquery_is_evaluated_once_and_its_list_serves_every_probe() {
        let (verdicts, counts) = filter(
            "t1.a IN (SELECT t2.k FROM t2)",
            &[
                Value::Int(1),
                Value::Int(5),
                Value::Int(1),
                Value::Null,
                Value::str("2"),
            ],
        );
        assert_eq!(
            verdicts,
            [
                Ok(Some(true)),
                Ok(None),
                Ok(Some(true)),
                Ok(None),
                Ok(Some(true))
            ]
        );
        assert_eq!(counts, (1, 4));
    }

    #[test]
    fn nested_subqueries_and_unresolvable_references_bypass_the_memo() {
        // The outer subquery carries a nested one: evaluated per row. The
        // nested node is uncorrelated and memoized on its own.
        let (verdicts, counts) = filter(
            "t1.a IN (SELECT t2.k FROM t2 WHERE t2.k IN (SELECT t2.k FROM t2))",
            &[Value::Int(1), Value::Int(1), Value::Int(9)],
        );
        assert_eq!(verdicts, [Ok(Some(true)), Ok(Some(true)), Ok(Some(false))]);
        // 3 outer evaluations + 1 nested; 4 rows × 3 − 1 nested hits.
        assert_eq!(counts, (4, 11));

        // `t9.z` resolves nowhere: no key can be built, the subquery is
        // evaluated directly every time and fails the way it always did.
        let (verdicts, counts) = filter(
            "EXISTS (SELECT t2.k FROM t2 WHERE t2.k = t9.z)",
            &[Value::Int(1), Value::Int(1)],
        );
        let unknown = || Err(EvalError::UnknownColumn("Some(\"t9\").z".into()));
        assert_eq!(verdicts, [unknown(), unknown()]);
        assert_eq!(counts, (2, 0));
    }

    #[test]
    fn string_number_equality_in_predicates() {
        // The varchar-vs-bigint comparisons from Figure 1(b).
        let r = vec![("t".into(), "v".into(), Value::str("1985"))];
        let scope = ScopedRow::new(&r);
        let e = Expr::eq(Expr::col("t", "v"), Expr::lit(Value::Int(1985)));
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
    }
}
