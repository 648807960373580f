//! Physical operator execution with fault interception points.
//!
//! Every join algorithm is implemented correctly; the wrong behaviours only
//! appear when a [`FaultKind`](crate::faults::FaultKind) is both enabled in
//! the profile and triggered by the current execution path *and* the data
//! actually hits the corner case. Each interception point records which
//! faults fired so the benchmark harness can classify detected bugs by root
//! cause.
//!
//! Both kernels' intermediates are row ids, not values (late
//! materialization): a [`Rel`] holds, per binding, the `Arc`-shared table it
//! scanned, and per row one id into each. A scan is `0..n`, a join emits id
//! tuples, WHERE keeps ids, and the shared tail reads values in place through
//! [`Rel::value`]. Outer-join pads point at a binding's NULL row; the faults
//! that make up values (`''` pads, blanked rows) add rows to the binding they
//! corrupt.
//!
//! Expressions read those values through [`ColumnSlots`]: each operator
//! resolves its column references to header positions once, and every row
//! then resolves a reference to a borrow of its value — no per-row name
//! search, no per-row copy.
//!
//! [`execute_join`] is every executor's one join step. It computes each
//! probed left row's matches — the hashed probe (coarse keys, confirmed pair
//! by pair, where hashing cannot compare the key values exactly), the merge
//! join, or the pair loop without an equi key, as the plan's algorithm and
//! the kernel's probe batch pick — and assembles the output once. The join
//! faults active on a step are decided once per step, never per row: the
//! statement's [`TriggerContext`] ([`ExecContext::trigger`]) extended by
//! the step, through [`FaultSet::active`]. The row, columnar and disk builds
//! carry disjoint fault complements, so each build fires only its own
//! interception points.

use crate::faults::FaultKind::{self, *};
use crate::faults::{FaultSet, TriggerContext};
use crate::plan::{JoinAlgo, PhysicalJoin};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use tqs_sql::ast::{BinOp, ColumnRef, Expr, JoinType};
use tqs_sql::eval::{eval_predicate, ColumnResolver, NoSubqueries};
use tqs_sql::value::{sql_compare, ColClass, KeyBuf, KeyMap, SqlCmp, Value};
use tqs_storage::{Table, TailRow};
use tqs_telemetry::QueryProfile;

/// The row id of a part's NULL row: every column reads NULL. Outer-join
/// pads point here.
const NULL_ROW: u32 = u32::MAX;

static NULL: Value = Value::Null;

/// The id of row `i`: every id but [`NULL_ROW`] addresses a row.
fn row_id(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&id| id != NULL_ROW)
        .expect("a relation addresses fewer than u32::MAX rows per binding")
}

/// An intermediate relation of row ids: one [`Part`] per binding, and per
/// row one id into each part. Scans and joins move ids, never values; the
/// tail reads the values it projects through [`Rel::value`].
#[derive(Debug, Clone)]
pub struct Rel {
    /// (binding, column name) per output column.
    pub(crate) cols: Vec<(String, String)>,
    parts: Vec<Part>,
    /// Where each output column lives, parallel to `cols`.
    slots: Vec<Slot>,
    /// Row-major: row `i` holds `ids[i * parts.len()..][..parts.len()]`.
    ids: Vec<u32>,
}

/// One binding of a [`Rel`]. An id below `table.rows.len()` addresses a
/// base row, a larger one a row in `extra`, [`NULL_ROW`] the NULL row.
#[derive(Debug, Clone)]
struct Part {
    table: Arc<Table>,
    /// The table columns the binding keeps, in header order.
    keep: Vec<usize>,
    /// Rows the join faults make up, one value per kept column.
    extra: Vec<Vec<Value>>,
}

/// Output column → (part, column of the part's table, position among the
/// part's kept columns).
#[derive(Debug, Clone, Copy)]
struct Slot {
    part: usize,
    column: usize,
    local: usize,
}

impl Part {
    #[inline]
    fn value(&self, id: u32, slot: Slot) -> &Value {
        let base = self.table.rows.len();
        match id as usize {
            i if i < base => &self.table.rows[i].values[slot.column],
            _ if id == NULL_ROW => &NULL,
            i => &self.extra[i - base][slot.local],
        }
    }

    /// Add a made-up row (one value per kept column); its id.
    fn push_extra(&mut self, values: Vec<Value>) -> u32 {
        self.extra.push(values);
        row_id(self.table.rows.len() + self.extra.len() - 1)
    }
}

impl Rel {
    /// Scan columns `keep` of `table` under `binding`, in row order (the
    /// pipeline keeps the columns [`ColumnPruner::keep_indices`] names): row
    /// ids `0..n`, no value copied.
    pub(crate) fn scan(table: &Arc<Table>, binding: &str, keep: &[usize]) -> Rel {
        let cols = keep
            .iter()
            .map(|&i| (binding.to_string(), table.columns[i].name.clone()))
            .collect();
        let part = Part {
            table: Arc::clone(table),
            keep: keep.to_vec(),
            extra: Vec::new(),
        };
        Rel::single(cols, part)
    }

    /// A relation over literal rows: one binding whose rows are all made up.
    pub fn from_rows(cols: Vec<(String, String)>, rows: Vec<Vec<Value>>) -> Rel {
        let part = Part {
            table: Arc::new(Table::new("", Vec::new())),
            keep: (0..cols.len()).collect(),
            extra: rows,
        };
        Rel::single(cols, part)
    }

    /// One binding, `part`, with every one of its rows in order.
    fn single(cols: Vec<(String, String)>, part: Part) -> Rel {
        let slots = (part.keep.iter().enumerate())
            .map(|(local, &column)| Slot {
                part: 0,
                column,
                local,
            })
            .collect();
        let ids = (0..row_id(part.table.rows.len() + part.extra.len())).collect();
        Rel {
            cols,
            parts: vec![part],
            slots,
            ids,
        }
    }

    /// Every row's values, materialized.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|i| {
                (0..self.cols.len())
                    .map(|c| self.value(i, c).clone())
                    .collect()
            })
            .collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len() / self.parts.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The value of column `col` in row `row`.
    #[inline]
    pub(crate) fn value(&self, row: usize, col: usize) -> &Value {
        let slot = self.slots[col];
        let id = self.ids[row * self.parts.len() + slot.part];
        self.parts[slot.part].value(id, slot)
    }

    /// Row `row`, resolved by column reference through `slots`.
    pub(crate) fn resolver<'a>(&'a self, slots: &'a ColumnSlots, row: usize) -> RowResolver<'a> {
        RowResolver {
            rel: self,
            slots,
            row,
        }
    }

    /// Row `row`'s ids, one per part.
    #[inline]
    fn tuple(&self, row: usize) -> &[u32] {
        let stride = self.parts.len();
        &self.ids[row * stride..(row + 1) * stride]
    }

    /// Append the ids of `n` parts' NULL rows to the row being written.
    fn push_null_ids(&mut self, n: usize) {
        self.ids.resize(self.ids.len() + n, NULL_ROW);
    }

    /// The header of a join of `left` with `right` (with no `right`, of a
    /// semi or anti join), and no rows yet.
    fn joined(left: &Rel, right: Option<&Rel>) -> Rel {
        let mut out = Rel {
            cols: left.cols.clone(),
            parts: left.parts.clone(),
            slots: left.slots.clone(),
            ids: Vec::new(),
        };
        if let Some(right) = right {
            let offset = left.parts.len();
            out.cols.extend(right.cols.iter().cloned());
            out.parts.extend(right.parts.iter().cloned());
            out.slots.extend(right.slots.iter().map(|s| Slot {
                part: s.part + offset,
                ..*s
            }));
        }
        out
    }

    /// Keep the rows `keep` holds for, in order.
    pub(crate) fn retain<E>(
        &mut self,
        mut keep: impl FnMut(&Rel, usize) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut ids = Vec::new();
        for i in 0..self.len() {
            if keep(self, i)? {
                ids.extend_from_slice(self.tuple(i));
            }
        }
        self.ids = ids;
        Ok(())
    }
}

/// Row `row` of a relation, resolved by column reference.
pub(crate) struct RowResolver<'a> {
    rel: &'a Rel,
    slots: &'a ColumnSlots,
    row: usize,
}

impl ColumnResolver for RowResolver<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<&Value> {
        let cols = &self.rel.cols;
        let ci = self.slots.position(col, || header_index(cols, col))?;
        Some(self.rel.value(self.row, ci))
    }
}

impl TailRow for RowResolver<'_> {
    fn at(&self, column: usize) -> &Value {
        self.rel.value(self.row, column)
    }
}

/// Column references compiled to header positions once per operator, so a
/// row resolves a reference with a binary search over a few node addresses
/// instead of a case-insensitive name search. Each [`ColumnRef`] node of the
/// operator's expressions (not descending into subqueries) maps, by address,
/// to the position [`col_index`] gives it; for a join residual the header is
/// two-sided, left columns before right. A reference the walk did not reach
/// — a correlated reference arriving from inside a subquery — falls back to
/// the name search, so resolution is exactly `col_index`'s.
///
/// Like the subquery memo, this keys on node addresses: the expressions
/// compiled must stay alive and in place while the slots are used.
pub(crate) struct ColumnSlots {
    /// (node address, header position), sorted by address.
    nodes: Vec<(usize, Option<usize>)>,
}

fn node_addr(col: &ColumnRef) -> usize {
    col as *const ColumnRef as usize
}

/// [`col_index`] of a column reference.
fn header_index(cols: &[(String, String)], col: &ColumnRef) -> Option<usize> {
    col_index(cols, col.table.as_deref(), &col.column)
}

/// Position of `col` in the two-sided header `left ++ right`.
fn pair_index(
    left: &[(String, String)],
    right: &[(String, String)],
    col: &ColumnRef,
) -> Option<usize> {
    header_index(left, col).or_else(|| header_index(right, col).map(|o| left.len() + o))
}

impl ColumnSlots {
    /// The references of `exprs` against the header `cols`.
    pub(crate) fn new<'e>(
        exprs: impl IntoIterator<Item = &'e Expr>,
        cols: &[(String, String)],
    ) -> ColumnSlots {
        ColumnSlots::compile(exprs, |c| header_index(cols, c))
    }

    /// The references of `exprs` against the candidate pairs of a join.
    fn pair<'e>(
        exprs: impl IntoIterator<Item = &'e Expr>,
        left: &[(String, String)],
        right: &[(String, String)],
    ) -> ColumnSlots {
        ColumnSlots::compile(exprs, |c| pair_index(left, right, c))
    }

    fn compile<'e>(
        exprs: impl IntoIterator<Item = &'e Expr>,
        position: impl Fn(&ColumnRef) -> Option<usize>,
    ) -> ColumnSlots {
        let mut nodes: Vec<_> = (exprs.into_iter())
            .flat_map(Expr::column_refs)
            .map(|c| (node_addr(c), position(c)))
            .collect();
        nodes.sort_unstable_by_key(|&(addr, _)| addr);
        ColumnSlots { nodes }
    }

    /// The header position of `col`: compiled, or `fallback`'s search.
    #[inline]
    fn position(&self, col: &ColumnRef, fallback: impl FnOnce() -> Option<usize>) -> Option<usize> {
        match self
            .nodes
            .binary_search_by_key(&node_addr(col), |&(addr, _)| addr)
        {
            Ok(i) => self.nodes[i].1,
            Err(_) => fallback(),
        }
    }
}

/// Position of `binding.col` in a relation header (`cols` of a [`Rel`]);
/// an unqualified reference takes the first column of that name.
#[inline]
pub(crate) fn col_index(
    cols: &[(String, String)],
    binding: Option<&str>,
    col: &str,
) -> Option<usize> {
    cols.iter().position(|(b, c)| {
        c.eq_ignore_ascii_case(col) && binding.map(|q| q.eq_ignore_ascii_case(b)).unwrap_or(true)
    })
}

/// Plan-time column pruning: which `(binding, column)` pairs a statement can
/// observe, resolved once per execution. It trims every relation's header, so
/// name searches and outer-join pads cover only the columns an operator can
/// read; no scan copies values either way.
///
/// Conservative by construction: a `SELECT *` disables pruning entirely, a
/// bare (unqualified) reference keeps that column on *every* binding, and
/// references inside correlated subqueries are collected too (deep walk).
/// Pruned execution is therefore observation-equivalent: row counts, row
/// order, and every referencable value — including every fault's observable
/// effect — are unchanged.
#[derive(Debug)]
pub(crate) struct ColumnPruner {
    /// `SELECT *` present: keep everything.
    wildcard: bool,
    /// Lower-cased `(binding, column)` pairs referenced with a qualifier.
    qualified: std::collections::HashSet<(String, String)>,
    /// Lower-cased bare column names (kept on every binding).
    bare: std::collections::HashSet<String>,
}

impl ColumnPruner {
    pub fn new(stmt: &tqs_sql::ast::SelectStmt) -> ColumnPruner {
        let wildcard = stmt
            .items
            .iter()
            .any(|i| matches!(i, tqs_sql::ast::SelectItem::Wildcard));
        let mut refs = Vec::new();
        stmt.collect_column_refs_deep(&mut refs);
        let mut qualified = std::collections::HashSet::new();
        let mut bare = std::collections::HashSet::new();
        for c in refs {
            match &c.table {
                Some(t) => {
                    qualified.insert((t.to_lowercase(), c.column.to_lowercase()));
                }
                None => {
                    bare.insert(c.column.to_lowercase());
                }
            }
        }
        ColumnPruner {
            wildcard,
            qualified,
            bare,
        }
    }

    /// Must `column` of `binding` stay materialized?
    pub fn keep(&self, binding: &str, column: &str) -> bool {
        if self.wildcard {
            return true;
        }
        let col = column.to_lowercase();
        self.bare.contains(&col) || self.qualified.contains(&(binding.to_lowercase(), col))
    }

    /// The column indices of `table` a pruned scan under `binding` keeps.
    /// An entirely unreferenced table — the pure cardinality factor of a
    /// `CROSS JOIN` — keeps none; its rows are still counted by their ids.
    pub(crate) fn keep_indices(&self, table: &Table, binding: &str) -> Vec<usize> {
        (table.columns.iter().enumerate())
            .filter(|(_, c)| self.keep(binding, &c.name))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Which executor a statement runs on. The shared pipeline is handed this
/// and books its counters under `engine.<executor>.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Executor {
    Row,
    Columnar,
    Disk,
}

/// The `counter!` / `histogram!` named `engine.<executor>.<suffix>`. Those
/// macros cache one handle per call site, so a name computed from the
/// executor would stick to whichever engine ran first: one literal per arm.
macro_rules! executor_metric {
    ($kind:ident, $executor:expr, $suffix:literal) => {
        match $executor {
            $crate::exec::Executor::Row => tqs_telemetry::$kind!(concat!("engine.row.", $suffix)),
            $crate::exec::Executor::Columnar => {
                tqs_telemetry::$kind!(concat!("engine.columnar.", $suffix))
            }
            $crate::exec::Executor::Disk => {
                tqs_telemetry::$kind!(concat!("engine.disk.", $suffix))
            }
        }
    };
}
pub(crate) use executor_metric;

/// Per-statement execution context: the fault set, the statement's trigger
/// context, and the provenance of which faults fired.
#[derive(Debug)]
pub struct ExecContext {
    pub faults: FaultSet,
    pub(crate) executor: Executor,
    /// The statement's path facts, which every join step extends
    /// (`ExecContext::trigger_ctx`).
    pub trigger: TriggerContext,
    pub fired: Vec<FaultKind>,
    /// Operator-level profile of this execution, collected only while
    /// telemetry is enabled (`None` otherwise, so the hot path allocates
    /// nothing for it).
    pub profile: Option<QueryProfile>,
    /// Cooperative cancellation handle, picked up from the thread's
    /// installed token (inert when no deadline is configured).
    pub cancel: crate::cancel::CancelToken,
}

impl ExecContext {
    pub fn new(faults: FaultSet) -> Self {
        ExecContext {
            faults,
            executor: Executor::Row,
            trigger: TriggerContext::default(),
            fired: Vec::new(),
            profile: tqs_telemetry::enabled().then(QueryProfile::new),
            cancel: crate::cancel::CancelToken::current(),
        }
    }

    /// Bail out of execution if the statement's cancel token (deadline or
    /// explicit cancel) has tripped. Executors call this at statement start
    /// and once per join so a runaway cross join is stopped at the next
    /// operator boundary.
    #[inline]
    pub(crate) fn check_cancelled(&self) -> Result<(), ExecError> {
        if self.cancel.is_cancelled() {
            tqs_telemetry::counter!("engine.exec.cancelled").incr();
            Err(ExecError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Start an operator clock — `None` (no clock read) unless profiling.
    #[inline]
    pub(crate) fn op_start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Record one operator sample on the per-query profile; returns the
    /// elapsed nanoseconds (0 when not profiling) for global histograms.
    #[inline]
    pub(crate) fn op_end(
        &mut self,
        start: Option<Instant>,
        op: &str,
        rows_in: u64,
        rows_out: u64,
    ) -> u64 {
        if let (Some(t0), Some(p)) = (start, self.profile.as_mut()) {
            let ns = t0.elapsed().as_nanos() as u64;
            p.push(op, rows_in, rows_out, ns);
            ns
        } else {
            0
        }
    }

    pub fn fire(&mut self, kind: FaultKind) {
        if !self.fired.contains(&kind) {
            self.fired.push(kind);
        }
    }

    /// The statement's trigger context, extended by join step `join`.
    pub(crate) fn trigger_ctx(&self, join: &PhysicalJoin) -> TriggerContext {
        TriggerContext {
            algo: Some(join.algo),
            join_type: Some(join.join_type),
            simplified_from_outer: join.simplified_from_outer,
            uses_join_buffer: join.buffer_rows.is_some(),
            ..self.trigger.clone()
        }
    }
}

/// Errors surfaced by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    UnknownColumn(String),
    Unsupported(String),
    /// The statement's cancel token tripped (deadline exceeded or an
    /// explicit cancel); execution was abandoned cooperatively.
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExecError::Cancelled => write!(f, "statement cancelled: deadline exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Equi-key extraction result: column indices on each side plus any residual
/// predicates that must still be evaluated per candidate pair.
struct EquiKeys {
    left_idx: Vec<usize>,
    right_idx: Vec<usize>,
    residual: Vec<Expr>,
}

/// Split `on` into equi-key column pairs and residual conjuncts, by the
/// relation headers.
fn extract_equi_keys(
    left: &[(String, String)],
    right: &[(String, String)],
    on: Option<&Expr>,
) -> EquiKeys {
    let mut keys = EquiKeys {
        left_idx: Vec::new(),
        right_idx: Vec::new(),
        residual: Vec::new(),
    };
    let Some(on) = on else { return keys };
    for c in on.conjuncts() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = c
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                let la = col_index(left, ca.table.as_deref(), &ca.column);
                let rb = col_index(right, cb.table.as_deref(), &cb.column);
                if let (Some(li), Some(ri)) = (la, rb) {
                    keys.left_idx.push(li);
                    keys.right_idx.push(ri);
                    continue;
                }
                let lb = col_index(left, cb.table.as_deref(), &cb.column);
                let ra = col_index(right, ca.table.as_deref(), &ca.column);
                if let (Some(li), Some(ri)) = (lb, ra) {
                    keys.left_idx.push(li);
                    keys.right_idx.push(ri);
                    continue;
                }
            }
        }
        keys.residual.push(c.clone());
    }
    keys
}

/// Correct value-level key equality of left row `l` and right row `r` (what
/// confirms the bucket-mates of a coarse key).
fn keys_equal_correct(left: &Rel, l: usize, right: &Rel, r: usize, keys: &EquiKeys) -> bool {
    keys.left_idx
        .iter()
        .zip(keys.right_idx.iter())
        .all(|(&li, &ri)| {
            let (x, y) = (left.value(l, li), right.value(r, ri));
            if x.is_null() || y.is_null() {
                return false;
            }
            matches!(
                sql_compare(x, y),
                SqlCmp::Ordering(std::cmp::Ordering::Equal)
            )
        })
}

/// Encode row `row`'s join key into `buf` (cleared first), with the key
/// faults of `faults` applied; under no fault the encoding is canonical.
/// Returns `false` when the key can never match (the correct treatment of
/// NULL keys, and the boundary-overflow fault). The fault segments encode
/// bit-for-bit the same equivalences as the retired `"S:|"` / `"F:0|"` /
/// `"D:{double}|"` text encoding, so every fault fires and collides on
/// exactly the same rows — pinned by the property tests against the legacy
/// reference.
///
/// With `classes` (one per key column; no key fault is then active), values
/// are pushed coarsely instead ([`KeyBuf::push_coarse`]).
fn encode_key_into(
    rel: &Rel,
    row: usize,
    idx: &[usize],
    faults: FaultSet,
    classes: Option<&[ColClass]>,
    ctx: &mut ExecContext,
    buf: &mut KeyBuf,
) -> bool {
    buf.clear();
    for (k, &i) in idx.iter().enumerate() {
        let v = rel.value(row, i);
        if v.is_null() {
            if faults.contains(HashJoinNullMatchesEmpty) {
                ctx.fire(HashJoinNullMatchesEmpty);
                // NULL keys collide with the canonical empty string.
                buf.push_str_folded("");
                continue;
            }
            if faults.contains(SemiJoinFloatPrecision) {
                ctx.fire(SemiJoinFloatPrecision);
                // NULL keys collide with values whose f32 round-trip is +0.
                buf.push_f64_bits(KeyBuf::TAG_DOUBLE, 0.0);
                continue;
            }
            return false;
        }
        // Boundary values vanish into an unprobed overflow bucket.
        if faults.contains(HashJoinMaterializationZeroSplit) && is_boundary_like(v) {
            ctx.fire(HashJoinMaterializationZeroSplit);
            return false;
        }
        if let Some(s) = v.as_str().filter(|s| s.len() > 8) {
            // Long varchar keys get routed through a lossy double conversion.
            if faults.contains(HashJoinVarcharViaDouble) {
                ctx.fire(HashJoinVarcharViaDouble);
                buf.push_f64_bits(KeyBuf::TAG_LOSSY_DOUBLE, v.as_f64_lossy().unwrap_or(0.0));
                continue;
            }
            // The dictionary clips them to their first 8 bytes — raw,
            // without the canonical case folding — at the last char
            // boundary at or before byte 8: the fault corrupts answers, it
            // must not panic on multi-byte UTF-8 data.
            if faults.contains(ColumnarDictTruncation) {
                let cut = (0..=8).rev().find(|&c| s.is_char_boundary(c)).unwrap_or(0);
                ctx.fire(ColumnarDictTruncation);
                buf.push_str_raw(&s[..cut]);
                continue;
            }
        }
        // Float-precision loss on the semi-join materialization-off path.
        if faults.contains(SemiJoinFloatPrecision) {
            if let Some(f) = v.as_f64_lossy() {
                if v.as_str().is_none() {
                    let rounded = f as f32 as f64;
                    if rounded != f {
                        ctx.fire(SemiJoinFloatPrecision);
                    }
                    buf.push_f64_bits(KeyBuf::TAG_DOUBLE, rounded);
                    continue;
                }
            }
        }
        match classes {
            Some(classes) => buf.push_coarse(v, classes[k]),
            None => buf.push_canonical(v),
        }
    }
    true
}

/// Canonical *text* rendering of a value under correct key semantics. No
/// longer on the per-row path: the merge join renders it once per distinct
/// key run to order runs exactly as the old string keys sorted, so the
/// first/last-run faults keep skipping the same runs they always did.
fn canonical_encoding(v: &Value) -> String {
    match tqs_sql::value::hash_key(v) {
        tqs_sql::value::HashKey::Null => "N:".to_string(),
        tqs_sql::value::HashKey::Int(i) => format!("I:{i}"),
        tqs_sql::value::HashKey::Double(b) => format!("F:{}", f64::from_bits(b)),
        tqs_sql::value::HashKey::Str(s) => format!("S:{s}"),
    }
}

fn is_boundary_like(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i >= 32_767 || *i <= -32_767,
        Value::UInt(u) => *u >= 32_767,
        Value::Varchar(s) | Value::Text(s) => {
            let mut chars = s.chars();
            match chars.next() {
                Some(first) => s.len() >= 8 && chars.all(|c| c == first),
                None => false,
            }
        }
        Value::Float(f) => f.is_sign_negative() && *f == 0.0,
        Value::Double(f) => f.is_sign_negative() && *f == 0.0,
        _ => false,
    }
}

/// Borrow-based resolver over the candidate pair (row `li` of `left`, row
/// `ri` of `right`), through the join's two-sided [`ColumnSlots`].
struct ScopedPair<'a> {
    slots: &'a ColumnSlots,
    left: &'a Rel,
    right: &'a Rel,
    li: usize,
    ri: usize,
}

impl ColumnResolver for ScopedPair<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<&Value> {
        let (left, right) = (&self.left.cols, &self.right.cols);
        let ci = self.slots.position(col, || pair_index(left, right, col))?;
        Some(match ci.checked_sub(left.len()) {
            Some(offset) => self.right.value(self.ri, offset),
            None => self.left.value(self.li, ci),
        })
    }
}

/// The build side of a hashed match: build rows `0..rows`, bucketed by the
/// key `encode` writes for each; a row it returns `false` for stays out.
fn build_table(
    rows: usize,
    mut encode: impl FnMut(usize, &mut KeyBuf) -> bool,
) -> KeyMap<Vec<usize>> {
    let mut table: KeyMap<Vec<usize>> = KeyMap::with_capacity_and_hasher(rows, Default::default());
    let mut scratch = KeyBuf::new();
    for ri in 0..rows {
        if encode(ri, &mut scratch) {
            match table.get_mut(&scratch) {
                Some(bucket) => bucket.push(ri),
                None => {
                    table.insert(scratch.clone(), vec![ri]);
                }
            }
        }
    }
    table
}

/// What every match computation of one join step reads: its two sides,
/// their equi keys and residual, and the join faults active on the step —
/// decided once per step, never per row.
struct JoinInputs<'a> {
    left: &'a Rel,
    right: &'a Rel,
    keys: EquiKeys,
    slots: ColumnSlots,
    faults: FaultSet,
}

/// For each probed left row, the right rows it matches, in one flat list:
/// left row `li`'s are `rows[starts[li]..starts[li + 1]]`.
struct Matches {
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl Matches {
    /// No left row yet, room for `left` of them.
    fn with_capacity(left: usize) -> Matches {
        let mut starts = Vec::with_capacity(left + 1);
        starts.push(0);
        Matches {
            starts,
            rows: Vec::new(),
        }
    }

    /// `left` left rows that match nothing.
    fn unmatched(left: usize) -> Matches {
        Matches {
            starts: vec![0; left + 1],
            rows: Vec::new(),
        }
    }

    /// Append the next left row, matching `rows`.
    fn push_row(&mut self, rows: impl IntoIterator<Item = usize>) {
        self.rows.extend(rows);
        self.starts.push(self.rows.len());
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Keep the first `left` left rows.
    fn truncate(&mut self, left: usize) {
        self.starts.truncate(left + 1);
        self.rows.truncate(self.starts[left]);
    }

    /// Each left row's matches, in order.
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.starts.windows(2).map(|w| &self.rows[w[0]..w[1]])
    }
}

/// Execute one physical join step. The output carries row ids: each
/// emitted row is the left row's ids followed by the right row's (the left
/// row's alone for semi and anti joins); pads point at a part's NULL row,
/// and the faults that make up values add rows to the output's parts.
///
/// `batch` is the columnar kernel's probe batch (`None` for the row
/// kernel): with one, every equi join is the hashed probe whatever the
/// plan's algorithm, and the batch-tail fault cuts the probed prefix. The
/// plan's algorithm still decides which faults trigger.
pub fn execute_join(
    left: &Rel,
    right: &Rel,
    join: &PhysicalJoin,
    on: Option<&Expr>,
    batch: Option<usize>,
    ctx: &mut ExecContext,
) -> Result<Rel, ExecError> {
    let faults = ctx.faults.active(&ctx.trigger_ctx(join));
    let keys = extract_equi_keys(&left.cols, &right.cols, on);
    let slots = ColumnSlots::pair(&keys.residual, &left.cols, &right.cols);
    let step = JoinInputs {
        left,
        right,
        keys,
        slots,
        faults,
    };
    // The key-encoding faults belong to the algorithms that hash their keys.
    let key_faults = match join.algo.uses_hashed_keys() {
        true => faults,
        false => FaultSet::none(),
    };
    let merge_faults = MERGE_RUN.iter().any(|&k| faults.contains(k));
    let classes = step.coarse_classes(key_faults);

    // Compute the match lists. Algorithms differ in how matches are found
    // (and therefore in which faults can perturb them); without an equi key
    // every one of them runs the (correct) pair loop.
    let mut nulled = Vec::new();
    let mut matches = match (batch, join.algo) {
        _ if step.keys.left_idx.is_empty() => step.loop_matches(),
        (Some(batch), _) => {
            // Batch-tail loss: hashed probes past the last complete batch
            // are never flushed, so those left rows vanish from the join.
            let mut probe_rows = left.len();
            if faults.contains(ColumnarBatchTailDrop)
                && probe_rows % batch != 0
                && probe_rows > batch
            {
                probe_rows -= probe_rows % batch;
                ctx.fire(ColumnarBatchTailDrop);
            }
            step.hashed_matches(probe_rows, key_faults, classes, ctx)
        }
        // Keys hashing cannot compare take the hashed probe's coarse
        // buckets, unless a run fault is active on the merge.
        (None, JoinAlgo::SortMergeJoin) if merge_faults || classes.is_none() => {
            step.merge_matches(&mut nulled, ctx)
        }
        (None, _) => step.hashed_matches(left.len(), key_faults, classes, ctx),
    };

    // Join-buffer tail loss: rows of the buffered (left) side beyond the last
    // complete buffer chunk never get joined.
    let live = matches.len();
    if let Some(buf) = join.buffer_rows {
        if faults.contains(JoinBufferLimitDropsTail) && live > buf && live % buf != 0 {
            matches.truncate(live - live % buf);
            ctx.fire(JoinBufferLimitDropsTail);
        }
    }

    let semi_or_anti = matches!(join.join_type, JoinType::Semi | JoinType::Anti);
    let mut out = Rel::joined(left, (!semi_or_anti).then_some(right));
    let ls = left.parts.len();
    let stride = out.parts.len();
    let mut first_pad_done = false;
    let mut right_matched = vec![false; right.len()];
    for (li, ms) in matches.iter().enumerate() {
        match join.join_type {
            JoinType::Inner
            | JoinType::Cross
            | JoinType::LeftOuter
            | JoinType::RightOuter
            | JoinType::FullOuter => {
                for &ri in ms {
                    right_matched[ri] = true;
                    let n = out.len();
                    // Stale-cache replay: every 50th emitted row repeats the
                    // previous row's right-side values.
                    let stale = faults.contains(JoinCacheStaleRow) && n % 50 == 49;
                    if stale {
                        ctx.fire(JoinCacheStaleRow);
                    }
                    out.ids.extend_from_slice(left.tuple(li));
                    // Merge join returning NULL instead of the value for
                    // duplicate key runs is marked inside merge_matches.
                    if nulled.get(ri).copied().unwrap_or(false) {
                        out.push_null_ids(stride - ls);
                    } else if stale {
                        let prev = (n - 1) * stride;
                        out.ids.extend_from_within(prev + ls..prev + stride);
                    } else {
                        out.ids.extend_from_slice(right.tuple(ri));
                    }
                }
                if ms.is_empty()
                    && matches!(join.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                {
                    // Outer merge join dropping unmatched rows entirely.
                    if faults.contains(MergeJoinOuterNullLoss) {
                        ctx.fire(MergeJoinOuterNullLoss);
                        continue;
                    }
                    out.ids.extend_from_slice(left.tuple(li));
                    push_pad(
                        &mut out,
                        ls..stride,
                        right,
                        faults,
                        ctx,
                        &mut first_pad_done,
                    );
                }
            }
            JoinType::Semi => {
                if !ms.is_empty() {
                    out.ids.extend_from_slice(left.tuple(li));
                    if faults.contains(SemiJoinUnknownData) {
                        ctx.fire(SemiJoinUnknownData);
                        out.ids.extend_from_slice(left.tuple(li));
                    }
                }
            }
            JoinType::Anti => {
                if ms.is_empty() {
                    out.ids.extend_from_slice(left.tuple(li));
                }
            }
        }
    }

    // Right/full outer: pad unmatched right rows on the left side.
    if matches!(join.join_type, JoinType::RightOuter | JoinType::FullOuter) {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                if faults.contains(MergeJoinOuterNullLoss) {
                    ctx.fire(MergeJoinOuterNullLoss);
                    continue;
                }
                push_pad(&mut out, 0..ls, left, faults, ctx, &mut first_pad_done);
                out.ids.extend_from_slice(right.tuple(ri));
            }
        }
    }

    // Extra spurious NULL-padded row for the left hash join + subquery case.
    if faults.contains(LeftHashJoinSubqueryNull) && join.join_type == JoinType::LeftOuter {
        if let Some(li) = matches.iter().position(<[usize]>::is_empty) {
            ctx.fire(LeftHashJoinSubqueryNull);
            out.ids.extend_from_slice(left.tuple(li));
            out.push_null_ids(stride - ls);
        }
    }

    // Blanked varchar values when the hashed join buffer is disallowed: each
    // part of the last row points at a blanked copy of its row.
    if faults.contains(BnlhDisallowedBlankValues)
        && join.buffer_rows.map(|b| left.len() > b).unwrap_or(false)
        && !out.is_empty()
    {
        ctx.fire(BnlhDisallowedBlankValues);
        let last = out.ids.len() - stride;
        for p in 0..stride {
            let id = out.ids[last + p];
            let part = &mut out.parts[p];
            let blanked = (part.keep.iter().enumerate())
                .map(|(local, &column)| {
                    let slot = Slot {
                        part: p,
                        column,
                        local,
                    };
                    match part.value(id, slot) {
                        Value::Varchar(_) | Value::Text(_) => Value::Varchar(String::new()),
                        v => v.clone(),
                    }
                })
                .collect();
            out.ids[last + p] = part.push_extra(blanked);
        }
    }

    Ok(out)
}

/// The faults [`encode_key_into`] applies.
const KEY_ENCODING: [FaultKind; 5] = [
    HashJoinNullMatchesEmpty,
    SemiJoinFloatPrecision,
    HashJoinMaterializationZeroSplit,
    HashJoinVarcharViaDouble,
    ColumnarDictTruncation,
];

/// The faults [`JoinInputs::merge_matches`] applies to its key runs.
const MERGE_RUN: [FaultKind; 4] = [
    MergeJoinVarcharEmpty,
    MergeJoinNegativeZeroMiss,
    MergeJoinDropsLastRun,
    MergeJoinNullInsteadOfValue,
];

/// One duplicate-key run of the merge join.
struct MergeRun {
    rows: Vec<usize>,
    /// The legacy text rendering of the run's key — computed once per
    /// distinct key, only to order runs exactly as the old string keys
    /// sorted (the first/last-run faults must keep skipping the same runs).
    text: String,
    skipped: bool,
}

impl JoinInputs<'_> {
    /// Residual ON predicates evaluated on one candidate pair.
    fn residual_ok(&self, li: usize, ri: usize) -> bool {
        if self.keys.residual.is_empty() {
            return true;
        }
        let resolver = ScopedPair {
            slots: &self.slots,
            left: self.left,
            right: self.right,
            li,
            ri,
        };
        self.keys.residual.iter().all(|p| {
            eval_predicate(p, &resolver, &NoSubqueries)
                .map(|r| r == Some(true))
                .unwrap_or(false)
        })
    }

    /// Each key column pair's class ([`ColClass::join`] of every value
    /// either side's column can hold — its table column and made-up rows, a
    /// superset of the rows kept, on which both keyings agree where it is
    /// looser) when some pair is not [`ColClass::hash_exact`], the only
    /// shapes on which canonical keys agree with [`sql_compare`]: a string
    /// meeting a number coerces under SQL but not under the hash key,
    /// fractional decimals hash through a lossy f64, and integers beyond 2⁵³
    /// can equal a double. `None` too when a key-encoding fault is active.
    fn coarse_classes(&self, key_faults: FaultSet) -> Option<Vec<ColClass>> {
        if KEY_ENCODING.iter().any(|&k| key_faults.contains(k)) {
            return None;
        }
        let class = |rel: &Rel, col: usize| {
            let slot = rel.slots[col];
            let part = &rel.parts[slot.part];
            let base = part.table.rows.iter().map(|r| &r.values[slot.column]);
            ColClass::of_all(base.chain(part.extra.iter().map(|r| &r[slot.local])))
        };
        let keys = self.keys.left_idx.iter().zip(&self.keys.right_idx);
        let classes: Vec<ColClass> = keys
            .map(|(&li, &ri)| class(self.left, li).join(class(self.right, ri)))
            .collect();
        (!classes.iter().all(|c| c.hash_exact())).then_some(classes)
    }

    /// The one hashed probe, serving every equi join but the merge join
    /// over exact or faulted keys: bucket the right rows by their key as
    /// [`encode_key_into`] writes it under `key_faults` (coarsely under
    /// `classes`, confirming bucket-mates with [`keys_equal_correct`]), then
    /// probe left rows `0..probe_rows`. A left key holding a NULL matches
    /// build row 0 under the simplified-join NULL/row-0 confusion fault;
    /// residual predicates filter every candidate.
    fn hashed_matches(
        &self,
        probe_rows: usize,
        key_faults: FaultSet,
        classes: Option<Vec<ColClass>>,
        ctx: &mut ExecContext,
    ) -> Matches {
        let (left, right, keys) = (self.left, self.right, &self.keys);
        let classes = classes.as_deref();
        let encode = |rel: &Rel, row, idx: &[usize], ctx: &mut ExecContext, buf: &mut KeyBuf| {
            encode_key_into(rel, row, idx, key_faults, classes, ctx, buf)
        };
        let table = build_table(right.len(), |ri, buf| {
            encode(right, ri, &keys.right_idx, ctx, buf)
        });
        let confusion = self.faults.contains(LeftToInnerNullZeroConfusion) && !right.is_empty();
        let mut scratch = KeyBuf::new();
        let mut out = Matches::with_capacity(probe_rows);
        for li in 0..probe_rows {
            let mut bucket: &[usize] = match encode(left, li, &keys.left_idx, ctx, &mut scratch) {
                true => table.get(&scratch).map_or(&[], Vec::as_slice),
                false => &[],
            };
            let mut confirm = classes.is_some();
            if bucket.is_empty()
                && confusion
                && keys.left_idx.iter().any(|&i| left.value(li, i).is_null())
            {
                ctx.fire(LeftToInnerNullZeroConfusion);
                (bucket, confirm) = (&[0], false);
            }
            out.push_row((bucket.iter().copied()).filter(|&ri| {
                (!confirm || keys_equal_correct(left, li, right, ri, keys))
                    && self.residual_ok(li, ri)
            }));
        }
        out
    }

    /// A join without an equi key: every pair the residual holds for.
    fn loop_matches(&self) -> Matches {
        let mut out = Matches::with_capacity(self.left.len());
        for li in 0..self.left.len() {
            out.push_row((0..self.right.len()).filter(|&ri| self.residual_ok(li, ri)));
        }
        out
    }

    /// The merge join over an equi key; it marks in `nulled` the right rows
    /// whose values it returns as NULLs (none: `nulled` stays empty).
    fn merge_matches(&self, nulled: &mut Vec<bool>, ctx: &mut ExecContext) -> Matches {
        let (left, right, keys, faults) = (self.left, self.right, &self.keys, self.faults);
        // Collation-mismatch fault: varchar merge keys produce an empty join.
        if faults.contains(MergeJoinVarcharEmpty)
            && (0..right.len())
                .flat_map(|ri| keys.right_idx.iter().map(move |&i| right.value(ri, i)))
                .any(|v| v.as_str().is_some())
        {
            ctx.fire(MergeJoinVarcharEmpty);
            return Matches::unmatched(left.len());
        }
        // A straightforward (correct) merge: group right rows by canonical key.
        // Binary keys index the runs; the probe below hits this same index
        // directly instead of rebuilding a borrowed shadow map.
        let mut runs: Vec<MergeRun> = Vec::new();
        let mut index: KeyMap<usize> = KeyMap::default();
        let mut scratch = KeyBuf::new();
        for ri in 0..right.len() {
            if !encode_key_into(
                right,
                ri,
                &keys.right_idx,
                FaultSet::none(),
                None,
                ctx,
                &mut scratch,
            ) {
                continue;
            }
            match index.get(&scratch) {
                Some(&gi) => runs[gi].rows.push(ri),
                None => {
                    index.insert(scratch.clone(), runs.len());
                    runs.push(MergeRun {
                        rows: vec![ri],
                        text: keys
                            .right_idx
                            .iter()
                            .map(|&i| canonical_encoding(right.value(ri, i)) + "|")
                            .collect(),
                        skipped: false,
                    });
                }
            }
        }
        // Merge-order the runs by key text, then apply the run-skipping faults
        // by sorted position.
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by(|&a, &b| runs[a].text.cmp(&runs[b].text));
        let mut skipped_first = false;
        let mut skipped_last = false;
        let n_runs = runs.len();
        for (pos, &gi) in order.iter().enumerate() {
            // "missed -0" ↔ the cursor skips the smallest key run.
            if pos == 0 && n_runs > 1 && faults.contains(MergeJoinNegativeZeroMiss) {
                runs[gi].skipped = true;
                skipped_first = true;
                continue;
            }
            // the final duplicate run is dropped
            if pos + 1 == n_runs && n_runs > 1 && faults.contains(MergeJoinDropsLastRun) {
                runs[gi].skipped = true;
                skipped_last = true;
                continue;
            }
            // duplicate runs: 2nd and later rows come back as NULLs
            if runs[gi].rows.len() > 1 && faults.contains(MergeJoinNullInsteadOfValue) {
                ctx.fire(MergeJoinNullInsteadOfValue);
                nulled.resize(right.len(), false);
                for &ri in &runs[gi].rows[1..] {
                    nulled[ri] = true;
                }
            }
        }
        if skipped_first {
            ctx.fire(MergeJoinNegativeZeroMiss);
        }
        if skipped_last {
            ctx.fire(MergeJoinDropsLastRun);
        }
        let mut out = Matches::with_capacity(left.len());
        for li in 0..left.len() {
            let encoded = encode_key_into(
                left,
                li,
                &keys.left_idx,
                FaultSet::none(),
                None,
                ctx,
                &mut scratch,
            );
            let run = match encoded {
                true => index.get(&scratch).map(|&gi| &runs[gi]),
                false => None,
            };
            let rows = match run {
                Some(run) if !run.skipped => &run.rows[..],
                _ => &[],
            };
            out.push_row((rows.iter().copied()).filter(|&ri| self.residual_ok(li, ri)));
        }
        out
    }
}

/// Append to the row being written in `out` the ids padding `parts` for the
/// unmatched side of an outer join — the columns of `padded`: their NULL
/// rows. Only the first pad of a join can be corrupt: the NULL-mask
/// misalignment replays `padded`'s row 0, and the empty-string-instead-of-NULL
/// faults make it a row of `''`s.
fn push_pad(
    out: &mut Rel,
    parts: Range<usize>,
    padded: &Rel,
    faults: FaultSet,
    ctx: &mut ExecContext,
    first_pad_done: &mut bool,
) {
    if !std::mem::replace(first_pad_done, true) {
        if faults.contains(ColumnarNullPadMisalign) && !padded.is_empty() {
            ctx.fire(ColumnarNullPadMisalign);
            out.ids.extend_from_slice(padded.tuple(0));
            return;
        }
        let empty_pad = [OuterJoinCacheEmptyPad, BkaDisallowedNullToEmpty];
        if let Some(kind) = empty_pad.into_iter().find(|&k| faults.contains(k)) {
            ctx.fire(kind);
            for p in parts {
                let part = &mut out.parts[p];
                let blank = vec![Value::Varchar(String::new()); part.keep.len()];
                let id = part.push_extra(blank);
                out.ids.push(id);
            }
            return;
        }
    }
    out.push_null_ids(parts.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Row;

    fn table(name: &str, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::Int { unsigned: false }),
                ColumnDef::new("name", ColumnType::Varchar(100)),
            ],
        );
        for r in rows {
            t.push_row(Row::new(r)).unwrap();
        }
        t
    }

    fn join(jt: JoinType, algo: JoinAlgo) -> PhysicalJoin {
        PhysicalJoin {
            right_binding: "r".into(),
            join_type: jt,
            algo,
            simplified_from_outer: false,
            buffer_rows: None,
        }
    }

    fn on_clause() -> Expr {
        Expr::eq(Expr::col("l", "id"), Expr::col("r", "id"))
    }

    /// The one way these tests build a relation: a scan of every column of
    /// table `name` under binding `name`.
    fn scan(name: &str, rows: Vec<Vec<Value>>) -> Rel {
        Rel::scan(&Arc::new(table(name, rows)), name, &[0, 1])
    }

    fn left_rel() -> Rel {
        scan(
            "l",
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(3), Value::str("c")],
                vec![Value::Null, Value::str("n")],
            ],
        )
    }

    fn right_rel() -> Rel {
        scan(
            "r",
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
                vec![Value::Int(3), Value::str("z")],
                vec![Value::Null, Value::str("rn")],
            ],
        )
    }

    fn run(jt: JoinType, algo: JoinAlgo, faults: FaultSet) -> (Rel, ExecContext) {
        let mut ctx = ExecContext::new(faults);
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &join(jt, algo),
            Some(&on_clause()),
            None,
            &mut ctx,
        )
        .unwrap();
        (out, ctx)
    }

    #[test]
    fn all_algorithms_agree_on_clean_inner_join() {
        let mut counts = Vec::new();
        for algo in JoinAlgo::ALL {
            let (out, ctx) = run(JoinType::Inner, algo, FaultSet::none());
            counts.push(out.len());
            assert!(
                ctx.fired.is_empty(),
                "{algo:?} fired faults on a pristine build"
            );
        }
        // l.id=1 matches two rows, l.id=3 matches one; NULLs never match.
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn outer_join_padding_is_null_by_default() {
        let (out, _) = run(JoinType::LeftOuter, JoinAlgo::HashJoin, FaultSet::none());
        // 3 matches + 2 unmatched left rows (id=2 and NULL)
        assert_eq!(out.len(), 5);
        let rows = out.to_rows();
        let padded: Vec<&Vec<Value>> = rows.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(padded.len(), 2);
        let (out, _) = run(JoinType::FullOuter, JoinAlgo::NestedLoop, FaultSet::none());
        // + 1 unmatched right row (NULL key)
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn semi_and_anti_join_semantics() {
        let (semi, _) = run(JoinType::Semi, JoinAlgo::HashJoin, FaultSet::none());
        assert_eq!(semi.len(), 2); // ids 1 and 3
        assert_eq!(semi.cols.len(), 2); // only left columns
        let (anti, _) = run(JoinType::Anti, JoinAlgo::NestedLoop, FaultSet::none());
        assert_eq!(anti.len(), 2); // id 2 and the NULL row
    }

    #[test]
    fn hash_join_null_matches_empty_fault_adds_rows() {
        let faults = FaultSet::of(&[FaultKind::HashJoinNullMatchesEmpty]);
        let (out, ctx) = run(JoinType::Inner, JoinAlgo::HashJoin, faults);
        // The NULL left key now matches the NULL right key (both encode "").
        assert_eq!(out.len(), 4);
        assert_eq!(ctx.fired, vec![FaultKind::HashJoinNullMatchesEmpty]);
        // …but the same fault never fires under a nested loop plan.
        let (out, ctx) = run(JoinType::Inner, JoinAlgo::NestedLoop, faults);
        assert_eq!(out.len(), 3);
        assert!(ctx.fired.is_empty());
    }

    #[test]
    fn merge_join_faults_drop_runs() {
        let (clean, _) = run(JoinType::Inner, JoinAlgo::SortMergeJoin, FaultSet::none());
        assert_eq!(clean.len(), 3);
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinDropsLastRun]),
        );
        assert!(out.len() < clean.len());
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinDropsLastRun]);
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinNegativeZeroMiss]),
        );
        assert!(out.len() < clean.len());
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinNegativeZeroMiss]);
    }

    #[test]
    fn merge_join_null_instead_of_value() {
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinNullInsteadOfValue]),
        );
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinNullInsteadOfValue]);
        // the duplicate id=1 run has its second row blanked to NULLs
        assert!(out
            .to_rows()
            .iter()
            .any(|r| r[2].is_null() && !r[0].is_null()));
    }

    #[test]
    fn outer_pad_empty_string_fault() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::OuterJoinCacheEmptyPad]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::LeftOuter,
            algo: JoinAlgo::BlockNestedLoop,
            simplified_from_outer: false,
            buffer_rows: Some(64),
        };
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &j,
            Some(&on_clause()),
            None,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.fired, vec![FaultKind::OuterJoinCacheEmptyPad]);
        // exactly one padded row carries '' instead of NULL
        let empties = out
            .to_rows()
            .iter()
            .filter(|r| r[2..].iter().any(|v| v.as_str() == Some("")))
            .count();
        assert_eq!(empties, 1);
    }

    #[test]
    fn join_buffer_tail_drop() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::JoinBufferLimitDropsTail]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::Inner,
            algo: JoinAlgo::BlockNestedLoop,
            simplified_from_outer: false,
            buffer_rows: Some(3),
        };
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &j,
            Some(&on_clause()),
            None,
            &mut ctx,
        )
        .unwrap();
        // left has 4 rows, buffer 3 → the 4th left row is never joined; with
        // clean execution row id=NULL contributes nothing anyway, so compare
        // against a buffer that fits everything.
        assert_eq!(ctx.fired, vec![FaultKind::JoinBufferLimitDropsTail]);
        assert!(out.len() <= 3);
    }

    /// The left hash join beside a subquery appends its first unmatched left
    /// row once more, NULL-padded; under the join-buffer tail loss that row
    /// is searched only among the left rows the buffer kept.
    #[test]
    fn left_hash_join_subquery_null_pads_the_first_unmatched_live_row() {
        let run = |left: &Rel, buffer_rows, faults: &[FaultKind]| {
            let mut ctx = ExecContext::new(FaultSet::of(faults));
            ctx.trigger.subquery_present = true;
            let j = PhysicalJoin {
                buffer_rows,
                ..join(JoinType::LeftOuter, JoinAlgo::HashJoin)
            };
            let out = execute_join(left, &right_rel(), &j, Some(&on_clause()), None, &mut ctx);
            (out.unwrap().to_rows(), ctx.fired)
        };
        let padded =
            |id: i64, name: &str| vec![Value::Int(id), Value::str(name), Value::Null, Value::Null];

        // Left ids 1, 2, 3, NULL: 2 and NULL find no match; 2 comes first.
        let (clean, _) = run(&left_rel(), None, &[]);
        let (out, fired) = run(&left_rel(), None, &[FaultKind::LeftHashJoinSubqueryNull]);
        assert_eq!(fired, vec![FaultKind::LeftHashJoinSubqueryNull]);
        assert_eq!(out.len(), clean.len() + 1);
        assert_eq!(out[..clean.len()], clean[..]);
        assert_eq!(out.last(), Some(&padded(2, "b")));

        // Left ids 1, 3, 1, 2 in buffers of 3: the tail row 2 — the only
        // unmatched one — is dropped, so the pad finds no row to repeat.
        let left = scan(
            "l",
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(3), Value::str("c")],
                vec![Value::Int(1), Value::str("d")],
                vec![Value::Int(2), Value::str("b")],
            ],
        );
        let both = [
            FaultKind::LeftHashJoinSubqueryNull,
            FaultKind::JoinBufferLimitDropsTail,
        ];
        let (out, fired) = run(&left, Some(3), &both);
        assert_eq!(fired, vec![FaultKind::JoinBufferLimitDropsTail]);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|r| !r[2].is_null()), "{out:?}");
        // Without the tail loss the same left side pads row 2.
        let (out, fired) = run(&left, Some(3), &both[..1]);
        assert_eq!(fired, vec![FaultKind::LeftHashJoinSubqueryNull]);
        assert_eq!(out.len(), 7);
        assert_eq!(out.last(), Some(&padded(2, "b")));
    }

    /// A left side of exactly two buffers keeps every row: the fault stays
    /// silent and the answer is the clean one.
    #[test]
    fn join_buffer_tail_drop_is_silent_on_whole_buffers() {
        let j = PhysicalJoin {
            buffer_rows: Some(2),
            ..join(JoinType::Inner, JoinAlgo::BlockNestedLoop)
        };
        let run = |faults: FaultSet| {
            let mut ctx = ExecContext::new(faults);
            let on = on_clause();
            let out = execute_join(&left_rel(), &right_rel(), &j, Some(&on), None, &mut ctx);
            (out.unwrap().to_rows(), ctx.fired)
        };
        let (out, fired) = run(FaultSet::of(&[FaultKind::JoinBufferLimitDropsTail]));
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(out, run(FaultSet::none()).0);
    }

    #[test]
    fn simplified_left_join_null_zero_confusion() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::LeftToInnerNullZeroConfusion]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::Inner,
            algo: JoinAlgo::HashJoin,
            simplified_from_outer: true,
            buffer_rows: None,
        };
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &j,
            Some(&on_clause()),
            None,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.fired, vec![FaultKind::LeftToInnerNullZeroConfusion]);
        assert!(out.len() > 3, "NULL key spuriously matched");
        // without the simplification flag the fault stays silent
        let (out, ctx2) = run(
            JoinType::Inner,
            JoinAlgo::HashJoin,
            FaultSet::of(&[FaultKind::LeftToInnerNullZeroConfusion]),
        );
        assert_eq!(out.len(), 3);
        assert!(ctx2.fired.is_empty());
    }

    #[test]
    fn boundary_values_vanish_under_materialized_hash_join() {
        let left = scan("l", vec![vec![Value::Int(65_535), Value::str("big")]]);
        let right = scan("r", vec![vec![Value::Int(65_535), Value::str("big")]]);
        let mut ctx =
            ExecContext::new(FaultSet::of(&[FaultKind::HashJoinMaterializationZeroSplit]));
        ctx.trigger.materialization = true;
        let out = execute_join(
            &left,
            &right,
            &join(JoinType::Inner, JoinAlgo::HashJoin),
            Some(&on_clause()),
            None,
            &mut ctx,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(ctx.fired, vec![FaultKind::HashJoinMaterializationZeroSplit]);
    }

    /// Keys SQL compares equal across types — `1 = '1'`, `1 = '1.0'` —
    /// join under every algorithm, row by row or in probe batches, as the
    /// pair-by-pair comparison says; hashing them canonically matched none.
    #[test]
    fn mixed_type_keys_join_under_every_algorithm() {
        let cols = |b: &str| vec![(b.to_string(), "id".into()), (b.to_string(), "name".into())];
        let left = Rel::from_rows(
            cols("l"),
            [Value::Int(1), Value::Int(2), Value::Null]
                .into_iter()
                .map(|k| vec![k, Value::str("l")])
                .collect(),
        );
        let right = Rel::from_rows(
            cols("r"),
            ["1", "x", "1.0"]
                .into_iter()
                .map(|k| vec![Value::str(k), Value::str("r")])
                .chain([vec![Value::Null, Value::str("r")]])
                .collect(),
        );
        let expected = vec![
            vec![
                Value::Int(1),
                Value::str("l"),
                Value::str("1"),
                Value::str("r"),
            ],
            vec![
                Value::Int(1),
                Value::str("l"),
                Value::str("1.0"),
                Value::str("r"),
            ],
        ];
        for algo in JoinAlgo::ALL {
            for batch in [None, Some(2)] {
                let mut ctx = ExecContext::new(FaultSet::none());
                let (j, on) = (join(JoinType::Inner, algo), on_clause());
                let out = execute_join(&left, &right, &j, Some(&on), batch, &mut ctx).unwrap();
                assert_eq!(out.to_rows(), expected, "{algo:?}, batch {batch:?}");
                assert!(ctx.fired.is_empty(), "{algo:?}: {:?}", ctx.fired);
            }
        }
    }

    #[test]
    fn cross_join_produces_cartesian_product() {
        let mut ctx = ExecContext::new(FaultSet::none());
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &join(JoinType::Cross, JoinAlgo::NestedLoop),
            None,
            None,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(out.len(), 16);
    }

    /// Compiled slots resolve every reference exactly as [`col_index`]
    /// does, one-sided and two-sided, compiled or not.
    #[test]
    fn compiled_slots_resolve_as_the_name_search_does() {
        fn col(e: &Expr) -> &ColumnRef {
            match e {
                Expr::Column(c) => c,
                _ => unreachable!(),
            }
        }
        let (left, right) = (left_rel(), right_rel());
        let mut ctx = ExecContext::new(FaultSet::none());
        let on = on_clause();
        let joined = execute_join(
            &left,
            &right,
            &join(JoinType::Inner, JoinAlgo::HashJoin),
            Some(&on),
            None,
            &mut ctx,
        )
        .unwrap();
        // the header is l.id, l.name, r.id, r.name
        let compiled = [
            // a name two bindings carry: unqualified, the first one
            Expr::Column(ColumnRef::bare("NAME")),
            // qualifier and name compared without regard to case
            Expr::col("R", "Id"),
            Expr::col("l", "ghost"),
        ];
        let outside = [Expr::col("r", "nAmE"), Expr::Column(ColumnRef::bare("id"))];
        let slots = ColumnSlots::new(&compiled, &joined.cols);
        for e in &compiled {
            // compiled: the fallback is never asked
            let compiled = slots.position(col(e), || unreachable!());
            assert_eq!(compiled, header_index(&joined.cols, col(e)));
        }
        for e in &outside {
            // not compiled: the fallback answers
            assert_eq!(slots.position(col(e), || Some(99)), Some(99));
        }
        let pair = ColumnSlots::pair(&compiled, &left.cols, &right.cols);
        for row in 0..joined.len() {
            let resolver = joined.resolver(&slots, row);
            // a scan's ids are its row numbers
            let (l, r) = (joined.tuple(row)[0] as usize, joined.tuple(row)[1] as usize);
            let scoped = ScopedPair {
                slots: &pair,
                left: &left,
                right: &right,
                li: l,
                ri: r,
            };
            for e in compiled.iter().chain(&outside) {
                let c = col(e);
                let expected = col_index(&joined.cols, c.table.as_deref(), &c.column)
                    .map(|ci| joined.value(row, ci));
                assert_eq!(resolver.resolve(c), expected, "{c:?}");
                assert_eq!(scoped.resolve(c), expected, "{c:?}");
            }
        }
        let first = joined.resolver(&slots, 0);
        assert_eq!(first.resolve(col(&compiled[0])), Some(&Value::str("a")));
        assert_eq!(first.resolve(col(&compiled[1])), Some(&Value::Int(1)));
        assert_eq!(first.resolve(col(&compiled[2])), None);
        assert_eq!(first.resolve(col(&outside[0])), Some(&Value::str("x")));
    }

    #[test]
    fn key_extraction_handles_reversed_equality_and_residual() {
        let (left, right) = (scan("l", vec![]).cols, scan("r", vec![]).cols);
        let bare = |c: &str| Expr::Column(ColumnRef::bare(c));
        let on = Expr::and(
            Expr::eq(Expr::col("r", "id"), Expr::col("l", "id")),
            Expr::binary(
                BinOp::Ne,
                Expr::col("r", "name"),
                Expr::lit(Value::str("y")),
            ),
        );
        // reversed equality, with a residual non-equi conjunct
        let keys = extract_equi_keys(&left, &right, Some(&on));
        assert_eq!((keys.left_idx, keys.right_idx), (vec![0], vec![0]));
        assert_eq!(keys.residual.len(), 1);
        // an unqualified column resolves on the left side first
        let unqualified = Expr::eq(bare("name"), Expr::col("r", "id"));
        let keys = extract_equi_keys(&left, &right, Some(&unqualified));
        assert_eq!((keys.left_idx, keys.right_idx), (vec![1], vec![0]));
        assert!(keys.residual.is_empty());
        // a column missing on one side is no key: the conjunct stays
        // residual, in either orientation
        for missing in [
            Expr::eq(Expr::col("l", "id"), Expr::col("r", "ghost")),
            Expr::eq(Expr::col("r", "ghost"), Expr::col("l", "id")),
        ] {
            let keys = extract_equi_keys(&left, &right, Some(&missing));
            assert!(keys.left_idx.is_empty() && keys.right_idx.is_empty());
            assert_eq!(keys.residual, vec![missing]);
        }
        // no ON clause: no keys, nothing residual
        let keys = extract_equi_keys(&left, &right, None);
        assert!(keys.left_idx.is_empty() && keys.residual.is_empty());

        let mut ctx = ExecContext::new(FaultSet::none());
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &join(JoinType::Inner, JoinAlgo::HashJoin),
            Some(&on),
            None,
            &mut ctx,
        )
        .unwrap();
        // the residual predicate filters out the (1, y) match
        assert_eq!(out.len(), 2);
    }
}
