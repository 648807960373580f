//! Rule-based logical rewrites: predicate pushdown and transitive
//! join-condition inference.
//!
//! Both rules edit the statement in place — its ON clauses and its WHERE
//! clause; the join chain's order and types and every other clause stay as
//! written — so every rewritten statement runs unchanged on the engines.
//! Both are **semantics-preserving** and **idempotent** — applying `rewrite`
//! twice yields the same statement as applying it once. Idempotence is
//! load-bearing: the `PlanSpaceOracle` reports the *rewritten* statement as
//! the witness SQL, so re-verification rewrites that witness again and must
//! land on the identical statement.
//!
//! The rewrites also host two seeded optimizer faults:
//!
//! * [`FaultKind::OptDroppedRewritePrecondition`] (31) drops the "target join
//!   must be INNER" precondition of pushdown, so a conjunct can land in a
//!   LEFT OUTER / SEMI / ANTI join's ON clause, where filtering happens
//!   before null-padding or existence checks instead of after the join.
//! * [`FaultKind::OptPushdownPastOuterJoin`] (32) pushes a conjunct that
//!   references only the *right* (null-padded) side of a LEFT OUTER join
//!   into that join's own ON clause: rows failing the predicate come back
//!   null-padded instead of being filtered out.
//!
//! The returned fired list contains exactly the faults that *changed the
//! rewritten statement* relative to pristine — an enabled fault whose
//! trigger shape never occurs stays silent, mirroring how the engine fault
//! complements report firings.

use std::collections::{HashMap, HashSet};

use tqs_engine::faults::{FaultKind, FaultSet};
use tqs_sql::ast::{BinOp, ColumnRef, Expr, Join, JoinType, SelectStmt};

/// Backstop on the fixpoint loop. Each pass either changes the plan or ends
/// the loop, and every change moves a conjunct out of WHERE or materializes
/// a missing entailed equality — both finite — so the loop terminates on its
/// own; the cap only bounds the damage of a future non-converging rule.
const MAX_REWRITE_PASSES: u64 = 8;

/// Apply all rewrite rules to the statement, rerunning the rule set until a full
/// pass changes nothing (a fixpoint — which is what actually guarantees the
/// idempotence contract above: re-rewriting a rewritten statement finds no
/// rule that still wants to act). Pristine inputs converge on the second
/// pass; the loop structure keeps the contract if a future rule's output
/// enables another rule. Returns the seeded faults that altered the outcome.
pub(crate) fn rewrite(stmt: &mut SelectStmt, faults: &FaultSet) -> Vec<FaultKind> {
    let bindings: Vec<String> = stmt
        .from
        .tables()
        .iter()
        .map(|t| t.binding().to_lowercase())
        .collect();
    let mut fired = Vec::new();
    let mut passes = 0u64;
    loop {
        passes += 1;
        let mut changed = push_down_predicates(stmt, &bindings, faults, &mut fired);
        changed |= infer_join_conditions(stmt, &bindings);
        if !changed || passes >= MAX_REWRITE_PASSES {
            break;
        }
    }
    tqs_telemetry::counter!("optimizer.rewrite.statements").incr();
    tqs_telemetry::counter!("optimizer.rewrite.fixpoint_iterations").add(passes);
    fired
}

/// Where a conjunct may be placed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Placement {
    /// Stays in the WHERE clause.
    Keep,
    /// AND-ed onto the ON clause of join step `i`.
    On(usize),
}

/// Predicate pushdown: move single-binding WHERE conjuncts into the earliest
/// INNER join ON clause where their binding is available.
///
/// A conjunct is eligible only if it has no subquery, references exactly one
/// known binding, and every reference is qualified. Multi-binding conjuncts
/// stay in WHERE deliberately: placing them into an ON clause would add an
/// ordering dependency under the engine's `JOIN_ORDER` availability rule and
/// shrink the enumerable order space for zero semantic gain (WHERE evaluates
/// after every join either way). The target must be an INNER join that
/// already carries an ON clause (we never turn a CROSS join into a
/// conditional one — the engines plan those differently) at or after the
/// conjunct's availability frontier. Filtering at that point commutes with
/// every later join: INNER and SEMI joins filter the same rows anyway, and
/// LEFT OUTER / ANTI joins never change columns the conjunct can see
/// (null-padding only touches the newly introduced binding).
fn push_down_predicates(
    stmt: &mut SelectStmt,
    bindings: &[String],
    faults: &FaultSet,
    fired: &mut Vec<FaultKind>,
) -> bool {
    let Some(filter) = stmt.where_clause.take() else {
        return false;
    };
    let joins = &mut stmt.from.joins;

    let mut kept: Vec<Expr> = Vec::new();
    let mut pushed: Vec<(usize, Expr)> = Vec::new();
    for conjunct in filter.conjuncts() {
        match place_conjunct(conjunct, joins, bindings, faults, fired) {
            Placement::Keep => kept.push(conjunct.clone()),
            Placement::On(i) => pushed.push((i, conjunct.clone())),
        }
    }

    let changed = !pushed.is_empty();
    for (i, conjunct) in pushed {
        let on = joins[i].on.take();
        joins[i].on = Some(match on {
            Some(existing) => Expr::and(existing, conjunct),
            None => conjunct,
        });
    }
    stmt.where_clause = Expr::conjunction(kept);
    changed
}

fn place_conjunct(
    conjunct: &Expr,
    joins: &[Join],
    bindings: &[String],
    faults: &FaultSet,
    fired: &mut Vec<FaultKind>,
) -> Placement {
    if conjunct.has_subquery() {
        return Placement::Keep;
    }
    let Some(quals) = qualifiers(conjunct) else {
        return Placement::Keep; // unqualified reference — cannot place safely
    };
    if quals.len() != 1 || quals.iter().any(|q| !bindings.contains(q)) {
        return Placement::Keep;
    }
    // Availability frontier: the first join index at which the referenced
    // binding exists (base is position 0, join i introduces position i + 1).
    let frontier = bindings
        .iter()
        .position(|b| b == &quals[0])
        .unwrap()
        .saturating_sub(1);

    // Seeded fault 32: a conjunct over only the null-padded side of a LEFT
    // OUTER join gets pushed *into that join's ON clause*, so rows failing
    // it survive as padded rows instead of being filtered.
    if let [qual] = quals.as_slice() {
        if let Some(k) = joins.iter().position(|j| {
            j.join_type == JoinType::LeftOuter && j.table.binding().eq_ignore_ascii_case(qual)
        }) {
            if faults.contains(FaultKind::OptPushdownPastOuterJoin) {
                record(fired, FaultKind::OptPushdownPastOuterJoin);
                return Placement::On(k);
            }
            // Pristine: below-the-outer-join placement is unsafe; a later
            // INNER target (found below) is still fine.
        }
    }

    let inner_target = (frontier..joins.len())
        .find(|&i| joins[i].join_type == JoinType::Inner && joins[i].on.is_some());

    // Seeded fault 31: the "target must be INNER" precondition is dropped —
    // the earliest ON-bearing join of *any* type wins. Only an actually
    // non-INNER target differs from pristine, so only that fires.
    if faults.contains(FaultKind::OptDroppedRewritePrecondition) {
        let any_target = (frontier..joins.len()).find(|&i| joins[i].on.is_some());
        if let Some(i) = any_target {
            if joins[i].join_type != JoinType::Inner {
                record(fired, FaultKind::OptDroppedRewritePrecondition);
                return Placement::On(i);
            }
        }
    }

    match inner_target {
        Some(i) => Placement::On(i),
        None => Placement::Keep,
    }
}

fn record(fired: &mut Vec<FaultKind>, kind: FaultKind) {
    if !fired.contains(&kind) {
        fired.push(kind);
    }
}

/// The distinct lowercase qualifiers of an expression's column references.
/// `None` if any reference is unqualified — an unqualified column cannot be
/// placed safely, so rewrites leave such conjuncts alone.
pub(crate) fn qualifiers(expr: &Expr) -> Option<Vec<String>> {
    let mut out: Vec<String> = Vec::new();
    for c in expr.column_refs() {
        let t = c.table.as_ref()?.to_lowercase();
        if !out.contains(&t) {
            out.push(t);
        }
    }
    Some(out)
}

/// A column key in the equivalence machinery: `(chain position, lowercase
/// column name)`. The position (base = 0, join i = i + 1) orders the
/// availability check and keeps keys distinct across self-joined bindings.
type ColKey = (usize, String);

/// Transitive join-condition inference: run INNER-join ON equalities through
/// a union–find over `(binding, column)` keys and append every
/// entailed-but-absent equality to the WHERE filter.
///
/// Every added equality is implied by the INNER-join ON conditions each
/// surviving row has already passed (a row that reaches the filter satisfied
/// every INNER ON with non-NULL operands — padded rows from a LEFT OUTER
/// join cannot pass a later INNER equality on their padded columns), so the
/// rewrite is a no-op on results. The equalities land in WHERE, *not* in an
/// ON clause: an ON placement would add an ordering dependency under the
/// engine's `JOIN_ORDER` availability rule and collapse the enumerable order
/// space (a star join would degenerate to the identity order). Because the
/// *full* closure is materialized and `present` is seeded from both ON and
/// WHERE equalities, a second pass finds nothing absent, keeping the rewrite
/// idempotent.
fn infer_join_conditions(stmt: &mut SelectStmt, bindings: &[String]) -> bool {
    // Equalities already spelled out in some ON clause or the WHERE filter,
    // as ordered pairs.
    let mut present: HashSet<(ColKey, ColKey)> = HashSet::new();
    let spelled = stmt
        .from
        .joins
        .iter()
        .filter_map(|j| j.on.as_ref())
        .chain(stmt.where_clause.iter())
        .flat_map(Expr::conjuncts);
    for conjunct in spelled {
        if let Some((a, b)) = as_column_equality(conjunct) {
            if let (Some(ka), Some(kb)) = (col_key(a, bindings), col_key(b, bindings)) {
                present.insert(pair(ka, kb));
            }
        }
    }

    // The entailment basis: equalities from INNER-join ON clauses only.
    let mut dsu = Dsu::default();
    for join in &stmt.from.joins {
        if join.join_type != JoinType::Inner {
            continue;
        }
        let Some(on) = &join.on else { continue };
        for conjunct in on.conjuncts() {
            if let Some((a, b)) = as_column_equality(conjunct) {
                if let (Some(ka), Some(kb)) = (col_key(a, bindings), col_key(b, bindings)) {
                    dsu.union(ka, kb);
                }
            }
        }
    }

    let keys = dsu.keys();
    let mut changed = false;
    for x in 0..keys.len() {
        for y in (x + 1)..keys.len() {
            let (ka, kb) = (&keys[x], &keys[y]);
            let entailed = dsu.find(ka.clone()) == dsu.find(kb.clone());
            if !entailed || present.contains(&pair(ka.clone(), kb.clone())) {
                continue;
            }
            present.insert(pair(ka.clone(), kb.clone()));
            changed = true;
            let eq = Expr::eq(
                Expr::Column(key_ref(ka, bindings)),
                Expr::Column(key_ref(kb, bindings)),
            );
            stmt.where_clause = Some(match stmt.where_clause.take() {
                Some(f) => Expr::and(f, eq),
                None => eq,
            });
        }
    }
    changed
}

/// Is this expression a plain `column = column` equality? Returns the two
/// references if so.
pub(crate) fn as_column_equality(expr: &Expr) -> Option<(&ColumnRef, &ColumnRef)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = expr
    {
        if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
            return Some((a, b));
        }
    }
    None
}

fn pair(a: ColKey, b: ColKey) -> (ColKey, ColKey) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[derive(Default)]
struct Dsu {
    parents: HashMap<ColKey, ColKey>,
}

impl Dsu {
    fn find(&mut self, k: ColKey) -> ColKey {
        let p = self
            .parents
            .entry(k.clone())
            .or_insert_with(|| k.clone())
            .clone();
        if p == k {
            return k;
        }
        let root = self.find(p);
        self.parents.insert(k, root.clone());
        root
    }

    fn union(&mut self, a: ColKey, b: ColKey) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
            self.parents.insert(hi, lo);
        }
    }

    fn keys(&self) -> Vec<ColKey> {
        let mut v: Vec<ColKey> = self.parents.keys().cloned().collect();
        v.sort_unstable();
        v
    }
}

fn col_key(c: &ColumnRef, bindings: &[String]) -> Option<ColKey> {
    let qual = c.table.as_ref()?.to_lowercase();
    let pos = bindings.iter().position(|b| *b == qual)?;
    Some((pos, c.column.to_lowercase()))
}

fn key_ref(k: &ColKey, bindings: &[String]) -> ColumnRef {
    ColumnRef {
        table: Some(bindings[k.0].clone()),
        column: k.1.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;
    use tqs_sql::render::render_stmt;

    fn rewritten(sql: &str, faults: &FaultSet) -> (String, Vec<FaultKind>) {
        let mut stmt = parse_stmt(sql).unwrap();
        let fired = rewrite(&mut stmt, faults);
        (render_stmt(&stmt), fired)
    }

    fn stmt() -> SelectStmt {
        parse_stmt(
            "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.k = t2.k \
             LEFT OUTER JOIN t3 ON t2.k = t3.k WHERE t1.a > 3 AND t2.b = t3.c",
        )
        .unwrap()
    }

    #[test]
    fn conjunct_split_is_top_level_only() {
        let s = stmt();
        let conjuncts = s.where_clause.as_ref().unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 2);
        assert_eq!(qualifiers(conjuncts[0]), Some(vec!["t1".to_string()]));
        assert_eq!(
            qualifiers(conjuncts[1]),
            Some(vec!["t2".to_string(), "t3".to_string()])
        );
    }

    #[test]
    fn column_equality_recognizer() {
        let s = stmt();
        let on = s.from.joins[0].on.as_ref().unwrap();
        let (a, b) = as_column_equality(on).expect("t1.k = t2.k");
        assert_eq!(a.table.as_deref(), Some("t1"));
        assert_eq!(b.table.as_deref(), Some("t2"));
        let not_eq = s.where_clause.as_ref().unwrap().conjuncts()[0];
        assert!(as_column_equality(not_eq).is_none());
    }

    #[test]
    fn pushdown_targets_earliest_available_inner_join() {
        let (sql, fired) = rewritten(
            "SELECT t1.a FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.k = t3.k \
             WHERE t1.a > 3 AND t3.c = 1",
            &FaultSet::none(),
        );
        assert!(fired.is_empty());
        // t1.a > 3 is available at join 0; t3.c = 1 only at join 1.
        let lower = sql.to_lowercase();
        assert!(
            lower.contains("on t1.k = t2.k and t1.a > 3"),
            "t1 conjunct should move into the first ON: {sql}"
        );
        // Pushdown empties the WHERE; inference then repopulates it with the
        // entailed transitive equality (and nothing else).
        assert!(
            lower.contains("where t1.k = t3.k") && lower.matches("t1.a > 3").count() == 1,
            "WHERE should hold only the inferred equality: {sql}"
        );
        assert!(
            lower.contains("on t2.k = t3.k and t3.c = 1"),
            "t3 conjunct should move into the second ON: {sql}"
        );
    }

    #[test]
    fn pushdown_never_crosses_into_outer_join_on_pristine_builds() {
        let (sql, fired) = rewritten(
            "SELECT t1.a FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k WHERE t2.b = 1",
            &FaultSet::none(),
        );
        assert!(fired.is_empty());
        let lower = sql.to_lowercase();
        assert!(
            lower.contains("where t2.b = 1"),
            "padded-side conjunct must stay in WHERE: {sql}"
        );
    }

    #[test]
    fn fault_32_pushes_into_the_outer_join_on_clause() {
        let (sql, fired) = rewritten(
            "SELECT t1.a FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k WHERE t2.b = 1",
            &FaultSet::of(&[FaultKind::OptPushdownPastOuterJoin]),
        );
        assert_eq!(fired, vec![FaultKind::OptPushdownPastOuterJoin]);
        let lower = sql.to_lowercase();
        assert!(
            lower.contains("on t1.k = t2.k and t2.b = 1") && !lower.contains("where"),
            "conjunct should land in the LEFT OUTER ON: {sql}"
        );
    }

    #[test]
    fn fault_31_fires_only_for_non_inner_targets() {
        // Base-side conjunct, only join is LEFT OUTER: pristine keeps it in
        // WHERE, fault 31 drops the INNER precondition and pushes it.
        let (sql, fired) = rewritten(
            "SELECT t1.a FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k WHERE t1.a > 3",
            &FaultSet::of(&[FaultKind::OptDroppedRewritePrecondition]),
        );
        assert_eq!(fired, vec![FaultKind::OptDroppedRewritePrecondition]);
        assert!(sql.to_lowercase().contains("on t1.k = t2.k and t1.a > 3"));

        // All-inner chain: the faulty path agrees with pristine, so the
        // fault must stay silent.
        let (_, fired) = rewritten(
            "SELECT t1.a FROM t1 JOIN t2 ON t1.k = t2.k WHERE t1.a > 3",
            &FaultSet::of(&[FaultKind::OptDroppedRewritePrecondition]),
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn join_condition_inference_closes_equality_chains() {
        let (sql, _) = rewritten(
            "SELECT t1.a FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.k = t3.k",
            &FaultSet::none(),
        );
        assert!(
            sql.to_lowercase().contains("where t1.k = t3.k"),
            "transitive equality should be materialized in WHERE (an ON \
             placement would constrain join reordering): {sql}"
        );
    }

    #[test]
    fn rewrite_is_idempotent() {
        for sql in [
            "SELECT t1.a FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.k = t3.k \
             WHERE t1.a > 3 AND t3.c = 1 AND t2.b = t3.c",
            "SELECT t1.a FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k WHERE t2.b = 1 AND t1.a > 3",
        ] {
            for faults in [
                FaultSet::none(),
                FaultSet::of(&[
                    FaultKind::OptDroppedRewritePrecondition,
                    FaultKind::OptPushdownPastOuterJoin,
                ]),
            ] {
                let mut stmt = parse_stmt(sql).unwrap();
                rewrite(&mut stmt, &faults);
                let once = render_stmt(&stmt);
                rewrite(&mut stmt, &faults);
                let twice = render_stmt(&stmt);
                assert_eq!(once, twice, "rewrite must be idempotent for {sql}");
            }
        }
    }
}
