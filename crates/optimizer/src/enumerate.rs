//! Join-order enumeration, plan selection and hint-forced physical plans.
//!
//! For one statement the enumerator produces a bounded **plan space**: every
//! member is a concrete, deterministically executable physical plan, pinned
//! onto the engines through their own hint machinery (`JOIN_ORDER` plus
//! per-join algorithm hints with explicit table lists). The space is built in
//! three steps:
//!
//! 1. **Valid orders.** A DFS enumerates left-deep join orders under the
//!    engine's own join-order rule ([`tqs_engine::join_prerequisites`]:
//!    INNER / CROSS / LEFT OUTER only; every ON clause may reference only its
//!    own binding and already-joined ones), capped at `MAX_ORDERS`. A
//!    statement whose identity order fails the check, or with more than 32
//!    joins, is kept un-reordered with no order hint.
//! 2. **Cost-based pick.** The pick is the cheapest of the enumerated valid
//!    orders under [`CostModel::order_cost`] — the first strictly cheaper
//!    one in DFS order, so the identity order wins ties. The cost model
//!    floors every intermediate cardinality at one row, which makes a joined
//!    set's cardinality depend on the order that built it; the pick is
//!    therefore taken over whole orders, with the same function that costs
//!    the rest of the space, and on a pristine build it is the space's
//!    cheapest plan by construction. Two seeded faults live here:
//!    [`FaultKind::OptInvertedCostComparison`] flips the comparison (the
//!    pick is the *worst* order), and
//!    [`FaultKind::OptStaleCardinalityAfterPruning`] ranks with raw catalog
//!    row counts while reporting predicate-pruned costs.
//! 3. **Selection + memo.** Candidates (orders × per-join algorithm
//!    assignments × subquery-strategy variants) are ranked by cost; the space
//!    keeps the cost-model pick, the `TOP_K` cheapest, and
//!    `SAMPLE_PLANS` seeded random draws — the seed derives from the
//!    statement text (`crate::statement_seed`), so hunt, replay and
//!    re-verification enumerate the identical subset. Hint sets are issued
//!    through a fingerprint-keyed memo; under
//!    [`FaultKind::OptHintIgnoredUnderMemoCollision`] the memo keys on only
//!    the low three fingerprint bits, silently reusing a colliding plan's
//!    hint set.

use std::collections::HashMap;

use tqs_engine::faults::{FaultKind, FaultSet};
use tqs_engine::join_prerequisites;
use tqs_sql::ast::SelectStmt;
use tqs_sql::hints::{Hint, HintSet, SemiJoinStrategy, SessionSwitch, SwitchName};
use tqs_storage::Catalog;

use crate::cost::{CostModel, RowCounts};
use crate::rewrite::rewrite;
use crate::statement_seed;

/// Cap on DFS-enumerated valid join orders per statement.
pub(crate) const MAX_ORDERS: usize = 64;
/// Plans kept by cost rank (beyond the cost-model pick itself).
pub(crate) const TOP_K: usize = 12;
/// Additional seeded random draws from the candidate set.
pub(crate) const SAMPLE_PLANS: usize = 4;

/// A join algorithm a plan can pin onto one join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanAlgo {
    /// No hint: the engine's profile default.
    Default,
    Hash,
    Merge,
    Nl,
    Index,
}

impl PlanAlgo {
    /// The non-default algorithms, in the deterministic order hint sets and
    /// assignment variants are generated in.
    pub(crate) const FORCED: [PlanAlgo; 4] = [
        PlanAlgo::Hash,
        PlanAlgo::Merge,
        PlanAlgo::Nl,
        PlanAlgo::Index,
    ];

    pub fn label(self) -> &'static str {
        match self {
            PlanAlgo::Default => "default",
            PlanAlgo::Hash => "hash",
            PlanAlgo::Merge => "merge",
            PlanAlgo::Nl => "nl",
            PlanAlgo::Index => "index",
        }
    }

    /// Cost multiplier relative to the profile-default algorithm. The exact
    /// values only need to induce a stable ranking: default is free, hash
    /// nearly so, index close behind, merge pays its sort, nested loop pays
    /// quadratically.
    pub fn factor(self) -> f64 {
        match self {
            PlanAlgo::Default => 1.0,
            PlanAlgo::Hash => 1.05,
            PlanAlgo::Index => 1.1,
            PlanAlgo::Merge => 1.25,
            PlanAlgo::Nl => 1.6,
        }
    }

    fn hint(self, tables: Vec<String>) -> Option<Hint> {
        match self {
            PlanAlgo::Default => None,
            PlanAlgo::Hash => Some(Hint::HashJoin(tables)),
            PlanAlgo::Merge => Some(Hint::MergeJoin(tables)),
            PlanAlgo::Nl => Some(Hint::NlJoin(tables)),
            PlanAlgo::Index => Some(Hint::IndexJoin(tables)),
        }
    }
}

/// How a subquery strategy steers a hint set.
type Steer = fn(HintSet) -> HintSet;

/// The subquery-strategy hint sets, in the order plans and transformed
/// queries list them: `(label, uncorrelated only, steer)`. `steer` adds the
/// strategy's switch, then its hint. The enumerator adds a row as a plan
/// variant of a statement with a subquery — an "uncorrelated only" row
/// (hint-level decorrelation) only when a subquery is uncorrelated — and
/// `tqs-core`'s `hint_sets_for` adds every row as a hint set of its own.
pub const SUBQUERY_STRATEGIES: [(&str, bool, Steer); 4] = [
    ("semijoin-materialization", false, |hs| {
        hs.with_hint(Hint::SemiJoin(Some(SemiJoinStrategy::Materialization)))
    }),
    ("no-semijoin", false, |hs| hs.with_hint(Hint::NoSemiJoin)),
    ("subquery-to-derived", true, |hs| {
        hs.with_hint(Hint::SubqueryToDerived)
    }),
    ("materialization-off", true, |hs| {
        hs.with_switch(SessionSwitch::off(SwitchName::Materialization))
            .with_hint(Hint::Materialization(false))
    }),
];

/// A subquery-strategy plan variant: a row of [`SUBQUERY_STRATEGIES`]
/// without its applicability flag.
type SubqueryVariant = (&'static str, Steer);

/// One member of a statement's plan space: the hint set that pins a join
/// order, a per-join algorithm assignment and an optional subquery strategy
/// onto an engine.
#[derive(Debug, Clone)]
pub struct EnumeratedPlan {
    /// Estimated cost (fresh row counts × algorithm factors).
    pub cost: f64,
    /// Stable plan fingerprint over (order, algorithms, subquery variant).
    pub fingerprint: u64,
    /// The hint set this plan was *supposed* to execute with.
    pub intended: HintSet,
    /// The hint set actually issued — identical to `intended` unless the
    /// memo-collision fault substituted a colliding plan's hints.
    pub hints: HintSet,
    /// Plan-level seeded faults that changed this plan (memo collisions).
    pub fired: Vec<FaultKind>,
}

impl EnumeratedPlan {
    /// The display / trace label of this plan.
    pub fn label(&self) -> String {
        format!("plan-{:016x}", self.fingerprint)
    }
}

/// The bounded plan space of one statement.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    /// The rewritten statement every plan executes.
    pub stmt: SelectStmt,
    /// Rewrite-phase seeded faults that altered the statement.
    pub rewrite_fired: Vec<FaultKind>,
    /// Selected plans; `plans[0]` is always the cost-model pick.
    pub plans: Vec<EnumeratedPlan>,
    /// Cost-phase seeded faults that changed the pick (by fresh cost).
    pub cost_fired: Vec<FaultKind>,
}

impl PlanSpace {
    /// The cost-model pick.
    pub fn best(&self) -> &EnumeratedPlan {
        &self.plans[0]
    }

    /// The cheapest reported cost across the whole space.
    pub fn min_cost(&self) -> f64 {
        self.plans
            .iter()
            .map(|p| p.cost)
            .fold(f64::INFINITY, f64::min)
    }

    /// Enumerate the plan space of `stmt`. Pure in `(stmt, catalog, faults)`:
    /// the same inputs always produce the same space, which is what lets a
    /// hunt, its witness replay and a later re-verification agree.
    pub fn enumerate(stmt: &SelectStmt, catalog: &Catalog, faults: &FaultSet) -> PlanSpace {
        let _span = tqs_telemetry::span("optimizer", "enumerate");
        let mut rewritten = stmt.clone();
        let rewrite_fired = rewrite(&mut rewritten, faults);

        let n = rewritten.from.joins.len();
        let bindings: Vec<String> = rewritten
            .from
            .tables()
            .iter()
            .map(|t| t.binding().to_string())
            .collect();
        // Per-join requirement masks from the engine's own join-order rule:
        // bit `k` set means join `k` must be placed first. `None` when the
        // engine would not reorder this statement, or when it has more joins
        // than a mask has bits; either way it runs in statement order.
        let reqs: Option<Vec<u32>> = join_prerequisites(&rewritten.from)
            .filter(|_| n <= u32::BITS as usize)
            .map(|needs| {
                needs
                    .iter()
                    .map(|ks| ks.iter().fold(0, |mask, &k| mask | 1 << k))
                    .collect()
            });
        let mut orders = match &reqs {
            Some(reqs) if n > 0 => valid_orders(reqs, n, MAX_ORDERS),
            _ => Vec::new(),
        };
        let hinted_order = !orders.is_empty();
        if orders.is_empty() {
            orders.push((0..n).collect());
        }

        let cm = CostModel::new(&rewritten, catalog);
        let pick = |active: &FaultSet| -> Vec<usize> {
            let counts = if active.contains(FaultKind::OptStaleCardinalityAfterPruning) {
                RowCounts::Stale
            } else {
                RowCounts::Fresh
            };
            let invert = active.contains(FaultKind::OptInvertedCostComparison);
            cheapest_order(&cm, &orders, counts, invert)
        };
        let pristine_pick = pick(&FaultSet::none());
        let best_order = pick(faults);
        let mut cost_fired = Vec::new();
        for f in [
            FaultKind::OptInvertedCostComparison,
            FaultKind::OptStaleCardinalityAfterPruning,
        ] {
            if faults.contains(f)
                && cm.order_cost(&pick(&FaultSet::of(&[f])), RowCounts::Fresh)
                    != cm.order_cost(&pristine_pick, RowCounts::Fresh)
            {
                cost_fired.push(f);
            }
        }

        // Candidate set: orders × algorithm assignments, plus subquery
        // variants on the identity order. The cost-model pick is candidate 0.
        let assignments = algo_assignments(n);
        let subq_variants = subquery_variants(&rewritten, catalog);
        let mut candidates: Vec<Candidate> = Vec::new();
        candidates.push(Candidate::new(
            &cm,
            &bindings,
            best_order.clone(),
            vec![PlanAlgo::Default; n],
            None,
        ));
        for order in &orders {
            for asgn in &assignments {
                candidates.push(Candidate::new(
                    &cm,
                    &bindings,
                    order.clone(),
                    asgn.clone(),
                    None,
                ));
            }
        }
        for &v in &subq_variants {
            candidates.push(Candidate::new(
                &cm,
                &bindings,
                orders[0].clone(),
                vec![PlanAlgo::Default; n],
                Some(v),
            ));
        }

        // Selection: the pick, the TOP_K cheapest, and seeded random draws.
        let mut by_cost: Vec<usize> = (1..candidates.len()).collect();
        by_cost.sort_by(|&a, &b| {
            candidates[a]
                .cost
                .total_cmp(&candidates[b].cost)
                .then(candidates[a].fingerprint.cmp(&candidates[b].fingerprint))
        });
        let mut selected: Vec<usize> = vec![0];
        selected.extend(by_cost.iter().copied().take(TOP_K));
        let mut rng = statement_seed(stmt).max(1);
        for _ in 0..SAMPLE_PLANS {
            rng = xorshift(rng);
            selected.push(1 + (rng % (candidates.len() as u64 - 1).max(1)) as usize);
        }

        // Materialize, de-duplicating by fingerprint (the pick survives — it
        // is first), then issue hint sets through the memo.
        let fault_34 = faults.contains(FaultKind::OptHintIgnoredUnderMemoCollision);
        let mut seen: Vec<u64> = Vec::new();
        let mut memo: HashMap<u64, HintSet> = HashMap::new();
        let mut plans = Vec::new();
        for idx in selected {
            let c = &candidates[idx];
            if seen.contains(&c.fingerprint) {
                continue;
            }
            seen.push(c.fingerprint);
            let mut plan = c.materialize(&bindings, hinted_order);
            let memo_key = if fault_34 {
                plan.fingerprint & 0x7
            } else {
                plan.fingerprint
            };
            match memo.get(&memo_key) {
                Some(hints) => {
                    tqs_telemetry::counter!("optimizer.enumerate.memo_hits").incr();
                    plan.hints = hints.clone();
                    if plan.hints != plan.intended {
                        plan.fired.push(FaultKind::OptHintIgnoredUnderMemoCollision);
                    }
                }
                None => {
                    tqs_telemetry::counter!("optimizer.enumerate.memo_misses").incr();
                    memo.insert(memo_key, plan.intended.clone());
                    plan.hints = plan.intended.clone();
                }
            }
            plans.push(plan);
        }

        tqs_telemetry::counter!("optimizer.enumerate.statements").incr();
        tqs_telemetry::counter!("optimizer.enumerate.plans").add(plans.len() as u64);

        PlanSpace {
            stmt: rewritten,
            rewrite_fired,
            plans,
            cost_fired,
        }
    }
}

/// An unmaterialized plan candidate: just enough to rank and de-duplicate.
struct Candidate {
    order: Vec<usize>,
    algos: Vec<PlanAlgo>,
    subquery: Option<SubqueryVariant>,
    cost: f64,
    fingerprint: u64,
}

impl Candidate {
    fn new(
        cm: &CostModel,
        bindings: &[String],
        order: Vec<usize>,
        algos: Vec<PlanAlgo>,
        subquery: Option<SubqueryVariant>,
    ) -> Candidate {
        let cost = cm.order_cost(&order, RowCounts::Fresh)
            * algos.iter().map(|a| a.factor()).product::<f64>();
        let mut key = String::new();
        key.push_str(&bindings[0]);
        for &j in &order {
            key.push(',');
            key.push_str(&bindings[j + 1]);
        }
        key.push('|');
        for a in &algos {
            key.push_str(a.label());
            key.push(',');
        }
        key.push('|');
        key.push_str(subquery.map_or("-", |(label, _)| label));
        Candidate {
            order,
            algos,
            subquery,
            cost,
            fingerprint: tqs_sql::fingerprint_hash(key.as_bytes()),
        }
    }

    fn materialize(&self, bindings: &[String], hinted_order: bool) -> EnumeratedPlan {
        let mut hs = HintSet::new(format!("plan-{:016x}", self.fingerprint));
        if hinted_order && !self.order.is_empty() {
            let order_bindings = std::iter::once(bindings[0].clone())
                .chain(self.order.iter().map(|&j| bindings[j + 1].clone()))
                .collect();
            hs = hs.with_hint(Hint::JoinOrder(order_bindings));
        }
        for algo in PlanAlgo::FORCED {
            let tables: Vec<String> = self
                .order
                .iter()
                .zip(&self.algos)
                .filter(|(_, a)| **a == algo)
                .map(|(&j, _)| bindings[j + 1].clone())
                .collect();
            if !tables.is_empty() {
                hs = hs.with_hint(algo.hint(tables).expect("forced algo has a hint"));
            }
        }
        if let Some((_, steer)) = self.subquery {
            hs = steer(hs);
        }
        EnumeratedPlan {
            cost: self.cost,
            fingerprint: self.fingerprint,
            intended: hs.clone(),
            hints: hs,
            fired: Vec::new(),
        }
    }
}

/// DFS over valid left-deep orders, ascending join index at every depth, so
/// the identity order (when valid) is generated first. A join is placeable
/// once every join its requirement mask names is already placed.
fn valid_orders(reqs: &[u32], n: usize, cap: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut placed = Vec::with_capacity(n);
    let mut mask = 0u32;
    dfs_orders(reqs, n, cap, &mut placed, &mut mask, &mut out);
    out
}

fn dfs_orders(
    reqs: &[u32],
    n: usize,
    cap: usize,
    placed: &mut Vec<usize>,
    mask: &mut u32,
    out: &mut Vec<Vec<usize>>,
) {
    if out.len() >= cap {
        return;
    }
    if placed.len() == n {
        out.push(placed.clone());
        return;
    }
    for j in 0..n {
        if *mask & (1 << j) != 0 || reqs[j] & !*mask != 0 {
            continue;
        }
        placed.push(j);
        *mask |= 1 << j;
        dfs_orders(reqs, n, cap, placed, mask, out);
        *mask &= !(1 << j);
        placed.pop();
    }
}

/// The cheapest of the enumerated `orders` under `counts`: the first strictly
/// cheaper one in DFS order, so the identity order (first when valid) wins
/// ties. `invert` flips the comparison (the inverted-cost-comparison fault:
/// the pick is the *worst* order).
fn cheapest_order(
    cm: &CostModel,
    orders: &[Vec<usize>],
    counts: RowCounts,
    invert: bool,
) -> Vec<usize> {
    let better = |a: f64, b: f64| if invert { a > b } else { a < b };
    let mut best = 0;
    let mut best_cost = cm.order_cost(&orders[0], counts);
    for (i, order) in orders.iter().enumerate().skip(1) {
        let cost = cm.order_cost(order, counts);
        if better(cost, best_cost) {
            best = i;
            best_cost = cost;
        }
    }
    orders[best].clone()
}

/// Per-join algorithm assignments: all-default, each algorithm uniformly,
/// and every single-join override (when there are at least two joins to
/// make an override distinct from the uniform assignment).
fn algo_assignments(n: usize) -> Vec<Vec<PlanAlgo>> {
    let mut out = vec![vec![PlanAlgo::Default; n]];
    if n == 0 {
        return out;
    }
    for algo in PlanAlgo::FORCED {
        out.push(vec![algo; n]);
    }
    if n >= 2 {
        for j in 0..n {
            for algo in PlanAlgo::FORCED {
                let mut asgn = vec![PlanAlgo::Default; n];
                asgn[j] = algo;
                out.push(asgn);
            }
        }
    }
    out
}

/// The subquery-strategy variants applicable to this statement.
fn subquery_variants(stmt: &SelectStmt, catalog: &Catalog) -> Vec<SubqueryVariant> {
    let mut subqueries = Vec::new();
    for e in stmt.exprs() {
        e.collect_subqueries(&mut subqueries);
    }
    if subqueries.is_empty() {
        return Vec::new();
    }
    let uncorrelated = subqueries.iter().any(|sq| {
        let own = |col: &str| {
            catalog
                .table(&sq.from.base.table)
                .map(|t| t.column_index(col).is_some())
                .unwrap_or(false)
        };
        sq.outer_column_refs(&own)
            .is_some_and(|outer| outer.is_empty())
    });
    SUBQUERY_STRATEGIES
        .iter()
        .filter(|(_, uncorrelated_only, _)| uncorrelated || !uncorrelated_only)
        .map(|&(label, _, steer)| (label, steer))
        .collect()
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_sql::value::Value;
    use tqs_storage::{Row, Table};

    fn table(name: &str, rows: usize) -> Table {
        let mut t = Table::new(
            name,
            vec![
                ColumnDef::new("k", ColumnType::Int { unsigned: false }),
                ColumnDef::new("v", ColumnType::Int { unsigned: false }),
            ],
        );
        for i in 0..rows {
            t.push_row(Row::new(vec![
                Value::Int(i as i64),
                Value::Int((i * 3) as i64),
            ]))
            .unwrap();
        }
        t
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(table("t1", 64));
        c.add_table(table("t2", 32));
        c.add_table(table("t3", 8));
        c.add_table(table("t4", 2));
        c
    }

    fn space(sql: &str, faults: &FaultSet) -> PlanSpace {
        PlanSpace::enumerate(&parse_stmt(sql).unwrap(), &catalog(), faults)
    }

    /// The `JOIN_ORDER` a plan's hint set pins, if any.
    fn join_order(p: &EnumeratedPlan) -> Option<&[String]> {
        p.intended.hints.iter().find_map(|h| match h {
            Hint::JoinOrder(order) => Some(order.as_slice()),
            _ => None,
        })
    }

    const CHAIN4: &str = "SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k \
                          JOIN t3 ON t2.k = t3.k JOIN t4 ON t3.k = t4.k";
    const STAR3: &str = "SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k \
                         JOIN t3 ON t1.k = t3.k WHERE t2.v > 1 AND t2.v < 9 AND t2.k > 0";

    #[test]
    fn four_table_join_yields_ten_distinct_plans() {
        let s = space(CHAIN4, &FaultSet::none());
        let mut fps: Vec<u64> = s.plans.iter().map(|p| p.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert!(
            fps.len() >= 10,
            "expected >= 10 distinct plans, got {}",
            fps.len()
        );
        assert!(s.rewrite_fired.is_empty() && s.cost_fired.is_empty());
    }

    /// Six pruning conjuncts floor t1 at one row, so the one-row floor on
    /// intermediate cardinalities makes a joined set's cardinality depend on
    /// the order that built it; a per-subset cost would pick an order that
    /// costs 5 here, while the space's cheapest costs 4.
    const FLOORED4: &str = "SELECT t1.k FROM t1 JOIN t2 ON t2.k = t1.k \
                            JOIN t3 ON t3.v < t1.v JOIN t4 ON t4.v < t1.v \
                            WHERE t1.v > 0 AND t1.v > 1 AND t1.v > 2 AND t1.v > 3 \
                            AND t1.v > 4 AND t1.v > 5 AND t3.v > 0 AND t4.v > 0";

    #[test]
    fn the_pick_is_the_cheapest_plan_on_pristine_builds() {
        for sql in [CHAIN4, STAR3, FLOORED4] {
            let s = space(sql, &FaultSet::none());
            assert_eq!(s.best().cost, s.min_cost(), "pick vs min for {sql}");
        }
    }

    #[test]
    fn the_pick_puts_the_small_relation_first_in_a_star_join() {
        let s = space(
            "SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k JOIN t4 ON t1.k = t4.k",
            &FaultSet::none(),
        );
        assert_eq!(
            join_order(s.best()),
            Some(&["t1", "t4", "t2"].map(String::from)[..]),
            "the 2-row t4 should join before the 32-row t2"
        );
    }

    #[test]
    fn chain_joins_admit_only_the_identity_order() {
        let s = space(CHAIN4, &FaultSet::none());
        for p in &s.plans {
            assert_eq!(
                join_order(p),
                Some(&["t1", "t2", "t3", "t4"].map(String::from)[..]),
                "chain ON availability: {p:?}"
            );
        }
    }

    #[test]
    fn inverted_cost_comparison_picks_a_worse_order_and_fires() {
        let s = space(
            STAR3,
            &FaultSet::of(&[FaultKind::OptInvertedCostComparison]),
        );
        assert_eq!(s.cost_fired, vec![FaultKind::OptInvertedCostComparison]);
        assert!(
            s.best().cost > s.min_cost() + 1e-9,
            "the inverted pick should be strictly worse than the best candidate"
        );
    }

    #[test]
    fn stale_cardinality_fires_when_pruning_flips_the_ranking() {
        // STAR3's WHERE prunes t2 (32 rows) down to 4 fresh rows — below
        // t3's 8 — so stale and fresh rankings disagree.
        let s = space(
            STAR3,
            &FaultSet::of(&[FaultKind::OptStaleCardinalityAfterPruning]),
        );
        assert_eq!(
            s.cost_fired,
            vec![FaultKind::OptStaleCardinalityAfterPruning]
        );
        assert!(s.best().cost > s.min_cost() + 1e-9);
    }

    #[test]
    fn memo_collision_reissues_a_colliding_plan_hint_set() {
        let pristine = space(CHAIN4, &FaultSet::none());
        assert!(pristine.plans.iter().all(|p| p.hints == p.intended));
        let s = space(
            CHAIN4,
            &FaultSet::of(&[FaultKind::OptHintIgnoredUnderMemoCollision]),
        );
        // >= 10 plans through 8 memo buckets: a collision is guaranteed.
        let collided: Vec<&EnumeratedPlan> =
            s.plans.iter().filter(|p| p.hints != p.intended).collect();
        assert!(
            !collided.is_empty(),
            "no memo collision in {} plans",
            s.plans.len()
        );
        for p in collided {
            assert_eq!(p.fired, vec![FaultKind::OptHintIgnoredUnderMemoCollision]);
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        for faults in [FaultSet::none(), FaultSet::of(&FaultKind::OPTIMIZER)] {
            let a = space(STAR3, &faults);
            let b = space(STAR3, &faults);
            let key = |s: &PlanSpace| {
                s.plans
                    .iter()
                    .map(|p| (p.fingerprint, p.hints.label.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&a), key(&b));
            assert_eq!(
                tqs_sql::render::render_stmt(&a.stmt),
                tqs_sql::render::render_stmt(&b.stmt)
            );
        }
    }

    #[test]
    fn subquery_statements_gain_strategy_variants() {
        let s = space(
            "SELECT t1.k FROM t1 WHERE t1.k IN (SELECT t4.k FROM t4)",
            &FaultSet::none(),
        );
        let hints: Vec<&Hint> = s.plans.iter().flat_map(|p| &p.intended.hints).collect();
        assert!(hints.contains(&&Hint::NoSemiJoin), "{hints:?}");
        assert!(
            hints.contains(&&Hint::SubqueryToDerived),
            "uncorrelated single-table subquery unlocks decorrelation: {hints:?}"
        );
    }

    #[test]
    fn more_joins_than_mask_bits_keep_the_identity_order() {
        let mut sql = String::from("SELECT t0.k FROM t0");
        for i in 1..=33 {
            sql.push_str(&format!(" JOIN t{i} ON t{}.k = t{i}.k", i - 1));
        }
        let s = PlanSpace::enumerate(
            &parse_stmt(&sql).unwrap(),
            &Catalog::new(),
            &FaultSet::none(),
        );
        for p in &s.plans {
            assert_eq!(join_order(p), None);
        }
    }

    #[test]
    fn non_reorderable_statements_get_no_order_hint() {
        let s = space(
            "SELECT t1.k FROM t1 WHERE t1.k IN (SELECT t4.k FROM t4)",
            &FaultSet::none(),
        );
        for p in &s.plans {
            assert_eq!(join_order(p), None);
        }
    }
}
