//! The pluggable test-oracle layer.
//!
//! Every way of deciding "is this result wrong?" is an [`Oracle`]: a named
//! checker that takes one statement and one backend and returns a
//! [`OracleVerdict`]. The orchestrator ([`crate::tqs::TqsSession`]), the
//! baseline runner ([`crate::baselines`]), the campaign fleet and the
//! oracle-driven minimizer ([`crate::bugs::minimize_with_oracle`]) all drive
//! `&mut dyn Oracle`, so oracles compose, swap and compare uniformly:
//!
//! * [`TqsOracle`] — the paper's oracle: every hint-forced transformed query
//!   must match the wide-table ground truth.
//! * [`PlanDiffOracle`] — the `TQS!GT` ablation: transformed plans must agree
//!   with the default plan (no ground truth).
//! * [`PqsOracle`], [`TlpOracle`], [`NorecOracle`] — the §5.2 baselines.
//! * [`DifferentialOracle`] — cross-engine differential testing: the same
//!   statement on two *different engine builds* (e.g. the row engine vs the
//!   columnar engine) must agree. This oracle owns a second connector, which
//!   is impossible to express as a per-query check against a single backend —
//!   the reason the oracle layer is a trait and not an enum.
//! * [`PlanSpaceOracle`] — every plan of the statement's enumerated
//!   optimizer plan space must agree with the ground truth, execute with the
//!   hint set the enumerator intended, and respect cost sanity.

use crate::backend::DbmsConnector;
use crate::bugs::{make_report, transformed_sql, BugReport, OracleKind};
use crate::dsg::DsgDatabase;
use crate::hintgen::hint_sets_for;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use tqs_engine::{FaultKind, FaultSet};
use tqs_optimizer::PlanSpace;
use tqs_schema::{GroundTruth, GroundTruthEvaluator};
use tqs_sql::ast::{BinOp, Expr, SelectItem, SelectStmt};
use tqs_sql::hints::{Hint, HintSet};
use tqs_sql::value::Value;
use tqs_storage::{ResultSet, Row};

/// Outcome of checking one statement with one oracle.
#[derive(Debug, Clone)]
pub enum OracleVerdict {
    /// The statement was executed and no bug was observed.
    Pass,
    /// The oracle could not apply to this statement (unsupported shape,
    /// execution failure); the statement does not count as tested.
    Skip,
    /// One report per observed violation, ready for the [`crate::bugs::BugLog`].
    Bugs(Vec<BugReport>),
}

impl OracleVerdict {
    /// Did the oracle actually exercise the statement (pass or bug)?
    pub fn executed(&self) -> bool {
        !matches!(self, OracleVerdict::Skip)
    }

    /// The reports of a bug verdict; empty for pass/skip. For drivers (like
    /// corpus re-verification) that only care *which* bugs fired, not
    /// whether the statement counted as tested.
    pub fn into_bugs(self) -> Vec<BugReport> {
        match self {
            OracleVerdict::Bugs(reports) => reports,
            OracleVerdict::Pass | OracleVerdict::Skip => Vec::new(),
        }
    }
}

/// A pluggable test oracle: one statement in, a verdict out.
pub trait Oracle {
    /// Display name ("TQS", "PQS", "differential-vs-…"); used as the `tool`
    /// column of [`crate::tqs::RunStats`].
    fn name(&self) -> &str;

    /// Check `stmt` against `conn`. Implementations may execute the
    /// statement any number of times, on any plans, or on backends they own.
    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict;

    /// Cumulative count of optimizer-enumerated plans this oracle has
    /// executed — the paper's coverage unit. Plan-unaware oracles report 0
    /// (their hint-set transformations are counted elsewhere).
    fn plans_enumerated(&self) -> usize {
        0
    }

    /// A new unit of work starts: the statements checked from here on are a
    /// fresh hunted statement and its reducer candidates. Oracles that
    /// remember answers across checks drop them here, which bounds what they
    /// hold by one unit. The session loop and the campaign cell loop call it
    /// before each unit; the default does nothing.
    fn begin_unit(&mut self) {}
}

/// One result judgement made for an oracle, on the books: its duration goes
/// to the `core.oracle.judge.ns` histogram and the rows on both sides to the
/// `core.oracle.judge.rows` counter. The clock is read only while telemetry
/// is on.
pub(crate) fn judged(a: &ResultSet, b: &ResultSet, judge: impl FnOnce() -> bool) -> bool {
    if !tqs_telemetry::enabled() {
        return judge();
    }
    let t0 = std::time::Instant::now();
    let verdict = judge();
    tqs_telemetry::histogram!("core.oracle.judge.ns").record(t0.elapsed().as_nanos() as u64);
    tqs_telemetry::counter!("core.oracle.judge.rows").add((a.row_count() + b.row_count()) as u64);
    verdict
}

/// [`GroundTruth::matches`] as a [`judged`] call.
pub(crate) fn truth_matches(truth: &GroundTruth, observed: &ResultSet) -> bool {
    judged(&truth.result, observed, || truth.matches(observed))
}

/// [`ResultSet::same_bag`] as a [`judged`] call.
pub(crate) fn same_bag(a: &ResultSet, b: &ResultSet) -> bool {
    judged(a, b, || a.same_bag(b))
}

/// The TQS oracle (Algorithm 1 lines 11-15): transform the query into every
/// hint set of the backend's dialect, execute each, and verify every result
/// against the wide-table ground truth.
pub struct TqsOracle {
    dsg: Arc<DsgDatabase>,
}

impl TqsOracle {
    /// Standalone constructor (clones the DSG once). Prefer
    /// [`shared`](Self::shared) when the caller already holds the database
    /// behind an `Arc` — a session or a worker fleet should not duplicate it.
    pub fn new(dsg: &DsgDatabase) -> Self {
        Self::shared(Arc::new(dsg.clone()))
    }

    /// Zero-copy constructor over a shared DSG database.
    pub fn shared(dsg: Arc<DsgDatabase>) -> Self {
        TqsOracle { dsg }
    }
}

impl Oracle for TqsOracle {
    fn name(&self) -> &str {
        "TQS"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let gt = GroundTruthEvaluator::new(&self.dsg.db);
        let truth = match gt.evaluate(stmt) {
            Ok(t) => t,
            Err(_) => return OracleVerdict::Skip,
        };
        let info = conn.info();
        let mut executed = false;
        let mut reports = Vec::new();
        for hs in hint_sets_for(info.dialect, stmt) {
            let out = match conn.execute_with_hints(stmt, &hs) {
                Ok(o) => o,
                Err(_) => continue,
            };
            executed = true;
            if !truth_matches(&truth, &out.result) {
                reports.push(make_report(
                    &info.name,
                    OracleKind::GroundTruth,
                    stmt,
                    &hs,
                    &truth.result,
                    &out.result,
                    out.fired.clone(),
                ));
            }
        }
        match (executed, reports.is_empty()) {
            (false, _) => OracleVerdict::Skip,
            (true, true) => OracleVerdict::Pass,
            (true, false) => OracleVerdict::Bugs(reports),
        }
    }
}

/// The `TQS!GT` ablation oracle: the same hint-set transformations, but
/// verified against the default plan's result instead of the ground truth —
/// plain single-engine differential testing. It keeps the DSG only to skip
/// the statements whose ground truth is unsupported, so the ablation runs on
/// exactly the same query population as full TQS.
pub struct PlanDiffOracle {
    dsg: Arc<DsgDatabase>,
}

impl PlanDiffOracle {
    /// Standalone constructor (clones the DSG once); see
    /// [`shared`](Self::shared).
    pub fn new(dsg: &DsgDatabase) -> Self {
        Self::shared(Arc::new(dsg.clone()))
    }

    /// Zero-copy constructor over a shared DSG database.
    pub fn shared(dsg: Arc<DsgDatabase>) -> Self {
        PlanDiffOracle { dsg }
    }
}

impl Oracle for PlanDiffOracle {
    fn name(&self) -> &str {
        "TQS!GT"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let gt = GroundTruthEvaluator::new(&self.dsg.db);
        if gt.evaluate(stmt).is_err() {
            return OracleVerdict::Skip;
        }
        let info = conn.info();
        let mut outcomes = Vec::new();
        for hs in hint_sets_for(info.dialect, stmt) {
            if let Ok(out) = conn.execute_with_hints(stmt, &hs) {
                outcomes.push((hs, out));
            }
        }
        if outcomes.is_empty() {
            return OracleVerdict::Skip;
        }
        let (_, base) = &outcomes[0];
        let mut reports = Vec::new();
        for (hs, out) in &outcomes[1..] {
            if !same_bag(&base.result, &out.result) {
                reports.push(make_report(
                    &info.name,
                    OracleKind::Differential,
                    stmt,
                    hs,
                    &base.result,
                    &out.result,
                    out.fired.clone(),
                ));
            }
        }
        if reports.is_empty() {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Bugs(reports)
        }
    }
}

/// The PQS oracle: the rows of the base table satisfying the pivot predicate
/// must appear in the result (checked in bag subset mode against the stored
/// table, no ground-truth machinery). Only *pivot-shaped* statements — a
/// single-table scan projecting plain columns, no subqueries/aggregates/
/// DISTINCT/LIMIT — are checkable; anything else is skipped, which is
/// exactly why PQS's structural diversity stays low in Figure 8.
pub struct PqsOracle {
    dsg: Arc<DsgDatabase>,
}

impl PqsOracle {
    /// Standalone constructor (clones the DSG once); see
    /// [`shared`](Self::shared).
    pub fn new(dsg: &DsgDatabase) -> Self {
        Self::shared(Arc::new(dsg.clone()))
    }

    /// Zero-copy constructor over a shared DSG database.
    pub fn shared(dsg: Arc<DsgDatabase>) -> Self {
        PqsOracle { dsg }
    }

    /// Is the statement a pivot query the PQS check is sound for?
    fn pivot_shaped(stmt: &SelectStmt) -> bool {
        let base = stmt.from.base.binding();
        stmt.from.joins.is_empty()
            && !stmt.has_subquery()
            && !stmt.has_aggregates()
            && stmt.group_by.is_empty()
            && !stmt.distinct
            && stmt.limit.is_none()
            && stmt.items.iter().all(|i| match i {
                SelectItem::Expr {
                    expr: Expr::Column(c),
                    ..
                } => c
                    .table
                    .as_ref()
                    .map(|t| t.eq_ignore_ascii_case(base))
                    .unwrap_or(true),
                _ => false,
            })
    }
}

impl Oracle for PqsOracle {
    fn name(&self) -> &str {
        "PQS"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        if !Self::pivot_shaped(stmt) {
            return OracleVerdict::Skip;
        }
        let out = match conn.execute(stmt) {
            Ok(o) => o,
            Err(_) => return OracleVerdict::Skip,
        };
        let base = &stmt.from.base.table;
        let Some(table) = self.dsg.db.catalog.table(base) else {
            return OracleVerdict::Skip;
        };
        // Recompute the expected pivot values straight from the stored table.
        let expected_rows: Vec<Row> = table
            .rows
            .iter()
            .filter(|r| match &stmt.where_clause {
                Some(w) => {
                    let scope: Vec<(String, String, Value)> = table
                        .columns
                        .iter()
                        .zip(&r.values)
                        .map(|(c, v)| (base.clone(), c.name.clone(), v.clone()))
                        .collect();
                    let resolver = tqs_sql::eval::ScopedRow::new(&scope);
                    tqs_sql::eval::eval_predicate(w, &resolver, &tqs_sql::eval::NoSubqueries)
                        .ok()
                        .flatten()
                        == Some(true)
                }
                None => true,
            })
            .map(|r| {
                Row::new(
                    stmt.items
                        .iter()
                        .filter_map(|i| match i {
                            SelectItem::Expr {
                                expr: Expr::Column(c),
                                ..
                            } => table.column_index(&c.column).map(|idx| r.get(idx).clone()),
                            _ => None,
                        })
                        .collect(),
                )
            })
            .collect();
        let expected = ResultSet {
            columns: vec![],
            rows: expected_rows,
        };
        if !judged(&expected, &out.result, || expected.subset_of(&out.result)) {
            OracleVerdict::Bugs(vec![make_report(
                &conn.info().name,
                OracleKind::PivotMissing,
                stmt,
                &HintSet::new("default"),
                &expected,
                &out.result,
                out.fired.clone(),
            )])
        } else {
            OracleVerdict::Pass
        }
    }
}

/// The TLP oracle: |Q ∧ p| + |Q ∧ ¬p| + |Q ∧ p IS NULL| must equal |Q|.
pub struct TlpOracle;

impl Oracle for TlpOracle {
    fn name(&self) -> &str {
        "TLP"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let base = match conn.execute(stmt) {
            Ok(o) => o,
            Err(_) => return OracleVerdict::Skip,
        };
        // partitioning predicate over a projected column
        let Some(col) = stmt.items.iter().find_map(|i| match i {
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => Some(c.clone()),
            _ => None,
        }) else {
            return OracleVerdict::Skip;
        };
        let p = Expr::binary(
            BinOp::Ge,
            Expr::Column(col.clone()),
            Expr::lit(Value::Int(0)),
        );
        let mut total = 0usize;
        for variant in [p.clone(), Expr::not(p.clone()), Expr::is_null(p.clone())] {
            let mut q = stmt.clone();
            q.where_clause = Some(match &q.where_clause {
                Some(w) => Expr::and(w.clone(), variant),
                None => variant,
            });
            let out = match conn.execute(&q) {
                Ok(o) => o,
                Err(_) => return OracleVerdict::Skip,
            };
            total += out.result.row_count();
        }
        if total != base.result.row_count() {
            OracleVerdict::Bugs(vec![make_report(
                &conn.info().name,
                OracleKind::Partitioning,
                stmt,
                &HintSet::new("tlp-partitions"),
                &base.result,
                &base.result,
                base.fired.clone(),
            )])
        } else {
            OracleVerdict::Pass
        }
    }
}

/// The NoRec oracle: the optimized query and a de-optimized execution (nested
/// loops, no semi-join transformation, no materialization) must agree.
pub struct NorecOracle;

impl Oracle for NorecOracle {
    fn name(&self) -> &str {
        "NoRec"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let optimized = match conn.execute(stmt) {
            Ok(o) => o,
            Err(_) => return OracleVerdict::Skip,
        };
        let tables: Vec<String> = stmt
            .from
            .tables()
            .iter()
            .map(|t| t.binding().to_string())
            .collect();
        let deopt = HintSet::new("norec-deopt")
            .with_hint(Hint::NlJoin(tables))
            .with_hint(Hint::NoSemiJoin)
            .with_hint(Hint::Materialization(false));
        let reference = match conn.execute_with_hints(stmt, &deopt) {
            Ok(o) => o,
            Err(_) => return OracleVerdict::Skip,
        };
        if !same_bag(&optimized.result, &reference.result) {
            let mut fired = optimized.fired.clone();
            fired.extend(reference.fired.clone());
            OracleVerdict::Bugs(vec![make_report(
                &conn.info().name,
                OracleKind::NonOptimizingRewrite,
                stmt,
                &deopt,
                &reference.result,
                &optimized.result,
                fired,
            )])
        } else {
            OracleVerdict::Pass
        }
    }
}

/// The plan-space oracle: enumerate the statement's full optimizer plan
/// space ([`tqs_optimizer::PlanSpace`]) and require **every** enumerated plan
/// to agree with the wide-table ground truth (and therefore with every other
/// plan). Three further checks ride along:
///
/// * **Hint conformance** — the hint set a plan executed with must be the
///   one the enumerator intended for it (the memo-collision fault seeds
///   violations).
/// * **Cost sanity** — the cost-model pick (`plans[0]`) must not cost more
///   than any other enumerated plan. On a pristine optimizer this is
///   guaranteed (the DP minimizes over the entire order space and algorithm
///   factors are ≥ 1); the inverted-comparison and stale-cardinality faults
///   make it observable without a single wrong row.
/// * **Baseline anchor** — the *original* statement runs once, unhinted,
///   under the label `plan-baseline`. Every report carries that label and
///   the original SQL, so corpus re-verification replays resolve (the
///   recorded trace always contains the anchor), while the plan identity
///   travels in the report's fingerprint.
///
/// Which optimizer fault complement to enumerate under comes from the
/// backend itself ([`crate::backend::ConnectorInfo::seeded_faults`]): faulty
/// builds get the seeded [`FaultKind::OPTIMIZER`] complement, pristine
/// builds a pristine enumerator. Enumeration is a pure function of
/// `(statement, catalog, fault set)`, so hunt, witness replay and
/// re-verification walk the identical space.
pub struct PlanSpaceOracle {
    dsg: Arc<DsgDatabase>,
    /// Explicit fault-complement override; `None` derives it from the
    /// connector's `seeded_faults` flag.
    faults: Option<FaultSet>,
    plans: usize,
}

/// The hint label anchoring every plan-space report (and the one unhinted
/// execution of the original statement) in witness traces.
pub const PLAN_BASELINE_LABEL: &str = "plan-baseline";

impl PlanSpaceOracle {
    /// Standalone constructor (clones the DSG once); see
    /// [`shared`](Self::shared).
    pub fn new(dsg: &DsgDatabase) -> Self {
        Self::shared(Arc::new(dsg.clone()))
    }

    /// Zero-copy constructor over a shared DSG database.
    pub fn shared(dsg: Arc<DsgDatabase>) -> Self {
        PlanSpaceOracle {
            dsg,
            faults: None,
            plans: 0,
        }
    }

    /// Enumerate under an explicit optimizer fault complement instead of
    /// deriving it from the connector (tests and triage drivers).
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = Some(faults);
        self
    }

    /// A copy of `hints` re-labelled with the baseline anchor, so the report
    /// keeps the plan's hint text while re-verification keys on the anchor.
    fn anchored(hints: &HintSet) -> HintSet {
        let mut hs = hints.clone();
        hs.label = PLAN_BASELINE_LABEL.to_string();
        hs
    }
}

impl Oracle for PlanSpaceOracle {
    fn name(&self) -> &str {
        "TQS-plan-space"
    }

    fn plans_enumerated(&self) -> usize {
        self.plans
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let gt = GroundTruthEvaluator::new(&self.dsg.db);
        let truth = match gt.evaluate(stmt) {
            Ok(t) => t,
            Err(_) => return OracleVerdict::Skip,
        };
        let info = conn.info();
        let seeded = match &self.faults {
            Some(f) => f.clone(),
            None if info.seeded_faults => FaultSet::of(&FaultKind::OPTIMIZER),
            None => FaultSet::none(),
        };
        let space = PlanSpace::enumerate(stmt, &self.dsg.db.catalog, &seeded);

        // Baseline anchor: the original statement, unhinted. A backend that
        // cannot execute it cannot be meaningfully plan-hunted.
        let baseline_hints = HintSet::new(PLAN_BASELINE_LABEL);
        let Ok(baseline) = conn.execute_with_hints(stmt, &baseline_hints) else {
            return OracleVerdict::Skip;
        };
        let mut reports = Vec::new();
        if !truth_matches(&truth, &baseline.result) {
            reports.push(make_report(
                &info.name,
                OracleKind::PlanSpace,
                stmt,
                &baseline_hints,
                &truth.result,
                &baseline.result,
                baseline.fired.clone(),
            ));
        }

        for plan in &space.plans {
            let Ok(out) = conn.execute_with_hints(&space.stmt, &plan.hints) else {
                continue;
            };
            self.plans += 1;
            if !truth_matches(&truth, &out.result) {
                let mut fired = out.fired.clone();
                fired.extend(space.rewrite_fired.iter().copied());
                fired.extend(plan.fired.iter().copied());
                let mut r = make_report(
                    &info.name,
                    OracleKind::PlanSpace,
                    stmt,
                    &Self::anchored(&plan.hints),
                    &truth.result,
                    &out.result,
                    fired,
                );
                r.set_fingerprint(Some(plan.fingerprint));
                reports.push(r);
            } else if plan.hints != plan.intended {
                // Right rows, wrong plan: the memo served another plan's
                // hint set. A result-blind conformance violation.
                let mut r = make_report(
                    &info.name,
                    OracleKind::PlanSpace,
                    stmt,
                    &Self::anchored(&plan.intended),
                    &truth.result,
                    &out.result,
                    plan.fired.clone(),
                );
                r.set_fingerprint(Some(plan.fingerprint));
                reports.push(r);
            }
        }

        // Cost sanity: the pick must be the cheapest member of its own space.
        if space.best().cost > space.min_cost() + 1e-9 {
            let best = space.best();
            let mut r = make_report(
                &info.name,
                OracleKind::PlanSpace,
                stmt,
                &Self::anchored(&best.hints),
                &truth.result,
                &truth.result,
                space.cost_fired.clone(),
            );
            r.set_fingerprint(Some(best.fingerprint));
            reports.push(r);
        }

        if reports.is_empty() {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Bugs(reports)
        }
    }
}

/// Cross-engine differential testing: execute every hint-set transformation
/// of the statement on the backend under test *and* on one or more
/// independent engine builds owned by the oracle, and report any divergence
/// from the panel's expected answer.
///
/// With pairwise-disjoint fault complements (row engine's Table 4 faults,
/// the columnar engine's batching faults, the disk engine's storage faults) a
/// pristine reference acts as a ground-truth stand-in. Only the references
/// vote on the expected answer: it is the result the largest group of them
/// agrees on, ties breaking toward the earlier reference; the build under
/// test has no vote. A panel of two references ([`DifferentialOracle::panel`],
/// the campaign's three-way cells) therefore always expects `references[0]`'s
/// answer — the pair agrees or ties — and `references[1]` can only veto a hint
/// set, by failing; their pairwise judgement is made and has no effect. This
/// is the first oracle that *requires* the trait: it owns whole connectors,
/// not just a per-query check.
///
/// **Panel memo.** A reference's answer is a function of its catalog, the
/// statement and the hint set, so the panel is asked once per transformed
/// statement text (session switches plus the hinted statement, as a report's
/// `transformed_sql` shows it) per unit of work. A repeat executes only the build under test
/// and judges it against the remembered answer. An answer is remembered only
/// when every reference returned one, so a failed or cancelled reference is
/// asked again. [`Oracle::begin_unit`] and [`reference_mut`](Self::reference_mut)
/// — the one sanctioned way to change a reference — forget everything.
pub struct DifferentialOracle {
    references: Vec<Box<dyn DbmsConnector>>,
    name: String,
    memo: HashMap<String, PanelAnswer>,
}

/// What the panel answered for one transformed statement.
struct PanelAnswer {
    /// The result the vote picked.
    result: ResultSet,
    /// Every reference's `fired`, in reference order.
    fired: Vec<FaultKind>,
}

impl DifferentialOracle {
    /// `reference` must already have the catalog under test loaded (e.g. via
    /// [`crate::backend::EngineConnector::loaded`]).
    pub fn new(reference: impl DbmsConnector + 'static) -> Self {
        Self::boxed(Box::new(reference))
    }

    pub fn boxed(reference: Box<dyn DbmsConnector>) -> Self {
        Self::panel(vec![reference])
    }

    /// A panel of reference connectors (each with the catalog already
    /// loaded). The build under test is reported when its answer diverges
    /// from the result the largest group of references agrees on (ties
    /// break toward the earlier reference; see the type docs).
    pub fn panel(references: Vec<Box<dyn DbmsConnector>>) -> Self {
        assert!(
            !references.is_empty(),
            "a panel needs at least one reference"
        );
        let name = format!(
            "differential-vs-{}",
            references
                .iter()
                .map(|r| r.info().name)
                .collect::<Vec<_>>()
                .join("+")
        );
        DifferentialOracle {
            references,
            name,
            memo: HashMap::new(),
        }
    }

    /// The first reference connector (e.g. to load a catalog or inspect a
    /// trace). Forgets every remembered panel answer, since the caller may
    /// change what the reference would answer.
    pub fn reference_mut(&mut self) -> &mut dyn DbmsConnector {
        self.memo.clear();
        self.references[0].as_mut()
    }

    /// Execute the transformed statement on every reference and vote; `None`
    /// when a reference fails.
    fn ask(
        references: &mut [Box<dyn DbmsConnector>],
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Option<PanelAnswer> {
        tqs_telemetry::counter!("core.oracle.panel.executions").incr();
        let mut refs = Vec::with_capacity(references.len());
        for r in references.iter_mut() {
            refs.push(r.execute_with_hints(stmt, hints).ok()?);
        }
        // The result the largest group of references agrees on (ties break
        // toward the earlier one). A result agrees with itself, and each
        // pair is judged once.
        let mut majority = vec![1usize; refs.len()];
        for i in 0..refs.len() {
            for j in i + 1..refs.len() {
                if same_bag(&refs[i].result, &refs[j].result) {
                    majority[i] += 1;
                    majority[j] += 1;
                }
            }
        }
        let best = (0..refs.len())
            .max_by_key(|&i| (majority[i], std::cmp::Reverse(i)))
            .expect("non-empty panel");
        let fired = refs.iter().flat_map(|r| r.fired.iter().copied()).collect();
        Some(PanelAnswer {
            result: refs.swap_remove(best).result,
            fired,
        })
    }
}

impl Oracle for DifferentialOracle {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_unit(&mut self) {
        self.memo.clear();
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let info = conn.info();
        let mut executed = false;
        let mut reports = Vec::new();
        for hs in hint_sets_for(info.dialect, stmt) {
            let Ok(out) = conn.execute_with_hints(stmt, &hs) else {
                continue;
            };
            let expected = match self.memo.entry(transformed_sql(stmt, &hs)) {
                Entry::Occupied(hit) => {
                    tqs_telemetry::counter!("core.oracle.panel.memo_hits").incr();
                    hit.into_mut()
                }
                Entry::Vacant(miss) => match Self::ask(&mut self.references, stmt, &hs) {
                    Some(answer) => miss.insert(answer),
                    None => continue,
                },
            };
            executed = true;
            if !same_bag(&expected.result, &out.result) {
                let mut fired = out.fired.clone();
                fired.extend(expected.fired.iter().copied());
                reports.push(make_report(
                    &info.name,
                    OracleKind::CrossEngine,
                    stmt,
                    &hs,
                    &expected.result,
                    &out.result,
                    fired,
                ));
            }
        }
        match (executed, reports.is_empty()) {
            (false, _) => OracleVerdict::Skip,
            (true, true) => OracleVerdict::Pass,
            (true, false) => OracleVerdict::Bugs(reports),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ConnectorError, ConnectorInfo, EngineKind, SqlOutcome};
    use crate::dsg::{DsgConfig, WideSource};
    use tqs_engine::ProfileId;
    use tqs_schema::NoiseConfig;
    use tqs_sql::parser::parse_stmt;
    use tqs_storage::widegen::ShoppingConfig;

    fn dsg() -> DsgDatabase {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 120,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: 11,
                max_injections: 12,
            }),
        })
    }

    fn sample_queries(d: &DsgDatabase, n: usize) -> Vec<SelectStmt> {
        use crate::dsg::{QueryGenerator, UniformScorer};
        let mut gen = QueryGenerator::new(Default::default());
        (0..n)
            .map(|_| gen.generate(d, None, &UniformScorer))
            .collect()
    }

    #[test]
    fn tqs_oracle_passes_on_pristine_and_flags_faulty() {
        let d = dsg();
        let mut oracle = TqsOracle::new(&d);
        let mut pristine = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d);
        let mut faulty = EngineKind::Row.faulty(ProfileId::MysqlLike).loaded(&d);
        let mut bugs = 0;
        for stmt in sample_queries(&d, 60) {
            if let OracleVerdict::Bugs(r) = oracle.check(&stmt, &mut pristine) {
                panic!("false positive on pristine: {r:#?}");
            }
            if let OracleVerdict::Bugs(r) = oracle.check(&stmt, &mut faulty) {
                bugs += r.len();
            }
        }
        assert!(bugs > 0, "TQS oracle found nothing on a faulty build");
        assert_eq!(oracle.name(), "TQS");
    }

    #[test]
    fn baseline_oracles_are_sound_on_pristine_builds() {
        let d = dsg();
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::TidbLike, &d);
        let mut oracles: Vec<Box<dyn Oracle>> = vec![
            Box::new(PqsOracle::new(&d)),
            Box::new(TlpOracle),
            Box::new(NorecOracle),
            Box::new(PlanDiffOracle::new(&d)),
        ];
        for stmt in sample_queries(&d, 30) {
            for o in oracles.iter_mut() {
                if let OracleVerdict::Bugs(r) = o.check(&stmt, &mut conn) {
                    panic!("{} false positive: {r:#?}", o.name());
                }
            }
        }
    }

    #[test]
    fn differential_oracle_passes_when_both_engines_are_pristine() {
        let d = dsg();
        let mut oracle = DifferentialOracle::new(
            EngineKind::Columnar.connect_pristine(ProfileId::MysqlLike, &d),
        );
        assert!(oracle.name().contains("columnar"));
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d);
        let mut executed = 0;
        for stmt in sample_queries(&d, 40) {
            match oracle.check(&stmt, &mut conn) {
                OracleVerdict::Bugs(r) => panic!("pristine engines diverged: {r:#?}"),
                OracleVerdict::Pass => executed += 1,
                OracleVerdict::Skip => {}
            }
        }
        assert!(executed > 20, "only {executed} statements executed");
    }

    #[test]
    fn three_way_panel_is_sound_on_pristine_and_flags_a_faulty_disk_build() {
        let d = dsg();
        let panel = || {
            DifferentialOracle::panel(vec![
                Box::new(EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d))
                    as Box<dyn DbmsConnector>,
                Box::new(EngineKind::Columnar.connect_pristine(ProfileId::MysqlLike, &d)),
            ])
        };
        let mut oracle = panel();
        assert!(oracle.name().contains('+'));
        // Sound on a pristine disk build...
        let mut pristine = EngineKind::Disk.connect_pristine(ProfileId::MysqlLike, &d);
        let mut executed = 0;
        for stmt in sample_queries(&d, 40) {
            match oracle.check(&stmt, &mut pristine) {
                OracleVerdict::Bugs(r) => panic!("pristine engines diverged: {r:#?}"),
                OracleVerdict::Pass => executed += 1,
                OracleVerdict::Skip => {}
            }
        }
        assert!(executed > 20, "only {executed} statements executed");
        // ...and the faulty disk build diverges from the panel's answer.
        let mut oracle = panel();
        let mut faulty = EngineKind::Disk.faulty(ProfileId::MysqlLike).loaded(&d);
        let mut bugs = Vec::new();
        for stmt in sample_queries(&d, 120) {
            if let OracleVerdict::Bugs(r) = oracle.check(&stmt, &mut faulty) {
                bugs.extend(r);
            }
        }
        assert!(!bugs.is_empty(), "three-way panel never fired");
        assert!(bugs
            .iter()
            .flat_map(|b| &b.fired)
            .all(|f| f.dbms() == "Disk"));
    }

    /// A reference that gives every statement the same answer.
    struct Stub(Result<SqlOutcome, ConnectorError>);

    impl DbmsConnector for Stub {
        fn info(&self) -> ConnectorInfo {
            ConnectorInfo {
                name: "stub".into(),
                version: "0".into(),
                dialect: ProfileId::MysqlLike,
                seeded_faults: false,
            }
        }

        fn load_catalog(&mut self, _: &tqs_storage::Catalog) -> Result<(), ConnectorError> {
            Ok(())
        }

        fn execute_with_hints(
            &mut self,
            _: &SelectStmt,
            _: &HintSet,
        ) -> Result<SqlOutcome, ConnectorError> {
            self.0.clone()
        }

        fn explain(&mut self, _: &SelectStmt) -> Result<String, ConnectorError> {
            Err(ConnectorError::new("stub"))
        }
    }

    type ReportFields = (String, usize, usize, Vec<FaultKind>);

    /// A verdict's reports, `None` for a skip.
    fn reports_of(v: &OracleVerdict) -> Option<Vec<ReportFields>> {
        match v {
            OracleVerdict::Skip => None,
            OracleVerdict::Pass => Some(Vec::new()),
            OracleVerdict::Bugs(r) => Some(
                r.iter()
                    .map(|b| {
                        let sql = b.transformed_sql.clone();
                        (sql, b.expected_rows, b.observed_rows, b.fired.clone())
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn only_the_first_of_two_references_decides_and_the_second_can_only_veto() {
        let d = dsg();
        let row = || EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d);
        let stub = |answer| Box::new(Stub(answer)) as Box<dyn DbmsConnector>;
        let mut odd = ResultSet::new(vec!["stub".into()]);
        odd.rows.push(Row::new(vec![Value::Int(-424_242)]));
        let odd = Ok(SqlOutcome {
            result: odd,
            fired: Vec::new(),
        });
        let mut alone = DifferentialOracle::new(row());
        let mut stub_second = DifferentialOracle::panel(vec![Box::new(row()), stub(odd.clone())]);
        let mut stub_first = DifferentialOracle::panel(vec![stub(odd), Box::new(row())]);
        let mut veto = DifferentialOracle::panel(vec![
            Box::new(row()),
            stub(Err(ConnectorError::new("down"))),
        ]);
        let mut faulty = EngineKind::Disk.faulty(ProfileId::MysqlLike).loaded(&d);
        let mut bugs = 0;
        for stmt in sample_queries(&d, 120) {
            let expected = reports_of(&alone.check(&stmt, &mut faulty));
            bugs += expected.as_ref().map_or(0, Vec::len);
            // A different bag from the second reference ties the vote, and
            // the tie goes to the first: the verdict is the first's alone.
            assert_eq!(reports_of(&stub_second.check(&stmt, &mut faulty)), expected);
            // With the stub first, its answer is the expected one.
            match stub_first.check(&stmt, &mut faulty) {
                OracleVerdict::Bugs(r) => assert!(r.iter().all(|b| b.expected_rows == 1)),
                v => assert!(!v.executed() && expected.is_none(), "{v:?}"),
            }
            // A failing second reference skips every hint set.
            assert!(matches!(
                veto.check(&stmt, &mut faulty),
                OracleVerdict::Skip
            ));
        }
        assert!(bugs > 0, "the faulty disk build never diverged");
    }

    #[test]
    fn oracle_driven_minimizer_shrinks_a_cross_engine_reproducer() {
        let d = dsg();
        let mut oracle =
            DifferentialOracle::new(EngineKind::Columnar.connect_pristine(ProfileId::TidbLike, &d));
        let mut conn = EngineKind::Row.faulty(ProfileId::TidbLike).loaded(&d);
        for stmt in sample_queries(&d, 120) {
            if matches!(oracle.check(&stmt, &mut conn), OracleVerdict::Bugs(_)) {
                let minimized = crate::bugs::minimize_with_oracle(&stmt, &mut oracle, &mut conn);
                assert!(minimized.from.joins.len() <= stmt.from.joins.len());
                assert!(matches!(
                    oracle.check(&minimized, &mut conn),
                    OracleVerdict::Bugs(_)
                ));
                return;
            }
        }
        panic!("cross-engine differential oracle never fired on a faulty build");
    }

    #[test]
    fn verdict_executed_flag() {
        assert!(OracleVerdict::Pass.executed());
        assert!(OracleVerdict::Bugs(Vec::new()).executed());
        assert!(!OracleVerdict::Skip.executed());
    }

    #[test]
    fn tlp_skips_aggregates_without_projected_columns() {
        let d = dsg();
        let mut conn = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d);
        let table = &d.db.metas[0].name;
        let stmt = parse_stmt(&format!("SELECT COUNT(*) AS c FROM {table}")).unwrap();
        assert!(matches!(
            TlpOracle.check(&stmt, &mut conn),
            OracleVerdict::Skip
        ));
    }
}
