//! Bug reports, the bug log (with root-cause de-duplication) and the
//! C-Reduce-style test-case minimizer.

use crate::backend::DbmsConnector;
use crate::oracle::{Oracle, OracleVerdict};
use tqs_engine::FaultKind;
use tqs_sql::ast::{Expr, SelectItem, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_sql::render::render_stmt;
use tqs_storage::ResultSet;

/// How a bug was established — the verdict class a report carries. The
/// checking logic itself lives behind the [`Oracle`] trait
/// (see [`crate::oracle`]); this enum only labels the evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Result set differs from the wide-table ground truth.
    GroundTruth,
    /// Two physical plans of the same query disagree (differential testing).
    Differential,
    /// Two engine builds disagree on the same statement (cross-engine
    /// differential testing).
    CrossEngine,
    /// A pivot row that must appear in the result is missing (PQS).
    PivotMissing,
    /// Ternary partitioning counts do not add up (TLP).
    Partitioning,
    /// Optimized vs non-optimizing rewrite disagree (NoRec).
    NonOptimizingRewrite,
    /// A plan from the enumerated plan space disagrees with the ground truth
    /// or the rest of the space, fails hint conformance, or violates cost
    /// sanity (the cost-model pick costing more than another enumerated
    /// plan).
    PlanSpace,
    /// A mutation workload (DML + transactions) left the database in a state
    /// that disagrees with the delta-maintained ground truth.
    Mutation,
    /// The harness itself panicked while hunting a cell. The report carries
    /// the panic payload (in `sql`) and the cell id (in `hint_label`); it is
    /// an incident record, not an engine bug, and reverification always
    /// classifies it Stale.
    HarnessPanic,
}

/// One detected logic bug.
#[derive(Debug, Clone)]
pub struct BugReport {
    pub dbms: String,
    pub oracle: OracleKind,
    pub sql: String,
    pub transformed_sql: String,
    pub hint_label: String,
    pub expected_rows: usize,
    pub observed_rows: usize,
    /// Root-cause classification (the engine's fired faults — the analogue of
    /// the paper's developer analysis; empty when the oracle itself was the
    /// only witness).
    pub fired: Vec<FaultKind>,
    /// Minimized reproducer, if the reducer was run.
    pub minimized_sql: Option<String>,
    /// Canonical plan-graph fingerprint of the failing query
    /// ([`tqs_graph::plangraph::plan_fingerprint`]), stamped through
    /// [`keyed_on_graph`](Self::keyed_on_graph) by whoever holds the query
    /// graph (the session loop, the campaign cell loop). `None` when no
    /// fingerprint was computed — de-duplication then falls back to the
    /// hint label ([`cause_key`](Self::cause_key)).
    ///
    /// Key-relevant fields (`dbms`, `fired`, `hint_label`, this one) feed the
    /// memoized dedup keys; code that mutates them after a key was read must
    /// reset [`keys`](Self::keys) (or go through
    /// [`with_fingerprint`](Self::with_fingerprint), which does).
    pub fingerprint: Option<u64>,
    /// Lazily memoized dedup keys — campaign-wide triage calls
    /// [`cause_key`](Self::cause_key)/[`class_key`](Self::class_key) once per
    /// *sighting*, and at fleet throughput re-`format!`ing them per
    /// divergence dominated triage allocation.
    pub keys: KeyCache,
}

/// Lazily computed [`BugReport`] dedup keys. Opaque on purpose: resetting it
/// to `KeyCache::default()` is the only outside operation, for callers that
/// mutate a report's key-relevant fields in place.
#[derive(Debug, Clone, Default)]
pub struct KeyCache {
    cause: std::sync::OnceLock<String>,
    class: std::sync::OnceLock<String>,
}

impl BugReport {
    /// Attach the canonical plan-graph fingerprint of the failing query.
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.set_fingerprint(Some(fingerprint));
        self
    }

    /// The one bug-keying rule, shared by the session loop and the campaign
    /// cell loop: key the report on `graph_fp`, the
    /// [`graph_fingerprint`](tqs_graph::plangraph::graph_fingerprint) of the
    /// failing statement's query graph. A report that arrives pre-stamped
    /// (the plan-space oracle stamps the plan's fingerprint) keeps it folded
    /// in, so the class key separates (structure, plan) pairs.
    pub fn keyed_on_graph(self, graph_fp: u64) -> Self {
        let combined = self.fingerprint.map(|pf| pf ^ graph_fp).unwrap_or(graph_fp);
        self.with_fingerprint(combined)
    }

    /// Set (or clear) the fingerprint in place, dropping the memoized keys it
    /// feeds — the sanctioned way to re-key an existing report.
    pub fn set_fingerprint(&mut self, fingerprint: Option<u64>) {
        self.fingerprint = fingerprint;
        self.keys = KeyCache::default();
    }

    fn fault_labels(&self) -> String {
        let faults: Vec<String> = self.fired.iter().map(|f| format!("{f:?}")).collect();
        faults.join(",")
    }

    /// The bug-*class* key a fleet deduplicates on: the build name plus the
    /// build-independent [`cause_key`](Self::cause_key) — structurally, so
    /// the two can never drift apart. Two hint sets tripping the same fault
    /// on isomorphic queries are one class, while the same fault on a
    /// structurally different plan stays a separate class. Without a
    /// stamped fingerprint it is the coarse `dbms|faults|hint_label`.
    /// Computed once per report.
    pub fn class_key(&self) -> &str {
        self.keys
            .class
            .get_or_init(|| format!("{}|{}", self.dbms, self.cause_key()))
    }

    /// Build-independent root cause: root-cause faults plus the canonical
    /// plan-graph fingerprint (falling back to the hint label when no
    /// fingerprint was stamped) — [`class_key`](Self::class_key) without the
    /// build name. Re-verification matches live re-executions of a corpus
    /// class against the recorded report with it, so a class keeps its
    /// identity across engine builds of the same profile (faulty vs
    /// fault-free) whose connector names differ. Computed once per report.
    pub fn cause_key(&self) -> &str {
        self.keys.cause.get_or_init(|| match self.fingerprint {
            Some(fp) => format!("{}|plan:{fp:016x}", self.fault_labels()),
            None => format!("{}|{}", self.fault_labels(), self.hint_label),
        })
    }

    /// The bug *type* identifiers (Table 4 granularity): one entry per
    /// root-cause fault, or the oracle when no fault provenance exists.
    pub fn bug_types(&self) -> Vec<String> {
        if self.fired.is_empty() {
            vec![format!("{:?}", self.oracle)]
        } else {
            self.fired.iter().map(|f| format!("{f:?}")).collect()
        }
    }

    /// A single combined label (used in report listings).
    pub fn bug_type(&self) -> String {
        self.bug_types().join("+")
    }
}

/// The accumulating bug log with de-duplication.
#[derive(Debug, Clone, Default)]
pub struct BugLog {
    pub reports: Vec<BugReport>,
    seen_signatures: std::collections::HashSet<String>,
}

impl BugLog {
    pub fn new() -> Self {
        BugLog::default()
    }

    /// Add a report unless its bug class ([`BugReport::class_key`]) is
    /// already logged: keyed on the plan fingerprint when one was stamped,
    /// on the hint label otherwise. Returns true when the report was new.
    pub fn push(&mut self, report: BugReport) -> bool {
        if self.seen_signatures.contains(report.class_key()) {
            return false;
        }
        self.seen_signatures.insert(report.class_key().to_string());
        self.reports.push(report);
        true
    }

    pub fn bug_count(&self) -> usize {
        self.reports.len()
    }

    /// Distinct bug types (root causes): each implicated fault counts once,
    /// matching the granularity of the paper's Table 4.
    pub fn bug_types(&self) -> Vec<String> {
        let mut t: Vec<String> = self.reports.iter().flat_map(|r| r.bug_types()).collect();
        t.sort();
        t.dedup();
        t
    }

    pub fn bug_type_count(&self) -> usize {
        self.bug_types().len()
    }

    /// Distinct fault kinds implicated across all reports.
    pub fn implicated_faults(&self) -> Vec<FaultKind> {
        let mut f: Vec<FaultKind> = self.reports.iter().flat_map(|r| r.fired.clone()).collect();
        f.sort();
        f.dedup();
        f
    }
}

/// The reducer, driven by an oracle: repeatedly try to drop joins,
/// predicates and projections while `oracle` keeps returning a bug verdict
/// for the candidate on `conn`. Works with *any* [`Oracle`] implementation —
/// ground truth, cross-engine differential, or a baseline.
///
/// `stmt` must be a statement `oracle` has just reported bugs for on `conn`:
/// the reducer does not check it again, and only its candidates are checked.
pub fn minimize_with_oracle(
    stmt: &SelectStmt,
    oracle: &mut dyn Oracle,
    conn: &mut dyn DbmsConnector,
) -> SelectStmt {
    let mut still_fails = |candidate: &SelectStmt| -> bool {
        matches!(oracle.check(candidate, conn), OracleVerdict::Bugs(_))
    };
    let mut current = stmt.clone();
    let mut progress = true;
    while progress {
        progress = false;
        // 1. try dropping the last join
        if !current.from.joins.is_empty() {
            let mut candidate = current.clone();
            let removed = candidate.from.joins.pop().unwrap();
            let removed_binding = removed.table.binding().to_string();
            strip_binding_references(&mut candidate, &removed_binding);
            if !candidate.items.is_empty() && still_fails(&candidate) {
                current = candidate;
                progress = true;
                continue;
            }
        }
        // 2. try dropping the WHERE clause
        if current.where_clause.is_some() {
            let mut candidate = current.clone();
            candidate.where_clause = None;
            if still_fails(&candidate) {
                current = candidate;
                progress = true;
                continue;
            }
        }
        // 3. try dropping GROUP BY / aggregation
        if !current.group_by.is_empty() {
            let mut candidate = current.clone();
            candidate.group_by.clear();
            candidate.items.retain(|i| !i.is_aggregate());
            if !candidate.items.is_empty() && still_fails(&candidate) {
                current = candidate;
                progress = true;
                continue;
            }
        }
        // 4. try shrinking the projection to one column
        if current.items.len() > 1 {
            let mut candidate = current.clone();
            candidate.items.truncate(1);
            if still_fails(&candidate) {
                current = candidate;
                progress = true;
            }
        }
    }
    current
}

fn strip_binding_references(stmt: &mut SelectStmt, binding: &str) {
    let refers = |e: &Expr| {
        e.column_refs().iter().any(|c| {
            c.table
                .as_ref()
                .map(|t| t.eq_ignore_ascii_case(binding))
                .unwrap_or(false)
        })
    };
    stmt.items.retain(|i| match i {
        SelectItem::Expr { expr, .. } => !refers(expr),
        SelectItem::Aggregate {
            arg: Some(expr), ..
        } => !refers(expr),
        _ => true,
    });
    if let Some(w) = &stmt.where_clause {
        if refers(w) {
            stmt.where_clause = None;
        }
    }
    stmt.group_by.retain(|g| !refers(g));
}

/// The exact text a DBMS executes for `stmt` under `hints`: the session
/// switches, one per line, then the statement with the hints spliced in.
fn transformed_sql(stmt: &SelectStmt, hints: &HintSet) -> String {
    let mut transformed = stmt.clone();
    transformed.hints.extend(hints.hints.iter().cloned());
    let mut text: String = hints.switches.iter().map(|s| format!("{s}\n")).collect();
    text.push_str(&render_stmt(&transformed));
    text
}

/// Build a bug report from a mismatch.
pub fn make_report(
    dbms: &str,
    oracle: OracleKind,
    stmt: &SelectStmt,
    hints: &HintSet,
    expected: &ResultSet,
    observed: &ResultSet,
    fired: Vec<FaultKind>,
) -> BugReport {
    BugReport {
        dbms: dbms.to_string(),
        oracle,
        sql: render_stmt(stmt),
        transformed_sql: transformed_sql(stmt, hints),
        hint_label: hints.label.clone(),
        expected_rows: expected.row_count(),
        observed_rows: observed.row_count(),
        fired,
        minimized_sql: None,
        fingerprint: None,
        keys: KeyCache::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;
    use tqs_storage::ResultSet;

    fn report(fired: Vec<FaultKind>, hint: &str) -> BugReport {
        let stmt = parse_stmt("SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a").unwrap();
        make_report(
            "MySQL-like",
            OracleKind::GroundTruth,
            &stmt,
            &HintSet::new(hint),
            &ResultSet::new(vec!["a".into()]),
            &ResultSet::new(vec!["a".into()]),
            fired,
        )
    }

    #[test]
    fn bug_log_deduplicates_by_signature() {
        let mut log = BugLog::new();
        assert!(log.push(report(
            vec![FaultKind::HashJoinNullMatchesEmpty],
            "hash-join"
        )));
        assert!(!log.push(report(
            vec![FaultKind::HashJoinNullMatchesEmpty],
            "hash-join"
        )));
        assert!(log.push(report(
            vec![FaultKind::HashJoinNullMatchesEmpty],
            "merge-join"
        )));
        assert!(log.push(report(vec![FaultKind::MergeJoinDropsLastRun], "merge-join")));
        assert_eq!(log.bug_count(), 3);
        // two distinct root causes → two bug types
        assert_eq!(log.bug_type_count(), 2);
        assert_eq!(log.implicated_faults().len(), 2);
    }

    #[test]
    fn plan_fingerprint_refines_and_collapses_classes() {
        let mut log = BugLog::new();
        // Same fault through two hint sets on isomorphic plans: one class.
        assert!(log.push(
            report(vec![FaultKind::MergeJoinDropsLastRun], "merge-join").with_fingerprint(0xA1)
        ));
        assert!(!log.push(
            report(vec![FaultKind::MergeJoinDropsLastRun], "stream-agg").with_fingerprint(0xA1)
        ));
        // Same fault and hint on a structurally different plan: a new class.
        assert!(log.push(
            report(vec![FaultKind::MergeJoinDropsLastRun], "merge-join").with_fingerprint(0xB2)
        ));
        assert_eq!(log.bug_count(), 2);
        // Without a fingerprint the hint label keys the class.
        let coarse = report(vec![FaultKind::MergeJoinDropsLastRun], "merge-join");
        assert_eq!(
            coarse.class_key(),
            "MySQL-like|MergeJoinDropsLastRun|merge-join"
        );
        assert!(log.push(coarse));
    }

    #[test]
    fn class_key_embeds_the_fingerprint() {
        let r = report(vec![FaultKind::HashJoinNullMatchesEmpty], "hash-join")
            .with_fingerprint(0xDEAD_BEEF);
        assert!(r.class_key().ends_with("|plan:00000000deadbeef"));
        assert!(r.class_key().contains("HashJoinNullMatchesEmpty"));
        assert!(!r.class_key().contains("hash-join"), "hint label dropped");
    }

    #[test]
    fn bug_type_falls_back_to_oracle_without_provenance() {
        let r = report(vec![], "default");
        assert_eq!(r.bug_type(), "GroundTruth");
        assert!(r.transformed_sql.contains("SELECT"));
    }

    #[test]
    fn report_rendering_contains_hints_and_switches() {
        let stmt = parse_stmt("SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a").unwrap();
        let hints = HintSet::new("merge")
            .with_hint(tqs_sql::hints::Hint::MergeJoin(vec![
                "t1".into(),
                "t2".into(),
            ]))
            .with_switch(tqs_sql::hints::SessionSwitch::off(
                tqs_sql::hints::SwitchName::Materialization,
            ));
        let r = make_report(
            "TiDB-like",
            OracleKind::Differential,
            &stmt,
            &hints,
            &ResultSet::new(vec![]),
            &ResultSet::new(vec![]),
            vec![],
        );
        assert!(r.transformed_sql.contains("MERGE_JOIN(t1, t2)"));
        assert!(r.transformed_sql.contains("materialization=off"));
        assert_eq!(r.hint_label, "merge");
    }
}
