//! Physical plan representation and EXPLAIN output for the simulated DBMS.

use tqs_sql::ast::{FromClause, JoinType};
use tqs_sql::hints::SemiJoinStrategy;

/// Physical join algorithms implemented by the executor. The set mirrors the
/// algorithms named in the paper's bug listings: (block) nested loop, hashed
/// join buffers (BNLH), batched key access (BKA/BKAH), classic hash join,
/// sort-merge join and index lookup join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    NestedLoop,
    BlockNestedLoop,
    BlockNestedLoopHashed,
    BatchedKeyAccess,
    HashJoin,
    SortMergeJoin,
    IndexJoin,
}

impl JoinAlgo {
    pub const ALL: [JoinAlgo; 7] = [
        JoinAlgo::NestedLoop,
        JoinAlgo::BlockNestedLoop,
        JoinAlgo::BlockNestedLoopHashed,
        JoinAlgo::BatchedKeyAccess,
        JoinAlgo::HashJoin,
        JoinAlgo::SortMergeJoin,
        JoinAlgo::IndexJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            JoinAlgo::NestedLoop => "nested loop join",
            JoinAlgo::BlockNestedLoop => "block nested loop join",
            JoinAlgo::BlockNestedLoopHashed => "block nested loop hash join (BNLH)",
            JoinAlgo::BatchedKeyAccess => "batched key access join (BKA)",
            JoinAlgo::HashJoin => "hash join",
            JoinAlgo::SortMergeJoin => "sort-merge join",
            JoinAlgo::IndexJoin => "index lookup join",
        }
    }

    /// Short operator label used in query profiles and telemetry
    /// (`join.hash`, `join.sort_merge`, ...).
    pub fn profile_label(self) -> &'static str {
        match self {
            JoinAlgo::NestedLoop => "join.nested_loop",
            JoinAlgo::BlockNestedLoop => "join.block_nested_loop",
            JoinAlgo::BlockNestedLoopHashed => "join.bnlh",
            JoinAlgo::BatchedKeyAccess => "join.bka",
            JoinAlgo::HashJoin => "join.hash",
            JoinAlgo::SortMergeJoin => "join.sort_merge",
            JoinAlgo::IndexJoin => "join.index",
        }
    }

    /// Does this algorithm match keys via a hash/encoded key rather than by
    /// direct pairwise comparison?
    pub fn uses_hashed_keys(self) -> bool {
        matches!(
            self,
            JoinAlgo::BlockNestedLoopHashed
                | JoinAlgo::BatchedKeyAccess
                | JoinAlgo::HashJoin
                | JoinAlgo::IndexJoin
        )
    }
}

/// One physical join step of a left-deep plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalJoin {
    /// Binding (alias or table name) of the right-hand input.
    pub right_binding: String,
    pub join_type: JoinType,
    pub algo: JoinAlgo,
    /// True when the outer-join simplification pass rewrote an outer join
    /// into this (inner) join.
    pub simplified_from_outer: bool,
    /// Join buffer capacity in rows, if a join buffer/cache is used.
    pub buffer_rows: Option<usize>,
}

/// Strategy chosen for IN/EXISTS subqueries in the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryPlan {
    /// Evaluate the subquery per outer row (the safe default).
    DirectPerRow,
    /// Materialize the subquery result once and probe it.
    Materialize,
    /// Transform into a semi/anti join with the given strategy.
    SemiJoinTransform(SemiJoinStrategy),
    /// Rewrite the subquery into a derived table joined with hash join.
    SubqueryToDerived,
}

impl SubqueryPlan {
    pub fn name(self) -> String {
        match self {
            SubqueryPlan::DirectPerRow => "direct".to_string(),
            SubqueryPlan::Materialize => "materialization".to_string(),
            SubqueryPlan::SemiJoinTransform(s) => format!("semijoin({})", s.name()),
            SubqueryPlan::SubqueryToDerived => "subquery_to_derived".to_string(),
        }
    }
}

/// A complete physical plan: the base scan binding, the ordered join steps,
/// and the subquery strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub base_binding: String,
    pub joins: Vec<PhysicalJoin>,
    pub subquery_plan: SubqueryPlan,
    /// Free-form notes from optimizer passes (simplifications, hint effects),
    /// surfaced through EXPLAIN.
    pub notes: Vec<String>,
}

impl PhysicalPlan {
    /// Render an EXPLAIN-style description.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("-> scan {}\n", self.base_binding));
        for j in &self.joins {
            out.push_str(&format!(
                "-> {} {} ({}{}{})\n",
                j.join_type.sql().to_lowercase(),
                j.right_binding,
                j.algo.name(),
                if j.simplified_from_outer {
                    ", simplified from outer join"
                } else {
                    ""
                },
                match j.buffer_rows {
                    Some(n) => format!(", join buffer {n} rows"),
                    None => String::new(),
                },
            ));
        }
        out.push_str(&format!("-> subqueries: {}\n", self.subquery_plan.name()));
        for n in &self.notes {
            out.push_str(&format!("   note: {n}\n"));
        }
        out
    }

    /// Short signature used for differential-testing comparisons ("did the
    /// hint set actually change the plan?").
    pub fn signature(&self) -> String {
        let mut s = self.base_binding.clone();
        for j in &self.joins {
            s.push_str(&format!(
                "|{}:{:?}:{:?}{}",
                j.right_binding,
                j.join_type,
                j.algo,
                if j.simplified_from_outer {
                    ":simpl"
                } else {
                    ""
                }
            ));
        }
        s.push_str(&format!("|{}", self.subquery_plan.name()));
        s
    }
}

/// The join-order rule, written once for the engine's `JOIN_ORDER` hint and
/// the optimizer's enumerator. `JOIN_ORDER` may reorder only INNER, CROSS and
/// LEFT OUTER joins, and the base table always stays first. For each join of
/// `from`, the result lists the other joins its ON clause references: an
/// order is valid when each of them comes before it. `None` when the joins
/// may not be reordered at all: a join of another type, or an ON clause that
/// names a binding the FROM clause lacks (every order fails then, identity
/// included).
pub fn join_prerequisites(from: &FromClause) -> Option<Vec<Vec<usize>>> {
    let reorderable =
        |t: JoinType| matches!(t, JoinType::Inner | JoinType::Cross | JoinType::LeftOuter);
    if !from.joins.iter().all(|j| reorderable(j.join_type)) {
        return None;
    }
    let bindings: Vec<&str> = std::iter::once(from.base.binding())
        .chain(from.joins.iter().map(|j| j.table.binding()))
        .collect();
    from.joins
        .iter()
        .enumerate()
        .map(|(i, join)| {
            let mut needs = Vec::new();
            for c in join.on.iter().flat_map(|on| on.column_refs()) {
                let Some(t) = &c.table else { continue };
                let pos = bindings.iter().position(|b| b.eq_ignore_ascii_case(t))?;
                if pos != 0 && pos != i + 1 && !needs.contains(&(pos - 1)) {
                    needs.push(pos - 1);
                }
            }
            Some(needs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PhysicalPlan {
        PhysicalPlan {
            base_binding: "t1".into(),
            joins: vec![
                PhysicalJoin {
                    right_binding: "t2".into(),
                    join_type: JoinType::Inner,
                    algo: JoinAlgo::HashJoin,
                    simplified_from_outer: true,
                    buffer_rows: None,
                },
                PhysicalJoin {
                    right_binding: "t3".into(),
                    join_type: JoinType::LeftOuter,
                    algo: JoinAlgo::BlockNestedLoop,
                    simplified_from_outer: false,
                    buffer_rows: Some(128),
                },
            ],
            subquery_plan: SubqueryPlan::SemiJoinTransform(SemiJoinStrategy::Materialization),
            notes: vec!["outer join simplified".into()],
        }
    }

    #[test]
    fn explain_mentions_algorithms_and_notes() {
        let e = plan().explain();
        assert!(e.contains("hash join"));
        assert!(e.contains("block nested loop join"));
        assert!(e.contains("join buffer 128 rows"));
        assert!(e.contains("simplified from outer join"));
        assert!(e.contains("semijoin(MATERIALIZATION)"));
        assert!(e.contains("note: outer join simplified"));
    }

    #[test]
    fn signatures_distinguish_plans() {
        let a = plan();
        let mut b = plan();
        b.joins[0].algo = JoinAlgo::SortMergeJoin;
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), plan().signature());
    }

    #[test]
    fn join_prerequisites_name_the_joins_each_on_clause_needs() {
        let needs = |sql: &str| join_prerequisites(&tqs_sql::parser::parse_stmt(sql).unwrap().from);
        assert_eq!(
            needs("SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k AND a.k = c.k"),
            Some(vec![vec![], vec![0]])
        );
        assert_eq!(
            needs("SELECT * FROM a LEFT OUTER JOIN b ON c.k = b.k CROSS JOIN c"),
            Some(vec![vec![1], vec![]])
        );
        assert_eq!(needs("SELECT * FROM a JOIN b ON z.k = b.k"), None);
        assert_eq!(
            needs("SELECT * FROM a RIGHT OUTER JOIN b ON a.k = b.k"),
            None
        );
    }

    #[test]
    fn algo_metadata() {
        assert_eq!(JoinAlgo::ALL.len(), 7);
        assert!(JoinAlgo::HashJoin.uses_hashed_keys());
        assert!(JoinAlgo::IndexJoin.uses_hashed_keys());
        assert!(!JoinAlgo::NestedLoop.uses_hashed_keys());
        assert!(!JoinAlgo::SortMergeJoin.uses_hashed_keys());
    }
}
