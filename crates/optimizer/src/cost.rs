//! The cardinality/cost model behind join enumeration.
//!
//! Deliberately textbook-simple — catalog row counts, independence-assumption
//! selectivities — because the point is not estimation quality but a *total,
//! deterministic order* on plans that the enumerator can pick from and the
//! `PlanSpaceOracle` can sanity-check. Two requirements shape it:
//!
//! 1. **One cost function.** [`CostModel::order_cost`] costs whole left-deep
//!    orders, and it is the only cost: it ranks the space and it picks the
//!    order. Each join step multiplies in the next relation's rows and one
//!    selectivity factor per predicate edge it closes, then floors the
//!    intermediate cardinality at one row. The floor makes a joined set's
//!    cardinality depend on the order that built it, so no per-subset
//!    cardinality gives a subset DP optimal substructure; the pick is taken
//!    over whole orders instead, and on a pristine build it is the space's
//!    cheapest plan.
//! 2. **Two row-count tables.** The *stale* table holds raw catalog row
//!    counts; the *fresh* table discounts them by the single-binding
//!    predicates the rewrite phase collected (halving per conjunct, floored
//!    at one row). Pristine enumeration ranks and reports with fresh counts;
//!    the [`FaultKind::OptStaleCardinalityAfterPruning`] seed ranks with the
//!    stale table while still reporting fresh costs — the classic
//!    forgot-to-invalidate-statistics optimizer bug, observable as a
//!    cost-sanity violation without executing a single plan.

use tqs_sql::ast::{BinOp, Expr, SelectStmt};
use tqs_storage::Catalog;

use crate::rewrite::{as_column_equality, qualifiers};

/// Row-count discount per single-binding predicate conjunct.
const PRUNE_FACTOR: f64 = 0.5;
/// Selectivity of a non-equi comparison edge between two relations.
const NONEQUI_SEL: f64 = 0.5;
/// Fallback row count for a binding whose table is missing from the catalog.
const UNKNOWN_ROWS: f64 = 100.0;

/// Which row-count table a cost evaluation reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowCounts {
    /// Raw catalog row counts, ignoring predicate pruning.
    Stale,
    /// Catalog counts discounted by single-binding predicates.
    Fresh,
}

/// The per-statement cost model: one slot per chain position (base = 0,
/// join i = i + 1), plus the predicate edges between positions.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    stale: Vec<f64>,
    fresh: Vec<f64>,
    /// Equality edges between two distinct positions (from ON clauses).
    equi: Vec<(usize, usize)>,
    /// Non-equality comparison edges between two distinct positions.
    nonequi: Vec<(usize, usize)>,
}

impl CostModel {
    /// Build the model for a (rewritten) statement against the catalog.
    pub(crate) fn new(stmt: &SelectStmt, catalog: &Catalog) -> CostModel {
        let tables = stmt.from.tables();
        let bindings: Vec<String> = tables.iter().map(|t| t.binding().to_lowercase()).collect();
        let position = |qual: &str| bindings.iter().position(|b| b == qual);

        let mut stale = Vec::with_capacity(bindings.len());
        for table in &tables {
            stale.push(
                catalog
                    .table(&table.table)
                    .map(|t| t.row_count() as f64)
                    .unwrap_or(UNKNOWN_ROWS)
                    .max(1.0),
            );
        }

        // Collect predicate conjuncts from WHERE and every ON clause.
        let mut single_binding = vec![0u32; bindings.len()];
        let mut equi = Vec::new();
        let mut nonequi = Vec::new();
        let conjuncts = stmt
            .where_clause
            .iter()
            .chain(stmt.from.joins.iter().filter_map(|j| j.on.as_ref()))
            .flat_map(Expr::conjuncts);
        for conjunct in conjuncts {
            let Some(quals) = qualifiers(conjunct) else {
                continue;
            };
            let positions: Vec<usize> = quals.iter().filter_map(|q| position(q)).collect();
            if positions.len() != quals.len() {
                continue; // references an unknown binding — no estimate
            }
            match positions.as_slice() {
                [p] => single_binding[*p] += 1,
                [a, b] => {
                    let edge = (*a.min(b), *a.max(b));
                    if as_column_equality(conjunct).is_some() {
                        equi.push(edge);
                    } else if let Expr::Binary { op, .. } = conjunct {
                        if op.is_comparison() && *op != BinOp::Eq {
                            nonequi.push(edge);
                        }
                    }
                }
                _ => {}
            }
        }

        let fresh = stale
            .iter()
            .zip(&single_binding)
            .map(|(rows, preds)| (rows * PRUNE_FACTOR.powi(*preds as i32)).max(1.0))
            .collect();
        CostModel {
            stale,
            fresh,
            equi,
            nonequi,
        }
    }

    fn rows(&self, pos: usize, counts: RowCounts) -> f64 {
        match counts {
            RowCounts::Stale => self.stale[pos],
            RowCounts::Fresh => self.fresh[pos],
        }
    }

    /// Selectivity contribution of joining `next` to the already-joined
    /// position set: one factor per predicate edge between `next` and the
    /// set. Equality edges use 1/max(|R|, |S|) (textbook key-join estimate);
    /// comparison edges use a flat [`NONEQUI_SEL`]. Every edge contributes
    /// exactly once — when its *second* endpoint joins.
    fn step_selectivity(&self, next: usize, joined: &[usize], counts: RowCounts) -> f64 {
        let mut sel = 1.0;
        for &(a, b) in &self.equi {
            let other = match (a == next, b == next) {
                (true, _) => b,
                (_, true) => a,
                _ => continue,
            };
            if joined.contains(&other) {
                sel /= self.rows(next, counts).max(self.rows(other, counts));
            }
        }
        for &(a, b) in &self.nonequi {
            let other = match (a == next, b == next) {
                (true, _) => b,
                (_, true) => a,
                _ => continue,
            };
            if joined.contains(&other) {
                sel *= NONEQUI_SEL;
            }
        }
        sel
    }

    /// The cost of one left-deep join order: the sum of intermediate-result
    /// cardinalities after every join step (the base scan is free — it is the
    /// same in every order). `order` lists join indices (position = index+1);
    /// the base is always first, as the engine's `JOIN_ORDER` requires.
    pub(crate) fn order_cost(&self, order: &[usize], counts: RowCounts) -> f64 {
        let mut joined = vec![0usize];
        let mut card = self.rows(0, counts);
        let mut total = 0.0;
        for &j in order {
            let pos = j + 1;
            card *= self.rows(pos, counts) * self.step_selectivity(pos, &joined, counts);
            card = card.max(1.0);
            total += card;
            joined.push(pos);
        }
        total
    }
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
                Value::Int((i * 7) as i64),
            ]))
            .unwrap();
        }
        t
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(table("t1", 64));
        c.add_table(table("t2", 16));
        c.add_table(table("t3", 4));
        c
    }

    fn model(sql: &str) -> CostModel {
        CostModel::new(&parse_stmt(sql).unwrap(), &catalog())
    }

    #[test]
    fn fresh_counts_discount_single_binding_predicates() {
        let cm = model(
            "SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k WHERE t1.v > 3 AND t1.k < 9 AND t2.v = 1",
        );
        assert_eq!(cm.rows(0, RowCounts::Stale), 64.0);
        assert_eq!(cm.rows(0, RowCounts::Fresh), 16.0); // two conjuncts → ×0.25
        assert_eq!(cm.rows(1, RowCounts::Fresh), 8.0); // one conjunct → ×0.5
    }

    #[test]
    fn order_cost_prefers_the_small_relation_first() {
        // Star join: both joins hang off t1, so either order is valid; the
        // tiny t3 (4 rows) first gives smaller intermediate results.
        let cm = model("SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t1.k = t3.k");
        let small_first = cm.order_cost(&[1, 0], RowCounts::Fresh);
        let big_first = cm.order_cost(&[0, 1], RowCounts::Fresh);
        assert!(
            small_first < big_first,
            "small-first {small_first} should beat big-first {big_first}"
        );
    }

    #[test]
    fn stale_and_fresh_rankings_can_disagree() {
        // Pruning flips the ranking: t2 is bigger than t3 raw, but a WHERE
        // conjunct prunes t2 below t3's size.
        let cm = model(
            "SELECT t1.k FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t1.k = t3.k \
             WHERE t2.v > 1 AND t2.v < 5 AND t2.k > 0",
        );
        let fresh_t2_first = cm.order_cost(&[0, 1], RowCounts::Fresh);
        let fresh_t3_first = cm.order_cost(&[1, 0], RowCounts::Fresh);
        let stale_t2_first = cm.order_cost(&[0, 1], RowCounts::Stale);
        let stale_t3_first = cm.order_cost(&[1, 0], RowCounts::Stale);
        assert!(fresh_t2_first < fresh_t3_first);
        assert!(stale_t3_first < stale_t2_first);
    }
}
