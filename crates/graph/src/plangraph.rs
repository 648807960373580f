//! The plan-iterative graph's vocabulary (§4, Figure 6) and query graphs.
//!
//! Figure 6's plan-iterative graph extends the schema graph: each pair of
//! joinable tables is connected by one edge per supported join type; each
//! column is connected to its table by one edge per relational operator
//! that can be applied to it (join column, filter, projection, group by,
//! count). No such graph is built: the DSG random walk enumerates its join
//! edges on the fly ([`SchemaDesc::neighbors`] × join types), and every
//! generated query maps to a sub-graph of it, its [`query_graph`].

use crate::graph::LabeledGraph;
use tqs_sql::ast::{SelectItem, SelectStmt};

/// A schema description sufficient to walk the plan-iterative graph,
/// decoupled from the schema crate: tables, their typed columns, and the
/// joinable (table, table, column) triples.
#[derive(Debug, Clone, Default)]
pub struct SchemaDesc {
    pub tables: Vec<String>,
    /// (table, column, type label, is key)
    pub columns: Vec<(String, String, String, bool)>,
    /// (left table, right table, join column)
    pub join_edges: Vec<(String, String, String)>,
}

impl SchemaDesc {
    pub fn columns_of(&self, table: &str) -> Vec<&(String, String, String, bool)> {
        self.columns
            .iter()
            .filter(|(t, _, _, _)| t.eq_ignore_ascii_case(table))
            .collect()
    }

    pub(crate) fn type_of(&self, table: &str, column: &str) -> Option<&str> {
        self.columns
            .iter()
            .find(|(t, c, _, _)| t.eq_ignore_ascii_case(table) && c.eq_ignore_ascii_case(column))
            .map(|(_, _, ty, _)| ty.as_str())
    }

    /// Tables adjacent to `table` with the join column.
    pub fn neighbors(&self, table: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (l, r, c) in &self.join_edges {
            if l.eq_ignore_ascii_case(table) {
                out.push((r.clone(), c.clone()));
            } else if r.eq_ignore_ascii_case(table) {
                out.push((l.clone(), c.clone()));
            }
        }
        out
    }
}

/// Build the query graph of one generated statement: one `table`-labeled node
/// per FROM table, join edges labeled with the join type, and column nodes
/// (labeled with the column type) attached by the operator role they play in
/// the query.
pub fn query_graph(stmt: &SelectStmt, schema: &SchemaDesc) -> LabeledGraph {
    let mut g = LabeledGraph::default();
    let mut table_nodes: Vec<(String, usize)> = Vec::new();
    for tref in stmt.from.tables() {
        let id = g.add_node("table");
        table_nodes.push((tref.binding().to_lowercase(), id));
    }
    let node_of = |binding: &str, nodes: &Vec<(String, usize)>| {
        nodes
            .iter()
            .find(|(b, _)| b == &binding.to_lowercase())
            .map(|(_, i)| *i)
    };
    // join edges
    let base_binding = stmt.from.base.binding().to_lowercase();
    let mut prev = base_binding;
    for j in &stmt.from.joins {
        let right = j.table.binding().to_lowercase();
        // connect to the table its ON condition references, defaulting to the
        // previously joined table
        let mut left = prev.clone();
        if let Some(on) = &j.on {
            for c in on.column_refs() {
                if let Some(t) = &c.table {
                    let t = t.to_lowercase();
                    if t != right && node_of(&t, &table_nodes).is_some() {
                        left = t;
                        break;
                    }
                }
            }
        }
        if let (Some(a), Some(b)) = (node_of(&left, &table_nodes), node_of(&right, &table_nodes)) {
            g.add_edge(a, b, j.join_type.graph_label());
        }
        prev = right;
    }
    // column nodes per role
    let add_column = |g: &mut LabeledGraph, binding: &str, column: &str, role: &str| {
        let ty = lookup_type(stmt, schema, binding, column);
        let id = g.add_node(ty);
        if let Some(t) = node_of(binding, &table_nodes) {
            g.add_edge(t, id, role);
        }
    };
    // join columns from ON clauses
    for j in &stmt.from.joins {
        if let Some(on) = &j.on {
            for c in on.column_refs() {
                if let Some(t) = &c.table {
                    add_column(&mut g, t, &c.column, "join column");
                }
            }
        }
    }
    // filters from WHERE
    if let Some(w) = &stmt.where_clause {
        for c in w.column_refs() {
            if let Some(t) = &c.table {
                add_column(&mut g, t, &c.column, "filter");
            }
        }
    }
    // projections / aggregates
    for item in &stmt.items {
        match item {
            SelectItem::Expr { expr, .. } => {
                for c in expr.column_refs() {
                    if let Some(t) = &c.table {
                        add_column(&mut g, t, &c.column, "projection");
                    }
                }
            }
            SelectItem::Aggregate { arg, .. } => {
                if let Some(e) = arg {
                    for c in e.column_refs() {
                        if let Some(t) = &c.table {
                            add_column(&mut g, t, &c.column, "count");
                        }
                    }
                }
            }
            SelectItem::Wildcard => {}
        }
    }
    // group by
    for e in &stmt.group_by {
        for c in e.column_refs() {
            if let Some(t) = &c.table {
                add_column(&mut g, t, &c.column, "group by");
            }
        }
    }
    g
}

fn lookup_type(stmt: &SelectStmt, schema: &SchemaDesc, binding: &str, column: &str) -> String {
    // resolve binding → underlying table name
    let table = stmt
        .from
        .tables()
        .iter()
        .find(|t| t.binding().eq_ignore_ascii_case(binding))
        .map(|t| t.table.clone())
        .unwrap_or_else(|| binding.to_string());
    schema
        .type_of(&table, column)
        .unwrap_or("unknown")
        .to_string()
}

/// A stable 64-bit fingerprint of a labeled graph, derived from its
/// Weisfeiler-Lehman canonical form: isomorphic graphs always share a
/// fingerprint, and the richly-labeled query graphs TQS generates make
/// collisions between structurally different queries vanishingly rare.
///
/// The hash is [`tqs_sql::fingerprint_hash`] over the canonical string.
/// Campaign corpora persist these fingerprints to disk and must reload them
/// unchanged years later.
pub fn graph_fingerprint(g: &LabeledGraph) -> u64 {
    tqs_sql::fingerprint_hash(g.canonical_form(3).as_bytes())
}

/// The canonical plan-graph fingerprint of one statement: the
/// [`graph_fingerprint`] of its query graph (subquery marker included).
/// Two statements that map to isomorphic sub-graphs of the plan-iterative
/// graph — the same join structure over the same column types and operator
/// roles — share a fingerprint, which is exactly the granularity at which a
/// fleet-scale hunt wants to deduplicate bug reports: thousands of raw
/// divergences collapse to one class per plan shape.
pub fn plan_fingerprint(stmt: &SelectStmt, schema: &SchemaDesc) -> u64 {
    graph_fingerprint(&query_graph_with_subqueries(stmt, schema))
}

/// Convenience: does the query contain a subquery? Subqueries add a
/// `subquery`-labeled node so structurally different queries stay
/// distinguishable.
pub fn query_graph_with_subqueries(stmt: &SelectStmt, schema: &SchemaDesc) -> LabeledGraph {
    let mut g = query_graph(stmt, schema);
    if stmt.has_subquery() {
        let n = g.add_node("subquery");
        if g.node_count() > 1 {
            g.add_edge(0, n, "filter");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;

    fn schema() -> SchemaDesc {
        SchemaDesc {
            tables: vec!["T1".into(), "T3".into(), "T4".into()],
            columns: vec![
                ("T1".into(), "orderId".into(), "varchar".into(), true),
                ("T1".into(), "goodsId".into(), "int".into(), false),
                ("T1".into(), "userId".into(), "varchar".into(), false),
                ("T3".into(), "goodsId".into(), "int".into(), true),
                ("T3".into(), "goodsName".into(), "varchar".into(), false),
                ("T4".into(), "goodsName".into(), "varchar".into(), true),
                ("T4".into(), "price".into(), "decimal".into(), false),
            ],
            join_edges: vec![
                ("T1".into(), "T3".into(), "goodsId".into()),
                ("T3".into(), "T4".into(), "goodsName".into()),
            ],
        }
    }

    #[test]
    fn query_graph_structure_reflects_joins_and_roles() {
        let stmt = parse_stmt(
            "SELECT T4.price FROM T1 INNER JOIN T3 ON T1.goodsId = T3.goodsId \
             ANTI JOIN T4 ON T3.goodsName = T4.goodsName WHERE T1.userId = 'str1'",
        )
        .unwrap();
        let g = query_graph(&stmt, &schema());
        // 3 table nodes + 4 join-column nodes + 1 filter node + 1 projection
        assert_eq!(g.node_count(), 9);
        let labels: Vec<&str> = g.edges.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"inner join"));
        assert!(labels.contains(&"anti join"));
        assert!(labels.contains(&"filter"));
        assert!(labels.contains(&"projection"));
        assert!(labels.contains(&"join column"));
    }

    #[test]
    fn isomorphic_queries_share_canonical_form() {
        let s = schema();
        let a = parse_stmt("SELECT T3.goodsName FROM T1 INNER JOIN T3 ON T1.goodsId = T3.goodsId")
            .unwrap();
        // different column of the same types / same structure
        let b = parse_stmt("SELECT T3.goodsName FROM T1 INNER JOIN T3 ON T3.goodsId = T1.goodsId")
            .unwrap();
        assert_eq!(
            query_graph(&a, &s).canonical_form(3),
            query_graph(&b, &s).canonical_form(3)
        );
        // a different join type is a different isomorphic set
        let c =
            parse_stmt("SELECT T3.goodsName FROM T1 LEFT OUTER JOIN T3 ON T1.goodsId = T3.goodsId")
                .unwrap();
        assert_ne!(
            query_graph(&a, &s).canonical_form(3),
            query_graph(&c, &s).canonical_form(3)
        );
    }

    #[test]
    fn subquery_marker_changes_structure() {
        let s = schema();
        let a = parse_stmt("SELECT T1.orderId FROM T1 WHERE T1.goodsId = 1").unwrap();
        let b =
            parse_stmt("SELECT T1.orderId FROM T1 WHERE T1.goodsId IN (SELECT T3.goodsId FROM T3)")
                .unwrap();
        assert_ne!(
            query_graph_with_subqueries(&a, &s).canonical_form(3),
            query_graph_with_subqueries(&b, &s).canonical_form(3)
        );
    }

    #[test]
    fn plan_fingerprint_tracks_canonical_form() {
        let s = schema();
        let a = parse_stmt("SELECT T3.goodsName FROM T1 INNER JOIN T3 ON T1.goodsId = T3.goodsId")
            .unwrap();
        let b = parse_stmt("SELECT T3.goodsName FROM T1 INNER JOIN T3 ON T3.goodsId = T1.goodsId")
            .unwrap();
        let c =
            parse_stmt("SELECT T3.goodsName FROM T1 LEFT OUTER JOIN T3 ON T1.goodsId = T3.goodsId")
                .unwrap();
        // Isomorphic queries collapse to one fingerprint; a different join
        // type is a different bug class.
        assert_eq!(plan_fingerprint(&a, &s), plan_fingerprint(&b, &s));
        assert_ne!(plan_fingerprint(&a, &s), plan_fingerprint(&c, &s));
    }

    #[test]
    fn graph_fingerprint_is_the_documented_fnv1a() {
        // Pin the exact hash of a known canonical form so corpora persisted
        // by older builds keep deduplicating correctly against newer ones.
        let mut g = LabeledGraph::default();
        g.add_node("table");
        let expected = {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in g.canonical_form(3).as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
            h
        };
        assert_eq!(graph_fingerprint(&g), expected);
        assert_ne!(graph_fingerprint(&g), 0);
    }

    #[test]
    fn schema_desc_lookups() {
        let s = schema();
        assert_eq!(s.type_of("T4", "price"), Some("decimal"));
        assert_eq!(s.type_of("T4", "nope"), None);
        assert_eq!(s.columns_of("T3").len(), 2);
        let n = s.neighbors("T3");
        assert_eq!(n.len(), 2);
    }
}
