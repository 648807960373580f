//! The database schema graph `G_s` (§3.3): table vertices, column vertices,
//! table–table edges for primary/foreign-key joinability and table–column
//! edges. DSG's random walk runs on this graph; KQE later extends it to the
//! plan-iterative graph.

use crate::normalize::NormalizedDb;
use tqs_sql::types::ColumnType;

/// A table–table edge: the two tables can be equi-joined on `column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    pub left_table: String,
    pub right_table: String,
    pub column: String,
}

/// A column vertex attached to its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnVertex {
    pub table: String,
    pub column: String,
    pub ty: ColumnType,
    pub is_key: bool,
}

/// The schema graph.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    pub tables: Vec<String>,
    pub join_edges: Vec<JoinEdge>,
    pub columns: Vec<ColumnVertex>,
}

impl SchemaGraph {
    /// Build the schema graph from a normalized database: one table vertex
    /// per schema table, one join edge per foreign-key relationship, one
    /// column vertex per attribute column (RowID excluded).
    pub fn build(db: &NormalizedDb) -> SchemaGraph {
        let tables = db.table_names();
        let mut join_edges = Vec::new();
        for (from, cols, to, _ref_cols) in db.catalog.foreign_key_edges() {
            if cols.len() == 1 {
                join_edges.push(JoinEdge {
                    left_table: from,
                    right_table: to,
                    column: cols[0].clone(),
                });
            }
        }
        let mut columns = Vec::new();
        for m in &db.metas {
            for c in &m.columns {
                columns.push(ColumnVertex {
                    table: m.name.clone(),
                    column: c.clone(),
                    ty: db.attr_type(c).unwrap_or(ColumnType::Text),
                    is_key: m.implicit_pk.contains(c),
                });
            }
        }
        SchemaGraph {
            tables,
            join_edges,
            columns,
        }
    }

    /// Tables adjacent to `table` via a join edge, with the join column.
    pub fn neighbors(&self, table: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for e in &self.join_edges {
            if e.left_table.eq_ignore_ascii_case(table) {
                out.push((e.right_table.clone(), e.column.clone()));
            } else if e.right_table.eq_ignore_ascii_case(table) {
                out.push((e.left_table.clone(), e.column.clone()));
            }
        }
        out
    }

    /// Columns of one table.
    pub fn columns_of(&self, table: &str) -> Vec<&ColumnVertex> {
        self.columns
            .iter()
            .filter(|c| c.table.eq_ignore_ascii_case(table))
            .collect()
    }

    /// Total vertex count (tables + columns), the |V| used by Algorithm 1's
    /// outer loop.
    pub fn vertex_count(&self) -> usize {
        self.tables.len() + self.columns.len()
    }

    /// Is the graph connected over join edges? A disconnected schema graph
    /// means random walks cannot reach some tables.
    pub fn is_join_connected(&self) -> bool {
        if self.tables.is_empty() {
            return true;
        }
        let mut visited = vec![false; self.tables.len()];
        let idx = |name: &str| {
            self.tables
                .iter()
                .position(|t| t.eq_ignore_ascii_case(name))
                .unwrap_or(0)
        };
        let mut stack = vec![0usize];
        visited[0] = true;
        while let Some(i) = stack.pop() {
            for (n, _) in self.neighbors(&self.tables[i]) {
                let j = idx(&n);
                if !visited[j] {
                    visited[j] = true;
                    stack.push(j);
                }
            }
        }
        visited.into_iter().all(|v| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdDiscoveryConfig, FdSet};
    use crate::normalize::normalize;
    use tqs_storage::widegen::{shopping_orders, ShoppingConfig};

    fn graph() -> (NormalizedDb, SchemaGraph) {
        let wide = shopping_orders(&ShoppingConfig {
            n_rows: 150,
            ..Default::default()
        });
        let fds = FdSet::discover(&wide, &FdDiscoveryConfig::default());
        let db = normalize(wide, &fds);
        let g = SchemaGraph::build(&db);
        (db, g)
    }

    #[test]
    fn tables_and_edges_follow_fks() {
        let (db, g) = graph();
        assert_eq!(g.tables.len(), db.metas.len());
        // the base table is joinable to the goods and user dimensions
        let base_neighbors = g.neighbors("T1");
        assert!(base_neighbors.iter().any(|(_, c)| c == "goodsId"));
        assert!(base_neighbors.iter().any(|(_, c)| c == "userId"));
        // the goods table is joinable to the goodsName table
        let goods = db.table_with_pk("goodsId").unwrap().name.clone();
        assert!(g.neighbors(&goods).iter().any(|(_, c)| c == "goodsName"));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let (_db, g) = graph();
        for e in &g.join_edges {
            assert!(g
                .neighbors(&e.left_table)
                .iter()
                .any(|(t, c)| t == &e.right_table && c == &e.column));
            assert!(g
                .neighbors(&e.right_table)
                .iter()
                .any(|(t, c)| t == &e.left_table && c == &e.column));
        }
    }

    #[test]
    fn column_vertices_have_types_and_key_flags() {
        let (db, g) = graph();
        let goods = db.table_with_pk("goodsId").unwrap().name.clone();
        let cols = g.columns_of(&goods);
        assert!(!cols.is_empty());
        assert!(cols.iter().any(|c| c.column == "goodsId" && c.is_key));
        assert!(cols.iter().any(|c| c.column == "goodsName" && !c.is_key));
        assert!(g.vertex_count() > g.tables.len());
    }

    #[test]
    fn shopping_schema_graph_is_connected() {
        let (_db, g) = graph();
        assert!(g.is_join_connected());
        // an empty graph is trivially connected
        assert!(SchemaGraph::default().is_join_connected());
    }
}
