//! Labeled graphs and their canonical form. Query graphs and the
//! plan-iterative graph are both instances of [`LabeledGraph`].

/// A node with a string label (e.g. `"table"`, `"int"`, `"varchar"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub label: String,
}

/// An undirected labeled edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub a: usize,
    pub b: usize,
    pub label: String,
}

/// An undirected graph with labeled nodes and edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledGraph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Edge>,
}

impl LabeledGraph {
    pub fn add_node(&mut self, label: impl Into<String>) -> usize {
        self.nodes.push(Node {
            label: label.into(),
        });
        self.nodes.len() - 1
    }

    pub fn add_edge(&mut self, a: usize, b: usize, label: impl Into<String>) {
        assert!(a < self.nodes.len() && b < self.nodes.len());
        self.edges.push(Edge {
            a,
            b,
            label: label.into(),
        });
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edges incident to `n` as `(neighbor, edge label)`.
    pub fn neighbors(&self, n: usize) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == n {
                out.push((e.b, e.label.as_str()));
            } else if e.b == n {
                out.push((e.a, e.label.as_str()));
            }
        }
        out
    }

    /// Weisfeiler-Lehman style canonical form: iteratively refine node
    /// signatures from neighbor labels, then serialize the multiset. Two
    /// isomorphic graphs always share a canonical form; collisions between
    /// non-isomorphic graphs are possible in principle but do not occur for
    /// the small, richly-labeled query graphs TQS generates.
    pub(crate) fn canonical_form(&self, rounds: usize) -> String {
        let mut labels: Vec<String> = self.nodes.iter().map(|n| n.label.clone()).collect();
        for _ in 0..rounds {
            let mut next = Vec::with_capacity(labels.len());
            for i in 0..self.nodes.len() {
                let mut neigh: Vec<String> = self
                    .neighbors(i)
                    .into_iter()
                    .map(|(j, el)| format!("{el}~{}", labels[j]))
                    .collect();
                neigh.sort();
                next.push(format!("{}({})", labels[i], neigh.join(",")));
            }
            labels = next;
        }
        let mut sorted = labels;
        sorted.sort();
        let mut edge_labels: Vec<&str> = self.edges.iter().map(|e| e.label.as_str()).collect();
        edge_labels.sort();
        format!(
            "{}|{}|{}",
            self.nodes.len(),
            sorted.join(";"),
            edge_labels.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(labels: &[&str], edge_labels: &[&str]) -> LabeledGraph {
        let mut g = LabeledGraph::default();
        let ids: Vec<usize> = labels.iter().map(|l| g.add_node(*l)).collect();
        for (i, el) in edge_labels.iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], *el);
        }
        g
    }

    #[test]
    fn neighbors_and_degree() {
        let g = path_graph(&["table", "table", "int"], &["inner join", "filter"]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.neighbors(0), vec![(1, "inner join")]);
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let a = path_graph(&["table", "table", "int"], &["inner join", "filter"]);
        // same structure, nodes created in a different order
        let mut b = LabeledGraph::default();
        let x = b.add_node("int");
        let y = b.add_node("table");
        let z = b.add_node("table");
        b.add_edge(z, y, "inner join");
        b.add_edge(y, x, "filter");
        assert_eq!(a.canonical_form(3), b.canonical_form(3));
        // a different edge label changes the form
        let c = path_graph(&["table", "table", "int"], &["left outer join", "filter"]);
        assert_ne!(a.canonical_form(3), c.canonical_form(3));
    }
}
