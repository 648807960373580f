//! Labeled graphs, canonical hashing and a small sub-graph isomorphism
//! checker. Query graphs and the plan-iterative graph are both instances of
//! [`LabeledGraph`].

use std::collections::BTreeMap;

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

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
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

    pub fn degree(&self, n: usize) -> usize {
        self.neighbors(n).len()
    }

    /// Weisfeiler-Lehman style canonical form: iteratively refine node
    /// signatures from neighbor labels, then serialize the multiset. Two
    /// isomorphic graphs always share a canonical form; collisions between
    /// non-isomorphic graphs are possible in principle but do not occur for
    /// the small, richly-labeled query graphs TQS generates.
    pub fn canonical_form(&self, rounds: usize) -> String {
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

    /// Exact graph isomorphism (both directions of sub-graph containment with
    /// equal node counts), via backtracking on label-compatible assignments.
    /// Only intended for the small query graphs (≤ ~20 nodes).
    pub fn isomorphic_to(&self, other: &LabeledGraph) -> bool {
        if self.nodes.len() != other.nodes.len() || self.edges.len() != other.edges.len() {
            return false;
        }
        // quick label-multiset check
        fn multiset(g: &LabeledGraph) -> BTreeMap<String, usize> {
            let mut m: BTreeMap<String, usize> = BTreeMap::new();
            for n in &g.nodes {
                *m.entry(n.label.clone()).or_default() += 1;
            }
            m
        }
        if multiset(self) != multiset(other) {
            return false;
        }
        let mut mapping: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut used = vec![false; other.nodes.len()];
        self.backtrack(other, 0, &mut mapping, &mut used)
    }

    fn backtrack(
        &self,
        other: &LabeledGraph,
        i: usize,
        mapping: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
    ) -> bool {
        if i == self.nodes.len() {
            return true;
        }
        for j in 0..other.nodes.len() {
            if used[j] || self.nodes[i].label != other.nodes[j].label {
                continue;
            }
            if self.degree(i) != other.degree(j) {
                continue;
            }
            // check edges from i to already-mapped nodes
            let consistent = self.edges.iter().all(|e| {
                let (x, y) = (e.a, e.b);
                let involved = (x == i && mapping[y].is_some()) || (y == i && mapping[x].is_some());
                let self_loop = x == i && y == i;
                if !(involved || self_loop) {
                    return true;
                }
                let (mi, mo) = if x == i { (y, j) } else { (x, j) };
                let mapped = mapping[mi].unwrap_or(mo);
                other.edges.iter().any(|oe| {
                    oe.label == e.label
                        && ((oe.a == mo && oe.b == mapped) || (oe.b == mo && oe.a == mapped))
                })
            });
            if !consistent {
                continue;
            }
            mapping[i] = Some(j);
            used[j] = true;
            if self.backtrack(other, i + 1, mapping, used) {
                return true;
            }
            mapping[i] = None;
            used[j] = false;
        }
        false
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
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
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

    #[test]
    fn isomorphism_detects_equal_and_different_structures() {
        let a = path_graph(&["table", "table", "int"], &["inner join", "filter"]);
        let mut b = LabeledGraph::default();
        let x = b.add_node("table");
        let y = b.add_node("int");
        let z = b.add_node("table");
        b.add_edge(z, x, "inner join");
        b.add_edge(x, y, "filter");
        assert!(a.isomorphic_to(&b));
        assert!(b.isomorphic_to(&a));
        let c = path_graph(&["table", "table", "int"], &["anti join", "filter"]);
        assert!(!a.isomorphic_to(&c));
        let d = path_graph(&["table", "table"], &["inner join"]);
        assert!(!a.isomorphic_to(&d));
    }

    #[test]
    fn isomorphism_respects_node_labels() {
        let a = path_graph(&["table", "int"], &["filter"]);
        let b = path_graph(&["table", "varchar"], &["filter"]);
        assert!(!a.isomorphic_to(&b));
    }
}
