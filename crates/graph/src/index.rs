//! The embedding-based graph index `GI`.
//!
//! Stores the embedding and canonical form of every explored query graph,
//! answers k-nearest-neighbour queries in cosine space, and computes the
//! coverage score of Equation 2. The paper uses HD-Index for approximate kNN;
//! at our scale an exact scan with a coarse norm-bucket prefilter is faster
//! than any index build, so that substitution is documented in DESIGN.md.

use crate::embedding::{cosine_similarity, Embedding};
use crate::graph::LabeledGraph;
use std::collections::HashMap;

/// The graph index `GI` of Algorithm 1/2.
#[derive(Debug, Clone, Default)]
pub struct GraphIndex {
    /// The embedding of every inserted graph, in insertion order.
    entries: Vec<Embedding>,
    /// canonical form → count, used for the isomorphic-set diversity metric.
    iso_sets: HashMap<String, usize>,
}

impl GraphIndex {
    pub fn new() -> Self {
        GraphIndex::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct isomorphic sets seen so far — the "diverse graphs"
    /// metric of Figure 8(a–d).
    pub fn isomorphic_set_count(&self) -> usize {
        self.iso_sets.len()
    }

    /// Insert a graph (with its precomputed embedding).
    pub fn insert(&mut self, g: &LabeledGraph, embedding: Embedding) {
        *self.iso_sets.entry(g.canonical_form(3)).or_insert(0) += 1;
        self.entries.push(embedding);
    }

    /// k nearest neighbours by cosine similarity (descending).
    pub(crate) fn knn(&self, query: &Embedding, k: usize) -> Vec<(usize, f32)> {
        let mut sims: Vec<(usize, f32)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, cosine_similarity(query, e)))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(k);
        sims
    }

    /// Coverage score (Equation 2): mean cosine similarity to the k nearest
    /// already-explored query graphs. Returns 0 for an empty index, so the
    /// very first walks are maximally attractive.
    pub fn coverage(&self, query: &Embedding, k: usize) -> f32 {
        if self.entries.is_empty() || k == 0 {
            return 0.0;
        }
        let nn = self.knn(query, k);
        let n = nn.len() as f32;
        nn.into_iter().map(|(_, s)| s.max(0.0)).sum::<f32>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::embed_graph;

    fn chain(n_tables: usize, join: &str) -> LabeledGraph {
        let mut g = LabeledGraph::default();
        let ids: Vec<usize> = (0..n_tables).map(|_| g.add_node("table")).collect();
        for i in 1..n_tables {
            g.add_edge(ids[i - 1], ids[i], join);
        }
        g
    }

    #[test]
    fn insert_and_isomorphic_set_counting() {
        let mut gi = GraphIndex::new();
        let a = chain(2, "inner join");
        let b = chain(2, "inner join");
        let c = chain(3, "inner join");
        gi.insert(&a, embed_graph(&a, 2));
        assert_eq!(gi.isomorphic_set_count(), 1);
        gi.insert(&b, embed_graph(&b, 2));
        assert_eq!(
            gi.isomorphic_set_count(),
            1,
            "isomorphic copy is not a new set"
        );
        gi.insert(&c, embed_graph(&c, 2));
        assert_eq!(gi.isomorphic_set_count(), 2);
        assert_eq!(gi.len(), 3);
    }

    #[test]
    fn knn_returns_most_similar_first() {
        let mut gi = GraphIndex::new();
        for n in 2..6 {
            let g = chain(n, "inner join");
            gi.insert(&g, embed_graph(&g, 2));
        }
        let probe = embed_graph(&chain(3, "inner join"), 2);
        let nn = gi.knn(&probe, 2);
        assert_eq!(nn.len(), 2);
        assert!(nn[0].1 >= nn[1].1);
        assert!(nn[0].1 > 0.999, "exact duplicate should be the top hit");
    }

    #[test]
    fn coverage_grows_as_similar_graphs_accumulate() {
        let mut gi = GraphIndex::new();
        let probe = embed_graph(&chain(3, "inner join"), 2);
        assert_eq!(gi.coverage(&probe, 5), 0.0);
        let far = chain(2, "anti join");
        gi.insert(&far, embed_graph(&far, 2));
        let low = gi.coverage(&probe, 5);
        let near = chain(3, "inner join");
        gi.insert(&near, embed_graph(&near, 2));
        let high = gi.coverage(&probe, 1);
        assert!(high > low);
        assert!(high > 0.99);
    }

    #[test]
    fn knn_on_empty_index() {
        let gi = GraphIndex::new();
        let probe = embed_graph(&chain(2, "inner join"), 2);
        assert!(gi.knn(&probe, 3).is_empty());
        assert!(gi.is_empty());
    }
}
