//! KQE — Knowledge-guided Query space Exploration (§4).
//!
//! Wraps the embedding-based graph index `GI` and turns it into a
//! [`WalkScorer`] for the DSG random walk: the transition probability of
//! extending the current query graph with an edge is `1 / (coverage + 1)`
//! (Equation 3), so structurally novel extensions are preferred.

use crate::dsg::WalkScorer;
use tqs_graph::embedding::embed_graph;
use tqs_graph::plangraph::SchemaDesc;
use tqs_graph::{GraphIndex, LabeledGraph};

/// KQE configuration.
#[derive(Debug, Clone)]
pub struct KqeConfig {
    /// k for the kNN coverage score (Equation 2).
    pub knn_k: usize,
    /// WL refinement rounds for embeddings.
    pub wl_rounds: usize,
}

impl Default for KqeConfig {
    fn default() -> Self {
        KqeConfig {
            knn_k: 5,
            wl_rounds: 2,
        }
    }
}

/// The KQE state: the explored-query index. The plan-iterative graph it
/// explores is never built: the DSG random walk enumerates its join edges
/// on the fly ([`SchemaDesc::neighbors`] × join types).
#[derive(Debug, Clone)]
pub struct Kqe {
    pub cfg: KqeConfig,
    pub index: GraphIndex,
}

impl Kqe {
    /// A KQE with nothing explored yet, for a walk over `_schema`.
    pub fn new(_schema: SchemaDesc, cfg: KqeConfig) -> Self {
        Kqe {
            cfg,
            index: GraphIndex::new(),
        }
    }

    /// Coverage score of a query graph w.r.t. the explored history (Eq. 2).
    pub fn coverage(&self, g: &LabeledGraph) -> f32 {
        let e = embed_graph(g, self.cfg.wl_rounds);
        self.index.coverage(&e, self.cfg.knn_k)
    }

    /// Transition weight of Eq. 3.
    pub(crate) fn transition_weight(&self, g: &LabeledGraph) -> f64 {
        1.0 / (self.coverage(g) as f64 + 1.0)
    }

    /// Record an explored query graph in `GI` (Algorithm 1, line 9).
    pub fn record(&mut self, g: &LabeledGraph) {
        let e = embed_graph(g, self.cfg.wl_rounds);
        self.index.insert(g, e);
    }

    /// Number of distinct isomorphic sets explored so far — the diversity
    /// metric plotted in Figure 8(a–d).
    pub fn diversity(&self) -> usize {
        self.index.isomorphic_set_count()
    }
}

/// Scorer adapter handed to the DSG random walk.
pub struct KqeScorer<'a> {
    pub kqe: &'a Kqe,
}

impl WalkScorer for KqeScorer<'_> {
    fn weight(&self, candidate: &LabeledGraph) -> f64 {
        self.kqe.transition_weight(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaDesc {
        SchemaDesc {
            tables: vec!["T1".into(), "T2".into()],
            columns: vec![
                ("T1".into(), "a".into(), "int".into(), true),
                ("T2".into(), "a".into(), "int".into(), true),
                ("T2".into(), "b".into(), "varchar".into(), false),
            ],
            join_edges: vec![("T1".into(), "T2".into(), "a".into())],
        }
    }

    fn chain(n: usize, label: &str) -> LabeledGraph {
        let mut g = LabeledGraph::default();
        let ids: Vec<usize> = (0..n).map(|_| g.add_node("table")).collect();
        for i in 1..n {
            g.add_edge(ids[i - 1], ids[i], label);
        }
        g
    }

    #[test]
    fn coverage_starts_at_zero_and_grows() {
        let mut kqe = Kqe::new(schema(), KqeConfig::default());
        let g = chain(2, "inner join");
        assert_eq!(kqe.coverage(&g), 0.0);
        assert!((kqe.transition_weight(&g) - 1.0).abs() < 1e-6);
        kqe.record(&g);
        assert!(kqe.coverage(&g) > 0.9);
        assert!(kqe.transition_weight(&g) < 0.6);
        assert_eq!(kqe.diversity(), 1);
    }

    #[test]
    fn novel_structures_keep_higher_weights() {
        let mut kqe = Kqe::new(schema(), KqeConfig::default());
        let seen = chain(2, "inner join");
        for _ in 0..3 {
            kqe.record(&seen);
        }
        let novel = chain(3, "anti join");
        assert!(
            kqe.transition_weight(&novel) > kqe.transition_weight(&seen),
            "unexplored structure must be preferred"
        );
        let scorer = KqeScorer { kqe: &kqe };
        assert!(scorer.weight(&novel) > scorer.weight(&seen));
    }
}
