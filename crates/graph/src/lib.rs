//! # tqs-graph
//!
//! Graph substrate for KQE (Knowledge-guided Query space Exploration):
//!
//! * [`graph`] — labeled graphs, canonical forms and exact isomorphism checks.
//! * [`plangraph`] — the plan-iterative graph (Figure 6) and query graphs.
//! * [`embedding`] — Weisfeiler-Lehman feature-hashing embeddings (the GNN
//!   substitute, see DESIGN.md).
//! * [`index`] — the embedding-based graph index `GI` with kNN search and the
//!   coverage score of Equation 2.

pub mod embedding;
pub mod graph;
pub mod index;
pub mod plangraph;

pub use embedding::{embed_graph, Embedding};
pub use graph::{Edge, LabeledGraph, Node};
pub use index::GraphIndex;
pub use plangraph::{
    graph_fingerprint, plan_fingerprint, query_graph, query_graph_with_subqueries,
    PlanIterativeGraph, SchemaDesc,
};

#[cfg(test)]
mod proptests {
    use crate::embedding::{cosine_similarity, embed_graph};
    use crate::graph::LabeledGraph;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
        (
            2usize..7,
            proptest::collection::vec((0usize..6, 0usize..6, 0usize..7), 1..10),
        )
            .prop_map(|(n, edges)| {
                let labels = ["table", "int", "varchar", "decimal"];
                let joins = [
                    "inner join",
                    "left outer join",
                    "anti join",
                    "semi join",
                    "filter",
                    "projection",
                    "join column",
                ];
                let mut g = LabeledGraph::default();
                for i in 0..n {
                    g.add_node(labels[i % labels.len()]);
                }
                for (a, b, l) in edges {
                    if a < n && b < n && a != b {
                        g.add_edge(a, b, joins[l]);
                    }
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Relabeling node ids (permutation) never changes the canonical form
        /// or the embedding.
        #[test]
        fn canonical_form_and_embedding_are_permutation_invariant(g in arb_graph()) {
            // reverse the node order
            let n = g.node_count();
            let mut perm = LabeledGraph::default();
            for i in (0..n).rev() {
                perm.add_node(g.nodes[i].label.clone());
            }
            for e in &g.edges {
                perm.add_edge(n - 1 - e.a, n - 1 - e.b, e.label.clone());
            }
            prop_assert_eq!(g.canonical_form(3), perm.canonical_form(3));
            let sim = cosine_similarity(&embed_graph(&g, 2), &embed_graph(&perm, 2));
            prop_assert!(sim > 0.999, "sim = {sim}");
        }

        /// Self-similarity is maximal.
        #[test]
        fn self_similarity_is_one(g in arb_graph()) {
            let e = embed_graph(&g, 2);
            if e.norm() > 0.0 {
                prop_assert!(cosine_similarity(&e, &e) > 0.999);
            }
        }
    }
}
