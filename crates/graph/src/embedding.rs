//! Similarity-oriented graph embeddings.
//!
//! The paper uses a GNN-based embedding ([20]) so that isomorphic or
//! structurally similar query graphs land close together in the vector
//! space. We substitute a Weisfeiler-Lehman feature-hashing embedding with
//! the same contract: deterministic, label- and structure-sensitive,
//! isomorphism-invariant, and cheap enough to embed hundreds of thousands of
//! query graphs.

use crate::graph::LabeledGraph;

/// Embedding dimensionality.
pub const EMBED_DIM: usize = 64;

/// A fixed-size graph embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Embed a labeled graph: run `rounds` of WL label refinement and hash every
/// intermediate node signature (weighted by round) into a fixed-size bucket
/// vector, then L2-normalize.
pub fn embed_graph(g: &LabeledGraph, rounds: usize) -> Embedding {
    let mut v = vec![0f32; EMBED_DIM];
    if g.node_count() == 0 {
        return Embedding(v);
    }
    let mut labels: Vec<String> = g.nodes.iter().map(|n| n.label.clone()).collect();
    for round in 0..=rounds {
        for l in &labels {
            let h = hash_str(&format!("r{round}:{l}")) as usize % EMBED_DIM;
            v[h] += 1.0 / (1.0 + round as f32);
        }
        // also hash edge signatures so edge labels (join types, operator
        // roles) shape the embedding
        for e in &g.edges {
            let sig = format!("r{round}:e:{}:{}:{}", e.label, labels[e.a], labels[e.b]);
            let sig_rev = format!("r{round}:e:{}:{}:{}", e.label, labels[e.b], labels[e.a]);
            let h = (hash_str(&sig) ^ hash_str(&sig_rev)) as usize % EMBED_DIM;
            v[h] += 1.0 / (1.0 + round as f32);
        }
        if round == rounds {
            break;
        }
        // refine
        let mut next = Vec::with_capacity(labels.len());
        for i in 0..g.node_count() {
            let mut neigh: Vec<String> = g
                .neighbors(i)
                .into_iter()
                .map(|(j, el)| format!("{el}~{}", labels[j]))
                .collect();
            neigh.sort();
            next.push(format!("{}({})", labels[i], neigh.join(",")));
        }
        labels = next;
    }
    // L2 normalize
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding(v)
}

/// Cosine similarity between two embeddings (already normalized → dot).
pub fn cosine_similarity(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a.0.iter().zip(&b.0).map(|(x, y)| x * y).sum();
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(labels: &[&str], joins: &[&str]) -> LabeledGraph {
        let mut g = LabeledGraph::default();
        let ids: Vec<usize> = labels.iter().map(|l| g.add_node(*l)).collect();
        for (i, j) in joins.iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], *j);
        }
        g
    }

    #[test]
    fn embedding_is_deterministic_and_normalized() {
        let g = chain(&["table", "table", "int"], &["inner join", "filter"]);
        let a = embed_graph(&g, 2);
        let b = embed_graph(&g, 2);
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < 1e-5);
        assert_eq!(a.dim(), EMBED_DIM);
    }

    #[test]
    fn isomorphic_graphs_have_identical_embeddings() {
        let a = chain(&["table", "table", "varchar"], &["semi join", "filter"]);
        let mut b = LabeledGraph::default();
        let x = b.add_node("varchar");
        let y = b.add_node("table");
        let z = b.add_node("table");
        b.add_edge(y, z, "semi join");
        b.add_edge(z, x, "filter");
        // wait: structure must mirror `a`: table-table semi join, second table
        // connected to varchar via filter — rebuild to match exactly
        let mut b2 = LabeledGraph::default();
        let t1 = b2.add_node("table");
        let v = b2.add_node("varchar");
        let t0 = b2.add_node("table");
        b2.add_edge(t0, t1, "semi join");
        b2.add_edge(t1, v, "filter");
        let ea = embed_graph(&a, 2);
        let eb = embed_graph(&b2, 2);
        assert!(cosine_similarity(&ea, &eb) > 0.999);
    }

    #[test]
    fn different_structures_are_less_similar() {
        let a = chain(&["table", "table"], &["inner join"]);
        let b = chain(&["table", "table"], &["anti join"]);
        let c = chain(&["table", "table", "table"], &["inner join", "inner join"]);
        let sim_ab = cosine_similarity(&embed_graph(&a, 2), &embed_graph(&b, 2));
        let sim_ac = cosine_similarity(&embed_graph(&a, 2), &embed_graph(&c, 2));
        let self_sim = cosine_similarity(&embed_graph(&a, 2), &embed_graph(&a, 2));
        assert!(self_sim > 0.999);
        assert!(sim_ab < self_sim);
        assert!(sim_ac < self_sim);
    }

    #[test]
    fn empty_graph_embeds_to_zero() {
        let g = LabeledGraph::default();
        let e = embed_graph(&g, 2);
        assert_eq!(e.norm(), 0.0);
        assert_eq!(cosine_similarity(&e, &e), 0.0);
    }
}
