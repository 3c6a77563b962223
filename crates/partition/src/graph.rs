use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

/// An undirected weighted graph with weighted vertices.
///
/// Vertices are dense `usize` indexes (the switch grouping code maps
/// `SwitchId`s onto them). Edge weights are `f64` traffic intensities in
/// new-flows-per-second; vertex weights default to `1.0` (one switch) and
/// accumulate during coarsening.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedGraph {
    adj: Vec<Vec<(usize, f64)>>,
    vwgt: Vec<f64>,
    total_edge_weight: f64,
    num_edges: usize,
}

impl WeightedGraph {
    /// Creates a graph with `n` isolated vertices of weight 1.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            vwgt: vec![1.0; n],
            total_edge_weight: 0.0,
            num_edges: 0,
        }
    }

    /// Builds a graph from `(u, v, w)` triplets, accumulating parallel edges.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range, on self-loops, or on
    /// non-finite/negative weights.
    pub fn from_triplets<I>(n: usize, triplets: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut acc: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for (u, v, w) in triplets {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            assert_ne!(u, v, "self-loop on vertex {u}");
            assert!(w.is_finite() && w >= 0.0, "invalid edge weight {w}");
            let key = if u < v { (u, v) } else { (v, u) };
            *acc.entry(key).or_insert(0.0) += w;
        }
        let mut g = WeightedGraph::new(n);
        for ((u, v), w) in acc {
            g.push_edge(u, v, w);
        }
        g
    }

    /// Adds (or accumulates onto) an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, on self-loops, or on
    /// non-finite/negative weights.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        let n = self.adj.len();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        assert_ne!(u, v, "self-loop on vertex {u}");
        assert!(w.is_finite() && w >= 0.0, "invalid edge weight {w}");
        if let Some(slot) = self.adj[u].iter_mut().find(|(x, _)| *x == v) {
            slot.1 += w;
            if let Some(slot) = self.adj[v].iter_mut().find(|(x, _)| *x == u) {
                slot.1 += w;
            }
            self.total_edge_weight += w;
        } else {
            self.push_edge(u, v, w);
        }
    }

    fn push_edge(&mut self, u: usize, v: usize, w: f64) {
        self.adj[u].push((v, w));
        self.adj[v].push((u, w));
        self.total_edge_weight += w;
        self.num_edges += 1;
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all undirected edge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Weighted degree (sum of incident edge weights).
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|(_, w)| w).sum()
    }

    /// The weight of vertex `u` (number of original vertices it represents).
    pub(crate) fn vertex_weight(&self, u: usize) -> f64 {
        self.vwgt[u]
    }

    /// Overrides the weight of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or non-positive weights.
    pub(crate) fn set_vertex_weight(&mut self, u: usize, w: f64) {
        assert!(w.is_finite() && w > 0.0, "invalid vertex weight {w}");
        self.vwgt[u] = w;
    }

    /// Total vertex weight.
    pub(crate) fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Weight of the edge `(u, v)` or 0 when absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> f64 {
        self.adj[u]
            .iter()
            .find(|(x, _)| *x == v)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Extracts the induced subgraph over `vertices`, returning it together
    /// with the mapping from new indexes back to original vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` contains duplicates or out-of-range ids.
    pub(crate) fn subgraph(&self, vertices: &[usize]) -> (WeightedGraph, Vec<usize>) {
        let mut index_of: HashMap<usize, usize> = HashMap::with_capacity(vertices.len());
        for (new, &old) in vertices.iter().enumerate() {
            assert!(old < self.num_vertices(), "vertex {old} out of range");
            let prev = index_of.insert(old, new);
            assert!(prev.is_none(), "duplicate vertex {old} in subgraph request");
        }
        let mut sub = WeightedGraph::new(vertices.len());
        for (new_u, &old_u) in vertices.iter().enumerate() {
            sub.vwgt[new_u] = self.vwgt[old_u];
            for &(old_v, w) in &self.adj[old_u] {
                if let Some(&new_v) = index_of.get(&old_v) {
                    if new_u < new_v {
                        sub.push_edge(new_u, new_v, w);
                    }
                }
            }
        }
        (sub, vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_edge_weight(), 5.0);
        assert_eq!(g.edge_weight(0, 1), 2.0);
        assert_eq!(g.edge_weight(1, 0), 2.0);
        assert_eq!(g.edge_weight(0, 3), 0.0);
        assert_eq!(g.weighted_degree(1), 5.0);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.5);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.5);
        assert_eq!(g.total_edge_weight(), 3.5);
    }

    #[test]
    fn from_triplets_accumulates() {
        let g = WeightedGraph::from_triplets(3, vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 4.0)]);
        assert_eq!(g.edge_weight(0, 1), 2.0);
        assert_eq!(g.edge_weight(2, 1), 4.0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge weight")]
    fn nan_weight_rejected() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn vertex_weights() {
        let mut g = WeightedGraph::new(3);
        assert_eq!(g.total_vertex_weight(), 3.0);
        g.set_vertex_weight(0, 5.0);
        assert_eq!(g.vertex_weight(0), 5.0);
        assert_eq!(g.total_vertex_weight(), 7.0);
    }

    #[test]
    fn subgraph_preserves_internal_edges() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(3, 4, 4.0);
        g.set_vertex_weight(2, 9.0);
        let (sub, map) = g.subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2); // 1-2 and 2-3; 0-1 and 3-4 cut away
        assert_eq!(sub.edge_weight(0, 1), 2.0);
        assert_eq!(sub.edge_weight(1, 2), 3.0);
        assert_eq!(sub.vertex_weight(1), 9.0);
        assert_eq!(map, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate vertex")]
    fn subgraph_rejects_duplicates() {
        let g = WeightedGraph::new(3);
        let _ = g.subgraph(&[0, 0]);
    }
}
