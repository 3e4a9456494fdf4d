//! The CSP constraint graph.

use std::fmt;

/// An undirected simple graph representing a graph-coloring CSP.
///
/// Vertices are `0..num_vertices()` and model CSP variables (in the FPGA
/// flow: 2-pin nets). An edge `(u, v)` is the disequality constraint
/// "u and v must receive different colors" (different routing tracks).
///
/// Self-loops are rejected and duplicate edges are ignored, so the graph is
/// always simple.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
///
/// let mut g = CspGraph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(0, 1); // duplicate, ignored
/// g.add_edge(2, 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(0), 1);
/// assert!(g.has_edge(1, 0));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CspGraph {
    /// Sorted, duplicate-free adjacency lists, one per vertex.
    adjacency: Vec<Vec<u32>>,
    num_edges: usize,
}

impl CspGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        CspGraph {
            adjacency: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Creates a graph from an edge list. Duplicate edges (in either
    /// orientation) are ignored.
    ///
    /// The list is sorted once and each adjacency list is filled in
    /// ascending order at its final size, so construction costs
    /// O(m log m) whatever the input order — unlike repeated
    /// [`CspGraph::add_edge`] calls, which shift list tails on
    /// out-of-order inserts.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n` or is a self-loop.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(n: usize, edges: I) -> Self {
        let mut pairs: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| {
                assert_ne!(u, v, "self-loops are not allowed (vertex {u})");
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u}, {v}) references a vertex >= {n}"
                );
                (u.min(v), u.max(v))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut degree = vec![0usize; n];
        for &(u, v) in &pairs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut adjacency: Vec<Vec<u32>> = degree.into_iter().map(Vec::with_capacity).collect();
        // Pairs ascend by (u, v), so vertex x first meets the pairs (u, x)
        // with u < x in ascending u, then the pairs (x, w) in ascending w:
        // every list comes out sorted.
        for &(u, v) in &pairs {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        CspGraph {
            adjacency,
            num_edges: pairs.len(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds an undirected edge. Duplicate edges are ignored.
    ///
    /// Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an out-of-range vertex.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert_ne!(u, v, "self-loops are not allowed (vertex {u})");
        let n = self.adjacency.len();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) references a vertex >= {n}"
        );
        let adj_u = &mut self.adjacency[u as usize];
        let Err(at) = adj_u.binary_search(&v) else {
            return false;
        };
        adj_u.insert(at, v);
        let adj_v = &mut self.adjacency[v as usize];
        let at = adj_v.binary_search(&u).expect_err("adjacency is symmetric");
        adj_v.insert(at, u);
        self.num_edges += 1;
        true
    }

    /// Returns `true` if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adjacency
            .get(u as usize)
            .is_some_and(|adj| adj.binary_search(&v).is_ok())
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Iterates over the neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.adjacency[v as usize].iter().copied()
    }

    /// Iterates over all edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, adj)| {
            let u = u as u32;
            adj[adj.partition_point(|&v| v < u)..]
                .iter()
                .map(move |&v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// Sum of the degrees of `v`'s neighbors — the tie-breaking key used by
    /// the paper's symmetry heuristics (§5).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_degree_sum(&self, v: u32) -> usize {
        self.adjacency[v as usize]
            .iter()
            .map(|&w| self.degree(w))
            .sum()
    }

    /// A greedily grown clique around the highest-degree vertex — a quick
    /// lower bound on the chromatic number.
    pub fn greedy_clique(&self) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        let mut clique: Vec<u32> = Vec::new();
        for v in order {
            if clique.iter().all(|&c| self.has_edge(c, v)) {
                clique.push(v);
            }
        }
        clique
    }
}

#[cfg(test)]
impl CspGraph {
    /// `true` if every adjacency list sits in an allocation of exactly its
    /// length: the mark of a bulk build that never inserted into a list.
    pub(crate) fn has_exact_lists(&self) -> bool {
        self.adjacency.iter().all(|adj| adj.capacity() == adj.len())
    }
}

impl fmt::Debug for CspGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CspGraph({} vertices, {} edges)",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = CspGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_dedups() {
        let mut g = CspGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        CspGraph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        CspGraph::new(2).add_edge(0, 2);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = CspGraph::from_edges(4, [(0, 1), (2, 1), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_and_neighbor_sum() {
        let g = CspGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        // Neighbors of 0 are 1 (deg 2), 2 (deg 2), 3 (deg 1).
        assert_eq!(g.neighbor_degree_sum(0), 5);
    }

    #[test]
    fn greedy_clique_finds_triangle() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let clique = g.greedy_clique();
        assert_eq!(clique.len(), 3);
        for i in 0..clique.len() {
            for j in (i + 1)..clique.len() {
                assert!(g.has_edge(clique[i], clique[j]));
            }
        }
    }

    /// A seeded random edge list over `n` vertices with every edge listed
    /// in both orientations and some listed twice, in shuffled order.
    fn shuffled_edges(n: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    edges.push((u, v));
                    edges.push((v, u));
                    if rng.gen_bool(0.2) {
                        edges.push((u, v));
                    }
                }
            }
        }
        edges.shuffle(&mut rng);
        edges
    }

    #[test]
    fn lists_stay_sorted_and_duplicate_free_under_shuffled_inserts() {
        for seed in 0..8u64 {
            let n = 5 + 7 * seed as u32;
            let edges = shuffled_edges(n, seed);
            let distinct: BTreeSet<(u32, u32)> =
                edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            let mut incremental = CspGraph::new(n as usize);
            for &(u, v) in &edges {
                incremental.add_edge(u, v);
            }
            let bulk = CspGraph::from_edges(n as usize, edges.iter().copied());
            assert_eq!(incremental, bulk, "seed {seed}");
            for g in [&incremental, &bulk] {
                for adj in &g.adjacency {
                    assert!(adj.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
                }
                assert_eq!(g.num_edges(), distinct.len(), "seed {seed}");
                let listed: Vec<(u32, u32)> = g.edges().collect();
                assert_eq!(listed, distinct.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn from_edges_fills_each_list_once_at_its_final_size() {
        // Reverse order is the worst case for sorted insertion; the bulk
        // build never inserts, so no list grows past its degree.
        let n = 300u32;
        let mut edges = Vec::new();
        for u in (0..n).rev() {
            for v in (0..u).rev() {
                edges.push((u, v));
            }
        }
        let g = CspGraph::from_edges(n as usize, edges);
        assert_eq!(g.num_edges(), (n * (n - 1) / 2) as usize);
        assert!(g.has_exact_lists());
    }

    #[test]
    fn greedy_clique_on_empty_graph() {
        assert!(CspGraph::new(0).greedy_clique().is_empty());
        assert_eq!(CspGraph::new(3).greedy_clique().len(), 1);
    }
}
