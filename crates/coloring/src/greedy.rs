//! Greedy coloring heuristics: fast upper bounds on the chromatic number.
//!
//! These are not part of the paper's SAT flow; they bound the search range
//! when the pipeline looks for the minimum routable channel width, and they
//! act as sanity oracles in tests.

use crate::{Coloring, CspGraph};

/// Colors the graph greedily in the given vertex order, always using the
/// smallest color not used by an already-colored neighbor.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertices.
pub fn greedy_coloring_with_order(graph: &CspGraph, order: &[u32]) -> Coloring {
    let n = graph.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut used: Vec<bool> = Vec::new();
    for &v in order {
        used.clear();
        used.resize(n + 1, false);
        for w in graph.neighbors(v) {
            if let Some(c) = colors[w as usize] {
                used[c as usize] = true;
            }
        }
        let color = used
            .iter()
            .position(|&u| !u)
            .expect("n+1 slots always contain a free color") as u32;
        assert!(
            colors[v as usize].is_none(),
            "order visits vertex {v} twice"
        );
        colors[v as usize] = Some(color);
    }
    Coloring::from_colors(
        colors
            .into_iter()
            .map(|c| c.expect("order must be a permutation"))
            .collect(),
    )
}

/// Greedy coloring in descending-degree order (Welsh–Powell).
///
/// # Examples
///
/// ```
/// use satroute_coloring::{CspGraph, greedy_coloring};
///
/// let g = CspGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let c = greedy_coloring(&g);
/// assert!(c.is_proper(&g));
/// assert!(c.num_colors() <= 3);
/// ```
pub fn greedy_coloring(graph: &CspGraph) -> Coloring {
    let mut order: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    greedy_coloring_with_order(graph, &order)
}

/// Greedy coloring with a hard color budget — the "one net at a time"
/// detailed-routing baseline the paper contrasts with SAT (§1: non-SAT
/// routers route nets sequentially and can fail on routable instances;
/// SAT considers all nets simultaneously).
///
/// Colors vertices in `order`, always taking the smallest color `< k` not
/// used by an already-colored neighbor. Returns `None` as soon as a vertex
/// has no legal color — which can happen even when a proper k-coloring
/// exists, since earlier choices are never revisited.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertices.
///
/// # Examples
///
/// ```
/// use satroute_coloring::{greedy_coloring_capped, CspGraph};
///
/// // The 3-crown: K(3,3) minus a perfect matching, chromatic number 2 —
/// // but interleaved greedy ordering needs 3 colors, so it fails at k = 2.
/// let g = CspGraph::from_edges(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]);
/// assert!(greedy_coloring_capped(&g, 2, &[0, 3, 1, 4, 2, 5]).is_none());
/// // A SAT-based router (or a better order) finds the 2-coloring.
/// assert!(greedy_coloring_capped(&g, 2, &[0, 1, 2, 3, 4, 5]).is_some());
/// ```
pub fn greedy_coloring_capped(graph: &CspGraph, k: u32, order: &[u32]) -> Option<Coloring> {
    let n = graph.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut used = vec![false; k as usize];
    for &v in order {
        for u in used.iter_mut() {
            *u = false;
        }
        for w in graph.neighbors(v) {
            if let Some(c) = colors[w as usize] {
                if c < k {
                    used[c as usize] = true;
                }
            }
        }
        let color = used.iter().position(|&u| !u)? as u32;
        assert!(
            colors[v as usize].is_none(),
            "order visits vertex {v} twice"
        );
        colors[v as usize] = Some(color);
    }
    Some(Coloring::from_colors(
        colors
            .into_iter()
            .map(|c| c.expect("order is a permutation"))
            .collect(),
    ))
}

/// DSATUR coloring (Brélaz): repeatedly colors the vertex with the highest
/// saturation (number of distinct neighbor colors), breaking ties by degree
/// and then by taking the highest-numbered vertex.
///
/// Usually produces tighter bounds than [`greedy_coloring`]; it is the
/// upper-bound oracle used when calibrating benchmark channel widths.
pub fn dsatur_coloring(graph: &CspGraph) -> Coloring {
    const UNCOLORED: u32 = u32::MAX;
    let n = graph.num_vertices();
    // A vertex never gets a color above its degree, so `max_degree + 1`
    // flags per vertex record every color its neighbors can hold.
    let row = (graph.max_degree() + 1).div_ceil(64);
    let mut neighbor_colors: Vec<u64> = vec![0; n * row];
    let mut saturation: Vec<u32> = vec![0; n];
    let mut colors: Vec<u32> = vec![UNCOLORED; n];

    for _ in 0..n {
        // The uncolored vertex with max (saturation, degree); `>=` keeps the
        // last of equal keys, as `Iterator::max_by_key` does.
        let (mut best_key, mut v) = (0u64, usize::MAX);
        for (u, &color) in colors.iter().enumerate() {
            if color == UNCOLORED {
                let key = u64::from(saturation[u]) << 32 | graph.degree(u as u32) as u64;
                if key >= best_key {
                    (best_key, v) = (key, u);
                }
            }
        }
        let flags = &neighbor_colors[v * row..(v + 1) * row];
        let word = flags
            .iter()
            .position(|&w| w != u64::MAX)
            .expect("a vertex always has a free color at or below its degree");
        let color = (word * 64) as u32 + flags[word].trailing_ones();
        colors[v] = color;
        let (word, bit) = (color as usize / 64, 1u64 << (color % 64));
        for w in graph.neighbors(v as u32) {
            let w = w as usize;
            let flags = &mut neighbor_colors[w * row + word];
            if *flags & bit == 0 {
                *flags |= bit;
                saturation[w] += 1;
            }
        }
    }

    Coloring::from_colors(colors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CspGraph::new(0);
        assert_eq!(greedy_coloring(&g).len(), 0);
        assert_eq!(dsatur_coloring(&g).len(), 0);
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = CspGraph::new(5);
        assert_eq!(greedy_coloring(&g).num_colors(), 1);
        assert_eq!(dsatur_coloring(&g).num_colors(), 1);
    }

    #[test]
    fn complete_graph_uses_n_colors() {
        let n = 6u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        let g = CspGraph::from_edges(n as usize, edges);
        assert_eq!(greedy_coloring(&g).num_colors(), n as usize);
        assert_eq!(dsatur_coloring(&g).num_colors(), n as usize);
    }

    #[test]
    fn bipartite_graph_dsatur_uses_two_colors() {
        // Complete bipartite K(3,3).
        let mut edges = Vec::new();
        for i in 0..3u32 {
            for j in 3..6u32 {
                edges.push((i, j));
            }
        }
        let g = CspGraph::from_edges(6, edges);
        let c = dsatur_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let c = dsatur_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 3);
    }

    #[test]
    fn custom_order_is_respected() {
        let g = CspGraph::from_edges(3, [(0, 1)]);
        let c = greedy_coloring_with_order(&g, &[1, 0, 2]);
        assert!(c.is_proper(&g));
        assert_eq!(c.color(1), 0);
        assert_eq!(c.color(0), 1);
        assert_eq!(c.color(2), 0);
    }

    #[test]
    #[should_panic]
    fn non_permutation_order_panics() {
        let g = CspGraph::new(3);
        let _ = greedy_coloring_with_order(&g, &[0, 0, 1]);
    }
}
