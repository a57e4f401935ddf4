//! Breadth-first neighbourhoods.

use crate::csr::CsrGraph;
use crate::node::NodeId;

/// Nodes within `radius` hops of `start` (including `start`), in BFS order.
pub fn ball(graph: &CsrGraph, start: NodeId, radius: usize) -> Vec<NodeId> {
    let mut visited = vec![false; graph.node_count()];
    let mut out = Vec::new();
    let mut frontier = vec![start];
    visited[start.index()] = true;
    out.push(start);
    for _ in 0..radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in graph.neighbors(v) {
                if !visited[u.index()] {
                    visited[u.index()] = true;
                    out.push(u);
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn path_graph() -> CsrGraph {
        from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_visits_in_level_order() {
        let g = from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)]);
        let order: Vec<_> = ball(&g, NodeId(0), usize::MAX)
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_only_reaches_component() {
        let g = from_edges(5, [(0, 1), (2, 3)]);
        assert_eq!(ball(&g, NodeId(0), usize::MAX).len(), 2);
    }

    #[test]
    fn ball_radii() {
        let g = path_graph();
        assert_eq!(ball(&g, NodeId(2), 0), vec![NodeId(2)]);
        let b1: Vec<_> = ball(&g, NodeId(2), 1).iter().map(|v| v.raw()).collect();
        assert_eq!(b1, vec![2, 1, 3]);
        assert_eq!(ball(&g, NodeId(0), 10).len(), 5, "saturates at component");
    }
}
