//! Summary statistics for graphs (Table I of the paper).

use crate::csr::CsrGraph;

/// Aggregate statistics of a graph, as reported in the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree (2m/n).
    pub avg_degree: f64,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes statistics in a single pass over the degree array.
    pub fn compute(graph: &CsrGraph) -> Self {
        let n = graph.node_count();
        let mut min_degree = usize::MAX;
        let mut max_degree = 0usize;
        let mut isolated = 0usize;
        for v in graph.nodes() {
            let d = graph.degree(v);
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        if n == 0 {
            min_degree = 0;
        }
        GraphStats {
            nodes: n,
            edges: graph.edge_count(),
            min_degree,
            max_degree,
            avg_degree: graph.average_degree(),
            isolated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn stats_on_triangle_with_isolate() {
        let g = from_edges(4, [(0, 1), (1, 2), (0, 2)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 1);
        assert!((s.avg_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = crate::csr::CsrGraph::empty(0);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.min_degree, 0);
    }
}
