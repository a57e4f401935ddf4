//! k-core decomposition (Matula–Beck peeling).
//!
//! The core number of a node is the largest `k` such that the node survives
//! in the maximal subgraph of minimum degree `k`. `oca stats` reports the
//! largest core number as the graph's degeneracy.

use crate::csr::CsrGraph;
use crate::node::NodeId;

/// The k-core decomposition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// Core number per node.
    core: Vec<u32>,
    /// The maximum core number (degeneracy of the graph).
    degeneracy: u32,
}

impl CoreDecomposition {
    /// Computes core numbers with the linear-time bucket peeling algorithm.
    pub fn compute(graph: &CsrGraph) -> Self {
        let n = graph.node_count();
        if n == 0 {
            return CoreDecomposition {
                core: Vec::new(),
                degeneracy: 0,
            };
        }
        let mut degree: Vec<u32> = graph.nodes().map(|v| graph.degree(v) as u32).collect();
        let max_degree = *degree.iter().max().unwrap() as usize;
        // Bucket sort nodes by degree.
        let mut bin = vec![0usize; max_degree + 2];
        for &d in &degree {
            bin[d as usize + 1] += 1;
        }
        for i in 1..bin.len() {
            bin[i] += bin[i - 1];
        }
        let mut pos = vec![0usize; n]; // position of node in `vert`
        let mut vert = vec![0u32; n]; // nodes sorted by current degree
        {
            let mut cursor = bin.clone();
            for v in 0..n {
                let d = degree[v] as usize;
                pos[v] = cursor[d];
                vert[cursor[d]] = v as u32;
                cursor[d] += 1;
            }
        }
        // `bin[d]` = index of first node with degree ≥ d.
        let mut core = degree.clone();
        let mut degeneracy = 0u32;
        for i in 0..n {
            let v = vert[i] as usize;
            degeneracy = degeneracy.max(core[v]);
            for &u in graph.neighbors(NodeId(v as u32)) {
                let u = u.index();
                if degree[u] > degree[v] {
                    // Move u one bucket down: swap with the first node of
                    // its current bucket.
                    let du = degree[u] as usize;
                    let pu = pos[u];
                    let pw = bin[du];
                    let w = vert[pw] as usize;
                    if u != w {
                        vert.swap(pu, pw);
                        pos[u] = pw;
                        pos[w] = pu;
                    }
                    bin[du] += 1;
                    degree[u] -= 1;
                    core[u] = degree[u];
                }
            }
        }
        // Core number of v is its degree at peel time, already in `core`.
        CoreDecomposition { core, degeneracy }
    }

    /// Core number of a node.
    pub fn core_number(&self, v: NodeId) -> u32 {
        self.core[v.index()]
    }

    /// All core numbers, indexed by node.
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The graph's degeneracy (maximum core number).
    pub fn degeneracy(&self) -> u32 {
        self.degeneracy
    }

    /// Nodes whose core number is at least `k`.
    pub fn k_core_members(&self, k: u32) -> Vec<NodeId> {
        self.core
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn clique_core_numbers() {
        // K4: everything is in the 3-core.
        let g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.degeneracy(), 3);
        for v in g.nodes() {
            assert_eq!(d.core_number(v), 3);
        }
    }

    #[test]
    fn path_is_one_core() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.degeneracy(), 1);
        assert!(g.nodes().all(|v| d.core_number(v) == 1));
    }

    #[test]
    fn clique_with_pendant() {
        // Triangle + pendant: pendant is 1-core, triangle is 2-core.
        let g = from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core_number(NodeId(3)), 1);
        assert_eq!(d.core_number(NodeId(0)), 2);
        assert_eq!(d.core_number(NodeId(2)), 2);
        assert_eq!(d.degeneracy(), 2);
        assert_eq!(d.k_core_members(2).len(), 3);
    }

    #[test]
    fn isolated_nodes_are_zero_core() {
        let g = from_edges(3, [(0, 1)]);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core_number(NodeId(2)), 0);
        assert_eq!(d.k_core_members(0).len(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.degeneracy(), 0);
        assert!(d.core_numbers().is_empty());
    }

    #[test]
    fn chain_of_cliques_peels_correctly() {
        // Two triangles joined by a path of two nodes.
        let g = from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
            ],
        );
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core_number(NodeId(0)), 2);
        // Node 3 keeps degree 2 (to nodes 2 and 4) in the subgraph spanning
        // both triangles and the bridge, so it survives into the 2-core —
        // a k-core needs min degree k, not a cycle through every node.
        assert_eq!(d.core_number(NodeId(3)), 2);
        assert_eq!(d.core_number(NodeId(5)), 2);
        assert_eq!(d.core_number(NodeId(7)), 1);
    }

    #[test]
    fn core_invariant_holds() {
        // Property: within the k-core subgraph every node has ≥ k neighbors
        // inside the subgraph.
        let g = from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (4, 6),
                (5, 7),
                (4, 7),
                (5, 8),
                (8, 9),
            ],
        );
        let d = CoreDecomposition::compute(&g);
        for k in 0..=d.degeneracy() {
            let members = d.k_core_members(k);
            let inside: std::collections::HashSet<_> = members.iter().copied().collect();
            for &v in &members {
                let deg_in = g.neighbors(v).iter().filter(|u| inside.contains(u)).count();
                assert!(
                    deg_in as u32 >= k,
                    "node {v:?} has {deg_in} < {k} neighbors in the {k}-core"
                );
            }
        }
    }

    use crate::csr::CsrGraph;
}
