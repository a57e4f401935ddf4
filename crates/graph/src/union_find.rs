//! Disjoint-set forest (union–find) with path halving and union by size.
//!
//! Used by connected-components, the clique-percolation baseline, the
//! LFR generator's repair phase, and `merge_similar`'s closure of the
//! accepted pairs.

/// A disjoint-set forest over `0..len` with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    /// parent[i] is the parent of i; roots are their own parent.
    parent: Vec<u32>,
    /// size[r] is the component size for roots r (stale for non-roots).
    size: Vec<u32>,
    /// Number of disjoint sets.
    sets: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "UnionFind supports up to 2^32 - 1 elements"
        );
        UnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            sets: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of `x`, halving paths along the way.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Returns, for each element, a dense set label in `0..set_count()`.
    ///
    /// Labels are assigned in order of first appearance, so they are
    /// deterministic for a given union history.
    pub fn labels(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut label_of_root = vec![u32::MAX; n];
        let mut labels = Vec::with_capacity(n);
        let mut next = 0u32;
        for i in 0..n {
            let r = self.find(i);
            if label_of_root[r] == u32::MAX {
                label_of_root[r] = next;
                next += 1;
            }
            labels.push(label_of_root[r]);
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.size_of(2), 1);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.size_of(1), 3);
        assert_eq!(uf.size_of(3), 1);
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let labels = uf.labels();
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        let max = *labels.iter().max().unwrap() as usize;
        assert_eq!(max + 1, uf.set_count());
    }

    #[test]
    fn empty_and_len() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        assert_eq!(uf.set_count(), 0);
    }

    #[test]
    fn chain_of_unions_single_set() {
        let n = 100;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.set_count(), 1);
        assert_eq!(uf.size_of(0), n);
    }
}
