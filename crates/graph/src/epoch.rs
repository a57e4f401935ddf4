//! Epoch-stamped counters: a reusable flat counter array with O(touched)
//! clearing.
//!
//! Orphan assignment and the serve tier's top-k overlap queries need "count
//! occurrences of a few keys out of a large dense id space, then
//! start over" thousands of times per run. A `HashMap` pays hashing and
//! allocation per key; a plain `Vec<u32>` pays an O(n) clear per round.
//! Epoch stamping gives the flat-array read/write cost with O(1) logical
//! clearing: each slot remembers the epoch it was last written in, and a
//! slot whose stamp is stale reads as zero.

/// A dense `0..len` counter array with epoch-stamped O(1) reset.
///
/// Typical loop: [`EpochCounters::begin`] once per round, [`bump`] per
/// observation, then iterate [`touched`] to read the non-zero counts.
///
/// [`bump`]: EpochCounters::bump
/// [`touched`]: EpochCounters::touched
#[derive(Debug, Clone)]
pub struct EpochCounters {
    /// Epoch in which `count[i]` was last written.
    stamp: Vec<u32>,
    count: Vec<u32>,
    /// Current epoch; stamps not equal to it are stale.
    epoch: u32,
    /// Keys bumped since the last [`EpochCounters::begin`], in first-bump
    /// order (deterministic for a deterministic bump sequence).
    touched: Vec<u32>,
}

impl EpochCounters {
    /// Counters for keys `0..len`, all logically zero.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "key space exceeds u32");
        EpochCounters {
            stamp: vec![0; len],
            count: vec![0; len],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// True if the key space is empty.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Starts a new round: every counter logically resets to zero in O(1)
    /// (amortized — on the rare epoch wrap-around the stamp array is
    /// rewritten once so stale stamps can never alias the new epoch).
    pub fn begin(&mut self) {
        self.touched.clear();
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                self.stamp.fill(0);
                self.epoch = 1;
            }
        }
    }

    /// Increments the counter for `key`, returning the new value.
    #[inline]
    pub fn bump(&mut self, key: u32) -> u32 {
        let i = key as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.count[i] = 1;
            self.touched.push(key);
            1
        } else {
            self.count[i] += 1;
            self.count[i]
        }
    }

    /// The current count for `key` (zero if untouched this round).
    #[inline]
    pub fn get(&self, key: u32) -> u32 {
        let i = key as usize;
        if self.stamp[i] == self.epoch {
            self.count[i]
        } else {
            0
        }
    }

    /// Keys bumped since [`EpochCounters::begin`], in first-bump order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let mut c = EpochCounters::new(5);
        c.begin();
        assert_eq!(c.bump(3), 1);
        assert_eq!(c.bump(3), 2);
        assert_eq!(c.bump(1), 1);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.touched(), &[3, 1], "first-bump order");
        c.begin();
        assert_eq!(c.get(3), 0, "begin logically zeroes everything");
        assert!(c.touched().is_empty());
        assert_eq!(c.bump(3), 1, "counts restart from zero");
    }

    #[test]
    fn epoch_wraparound_cannot_resurrect_stale_counts() {
        let mut c = EpochCounters::new(2);
        c.begin();
        c.bump(0);
        // Force the wrap: the next begin() must rewrite the stamps so the
        // old stamp value cannot alias the restarted epoch.
        c.epoch = u32::MAX;
        c.stamp[1] = u32::MAX; // a stale stamp that would alias epoch MAX
        c.begin();
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.bump(1), 1);
    }

    #[test]
    fn empty_key_space() {
        let mut c = EpochCounters::new(0);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        c.begin();
        assert!(c.touched().is_empty());
    }
}
