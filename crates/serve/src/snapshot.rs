//! Versioned, immutable cover snapshots and the store that publishes them.
//!
//! The serving memory model: a [`CoverSnapshot`] is immutable after
//! construction — the cover, its inverted index, and the epoch id are
//! frozen together, so every fact a reader derives from one snapshot is
//! consistent with every other fact from the same snapshot. The
//! [`SnapshotStore`] holds the current snapshot behind an `Arc`: readers
//! clone the `Arc` (a single atomic increment under a briefly-held read
//! lock) and then work entirely lock-free on their pinned snapshot, while
//! the recompute thread builds the next snapshot's index *outside* any
//! lock and swaps the `Arc` in one short write section. Readers therefore
//! never wait on a rebuild, and a reader that pinned epoch `e` keeps a
//! complete epoch-`e` view even after `e + 1` is published — the old
//! snapshot is freed when its last reader drops it.

use crate::index::CoverIndex;
use oca_graph::Cover;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// One immutable, versioned view of a cover: the cover, its inverted
/// index, and the interaction strength it was detected with.
#[derive(Debug)]
pub struct CoverSnapshot {
    /// Monotonically increasing version; the warm-start snapshot is epoch
    /// 1 and every successful recompute publishes the next epoch.
    pub epoch: u64,
    /// The cover itself.
    pub cover: Cover,
    /// Inverted node→community index over `cover`.
    pub index: CoverIndex,
    /// Interaction strength `c` the cover was detected with (also used by
    /// `local` queries answered against this snapshot).
    pub c: f64,
    /// When this snapshot was constructed. `stats` reports the current
    /// snapshot's age from this — a growing age alongside recompute
    /// failures is the operator's staleness signal.
    pub published_at: Instant,
}

impl CoverSnapshot {
    /// Builds the snapshot for `cover`, constructing its index. The epoch
    /// is assigned by [`SnapshotStore::publish`]; standalone construction
    /// (tests, persistence round-trips) gets epoch 0.
    pub fn new(cover: Cover, c: f64) -> Self {
        let index = CoverIndex::build(&cover);
        CoverSnapshot {
            epoch: 0,
            cover,
            index,
            c,
            published_at: Instant::now(),
        }
    }

    /// Seconds since this snapshot was constructed.
    pub fn age_secs(&self) -> f64 {
        self.published_at.elapsed().as_secs_f64()
    }

    /// Number of nodes of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.cover.node_count()
    }
}

/// The publication point: readers pin the current snapshot, the recompute
/// thread swaps in new epochs. See the [module docs](self) for the memory
/// model.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<CoverSnapshot>>,
    /// Last published epoch, readable without the lock (stats/health).
    epoch: AtomicU64,
}

impl SnapshotStore {
    /// A store whose first snapshot is `cover` at epoch 1.
    pub fn new(cover: Cover, c: f64) -> Self {
        let mut snapshot = CoverSnapshot::new(cover, c);
        snapshot.epoch = 1;
        SnapshotStore {
            current: RwLock::new(Arc::new(snapshot)),
            epoch: AtomicU64::new(1),
        }
    }

    /// Pins the current snapshot. O(1): one `Arc` clone under a read lock
    /// held for the duration of the clone only. The returned snapshot
    /// stays valid (and immutable) however many epochs are published
    /// after it.
    pub fn load(&self) -> Arc<CoverSnapshot> {
        // Poison is recovered, not propagated: requests run under
        // `catch_unwind`, and the guarded write is a pointer swap.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `cover` as the next epoch and returns it. The index is
    /// built *before* the write lock is taken, so readers are blocked only
    /// for the pointer swap itself.
    pub fn publish(&self, cover: Cover, c: f64) -> u64 {
        let mut snapshot = CoverSnapshot::new(cover, c);
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let epoch = current.epoch + 1;
        snapshot.epoch = epoch;
        *current = Arc::new(snapshot);
        drop(current);
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The last published epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::{Community, NodeId};

    fn cover(node_count: usize, sets: &[&[u32]]) -> Cover {
        Cover::new(
            node_count,
            sets.iter()
                .map(|s| Community::from_raw(s.iter().copied()))
                .collect(),
        )
    }

    #[test]
    fn store_starts_at_epoch_one_and_increments() {
        let store = SnapshotStore::new(cover(4, &[&[0, 1]]), 0.5);
        assert_eq!(store.epoch(), 1);
        let first = store.load();
        assert_eq!(first.epoch, 1);
        let e = store.publish(cover(4, &[&[0, 1], &[2, 3]]), 0.5);
        assert_eq!(e, 2);
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.load().epoch, 2);
    }

    #[test]
    fn pinned_snapshots_survive_publication() {
        let store = SnapshotStore::new(cover(4, &[&[0, 1]]), 0.5);
        let pinned = store.load();
        store.publish(cover(4, &[&[2, 3]]), 0.5);
        // The pinned epoch-1 view is unchanged and internally consistent.
        assert_eq!(pinned.epoch, 1);
        assert_eq!(pinned.cover.len(), 1);
        assert_eq!(pinned.index.communities_of(NodeId(0)), &[0]);
        assert!(pinned.index.communities_of(NodeId(2)).is_empty());
        // The new epoch sees the new cover.
        let now = store.load();
        assert_eq!(now.epoch, 2);
        assert!(now.index.communities_of(NodeId(0)).is_empty());
        assert_eq!(now.index.communities_of(NodeId(2)), &[0]);
    }

    #[test]
    fn snapshot_index_matches_its_cover() {
        let snap = CoverSnapshot::new(cover(5, &[&[0, 1, 2], &[2, 3]]), 0.7);
        assert_eq!(snap.node_count(), 5);
        assert_eq!(snap.index.communities_of(NodeId(2)), &[0, 1]);
        assert_eq!(snap.c, 0.7);
    }

    #[test]
    fn store_survives_a_panicked_lock_holder() {
        let store = SnapshotStore::new(cover(4, &[&[0, 1]]), 0.5);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = store.current.write().unwrap();
                panic!("poison the store");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.current.is_poisoned());
        // Readers and the publisher carry on with the last complete epoch.
        assert_eq!(store.load().epoch, 1);
        assert_eq!(store.publish(cover(4, &[&[2, 3]]), 0.5), 2);
        assert_eq!(store.load().cover.len(), 1);
    }
}
