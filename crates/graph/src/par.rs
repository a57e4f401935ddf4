//! Fork-join over scoped threads, for the `.ocg` build and audit.
//!
//! Each call hands its items to one thread apiece, the first on the
//! calling thread, and joins them all before it returns; nothing outlives
//! the call, so the items may borrow disjoint parts of one buffer.

/// The host's available parallelism, capped at 8: the worker count of a
/// `.ocg` build and the thread count of the tuned detect preset.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// `f` of each item, in item order. The first item runs on this thread,
/// every other one on a thread of its own; a panic in any of them is
/// raised again here.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for handle in handles {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

/// Runs `a` on this thread and `b` on a thread of its own beside it, and
/// returns both results.
pub(crate) fn join<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let other = s.spawn(b);
        let a = a();
        let b = other
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (a, b)
    })
}

/// `0..len` cut into `parts` contiguous ranges whose lengths differ by at
/// most one (empty ranges when `parts > len`).
pub(crate) fn even_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|j| j * len / parts..(j + 1) * len / parts)
        .collect()
}

/// Splits `slice` at the ends of `ranges`, which must tile it in order.
pub(crate) fn split_ranges_mut<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut at = 0;
    ranges
        .iter()
        .map(|range| {
            debug_assert_eq!(range.start, at);
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(range.end - at);
            slice = tail;
            at = range.end;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order_and_splits_disjointly() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = even_ranges(data.len(), 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
        let sums = par_map(split_ranges_mut(&mut data, &ranges), |part| {
            part.iter_mut().for_each(|x| *x *= 2);
            part.iter().sum::<u32>()
        });
        assert_eq!(sums, vec![6, 24, 60]);
        assert_eq!(data, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        assert_eq!(even_ranges(2, 4), vec![0..0, 0..1, 1..1, 1..2]);
        assert!(par_map(Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(join(|| 1, || 2), (1, 2));
    }
}
