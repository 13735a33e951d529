//! The workspace's one data-parallel primitive: an order-preserving map
//! on scoped OS threads.
//!
//! Callers hand over independent work items and rely on nothing but the
//! output order, so their results are the same on any number of workers —
//! which the equivalence tests pin through [`with_workers`].  They are the
//! Monte-Carlo subset sampling of `analysis::subset`, the catalog's naming
//! pass (`sim::catalog::CatalogDraws::name`) and the manager's final
//! file-name rewrite (`honeypot::FileTable::map_names`); the last two map
//! over [`shares`].

use std::cell::Cell;

thread_local! {
    /// Worker count pinned on this thread by [`with_workers`].
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Threads [`par_map`] spreads work over when called from this thread:
/// the machine's available parallelism, unless pinned by [`with_workers`].
pub fn workers() -> usize {
    PINNED.get().unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with this thread's [`par_map`] calls pinned to `n` workers.
/// For tests that show a result does not depend on the worker count;
/// production code lets the machine decide.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.set(self.0);
        }
    }
    let _restore = Restore(PINNED.replace(Some(n.max(1))));
    f()
}

/// `0..n` cut into contiguous, balanced ranges, one per worker (one range
/// when `n` is 0): the items of a [`par_map`] over a slice.
pub fn shares(n: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers().clamp(1, n.max(1));
    (0..workers).map(|w| w * n / workers..(w + 1) * n / workers).collect()
}

/// Applies `f` to every item, in parallel over contiguous chunks (one per
/// worker), and returns the results in item order.  A panic in `f`
/// resurfaces on the calling thread.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = workers().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (base, extra) = (items.len() / workers, items.len() % workers);
    let mut items = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..workers)
        .map(|i| items.by_ref().take(base + usize::from(i < extra)).collect())
        .collect();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn order_is_preserved_for_every_worker_count() {
        let expected: Vec<u64> = (0..37u64).map(|v| v * v).collect();
        for n in [1, 2, 3, 8, 64] {
            let got = with_workers(n, || par_map((0..37u64).collect(), |v| v * v));
            assert_eq!(got, expected, "{n} workers");
        }
        assert!(par_map(Vec::<u8>::new(), |v| v).is_empty());
    }

    #[test]
    fn pinned_count_is_the_thread_count_and_is_restored() {
        let outside = workers();
        let threads = Mutex::new(HashSet::new());
        with_workers(4, || {
            assert_eq!(workers(), 4);
            par_map((0..16).collect(), |_: i32| {
                threads.lock().unwrap().insert(std::thread::current().id());
            });
            with_workers(1, || assert_eq!(workers(), 1));
            assert_eq!(workers(), 4);
        });
        assert_eq!(threads.lock().unwrap().len(), 4);
        assert_eq!(workers(), outside);
    }

    #[test]
    fn shares_cover_the_range_once_in_order() {
        for n in [0, 1, 2, 7, 100] {
            for workers in [1, 2, 3, 8] {
                let shares = with_workers(workers, || shares(n));
                assert_eq!(shares.len(), workers.min(n).max(1), "{n} items, {workers} workers");
                let flat: Vec<usize> = shares.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "{n} items, {workers} workers");
            }
        }
    }

    #[test]
    fn worker_panic_resurfaces_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            with_workers(2, || par_map(vec![1, 2, 3, 4], |v| assert!(v != 3, "item {v}")))
        });
        assert!(caught.is_err());
    }
}
