//! The shared ordered work-stealing pool.
//!
//! Every bulk executor in this crate — the sweep grid, the fleet's
//! per-worker shards, and the record-corpus subsystem (batch recording
//! and parallel corpus verification) — schedules work the same way: a
//! next-index counter hands items to workers as they free up, each
//! worker hands back its `(index, result)` pairs when it joins, and the
//! pairs are sorted by index, so the output order always matches a
//! sequential run regardless of completion order. That order stability
//! is what the workspace's byte-identity guarantees (sweep results,
//! corpus verify summaries) are built on; fleet reports need no order,
//! because their shard reducers merge exactly.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means one worker per
/// available core, and the result never exceeds the item count.
pub(crate) fn resolve_workers(requested: usize, items: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let workers = if requested == 0 { auto } else { requested };
    workers.min(items).max(1)
}

/// Runs `f` over every item through a work-stealing worker pool and
/// returns the results in item order (identical to a sequential map).
/// `requested == 0` sizes the pool to the available cores; a resolved
/// width of one runs on the caller's thread with no pool at all.
///
/// # Panics
///
/// Re-raises the panic of a worker thread on the caller's thread.
pub(crate) fn run_ordered<T, R, F>(items: &[T], requested: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = resolve_workers(requested, items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(idx) else {
                return done;
            };
            done.push((idx, f(item)));
        }
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(done) => all.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(idx, _)| idx);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_across_widths() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * 3 + 1).collect();
        for requested in [0, 1, 2, 5, 128] {
            let got = run_ordered(&items, requested, |v| v * 3 + 1);
            assert_eq!(got, expected, "requested={requested}");
        }
        assert!(run_ordered(&[] as &[u64], 4, |v| *v).is_empty());
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let items: Vec<u64> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            run_ordered(&items, 2, |v| {
                assert_ne!(*v, 11, "item eleven");
                *v
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("");
        assert!(msg.contains("item eleven"), "payload: {msg:?}");
    }

    #[test]
    fn worker_resolution_is_bounded() {
        assert_eq!(resolve_workers(3, 10), 3);
        assert_eq!(resolve_workers(16, 2), 2);
        assert!(resolve_workers(0, 1000) >= 1);
        assert_eq!(resolve_workers(0, 1), 1);
    }
}
