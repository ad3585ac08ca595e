//! Scoped-thread fan-out for the batch query executor.
//!
//! It maps a function over a slice of independent work items, one
//! contiguous chunk per worker, writing each result into its item's slot
//! so output order equals input order — which makes every parallel pass
//! deterministic by construction.

/// Resolves a requested worker count: `0` means "all available cores",
/// anything else is taken literally but clamped to the host's cores
/// (these workers are CPU-bound — oversubscription is pure scheduler
/// overhead), and the result never exceeds the number of items. Every
/// worker gets a chunk of at least `min_chunk` items: small batches
/// collapse onto fewer workers instead of paying per-thread spawn cost for
/// a handful of items.
pub fn resolve_workers_chunked(requested: usize, items: usize, min_chunk: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let workers = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    workers
        .min(items)
        .min(items.div_ceil(min_chunk.max(1)))
        .max(1)
}

/// Maps `f` over `items` using scoped threads, one contiguous chunk per
/// worker, preserving order. `threads = 0` uses all available cores, and
/// `min_chunk` sets the smallest number of items worth giving one worker
/// (see [`resolve_workers_chunked`]), so thread spawn is amortized over
/// whole request chunks.
pub fn parallel_map_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    min_chunk: usize,
    f: &(dyn Fn(&T) -> R + Sync),
) -> Vec<R> {
    let workers = resolve_workers_chunked(threads, items.len(), min_chunk);
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut out;
        let mut offset = 0;
        let mut handles = Vec::new();
        while offset < items.len() {
            let take = chunk.min(items.len() - offset);
            let (slice, tail) = rest.split_at_mut(take);
            rest = tail;
            let items_chunk = &items[offset..offset + take];
            handles.push(scope.spawn(move || {
                for (slot, item) in slice.iter_mut().zip(items_chunk) {
                    *slot = Some(f(item));
                }
            }));
            offset += take;
        }
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
    out.into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [0, 1, 2, 8, 64] {
            let out = parallel_map_chunked(&items, threads, 1, &|&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_chunked(&empty, 0, 1, &|&x: &usize| x).is_empty());
        assert_eq!(parallel_map_chunked(&[7usize], 0, 1, &|&x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_workers_clamps() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        assert_eq!(resolve_workers_chunked(8, 3, 1), 3.min(cores.min(8)));
        assert_eq!(resolve_workers_chunked(2, 100, 1), 2.min(cores));
        assert_eq!(resolve_workers_chunked(0, 0, 1), 1);
        assert!(resolve_workers_chunked(0, 1000, 1) >= 1);
        assert!(
            resolve_workers_chunked(64, 1000, 1) <= cores,
            "never oversubscribe"
        );
    }

    #[test]
    fn min_chunk_collapses_small_batches() {
        // 3 items with an 8-item minimum chunk: one worker, no spawning.
        assert_eq!(resolve_workers_chunked(4, 3, 8), 1);
        assert_eq!(
            resolve_workers_chunked(4, 16, 8),
            2.min(resolve_workers_chunked(4, 16, 1))
        );
        // min_chunk = 0 is treated as 1 (no division by zero).
        assert_eq!(resolve_workers_chunked(1, 5, 0), 1);
        let out = parallel_map_chunked(&[1, 2, 3], 4, 8, &|&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }
}
