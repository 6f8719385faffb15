//! Deterministic parallel primitives for the CAQE engine.
//!
//! The engine's cost model runs on a *virtual* clock, so parallelism must
//! never change what is computed — only how fast the host computes it. Every
//! primitive here is therefore **order-preserving**: results come back
//! indexed exactly as the serial loop would have produced them, and workers
//! receive disjoint output slots so no synchronization order can leak into
//! the result. Built on `std::thread::scope`; no external runtime.
//!
//! Threading policy lives in [`Threads`], constructed from the engine's
//! `parallelism: Option<usize>` knob (`None` = serial, `Some(0)` = all host
//! cores, `Some(n)` = exactly `n` workers).

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::num::NonZeroUsize;

/// Resolved worker-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// Resolves the engine's `parallelism` knob.
    ///
    /// `None` → 1 worker (serial), `Some(0)` → host's available
    /// parallelism, `Some(n)` → exactly `n` workers.
    pub fn from_config(parallelism: Option<usize>) -> Self {
        let n = match parallelism {
            None => 1,
            Some(0) => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Some(n) => n,
        };
        Threads(NonZeroUsize::new(n.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// Exactly `n` workers (saturating at 1).
    pub fn exact(n: usize) -> Self {
        Threads(NonZeroUsize::new(n.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Whether more than one worker is available.
    pub fn is_parallel(self) -> bool {
        self.0.get() > 1
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::exact(1)
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// The index range is split into at most `threads` contiguous chunks; each
/// worker writes into its own disjoint slice of the output, so the result
/// is bit-identical to the serial loop regardless of scheduling. Panics in
/// workers propagate to the caller.
pub fn map_indexed<U, F>(threads: Threads, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if !threads.is_parallel() || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads.get().min(n));
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut chunks = out.chunks_mut(chunk).enumerate();
        // The first chunk runs on the calling thread: one fewer spawn per
        // call, and the common "barely parallel" case pays almost nothing.
        let first = chunks.next();
        for (ci, slots) in chunks {
            let f = &f;
            handles.push(s.spawn(move || {
                let base = ci * chunk;
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + j));
                }
            }));
        }
        if let Some((_, slots)) = first {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = Some(f(j));
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    // Allowed survivor: every slot was written by exactly one worker above,
    // and worker panics were already re-raised — a `None` here is
    // unreachable, not a recoverable condition.
    #[allow(clippy::expect_used)]
    out.into_iter()
        .map(|o| o.expect("worker filled every slot"))
        .collect()
}

/// Maps `f` over the items of a vector, preserving order.
pub fn map_ordered<T, U, F>(threads: Threads, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if !threads.is_parallel() || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let cells: Vec<std::sync::Mutex<Option<T>>> =
        slots.into_iter().map(std::sync::Mutex::new).collect();
    map_indexed(threads, cells.len(), |i| {
        // Poisoning recovery: the value is still intact (the panic happened
        // in another cell's closure and is re-raised by map_indexed anyway).
        let mut guard = match cells[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Allowed survivor: each index is visited exactly once by
        // construction, so the slot cannot already be empty.
        #[allow(clippy::expect_used)]
        let item = guard.take().expect("item taken once");
        drop(guard);
        f(i, item)
    })
}

/// Runs two independent closures, in parallel when allowed.
///
/// Returns `(a(), b())`; with one worker it simply runs them in sequence.
pub fn join2<A, B, FA, FB>(threads: Threads, a: FA, b: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if !threads.is_parallel() {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        match hb.join() {
            Ok(rb) => (ra, rb),
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

/// Splits `0..n` into at most `min(threads, n / min_chunk)` balanced
/// contiguous `(start, end)` chunks.
///
/// Every chunk holds at least `min_chunk` items (except when `n` itself is
/// smaller, which yields a single chunk), so inputs too small to amortize a
/// thread spawn stay on one worker. Deterministic in `n`, `min_chunk`, and
/// the worker count alone — the host's scheduling never affects the split.
pub fn chunk_ranges(threads: Threads, n: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let max_chunks = threads.get().min(n / min_chunk.max(1)).max(1);
    let chunk = n.div_ceil(max_chunks);
    (0..max_chunks)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(n)))
        .filter(|(s, e)| s < e)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::from_config(None).get(), 1);
        assert_eq!(Threads::from_config(Some(3)).get(), 3);
        assert!(Threads::from_config(Some(0)).get() >= 1);
        assert!(!Threads::from_config(None).is_parallel());
        assert!(Threads::from_config(Some(2)).is_parallel());
    }

    #[test]
    fn map_indexed_preserves_order() {
        for t in [1, 2, 4, 7] {
            let got = map_indexed(Threads::exact(t), 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={t}");
        }
    }

    #[test]
    fn map_indexed_handles_edge_sizes() {
        assert!(map_indexed(Threads::exact(4), 0, |i| i).is_empty());
        assert_eq!(map_indexed(Threads::exact(4), 1, |i| i + 10), vec![10]);
        // More workers than items.
        assert_eq!(map_indexed(Threads::exact(8), 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_ordered_moves_items() {
        let items: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let got = map_ordered(Threads::exact(3), items, |i, s| format!("{i}:{s}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("{i}:x{i}"));
        }
    }

    #[test]
    fn join2_returns_both() {
        for t in [1, 2] {
            let (a, b) = join2(Threads::exact(t), || 1 + 1, || "b".to_string());
            assert_eq!(a, 2);
            assert_eq!(b, "b");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (t, n, m) in [(4, 100, 1), (4, 100, 64), (2, 7, 3), (8, 3, 1), (3, 0, 1)] {
            let ranges = chunk_ranges(Threads::exact(t), n, m);
            let mut cursor = 0;
            for (s, e) in &ranges {
                assert_eq!(*s, cursor, "gap in ranges for t={t} n={n} m={m}");
                assert!(e > s);
                cursor = *e;
            }
            assert_eq!(cursor, n);
            assert!(ranges.len() <= t.max(1));
        }
    }

    #[test]
    fn chunk_ranges_respect_min_chunk() {
        // 100 items, min chunk 64: a split would leave chunks under 64, so
        // everything stays on one worker even with 8 available.
        let ranges = chunk_ranges(Threads::exact(8), 100, 64);
        assert_eq!(ranges, vec![(0, 100)]);
        // 200 items afford three chunks, each still >= 64.
        let ranges = chunk_ranges(Threads::exact(8), 200, 64);
        assert_eq!(ranges, vec![(0, 67), (67, 134), (134, 200)]);
        // 300 items, 2 workers: the worker cap still binds.
        let ranges = chunk_ranges(Threads::exact(2), 300, 64);
        assert_eq!(ranges, vec![(0, 150), (150, 300)]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        map_indexed(Threads::exact(2), 10, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}
