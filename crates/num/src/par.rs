//! A small deterministic data-parallel executor.
//!
//! CQA operators are embarrassingly parallel over their *outer* tuple
//! vector: each input tuple contributes an independent slice of output
//! tuples, and the serial evaluator simply concatenates those slices in
//! input order. This module parallelizes exactly that shape while
//! keeping the output **bit-identical** to the serial path:
//!
//! 1. the input slice is split into contiguous chunks;
//! 2. a fixed pool of scoped threads (`std::thread::scope`, no external
//!    dependencies) pulls chunk indices from an atomic work queue;
//! 3. each chunk's results are buffered in a per-chunk slot;
//! 4. the slots are concatenated **in chunk order**.
//!
//! Because chunks are contiguous and concatenation follows chunk order,
//! the output sequence is the same for every thread count, including
//! the `threads = 1` serial fast path (which spawns nothing at all).
//!
//! The executor lives in `cqa-num` — the root of the crate graph — so
//! both `cqa-core` (algebra operators) and `cqa-spatial` (whole-feature
//! operators) can share one implementation without a dependency cycle.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A shared cancellation flag, cloneable across threads.
///
/// Workers poll the token **between chunks** (never mid-item), so a
/// cancelled run stops at a chunk boundary; the executor then discards
/// every partial slot and reports [`Cancelled`], which keeps cancelled
/// runs deterministic — the caller sees either the complete result or
/// nothing, regardless of thread count or where the flag was raised.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Lowers the flag again (used when re-arming a governor between
    /// sequential runs that share one token).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// The run observed a raised [`CancelToken`]; all partial output was
/// discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("execution cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Work-queue chunks handed out per thread; > 1 so a slow chunk does not
/// leave the other workers idle (cheap dynamic load balancing).
const CHUNKS_PER_THREAD: usize = 4;

/// Below this many items the executor always runs serially: thread spawn
/// costs more than the work. (The output is identical either way.)
const MIN_PAR_ITEMS: usize = 16;

/// Resolves a requested thread count: `0` means "use all hardware
/// threads" (`std::thread::available_parallelism`), anything else is
/// taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// The chunked executor: calls `f` on every item, in contiguous chunks
/// spread over up to `threads` worker threads, and returns everything the
/// calls pushed, concatenated in input order.
///
/// Deterministic: equal inputs give equal results for every `threads`
/// value. Workers poll `token` between chunks and stop pulling work once
/// it is raised; if it is raised at any point before the run completes
/// its final chunk, every partial slot is discarded and `Err(Cancelled)`
/// is returned — a cancelled run produces nothing at all.
pub fn run_chunks<T, R, F>(
    items: &[T],
    threads: usize,
    token: Option<&CancelToken>,
    f: F,
) -> Result<Vec<R>, Cancelled>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Vec<R>) + Sync,
{
    let tripped = || token.is_some_and(|t| t.is_cancelled());
    let body = |chunk: &[T], out: &mut Vec<R>| {
        for item in chunk {
            f(item, out);
        }
    };
    let n = items.len();
    if n == 0 {
        return if tripped() { Err(Cancelled) } else { Ok(Vec::new()) };
    }
    let threads = threads.max(1).min(n);
    let chunk_size = n.div_ceil((threads * CHUNKS_PER_THREAD).min(n));
    if threads == 1 || n < MIN_PAR_ITEMS {
        // Same polling granularity as the parallel path: between chunks.
        let mut out = Vec::new();
        for chunk in items.chunks(chunk_size) {
            if tripped() {
                return Err(Cancelled);
            }
            body(chunk, &mut out);
        }
        return if tripped() { Err(Cancelled) } else { Ok(out) };
    }

    let chunks = n.div_ceil(chunk_size);
    let queue = AtomicUsize::new(0);
    let slots: Vec<Mutex<Vec<R>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if tripped() {
                    break;
                }
                let c = queue.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(n);
                let mut out = Vec::new();
                body(&items[lo..hi], &mut out);
                // Sole writer for slot `c`; the lock is uncontended.
                *slots[c].lock().expect("no worker panicked holding a slot") = out;
            });
        }
    });

    // A token raised mid-run means some chunks were skipped: discard all
    // partial output so the caller never observes a truncated result.
    if tripped() {
        return Err(Cancelled);
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().expect("slot lock poisoned"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One output per input, no token.
    fn map(items: &[u32], threads: usize, f: impl Fn(u32) -> u32 + Sync) -> Vec<u32> {
        run_chunks(items, threads, None, |&x, out| out.push(f(x))).unwrap()
    }

    #[test]
    fn matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> =
            items.iter().flat_map(|&x| vec![x * 3, x * 3 + 1]).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let par = run_chunks(&items, threads, None, |&x, out| out.extend([x * 3, x * 3 + 1]));
            assert_eq!(par.unwrap(), serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 2, 5, 8] {
            let out = map(&items, threads, |x| x + 1);
            assert_eq!(out, (1..=500).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(map(&[], 8, |x| x).is_empty());
        assert_eq!(map(&[9], 8, |x| x), vec![9]);
    }

    #[test]
    fn uneven_output_sizes_keep_order() {
        // Items emit variable-length runs; order must still be exact.
        let items: Vec<usize> = (0..300).collect();
        let expect: Vec<usize> = items.iter().flat_map(|&x| vec![x; x % 5]).collect();
        let got = run_chunks(&items, 6, None, |&x, out| out.extend(vec![x; x % 5]));
        assert_eq!(got.unwrap(), expect);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn pre_cancelled_token_yields_err_for_every_thread_count() {
        let items: Vec<u32> = (0..200).collect();
        for threads in [1, 2, 4, 8] {
            let token = CancelToken::new();
            token.cancel();
            let got = run_chunks(&items, threads, Some(&token), |&x, out| out.push(x));
            assert_eq!(got, Err(Cancelled), "threads = {threads}");
        }
    }

    #[test]
    fn mid_run_cancellation_discards_partial_output() {
        use std::sync::atomic::AtomicU64;
        let items: Vec<u32> = (0..512).collect();
        for threads in [1, 3, 8] {
            let token = CancelToken::new();
            let seen = AtomicU64::new(0);
            // Trip the token from inside the workload after ~32 items.
            let got = run_chunks(&items, threads, Some(&token), |&x, out| {
                if seen.fetch_add(1, Ordering::Relaxed) == 32 {
                    token.cancel();
                }
                out.push(x);
            });
            assert_eq!(got, Err(Cancelled), "threads = {threads}");
        }
    }

    #[test]
    fn untripped_token_matches_tokenless_run() {
        let items: Vec<u32> = (0..300).collect();
        let token = CancelToken::new();
        let plain = map(&items, 4, |x| x * 2);
        let tokened = run_chunks(&items, 4, Some(&token), |&x, out| out.push(x * 2)).unwrap();
        assert_eq!(plain, tokened);
        assert!(!token.is_cancelled());
        token.cancel();
        token.reset();
        assert!(!token.is_cancelled());
    }
}
