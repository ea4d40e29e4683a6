#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic parallel runtime for the workspace's hot paths.
//!
//! Every primitive here upholds one contract: **the result is bit-identical
//! for every thread count**, including `CPGAN_THREADS=1` (pure serial
//! execution). That determinism is what makes the serial-equivalence test
//! layer possible — each parallelized kernel is tested by running it at 1
//! and 4 threads and asserting bitwise-equal outputs.
//!
//! The contract is achieved by construction:
//!
//! * work is split into **fixed-size chunks** whose boundaries depend only
//!   on the problem shape (never on the thread count),
//! * chunk results are **combined in chunk-index order** on the calling
//!   thread, and
//! * the single-thread path runs the *same* chunk loop inline, so there is
//!   exactly one numerical code path.
//!
//! Threads are claimed from `std::thread::available_parallelism`, overridable
//! with the `CPGAN_THREADS` environment variable (`CPGAN_THREADS=1` degrades
//! every primitive to serial execution) and, per thread, with
//! [`with_thread_count`] (used by the equivalence tests to exercise both
//! paths in one process).
//!
//! Two execution tiers (see DESIGN.md §8):
//!
//! * **Scoped tier** — [`par_chunks_mut`], [`par_map`], [`par_reduce`]
//!   borrow caller data directly and run on `std::thread::scope`. The
//!   workspace forbids `unsafe_code`, and lending non-`'static` borrows to
//!   long-lived workers requires lifetime erasure, so the scoped tier spawns
//!   scoped OS threads per call. A spawn and join costs 20–100 µs on a
//!   shared 2-vCPU VM, so each call sizes its chunks from
//!   [`MIN_CHUNK_WORK`] with [`items_per_chunk`]: a call carrying no more
//!   than one chunk of work runs inline on the calling thread.
//! * **Pool tier** — [`Pool`] keeps persistent workers alive for owned
//!   (`'static`) coarse-grained jobs, e.g. the evaluation pipeline's
//!   independent baseline-generator runs ([`Pool::par_map_owned`]).
//!
//! A third, non-numeric entry point, [`spawn_service`], hosts long-lived
//! infrastructure threads (the serving layer's acceptor/workers); it is
//! outside the determinism contract because service threads communicate
//! only through explicit synchronization and never combine numeric
//! results by scheduling order.

mod pool;
mod scoped;
mod service;
mod threads;

pub use pool::Pool;
pub use scoped::{par_chunks_mut, par_map, par_reduce};
pub use service::spawn_service;
pub use threads::{current_threads, with_thread_count};

/// Splits `n` items into fixed chunks of at most `chunk` items and returns
/// the number of chunks. Chunk boundaries depend only on `(n, chunk)` — the
/// determinism contract's anchor.
#[inline]
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// Least scalar work one [`par_chunks_mut`] chunk must carry to pay for
/// handing it to a scoped helper thread (spawn plus join).
///
/// A unit of work is one multiply-add of a kernel's inner loop, or one
/// element of an elementwise op whatever its closure costs. On a shared
/// 2-vCPU VM (Intel Xeon, 2.0 GHz) a spawn and join costs 20–100 µs while
/// a blocked matmul multiply-add costs ~0.25 ns; two chunks of a 32-wide
/// matmul first beat one thread at ~2^18 multiply-adds per chunk. Below
/// this much work the second thread costs more than it saves.
pub const MIN_CHUNK_WORK: usize = 1 << 18;

/// Items per [`par_chunks_mut`] chunk when each item (an element, a row, a
/// column) costs `work_per_item` units of scalar work: the fewest items
/// carrying [`MIN_CHUNK_WORK`], at least one.
///
/// Depends only on the shape, never on the thread count. Chunk size never
/// changes a bit of a `par_chunks_mut` result — every element is written
/// by exactly one chunk with the same arithmetic — so kernels may size
/// their chunks freely with it. `par_reduce` chunk boundaries do fix the
/// bits of a reduction and must not be derived from it.
#[inline]
pub fn items_per_chunk(work_per_item: usize) -> usize {
    MIN_CHUNK_WORK.div_ceil(work_per_item.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_covers_all_items() {
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(1, 8), 1);
        assert_eq!(chunk_count(8, 8), 1);
        assert_eq!(chunk_count(9, 8), 2);
        assert_eq!(chunk_count(17, 8), 3);
        assert_eq!(chunk_count(5, 0), 5); // degenerate chunk size clamps to 1
    }

    #[test]
    fn items_per_chunk_carries_the_minimum_work() {
        assert_eq!(items_per_chunk(1), MIN_CHUNK_WORK);
        assert_eq!(items_per_chunk(0), MIN_CHUNK_WORK); // degenerate cost clamps to 1
        assert_eq!(items_per_chunk(MIN_CHUNK_WORK), 1);
        assert_eq!(items_per_chunk(10 * MIN_CHUNK_WORK), 1); // one item is enough
        let rows = items_per_chunk(1000);
        assert!(rows * 1000 >= MIN_CHUNK_WORK && (rows - 1) * 1000 < MIN_CHUNK_WORK);
    }

    /// Thread ids of the threads that ran each chunk of a `par_chunks_mut`
    /// call over `len` one-unit items at `threads` threads. Every chunk
    /// waits at a barrier sized to the chunk count, so chunks that can run
    /// in parallel must run on distinct threads.
    fn chunk_threads(len: usize, threads: usize) -> Vec<std::thread::ThreadId> {
        let mut data = vec![0u8; len];
        let chunk = items_per_chunk(1);
        let barrier = std::sync::Barrier::new(chunk_count(len, chunk));
        let seen = parking_lot::Mutex::new(Vec::new());
        with_thread_count(threads, || {
            par_chunks_mut(&mut data, chunk, |_, _| {
                seen.lock().push(std::thread::current().id());
                barrier.wait();
            });
        });
        seen.into_inner()
    }

    #[test]
    fn one_chunk_of_work_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            let ran = chunk_threads(MIN_CHUNK_WORK, threads);
            assert_eq!(ran, vec![caller], "threads={threads}");
        }
    }

    #[test]
    fn two_chunks_of_work_use_a_helper_at_two_threads() {
        let caller = std::thread::current().id();
        let ran = chunk_threads(2 * MIN_CHUNK_WORK, 2);
        assert_eq!(ran.len(), 2);
        assert!(ran.contains(&caller), "the caller runs a chunk itself");
        assert!(
            ran.iter().any(|&t| t != caller),
            "one chunk leaves the caller"
        );
    }
}
