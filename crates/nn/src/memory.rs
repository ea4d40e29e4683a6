//! Tensor memory accounting and the workspace buffer pool.
//!
//! # Accounting
//!
//! The paper's Table IX reports *peak GPU memory during training*. This
//! reproduction runs on CPU, so we track the same quantity — the live byte
//! footprint of tensor allocations — with global atomic counters updated by
//! every [`crate::Matrix`] allocation and drop. Experiments call
//! [`reset_peak`] before a training run and [`peak_bytes`] after (Table IX).
//! Whether a model would run out of the paper's 24 GB GPU is decided
//! before it runs, by `cpgan_eval::budget::would_oom`, not here.
//!
//! # Buffer pool
//!
//! Tape-based training allocates a fresh buffer for every forward/backward
//! op and drops the whole arena each step — a perfect recycling workload.
//! The pool is a **size-bucketed free list**: when a [`crate::Matrix`]
//! drops, its buffer is checked in under its element count; the next
//! same-sized allocation checks it out instead of hitting the allocator.
//! Free lists are **thread-local** (no locks; the tape runs on one thread,
//! so the hot path is uncontended and its hit/miss sequence deterministic).
//!
//! The pool's interaction with the accounting is deliberate (DESIGN.md §10):
//! a checked-in (idle) buffer is **not** live — [`on_dealloc`] runs before
//! check-in and [`on_alloc`] after check-out — so pooled-but-idle bytes
//! never inflate `live_bytes`/`peak_bytes` and Table IX stays honest. Idle
//! bytes are observable separately via [`pool_idle_bytes`].
//!
//! Enabled by default; [`set_pool_enabled`]`(false)` disables it (every
//! allocation then counts as a [`pool_misses`] miss, which is how the
//! pooled-vs-unpooled comparison in `tests/pool_reuse.rs` measures).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Registers an allocation of `bytes`.
#[inline]
pub fn on_alloc(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Registers a deallocation of `bytes`.
#[inline]
pub fn on_dealloc(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Currently live tensor bytes (idle pooled buffers excluded).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live tensor bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live footprint.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Max buffers retained per size bucket (per thread).
const POOL_BUCKET_CAP: usize = 8;
/// Max idle bytes retained per thread before check-ins fall through to the
/// allocator.
const POOL_IDLE_CAP_BYTES: usize = 256 << 20;

/// Whether the pool is on.
static POOL_ENABLED: AtomicBool = AtomicBool::new(true);
/// Allocations served from a free list.
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
/// Allocations that went to the allocator (includes all allocations while
/// the pool is disabled).
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
/// Idle bytes currently parked in free lists (all threads).
static POOL_IDLE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's free lists, keyed by buffer element count.
    static FREE_LISTS: RefCell<HashMap<usize, Vec<Vec<f32>>>> =
        RefCell::new(HashMap::new());
    /// This thread's share of [`POOL_IDLE`], for the per-thread cap.
    static IDLE_LOCAL: RefCell<usize> = const { RefCell::new(0) };
}

/// Whether the buffer pool is on (default: yes).
#[inline]
pub fn pool_enabled() -> bool {
    POOL_ENABLED.load(Ordering::Relaxed)
}

/// Turns the pool on or off. Disabling does not drop already-idle
/// buffers; call [`pool_clear`] too when measuring a pool-free baseline.
pub fn set_pool_enabled(on: bool) {
    POOL_ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations served from a free list since the last [`reset_pool_stats`].
pub fn pool_hits() -> u64 {
    POOL_HITS.load(Ordering::Relaxed)
}

/// Fresh heap allocations since the last [`reset_pool_stats`] (every tensor
/// allocation counts as a miss while the pool is disabled).
pub fn pool_misses() -> u64 {
    POOL_MISSES.load(Ordering::Relaxed)
}

/// Zeroes the hit/miss counters.
pub fn reset_pool_stats() {
    POOL_HITS.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
}

/// Bytes currently parked in free lists across all threads (not live).
pub fn pool_idle_bytes() -> usize {
    POOL_IDLE.load(Ordering::Relaxed)
}

/// Drops every idle buffer owned by the *calling thread's* free lists.
pub fn pool_clear() {
    FREE_LISTS.with(|fl| fl.borrow_mut().clear());
    IDLE_LOCAL.with(|b| {
        let mut b = b.borrow_mut();
        POOL_IDLE.fetch_sub(*b, Ordering::Relaxed);
        *b = 0;
    });
}

/// Checks a buffer of exactly `len` elements out of this thread's free
/// list. Returns `None` (a pool miss) when the pool is off, the bucket is
/// empty, or the thread-local storage is gone (thread teardown). Contents
/// of a returned buffer are arbitrary. Counts the hit/miss either way.
fn take_buffer(len: usize) -> Option<Vec<f32>> {
    let took = if pool_enabled() && len > 0 {
        FREE_LISTS
            .try_with(|fl| fl.borrow_mut().get_mut(&len).and_then(Vec::pop))
            .ok()
            .flatten()
    } else {
        None
    };
    match took {
        Some(buf) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            cpgan_obs::counter_add("nn.pool.hit", 1);
            let bytes = len * std::mem::size_of::<f32>();
            POOL_IDLE.fetch_sub(bytes, Ordering::Relaxed);
            let _ = IDLE_LOCAL.try_with(|b| *b.borrow_mut() -= bytes);
            Some(buf)
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            cpgan_obs::counter_add("nn.pool.miss", 1);
            None
        }
    }
}

/// Checks `buf` into this thread's free list, unless the pool is off, the
/// bucket is full, or the per-thread idle cap would be exceeded (then the
/// buffer just drops). Call [`on_dealloc`] *before* this: idle pooled bytes
/// are not live.
pub(crate) fn recycle_buffer(buf: Vec<f32>) {
    let len = buf.len();
    let bytes = len * std::mem::size_of::<f32>();
    if !pool_enabled() || len == 0 {
        return;
    }
    let over_cap = IDLE_LOCAL
        .try_with(|b| *b.borrow() + bytes > POOL_IDLE_CAP_BYTES)
        .unwrap_or(true);
    if over_cap {
        return;
    }
    let kept = FREE_LISTS
        .try_with(|fl| {
            let mut fl = fl.borrow_mut();
            let bucket = fl.entry(len).or_default();
            if bucket.len() < POOL_BUCKET_CAP {
                bucket.push(buf);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if kept {
        POOL_IDLE.fetch_add(bytes, Ordering::Relaxed);
        let _ = IDLE_LOCAL.try_with(|b| *b.borrow_mut() += bytes);
        cpgan_obs::gauge_set("nn.pool.idle_bytes", pool_idle_bytes() as f64);
    }
}

/// A `len`-element buffer with arbitrary contents (pooled) or zeroed
/// (fresh). For outputs every element of which the caller overwrites.
/// Registers the allocation with the accounting.
pub(crate) fn buffer_uninit(len: usize) -> Vec<f32> {
    on_alloc(len * std::mem::size_of::<f32>());
    take_buffer(len).unwrap_or_else(|| vec![0.0; len])
}

/// A zeroed `len`-element buffer. Registers the allocation.
pub(crate) fn buffer_filled(len: usize, value: f32) -> Vec<f32> {
    on_alloc(len * std::mem::size_of::<f32>());
    match take_buffer(len) {
        Some(mut buf) => {
            buf.fill(value);
            buf
        }
        None => vec![value; len],
    }
}

/// A pooled (or fresh) copy of `src`. Registers the allocation.
pub(crate) fn buffer_copied(src: &[f32]) -> Vec<f32> {
    on_alloc(std::mem::size_of_val(src));
    match take_buffer(src.len()) {
        Some(mut buf) => {
            buf.copy_from_slice(src);
            buf
        }
        None => src.to_vec(),
    }
}

/// Releases a matrix buffer: unregisters it from the accounting, then
/// offers it to the pool.
pub(crate) fn release_buffer(buf: Vec<f32>) {
    on_dealloc(buf.len() * std::mem::size_of::<f32>());
    recycle_buffer(buf);
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn tracks_alloc_and_peak() {
        // Other tests may allocate concurrently, so assert deltas only.
        reset_peak();
        let before = live_bytes();
        let m = Matrix::zeros(64, 64);
        assert!(live_bytes() >= before + 64 * 64 * 4);
        assert!(peak_bytes() >= before + 64 * 64 * 4);
        drop(m);
        assert!(live_bytes() <= peak_bytes());
    }

    #[test]
    fn pooled_buffers_round_trip_on_one_thread() {
        // A dedicated odd size no other test uses, so this thread's bucket
        // is fully under our control (free lists are thread-local).
        let before_idle = pool_idle_bytes();
        let m = Matrix::zeros(977, 3);
        drop(m); // checked in (pool is on by default)
        assert!(pool_idle_bytes() >= before_idle);
        let hits_before = pool_hits();
        let m2 = Matrix::zeros(977, 3);
        assert!(pool_hits() > hits_before, "re-allocation must hit the pool");
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
        drop(m2);
        pool_clear();
    }
}
