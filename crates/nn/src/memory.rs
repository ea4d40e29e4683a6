//! Tensor memory accounting.
//!
//! The paper's Table IX reports *peak GPU memory during training*. This
//! reproduction runs on CPU, so we track the same quantity — the live byte
//! footprint of tensor allocations — with global atomic counters updated by
//! every [`crate::Matrix`] allocation and drop. Experiments call
//! [`reset_peak`] before a training run and [`peak_bytes`] after (Table IX).
//! Whether a model would run out of the paper's 24 GB GPU is decided
//! before it runs, by `cpgan_eval::budget::would_oom`, not here.
//!
//! Every `Matrix` buffer comes from the global allocator and goes back to
//! it on drop, so a process holds no tensor memory beyond what is live
//! (DESIGN.md §10).

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Currently live tensor bytes.
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

#[cfg(test)]
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
}
