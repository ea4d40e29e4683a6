//! Golden pins for `cpgan_graph::spectral::spectral_embedding`, the node
//! features every CPGAN fit starts from (paper §III-C1).
//!
//! FNV-1a fingerprints of the output's `f32` bits, at 1 and 2 threads, for
//! three cases: a 2k-node sweep graph at `d = 16` (the fit path's shape),
//! disjoint cliques, whose `A + I` has rank below `d` so Gram–Schmidt
//! takes its reseed branch, and `d > n`, which clamps `d` to `n`. A
//! faster embedding must leave every pin alone.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::unwrap_used)]

use cpgan_graph::spectral::spectral_embedding;
use cpgan_graph::Graph;
use cpgan_parallel::with_thread_count;

const SWEEP_PIN: u64 = 0xb1ba_411c_20e1_cb94;
const CLIQUES_PIN: u64 = 0x9fab_7289_ec42_b101;
const WIDE_PIN: u64 = 0xd43c_f2bd_f6b3_b34a;

fn fnv1a(values: &[f32]) -> u64 {
    let bytes = values.iter().flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four disjoint 5-cliques: `A + I` is four all-ones blocks, rank 4.
fn cliques() -> Graph {
    let mut edges = Vec::new();
    for base in (0..20u32).step_by(5) {
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((base + a, base + b));
            }
        }
    }
    Graph::from_edges(20, edges).unwrap()
}

/// A 6-node path.
fn path() -> Graph {
    Graph::from_edges(6, (0..5u32).map(|i| (i, i + 1))).unwrap()
}

/// `(name, embedding length, hash)` of every case at the current thread
/// count.
fn run() -> [(&'static str, usize, u64); 3] {
    let sweep = cpgan_data::sweep::sweep_graph(2_000, 1).graph;
    [
        ("sweep", &sweep, 16, 1),
        ("cliques", &cliques(), 8, 5),
        ("wide", &path(), 10, 7),
    ]
    .map(|(name, g, d, seed)| {
        let e = spectral_embedding(g, d, seed);
        (name, e.len(), fnv1a(&e))
    })
}

#[test]
fn spectral_embedding_matches_golden_pins_at_one_and_two_threads() {
    let runs = [1, 2].map(|threads| (threads, with_thread_count(threads, run)));
    for (threads, cases) in &runs {
        for (name, len, hash) in cases {
            println!("threads={threads} {name}: len {len} hash {hash:#018x}");
        }
    }
    for (threads, [sweep, cliques, wide]) in runs {
        assert_eq!(sweep, ("sweep", 2_000 * 16, SWEEP_PIN), "{threads} threads");
        assert_eq!(
            cliques,
            ("cliques", 20 * 8, CLIQUES_PIN),
            "{threads} threads"
        );
        assert_eq!(wide, ("wide", 6 * 6, WIDE_PIN), "{threads} threads");
    }
}
