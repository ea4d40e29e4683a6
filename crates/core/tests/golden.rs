//! Golden pins for CPGAN training and generation.
//!
//! FNV-1a fingerprints of one small planted graph's fit loss trajectory
//! and of `generate` on both latent paths — the posterior path (trained
//! size, degree budgets) and the prior path (another size) — at 1 and 2
//! threads. Any change to the arithmetic, the RNG stream, node sampling or
//! edge assembly moves a pin; a pure speedup must leave all of them alone.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::unwrap_used)]

use cpgan::{CpGan, CpGanConfig, TrainStats};
use cpgan_graph::Graph;
use cpgan_parallel::with_thread_count;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIT_PIN: u64 = 0x4d60_be8d_3033_dec5;
const POSTERIOR_PIN: u64 = 0x8dc4_27d2_196a_4164;
const PRIOR_PIN: u64 = 0x581f_ace4_e8a9_28c0;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four planted communities of 60 nodes, dense inside, one bridge each.
fn planted() -> Graph {
    let (k, size) = (4u32, 60u32);
    let mut edges = Vec::new();
    for c in 0..k {
        let base = c * size;
        for a in 0..size {
            for b in (a + 1)..size {
                if (a * 7 + b * 3) % 5 == 0 || b == a + 1 {
                    edges.push((base + a, base + b));
                }
            }
        }
        edges.push((base, ((c + 1) % k) * size + 1));
    }
    Graph::from_edges((k * size) as usize, edges).unwrap()
}

fn config() -> CpGanConfig {
    CpGanConfig {
        sample_size: 120,
        epochs: 4,
        seed: 11,
        ..CpGanConfig::default()
    }
}

fn trajectory(stats: &TrainStats) -> u64 {
    let mut bytes = Vec::new();
    for e in &stats.epochs {
        for v in [e.d_loss, e.g_loss, e.clus_loss, e.kl_loss, e.recon_loss] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn edge_hash(g: &Graph) -> u64 {
    let mut bytes = (g.n() as u64).to_le_bytes().to_vec();
    for &(u, v) in g.edges() {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Fits the model and generates on both paths; returns the three hashes.
fn run() -> (u64, u64, u64) {
    let g = planted();
    let mut model = CpGan::new(config());
    let fit = trajectory(&model.fit(&g));
    let mut rng = StdRng::seed_from_u64(5);
    let post = model.generate(g.n(), g.m(), &mut rng);
    assert_eq!(post.n(), g.n());
    let mut rng = StdRng::seed_from_u64(6);
    let prior = model.generate(150, 450, &mut rng);
    assert_eq!(prior.n(), 150);
    assert!(prior
        .edges()
        .iter()
        .all(|&(u, v)| u < v && (v as usize) < 150));
    (fit, edge_hash(&post), edge_hash(&prior))
}

#[test]
fn fit_and_generate_match_golden_pins_at_one_and_two_threads() {
    let runs = [1, 2].map(|threads| (threads, with_thread_count(threads, run)));
    for (threads, (fit, post, prior)) in runs {
        println!("threads={threads} fit={fit:#018x} posterior={post:#018x} prior={prior:#018x}");
    }
    for (threads, (fit, post, prior)) in runs {
        assert_eq!(fit, FIT_PIN, "fit loss trajectory at {threads} threads");
        assert_eq!(
            post, POSTERIOR_PIN,
            "posterior generation at {threads} threads"
        );
        assert_eq!(prior, PRIOR_PIN, "prior generation at {threads} threads");
    }
}
