//! Regenerates the vendored *synthetic surrogate* fixtures
//! (`citeseer-fixture`, `cora-fixture`) deterministically.
//!
//! Usage: `cargo run --release -p cpgan-datasets --bin gen_fixtures`
//!
//! The fixtures are generated graphs, not the real linqs datasets: for
//! each one this designs a degree sequence aimed at the upstream entry's
//! published n/m/Gini/PWE (head of low-degree nodes plus a power-law
//! tail sampled by the CSN quantile recipe), realizes it as a simple
//! graph via Havel–Hakimi, randomizes the wiring with degree-preserving
//! double-edge swaps, and writes the file in its native on-disk format
//! (linqs `.cites` with string ids for citeseer, SNAP numeric edge list
//! for cora). It then re-ingests each file and prints its measured
//! reference stats and SHA-256 digest — after regenerating, pin both
//! into the `-fixture` entries of `registry.rs` (the registry records
//! the fixture's *own* measurements, so `cpgan data verify` gates
//! ingestion fidelity rather than pretending the surrogate is real
//! data).
//!
//! Everything is seeded; re-running reproduces the files byte-for-byte.

use cpgan_datasets::{formats, registry, sha256, verify, DatasetError, Format};
use cpgan_graph::stats::{gini, powerlaw};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gen_fixtures: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

struct Target {
    n: usize,
    m: usize,
    gini: f64,
    pwe: f64,
    /// Isolated-node counts to sweep (emitted as self-loop-only lines:
    /// interned as nodes, dropped as edges — like real citation files).
    zeros: (usize, usize),
    /// Tail-size candidates to sweep.
    tail_range: (usize, usize),
    /// Head base-degree candidates to sweep.
    bases: (usize, usize),
    /// Degree clip for the tail (keeps alpha < 2 tails finite).
    d_max: usize,
}

fn run() -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    // Design targets come from the upstream entries' published rows; the
    // written files are verified against the `-fixture` entries.
    let citeseer = registry::resolve("citeseer").map_err(|e| e.to_string())?;
    let cora = registry::resolve("cora").map_err(|e| e.to_string())?;

    let cs_target = Target {
        n: citeseer.reference.n,
        m: citeseer.reference.m,
        gini: citeseer.reference.gini,
        pwe: citeseer.reference.pwe,
        zeros: (0, 900),
        tail_range: (100, 1200),
        bases: (1, 2),
        d_max: 150,
    };
    let cs_edges = build_graph(&cs_target, 0xC17E_5EE8)?;
    let cs_path = dir.join("citeseer.cites");
    write_cites(&cs_path, cs_target.n, &cs_edges, 0xC17E_5EE9)
        .map_err(|e| format!("write {}: {e}", cs_path.display()))?;
    report("citeseer-fixture", &cs_path, Format::LinqsCites).map_err(|e| e.to_string())?;

    let cora_target = Target {
        n: cora.reference.n,
        m: cora.reference.m,
        gini: cora.reference.gini,
        pwe: cora.reference.pwe,
        zeros: (0, 300),
        tail_range: (100, 1200),
        bases: (1, 3),
        d_max: 150,
    };
    let cora_edges = build_graph(&cora_target, 0x0C0A_0001)?;
    let cora_path = dir.join("cora-edges.txt");
    write_snap(&cora_path, cora_target.n, &cora_edges, 0x0C0A_0002)
        .map_err(|e| format!("write {}: {e}", cora_path.display()))?;
    report("cora-fixture", &cora_path, Format::SnapEdges).map_err(|e| e.to_string())?;

    Ok(())
}

/// Designs a degree sequence for `t` and realizes it as a simple graph.
fn build_graph(t: &Target, seed: u64) -> Result<Vec<(u32, u32)>, String> {
    let seq = design_sequence(t)?;
    let sum: usize = seq.iter().sum();
    if sum != 2 * t.m {
        return Err(format!("degree sum {sum} != 2m = {}", 2 * t.m));
    }
    let mut edges = havel_hakimi(&seq)?;
    rewire(&mut edges, 20 * t.m, &mut StdRng::seed_from_u64(seed));
    Ok(edges)
}

/// Sweeps isolated-node counts, tail sizes, tail cutoffs, and head base
/// degrees for the sequence whose Gini and KS-PWE land closest to the
/// published targets. All four knobs trade off against each other under
/// the fixed stub budget `2m`, so a plain grid is the honest search.
fn design_sequence(t: &Target) -> Result<Vec<usize>, String> {
    let total = 2 * t.m;
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut zeros = t.zeros.0;
    while zeros <= t.zeros.1 {
        let mut n_tail = t.tail_range.0;
        while n_tail <= t.tail_range.1 {
            for base in t.bases.0..=t.bases.1 {
                let mut x_min = 1.5f64;
                while x_min <= 9.5 {
                    if let Some(seq) = assemble(t, zeros, n_tail, x_min, base, total) {
                        let g = gini::gini_coefficient(&seq);
                        let p = powerlaw::powerlaw_exponent_ks(&seq);
                        let score = (g - t.gini).abs() / 0.05 + (p - t.pwe).abs() / 0.45;
                        if best.as_ref().is_none_or(|(s, _)| score < *s) {
                            best = Some((score, seq));
                        }
                    }
                    x_min += 0.5;
                }
            }
            n_tail += 50;
        }
        zeros += 50;
    }
    let (score, seq) = best.ok_or("no feasible degree sequence in the sweep range")?;
    if score > 1.6 {
        return Err(format!("best sequence misses targets (score {score:.2})"));
    }
    Ok(seq)
}

/// One candidate sequence: `zeros` isolated nodes, a CSN power-law tail
/// of `n_tail` nodes above the continuous cutoff `x_min` with the
/// target exponent, and a head of base-degree nodes absorbing whatever
/// stub budget remains (bumped to `base + 1` where needed to hit the sum
/// exactly; the largest hub absorbs any residual shortfall).
fn assemble(
    t: &Target,
    zeros: usize,
    n_tail: usize,
    x_min: f64,
    base: usize,
    total: usize,
) -> Option<Vec<usize>> {
    if zeros + n_tail + 1 >= t.n {
        return None;
    }
    let mut tail = Vec::with_capacity(n_tail);
    let mut tail_sum = 0usize;
    for i in 0..n_tail {
        // CSN discrete quantile: d = floor(x_min (1-u)^(-1/(a-1)) + 1/2).
        let u = (i as f64 + 0.5) / n_tail as f64;
        let d = (x_min * (1.0 - u).powf(-1.0 / (t.pwe - 1.0)) + 0.5).floor();
        let d = (d as usize).clamp(1, t.d_max);
        tail_sum += d;
        tail.push(d);
    }
    let head_n = t.n - zeros - n_tail;
    let head_sum = total.checked_sub(tail_sum)?;
    if head_sum < head_n * base || head_sum > head_n * (base + 1) {
        return None;
    }
    // Degrees base / base+1 hit any integer head sum in range exactly.
    let bumped = head_sum - head_n * base;
    let mut seq = vec![0usize; zeros];
    seq.extend(tail);
    seq.extend(std::iter::repeat_n(base + 1, bumped));
    seq.extend(std::iter::repeat_n(base, head_n - bumped));
    Some(seq)
}

/// Havel–Hakimi: realizes a graphical degree sequence as a simple graph.
fn havel_hakimi(seq: &[usize]) -> Result<Vec<(u32, u32)>, String> {
    let mut residual: Vec<(usize, u32)> = seq
        .iter()
        .enumerate()
        .map(|(v, &d)| (d, v as u32))
        .collect();
    let m: usize = seq.iter().sum::<usize>() / 2;
    let mut edges = Vec::with_capacity(m);
    loop {
        // Highest residual degree first; id tiebreak keeps this deterministic.
        residual.sort_unstable_by(|a, b| b.cmp(a));
        let (d, v) = residual[0];
        if d == 0 {
            break;
        }
        if d >= residual.len() {
            return Err("sequence is not graphical (degree exceeds peers)".to_string());
        }
        residual[0].0 = 0;
        for peer in residual.iter_mut().skip(1).take(d) {
            if peer.0 == 0 {
                return Err("sequence is not graphical (ran out of stubs)".to_string());
            }
            peer.0 -= 1;
            edges.push((v.min(peer.1), v.max(peer.1)));
        }
    }
    Ok(edges)
}

/// Degree-preserving double-edge swaps (uniformizes the HH wiring).
fn rewire(edges: &mut [(u32, u32)], attempts: usize, rng: &mut StdRng) {
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    for _ in 0..attempts {
        let i = rng.gen_range(0..edges.len());
        let j = rng.gen_range(0..edges.len());
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // Propose (a,d) + (c,b), flipping one pair half the time so both
        // swap orientations are reachable.
        let (c, d) = if rng.gen_bool(0.5) { (d, c) } else { (c, d) };
        let e1 = (a.min(d), a.max(d));
        let e2 = (c.min(b), c.max(b));
        if a == d || c == b || present.contains(&e1) || present.contains(&e2) || e1 == e2 {
            continue;
        }
        present.remove(&edges[i]);
        present.remove(&edges[j]);
        present.insert(e1);
        present.insert(e2);
        edges[i] = e1;
        edges[j] = e2;
    }
}

/// Nodes with no incident edge. They still must appear in the file for
/// the interner to count them, so the writers emit them as self-loop
/// lines (dropped at ingest, exactly like self-citations in the real
/// files).
fn isolated(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut seen = vec![false; n];
    for &(u, v) in edges {
        seen[u as usize] = true;
        seen[v as usize] = true;
    }
    (0..n as u32).filter(|&v| !seen[v as usize]).collect()
}

/// Writes a linqs `.cites` file: string paper ids, one directed citation
/// per line, shuffled order; isolated papers appear as self-citations.
fn write_cites(
    path: &Path,
    n: usize,
    edges: &[(u32, u32)],
    seed: u64,
) -> Result<(), std::io::Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = paper_ids(n, &mut rng);
    let mut lines: Vec<String> = edges
        .iter()
        .map(|&(u, v)| {
            let (u, v) = if rng.gen_bool(0.5) { (v, u) } else { (u, v) };
            format!("{}\t{}\n", ids[u as usize], ids[v as usize])
        })
        .collect();
    for v in isolated(n, edges) {
        lines.push(format!("{}\t{}\n", ids[v as usize], ids[v as usize]));
    }
    lines.shuffle(&mut rng);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for line in lines {
        f.write_all(line.as_bytes())?;
    }
    f.flush()
}

/// Writes a SNAP-style numeric edge list with a comment header; isolated
/// nodes appear as self-loop lines.
fn write_snap(
    path: &Path,
    n: usize,
    edges: &[(u32, u32)],
    seed: u64,
) -> Result<(), std::io::Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    let mut lines: Vec<String> = edges
        .iter()
        .map(|&(u, v)| {
            let (u, v) = if rng.gen_bool(0.5) { (v, u) } else { (u, v) };
            format!("{}\t{}\n", perm[u as usize], perm[v as usize])
        })
        .collect();
    for v in isolated(n, edges) {
        lines.push(format!("{}\t{}\n", perm[v as usize], perm[v as usize]));
    }
    lines.shuffle(&mut rng);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(
        b"# Synthetic surrogate graph (generated in-repo by gen_fixtures; not real data)\n",
    )?;
    f.write_all(format!("# Nodes: {} Edges: {}\n", n, edges.len()).as_bytes())?;
    for line in lines {
        f.write_all(line.as_bytes())?;
    }
    f.flush()
}

/// Deterministic pseudo paper-id tokens (string ids exercise interning).
fn paper_ids(n: usize, rng: &mut StdRng) -> Vec<String> {
    let mut nums: Vec<u32> = (0..n as u32).collect();
    nums.shuffle(rng);
    nums.iter()
        .map(|x| format!("cs{:06}", 100_000 + x))
        .collect()
}

/// Re-ingests the written file, diffs it against the `-fixture` registry
/// entry, and prints the measured stats + digest to pin in `registry.rs`.
fn report(name: &str, path: &Path, format: Format) -> Result<(), DatasetError> {
    let entry = registry::resolve(name)?;
    let files: Vec<(PathBuf, Format)> = vec![(path.to_path_buf(), format)];
    let ingested = formats::ingest_files(&files)?;
    let report = verify::verify(entry, &ingested.graph, verify::DEFAULT_CPL_SOURCES);
    println!("{}", report.render());
    println!("  pin the measured column above as `{name}`'s recorded reference stats");
    let digest = sha256::hex_digest_file(path)?;
    println!("  sha256(\"{}\") = {digest}\n", path.display());
    Ok(())
}
