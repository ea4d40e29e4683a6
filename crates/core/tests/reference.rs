//! Generation's fast paths against the straightforward code they replace.
//!
//! `NodeDraw` (one Fenwick tree, restored after each round) must pick
//! exactly the nodes of the linear scan `CpGan::generate` used to run,
//! round after round over one evolving order, and consume the RNG
//! identically; `GraphAssembler::ranked_pairs` (budget-filtered, unstable
//! sort on an explicit key) must list exactly the pairs a stable sort of
//! every upper-triangle pair lists once over-budget pairs are skipped;
//! `GraphAssembler::add_subgraph_decoded` (live rows only) must merge
//! exactly as `add_subgraph` on the full matrix; and `CpGan::generate`
//! (live rows, their noise only) must build exactly the graph of a loop
//! that scans for its nodes, draws every row's noise and decodes every row
//! of every round. The references live here, and only here.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::unwrap_used)]

use cpgan::assembly::GraphAssembler;
use cpgan::decoder::GraphDecoder;
use cpgan::discriminator::Discriminator;
use cpgan::encoder::LadderEncoder;
use cpgan::sampling::NodeDraw;
use cpgan::vi::VariationalInference;
use cpgan::{CpGan, CpGanConfig, Variant};
use cpgan_graph::{Graph, NodeId};
use cpgan_nn::{Matrix, ParamStore, Tape};
use cpgan_parallel::with_thread_count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The linear-scan weighted partial shuffle: subtract weights from `x` in
/// position order and stop at the first position that takes it to zero.
fn scan_shuffle<R: Rng>(ids: &mut [NodeId], weights: &[f64], ns: usize, rng: &mut R) {
    let n = ids.len();
    let mut total: f64 = ids.iter().map(|&v| weights[v as usize]).sum();
    for i in 0..ns {
        let mut x = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
        let mut pick = i;
        for j in i..n {
            x -= weights[ids[j] as usize];
            if x <= 0.0 {
                pick = j;
                break;
            }
        }
        total -= weights[ids[pick] as usize];
        ids.swap(i, pick);
    }
}

/// Draws `u` on a 1/16 grid, zero included, so `x = u · total` often lands
/// exactly on a running weight sum (the tie the two searches must break
/// alike) or on zero.
struct CoarseRng(StdRng);

impl RngCore for CoarseRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32() & 0xf000_0000
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64() & (0xf << 60)
    }
}

/// Rounds each draw comparison runs: enough that every position is drawn,
/// restored and drawn again many times over one evolving order.
const ROUNDS: usize = 64;

/// Runs both draws for [`ROUNDS`] rounds over one evolving order, as
/// generation does, and checks they agree on every round's picks, on the
/// whole order after it, and on the RNG left behind.
fn assert_same_draws(weights: &[f64], ns: usize, seed: u64) {
    assert_same_draws_with(weights, ns, || StdRng::seed_from_u64(seed));
}

fn assert_same_draws_with<R: Rng>(weights: &[f64], ns: usize, rng: impl Fn() -> R) {
    let n = weights.len();
    let mut scan: Vec<NodeId> = (0..n as NodeId).collect();
    let mut fast = NodeDraw::new(weights.to_vec());
    let (mut scan_rng, mut fast_rng) = (rng(), rng());
    for round in 0..ROUNDS {
        scan_shuffle(&mut scan, weights, ns, &mut scan_rng);
        let picks = fast.draw(ns, &mut fast_rng);
        assert_eq!(
            picks,
            &scan[..ns],
            "round {round}, weights {weights:?}, ns {ns}"
        );
        assert_eq!(
            fast.order(),
            scan,
            "round {round}, weights {weights:?}, ns {ns}"
        );
    }
    assert_eq!(fast_rng.gen::<u64>(), scan_rng.gen::<u64>());
}

/// Whole-number weights with zeros and a heavy tail: `a * 10^b`.
fn arb_weights(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..6, 0u32..5), n).prop_map(|ws| {
        ws.into_iter()
            .map(|(a, b)| f64::from(a * 10u32.pow(b)))
            .collect()
    })
}

/// The pairs top-k visits, by the old route: every upper-triangle pair,
/// stable-sorted by probability descending, over-budget pairs skipped.
fn stable_sorted_open_pairs(probs: &Matrix, open: &[bool]) -> Vec<(usize, usize)> {
    let ns = probs.rows();
    let mut entries: Vec<(f32, usize, usize)> = Vec::new();
    for i in 0..ns {
        for j in (i + 1)..ns {
            entries.push((probs.get(i, j), i, j));
        }
    }
    entries.sort_by(|a, b| b.0.total_cmp(&a.0));
    entries
        .into_iter()
        .filter(|&(_, i, j)| open[i] && open[j])
        .map(|(_, i, j)| (i, j))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fenwick_draw_matches_scan(
        case in (2usize..300).prop_flat_map(|n| (arb_weights(n..n + 1), 1..n + 1, 0u64..1000))
    ) {
        let (weights, ns, seed) = case;
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_with_an_all_zero_tail(
        case in (2usize..200).prop_flat_map(|n| (arb_weights(n..n + 1), 0..n + 1, 1..n + 1, 0u64..1000))
    ) {
        let (mut weights, live, ns, seed) = case;
        for w in &mut weights[live..] {
            *w = 0.0;
        }
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_when_every_node_is_drawn(
        case in (2usize..120).prop_flat_map(|n| (arb_weights(n..n + 1), 0u64..1000))
    ) {
        let (weights, seed) = case;
        assert_same_draws(&weights, weights.len(), seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_on_two_nodes(
        weights in arb_weights(2..3),
        ns in 1usize..3,
        seed in 0u64..1000,
    ) {
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_on_exact_ties_and_zero_draws(
        case in (2usize..120).prop_flat_map(|n| (arb_weights(n..n + 1), 1..n + 1, 0u64..1000))
    ) {
        let (weights, ns, seed) = case;
        assert_same_draws_with(&weights, ns, || CoarseRng(StdRng::seed_from_u64(seed)));
    }

    #[test]
    fn budget_filtered_top_k_matches_stable_sort(
        case in (2usize..40).prop_flat_map(|ns| (
            proptest::collection::vec(0u32..6, ns * ns..ns * ns + 1),
            proptest::collection::vec(0u32..3, ns..ns + 1),
        ))
    ) {
        // Few distinct probabilities, so ties are common; budget 0 puts a
        // node over budget from the start.
        let (levels, budget_draw) = case;
        let ns = budget_draw.len();
        let probs = Matrix::from_vec(ns, ns, levels.iter().map(|&l| l as f32 / 5.0).collect());
        let budgets: Vec<usize> = budget_draw.iter().map(|&b| b as usize * 10).collect();
        let open: Vec<bool> = budgets.iter().map(|&b| b > 0).collect();
        let asm = GraphAssembler::new(ns, ns * ns).with_degree_budgets(budgets);
        let nodes: Vec<NodeId> = (0..ns as NodeId).collect();
        prop_assert_eq!(asm.ranked_pairs(&nodes, &probs), stable_sorted_open_pairs(&probs, &open));
    }
}

/// The block of `full` at the listed local rows and columns: what a decode
/// of those rows returns.
fn principal_block(full: &Matrix, rows: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), rows.len(), |a, b| full.get(rows[a], rows[b]))
}

/// The next draws of a copy of `rng`, which pin its state.
fn next_draws(rng: &StdRng) -> [u64; 4] {
    let mut rng = rng.clone();
    [(); 4].map(|()| rng.next_u64())
}

/// Merges one round into both assemblers, `add_subgraph` on the full
/// matrix into `full` and `add_subgraph_decoded` into `live`, each from
/// its own copy of `rng`, and checks they agree: edges added, the whole
/// assembler state (edges, degrees, seeded set) and the RNG left behind.
/// Advances `rng` as the merge did; returns how often `decode` ran.
fn merge_both(
    full: &mut GraphAssembler,
    live: &mut GraphAssembler,
    nodes: &[NodeId],
    probs: &Matrix,
    budget: usize,
    rng: &mut StdRng,
) -> usize {
    let mut live_rng = rng.clone();
    let want = full.add_subgraph(nodes, probs, budget, rng);
    let mut decodes = 0;
    let got = live.add_subgraph_decoded(nodes, budget, &mut live_rng, |rows| {
        decodes += 1;
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows {rows:?}");
        principal_block(probs, rows)
    });
    assert_eq!(got, want, "edges added");
    assert_eq!(live, full, "assembler state");
    assert_eq!(next_draws(&live_rng), next_draws(rng), "rng state");
    decodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_row_merge_matches_full_matrix_merge(
        ns in 2usize..24,
        spread in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // Budgets of 0–3 put nodes at budget from the start or after a
        // few edges; zero-heavy probabilities leave rows with no restricted
        // mass (the step-1 fallback); later rounds meet nodes seeded and
        // edges placed by earlier ones; a round budget of 0 reads nothing.
        let n = ns * spread;
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let target = rng.gen_range(1..2 * n + 2);
        let mut full = GraphAssembler::new(n, target).with_degree_budgets(budgets.clone());
        let mut live = GraphAssembler::new(n, target).with_degree_budgets(budgets);
        let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
        let levels = [0.0f32, 0.0, 0.25, 0.5, 1.0];
        for _ in 0..8 {
            ids.shuffle(&mut rng);
            let probs = Matrix::from_fn(ns, ns, |_, _| levels[rng.gen_range(0..levels.len())]);
            let budget = rng.gen_range(0..ns + 1);
            merge_both(&mut full, &mut live, &ids[..ns], &probs, budget, &mut rng);
        }
    }
}

#[test]
fn live_row_merge_falls_back_and_skips_like_the_full_matrix_merge() {
    let mut full = GraphAssembler::new(6, 10).with_degree_budgets(vec![1; 6]);
    let mut live = GraphAssembler::new(6, 10).with_degree_budgets(vec![1; 6]);
    let mut rng = StdRng::seed_from_u64(3);
    let pair = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
    // Seeds nodes 0–3 and puts each at its budget of one edge; every row
    // is unseeded, hence live, so one decode covers the round.
    for nodes in [[0, 1], [2, 3]] {
        assert_eq!(
            merge_both(&mut full, &mut live, &nodes, &pair, 10, &mut rng),
            1
        );
    }
    // Only node 4's row is live. Its partners are all at budget, so step 1
    // falls back to the whole row: a second decode, of every row.
    let probs = Matrix::from_fn(5, 5, |i, j| if i == j { 0.0 } else { 0.5 });
    let nodes = [4, 0, 1, 2, 3];
    assert_eq!(
        merge_both(&mut full, &mut live, &nodes, &probs, 10, &mut rng),
        2
    );
    // Nodes 0–3 are seeded and at budget: the merge reads nothing, so no
    // decode runs and the RNG is untouched.
    let probs = Matrix::from_fn(4, 4, |i, j| if i == j { 0.0 } else { 0.5 });
    let before = next_draws(&rng);
    assert_eq!(
        merge_both(&mut full, &mut live, &[0, 1, 2, 3], &probs, 10, &mut rng),
        0
    );
    assert_eq!(next_draws(&rng), before);
}

/// `golden.rs`'s graph: four planted communities of 60 nodes, dense
/// inside, one bridge each.
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

/// What the every-row loop needs of a model, rebuilt from its snapshot:
/// the decoding stack and the simulation state `(mu, sigma, degrees)`.
struct Stack {
    cfg: CpGanConfig,
    levels: usize,
    vi: VariationalInference,
    decoder: GraphDecoder,
    sim: Option<(Matrix, Matrix, Vec<f64>)>,
}

impl Stack {
    fn of(model: &CpGan) -> Stack {
        let snap = model.snapshot();
        let cfg = snap.config;
        // `CpGan::new`'s construction order, so the parameters register in
        // the snapshot's order.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let encoder = LadderEncoder::new(&mut store, &mut rng, &cfg);
        let vi = VariationalInference::new(&mut store, &mut rng, &cfg);
        let decoder = GraphDecoder::new(&mut store, &mut rng, &cfg);
        Discriminator::new(&mut store, &mut rng, &cfg);
        store.import_values(snap.parameters).unwrap();
        Stack {
            levels: encoder.levels(),
            cfg,
            vi,
            decoder,
            sim: snap.sim_state,
        }
    }

    /// `CpGan::generate` as it was before its fast paths: every round
    /// scans for its nodes, draws all `n_s` rows of noise, decodes every
    /// row and merges the full matrix.
    fn generate(&self, n: usize, m: usize, rng: &mut StdRng) -> Graph {
        let ns = self.cfg.sample_size.min(n).max(2);
        let posterior = self.sim.as_ref().filter(|(mu, _, _)| mu.rows() == n);
        let mut asm = GraphAssembler::new(n, m);
        if let Some((_, _, degrees)) = posterior {
            asm = asm.with_degree_budgets(degrees.iter().map(|&d| d as usize).collect());
        }
        let rounds_estimate = (n as f64 / ns as f64).ceil().max(1.0);
        let per_round = ((m as f64 / rounds_estimate).ceil() as usize).max(1);
        let max_rounds = (rounds_estimate as usize) * 8 + 16;
        let weights = match posterior {
            Some((_, _, degrees)) => degrees.clone(),
            None => vec![1.0; n],
        };
        let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
        let mut round = 0;
        while !asm.is_complete() && round < max_rounds {
            round += 1;
            scan_shuffle(&mut ids, &weights, ns, rng);
            let nodes: Vec<NodeId> = ids[..ns].to_vec();
            let tape = Tape::new();
            let mut noise_rng = StdRng::seed_from_u64(rng.gen());
            let z = match posterior {
                Some((mu, sigma, _)) => {
                    let d = mu.cols();
                    let eps = cpgan_nn::init::standard_normal(&mut noise_rng, ns, d);
                    tape.constant(Matrix::from_fn(ns, d, |r, c| {
                        mu.get(nodes[r] as usize, c) + sigma.get(0, c) * eps.get(r, c)
                    }))
                }
                None => self.vi.sample_prior(&tape, ns, &mut noise_rng),
            };
            let blocks = self.vi.split_levels(&tape, &z, self.levels);
            let h = self.decoder.decode_nodes(&tape, &blocks);
            let probs = self.decoder.link_logits(&tape, &h).sigmoid().value();
            asm.add_subgraph(&nodes, &probs, per_round, rng);
        }
        asm.fill_residual(rng);
        asm.build()
    }
}

const WORK_COUNTERS: [&str; 4] = [
    "core.generate.rows_sampled",
    "core.generate.rows_decoded",
    "core.generate.rounds_skipped",
    "core.generate.rounds_fallback",
];

/// One `generate` call and the work counters it added.
fn generate_counted(model: &CpGan, n: usize, m: usize, seed: u64) -> (Graph, [u64; 4]) {
    let read = || WORK_COUNTERS.map(|name| cpgan_obs::snapshot().counter(name).unwrap_or(0));
    let before = read();
    let g = model.generate(n, m, &mut StdRng::seed_from_u64(seed));
    let after = read();
    (g, [0, 1, 2, 3].map(|k| after[k] - before[k]))
}

#[test]
fn generate_matches_the_every_row_loop() {
    // `sample_size` 24 on 240 nodes: late posterior rounds meet mostly
    // seeded nodes at budget, so some rounds are skipped and some step-1
    // fallbacks decode every row. Nothing else in this binary generates,
    // so the counters move only here.
    cpgan_obs::set_enabled(true);
    let g = planted();
    let mut posterior_work = [0u64; 4];
    for variant in [
        Variant::Full,
        Variant::ConcatDecoder,
        Variant::NoVariational,
        Variant::NoHierarchy,
    ] {
        let mut model = CpGan::new(CpGanConfig {
            variant,
            sample_size: 24,
            epochs: 3,
            seed: 11,
            ..CpGanConfig::default()
        });
        model.fit(&g);
        let stack = Stack::of(&model);
        for (n, m, seed) in [(g.n(), g.m(), 5), (150, 450, 6)] {
            let runs = [1, 2].map(|threads| {
                with_thread_count(threads, || {
                    let want = stack.generate(n, m, &mut StdRng::seed_from_u64(seed));
                    let (got, work) = generate_counted(&model, n, m, seed);
                    assert_eq!(
                        got.edges(),
                        want.edges(),
                        "{variant:?}, n {n}, {threads} threads"
                    );
                    work
                })
            });
            assert_eq!(
                runs[0], runs[1],
                "{variant:?}, n {n}: counts differ by thread count"
            );
            let [sampled, decoded, skipped, fallback] = runs[0];
            assert_eq!(sampled % 24, 0);
            if n == g.n() {
                for (total, v) in posterior_work.iter_mut().zip(runs[0]) {
                    *total += v;
                }
            } else {
                // The prior path has no budgets: every row is live.
                assert_eq!((decoded, skipped, fallback), (sampled, 0, 0), "{variant:?}");
            }
        }
    }
    let [sampled, decoded, skipped, fallback] = posterior_work;
    assert!(decoded < sampled, "{decoded} of {sampled} rows decoded");
    assert!(skipped > 0, "no round was skipped");
    assert!(fallback > 0, "no step-1 fallback");
}
