//! The sharded train → generate → stitch pipeline.
//!
//! Determinism contract (DESIGN.md §8, §14): the output graph is a pure
//! function of `(input graph, ShardConfig)`. Per-shard randomness derives
//! from `(seed, shard index)`, per-pair stitching randomness from
//! `(seed, community pair)`, and results are always combined in shard-index
//! order — so thread count, wave layout, and shard processing order are all
//! invisible in the output.

use crate::partition::{partition_shards, Shard};
use crate::schedule::{estimate_peak_bytes, peak_estimate, plan_waves};
use crate::ShardError;
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::{Graph, GraphBuilder, NodeId};
use cpgan_parallel::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Golden-ratio mix constant for per-shard seed derivation.
const SHARD_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt separating the generation stream from the training stream.
const GEN_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// Salt for per-pair edge realization RNGs.
const PAIR_SALT: u64 = 0x6A09_E667_F3BC_C909;

/// Shards smaller than this skip model training and echo their observed
/// subgraph: a handful of nodes cannot support the encoder, and echoing is
/// the deterministic community-preserving fallback.
const MIN_TRAINABLE_NODES: usize = 8;
/// Minimum observed edges for a shard to be worth training on.
const MIN_TRAINABLE_EDGES: usize = 4;

/// Configuration of the sharded pipeline.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Maximum nodes per shard (oversized Louvain communities are
    /// recursively re-partitioned).
    pub max_shard_size: usize,
    /// Per-wave peak-bytes budget for shard scheduling; 0 disables
    /// budgeting (single wave).
    pub memory_budget_bytes: usize,
    /// Per-shard model hyper-parameters; the `seed` field is ignored (the
    /// pipeline derives per-shard seeds from [`ShardConfig::seed`]).
    pub model: CpGanConfig,
    /// Pipeline seed: the single entropy root for partitioning, every
    /// shard's model, and stitching.
    pub seed: u64,
    /// Fraction of observed community-pair links the quotient assembly
    /// keeps (1.0 = all observed pairs; lower values sparsify while the
    /// categorical stage still guarantees every community one external
    /// link).
    pub inter_pair_fraction: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_shard_size: 4000,
            memory_budget_bytes: 256 << 20,
            model: CpGanConfig::tiny(),
            seed: 42,
            inter_pair_fraction: 1.0,
        }
    }
}

/// Output of a pipeline run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The generated graph (same node count as the input).
    pub graph: Graph,
    /// Number of community shards.
    pub shards: usize,
    /// Number of scheduling waves executed.
    pub waves: usize,
    /// Generated intra-shard edges.
    pub intra_edges: usize,
    /// Generated inter-shard (stitched) edges.
    pub inter_edges: usize,
    /// Largest shard, in nodes.
    pub max_shard_nodes: usize,
    /// Scheduled peak of the per-wave byte estimates.
    pub peak_estimate_bytes: usize,
}

/// The community-sharded divide-and-conquer pipeline.
#[derive(Debug, Clone)]
pub struct ShardPipeline {
    cfg: ShardConfig,
}

impl ShardPipeline {
    /// Validates `cfg` and builds the pipeline.
    pub fn new(cfg: ShardConfig) -> Result<Self, ShardError> {
        if cfg.max_shard_size < 2 {
            return Err(ShardError::Config(format!(
                "max_shard_size must be >= 2, got {}",
                cfg.max_shard_size
            )));
        }
        if !(cfg.inter_pair_fraction > 0.0 && cfg.inter_pair_fraction <= 1.0) {
            return Err(ShardError::Config(format!(
                "inter_pair_fraction must be in (0, 1], got {}",
                cfg.inter_pair_fraction
            )));
        }
        cfg.model
            .validate()
            .map_err(|e| ShardError::Config(e.to_string()))?;
        Ok(ShardPipeline { cfg })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Runs the full pipeline on `g`, scheduling shards into
    /// memory-budgeted waves and fanning each wave out over the parallel
    /// runtime.
    pub fn run(&self, g: &Graph) -> Result<ShardReport, ShardError> {
        let _span = cpgan_obs::span("shard.pipeline");
        let shards = self.partition(g);
        let estimates: Vec<usize> = shards
            .iter()
            .map(|s| {
                let m = intra_edge_count(g, s);
                estimate_peak_bytes(s.nodes.len(), m, &self.cfg.model)
            })
            .collect();
        let waves = plan_waves(&estimates, self.cfg.memory_budget_bytes);
        let peak = peak_estimate(&estimates, &waves);
        cpgan_obs::gauge_set("shard.waves", waves.len() as f64);
        cpgan_obs::gauge_set("shard.peak_estimate_bytes", peak as f64);
        let generated = self.generate_shards(g, &shards, &waves);
        self.assemble(g, &shards, generated, waves.len(), peak)
    }

    /// Like [`ShardPipeline::run`] but processes shards sequentially in the
    /// given order — `order` must be a permutation of `0..shards`. The
    /// output graph is bit-identical to [`ShardPipeline::run`]'s (shard
    /// results are keyed by index, never by completion order); the
    /// determinism suite pins exactly this.
    pub fn run_with_order(&self, g: &Graph, order: &[usize]) -> Result<ShardReport, ShardError> {
        let _span = cpgan_obs::span("shard.pipeline");
        let shards = self.partition(g);
        let mut seen = vec![false; shards.len()];
        for &i in order {
            if i >= shards.len() || seen[i] {
                return Err(ShardError::Config(format!(
                    "order must be a permutation of 0..{}",
                    shards.len()
                )));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(ShardError::Config(format!(
                "order must cover every shard index 0..{}",
                shards.len()
            )));
        }
        // One single-shard wave per order entry: the scheduling skeleton
        // exercises the arbitrary completion order.
        let waves: Vec<Vec<usize>> = order.iter().map(|&i| vec![i]).collect();
        let estimates: Vec<usize> = shards
            .iter()
            .map(|s| {
                let m = intra_edge_count(g, s);
                estimate_peak_bytes(s.nodes.len(), m, &self.cfg.model)
            })
            .collect();
        let peak = peak_estimate(&estimates, &waves);
        let generated = self.generate_shards(g, &shards, &waves);
        self.assemble(g, &shards, generated, waves.len(), peak)
    }

    fn partition(&self, g: &Graph) -> Vec<Shard> {
        let _span = cpgan_obs::span("shard.partition");
        let shards = partition_shards(g, self.cfg.max_shard_size, self.cfg.seed);
        cpgan_obs::gauge_set("shard.count", shards.len() as f64);
        cpgan_obs::gauge_set(
            "shard.max_nodes",
            shards.iter().map(|s| s.nodes.len()).max().unwrap_or(0) as f64,
        );
        shards
    }

    /// Trains + generates every shard, wave by wave; results are keyed by
    /// shard index regardless of wave layout or scheduling order.
    fn generate_shards(&self, g: &Graph, shards: &[Shard], waves: &[Vec<usize>]) -> Vec<Graph> {
        let _span = cpgan_obs::span("shard.train_generate");
        let mut results: Vec<Option<Graph>> = vec![None; shards.len()];
        for wave in waves {
            let items: Vec<(usize, Graph)> = wave
                .iter()
                .map(|&i| (i, g.induced_subgraph(&shards[i].nodes).0))
                .collect();
            let model_cfg = self.cfg.model.clone();
            let base_seed = self.cfg.seed;
            let done = Pool::global().par_map_owned(items, move |_, (idx, sub)| {
                let shard_seed = base_seed ^ (idx as u64 + 1).wrapping_mul(SHARD_SEED_MIX);
                (idx, train_generate_one(&sub, &model_cfg, shard_seed))
            });
            for (idx, graph) in done {
                results[idx] = Some(graph);
            }
        }
        // Every shard index appears in exactly one wave, so every slot is
        // filled; an empty placeholder keeps the no-panic contract.
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(empty_graph))
            .collect()
    }

    /// Combines intra-shard generations and stitches inter-shard edges.
    fn assemble(
        &self,
        g: &Graph,
        shards: &[Shard],
        generated: Vec<Graph>,
        waves: usize,
        peak_estimate_bytes: usize,
    ) -> Result<ShardReport, ShardError> {
        let _span = cpgan_obs::span("shard.stitch");
        let mut builder = GraphBuilder::with_capacity(g.n(), g.m());
        let mut intra_edges = 0usize;
        for (shard, gen) in shards.iter().zip(&generated) {
            for &(a, b) in gen.edges() {
                builder.add_edge(shard.nodes[a as usize], shard.nodes[b as usize])?;
                intra_edges += 1;
            }
        }
        let inter_edges = self.stitch(g, shards, &generated, &mut builder)?;
        cpgan_obs::gauge_set("shard.intra_edges", intra_edges as f64);
        cpgan_obs::gauge_set("shard.inter_edges", inter_edges as f64);
        Ok(ShardReport {
            graph: builder.build(),
            shards: shards.len(),
            waves,
            intra_edges,
            inter_edges,
            max_shard_nodes: shards.iter().map(|s| s.nodes.len()).max().unwrap_or(0),
            peak_estimate_bytes,
        })
    }

    /// Two-stage edge assembly (§III-G) on the quotient graph of
    /// community-to-community edge counts, then per-pair realization.
    fn stitch(
        &self,
        g: &Graph,
        shards: &[Shard],
        generated: &[Graph],
        builder: &mut GraphBuilder,
    ) -> Result<usize, ShardError> {
        let k = shards.len();
        if k < 2 {
            return Ok(0);
        }
        // Map node -> shard index.
        let mut shard_of = vec![0usize; g.n()];
        for (i, s) in shards.iter().enumerate() {
            for &v in &s.nodes {
                shard_of[v as usize] = i;
            }
        }
        // Quotient weights: observed inter-community edge counts.
        let mut weights: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for &(u, v) in g.edges() {
            let (a, b) = (shard_of[u as usize], shard_of[v as usize]);
            if a != b {
                let key = if a < b { (a, b) } else { (b, a) };
                *weights.entry(key).or_insert(0) += 1;
            }
        }
        let total_inter: usize = weights.values().sum();
        if total_inter == 0 {
            return Ok(0);
        }

        let target_pairs = ((weights.len() as f64 * self.cfg.inter_pair_fraction).ceil() as usize)
            .clamp(1, weights.len());
        // Keeping every observed pair makes selection the identity;
        // otherwise run the two §III-G stages sparsely on the quotient.
        let selected: Vec<(usize, usize)> = if target_pairs == weights.len() {
            weights.keys().copied().collect()
        } else {
            select_pairs_sparse(&weights, k, target_pairs)
        };

        // Apportion the observed inter-edge total over the selected pairs
        // proportionally to their weights (largest remainder), then realize
        // each pair's budget with degree-proportional endpoints inside the
        // generated shards.
        let sel_weight: usize = selected
            .iter()
            .map(|p| weights.get(p).copied().unwrap_or(0))
            .sum();
        if sel_weight == 0 {
            return Ok(0);
        }
        let mut counts: Vec<(usize, (usize, usize))> = Vec::with_capacity(selected.len());
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(selected.len());
        let mut assigned = 0usize;
        for (i, &pair) in selected.iter().enumerate() {
            let w = weights.get(&pair).copied().unwrap_or(0);
            let exact = total_inter as f64 * w as f64 / sel_weight as f64;
            let base = exact.floor() as usize;
            assigned += base;
            counts.push((base, pair));
            rema.push((exact - base as f64, i));
        }
        // Largest remainder, index tiebreak: deterministic apportionment.
        rema.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut leftover = total_inter.saturating_sub(assigned);
        for &(_, i) in &rema {
            if leftover == 0 {
                break;
            }
            counts[i].0 += 1;
            leftover -= 1;
        }

        // Degree-proportional endpoint weights inside each generated shard
        // (degree + 1 so isolated generated nodes stay reachable).
        let cum: Vec<Vec<f64>> = generated
            .iter()
            .map(|gen| {
                let mut acc = 0.0;
                (0..gen.n())
                    .map(|v| {
                        acc += gen.degree(v as NodeId) as f64 + 1.0;
                        acc
                    })
                    .collect()
            })
            .collect();
        let mut inter_edges = 0usize;
        for &(count, (a, b)) in &counts {
            if count == 0 {
                continue;
            }
            let pair_key = ((a as u64) << 32) | b as u64;
            let mut rng = StdRng::seed_from_u64(
                self.cfg.seed ^ PAIR_SALT ^ pair_key.wrapping_mul(SHARD_SEED_MIX),
            );
            let mut placed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            let mut attempts = 0usize;
            let max_attempts = 30 * count + 100;
            while placed.len() < count && attempts < max_attempts {
                attempts += 1;
                let (Some(u), Some(v)) = (
                    pick_weighted(&cum[a], &mut rng),
                    pick_weighted(&cum[b], &mut rng),
                ) else {
                    break;
                };
                placed.insert((shards[a].nodes[u], shards[b].nodes[v]));
            }
            for &(u, v) in &placed {
                builder.add_edge(u, v)?;
                inter_edges += 1;
            }
        }
        Ok(inter_edges)
    }
}

/// The two-stage §III-G selection on the quotient graph, without a dense
/// k×k matrix: stage 1 keeps each community's heaviest observed pair
/// (every community with an external link keeps at least one), stage 2
/// fills to `target_pairs` in global weight order. Fully deterministic —
/// ties break on the (ordered) pair key.
fn select_pairs_sparse(
    weights: &BTreeMap<(usize, usize), usize>,
    k: usize,
    target_pairs: usize,
) -> Vec<(usize, usize)> {
    // Heaviest incident pair per community (weight desc, key asc on ties —
    // BTreeMap iterates keys ascending, so `>` keeps the first max).
    let mut best: Vec<Option<(usize, (usize, usize))>> = vec![None; k];
    for (&pair, &w) in weights {
        for c in [pair.0, pair.1] {
            if best[c].is_none_or(|(bw, _)| w > bw) {
                best[c] = Some((w, pair));
            }
        }
    }
    let mut chosen: BTreeSet<(usize, usize)> = best.into_iter().flatten().map(|(_, p)| p).collect();
    if chosen.len() < target_pairs {
        let mut rest: Vec<(usize, (usize, usize))> = weights
            .iter()
            .filter(|(p, _)| !chosen.contains(p))
            .map(|(&p, &w)| (w, p))
            .collect();
        rest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, p) in rest.into_iter().take(target_pairs - chosen.len()) {
            chosen.insert(p);
        }
    }
    chosen.into_iter().collect()
}

/// The zero-node graph (infallible placeholder for an unreachable slot).
fn empty_graph() -> Graph {
    GraphBuilder::new(0).build()
}

/// Observed intra-shard edge count (both endpoints inside the shard).
fn intra_edge_count(g: &Graph, shard: &Shard) -> usize {
    let set: BTreeSet<NodeId> = shard.nodes.iter().copied().collect();
    let mut m = 0usize;
    for &v in &shard.nodes {
        for &w in g.neighbors(v) {
            if v < w && set.contains(&w) {
                m += 1;
            }
        }
    }
    m
}

/// Samples an index proportionally to the positive increments of the
/// cumulative weight array `cum`.
fn pick_weighted(cum: &[f64], rng: &mut StdRng) -> Option<usize> {
    let total = *cum.last()?;
    // NaN or non-positive totals both mean "nothing to sample".
    if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None;
    }
    let x = rng.gen::<f64>() * total;
    Some(cum.partition_point(|&p| p <= x).min(cum.len() - 1))
}

/// Trains a shard model on `sub` and generates a same-shape replacement.
/// All randomness flows from `shard_seed`; degenerate shards echo their
/// observed structure (see [`MIN_TRAINABLE_NODES`]).
fn train_generate_one(sub: &Graph, model: &CpGanConfig, shard_seed: u64) -> Graph {
    if sub.n() < MIN_TRAINABLE_NODES || sub.m() < MIN_TRAINABLE_EDGES {
        return sub.clone();
    }
    let _span = cpgan_obs::span("shard.fit_one");
    let mut cfg = model.clone();
    cfg.seed = shard_seed;
    cfg.sample_size = cfg.sample_size.min(sub.n());
    let mut m = CpGan::new(cfg);
    let _stats = m.fit(sub);
    let mut rng = StdRng::seed_from_u64(shard_seed ^ GEN_SALT);
    m.generate(sub.n(), sub.m(), &mut rng)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn quick_cfg() -> ShardConfig {
        let mut model = CpGanConfig::tiny();
        model.epochs = 2;
        model.sample_size = 16;
        ShardConfig {
            max_shard_size: 8,
            memory_budget_bytes: 0,
            model,
            seed: 7,
            inter_pair_fraction: 1.0,
        }
    }

    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for base in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 8));
        edges.push((1, 9));
        Graph::from_edges(16, edges).unwrap()
    }

    #[test]
    fn rejects_bad_configs() {
        let mut cfg = quick_cfg();
        cfg.max_shard_size = 1;
        assert!(matches!(
            ShardPipeline::new(cfg),
            Err(ShardError::Config(_))
        ));
        let mut cfg = quick_cfg();
        cfg.inter_pair_fraction = 0.0;
        assert!(ShardPipeline::new(cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.inter_pair_fraction = 1.5;
        assert!(ShardPipeline::new(cfg).is_err());
        assert!(ShardPipeline::new(quick_cfg()).is_ok());
    }

    #[test]
    fn run_preserves_node_count_and_generates_edges() {
        let g = two_cliques();
        let report = ShardPipeline::new(quick_cfg()).unwrap().run(&g).unwrap();
        assert_eq!(report.graph.n(), g.n());
        assert_eq!(report.shards, 2);
        assert!(report.intra_edges > 0, "{report:?}");
        assert!(report.inter_edges > 0, "{report:?}");
        assert_eq!(report.graph.m(), report.intra_edges + report.inter_edges);
        assert!(report.max_shard_nodes <= 8);
        assert!(report.waves >= 1);
        assert!(report.peak_estimate_bytes > 0);
    }

    #[test]
    fn run_with_order_validates_permutations() {
        let g = two_cliques();
        let p = ShardPipeline::new(quick_cfg()).unwrap();
        assert!(p.run_with_order(&g, &[0, 0]).is_err(), "duplicate index");
        assert!(p.run_with_order(&g, &[0, 5]).is_err(), "out of range");
        assert!(p.run_with_order(&g, &[0]).is_err(), "incomplete cover");
        assert!(p.run_with_order(&g, &[1, 0]).is_ok());
    }

    #[test]
    fn single_shard_has_no_inter_edges() {
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(10, edges).unwrap();
        let mut cfg = quick_cfg();
        cfg.max_shard_size = 32;
        let report = ShardPipeline::new(cfg).unwrap().run(&g).unwrap();
        assert_eq!(report.shards, 1);
        assert_eq!(report.inter_edges, 0);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(0).build();
        let report = ShardPipeline::new(quick_cfg()).unwrap().run(&g).unwrap();
        assert_eq!(report.graph.n(), 0);
        assert_eq!(report.shards, 0);
        assert_eq!(report.graph.m(), 0);
    }

    #[test]
    fn sparse_selection_seeds_every_community() {
        // Chain 0-1-2-3 with weights 5, 1, 3: target 2 pairs. Stage 1 keeps
        // each community's heaviest pair — {(0,1), (1,2)? no: 1's best is
        // (0,1), 2's best is (2,3), 3's best is (2,3)} — so {(0,1), (2,3)}
        // already covers everyone and meets the target.
        let mut w = BTreeMap::new();
        w.insert((0usize, 1usize), 5usize);
        w.insert((1, 2), 1);
        w.insert((2, 3), 3);
        let sel = select_pairs_sparse(&w, 4, 2);
        assert_eq!(sel, vec![(0, 1), (2, 3)]);
        // Raising the target pulls in the remaining pair.
        assert_eq!(select_pairs_sparse(&w, 4, 3), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn fractional_inter_pairs_reduce_stitching() {
        let g = fixture_sparse_bridges();
        let mut full = quick_cfg();
        full.max_shard_size = 6;
        let mut frac = full.clone();
        frac.inter_pair_fraction = 0.4;
        let full_report = ShardPipeline::new(full).unwrap().run(&g).unwrap();
        let frac_report = ShardPipeline::new(frac).unwrap().run(&g).unwrap();
        // Fewer community pairs carry the same inter-edge mass, so the
        // fractional run realizes at most as many stitched edges.
        assert!(frac_report.inter_edges <= full_report.inter_edges);
        assert!(frac_report.inter_edges > 0);
    }

    /// Four 6-cliques in a bridge ring: multiple communities with several
    /// observed community pairs, for selection-path tests.
    fn fixture_sparse_bridges() -> Graph {
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        for c in 0..4u32 {
            let next = (c + 1) % 4;
            edges.push((c * 6, next * 6));
            edges.push((c * 6 + 1, next * 6 + 1));
            edges.push((c * 6 + 2, next * 6 + 2));
        }
        Graph::from_edges(24, edges).unwrap()
    }

    #[test]
    fn tiny_shards_echo_observed_structure() {
        // 3 nodes, 2 edges: below the trainable floor, so the pipeline must
        // echo the observed subgraph exactly.
        let g = Graph::from_edges(3, [(0u32, 1), (1, 2)]).unwrap();
        let mut cfg = quick_cfg();
        cfg.max_shard_size = 16;
        let report = ShardPipeline::new(cfg).unwrap().run(&g).unwrap();
        assert_eq!(report.graph.edges(), g.edges());
    }
}
