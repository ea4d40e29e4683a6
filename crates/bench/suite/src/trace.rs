//! The traced pass: per-layer metrics for one workload.
//!
//! Two sources, and no new spans inside program code:
//!
//! * **Replays** — the suite times its own calls into each layer's public
//!   functions with the workload's shapes: one training step of the model
//!   stages, one generation round of edge assembly, the shard partitioner
//!   and wave planner, and the serve layer's parse/cache/encode calls.
//! * **Obs** — the suite switches `cpgan-obs` on and reads the spans and
//!   counters the program already records: for the workload's own unit of
//!   work, for a short fit + generate probe at the workload's shapes, and
//!   for the shard and serve paths. A workload reads those from its own
//!   run when it exercises them. Every traced result carries every
//!   per-layer metric, so a workload that does not gets them from the
//!   smallest probe of that path instead: one pipeline run on its input
//!   graph, or about a second of requests to a server of the tiny model.
//!   The registry's `moves` says which workloads a metric belongs to.

use crate::loadgen::{self, Step, StepOutcome};
use crate::report::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{serve, shard, timed};
use cpgan::assembly::GraphAssembler;
use cpgan::decoder::GraphDecoder;
use cpgan::discriminator::Discriminator;
use cpgan::encoder::{AdjInput, LadderEncoder};
use cpgan::vi::VariationalInference;
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::sampling::SubgraphSampler;
use cpgan_graph::{Graph, NodeId};
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{Csr, Matrix, ParamStore, Tape, Var};
use cpgan_obs::{Hist, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epochs of the fit + generate probe that supplies the per-epoch spans.
const PROBE_EPOCHS: usize = 3;
/// Repetitions of each replayed call (the median is reported).
const REPLAY_REPS: usize = 5;
/// Iterations of each serve-layer and obs microbenchmark.
const MICRO_ITERS: u32 = 2_000;

/// The shapes a workload runs at.
pub struct Shapes<'a> {
    /// The workload's model configuration.
    pub cfg: CpGanConfig,
    /// The workload's whole input graph.
    pub input: &'a Graph,
    /// The graph one model trains on (the input, or one shard of it).
    pub train: &'a Graph,
    /// Generated graph size `(n, m)`.
    pub gen: (usize, usize),
}

/// The merged obs report in both its typed and its JSON form (the JSON
/// form is the only way to enumerate span paths).
pub struct Obs {
    report: Report,
    spans: Vec<(String, u64, u64)>,
}

impl Obs {
    /// Snapshots everything recorded so far.
    pub fn snapshot() -> Obs {
        let report = cpgan_obs::snapshot();
        let doc = serde_json::parse_value(&report.to_json()).unwrap_or(Value::Null);
        let spans = match doc.get("spans") {
            Some(Value::Object(fields)) => fields
                .iter()
                .map(|(path, v)| {
                    let get = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
                    (path.clone(), get("count"), get("total_ns"))
                })
                .collect(),
            _ => Vec::new(),
        };
        Obs { report, spans }
    }

    /// `(count, total_ns)` summed over span paths whose last component is
    /// one of `leaves` and that lie under a path starting with `root`.
    fn spans_named(&self, root: &str, leaves: &[&str]) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|(path, _, _)| path.starts_with(root))
            .filter(|(path, _, _)| leaves.contains(&path.rsplit('/').next().unwrap_or("")))
            .fold((0, 0), |(c, t), (_, count, total)| (c + count, t + total))
    }

    /// Mean milliseconds per occurrence of spans named `leaf`, anywhere.
    fn mean_ms(&self, leaf: &str) -> f64 {
        let (count, total) = self.spans_named("", &[leaf]);
        ratio(total as f64 / 1e6, count as f64)
    }

    /// A counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.report.counter(name).unwrap_or(0) as f64
    }

    fn hist(&self, name: &str) -> Option<&Hist> {
        self.report.hist(name)
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Quantile `q` of a log2-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank and clamped to the recorded extremes.
pub fn hist_quantile(h: &Hist, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut below = 0.0;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if below + c >= target {
            let lo = if b == 0 { 0.0 } else { (b as f64).exp2() };
            let hi = ((b + 1) as f64).exp2();
            let v = lo + (target - below) / c * (hi - lo);
            return v.clamp(h.min, h.max);
        }
        below += c;
    }
    h.max
}

/// Runs `f` up to [`REPLAY_REPS`] times (fewer once 0.5 s is spent) and
/// returns the last output with the median milliseconds.
fn replay<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(REPLAY_REPS);
    loop {
        let (out, ms) = timed(&mut f);
        times.push(ms);
        if times.len() >= REPLAY_REPS || start.elapsed() > Duration::from_millis(500) {
            return (out, median(&times).unwrap_or(ms));
        }
    }
}

/// Enables obs from a clean slate.
pub fn obs_on() {
    cpgan_obs::reset();
    cpgan_obs::set_enabled(true);
}

/// Disables obs and clears what it held.
pub fn obs_off() {
    cpgan_obs::set_enabled(false);
    cpgan_obs::reset();
}

/// Runs a workload's unit of work four times: plain, traced (obs on) and
/// plain again at the default thread count, then at one thread. The traced
/// pass is compared with the mean of the plain passes around it, so slow
/// drift in machine speed cancels. Records `trace.overhead_pct`,
/// `parallel.speedup` (time at one thread over time at the default),
/// `nn.peak_mib` and the buffer-pool hit ratio, and checks that every
/// output is bit-identical to the first. Returns the obs collected over
/// the traced pass.
pub fn unit_passes<T: PartialEq>(
    rec: &mut Recorder,
    what: &str,
    mut unit: impl FnMut() -> Result<T, String>,
) -> Result<Obs, String> {
    let default = cpgan_parallel::current_threads();
    obs_off();
    let (plain, t_before) = timed(&mut unit);
    let plain = plain?;
    obs_on();
    cpgan_nn::memory::reset_peak();
    let (traced, t_traced) = timed(&mut unit);
    let obs = Obs::snapshot();
    let nn_peak = cpgan_nn::memory::peak_bytes();
    obs_off();
    let (again, t_after) = timed(&mut unit);
    let (serial, t_serial) = cpgan_parallel::with_thread_count(1, || timed(&mut unit));
    rec.check(
        &format!("{what}: traced and 1-thread outputs bit-identical to the default-thread run"),
        traced? == plain && again? == plain && serial? == plain,
        format!("default {default} threads"),
    );
    let t_plain = (t_before + t_after) / 2.0;
    rec.set("trace.overhead_pct", (t_traced / t_plain - 1.0) * 100.0, 1);
    rec.set("parallel.speedup", t_serial / t_plain, 2);
    rec.set("nn.peak_mib", nn_peak as f64 / (1 << 20) as f64, 1);
    record_buffer_pool(rec, &obs);
    Ok(obs)
}

/// The tensor buffer pool's hit ratio over what `obs` saw.
pub fn record_buffer_pool(rec: &mut Recorder, obs: &Obs) {
    let hits = obs.counter("nn.pool.hit");
    rec.set(
        "nn.pool_hit_ratio",
        ratio(hits, hits + obs.counter("nn.pool.miss")),
        1,
    );
}

/// Every replay and probe that does not depend on which subsystem the
/// workload exercises: graph, community, core and nn replays at the
/// workload's shapes, the fit + generate probe, the shard replays, the
/// serve-layer microbenchmarks and the obs costs.
pub fn layers(
    rec: &mut Recorder,
    shapes: &Shapes<'_>,
    seed: u64,
    input_build_ms: f64,
) -> Result<(), String> {
    rec.set("graph.input_build_ms", input_build_ms, 1);
    let generated = model_probe(rec, shapes, seed)?;
    let (_, ms) = replay(|| crate::workloads::edge_list(&generated));
    rec.set("graph.write_edge_list_ms", ms, REPLAY_REPS);
    train_step_replay(rec, shapes, seed)?;
    shard_replays(rec, shapes.input, seed);
    serve_replays(rec);
    obs_costs(rec);
    Ok(())
}

/// A short fit + generate with obs on, at the workload's shapes: the
/// per-epoch spans and the kernel shares of fit time. Returns the
/// generated graph.
fn model_probe(rec: &mut Recorder, shapes: &Shapes<'_>, seed: u64) -> Result<Graph, String> {
    let mut model = CpGan::try_new(CpGanConfig {
        epochs: PROBE_EPOCHS,
        seed,
        ..shapes.cfg.clone()
    })
    .map_err(|e| e.to_string())?;
    obs_on();
    model.fit(shapes.train);
    let mut rng = StdRng::seed_from_u64(seed);
    let generated = model.generate(shapes.gen.0, shapes.gen.1, &mut rng);
    let obs = Obs::snapshot();
    obs_off();

    let (fits, fit_ns) = obs.spans_named("core.fit", &["core.fit"]);
    let (epochs, epoch_ns) = obs.spans_named("core.fit", &["core.epoch"]);
    let (_, d_ns) = obs.spans_named("core.fit", &["core.d_step"]);
    let (_, g_ns) = obs.spans_named("core.fit", &["core.g_step"]);
    let per_epoch = |ns: u64| ratio(ns as f64 / 1e6, epochs as f64);
    rec.set("core.epoch_ms", per_epoch(epoch_ns), epochs as usize);
    rec.set("core.d_step_ms", per_epoch(d_ns), epochs as usize);
    rec.set("core.g_step_ms", per_epoch(g_ns), epochs as usize);
    rec.set(
        "core.fit_fixed_ms",
        ratio(fit_ns.saturating_sub(epoch_ns) as f64 / 1e6, fits as f64),
        fits as usize,
    );
    rec.set("core.generate_ms", obs.mean_ms("core.generate"), 1);
    let share = |leaves: &[&str]| {
        let (_, ns) = obs.spans_named("core.fit", leaves);
        ratio(ns as f64, fit_ns as f64) * 100.0
    };
    rec.set(
        "nn.matmul_share",
        share(&["nn.matmul", "nn.matmul_tn", "nn.matmul_nt"]),
        1,
    );
    rec.set("nn.spmm_share", share(&["nn.spmm", "nn.spmm_fused"]), 1);
    rec.set("nn.backward_share", share(&["nn.backward"]), 1);
    Ok(generated)
}

/// One training step and one generation round through the model stages'
/// public calls, each timed on its own.
fn train_step_replay(rec: &mut Recorder, shapes: &Shapes<'_>, seed: u64) -> Result<(), String> {
    let cfg = &shapes.cfg;
    let g = shapes.train;
    let k = cfg.sample_size.min(g.n());
    let mut sampler = SubgraphSampler::new(seed);
    let (draw, ms) = replay(|| sampler.next_subgraph(g, k));
    rec.set("graph.sample_subgraph_us", ms * 1e3, REPLAY_REPS);
    let (sub, ids) = draw.map_err(|e| e.to_string())?;

    let d = cfg.spectral_dim;
    let d_eff = d.min(g.n());
    let (spec, ms) = replay(|| cpgan_graph::spectral::spectral_embedding(g, d_eff, seed));
    rec.set("graph.spectral_ms", ms, REPLAY_REPS);
    let (_, ms) = replay(|| cpgan_community::louvain::louvain_hierarchy(&sub, seed));
    rec.set("community.louvain_hierarchy_ms", ms, REPLAY_REPS);
    let (adj, ms) = replay(|| Csr::normalized_adjacency(&sub));
    rec.set("nn.normalized_adj_us", ms * 1e3, REPLAY_REPS);
    let adj = Arc::new(adj);

    // The model's input features: spectral rows plus a log-degree column.
    let feats = Matrix::from_fn(sub.n(), d + 1, |r, c| {
        let v = ids[r] as usize;
        if c < d_eff {
            spec[v * d_eff + c]
        } else if c < d {
            0.0
        } else {
            ((g.degree(v as NodeId) + 1) as f32).ln()
        }
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut enc_params = ParamStore::new();
    let encoder =
        LadderEncoder::try_new(&mut enc_params, &mut rng, cfg).map_err(|e| e.to_string())?;
    let mut gen_params = ParamStore::new();
    let vi =
        VariationalInference::try_new(&mut gen_params, &mut rng, cfg).map_err(|e| e.to_string())?;
    let decoder =
        GraphDecoder::try_new(&mut gen_params, &mut rng, cfg).map_err(|e| e.to_string())?;
    let mut disc_params = ParamStore::new();
    let disc =
        Discriminator::try_new(&mut disc_params, &mut rng, cfg).map_err(|e| e.to_string())?;
    let mut params = ParamStore::new();
    params.extend(&enc_params);
    params.extend(&gen_params);
    params.extend(&disc_params);
    let mut opt = Adam::with_lr(cfg.learning_rate);
    let ns = sub.n();
    let target = Arc::new(Matrix::from_vec(ns, ns, sub.dense_adjacency()));
    let real = Arc::new(Matrix::full(1, 1, 1.0));

    let mut stage: [Vec<f64>; 8] = Default::default();
    let mut probs = Matrix::zeros(ns, ns);
    for _ in 0..REPLAY_REPS {
        let tape = Tape::new();
        let x = tape.constant(feats.clone());
        let (enc, t0) = timed(|| encoder.encode(&tape, &AdjInput::Sparse(Arc::clone(&adj)), &x));
        let z_rec = Var::concat_cols(&enc.z_rec);
        let (vi_out, t1) = timed(|| vi.forward(&tape, &z_rec, &mut rng));
        let blocks = vi.split_levels(&tape, &vi_out.z, encoder.levels());
        let (h, t2) = timed(|| decoder.decode_nodes(&tape, &blocks));
        let (logits, t3) = timed(|| decoder.link_logits(&tape, &h));
        let p = logits.sigmoid();
        let (fake, t4) = timed(|| encoder.encode(&tape, &AdjInput::Dense(p.clone()), &x));
        let (logit, t5) = timed(|| disc.logit(&tape, &fake.readout_flat));
        let loss = logits
            .bce_with_logits_mean(&target, None)
            .add(&logit.bce_with_logits_mean(&real, None));
        params.zero_grad();
        let ((), t6) = timed(|| loss.backward());
        let ((), t7) = timed(|| opt.step(&params));
        for (s, t) in stage.iter_mut().zip([t0, t1, t2, t3, t4, t5, t6, t7]) {
            s.push(t);
        }
        probs = p.value();
    }
    let med = |i: usize| median(&stage[i]).unwrap_or(0.0);
    rec.set("core.encoder_sparse_ms", med(0), REPLAY_REPS);
    rec.set("core.vi_us", med(1) * 1e3, REPLAY_REPS);
    rec.set("core.decoder_gru_ms", med(2), REPLAY_REPS);
    rec.set("core.decoder_link_ms", med(3), REPLAY_REPS);
    rec.set("core.encoder_dense_ms", med(4), REPLAY_REPS);
    rec.set("core.discriminator_us", med(5) * 1e3, REPLAY_REPS);
    rec.set("nn.backward_ms", med(6), REPLAY_REPS);
    rec.set("nn.adam_step_us", med(7) * 1e3, REPLAY_REPS);

    assembly_replay(rec, shapes, &probs, &mut rng);
    Ok(())
}

/// One generation round of §III-G assembly into a graph of the
/// workload's generated size, then the residual fill and the build.
fn assembly_replay(rec: &mut Recorder, shapes: &Shapes<'_>, probs: &Matrix, rng: &mut StdRng) {
    let (n, m) = shapes.gen;
    let ns = probs.rows().min(n);
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    for i in 0..ns {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    let nodes = &ids[..ns];
    let rounds = n.div_ceil(ns.max(1)).max(1);
    let per_round = m.div_ceil(rounds).max(1);
    // Degree budgets exist only when generating at the trained size.
    let budgets = (n == shapes.train.n()).then(|| shapes.train.degrees());
    let fresh = || {
        let asm = GraphAssembler::new(n, m);
        match &budgets {
            Some(b) => asm.with_degree_budgets(b.clone()),
            None => asm,
        }
    };
    let mut rounds_ms = Vec::with_capacity(REPLAY_REPS);
    let mut last = None;
    for _ in 0..REPLAY_REPS {
        let mut asm = fresh();
        let (_, ms) = timed(|| asm.add_subgraph(nodes, probs, per_round, rng));
        rounds_ms.push(ms);
        last = Some(asm);
    }
    rec.set(
        "core.assembly_add_subgraph_us",
        median(&rounds_ms).unwrap_or(0.0) * 1e3,
        REPLAY_REPS,
    );
    let Some(mut asm) = last else { return };
    let ((), ms) = timed(|| asm.fill_residual(rng));
    rec.set("core.assembly_fill_residual_ms", ms, 1);
    let (_, ms) = timed(|| asm.build());
    rec.set("core.assembly_build_ms", ms, 1);
}

/// Partitioning and wave planning of `g` under the shard workload's
/// configuration.
fn shard_replays(rec: &mut Recorder, g: &Graph, seed: u64) {
    let cfg = shard::config(seed);
    let (shards, ms) = replay(|| cpgan_shard::partition_shards(g, cfg.max_shard_size, cfg.seed));
    rec.set("shard.partition_ms", ms, REPLAY_REPS);
    let mut owner = vec![0usize; g.n()];
    for (i, s) in shards.iter().enumerate() {
        for &v in &s.nodes {
            owner[v as usize] = i;
        }
    }
    let mut intra = vec![0usize; shards.len()];
    for &(u, v) in g.edges() {
        if owner[u as usize] == owner[v as usize] {
            intra[owner[u as usize]] += 1;
        }
    }
    let (_, ms) = replay(|| {
        let estimates: Vec<usize> = shards
            .iter()
            .zip(&intra)
            .map(|(s, &m)| cpgan_shard::schedule::estimate_peak_bytes(s.nodes.len(), m, &cfg.model))
            .collect();
        cpgan_shard::schedule::plan_waves(&estimates, cfg.memory_budget_bytes)
    });
    rec.set("shard.plan_us", ms * 1e3, REPLAY_REPS);
}

/// Shard-path metrics, and the worker pool the pipeline fans shards out
/// on, from obs collected over one pipeline run.
pub fn record_shard(rec: &mut Recorder, obs: &Obs) {
    let jobs = obs.counter("parallel.pool.jobs");
    let busy_ns = obs.counter("parallel.pool.busy_ns");
    let (_, pipeline_ns) = obs.spans_named("shard.pipeline", &["shard.pipeline"]);
    let threads = cpgan_parallel::current_threads() as f64;
    rec.set("parallel.pool_jobs", jobs, 1);
    rec.set(
        "parallel.pool_busy_ratio",
        ratio(busy_ns, pipeline_ns as f64 * threads),
        1,
    );
    rec.set(
        "parallel.pool_queue_wait_ms",
        ratio(obs.counter("parallel.pool.queue_wait_ns") / 1e6, jobs),
        jobs as usize,
    );
    rec.set(
        "shard.count",
        obs.report.gauge("shard.count").unwrap_or(0.0),
        1,
    );
    rec.set(
        "shard.train_generate_ms",
        obs.mean_ms("shard.train_generate"),
        1,
    );
    rec.set("shard.stitch_ms", obs.mean_ms("shard.stitch"), 1);
    rec.set("shard.fit_one_ms", obs.mean_ms("shard.fit_one"), 1);
}

/// Runs the shard pipeline once on `g` with obs on, for workloads that do
/// not exercise it themselves.
pub fn shard_probe(rec: &mut Recorder, g: &Graph, seed: u64) -> Result<(), String> {
    let pipeline =
        cpgan_shard::ShardPipeline::new(shard::config(seed)).map_err(|e| e.to_string())?;
    obs_on();
    let run = pipeline.run(g);
    let obs = Obs::snapshot();
    obs_off();
    run.map_err(|e| e.to_string())?;
    record_shard(rec, &obs);
    Ok(())
}

/// Mean microseconds per call of `f` over [`MICRO_ITERS`] calls.
fn micro_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..MICRO_ITERS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(MICRO_ITERS)
}

/// The serve layer's request-path calls at the served shape (a
/// 1200-node, 2400-edge request and its ~24 KB body).
fn serve_replays(rec: &mut Recorder) {
    use cpgan_serve::http::{encode_head, parse_request, Response};
    use cpgan_serve::{CacheKey, GenCache, GenerateRequest};
    let wire = loadgen::request_bytes(serve::GEN_NODES, serve::GEN_EDGES, 12_345);
    let us = micro_us(|| {
        std::hint::black_box(parse_request(std::hint::black_box(&wire)).is_ok());
    });
    rec.set("serve.parse_request_us", us, MICRO_ITERS as usize);
    let body = br#"{"nodes":1200,"edges":2400,"seed":12345}"#;
    let us = micro_us(|| {
        std::hint::black_box(GenerateRequest::from_body(std::hint::black_box(body)).is_ok());
    });
    rec.set("serve.body_parse_us", us, MICRO_ITERS as usize);
    let payload = Arc::new(vec![b'7'; serve::BODY_BYTES]);
    let us = micro_us(|| {
        let response = Response::shared(200, Arc::clone(&payload));
        std::hint::black_box(encode_head(&response, true, false));
    });
    rec.set("serve.encode_head_us", us, MICRO_ITERS as usize);

    // A full 16 MiB cache of served-size bodies: gets hit, inserts evict.
    let cache = GenCache::new(serve::CACHE_BYTES);
    let key = |seed: u64| CacheKey {
        model: serve::MODEL.to_string(),
        rev: 1,
        nodes: serve::GEN_NODES,
        edges: serve::GEN_EDGES,
        seed,
    };
    let full = (serve::CACHE_BYTES / serve::BODY_BYTES) as u64;
    for s in 0..full {
        cache.insert(key(s), Arc::clone(&payload));
    }
    let mut s = 0u64;
    let us = micro_us(|| {
        s = (s + 7) % full;
        std::hint::black_box(cache.get(&key(full - 1 - s % 64)).is_some());
    });
    rec.set("serve.cache_get_us", us, MICRO_ITERS as usize);
    let mut next = full;
    let us = micro_us(|| {
        next += 1;
        cache.insert(key(next), Arc::clone(&payload));
    });
    rec.set("serve.cache_insert_us", us, MICRO_ITERS as usize);
}

/// Enabled-mode cost of a depth-3 span and of a counter bump.
fn obs_costs(rec: &mut Recorder) {
    obs_on();
    let ns = {
        let _a = cpgan_obs::span("bench.a");
        let _b = cpgan_obs::span("bench.b");
        micro_us(|| {
            let _c = cpgan_obs::span("bench.c");
        }) * 1e3
    };
    rec.set("obs.span_ns", ns, MICRO_ITERS as usize);
    let ns = micro_us(|| cpgan_obs::counter_add("bench.counter", 1)) * 1e3;
    rec.set("obs.counter_ns", ns, MICRO_ITERS as usize);
    obs_off();
}

/// Serve-path metrics from obs over a server's life plus one measured
/// step of load, during which the event-loop thread used
/// `event_loop_cpu_ms` of CPU.
pub fn record_serve(rec: &mut Recorder, obs: &Obs, step: &StepOutcome, event_loop_cpu_ms: f64) {
    rec.set(
        "serve.event_loop_cpu_us",
        ratio(event_loop_cpu_ms * 1e3, step.records.len() as f64),
        step.records.len(),
    );
    let mean = |h: Option<&Hist>| h.map_or(0.0, |h| ratio(h.sum, h.count as f64));
    let quantile_ms = |h: Option<&Hist>, q| h.map_or(0.0, |h| hist_quantile(h, q) / 1e6);
    rec.set("serve.generate_ms", obs.mean_ms("serve.generate"), 1);
    let queue = obs.hist("serve.queue_wait_ns");
    rec.set("serve.queue_wait_ms.mean", mean(queue) / 1e6, 1);
    rec.set("serve.queue_wait_ms.p99", quantile_ms(queue, 0.99), 1);
    let server = obs.hist("serve.request_latency_ns");
    rec.set("serve.server_latency_ms.p50", quantile_ms(server, 0.5), 1);
    rec.set("serve.server_latency_ms.p99", quantile_ms(server, 0.99), 1);
    let ok = step.ok_latencies();
    // Means, not p50s: the server's log2 buckets are too coarse to
    // subtract from a client percentile.
    let client_mean = ratio(ok.iter().sum(), ok.len() as f64);
    rec.set(
        "serve.client_wait_ms",
        client_mean - mean(server) / 1e6,
        ok.len(),
    );
    let client_p99 = percentile(&step.all_latencies(), 0.99)
        .or_else(|| ok.last().copied())
        .unwrap_or(0.0);
    rec.set("serve.client_p99_ms", client_p99, step.records.len());
    let hits = obs.counter("serve.cache.hit");
    rec.set(
        "serve.cache_hit_ratio",
        ratio(hits, hits + obs.counter("serve.cache.miss")),
        1,
    );
    rec.set("serve.cache_evictions", obs.counter("serve.cache.evict"), 1);
    rec.set(
        "serve.batch_size_mean",
        mean(obs.hist("serve.batch_size")),
        1,
    );
    rec.set(
        "serve.rejected",
        obs.counter("serve.err.queue_full") + obs.counter("serve.err.over_capacity"),
        1,
    );
    rec.set("serve.timed_out", obs.counter("serve.err.deadline"), 1);
    let late = step.late();
    rec.set(
        "loadgen.late_ms.p99",
        percentile(&late, 0.99)
            .or_else(|| late.last().copied())
            .unwrap_or(0.0),
        late.len(),
    );
    rec.set(
        "loadgen.late_ms.max",
        late.last().copied().unwrap_or(0.0),
        late.len(),
    );
}

/// A short exchange with an in-process server (16 generations, then 4000
/// cache hits in one second) for workloads that do not serve: every traced
/// result carries every per-layer metric.
pub fn serve_probe(rec: &mut Recorder, seed: u64) -> Result<(), String> {
    obs_on();
    let server = serve::start(seed)?;
    let addr = server.addr();
    let request = |i: usize| {
        loadgen::request_bytes(
            serve::GEN_NODES,
            serve::GEN_EDGES,
            seed.wrapping_add(i as u64 % 16),
        )
    };
    let warm = Step {
        rate: 100.0,
        duration: Duration::ZERO,
        min_requests: 16,
    };
    // Enough hits that the event loop's CPU spans ~10 clock ticks.
    let hits = Step {
        rate: 4_000.0,
        duration: Duration::ZERO,
        min_requests: 4_000,
    };
    let outcome = loadgen::run_step(addr, &warm, seed, &request, &|_| false).and_then(|_| {
        let cpu = serve::EventLoopCpu::start();
        let step = loadgen::run_step(addr, &hits, seed ^ 1, &request, &|_| false)?;
        Ok((cpu.stop(), step))
    });
    let obs = Obs::snapshot();
    drop(server);
    obs_off();
    let (cpu_ms, step) = outcome.map_err(|e| e.to_string())?;
    rec.ops(step.records.len() as u64, step.failures());
    record_serve(rec, &obs, &step, cpu_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let mut h = Hist::default();
        for v in [4.0, 5.0, 6.0, 7.0] {
            h.record(v); // all in bucket 2 = [4, 8)
        }
        assert!((hist_quantile(&h, 0.5) - 6.0).abs() < 1e-9);
        // Clamped to the recorded extremes.
        assert!((hist_quantile(&h, 1.0) - 7.0).abs() < 1e-9);
        assert!(hist_quantile(&Hist::default(), 0.5).abs() < 1e-12);
    }
}
