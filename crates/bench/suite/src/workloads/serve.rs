//! `serve_miss` and `serve_hit`: open-loop load on an in-process server
//! with the default `ServeConfig` and `cpgan-obs` on, as `cpgan serve`
//! runs.

use super::{edge_list, record_peak, setup, thread_cpu_ms, timed, Ctx};
use crate::loadgen::{self, Step, StepOutcome};
use crate::report::Recorder;
use crate::stats::median;
use crate::trace::{self, Obs, Shapes};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::Graph;
use cpgan_serve::{ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Requested graph shape: a cold generation costs milliseconds, so a
/// cache hit is measurably cheaper.
pub const GEN_NODES: usize = 1200;
/// Requested edge count.
pub const GEN_EDGES: usize = 2400;
/// Approximate size of one served body at that shape.
pub const BODY_BYTES: usize = 22_000;
/// The default cache budget (`ServeConfig::default().cache_bytes`).
pub const CACHE_BYTES: usize = 16 << 20;
/// Name the model is registered under.
pub const MODEL: &str = "bench";
/// Seeds warmed into the cache for `serve_hit`.
const HIT_SEEDS: u64 = 16;
/// Offered load of `serve_miss` (about a third of two workers' capacity).
const MISS_RATE: f64 = 100.0;
/// Offered load of `serve_hit`.
const HIT_RATE: f64 = 8_000.0;
/// Latency limit of a generated reply, in ms.
const MISS_LIMIT_MS: f64 = 50.0;
/// Least requests per timed step (a resolvable p99).
const MIN_REQUESTS: usize = 1_000;
/// Windows per step; `latency_ms` is the median of their p50s.
const WINDOWS: usize = 3;
/// Every this-many-th served body is compared byte for byte.
const BODY_SAMPLE_EVERY: usize = 97;
/// Generations per thread count behind the traced `parallel.speedup`.
const SPEEDUP_REPS: usize = 9;
/// Latency limit of a cache hit, in ms.
const HIT_LIMIT_MS: f64 = 10.0;

/// Which request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unique seeds: every request generates.
    Miss,
    /// Sixteen warmed seeds: every request hits the cache.
    Hit,
}

/// The 3-community fixture graph the tiny model trains on.
fn bench_graph() -> Result<Graph, String> {
    let mut edges = Vec::new();
    for c in 0..3u32 {
        let base = c * 12;
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                if (a + b) % 2 == 0 {
                    edges.push((base + a, base + b));
                }
            }
        }
        edges.push((base, (base + 12) % 36));
    }
    Graph::from_edges(36, edges).map_err(|e| e.to_string())
}

fn model_config(seed: u64) -> CpGanConfig {
    CpGanConfig {
        epochs: 6,
        sample_size: 36,
        seed,
        ..CpGanConfig::tiny()
    }
}

/// A running server plus the model it serves and the input build time.
pub struct Served {
    server: Server,
    model: CpGan,
    graph: Graph,
    build_ms: f64,
}

impl Served {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Fits the tiny model and starts a server with the default configuration
/// on an ephemeral loopback port.
pub fn start(seed: u64) -> Result<Served, String> {
    let (graph, build_ms) = timed(bench_graph);
    let graph = graph?;
    let mut model = CpGan::try_new(model_config(seed)).map_err(|e| e.to_string())?;
    model.fit(&graph);
    let copy = CpGan::from_snapshot(model.snapshot()).map_err(|e| e.to_string())?;
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL, copy).map_err(|e| e.to_string())?;
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
        registry,
    )
    .map_err(|e| e.to_string())?;
    Ok(Served {
        server,
        model,
        graph,
        build_ms,
    })
}

/// CPU time the running server's event-loop thread uses over an interval
/// (0 where `/proc` does not report it).
pub struct EventLoopCpu(f64);

impl EventLoopCpu {
    /// `cpgan_parallel::spawn_service` names the event loop `cpgan-serve-event`.
    const THREAD: &'static str = "cpgan-serve-event";

    /// Starts the interval.
    pub fn start() -> EventLoopCpu {
        EventLoopCpu(thread_cpu_ms(Self::THREAD).unwrap_or(0.0))
    }

    /// Milliseconds of CPU since [`EventLoopCpu::start`].
    pub fn stop(self) -> f64 {
        (thread_cpu_ms(Self::THREAD).unwrap_or(self.0) - self.0).max(0.0)
    }
}

/// The body the server must answer for `seed`: what `cpgan generate`
/// writes.
fn expected_body(model: &CpGan, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    edge_list(&model.generate(GEN_NODES, GEN_EDGES, &mut rng))
}

/// SplitMix64: spreads request indices over the hit-seed pool.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generation seeds of one run: disjoint per `--seed`, and the miss
/// stream never repeats a seed (including the hit pool's).
struct Seeds {
    base: u64,
    mode: Mode,
}

impl Seeds {
    fn pool(&self, k: u64) -> u64 {
        self.base + k
    }

    /// Seed of request `i` of step `step`. Step 0 of the hit stream is
    /// the warm-up, which asks for each pool seed in turn.
    fn of(&self, step: u64, i: usize) -> u64 {
        match (self.mode, step) {
            (Mode::Miss, _) => self.base + HIT_SEEDS + (step << 24) + i as u64,
            (Mode::Hit, 0) => self.pool(i as u64 % HIT_SEEDS),
            (Mode::Hit, _) => self.pool(mix(self.base ^ i as u64) % HIT_SEEDS),
        }
    }

    /// Which replies to keep for the byte-for-byte check: every 97th, and
    /// for the hit stream the first request of every pool seed.
    fn keep(&self, step: u64) -> Vec<usize> {
        let mut keep = Vec::new();
        if self.mode == Mode::Hit {
            for k in 0..HIT_SEEDS {
                if let Some(i) = (0..1_000_000).find(|&i| self.of(step, i) == self.pool(k)) {
                    keep.push(i);
                }
            }
        }
        keep
    }
}

/// Runs one step of `rate` for `seconds` (and at least `min` requests).
fn step(
    served: &Served,
    seeds: &Seeds,
    index: u64,
    rate: f64,
    seconds: f64,
    min: usize,
    schedule_seed: u64,
) -> Result<StepOutcome, String> {
    let keep = seeds.keep(index);
    loadgen::run_step(
        served.addr(),
        &Step {
            rate,
            duration: Duration::from_secs_f64(seconds),
            min_requests: min,
        },
        schedule_seed,
        &|i| loadgen::request_bytes(GEN_NODES, GEN_EDGES, seeds.of(index, i)),
        &|i| i % BODY_SAMPLE_EVERY == 0 || keep.contains(&i),
    )
    .map_err(|e| e.to_string())
}

/// Counts the step's requests and checks every answer.
fn check_step(rec: &mut Recorder, served: &Served, seeds: &Seeds, index: u64, out: &StepOutcome) {
    let failures = out.failures() + out.transport_errors;
    rec.ops(out.records.len() as u64, failures);
    rec.check(
        "every request answered 200",
        failures == 0,
        format!(
            "{} requests, {} without a 200, {} transport errors",
            out.records.len(),
            out.failures(),
            out.transport_errors
        ),
    );
    // Hit streams repeat 16 seeds: generate each expected body once.
    let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut wrong = Vec::new();
    for (i, body) in &out.bodies {
        let seed = seeds.of(index, *i);
        let want = expected
            .entry(seed)
            .or_insert_with(|| expected_body(&served.model, seed));
        if body != want {
            wrong.push(*i);
        }
    }
    rec.check(
        "sampled bodies equal write_edge_list(generate(seed))",
        !out.bodies.is_empty() && wrong.is_empty(),
        format!(
            "{} compared, mismatched requests {wrong:?}",
            out.bodies.len()
        ),
    );
}

/// Checks the cache behaved as the workload claims. A full-length miss
/// step (at least 1000 bodies of ~22 KB) must also have filled the 16 MiB
/// cache and evicted.
fn check_cache(rec: &mut Recorder, obs: &Obs, mode: Mode, requests: usize, full: bool) {
    let hits = obs.counter("serve.cache.hit");
    let evictions = obs.counter("serve.cache.evict");
    match mode {
        Mode::Miss => rec.check(
            "misses generate, fill the cache and evict",
            hits < 0.5 && (evictions > 0.5 || !full),
            format!("{hits} hits, {evictions} evictions"),
        ),
        Mode::Hit => rec.check(
            "every timed request is a cache hit",
            hits >= requests as f64,
            format!("{hits} hits for {requests} requests"),
        ),
    }
}

/// One serve workload.
pub fn serve(ctx: &Ctx, rec: &mut Recorder, mode: Mode) -> Result<(), String> {
    let seed = ctx.seed;
    let seeds = Seeds {
        base: seed << 32,
        mode,
    };
    let (rate, limit) = match mode {
        Mode::Miss => (MISS_RATE, MISS_LIMIT_MS),
        Mode::Hit => (HIT_RATE, HIT_LIMIT_MS),
    };
    // The server's metrics endpoint needs collection on; `cpgan serve`
    // always enables it, so the measured path includes its cost.
    cpgan_obs::set_enabled(true);
    let served = setup(rec, || {
        // Each set-up starts a fresh report: what remains covers the last
        // server's whole life, as `GET /metrics` would.
        cpgan_obs::reset();
        let served = start(seed)?;
        if mode == Mode::Hit {
            let warm = step(&served, &seeds, 0, 200.0, 0.0, HIT_SEEDS as usize, seed)?;
            if warm.failures() > 0 {
                return Err(format!("{} cache warm-ups failed", warm.failures()));
            }
        }
        Ok(served)
    })?;

    if ctx.trace {
        return traced(ctx, rec, served, &seeds, rate, limit);
    }

    let out = step(
        &served,
        &seeds,
        1,
        rate,
        ctx.seconds,
        MIN_REQUESTS,
        seed ^ 0x51ED,
    )?;
    let obs = Obs::snapshot();
    let p50s = out.window_p50s(WINDOWS);
    rec.set("latency_ms", median(&p50s).unwrap_or(0.0), p50s.len());
    record_peak(rec);
    report_verdict(&out, rate, limit);
    check_step(rec, &served, &seeds, 1, &out);
    check_cache(rec, &obs, mode, out.records.len(), true);
    Ok(())
}

/// Prints the step's verdict against its latency limit. Informational: a
/// shared machine can miss a tail limit without anything being wrong.
fn report_verdict(out: &StepOutcome, rate: f64, limit: f64) {
    let verdict = loadgen::judge(
        &out.all_latencies(),
        &out.late(),
        out.backlog_at_stop,
        rate,
        limit,
    );
    eprintln!("step at {rate} req/s against a {limit} ms limit: {verdict:?}");
}

fn traced(
    ctx: &Ctx,
    rec: &mut Recorder,
    served: Served,
    seeds: &Seeds,
    rate: f64,
    limit: f64,
) -> Result<(), String> {
    let seed = ctx.seed;
    let window = ctx.seconds / 3.0;
    let min = MIN_REQUESTS / 4;
    // The same load with collection off, on, and off again: the
    // enabled-mode obs cost against the mean of the steps around it.
    cpgan_obs::set_enabled(false);
    let before = step(&served, seeds, 1, rate, window, min, seed ^ 0xA)?;
    cpgan_obs::set_enabled(true);
    cpgan_nn::memory::reset_peak();
    let cpu = EventLoopCpu::start();
    let out = step(&served, seeds, 2, rate, window, min, seed ^ 0xB)?;
    let cpu_ms = cpu.stop();
    let obs = Obs::snapshot();
    let nn_peak = cpgan_nn::memory::peak_bytes();
    cpgan_obs::set_enabled(false);
    let after = step(&served, seeds, 4, rate, window, min, seed ^ 0xC)?;
    let p50 = |o: &StepOutcome| median(&o.window_p50s(WINDOWS)).unwrap_or(0.0);
    rec.set(
        "trace.overhead_pct",
        (2.0 * p50(&out) / (p50(&before) + p50(&after)) - 1.0) * 100.0,
        out.records.len(),
    );
    rec.set("nn.peak_mib", nn_peak as f64 / (1 << 20) as f64, 1);
    trace::record_serve(rec, &obs, &out, cpu_ms);
    trace::record_buffer_pool(rec, &obs);
    report_verdict(&out, rate, limit);
    for (index, o) in [(1, &before), (2, &out), (4, &after)] {
        check_step(rec, &served, seeds, index, o);
    }
    check_cache(rec, &obs, seeds.mode, out.records.len(), false);

    let Served {
        server,
        model,
        graph,
        build_ms,
    } = served;
    drop(server);
    trace::obs_off();

    // Served generations at the default thread count and at one thread,
    // alternated; a single one lasts milliseconds, so take medians.
    let gen_seed = seeds.of(3, 0);
    let (mut t_plain, mut t_serial) = (Vec::new(), Vec::new());
    let mut identical = true;
    for _ in 0..SPEEDUP_REPS {
        let (plain, t) = timed(|| expected_body(&model, gen_seed));
        t_plain.push(t);
        let (serial, t) =
            cpgan_parallel::with_thread_count(1, || timed(|| expected_body(&model, gen_seed)));
        t_serial.push(t);
        identical &= plain == serial;
    }
    rec.check(
        "serve: 1-thread generation bit-identical to the default",
        identical,
        format!("{SPEEDUP_REPS} generations each"),
    );
    rec.set(
        "parallel.speedup",
        median(&t_serial).unwrap_or(0.0) / median(&t_plain).unwrap_or(1.0),
        SPEEDUP_REPS,
    );

    // The shard layer runs on a graph the served model generated, four
    // times the request size so it splits into several shards.
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let generated = model.generate(4 * GEN_NODES, 4 * GEN_EDGES, &mut rng);
    let shapes = Shapes {
        cfg: model_config(seed),
        input: &generated,
        train: &graph,
        gen: (GEN_NODES, GEN_EDGES),
    };
    trace::layers(rec, &shapes, seed, build_ms)?;
    trace::shard_probe(rec, &generated, seed)
}
