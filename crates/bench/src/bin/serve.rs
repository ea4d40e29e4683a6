//! Closed-loop load generator for `cpgan-serve`, written to
//! `results/BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p bench --bin serve [-- --fast]
//!         [--assert-min-rps R] [--assert-max-p99-ms X]
//!         [--assert-min-cached-over-cold R]`
//!
//! A tiny model is fitted in-process and served on a loopback port;
//! closed-loop clients then hammer `POST /v1/generate` with framed reads
//! (`cpgan_serve::http::parse_reply`), reporting throughput and
//! p50/p95/p99 latency per scenario:
//!
//! - `close_c4`: connection-per-request, the PR-5 front-end shape.
//! - `keepalive_c4_cold`: same load over persistent connections.
//! - `keepalive_c128_cold`: 128 keep-alive clients, unique seeds, cache
//!   disabled — generation-bound throughput.
//! - `keepalive_c128_cached`: 128 keep-alive clients drawing from a
//!   16-seed pool with the cache on — connection-layer-bound throughput.
//! - `backpressure_c4`: 1 worker, queue depth 1 — the 429 fast-reject
//!   path (rejects close the connection, so clients also measure
//!   reconnect cost).
//!
//! Clients run on the deterministic pool via `par_map_owned`; `--fast`
//! shrinks the windows for CI smoke runs. The `--assert-*` flags gate CI
//! on the `keepalive_c128_cached` scenario (exit 1 on violation) after
//! the report is written, so the artifact survives a failed gate.

use bench::{fail, time, Bench};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::Graph;
use cpgan_parallel::{with_thread_count, Pool};
use cpgan_serve::http::parse_reply;
use cpgan_serve::{ModelRegistry, ServeConfig, Server};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Server worker count shared by every scenario except backpressure.
const WORKERS: usize = 2;
/// Requested graph shape: big enough that a cold generation costs
/// milliseconds (so cache hits are measurably cheaper), small enough
/// that the body stays in content-length framing territory.
const GEN_NODES: usize = 1200;
const GEN_EDGES: usize = 2400;
/// Seed pool for the cached scenario: every request after warm-up hits.
const SEED_POOL: u64 = 16;
/// The connection-per-request throughput recorded by the PR-5 bench on
/// the reference box; kept in the report so the keep-alive ratio is
/// visible without digging through git history.
const PR5_CLOSE_RPS: f64 = 450.0;

/// The 3-community fixture graph used across the test suite.
fn bench_graph() -> Graph {
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
    Graph::from_edges(36, edges).unwrap_or_else(|e| fail(&format!("bench graph: {e}")))
}

/// How a client picks seeds and treats connections.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Fresh connection per request, unique seeds (the PR-5 shape).
    Close,
    /// Persistent connection, unique seeds (every request generates).
    ColdKeepAlive,
    /// Persistent connection, seeds drawn from a small pool (cache hits).
    CachedKeepAlive,
}

/// A load client: one socket reused across requests in keep-alive
/// modes, with framed reads so replies are delimited by HTTP framing,
/// never by connection close.
struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    close_mode: bool,
}

impl HttpClient {
    fn new(addr: SocketAddr, close_mode: bool) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            buf: Vec::new(),
            close_mode,
        }
    }

    /// One request round-trip: returns (status, seconds). Transport
    /// failures surface as `Err` and drop the connection.
    fn request(&mut self, seed: u64) -> Result<(u16, f64), std::io::Error> {
        let start = Instant::now();
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let conn = if self.close_mode {
            "connection: close\r\n"
        } else {
            ""
        };
        let body = format!("{{\"nodes\":{GEN_NODES},\"edges\":{GEN_EDGES},\"seed\":{seed}}}");
        let wire = format!(
            "POST /v1/generate HTTP/1.1\r\nhost: b\r\n{conn}content-length: {}\r\n\r\n{body}",
            body.len()
        );
        let result = self.exchange(wire.as_bytes());
        if result.is_err() {
            self.stream = None;
        }
        let (status, keep) = result?;
        // The server closes after close-mode and non-200 replies; honor
        // that instead of writing into a dead socket next round.
        if self.close_mode || !keep {
            self.stream = None;
        }
        Ok((status, start.elapsed().as_secs_f64()))
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<(u16, bool), std::io::Error> {
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => return Err(std::io::Error::other("no connection")),
        };
        stream.write_all(wire)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf)
                .map_err(|e| std::io::Error::other(format!("bad reply: {e}")))?
            {
                self.buf.drain(..used);
                let keep = reply.header("connection") != Some("close");
                return Ok((reply.status, keep));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::other("closed mid-reply"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Outcome counts and success latencies for one client's closed loop.
#[derive(Default)]
struct ClientStats {
    ok: u64,
    rejected: u64,
    timed_out: u64,
    errors: u64,
    latencies_s: Vec<f64>,
}

/// Issues requests back-to-back until the window closes.
fn run_client(addr: SocketAddr, client: usize, mode: Mode, window: Duration) -> ClientStats {
    let mut http = HttpClient::new(addr, mode == Mode::Close);
    let mut stats = ClientStats::default();
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < window {
        let seed = match mode {
            Mode::CachedKeepAlive => req % SEED_POOL,
            _ => client as u64 * 10_000_000 + req,
        };
        req += 1;
        match http.request(seed) {
            Ok((200, s)) => {
                stats.ok += 1;
                stats.latencies_s.push(s);
            }
            Ok((429, _)) => stats.rejected += 1,
            Ok((408, _)) => stats.timed_out += 1,
            Ok(_) | Err(_) => stats.errors += 1,
        }
    }
    stats
}

/// Linear-scan percentile over an already-sorted slice (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Serialize)]
struct ScenarioRow {
    name: &'static str,
    clients: usize,
    workers: usize,
    queue_depth: usize,
    cache: bool,
    duration_s: f64,
    requests: u64,
    ok: u64,
    rejected: u64,
    timed_out: u64,
    errors: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    rejection_rate: f64,
}

struct Scenario {
    name: &'static str,
    clients: usize,
    workers: usize,
    queue_depth: usize,
    cache_bytes: usize,
    mode: Mode,
}

/// Boots a fresh server, runs `clients` closed loops against it, and
/// aggregates the outcome.
fn run_scenario(sc: &Scenario, model: &CpGan, window: Duration) -> ScenarioRow {
    let mut registry = ModelRegistry::new();
    let copy = CpGan::from_snapshot(model.snapshot())
        .unwrap_or_else(|e| fail(&format!("model snapshot round-trip: {e}")));
    registry
        .insert("bench", copy)
        .unwrap_or_else(|e| fail(&format!("registry: {e}")));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: sc.workers,
            queue_depth: sc.queue_depth,
            // Generous: closed-loop clients queue at most one request
            // each, so waits stay bounded and 408s would only mean the
            // box is pathologically slow.
            deadline_ms: 30_000,
            cache_bytes: sc.cache_bytes,
            // Keep each generation serial: the pool threads are the
            // *clients* here, and client concurrency is what is measured.
            gen_threads: Some(1),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.addr();

    if sc.mode == Mode::CachedKeepAlive {
        // Warm every pool seed once so the window measures pure hits.
        let mut warm = HttpClient::new(addr, false);
        for seed in 0..SEED_POOL {
            if let Err(e) = warm.request(seed) {
                fail(&format!("cache warm-up failed: {e}"));
            }
        }
    }

    let clients = sc.clients;
    let mode = sc.mode;
    let (per_client, duration_s) = time(|| {
        with_thread_count(clients, || {
            Pool::global().par_map_owned((0..clients).collect(), move |_, c| {
                run_client(addr, c, mode, window)
            })
        })
    });
    server.shutdown();

    let mut all = ClientStats::default();
    for s in per_client {
        all.ok += s.ok;
        all.rejected += s.rejected;
        all.timed_out += s.timed_out;
        all.errors += s.errors;
        all.latencies_s.extend(s.latencies_s);
    }
    all.latencies_s.sort_unstable_by(f64::total_cmp);
    let requests = all.ok + all.rejected + all.timed_out + all.errors;
    ScenarioRow {
        name: sc.name,
        clients: sc.clients,
        workers: sc.workers,
        queue_depth: sc.queue_depth,
        cache: sc.cache_bytes > 0,
        duration_s,
        requests,
        ok: all.ok,
        rejected: all.rejected,
        timed_out: all.timed_out,
        errors: all.errors,
        throughput_rps: all.ok as f64 / duration_s.max(1e-9),
        p50_ms: percentile(&all.latencies_s, 0.50) * 1e3,
        p95_ms: percentile(&all.latencies_s, 0.95) * 1e3,
        p99_ms: percentile(&all.latencies_s, 0.99) * 1e3,
        rejection_rate: all.rejected as f64 / (requests.max(1)) as f64,
    }
}

const CACHE_16_MIB: usize = 16 * 1024 * 1024;

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "close_c4",
        clients: 4,
        workers: WORKERS,
        queue_depth: 16,
        cache_bytes: 0,
        mode: Mode::Close,
    },
    Scenario {
        name: "keepalive_c4_cold",
        clients: 4,
        workers: WORKERS,
        queue_depth: 16,
        cache_bytes: 0,
        mode: Mode::ColdKeepAlive,
    },
    Scenario {
        name: "keepalive_c128_cold",
        clients: 128,
        workers: WORKERS,
        queue_depth: 256,
        cache_bytes: 0,
        mode: Mode::ColdKeepAlive,
    },
    Scenario {
        name: "keepalive_c128_cached",
        clients: 128,
        workers: WORKERS,
        queue_depth: 256,
        cache_bytes: CACHE_16_MIB,
        mode: Mode::CachedKeepAlive,
    },
    Scenario {
        name: "backpressure_c4",
        clients: 4,
        workers: 1,
        queue_depth: 1,
        cache_bytes: 0,
        mode: Mode::ColdKeepAlive,
    },
];

#[derive(Serialize)]
struct Report {
    fast: bool,
    gen_nodes: usize,
    gen_edges: usize,
    baseline_pr5_close_rps: f64,
    cached_over_cold: f64,
    keepalive_over_close: f64,
    keepalive_over_pr5_baseline: f64,
    scenarios: Vec<ScenarioRow>,
}

fn main() {
    let mut bench = Bench::fixed(
        "serve",
        WORKERS,
        &[
            "assert-min-rps",
            "assert-max-p99-ms",
            "assert-min-cached-over-cold",
        ],
        &["fast"],
    );
    let fast = bench.args().switch("fast");
    let window = if fast {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(2_000)
    };

    eprintln!("fitting bench model...");
    let g = bench_graph();
    let mut model = CpGan::new(CpGanConfig {
        epochs: 6,
        sample_size: 36,
        ..CpGanConfig::tiny()
    });
    model.fit(&g);

    let mut rows = Vec::new();
    for sc in SCENARIOS {
        eprintln!(
            "scenario {}: {} client(s), {} worker(s), queue {}, cache {}...",
            sc.name,
            sc.clients,
            sc.workers,
            sc.queue_depth,
            if sc.cache_bytes > 0 { "on" } else { "off" }
        );
        let row = run_scenario(sc, &model, window);
        eprintln!(
            "  {} req in {:.2}s: {:.0} rps, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms, \
             rejected {:.1}%, errors {}",
            row.requests,
            row.duration_s,
            row.throughput_rps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.rejection_rate * 100.0,
            row.errors,
        );
        rows.push(row);
    }

    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let rps_of = |name: &str| row(name).map_or(0.0, |r| r.throughput_rps);
    let close_rps = rps_of("close_c4");
    let cold_rps = rps_of("keepalive_c128_cold");
    let cached_rps = rps_of("keepalive_c128_cached");
    let cached_p99_ms = row("keepalive_c128_cached").map_or(f64::INFINITY, |r| r.p99_ms);
    let cached_over_cold = cached_rps / cold_rps.max(1e-9);
    let keepalive_over_close = cached_rps / close_rps.max(1e-9);
    let keepalive_over_pr5 = cached_rps / PR5_CLOSE_RPS;
    eprintln!(
        "ratios: cached/cold {cached_over_cold:.1}x, keepalive/close {keepalive_over_close:.1}x, \
         vs PR-5 baseline {keepalive_over_pr5:.1}x"
    );
    bench.gate("assert-min-rps", "keepalive_c128_cached rps", cached_rps);
    bench.gate(
        "assert-max-p99-ms",
        "keepalive_c128_cached p99 ms",
        cached_p99_ms,
    );
    bench.gate(
        "assert-min-cached-over-cold",
        "cached/cold rps ratio",
        cached_over_cold,
    );
    bench.finish(&Report {
        fast,
        gen_nodes: GEN_NODES,
        gen_edges: GEN_EDGES,
        baseline_pr5_close_rps: PR5_CLOSE_RPS,
        cached_over_cold,
        keepalive_over_close,
        keepalive_over_pr5_baseline: keepalive_over_pr5,
        scenarios: rows,
    });
}
