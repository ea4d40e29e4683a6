//! End-to-end serving tests over real TCP sockets: the determinism
//! contract (served bytes == CLI bytes, cached or not), the robustness
//! taxonomy (400/404/405/408/429), requests that must not abort the
//! process, and graceful drain without sleep-polling.

// Integration-test helpers sit outside `#[test]` fns, so the
// `allow-panic-in-tests` carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{get, post_generate, registry_for, small_graph, temp_model_path, Client};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::io as graph_io;
use cpgan_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::Duration;

// ----------------------------------------------------------- determinism

#[test]
fn served_generation_is_byte_identical_to_cli_generation() {
    // Fit a tiny model exactly once, the way `cpgan fit` would.
    let g = small_graph();
    let mut model = CpGan::new(CpGanConfig {
        epochs: 6,
        sample_size: 36,
        ..CpGanConfig::tiny()
    });
    model.fit(&g);
    let path = temp_model_path("e2e_trained", &model);

    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // What `cpgan generate --model <path> --output out.txt --seed 3` does:
    // load the snapshot, default (n, m) to the trained shape, seed the
    // rng, generate, write the edge list.
    let cli_model = CpGan::load(&path).unwrap();
    let (n, m) = cli_model.trained_shape().expect("model is trained");
    let mut rng = StdRng::seed_from_u64(3);
    let cli_graph = cli_model.generate(n, m, &mut rng);
    let out_path = std::env::temp_dir().join("cpgan_serve_tests/e2e_cli_out.txt");
    graph_io::save(&cli_graph, &out_path).unwrap();
    let cli_bytes = std::fs::read(&out_path).unwrap();

    // Served generation with the same model and seed, twice: round 0 is
    // a cache miss (a worker generates), round 1 a cache hit (answered
    // inline from the seed-keyed cache) — both must equal the CLI bytes.
    for round in 0..2 {
        let reply = post_generate(addr, r#"{"seed":3}"#);
        assert_eq!(reply.status, 200, "round {round}");
        assert_eq!(
            reply.body, cli_bytes,
            "served edge list must be byte-identical to the CLI's (round {round})"
        );
    }

    // Defaults mirror the CLI too: an empty body is seed 7 + trained
    // shape, and because keys canonicalize *after* defaulting, the
    // explicit spelling of the defaults shares the same cache entry.
    let mut rng7 = StdRng::seed_from_u64(7);
    let mut default_bytes = Vec::new();
    graph_io::write_edge_list(&cli_model.generate(n, m, &mut rng7), &mut default_bytes).unwrap();
    let reply = post_generate(addr, "");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body, default_bytes,
        "empty body must equal CLI defaults"
    );
    let reply = post_generate(addr, &format!(r#"{{"nodes":{n},"edges":{m},"seed":7}}"#));
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body, default_bytes,
        "explicit defaults must hit the same entry"
    );

    server.shutdown();
    std::fs::remove_file(&out_path).ok();
    std::fs::remove_file(&path).ok();
}

// ------------------------------------------------------------ robustness

#[test]
fn malformed_and_misrouted_requests_map_to_the_error_taxonomy() {
    let path = temp_model_path("robust_untrained", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // Malformed JSON body -> 400 bad_request.
    let reply = post_generate(addr, "definitely not json");
    assert_eq!(reply.status, 400);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");

    // Unknown field -> 400 naming the field.
    let reply = post_generate(addr, r#"{"sede":3}"#);
    assert_eq!(reply.status, 400);
    assert!(String::from_utf8(reply.body).unwrap().contains("sede"));

    // Untrained model without explicit nodes/edges -> 400.
    let reply = post_generate(addr, r#"{"seed":1}"#);
    assert_eq!(reply.status, 400);
    assert!(String::from_utf8(reply.body).unwrap().contains("untrained"));

    // Unknown model -> 404 unknown_model.
    let reply = post_generate(addr, r#"{"model":"nope","nodes":10,"edges":10}"#);
    assert_eq!(reply.status, 404);
    assert!(String::from_utf8(reply.body)
        .unwrap()
        .contains("\"code\":\"unknown_model\""));

    // Unknown route -> 404; known route with wrong method -> 405.
    assert_eq!(get(addr, "/v2/whatever").status, 404);
    assert_eq!(get(addr, "/v1/generate").status, 405);
    let reply = common::exchange(addr, b"DELETE /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(reply.status, 405);

    // Broken HTTP framing -> 400.
    let reply = common::exchange(addr, b"NOT-HTTP\r\n\r\n");
    assert_eq!(reply.status, 400);

    // Error responses close the connection (framing is unrecoverable).
    assert_eq!(
        reply.header("connection"),
        Some("close"),
        "errors must advertise close"
    );

    // An untrained model *with* explicit shape serves 200 (control).
    let reply = post_generate(addr, r#"{"nodes":24,"edges":40,"seed":1}"#);
    assert_eq!(reply.status, 200);
    let text = String::from_utf8(reply.body).unwrap();
    assert!(text.starts_with("# nodes: 24\n"), "{text}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn requests_that_once_aborted_the_server_get_400_and_it_stays_up() {
    let path = temp_model_path("abort_requests", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // An edge count whose assembler reservation would be a 154.6 GB
    // allocation, and 64 KiB of `[` that would overflow the event
    // thread's stack in the JSON parser: both are typed 400s now.
    let bodies = [
        (
            r#"{"nodes":100000,"edges":18446744073709551615}"#.to_string(),
            "'edges' must be at most",
        ),
        ("[".repeat(64 * 1024), "recursion limit exceeded"),
    ];
    for (body, needle) in &bodies {
        let reply = post_generate(addr, body);
        assert_eq!(reply.status, 400, "{needle}");
        let text = String::from_utf8(reply.body).unwrap();
        assert!(text.contains("\"code\":\"bad_request\""), "{text}");
        assert!(text.contains(needle), "{text}");
        assert_eq!(get(addr, "/healthz").status, 200, "after {needle}");
    }

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_queue_rejects_with_429_and_retry_after() {
    let path = temp_model_path("backpressure", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 2,
            deadline_ms: 60_000,
            gen_threads: Some(1),
            cache_bytes: 0, // force every request through the queue
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // Eight generations, each expensive enough (~100ms+ even in release)
    // that the single worker cannot drain the 2-deep queue while the
    // batch is being submitted — submissions take microseconds, so the
    // overflow *must* be rejected instantly with 429.
    let mut clients = Vec::new();
    for seed in 0..8 {
        let mut client = Client::connect(addr);
        client.post_generate(&format!(r#"{{"nodes":10000,"edges":20000,"seed":{seed}}}"#));
        clients.push(client);
    }

    let mut ok = 0;
    let mut rejected = 0;
    for (i, client) in clients.iter_mut().enumerate() {
        let reply = client.read_reply();
        match reply.status {
            200 => ok += 1,
            429 => {
                rejected += 1;
                assert_eq!(
                    reply.header("retry-after"),
                    Some("1"),
                    "429 must carry Retry-After"
                );
                let body = String::from_utf8(reply.body).unwrap();
                assert!(body.contains("\"code\":\"queue_full\""), "{body}");
            }
            other => panic!("client {i}: unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "the admitted head of the burst must be served");
    assert!(
        rejected >= 1,
        "overflow beyond worker+queue must shed as 429 ({ok} ok)"
    );
    assert_eq!(ok + rejected, 8);

    // And the server is healthy again afterwards.
    let reply = post_generate(addr, r#"{"nodes":16,"edges":20,"seed":2}"#);
    assert_eq!(reply.status, 200);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A generation request for `model` that takes at least `min_ms` in this
/// build on this host: its node count and the milliseconds it took.
fn slow_generation(model: &CpGan, min_ms: u64) -> (usize, u64) {
    let mut nodes = 16_000;
    loop {
        let sw = cpgan_obs::Stopwatch::start();
        model.generate(nodes, 2 * nodes, &mut StdRng::seed_from_u64(1));
        let ms = sw.elapsed_ns() / 1_000_000;
        if ms >= min_ms || nodes >= 1 << 20 {
            return (nodes, ms);
        }
        nodes *= 2;
    }
}

#[test]
fn queue_wait_past_deadline_answers_408_without_generating() {
    // The deadline is a quarter of a generation timed here, so the
    // outcome does not depend on how fast this build generates: the
    // in-flight request is popped far inside its deadline, and the one
    // queued behind it waits about four deadlines.
    let model = CpGan::new(CpGanConfig::tiny());
    let (nodes, gen_ms) = slow_generation(&model, 400);
    let path = temp_model_path("queue_deadline", &model);
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 8,
            deadline_ms: gen_ms / 4,
            gen_threads: Some(1),
            cache_bytes: 0,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();
    let generate = |seed: u64| {
        let body = format!(r#"{{"nodes":{nodes},"edges":{},"seed":{seed}}}"#, 2 * nodes);
        common::generate_request(&body, true)
    };

    // One write carries a health check and, pipelined behind it, the
    // first generation. The event loop answers the health check and
    // admits the generation in the same pass over this connection, so
    // once the health reply is here the first request is ahead of any
    // request sent afterwards; the sole worker takes it at once.
    let mut first = Client::connect(addr);
    first.send_raw(format!("GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n{}", generate(1)).as_bytes());
    assert_eq!(first.read_reply().status, 200);
    // The second request is admitted behind it and must come back 408
    // once the worker reaches it — generation never starts for a request
    // that has already missed its deadline.
    let mut second = Client::connect(addr);
    second.send_raw(generate(2).as_bytes());

    let reply = second.read_reply();
    assert_eq!(reply.status, 408, "queued-past-deadline request must 408");
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");

    // The in-flight request itself still completes (deadlines are
    // enforced at stage boundaries, never mid-generation).
    assert_eq!(first.read_reply().status, 200);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn graceful_drain_answers_everything_already_admitted() {
    let path = temp_model_path("drain", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 8,
            deadline_ms: 60_000,
            gen_threads: Some(1),
            cache_bytes: 0,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // Expected bytes for the queued request, computed independently.
    let model = CpGan::load(&path).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut expected = Vec::new();
    graph_io::write_edge_list(&model.generate(20, 30, &mut rng), &mut expected).unwrap();

    // Pin the worker with an expensive generation, then queue a cheap
    // request behind it.
    let mut slow = Client::connect(addr);
    slow.post_generate(r#"{"nodes":16000,"edges":32000,"seed":9}"#);
    std::thread::sleep(Duration::from_millis(40));
    let mut queued = Client::connect(addr);
    queued.post_generate(r#"{"nodes":20,"edges":30,"seed":5}"#);
    std::thread::sleep(Duration::from_millis(40));

    // Begin shutdown while both requests are genuinely in flight; it
    // must block until they are answered, not cut them off.
    let drainer = std::thread::spawn(move || {
        server.shutdown();
    });

    let reply = slow.read_reply();
    assert_eq!(reply.status, 200, "in-flight request must finish, not drop");
    let reply = queued.read_reply();
    assert_eq!(
        reply.status, 200,
        "queued request must be served, not dropped"
    );
    assert_eq!(reply.body, expected, "drained response must still be exact");
    drainer.join().expect("shutdown thread must not panic");

    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "post-shutdown connections must be refused"
    );
    std::fs::remove_file(&path).ok();
}

/// The shutdown path (and everything else in the serving layer) must be
/// wakeup-driven: no `thread::sleep` poll loops, no short
/// `set_read_timeout` dances anywhere in `crates/serve/src`.
#[test]
fn no_sleep_polling_anywhere_in_the_serving_layer() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in ["thread::sleep", "set_read_timeout"] {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}` — the serving layer must be \
                 wakeup-driven (poller notify / condvar), never sleep-polled",
                path.display()
            );
        }
    }
}

// ------------------------------------------------------------ endpoints

#[test]
fn models_healthz_and_metrics_endpoints() {
    cpgan_obs::set_enabled(true);
    let path = temp_model_path("endpoints", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 4,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    let reply = get(addr, "/healthz");
    assert_eq!(reply.status, 200);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"workers\":2"), "{body}");
    assert!(body.contains("\"queue_capacity\":4"), "{body}");
    assert!(body.contains("\"cache_entries\":"), "{body}");

    let reply = get(addr, "/v1/models");
    assert_eq!(reply.status, 200);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"name\":\"endpoints\""), "{body}");
    assert!(body.contains("\"trained_nodes\":null"), "{body}");

    let reply = get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.starts_with("{\"spans\":{"), "{body}");
    assert!(body.contains("\"serve.accepted\":"), "{body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
