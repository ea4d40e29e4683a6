//! Connection-layer tests: keep-alive reuse, pipelining, slow-header
//! (slowloris) deadlines, idle closes, oversized bodies, large
//! `content-length`-framed bodies, and cache hit == miss byte-equality
//! across connection modes.

#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{generate_request, registry_for, small_graph, temp_model_path, Client};
use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::io as graph_io;
use cpgan_serve::http::MAX_BODY_BYTES;
use cpgan_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn trained_model_path(tag: &str) -> PathBuf {
    let g = small_graph();
    let mut model = CpGan::new(CpGanConfig {
        epochs: 4,
        sample_size: 36,
        ..CpGanConfig::tiny()
    });
    model.fit(&g);
    temp_model_path(tag, &model)
}

fn cli_bytes(path: &std::path::Path, n: usize, m: usize, seed: u64) -> Vec<u8> {
    let model = CpGan::load(path).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    graph_io::write_edge_list(&model.generate(n, m, &mut rng), &mut out).unwrap();
    out
}

#[test]
fn one_connection_serves_many_sequential_requests() {
    let path = trained_model_path("ka_sequential");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    let model = CpGan::load(&path).unwrap();
    let (n, m) = model.trained_shape().unwrap();

    let mut client = Client::connect(server.addr());
    for seed in [3u64, 4, 5, 3] {
        client.post_generate(&format!(r#"{{"seed":{seed}}}"#));
        let reply = client.read_reply();
        assert_eq!(reply.status, 200, "seed {seed}");
        assert_eq!(
            reply.header("connection"),
            Some("keep-alive"),
            "successful exchanges must keep the connection"
        );
        assert_eq!(
            reply.body,
            cli_bytes(&path, n, m, seed),
            "seed {seed} bytes"
        );
    }
    // A GET on the same socket still works after generations.
    client.get("/healthz");
    assert_eq!(client.read_reply().status, 200);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipelined_requests_on_one_socket_answer_in_order() {
    let path = trained_model_path("ka_pipeline");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    let model = CpGan::load(&path).unwrap();
    let (n, m) = model.trained_shape().unwrap();

    // All four requests in one write before reading anything: three
    // generations with distinct seeds (mixing cache misses and, for the
    // repeated seed, a hit) plus a health check. Responses must come
    // back complete and strictly in request order.
    let mut wire = String::new();
    for seed in [11u64, 12, 11] {
        wire.push_str(&generate_request(&format!(r#"{{"seed":{seed}}}"#), true));
    }
    wire.push_str("GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");

    let mut client = Client::connect(server.addr());
    client.send_raw(wire.as_bytes());
    for seed in [11u64, 12, 11] {
        let reply = client.read_reply();
        assert_eq!(reply.status, 200, "seed {seed}");
        assert_eq!(
            reply.body,
            cli_bytes(&path, n, m, seed),
            "pipelined replies must arrive in request order (seed {seed})"
        );
    }
    let reply = client.read_reply();
    assert_eq!(reply.status, 200);
    assert!(String::from_utf8(reply.body)
        .unwrap()
        .contains("\"status\":\"ok\""));

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn slow_header_connection_is_408d_at_the_deadline() {
    let path = trained_model_path("ka_slowloris");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            deadline_ms: 200,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    // Send a partial request head and then stall — a slowloris. The
    // event loop must answer 408 and close at the deadline, freeing the
    // connection slot, without any worker ever being involved.
    let mut client = Client::connect(server.addr());
    client.send_raw(b"POST /v1/generate HTTP/1.1\r\nhost: t\r\n");
    let reply = client.read_reply();
    assert_eq!(reply.status, 408, "slow header must time out");
    assert_eq!(reply.header("connection"), Some("close"));
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn idle_keep_alive_connection_is_closed_silently() {
    let path = trained_model_path("ka_idle");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            idle_ms: 150,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    // A connection that completed a request and then goes quiet is
    // closed after the idle cutoff — silently, because an idle close is
    // keep-alive hygiene, not a request error.
    let mut client = Client::connect(server.addr());
    client.get("/healthz");
    assert_eq!(client.read_reply().status, 200);
    client.expect_silent_close();

    // Same for a connection that never sends anything at all.
    let mut mute = Client::connect(server.addr());
    mute.expect_silent_close();

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let path = trained_model_path("ka_payload");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    // The limit is enforced from the declared length at head-parse time:
    // no body bytes need to arrive (or be buffered) to reject.
    let mut client = Client::connect(server.addr());
    client.send_raw(
        format!(
            "POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    );
    let reply = client.read_reply();
    assert_eq!(reply.status, 413);
    assert_eq!(reply.header("connection"), Some("close"));
    let body = String::from_utf8(reply.body).unwrap();
    assert!(body.contains("\"code\":\"payload_too_large\""), "{body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_hit_equals_miss_byte_for_byte_across_connection_modes() {
    cpgan_obs::set_enabled(true);
    let path = trained_model_path("ka_cache");
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

    let model = CpGan::load(&path).unwrap();
    let (n, m) = model.trained_shape().unwrap();
    let expected = cli_bytes(&path, n, m, 21);
    let body = r#"{"seed":21}"#;

    // Miss (close mode), then hit (close mode), then hits (keep-alive):
    // every response must be byte-identical to the CLI regardless of
    // cache state or connection mode.
    let miss = common::post_generate(addr, body);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.body, expected, "cold (miss) response");

    let hit_close = common::post_generate(addr, body);
    assert_eq!(hit_close.status, 200);
    assert_eq!(hit_close.body, expected, "cache hit over connection: close");

    let mut keep = Client::connect(addr);
    for round in 0..2 {
        keep.post_generate(body);
        let reply = keep.read_reply();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, expected, "cache hit over keep-alive ({round})");
    }

    // The metrics endpoint must show the cache actually worked: one
    // miss, several hits.
    let metrics = common::get(addr, "/metrics");
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("\"serve.cache.hit\":"), "{text}");
    assert!(text.contains("\"serve.cache.miss\":"), "{text}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn large_bodies_are_content_length_framed_and_match_the_cli() {
    let path = temp_model_path("ka_large", &CpGan::new(CpGanConfig::tiny()));
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            deadline_ms: 60_000,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();

    // ~10k edges serialize past 64 KiB, several socket buffers' worth.
    let (n, m, seed) = (3000usize, 10_000usize, 2u64);
    let expected = cli_bytes(&path, n, m, seed);
    assert!(expected.len() >= 64 * 1024, "fixture must be a large body");
    let content_length = expected.len().to_string();

    let mut client = Client::connect(server.addr());
    for round in 0..2 {
        // Round 0 exercises the worker (miss), round 1 the cached body:
        // both are framed by content-length and carry identical bytes.
        client.post_generate(&format!(r#"{{"nodes":{n},"edges":{m},"seed":{seed}}}"#));
        let reply = client.read_reply();
        assert_eq!(reply.status, 200, "round {round}");
        assert_eq!(
            reply.header("content-length"),
            Some(content_length.as_str()),
            "round {round}"
        );
        assert!(reply.header("transfer-encoding").is_none(), "round {round}");
        assert_eq!(reply.body, expected, "round {round}");
    }

    // An HTTP/1.0 client gets the same framing and the same bytes.
    let mut old = Client::connect(server.addr());
    let body = format!(r#"{{"nodes":{n},"edges":{m},"seed":{seed}}}"#);
    old.send_raw(
        format!(
            "POST /v1/generate HTTP/1.0\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let reply = old.read_reply();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-length"),
        Some(content_length.as_str())
    );
    assert!(reply.header("transfer-encoding").is_none());
    assert_eq!(
        reply.body, expected,
        "HTTP/1.0 framing must not alter bytes"
    );

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn connection_limit_turns_new_sockets_away_with_503() {
    let path = trained_model_path("ka_maxconns");
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            max_conns: 2,
            idle_ms: 10_000,
            ..ServeConfig::default()
        },
        registry_for(&path),
    )
    .unwrap();
    let addr = server.addr();

    // Two parked keep-alive connections occupy the limit...
    let mut a = Client::connect(addr);
    a.get("/healthz");
    assert_eq!(a.read_reply().status, 200);
    let mut b = Client::connect(addr);
    b.get("/healthz");
    assert_eq!(b.read_reply().status, 200);

    // ...so a third is turned away with 503 over_capacity.
    let mut c = Client::connect(addr);
    c.get("/healthz");
    let reply = c.read_reply();
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("retry-after"), Some("1"));
    let text = String::from_utf8(reply.body).unwrap();
    assert!(text.contains("\"code\":\"over_capacity\""), "{text}");

    // Parked connections still work fine.
    a.get("/healthz");
    assert_eq!(a.read_reply().status, 200);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
