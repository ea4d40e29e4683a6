//! Deterministic fuzz loops over the network-facing parsers:
//! `http::parse_request`, `http::parse_reply`,
//! `GenerateRequest::from_body` and `serde_json::parse_value`. Inputs are
//! random bytes, mutated valid messages and deep nesting; every call must
//! return `Ok` or a typed error, never panic. The loops run on the
//! proptest shim, so a failing case reproduces from its index. Inputs
//! that once crashed a parser are pinned as fixed cases at the end.

#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_serve::http::{encode_head, parse_reply, parse_request, Response, MAX_BODY_BYTES};
use cpgan_serve::{GenerateRequest, ServeError, MAX_EDGES, MAX_NODES};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Bytes that steer a parser into its branches more often than uniform
/// bytes would.
const INTERESTING: &[u8] = b"\r\n\r\n:: 0123456789-+.eE{}[],\"\\/aHTP";

/// A byte: uniform half the time, else one of [`INTERESTING`].
fn byte() -> impl Strategy<Value = u8> {
    (0u16..512).prop_map(|x| match u8::try_from(x) {
        Ok(b) => b,
        Err(_) => INTERESTING[usize::from(x) % INTERESTING.len()],
    })
}

fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(byte(), 0..max_len)
}

/// Up to eight edits: `(position, kind, byte)`, kind 0 overwrites, 1
/// inserts, 2 deletes, 3 truncates.
fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    vec((0usize..4096, 0u8..4, byte()), 0..8)
}

fn mutate(base: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut out = base.to_vec();
    for &(pos, kind, b) in edits {
        let at = pos % (out.len() + 1);
        match kind {
            0 if at < out.len() => out[at] = b,
            1 => out.insert(at, b),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {}
        }
    }
    out
}

const GENERATE_BODY: &str = r#"{"model":"m","nodes":120,"edges":340,"seed":9}"#;

fn requests() -> Vec<Vec<u8>> {
    vec![
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".to_vec(),
        format!(
            "POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{GENERATE_BODY}",
            GENERATE_BODY.len()
        )
        .into_bytes(),
        b"GET /v1/models HTTP/1.0\nconnection: keep-alive\n\n".to_vec(),
    ]
}

fn replies() -> Vec<Vec<u8>> {
    let ok = Response::shared(200, Arc::new(b"# nodes: 2\n0 1\n".to_vec()));
    let mut busy = Response::json(429, r#"{"error":{}}"#.to_string());
    busy.retry_after = Some(1);
    [(ok, true), (busy, false)]
        .iter()
        .map(|(response, keep_alive)| {
            let mut wire = encode_head(response, *keep_alive, false);
            wire.extend_from_slice(&response.body);
            wire
        })
        .collect()
}

fn bodies() -> Vec<Vec<u8>> {
    [
        GENERATE_BODY,
        "{}",
        r#"{"seed":18446744073709551615}"#,
        "[1,2.5e3,null,true,\"\\u00e9\"]",
    ]
    .iter()
    .map(|b| b.as_bytes().to_vec())
    .collect()
}

/// `depth` nested arrays or objects (chosen per level by `kinds`) around
/// a leaf, closed when `closed`.
fn nested(depth: usize, kinds: u64, closed: bool) -> String {
    let is_object = |level: usize| (kinds >> (level % 64)) & 1 == 1;
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(if is_object(level) { "{\"k\":" } else { "[" });
    }
    text.push('1');
    if closed {
        for level in (0..depth).rev() {
            text.push(if is_object(level) { '}' } else { ']' });
        }
    }
    text
}

fn check_request(buf: &[u8]) {
    match parse_request(buf) {
        Ok(Some((request, used))) => {
            assert!(used <= buf.len());
            assert!(request.body.len() <= MAX_BODY_BYTES);
        }
        Ok(None) => {}
        Err(ServeError::BadRequest(_) | ServeError::PayloadTooLarge { .. }) => {}
        Err(other) => panic!("untyped request error: {other:?}"),
    }
}

fn check_reply(buf: &[u8]) {
    match parse_reply(buf) {
        Ok(Some((_, used))) => assert!(used <= buf.len()),
        Ok(None) | Err(ServeError::BadRequest(_)) => {}
        Err(other) => panic!("untyped reply error: {other:?}"),
    }
}

fn check_body(body: &[u8]) {
    match GenerateRequest::from_body(body) {
        Ok(request) => {
            assert!(request.nodes.is_none_or(|n| n <= MAX_NODES));
            assert!(request.edges.is_none_or(|m| m <= MAX_EDGES));
        }
        Err(ServeError::BadRequest(_)) => {}
        Err(other) => panic!("untyped body error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_survives_random_and_mutated_bytes(
        noise in bytes(600),
        base in 0usize..3,
        edits in edits(),
    ) {
        check_request(&noise);
        check_request(&mutate(&requests()[base], &edits));
    }

    #[test]
    fn parse_request_consumes_exactly_one_valid_request(
        method in 0usize..3,
        path in vec(0u8..26, 0..40),
        headers in vec((vec(0u8..26, 1..12), vec(32u8..127, 0..40)), 0..6),
        body in vec(byte(), 0..300),
        http10 in 0u8..2,
        tail in bytes(300),
    ) {
        let method = ["GET", "POST", "DELETE"][method];
        let path: String = path.iter().map(|&c| char::from(b'a' + c)).collect();
        let path = format!("/{path}");
        let version = if http10 == 1 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut wire = format!("{method} {path} {version}\r\n").into_bytes();
        for (name, value) in &headers {
            wire.extend_from_slice(b"x-");
            wire.extend(name.iter().map(|&c| b'a' + c));
            wire.extend_from_slice(b": ");
            wire.extend_from_slice(value);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(&body);
        let request_len = wire.len();
        wire.extend_from_slice(&tail);

        let (request, used) = parse_request(&wire).unwrap().unwrap();
        prop_assert_eq!(used, request_len);
        prop_assert_eq!(request.method.as_str(), method);
        prop_assert_eq!(request.path, path);
        prop_assert_eq!(request.version_minor, u8::from(http10 == 0));
        prop_assert_eq!(request.headers.len(), headers.len() + 1);
        prop_assert_eq!(request.body, body);
    }

    #[test]
    fn parse_reply_survives_random_and_mutated_bytes(
        noise in bytes(600),
        base in 0usize..2,
        edits in edits(),
        tail in bytes(200),
    ) {
        check_reply(&noise);
        check_reply(&mutate(&replies()[base], &edits));
        let mut wire = replies()[base].clone();
        let reply_len = wire.len();
        wire.extend_from_slice(&tail);
        let (_, used) = parse_reply(&wire).unwrap().unwrap();
        prop_assert_eq!(used, reply_len);
    }

    #[test]
    fn from_body_survives_random_mutated_and_nested_bodies(
        noise in bytes(300),
        base in 0usize..4,
        edits in edits(),
        depth in 0usize..20_000,
        kinds in 0u64..u64::MAX,
        closed in 0u8..2,
    ) {
        check_body(&noise);
        check_body(&mutate(&bodies()[base], &edits));
        check_body(nested(depth, kinds, closed == 1).as_bytes());
    }

    #[test]
    fn parse_value_survives_random_mutated_and_nested_text(
        noise in bytes(300),
        base in 0usize..4,
        edits in edits(),
        depth in 0usize..300,
        kinds in 0u64..u64::MAX,
        closed in 0u8..2,
    ) {
        for text in [noise, mutate(&bodies()[base], &edits)] {
            if let Ok(text) = std::str::from_utf8(&text) {
                let _ = serde_json::parse_value(text);
            }
        }
        let parsed = serde_json::parse_value(&nested(depth, kinds, closed == 1));
        let complete = closed == 1 || depth == 0;
        prop_assert_eq!(parsed.is_ok(), complete && depth <= 128);
    }
}

// ------------------------------------------------------------ fixed cases

#[test]
fn reply_with_an_overflowing_content_length_is_a_typed_error() {
    let wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", u64::MAX);
    assert!(matches!(
        parse_reply(wire.as_bytes()),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn request_with_an_overflowing_content_length_is_413() {
    let wire = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", u64::MAX);
    assert!(matches!(
        parse_request(wire.as_bytes()),
        Err(ServeError::PayloadTooLarge { .. })
    ));
}

#[test]
fn ten_thousand_open_brackets_are_a_typed_error() {
    let err = GenerateRequest::from_body("[".repeat(10_000).as_bytes()).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)));
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );
}

#[test]
fn an_unallocatable_shape_is_a_typed_error() {
    let err = GenerateRequest::from_body(br#"{"nodes":100000,"edges":18446744073709551615}"#)
        .unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)));
    assert!(err.to_string().contains("'edges'"), "{err}");
}
