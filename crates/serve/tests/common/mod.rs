//! Shared helpers for the serve integration tests: model fixtures and a
//! tiny keep-alive-aware HTTP client built on the crate's own framed
//! reply parser (`cpgan_serve::http::parse_reply`), so tests never rely
//! on connection-close semantics to find message boundaries.

#![allow(dead_code)] // each integration-test binary uses a subset

use cpgan::CpGan;
use cpgan_graph::Graph;
use cpgan_serve::http::{parse_reply, Reply};
use cpgan_serve::ModelRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A small 3-community graph (same family as the persist tests).
pub fn small_graph() -> Graph {
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
    Graph::from_edges(36, edges).unwrap()
}

pub fn temp_model_path(tag: &str, model: &CpGan) -> PathBuf {
    let dir = std::env::temp_dir().join("cpgan_serve_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.json"));
    model.save(&path).unwrap();
    path
}

pub fn registry_for(path: &Path) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.load_file(path.to_str().unwrap()).unwrap();
    registry
}

/// A keep-alive HTTP client: one socket, framed reads, any number of
/// request/response exchanges.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    pub fn send_raw(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).unwrap();
    }

    pub fn get(&mut self, path: &str) {
        self.send_raw(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes());
    }

    pub fn post_generate(&mut self, body: &str) {
        self.send_raw(generate_request(body, true).as_bytes());
    }

    /// Reads exactly one `content-length`-framed reply.
    pub fn read_reply(&mut self) -> Reply {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf).expect("well-formed reply") {
                self.buf.drain(..used);
                return reply;
            }
            let n = self.stream.read(&mut chunk).expect("reply read");
            assert!(n > 0, "server closed before a complete reply arrived");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Expects the server to close the connection without sending
    /// anything further (idle-deadline hygiene).
    pub fn expect_silent_close(&mut self) {
        let mut chunk = [0u8; 1024];
        let n = self.stream.read(&mut chunk).expect("read until close");
        assert_eq!(
            n,
            0,
            "expected a silent close, got {} unexpected bytes",
            self.buf.len() + n
        );
    }

    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// A `POST /v1/generate` request; `keep_alive = false` adds
/// `connection: close`.
pub fn generate_request(body: &str, keep_alive: bool) -> String {
    let conn = if keep_alive {
        ""
    } else {
        "connection: close\r\n"
    };
    format!(
        "POST /v1/generate HTTP/1.1\r\nhost: t\r\n{conn}content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One-shot exchange on a fresh connection (close mode).
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut client = Client::connect(addr);
    client.send_raw(raw);
    client.read_reply()
}

pub fn post_generate(addr: SocketAddr, body: &str) -> Reply {
    exchange(addr, generate_request(body, false).as_bytes())
}

pub fn get(addr: SocketAddr, path: &str) -> Reply {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}
