//! Minimal std-only HTTP/1.1 framing for the event-loop connection layer.
//!
//! Just enough of RFC 9112 for the serving API, parsed **incrementally**:
//! [`parse_request`] consumes a prefix of a connection's receive buffer
//! and either yields a complete request (plus the byte count to drain),
//! asks for more bytes, or fails with a typed [`ServeError`]. Every
//! response is framed by `content-length`; [`parse_reply`] is the
//! matching client-side decoder used by the integration tests and the
//! load bench. Both share one head parser, and hard limits on head and
//! body size keep a hostile peer from ballooning memory.

use crate::error::ServeError;
use std::sync::Arc;

/// Maximum accepted size of the start line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum accepted request body size, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/v1/generate` (query strings are kept
    /// verbatim; the serving API does not use them).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// HTTP minor version (`1` for HTTP/1.1, `0` for HTTP/1.0).
    pub version_minor: u8,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Whether the client wants the connection kept open after this
    /// exchange: HTTP/1.1 defaults to keep-alive unless `Connection:
    /// close`; HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self
            .header("connection")
            .map(str::to_ascii_lowercase)
            .unwrap_or_default();
        if self.version_minor >= 1 {
            conn != "close"
        } else {
            conn == "keep-alive"
        }
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest(message.into())
}

/// Byte offset just past the first blank line (`\r\n\r\n`, or a lenient
/// bare `\n\n`), if one has arrived.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut after_newline = false;
    for (i, &b) in buf.iter().enumerate() {
        match b {
            b'\n' if after_newline => return Some(i + 1),
            b'\n' => after_newline = true,
            b'\r' => {}
            _ => after_newline = false,
        }
    }
    None
}

/// A request or reply head: the start line, the headers and the declared
/// body length.
struct Head<'a> {
    start_line: &'a str,
    headers: Vec<(String, String)>,
    /// Head bytes, blank line included.
    len: usize,
    content_length: usize,
}

impl Head<'_> {
    /// Offset just past the body: a typed error when the declared length
    /// does not fit in memory at all.
    fn end(&self) -> Result<usize, ServeError> {
        self.len
            .checked_add(self.content_length)
            .ok_or_else(|| bad(format!("content-length {} overflows", self.content_length)))
    }
}

/// Parses the head at the front of `buf`, `Ok(None)` until its blank
/// line arrives. Heads over [`MAX_HEAD_BYTES`] fail without waiting for
/// the rest.
fn parse_head(buf: &[u8]) -> Result<Option<Head<'_>>, ServeError> {
    let too_long = || bad(format!("message head exceeds {MAX_HEAD_BYTES} bytes"));
    let Some(len) = head_end(buf) else {
        return if buf.len() > MAX_HEAD_BYTES {
            Err(too_long())
        } else {
            Ok(None)
        };
    };
    if len > MAX_HEAD_BYTES {
        return Err(too_long());
    }
    let text =
        std::str::from_utf8(&buf[..len]).map_err(|_| bad("message head is not valid UTF-8"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let start_line = lines.next().ok_or_else(|| bad("empty message head"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match header(&headers, "content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(format!("unparseable content-length '{v}'")))?,
        None => 0,
    };
    Ok(Some(Head {
        start_line,
        headers,
        len,
        content_length,
    }))
}

/// Incrementally parses one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request is
/// present (`consumed` bytes must be drained from `buf`; the remainder is
/// the next pipelined request), `Ok(None)` when more bytes are needed,
/// and `Err` for malformed framing (`400`) or over-limit heads/bodies
/// (`400`/`413`) — after which the connection's framing is unrecoverable
/// and the caller must close it once the error response is written.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ServeError> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let mut parts = head.start_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("missing method"))?;
    let path = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version_minor = match parts.next().ok_or_else(|| bad("missing HTTP version"))? {
        "HTTP/1.0" => 0,
        v if v.starts_with("HTTP/1.") => 1,
        other => return Err(bad(format!("unsupported protocol version '{other}'"))),
    };
    if head.content_length > MAX_BODY_BYTES {
        return Err(ServeError::PayloadTooLarge {
            limit: MAX_BODY_BYTES,
        });
    }
    let end = head.end()?;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: buf[head.len..end].to_vec(),
            headers: head.headers,
            version_minor,
        },
        end,
    )))
}

/// An HTTP response about to be written. The body is shared, so a cached
/// graph is written to the socket straight from the cache's allocation.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Arc<Vec<u8>>,
    /// Optional `Retry-After` header value in seconds (`429`/`503`).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Arc::new(body.into_bytes()),
            retry_after: None,
        }
    }

    /// A plain-text response (the edge-list payload of `/v1/generate`)
    /// sharing an existing (cached) body without copying it.
    pub fn shared(status: u16, body: Arc<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }
}

/// Canonical reason phrase for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders the response head (status line + headers + blank line).
/// `keep_alive` selects the `connection` header. The server frames every
/// body by `content-length` and passes `chunked = false`; `true` announces
/// `transfer-encoding: chunked` for a caller that frames the body itself.
pub fn encode_head(response: &Response, keep_alive: bool, chunked: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
    );
    if chunked {
        head.push_str("transfer-encoding: chunked\r\n");
    } else {
        head.push_str(&format!("content-length: {}\r\n", response.body.len()));
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n"
    } else {
        "connection: close\r\n"
    });
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// A decoded response, as seen by a client (tests, the load bench).
#[derive(Debug)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The `content-length`-framed body.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// Incrementally decodes one response from the front of `buf`: the
/// client-side mirror of [`parse_request`]. Returns the reply plus the
/// byte count to drain (so keep-alive clients can decode back-to-back
/// responses from one buffer), `Ok(None)` when more bytes are needed.
/// A `transfer-encoding` reply is an error: the server never sends one.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, ServeError> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let status: u16 = head
        .start_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line '{}'", head.start_line)))?;
    if header(&head.headers, "transfer-encoding").is_some() {
        return Err(bad("transfer-encoding replies are not supported"));
    }
    let end = head.end()?;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((
        Reply {
            status,
            body: buf[head.len..end].to_vec(),
            headers: head.headers,
        },
        end,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Option<(Request, usize)>, ServeError> {
        parse_request(text.as_bytes())
    }

    fn parse_complete(text: &str) -> Request {
        match parse(text) {
            Ok(Some((r, used))) => {
                assert_eq!(used, text.len(), "must consume the whole request");
                r
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse_complete("GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
        assert_eq!(r.version_minor, 1);
        assert!(r.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let body = r#"{"seed":3}"#;
        let text = format!(
            "POST /v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = parse_complete(&text);
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, body.as_bytes());
    }

    #[test]
    fn incomplete_requests_ask_for_more_bytes() {
        assert!(matches!(parse("GET /x HTTP/1.1\r\nhost"), Ok(None)));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Ok(None),
        ));
        assert!(matches!(parse(""), Ok(None)));
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let text = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (r, used) = parse(text).unwrap().unwrap();
        assert_eq!(r.path, "/a");
        let (r2, used2) = parse_request(&text.as_bytes()[used..]).unwrap().unwrap();
        assert_eq!(r2.path, "/b");
        assert_eq!(used + used2, text.len());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let r = parse_complete("GET / HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(!r.wants_keep_alive());
        let r = parse_complete("GET / HTTP/1.0\r\n\r\n");
        assert!(!r.wants_keep_alive(), "HTTP/1.0 defaults to close");
        let r = parse_complete("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn tolerates_bare_lf_heads() {
        let r = parse_complete("GET /v1/models HTTP/1.1\nhost: y\n\n");
        assert_eq!(r.path, "/v1/models");
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(
            parse("garbage\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n"),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_head_rejected_even_before_terminator() {
        let text = format!("GET /{} HTTP/1.1", "x".repeat(MAX_HEAD_BYTES + 8));
        assert!(matches!(parse(&text), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let text = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(&text),
            Err(ServeError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn head_encodes_framing_and_connection_modes() {
        let mut resp = Response::json(429, "{}".to_string());
        resp.retry_after = Some(1);
        let head = String::from_utf8(encode_head(&resp, false, false)).unwrap();
        assert!(
            head.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{head}"
        );
        assert!(head.contains("content-length: 2\r\n"));
        assert!(head.contains("connection: close\r\n"));
        assert!(head.contains("retry-after: 1\r\n"));
        assert!(head.ends_with("\r\n\r\n"));

        let resp = Response::shared(200, Arc::new(b"hello".to_vec()));
        let head = String::from_utf8(encode_head(&resp, true, false)).unwrap();
        assert!(head.contains("content-type: text/plain"), "{head}");
        assert!(head.contains("content-length: 5\r\n"), "{head}");
        assert!(head.contains("connection: keep-alive\r\n"));
        let head = String::from_utf8(encode_head(&resp, true, true)).unwrap();
        assert!(head.contains("transfer-encoding: chunked\r\n"), "{head}");
        assert!(!head.contains("content-length"), "{head}");
    }

    #[test]
    fn reply_parser_round_trips_content_length() {
        let wire =
            b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n\r\nhello<next>";
        let (reply, used) = parse_reply(wire).unwrap().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"hello");
        assert_eq!(&wire[used..], b"<next>");
        assert!(matches!(parse_reply(&wire[..used - 1]), Ok(None)));
    }

    #[test]
    fn reply_parser_rejects_transfer_encoding() {
        let wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(matches!(parse_reply(wire), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn head_ends_at_the_first_blank_line() {
        let text = "GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n";
        let (r, used) = parse(text).unwrap().unwrap();
        assert_eq!(r.path, "/a");
        assert_eq!(used, "GET /a HTTP/1.1\n\n".len());
    }
}
