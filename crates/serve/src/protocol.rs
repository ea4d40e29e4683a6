//! The `/v1/generate` request body.
//!
//! A strict parser: unknown fields, wrong types and shapes over
//! [`MAX_NODES`] / [`MAX_EDGES`] are `400`s with the offending field
//! named, so a misconfigured client learns immediately instead of
//! silently generating with defaults — and no request can ask a worker
//! for an allocation the process cannot survive.

use crate::error::ServeError;
use serde::Value;

/// Parsed body of `POST /v1/generate`. All fields optional; defaults
/// mirror `cpgan generate` exactly (that is what makes served output
/// byte-identical to the CLI's).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GenerateRequest {
    /// Model name; may be omitted when exactly one model is loaded.
    pub model: Option<String>,
    /// Node-count override (defaults to the model's trained shape).
    pub nodes: Option<usize>,
    /// Edge-count override (defaults to the model's trained shape).
    pub edges: Option<usize>,
    /// Generation seed (defaults to 7, the CLI default).
    pub seed: Option<u64>,
}

/// The seed used when a request omits `"seed"` — identical to the CLI's
/// `--seed` default so bare requests match bare `cpgan generate` runs.
pub const DEFAULT_SEED: u64 = 7;

/// The most nodes a request may ask for (DESIGN.md §11 sizes the
/// largest admitted generation). A model's trained shape, the default,
/// is the operator's choice and is not checked.
pub const MAX_NODES: usize = 1 << 20;

/// The most edges a request may ask for.
pub const MAX_EDGES: usize = 1 << 23;

fn bad(field: &str, expected: &str, got: &Value) -> ServeError {
    ServeError::BadRequest(format!(
        "field '{field}' must be {expected}, got {}",
        got.kind()
    ))
}

/// A non-negative integer field no larger than `limit`.
fn bounded(field: &str, val: &Value, limit: usize) -> Result<usize, ServeError> {
    let v = val
        .as_u64()
        .ok_or_else(|| bad(field, "a non-negative integer", val))?;
    usize::try_from(v)
        .ok()
        .filter(|&v| v <= limit)
        .ok_or_else(|| {
            ServeError::BadRequest(format!("field '{field}' must be at most {limit}, got {v}"))
        })
}

impl GenerateRequest {
    /// Parses a request body. An empty body is the all-defaults request.
    pub fn from_body(body: &[u8]) -> Result<GenerateRequest, ServeError> {
        if body.iter().all(u8::is_ascii_whitespace) {
            return Ok(GenerateRequest::default());
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("body is not valid UTF-8".to_string()))?;
        let value = serde_json::parse_value(text)
            .map_err(|e| ServeError::BadRequest(format!("body is not valid JSON: {e}")))?;
        let Value::Object(fields) = &value else {
            return Err(ServeError::BadRequest(format!(
                "body must be a JSON object, got {}",
                value.kind()
            )));
        };
        let mut req = GenerateRequest::default();
        for (key, val) in fields {
            match key.as_str() {
                "model" => match val {
                    Value::Str(s) => req.model = Some(s.clone()),
                    other => return Err(bad("model", "a string", other)),
                },
                "nodes" => req.nodes = Some(bounded("nodes", val, MAX_NODES)?),
                "edges" => req.edges = Some(bounded("edges", val, MAX_EDGES)?),
                "seed" => {
                    req.seed = Some(
                        val.as_u64()
                            .ok_or_else(|| bad("seed", "a non-negative integer", val))?,
                    );
                }
                other => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown field '{other}' (expected model/nodes/edges/seed)"
                    )));
                }
            }
        }
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_body_is_all_defaults() {
        assert_eq!(
            GenerateRequest::from_body(b"").unwrap(),
            GenerateRequest::default()
        );
        assert_eq!(
            GenerateRequest::from_body(b"  \n").unwrap(),
            GenerateRequest::default()
        );
    }

    #[test]
    fn parses_full_request() {
        let r =
            GenerateRequest::from_body(br#"{"model":"citeseer","nodes":120,"edges":340,"seed":9}"#)
                .unwrap();
        assert_eq!(r.model.as_deref(), Some("citeseer"));
        assert_eq!(r.nodes, Some(120));
        assert_eq!(r.edges, Some(340));
        assert_eq!(r.seed, Some(9));
    }

    #[test]
    fn shapes_up_to_the_bounds_are_accepted() {
        let body = format!(r#"{{"nodes":{MAX_NODES},"edges":{MAX_EDGES}}}"#);
        let r = GenerateRequest::from_body(body.as_bytes()).unwrap();
        assert_eq!((r.nodes, r.edges), (Some(MAX_NODES), Some(MAX_EDGES)));
    }

    #[test]
    fn rejects_malformed_bodies_with_field_names() {
        let cases: Vec<(&[u8], &str)> = vec![
            (b"not json", "JSON"),
            (b"[1,2]", "object"),
            (br#"{"model":3}"#, "'model'"),
            (br#"{"nodes":-4}"#, "'nodes'"),
            (br#"{"seed":"abc"}"#, "'seed'"),
            (br#"{"extra":1}"#, "unknown field 'extra'"),
            (br#"{"nodes":1048577}"#, "'nodes' must be at most 1048576"),
            (
                br#"{"nodes":100000,"edges":18446744073709551615}"#,
                "'edges' must be at most 8388608",
            ),
        ];
        for (body, needle) in cases {
            let err = GenerateRequest::from_body(body).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
            assert!(
                err.to_string().contains(needle),
                "message '{err}' should mention {needle}"
            );
        }
    }
}
