//! Merged report: JSONL sink and human-readable summary tree.

use crate::collect::SpanStat;
use crate::metrics::Hist;
use std::collections::BTreeMap;

/// A merged snapshot of everything every thread recorded.
///
/// Produced by [`crate::snapshot`]; all maps are `BTreeMap`s so iteration
/// (and therefore both sinks) is deterministically ordered. Fields whose
/// JSONL key ends in `_ns` hold wall-clock durations and are the only
/// thread-count-dependent values in the report (histogram `sum` stays
/// invariant because recorded samples are integer-valued work sizes, whose
/// f64 additions are exact and hence order-independent below 2^53).
#[derive(Debug, Default)]
pub struct Report {
    pub(crate) spans: BTreeMap<String, SpanStat>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, (u64, f64)>,
    pub(crate) hists: BTreeMap<String, Hist>,
    pub(crate) series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Report {
    /// Canonicalizes order-dependent pieces: each series is stable-sorted by
    /// `(step, value)` so concatenating per-thread segments in any order
    /// yields the same point list.
    pub(crate) fn normalize(&mut self) {
        for points in self.series.values_mut() {
            points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
        }
    }

    /// Aggregated `(count, total_ns)` of a span path, if recorded.
    pub fn span_stat(&self, path: &str) -> Option<(u64, u64)> {
        self.spans.get(path).map(|s| (s.count, s.total_ns))
    }

    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Latest value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|&(_, v)| v)
    }

    /// A histogram by name, if recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// The points of a scalar series, sorted by `(step, value)`.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Every entry rendered once for both sinks, kind by kind in sink order.
    fn sections(&self) -> [Section<'_>; 5] {
        let hist = |h: &Hist| {
            let buckets = h.buckets.iter().enumerate().filter(|&(_, &c)| c > 0);
            Body::Members(format!(
                "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
                join(buckets.map(|(i, c)| format!("[{i},{c}]")))
            ))
        };
        let points = |p: &Vec<(u64, f64)>| {
            let pts = p
                .iter()
                .map(|&(step, v)| format!("[{step},{}]", json_f64(v)));
            Body::Value("points", format!("[{}]", join(pts)))
        };
        [
            (
                "spans",
                "span",
                "path",
                entries(&self.spans, |s| {
                    Body::Members(format!("\"count\":{},\"total_ns\":{}", s.count, s.total_ns))
                }),
            ),
            (
                "counters",
                "counter",
                "name",
                entries(&self.counters, |v| Body::Value("value", v.to_string())),
            ),
            (
                "gauges",
                "gauge",
                "name",
                entries(&self.gauges, |&(_, v)| Body::Value("value", json_f64(v))),
            ),
            ("hists", "hist", "name", entries(&self.hists, hist)),
            ("series", "series", "name", entries(&self.series, points)),
        ]
    }

    /// Renders the report as JSONL: one `meta` line, then one line per span
    /// path, counter, gauge, histogram, and series, each tagged with `"t"`.
    ///
    /// Everything except `_ns`-suffixed fields and the `meta` line is
    /// thread-count invariant; the determinism suite strips exactly those.
    pub fn to_jsonl(&self) -> String {
        let threads = std::env::var("CPGAN_THREADS").unwrap_or_default();
        let mut out = format!(
            "{{\"t\":\"meta\",\"cpgan_threads\":{}}}\n",
            json_str(&threads)
        );
        for (_, tag, name_key, entries) in self.sections() {
            for (name, body) in entries {
                let members = match body {
                    Body::Members(m) => m,
                    Body::Value(key, v) => format!("\"{key}\":{v}"),
                };
                let name = json_str(name);
                out.push_str(&format!(
                    "{{\"t\":\"{tag}\",\"{name_key}\":{name},{members}}}\n"
                ));
            }
        }
        out
    }

    /// Renders the report as one JSON object —
    /// `{"spans":{...},"counters":{...},"gauges":{...},"hists":{...},
    /// "series":{...}}` — for machine consumers that want a single
    /// document rather than the JSONL stream (e.g. the serving layer's
    /// `GET /metrics` endpoint). Key order is the `BTreeMap` order, so
    /// the rendering is deterministic.
    pub fn to_json(&self) -> String {
        let sections = self.sections().map(|(section, _, _, entries)| {
            let entries = entries.into_iter().map(|(name, body)| match body {
                Body::Members(m) => format!("{}:{{{m}}}", json_str(name)),
                Body::Value(_, v) => format!("{}:{v}", json_str(name)),
            });
            format!("\"{section}\":{{{}}}", join(entries))
        });
        format!("{{{}}}", join(sections.into_iter()))
    }

    /// Renders a deterministic human-readable summary: spans as an indented
    /// tree (durations included — those vary run to run, the structure does
    /// not), then counters, gauges, histograms, and series extents.
    pub fn summary_tree(&self) -> String {
        let mut out = String::from("== cpgan-obs summary ==\n");
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, s) in &self.spans {
                let depth = path.matches('/').count();
                let leaf = path.rsplit('/').next().unwrap_or(path);
                let label = format!("{}{}", "  ".repeat(depth + 1), leaf);
                out.push_str(&format!(
                    "{label:<40} count={:<8} total={}\n",
                    s.count,
                    fmt_dur(s.total_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                if name.ends_with("_ns") {
                    out.push_str(&format!("  {name:<38} {}\n", fmt_dur(*v)));
                } else {
                    out.push_str(&format!("  {name:<38} {v}\n"));
                }
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, &(_, v)) in &self.gauges {
                out.push_str(&format!("  {name:<38} {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name:<38} count={} min={} max={} mean={}\n",
                    h.count,
                    h.min,
                    h.max,
                    if h.count > 0 {
                        h.sum / h.count as f64
                    } else {
                        0.0
                    }
                ));
            }
        }
        if !self.series.is_empty() {
            out.push_str("series:\n");
            for (name, points) in &self.series {
                let last = points.last().map(|&(s, v)| format!("last=({s}, {v})"));
                out.push_str(&format!(
                    "  {name:<38} points={} {}\n",
                    points.len(),
                    last.unwrap_or_default()
                ));
            }
        }
        out
    }
}

/// One entry kind: its `to_json` section key, its JSONL `"t"` tag and name
/// key, and each entry's name with its rendered value.
type Section<'a> = (
    &'static str,
    &'static str,
    &'static str,
    Vec<(&'a str, Body)>,
);

/// An entry's rendered value: the members of an object (spans, histograms),
/// or one JSON value that JSONL puts under the given key (counters, gauges,
/// series).
enum Body {
    Members(String),
    Value(&'static str, String),
}

fn entries<V>(map: &BTreeMap<String, V>, render: impl Fn(&V) -> Body) -> Vec<(&str, Body)> {
    map.iter().map(|(k, v)| (k.as_str(), render(v))).collect()
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Flushes observability at program exit: when collection is enabled, merges
/// all collectors, writes the JSONL report to `CPGAN_OBS_OUT` (falling back
/// to `default_out`), and prints the summary tree to stderr. A no-op when
/// collection is disabled; sink I/O errors are reported to stderr, never
/// panicked on.
pub fn finish(default_out: Option<&str>) {
    if !crate::enabled() {
        return;
    }
    let report = crate::snapshot();
    let env_out = std::env::var("CPGAN_OBS_OUT").ok();
    let out_path = env_out.as_deref().or(default_out);
    if let Some(path) = out_path {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cpgan-obs: cannot create {}: {e}", parent.display());
                }
            }
        }
        match std::fs::write(path, report.to_jsonl()) {
            Ok(()) => eprintln!("cpgan-obs: wrote {path}"),
            Err(e) => eprintln!("cpgan-obs: cannot write {path}: {e}"),
        }
    }
    eprint!("{}", report.summary_tree());
}

/// JSON string literal (quotes + escapes) for a key/name.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Canonical JSON rendering of an f64 (shortest round-trip form; non-finite
/// values become `null` since JSON has no representation for them).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Human-readable duration from nanoseconds.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn normalize_sorts_series_points() {
        let mut r = Report::default();
        r.series.insert(
            "loss".to_string(),
            vec![(2, 0.5), (0, 1.0), (1, 0.7), (1, 0.2)],
        );
        r.normalize();
        assert_eq!(
            r.series("loss"),
            Some(&[(0, 1.0), (1, 0.2), (1, 0.7), (2, 0.5)][..])
        );
    }

    #[test]
    fn jsonl_shape_and_tree() {
        let mut r = Report::default();
        r.spans.insert(
            "a/b".to_string(),
            crate::collect::SpanStat {
                count: 3,
                total_ns: 1500,
            },
        );
        r.counters.insert("jobs".to_string(), 7);
        let jsonl = r.to_jsonl();
        assert!(jsonl.contains("\"t\":\"meta\""));
        assert!(jsonl.contains("{\"t\":\"span\",\"path\":\"a/b\",\"count\":3,\"total_ns\":1500}"));
        assert!(jsonl.contains("{\"t\":\"counter\",\"name\":\"jobs\",\"value\":7}"));
        let tree = r.summary_tree();
        assert!(tree.contains("spans:"));
        assert!(tree.contains("b"));
        assert!(tree.contains("jobs"));
    }

    #[test]
    fn both_sinks_pin_every_kind() {
        let mut r = Report::default();
        for (path, count, total_ns) in [("a/b", 3, 1500), ("q\"x\\", 1, 7)] {
            let stat = crate::collect::SpanStat { count, total_ns };
            r.spans.insert(path.to_string(), stat);
        }
        r.counters.insert("jobs".to_string(), 7);
        r.gauges.insert("depth".to_string(), (1, 2.5));
        r.gauges.insert("nan".to_string(), (2, f64::NAN));
        let mut h = Hist::default();
        h.record(4.0);
        h.record(1.5);
        r.hists.insert("lat".to_string(), h);
        r.series
            .insert("loss".to_string(), vec![(0, 1.0), (1, f64::INFINITY)]);

        let jsonl = r.to_jsonl();
        let (meta, entries) = jsonl.split_once('\n').unwrap();
        assert!(
            meta.starts_with("{\"t\":\"meta\",\"cpgan_threads\":\""),
            "{meta}"
        );
        assert_eq!(
            entries,
            r#"{"t":"span","path":"a/b","count":3,"total_ns":1500}
{"t":"span","path":"q\"x\\","count":1,"total_ns":7}
{"t":"counter","name":"jobs","value":7}
{"t":"gauge","name":"depth","value":2.5}
{"t":"gauge","name":"nan","value":null}
{"t":"hist","name":"lat","count":2,"sum":5.5,"min":1.5,"max":4,"buckets":[[0,1],[2,1]]}
{"t":"series","name":"loss","points":[[0,1],[1,null]]}
"#
        );
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"spans":{"a/b":{"count":3,"total_ns":1500},"q\"x\\":{"count":1,"total_ns":7}},"#,
                r#""counters":{"jobs":7},"gauges":{"depth":2.5,"nan":null},"#,
                r#""hists":{"lat":{"count":2,"sum":5.5,"min":1.5,"max":4,"buckets":[[0,1],[2,1]]}},"#,
                r#""series":{"loss":[[0,1],[1,null]]}}"#
            )
        );
    }

    #[test]
    fn json_object_shape() {
        let mut r = Report::default();
        r.spans.insert(
            "a/b".to_string(),
            crate::collect::SpanStat {
                count: 3,
                total_ns: 1500,
            },
        );
        r.counters.insert("jobs".to_string(), 7);
        r.gauges.insert("depth".to_string(), (1, 2.5));
        let mut h = Hist::default();
        h.record(4.0);
        r.hists.insert("lat".to_string(), h);
        r.series.insert("loss".to_string(), vec![(0, 1.0)]);
        let json = r.to_json();
        assert!(json.starts_with("{\"spans\":{"), "{json}");
        assert!(
            json.contains("\"a/b\":{\"count\":3,\"total_ns\":1500}"),
            "{json}"
        );
        assert!(json.contains("\"counters\":{\"jobs\":7}"), "{json}");
        assert!(json.contains("\"gauges\":{\"depth\":2.5}"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1,"), "{json}");
        assert!(json.contains("\"series\":{\"loss\":[[0,1]]}"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        // An empty report is still a complete, parseable object.
        let empty = Report::default().to_json();
        assert_eq!(
            empty,
            "{\"spans\":{},\"counters\":{},\"gauges\":{},\"hists\":{},\"series\":{}}"
        );
    }
}
