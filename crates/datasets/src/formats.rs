//! Streaming parsers for the public dataset formats.
//!
//! Two families cover every file the registry names:
//!
//! * **SNAP edge lists** (`web-Google.txt`, `soc-Epinions1.txt`, and this
//!   repo's own interchange format): one `u v` pair of integer ids per
//!   line, `#`/`%` comment lines, tab or space separated.
//! * **linqs citation files**: `.cites` files are `citing cited` pairs of
//!   *string* paper ids; `.content` files are `id <features...> label`
//!   rows that contribute node ids and class labels but no edges.
//!
//! All node ids — numeric or not — are interned to dense `u32` ids in
//! first-appearance order (deterministic for a given file set). Directed
//! inputs are symmetrized by construction: `(u, v)` and `(v, u)` merge
//! into one undirected edge, and self-loops are dropped.
//!
//! Ingestion is two-phase and never materializes an edge `Vec`:
//!
//! 1. a validation scan parses every line (typed [`DatasetError::Parse`]
//!    on malformed input — blank lines and CRLF are tolerated, truncated
//!    records and non-numeric SNAP ids are not) and builds the interner;
//! 2. [`Graph::from_edge_stream`] re-reads the files twice (degree count,
//!    then CSR scatter), so peak memory is the CSR arrays plus the
//!    interner, independent of how the edges arrive on disk.

use crate::{DatasetError, Interner};
use cpgan_graph::{Graph, NodeId};
use std::fs::File;
use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};

/// On-disk format of one registry file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SNAP-style integer edge list (`#`/`%` comments).
    SnapEdges,
    /// linqs `.cites`: `citing cited` string-id pairs.
    LinqsCites,
    /// linqs `.content`: `id <features...> label` node rows (no edges).
    LinqsContent,
}

impl Format {
    /// Stable lowercase name (manifest/report rendering).
    pub fn name(self) -> &'static str {
        match self {
            Format::SnapEdges => "snap-edges",
            Format::LinqsCites => "linqs-cites",
            Format::LinqsContent => "linqs-content",
        }
    }

    /// Whether files of this format contribute edges (vs. nodes/labels only).
    pub fn carries_edges(self) -> bool {
        !matches!(self, Format::LinqsContent)
    }
}

/// One parsed line: skipped, an edge, or a labeled node.
enum Record<'a> {
    Skip,
    Edge(&'a str, &'a str),
    Node(&'a str, &'a str),
}

/// Parses one line of `format`. `Err` carries the human-readable reason;
/// the caller attaches file and line number.
fn parse_line(format: Format, raw: &str) -> Result<Record<'_>, String> {
    // Tolerate CRLF endings and stray surrounding whitespace.
    let line = raw.trim();
    if line.is_empty() {
        return Ok(Record::Skip);
    }
    match format {
        Format::SnapEdges => {
            if line.starts_with('#') || line.starts_with('%') {
                return Ok(Record::Skip);
            }
            let mut it = line.split_whitespace();
            let (Some(u), Some(v)) = (it.next(), it.next()) else {
                return Err("expected two node ids".to_string());
            };
            if it.next().is_some() {
                return Err("expected exactly two columns".to_string());
            }
            for tok in [u, v] {
                if tok.parse::<u64>().is_err() {
                    return Err(format!("non-numeric node id '{tok}'"));
                }
            }
            Ok(Record::Edge(u, v))
        }
        Format::LinqsCites => {
            let mut it = line.split_whitespace();
            let (Some(u), Some(v)) = (it.next(), it.next()) else {
                return Err("expected two paper ids".to_string());
            };
            if it.next().is_some() {
                return Err("expected exactly two columns".to_string());
            }
            Ok(Record::Edge(u, v))
        }
        Format::LinqsContent => {
            let mut it = line.split_whitespace();
            let Some(id) = it.next() else {
                return Ok(Record::Skip);
            };
            // `id <features...> label`: the class label is the last column.
            let Some(label) = it.last() else {
                return Err("expected at least an id and a class label".to_string());
            };
            Ok(Record::Node(id, label))
        }
    }
}

/// Counters describing one ingestion run (everything except the graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Distinct node ids interned across all files.
    pub nodes: usize,
    /// Edge records parsed, self-loops and duplicates included.
    pub raw_edges: usize,
    /// Self-loop records dropped.
    pub self_loops_dropped: usize,
    /// Records merged away as duplicates or reverse duplicates:
    /// `raw_edges - self_loops_dropped - m`.
    pub duplicates_merged: usize,
    /// Wall-clock nanoseconds spent in the validation scan plus both
    /// builder passes.
    pub parse_ns: u64,
}

/// A fully ingested dataset: the graph, its counters, and (when a
/// `.content` file was present) a class label per dense node id.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The undirected simple graph.
    pub graph: Graph,
    /// Ingestion counters.
    pub stats: IngestStats,
    /// Interner: dense id -> original token, first-appearance order.
    pub interner: Interner,
    /// Class label per node (empty string when unlabeled).
    pub labels: Option<Vec<String>>,
}

/// Ingests an ordered list of files into one graph.
///
/// The file order defines the interning order (and therefore the dense
/// node numbering); keep it stable. Emits `data.ingest.*` observability
/// counters and a parse-time histogram when collection is enabled.
pub fn ingest_files(files: &[(PathBuf, Format)]) -> Result<Ingested, DatasetError> {
    let _span = cpgan_obs::span("data.ingest");
    let watch = cpgan_obs::Stopwatch::start();

    // Phase 1: validate every line and intern every id.
    let mut interner = Interner::new();
    let mut raw_edges = 0usize;
    let mut self_loops = 0usize;
    let mut labeled: Vec<(u32, String)> = Vec::new();
    let mut any_content = false;
    for (path, format) in files {
        any_content |= *format == Format::LinqsContent;
        let reader = open(path)?;
        for (idx, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| DatasetError::io(path, e))?;
            let record = parse_line(*format, &line).map_err(|message| DatasetError::Parse {
                file: path.display().to_string(),
                line: idx + 1,
                message,
            })?;
            match record {
                Record::Skip => {}
                Record::Edge(u, v) => {
                    let ui = interner.intern(u)?;
                    let vi = interner.intern(v)?;
                    raw_edges += 1;
                    if ui == vi {
                        self_loops += 1;
                    }
                }
                Record::Node(id, label) => {
                    let i = interner.intern(id)?;
                    labeled.push((i, label.to_string()));
                }
            }
        }
    }

    // Phase 2: two-pass CSR build over a re-opened stream — edges are
    // never collected into a Vec.
    let n = interner.len();
    let graph = Graph::from_edge_stream(n, || EdgeStream::new(files, &interner))?;
    let stats = IngestStats {
        nodes: n,
        raw_edges,
        self_loops_dropped: self_loops,
        duplicates_merged: raw_edges
            .saturating_sub(self_loops)
            .saturating_sub(graph.m()),
        parse_ns: watch.elapsed_ns(),
    };
    cpgan_obs::counter_add("data.ingest.edges", graph.m() as u64);
    cpgan_obs::counter_add(
        "data.ingest.dropped_self_loop",
        stats.self_loops_dropped as u64,
    );
    cpgan_obs::counter_add("data.ingest.dropped_dup", stats.duplicates_merged as u64);
    cpgan_obs::hist_record("data.ingest.parse_ns", stats.parse_ns as f64);

    let labels = any_content.then(|| {
        let mut out = vec![String::new(); n];
        for (i, label) in labeled {
            out[i as usize] = label;
        }
        out
    });
    Ok(Ingested {
        graph,
        stats,
        interner,
        labels,
    })
}

fn open(path: &Path) -> Result<BufReader<File>, DatasetError> {
    Ok(BufReader::new(
        File::open(path).map_err(|e| DatasetError::io(path, e))?,
    ))
}

/// Replayable edge iterator over the edge-bearing files of a set. Both
/// builder passes construct a fresh instance via the
/// [`Graph::from_edge_stream`] closure. Lines were validated in phase 1;
/// anything that no longer parses (the file changed underneath us) is
/// skipped here and caught by the builder's replayability check.
struct EdgeStream<'a> {
    files: &'a [(PathBuf, Format)],
    interner: &'a Interner,
    next_file: usize,
    lines: Option<(Format, Lines<BufReader<File>>)>,
}

impl<'a> EdgeStream<'a> {
    fn new(files: &'a [(PathBuf, Format)], interner: &'a Interner) -> Self {
        EdgeStream {
            files,
            interner,
            next_file: 0,
            lines: None,
        }
    }
}

impl Iterator for EdgeStream<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        loop {
            let Some((format, lines)) = self.lines.as_mut() else {
                // Advance to the next edge-bearing file.
                let (path, format) = loop {
                    let entry = self.files.get(self.next_file)?;
                    self.next_file += 1;
                    if entry.1.carries_edges() {
                        break entry;
                    }
                };
                let Ok(reader) = open(path) else {
                    return None; // replayability check reports the short pass
                };
                self.lines = Some((*format, reader.lines()));
                continue;
            };
            let Some(line) = lines.next() else {
                self.lines = None;
                continue;
            };
            let Ok(line) = line else {
                return None;
            };
            if let Ok(Record::Edge(u, v)) = parse_line(*format, &line) {
                if let (Some(ui), Some(vi)) = (self.interner.get(u), self.interner.get(v)) {
                    return Some((ui, vi));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(format: Format, line: &str) -> Option<(String, String)> {
        match parse_line(format, line) {
            Ok(Record::Edge(u, v)) => Some((u.to_string(), v.to_string())),
            _ => None,
        }
    }

    #[test]
    fn snap_comments_blanks_and_crlf() {
        for skip in ["", "   ", "# comment", "% matrix-market style", "#\r"] {
            assert!(matches!(
                parse_line(Format::SnapEdges, skip),
                Ok(Record::Skip)
            ));
        }
        assert_eq!(
            edge(Format::SnapEdges, "12\t34\r"),
            Some(("12".into(), "34".into()))
        );
    }

    #[test]
    fn snap_rejects_non_numeric_and_truncated() {
        assert!(parse_line(Format::SnapEdges, "a b").is_err());
        assert!(parse_line(Format::SnapEdges, "12").is_err());
        assert!(parse_line(Format::SnapEdges, "1 2 3").is_err());
    }

    #[test]
    fn cites_accepts_string_ids() {
        assert_eq!(
            edge(Format::LinqsCites, "brettonwoods96 oai:CiteSeerPSU:114"),
            Some(("brettonwoods96".into(), "oai:CiteSeerPSU:114".into()))
        );
        assert!(parse_line(Format::LinqsCites, "lonely-id").is_err());
    }

    #[test]
    fn content_takes_first_and_last_columns() {
        match parse_line(Format::LinqsContent, "paper7 0 1 0 1 Agents") {
            Ok(Record::Node(id, label)) => {
                assert_eq!(id, "paper7");
                assert_eq!(label, "Agents");
            }
            _ => panic!("expected a node record"),
        }
        assert!(parse_line(Format::LinqsContent, "only-id").is_err());
    }
}
