//! The single registry of workload and metric names.
//!
//! Everything the suite emits is looked up here: a metric set under a name
//! that is not registered is a bug the run reports as a failed check, and a
//! registered metric left unset is one too. `BENCHMARK.json` at the
//! repository root mirrors these tables; the test at the bottom keeps the
//! two in sync in both directions.

/// Whether a smaller or a larger value is the improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error counts).
    Lower,
    /// Larger is better (ratios, speedups).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: what runs, and why it is in the suite.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line reason (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// An end-to-end metric: reported by every workload from its untraced pass.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric: reported by every workload from its traced pass.
#[derive(Debug)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload(s) this layer should move.
    pub moves: &'static str,
}

/// Every workload, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fit_10k",
        why: "CpGan::fit, 25 epochs at the default thread count, on the 10k-node Table VII-IX sweep graph; model stages and nn kernels do all the work (Table VIII)",
    },
    Workload {
        name: "generate_10k",
        why: "CpGan::generate of a 10k-node graph from a trained model; GRU/link decoding and edge assembly dominate (Table VII)",
    },
    Workload {
        name: "shard_100k",
        why: "ShardPipeline::run on a 100k-node planted graph; ~5k tiny per-shard models make partitioning, pool dispatch and stitching the cost",
    },
    Workload {
        name: "serve_miss",
        why: "open-loop POSTs with unique seeds to an in-process server, obs on; every request generates, fills the 16 MiB cache and evicts",
    },
    Workload {
        name: "serve_hit",
        why: "the same server with 16 warmed seeds; every request is a cache hit answered inline, so HTTP parse, cache reads, writes and obs cost show",
    },
];

/// Every end-to-end metric. Bounds come from the calibration table in the
/// README (spread over repeated runs on a shared 2-vCPU VM).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Shorthand for the per-layer table.
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, grouped by layer (the prefix before the first
/// dot). `moves` names the end-to-end metric and workload each should move.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    layer("trace.overhead_pct", "%", Lower, "latency_ms@all"),
    // graph (cpgan-graph)
    layer("graph.input_build_ms", "ms", Lower, "setup_s@all"),
    layer("graph.spectral_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("graph.sample_subgraph_us", "us", Lower, "latency_ms@fit_10k"),
    layer("graph.write_edge_list_ms", "ms", Lower, "latency_ms@serve_miss"),
    // community (cpgan-community)
    layer("community.louvain_hierarchy_ms", "ms", Lower, "latency_ms@fit_10k"),
    // core (cpgan): the paper's model stages, replayed at workload shapes
    layer("core.encoder_sparse_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.encoder_dense_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.vi_us", "us", Lower, "latency_ms@fit_10k"),
    layer("core.discriminator_us", "us", Lower, "latency_ms@fit_10k"),
    layer("core.decoder_gru_ms", "ms", Lower, "latency_ms@fit_10k,generate_10k,serve_miss"),
    layer("core.decoder_link_ms", "ms", Lower, "latency_ms@fit_10k,generate_10k,serve_miss"),
    layer("core.assembly_add_subgraph_us", "us", Lower, "latency_ms@generate_10k,serve_miss"),
    layer("core.assembly_fill_residual_ms", "ms", Lower, "latency_ms@generate_10k"),
    layer("core.assembly_build_ms", "ms", Lower, "latency_ms@generate_10k,serve_miss"),
    // core (cpgan): read from the spans fit/generate already record
    layer("core.epoch_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.d_step_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.g_step_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.fit_fixed_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("core.generate_ms", "ms", Lower, "latency_ms@generate_10k,serve_miss"),
    // nn (cpgan-nn)
    layer("nn.normalized_adj_us", "us", Lower, "latency_ms@fit_10k"),
    layer("nn.backward_ms", "ms", Lower, "latency_ms@fit_10k"),
    layer("nn.adam_step_us", "us", Lower, "latency_ms@fit_10k"),
    layer("nn.matmul_share", "%", Lower, "latency_ms@fit_10k"),
    layer("nn.spmm_share", "%", Lower, "latency_ms@fit_10k"),
    layer("nn.backward_share", "%", Lower, "latency_ms@fit_10k"),
    layer("nn.pool_hit_ratio", "ratio", Higher, "latency_ms@fit_10k,generate_10k"),
    layer("nn.peak_mib", "MiB", Lower, "peak_mib@fit_10k,generate_10k"),
    // parallel (cpgan-parallel)
    layer("parallel.speedup", "x", Higher, "latency_ms@all"),
    layer("parallel.pool_jobs", "count", Lower, "latency_ms@shard_100k"),
    layer("parallel.pool_busy_ratio", "ratio", Higher, "latency_ms@shard_100k"),
    layer("parallel.pool_queue_wait_ms", "ms", Lower, "latency_ms@shard_100k"),
    // shard (cpgan-shard)
    layer("shard.partition_ms", "ms", Lower, "latency_ms@shard_100k"),
    layer("shard.plan_us", "us", Lower, "latency_ms@shard_100k"),
    layer("shard.count", "count", Lower, "latency_ms@shard_100k"),
    layer("shard.train_generate_ms", "ms", Lower, "latency_ms@shard_100k"),
    layer("shard.stitch_ms", "ms", Lower, "latency_ms@shard_100k"),
    layer("shard.fit_one_ms", "ms", Lower, "latency_ms@shard_100k"),
    // serve (cpgan-serve): replayed calls at the served request shape
    layer("serve.parse_request_us", "us", Lower, "latency_ms@serve_hit"),
    layer("serve.body_parse_us", "us", Lower, "latency_ms@serve_hit"),
    layer("serve.cache_get_us", "us", Lower, "latency_ms@serve_hit"),
    layer("serve.cache_insert_us", "us", Lower, "latency_ms@serve_miss"),
    layer("serve.encode_head_us", "us", Lower, "latency_ms@serve_hit"),
    // serve (cpgan-serve): read from the obs that serving always records
    layer("serve.generate_ms", "ms", Lower, "latency_ms@serve_miss"),
    layer("serve.event_loop_cpu_us", "us", Lower, "latency_ms@serve_hit"),
    layer("serve.queue_wait_ms.mean", "ms", Lower, "latency_ms@serve_miss"),
    layer("serve.queue_wait_ms.p99", "ms", Lower, "latency_ms@serve_miss"),
    layer("serve.server_latency_ms.p50", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("serve.server_latency_ms.p99", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("serve.client_wait_ms", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("serve.client_p99_ms", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("serve.cache_hit_ratio", "ratio", Higher, "latency_ms@serve_hit"),
    layer("serve.cache_evictions", "count", Lower, "latency_ms@serve_miss"),
    layer("serve.batch_size_mean", "count", Higher, "latency_ms@serve_miss"),
    layer("serve.rejected", "count", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("serve.timed_out", "count", Lower, "latency_ms@serve_miss,serve_hit"),
    // obs (cpgan-obs), enabled-mode cost
    layer("obs.span_ns", "ns", Lower, "latency_ms@serve_hit"),
    layer("obs.counter_ns", "ns", Lower, "latency_ms@serve_hit"),
    // the load generator's own health (validity, not a target)
    layer("loadgen.late_ms.p99", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
    layer("loadgen.late_ms.max", "ms", Lower, "latency_ms@serve_miss,serve_hit"),
];

/// The registered workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The registry as text: workloads with their reasons, end-to-end metrics
/// with direction and bound, per-layer metrics with what they should move.
pub fn listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<14} {}", w.name, w.why);
    }
    out.push_str("end-to-end metrics (untraced pass)\n");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<12} {:<4} {:<6} bound {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    out.push_str("per-layer metrics (traced pass)\n");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<34} {:<5} {:<6} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

/// Unit of a registered metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        serde_json::parse_value(&text).unwrap_or(Value::Null)
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            _ => &[],
        }
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry_both_ways() {
        let doc = benchmark_json();
        let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (str_field(w, "name"), str_field(w, "why")))
            .collect();
        let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected, "workloads differ from the registry");

        let e2e: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    str_field(m, "name"),
                    str_field(m, "unit"),
                    str_field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect();
        let expected: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
            .collect();
        assert_eq!(e2e.len(), expected.len(), "end_to_end count");
        for (got, want) in e2e.iter().zip(&expected) {
            assert_eq!((got.0, got.1, got.2), (want.0, want.1, want.2));
            assert!((got.3 - want.3).abs() < 1e-12, "{} bound", want.0);
        }

        let layers: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    str_field(m, "name"),
                    str_field(m, "unit"),
                    str_field(m, "better"),
                )
            })
            .collect();
        let expected: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(layers, expected, "per_layer differs from the registry");

        let paths = entries(&doc, "paths");
        assert!(paths.iter().any(
            |p| matches!(p, Value::Str(s) if s.trim_end_matches('/') == "crates/bench/suite")
        ));
    }
}
