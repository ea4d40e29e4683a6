//! The workloads and the helpers they share: repeated set-up, the timed
//! loop, memory and output fingerprints.

pub mod cpgan;
pub mod serve;
pub mod shard;

use crate::report::Recorder;
use crate::stats::median;
use cpgan_graph::Graph;
use std::time::Instant;

/// The seed whose outputs are pinned by FNV-1a fingerprints.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more while they add
/// up to under [`SETUP_BUDGET_S`] (cheap set-ups get more samples), at most
/// [`SETUP_MAX_REPS`]. `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 25;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
}

/// Runs `workload` under `ctx`, recording into `rec`. An `Err` is an
/// operation that could not run at all; it is recorded as a failed check.
pub fn run(name: &str, ctx: &Ctx, rec: &mut Recorder) {
    let outcome = match name {
        "fit_10k" => cpgan::fit_10k(ctx, rec),
        "generate_10k" => cpgan::generate_10k(ctx, rec),
        "shard_100k" => shard::shard_100k(ctx, rec),
        "serve_miss" => serve::serve(ctx, rec, serve::Mode::Miss),
        "serve_hit" => serve::serve(ctx, rec, serve::Mode::Hit),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        rec.check("workload ran", false, e);
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the set-up repeatedly (see [`SETUP_MIN_REPS`]), keeping the last
/// result (earlier ones are dropped before the next starts) and recording
/// `setup_s` as the median.
pub fn setup<T>(rec: &mut Recorder, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let mut samples: Vec<f64> = Vec::new();
    let mut kept = None;
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(f()?);
        samples.push(secs(start));
    }
    rec.set("setup_s", median(&samples).unwrap_or(0.0), samples.len());
    kept.ok_or_else(|| "set-up never ran".to_string())
}

/// Repeats `op` (called with its index) until `seconds` have passed and at
/// least `min` timed operations ran; returns each timed operation's
/// milliseconds. Operation 0 is a warm-up whose time is not kept: the
/// first full-size operation after set-up runs measurably slower.
pub fn repeat(
    seconds: f64,
    min: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    op(0)?;
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || secs(start) < seconds {
        let t = Instant::now();
        op(times.len() + 1)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

/// Peak resident set size of this process so far, in MiB, from the
/// kernel's `VmHWM` — what a user watching the process sees.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (ms) this process's thread named `name` has run so far, from
/// the nanosecond counter in `/proc/self/task/*/schedstat`. The kernel
/// keeps the first 15 bytes of a thread name.
pub fn thread_cpu_ms(name: &str) -> Option<f64> {
    let name = name.get(..15).unwrap_or(name);
    let mut tasks: Vec<_> = std::fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    tasks.sort();
    tasks.iter().find_map(|task| {
        let comm = std::fs::read_to_string(task.join("comm")).ok()?;
        if comm.trim() != name {
            return None;
        }
        let schedstat = std::fs::read_to_string(task.join("schedstat")).ok()?;
        let ns: f64 = schedstat.split_whitespace().next()?.parse().ok()?;
        Some(ns / 1e6)
    })
}

/// Records `peak_mib`: the process's peak RSS where the kernel reports
/// it, else the tensor allocator's peak; either over the whole run.
pub fn record_peak(rec: &mut Recorder) {
    let mib =
        peak_rss_mib().unwrap_or_else(|| cpgan_nn::memory::peak_bytes() as f64 / (1 << 20) as f64);
    rec.set("peak_mib", mib, 1);
}

/// The edge-list bytes `cpgan generate` and the server write for `g`.
pub fn edge_list(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = cpgan_graph::io::write_edge_list(g, &mut out);
    out
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks a fingerprint against its pin when running at [`DEFAULT_SEED`].
pub fn check_pin(rec: &mut Recorder, ctx: &Ctx, what: &str, got: u64, pinned: u64) {
    if ctx.seed == DEFAULT_SEED {
        rec.check(
            &format!("{what} FNV-1a pin"),
            got == pinned,
            format!("got {got:#018x}, pinned {pinned:#018x}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn repeat_meets_both_minimums() {
        let mut calls = 0;
        let times = repeat(0.0, 3, |i| {
            assert_eq!(i, calls);
            calls += 1;
            Ok(())
        })
        .unwrap_or_default();
        assert_eq!(times.len(), 3, "the warm-up is not timed");
        assert_eq!(calls, 4);
        let mut calls = 0;
        let err = repeat(10.0, 1, |_| {
            calls += 1;
            Err("boom".to_string())
        });
        assert_eq!(err, Err("boom".to_string()));
        assert_eq!(calls, 1);
    }
}
