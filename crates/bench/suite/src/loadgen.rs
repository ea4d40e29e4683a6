//! Open-loop HTTP load: seeded Poisson arrivals over two pipelined
//! keep-alive connections, one sender thread and one receiver thread.
//!
//! Every request is timed from its *due* time, not from when it was
//! written, so a stalled server (or a late sender) shows up as latency
//! instead of silently lowering the offered rate — the coordinated-omission
//! trap of closed-loop clients. The sender records how late it wrote each
//! request; a step whose sender was itself late is marked invalid rather
//! than blamed on the server.

use crate::stats::percentile;
use cpgan_serve::http::parse_reply;
use polling::{Event, Events, Poller};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Keep-alive connections the load is spread over, round-robin.
pub const CONNECTIONS: usize = 2;
/// A step is invalid when the generator's p99 lateness exceeds this share
/// of the latency limit: then it measured its own sender, not the server.
pub const MAX_LATE_SHARE: f64 = 0.1;
/// How long the receiver waits for stragglers after the last send. Longer
/// than the server's default 5 s deadline, so every admitted request is
/// answered (200 or 408) before the receiver gives up on it.
const DRAIN: Duration = Duration::from_secs(6);
/// Lead time between spawning the threads and the first due time.
const LEAD: Duration = Duration::from_millis(20);

/// One constant-rate step of offered load.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered requests per second.
    pub rate: f64,
    /// Minimum length of the step.
    pub duration: Duration,
    /// Minimum number of requests (the step runs until both minimums hold).
    pub min_requests: usize,
}

impl Step {
    /// Seeded Poisson arrival offsets from the step start.
    pub fn schedule(&self, seed: u64) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let mut out = Vec::new();
        let horizon = self.duration.as_secs_f64();
        while t < horizon || out.len() < self.min_requests {
            // Exponential inter-arrival by inversion; 1 - u avoids ln(0).
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / self.rate;
            out.push(Duration::from_secs_f64(t));
        }
        out
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Due time, from the step start.
    pub due_ms: f64,
    /// How late the sender wrote it.
    pub late_ms: f64,
    /// Due-to-reply latency; `None` when no reply arrived.
    pub latency_ms: Option<f64>,
    /// Reply status (0 when no reply arrived).
    pub status: u16,
}

/// The measured outcome of one step.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// One record per scheduled request, in send order.
    pub records: Vec<Record>,
    /// Replies still outstanding when the sender finished.
    pub backlog_at_stop: usize,
    /// Request-index/body pairs the caller asked to keep.
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// Connection-level failures (reset, short reply, bad framing).
    pub transport_errors: u64,
}

/// Verdict on a step against a latency limit.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Met the limit with no backlog.
    Pass,
    /// Missed the limit or left a backlog.
    Fail(String),
    /// The generator itself was late; the step measures nothing.
    Invalid(String),
}

impl StepOutcome {
    /// Latencies (ms) of 200 replies, ascending.
    pub fn ok_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.status == 200)
            .filter_map(|r| r.latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Latencies of every request, ascending, with failed or unanswered
    /// ones counted as infinitely slow (so they can only push a tail up).
    pub fn all_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .map(|r| match (r.status, r.latency_ms) {
                (200, Some(l)) => l,
                _ => f64::INFINITY,
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sender lateness (ms), ascending.
    pub fn late(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().map(|r| r.late_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Requests without a 200 reply, plus transport errors.
    pub fn failures(&self) -> u64 {
        self.records.iter().filter(|r| r.status != 200).count() as u64
    }

    /// p50 (ms) of the 200 replies in each of `windows` equal slices of
    /// the step, by due time. Windows too small to resolve a p50 are
    /// skipped.
    pub fn window_p50s(&self, windows: usize) -> Vec<f64> {
        let end = self.records.iter().map(|r| r.due_ms).fold(0.0, f64::max);
        let width = end / windows.max(1) as f64;
        (0..windows)
            .filter_map(|w| {
                let lo = w as f64 * width;
                let hi = if w + 1 == windows {
                    f64::INFINITY
                } else {
                    lo + width
                };
                let mut v: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| r.status == 200 && r.due_ms >= lo && r.due_ms < hi)
                    .filter_map(|r| r.latency_ms)
                    .collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, 0.5)
            })
            .collect()
    }
}

/// The highest percentile with at least ten samples beyond it, of p99 and
/// p90, and its value: the percentile a step's latency limit applies to.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.99, 0.9]
        .into_iter()
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Judges a step against a latency limit. Invalid when the generator's p99
/// lateness exceeds [`MAX_LATE_SHARE`] of the limit; otherwise a pass needs
/// the step's [`tail`] (failed and unanswered requests count as infinitely
/// slow) within `limit_ms`, and at most `ceil(rate * limit) + 2` replies
/// outstanding when sending stopped.
pub fn judge(
    all_latencies: &[f64],
    late: &[f64],
    backlog_at_stop: usize,
    rate: f64,
    limit_ms: f64,
) -> Verdict {
    let max_late = limit_ms * MAX_LATE_SHARE;
    match percentile(late, 0.99).or_else(|| late.last().copied()) {
        Some(l) if l > max_late => {
            return Verdict::Invalid(format!(
                "generator p99 lateness {l:.3} ms over {max_late} ms"
            ))
        }
        None => return Verdict::Invalid("no requests".to_string()),
        Some(_) => {}
    }
    let allowed = (rate * limit_ms / 1e3).ceil() as usize + 2;
    if backlog_at_stop > allowed {
        return Verdict::Fail(format!(
            "backlog of {backlog_at_stop} replies at stop (allowed {allowed})"
        ));
    }
    match tail(all_latencies) {
        Some((_, v)) if v <= limit_ms => Verdict::Pass,
        Some((q, v)) => Verdict::Fail(format!(
            "p{:.0} {v:.3} ms over the {limit_ms} ms limit",
            q * 100.0
        )),
        None => Verdict::Fail("too few requests to resolve a p90".to_string()),
    }
}

/// Wire bytes of one `POST /v1/generate` request.
pub fn request_bytes(nodes: usize, edges: usize, seed: u64) -> Vec<u8> {
    let body = format!("{{\"nodes\":{nodes},\"edges\":{edges},\"seed\":{seed}}}");
    format!(
        "POST /v1/generate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

struct Pending {
    idx: usize,
    due: Instant,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one step against `addr`. `request(i)` gives the wire bytes of
/// request `i`; `keep_body(i)` says whether to return its reply body.
pub fn run_step(
    addr: SocketAddr,
    step: &Step,
    schedule_seed: u64,
    request: &(dyn Fn(usize) -> Vec<u8> + Sync),
    keep_body: &(dyn Fn(usize) -> bool + Sync),
) -> std::io::Result<StepOutcome> {
    let schedule = step.schedule(schedule_seed);
    let n = schedule.len();
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        // Both halves stay blocking: the receiver only reads after
        // poll(2) reports readiness, so it never blocks, and the sender's
        // blocking write is the backpressure a real client would feel.
        readers.push(s.try_clone()?);
        writers.push(s);
    }
    let pending: Vec<Mutex<VecDeque<Pending>>> = (0..CONNECTIONS)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let answered = AtomicUsize::new(0);
    let sending_done = AtomicBool::new(false);
    let start = Instant::now() + LEAD;

    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_all(
                &schedule,
                start,
                &mut writers,
                &pending,
                request,
                &answered,
                &sending_done,
            )
        });
        let receiver =
            scope.spawn(|| receive_all(&readers, &pending, n, &answered, &sending_done, keep_body));
        let sent = sender.join();
        let received = receiver.join();
        (sent, received)
    });
    let (late_ms, backlog_at_stop, send_errors) =
        sent.map_err(|_| std::io::Error::other("sender thread panicked"))?;
    let (replies, bodies, recv_errors) =
        received.map_err(|_| std::io::Error::other("receiver thread panicked"))?;

    let mut records: Vec<Record> = schedule
        .iter()
        .zip(
            late_ms
                .iter()
                .copied()
                .chain(std::iter::repeat(f64::INFINITY)),
        )
        .map(|(due, late)| Record {
            due_ms: due.as_secs_f64() * 1e3,
            late_ms: late,
            latency_ms: None,
            status: 0,
        })
        .collect();
    for (idx, latency_ms, status) in replies {
        if let Some(r) = records.get_mut(idx) {
            r.latency_ms = Some(latency_ms);
            r.status = status;
        }
    }
    Ok(StepOutcome {
        records,
        backlog_at_stop,
        bodies,
        transport_errors: send_errors + recv_errors,
    })
}

/// Sender: writes every request at (or as soon as possible after) its due
/// time, batching everything already due into one write per connection.
/// Returns per-request lateness, the backlog when it finished, and errors.
fn send_all(
    schedule: &[Duration],
    start: Instant,
    writers: &mut [TcpStream],
    pending: &[Mutex<VecDeque<Pending>>],
    request: &(dyn Fn(usize) -> Vec<u8> + Sync),
    answered: &AtomicUsize,
    sending_done: &AtomicBool,
) -> (Vec<f64>, usize, u64) {
    let n = schedule.len();
    let mut late_ms = Vec::with_capacity(n);
    let mut dead = [false; CONNECTIONS];
    let mut errors = 0u64;
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let mut i = 0;
    while i < n {
        let now = Instant::now();
        let due = start + schedule[i];
        if due > now {
            std::thread::sleep(due - now);
            continue;
        }
        while i < n && start + schedule[i] <= now {
            let c = i % CONNECTIONS;
            let due = start + schedule[i];
            late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
            if !dead[c] {
                lock(&pending[c]).push_back(Pending { idx: i, due });
                bufs[c].extend_from_slice(&request(i));
            }
            i += 1;
        }
        for c in 0..CONNECTIONS {
            if bufs[c].is_empty() {
                continue;
            }
            if writers[c].write_all(&bufs[c]).is_err() {
                dead[c] = true;
                errors += 1;
            }
            bufs[c].clear();
        }
    }
    let backlog = n.saturating_sub(answered.load(Ordering::SeqCst));
    // No half-close here: the server drops a connection once it has seen
    // EOF and finished a write, so pipelined requests still buffered on
    // its side would go unanswered. The sockets close when the step ends.
    sending_done.store(true, Ordering::SeqCst);
    (late_ms, backlog, errors)
}

type Replies = (Vec<(usize, f64, u16)>, Vec<(usize, Vec<u8>)>, u64);

/// Receiver: polls both connections, decodes pipelined replies in order,
/// and matches each to the oldest pending request on its connection.
fn receive_all(
    readers: &[TcpStream],
    pending: &[Mutex<VecDeque<Pending>>],
    n: usize,
    answered: &AtomicUsize,
    sending_done: &AtomicBool,
    keep_body: &(dyn Fn(usize) -> bool + Sync),
) -> Replies {
    let mut replies = Vec::with_capacity(n);
    let mut bodies = Vec::new();
    let mut errors = 0u64;
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return (replies, bodies, 1),
    };
    let mut open = [true; CONNECTIONS];
    for (c, r) in readers.iter().enumerate() {
        if poller.add(r, Event::readable(c)).is_err() {
            open[c] = false;
            errors += 1;
        }
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let mut offs = [0usize; CONNECTIONS];
    let mut chunk = vec![0u8; 256 * 1024];
    let mut events = Events::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if sending_done.load(Ordering::SeqCst) {
            let outstanding: usize = pending.iter().map(|p| lock(p).len()).sum();
            if outstanding == 0 || !open.iter().any(|&o| o) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                break;
            }
        }
        if poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            errors += 1;
            break;
        }
        for ev in events.iter() {
            let c = ev.key;
            if c >= CONNECTIONS || !open[c] {
                continue;
            }
            let got = (&readers[c]).read(&mut chunk);
            let now = Instant::now();
            match got {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Ok(0) | Err(_) => {
                    open[c] = false;
                    let _ = poller.delete(&readers[c]);
                    continue;
                }
                Ok(k) => bufs[c].extend_from_slice(&chunk[..k]),
            }
            loop {
                match parse_reply(&bufs[c][offs[c]..]) {
                    Ok(Some((reply, used))) => {
                        offs[c] += used;
                        let Some(p) = lock(&pending[c]).pop_front() else {
                            errors += 1;
                            continue;
                        };
                        let latency = now.duration_since(p.due).as_secs_f64() * 1e3;
                        replies.push((p.idx, latency, reply.status));
                        answered.fetch_add(1, Ordering::SeqCst);
                        if keep_body(p.idx) {
                            bodies.push((p.idx, reply.body));
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        errors += 1;
                        open[c] = false;
                        let _ = poller.delete(&readers[c]);
                        break;
                    }
                }
            }
            if offs[c] == bufs[c].len() {
                bufs[c].clear();
                offs[c] = 0;
            } else if offs[c] > (1 << 20) {
                bufs[c].drain(..offs[c]);
                offs[c] = 0;
            }
        }
    }
    (replies, bodies, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_ms(n: usize, top: f64) -> Vec<f64> {
        (1..=n).map(|i| top * i as f64 / n as f64).collect()
    }

    #[test]
    fn schedule_is_seeded_and_meets_both_minimums() {
        let step = Step {
            rate: 1000.0,
            duration: Duration::from_millis(500),
            min_requests: 800,
        };
        let a = step.schedule(3);
        assert_eq!(a, step.schedule(3));
        assert_ne!(a, step.schedule(4));
        assert!(a.len() >= 800);
        assert!(a.last().is_some_and(|t| t.as_secs_f64() >= 0.5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival ~ 1 ms.
        let mean = a.last().map_or(0.0, |t| t.as_secs_f64()) / a.len() as f64;
        assert!((mean - 1e-3).abs() < 2e-4, "mean gap {mean}");
    }

    #[test]
    fn fast_step_with_no_backlog_passes() {
        let lat = ramp_ms(1000, 5.0);
        let late = vec![0.05; 1000];
        assert_eq!(judge(&lat, &late, 2, 100.0, 50.0), Verdict::Pass);
    }

    #[test]
    fn slow_tail_fails() {
        let mut lat = ramp_ms(1000, 5.0);
        for l in lat.iter_mut().skip(985) {
            *l = 80.0;
        }
        let late = vec![0.05; 1000];
        assert!(matches!(
            judge(&lat, &late, 0, 100.0, 50.0),
            Verdict::Fail(m) if m.contains("p99")
        ));
    }

    #[test]
    fn unanswered_requests_count_as_slow() {
        let mut lat = ramp_ms(1000, 5.0);
        for l in lat.iter_mut().skip(980) {
            *l = f64::INFINITY;
        }
        let late = vec![0.05; 1000];
        assert!(matches!(
            judge(&lat, &late, 0, 100.0, 50.0),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn backlog_beyond_allowance_fails_even_with_fast_replies() {
        let lat = ramp_ms(1000, 5.0);
        let late = vec![0.05; 1000];
        // ceil(100 rps * 50 ms) + 2 = 7 outstanding allowed.
        assert_eq!(judge(&lat, &late, 7, 100.0, 50.0), Verdict::Pass);
        assert!(matches!(
            judge(&lat, &late, 8, 100.0, 50.0),
            Verdict::Fail(m) if m.contains("backlog")
        ));
    }

    #[test]
    fn late_generator_invalidates_the_step() {
        let lat = ramp_ms(1000, 5.0);
        let mut late = vec![0.05; 1000];
        for l in late.iter_mut().skip(985) {
            *l = 6.0;
        }
        // 6 ms of lateness is over a tenth of a 50 ms limit...
        assert!(matches!(
            judge(&lat, &late, 0, 100.0, 50.0),
            Verdict::Invalid(_)
        ));
        // ...but within a tenth of a 100 ms one.
        assert_eq!(judge(&lat, &late, 0, 100.0, 100.0), Verdict::Pass);
    }

    #[test]
    fn short_steps_are_judged_on_their_p90() {
        // 500 samples resolve a p90 (rank 450, 50 beyond) but not a p99.
        let mut lat = ramp_ms(500, 5.0);
        for l in lat.iter_mut().skip(460) {
            *l = 80.0;
        }
        assert_eq!(tail(&lat).map(|t| t.0), Some(0.9));
        let late = vec![0.05; 500];
        assert_eq!(judge(&lat, &late, 0, 100.0, 50.0), Verdict::Pass);
        for l in lat.iter_mut().skip(440) {
            *l = 80.0;
        }
        assert!(matches!(
            judge(&lat, &late, 0, 100.0, 50.0),
            Verdict::Fail(m) if m.contains("p90")
        ));
        // Fewer than 100 samples resolve neither.
        assert!(matches!(
            judge(&lat[..90], &late[..90], 0, 100.0, 50.0),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn window_p50s_split_by_due_time() {
        let records: Vec<Record> = (0..90)
            .map(|i| Record {
                due_ms: i as f64,
                late_ms: 0.0,
                latency_ms: Some(if i < 30 {
                    1.0
                } else if i < 60 {
                    2.0
                } else {
                    3.0
                }),
                status: 200,
            })
            .collect();
        let out = StepOutcome {
            records,
            ..StepOutcome::default()
        };
        assert_eq!(out.window_p50s(3), vec![1.0, 2.0, 3.0]);
    }
}
