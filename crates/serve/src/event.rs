//! The `poll(2)` event loop: one thread, every socket.
//!
//! A single `serve-event` thread owns the listener and all client
//! connections. Each iteration waits on the poller (timeout = the
//! nearest connection deadline, or forever when nothing is pending),
//! then services readiness events, worker completions, and deadlines.
//! Idle keep-alive sockets cost one map entry and zero threads; wakeups
//! (worker completions, shutdown) arrive through the poller's notify
//! channel, so nothing in the serving path ever sleep-polls.
//!
//! Connection lifecycle: `Reading` sockets are registered for `POLLIN`
//! and parsed incrementally; a complete request is answered inline
//! (cheap routes, errors, **cache hits**) or dispatched to the worker
//! queue, during which the socket is *deregistered* (`Dispatched`) —
//! pipelined bytes simply wait in kernel/user buffers. Responses write
//! non-blockingly (`Writing`, `POLLOUT` on short writes); when a
//! keep-alive response completes, leftover buffered bytes are parsed
//! immediately, so pipelined requests drain back-to-back without extra
//! round trips.

use crate::conn::{Conn, ConnState};
use crate::error::ServeError;
use crate::http::{self, Response};
use crate::queue::PushError;
use crate::server::{self, Job, Shared};
use cpgan_obs::{counter_add, gauge_set, hist_record, Stopwatch};
use polling::{Event, Events, Poller};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Poller key of the listening socket; connection ids start above it.
const LISTENER_KEY: usize = 0;

/// What a connection should do next after a service step.
enum Flow {
    /// Close and forget the connection.
    Remove,
    /// Response in progress; wait for `POLLOUT`.
    AwaitWritable,
    /// Response finished (or nothing to write); keep reading/parsing.
    KeepGoing,
}

/// Runs the event loop until shutdown; errors are terminal for the
/// serving process and logged (the bind itself already succeeded, so
/// this is poller registration failing — not a per-request condition).
pub(crate) fn run(listener: TcpListener, shared: &Shared) {
    if let Err(e) = event_loop(listener, shared) {
        counter_add("serve.event_loop_error", 1);
        eprintln!("cpgan-serve: event loop failed: {e}");
    }
}

fn event_loop(listener: TcpListener, shared: &Shared) -> std::io::Result<()> {
    let poller = &shared.poller;
    poller.add(&listener, Event::readable(LISTENER_KEY))?;
    let mut listener = Some(listener);
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    let mut next_id = LISTENER_KEY + 1;
    let mut events = Events::new();
    let mut draining = false;

    loop {
        events.clear();
        poller.wait(&mut events, wait_timeout(&conns, shared, draining))?;

        if !draining && shared.stop.load(Ordering::SeqCst) {
            draining = true;
            if let Some(l) = listener.take() {
                let _ = poller.delete(&l);
            }
            begin_drain(&mut conns, poller);
        }

        for ev in events.iter() {
            if ev.key == LISTENER_KEY {
                if let Some(l) = listener.as_ref() {
                    accept_burst(l, &mut conns, &mut next_id, shared, poller);
                }
                continue;
            }
            let remove = match conns.get_mut(&ev.key) {
                Some(conn) => service_event(ev.key, conn, shared, poller),
                None => false,
            };
            if remove {
                drop_conn(&mut conns, ev.key, poller);
            }
        }

        for completion in shared.take_completions() {
            let remove = match conns.get_mut(&completion.conn_id) {
                Some(conn) => {
                    let flow = respond(completion.conn_id, conn, completion.response, poller);
                    after_write(completion.conn_id, conn, flow, shared, poller)
                }
                None => {
                    // The connection died (deadline, peer reset) before
                    // its job finished; the response has no home.
                    counter_add("serve.orphan_completion", 1);
                    continue;
                }
            };
            if remove {
                drop_conn(&mut conns, completion.conn_id, poller);
            }
        }

        enforce_deadlines(&mut conns, shared, poller);
        gauge_set("serve.open_conns", conns.len() as f64);

        if draining && conns.is_empty() {
            break;
        }
    }
    Ok(())
}

/// The poller timeout: the nearest deadline across all connections
/// (idle cutoff while parked, request deadline while parsing, write
/// budget while responding). `None` — wait indefinitely — when every
/// wakeup will come from readiness or a notify.
fn wait_timeout(
    conns: &BTreeMap<usize, Conn>,
    shared: &Shared,
    draining: bool,
) -> Option<Duration> {
    if draining && conns.is_empty() {
        return Some(Duration::ZERO);
    }
    let mut nearest: Option<Duration> = None;
    for conn in conns.values() {
        let remaining = match conn.state {
            ConnState::Dispatched => continue,
            ConnState::Reading => match conn.request_sw {
                Some(sw) => shared
                    .deadline
                    .saturating_sub(Duration::from_nanos(sw.elapsed_ns())),
                None => shared
                    .idle
                    .saturating_sub(Duration::from_nanos(conn.idle_sw.elapsed_ns())),
            },
            ConnState::Writing => shared
                .deadline
                .saturating_sub(Duration::from_nanos(conn.idle_sw.elapsed_ns())),
        };
        nearest = Some(match nearest {
            Some(n) => n.min(remaining),
            None => remaining,
        });
    }
    nearest
}

fn accept_burst(
    listener: &TcpListener,
    conns: &mut BTreeMap<usize, Conn>,
    next_id: &mut usize,
    shared: &Shared,
    poller: &Poller,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counter_add("serve.accepted", 1);
                if conns.len() >= shared.max_conns {
                    let err = ServeError::OverCapacity {
                        limit: shared.max_conns,
                    };
                    server::count_error(&err);
                    turn_away(stream, &err);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    counter_add("serve.accept_error", 1);
                    continue;
                }
                // Small request/response exchanges should not wait on
                // Nagle; best-effort (not every platform supports it).
                let _ = stream.set_nodelay(true);
                let conn = Conn::new(stream);
                let id = *next_id;
                *next_id += 1;
                if poller.add(&conn.stream, Event::readable(id)).is_err() {
                    counter_add("serve.accept_error", 1);
                    continue;
                }
                conns.insert(id, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                counter_add("serve.accept_error", 1);
                break;
            }
        }
    }
}

/// Best-effort rejection of a socket we will not track: one write into
/// the (empty, thus willing) socket buffer, then drop.
fn turn_away(mut stream: TcpStream, err: &ServeError) {
    let response = server::error_response(err);
    let mut wire = http::encode_head(&response, false, false);
    wire.extend_from_slice(&response.body);
    let _ = stream.write_all(&wire);
}

/// Services one readiness event. Returns `true` when the connection
/// must be dropped.
fn service_event(id: usize, conn: &mut Conn, shared: &Shared, poller: &Poller) -> bool {
    match conn.state {
        ConnState::Reading => {
            if conn.read_available().is_err() {
                return true;
            }
            matches!(advance_reading(id, conn, shared, poller), Flow::Remove)
        }
        ConnState::Writing => {
            let flow = pump_write(id, conn, poller);
            after_write(id, conn, flow, shared, poller)
        }
        // Dispatched sockets are deregistered; a stray event (e.g. a
        // wakeup raced the deregistration) is ignored.
        ConnState::Dispatched => false,
    }
}

/// Follows a write step: once the response is out, the buffer may hold
/// the next pipelined request. Returns `true` when the connection must
/// be dropped.
fn after_write(id: usize, conn: &mut Conn, flow: Flow, shared: &Shared, poller: &Poller) -> bool {
    match flow {
        Flow::Remove => true,
        Flow::AwaitWritable => false,
        Flow::KeepGoing => matches!(advance_reading(id, conn, shared, poller), Flow::Remove),
    }
}

/// Parses and handles as many complete requests as the buffer holds.
/// Stops when bytes run out (keep reading), a response blocks on
/// `POLLOUT`, a job is dispatched, or the connection must close.
fn advance_reading(id: usize, conn: &mut Conn, shared: &Shared, poller: &Poller) -> Flow {
    loop {
        if conn.state != ConnState::Reading {
            return Flow::KeepGoing;
        }
        match http::parse_request(&conn.buf) {
            Ok(Some((request, used))) => {
                conn.buf.drain(..used);
                counter_add("serve.requests", 1);
                if conn.request_sw.is_none() {
                    // A pipelined request that was already buffered when
                    // the previous response finished starts its clock
                    // now.
                    conn.request_sw = Some(Stopwatch::start());
                }
                if !request.wants_keep_alive() {
                    conn.close_after_write = true;
                }
                match handle_request(id, conn, &request, shared, poller) {
                    Flow::KeepGoing => continue,
                    other => return other,
                }
            }
            Ok(None) => {
                if conn.eof {
                    if conn.buf.is_empty() {
                        return Flow::Remove;
                    }
                    let err = ServeError::BadRequest("connection closed mid-request".to_string());
                    server::count_error(&err);
                    conn.close_after_write = true;
                    return respond(id, conn, server::error_response(&err), poller);
                }
                return Flow::KeepGoing;
            }
            Err(err) => {
                // Framing is unrecoverable: answer and close.
                server::count_error(&err);
                conn.close_after_write = true;
                return respond(id, conn, server::error_response(&err), poller);
            }
        }
    }
}

/// Routes one parsed request: inline answer, cache hit, or dispatch.
fn handle_request(
    id: usize,
    conn: &mut Conn,
    request: &http::Request,
    shared: &Shared,
    poller: &Poller,
) -> Flow {
    match answer_or_dispatch(id, conn, request, shared) {
        Ok(Some(response)) => respond(id, conn, response, poller),
        Ok(None) => {
            conn.state = ConnState::Dispatched;
            // Ignore the socket until the completion arrives; pipelined
            // bytes wait their turn in the buffers.
            let _ = poller.delete(&conn.stream);
            Flow::KeepGoing
        }
        Err(err) => {
            server::count_error(&err);
            respond(id, conn, server::error_response(&err), poller)
        }
    }
}

/// The inline answer to `request` (cheap routes, cache hits), or `None`
/// once its generation job is queued.
fn answer_or_dispatch(
    id: usize,
    conn: &Conn,
    request: &http::Request,
    shared: &Shared,
) -> Result<Option<Response>, ServeError> {
    let (key, model) = match server::route(shared, request)? {
        server::Routed::Respond(response) => return Ok(Some(response)),
        server::Routed::Generate { key, model } => (key, model),
    };
    if let Some(body) = shared.cache.get(&key) {
        return Ok(Some(Response::shared(200, body)));
    }
    if shared.stop.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let job = Job {
        conn_id: id,
        key,
        model,
        sw: conn.request_sw.unwrap_or_else(Stopwatch::start),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            gauge_set("serve.queue_depth", shared.queue.len() as f64);
            Ok(None)
        }
        Err(PushError::Full(_)) => Err(ServeError::QueueFull {
            depth: shared.queue.capacity(),
        }),
        Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
    }
}

/// Starts writing `response` and pushes as much as the socket takes.
fn respond(id: usize, conn: &mut Conn, response: Response, poller: &Poller) -> Flow {
    conn.begin_response(response);
    // The write budget starts now: a peer that stops draining mid-
    // response is cut off one deadline later (`enforce_deadlines`).
    conn.idle_sw = Stopwatch::start();
    pump_write(id, conn, poller)
}

/// Advances an in-progress response write and rotates the state machine
/// when it completes.
fn pump_write(id: usize, conn: &mut Conn, poller: &Poller) -> Flow {
    let status = conn.writer.as_ref().map(|w| w.status()).unwrap_or(200);
    let sw = conn.request_sw;
    match conn.write_pending() {
        Err(_) => {
            counter_add("serve.write_error", 1);
            Flow::Remove
        }
        Ok(true) => {
            if status == 200 {
                counter_add("serve.ok", 1);
            }
            if let Some(sw) = sw {
                hist_record("serve.request_latency_ns", sw.elapsed_ns() as f64);
            }
            if conn.close_after_write || conn.eof {
                return Flow::Remove;
            }
            set_interest(poller, &conn.stream, Event::readable(id));
            Flow::KeepGoing
        }
        Ok(false) => {
            set_interest(poller, &conn.stream, Event::writable(id));
            Flow::AwaitWritable
        }
    }
}

/// Points the poller's interest for a socket at `event`, registering it
/// first if a dispatch had deregistered it.
fn set_interest(poller: &Poller, stream: &TcpStream, event: Event) {
    if let Err(e) = poller.modify(stream, event) {
        if e.kind() == std::io::ErrorKind::NotFound && poller.add(stream, event).is_err() {
            counter_add("serve.poller_error", 1);
        }
    }
}

/// Applies idle, request, and write deadlines across all connections.
fn enforce_deadlines(conns: &mut BTreeMap<usize, Conn>, shared: &Shared, poller: &Poller) {
    let ids: Vec<usize> = conns.keys().copied().collect();
    for id in ids {
        let Some(conn) = conns.get_mut(&id) else {
            continue;
        };
        let remove = match conn.state {
            ConnState::Dispatched => false,
            ConnState::Reading => match conn.request_sw {
                Some(sw) => {
                    // Slow header/body (slowloris): the request's clock
                    // ran out before it finished arriving.
                    if Duration::from_nanos(sw.elapsed_ns()) >= shared.deadline {
                        let err = ServeError::DeadlineExceeded {
                            waited_ms: sw.elapsed_ns() / 1_000_000,
                            deadline_ms: shared.deadline.as_millis() as u64,
                        };
                        server::count_error(&err);
                        conn.close_after_write = true;
                        matches!(
                            respond(id, conn, server::error_response(&err), poller),
                            Flow::Remove
                        )
                    } else {
                        false
                    }
                }
                None => {
                    // Parked keep-alive connection past the idle cutoff:
                    // close silently (this is normal keep-alive hygiene,
                    // not an error).
                    if Duration::from_nanos(conn.idle_sw.elapsed_ns()) >= shared.idle {
                        counter_add("serve.idle_close", 1);
                        true
                    } else {
                        false
                    }
                }
            },
            ConnState::Writing => {
                // The peer stopped draining the response.
                if Duration::from_nanos(conn.idle_sw.elapsed_ns()) >= shared.deadline {
                    counter_add("serve.write_stall_close", 1);
                    true
                } else {
                    false
                }
            }
        };
        if remove {
            drop_conn(conns, id, poller);
        }
    }
}

/// On shutdown: parked connections close now; anything mid-request is
/// answered `503`; dispatched/writing connections finish their response
/// and then close. Nothing already admitted is dropped.
fn begin_drain(conns: &mut BTreeMap<usize, Conn>, poller: &Poller) {
    let ids: Vec<usize> = conns.keys().copied().collect();
    for id in ids {
        let Some(conn) = conns.get_mut(&id) else {
            continue;
        };
        let remove = match conn.state {
            ConnState::Reading => {
                if conn.buf.is_empty() && conn.request_sw.is_none() {
                    true
                } else {
                    let err = ServeError::ShuttingDown;
                    server::count_error(&err);
                    conn.close_after_write = true;
                    matches!(
                        respond(id, conn, server::error_response(&err), poller),
                        Flow::Remove
                    )
                }
            }
            ConnState::Dispatched | ConnState::Writing => {
                conn.close_after_write = true;
                false
            }
        };
        if remove {
            drop_conn(conns, id, poller);
        }
    }
    // `stop` flips before the queue closes, so jobs admitted while
    // draining still complete; new generations are refused inline.
}

/// Forgets a connection: deregisters (idempotent) and drops the socket.
fn drop_conn(conns: &mut BTreeMap<usize, Conn>, id: usize, poller: &Poller) {
    if let Some(conn) = conns.remove(&id) {
        let _ = poller.delete(&conn.stream);
        counter_add("serve.closed", 1);
    }
}
