//! TCP front end: line-delimited JSON over a listener, one thread per
//! connection (bounded by [`ServeConfig::max_connections`](crate::ServeConfig::max_connections)),
//! all connections feeding the shared batching queue (so concurrent clients
//! batch together).
//!
//! Protocol, one JSON document per line:
//!
//! - `{...}` with a `workload` field → [`PredictRequest`] → one response line
//!   carrying the exact prediction (an optional `deadline_ms` or `class`
//!   only orders cold-region builds, earliest deadline first)
//! - `[{...}, ...]` → batch of requests → one array response line
//! - `{"cmd": "ping"}` → `{"ok": true}`
//! - `{"cmd": "metrics"}` → metrics snapshot (JSON); with
//!   `"format": "prometheus"`, `{"text": "..."}` carrying the same
//!   Prometheus exposition `GET /metrics` serves
//! - `{"cmd": "stats"}` → metrics + cache budget and per-shard occupancy
//! - `{"cmd": "workloads"}` → the served workload catalog
//! - `{"cmd": "schema"}` → the served feature schema (version + blocks)
//! - `{"cmd": "drain"}` → begins a graceful drain: the listener stops
//!   accepting, live connections answer their in-flight requests and
//!   close, and [`PredictionService::serve_tcp`] returns
//!
//! Connections are hardened against abuse: request lines are read through
//! a bounded reader that never buffers more than
//! [`ServeConfig::max_line_bytes`](crate::ServeConfig::max_line_bytes) for
//! one line (oversized → one typed `{"reason": "oversized"}` error line +
//! close), and a connection idle longer than
//! [`ServeConfig::read_timeout`](crate::ServeConfig::read_timeout) (when
//! configured) is reaped.
//!
//! Request lines take a zero-allocation fast path once a connection is
//! warm: a single-pass borrowed decoder
//! ([`decode_request_line`](crate::protocol::decode_request_line)) fills a
//! reusable request buffer, the whole batch enqueues under one shard lock
//! against recycled response slots, and the reply is encoded into a
//! per-connection buffer and written with one `write` + `flush`. Control
//! commands, malformed input, and anything the fast decoder declines fall
//! back to the `serde_json::Value` path, which stays the single source of
//! truth for error messages.
//!
//! A connection arriving past the cap is answered with one typed error line
//! — `{"error": ..., "type": "busy", ...}` — and closed, so clients can
//! distinguish "retry later" from a protocol failure.
//!
//! Replies on a connection are strictly request-ordered: each request line
//! gets exactly one reply line, written by the connection's own handler
//! thread before it reads the next line.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::protocol::{decode_request_line, DecodedShape, PredictRequest, PredictResponse};
use crate::service::{submit_many, submit_slot, Job, PredictionService};
use crate::slots::SlotReceiver;
use crate::{Client, ServeError};

/// The served workload catalog (shared with `concorde workloads --json`):
/// the 29-program suite plus any dynamic workloads (e.g. resolved
/// `riscv:<path>` binaries) registered in this process.
pub fn workload_catalog() -> Value {
    let entry = |w: &concorde_trace::WorkloadSpec| {
        json!({
            "id": w.id,
            "name": w.name,
            "class": format!("{:?}", w.class),
            "traces": w.n_traces,
            "trace_len": w.trace_len,
        })
    };
    let mut entries: Vec<Value> = concorde_trace::suite().iter().map(entry).collect();
    for id in concorde_trace::dynamic_ids() {
        if let Ok(r) = concorde_trace::resolve_workload(&id) {
            entries.push(entry(r.spec()));
        }
    }
    json!(entries)
}

/// Decrements the live-connection count when a connection thread ends,
/// however it ends.
struct ConnSlot {
    active: Arc<AtomicUsize>,
    service: Arc<crate::service::Shared>,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        let now = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        self.service
            .metrics
            .conn_active
            .store(now, Ordering::Relaxed);
    }
}

impl PredictionService {
    /// Serves the protocol on `listener` until the service drains
    /// ([`PredictionService::begin_drain`], the CLI's `SIGTERM` handler, or
    /// a client's `{"cmd": "drain"}`), admitting at most
    /// [`ServeConfig::max_connections`](crate::ServeConfig::max_connections)
    /// concurrent connections; excess connections receive one typed `busy`
    /// error line and are closed.
    ///
    /// On drain the listener stops accepting, live connections answer
    /// their in-flight requests and close, and the call returns once the
    /// last connection ends (with a 60 s backstop for a wedged client).
    ///
    /// # Errors
    ///
    /// Returns accept-loop errors; per-connection errors only end that
    /// connection.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        let limit = self.config().max_connections.max(1);
        let active = Arc::new(AtomicUsize::new(0));
        // Non-blocking accept + poll: the loop notices a drain begun on
        // another thread (signal watcher, drain cmd handler) within one
        // poll interval, without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        while !self.is_draining() {
            let mut stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // Accepted sockets must block again: the per-connection reader
            // paces itself with read timeouts, not `O_NONBLOCK`.
            stream.set_nonblocking(false)?;
            if active
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < limit).then_some(n + 1)
                })
                .is_err()
            {
                self.shared
                    .metrics
                    .busy_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let reply = json!({
                    "error": format!("server busy: connection limit {limit} reached"),
                    "type": "busy",
                    "max_connections": limit,
                });
                let _ = writeln!(stream, "{reply}");
                continue;
            }
            self.shared
                .metrics
                .conn_active
                .store(active.load(Ordering::SeqCst), Ordering::Relaxed);
            let slot = ConnSlot {
                active: Arc::clone(&active),
                service: Arc::clone(&self.shared),
            };
            let client = self.client();
            let spawned = std::thread::Builder::new()
                .name("concorde-serve-conn".to_string())
                .spawn(move || {
                    let _slot = slot;
                    let _ = handle_connection(client, stream);
                });
            if let Err(e) = spawned {
                // Thread exhaustion is wire-reachable pressure (a connection
                // flood racing the cap): answer like `busy` and keep
                // accepting instead of killing the listener. The moved
                // stream is gone, so the client simply sees the close; the
                // `ConnSlot` it carried has already released the count.
                eprintln!("[serve] cannot spawn connection handler: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        // Drain: live connections observe the flag within one read-timeout
        // poll, answer their in-flight line, and close. The backstop bounds
        // a wedged handler, not the common case.
        let deadline = Instant::now() + Duration::from_secs(60);
        while active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

/// Poll interval for per-connection socket reads: short enough that a
/// drain (or the idle clock) is noticed promptly, long enough to stay off
/// the CPU while a connection sits quiet.
const READ_POLL: Duration = Duration::from_millis(250);

/// Outcome of one bounded, timed protocol-line read.
enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// Clean EOF — the client closed.
    Eof,
    /// The line exceeded the byte cap; the connection must close.
    TooLong,
    /// No bytes arrived for longer than the configured idle timeout.
    IdleTimeout,
    /// The server is draining and the connection is idle between lines.
    Draining,
}

/// Reads one `\n`-terminated line into `buf` (newline stripped), enforcing
/// the byte cap and idle timeout. Unlike `BufReader::read_line`, this never
/// buffers more than roughly `max_len` bytes for one line — a malicious
/// client cannot balloon memory with an endless unterminated line — and it
/// works on raw bytes, so a read timeout splitting a multi-byte UTF-8
/// character mid-line cannot corrupt the eventual parse.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max_len: usize,
    idle_after: Option<Duration>,
    draining: impl Fn() -> bool,
) -> std::io::Result<LineRead> {
    buf.clear();
    let mut last_progress = Instant::now();
    loop {
        let (consumed, complete) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if buf.is_empty() && draining() {
                        return Ok(LineRead::Draining);
                    }
                    if let Some(limit) = idle_after {
                        if last_progress.elapsed() >= limit {
                            return Ok(LineRead::IdleTimeout);
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // EOF. A trailing unterminated line still parses, matching
                // the old `read_line` semantics.
                return Ok(if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    (i + 1, true)
                }
                None => {
                    buf.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        last_progress = Instant::now();
        if buf.len() > max_len {
            return Ok(LineRead::TooLong);
        }
        if complete {
            return Ok(LineRead::Line);
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// One reply owed by the fast path, in request order: a live response slot,
/// or an error response minted at submit time (a failed submission keeps
/// its place in the reply array instead of discarding the batch).
enum Pending {
    Rx(SlotReceiver),
    Err(PredictResponse),
}

/// Per-connection reusable buffers. Once warm, a request line is read,
/// decoded, submitted, received, and answered entirely out of these — zero
/// heap allocations end to end.
#[derive(Default)]
struct ConnScratch {
    reqs: Vec<PredictRequest>,
    rxs: Vec<SlotReceiver>,
    jobs: Vec<Job>,
    pending: Vec<Pending>,
    out: String,
}

fn handle_connection(client: Client, stream: TcpStream) -> std::io::Result<()> {
    let peer = stream.peer_addr()?;
    crate::metrics::log_connection("open", peer);
    let shared = Arc::clone(client.shared());
    let idle_after = shared.cfg.read_timeout;
    let max_line = shared.cfg.max_line_bytes.max(1);
    // Socket reads always time out at the poll interval (never longer than
    // the idle timeout): the handler re-checks the drain flag and the idle
    // clock between blocking reads.
    let poll = idle_after.map_or(READ_POLL, |t| t.min(READ_POLL));
    stream.set_read_timeout(Some(poll))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    let mut scratch = ConnScratch::default();
    loop {
        match read_bounded_line(&mut reader, &mut raw, max_line, idle_after, || {
            shared.draining.load(Ordering::SeqCst)
        })? {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Draining | LineRead::IdleTimeout => break,
            LineRead::TooLong => {
                let reply = json!({
                    "error": format!("request line exceeds {max_line} bytes"),
                    "type": "error",
                    "reason": "oversized",
                    "max_line_bytes": max_line,
                });
                let _ = write_line(&mut writer, &reply.to_string());
                break;
            }
        }
        let line = match std::str::from_utf8(&raw) {
            Ok(l) => l,
            Err(e) => {
                let reply = json!({ "error": format!("malformed JSON: invalid UTF-8: {e}") });
                let _ = write_line(&mut writer, &reply.to_string());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Warm path: single-pass borrowed decode straight into the scratch
        // request buffer. Anything the fast decoder declines — control
        // objects, malformed JSON, exotic shapes — falls back to the
        // `Value` path, which owns error messages and `cmd` handling.
        match decode_request_line(line, &mut scratch.reqs) {
            Ok(shape) => handle_fast(&client, shape, &mut writer, &mut scratch)?,
            Err(_) => {
                let reply = handle_line(&client, line);
                if shared.faults.on_reply() {
                    // Injected mid-reply socket drop: the engine answered,
                    // but the client sees the connection die first.
                    break;
                }
                write_line(&mut writer, &reply.to_string())?;
            }
        }
        // A draining server finishes the in-flight line, answers it, and
        // closes; the client's next request must reconnect elsewhere.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    crate::metrics::log_connection("close", peer);
    Ok(())
}

/// The warm wire path: a fast-decoded request line is submitted as one
/// batch against recycled response slots, and the reply is encoded into the
/// connection's reusable buffer — one `write` + `flush` for the whole
/// batch. Submission failures are answered per request, in place, so one
/// failed enqueue never drops replies to requests already submitted.
fn handle_fast(
    client: &Client,
    shape: DecodedShape,
    writer: &mut TcpStream,
    s: &mut ConnScratch,
) -> std::io::Result<()> {
    let shared = client.shared();
    s.pending.clear();
    match submit_many(shared, &mut s.reqs, &mut s.rxs, &mut s.jobs) {
        Ok(()) => s.pending.extend(s.rxs.drain(..).map(Pending::Rx)),
        Err(e) if shape == DecodedShape::Single => {
            // Single requests keep the legacy contract: an immediate
            // `{"error": ...}` object (no retry) when the queue is full or
            // the service is shutting down.
            s.reqs.clear();
            let reply = json!({ "error": e.to_string() });
            return write_line(writer, &reply.to_string());
        }
        Err(ServeError::QueueFull) => {
            // The bulk all-or-nothing reservation did not fit; degrade to
            // per-request submission with the same sleep-poll backpressure
            // as `Client::submit_blocking`, which makes progress even when
            // the batch exceeds the entire queue capacity.
            for req in s.reqs.drain(..) {
                let pend = loop {
                    match submit_slot(shared, req.clone()) {
                        Ok(rx) => break Pending::Rx(rx),
                        Err(ServeError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => {
                            break Pending::Err(PredictResponse::err(req.id, e.to_string(), 0))
                        }
                    }
                };
                s.pending.push(pend);
            }
        }
        Err(e) => {
            // Shutting down before anything enqueued: every request in the
            // batch gets its own error response, in order.
            for req in s.reqs.drain(..) {
                s.pending
                    .push(Pending::Err(PredictResponse::err(req.id, e.to_string(), 0)));
            }
        }
    }
    s.out.clear();
    let batch = shape == DecodedShape::Batch;
    if batch {
        s.out.push('[');
    }
    for (i, pend) in s.pending.drain(..).enumerate() {
        if i > 0 {
            s.out.push(',');
        }
        match pend {
            Pending::Err(resp) => resp.encode_json_into(&mut s.out),
            Pending::Rx(rx) => rx.recv().encode_json_into(&mut s.out),
        }
    }
    if batch {
        s.out.push(']');
    }
    s.out.push('\n');
    if shared.faults.on_reply() {
        // Injected mid-reply socket drop: the engine already answered every
        // slot; the client sees the connection die instead of the reply.
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "injected fault: reply dropped",
        ));
    }
    writer.write_all(s.out.as_bytes())?;
    writer.flush()
}

fn handle_line(client: &Client, line: &str) -> Value {
    let parsed: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return json!({ "error": format!("malformed JSON: {e}") }),
    };
    match parsed {
        Value::Array(_) => {
            let reqs: Vec<PredictRequest> = match serde_json::from_value(parsed) {
                Ok(r) => r,
                Err(e) => return json!({ "error": format!("bad request batch: {e}") }),
            };
            // Submit all with backpressure, then collect in order. A
            // submission or delivery failure is answered per request, in
            // place — it used to collapse the whole reply into one error
            // object, silently dropping the responses of requests already
            // submitted (and leaving the client unable to match replies to
            // requests).
            let pending: Vec<_> = reqs
                .into_iter()
                .map(|req| (req.id, client.submit_blocking(req)))
                .collect();
            let resps: Vec<PredictResponse> = pending
                .into_iter()
                .map(|(id, sub)| {
                    sub.and_then(|rx| rx.recv().map_err(|_| ServeError::Disconnected))
                        .unwrap_or_else(|e| PredictResponse::err(id, e.to_string(), 0))
                })
                .collect();
            serde_json::to_value(&resps).expect("serialize responses")
        }
        Value::Object(ref obj) if obj.contains_key("cmd") => {
            match obj.get("cmd").and_then(Value::as_str) {
                Some("ping") => json!({ "ok": true }),
                Some("metrics") => {
                    if obj.get("format").and_then(Value::as_str) == Some("prometheus") {
                        json!({ "text": client.prometheus_metrics() })
                    } else {
                        serde_json::to_value(&client.service_metrics()).expect("serialize metrics")
                    }
                }
                Some("stats") => {
                    serde_json::to_value(&client.service_stats()).expect("serialize stats")
                }
                Some("drain") => {
                    // Same flag `begin_drain` / the CLI's SIGTERM watcher
                    // set: the accept loop stops admitting, handlers close
                    // after their in-flight line, `serve_tcp` returns.
                    client.shared().draining.store(true, Ordering::SeqCst);
                    json!({ "ok": true, "draining": true })
                }
                Some("workloads") => workload_catalog(),
                Some("schema") => serde_json::to_value(&client.schema()).expect("serialize schema"),
                other => json!({ "error": format!("unknown cmd {other:?}") }),
            }
        }
        obj @ Value::Object(_) => {
            let req: PredictRequest = match serde_json::from_value(obj) {
                Ok(r) => r,
                Err(e) => return json!({ "error": format!("bad request: {e}") }),
            };
            match client.predict(req) {
                Ok(resp) => serde_json::to_value(&resp).expect("serialize response"),
                Err(e) => json!({ "error": e.to_string() }),
            }
        }
        _ => json!({ "error": "expected a JSON object or array" }),
    }
}
