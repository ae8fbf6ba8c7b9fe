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
//! Every line goes through one decoder, [`decode_request_line`], which
//! fills a reusable request buffer in a single pass, names a control
//! command, or rejects the line with its `{"error": ...}` reply text
//! (malformed JSON, nesting deeper than 128 levels, a bad field). Once a
//! connection is warm a request line costs no heap allocation: the whole
//! batch enqueues under one shard lock against recycled response slots,
//! and the reply is encoded into a per-connection buffer. Every reply is
//! one `write` on a `TCP_NODELAY` socket, so no reply waits on Nagle and
//! the peer's delayed ACK.
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

use crate::metrics::{prometheus_text, snapshot};
use crate::protocol::{
    decode_request_line, encode_error_into, DecodedShape, PredictRequest, PredictResponse,
};
use crate::service::{submit_many, submit_waiting, Job, PredictionService};
use crate::slots::SlotReceiver;
use crate::Client;

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

/// Per-connection reusable buffers. Once warm, a request line is read,
/// decoded, submitted, received, and answered entirely out of these — zero
/// heap allocations end to end.
#[derive(Default)]
struct ConnScratch {
    reqs: Vec<PredictRequest>,
    /// The ids of the line's requests, for replies that carry no response.
    ids: Vec<u64>,
    rxs: Vec<SlotReceiver>,
    jobs: Vec<Job>,
    /// The reply line under construction.
    out: String,
}

fn handle_connection(client: Client, stream: TcpStream) -> std::io::Result<()> {
    let shared = Arc::clone(client.shared());
    let idle_after = shared.cfg.read_timeout;
    let max_line = shared.cfg.max_line_bytes.max(1);
    // Socket reads always time out at the poll interval (never longer than
    // the idle timeout): the handler re-checks the drain flag and the idle
    // clock between blocking reads.
    let poll = idle_after.map_or(READ_POLL, |t| t.min(READ_POLL));
    stream.set_read_timeout(Some(poll))?;
    // Request/reply exchanges: with Nagle on, a reply's segment can wait
    // for the ACK the client delays (~40 ms) while it waits for the reply.
    stream.set_nodelay(true)?;
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
                let _ = writer.write_all(format!("{reply}\n").as_bytes());
                break;
            }
        }
        let line = match std::str::from_utf8(&raw) {
            Ok(l) => l,
            Err(e) => {
                let reply = json!({ "error": format!("malformed JSON: invalid UTF-8: {e}") });
                let _ = writer.write_all(format!("{reply}\n").as_bytes());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        scratch.out.clear();
        match decode_request_line(line, &mut scratch.reqs) {
            Ok(DecodedShape::Cmd) => scratch.out.push_str(&handle_cmd(&client, line).to_string()),
            Ok(shape) => answer_requests(&client, shape, &mut scratch),
            Err(rejection) => rejection.encode_json_into(&mut scratch.out),
        }
        if shared.faults.on_reply() {
            // Injected mid-reply socket drop: the engine answered, but the
            // client sees the connection die first.
            break;
        }
        // One write per reply, newline included.
        scratch.out.push('\n');
        writer.write_all(scratch.out.as_bytes())?;
        // A draining server finishes the in-flight line, answers it, and
        // closes; the client's next request must reconnect elsewhere.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Submits a decoded request line as one batch against recycled response
/// slots and encodes the reply into `s.out`: one object for a single
/// request, an in-order array for a batch. A request whose submission or
/// answer failed gets its own error object in place, so one failure never
/// drops the replies of requests already submitted.
fn answer_requests(client: &Client, shape: DecodedShape, s: &mut ConnScratch) {
    let shared = client.shared();
    s.ids.clear();
    s.ids.extend(s.reqs.iter().map(|r| r.id));
    let batch = shape == DecodedShape::Batch;
    let failed = if batch {
        submit_waiting(shared, &mut s.reqs, &mut s.rxs, &mut s.jobs).err()
    } else if let Err(e) = submit_many(shared, &mut s.reqs, &mut s.rxs, &mut s.jobs) {
        // A single request gets an immediate `{"error": ...}` object when
        // the queue is full or the service is shutting down; it does not
        // wait.
        encode_error_into(&mut s.out, &e.to_string());
        return;
    } else {
        None
    };
    if batch {
        s.out.push('[');
    }
    let start = s.out.len();
    let mut ids = s.ids.iter();
    for (rx, &id) in s.rxs.drain(..).zip(&mut ids) {
        if s.out.len() > start {
            s.out.push(',');
        }
        rx.recv()
            .unwrap_or_else(|e| PredictResponse::err(id, e.to_string(), 0))
            .encode_json_into(&mut s.out);
    }
    if let Some(e) = failed {
        // Submission stopped before these requests.
        for &id in ids {
            if s.out.len() > start {
                s.out.push(',');
            }
            PredictResponse::err(id, e.to_string(), 0).encode_json_into(&mut s.out);
        }
    }
    if batch {
        s.out.push(']');
    }
}

/// Answers a control line. The decoder has already checked its syntax and
/// nesting depth and found its top-level `"cmd"` key.
fn handle_cmd(client: &Client, line: &str) -> Value {
    // Only a disagreement between the decoder and the shim parser could
    // make this parse fail.
    let Ok(Value::Object(obj)) = serde_json::from_str::<Value>(line) else {
        return json!({ "error": "malformed JSON: control line failed to parse" });
    };
    match obj.get("cmd").and_then(Value::as_str) {
        Some("ping") => json!({ "ok": true }),
        Some("metrics") => {
            let snap = snapshot(client.shared());
            if obj.get("format").and_then(Value::as_str) == Some("prometheus") {
                json!({ "text": prometheus_text(&snap) })
            } else {
                serde_json::to_value(&snap.stats.metrics).expect("serialize metrics")
            }
        }
        Some("stats") => {
            serde_json::to_value(&snapshot(client.shared()).stats).expect("serialize stats")
        }
        Some("drain") => {
            // Same flag `begin_drain` / the CLI's SIGTERM watcher set: the
            // accept loop stops admitting, handlers close after their
            // in-flight line, `serve_tcp` returns.
            client.shared().draining.store(true, Ordering::SeqCst);
            json!({ "ok": true, "draining": true })
        }
        Some("workloads") => workload_catalog(),
        Some("schema") => serde_json::to_value(&client.schema()).expect("serialize schema"),
        other => json!({ "error": format!("unknown cmd {other:?}") }),
    }
}
