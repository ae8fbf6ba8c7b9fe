//! Clients: in-process [`Client`] (tests, benches, CLI) and [`TcpClient`]
//! speaking the line-delimited JSON protocol to a remote `concorde serve`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{PredictRequest, PredictResponse};
use crate::service::{submit, submit_many, submit_slot, Job, ServeError, Shared};
use crate::slots::SlotReceiver;

/// Caller-owned scratch for [`Client::predict_batch_into`]: holds the slot
/// receivers and job buffer between calls so a warm submit→receive round
/// trip allocates nothing. The fields are internal; `Default::default()` is
/// the whole API.
#[derive(Default)]
pub struct BatchScratch {
    rxs: Vec<SlotReceiver>,
    jobs: Vec<Job>,
}

/// In-process handle onto a running [`PredictionService`](crate::PredictionService).
///
/// Cloneable and `Send`; many threads can submit concurrently.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Client { shared }
    }

    /// The service internals, for the TCP front end's slot-based fast path.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Enqueues a request, returning the response receiver immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity,
    /// [`ServeError::ShuttingDown`] during teardown.
    pub fn submit(
        &self,
        req: PredictRequest,
    ) -> Result<mpsc::Receiver<PredictResponse>, ServeError> {
        submit(&self.shared, req)
    }

    /// Like [`Client::submit`], but waits out a full queue instead of
    /// failing (gentle backpressure; the wait is a short sleep-poll).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] during teardown.
    pub fn submit_blocking(
        &self,
        req: PredictRequest,
    ) -> Result<mpsc::Receiver<PredictResponse>, ServeError> {
        loop {
            match self.submit(req.clone()) {
                Ok(rx) => return Ok(rx),
                Err(ServeError::QueueFull) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => return Err(e),
            }
        }
    }

    /// Predicts one request, blocking for the response.
    ///
    /// # Errors
    ///
    /// See [`Client::submit`]; also [`ServeError::Disconnected`] if the
    /// service is torn down mid-flight.
    pub fn predict(&self, req: PredictRequest) -> Result<PredictResponse, ServeError> {
        let rx = self.submit(req)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Metrics snapshot of the service this client feeds.
    pub fn service_metrics(&self) -> crate::MetricsSnapshot {
        crate::service::metrics_snapshot(&self.shared)
    }

    /// The service's full Prometheus text exposition — the same document
    /// `GET /metrics` serves.
    pub fn prometheus_metrics(&self) -> String {
        crate::service::prometheus_text(&self.shared)
    }

    /// Full stats (metrics + cache budget and per-shard occupancy) of the
    /// service this client feeds.
    pub fn service_stats(&self) -> crate::ServiceStats {
        crate::service::service_stats(&self.shared)
    }

    /// Feature schema (version + named blocks) of the served model.
    pub fn schema(&self) -> concorde_core::schema::FeatureSchema {
        crate::service::schema_of(&self.shared)
    }

    /// Begins a graceful drain of the service this client feeds — the same
    /// switch the wire's `{"cmd": "drain"}` and the CLI's SIGTERM watcher
    /// flip. `serve_tcp` stops accepting, live connections answer their
    /// in-flight requests and close, and `/readyz` turns 503.
    pub fn begin_drain(&self) {
        self.shared
            .draining
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Predicts a whole batch, blocking until every response arrives.
    ///
    /// Responses come back in request order. Submission applies gentle
    /// backpressure: when the queue is full the call waits for capacity
    /// instead of failing, so arbitrarily large batches are safe.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] / [`ServeError::Disconnected`] when the
    /// service goes away underneath the call.
    pub fn predict_many(
        &self,
        mut reqs: Vec<PredictRequest>,
    ) -> Result<Vec<PredictResponse>, ServeError> {
        let mut scratch = BatchScratch::default();
        let mut out = Vec::with_capacity(reqs.len());
        self.predict_batch_into(&mut reqs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Client::predict_many`] without the per-call allocations: drains
    /// `reqs`, appends responses to `out` (cleared first) in request order,
    /// and keeps every intermediate buffer in the caller-owned `scratch`.
    /// Once `scratch`, `reqs`, and `out` are warm a round trip performs
    /// zero heap allocations end to end — the contract
    /// `tests/serving_alloc.rs` pins with a counting allocator.
    ///
    /// Submission applies the same gentle backpressure as
    /// [`Client::predict_many`]: the whole batch enqueues under one shard
    /// lock when it fits, else it degrades to per-request submission that
    /// waits out a full queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] when the service goes away underneath
    /// the call; `reqs` may then be partially drained and `out` holds no
    /// responses (in-flight requests are answered and discarded).
    pub fn predict_batch_into(
        &self,
        reqs: &mut Vec<PredictRequest>,
        scratch: &mut BatchScratch,
        out: &mut Vec<PredictResponse>,
    ) -> Result<(), ServeError> {
        out.clear();
        // Fast path: the whole batch enqueues under one shard lock against
        // recycled response slots. A queue too full for the bulk
        // reservation degrades to per-request submission with the same
        // sleep-poll backpressure as before, which makes progress even when
        // the batch exceeds the entire queue capacity.
        match submit_many(&self.shared, reqs, &mut scratch.rxs, &mut scratch.jobs) {
            Ok(()) => {}
            Err(ServeError::QueueFull) => {
                for req in reqs.drain(..) {
                    loop {
                        match submit_slot(&self.shared, req.clone()) {
                            Ok(rx) => {
                                scratch.rxs.push(rx);
                                break;
                            }
                            Err(ServeError::QueueFull) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => {
                                scratch.rxs.clear();
                                return Err(e);
                            }
                        }
                    }
                }
            }
            Err(e) => return Err(e),
        }
        // Dropping each receiver right after its response recycles the slot
        // for the next request in the same batch.
        out.extend(scratch.rxs.drain(..).map(|rx| rx.recv()));
        Ok(())
    }
}

/// Blocking TCP client for the line-delimited JSON protocol: one request
/// line out, one reply line back.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One round of splitmix64 — the jitter source for [`backoff_delay`].
/// Statistical quality is irrelevant here; what matters is that the same
/// input always yields the same output (reproducible schedules) and that
/// nearby inputs decorrelate (concurrent clients fan out).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The delay before retry number `attempt` (0-based) of a reconnect:
/// exponential doubling from `base`, capped at `cap`, with a deterministic
/// ±25% jitter derived from `seed` and the attempt index. Clients with
/// different seeds spread their retries (no thundering herd on a server
/// restart), while a given seed's schedule is exactly reproducible — the
/// property the unit test pins.
pub fn backoff_delay(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
    let base_ns = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let cap_ns = cap.as_nanos().min(i64::MAX as u128) as u64;
    let nominal = ((u128::from(base_ns)) << attempt.min(63)).min(u128::from(cap_ns)) as u64;
    let spread = nominal / 4;
    if spread == 0 {
        return Duration::from_nanos(nominal);
    }
    let r = splitmix64(seed.wrapping_add(u64::from(attempt)));
    let offset = (r % (2 * spread + 1)) as i64 - spread as i64;
    Duration::from_nanos((nominal as i64 + offset).max(0) as u64)
}

impl TcpClient {
    /// Connects to a `concorde serve` endpoint (e.g. `127.0.0.1:7878`).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: &str) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply exchanges: without NODELAY, Nagle holds a line's
        // last partial segment until the server ACKs the earlier ones, and
        // the server delays that ACK (~40 ms) while it waits for the rest.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient {
            reader,
            writer: stream,
        })
    }

    /// Like [`TcpClient::connect`], but retries a failed connect up to
    /// `attempts` times with the bounded, jittered exponential backoff of
    /// [`backoff_delay`] (seeded from `addr`, so the schedule is
    /// deterministic per endpoint). This is how the CLI `predict` and the
    /// soak harnesses ride out a server restart instead of dying on the
    /// first `ECONNREFUSED`.
    ///
    /// # Errors
    ///
    /// The last connect error once every attempt is exhausted.
    pub fn connect_with_retry(
        addr: &str,
        attempts: u32,
        base: Duration,
        cap: Duration,
    ) -> std::io::Result<TcpClient> {
        let attempts = attempts.max(1);
        // FNV-1a over the address: any stable per-endpoint value works.
        let seed = addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut last = None;
        for attempt in 0..attempts {
            match TcpClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(backoff_delay(base, cap, seed, attempt));
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
    }

    fn roundtrip_line(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request line, newline included: a separate write for
        // the `\n` would stall ~40 ms on Nagle plus the peer's delayed ACK.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        if resp.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        Ok(resp)
    }

    /// Predicts one request over the wire.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn predict(&mut self, req: &PredictRequest) -> std::io::Result<PredictResponse> {
        let line = serde_json::to_string(req).expect("serialize request");
        let resp = self.roundtrip_line(&line)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }

    /// Predicts a batch in one protocol exchange (array in, array out).
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn predict_many(
        &mut self,
        reqs: &[PredictRequest],
    ) -> std::io::Result<Vec<PredictResponse>> {
        let line = serde_json::to_string(&reqs.to_vec()).expect("serialize requests");
        let resp = self.roundtrip_line(&line)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn metrics(&mut self) -> std::io::Result<crate::MetricsSnapshot> {
        let resp = self.roundtrip_line(r#"{"cmd": "metrics"}"#)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }

    /// Fetches the server's Prometheus text exposition over the JSON
    /// protocol (`{"cmd": "metrics", "format": "prometheus"}`) — the same
    /// document `GET /metrics` serves, for clients already speaking TCP.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let resp = self.roundtrip_line(r#"{"cmd": "metrics", "format": "prometheus"}"#)?;
        let v: serde_json::Value = serde_json::from_str(&resp).map_err(std::io::Error::other)?;
        v.get("text")
            .and_then(serde_json::Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| std::io::Error::other("reply carried no text field"))
    }

    /// Fetches the server's full stats: metrics plus cache budget and
    /// per-shard occupancy (the `{"cmd": "stats"}` reply) — the numbers an
    /// operator sizes `--cache-bytes` and `--cache-shards` with.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn stats(&mut self) -> std::io::Result<crate::ServiceStats> {
        let resp = self.roundtrip_line(r#"{"cmd": "stats"}"#)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }

    /// Fetches the served workload catalog as raw JSON.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn workloads(&mut self) -> std::io::Result<serde_json::Value> {
        let resp = self.roundtrip_line(r#"{"cmd": "workloads"}"#)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }

    /// Fetches the server's feature schema (version + named blocks), letting
    /// programmatic clients validate the layout they featurize against.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol-level error decoded into `io::Error`.
    pub fn schema(&mut self) -> std::io::Result<concorde_core::schema::FeatureSchema> {
        let resp = self.roundtrip_line(r#"{"cmd": "schema"}"#)?;
        serde_json::from_str(&resp).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_jittered_and_capped() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let schedule: Vec<Duration> = (0..8).map(|i| backoff_delay(base, cap, 42, i)).collect();
        // Exactly reproducible: same seed, same schedule.
        let again: Vec<Duration> = (0..8).map(|i| backoff_delay(base, cap, 42, i)).collect();
        assert_eq!(schedule, again);
        // Every delay sits within ±25% of min(base · 2^i, cap).
        for (i, d) in schedule.iter().enumerate() {
            let nominal = std::cmp::min(base * (1u32 << i.min(5)), cap);
            assert!(*d >= nominal.mul_f64(0.749), "attempt {i}: {d:?} < -25%");
            assert!(*d <= nominal.mul_f64(1.251), "attempt {i}: {d:?} > +25%");
        }
        // A different seed jitters differently somewhere in the schedule.
        let other: Vec<Duration> = (0..8).map(|i| backoff_delay(base, cap, 43, i)).collect();
        assert_ne!(schedule, other);
        // Degenerate inputs stay sane: zero base never panics or sleeps.
        assert_eq!(backoff_delay(Duration::ZERO, cap, 1, 7), Duration::ZERO);
    }

    #[test]
    fn connect_with_retry_exhausts_attempts_then_reports_the_last_error() {
        // Bind then drop a listener: the port is (momentarily) refusing.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let tiny = Duration::from_micros(100);
        let err = match TcpClient::connect_with_retry(&addr, 3, tiny, tiny) {
            Err(e) => e,
            Ok(_) => panic!("connect to a dropped listener should fail"),
        };
        assert_ne!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        // A live listener connects on the first attempt.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = l.local_addr().unwrap().to_string();
        assert!(TcpClient::connect_with_retry(&live, 3, tiny, tiny).is_ok());
    }
}
