//! Minimal HTTP/1.1 `GET /metrics` endpoint (`--metrics-addr`), plus the
//! orchestrator probes `GET /healthz` (liveness: 200 while the process
//! serves) and `GET /readyz` (readiness: 200 normally, 503 once the
//! service begins draining, so load balancers stop routing before the
//! listener closes).
//!
//! Prometheus scrapes speak plain HTTP, not this crate's line-delimited
//! JSON protocol, so the metrics endpoint gets its own single-threaded
//! listener: accept, parse the request line, answer one response, close.
//! That is the entire protocol surface — no keep-alive, no chunking, no
//! routing beyond the three paths — which keeps the handler a screen of code and
//! leaves nothing for a scraper to exploit. Scrape traffic is a request
//! every few seconds, so the sequential accept loop is never the
//! bottleneck; the exposition itself reads the same lock-free atomics the
//! JSON stats do and cannot stall the serving hot path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{prometheus_text, snapshot};
use crate::service::{PredictionService, Shared};

/// The exposition-format content type Prometheus expects.
const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A running `/metrics` HTTP listener; dropping it stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the listener actually bound (resolves `:0` port
    /// requests, so tests can bind ephemerally and ask where they landed).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl PredictionService {
    /// Starts the Prometheus `/metrics` HTTP listener on `addr` (e.g.
    /// `127.0.0.1:9184`; port `0` binds ephemerally). The listener runs on
    /// its own thread for the life of the returned [`MetricsServer`] and
    /// serves the same text the TCP protocol returns for
    /// `{"cmd": "metrics", "format": "prometheus"}`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, bad addr).
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        // Non-blocking accept + poll: the loop notices the shutdown flag
        // within one poll interval without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("concorde-metrics-http".to_string())
            .spawn(move || accept_loop(&listener, &shared, &flag))
            .expect("spawn metrics listener");
        Ok(MetricsServer {
            addr: bound,
            shutdown,
            handle: Some(handle),
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One slow or malformed scraper must not wedge the loop:
                // bound the read, answer, close. Errors are per-connection.
                let _ = handle_scrape(stream, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Fallback I/O timeout for scrape/probe connections when the operator did
/// not set `--read-timeout-ms`. These connections must always time-bound:
/// the accept loop is single-threaded, so one stalled scraper with no
/// timeout would block every later probe indefinitely.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Hard ceiling on the scrape-path timeout. `--read-timeout-ms` is sized
/// for predict connections, which each get their own thread; scrape/probe
/// connections share one accept loop, so a large operator value would let
/// one stalled scraper block every later `/metrics` and probe request for
/// that full duration. An operator value below the ceiling is honored
/// (one knob governs idle reaping), above it is clamped.
const SCRAPE_IO_TIMEOUT_MAX: Duration = Duration::from_secs(5);

/// Scrape-socket I/O timeout: the operator's `--read-timeout-ms` when set
/// (so one knob governs idle reaping), the built-in fallback otherwise,
/// clamped to [`SCRAPE_IO_TIMEOUT_MAX`] either way.
fn scrape_timeout(read_timeout: Option<Duration>) -> Duration {
    read_timeout
        .unwrap_or(SCRAPE_IO_TIMEOUT)
        .min(SCRAPE_IO_TIMEOUT_MAX)
}

/// Reads one request head (through the blank line) and writes one response.
///
/// The whole head shares one deadline, the scrape timeout from accept: a
/// client dribbling one byte just inside each read timeout would otherwise
/// hold the single-threaded accept loop for up to 8 KiB × the timeout.
fn handle_scrape(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let timeout = scrape_timeout(shared.cfg.read_timeout);
    let deadline = Instant::now() + timeout;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nonblocking(false)?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // 8 KiB head cap: a real scrape request is a few hundred bytes.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        // Each read may wait only for what is left of the head's deadline;
        // once it has passed, end the connection like a read timeout does.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let request_line = head
        .split(|b| *b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).trim().to_string())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // Scrape paths may carry query params (`/metrics?foo=1`); match the path
    // component only.
    let path = path.split('?').next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/healthz" {
        // Liveness: the listener thread is running, so the process is.
        ("200 OK", "ok\n".to_string())
    } else if path == "/readyz" {
        // Readiness flips to 503 the moment a drain begins, so a load
        // balancer stops routing before the serving listener closes.
        if shared.draining.load(Ordering::SeqCst) {
            ("503 Service Unavailable", "draining\n".to_string())
        } else {
            ("200 OK", "ready\n".to_string())
        }
    } else if path != "/metrics" {
        (
            "404 Not Found",
            "try /metrics, /healthz, or /readyz\n".to_string(),
        )
    } else {
        ("200 OK", prometheus_text(&snapshot(shared)))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_timeout_honors_the_knob_but_caps_it() {
        assert_eq!(scrape_timeout(None), SCRAPE_IO_TIMEOUT);
        let short = Duration::from_millis(100);
        assert_eq!(scrape_timeout(Some(short)), short, "small values honored");
        assert_eq!(
            scrape_timeout(Some(Duration::from_secs(300))),
            SCRAPE_IO_TIMEOUT_MAX,
            "a predict-sized timeout must not let one stalled scraper \
             wedge the single-threaded accept loop for minutes"
        );
    }
}
