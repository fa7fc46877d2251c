//! The open-loop load generator (Banga–Druschel style): issues requests at
//! a constant rate regardless of completions, so overload actually
//! overloads.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::http::{read_response, RequestHead};

/// Load-generation parameters for one site.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Front-end address.
    pub target: SocketAddr,
    /// Host header to send (selects the subscriber).
    pub host: String,
    /// Requests per second.
    pub rate: f64,
    /// How long to generate load.
    pub duration: Duration,
    /// Response size to request.
    pub size: u64,
    /// Per-attempt timeout; attempt `n` waits `timeout × backoff^n`.
    pub timeout: Duration,
    /// Retries after the first attempt on connect errors and timeouts
    /// (definitive refusals — 503s — are never retried). 0 disables.
    pub retries: u32,
    /// Deterministic timeout growth factor per retry.
    pub backoff: f64,
}

impl ClientConfig {
    /// A sane default against `target` for `host`.
    pub fn new(target: SocketAddr, host: impl Into<String>, rate: f64) -> Self {
        ClientConfig {
            target,
            host: host.into(),
            rate,
            duration: Duration::from_secs(5),
            size: 6 * 1024,
            timeout: Duration::from_secs(10),
            retries: 2,
            backoff: 2.0,
        }
    }
}

/// Aggregated load results.
#[derive(Debug, Clone, Default)]
pub struct LoadStats {
    /// Requests issued.
    pub attempted: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses (dropped by the front end).
    pub dropped: u64,
    /// Other failures (connect errors, timeouts, non-200/503) after all
    /// retries were exhausted.
    pub errors: u64,
    /// Retry attempts issued (a request that succeeds on its second
    /// attempt counts one retry and one ok).
    pub retries: u64,
    /// Total body bytes received.
    pub bytes: u64,
    /// Latency of `ok` responses in milliseconds, in the same histogram
    /// the simulator records client latency in.
    pub latency_ms: gage_obs::Histogram,
}

impl LoadStats {
    /// Goodput in requests/second over `elapsed`.
    pub fn goodput(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / elapsed.as_secs_f64()
        }
    }

    fn record(&mut self, started: Instant, outcome: std::io::Result<(u16, u64)>) {
        match outcome {
            Ok((200, body)) => {
                self.ok += 1;
                self.bytes += body;
                self.latency_ms
                    .observe(started.elapsed().as_secs_f64() * 1e3);
            }
            Ok((503, _)) => self.dropped += 1,
            _ => self.errors += 1,
        }
    }
}

/// Runs an open-loop load generation session and returns the stats.
///
/// Each request gets its own thread so a slow server never throttles the
/// arrival process: request `n` is issued at `start + n / rate` regardless
/// of how many earlier requests are still in flight.
pub fn run_load(cfg: ClientConfig) -> LoadStats {
    let stats = Arc::new(Mutex::new(LoadStats::default()));
    let interval = Duration::from_secs_f64(1.0 / cfg.rate.max(0.001));
    let start = Instant::now();
    let mut workers = Vec::new();
    let mut n: u32 = 0;
    loop {
        let target_at = start + interval * n;
        if target_at >= start + cfg.duration {
            break;
        }
        if let Some(wait) = target_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        n += 1;
        stats.lock().attempted += 1;
        let stats = Arc::clone(&stats);
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(move || {
            let started = Instant::now();
            let (outcome, retried) = request_with_retries(&cfg);
            let mut s = stats.lock();
            s.retries += retried;
            s.record(started, outcome);
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    let final_stats = stats.lock().clone();
    final_stats
}

/// Issues one logical request with up to `cfg.retries` retries under
/// deterministic backoff: attempt `n` gets a `timeout × backoff^n`
/// deadline. Definitive responses (any HTTP status) stop the loop; only
/// transport errors — connect failures, timeouts — are retried. Returns
/// the final outcome and how many retries were used.
fn request_with_retries(cfg: &ClientConfig) -> (std::io::Result<(u16, u64)>, u64) {
    let mut retried = 0;
    loop {
        let timeout = cfg
            .timeout
            .mul_f64(cfg.backoff.max(1.0).powi(retried as i32));
        let outcome = timed_request(cfg.target, "/load", &cfg.host, cfg.size, timeout);
        if outcome.is_ok() || retried >= u64::from(cfg.retries) {
            return (outcome, retried);
        }
        retried += 1;
    }
}

/// Replays a [`gage_workload::Trace`] open-loop against `target`: each
/// entry is issued at its recorded offset (relative to the replay start)
/// with its own host, path and size. Returns aggregate stats.
pub fn replay_trace(
    target: SocketAddr,
    trace: &gage_workload::Trace,
    timeout: Duration,
) -> LoadStats {
    let stats = Arc::new(Mutex::new(LoadStats::default()));
    let start = Instant::now();
    let mut workers = Vec::new();
    for e in &trace.entries {
        let at = Duration::from_micros(e.at_us);
        if let Some(wait) = at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        stats.lock().attempted += 1;
        let stats = Arc::clone(&stats);
        let host = e.host.clone();
        let path = e.path.clone();
        let size = e.size_bytes;
        workers.push(std::thread::spawn(move || {
            let started = Instant::now();
            let outcome = timed_request(target, &path, &host, size, timeout);
            stats.lock().record(started, outcome);
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    let out = stats.lock().clone();
    out
}

/// One GET with connect/read/write deadlines approximating a whole-request
/// timeout.
fn timed_request(
    target: SocketAddr,
    path: &str,
    host: &str,
    size: u64,
    timeout: Duration,
) -> std::io::Result<(u16, u64)> {
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = RequestHead::get(path, host, Some(size));
    stream.write_all(&head.to_bytes())?;
    read_response(&mut stream)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_give_up_against_dead_target() {
        // Nothing listens on a reserved port: every attempt fails fast with
        // a connect error, so the loop runs all retries then reports one
        // terminal error.
        let mut cfg = ClientConfig::new("127.0.0.1:1".parse().unwrap(), "site", 1.0);
        cfg.timeout = Duration::from_millis(50);
        cfg.retries = 2;
        let (outcome, retried) = request_with_retries(&cfg);
        assert!(outcome.is_err());
        assert_eq!(retried, 2);
    }

    #[test]
    fn stats_math() {
        let mut s = LoadStats::default();
        assert_eq!(s.latency_ms.mean(), 0.0);
        s.ok = 4;
        for ms in [10.0, 20.0, 30.0, 40.0] {
            s.latency_ms.observe(ms);
        }
        assert!((s.latency_ms.mean() - 25.0).abs() < 1e-12);
        assert!((s.goodput(Duration::from_secs(2)) - 2.0).abs() < 1e-12);
        assert_eq!(s.goodput(Duration::ZERO), 0.0);
    }
}
