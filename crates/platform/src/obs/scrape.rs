//! Periodic snapshot scraper: samples the document its owner renders on
//! an interval, appends each sample to a JSONL time-series file, and
//! serves the latest sample over a one-shot loopback TCP endpoint.
//!
//! A sample is one line, `{"schema":"obs-v2","sample":N,"unix_ms":T,
//! "platform":<document>}`, with the document's newlines removed (JSON
//! allows whitespace between tokens, so the document needs no second
//! renderer).  The daemon hands it its own
//! [`PlatformMetrics::to_json`](crate::metrics::PlatformMetrics::to_json),
//! so a scrape reports that daemon and no other.
//!
//! The endpoint deliberately mimics the simplest possible scrape
//! protocol: connect, optionally send a request line (it is read and
//! discarded), receive one JSON document terminated by a newline, and
//! the server closes.  `nc 127.0.0.1 <port>` or a four-line script can
//! inspect a live 256-agent swarm mid-run; there is no framing, no
//! keep-alive, no state.
//!
//! The scraper runs on its own thread with a non-blocking listener (the
//! same `transport::classify_accept` triage the daemon's accept loop
//! uses) so sampling cadence and scrape service never block each other,
//! and — per the purity contract — it only ever *reads* instrument
//! state; it cannot perturb the data path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::transport::{classify_accept, AcceptError};

/// Configuration for a [`Scraper`].
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Sampling period for the JSONL time series.
    pub interval: Duration,
    /// Append-only JSONL time-series path; `None` disables the file.
    pub series_path: Option<PathBuf>,
    /// Bind a loopback snapshot endpoint (`127.0.0.1:0` → ephemeral).
    pub serve: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { interval: Duration::from_millis(250), series_path: None, serve: true }
    }
}

/// Handle on a running scraper thread; dropping without [`Scraper::stop`]
/// also shuts it down.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
    join: Option<std::thread::JoinHandle<u64>>,
}

impl Scraper {
    /// Starts the scraper over `source`, which renders the JSON document
    /// each sample carries.  Returns after the endpoint (if enabled) is
    /// bound, so [`Scraper::addr`] is immediately valid.
    pub fn start(
        source: impl Fn() -> String + Send + 'static,
        cfg: ObsConfig,
    ) -> std::io::Result<Scraper> {
        let listener = if cfg.serve {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            l.set_nonblocking(true)?;
            Some(l)
        } else {
            None
        };
        let addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("obs-scraper".into())
            .spawn(move || scraper_loop(&source, cfg, listener, stop2))?;
        Ok(Scraper { stop, addr, join: Some(join) })
    }

    /// Address of the snapshot endpoint, when serving.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops the thread and returns how many samples it appended.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.join.take().map(|j| j.join().unwrap_or(0)).unwrap_or(0)
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// One JSONL sample line: the timestamped document, on one line.
fn sample_line(source: &dyn Fn() -> String, seq: u64) -> String {
    let unix_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let platform = source().replace('\n', "");
    format!(
        "{{\"schema\":\"obs-v2\",\"sample\":{seq},\"unix_ms\":{unix_ms},\"platform\":{platform}}}"
    )
}

fn scraper_loop(
    source: &dyn Fn() -> String,
    cfg: ObsConfig,
    listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
) -> u64 {
    let mut series = cfg.series_path.as_ref().and_then(|p| {
        if let Some(parent) = p.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::OpenOptions::new().create(true).append(true).open(p).ok()
    });
    let mut samples = 0u64;
    // First sample immediately so even a very short run leaves a series.
    let mut latest = sample_line(source, samples);
    if let Some(f) = series.as_mut() {
        let _ = writeln!(f, "{latest}");
    }
    samples += 1;
    let mut next_sample = Instant::now() + cfg.interval;
    let poll = Duration::from_millis(10).min(cfg.interval);
    while !stop.load(Ordering::Relaxed) {
        if let Some(l) = listener.as_ref() {
            match l.accept() {
                Ok((conn, _)) => {
                    // Serve the most recent sample; never re-snapshot on
                    // the accept path so a scrape storm costs nothing.
                    serve_one(conn, &latest);
                }
                Err(e) => match classify_accept(&e) {
                    AcceptError::Transient => {}
                    AcceptError::Resource => std::thread::sleep(poll),
                },
            }
        }
        if Instant::now() >= next_sample {
            latest = sample_line(source, samples);
            if let Some(f) = series.as_mut() {
                let _ = writeln!(f, "{latest}");
            }
            samples += 1;
            next_sample = Instant::now() + cfg.interval;
        }
        std::thread::sleep(poll);
    }
    // Final sample on shutdown so the series always covers run end.
    let last = sample_line(source, samples);
    if let Some(f) = series.as_mut() {
        let _ = writeln!(f, "{last}");
        let _ = f.flush();
    }
    samples + 1
}

/// Answers one scrape: discard any request bytes already in flight,
/// write the snapshot + newline, close.
fn serve_one(mut conn: TcpStream, latest: &str) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = conn.set_nodelay(true);
    let mut scratch = [0u8; 256];
    let _ = conn.read(&mut scratch); // "GET /" line or nothing; ignored
    let _ = conn.write_all(latest.as_bytes());
    let _ = conn.write_all(b"\n");
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-scrape-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn scraper_appends_series_and_serves_snapshot() {
        let dir = scratch("basic");
        let series = dir.join("series.jsonl");
        // A multi-line document, as `PlatformMetrics::to_json` renders.
        let scraper = Scraper::start(
            || "{\n  \"counter\": 11,\n  \"hist\": {\"count\": 1}\n}\n".to_string(),
            ObsConfig {
                interval: Duration::from_millis(20),
                series_path: Some(series.clone()),
                serve: true,
            },
        )
        .expect("scraper start");
        let addr = scraper.addr().expect("endpoint bound");

        // Live scrape mid-run.
        let mut conn = TcpStream::connect(addr).expect("connect scrape");
        conn.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("request");
        let mut body = String::new();
        conn.read_to_string(&mut body).expect("read snapshot");
        assert_eq!(body.lines().count(), 1, "one line per sample: {body}");
        let doc: netsim::Json = body.parse().unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_eq!(doc["schema"].as_str(), Some("obs-v2"), "{body}");
        assert_eq!(doc["platform"]["counter"].as_u64(), Some(11), "{body}");
        assert_eq!(doc["platform"]["hist"]["count"].as_u64(), Some(1), "{body}");

        std::thread::sleep(Duration::from_millis(80));
        let n = scraper.stop();
        assert!(n >= 2, "expected several samples, got {n}");

        // Series file: every line parses as a JSON object with the
        // schema marker and monotonically increasing sample numbers.
        let file = std::fs::File::open(&series).expect("series exists");
        let mut last_sample = None::<u64>;
        for line in std::io::BufReader::new(file).lines() {
            let line = line.expect("line");
            let doc: netsim::Json = line.parse().unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(doc["schema"].as_str(), Some("obs-v2"), "{line}");
            let sample = doc["sample"].as_u64().expect("sample field");
            if let Some(prev) = last_sample {
                assert!(sample > prev);
            }
            last_sample = Some(sample);
        }
        assert!(last_sample.is_some(), "series not empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scraper_without_endpoint_still_samples() {
        let dir = scratch("nofile");
        let series = dir.join("s.jsonl");
        let scraper = Scraper::start(
            || "{}".to_string(),
            ObsConfig {
                interval: Duration::from_millis(10),
                series_path: Some(series.clone()),
                serve: false,
            },
        )
        .expect("start");
        assert!(scraper.addr().is_none());
        std::thread::sleep(Duration::from_millis(40));
        scraper.stop();
        let text = std::fs::read_to_string(&series).expect("series");
        assert!(text.lines().count() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
