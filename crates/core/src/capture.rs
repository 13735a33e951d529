//! The server-side capture sink: glue between [`crate::server::IndexServer`]
//! and the streaming compressed log in [`crate::serverlog`].
//!
//! A [`ServerCapture`] owns the [`ServerLogWriter`] plus the step-1 IP
//! hasher the records are anonymised with (the *same* salted hasher the
//! honeypots use, so peer digests are comparable across the two
//! modalities).  The sink is pure observation: it draws no randomness and
//! mutates no simulation state, so a run with capture attached produces a
//! bit-identical honeypot `MeasurementLog` (asserted in `edonkey-sim`'s
//! `tests/capture.rs`).
//!
//! I/O errors don't abort a multi-week run: the first error disables the
//! capture (the measurement itself continues untouched), every record
//! arriving after it is counted as dropped, and [`ServerCapture::finish`]
//! still returns the statistics of what made it to disk — degradation is
//! a *metric* ([`ServerCapture::degraded`]), not a run failure.

use std::io;
use std::path::Path;

use edonkey_proto::Ipv4;

use crate::anonymize::{IpHash, IpHasher};
use crate::serverlog::{ServerLogStats, ServerLogWriter, ServerRecord};

/// Streaming sink for server-side query records.
pub struct ServerCapture {
    writer: ServerLogWriter,
    hasher: IpHasher,
    error: Option<io::Error>,
    dropped: u64,
}

impl ServerCapture {
    /// Opens a capture under `dir`, flushing a compressed frame every
    /// `frame_records` records and rotating segments at `segment_bytes`.
    /// The hasher is a placeholder until the host installs its own seeded
    /// instance via [`Self::set_hasher`].
    pub fn create(dir: &Path, frame_records: usize, segment_bytes: u64) -> io::Result<Self> {
        Ok(ServerCapture {
            writer: ServerLogWriter::create(dir, frame_records, segment_bytes)?,
            hasher: IpHasher::from_seed(0),
            error: None,
            dropped: 0,
        })
    }

    /// Installs the run's step-1 anonymisation hasher (the world's, so
    /// server and honeypot peer digests coincide).
    pub fn set_hasher(&mut self, hasher: IpHasher) {
        self.hasher = hasher;
    }

    /// Step-1 anonymises a client IP.
    pub fn hash_ip(&self, ip: Ipv4) -> IpHash {
        self.hasher.hash(ip)
    }

    /// Appends one record.  After a write error the capture goes quiet;
    /// later records are counted in [`Self::dropped`].
    pub fn emit(&mut self, record: &ServerRecord) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        if let Err(e) = self.writer.push(record) {
            self.error = Some(e);
        }
    }

    /// Whether a write error disabled the capture.
    pub fn degraded(&self) -> bool {
        self.error.is_some()
    }

    /// Records that arrived after the capture went quiet.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flushes and closes the capture, returning its statistics.  A
    /// degraded capture still reports the flushed prefix (check
    /// [`Self::degraded`] before consuming): losing the server-side log is
    /// a degradation, never a reason to lose the honeypot measurement.
    pub fn finish(self) -> io::Result<ServerLogStats> {
        if self.error.is_some() {
            return Ok(self.writer.stats());
        }
        self.writer.finish()
    }
}

impl std::fmt::Debug for ServerCapture {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("ServerCapture")
            .field("records", &self.writer.records())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serverlog::{ServerLogReader, ServerQueryKind};
    use crate::spool::{DiskFaultKind, DiskFaults};
    use edonkey_proto::FileId;
    use netsim::SimTime;

    fn record(i: u64) -> ServerRecord {
        ServerRecord {
            at: SimTime::from_secs(i),
            kind: ServerQueryKind::GetSources,
            peer: IpHash([i as u8; 16]),
            port: 4662,
            flag: 0,
            file: FileId::from_seed(&i.to_le_bytes()),
            session: i,
            payload: 1,
        }
    }

    #[test]
    fn a_write_fault_degrades_the_capture_and_keeps_the_flushed_prefix() {
        let dir = std::env::temp_dir().join(format!("capture-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = DiskFaults::none();
        let mut cap = ServerCapture::create(&dir, 10, u64::MAX).unwrap();
        cap.writer.set_faults(faults.clone());
        for i in 0..10 {
            cap.emit(&record(i));
        }
        assert!(!cap.degraded(), "the first frame flushes cleanly");
        // The fault fires at the next frame boundary: the record that fills
        // the second frame fails its flush and takes the frame down with it.
        faults.inject(DiskFaultKind::Eio, Some(1));
        for i in 10..20 {
            cap.emit(&record(i));
        }
        assert!(cap.degraded());
        assert_eq!(cap.dropped(), 0, "nothing arrived after the failure yet");
        for i in 20..35 {
            cap.emit(&record(i));
        }
        assert_eq!(cap.dropped(), 15, "every later record is counted as dropped");
        let stats = cap.finish().unwrap();
        assert_eq!(stats.records, 10, "the flushed prefix only");
        assert_eq!(faults.injected(), 1, "one write failed, and nothing retried it");
        let mut reader = ServerLogReader::open(&dir).unwrap();
        let read: Vec<ServerRecord> = std::iter::from_fn(|| reader.next()).collect();
        assert_eq!(read, (0..10).map(record).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
