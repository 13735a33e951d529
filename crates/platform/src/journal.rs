//! Pre-transport chunk journal and replay.
//!
//! Agents record every log chunk here, keyed `(agent, seq)`, *before*
//! encoding it for the wire.  The daemon independently records the order
//! in which it merged `(agent, seq)` pairs.  Replaying the journal copies
//! in the daemon's order through a fresh in-process [`Manager`] must then
//! reproduce the daemon's [`MeasurementLog`] bit for bit — the proof that
//! the control plane moved every record exactly once, unmodified, in
//! order, through corruption, crashes and reconnects.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use honeypot::{HoneypotSpec, LogChunk, Manager, MeasurementLog};
use netsim::sync::lock;
use netsim::SimTime;

/// A shared, append-only record of every chunk agents handed to the wire.
#[derive(Clone, Default)]
pub struct ChunkJournal {
    inner: Arc<Mutex<HashMap<(u32, u64), LogChunk>>>,
}

impl ChunkJournal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the pre-transport copy of an upload.  Re-recording the same
    /// key (a retry of an unacked chunk) keeps the first copy.
    pub fn record(&self, agent: u32, seq: u64, chunk: LogChunk) {
        lock(&self.inner).entry((agent, seq)).or_insert(chunk);
    }

    /// The recorded copy for `(agent, seq)`.
    pub fn get(&self, agent: u32, seq: u64) -> Option<LogChunk> {
        lock(&self.inner).get(&(agent, seq)).cloned()
    }

    /// Number of distinct chunks recorded.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Replays the journal in the given merge order through a fresh
    /// in-process manager and finalizes it with the same parameters the
    /// daemon used.
    ///
    /// # Panics
    /// If `order` references a chunk the journal never saw (that would
    /// mean the daemon merged bytes no agent sent).
    pub fn replay(
        &self,
        order: &[(u32, u64)],
        specs: Vec<HoneypotSpec>,
        duration: SimTime,
        shared_files_final: u32,
        name_threshold: u32,
    ) -> MeasurementLog {
        let mut mgr = Manager::new(specs);
        for &(agent, seq) in order {
            let chunk = self
                .get(agent, seq)
                .unwrap_or_else(|| panic!("daemon merged unjournaled chunk ({agent}, {seq})"));
            assert!(mgr.collect_sequenced(seq, chunk), "daemon merge order contained a duplicate");
        }
        mgr.finalize(duration, shared_files_final, name_threshold)
    }
}

/// Structural equality of two measurement logs (`MeasurementLog` itself
/// does not implement `PartialEq`; the file table needs element-wise
/// comparison).  Returns the first difference found, `None` when equal.
pub fn measurement_diff(a: &MeasurementLog, b: &MeasurementLog) -> Option<String> {
    if a.records.len() != b.records.len() {
        return Some(format!("record count {} != {}", a.records.len(), b.records.len()));
    }
    if let Some(i) = (0..a.records.len()).find(|&i| a.records[i] != b.records[i]) {
        return Some(format!("record {i} differs: {:?} != {:?}", a.records[i], b.records[i]));
    }
    // Equal records point at equal entries, so equal tables mean equal
    // HELLO attributes.
    if a.clients != b.clients {
        return Some(format!(
            "client tables differ ({} vs {} entries)",
            a.clients.len(),
            b.clients.len()
        ));
    }
    if a.shared_lists != b.shared_lists {
        return Some("shared lists differ".into());
    }
    if a.peer_names != b.peer_names {
        return Some("peer name tables differ".into());
    }
    if a.distinct_peers != b.distinct_peers {
        return Some(format!("distinct peers {} != {}", a.distinct_peers, b.distinct_peers));
    }
    if a.files.len() != b.files.len() {
        return Some(format!("file table size {} != {}", a.files.len(), b.files.len()));
    }
    for i in 0..a.files.len() as u32 {
        if a.files.id(i) != b.files.id(i)
            || a.files.name(i) != b.files.name(i)
            || a.files.size(i) != b.files.size(i)
        {
            return Some(format!("file table entry {i} differs"));
        }
    }
    if a.honeypots.len() != b.honeypots.len() {
        return Some("honeypot metadata differs".into());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::{Ipv4, UserId};
    use honeypot::log::{QueryRecord, FILE_NONE};
    use honeypot::{
        ContentStrategy, HoneypotId, HoneypotLog, IdStatus, IpHasher, QueryKind, ServerInfo,
    };

    fn specs() -> Vec<HoneypotSpec> {
        vec![HoneypotSpec {
            id: HoneypotId(0),
            content: ContentStrategy::NoContent,
            server: ServerInfo::new("s", Ipv4::new(127, 0, 0, 1), 4661),
        }]
    }

    fn chunk(n: usize) -> LogChunk {
        let hasher = IpHasher::from_seed(1);
        let mut log =
            HoneypotLog::new(HoneypotId(0), ServerInfo::new("s", Ipv4::new(127, 0, 0, 1), 4661));
        let name = log.intern_name("eMule");
        for i in 0..n {
            log.push(QueryRecord {
                at: SimTime::from_millis(i as u64),
                kind: QueryKind::Hello,
                peer: hasher.hash(Ipv4::new(10, 0, (i / 256) as u8, (i % 256) as u8)),
                port: 4662,
                id_status: IdStatus::High,
                user_id: UserId::from_seed(b"u"),
                name,
                version: 1,
                file: FILE_NONE,
            });
        }
        log.take_chunk()
    }

    #[test]
    fn replay_reproduces_direct_merge() {
        let journal = ChunkJournal::new();
        journal.record(0, 0, chunk(3));
        journal.record(0, 1, chunk(2));
        let order = vec![(0, 0), (0, 1)];

        let mut direct = Manager::new(specs());
        direct.collect_sequenced(0, journal.get(0, 0).unwrap());
        direct.collect_sequenced(1, journal.get(0, 1).unwrap());
        let direct_log = direct.finalize(SimTime::from_secs(60), 4, 1);

        let replayed = journal.replay(&order, specs(), SimTime::from_secs(60), 4, 1);
        assert_eq!(measurement_diff(&direct_log, &replayed), None);
    }

    #[test]
    fn diff_detects_missing_records() {
        let journal = ChunkJournal::new();
        journal.record(0, 0, chunk(3));
        let full = journal.replay(&[(0, 0)], specs(), SimTime::from_secs(60), 4, 1);
        let empty = journal.replay(&[], specs(), SimTime::from_secs(60), 4, 1);
        assert!(measurement_diff(&full, &empty).is_some());
    }

    #[test]
    fn retry_rerecording_keeps_first_copy() {
        let journal = ChunkJournal::new();
        journal.record(0, 0, chunk(3));
        journal.record(0, 0, chunk(5));
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.get(0, 0).unwrap().records.len(), 3);
    }
}
