//! Deterministic log-chunk synthesis for the `live-upload` workload.
//!
//! Chunk `(agent, seq)` is a pure function of the run seed, so the
//! uploading clients and the correctness replay generate identical chunks
//! independently and nothing has to be journaled.  The shape follows what
//! `sim-distributed` logs at the default seed: 40 % HELLO, 20 %
//! START-UPLOAD, 40 % REQUEST-PART, 36 % low-ID peers, ten client names,
//! a shared list for about 2 % of the records with 11 files on average —
//! and a peer population that grows with the sequence number, so the
//! manager's anonymisation table keeps growing through the upload as it
//! does in a real measurement.

use edonkey_proto::{FileId, Ipv4, UserId};
use honeypot::log::{FileTable, QueryRecord, SharedLists, FILE_NONE};
use honeypot::{HoneypotId, IdStatus, IpHash, LogChunk, QueryKind, ServerInfo};
use netsim::rng::stream_seed;
use netsim::{Rng, SimTime};

const CLIENT_NAMES: usize = 10;
const TABLE_FILES: u32 = 256;
/// Peers known before the first chunk, and new ones per sequence step.
const PEERS_AT_START: u64 = 2_000;
const PEERS_PER_SEQ: u64 = 150;
/// Simulated time one chunk covers (a collection period).
const CHUNK_SPAN_MS: u64 = 60_000;

/// Generates one agent's chunks.
pub struct ChunkSynth {
    seed: u64,
    agent: u32,
    records: usize,
    server: ServerInfo,
    peer_names: Vec<String>,
    files: FileTable,
}

impl ChunkSynth {
    pub fn new(seed: u64, agent: u32, records_per_chunk: usize) -> Self {
        let mut files = FileTable::new();
        for i in 0..TABLE_FILES {
            // The table is shared by all agents (they advertise the same
            // files and meet the same peers' lists), as in the paper's
            // distributed measurement.
            let id = FileId::from_seed(format!("bench-file-{seed:x}-{i}").as_bytes());
            files.intern(id, &format!("bench file {i}.avi"), 1_000_000 + u64::from(i) * 4_096);
        }
        ChunkSynth {
            seed,
            agent,
            records: records_per_chunk,
            server: ServerInfo::new("bench-server", Ipv4::new(127, 0, 0, 1), 4661),
            peer_names: (0..CLIENT_NAMES).map(|i| format!("bench-client-{i}")).collect(),
            files,
        }
    }

    /// Chunk `seq` of this agent.
    pub fn chunk(&self, seq: u64) -> LogChunk {
        let mut rng =
            Rng::seed_from(stream_seed(stream_seed(self.seed, u64::from(self.agent)), seq));
        let population = PEERS_AT_START + PEERS_PER_SEQ * seq;
        let mut records = Vec::with_capacity(self.records);
        let mut shared_lists = SharedLists::new();
        let step_ms = (CHUNK_SPAN_MS / self.records.max(1) as u64).max(1);
        for i in 0..self.records {
            let at = SimTime::from_millis(seq * CHUNK_SPAN_MS + i as u64 * step_ms);
            // A peer is its index: every field derived from it is stable
            // across chunks and agents, like a real peer's identity.
            let peer_index = rng.below(population);
            let peer = IpHash(identity(self.seed ^ 0x1F, peer_index));
            let file = rng.below(u64::from(TABLE_FILES)) as u32;
            let kind = match rng.below(5) {
                0 | 1 => QueryKind::Hello,
                2 => QueryKind::StartUpload,
                _ => QueryKind::RequestPart,
            };
            records.push(QueryRecord {
                at,
                kind,
                peer,
                port: 4662 + (peer_index % 7) as u16,
                id_status: if peer_index % 25 < 9 { IdStatus::Low } else { IdStatus::High },
                user_id: UserId(identity(self.seed ^ 0x2F, peer_index)),
                name: (peer_index % CLIENT_NAMES as u64) as u32,
                version: 0x49,
                file: if kind == QueryKind::Hello { FILE_NONE } else { file },
            });
            if rng.below(45) == 0 {
                let len = 1 + rng.below(21);
                shared_lists.push(
                    at,
                    peer,
                    (0..len).map(|_| rng.below(u64::from(TABLE_FILES)) as u32),
                );
            }
        }
        LogChunk {
            honeypot: HoneypotId(self.agent),
            server: self.server.clone(),
            records,
            shared_lists,
            peer_names: self.peer_names.clone(),
            files: self.files.clone(),
        }
    }
}

/// Sixteen identity bytes of peer `index` (two splitmix outputs).
fn identity(salt: u64, index: u64) -> [u8; 16] {
    let mut state = stream_seed(salt, index);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&netsim::rng::splitmix64(&mut state).to_le_bytes());
    out[8..].copy_from_slice(&netsim::rng::splitmix64(&mut state).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_a_pure_function_of_seed_agent_and_seq() {
        let a = ChunkSynth::new(11, 0, 500);
        let again = ChunkSynth::new(11, 0, 500);
        assert_eq!(a.chunk(3), again.chunk(3));
        assert_eq!(a.chunk(3), a.chunk(3));
        assert_ne!(a.chunk(3), a.chunk(4));
        assert_ne!(a.chunk(3).records, ChunkSynth::new(11, 1, 500).chunk(3).records);
        assert_ne!(a.chunk(3).records, ChunkSynth::new(12, 0, 500).chunk(3).records);
    }

    #[test]
    fn chunks_have_the_distributed_shape() {
        let chunk = ChunkSynth::new(5, 1, 5_000).chunk(9);
        assert_eq!(chunk.records.len(), 5_000);
        assert_eq!(chunk.honeypot, HoneypotId(1));
        let share = |k: QueryKind| {
            chunk.records.iter().filter(|r| r.kind == k).count() as f64 / chunk.records.len() as f64
        };
        assert!((share(QueryKind::Hello) - 0.4).abs() < 0.03);
        assert!((share(QueryKind::StartUpload) - 0.2).abs() < 0.03);
        assert!((share(QueryKind::RequestPart) - 0.4).abs() < 0.03);
        assert!(chunk
            .records
            .iter()
            .all(|r| (r.kind == QueryKind::Hello) == (r.file == FILE_NONE)));
        assert!(chunk.records.iter().all(|r| (r.name as usize) < chunk.peer_names.len()));
        assert!(chunk.records.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!chunk.shared_lists.is_empty());
    }
}
