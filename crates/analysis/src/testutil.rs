//! Synthetic [`MeasurementLog`] fixtures for tests.
//!
//! Public (not `cfg(test)`) so that downstream crates' tests can reuse the
//! same fixtures; hidden from docs.

#![doc(hidden)]

use edonkey_proto::{FileId, Ipv4, UserId};
use honeypot::log::{FileTable, FILE_NONE};
use honeypot::{
    AnonClient, AnonPeerId, AnonRecord, ClientTable, ContentStrategy, HoneypotId, HoneypotMeta,
    IdStatus, MeasurementLog, QueryKind, ServerInfo,
};
use netsim::SimTime;

/// Builds a three-day, two-honeypot log (hp0 = no-content, hp1 =
/// random-content) with three known files, from `(peer, kind, honeypot,
/// time)` tuples.  Non-HELLO records reference file 0 by default; use
/// [`synthetic_log_with_files`] to control the file per record.
pub fn synthetic_log(entries: &[(u32, QueryKind, u32, SimTime)]) -> MeasurementLog {
    let with_files: Vec<(u32, QueryKind, u32, SimTime, u32)> = entries
        .iter()
        .map(|&(p, k, h, t)| (p, k, h, t, if k == QueryKind::Hello { FILE_NONE } else { 0 }))
        .collect();
    synthetic_log_with_files(&with_files)
}

/// Like [`synthetic_log`], with an explicit file index per record
/// (`FILE_NONE` for none).
pub fn synthetic_log_with_files(entries: &[(u32, QueryKind, u32, SimTime, u32)]) -> MeasurementLog {
    let server = ServerInfo::new("srv", Ipv4::new(195, 0, 0, 1), 4661);
    let mut files = FileTable::new();
    files.intern(FileId::from_seed(b"file-0"), "file zero.avi", 700 << 20);
    files.intern(FileId::from_seed(b"file-1"), "file one.mp3", 5 << 20);
    files.intern(FileId::from_seed(b"file-2"), "file two.iso", 650 << 20);

    let max_peer = entries.iter().map(|e| e.0).max().map_or(0, |m| m + 1);
    let max_hp = entries.iter().map(|e| e.2).max().map_or(1, |m| m + 1).max(2);
    let mut clients = ClientTable::default();
    let records = entries
        .iter()
        .map(|&(peer, kind, hp, at, file)| {
            let client = AnonClient {
                port: 4662,
                id_status: if peer % 3 == 0 { IdStatus::Low } else { IdStatus::High },
                user_id: UserId::from_seed(&peer.to_le_bytes()),
                name: 0,
                version: 0x49,
            };
            let peer = AnonPeerId(peer);
            let new_client = clients.push(peer, client);
            AnonRecord::new(at, peer, file, hp, kind, new_client)
        })
        .collect();

    MeasurementLog {
        honeypots: (0..max_hp)
            .map(|i| HoneypotMeta {
                id: HoneypotId(i),
                content: if i % 2 == 0 {
                    ContentStrategy::NoContent
                } else {
                    ContentStrategy::RandomContent
                },
                server: server.clone(),
            })
            .collect(),
        records,
        clients: clients.into_entries(),
        shared_lists: Vec::new(),
        peer_names: vec!["eMule".into()],
        files,
        distinct_peers: max_peer,
        duration: SimTime::from_days(3),
        shared_files_final: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_valid() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(2)),
        ]);
        assert!(log.validate().is_empty(), "{:?}", log.validate());
        assert_eq!(log.honeypots.len(), 2);
        assert_eq!(log.distinct_peers, 2);
    }
}
