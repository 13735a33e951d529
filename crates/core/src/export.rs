//! Plain-text trace export.
//!
//! Analysts outside this codebase want flat files, not Rust structs: these
//! writers emit the anonymised measurement as tab-separated traces, one
//! line per query (and one per shared-list observation), in the spirit of
//! the trace files measurement papers of the era published alongside their
//! datasets.
//!
//! Query trace columns:
//!
//! ```text
//! timestamp_ms  honeypot  kind  peer  port  id_status  user_hash  client_name  version  file_hash
//! ```
//!
//! Fields that do not apply carry `-`.  Everything written here is already
//! anonymised (step-2 integers, hashed user IDs, word-anonymised names).

use std::io::{self, Write};

use crate::log::FILE_NONE;
use crate::measurement::MeasurementLog;
use crate::types::IdStatus;

/// Writes the query trace.
pub fn write_query_trace(log: &MeasurementLog, mut w: impl Write) -> io::Result<()> {
    writeln!(
        w,
        "#timestamp_ms\thoneypot\tkind\tpeer\tport\tid_status\tuser_hash\tclient_name\tversion\tfile_hash"
    )?;
    for (r, c) in log.records_with_clients() {
        let file =
            if r.file == FILE_NONE { "-".to_string() } else { log.files.id(r.file).to_hex() };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.at().as_millis(),
            r.honeypot(),
            r.kind().name(),
            r.peer.0,
            c.port,
            match c.id_status {
                IdStatus::High => "high",
                IdStatus::Low => "low",
            },
            c.user_id.to_hex(),
            log.peer_names.get(c.name as usize).map(String::as_str).unwrap_or("-"),
            c.version,
            file,
        )?;
    }
    Ok(())
}

/// Writes the shared-list trace: one line per observation,
/// `timestamp_ms  honeypot  peer  n_files  file_hash,file_hash,…`.
pub fn write_shared_list_trace(log: &MeasurementLog, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "#timestamp_ms\thoneypot\tpeer\tn_files\tfile_hashes")?;
    for l in &log.shared_lists {
        let hashes: Vec<String> = l.files.iter().map(|&f| log.files.id(f).to_hex()).collect();
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            l.at.as_millis(),
            l.honeypot.0,
            l.peer.0,
            l.files.len(),
            hashes.join(",")
        )?;
    }
    Ok(())
}

/// Writes the observed-file catalog:
/// `file_hash  size_bytes  anonymised_name`.
pub fn write_file_catalog(log: &MeasurementLog, mut w: impl Write) -> io::Result<()> {
    writeln!(w, "#file_hash\tsize_bytes\tname")?;
    for i in 0..log.files.len() as u32 {
        writeln!(w, "{}\t{}\t{}", log.files.id(i).to_hex(), log.files.size(i), log.files.name(i))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize::AnonPeerId;
    use crate::log::{FileTable, QueryKind};
    use crate::measurement::{AnonClient, AnonRecord, AnonSharedList, ClientTable, HoneypotMeta};
    use crate::strategy::ContentStrategy;
    use crate::types::{HoneypotId, ServerInfo};
    use edonkey_proto::{FileId, Ipv4, UserId};
    use netsim::SimTime;

    fn sample() -> MeasurementLog {
        let mut files = FileTable::new();
        let f = files.intern(FileId::from_seed(b"x"), "some file.avi", 700);
        let mut clients = ClientTable::default();
        let mut client = |id_status| {
            let attributes = AnonClient {
                port: 4662,
                id_status,
                user_id: UserId::from_seed(b"u"),
                name: 0,
                version: 0x49,
            };
            clients.push(AnonPeerId(0), attributes)
        };
        let (high, low) = (client(IdStatus::High), client(IdStatus::Low));
        MeasurementLog {
            honeypots: vec![HoneypotMeta {
                id: HoneypotId(0),
                content: ContentStrategy::NoContent,
                server: ServerInfo::new("s", Ipv4::new(1, 1, 1, 1), 4661),
            }],
            records: vec![
                AnonRecord::new(
                    SimTime::from_secs(1),
                    AnonPeerId(0),
                    FILE_NONE,
                    0,
                    QueryKind::Hello,
                    high,
                ),
                AnonRecord::new(
                    SimTime::from_secs(2),
                    AnonPeerId(0),
                    f,
                    0,
                    QueryKind::StartUpload,
                    low,
                ),
            ],
            clients: clients.into_entries(),
            shared_lists: vec![AnonSharedList {
                at: SimTime::from_secs(3),
                honeypot: HoneypotId(0),
                peer: AnonPeerId(0),
                files: vec![f],
            }],
            peer_names: vec!["eMule".into()],
            files,
            distinct_peers: 1,
            duration: SimTime::from_days(1),
            shared_files_final: 1,
        }
    }

    #[test]
    fn query_trace_format() {
        let mut out = Vec::new();
        write_query_trace(&sample(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + two records");
        assert!(lines[0].starts_with('#'));
        let fields: Vec<&str> = lines[1].split('\t').collect();
        assert_eq!(fields.len(), 10);
        assert_eq!(fields[0], "1000");
        assert_eq!(fields[2], "HELLO");
        assert_eq!(fields[9], "-", "HELLO carries no file");
        let fields: Vec<&str> = lines[2].split('\t').collect();
        assert_eq!(fields[2], "START-UPLOAD");
        assert_eq!(fields[5], "low");
        assert_eq!(fields[9], FileId::from_seed(b"x").to_hex());
    }

    #[test]
    fn shared_list_trace_format() {
        let mut out = Vec::new();
        write_shared_list_trace(&sample(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let line = text.lines().nth(1).unwrap();
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields[3], "1");
        assert!(fields[4].contains(&FileId::from_seed(b"x").to_hex()));
    }

    #[test]
    fn file_catalog_format() {
        let mut out = Vec::new();
        write_file_catalog(&sample(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("some file.avi"));
        assert!(text.contains("700"));
    }

    #[test]
    fn traces_never_contain_raw_ips() {
        // The trace must not contain anything shaped like a dotted quad
        // (IPs were hashed at step 1 and renumbered at step 2).
        let mut out = Vec::new();
        write_query_trace(&sample(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for token in text.split_whitespace() {
            let dots = token.chars().filter(|&c| c == '.').count();
            if dots == 3 && token.chars().all(|c| c.is_ascii_digit() || c == '.') {
                panic!("dotted quad leaked into trace: {token}");
            }
        }
    }
}
