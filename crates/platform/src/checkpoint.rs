//! Manager checkpoint: atomic snapshots of supervision state plus a
//! chunk write-ahead log, so a crashed daemon can be restarted without
//! losing the measurement.
//!
//! Two durable artefacts live under the checkpoint directory:
//!
//! * **`wal/`** — a [`honeypot::spool::Spool`] to which the daemon appends
//!   every chunk payload *before* acknowledging it, in exact merge order.
//!   Replaying the WAL through a fresh [`honeypot::Manager`] reproduces
//!   the merged state bit for bit (same intern order, same sequences), and
//!   the per-agent resume points are derived from it — so even a daemon
//!   that never managed to write a state snapshot recovers losslessly.
//! * **`manager.ckpt`** — a small CRC-trailed snapshot of the supervision
//!   state the WAL cannot carry: per-agent incarnation counters, launch
//!   attempt counts, clean-goodbye flags and uptime/relaunch accounting.
//!   It is replaced atomically (write to a temp file, then `rename`), so a
//!   crash mid-checkpoint leaves the previous snapshot intact; a torn or
//!   corrupt file is detected by its CRC and ignored.
//!
//! The split gives the durability contract its shape: *acked ⇒ in the
//! WAL ⇒ recovered*.  The snapshot only improves supervision continuity;
//! correctness of the measurement never depends on its freshness.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use edonkey_proto::control::crc32;
use edonkey_proto::wire::{Reader, Writer};
use edonkey_proto::ProtoError;
use honeypot::spool::{DiskFaultKind, DiskFaults};

/// Checkpointing knobs for the daemon.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory holding `manager.ckpt` and the `wal/` spool.
    pub dir: PathBuf,
    /// How often the supervision loop writes a state snapshot.
    pub interval_ms: u64,
}

impl CheckpointOptions {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions { dir: dir.into(), interval_ms: 100 }
    }

    /// The chunk WAL directory.
    pub fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }
}

/// Snapshot file name inside the checkpoint directory.
pub const STATE_FILE: &str = "manager.ckpt";

const MAGIC: [u8; 4] = *b"EDCK";
const VERSION: u8 = 1;
/// Encoded size of one slot: u64 + u32 + u32 + u8 + five u64 counters.
const SLOT_BYTES: usize = 8 + 4 + 4 + 1 + 5 * 8;

/// Per-agent supervision state carried across a manager restart.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotCheckpoint {
    /// Next upload sequence expected from this agent.
    pub expected_seq: u64,
    /// Incarnation the next (re)launch will carry.
    pub next_incarnation: u32,
    /// Consecutive launch attempts without a `Connected` status.
    pub attempts: u32,
    /// The agent said a clean goodbye; never relaunch it.
    pub goodbye: bool,
    /// Relaunches issued so far (metrics continuity).
    pub relaunches: u64,
    /// Deaths declared so far (metrics continuity).
    pub deaths: u64,
    /// Resumed registrations so far (metrics continuity).
    pub resumes: u64,
    /// Total registrations so far (metrics continuity).
    pub registrations: u64,
    /// Registered milliseconds accumulated so far (metrics continuity).
    pub uptime_ms: u64,
}

/// The whole snapshot: one [`SlotCheckpoint`] per agent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManagerCheckpoint {
    pub slots: Vec<SlotCheckpoint>,
}

impl ManagerCheckpoint {
    /// Serialises the snapshot (little-endian fields, CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(9 + self.slots.len() * SLOT_BYTES + 4);
        w.bytes(&MAGIC);
        w.u8(VERSION);
        w.u32(self.slots.len() as u32);
        for s in &self.slots {
            w.u64(s.expected_seq);
            w.u32(s.next_incarnation);
            w.u32(s.attempts);
            w.u8(s.goodbye as u8);
            w.u64(s.relaunches);
            w.u64(s.deaths);
            w.u64(s.resumes);
            w.u64(s.registrations);
            w.u64(s.uptime_ms);
        }
        let mut out = w.into_bytes();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a snapshot; `None` for anything torn, corrupt or from an
    /// unknown version — recovery then proceeds from the WAL alone.
    pub fn decode(data: &[u8]) -> Option<ManagerCheckpoint> {
        let (body, crc) = data.split_at_checked(data.len().checked_sub(4)?)?;
        if crc32(body) != u32::from_le_bytes(crc.try_into().ok()?) {
            return None;
        }
        let mut r = Reader::new(body);
        if r.take(MAGIC.len()).ok()? != MAGIC || r.u8().ok()? != VERSION {
            return None;
        }
        // The declared count is only trusted as far as the body backs it:
        // a CRC-valid snapshot may still claim more slots than it holds.
        let n = r.u32().ok()? as usize;
        if n.checked_mul(SLOT_BYTES)? != r.remaining() {
            return None;
        }
        let mut slot = || -> Result<SlotCheckpoint, ProtoError> {
            Ok(SlotCheckpoint {
                expected_seq: r.u64()?,
                next_incarnation: r.u32()?,
                attempts: r.u32()?,
                goodbye: r.u8()? != 0,
                relaunches: r.u64()?,
                deaths: r.u64()?,
                resumes: r.u64()?,
                registrations: r.u64()?,
                uptime_ms: r.u64()?,
            })
        };
        let slots = (0..n).map(|_| slot()).collect::<Result<_, _>>().ok()?;
        Some(ManagerCheckpoint { slots })
    }
}

/// Writes the snapshot atomically: temp file in the same directory, then
/// `rename` over [`STATE_FILE`].  A crash at any point leaves either the
/// old snapshot or the new one, never a mix.  The write consults
/// `faults`: a short write leaves a torn *temp* file and never renames
/// it, mirroring how a real mid-write crash presents — the previous
/// snapshot stays intact and the CRC rejects the fragment if anything
/// ever reads it.
pub fn save_checkpoint(
    dir: &Path,
    ckpt: &ManagerCheckpoint,
    faults: &DiskFaults,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let bytes = ckpt.encode();
    let tmp = dir.join(format!("{STATE_FILE}.tmp-{}", std::process::id()));
    if let Some(kind) = faults.check() {
        if kind == DiskFaultKind::ShortWrite {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
        }
        return Err(kind.to_error());
    }
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, dir.join(STATE_FILE))
}

/// Moves a (suspected-stale) snapshot aside as `manager.ckpt.quarantined`
/// so a later recovery cannot resurrect supervision state the daemon knows
/// it failed to keep fresh.  Missing snapshot is fine; returns whether a
/// file was actually moved.
pub fn quarantine_checkpoint(dir: &Path) -> io::Result<bool> {
    let path = dir.join(STATE_FILE);
    if !path.exists() {
        return Ok(false);
    }
    fs::rename(&path, dir.join(format!("{STATE_FILE}.quarantined")))?;
    Ok(true)
}

/// Loads the snapshot if present and intact; `None` otherwise (including
/// a torn write that somehow reached the final name — the CRC catches it).
pub fn load_checkpoint(dir: &Path) -> Option<ManagerCheckpoint> {
    let data = fs::read(dir.join(STATE_FILE)).ok()?;
    ManagerCheckpoint::decode(&data)
}

/// Test hook: simulate a crash *mid-checkpoint* by leaving a torn temp
/// file (the first `keep` bytes) next to the real snapshot.  Recovery must
/// ignore it.  Returns the temp path.
pub fn write_torn_tmp(dir: &Path, ckpt: &ManagerCheckpoint, keep: usize) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let bytes = ckpt.encode();
    let cut = keep.min(bytes.len());
    let tmp = dir.join(format!("{STATE_FILE}.tmp-torn"));
    fs::write(&tmp, &bytes[..cut])?;
    Ok(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ManagerCheckpoint {
        ManagerCheckpoint {
            slots: vec![
                SlotCheckpoint {
                    expected_seq: 7,
                    next_incarnation: 2,
                    attempts: 1,
                    goodbye: false,
                    relaunches: 1,
                    deaths: 1,
                    resumes: 3,
                    registrations: 4,
                    uptime_ms: 1234,
                },
                SlotCheckpoint {
                    expected_seq: 0,
                    next_incarnation: 1,
                    attempts: 0,
                    goodbye: true,
                    ..SlotCheckpoint::default()
                },
            ],
        }
    }

    /// `sample().encode()` from the last build with the bitwise CRC.
    #[rustfmt::skip]
    const PARENT_SAMPLE_CHECKPOINT: [u8; 127] = [
        0x45, 0x44, 0x43, 0x4b, 0x01, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd2, 0x04, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x5a, 0x18, 0xf9,
    ];

    #[test]
    fn checkpoint_written_by_the_bitwise_crc_build_decodes_and_re_encodes_identically() {
        assert_eq!(ManagerCheckpoint::decode(&PARENT_SAMPLE_CHECKPOINT), Some(sample()));
        assert_eq!(sample().encode(), PARENT_SAMPLE_CHECKPOINT);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "edhp-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = sample();
        assert_eq!(ManagerCheckpoint::decode(&ckpt.encode()), Some(ckpt));
        assert_eq!(
            ManagerCheckpoint::decode(&ManagerCheckpoint::default().encode()),
            Some(ManagerCheckpoint::default())
        );
    }

    #[test]
    fn a_slot_count_the_body_does_not_hold_is_rejected() {
        // CRC-valid, 13 bytes, claiming u32::MAX slots: decode must say
        // `None` without reserving room for them first.
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        assert_eq!(bytes.len(), 13);
        assert_eq!(ManagerCheckpoint::decode(&bytes), None);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert_eq!(ManagerCheckpoint::decode(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut doctored = bytes.clone();
            doctored[i] ^= 0x01;
            assert_eq!(ManagerCheckpoint::decode(&doctored), None, "flip at byte {i}");
        }
    }

    #[test]
    fn save_load_and_atomic_replace() {
        let dir = tmpdir("saveload");
        assert_eq!(load_checkpoint(&dir), None);
        let first = sample();
        save_checkpoint(&dir, &first, &DiskFaults::none()).unwrap();
        assert_eq!(load_checkpoint(&dir), Some(first));
        let mut second = sample();
        second.slots[0].expected_seq = 99;
        save_checkpoint(&dir, &second, &DiskFaults::none()).unwrap();
        assert_eq!(load_checkpoint(&dir), Some(second));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_never_damage_the_snapshot() {
        let dir = tmpdir("faults");
        let ckpt = sample();
        save_checkpoint(&dir, &ckpt, &DiskFaults::none()).unwrap();
        let faults = DiskFaults::none();
        let mut newer = sample();
        newer.slots[0].expected_seq = 77;
        faults.inject(DiskFaultKind::Eio, Some(1));
        assert!(save_checkpoint(&dir, &newer, &faults).is_err());
        assert_eq!(load_checkpoint(&dir), Some(ckpt.clone()), "EIO left old snapshot");
        faults.inject(DiskFaultKind::ShortWrite, Some(1));
        assert!(save_checkpoint(&dir, &newer, &faults).is_err());
        assert_eq!(load_checkpoint(&dir), Some(ckpt), "torn temp never renamed");
        // Once the fault clears the same save goes through.
        save_checkpoint(&dir, &newer, &faults).unwrap();
        assert_eq!(load_checkpoint(&dir), Some(newer));
        assert_eq!(faults.injected(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_the_snapshot_aside() {
        let dir = tmpdir("quarantine");
        assert!(!quarantine_checkpoint(&dir).unwrap(), "nothing to quarantine yet");
        let ckpt = sample();
        save_checkpoint(&dir, &ckpt, &DiskFaults::none()).unwrap();
        assert!(quarantine_checkpoint(&dir).unwrap());
        assert_eq!(load_checkpoint(&dir), None, "quarantined snapshot is invisible");
        assert!(dir.join(format!("{STATE_FILE}.quarantined")).exists());
        assert!(!quarantine_checkpoint(&dir).unwrap(), "second call is a no-op");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_never_shadows_the_snapshot() {
        let dir = tmpdir("torn");
        let ckpt = sample();
        save_checkpoint(&dir, &ckpt, &DiskFaults::none()).unwrap();
        let mut newer = sample();
        newer.slots[0].expected_seq = 1000;
        let tmp = write_torn_tmp(&dir, &newer, 20).unwrap();
        assert!(tmp.exists());
        // The interrupted checkpoint is invisible; the old one survives.
        assert_eq!(load_checkpoint(&dir), Some(ckpt));
        let _ = fs::remove_dir_all(&dir);
    }
}
