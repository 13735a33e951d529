//! Deterministic link impairment: a seeded netem-style shim for the
//! control-plane socket path.
//!
//! The platform's earlier fault layer (`FaultPlan`) is *cooperative* — a
//! well-behaved agent misbehaves on script.  This module injects the
//! faults the endpoints never agreed to: loss, duplication, reordering,
//! delay/jitter, bandwidth caps, and timed partitions, applied to the raw
//! byte stream between the agent's `ControlConn` and its socket, in both
//! directions, with no cooperation from either side.
//!
//! ## Model
//!
//! The shim sits *above* TCP, so it must preserve the byte stream exactly
//! — losing or reordering actual bytes would desynchronise the CRC
//! framing forever, which is not what packet-level impairment does to a
//! TCP connection.  Real netem loss/reordering under TCP manifests to the
//! application as *timing*: retransmission stalls, head-of-line blocking,
//! bursty in-order delivery.  [`ImpairedLink`] therefore chops the stream
//! into MTU-sized packets and schedules each packet's *delivery time*:
//!
//! * **delay/jitter** — every packet waits `delay + U[0, jitter]` ms;
//! * **drop** — a dropped packet is "retransmitted": it (and everything
//!   behind it, by in-order delivery) is held for an RTO-shaped penalty;
//! * **duplicate** — the spurious copy consumes bandwidth: transmission
//!   time doubles under the rate cap;
//! * **reorder** — the packet is held an extra jitter-scaled interval;
//!   head-of-line blocking turns that into a stall-then-burst;
//! * **bandwidth cap** — packets serialise over the link at
//!   `rate_bytes_per_sec`, back-to-back transmissions queueing behind a
//!   `busy_until` horizon;
//! * **partition** — delivery scheduled inside a `[start, end)` window is
//!   pushed to the window's end (a timed blackout).
//!
//! Delivery is clamped monotonic (`max(prev_due, computed)`), so the byte
//! stream arrives intact and in order — only *when* is adversarial.
//!
//! ## Determinism
//!
//! All randomness comes from one `xoshiro256**` stream seeded with
//! `stream_seed(plan.seed, stream)`.  The schedule of due-times is a pure
//! function of `(plan, stream, admit sequence)`: the same seed replayed
//! against the same admitted bytes at the same virtual clock yields the
//! same byte timeline (pinned by `same_seed_same_timeline` below).  The
//! engine never reads a wall clock — callers pass `now_ms`, so tests
//! drive a synthetic clock while the transport passes elapsed real time.

use std::collections::VecDeque;
use std::io::{self, Read};

use netsim::rng::stream_seed;
use netsim::Rng;

/// Path-MTU-ish packetisation quantum for the byte stream.
pub const IMPAIR_MTU: usize = 1448;

/// Ceiling on consecutive simulated retransmissions of one packet.
const MAX_RETRANSMITS: u32 = 4;

/// A timed blackout window, in milliseconds of link lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First millisecond of the blackout.
    pub start_ms: u64,
    /// First millisecond *after* the blackout.
    pub end_ms: u64,
}

impl Partition {
    fn contains(&self, t: u64) -> bool {
        t >= self.start_ms && t < self.end_ms
    }
}

/// A replayable impairment schedule for one class of links.
///
/// The zero plan (loss/dup/reorder 0‰, no delay, no cap, no partitions)
/// is a transparent wire; [`ImpairPlan::is_transparent`] lets transports
/// skip the shim entirely in that case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpairPlan {
    /// Master seed; each link derives its stream via `stream_seed`.
    pub seed: u64,
    /// Per-packet loss probability, in permille (1000 = drop everything).
    pub drop_permille: u32,
    /// Per-packet duplication probability, in permille.
    pub dup_permille: u32,
    /// Per-packet reorder probability, in permille.
    pub reorder_permille: u32,
    /// Base one-way delay, milliseconds.
    pub delay_ms: u64,
    /// Additive uniform jitter bound, milliseconds.
    pub jitter_ms: u64,
    /// Link bandwidth cap in bytes/second (`0` = unlimited).
    pub rate_bytes_per_sec: u64,
    /// Timed blackouts (link-lifetime milliseconds).
    pub partitions: Vec<Partition>,
}

impl ImpairPlan {
    /// A transparent plan (useful as a base for struct-update syntax).
    pub fn clean(seed: u64) -> Self {
        ImpairPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 0,
            delay_ms: 0,
            jitter_ms: 0,
            rate_bytes_per_sec: 0,
            partitions: Vec::new(),
        }
    }

    /// True when the plan cannot affect the byte timeline at all.
    pub fn is_transparent(&self) -> bool {
        self.drop_permille == 0
            && self.dup_permille == 0
            && self.reorder_permille == 0
            && self.delay_ms == 0
            && self.jitter_ms == 0
            && self.rate_bytes_per_sec == 0
            && self.partitions.is_empty()
    }
}

/// Counters describing what a link actually did (surfaced in
/// `PlatformMetrics` / BENCH output so injected impairment is never
/// silent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Packets scheduled.
    pub packets: u64,
    /// Simulated drop-then-retransmit events.
    pub dropped: u64,
    /// Packets whose spurious duplicate consumed bandwidth.
    pub duplicated: u64,
    /// Packets held by a reorder penalty.
    pub reordered: u64,
    /// Packets pushed out of a partition window.
    pub partition_hits: u64,
}

struct Packet {
    due_ms: u64,
    bytes: Vec<u8>,
}

/// One direction of one impaired connection.
///
/// `admit(now, bytes)` schedules bytes; `due(now, out)` releases every
/// byte whose delivery time has passed, in order.  `next_due()` tells the
/// caller when to poll again.
pub struct ImpairedLink {
    rng: Rng,
    plan: ImpairPlan,
    /// The link is busy transmitting until this instant (rate cap).
    busy_until_ms: u64,
    /// In-order clamp: no packet is delivered before its predecessor.
    last_due_ms: u64,
    queue: VecDeque<Packet>,
    pending_bytes: usize,
    stats: ImpairStats,
}

impl ImpairedLink {
    /// Builds the link for stream `stream` of `plan` (callers pick
    /// streams so the two directions of one connection, and different
    /// connections, draw independent jitter).
    pub fn new(plan: &ImpairPlan, stream: u64) -> Self {
        let mut plan = plan.clone();
        plan.partitions.sort_by_key(|p| p.start_ms);
        ImpairedLink {
            rng: Rng::seed_from(stream_seed(plan.seed, stream)),
            plan,
            busy_until_ms: 0,
            last_due_ms: 0,
            queue: VecDeque::new(),
            pending_bytes: 0,
            stats: ImpairStats::default(),
        }
    }

    /// Milliseconds to transmit `len` bytes under the rate cap.
    fn tx_ms(&self, len: usize) -> u64 {
        if self.plan.rate_bytes_per_sec == 0 {
            return 0;
        }
        ((len as u64) * 1000).div_ceil(self.plan.rate_bytes_per_sec)
    }

    fn chance(&mut self, permille: u32) -> bool {
        // Always draw, so the stream position is a pure function of the
        // packet count — keeps sibling plans comparable under one seed.
        let roll = self.rng.below(1000);
        permille > 0 && roll < u64::from(permille)
    }

    /// Schedules `bytes` (sent at virtual time `now_ms`) for delivery.
    pub fn admit(&mut self, now_ms: u64, bytes: &[u8]) {
        for chunk in bytes.chunks(IMPAIR_MTU) {
            self.stats.packets += 1;
            // Serialise onto the link behind whatever is still transmitting.
            let start = now_ms.max(self.busy_until_ms);
            let mut tx = self.tx_ms(chunk.len());
            if self.chance(self.plan.dup_permille) {
                self.stats.duplicated += 1;
                tx *= 2; // the spurious copy occupies the wire too
            }
            self.busy_until_ms = start + tx;
            let jitter =
                if self.plan.jitter_ms > 0 { self.rng.below(self.plan.jitter_ms + 1) } else { 0 };
            let mut arrival = self.busy_until_ms + self.plan.delay_ms + jitter;
            // Loss under TCP = retransmission stalls, geometric with a cap.
            let mut retransmits = 0;
            while retransmits < MAX_RETRANSMITS && self.chance(self.plan.drop_permille) {
                retransmits += 1;
                self.stats.dropped += 1;
                arrival += (self.plan.delay_ms * 2 + 200).max(200);
            }
            if self.chance(self.plan.reorder_permille) {
                self.stats.reordered += 1;
                arrival += 1 + self.rng.below(2 * self.plan.jitter_ms + 10);
            }
            // A delivery scheduled inside a blackout waits the blackout out.
            for p in &self.plan.partitions {
                if p.contains(arrival) {
                    arrival = p.end_ms;
                    self.stats.partition_hits += 1;
                }
            }
            let due = arrival.max(self.last_due_ms);
            self.last_due_ms = due;
            self.pending_bytes += chunk.len();
            self.queue.push_back(Packet { due_ms: due, bytes: chunk.to_vec() });
        }
    }

    /// Receives up to one packet from `src` with one `read` and admits
    /// it at `now_ms()`, read once the `read` returns: a read that blocks
    /// must not date its bytes to before they arrived.  Returns the byte
    /// count, 0 at end of stream.
    pub fn read_from(
        &mut self,
        now_ms: impl FnOnce() -> u64,
        src: &mut impl Read,
    ) -> io::Result<usize> {
        let mut packet = [0; IMPAIR_MTU];
        let n = src.read(&mut packet)?;
        self.admit(now_ms(), &packet[..n]);
        Ok(n)
    }

    /// Appends every byte due at or before `now_ms` to `out`; returns the
    /// number of bytes released.
    pub fn due(&mut self, now_ms: u64, out: &mut Vec<u8>) -> usize {
        let mut released = 0;
        while let Some(front) = self.queue.front() {
            if front.due_ms > now_ms {
                break;
            }
            let pkt = self.queue.pop_front().expect("front just checked");
            released += pkt.bytes.len();
            out.extend_from_slice(&pkt.bytes);
        }
        self.pending_bytes -= released;
        released
    }

    /// Delivery time of the oldest undelivered packet.
    pub fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|p| p.due_ms)
    }

    /// Bytes admitted but not yet released.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// What the link has done so far.
    pub fn stats(&self) -> ImpairStats {
        self.stats
    }
}

impl std::fmt::Debug for ImpairedLink {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("ImpairedLink")
            .field("pending_bytes", &self.pending_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> ImpairPlan {
        ImpairPlan {
            drop_permille: 100,
            dup_permille: 50,
            reorder_permille: 80,
            delay_ms: 20,
            jitter_ms: 10,
            rate_bytes_per_sec: 512 * 1024,
            partitions: vec![Partition { start_ms: 400, end_ms: 600 }],
            ..ImpairPlan::clean(0xEDED)
        }
    }

    /// Replays a fixed admit schedule and returns the (due, len) timeline.
    fn timeline(plan: &ImpairPlan, stream: u64) -> Vec<(u64, usize)> {
        let mut link = ImpairedLink::new(plan, stream);
        for step in 0..40u64 {
            let payload = vec![step as u8; 700 + (step as usize * 97) % 2000];
            link.admit(step * 17, &payload);
        }
        let mut out = Vec::new();
        let mut points = Vec::new();
        while link.pending_bytes() > 0 {
            let t = link.next_due().expect("pending implies a due time");
            let before = out.len();
            link.due(t, &mut out);
            points.push((t, out.len() - before));
        }
        points
    }

    #[test]
    fn bytes_are_stamped_when_their_read_returns() {
        use std::cell::Cell;
        /// A read that blocks for 100 ms of a fake clock before its bytes
        /// arrive.
        struct SlowRead<'c>(&'c Cell<u64>);
        impl Read for SlowRead<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0.set(self.0.get() + 100);
                buf[..3].copy_from_slice(b"abc");
                Ok(3)
            }
        }
        let plan = ImpairPlan { delay_ms: 15, ..ImpairPlan::clean(1) };
        let mut link = ImpairedLink::new(&plan, 0);
        let clock = Cell::new(0);
        assert_eq!(link.read_from(|| clock.get(), &mut SlowRead(&clock)).unwrap(), 3);
        assert_eq!(link.next_due(), Some(115), "due 15 ms after the bytes arrived");
        let mut out = Vec::new();
        assert_eq!(link.due(114, &mut out), 0);
        assert_eq!(link.due(115, &mut out), 3);
        assert_eq!(out, b"abc");
    }

    #[test]
    fn same_seed_same_timeline() {
        let plan = lossy_plan();
        assert_eq!(timeline(&plan, 7), timeline(&plan, 7), "replay must be bit-identical");
    }

    #[test]
    fn different_seed_diverges() {
        let a = lossy_plan();
        let mut b = lossy_plan();
        b.seed ^= 1;
        assert_ne!(timeline(&a, 7), timeline(&b, 7), "independent seeds, identical timelines");
        assert_ne!(timeline(&a, 7), timeline(&a, 8), "independent streams, identical timelines");
    }

    #[test]
    fn stream_is_preserved_in_order() {
        let plan = lossy_plan();
        let mut link = ImpairedLink::new(&plan, 1);
        let mut sent = Vec::new();
        for step in 0..50u64 {
            let payload: Vec<u8> =
                (0..1500).map(|i| (step as u8).wrapping_mul(31).wrapping_add(i as u8)).collect();
            sent.extend_from_slice(&payload);
            link.admit(step * 5, &payload);
        }
        let mut got = Vec::new();
        link.due(u64::MAX, &mut got);
        assert_eq!(got, sent, "impairment must never lose, duplicate, or reorder bytes");
        assert_eq!(link.pending_bytes(), 0);
        let s = link.stats();
        assert!(s.dropped > 0 && s.duplicated > 0 && s.reordered > 0, "plan too quiet: {s:?}");
    }

    #[test]
    fn due_times_are_monotonic() {
        let points = timeline(&lossy_plan(), 3);
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0, "delivery went back in time: {points:?}");
        }
    }

    #[test]
    fn partition_blacks_out_the_window() {
        let plan = ImpairPlan {
            partitions: vec![Partition { start_ms: 100, end_ms: 500 }],
            ..ImpairPlan::clean(9)
        };
        let mut link = ImpairedLink::new(&plan, 0);
        link.admit(150, b"hello");
        assert_eq!(link.next_due(), Some(500), "delivery inside the blackout waits it out");
        let mut out = Vec::new();
        assert_eq!(link.due(499, &mut out), 0);
        assert_eq!(link.due(500, &mut out), 5);
        assert_eq!(link.stats().partition_hits, 1);
    }

    #[test]
    fn rate_cap_spaces_delivery() {
        let plan = ImpairPlan { rate_bytes_per_sec: 100_000, ..ImpairPlan::clean(4) };
        let mut link = ImpairedLink::new(&plan, 0);
        link.admit(0, &vec![0u8; 100_000]); // one second of wire time
        let mut out = Vec::new();
        link.due(500, &mut out);
        assert!(
            out.len() < 60_000,
            "a 100 KB burst through a 100 KB/s link must not half-arrive early ({} B at 500 ms)",
            out.len()
        );
        link.due(1_100, &mut out);
        assert_eq!(out.len(), 100_000, "everything lands once the wire has drained");
    }

    #[test]
    fn delay_shifts_everything() {
        let plan = ImpairPlan { delay_ms: 80, ..ImpairPlan::clean(11) };
        let mut link = ImpairedLink::new(&plan, 0);
        link.admit(10, b"x");
        assert_eq!(link.next_due(), Some(90));
    }

    #[test]
    fn transparent_plan_is_detected() {
        assert!(ImpairPlan::clean(1).is_transparent());
        assert!(!lossy_plan().is_transparent());
        let mut link = ImpairedLink::new(&ImpairPlan::clean(1), 0);
        link.admit(5, b"abc");
        assert_eq!(link.next_due(), Some(5), "clean plan delivers immediately");
    }
}
