//! A one-pass index over a [`MeasurementLog`] — the crate's only path from
//! records to figure statistics.
//!
//! [`LogIndex`] reads the record vector once and materialises every
//! aggregate the figures need:
//!
//! * per-peer first-seen times, split by `(strategy, kind)` — from which
//!   the Figs. 2/3/5/6 growth curves derive by min-merging;
//! * per-peer query counts per kind (the Figs. 8/9 top-peer search);
//! * per-kind hourly and per-`(strategy, kind)` daily count series
//!   (Figs. 4 and 7);
//! * the top START-UPLOAD peer's own per-`(strategy, kind)` daily series
//!   (Figs. 8–9);
//! * per-honeypot and per-file distinct-peer member lists (Figs. 10–12);
//! * per-file first-seen times including shared-list observations
//!   (Table I's distinct-file count and growth).
//!
//! Each analysis module hosts the `impl LogIndex` block for its own
//! figures, so the module stays the home of that figure family's logic.
//! `tests/index_equivalence.rs` keeps the per-figure record scans this
//! index replaced as its oracle.
//!
//! # Streaming
//! The scan lives in [`IndexBuilder`], which consumes records in any
//! chunking (whole log, storage-decode batches, one at a time) with
//! order-insensitive folds (min / add / bitwise or / collect without
//! repeats, sorted at the end), so any partition of the same records yields
//! the same index.  The top peer is only known once every record has been
//! counted, and records are honeypot-major rather than time-ordered, so
//! [`IndexBuilder::finish`] makes a second pass over the records for that
//! one peer's series.  [`LogIndex::build`] is the builder driven over a
//! whole in-memory log.

use std::collections::HashMap;

use honeypot::log::FILE_NONE;
use honeypot::{AnonRecord, ContentStrategy, MeasurementLog, QueryKind};
use netsim::time::{MS_PER_DAY, MS_PER_HOUR};
use netsim::SimTime;

use crate::subset::PeerSet;
use crate::toppeer::busiest;

/// Number of query kinds (`QueryKind` variants).
pub(crate) const KINDS: usize = 3;
/// Number of content strategies.
pub(crate) const STRATEGIES: usize = 2;

/// Sentinel for "never observed" in first-seen arrays.
pub(crate) const NEVER: u64 = u64::MAX;

/// One vector per `(strategy, kind)` cell.
type Cells = [[Vec<u64>; KINDS]; STRATEGIES];

pub(crate) fn kind_idx(kind: QueryKind) -> usize {
    match kind {
        QueryKind::Hello => 0,
        QueryKind::StartUpload => 1,
        QueryKind::RequestPart => 2,
    }
}

pub(crate) fn strategy_idx(strategy: ContentStrategy) -> usize {
    match strategy {
        ContentStrategy::NoContent => 0,
        ContentStrategy::RandomContent => 1,
    }
}

/// The shared one-pass index.  Build once with [`LogIndex::build`], then
/// derive every figure from it; the analysis modules attach their
/// index-based entry points as `impl LogIndex` blocks.
pub struct LogIndex {
    /// Number of distinct peers (array dimension of the per-peer data).
    universe: usize,
    /// Measurement duration in whole days (≥ 1), the figures' x-axis.
    days: usize,
    /// Measurement duration in whole hours (≥ 1).
    hours: usize,
    /// `first_seen[s][k][peer]` = earliest time (ms) peer sent kind `k` to
    /// a honeypot of strategy `s`; [`NEVER`] if it never did.  Empty for a
    /// strategy no honeypot uses, where every peer reads as never seen.
    first_seen: Cells,
    /// `counts[k][peer]` = number of records of kind `k` from `peer`.
    counts: [Vec<u64>; KINDS],
    /// Hourly record counts per kind (ragged; padded on read).
    hourly: [Vec<u64>; KINDS],
    /// Daily record counts per `(strategy, kind)` (ragged; padded on read).
    daily: Cells,
    /// Earliest record timestamp (ms) per kind; [`NEVER`] if none.
    kind_first_ms: [u64; KINDS],
    /// Distinct peers per honeypot, any kind (Fig. 10).
    honeypot_peers: Vec<PeerSet>,
    /// Distinct peers per START-UPLOADed file, sorted by file index
    /// (Figs. 11–12).
    file_peers: Vec<(u32, PeerSet)>,
    /// `file_first[file]` = earliest observation (query or shared list) of
    /// the file; [`NEVER`] sentinel.  Ragged: grown to the largest index
    /// observed.
    file_first: Vec<u64>,
    /// `daily` restricted to the records of `top_peer(StartUpload)`; all
    /// empty when there is no such peer.
    top_daily: Cells,
}

/// Sets `v[idx] = min(v[idx], value)`, growing `v` with [`NEVER`].
fn observe_ragged(v: &mut Vec<u64>, idx: usize, value: u64) {
    if idx >= v.len() {
        v.resize(idx + 1, NEVER);
    }
    v[idx] = v[idx].min(value);
}

/// `v[idx] += 1`, growing `v` with zeros (the `BucketSeries` contract).
fn bump_ragged(v: &mut Vec<u64>, idx: usize) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    v[idx] += 1;
}

/// A copy of a ragged count series, zero-padded to at least `len`.
fn padded(v: &[u64], len: usize) -> Vec<u64> {
    let mut v = v.to_vec();
    if v.len() < len {
        v.resize(len, 0);
    }
    v
}

/// Keeps the first occurrence of each peer in `members`, in order.
/// `seen` is a zeroed bitset over the universe, and is zeroed again on
/// return.
fn drop_repeats(members: &mut Vec<u32>, seen: &mut [u64]) {
    members.retain(|&p| {
        let (word, bit) = (p as usize / 64, 1u64 << (p % 64));
        let first = seen[word] & bit == 0;
        seen[word] |= bit;
        first
    });
    for &p in members.iter() {
        seen[p as usize / 64] = 0;
    }
}

/// Incremental construction of a [`LogIndex`].
///
/// The builder is seeded from the measurement *header* — distinct-peer
/// count, honeypot strategies, duration — and then fed records in any
/// chunking: whole log, storage-decode batches, or one at a time.  Every
/// accumulation is order- and chunking-insensitive (min / add / bitwise
/// or / collect without repeats, sorted in [`IndexBuilder::finish`]), so
/// any partition of the same records yields the same index.
pub struct IndexBuilder {
    universe: usize,
    days: usize,
    hours: usize,
    /// Honeypot id → strategy index, from the header.
    strategy_of: Vec<usize>,
    first_seen: Cells,
    counts: [Vec<u64>; KINDS],
    hourly: [Vec<u64>; KINDS],
    daily: Cells,
    kind_first_ms: [u64; KINDS],
    /// One universe-wide bitset per honeypot: a single honeypot sees a
    /// large share of all peers, so words beat member lists while
    /// building.
    honeypot_words: Vec<Vec<u64>>,
    /// START-UPLOAD peers per file, in arrival order.  A list drops its
    /// repeats whenever it is full, so it holds at most about four times
    /// the file's distinct peers: the distributed run's four files see
    /// each of their peers ≈ 20 times.
    file_peers: HashMap<u32, Vec<u32>>,
    /// Scratch for [`drop_repeats`], all zero between calls.
    seen: Vec<u64>,
    file_first: Vec<u64>,
}

impl IndexBuilder {
    /// A builder dimensioned by the log's header (its records are *not*
    /// read here — feed them via [`IndexBuilder::push_records`]).
    pub fn for_log(log: &MeasurementLog) -> IndexBuilder {
        let strategies: Vec<ContentStrategy> = log.honeypots.iter().map(|h| h.content).collect();
        Self::new(log.distinct_peers, &strategies, log.duration)
    }

    /// A builder from bare header values, for callers streaming a log that
    /// is never materialised in memory.
    pub fn new(distinct_peers: u32, strategies: &[ContentStrategy], duration: SimTime) -> Self {
        let universe = distinct_peers as usize;
        // Only a strategy some honeypot uses gets per-peer cells.
        let peers_of = |s: usize| {
            let used = strategies.iter().any(|&c| strategy_idx(c) == s);
            if used {
                vec![NEVER; universe]
            } else {
                Vec::new()
            }
        };
        IndexBuilder {
            universe,
            days: duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize,
            hours: duration.as_millis().div_ceil(MS_PER_HOUR).max(1) as usize,
            strategy_of: strategies.iter().map(|&s| strategy_idx(s)).collect(),
            first_seen: std::array::from_fn(|s| std::array::from_fn(|_| peers_of(s))),
            counts: std::array::from_fn(|_| vec![0; universe]),
            hourly: Default::default(),
            daily: Cells::default(),
            kind_first_ms: [NEVER; KINDS],
            honeypot_words: vec![vec![0; universe.div_ceil(64)]; strategies.len()],
            file_peers: HashMap::new(),
            seen: vec![0; universe.div_ceil(64)],
            file_first: Vec::new(),
        }
    }

    /// Accumulates one record.
    pub fn push_record(&mut self, r: &AnonRecord) {
        let at = r.at().as_millis();
        let k = kind_idx(r.kind());
        let hp = r.honeypot() as usize;
        let s = self.strategy_of[hp];
        let peer = r.peer.0 as usize;
        let fs = &mut self.first_seen[s][k][peer];
        *fs = (*fs).min(at);
        self.counts[k][peer] += 1;
        bump_ragged(&mut self.hourly[k], (at / MS_PER_HOUR) as usize);
        bump_ragged(&mut self.daily[s][k], (at / MS_PER_DAY) as usize);
        self.kind_first_ms[k] = self.kind_first_ms[k].min(at);
        self.honeypot_words[hp][peer / 64] |= 1u64 << (peer % 64);
        if r.file != FILE_NONE {
            observe_ragged(&mut self.file_first, r.file as usize, at);
            if k == kind_idx(QueryKind::StartUpload) {
                let members = self.file_peers.entry(r.file).or_default();
                if members.len() == members.capacity() {
                    drop_repeats(members, &mut self.seen);
                    members.reserve(members.len().max(4));
                }
                members.push(r.peer.0);
            }
        }
    }

    /// Accumulates a chunk of records.
    pub fn push_records(&mut self, records: &[AnonRecord]) {
        for r in records {
            self.push_record(r);
        }
    }

    /// Accumulates one shared-list observation: lists establish file
    /// first-seen times (Table I's distinct-file growth) but carry no
    /// query-kind data.
    pub fn push_shared_list(&mut self, at: SimTime, files: &[u32]) {
        let at = at.as_millis();
        for &f in files {
            observe_ragged(&mut self.file_first, f as usize, at);
        }
    }

    /// Finalises into the immutable index.  `records` must be the records
    /// pushed (in any order): the second pass keeps only the top
    /// START-UPLOAD peer's, for its per-day series.
    pub fn finish(self, records: &[AnonRecord]) -> LogIndex {
        let mut top_daily = Cells::default();
        if let Some(top) = busiest(&self.counts[kind_idx(QueryKind::StartUpload)]) {
            for r in records.iter().filter(|r| r.peer == top) {
                let s = self.strategy_of[r.honeypot() as usize];
                bump_ragged(
                    &mut top_daily[s][kind_idx(r.kind())],
                    (r.at().as_millis() / MS_PER_DAY) as usize,
                );
            }
        }
        let mut seen = self.seen;
        let mut file_peers: Vec<(u32, PeerSet)> = self
            .file_peers
            .into_iter()
            .map(|(file, mut peers)| {
                drop_repeats(&mut peers, &mut seen);
                (file, PeerSet::from_members(peers))
            })
            .collect();
        file_peers.sort_by_key(|(f, _)| *f);
        LogIndex {
            universe: self.universe,
            days: self.days,
            hours: self.hours,
            first_seen: self.first_seen,
            counts: self.counts,
            hourly: self.hourly,
            daily: self.daily,
            kind_first_ms: self.kind_first_ms,
            honeypot_peers: self.honeypot_words.iter().map(|w| PeerSet::from_words(w)).collect(),
            file_peers,
            file_first: self.file_first,
            top_daily,
        }
    }
}

impl LogIndex {
    /// Builds the index over a whole log: one pass over its records and
    /// shared lists, then the top peer's second pass.
    pub fn build(log: &MeasurementLog) -> LogIndex {
        // Span events keyed on record counts (deterministic for a given
        // log), so index builds show up in the flight recorder with
        // enough context to reconstruct what was being built.
        netsim::obs_event!(
            netsim::obs::Level::Trace,
            "analysis",
            "index_build_begin",
            records = log.records.len(),
            universe = log.distinct_peers
        );
        let mut builder = IndexBuilder::for_log(log);
        builder.push_records(&log.records);
        for list in &log.shared_lists {
            builder.push_shared_list(list.at, &list.files);
        }
        netsim::obs_event!(
            netsim::obs::Level::Trace,
            "analysis",
            "index_build_end",
            records = log.records.len(),
            shared_lists = log.shared_lists.len()
        );
        builder.finish(&log.records)
    }

    /// Number of distinct peers (the per-peer array dimension).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whole measurement days (≥ 1).
    pub fn days(&self) -> usize {
        self.days
    }

    /// Whole measurement hours (≥ 1).
    pub fn hours(&self) -> usize {
        self.hours
    }

    /// Per-peer first-seen times (ms, [`NEVER`] sentinel) min-merged over
    /// the requested kinds: a specific kind, or all kinds (`None`).
    pub(crate) fn peer_first_merged(&self, kind: Option<QueryKind>) -> Vec<u64> {
        let mut merged = vec![NEVER; self.universe];
        for s in 0..STRATEGIES {
            for k in 0..KINDS {
                if kind.is_none_or(|want| kind_idx(want) == k) {
                    for (m, &t) in merged.iter_mut().zip(&self.first_seen[s][k]) {
                        *m = (*m).min(t);
                    }
                }
            }
        }
        merged
    }

    /// Per-peer first-seen times for one `(strategy, kind)` cell; empty
    /// when no honeypot uses `strategy`.
    pub(crate) fn peer_first_cell(&self, strategy: ContentStrategy, kind: QueryKind) -> &[u64] {
        &self.first_seen[strategy_idx(strategy)][kind_idx(kind)]
    }

    /// Per-peer record counts of one kind.
    pub(crate) fn peer_counts(&self, kind: QueryKind) -> &[u64] {
        &self.counts[kind_idx(kind)]
    }

    /// Hourly record counts of one kind, padded to the measurement span.
    pub(crate) fn hourly_padded(&self, kind: QueryKind) -> Vec<u64> {
        padded(&self.hourly[kind_idx(kind)], self.hours)
    }

    /// Daily record counts for one `(strategy, kind)` cell, padded.
    pub(crate) fn daily_padded(&self, strategy: ContentStrategy, kind: QueryKind) -> Vec<u64> {
        padded(&self.daily[strategy_idx(strategy)][kind_idx(kind)], self.days)
    }

    /// The top START-UPLOAD peer's daily record counts for one
    /// `(strategy, kind)` cell, padded.
    pub(crate) fn top_daily_padded(&self, strategy: ContentStrategy, kind: QueryKind) -> Vec<u64> {
        padded(&self.top_daily[strategy_idx(strategy)][kind_idx(kind)], self.days)
    }

    /// Earliest record timestamp (ms) of a kind.
    pub(crate) fn kind_first(&self, kind: QueryKind) -> Option<u64> {
        let t = self.kind_first_ms[kind_idx(kind)];
        (t != NEVER).then_some(t)
    }

    /// Per-file first-seen times ([`NEVER`] sentinel), queries and shared
    /// lists combined.
    pub(crate) fn file_first(&self) -> &[u64] {
        &self.file_first
    }

    /// Per-honeypot distinct-peer sets, any query kind (Fig. 10).
    pub fn honeypot_peer_sets(&self) -> &[PeerSet] {
        &self.honeypot_peers
    }

    /// Per-file distinct-peer sets over START-UPLOAD queries, sorted by
    /// file index (Figs. 11–12).
    pub fn file_peer_sets(&self) -> &[(u32, PeerSet)] {
        &self.file_peers
    }
}

/// Turns a first-seen array into a new-keys-per-bucket series with
/// [`netsim::metrics::FirstSeen::new_per_bucket`] semantics: length is the
/// max of `min_len` and the last occupied bucket + 1.
pub(crate) fn new_per_bucket(firsts: &[u64], bucket_ms: u64, min_len: usize) -> Vec<u64> {
    assert!(bucket_ms > 0);
    let len = firsts
        .iter()
        .filter(|&&t| t != NEVER)
        .map(|&t| (t / bucket_ms) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(min_len);
    let mut counts = vec![0u64; len];
    for &t in firsts {
        if t != NEVER {
            counts[(t / bucket_ms) as usize] += 1;
        }
    }
    counts
}

/// Running sum of a count series.
pub(crate) fn cumulate(mut series: Vec<u64>) -> Vec<u64> {
    let mut acc = 0u64;
    for v in &mut series {
        acc += *v;
        *v = acc;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;

    #[test]
    fn empty_log_builds_an_empty_index() {
        let ix = LogIndex::build(&synthetic_log(&[]));
        assert_eq!(ix.universe(), 0, "no records, no peers");
        assert_eq!(ix.days(), 3);
        assert_eq!(ix.hours(), 72);
        assert_eq!(ix.kind_first(QueryKind::Hello), None);
        assert_eq!(ix.honeypot_peer_sets().len(), 2, "fixture always has 2 honeypots");
        assert!(ix.honeypot_peer_sets().iter().all(|s| s.count() == 0));
        assert!(ix.file_peer_sets().is_empty());
    }

    #[test]
    fn a_strategy_without_honeypots_gets_no_cells_and_reads_as_never_seen() {
        let day = SimTime::from_days(1);
        let peer = honeypot::AnonPeerId;
        let records = [
            AnonRecord::new(day, peer(1), 0, 0, QueryKind::StartUpload, true),
            AnonRecord::new(day, peer(0), FILE_NONE, 0, QueryKind::Hello, true),
        ];
        let mut builder =
            IndexBuilder::new(2, &[ContentStrategy::NoContent], SimTime::from_days(3));
        builder.push_records(&records);
        let ix = builder.finish(&records);
        for kind in [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart] {
            assert!(ix.peer_first_cell(ContentStrategy::RandomContent, kind).is_empty());
            assert_eq!(ix.peer_first_cell(ContentStrategy::NoContent, kind).len(), 2);
            let by_strategy = ix.distinct_peers_by_strategy(kind);
            assert_eq!(by_strategy.random_content, [0, 0, 0], "{kind:?}");
        }
        assert_eq!(ix.distinct_peers_by_strategy(QueryKind::StartUpload).no_content, [0, 1, 1]);
        assert_eq!(ix.peer_first_merged(None), [day.as_millis(); 2]);
        assert_eq!(ix.peer_first_merged(Some(QueryKind::RequestPart)), [NEVER; 2]);
    }

    #[test]
    fn new_per_bucket_matches_first_seen_semantics() {
        // Mirror of metrics.rs::new_and_cumulative_per_day.
        let firsts = [
            SimTime::from_hours(1).as_millis(),
            SimTime::from_hours(30).as_millis(),
            SimTime::from_hours(31).as_millis(),
            NEVER,
        ];
        assert_eq!(new_per_bucket(&firsts, MS_PER_DAY, 3), vec![1, 2, 0]);
        assert_eq!(cumulate(new_per_bucket(&firsts, MS_PER_DAY, 3)), vec![1, 3, 3]);
        assert_eq!(new_per_bucket(&firsts, MS_PER_HOUR, 0).len(), 32);
        assert_eq!(new_per_bucket(&[NEVER], MS_PER_DAY, 2), vec![0, 0]);
    }
}
