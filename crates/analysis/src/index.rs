//! A one-pass index over a [`MeasurementLog`].
//!
//! Every figure of the paper scans the same record vector, and the full
//! experiment pipeline used to re-scan it once per figure — a dozen passes
//! over hundreds of thousands of records.  [`LogIndex`] makes a single
//! (parallel) pass and materialises every aggregate the analysis
//! modules need:
//!
//! * per-peer first-seen times, split by `(strategy, kind)` — from which
//!   the Figs. 2/3/5/6 growth curves derive by min-merging;
//! * per-peer query counts per kind (the Figs. 8/9 top-peer search);
//! * per-kind hourly and per-`(strategy, kind)` daily count series
//!   (Figs. 4 and 7);
//! * per-honeypot and per-file distinct-peer bitsets (Figs. 10–12);
//! * per-file first-seen times including shared-list observations
//!   (Table I's distinct-file count and growth).
//!
//! The index-derived results are asserted identical to the direct-scan
//! functions in `tests/index_equivalence.rs`; each analysis module hosts
//! the `impl LogIndex` block for its own figures, so the module stays the
//! home of that figure family's logic.
//!
//! # Streaming
//! The scan itself lives in [`IndexBuilder`], which consumes records
//! chunk-at-a-time (or one at a time): a caller replaying a spooled
//! measurement can feed records as they decode and never hold the full
//! record vector alongside the index.  [`LogIndex::build`] and both forced
//! variants are thin drivers over the builder — the sequential path feeds
//! one builder, the parallel path feeds one builder per fixed chunk and
//! [`IndexBuilder::absorb`]s them in chunk order.
//!
//! # Determinism
//! The parallel build splits the record vector into a *fixed* number of
//! chunks (independent of worker-thread count) and merges partial
//! accumulators in chunk order with order-insensitive operations (min,
//! add, bitwise or).  The result is therefore a pure function of the log,
//! however many workers it runs on — asserted by
//! `tests/index_equivalence.rs::index_is_thread_count_independent`.  The
//! same argument makes the streaming builder chunking-insensitive: any
//! partition of the records into pushes yields the same index.

use std::collections::HashMap;

use honeypot::log::FILE_NONE;
use honeypot::{AnonRecord, ContentStrategy, MeasurementLog, QueryKind};
use netsim::time::{MS_PER_DAY, MS_PER_HOUR};
use netsim::SimTime;

use crate::subset::PeerSet;

/// Number of query kinds (`QueryKind` variants).
pub(crate) const KINDS: usize = 3;
/// Number of content strategies.
pub(crate) const STRATEGIES: usize = 2;
/// Chunks the record vector is split into for the parallel build.  Fixed —
/// not derived from the thread count — so the merge order, and with it the
/// result, never depends on the workers executing it.
const BUILD_CHUNKS: usize = 16;

/// Below this record count [`LogIndex::build`] stays sequential.  Each
/// parallel chunk allocates its own universe-sized accumulators
/// (`Partial::new` holds 9 peer-indexed vectors), so on small logs the
/// 16-way split costs more in allocation + merge than the scan saves —
/// PR 1's baseline (CHANGES.md) measured the chunked path at 45.8M
/// records/s vs 57.5M sequential on a 547k-record log.  Both paths
/// produce identical results (see `tests/index_equivalence.rs`); this is
/// purely a performance crossover.  Measured again for PR 24 on the 2-vCPU
/// benchmark box before anyone re-tunes it: the two vCPUs deliver ≈ 1.4×
/// in aggregate (one spin loop 1.36 s, two concurrent 1.95 s each), a
/// 2-chunk parallel build of the 2.47 M-record `analyse-saved` logs bought
/// 0.02 s for `peak_rss_mb` 191 → 228, and a field-split two-thread build
/// bought nothing.
pub const PAR_BUILD_MIN_RECORDS: usize = 2_000_000;

/// Sentinel for "never observed" in first-seen arrays.
pub(crate) const NEVER: u64 = u64::MAX;

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
    /// a honeypot of strategy `s`; [`NEVER`] if it never did.
    first_seen: [[Vec<u64>; KINDS]; STRATEGIES],
    /// `counts[k][peer]` = number of records of kind `k` from `peer`.
    counts: [Vec<u64>; KINDS],
    /// Hourly record counts per kind (ragged; padded on read).
    hourly: [Vec<u64>; KINDS],
    /// Daily record counts per `(strategy, kind)` (ragged; padded on read).
    daily: [[Vec<u64>; KINDS]; STRATEGIES],
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
}

/// Per-chunk accumulator of the parallel build.
struct Partial {
    first_seen: [[Vec<u64>; KINDS]; STRATEGIES],
    counts: [Vec<u64>; KINDS],
    hourly: [Vec<u64>; KINDS],
    daily: [[Vec<u64>; KINDS]; STRATEGIES],
    kind_first_ms: [u64; KINDS],
    honeypot_peers: Vec<PeerSet>,
    file_peers: HashMap<u32, PeerSet>,
    file_first: Vec<u64>,
}

impl Partial {
    fn new(universe: usize, honeypots: usize) -> Self {
        Partial {
            first_seen: std::array::from_fn(|_| std::array::from_fn(|_| vec![NEVER; universe])),
            counts: std::array::from_fn(|_| vec![0; universe]),
            hourly: std::array::from_fn(|_| Vec::new()),
            daily: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            kind_first_ms: [NEVER; KINDS],
            honeypot_peers: (0..honeypots).map(|_| PeerSet::new(universe)).collect(),
            file_peers: HashMap::new(),
            file_first: Vec::new(),
        }
    }

    /// Folds `other` into `self`.  Every operation is order-insensitive
    /// (min / add / or), so any merge order yields the same index.
    fn merge(mut self, other: Partial) -> Self {
        for s in 0..STRATEGIES {
            for k in 0..KINDS {
                for (a, b) in self.first_seen[s][k].iter_mut().zip(&other.first_seen[s][k]) {
                    *a = (*a).min(*b);
                }
                add_ragged(&mut self.daily[s][k], &other.daily[s][k]);
            }
        }
        for k in 0..KINDS {
            for (a, b) in self.counts[k].iter_mut().zip(&other.counts[k]) {
                *a += *b;
            }
            add_ragged(&mut self.hourly[k], &other.hourly[k]);
            self.kind_first_ms[k] = self.kind_first_ms[k].min(other.kind_first_ms[k]);
        }
        for (a, b) in self.honeypot_peers.iter_mut().zip(&other.honeypot_peers) {
            a.union_with(b);
        }
        for (file, set) in other.file_peers {
            match self.file_peers.entry(file) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(set);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().union_with(&set);
                }
            }
        }
        min_ragged(&mut self.file_first, &other.file_first);
        self
    }
}

/// `a[i] += b[i]`, growing `a` as needed.
fn add_ragged(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, y) in a.iter_mut().zip(b) {
        *x += *y;
    }
}

/// `a[i] = min(a[i], b[i])` under the [`NEVER`] sentinel, growing `a`.
fn min_ragged(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), NEVER);
    }
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x).min(*y);
    }
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

/// Incremental construction of a [`LogIndex`].
///
/// The builder is seeded from the measurement *header* — distinct-peer
/// count, honeypot strategies, duration — and then fed records in any
/// chunking: whole log, storage-decode batches, or one at a time.  Every
/// accumulation is order- and chunking-insensitive (min / add / bitwise
/// or), so any partition of the same records yields the same index.  Two
/// builders over disjoint record subsets can also be combined with
/// [`IndexBuilder::absorb`], which is how the parallel build merges its
/// per-chunk workers.
pub struct IndexBuilder {
    universe: usize,
    days: usize,
    hours: usize,
    /// Honeypot id → strategy index, from the header.
    strategy_of: Vec<usize>,
    acc: Partial,
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
        IndexBuilder {
            universe,
            days: duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize,
            hours: duration.as_millis().div_ceil(MS_PER_HOUR).max(1) as usize,
            strategy_of: strategies.iter().map(|&s| strategy_idx(s)).collect(),
            acc: Partial::new(universe, strategies.len()),
        }
    }

    /// Accumulates one record.
    pub fn push_record(&mut self, r: &AnonRecord) {
        let p = &mut self.acc;
        let at = r.at.as_millis();
        let k = kind_idx(r.kind);
        let s = self.strategy_of[r.honeypot.0 as usize];
        let peer = r.peer.0 as usize;
        let fs = &mut p.first_seen[s][k][peer];
        *fs = (*fs).min(at);
        p.counts[k][peer] += 1;
        bump_ragged(&mut p.hourly[k], (at / MS_PER_HOUR) as usize);
        bump_ragged(&mut p.daily[s][k], (at / MS_PER_DAY) as usize);
        p.kind_first_ms[k] = p.kind_first_ms[k].min(at);
        p.honeypot_peers[r.honeypot.0 as usize].insert(r.peer.0);
        if r.file != FILE_NONE {
            observe_ragged(&mut p.file_first, r.file as usize, at);
            if r.kind == QueryKind::StartUpload {
                p.file_peers
                    .entry(r.file)
                    .or_insert_with(|| PeerSet::new(self.universe))
                    .insert(r.peer.0);
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
            observe_ragged(&mut self.acc.file_first, f as usize, at);
        }
    }

    /// Folds another builder's accumulation into this one.  The two must
    /// share dimensions (built from the same header); the merge is
    /// order-insensitive.
    pub fn absorb(&mut self, other: IndexBuilder) {
        debug_assert_eq!(self.universe, other.universe, "builders from different headers");
        let acc = std::mem::replace(&mut self.acc, Partial::new(0, 0));
        self.acc = acc.merge(other.acc);
    }

    /// Finalises into the immutable index.
    pub fn finish(self) -> LogIndex {
        let Partial {
            first_seen,
            counts,
            hourly,
            daily,
            kind_first_ms,
            honeypot_peers,
            file_peers,
            file_first,
        } = self.acc;
        let mut file_peers: Vec<(u32, PeerSet)> = file_peers.into_iter().collect();
        file_peers.sort_by_key(|(f, _)| *f);
        LogIndex {
            universe: self.universe,
            days: self.days,
            hours: self.hours,
            first_seen,
            counts,
            hourly,
            daily,
            kind_first_ms,
            honeypot_peers,
            file_peers,
            file_first,
        }
    }
}

impl LogIndex {
    /// Builds the index in one pass over the log, auto-selecting the
    /// execution: sequential below [`PAR_BUILD_MIN_RECORDS`] or with a
    /// single worker (where the chunked build only adds allocation and
    /// merge overhead), parallel otherwise.  The two paths are
    /// result-identical, so the choice is invisible to callers.
    pub fn build(log: &MeasurementLog) -> LogIndex {
        if log.records.len() < PAR_BUILD_MIN_RECORDS || netsim::par::workers() <= 1 {
            Self::build_sequential(log)
        } else {
            Self::build_parallel(log)
        }
    }

    /// The parallel chunked build (forced; [`LogIndex::build`]
    /// normally decides).
    pub fn build_parallel(log: &MeasurementLog) -> LogIndex {
        let chunk = log.records.len().div_ceil(BUILD_CHUNKS).max(1);
        Self::build_chunked(log, chunk)
    }

    /// Sequential reference build (single chunk) — the baseline for the
    /// equivalence tests.
    pub fn build_sequential(log: &MeasurementLog) -> LogIndex {
        Self::build_chunked(log, log.records.len().max(1))
    }

    fn build_chunked(log: &MeasurementLog, chunk_size: usize) -> LogIndex {
        // Span events keyed on record counts (deterministic for a given
        // log), so index builds show up in the flight recorder with
        // enough context to reconstruct what was being built.
        netsim::obs_event!(
            netsim::obs::Level::Trace,
            "analysis",
            "index_build_begin",
            records = log.records.len(),
            chunk_size = chunk_size,
            universe = log.distinct_peers
        );
        let chunks: Vec<&[AnonRecord]> = log.records.chunks(chunk_size).collect();
        let builders: Vec<IndexBuilder> = netsim::par::par_map(chunks, |records| {
            let mut b = IndexBuilder::for_log(log);
            b.push_records(records);
            b
        });
        // Merge sequentially in chunk order: with order-insensitive fold
        // operations this is equivalent to any parallel reduction tree,
        // and it keeps the merge cost off the worker threads.
        let mut merged = builders
            .into_iter()
            .reduce(|mut a, b| {
                a.absorb(b);
                a
            })
            .unwrap_or_else(|| IndexBuilder::for_log(log));

        // Shared-list observations also establish file first-seen times
        // (they are few compared to records; a sequential pass suffices).
        for list in &log.shared_lists {
            merged.push_shared_list(list.at, &list.files);
        }
        netsim::obs_event!(
            netsim::obs::Level::Trace,
            "analysis",
            "index_build_end",
            records = log.records.len(),
            shared_lists = log.shared_lists.len()
        );
        merged.finish()
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

    /// Per-peer first-seen times for one `(strategy, kind)` cell.
    pub(crate) fn peer_first_cell(&self, strategy: ContentStrategy, kind: QueryKind) -> &[u64] {
        &self.first_seen[strategy_idx(strategy)][kind_idx(kind)]
    }

    /// Per-peer record counts of one kind.
    pub(crate) fn peer_counts(&self, kind: QueryKind) -> &[u64] {
        &self.counts[kind_idx(kind)]
    }

    /// Hourly record counts of one kind, padded to the measurement span.
    pub(crate) fn hourly_padded(&self, kind: QueryKind) -> Vec<u64> {
        let mut v = self.hourly[kind_idx(kind)].clone();
        if v.len() < self.hours {
            v.resize(self.hours, 0);
        }
        v
    }

    /// Daily record counts for one `(strategy, kind)` cell, padded.
    pub(crate) fn daily_padded(&self, strategy: ContentStrategy, kind: QueryKind) -> Vec<u64> {
        let mut v = self.daily[strategy_idx(strategy)][kind_idx(kind)].clone();
        if v.len() < self.days {
            v.resize(self.days, 0);
        }
        v
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

    /// Per-honeypot distinct-peer sets, any query kind — the indexed
    /// equivalent of [`crate::subset::peer_sets_by_honeypot`] (Fig. 10).
    pub fn honeypot_peer_sets(&self) -> &[PeerSet] {
        &self.honeypot_peers
    }

    /// Per-file distinct-peer sets over START-UPLOAD queries, sorted by
    /// file index — the indexed equivalent of
    /// [`crate::subset::peer_sets_by_file`] (Figs. 11–12).
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
    use netsim::SimTime;

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
    fn chunked_and_sequential_builds_agree() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(2)),
            (2, QueryKind::RequestPart, 0, SimTime::from_hours(26)),
            (0, QueryKind::Hello, 1, SimTime::from_hours(50)),
        ]);
        let a = LogIndex::build_chunked(&log, 1); // 4 chunks
        let b = LogIndex::build_sequential(&log);
        assert_eq!(a.peer_first_merged(None), b.peer_first_merged(None));
        assert_eq!(a.peer_counts(QueryKind::Hello), b.peer_counts(QueryKind::Hello));
        assert_eq!(a.hourly_padded(QueryKind::Hello), b.hourly_padded(QueryKind::Hello));
        assert_eq!(a.kind_first(QueryKind::RequestPart), b.kind_first(QueryKind::RequestPart));
        assert_eq!(a.file_first(), b.file_first());
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
