//! Server-side analysis: the streaming index over a server capture and the
//! cross-validation of the two measurement modalities.
//!
//! The sibling paper ("Ten weeks in the life of an eDonkey server")
//! observes the network from the *server's* vantage point; this repo's
//! main paper observes it from distributed honeypots.  On a simulated run
//! both vantage points watch the same ground truth, so their derived
//! figures must agree:
//!
//! * **peer discovery** — daily cumulative distinct peers grows in step on
//!   both sides (the server sees a superset: every peer logs in, only some
//!   reach a honeypot);
//! * **diurnal oscillation** — the hour-of-day activity profile is a
//!   property of the population, not of the observer;
//! * **file popularity** — the ranking of files by server GET-SOURCES
//!   queries matches the ranking by honeypot download queries.
//!
//! [`ServerIndexBuilder`] is the [`crate::IndexBuilder`] twin for server
//! captures: it consumes [`ServerRecord`]s one at a time (streamed off a
//! [`honeypot::ServerLogReader`], never materialising the capture) and its
//! accumulation is chunking-insensitive (min / add / max only).
//! [`cross_validate`] joins the finished [`ServerIndex`] against a
//! honeypot [`MeasurementLog`] of the same run and scores the agreement;
//! [`Tolerance`] holds the documented acceptance thresholds the CI smoke
//! gate enforces.

use std::collections::HashMap;

use edonkey_proto::FileId;
use honeypot::log::FILE_NONE;
use honeypot::serverlog::{ServerQueryKind, SERVER_QUERY_KINDS};
use honeypot::{IpHash, MeasurementLog, ServerRecord, SERVER_PEER_SESSION_BASE};
use netsim::time::{MS_PER_DAY, MS_PER_HOUR};
use netsim::SimTime;

use crate::distinct::peer_growth;
use crate::index::{cumulate, new_per_bucket, NEVER};
use crate::timeseries::{hourly_counts, HourlySeries};

/// Number of server query kinds.
const SERVER_KINDS: usize = SERVER_QUERY_KINDS.len();

/// Minimum per-side observation count for a file to enter the popularity
/// rank correlation (see [`cross_validate`]).
const MIN_POPULARITY_COUNT: u64 = 3;

/// Streaming accumulator over server-capture records.
///
/// Dimensioned by the capture duration (for padded hourly/daily series);
/// feed records in any order or chunking — every fold is min / add / max,
/// so any partition of the same records yields the same index.
pub struct ServerIndexBuilder {
    days: usize,
    hours: usize,
    records: u64,
    kind_counts: [u64; SERVER_KINDS],
    /// Earliest login (ms) per *peer* digest — honeypot sessions and the
    /// zero digest of server-originated rows are excluded, so this is the
    /// server's view of the genuine-peer population.
    peer_first: HashMap<IpHash, u64>,
    /// Hourly peer-query counts (Status samples excluded: they are the
    /// server talking to itself, not network activity).
    hourly: Vec<u64>,
    /// GET-SOURCES queries per file — the server-side *demand* signal.
    file_queries: HashMap<FileId, u64>,
    /// Peer OFFER-FILES per lead file (the wire record carries the first
    /// file of the offered list) — the server-side *supply* signal.
    /// Shared folders are popularity-weighted samples of the catalog, so
    /// these counts span files the honeypots never advertise.
    file_offers: HashMap<FileId, u64>,
    peak_users: u32,
    peak_indexed_files: u64,
}

impl ServerIndexBuilder {
    /// A builder dimensioned by the capture duration.
    pub fn new(duration: SimTime) -> Self {
        ServerIndexBuilder {
            days: duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize,
            hours: duration.as_millis().div_ceil(MS_PER_HOUR).max(1) as usize,
            records: 0,
            kind_counts: [0; SERVER_KINDS],
            peer_first: HashMap::new(),
            hourly: Vec::new(),
            file_queries: HashMap::new(),
            file_offers: HashMap::new(),
            peak_users: 0,
            peak_indexed_files: 0,
        }
    }

    /// Accumulates one capture record.
    pub fn push_record(&mut self, r: &ServerRecord) {
        self.records += 1;
        let at = r.at.as_millis();
        self.kind_counts[r.kind.tag() as usize] += 1;
        if r.kind == ServerQueryKind::Status {
            // Status rows snapshot server-wide gauges (users in `payload`,
            // indexed files in `session`); they carry no peer.
            self.peak_users = self.peak_users.max(r.payload);
            self.peak_indexed_files = self.peak_indexed_files.max(r.session);
            return;
        }
        let hour = (at / MS_PER_HOUR) as usize;
        if hour >= self.hourly.len() {
            self.hourly.resize(hour + 1, 0);
        }
        self.hourly[hour] += 1;
        if r.session >= SERVER_PEER_SESSION_BASE && r.kind == ServerQueryKind::Login {
            let first = self.peer_first.entry(r.peer).or_insert(NEVER);
            *first = (*first).min(at);
        }
        if r.kind == ServerQueryKind::GetSources {
            *self.file_queries.entry(r.file).or_insert(0) += 1;
        }
        if r.kind == ServerQueryKind::OfferFiles
            && r.session >= SERVER_PEER_SESSION_BASE
            && r.file != FileId([0; 16])
        {
            *self.file_offers.entry(r.file).or_insert(0) += 1;
        }
    }

    /// Accumulates a chunk of records.
    pub fn push_records(&mut self, records: &[ServerRecord]) {
        for r in records {
            self.push_record(r);
        }
    }

    /// Finalises into the immutable index.
    pub fn finish(self) -> ServerIndex {
        let firsts: Vec<u64> = self.peer_first.values().copied().collect();
        let hours = self.hours;
        let mut hourly = self.hourly;
        if hourly.len() < hours {
            hourly.resize(hours, 0);
        }
        let sorted = |m: HashMap<FileId, u64>| {
            let mut v: Vec<(FileId, u64)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        let file_queries = sorted(self.file_queries);
        let file_offers = sorted(self.file_offers);
        ServerIndex {
            records: self.records,
            kind_counts: self.kind_counts,
            distinct_peers: firsts.len() as u64,
            peer_cumulative: cumulate(new_per_bucket(&firsts, MS_PER_DAY, self.days)),
            hourly: HourlySeries { counts: hourly },
            file_queries,
            file_offers,
            peak_users: self.peak_users,
            peak_indexed_files: self.peak_indexed_files,
        }
    }
}

/// The finished server-side index: every aggregate the cross-validation
/// figures need, independent of capture length.
#[derive(Clone, Debug)]
pub struct ServerIndex {
    /// Total capture records consumed.
    pub records: u64,
    /// Record counts per [`ServerQueryKind`], indexed by tag.
    pub kind_counts: [u64; SERVER_KINDS],
    /// Distinct genuine peers that logged in.
    pub distinct_peers: u64,
    /// Cumulative distinct peers at the end of each day (the server-side
    /// Fig. 2 twin).
    pub peer_cumulative: Vec<u64>,
    /// Hourly peer-query volume (the server-side Fig. 4 twin).
    pub hourly: HourlySeries,
    /// GET-SOURCES count per file, most-queried first (demand).
    pub file_queries: Vec<(FileId, u64)>,
    /// Peer OFFER-FILES count per lead file, most-offered first (supply).
    pub file_offers: Vec<(FileId, u64)>,
    /// Largest concurrent-user gauge seen in Status samples.
    pub peak_users: u32,
    /// Largest indexed-file gauge seen in Status samples.
    pub peak_indexed_files: u64,
}

impl ServerIndex {
    /// Count of records of one kind.
    pub fn count_of(&self, kind: ServerQueryKind) -> u64 {
        self.kind_counts[kind.tag() as usize]
    }
}

/// The cross-validation scores between a server capture and a honeypot
/// measurement of the same run.
#[derive(Clone, Debug)]
pub struct CrossValidation {
    /// Distinct peers seen by the server.
    pub server_peers: u64,
    /// Distinct peers seen by the honeypots.
    pub honeypot_peers: u64,
    /// `honeypot_peers / server_peers` — the fraction of the population
    /// the honeypots reached.  The server sees every peer (all log in);
    /// honeypots only those that query them, so this is in `(0, 1]`.
    pub peer_coverage: f64,
    /// Pearson correlation between the two daily cumulative discovery
    /// curves.
    pub discovery_corr: f64,
    /// Pearson correlation between the two 24-bin hour-of-day activity
    /// profiles.
    pub diurnal_corr: f64,
    /// Day/night ratio of the server's hourly series.
    pub server_day_night: f64,
    /// Day/night ratio of the honeypots' HELLO series.
    pub honeypot_day_night: f64,
    /// Spearman rank correlation between server GET-SOURCES counts and
    /// honeypot per-file query counts over the joined files.
    pub popularity_rank_corr: f64,
    /// Files present in both popularity rankings (joined by [`FileId`]).
    pub files_joined: usize,
}

/// Acceptance thresholds for the cross-validation, enforced by the CI
/// smoke gate (see `server_capture --smoke`).
///
/// Defaults calibrated on `scenarios::server_ten_weeks` smoke runs (scale
/// 0.05–0.2): discovery correlation measures ≈ 0.999 (both curves are
/// near-linear arrival processes), diurnal correlation ≈ 0.97 (same
/// sinusoidal forcing observed through two samplers), popularity rank
/// correlation ≈ 0.7–0.9 (honeypot counts are a thinned sample of the
/// Zipf tail), and coverage ≈ 0.4–0.8 (honeypots advertise a subset of
/// the catalog, so disjoint-interest peers never visit).  The thresholds
/// leave headroom below the measured values while still catching a broken
/// modality: a shuffled capture or a mis-joined popularity table scores
/// near zero.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    pub min_discovery_corr: f64,
    pub min_diurnal_corr: f64,
    pub min_popularity_corr: f64,
    /// Inclusive bounds on `peer_coverage`.
    pub coverage: (f64, f64),
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            min_discovery_corr: 0.95,
            min_diurnal_corr: 0.80,
            min_popularity_corr: 0.40,
            coverage: (0.05, 1.0),
        }
    }
}

impl Tolerance {
    /// The violated criteria, empty when the modalities agree.
    pub fn violations(&self, cv: &CrossValidation) -> Vec<String> {
        let mut v = Vec::new();
        if cv.discovery_corr < self.min_discovery_corr {
            v.push(format!(
                "discovery_corr {:.4} < {:.4}",
                cv.discovery_corr, self.min_discovery_corr
            ));
        }
        if cv.diurnal_corr < self.min_diurnal_corr {
            v.push(format!("diurnal_corr {:.4} < {:.4}", cv.diurnal_corr, self.min_diurnal_corr));
        }
        if cv.popularity_rank_corr < self.min_popularity_corr {
            v.push(format!(
                "popularity_rank_corr {:.4} < {:.4}",
                cv.popularity_rank_corr, self.min_popularity_corr
            ));
        }
        if cv.peer_coverage < self.coverage.0 || cv.peer_coverage > self.coverage.1 {
            v.push(format!(
                "peer_coverage {:.4} outside [{:.2}, {:.2}]",
                cv.peer_coverage, self.coverage.0, self.coverage.1
            ));
        }
        v
    }

    /// Whether the modalities agree within this tolerance.
    pub fn agree(&self, cv: &CrossValidation) -> bool {
        self.violations(cv).is_empty()
    }
}

/// Scores the agreement between a server capture and the honeypot
/// measurement of the same run.
pub fn cross_validate(server: &ServerIndex, log: &MeasurementLog) -> CrossValidation {
    let hp_growth = peer_growth(log);
    let hp_hourly = hourly_counts(log, honeypot::QueryKind::Hello);

    // Per-file honeypot popularity, keyed by FileId through the log's
    // file table for the join: download-path queries (the files the
    // honeypots advertise) plus shared-list occurrences (one count per
    // peer sharing the file), so the join spans the whole observed
    // catalog, not just the honeypots' own advertised set.
    let mut hp_files: HashMap<FileId, u64> = HashMap::new();
    for r in &log.records {
        if r.file != FILE_NONE {
            *hp_files.entry(log.files.id(r.file)).or_insert(0) += 1;
        }
    }
    for l in &log.shared_lists {
        for &f in &l.files {
            *hp_files.entry(log.files.id(f)).or_insert(0) += 1;
        }
    }
    // Server-side popularity: demand (GET-SOURCES) plus supply
    // (OFFER-FILES lead files) — together they cover both the honeypots'
    // advertised files and the wider shared catalog.
    let mut srv_files: HashMap<FileId, u64> = HashMap::new();
    for &(id, n) in server.file_queries.iter().chain(&server.file_offers) {
        *srv_files.entry(id).or_insert(0) += n;
    }
    let mut joined: Vec<(u64, u64)> =
        srv_files.iter().filter_map(|(id, &srv)| hp_files.get(id).map(|&hp| (srv, hp))).collect();
    joined.sort_unstable();
    // Rank the files both modalities observed often enough to rank at
    // all: singleton counts are pure tie noise (a file seen once by each
    // side carries no ordering information), and at small scales they
    // dominate the join.
    let (srv_pop, hp_pop): (Vec<u64>, Vec<u64>) = joined
        .iter()
        .filter(|&&(srv, hp)| srv >= MIN_POPULARITY_COUNT && hp >= MIN_POPULARITY_COUNT)
        .copied()
        .unzip();

    let server_peers = server.distinct_peers;
    let honeypot_peers = u64::from(log.distinct_peers);
    CrossValidation {
        server_peers,
        honeypot_peers,
        peer_coverage: if server_peers == 0 {
            0.0
        } else {
            honeypot_peers as f64 / server_peers as f64
        },
        discovery_corr: pearson(&server.peer_cumulative, &hp_growth.cumulative),
        diurnal_corr: pearson(
            &hour_of_day_profile(&server.hourly.counts),
            &hour_of_day_profile(&hp_hourly.counts),
        ),
        server_day_night: server.hourly.day_night_ratio(),
        honeypot_day_night: hp_hourly.day_night_ratio(),
        popularity_rank_corr: spearman(&srv_pop, &hp_pop),
        files_joined: joined.len(),
    }
}

/// Folds an hourly series into its 24-bin hour-of-day profile.
fn hour_of_day_profile(hourly: &[u64]) -> Vec<u64> {
    let mut profile = vec![0u64; 24];
    for (h, &n) in hourly.iter().enumerate() {
        profile[h % 24] += n;
    }
    profile
}

/// Pearson correlation of two series, compared over the shorter length.
/// Degenerate inputs (shorter than two points, or zero variance) score 0.
fn pearson_f64(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

fn pearson(a: &[u64], b: &[u64]) -> f64 {
    let af: Vec<f64> = a.iter().map(|&x| x as f64).collect();
    let bf: Vec<f64> = b.iter().map(|&x| x as f64).collect();
    pearson_f64(&af, &bf)
}

/// Mid-ranks (ties averaged) of a series.
fn ranks(v: &[u64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by_key(|&i| v[i]);
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over mid-ranks).
fn spearman(a: &[u64], b: &[u64]) -> f64 {
    let n = a.len().min(b.len());
    pearson_f64(&ranks(&a[..n]), &ranks(&b[..n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log_with_files;
    use honeypot::QueryKind;

    fn record(
        at: SimTime,
        kind: ServerQueryKind,
        peer_byte: u8,
        file_byte: u8,
        session: u64,
        payload: u32,
    ) -> ServerRecord {
        ServerRecord {
            at,
            kind,
            peer: IpHash([peer_byte; 16]),
            port: 4662,
            flag: 1,
            file: FileId::from_seed(&[file_byte]),
            session,
            payload,
        }
    }

    /// A two-day capture: three peers, logins spread over both days,
    /// GET-SOURCES traffic over two files, one Status sample.
    fn sample_records() -> Vec<ServerRecord> {
        let base = SERVER_PEER_SESSION_BASE;
        vec![
            record(SimTime::from_hours(1), ServerQueryKind::Login, 1, 0, base, 0),
            record(SimTime::from_hours(2), ServerQueryKind::GetSources, 1, 10, base, 3),
            record(SimTime::from_hours(3), ServerQueryKind::Login, 2, 0, base + 1, 0),
            record(SimTime::from_hours(3), ServerQueryKind::Search, 2, 0, base + 1, 5),
            record(SimTime::from_hours(4), ServerQueryKind::GetSources, 2, 10, base + 1, 3),
            record(SimTime::from_hours(5), ServerQueryKind::Status, 0, 0, 42, 2),
            record(SimTime::from_hours(26), ServerQueryKind::Login, 3, 0, base + 2, 0),
            record(SimTime::from_hours(27), ServerQueryKind::GetSources, 3, 11, base + 2, 1),
            // Honeypot session (< base): its login must not count as a peer.
            record(SimTime::from_hours(1), ServerQueryKind::Login, 9, 0, 5, 0),
        ]
    }

    fn build(records: &[ServerRecord]) -> ServerIndex {
        let mut b = ServerIndexBuilder::new(SimTime::from_days(2));
        b.push_records(records);
        b.finish()
    }

    #[test]
    fn builder_aggregates_the_capture() {
        let ix = build(&sample_records());
        assert_eq!(ix.records, 9);
        assert_eq!(ix.distinct_peers, 3, "honeypot login excluded");
        assert_eq!(ix.peer_cumulative, vec![2, 3]);
        assert_eq!(ix.count_of(ServerQueryKind::GetSources), 3);
        assert_eq!(ix.count_of(ServerQueryKind::Status), 1);
        assert_eq!(ix.peak_users, 2);
        assert_eq!(ix.peak_indexed_files, 42);
        assert_eq!(ix.hourly.counts.len(), 48);
        assert_eq!(ix.hourly.total(), 8, "Status not hourly-counted");
        assert_eq!(ix.file_queries[0], (FileId::from_seed(&[10]), 2), "most-queried first");
    }

    #[test]
    fn builder_is_chunking_insensitive() {
        let records = sample_records();
        let whole = build(&records);
        let mut one_at_a_time = ServerIndexBuilder::new(SimTime::from_days(2));
        for r in &records {
            one_at_a_time.push_record(r);
        }
        let split = one_at_a_time.finish();
        assert_eq!(whole.peer_cumulative, split.peer_cumulative);
        assert_eq!(whole.hourly.counts, split.hourly.counts);
        assert_eq!(whole.file_queries, split.file_queries);
        assert_eq!(whole.kind_counts, split.kind_counts);
    }

    #[test]
    fn cross_validation_scores_an_agreeing_pair() {
        // Honeypot log: peers 0 and 1 (of the server's 3) with the same
        // relative popularity ranking (file 0 above file 1, both past the
        // min-count floor) and arrival spread over both days.  File table
        // ids are file-0/file-1 seeds, so seed the server records with
        // matching FileIds.
        let log = synthetic_log_with_files(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1), honeypot::log::FILE_NONE),
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1), 0),
            (0, QueryKind::RequestPart, 0, SimTime::from_hours(2), 0),
            (0, QueryKind::RequestPart, 0, SimTime::from_hours(2), 0),
            (0, QueryKind::RequestPart, 0, SimTime::from_hours(2), 0),
            (1, QueryKind::Hello, 1, SimTime::from_hours(26), honeypot::log::FILE_NONE),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(26), 1),
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(26), 1),
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(27), 1),
        ]);
        let base = SERVER_PEER_SESSION_BASE;
        let f0 = FileId::from_seed(b"file-0");
        let f1 = FileId::from_seed(b"file-1");
        let mut b = ServerIndexBuilder::new(SimTime::from_days(2));
        for (h, peer, session) in [(1u64, 1u8, base), (2, 2, base + 1), (25, 3, base + 2)] {
            b.push_record(&record(
                SimTime::from_hours(h),
                ServerQueryKind::Login,
                peer,
                0,
                session,
                0,
            ));
        }
        for (h, file) in [(1u64, f0), (2, f0), (26, f0), (26, f0), (1, f1), (2, f1), (25, f1)] {
            b.push_record(&ServerRecord {
                at: SimTime::from_hours(h),
                kind: ServerQueryKind::GetSources,
                peer: IpHash([1; 16]),
                port: 4662,
                flag: 1,
                file,
                session: base,
                payload: 1,
            });
        }
        let cv = cross_validate(&b.finish(), &log);
        assert_eq!(cv.server_peers, 3);
        assert_eq!(cv.honeypot_peers, 2);
        assert!((cv.peer_coverage - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(cv.files_joined, 2);
        assert!(cv.discovery_corr > 0.99, "both discover 2-then-3: {}", cv.discovery_corr);
        assert!(cv.popularity_rank_corr > 0.99, "same ranking: {}", cv.popularity_rank_corr);
        assert!(Tolerance::default().agree(&cv), "{:?}", Tolerance::default().violations(&cv));
    }

    #[test]
    fn tolerance_flags_disagreement() {
        let cv = CrossValidation {
            server_peers: 100,
            honeypot_peers: 1,
            peer_coverage: 0.01,
            discovery_corr: 0.2,
            diurnal_corr: 0.1,
            server_day_night: 1.0,
            honeypot_day_night: 3.0,
            popularity_rank_corr: -0.5,
            files_joined: 2,
        };
        let v = Tolerance::default().violations(&cv);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(!Tolerance::default().agree(&cv));
    }

    #[test]
    fn correlation_helpers_behave() {
        assert!((pearson(&[1, 2, 3], &[2, 4, 6]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1, 2, 3], &[6, 4, 2]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1, 1, 1], &[1, 2, 3]), 0.0, "zero variance");
        assert_eq!(pearson(&[1], &[1]), 0.0, "too short");
        assert!((spearman(&[10, 20, 30, 40], &[1, 5, 7, 100]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[10, 20, 30], &[30, 20, 10]) + 1.0).abs() < 1e-12);
        let r = ranks(&[5, 1, 5]);
        assert_eq!(r, vec![2.5, 1.0, 2.5], "ties take mid-rank");
    }
}
