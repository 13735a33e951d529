//! # edonkey-analysis
//!
//! Analytics over merged honeypot measurement logs — one module per family
//! of results in the paper's evaluation (§IV):
//!
//! * [`index`] — [`LogIndex`], the one pass over a log's records that
//!   every figure statistic below is read from;
//! * [`table`] — Table I basic statistics;
//! * [`distinct`] — distinct-peer/file growth and new-per-day series
//!   (Figs. 2–3);
//! * [`timeseries`] — hourly message volumes and the day/night ratio
//!   (Fig. 4);
//! * [`strategy`] — random-content vs no-content comparisons (Figs. 5–7);
//! * [`toppeer`] — single-peer query series and plateau detection
//!   (Figs. 8–9);
//! * [`subset`] — Monte-Carlo subset sampling over honeypots and files
//!   (Figs. 10–12), parallel;
//! * [`cointerest`] — peer–peer and file–file co-interest projections (the
//!   paper's §V analysis agenda);
//! * [`population`] — demographics: high/low IDs, client software,
//!   per-peer query volumes, honeypot load balance;
//! * [`server`] — the server-capture index and honeypot/server
//!   cross-validation (the "ten weeks of an eDonkey server" modality);
//! * [`report`] — ASCII tables/charts and formatting helpers.
//!
//! The figure statistics are methods of [`LogIndex`]; [`basic_stats`]
//! reads only a log's header and file table.  The record vector itself is
//! read by the index build and by three consumers outside the paper's
//! figures: [`population`], [`cointerest`] and the popularity join of
//! [`cross_validate`].

pub mod cointerest;
pub mod distinct;
pub mod index;
pub mod population;
pub mod report;
pub mod server;
pub mod strategy;
pub mod subset;
pub mod table;
pub mod testutil;
pub mod timeseries;
pub mod toppeer;

pub use cointerest::{co_interest, peer_degree_histogram, CoInterestStats, FilePairEdge};
pub use distinct::PeerGrowth;
pub use index::{IndexBuilder, LogIndex};
pub use population::{
    client_software, gini, honeypot_load_gini, id_status_breakdown, queries_per_peer_histogram,
    IdStatusBreakdown,
};
pub use server::{cross_validate, CrossValidation, ServerIndex, ServerIndexBuilder, Tolerance};
pub use strategy::StrategyComparison;
pub use subset::{
    file_peer_counts, popular_files, random_files, subset_curve, PeerSet, SubsetPoint,
};
pub use table::{basic_stats, BasicStats};
pub use timeseries::HourlySeries;
pub use toppeer::plateaus;
