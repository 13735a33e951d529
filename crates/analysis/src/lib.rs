//! # edonkey-analysis
//!
//! Analytics over merged honeypot measurement logs — one module per family
//! of results in the paper's evaluation (§IV):
//!
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
//! All functions are pure over [`honeypot::MeasurementLog`].

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
pub use distinct::{file_growth, peer_growth, peer_growth_filtered, PeerGrowth};
pub use index::{IndexBuilder, LogIndex};
pub use population::{
    client_software, gini, honeypot_load_gini, id_status_breakdown, queries_per_peer_histogram,
    IdStatusBreakdown,
};
pub use server::{cross_validate, CrossValidation, ServerIndex, ServerIndexBuilder, Tolerance};
pub use strategy::{distinct_peers_by_strategy, messages_by_strategy, StrategyComparison};
pub use subset::{
    file_peer_counts, peer_sets_by_file, peer_sets_by_honeypot, popular_files, random_files,
    subset_curve, subset_curve_sequential, PeerSet, SubsetPoint,
};
pub use table::{basic_stats, BasicStats};
pub use timeseries::{first_event_ms, hourly_counts, HourlySeries};
pub use toppeer::{
    peer_series, plateaus, top_peer, top_peer_summary, top_peer_summary_indexed, TopPeerSummary,
};
