//! # honeypot — the distributed eDonkey measurement platform
//!
//! This crate is the paper's primary contribution (Allali, Latapy &
//! Magnien, *Measurement of eDonkey Activity with Distributed Honeypots*,
//! 2009, §III): a manager plus a set of honeypot peers that pretend to
//! offer files and log every query they receive.
//!
//! * [`honeypot`] — the honeypot peer as a transport-agnostic state
//!   machine: it advertises files, answers HELLO / START-UPLOAD /
//!   REQUEST-PART per its [`strategy::ContentStrategy`], optionally adopts
//!   files greedily, and logs everything (step-1 anonymised);
//! * [`manager`] — launches and monitors honeypots, collects their logs,
//!   performs step-2 anonymisation and merging;
//! * [`anonymize`] — the two-step IP anonymisation and the file-name word
//!   anonymiser (§III-C);
//! * [`log`] / [`measurement`] — the raw per-honeypot log schema and the
//!   merged dataset consumed by `edonkey-analysis`;
//! * [`server`] — the eDonkey index server the honeypots are found
//!   through (login, OFFER-FILES indexing, GET-SOURCES, SEARCH), with the
//!   optional server-side query [`capture`] streaming [`serverlog`]
//!   records;
//! * [`spool`] — the one durable append-only log (CRC-framed segments,
//!   torn-tail recovery, injectable write faults) under the capture, the
//!   platform's agent spools and its manager WAL.
//!
//! The same honeypot and server code runs inside the discrete-event
//! simulation (`edonkey-sim`) and over real TCP sockets (`edonkey-net`).

pub mod anonymize;
pub mod capture;
pub mod export;
pub mod honeypot;
pub mod log;
pub mod manager;
pub mod measurement;
pub mod server;
pub mod serverlog;
pub mod spool;
pub mod storage;
pub mod strategy;
pub mod types;

pub use anonymize::{AnonMap, AnonPeerId, IpHash, IpHasher};
pub use capture::ServerCapture;
pub use honeypot::{Action, ActionSink, ConnId, Honeypot, HoneypotConfig};
pub use log::{
    HoneypotLog, LogChunk, PackedQueryRecord, QueryKind, QueryRecord, SharedListView, SharedLists,
};
pub use manager::{HoneypotSpec, Manager, SupervisionBook};
pub use measurement::{
    AnonClient, AnonRecord, AnonSharedList, ClientTable, HoneypotMeta, MeasurementLog,
};
pub use server::IndexServer;
pub use serverlog::{
    ServerLogReader, ServerLogStats, ServerLogWriter, ServerQueryKind, ServerRecord,
    SERVER_PEER_SESSION_BASE,
};
pub use storage::{
    load as load_measurement, save as save_measurement, StorageError, VERSION as STORAGE_VERSION,
};
pub use strategy::{AdvertisedFile, ContentStrategy, FileStrategy};
pub use types::{HoneypotId, HoneypotStatus, IdStatus, ServerInfo, StatusReport};
