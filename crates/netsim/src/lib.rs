//! # netsim
//!
//! A deterministic discrete-event simulation engine, built for the
//! `edonkey-honeypots` reproduction but domain-agnostic:
//!
//! * [`time`] — the millisecond simulation clock with hour/day views;
//! * [`queue`] — the [`queue::PendingQueue`] abstraction the engine runs on;
//! * [`event`] — a stable (insertion-order tie-breaking) binary-heap queue;
//! * [`calendar`] — a bucketed calendar queue with identical semantics;
//! * [`wheel`] — a hierarchical timing wheel (amortised O(1) push/pop)
//!   with identical semantics, for million-peer populations;
//! * [`engine`] — the event loop: a [`engine::World`] state machine driven
//!   by an [`engine::Engine`] generic over its queue, with causality
//!   enforced by the [`engine::Scheduler`] handle;
//! * [`rng`] — from-scratch `xoshiro256**` with named sub-streams for
//!   component-level reproducibility;
//! * [`dist`] — exponential/Poisson/normal/log-normal/Zipf sampling and the
//!   diurnal activity curve;
//! * [`json`] — the workspace's JSON value, printer and reader;
//! * [`metrics`] — bucketed time series and first-seen tracking;
//! * [`obs`] — the structured-event facade and per-thread flight
//!   recorder shared by the whole workspace (see `platform::obs` for
//!   the registry/scraper built on top);
//! * [`par`] — the order-preserving parallel map the analyses run on;
//! * [`sync`] — poison-recovering mutex locking for the threaded crates.
//!
//! Everything is deterministic: a simulation is a pure function of its
//! configuration and one 64-bit seed.

pub mod calendar;
pub mod dist;
pub mod engine;
pub mod event;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod queue;
pub mod rng;
pub mod sync;
pub mod time;
pub mod wheel;

pub use calendar::CalendarQueue;
pub use dist::{DiurnalCurve, Zipf};
pub use engine::{Engine, RunOutcome, Scheduler, World};
pub use event::EventQueue;
pub use json::Json;
pub use metrics::{BucketSeries, FirstSeen};
pub use queue::PendingQueue;
pub use rng::Rng;
pub use time::SimTime;
pub use wheel::TimingWheel;
