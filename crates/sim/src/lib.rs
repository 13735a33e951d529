//! # edonkey-sim
//!
//! The synthetic eDonkey world the honeypot platform is measured against —
//! the substitution for the live network the paper used (see DESIGN.md):
//!
//! * [`catalog`] — a deterministic file universe with heavy-tailed
//!   popularity, class-dependent sizes and generated names;
//! * [`identity`] — synthetic peer identities (unique IPs, user hashes,
//!   client names/versions, high/low IDs);
//! * [`peer`] — the genuine-peer download state machine (paper Fig. 1) with
//!   timeout- vs corruption-based honeypot detection and client-level
//!   blacklisting;
//! * [`config`] — every behavioural knob, with paper-calibrated defaults;
//! * [`behaviour`] — every random decision of the world, as functions;
//! * [`world`] — the discrete-event world tying it all together, hosting
//!   the *actual* `honeypot` crate state machines: the honeypots and the
//!   `honeypot::IndexServer` they are found through.
//!
//! ```
//! use edonkey_sim::config::ScenarioConfig;
//! use edonkey_sim::world::run_scenario;
//!
//! let out = run_scenario(ScenarioConfig::tiny(42).scaled(0.2));
//! assert!(out.log.distinct_peers > 0);
//! ```

pub mod behaviour;
pub mod catalog;
pub mod config;
pub mod identity;
pub mod peer;
pub mod world;

pub use catalog::{Catalog, CatalogConfig, CatalogDraws};
pub use config::{
    BehaviorConfig, BlacklistConfig, CrashConfig, HoneypotSetup, PopulationConfig, QueueKind,
    RobotConfig, ScenarioConfig, ServerCaptureConfig,
};
pub use world::{
    run_scenario, run_scenario_with_capture, CaptureRunOutput, EdonkeyWorld, Event, SimOutput,
    WorldStats,
};
