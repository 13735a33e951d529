//! # edonkey-net
//!
//! The real-TCP substrate: the same `honeypot` state machines and
//! `edonkey-proto` wire format as the simulation, but over genuine
//! `std::net` sockets on loopback.  This proves the measurement platform
//! speaks actual eDonkey — binary frames, directional opcodes, tag lists —
//! end to end:
//!
//! * [`framing`] — blocking framed streams over `TcpStream`: Nagle off,
//!   one `write` per protocol step, reads straight into the frame decoder;
//! * [`server`] — a threaded socket driver of `honeypot::IndexServer`,
//!   the same index server the simulation runs (login / offer /
//!   get-sources / search, UDP global queries);
//! * [`host`] — runs a honeypot over sockets: server session + peer
//!   listener, one thread per peer connection;
//! * [`peer`] — a scripted genuine peer driving the paper's Fig. 1 message
//!   flow for tests and examples.

mod accept;
pub mod framing;
pub mod host;
pub mod peer;
pub mod server;

pub use framing::{would_block, FramedStream, NetError};
pub use host::HoneypotHost;
pub use peer::{DownloadAttempt, ScriptedPeer};
pub use server::NetServer;
