//! # edonkey-proto
//!
//! A from-scratch implementation of the eDonkey/eMule wire protocol subset
//! needed by a measurement honeypot that must *pass for a normal peer*
//! (Allali, Latapy & Magnien, "Measurement of eDonkey Activity with
//! Distributed Honeypots", 2009, §III-B), after the unofficial protocol
//! specification of Kulbak & Bickson cited by the paper.
//!
//! The crate provides:
//!
//! * [`md4`] — the MD4 digest (RFC 1320), the primitive behind all eDonkey
//!   identifiers;
//! * [`ids`] — file hashes, user hashes, high/low client IDs, peer
//!   addresses;
//! * [`tags`] — the tag metadata system;
//! * [`messages`] — typed client↔server and client↔client messages;
//! * [`codec`] — length-prefixed TCP framing and the one incremental
//!   stream decoder both protocols use, each supplying only its frame
//!   check;
//! * [`wire`] — the little-endian `Writer`/`Reader` both protocols'
//!   payloads are written and read with;
//! * [`parts`] — the 180 KB transfer block (and why part hashing makes
//!   *random-content* honeypots slower to detect than *no-content* ones);
//! * [`search`] — the boolean keyword query trees of SEARCH-REQUEST, used
//!   by topic-targeted measurements;
//! * [`udp`] — the UDP side-protocol (global source queries and server
//!   status pings);
//! * [`control`] — the measurement platform's own control-plane framing
//!   (manager daemon ↔ honeypot agents): versioned, length-prefixed,
//!   CRC-checked frames, distinct from the eDonkey wire format but decoded
//!   by the same [`codec::FrameDecoder`].
//!
//! The same typed messages drive both the discrete-event simulation
//! (`edonkey-sim`) and the real-TCP loopback substrate (`edonkey-net`), so
//! the honeypot platform exercises one protocol implementation everywhere.

pub mod codec;
pub mod control;
pub mod error;
pub mod ids;
pub mod md4;
pub mod messages;
pub mod opcodes;
pub mod parts;
pub mod search;
pub mod tags;
pub mod udp;
pub mod wire;

pub use error::ProtoError;
pub use ids::{ClientId, FileId, Ipv4, PeerAddr, UserId};
pub use messages::{ClientServerMessage, PartRange, PeerMessage, PublishedFile};
pub use search::{Comparator, SearchExpr};
pub use udp::UdpMessage;
