//! Transfer-block geometry.
//!
//! eDonkey splits every file into *parts* of 9,728,000 bytes; transfers
//! request *blocks* of at most 180 KB within a part.  A downloading client
//! verifies each completed part against its MD4 — which is exactly the
//! mechanism by which genuine peers eventually detect a *random-content*
//! honeypot (the part completes but its hash does not match), and why that
//! detection is much slower than noticing a *no-content* honeypot's
//! silence (paper §IV-B).  No honeypot here ever completes a part, so only
//! the block size is modelled: it sizes the REQUEST-PARTS triples peers
//! send and the SENDING-PART blocks a random-content honeypot answers.

/// Maximum transfer block requested by REQUEST-PARTS: 180 KB.
pub const BLOCK_SIZE: u64 = 184_320;
