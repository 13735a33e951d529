//! Synthetic peer identities.
//!
//! Every simulated peer carries the metadata a honeypot logs: an IPv4
//! address (hashed before storage), TCP port, a user hash stable across
//! sessions, a client name and version, and a high/low ID status.  The
//! generator avoids reserved address space and keeps IPs unique so that
//! "distinct peers" is well-defined.

use edonkey_proto::{ClientId, Ipv4, UserId};
use netsim::Rng;

/// Client software names observed in the wild circa 2008, used as the peer
/// name pool.
pub const CLIENT_NAMES: &[&str] = &[
    "eMule",
    "aMule",
    "eMule Plus",
    "MLDonkey",
    "Shareaza",
    "lphant",
    "eDonkey2000",
    "Hydranode",
    "Jubster",
    "eMule Xtreme",
];

/// Client version tags matching the name pool's era.
pub const CLIENT_VERSIONS: &[u32] = &[0x46, 0x47, 0x48, 0x49, 0x4A, 0x3C, 0x3D, 0x50];

/// One peer's immutable identity.
#[derive(Clone, Copy, Debug)]
pub struct PeerIdentity {
    pub ip: Ipv4,
    pub port: u16,
    pub user_id: UserId,
    pub client_id: ClientId,
    /// Index into [`CLIENT_NAMES`].
    pub name_idx: u8,
    pub version: u32,
}

impl PeerIdentity {
    /// The client name string.
    pub fn name(&self) -> &'static str {
        CLIENT_NAMES[self.name_idx as usize]
    }
}

/// Deterministic identity factory.
pub struct IdentityFactory {
    rng: Rng,
    /// Fraction of peers behind NAT (low ID).  Studies of 2008-era eDonkey
    /// populations put this around 30–40 %.
    pub low_id_fraction: f64,
    next_serial: u64,
}

impl IdentityFactory {
    pub fn new(rng: Rng) -> Self {
        IdentityFactory { rng, low_id_fraction: 0.35, next_serial: 0 }
    }

    /// Creates the `n`-th peer identity.  IPs are unique by construction:
    /// the serial number is bijectively scrambled into the address space.
    pub fn create(&mut self) -> PeerIdentity {
        let serial = self.next_serial;
        self.next_serial += 1;
        // Feistel-ish scramble of the serial into 30 bits, then mapped into
        // public-looking space (avoid 0.x, 10.x, 127.x, 192.168.x, ≥224.x).
        let scrambled = scramble30(serial as u32);
        let a = 1 + (scrambled >> 24) % 222; // 1..=222
        let a = match a {
            10 | 127 | 192 => a + 1,
            x => x,
        };
        let ip =
            Ipv4::new(a as u8, (scrambled >> 16) as u8, (scrambled >> 8) as u8, scrambled as u8);
        let low = self.rng.chance(self.low_id_fraction);
        // Note the protocol quirk: an address ending in .0 encodes (LE) to
        // a value below 2^24, so a directly-reachable peer at x.y.z.0 is
        // numerically indistinguishable from a low ID — exactly as on the
        // real network.  ~1/256 of "reachable" identities land there.
        let client_id = if low {
            ClientId::low(1 + (serial as u32 % (edonkey_proto::ids::LOW_ID_LIMIT - 1)))
        } else {
            ClientId::high_from_ip(ip)
        };
        PeerIdentity {
            ip,
            port: 4660 + (self.rng.below(16)) as u16,
            user_id: UserId::from_seed(format!("peer/{serial}").as_bytes()),
            client_id,
            name_idx: self.rng.below(CLIENT_NAMES.len() as u64) as u8,
            version: *self.rng.choose(CLIENT_VERSIONS),
        }
    }
}

/// A bijective scramble of 32-bit values (two rounds of xorshift-multiply,
/// both invertible), keeping serial→IP collision-free.
fn scramble30(x: u32) -> u32 {
    let mut v = x;
    v ^= v >> 16;
    v = v.wrapping_mul(0x7FEB_352D);
    v ^= v >> 15;
    v = v.wrapping_mul(0x846C_A68B);
    v ^= v >> 16;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ips_are_unique() {
        let mut f = IdentityFactory::new(Rng::seed_from(1));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(f.create().ip), "IP collision");
        }
        assert_eq!(f.next_serial, 100_000);
    }

    #[test]
    fn ips_avoid_reserved_first_octet() {
        let mut f = IdentityFactory::new(Rng::seed_from(2));
        for _ in 0..10_000 {
            let [a, ..] = f.create().ip.octets();
            assert!((1..=223).contains(&a), "first octet {a}");
            assert!(a != 10 && a != 127 && a != 192, "reserved octet {a}");
        }
    }

    #[test]
    fn low_id_fraction_respected() {
        let mut f = IdentityFactory::new(Rng::seed_from(3));
        f.low_id_fraction = 0.5;
        let low = (0..10_000).filter(|_| f.create().client_id.is_low()).count();
        assert!((4_500..5_500).contains(&low), "low-ID count {low}");
    }

    #[test]
    fn high_id_encodes_ip() {
        let mut f = IdentityFactory::new(Rng::seed_from(4));
        f.low_id_fraction = 0.0;
        let mut highs = 0;
        for _ in 0..500 {
            let p = f.create();
            if p.client_id.is_high() {
                highs += 1;
                assert_eq!(p.client_id.ip(), Some(p.ip));
            } else {
                // The x.y.z.0 quirk: addresses ending in .0 encode below
                // 2^24 and read as low IDs.
                assert_eq!(p.ip.octets()[3], 0, "only .0 hosts may read as low");
            }
        }
        assert!(highs > 450, "almost all reachable peers carry high IDs: {highs}");
    }

    #[test]
    fn user_ids_stable_and_distinct() {
        let mut f1 = IdentityFactory::new(Rng::seed_from(5));
        let mut f2 = IdentityFactory::new(Rng::seed_from(99));
        let a1 = f1.create();
        let a2 = f2.create();
        // User hash depends only on the serial, not the RNG: the same peer
        // across re-runs keeps its identity.
        assert_eq!(a1.user_id, a2.user_id);
        assert_ne!(f1.create().user_id, a1.user_id);
    }

    #[test]
    fn names_and_versions_from_pools() {
        let mut f = IdentityFactory::new(Rng::seed_from(6));
        for _ in 0..1_000 {
            let p = f.create();
            assert!(CLIENT_NAMES.get(p.name_idx as usize).is_some());
            assert!(CLIENT_VERSIONS.contains(&p.version));
            assert!((4660..4676).contains(&p.port));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn scramble_is_injective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..200_000u32 {
            assert!(seen.insert(scramble30(x)));
        }
    }
}
