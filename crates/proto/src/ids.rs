//! Identifiers used throughout the eDonkey network.
//!
//! * [`FileId`] — the 16-byte MD4-derived *file hash* ("fileID"): generated
//!   from the file's content so that identically-named but different files
//!   are distinguished, and identical content under different names is
//!   unified (paper, footnote 3).
//! * [`UserId`] — the 16-byte *user hash*, stable across sessions and used to
//!   recognise a client independently of its network location (footnote 4).
//! * [`ClientId`] — the server-assigned session identifier: the peer's IPv4
//!   address when it is directly reachable (*high ID*) or a 24-bit number
//!   otherwise (*low ID*) (footnote 2).
//! * [`PeerAddr`] — IPv4 + TCP port of a peer, as carried in `FOUND-SOURCES`.

use crate::md4::{md4, to_hex};

/// Threshold separating low IDs from high IDs: IDs below `2^24` are
/// server-local ("low"), IDs at or above are the peer's IPv4 address encoded
/// as a little-endian u32 ("high").
pub const LOW_ID_LIMIT: u32 = 1 << 24;

/// The 16-byte eDonkey file hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub [u8; 16]);

impl FileId {
    /// Derives a file ID from arbitrary seed material (used by the synthetic
    /// catalog in place of hashing real content, see [`crate::parts`]).
    pub fn from_seed(seed: &[u8]) -> Self {
        FileId(md4(seed))
    }

    /// Lowercase-hex rendering (the usual `ed2k://` display form).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses the 32-character lowercase/uppercase hex form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok()?;
        }
        Some(FileId(out))
    }
}

impl std::fmt::Debug for FileId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "FileId({})", self.to_hex())
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.write_str(&self.to_hex())
    }
}

/// The 16-byte eDonkey user hash, stable across sessions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub [u8; 16]);

impl UserId {
    /// Derives a user hash from arbitrary seed material.
    pub fn from_seed(seed: &[u8]) -> Self {
        UserId(md4(seed))
    }

    /// Lowercase-hex rendering.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }
}

impl std::fmt::Debug for UserId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "UserId({})", self.to_hex())
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.write_str(&self.to_hex())
    }
}

/// Server-assigned session identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl ClientId {
    /// A high ID encodes the peer's IPv4 address (little-endian byte order,
    /// as on the wire).
    pub fn high_from_ip(ip: Ipv4) -> Self {
        ClientId(u32::from_le_bytes(ip.octets()))
    }

    /// A low ID is a server-local 24-bit number (`1 ..= 2^24 - 1`).
    ///
    /// # Panics
    /// If `n` is zero or does not fit in 24 bits.
    pub fn low(n: u32) -> Self {
        assert!(n > 0 && n < LOW_ID_LIMIT, "low ID out of range: {n}");
        ClientId(n)
    }

    /// Whether the peer is directly reachable.
    pub fn is_high(&self) -> bool {
        self.0 >= LOW_ID_LIMIT
    }

    /// Whether the peer sits behind NAT/firewall and got a 24-bit ID.
    pub fn is_low(&self) -> bool {
        !self.is_high()
    }

    /// Recovers the IPv4 address from a high ID.
    pub fn ip(&self) -> Option<Ipv4> {
        self.is_high().then(|| Ipv4::from_octets(self.0.to_le_bytes()))
    }
}

impl std::fmt::Debug for ClientId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(ip) = self.ip() {
            write!(fm, "ClientId(high {ip})")
        } else {
            write!(fm, "ClientId(low {})", self.0)
        }
    }
}

/// An IPv4 address (we keep our own 4-byte newtype rather than
/// `std::net::Ipv4Addr` so that the simulated world and the wire codec share
/// one plain-old-data representation that is orderable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from dotted-quad octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Builds an address from big-endian octets.
    pub fn from_octets(o: [u8; 4]) -> Self {
        Ipv4(u32::from_be_bytes(o))
    }

    /// Big-endian octets (network order).
    pub fn octets(&self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl std::fmt::Debug for Ipv4 {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "{self}")
    }
}

impl std::fmt::Display for Ipv4 {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(fm, "{a}.{b}.{c}.{d}")
    }
}

impl From<std::net::Ipv4Addr> for Ipv4 {
    fn from(a: std::net::Ipv4Addr) -> Self {
        Ipv4::from_octets(a.octets())
    }
}

impl From<Ipv4> for std::net::Ipv4Addr {
    fn from(a: Ipv4) -> Self {
        std::net::Ipv4Addr::from(a.octets())
    }
}

/// A peer's network endpoint as carried in `FOUND-SOURCES` answers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PeerAddr {
    pub ip: Ipv4,
    pub port: u16,
}

impl PeerAddr {
    pub fn new(ip: Ipv4, port: u16) -> Self {
        PeerAddr { ip, port }
    }
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "{}:{}", self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_id_round_trips_ip() {
        let ip = Ipv4::new(134, 157, 0, 42);
        let id = ClientId::high_from_ip(ip);
        assert!(id.is_high());
        assert_eq!(id.ip(), Some(ip));
    }

    #[test]
    fn low_id_has_no_ip() {
        let id = ClientId::low(123_456);
        assert!(id.is_low());
        assert_eq!(id.ip(), None);
    }

    #[test]
    #[should_panic(expected = "low ID out of range")]
    fn low_id_rejects_out_of_range() {
        let _ = ClientId::low(LOW_ID_LIMIT);
    }

    #[test]
    fn small_ips_would_be_low_ids_by_construction() {
        // An IP like 1.0.0.0 encodes (LE) to 1, inside the low range: the
        // real network avoids assigning such addresses as high IDs; we only
        // check the arithmetic is what the spec says (little-endian).
        let id = ClientId::high_from_ip(Ipv4::new(1, 2, 3, 4));
        assert_eq!(id.0, u32::from_le_bytes([1, 2, 3, 4]));
    }

    #[test]
    fn file_id_hex_round_trip() {
        let id = FileId::from_seed(b"some file");
        assert_eq!(FileId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(FileId::from_hex("xyz"), None);
        assert_eq!(FileId::from_hex(&"0".repeat(31)), None);
    }

    #[test]
    fn ipv4_display_and_conversion() {
        let ip = Ipv4::new(192, 168, 1, 2);
        assert_eq!(ip.to_string(), "192.168.1.2");
        let std_ip: std::net::Ipv4Addr = ip.into();
        assert_eq!(Ipv4::from(std_ip), ip);
    }

    #[test]
    fn peer_addr_display() {
        let a = PeerAddr::new(Ipv4::new(10, 0, 0, 1), 4662);
        assert_eq!(a.to_string(), "10.0.0.1:4662");
    }
}
