//! MD4 message digest (RFC 1320), implemented from scratch.
//!
//! The eDonkey network identifies files and users by MD4 digests: each file
//! is hashed per 9,728,000-byte *part* and the file identifier is the MD4 of
//! the concatenated part hashes (see [`crate::parts`]).  MD4 is also used by
//! the honeypot platform's first anonymisation step (a one-way hash of peer
//! IP addresses applied before anything is written to disk).
//!
//! MD4 is cryptographically broken for collision resistance, but the network
//! protocol mandates it; this module is a faithful, dependency-free
//! implementation validated against the RFC 1320 test vectors.

/// Output size of MD4 in bytes.
pub const DIGEST_LEN: usize = 16;

/// Block size of MD4 in bytes.
pub const BLOCK_LEN: usize = 64;

const INIT_STATE: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (!x & z)
}

#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (x & z) | (y & z)
}

#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

/// Incremental MD4 hasher.
///
/// Feed input with [`Md4::update`] and finish with [`Md4::finalize`]; the
/// one-shot convenience [`md4`] covers the common case.
///
/// ```
/// use edonkey_proto::md4::{md4, Md4};
///
/// let mut hasher = Md4::new();
/// hasher.update(b"abc");
/// assert_eq!(hasher.finalize(), md4(b"abc"));
/// ```
#[derive(Clone)]
pub struct Md4 {
    state: [u32; 4],
    /// Total number of input bytes consumed so far.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Md4 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Md4 {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Md4").field("len", &self.len).finish_non_exhaustive()
    }
}

impl Md4 {
    /// Creates a hasher in the RFC 1320 initial state.
    pub fn new() -> Self {
        Md4 { state: INIT_STATE, len: 0, buf: [0u8; BLOCK_LEN], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if rest.is_empty() {
                // Everything fit into the partial block; the tail handling
                // below must not clobber `buf_len`.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(BLOCK_LEN);
        for block in &mut chunks {
            let mut tmp = [0u8; BLOCK_LEN];
            tmp.copy_from_slice(block);
            self.compress(&tmp);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 16-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: a single 0x80 byte, zeros, then the 64-bit little-endian
        // message length, so that the total is a multiple of 64 bytes.  It
        // is written in place: one block, or two when the 0x80 byte leaves
        // no room for the length in the first.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.compress(&block);
        self.digest()
    }

    /// The first `finalize`: pads one `update` byte at a time.  Kept as the
    /// oracle the in-place padding is compared against.
    #[cfg(test)]
    fn finalize_bytewise(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.compress(&block);
        self.digest()
    }

    fn digest(&self) -> [u8; DIGEST_LEN] {
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut x = [0u32; 16];
        for (i, w) in x.iter_mut().enumerate() {
            *w = u32::from_le_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }

        let [mut a, mut b, mut c, mut d] = self.state;

        macro_rules! round {
            ($func:ident, $add:expr, $order:expr, $shifts:expr) => {
                for (j, &k) in $order.iter().enumerate() {
                    let s = $shifts[j % 4];
                    let t = a
                        .wrapping_add($func(b, c, d))
                        .wrapping_add(x[k])
                        .wrapping_add($add)
                        .rotate_left(s);
                    a = d;
                    d = c;
                    c = b;
                    b = t;
                }
            };
        }

        const R1: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        const R2: [usize; 16] = [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15];
        const R3: [usize; 16] = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];

        round!(f, 0u32, R1, [3u32, 7, 11, 19]);
        round!(g, 0x5a82_7999u32, R2, [3u32, 5, 9, 13]);
        round!(h, 0x6ed9_eba1u32, R3, [3u32, 9, 11, 15]);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// One-shot MD4 of `data`.
pub fn md4(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Md4::new();
    hasher.update(data);
    hasher.finalize()
}

/// Renders a digest as lowercase hex, the conventional display for eDonkey
/// hashes.
pub fn to_hex(digest: &[u8; DIGEST_LEN]) -> String {
    let mut s = String::with_capacity(2 * DIGEST_LEN);
    for b in digest {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn rfc1320_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
            (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
            (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
            (b"message digest", "d9130a8164549fe818874806e1c7014b"),
            (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "043f8582f241db351ce627e153e7f0e4",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "e33b4ddc9c38f2199c3e7b164fcc0536",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md4(input), hex(want), "md4({:?})", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 1000, 1024] {
            let mut hasher = Md4::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), md4(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut hasher = Md4::new();
        for b in data {
            hasher.update(&[*b]);
        }
        assert_eq!(hasher.finalize(), md4(data));
    }

    #[test]
    fn long_input_spanning_many_blocks() {
        // Regression guard for the chunked fast path: 1 MiB of a repeating
        // pattern, compared against a two-pass computation.
        let data: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 256) as u8).collect();
        let whole = md4(&data);
        let mut hasher = Md4::new();
        for chunk in data.chunks(4096 + 13) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), whole);
    }

    #[test]
    fn in_place_padding_matches_the_bytewise_oracle() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 % 256) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            // Whole, byte at a time, halves, and odd-sized and block-sized
            // chunks: every `buf_len` the padding can start from.
            let splits: [&dyn Fn(&mut Md4); 5] = [
                &|h| h.update(input),
                &|h| input.iter().for_each(|b| h.update(&[*b])),
                &|h| {
                    h.update(&input[..len / 2]);
                    h.update(&input[len / 2..]);
                },
                &|h| input.chunks(7).for_each(|c| h.update(c)),
                &|h| input.chunks(BLOCK_LEN).for_each(|c| h.update(c)),
            ];
            for (i, feed) in splits.iter().enumerate() {
                let mut hasher = Md4::new();
                feed(&mut hasher);
                let oracle = hasher.clone().finalize_bytewise();
                assert_eq!(hasher.finalize(), oracle, "length {len}, split pattern {i}");
            }
        }
    }

    #[test]
    fn to_hex_renders_lowercase() {
        assert_eq!(to_hex(&md4(b"")), "31d6cfe0d16ae931b73c59d7e0c089c0");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md4(b"file-a"), md4(b"file-b"));
    }
}
