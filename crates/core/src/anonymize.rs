//! The two-step anonymisation pipeline (paper §III-C).
//!
//! **Step 1 — at the honeypot, before anything touches disk or network:**
//! each peer IP address is replaced by a salted one-way hash
//! ([`IpHasher`]).  The salt is shared by all honeypots of one measurement
//! so that the *same* peer hashes identically everywhere (the logs stay
//! coherent), but an attacker without the salt cannot build a 2³²-entry
//! reverse dictionary.
//!
//! **Step 2 — at the manager, after collection:** every hash value is
//! replaced, coherently across all honeypot logs, by a small integer in
//! order of first appearance ([`AnonMap`]): the first hash becomes 0, the
//! second 1, and so on.  The final data cannot be linked back to IP
//! addresses at all.
//!
//! File names can carry personal information, so they pass through a third
//! device: every *word* occurring less often than a threshold across the
//! whole corpus is replaced by an integer token ([`NameAnonymizer`]).

use std::collections::HashMap;

use edonkey_proto::md4::Md4;
use edonkey_proto::Ipv4;

/// The salted one-way hash of one peer IP (step 1 output).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IpHash(pub [u8; 16]);

/// Step-1 hasher: IP → salted MD4.
///
/// MD4 is what the platform already ships for protocol purposes; the
/// security requirement here is one-wayness *given a secret salt*, which the
/// keyed construction provides (the salt never leaves the measurement
/// infrastructure and is discarded after step 2).
#[derive(Clone, Debug)]
pub struct IpHasher {
    salt: [u8; 16],
}

impl IpHasher {
    /// Builds the hasher from a measurement-wide secret salt.
    pub fn new(salt: [u8; 16]) -> Self {
        IpHasher { salt }
    }

    /// Derives the salt from a seed (used by simulations; real deployments
    /// would draw it from the OS entropy pool).
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Md4::new();
        h.update(b"edonkey-honeypot-ip-salt");
        h.update(&seed.to_le_bytes());
        IpHasher { salt: h.finalize() }
    }

    /// Hashes one IP address.
    pub fn hash(&self, ip: Ipv4) -> IpHash {
        let mut h = Md4::new();
        h.update(&self.salt);
        h.update(&ip.octets());
        IpHash(h.finalize())
    }
}

/// The anonymised peer identifier produced by step 2 (dense, 0-based, in
/// order of first appearance across the merged logs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AnonPeerId(pub u32);

/// Step-2 mapping: hash → dense integer, coherent across honeypot logs.
#[derive(Clone, Debug, Default)]
pub struct AnonMap {
    map: HashMap<IpHash, AnonPeerId>,
}

impl AnonMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the stable integer for `hash`, assigning the next free one on
    /// first sight.
    pub fn intern(&mut self, hash: IpHash) -> AnonPeerId {
        let next = AnonPeerId(self.map.len() as u32);
        *self.map.entry(hash).or_insert(next)
    }

    /// Lookup without assignment.
    pub fn get(&self, hash: &IpHash) -> Option<AnonPeerId> {
        self.map.get(hash).copied()
    }

    /// Number of distinct peers interned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Word-frequency file-name anonymiser.
///
/// Built in two passes: [`NameAnonymizer::count`] over every name in the
/// corpus, then [`NameAnonymizer::freeze`] with the threshold, after which
/// [`FrozenNameAnonymizer::anonymize`] rewrites names, replacing each word
/// seen fewer than `threshold` times by a stable integer token.
#[derive(Clone, Debug, Default)]
pub struct NameAnonymizer {
    counts: HashMap<String, u32>,
}

/// Splits a file name into words: maximal runs of alphanumeric characters;
/// separators (dots, dashes, brackets, spaces…) are preserved verbatim by
/// the rewriter.
fn words(name: &str) -> impl Iterator<Item = &str> {
    name.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty())
}

impl NameAnonymizer {
    pub fn new() -> Self {
        Self::default()
    }

    /// First pass: count the words of one name.
    pub fn count(&mut self, name: &str) {
        for w in words(name) {
            *self.counts.entry(w.to_ascii_lowercase()).or_insert(0) += 1;
        }
    }

    /// Second pass setup: fix the threshold and assign integer tokens to
    /// rare words in deterministic (sorted) order.
    pub fn freeze(self, threshold: u32) -> FrozenNameAnonymizer {
        // Partition the count map by moving its keys: rare words become
        // token keys, frequent words keep their counts for `is_public` (a
        // word absent from `counts` reads as count 0 there, i.e. rare —
        // exactly what dropping the rare entries preserves).
        let mut rare: Vec<String> = Vec::new();
        let mut counts = HashMap::with_capacity(self.counts.len());
        for (w, c) in self.counts {
            if c < threshold {
                rare.push(w);
            } else {
                counts.insert(w, c);
            }
        }
        rare.sort_unstable();
        let tokens = rare.into_iter().enumerate().map(|(i, w)| (w, i as u32)).collect();
        FrozenNameAnonymizer { threshold, counts, tokens }
    }
}

/// Appends the decimal rendering of `v` to `out` without a heap-allocated
/// intermediate (`u32::MAX` is 10 digits).
fn push_u32(out: &mut String, v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// The frozen, ready-to-rewrite anonymiser.
#[derive(Clone, Debug)]
pub struct FrozenNameAnonymizer {
    threshold: u32,
    counts: HashMap<String, u32>,
    tokens: HashMap<String, u32>,
}

impl FrozenNameAnonymizer {
    /// Rewrites one name, replacing rare words by `<n>` tokens and keeping
    /// frequent words and all separators.
    pub fn anonymize(&self, name: &str) -> String {
        let mut out = String::with_capacity(name.len());
        let mut rest = name;
        while !rest.is_empty() {
            let word_end = rest.find(|c: char| !c.is_alphanumeric()).unwrap_or(rest.len());
            if word_end > 0 {
                let word = &rest[..word_end];
                // Look the word up without allocating: keys are lowercase,
                // so only mixed-case words need a scratch buffer.
                let tok = if word.bytes().any(|b| b.is_ascii_uppercase()) {
                    self.tokens.get(&word.to_ascii_lowercase())
                } else {
                    self.tokens.get(word)
                };
                match tok {
                    Some(&tok) => {
                        out.push('<');
                        push_u32(&mut out, tok);
                        out.push('>');
                    }
                    None => out.push_str(word),
                }
                rest = &rest[word_end..];
            } else {
                let mut it = rest.chars();
                let sep = it.next().expect("non-empty");
                out.push(sep);
                rest = it.as_str();
            }
        }
        out
    }

    /// Whether a word survives anonymisation (diagnostics/tests).
    pub fn is_public(&self, word: &str) -> bool {
        self.counts.get(&word.to_ascii_lowercase()).copied().unwrap_or(0) >= self.threshold
    }

    /// Number of distinct rare words replaced.
    pub fn replaced_words(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_ip_same_hash_across_hashers_with_same_salt() {
        let a = IpHasher::from_seed(42);
        let b = IpHasher::from_seed(42);
        let ip = Ipv4::new(134, 157, 8, 1);
        assert_eq!(a.hash(ip), b.hash(ip), "coherence across honeypots");
    }

    #[test]
    fn different_salt_different_hash() {
        let a = IpHasher::from_seed(1);
        let b = IpHasher::from_seed(2);
        let ip = Ipv4::new(134, 157, 8, 1);
        assert_ne!(a.hash(ip), b.hash(ip), "reverse dictionaries must not transfer");
    }

    #[test]
    fn different_ips_different_hashes() {
        let h = IpHasher::from_seed(7);
        assert_ne!(h.hash(Ipv4::new(1, 2, 3, 4)), h.hash(Ipv4::new(1, 2, 3, 5)));
    }

    #[test]
    fn anon_map_assigns_dense_ids_in_first_seen_order() {
        let hasher = IpHasher::from_seed(0);
        let mut map = AnonMap::new();
        let h1 = hasher.hash(Ipv4::new(10, 0, 0, 1));
        let h2 = hasher.hash(Ipv4::new(10, 0, 0, 2));
        assert_eq!(map.intern(h1), AnonPeerId(0));
        assert_eq!(map.intern(h2), AnonPeerId(1));
        assert_eq!(map.intern(h1), AnonPeerId(0), "stable on re-intern");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&h2), Some(AnonPeerId(1)));
        assert_eq!(map.get(&hasher.hash(Ipv4::new(9, 9, 9, 9))), None);
    }

    #[test]
    fn rare_words_replaced_frequent_words_kept() {
        let mut counter = NameAnonymizer::new();
        for _ in 0..10 {
            counter.count("ubuntu linux iso");
        }
        counter.count("john.holiday-video.avi");
        let frozen = counter.freeze(3);
        assert!(frozen.is_public("ubuntu"));
        assert!(!frozen.is_public("john"));
        let out = frozen.anonymize("john.holiday-video.avi ubuntu");
        assert!(out.contains("ubuntu"), "frequent word kept: {out}");
        assert!(!out.contains("john"), "rare word hidden: {out}");
        assert!(out.contains('.') && out.contains('-'), "separators preserved: {out}");
    }

    #[test]
    fn tokens_are_stable_per_word() {
        let mut counter = NameAnonymizer::new();
        counter.count("secret thing");
        counter.count("secret other");
        let frozen = counter.freeze(10);
        // All three words are rare ⇒ three tokens assigned.
        assert_eq!(frozen.replaced_words(), 3);
        let a = frozen.anonymize("secret thing");
        let b = frozen.anonymize("thing secret");
        let first = |s: &str| s.split(' ').next().unwrap().to_string();
        let last = |s: &str| s.split(' ').next_back().unwrap().to_string();
        assert_eq!(first(&a), last(&b), "token for 'secret' is position-independent");
        assert_eq!(last(&a), first(&b), "token for 'thing' is position-independent");
        assert_ne!(first(&a), last(&a), "different words get different tokens");
    }

    #[test]
    fn anonymize_case_insensitive_counting() {
        let mut counter = NameAnonymizer::new();
        counter.count("Linux");
        counter.count("linux");
        counter.count("LINUX");
        let frozen = counter.freeze(3);
        assert!(frozen.is_public("Linux"));
    }

    #[test]
    fn push_u32_matches_display() {
        for v in [0u32, 1, 9, 10, 99, 100, 12345, u32::MAX] {
            let mut s = String::new();
            push_u32(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn anon_map_hashes_follow_assignment_order() {
        let hasher = IpHasher::from_seed(3);
        let mut map = AnonMap::new();
        let hs: Vec<IpHash> = (0..5).map(|i| hasher.hash(Ipv4::new(10, 0, 0, i))).collect();
        for h in &hs {
            map.intern(*h);
        }
        map.intern(hs[0]); // re-intern must not duplicate
        assert_eq!(map.len(), hs.len());
        for (i, h) in hs.iter().enumerate() {
            assert_eq!(map.get(h), Some(AnonPeerId(i as u32)));
        }
    }

    #[test]
    fn empty_and_separator_only_names() {
        let counter = NameAnonymizer::new();
        let frozen = counter.freeze(5);
        assert_eq!(frozen.anonymize(""), "");
        assert_eq!(frozen.anonymize("..--.."), "..--..");
    }
}
