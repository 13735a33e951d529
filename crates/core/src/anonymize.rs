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
///
/// One map serves both passes: it counts each word (keyed by its ASCII
/// lowercase form), and freezing rewrites the counts of the rare words into
/// their tokens in place, so every word occurrence costs one hash lookup in
/// each pass.
#[derive(Clone, Debug, Default)]
pub struct NameAnonymizer {
    words: HashMap<String, Word>,
    /// Reused buffer for lowercasing words with ASCII capitals.
    lower: String,
}

/// What the word map holds for one word.
#[derive(Clone, Copy, Debug)]
enum Word {
    /// Occurrences so far; after freezing, a word that stays public.
    Count(u32),
    /// The integer a rare word is replaced by.
    Token(u32),
}

/// Splits a file name into words: maximal runs of alphanumeric characters;
/// separators (dots, dashes, brackets, spaces…) are preserved verbatim by
/// the rewriter.
fn words(name: &str) -> impl Iterator<Item = &str> {
    name.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty())
}

/// The map key of `word`: its ASCII lowercase form, written into `buf`
/// only when the word has ASCII capitals (non-ASCII letters are kept).
fn key<'a>(word: &'a str, buf: &'a mut String) -> &'a str {
    if word.bytes().any(|b| b.is_ascii_uppercase()) {
        buf.clear();
        buf.push_str(word);
        buf.make_ascii_lowercase();
        buf
    } else {
        word
    }
}

impl NameAnonymizer {
    pub fn new() -> Self {
        Self::default()
    }

    /// First pass: count the words of one name.  Allocates only for a word
    /// not seen before.
    pub fn count(&mut self, name: &str) {
        for w in words(name) {
            let k = key(w, &mut self.lower);
            match self.words.get_mut(k) {
                Some(Word::Count(c)) => *c += 1,
                Some(Word::Token(_)) => unreachable!("tokens exist only after freeze"),
                None => {
                    self.words.insert(k.to_owned(), Word::Count(1));
                }
            }
        }
    }

    /// Second pass setup: fix the threshold and assign integer tokens to
    /// rare words in deterministic (sorted) order.
    pub fn freeze(self, threshold: u32) -> FrozenNameAnonymizer {
        let mut words = self.words;
        // Sort the rare words by their first 8 bytes, read in place, and
        // only on a tie by the whole word behind the key's pointer.
        let mut rare: Vec<(u64, &String, &mut Word)> = words
            .iter_mut()
            .filter(|(_, w)| matches!(w, Word::Count(c) if *c < threshold))
            .map(|(k, w)| (prefix(k), k, w))
            .collect();
        rare.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        let replaced = rare.len();
        for (i, (_, _, w)) in rare.into_iter().enumerate() {
            *w = Word::Token(i as u32);
        }
        FrozenNameAnonymizer { threshold, words, replaced }
    }
}

/// The first 8 bytes of `word`, zero-padded, as a big-endian integer: the
/// integers order as the words' byte strings do, up to ties.
fn prefix(word: &str) -> u64 {
    let mut head = [0; 8];
    let n = word.len().min(8);
    head[..n].copy_from_slice(&word.as_bytes()[..n]);
    u64::from_be_bytes(head)
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
    /// Public words keep their counts; rare words hold their tokens.
    words: HashMap<String, Word>,
    replaced: usize,
}

impl FrozenNameAnonymizer {
    /// Rewrites one name, replacing rare words by `<n>` tokens and keeping
    /// frequent words and all separators.
    pub fn anonymize(&self, name: &str) -> String {
        // Room for tokens to outgrow their words (a token is at most 12
        // bytes), so a name with a rare word or two is written without
        // reallocating.
        let mut out = String::with_capacity(name.len() + 16);
        self.anonymize_into(name, &mut out);
        out
    }

    /// [`Self::anonymize`], appending the rewrite to `out`.
    pub fn anonymize_into(&self, name: &str, out: &mut String) {
        let mut lower = String::new();
        let mut rest = name;
        while !rest.is_empty() {
            let word_end = rest.find(|c: char| !c.is_alphanumeric()).unwrap_or(rest.len());
            if word_end > 0 {
                let word = &rest[..word_end];
                match self.words.get(key(word, &mut lower)) {
                    Some(&Word::Token(tok)) => {
                        out.push('<');
                        push_u32(out, tok);
                        out.push('>');
                    }
                    _ => out.push_str(word),
                }
                rest = &rest[word_end..];
            } else {
                let mut it = rest.chars();
                let sep = it.next().expect("non-empty");
                out.push(sep);
                rest = it.as_str();
            }
        }
    }

    /// Whether a word survives anonymisation (diagnostics/tests).
    pub fn is_public(&self, word: &str) -> bool {
        match self.words.get(key(word, &mut String::new())) {
            Some(&Word::Count(c)) => c >= self.threshold,
            Some(&Word::Token(_)) => false,
            // An unseen word counts 0 occurrences.
            None => self.threshold == 0,
        }
    }

    /// Number of distinct rare words replaced.
    pub fn replaced_words(&self) -> usize {
        self.replaced
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

    /// The two-map anonymiser this one replaced, kept as the differential
    /// oracle: a count map of lowercase copies, rare words moved into a
    /// second, sorted token map.
    mod oracle {
        use std::collections::HashMap;

        use super::super::{push_u32, words};

        #[derive(Default)]
        pub struct Counter {
            counts: HashMap<String, u32>,
        }

        pub struct Frozen {
            threshold: u32,
            counts: HashMap<String, u32>,
            tokens: HashMap<String, u32>,
        }

        impl Counter {
            pub fn count(&mut self, name: &str) {
                for w in words(name) {
                    *self.counts.entry(w.to_ascii_lowercase()).or_insert(0) += 1;
                }
            }

            pub fn freeze(self, threshold: u32) -> Frozen {
                let mut rare: Vec<String> = Vec::new();
                let mut counts = HashMap::new();
                for (w, c) in self.counts {
                    if c < threshold {
                        rare.push(w);
                    } else {
                        counts.insert(w, c);
                    }
                }
                rare.sort_unstable();
                let tokens = rare.into_iter().enumerate().map(|(i, w)| (w, i as u32)).collect();
                Frozen { threshold, counts, tokens }
            }
        }

        impl Frozen {
            pub fn anonymize(&self, name: &str) -> String {
                let mut out = String::new();
                let mut rest = name;
                while !rest.is_empty() {
                    let word_end = rest.find(|c: char| !c.is_alphanumeric()).unwrap_or(rest.len());
                    if word_end > 0 {
                        let word = &rest[..word_end];
                        match self.tokens.get(&word.to_ascii_lowercase()) {
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
                        out.push(it.next().expect("non-empty"));
                        rest = it.as_str();
                    }
                }
                out
            }

            pub fn is_public(&self, word: &str) -> bool {
                self.counts.get(&word.to_ascii_lowercase()).copied().unwrap_or(0) >= self.threshold
            }

            pub fn replaced_words(&self) -> usize {
                self.tokens.len()
            }
        }
    }

    /// A seeded corpus of names: mixed case, non-ASCII letters, digits,
    /// empty names and names made only of separators.
    fn corpus(seed: u64) -> Vec<String> {
        let words: Vec<&str> =
            "linux Linux LINUX ubuntu Été été ÉTÉ straße STRASSE ß 日本 日本語 2008 x264 DVDRip \
             dvdrip a B 000123 Ωmega"
                .split_whitespace()
                .collect();
        let separators = [".", "-", " ", "_", "[", "]", "..", " - ", "(", "★"];
        let mut rng = netsim::Rng::seed_from(seed);
        (0..rng.range(1, 120))
            .map(|_| {
                let mut name = String::new();
                match rng.below(10) {
                    0 => {}
                    1 => (0..rng.range(1, 5))
                        .for_each(|_| name.push_str(rng.choose::<&str>(&separators))),
                    _ => {
                        for i in 0..rng.range(1, 7) {
                            if i > 0 || rng.chance(0.2) {
                                name.push_str(rng.choose::<&str>(&separators));
                            }
                            name.push_str(rng.choose::<&str>(&words));
                            if rng.chance(0.3) {
                                name.push_str(&rng.below(50).to_string());
                            }
                        }
                    }
                }
                name
            })
            .collect()
    }

    #[test]
    fn single_map_anonymiser_matches_the_two_map_oracle() {
        for seed in 0..100u64 {
            let names = corpus(seed);
            for threshold in 1..=5 {
                let (mut fast, mut slow) = (NameAnonymizer::new(), oracle::Counter::default());
                for n in &names {
                    fast.count(n);
                    slow.count(n);
                }
                let (fast, slow) = (fast.freeze(threshold), slow.freeze(threshold));
                let case = format!("seed {seed}, threshold {threshold}");
                assert_eq!(fast.replaced_words(), slow.replaced_words(), "{case}");
                for n in names.iter().chain(&corpus(seed + 1_000)) {
                    assert_eq!(fast.anonymize(n), slow.anonymize(n), "{case}: {n:?}");
                    for w in words(n) {
                        assert_eq!(fast.is_public(w), slow.is_public(w), "{case}: {w:?}");
                    }
                }
            }
        }
    }
}
