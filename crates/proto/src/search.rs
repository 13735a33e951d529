//! The eDonkey search sub-protocol: boolean keyword query trees.
//!
//! A `SEARCH-REQUEST` carries a prefix-encoded boolean expression over
//! keywords and typed constraints; the server answers with a
//! `SEARCH-RESULT` carrying the matching published files.  The honeypot
//! platform itself never searches (it only advertises), but the *manager*
//! uses search to implement topic-targeted measurements — the paper's
//! future-work direction of "capturing all the activity regarding … a
//! specific keyword" (§V).
//!
//! Wire encoding (classic, after the eMule protocol spec):
//!
//! ```text
//! 0x00 0x00  AND  <expr> <expr>
//! 0x00 0x01  OR   <expr> <expr>
//! 0x00 0x02  NOT  <expr> <expr>   ("first minus second" — AND NOT)
//! 0x01       keyword   (u16 LE length + bytes)
//! 0x02       string constraint: value, then u16 name-length + tag name
//! 0x03       numeric constraint: u32 LE value, u8 comparator, tag name
//! ```

use crate::error::ProtoError;
use crate::wire::{Reader, Writer};

/// Numeric comparators of `0x03` constraints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comparator {
    Equal,
    Greater,
    Less,
    GreaterOrEqual,
    LessOrEqual,
}

impl Comparator {
    fn to_wire(self) -> u8 {
        match self {
            Comparator::Equal => 0,
            Comparator::Greater => 1,
            Comparator::Less => 2,
            Comparator::GreaterOrEqual => 3,
            Comparator::LessOrEqual => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0 => Comparator::Equal,
            1 => Comparator::Greater,
            2 => Comparator::Less,
            3 => Comparator::GreaterOrEqual,
            4 => Comparator::LessOrEqual,
            _ => return Err(ProtoError::Invalid("unknown comparator")),
        })
    }

    /// Applies the comparator.
    pub fn matches(self, value: u64, bound: u64) -> bool {
        match self {
            Comparator::Equal => value == bound,
            Comparator::Greater => value > bound,
            Comparator::Less => value < bound,
            Comparator::GreaterOrEqual => value >= bound,
            Comparator::LessOrEqual => value <= bound,
        }
    }
}

/// A boolean search expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SearchExpr {
    /// Both sub-expressions must match.
    And(Box<SearchExpr>, Box<SearchExpr>),
    /// Either sub-expression matches.
    Or(Box<SearchExpr>, Box<SearchExpr>),
    /// The first matches and the second does not.
    AndNot(Box<SearchExpr>, Box<SearchExpr>),
    /// The keyword occurs in the file name (case-insensitive word match).
    Keyword(String),
    /// A string metadata constraint (`field == value`), e.g. type "Audio".
    StringTag { name: String, value: String },
    /// A numeric metadata constraint, e.g. `size >= 1_000_000`.
    NumericTag { name: String, comparator: Comparator, value: u32 },
}

impl SearchExpr {
    /// Convenience: a single-keyword query.
    pub fn keyword(word: impl Into<String>) -> Self {
        SearchExpr::Keyword(word.into())
    }

    /// Convenience: `self AND other`.
    pub fn and(self, other: SearchExpr) -> Self {
        SearchExpr::And(Box::new(self), Box::new(other))
    }

    /// Convenience: `self OR other`.
    pub fn or(self, other: SearchExpr) -> Self {
        SearchExpr::Or(Box::new(self), Box::new(other))
    }

    /// Convenience: `self AND NOT other`.
    pub fn and_not(self, other: SearchExpr) -> Self {
        SearchExpr::AndNot(Box::new(self), Box::new(other))
    }

    /// Builds an AND-of-keywords query the way real clients turn a typed
    /// phrase into an expression.
    pub fn phrase(words: &str) -> Option<Self> {
        let mut expr: Option<SearchExpr> = None;
        for w in words.split_whitespace() {
            let kw = SearchExpr::keyword(w.to_ascii_lowercase());
            expr = Some(match expr {
                None => kw,
                Some(e) => e.and(kw),
            });
        }
        expr
    }

    /// Serialises the expression (prefix order).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            SearchExpr::And(a, b) => {
                w.u8(0x00);
                w.u8(0x00);
                a.encode(w);
                b.encode(w);
            }
            SearchExpr::Or(a, b) => {
                w.u8(0x00);
                w.u8(0x01);
                a.encode(w);
                b.encode(w);
            }
            SearchExpr::AndNot(a, b) => {
                w.u8(0x00);
                w.u8(0x02);
                a.encode(w);
                b.encode(w);
            }
            SearchExpr::Keyword(kw) => {
                w.u8(0x01);
                w.str16(kw);
            }
            SearchExpr::StringTag { name, value } => {
                w.u8(0x02);
                w.str16(value);
                w.str16(name);
            }
            SearchExpr::NumericTag { name, comparator, value } => {
                w.u8(0x03);
                w.u32(*value);
                w.u8(comparator.to_wire());
                w.str16(name);
            }
        }
    }

    /// Deserialises one expression.
    pub fn decode(r: &mut Reader) -> Result<Self, ProtoError> {
        Self::decode_bounded(r, 0)
    }

    fn decode_bounded(r: &mut Reader, depth: u32) -> Result<Self, ProtoError> {
        // Hostile inputs could nest operators arbitrarily deep and blow the
        // stack; real queries are a handful of levels.
        if depth > 64 {
            return Err(ProtoError::Invalid("search expression too deep"));
        }
        match r.u8()? {
            0x00 => {
                let op = r.u8()?;
                let a = Box::new(Self::decode_bounded(r, depth + 1)?);
                let b = Box::new(Self::decode_bounded(r, depth + 1)?);
                match op {
                    0x00 => Ok(SearchExpr::And(a, b)),
                    0x01 => Ok(SearchExpr::Or(a, b)),
                    0x02 => Ok(SearchExpr::AndNot(a, b)),
                    _ => Err(ProtoError::Invalid("unknown boolean operator")),
                }
            }
            0x01 => Ok(SearchExpr::Keyword(r.str16()?)),
            0x02 => {
                let value = r.str16()?;
                let name = r.str16()?;
                Ok(SearchExpr::StringTag { name, value })
            }
            0x03 => {
                let value = r.u32()?;
                let comparator = Comparator::from_wire(r.u8()?)?;
                let name = r.str16()?;
                Ok(SearchExpr::NumericTag { name, comparator, value })
            }
            _ => Err(ProtoError::Invalid("unknown search node type")),
        }
    }

    /// Evaluates the expression against a file's name, size and type.
    pub fn matches(&self, name: &str, size: u64, file_type: &str) -> bool {
        match self {
            SearchExpr::And(a, b) => {
                a.matches(name, size, file_type) && b.matches(name, size, file_type)
            }
            SearchExpr::Or(a, b) => {
                a.matches(name, size, file_type) || b.matches(name, size, file_type)
            }
            SearchExpr::AndNot(a, b) => {
                a.matches(name, size, file_type) && !b.matches(name, size, file_type)
            }
            SearchExpr::Keyword(kw) => {
                let kw = kw.to_ascii_lowercase();
                name.to_ascii_lowercase().split(|c: char| !c.is_alphanumeric()).any(|w| w == kw)
            }
            SearchExpr::StringTag { name: tag, value } => {
                tag == "type" && file_type.eq_ignore_ascii_case(value)
            }
            SearchExpr::NumericTag { name: tag, comparator, value } => {
                tag == "size" && comparator.matches(size, u64::from(*value))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &SearchExpr) -> SearchExpr {
        let mut w = Writer::new();
        e.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = SearchExpr::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn keyword_round_trip() {
        let e = SearchExpr::keyword("ubuntu");
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn nested_boolean_round_trip() {
        let e = SearchExpr::keyword("linux")
            .and(SearchExpr::keyword("iso").or(SearchExpr::keyword("dvd")))
            .and_not(SearchExpr::keyword("beta"));
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn constraints_round_trip() {
        let e = SearchExpr::StringTag { name: "type".into(), value: "Audio".into() }.and(
            SearchExpr::NumericTag {
                name: "size".into(),
                comparator: Comparator::GreaterOrEqual,
                value: 1_000_000,
            },
        );
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn phrase_builds_left_deep_and() {
        let e = SearchExpr::phrase("Ubuntu Linux ISO").unwrap();
        assert!(e.matches("ubuntu.linux.8.10.iso", 1, ""));
        assert!(!e.matches("ubuntu.windows.iso", 1, ""));
        assert!(SearchExpr::phrase("  ").is_none());
    }

    #[test]
    fn matching_semantics() {
        let e = SearchExpr::keyword("live");
        assert!(e.matches("the.best.LIVE.concert.avi", 0, ""));
        assert!(!e.matches("alive.avi", 0, ""), "word match, not substring");

        let size = SearchExpr::NumericTag {
            name: "size".into(),
            comparator: Comparator::Less,
            value: 100,
        };
        assert!(size.matches("x", 99, ""));
        assert!(!size.matches("x", 100, ""));

        let ty = SearchExpr::StringTag { name: "type".into(), value: "Video".into() };
        assert!(ty.matches("x", 0, "video"));
        assert!(!ty.matches("x", 0, "audio"));

        let not = SearchExpr::keyword("concert").and_not(SearchExpr::keyword("bootleg"));
        assert!(not.matches("concert 2008", 0, ""));
        assert!(!not.matches("concert bootleg", 0, ""));
    }

    #[test]
    fn comparator_table() {
        assert!(Comparator::Equal.matches(5, 5));
        assert!(Comparator::Greater.matches(6, 5));
        assert!(Comparator::Less.matches(4, 5));
        assert!(Comparator::GreaterOrEqual.matches(5, 5));
        assert!(Comparator::LessOrEqual.matches(5, 5));
        assert!(!Comparator::Greater.matches(5, 5));
    }

    #[test]
    fn hostile_depth_rejected() {
        // 100 nested ANDs followed by garbage.
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.extend_from_slice(&[0x00, 0x00]);
        }
        let mut r = Reader::new(&buf);
        assert!(SearchExpr::decode(&mut r).is_err());
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        for cut in [0usize, 1, 2, 3] {
            let mut w = Writer::new();
            SearchExpr::keyword("abc").encode(&mut w);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf[..cut.min(buf.len() - 1)]);
            assert!(SearchExpr::decode(&mut r).is_err());
        }
    }
}
