//! The eDonkey *tag* system.
//!
//! Most variable metadata in eDonkey messages (file names, sizes, client
//! versions, ports…) travels as a list of tags.  A tag couples a *name* —
//! either a well-known one-byte special ID or a free-form string — with a
//! typed *value* (string or 32-bit integer in the classic protocol subset we
//! implement).
//!
//! Wire layout of one tag (classic, non-Lugdunum-compressed form):
//!
//! ```text
//! u8   type          (0x02 = string, 0x03 = u32)
//! u16  name length   (LE)
//! [u8] name bytes    (length 1 + a special ID byte for well-known tags)
//! value              (string: u16 LE length + bytes; u32: 4 bytes LE)
//! ```

use crate::error::ProtoError;
use crate::wire::{Reader, Writer};

/// Well-known special tag IDs (subset used by the honeypot platform).
pub mod special {
    /// File or client name.
    pub const NAME: u8 = 0x01;
    /// File size in bytes.
    pub const SIZE: u8 = 0x02;
    /// File type string ("Audio", "Video", …).
    pub const FILE_TYPE: u8 = 0x03;
    /// File format / extension.
    pub const FORMAT: u8 = 0x04;
    /// Client version.
    pub const VERSION: u8 = 0x11;
    /// Client TCP port.
    pub const PORT: u8 = 0x0F;
    /// Number of sources the server knows for a published file.
    pub const SOURCES: u8 = 0x15;
    /// Free-form description.
    pub const DESCRIPTION: u8 = 0x0B;
    /// eMule extended version tag.
    pub const MULE_VERSION: u8 = 0xFB;
}

/// Wire type byte for string-valued tags.
pub const TAGTYPE_STRING: u8 = 0x02;
/// Wire type byte for u32-valued tags.
pub const TAGTYPE_U32: u8 = 0x03;

/// A tag name: either a one-byte well-known ID or a free-form string.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TagName {
    Special(u8),
    Named(String),
}

impl TagName {
    fn encode(&self, w: &mut Writer) {
        match self {
            TagName::Special(id) => {
                w.u16(1);
                w.u8(*id);
            }
            TagName::Named(s) => {
                w.u16(s.len() as u16);
                w.bytes(s.as_bytes());
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, ProtoError> {
        let len = r.u16()? as usize;
        let raw = r.take(len)?;
        if len == 1 {
            Ok(TagName::Special(raw[0]))
        } else {
            Ok(TagName::Named(String::from_utf8_lossy(raw).into_owned()))
        }
    }
}

/// A tag value (classic string / u32 subset).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TagValue {
    String(String),
    U32(u32),
}

/// One name/value metadata pair.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tag {
    pub name: TagName,
    pub value: TagValue,
}

impl Tag {
    /// Convenience constructor for a special-ID string tag.
    pub fn string(id: u8, value: impl Into<String>) -> Self {
        Tag { name: TagName::Special(id), value: TagValue::String(value.into()) }
    }

    /// Convenience constructor for a special-ID integer tag.
    pub fn u32(id: u8, value: u32) -> Self {
        Tag { name: TagName::Special(id), value: TagValue::U32(value) }
    }

    /// Convenience constructor for a named string tag.
    pub fn named(name: impl Into<String>, value: impl Into<String>) -> Self {
        Tag { name: TagName::Named(name.into()), value: TagValue::String(value.into()) }
    }

    /// Serialises the tag.
    pub fn encode(&self, w: &mut Writer) {
        match &self.value {
            TagValue::String(s) => {
                w.u8(TAGTYPE_STRING);
                self.name.encode(w);
                w.u16(s.len() as u16);
                w.bytes(s.as_bytes());
            }
            TagValue::U32(v) => {
                w.u8(TAGTYPE_U32);
                self.name.encode(w);
                w.u32(*v);
            }
        }
    }

    /// Deserialises one tag.
    pub fn decode(r: &mut Reader) -> Result<Self, ProtoError> {
        let ty = r.u8()?;
        let name = TagName::decode(r)?;
        let value = match ty {
            TAGTYPE_STRING => {
                let len = r.u16()? as usize;
                TagValue::String(String::from_utf8_lossy(r.take(len)?).into_owned())
            }
            TAGTYPE_U32 => TagValue::U32(r.u32()?),
            other => return Err(ProtoError::UnknownTagType(other)),
        };
        Ok(Tag { name, value })
    }

    /// Serialises a length-prefixed tag list (u32 LE count, then tags).
    pub fn encode_list(tags: &[Tag], w: &mut Writer) {
        w.u32(tags.len() as u32);
        for t in tags {
            t.encode(w);
        }
    }

    /// Deserialises a length-prefixed tag list.
    pub fn decode_list(r: &mut Reader) -> Result<Vec<Tag>, ProtoError> {
        let n = r.u32()? as usize;
        // Each tag costs at least 4 bytes on the wire; reject counts that
        // could not possibly fit in the remaining payload (defensive cap
        // against hostile lengths).
        if n > r.remaining() / 4 + 1 {
            return Err(ProtoError::Truncated("tag list count exceeds payload"));
        }
        let mut tags = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            tags.push(Tag::decode(r)?);
        }
        Ok(tags)
    }
}

/// Looks up the first tag with the given special ID in a tag list.
pub fn find_special(tags: &[Tag], id: u8) -> Option<&TagValue> {
    tags.iter().find(|t| matches!(t.name, TagName::Special(x) if x == id)).map(|t| &t.value)
}

/// Extracts a string tag value by special ID.
pub fn get_string(tags: &[Tag], id: u8) -> Option<&str> {
    match find_special(tags, id) {
        Some(TagValue::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Extracts a u32 tag value by special ID.
pub fn get_u32(tags: &[Tag], id: u8) -> Option<u32> {
    match find_special(tags, id) {
        Some(TagValue::U32(v)) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tags: &[Tag]) -> Vec<Tag> {
        let mut w = Writer::new();
        Tag::encode_list(tags, &mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let out = Tag::decode_list(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after tag list");
        out
    }

    #[test]
    fn round_trip_mixed_tags() {
        let tags = vec![
            Tag::string(special::NAME, "ubuntu-8.10-desktop-i386.iso"),
            Tag::u32(special::SIZE, 732_954_624),
            Tag::named("x-custom", "hello world"),
            Tag::u32(special::PORT, 4662),
        ];
        assert_eq!(round_trip(&tags), tags);
    }

    #[test]
    fn round_trip_empty_list() {
        assert_eq!(round_trip(&[]), Vec::<Tag>::new());
    }

    #[test]
    fn round_trip_empty_string_value() {
        let tags = vec![Tag::string(special::DESCRIPTION, "")];
        assert_eq!(round_trip(&tags), tags);
    }

    #[test]
    fn unknown_tag_type_rejected() {
        // A complete tag whose type byte is bogus: the name parses, then
        // the type is rejected.
        let mut w = Writer::new();
        w.u32(1);
        w.u8(0x99); // bogus type
        w.u16(1);
        w.u8(special::NAME);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(Tag::decode_list(&mut r), Err(ProtoError::UnknownTagType(0x99))));

        // Truncated right after the type byte: a truncation error, not a
        // type error (the name is read first).
        let mut w = Writer::new();
        w.u32(1);
        w.u8(0x99);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(Tag::decode_list(&mut r), Err(ProtoError::Truncated(_))));
    }

    #[test]
    fn hostile_count_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(Tag::decode_list(&mut r).is_err());
    }

    #[test]
    fn lookup_helpers() {
        let tags = vec![Tag::string(special::NAME, "song.mp3"), Tag::u32(special::SIZE, 5_000_000)];
        assert_eq!(get_string(&tags, special::NAME), Some("song.mp3"));
        assert_eq!(get_u32(&tags, special::SIZE), Some(5_000_000));
        assert_eq!(get_u32(&tags, special::NAME), None, "type mismatch yields None");
        assert_eq!(get_string(&tags, special::PORT), None);
    }

    #[test]
    fn special_name_one_byte_on_wire() {
        let mut w = Writer::new();
        Tag::u32(special::SIZE, 7).encode(&mut w);
        let buf = w.into_bytes();
        // type + namelen(2) + id(1) + u32(4)
        assert_eq!(buf.len(), 1 + 2 + 1 + 4);
        assert_eq!(buf[0], TAGTYPE_U32);
        assert_eq!(u16::from_le_bytes([buf[1], buf[2]]), 1);
        assert_eq!(buf[3], special::SIZE);
    }
}
