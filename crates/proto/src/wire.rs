//! Low-level little-endian wire primitives shared by the tag system, the
//! eDonkey message codec and the control-plane payloads.
//!
//! [`Writer`] accumulates bytes into a growable buffer; [`Reader`] is a
//! bounds-checked cursor over a received payload.  Every multi-byte integer
//! on both wires is little-endian.

use crate::error::ProtoError;

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(64) }
    }

    /// Creates a writer with the given initial capacity (use when the caller
    /// knows the approximate payload size, e.g. SENDING-PART bodies).
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Continues at the end of `buf`, so several frames can share one
    /// buffer; [`Writer::into_bytes`] hands it back.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` bytes produced in place by `fill` (which sees them
    /// zeroed), for content that never needs a buffer of its own.
    pub fn fill(&mut self, n: usize, fill: impl FnOnce(&mut [u8])) {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        fill(&mut self.buf[at..]);
    }

    /// A 16-byte hash (file ID / user ID).
    pub fn hash(&mut self, v: &[u8; 16]) {
        self.buf.extend_from_slice(v);
    }

    /// u16-length-prefixed string.
    pub fn str16(&mut self, s: &str) {
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }

    /// u32-length-prefixed string (control-plane payloads).
    pub fn str32(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated("payload shorter than declared field"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A 16-byte hash.
    pub fn hash(&mut self) -> Result<[u8; 16], ProtoError> {
        let b = self.take(16)?;
        Ok(b.try_into().expect("16 bytes"))
    }

    /// u16-length-prefixed string (lossily decoded; real-world eDonkey names
    /// are frequently not valid UTF-8).
    pub fn str16(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    /// u32-length-prefixed string, strictly UTF-8: control-plane payloads
    /// are written by this codebase, so invalid text is damage, not a
    /// foreign client's habit.
    pub fn str32(&mut self) -> Result<String, ProtoError> {
        self.str32_ref().map(str::to_owned)
    }

    /// [`Self::str32`] borrowed from the payload, for a caller that copies
    /// the text into storage of its own.
    pub fn str32_ref(&mut self) -> Result<&'a str, ProtoError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| ProtoError::Invalid("non-UTF-8 string"))
    }

    /// Asserts the payload is fully consumed (strict decoders).
    pub fn expect_end(&self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_little_endian() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEADBEEF);
        w.u64(0x0102030405060708);
        let buf = w.into_bytes();
        assert_eq!(&buf[1..3], &[0x34, 0x12], "u16 is little-endian");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 0x0102030405060708);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn str16_round_trip() {
        let mut w = Writer::new();
        w.str16("hello");
        w.str32("été");
        let buf = w.into_bytes();
        assert_eq!(&buf[7..11], &[5, 0, 0, 0], "str32 prefix is a little-endian u32");
        let mut r = Reader::new(&buf);
        assert_eq!(r.str16().unwrap(), "hello");
        assert_eq!(r.str32().unwrap(), "été");
        // str16 decodes foreign text lossily; str32 refuses it.
        assert_eq!(Reader::new(&[1, 0, 0xFF]).str16().unwrap(), "\u{FFFD}");
        assert!(matches!(Reader::new(&[1, 0, 0, 0, 0xFF]).str32(), Err(ProtoError::Invalid(_))));
        // str32_ref lends the same text straight out of the payload.
        let mut r = Reader::new(&buf[7..]);
        let lent = r.str32_ref().unwrap();
        assert_eq!((lent, lent.as_ptr()), ("été", buf[11..].as_ptr()));
        let bad = Reader::new(&[1, 0, 0, 0, 0xFF]).str32_ref();
        assert_eq!(bad, Err(ProtoError::Invalid("non-UTF-8 string")));
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        // Failed read must not consume anything it could not fully take.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(matches!(r.expect_end(), Err(ProtoError::TrailingBytes(2))));
    }

    #[test]
    fn hash_round_trip() {
        let h = [7u8; 16];
        let mut w = Writer::new();
        w.hash(&h);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).hash().unwrap(), h);
    }
}
