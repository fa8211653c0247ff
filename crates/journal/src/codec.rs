//! Little-endian binary codec used for every snapshot payload.
//!
//! The journal does not rely on an external serialization framework:
//! the workspace's `serde` stand-in is marker-only, so snapshot bytes
//! are produced by hand through [`ByteWriter`] and consumed through
//! [`ByteReader`]. Floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), which is what makes byte-identical resume
//! possible in the first place: `-0.0`, infinities and NaN payloads
//! all round-trip exactly.

use std::collections::VecDeque;
use std::fmt;

/// A decode failure. Restores never panic: malformed bytes surface as
/// one of these and the caller decides whether to truncate or abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the expected field.
    UnexpectedEof,
    /// The bytes decoded but violate an invariant of the target type.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "snapshot payload ended unexpectedly"),
            CodecError::Invalid(reason) => write!(f, "invalid snapshot field: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the writer but keeps its allocation, so a writer reused
    /// for every epoch's snapshot stops reallocating once it has seen
    /// the largest one.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends each `f64` of `v` as its exact bit pattern, in order —
    /// the same bytes as one [`ByteWriter::put_f64`] per element.
    pub fn put_f64s(&mut self, v: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends each `u16` of `v` little-endian, in order — the same
    /// bytes as one [`ByteWriter::put_u16`] per element.
    pub fn put_u16s(&mut self, v: &[u16]) {
        let start = self.buf.len();
        self.buf.resize(start + 2 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(2).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes with a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over a snapshot payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values that do not
    /// fit the native word.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("usize overflow: {v}")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` consecutive `f64` bit patterns — the bytes
    /// [`ByteWriter::put_f64s`] writes. The length is checked against
    /// the remaining input before anything is allocated.
    pub fn get_f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.take(n.checked_mul(8).ok_or(CodecError::UnexpectedEof)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Reads `n` consecutive little-endian `u16`s — the bytes
    /// [`ByteWriter::put_u16s`] writes — checked like
    /// [`ByteReader::get_f64s`].
    pub fn get_u16s(&mut self, n: usize) -> Result<Vec<u16>, CodecError> {
        let bytes = self.take(n.checked_mul(2).ok_or(CodecError::UnexpectedEof)?)?;
        Ok(bytes.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])).collect())
    }

    /// Reads a bool, rejecting anything but 0 and 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_usize()?;
        Ok(self.take(len)?.to_vec())
    }
}

/// A value whose full state can be written to and restored from the
/// journal codec, byte-exactly.
///
/// Implementations live next to the type they snapshot (field privacy
/// is module-scoped in Rust), and the contract is strict: for any
/// reachable value, `snapshot → restore → snapshot` must reproduce the
/// first byte string exactly, and `restore` must never panic on
/// arbitrary input — it returns [`CodecError`] instead.
pub trait Snapshot: Sized {
    /// Appends this value's state to `w`.
    fn snapshot(&self, w: &mut ByteWriter);

    /// Reconstructs a value from `r`, validating invariants.
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

macro_rules! primitive_snapshot {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn snapshot(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    };
}

primitive_snapshot!(u8, put_u8, get_u8);
primitive_snapshot!(u16, put_u16, get_u16);
primitive_snapshot!(u32, put_u32, get_u32);
primitive_snapshot!(u64, put_u64, get_u64);
primitive_snapshot!(usize, put_usize, get_usize);
primitive_snapshot!(i64, put_i64, get_i64);
primitive_snapshot!(f64, put_f64, get_f64);
primitive_snapshot!(bool, put_bool, get_bool);

impl Snapshot for String {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_string()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snapshot(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.snapshot(w);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        if r.get_bool()? {
            Ok(Some(T::restore(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snapshot(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_usize()?;
        // Guard capacity against hostile length prefixes: grow as we
        // successfully decode rather than pre-allocating `len` slots.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snapshot(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_usize()?;
        let mut out = VecDeque::new();
        for _ in 0..len {
            out.push_back(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
        self.2.snapshot(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl Snapshot for rand::rngs::StdRng {
    fn snapshot(&self, w: &mut ByteWriter) {
        for word in self.state_words() {
            w.put_u64(word);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let words = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        Ok(rand::rngs::StdRng::from_state_words(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = ByteWriter::new();
        v.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        assert_eq!(&back, v);
        let mut w2 = ByteWriter::new();
        back.snapshot(&mut w2);
        assert_eq!(w2.as_bytes(), &bytes[..], "re-serialization drifted");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u16::MAX);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&(-42i64));
        round_trip(&true);
        round_trip(&String::from("épöch"));
    }

    #[test]
    fn float_bits_survive_exactly() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300, f64::MIN_POSITIVE] {
            let mut w = ByteWriter::new();
            v.snapshot(&mut w);
            let bytes = w.into_bytes();
            let back = f64::restore(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload bits are preserved too.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = ByteWriter::new();
        nan.snapshot(&mut w);
        let back = f64::restore(&mut ByteReader::new(w.as_bytes())).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Some(7u64));
        round_trip(&Option::<f64>::None);
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<f64>::new());
        round_trip(&VecDeque::from(vec![0.25f64, -0.0]));
        round_trip(&(3u64, 0.5f64));
        round_trip(&(1u8, String::from("x"), vec![false, true]));
    }

    #[test]
    fn rng_round_trip_continues_stream() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut w = ByteWriter::new();
        rng.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut restored =
            rand::rngs::StdRng::restore(&mut ByteReader::new(&bytes)).expect("restore");
        for _ in 0..64 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn truncated_input_is_typed_eof() {
        let mut w = ByteWriter::new();
        vec![1u64, 2, 3].snapshot(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::restore(&mut r).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn bulk_puts_match_per_element_puts() {
        let floats = [0.25, -0.0, f64::INFINITY, f64::from_bits(0x7FF8_0000_0000_1234), 1e-300];
        let shorts = [0u16, 1, 0xBEEF, u16::MAX];
        let mut each = ByteWriter::new();
        floats.iter().for_each(|&x| each.put_f64(x));
        shorts.iter().for_each(|&x| each.put_u16(x));
        let mut bulk = ByteWriter::new();
        bulk.put_u8(9);
        bulk.clear();
        bulk.put_f64s(&floats);
        bulk.put_u16s(&shorts);
        assert_eq!(bulk.as_bytes(), each.as_bytes());
        let mut r = ByteReader::new(bulk.as_bytes());
        let back = r.get_f64s(floats.len()).unwrap();
        assert!(back.iter().zip(&floats).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(r.get_u16s(shorts.len()).unwrap(), shorts);
        assert!(r.is_empty());
        // Counts past the input (or past usize when scaled) are EOF,
        // never an allocation.
        assert_eq!(r.get_u16s(1), Err(CodecError::UnexpectedEof));
        assert_eq!(ByteReader::new(&[0; 15]).get_f64s(2), Err(CodecError::UnexpectedEof));
        assert_eq!(ByteReader::new(&[]).get_f64s(usize::MAX), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let mut r = ByteReader::new(w.as_bytes());
        assert!(Vec::<u64>::restore(&mut r).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [2u8];
        assert!(bool::restore(&mut ByteReader::new(&bytes)).is_err());
    }
}
