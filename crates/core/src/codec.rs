//! The exact binary wire codec: varint-based, zero-copy, hand-rolled.
//!
//! This is the serialization layer behind the workspace's cost
//! instrumentation (the arXiv:2311.08060 message/bit-cost reproduction):
//! [`WireEncode`]/[`WireDecode`] are a trait pair over a byte-oriented
//! [`Writer`]/[`Reader`], and every `Msg` type in the workspace
//! implements both, so `bits_sent` roll-ups are the exact encoded length
//! of what a networked transport would put on the wire — no `Debug`
//! formatting, no structural guessing.
//!
//! # Frame layout
//!
//! A framed message is a single leading **format version byte**
//! ([`FORMAT_VERSION`], currently `1`) followed by the payload encoding.
//! Decoding rejects unknown versions and trailing bytes, so accidental
//! format breaks fail loudly (the golden byte-vector tests pin one
//! representative encoding per message type).
//!
//! # Encoding rules
//!
//! * Unsigned integers (`u8`–`u64`, `usize`, lengths, counts) are LEB128
//!   varints: 7 value bits per byte, high bit = continuation.
//! * Signed integers are zigzag-mapped (`(n << 1) ^ (n >> 63)`) and then
//!   varint-encoded, so small magnitudes of either sign stay short.
//! * `bool` is one byte (`0`/`1`); `()` is zero bytes.
//! * Strings are a varint byte length followed by UTF-8 bytes.
//! * `Option<T>` is a one-byte presence tag; sequences (`Vec`,
//!   `VecDeque`, `BTreeSet`) are a varint count followed by the elements
//!   in iteration order; `BTreeMap` is a varint count followed by
//!   key/value pairs in key order. Ordered containers therefore have a
//!   canonical encoding: equal values encode to equal bytes.
//! * `Arc<T>`/`Box<T>`/`&T` encode as `T` (sharing is a process-local
//!   artifact, not a wire concept); `Arc<T>`/`Box<T>` decode by wrapping
//!   a freshly decoded `T`.
//!
//! Encoding is infallible and never clones the payload; decoding returns
//! [`DecodeError`] on malformed input. `decode(encode(m)) == m` holds for
//! every implementation (the round-trip property tests pin this per
//! message type).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::id::{Id, Pid};
use crate::process::{Round, Superround};

/// The wire-format version this build encodes, carried as the single
/// leading byte of every frame.
pub const FORMAT_VERSION: u8 = 1;

/// Why a byte slice failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a value.
    Eof,
    /// A frame decoded cleanly but left bytes behind.
    Trailing {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// An enum/bool/option tag byte had no meaning.
    BadTag {
        /// The type whose tag was malformed.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A structurally valid encoding carried an out-of-domain value.
    BadValue(&'static str),
    /// The frame's leading version byte is not [`FORMAT_VERSION`].
    Version(u8),
    /// A varint ran longer than 10 bytes (no `u64` needs more).
    VarintOverflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "input ended inside a value"),
            DecodeError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after the frame")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            DecodeError::BadValue(what) => write!(f, "out-of-domain value for {what}"),
            DecodeError::Version(v) => {
                write!(f, "unknown format version {v} (expected {FORMAT_VERSION})")
            }
            DecodeError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte sink encoders write into.
///
/// Engines keep one `Writer` as scratch and [`clear`](Writer::clear) it
/// between emissions, so measuring exact bits allocates nothing on the
/// steady state (the buffer is reused at its high-water mark).
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding its bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an LEB128 varint.
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-mapped signed varint.
    pub fn put_signed(&mut self, value: i64) {
        self.put_varint(((value << 1) ^ (value >> 63)) as u64);
    }
}

/// A cursor over a byte slice decoders read from.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        let byte = *self.buf.get(self.pos).ok_or(DecodeError::Eof)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads `len` raw bytes.
    pub fn take_bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(len).ok_or(DecodeError::Eof)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Eof)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads an LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(DecodeError::VarintOverflow);
                }
                return Ok(value);
            }
        }
        Err(DecodeError::VarintOverflow)
    }

    /// Reads a zigzag-mapped signed varint.
    pub fn take_signed(&mut self) -> Result<i64, DecodeError> {
        let raw = self.take_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }
}

/// A type with an exact binary wire encoding.
///
/// Encoding is infallible, deterministic (equal values produce equal
/// bytes), and never clones the value.
pub trait WireEncode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// A type decodable from its [`WireEncode`] bytes.
///
/// `decode(encode(m)) == m` must hold; the round-trip property tests pin
/// it per message type.
pub trait WireDecode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes `msg` as a framed byte vector: [`FORMAT_VERSION`] followed by
/// the payload encoding.
pub fn encode_frame<M: WireEncode + ?Sized>(msg: &M) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(FORMAT_VERSION);
    msg.encode(&mut w);
    w.into_vec()
}

/// Decodes one framed message, rejecting unknown versions and trailing
/// bytes.
pub fn decode_frame<M: WireDecode>(bytes: &[u8]) -> Result<M, DecodeError> {
    let mut r = Reader::new(bytes);
    let version = r.take_u8()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::Version(version));
    }
    let msg = M::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::Trailing {
            remaining: r.remaining(),
        });
    }
    Ok(msg)
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Writer> = std::cell::RefCell::new(Writer::new());
}

/// The exact framed size of `msg` on the wire, in bits: 8 × (1 version
/// byte + payload bytes).
///
/// Encodes into a thread-local scratch buffer reused across calls, so the
/// per-emission cost measurement on the engine hot paths allocates
/// nothing at steady state.
pub fn frame_bits<M: WireEncode + ?Sized>(msg: &M) -> u64 {
    SCRATCH.with(|scratch| {
        let mut w = scratch.borrow_mut();
        w.clear();
        msg.encode(&mut w);
        8 * (1 + w.len() as u64)
    })
}

macro_rules! varint_codec {
    ($($ty:ty),* $(,)?) => {
        $(
            impl WireEncode for $ty {
                fn encode(&self, w: &mut Writer) {
                    w.put_varint(u64::from(*self));
                }
            }
            impl WireDecode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    <$ty>::try_from(r.take_varint()?)
                        .map_err(|_| DecodeError::BadValue(stringify!($ty)))
                }
            }
        )*
    };
}

varint_codec!(u8, u16, u32, u64);

impl WireEncode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        usize::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("usize"))
    }
}

macro_rules! signed_codec {
    ($($ty:ty),* $(,)?) => {
        $(
            impl WireEncode for $ty {
                fn encode(&self, w: &mut Writer) {
                    w.put_signed(i64::from(*self));
                }
            }
            impl WireDecode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    <$ty>::try_from(r.take_signed()?)
                        .map_err(|_| DecodeError::BadValue(stringify!($ty)))
                }
            }
        )*
    };
}

signed_codec!(i8, i16, i32, i64);

impl WireEncode for isize {
    fn encode(&self, w: &mut Writer) {
        w.put_signed(*self as i64);
    }
}

impl WireDecode for isize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        isize::try_from(r.take_signed()?).map_err(|_| DecodeError::BadValue("isize"))
    }
}

impl WireEncode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl WireEncode for char {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(u32::from(*self)));
    }
}

impl WireDecode for char {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = u32::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("char"))?;
        char::from_u32(raw).ok_or(DecodeError::BadValue("char"))
    }
}

impl WireEncode for () {
    fn encode(&self, _w: &mut Writer) {}
}

impl WireDecode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl WireEncode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
}

impl WireEncode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("String"))?;
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadValue("String"))
    }
}

impl<T: WireEncode + ?Sized> WireEncode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: WireEncode + ?Sized> WireEncode for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl<T: WireEncode + ?Sized> WireEncode for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: WireDecode> WireDecode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(inner) => {
                w.put_u8(1);
                inner.encode(w);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

fn encode_seq<'a, T: WireEncode + 'a>(items: impl ExactSizeIterator<Item = &'a T>, w: &mut Writer) {
    w.put_varint(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

fn decode_count(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let count = usize::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("count"))?;
    // A count can never exceed the remaining byte budget (every element
    // encodes to at least one byte), so a corrupt length cannot trigger a
    // huge preallocation.
    if count > r.remaining() {
        return Err(DecodeError::Eof);
    }
    Ok(count)
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self.iter(), w);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = decode_count(r)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: WireEncode> WireEncode for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self.iter(), w);
    }
}

impl<T: WireDecode> WireDecode for VecDeque<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: WireEncode> WireEncode for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self.iter(), w);
    }
}

impl<T: WireDecode + Ord> WireDecode for BTreeSet<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = decode_count(r)?;
        let mut items = BTreeSet::new();
        for _ in 0..count {
            items.insert(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<K: WireEncode, V: WireEncode> WireEncode for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: WireDecode + Ord, V: WireDecode> WireDecode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = decode_count(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireEncode, B: WireEncode, C: WireEncode> WireEncode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: WireDecode, B: WireDecode, C: WireDecode> WireDecode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl WireEncode for Id {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(self.get()));
    }
}

impl WireDecode for Id {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = u16::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("Id"))?;
        if raw == 0 {
            return Err(DecodeError::BadValue("Id"));
        }
        Ok(Id::new(raw))
    }
}

impl WireEncode for Pid {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.index() as u64);
    }
}

impl WireDecode for Pid {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let index = usize::try_from(r.take_varint()?).map_err(|_| DecodeError::BadValue("Pid"))?;
        Ok(Pid::new(index))
    }
}

impl WireEncode for Round {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.index());
    }
}

impl WireDecode for Round {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Round::new(r.take_varint()?))
    }
}

impl WireEncode for Superround {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.index());
    }
}

impl WireDecode for Superround {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Superround::new(r.take_varint()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_frame(&value);
        let back: T = decode_frame(&bytes).expect("frame decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn varints_use_seven_bit_groups() {
        let mut w = Writer::new();
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(300);
        assert_eq!(w.as_slice(), &[0, 0x7f, 0x80, 0x01, 0xac, 0x02]);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.take_varint().unwrap(), 0);
        assert_eq!(r.take_varint().unwrap(), 127);
        assert_eq!(r.take_varint().unwrap(), 128);
        assert_eq!(r.take_varint().unwrap(), 300);
        assert!(r.is_empty());
    }

    #[test]
    fn varint_extremes_roundtrip() {
        for value in [0u64, 1, 127, 128, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(value);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.take_varint().unwrap(), value);
        }
    }

    #[test]
    fn signed_zigzag_roundtrip() {
        for value in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut w = Writer::new();
            w.put_signed(value);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.take_signed().unwrap(), value);
        }
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(true);
        roundtrip('ℓ');
        roundtrip(());
        roundtrip("homonym".to_string());
        roundtrip(Id::new(3));
        roundtrip(Pid::new(11));
        roundtrip(Round::new(17));
        roundtrip(Superround::new(8));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(BTreeSet::from(["a".to_string(), "b".to_string()]));
        roundtrip(BTreeMap::from([(Id::new(1), 9u64), (Id::new(2), 4u64)]));
        roundtrip(Some(Id::new(5)));
        roundtrip(None::<u32>);
        roundtrip((Id::new(1), 2u64, false));
        roundtrip(Arc::new("shared".to_string()));
        roundtrip(VecDeque::from([1u16, 2, 3]));
    }

    #[test]
    fn frame_rejects_unknown_version() {
        let mut bytes = encode_frame(&7u32);
        bytes[0] = 9;
        assert_eq!(decode_frame::<u32>(&bytes), Err(DecodeError::Version(9)));
    }

    #[test]
    fn frame_rejects_trailing_bytes() {
        let mut bytes = encode_frame(&7u32);
        bytes.push(0);
        assert_eq!(
            decode_frame::<u32>(&bytes),
            Err(DecodeError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = encode_frame(&"hello".to_string());
        assert_eq!(
            decode_frame::<String>(&bytes[..bytes.len() - 2]),
            Err(DecodeError::Eof)
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            decode_frame::<bool>(&[FORMAT_VERSION, 7]),
            Err(DecodeError::BadTag {
                what: "bool",
                tag: 7
            })
        );
        assert_eq!(
            decode_frame::<Option<u32>>(&[FORMAT_VERSION, 2]),
            Err(DecodeError::BadTag {
                what: "Option",
                tag: 2
            })
        );
        assert_eq!(
            decode_frame::<Id>(&[FORMAT_VERSION, 0]),
            Err(DecodeError::BadValue("Id"))
        );
    }

    #[test]
    fn corrupt_count_cannot_force_a_huge_preallocation() {
        // count = u32::MAX with no elements behind it: Eof, not OOM.
        let mut w = Writer::new();
        w.put_u8(FORMAT_VERSION);
        w.put_varint(u64::from(u32::MAX));
        assert_eq!(
            decode_frame::<Vec<u64>>(w.as_slice()),
            Err(DecodeError::Eof)
        );
    }

    #[test]
    fn oversized_varint_is_rejected() {
        let bytes = [
            FORMAT_VERSION,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0x7f,
        ];
        assert_eq!(
            decode_frame::<u64>(&bytes),
            Err(DecodeError::VarintOverflow)
        );
    }

    #[test]
    fn frame_bits_is_exact_frame_length() {
        let value = vec![1u32, 300, 70000];
        assert_eq!(frame_bits(&value), 8 * encode_frame(&value).len() as u64);
        // The version byte is included: a unit payload is one byte.
        assert_eq!(frame_bits(&()), 8);
    }

    #[test]
    fn golden_scalar_vectors() {
        // Format version 1. Breaking any of these bytes is a wire-format
        // break: bump FORMAT_VERSION and regenerate.
        assert_eq!(encode_frame(&7u32), vec![1, 7]);
        assert_eq!(encode_frame(&300u64), vec![1, 0xac, 0x02]);
        assert_eq!(encode_frame(&Id::new(3)), vec![1, 3]);
        assert_eq!(encode_frame(&Pid::new(11)), vec![1, 11]);
        assert_eq!(encode_frame(&Round::new(9)), vec![1, 9]);
        assert_eq!(encode_frame(&Superround::new(4)), vec![1, 4]);
        assert_eq!(encode_frame(&"hi".to_string()), vec![1, 2, b'h', b'i']);
        assert_eq!(
            encode_frame(&BTreeSet::from([Id::new(1), Id::new(2)])),
            vec![1, 2, 1, 2]
        );
        assert_eq!(encode_frame(&Some(false)), vec![1, 1, 0]);
        assert_eq!(encode_frame(&-3i32), vec![1, 5]);
    }
}
