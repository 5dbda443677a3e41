//! Deterministic canonical binary encoding for P2DRM.
//!
//! Every byte string that is **signed** (certificates, licenses, protocol
//! messages, coins) or **persisted** (store records) in this workspace is
//! produced by this crate, never by `Debug`/JSON formatting. The format is
//! deliberately tiny and bijective:
//!
//! * fixed-width little-endian integers (`u8`/`u32`/`u64`),
//! * LEB128 varints with a *minimal-encoding* rule enforced on decode,
//! * length-prefixed byte strings and UTF-8 strings,
//! * fixed-size byte arrays, raw (no prefix),
//! * length-prefixed homogeneous sequences.
//!
//! Because encoders write fields in a fixed order and decoders read them in
//! the same order, two structurally equal values always produce identical
//! bytes — which is what makes signatures over encodings meaningful.
//!
//! A record's two impls come from one field list ([`record!`]): each
//! field is written and read in the order it is declared, by its type's
//! own [`Encode`] / [`Decode`].
//!
//! ```
//! p2drm_codec::record! {
//!     #[derive(Debug, PartialEq)]
//!     struct Pair { id: u64, name: String, hits: u64 as varint }
//! }
//!
//! let pair = Pair { id: 7, name: "abc".into(), hits: 3 };
//! let bytes = p2drm_codec::to_bytes(&pair);
//! assert_eq!(bytes.len(), 8 + 4 + 1);
//! assert_eq!(p2drm_codec::from_bytes::<Pair>(&bytes).unwrap(), pair);
//! ```

#![forbid(unsafe_code)]

pub mod crc32;

use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A varint used more bytes than necessary or exceeded 64 bits.
    NonCanonicalVarint,
    /// A declared length exceeds the remaining input (or a sanity cap).
    BadLength(u64),
    /// A byte string declared as UTF-8 was not.
    InvalidUtf8,
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
    /// An enum/discriminant byte had no defined meaning.
    BadDiscriminant(u8),
    /// A variable-width big integer carried redundant leading zero bytes
    /// (encoders must emit the minimal big-endian form so that equal
    /// values always produce identical — hence signable — bytes).
    NonMinimalInt,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::NonCanonicalVarint => write!(f, "non-canonical varint"),
            CodecError::BadLength(n) => write!(f, "declared length {n} out of bounds"),
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
            CodecError::NonMinimalInt => write!(f, "big integer has redundant leading zeros"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Canonical byte writer.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 varint (canonical: no redundant trailing zero groups).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Boolean as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Option: presence byte then the value.
    pub fn put_option<T: Encode>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                x.encode(self);
            }
        }
    }

    /// Length-prefixed homogeneous sequence.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        self.put_varint(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }

    /// Raw bytes with **no** length prefix (for fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Most elements [`Reader::get_seq`] reserves room for before decoding
/// any (a 256-item catalog listing still decodes with one reservation).
const SEQ_RESERVE_MAX: usize = 1024;

/// Canonical byte reader with strict bounds and canonicality checks.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Fixed-width little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Fixed-width little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Canonical LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::NonCanonicalVarint); // would exceed u64
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                // Reject non-minimal encodings like [0x80, 0x00].
                if byte == 0 && shift != 0 {
                    return Err(CodecError::NonCanonicalVarint);
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::NonCanonicalVarint);
            }
        }
    }

    /// Length-prefixed byte string (borrowed).
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength(len));
        }
        self.take(len as usize)
    }

    /// Length-prefixed byte string (owned).
    pub fn get_bytes_owned(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_bytes()?.to_vec())
    }

    /// Length-prefixed **canonical big-endian integer** field: like
    /// [`Reader::get_bytes`], but rejects a redundant leading zero byte
    /// ([`CodecError::NonMinimalInt`]). Writers emit minimal big-endian
    /// bytes (zero = empty), so round-tripping any integer field is
    /// byte-exact — two distinct byte strings can never decode to the
    /// same value.
    pub fn get_int_bytes(&mut self) -> Result<&'a [u8]> {
        let bytes = self.get_bytes()?;
        if bytes.first() == Some(&0) {
            return Err(CodecError::NonMinimalInt);
        }
        Ok(bytes)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Boolean (strict 0/1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }

    /// Option mirror of [`Writer::put_option`].
    pub fn get_option<T: Decode>(&mut self) -> Result<Option<T>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }

    /// Length-prefixed homogeneous sequence.
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>> {
        let len = self.get_varint()?;
        // Each element costs at least one byte; cheap DoS guard.
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength(len));
        }
        // `len` is still attacker-chosen up to the frame size, and an
        // element can be far larger in memory than its one-byte minimum
        // on the wire: reserve for a bounded count up front and let
        // pushes grow past it once elements really decode.
        let mut out = Vec::with_capacity((len as usize).min(SEQ_RESERVE_MAX));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Raw fixed-size read (no prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// Types that can write themselves canonically.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Types that can read themselves back.
pub trait Decode: Sized {
    /// Reads a value, consuming exactly its encoding.
    fn decode(r: &mut Reader) -> Result<Self>;
}

/// Encodes a value to a fresh byte vector.
pub fn to_bytes<T: Encode>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value, requiring the input to be fully consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// Declares a struct and writes its [`Encode`] and [`Decode`] from its
/// one field list, in the idiom of a plain field sequence: each field is
/// encoded in declaration order by its type's own impls, and decoded in
/// the same order. Two modes cover the fields whose type does not pick
/// their encoding:
///
/// * `field: u64 as varint` — a LEB128 varint, not a fixed-width `u64`;
/// * `field: Vec<T> as seq` — a length-prefixed sequence of `T`s (a bare
///   `Vec<u8>` is a byte string).
///
/// A one-field tuple struct (`struct Id(pub [u8; 16]);`) encodes as its
/// field.
///
/// A type whose decoder validates, or whose fields do not map one to one
/// onto its encoding, keeps hand-written impls.
#[macro_export]
macro_rules! record {
    (@put $w:ident, $v:expr) => { $crate::Encode::encode($v, $w) };
    (@put $w:ident, $v:expr, varint) => { $w.put_varint(*$v) };
    (@put $w:ident, $v:expr, seq) => { $w.put_seq($v) };
    (@get $r:ident, $ty:ty) => { <$ty as $crate::Decode>::decode($r)? };
    (@get $r:ident, $ty:ty, varint) => { $r.get_varint()? };
    (@get $r:ident, $ty:ty, seq) => { $r.get_seq()? };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fattr:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $mode:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $field: $ty,)*
        }

        impl $crate::Encode for $name {
            #[allow(unused_variables)]
            fn encode(&self, w: &mut $crate::Writer) {
                $($crate::record!(@put w, &self.$field $(, $mode)?);)*
            }
        }

        impl $crate::Decode for $name {
            #[allow(unused_variables)]
            fn decode(r: &mut $crate::Reader) -> $crate::Result<Self> {
                Ok($name {
                    $($field: $crate::record!(@get r, $ty $(, $mode)?),)*
                })
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident($(#[$fattr:meta])* $fvis:vis $ty:ty);
    ) => {
        $(#[$attr])*
        $vis struct $name($(#[$fattr])* $fvis $ty);

        impl $crate::Encode for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                $crate::Encode::encode(&self.0, w)
            }
        }

        impl $crate::Decode for $name {
            fn decode(r: &mut $crate::Reader) -> $crate::Result<Self> {
                Ok($name(<$ty as $crate::Decode>::decode(r)?))
            }
        }
    };
}

// ---- impls for primitives -------------------------------------------------

impl Encode for u64 {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_u64()
    }
}

impl Encode for u32 {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_u32()
    }
}

/// A `usize` travels as a `u64`; one above `usize::MAX` (on a target
/// narrower than 64 bits) is refused, not wrapped.
impl Encode for usize {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        let n = r.get_u64()?;
        usize::try_from(n).map_err(|_| CodecError::BadLength(n))
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_bool()
    }
}

impl Encode for Vec<u8> {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_bytes_owned()
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_str()
    }
}

/// Fixed-size byte arrays are raw: the width is the type's, so no
/// length prefix is written.
impl<const N: usize> Encode for [u8; N] {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        let mut out = [0u8; N];
        out.copy_from_slice(r.get_raw(N)?);
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_option(self);
    }
}

impl<T: Decode> Decode for Option<T> {
    #[inline]
    fn decode(r: &mut Reader) -> Result<Self> {
        r.get_option()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_sizes_are_minimal() {
        let size = |v: u64| {
            let mut w = Writer::new();
            w.put_varint(v);
            w.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(16383), 2);
        assert_eq!(size(16384), 3);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn non_minimal_varint_rejected() {
        // 0x80 0x00 encodes 0 in two bytes — must be rejected.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(r.get_varint(), Err(CodecError::NonCanonicalVarint));
        // 11-byte varint rejected.
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn varint_overflow_rejected() {
        // 2^64 would need the 10th byte to be 2.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint(), Err(CodecError::NonCanonicalVarint));
        // ...while 1 in that byte is exactly u64::MAX.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        w.put_str("wörld");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn truncated_inputs_fail_cleanly() {
        let mut w = Writer::new();
        w.put_bytes(&[1, 2, 3, 4, 5]);
        let mut bytes = w.into_bytes();
        bytes.truncate(3);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes(),
            Err(CodecError::BadLength(_)) | Err(CodecError::UnexpectedEof)
        ));
        let mut r = Reader::new(&[]);
        assert_eq!(r.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn length_longer_than_input_rejected() {
        let mut w = Writer::new();
        w.put_varint(1_000_000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(CodecError::BadLength(1_000_000)));
    }

    #[test]
    fn option_and_bool_strictness() {
        let mut w = Writer::new();
        w.put_option(&Some(5u64));
        w.put_option::<u64>(&None);
        w.put_bool(true);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_option::<u64>().unwrap(), Some(5));
        assert_eq!(r.get_option::<u64>().unwrap(), None);
        assert!(r.get_bool().unwrap());

        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool(), Err(CodecError::BadDiscriminant(2)));
    }

    #[test]
    fn seq_roundtrip() {
        let items: Vec<u64> = (0..100).collect();
        let mut w = Writer::new();
        w.put_seq(&items);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_seq::<u64>().unwrap(), items);
    }

    #[test]
    fn int_bytes_reject_leading_zero() {
        let mut w = Writer::new();
        w.put_bytes(&[0x12, 0x34]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_int_bytes().unwrap(), &[0x12, 0x34]);

        let mut w = Writer::new();
        w.put_bytes(&[0x00, 0x12, 0x34]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_int_bytes(), Err(CodecError::NonMinimalInt));

        // Zero is the empty byte string, which is minimal.
        let mut w = Writer::new();
        w.put_bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_int_bytes().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut bytes = to_bytes(&42u64);
        bytes.push(0);
        assert_eq!(from_bytes::<u64>(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn usize_is_a_u64_that_decodes_only_where_it_fits() {
        assert_eq!(to_bytes(&7usize), to_bytes(&7u64));
        let max = from_bytes::<usize>(&to_bytes(&u64::MAX));
        match usize::BITS == 64 {
            true => assert_eq!(max, Ok(usize::MAX)),
            false => assert_eq!(max, Err(CodecError::BadLength(u64::MAX))),
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = to_bytes(&String::from("same"));
        let b = to_bytes(&String::from("same"));
        assert_eq!(a, b);
    }

    record! {
        #[derive(Debug, PartialEq)]
        struct Sample {
            tag: [u8; 3],
            count: u64 as varint,
            names: Vec<String> as seq,
            bytes: Vec<u8>,
        }
    }

    record! {
        #[derive(Debug, PartialEq)]
        struct Wrapped(Sample);
    }

    #[test]
    fn record_writes_its_fields_in_order() {
        let sample = Sample {
            tag: *b"abc",
            count: 300,
            names: vec!["x".into()],
            bytes: vec![9],
        };
        let mut w = Writer::new();
        w.put_raw(b"abc");
        w.put_varint(300);
        w.put_seq(&sample.names);
        w.put_bytes(&[9]);
        let bytes = w.into_bytes();
        assert_eq!(to_bytes(&sample), bytes);
        let wrapped = Wrapped(sample);
        assert_eq!(to_bytes(&wrapped), bytes);
        assert_eq!(from_bytes::<Wrapped>(&bytes).unwrap(), wrapped);
        assert_eq!(
            from_bytes::<Sample>(&bytes[..2]),
            Err(CodecError::UnexpectedEof)
        );
    }
}
