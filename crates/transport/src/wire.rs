//! Minimal wire codec for protocol values.
//!
//! Hand-rolled rather than serde-based so that every byte on the wire is
//! visible and attributable: the experiment harness reports measured message
//! sizes against the paper's `c1`/`c2` bit-width parameters, which requires
//! an encoding with no hidden framing. All integers are little-endian;
//! variable-length values carry a `u32` length prefix.

use crate::error::TransportError;
use ppds_bigint::{BigInt, BigUint, Sign};

/// Types that can be serialized into a wire payload.
pub trait WireEncode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be deserialized from a wire payload.
pub trait WireDecode: Sized {
    /// Reads one value from the reader, advancing it.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError>;

    /// Decodes a value that must consume the whole payload.
    fn decode_exact(payload: &[u8]) -> Result<Self, TransportError> {
        let mut reader = Reader::new(payload);
        let value = Self::decode(&mut reader)?;
        if !reader.is_empty() {
            return Err(TransportError::decode(
                std::any::type_name::<Self>(),
                format!("{} trailing bytes", reader.remaining()),
            ));
        }
        Ok(value)
    }
}

/// Cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        if self.remaining() < n {
            return Err(TransportError::decode(
                "bytes",
                format!("wanted {n}, have {}", self.remaining()),
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32_le(&mut self) -> Result<u32, TransportError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("len 4")))
    }

    fn u64_le(&mut self) -> Result<u64, TransportError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("len 8")))
    }
}

impl WireEncode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl WireDecode for () {
    fn decode(_reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok(())
    }
}

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        match reader.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TransportError::decode("bool", format!("byte {other}"))),
        }
    }
}

impl WireEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl WireDecode for u8 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok(reader.take(1)?[0])
    }
}

impl WireEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl WireDecode for u32 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        reader.u32_le()
    }
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl WireDecode for u64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        reader.u64_le()
    }
}

impl WireEncode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl WireDecode for i64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok(reader.u64_le()? as i64)
    }
}

impl WireEncode for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl WireDecode for u128 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let bytes = reader.take(16)?;
        Ok(u128::from_le_bytes(bytes.try_into().expect("len 16")))
    }
}

impl WireEncode for i128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl WireDecode for i128 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let bytes = reader.take(16)?;
        Ok(i128::from_le_bytes(bytes.try_into().expect("len 16")))
    }
}

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl WireDecode for usize {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let v = reader.u64_le()?;
        usize::try_from(v)
            .map_err(|_| TransportError::decode("usize", format!("{v} overflows usize")))
    }
}

impl WireEncode for BigUint {
    fn encode(&self, out: &mut Vec<u8>) {
        let bytes = self.to_bytes_le();
        (bytes.len() as u32).encode(out);
        out.extend_from_slice(&bytes);
    }
}

impl WireDecode for BigUint {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let len = reader.u32_le()? as usize;
        let bytes = reader.take(len)?;
        Ok(BigUint::from_bytes_le(bytes))
    }
}

impl WireEncode for BigInt {
    fn encode(&self, out: &mut Vec<u8>) {
        let sign_byte = match self.sign() {
            Sign::Negative => 2u8,
            Sign::Zero => 0,
            Sign::Positive => 1,
        };
        out.push(sign_byte);
        self.magnitude().encode(out);
    }
}

impl WireDecode for BigInt {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let sign = match reader.take(1)?[0] {
            0 => Sign::Zero,
            1 => Sign::Positive,
            2 => Sign::Negative,
            other => {
                return Err(TransportError::decode(
                    "BigInt sign",
                    format!("byte {other}"),
                ))
            }
        };
        let magnitude = BigUint::decode(reader)?;
        if sign == Sign::Zero && !magnitude.is_zero() {
            return Err(TransportError::decode(
                "BigInt",
                "zero sign with nonzero magnitude",
            ));
        }
        Ok(BigInt::from_biguint(sign, magnitude))
    }
}

/// Encodes a slice as a batch payload: the items back to back and nothing
/// else. The frame that carries the payload delimits it, so a count would
/// be redundant — and a batch of one is byte for byte the item on its own:
/// a message is a batch of one.
pub(crate) fn encode_batch_items<T: WireEncode>(items: &[T], out: &mut Vec<u8>) {
    for item in items {
        item.encode(out);
    }
}

/// Decodes a whole batch payload: items until the bytes run out. A last
/// item cut short (or trailing bytes that are no item) fails in `T`'s own
/// decoder, and an item type that consumes no bytes could never end the
/// loop, so it is refused instead.
pub(crate) fn decode_batch_items<T: WireDecode>(payload: &[u8]) -> Result<Vec<T>, TransportError> {
    let mut reader = Reader::new(payload);
    let mut items = Vec::with_capacity(bounded_capacity::<T>(usize::MAX, &reader));
    while !reader.is_empty() {
        let before = reader.remaining();
        items.push(T::decode(&mut reader)?);
        if reader.remaining() == before {
            return Err(TransportError::decode(
                std::any::type_name::<T>(),
                "zero-width batch item",
            ));
        }
    }
    Ok(items)
}

/// How many `T`s to reserve room for ahead of decoding `announced` of them:
/// never more memory than the bytes still unread, whatever the peer
/// announced — a vector grows from there as items actually decode.
fn bounded_capacity<T>(announced: usize, reader: &Reader<'_>) -> usize {
    announced.min(reader.remaining() / std::mem::size_of::<T>().max(1))
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let len = reader.u32_le()? as usize;
        // Guard against hostile lengths: each element needs ≥ 1 byte.
        if len > reader.remaining() {
            return Err(TransportError::decode(
                "Vec",
                format!(
                    "announced {len} items with {} bytes left",
                    reader.remaining()
                ),
            ));
        }
        let mut items = Vec::with_capacity(bounded_capacity::<T>(len, reader));
        for _ in 0..len {
            items.push(T::decode(reader)?);
        }
        Ok(items)
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
}

impl<A: WireEncode, B: WireEncode, C: WireEncode> WireEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode, C: WireDecode> WireDecode for (A, B, C) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok((A::decode(reader)?, B::decode(reader)?, C::decode(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        let back = T::decode_exact(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(i64::MIN);
        roundtrip(12345usize);
        roundtrip(u128::MAX);
        roundtrip(0u128);
        roundtrip(i128::MIN);
        roundtrip(-7i128);
    }

    #[test]
    fn wide_integers_are_fixed_width() {
        // Field-element frames rely on a fixed 16-byte encoding with no
        // length prefix — a k-element vector is exactly 4 + 16k bytes.
        assert_eq!(1u128.encode_to_vec().len(), 16);
        assert_eq!((-1i128).encode_to_vec().len(), 16);
        assert_eq!(vec![1u128; 8].encode_to_vec().len(), 4 + 16 * 8);
    }

    #[test]
    fn biguint_roundtrips() {
        roundtrip(BigUint::zero());
        roundtrip(BigUint::from_u64(1));
        roundtrip(BigUint::from_u128(u128::MAX));
        roundtrip(BigUint::from_bytes_le(&[0xAB; 100]));
    }

    #[test]
    fn bigint_roundtrips() {
        roundtrip(BigInt::zero());
        roundtrip(BigInt::from_i64(-1));
        roundtrip(BigInt::from_i64(i64::MAX));
        roundtrip(BigInt::from_i128(i128::MIN + 1));
    }

    #[test]
    fn collections_and_tuples() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![BigUint::from_u64(9); 4]);
        roundtrip((5u64, BigUint::from_u64(7)));
        roundtrip((true, -9i64, BigUint::from_u64(1)));
    }

    #[test]
    fn a_batch_is_its_items_back_to_back() {
        let items = vec![(true, 9u64), (false, 0)];
        let mut payload = Vec::new();
        encode_batch_items(&items, &mut payload);
        assert_eq!(payload.len(), 2 * 9, "no count, no padding");
        assert_eq!(decode_batch_items::<(bool, u64)>(&payload).unwrap(), items);
        // A batch of one is the item on its own; an empty one is no bytes.
        let mut one = Vec::new();
        encode_batch_items(&items[..1], &mut one);
        assert_eq!(one, items[0].encode_to_vec());
        assert!(decode_batch_items::<u64>(&[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = 7u64.encode_to_vec();
        bytes.push(0);
        assert!(u64::decode_exact(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let bytes = BigUint::from_u64(u64::MAX).encode_to_vec();
        assert!(BigUint::decode_exact(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rejects_bad_bool_and_sign() {
        assert!(bool::decode_exact(&[7]).is_err());
        assert!(BigInt::decode_exact(&[9, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn rejects_hostile_vec_length() {
        // Announces u32::MAX items with an empty body.
        let bytes = u32::MAX.encode_to_vec();
        assert!(Vec::<u64>::decode_exact(&bytes).is_err());
    }

    #[test]
    fn zero_sign_with_nonzero_magnitude_rejected() {
        let mut bytes = vec![0u8]; // Sign::Zero
        BigUint::from_u64(5).encode(&mut bytes);
        assert!(BigInt::decode_exact(&bytes).is_err());
    }

    #[test]
    fn encoding_is_minimal_for_biguint() {
        // Length prefix (4) + minimal LE bytes: 1-byte value -> 5 bytes total.
        assert_eq!(BigUint::from_u64(200).encode_to_vec().len(), 5);
        assert_eq!(BigUint::zero().encode_to_vec().len(), 4);
    }
}
