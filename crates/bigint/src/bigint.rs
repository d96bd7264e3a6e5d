//! Signed big integers as sign–magnitude pairs.
//!
//! Needed for the signed plaintext encoding used by Paillier
//! (`crates/paillier`), and for the share arithmetic inside the enhanced
//! DBSCAN protocol where masked distances may go negative.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::ops::{Add, Mul, Neg, Sub};

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Sign {
    /// Strictly below zero.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly above zero.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: BigUint,
}

impl BigInt {
    /// The value `0`.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            magnitude: BigUint::zero(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            magnitude: BigUint::one(),
        }
    }

    /// Builds from a sign and magnitude; the sign of a zero magnitude is
    /// forced to [`Sign::Zero`].
    pub fn from_biguint(sign: Sign, magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            let sign = match sign {
                Sign::Zero => Sign::Positive,
                s => s,
            };
            BigInt { sign, magnitude }
        }
    }

    /// Builds from an `i64`.
    pub fn from_i64(value: i64) -> Self {
        match value.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => {
                BigInt::from_biguint(Sign::Positive, BigUint::from_u64(value as u64))
            }
            Ordering::Less => {
                BigInt::from_biguint(Sign::Negative, BigUint::from_u64(value.unsigned_abs()))
            }
        }
    }

    /// Builds from an `i128`.
    pub fn from_i128(value: i128) -> Self {
        match value.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => {
                BigInt::from_biguint(Sign::Positive, BigUint::from_u128(value as u128))
            }
            Ordering::Less => {
                BigInt::from_biguint(Sign::Negative, BigUint::from_u128(value.unsigned_abs()))
            }
        }
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        let mag = self.magnitude.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(mag).ok(),
            Sign::Negative => {
                if mag <= i64::MAX as u64 + 1 {
                    Some((mag as i64).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    /// Converts to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        let mag = self.magnitude.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i128::try_from(mag).ok(),
            Sign::Negative => {
                if mag <= i128::MAX as u128 + 1 {
                    Some((mag as i128).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Borrowed magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// Consumes `self`, returning the magnitude.
    pub fn into_magnitude(self) -> BigUint {
        self.magnitude
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Truncated division: `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `|remainder| < |divisor|`,
    /// remainder taking the sign of `self` (like Rust's `%` on primitives).
    ///
    /// # Panics
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigInt) -> (BigInt, BigInt) {
        assert!(!divisor.is_zero(), "BigInt division by zero");
        let (q_mag, r_mag) = self.magnitude.div_rem(&divisor.magnitude);
        let q_sign = if self.sign == divisor.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        (
            BigInt::from_biguint(q_sign, q_mag),
            BigInt::from_biguint(self.sign, r_mag),
        )
    }

    /// Least non-negative residue `self mod modulus` as a [`BigUint`].
    ///
    /// # Panics
    /// Panics if `modulus` is zero.
    pub fn rem_euclid(&self, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "rem_euclid with zero modulus");
        let r = &self.magnitude % modulus;
        match self.sign {
            Sign::Negative if !r.is_zero() => modulus - &r,
            _ => r,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_biguint(Sign::Positive, self.magnitude.clone())
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Negative, Sign::Negative) => other.magnitude.cmp(&self.magnitude),
            (Sign::Negative, _) => Ordering::Less,
            (Sign::Zero, Sign::Negative) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Positive) => Ordering::Less,
            (Sign::Positive, Sign::Positive) => self.magnitude.cmp(&other.magnitude),
            (Sign::Positive, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            magnitude: self.magnitude.clone(),
        }
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_biguint(a, &self.magnitude + &rhs.magnitude),
            _ => match self.magnitude.cmp(&rhs.magnitude) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_biguint(self.sign, &self.magnitude - &rhs.magnitude)
                }
                Ordering::Less => BigInt::from_biguint(rhs.sign, &rhs.magnitude - &self.magnitude),
            },
        }
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_biguint(sign, &self.magnitude * &rhs.magnitude)
    }
}

impl From<i64> for BigInt {
    fn from(value: i64) -> Self {
        BigInt::from_i64(value)
    }
}

impl From<BigUint> for BigInt {
    fn from(value: BigUint) -> Self {
        BigInt::from_biguint(Sign::Positive, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i128) -> BigInt {
        BigInt::from_i128(v)
    }

    #[test]
    fn zero_normalization() {
        assert_eq!(
            BigInt::from_biguint(Sign::Negative, BigUint::zero()),
            BigInt::zero()
        );
        assert_eq!(i(0).sign(), Sign::Zero);
        assert!(i(0).is_zero());
        assert!(!i(0).is_negative());
        assert!(!i(0).is_positive());
    }

    #[test]
    fn i64_i128_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(BigInt::from_i64(v).to_i64(), Some(v), "{v}");
        }
        for v in [0i128, 1, -1, i128::MAX, i128::MIN] {
            assert_eq!(BigInt::from_i128(v).to_i128(), Some(v), "{v}");
        }
        // Out-of-range conversions.
        assert_eq!(i(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(i(i64::MIN as i128 - 1).to_i64(), None);
        assert_eq!(i(i64::MIN as i128).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn arithmetic_matches_i128() {
        let values = [-1000i128, -37, -1, 0, 1, 5, 999, 12345];
        for &a in &values {
            for &b in &values {
                assert_eq!(&i(a) + &i(b), i(a + b), "{a} + {b}");
                assert_eq!(&i(a) - &i(b), i(a - b), "{a} - {b}");
                assert_eq!(&i(a) * &i(b), i(a * b), "{a} * {b}");
                if b != 0 {
                    let (q, r) = i(a).div_rem(&i(b));
                    assert_eq!(q, i(a / b), "{a} / {b}");
                    assert_eq!(r, i(a % b), "{a} % {b}");
                }
            }
        }
    }

    #[test]
    fn ordering_matches_i128() {
        let values = [-50i128, -2, -1, 0, 1, 2, 50];
        for &a in &values {
            for &b in &values {
                assert_eq!(i(a).cmp(&i(b)), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn negation() {
        assert_eq!(-&i(5), i(-5));
        assert_eq!(-&i(-5), i(5));
        assert_eq!(-&i(0), i(0));
        assert_eq!((-&i(0)).sign(), Sign::Zero);
    }

    #[test]
    fn rem_euclid_always_nonnegative() {
        let m = BigUint::from_u64(7);
        assert_eq!(i(10).rem_euclid(&m), BigUint::from_u64(3));
        assert_eq!(i(-10).rem_euclid(&m), BigUint::from_u64(4));
        assert_eq!(i(-7).rem_euclid(&m), BigUint::from_u64(0));
        assert_eq!(i(0).rem_euclid(&m), BigUint::from_u64(0));
        assert_eq!(i(-1).rem_euclid(&m), BigUint::from_u64(6));
    }

    #[test]
    fn abs() {
        assert_eq!(i(-5).abs(), i(5));
        assert_eq!(i(5).abs(), i(5));
        assert_eq!(i(0).abs(), i(0));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = i(5).div_rem(&i(0));
    }
}
