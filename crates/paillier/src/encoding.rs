//! Signed plaintext encoding.
//!
//! The DBSCAN protocols work with values that can be negative: Bob's random
//! masks `v`, Alice's zero-sum blinding terms `r_i`, and dot-product
//! coefficients like `-2·A_k` in the enhanced protocol (§5). `Z_n` has no
//! native sign, so signed values `x ∈ [-(n-1)/2, (n-1)/2]` are mapped to
//! `x mod n` and decoded by interpreting residues above `(n-1)/2` as
//! negative — the usual balanced representation. Homomorphic sums remain
//! correct as long as every intermediate value stays inside the window,
//! which the protocol layer guarantees by construction (distances and masks
//! are tiny compared to a ≥ 2^16 modulus).

use crate::error::PaillierError;
use crate::keys::{Ciphertext, Keypair, PrivateKey, PublicKey};
use ppds_bigint::{BigInt, BigUint, Sign};
use rand::Rng;

impl PublicKey {
    /// Encodes a signed value into `Z_n` (balanced representation).
    pub fn encode_signed(&self, value: &BigInt) -> Result<BigUint, PaillierError> {
        if value.magnitude() > self.half_n() {
            return Err(PaillierError::SignedMessageOutOfRange);
        }
        Ok(value.rem_euclid(self.n()))
    }

    /// Decodes a `Z_n` residue back to a signed value.
    pub fn decode_signed(&self, residue: &BigUint) -> BigInt {
        if residue > self.half_n() {
            BigInt::from_biguint(Sign::Negative, self.n() - residue)
        } else {
            BigInt::from_biguint(Sign::Positive, residue.clone())
        }
    }

    /// Encrypts a signed value.
    pub fn encrypt_signed<R: Rng + ?Sized>(
        &self,
        value: &BigInt,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        let encoded = self.encode_signed(value)?;
        self.encrypt(&encoded, rng)
    }

    /// Encrypts an `i64` (always in range for keys of ≥ 66 bits; checked).
    pub fn encrypt_i64<R: Rng + ?Sized>(
        &self,
        value: i64,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        self.encrypt_signed(&BigInt::from_i64(value), rng)
    }
}

impl Keypair {
    /// Keyholder-side [`PublicKey::encrypt_signed`]: the same ciphertext
    /// with the nonce power taken by CRT (see [`Keypair::encrypt_many`]).
    pub fn encrypt_signed<R: Rng + ?Sized>(
        &self,
        value: &BigInt,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        let encoded = self.public.encode_signed(value)?;
        self.encrypt(&encoded, rng)
    }
}

impl PrivateKey {
    /// Decrypts to a signed value (balanced decoding).
    pub fn decrypt_signed(&self, c: &Ciphertext) -> Result<BigInt, PaillierError> {
        let residue = self.decrypt_crt(c)?;
        Ok(self.public().decode_signed(&residue))
    }

    /// Decrypts to an `i64`, or `None` if the signed value does not fit.
    pub fn decrypt_i64(&self, c: &Ciphertext) -> Result<Option<i64>, PaillierError> {
        Ok(self.decrypt_signed(c)?.to_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{rng, shared_keypair};

    #[test]
    fn signed_roundtrip() {
        let kp = shared_keypair();
        let mut r = rng(30);
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN + 1] {
            let c = kp.public.encrypt_i64(v, &mut r).unwrap();
            assert_eq!(kp.private.decrypt_i64(&c).unwrap(), Some(v), "{v}");
        }
    }

    #[test]
    fn signed_boundaries() {
        let kp = shared_keypair();
        let half = kp.public.half_n().clone();
        let max = BigInt::from(half.clone());
        let min = -&max;
        assert!(kp.public.encode_signed(&max).is_ok());
        assert!(kp.public.encode_signed(&min).is_ok());
        let over = &max + &BigInt::one();
        assert_eq!(
            kp.public.encode_signed(&over).unwrap_err(),
            PaillierError::SignedMessageOutOfRange
        );
        let under = -&over;
        assert_eq!(
            kp.public.encode_signed(&under).unwrap_err(),
            PaillierError::SignedMessageOutOfRange
        );
    }

    #[test]
    fn encode_decode_agree() {
        let kp = shared_keypair();
        for v in [-1000i64, -1, 0, 1, 999_999] {
            let enc = kp.public.encode_signed(&BigInt::from_i64(v)).unwrap();
            assert_eq!(kp.public.decode_signed(&enc), BigInt::from_i64(v));
        }
    }

    #[test]
    fn homomorphic_signed_arithmetic() {
        // (x·y + v) with negative v — the exact shape of Algorithm 2's output.
        let kp = shared_keypair();
        let mut r = rng(31);
        let x = 37i64;
        let y = -12i64;
        let v = -1000i64;
        let ex = kp.public.encrypt_i64(x, &mut r).unwrap();
        let xy = kp.public.mul_plain_signed(&ex, &BigInt::from_i64(y));
        let result = kp
            .public
            .add(&xy, &kp.public.encrypt_i64(v, &mut r).unwrap());
        assert_eq!(kp.private.decrypt_i64(&result).unwrap(), Some(x * y + v));
    }

    #[test]
    fn signed_sum_cancellation() {
        // Sum of zero-mean masks decodes to exactly the unmasked value — the
        // algebra behind Alice's r_1 + ... + r_m = 0 trick in protocol HDP.
        let kp = shared_keypair();
        let mut r = rng(32);
        let masks = [5i64, -3, 13, -15]; // sums to 0
        let payload = 421i64;
        let mut acc = kp.public.encrypt_i64(payload, &mut r).unwrap();
        for &m in &masks {
            let c = kp.public.encrypt_i64(m, &mut r).unwrap();
            acc = kp.public.add(&acc, &c);
        }
        assert_eq!(kp.private.decrypt_i64(&acc).unwrap(), Some(payload));
    }
}
