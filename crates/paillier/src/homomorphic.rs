//! Homomorphic operations on ciphertexts.
//!
//! These implement the two properties the paper quotes in §3.7 and builds
//! Algorithm 2 (the Multiplication Protocol) on:
//!
//! * addition:        `D(E(m1) · E(m2) mod n²) = m1 + m2 mod n`
//! * plaintext mul:   `D(E(m1)^m2  mod n²) = m1 · m2 mod n`

use crate::error::PaillierError;
use crate::keys::{Ciphertext, PublicKey};
use ppds_bigint::{modular, multi_exp, BigInt, BigUint};
use rand::Rng;

impl PublicKey {
    /// `E(m1 + m2)` from `E(m1)` and `E(m2)`: ciphertext product mod `n²`.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext(self.mul_mod_nn(&c1.0, &c2.0))
    }

    /// `E(m + k)` from `E(m)` and plaintext `k`: multiply by `g^k` (the
    /// encryption of `k` with nonce 1).
    pub fn add_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        self.add(c, &Ciphertext(self.g_pow(&(k % self.n()))))
    }

    /// `E(m · k)` from `E(m)` and plaintext `k`: ciphertext power mod `n²`.
    pub fn mul_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        let k = k % self.n();
        if k.is_zero() {
            // c^0 = 1 = E(0) with nonce 1; keep it a valid group element.
            return Ciphertext(BigUint::one());
        }
        Ciphertext(self.pow_mod_nn(&c.0, &k))
    }

    /// `E(m · k)` for a signed scalar `k`. A negative scalar is an
    /// inverse: `(c⁻¹)^{|k|}`, one modular inversion and a ladder as long
    /// as `|k|`, where the exponent `k mod n = n − |k|` would be a
    /// full-width ladder whatever the size of `k`. Same plaintext, a
    /// different (equally valid) group element — callers mask and
    /// re-randomize before anything ships.
    ///
    /// Infallible like the rest of this scalar family: a non-unit `c`
    /// (no key produces one, and every wire ciphertext is validated on
    /// receipt) has no inverse and falls back to that `n − |k|` exponent.
    /// The batch form [`PublicKey::negate_many`] reports it instead.
    pub fn mul_plain_signed(&self, c: &Ciphertext, k: &BigInt) -> Ciphertext {
        if k.is_negative() {
            if let Some(inverse) = modular::mod_inverse(&c.0, self.n_squared()) {
                return self.mul_plain(&Ciphertext(inverse), k.magnitude());
            }
        }
        self.mul_plain(c, &k.rem_euclid(self.n()))
    }

    /// `E(-m)` from `E(m)`: the inverse `c⁻¹ mod n²`.
    pub fn negate(&self, c: &Ciphertext) -> Ciphertext {
        self.mul_plain_signed(c, &BigInt::from_i64(-1))
    }

    /// [`PublicKey::negate`] over a batch, by one Montgomery batch
    /// inversion modulo `n²` (one binary-GCD inversion and three products
    /// per element) — the same group elements `negate` returns.
    ///
    /// It validates as it inverts: `c < n²` is a unit modulo `n²` exactly
    /// when `gcd(c, n) = 1`, so the batch is accepted exactly when
    /// [`PublicKey::validate_many`] would accept it, and a received vector
    /// needs no second inversion modulo `n` first.
    ///
    /// # Errors
    /// [`PaillierError::InvalidCiphertext`] — the error
    /// [`PublicKey::validate`] gives — if any element is `0`, at least
    /// `n²`, or not a unit modulo `n²`.
    pub fn negate_many(&self, cts: &[Ciphertext]) -> Result<Vec<Ciphertext>, PaillierError> {
        if cts
            .iter()
            .any(|c| c.0.is_zero() || &c.0 >= self.n_squared())
        {
            return Err(PaillierError::InvalidCiphertext);
        }
        let values: Vec<BigUint> = cts.iter().map(|c| c.0.clone()).collect();
        let inverses = modular::batch_mod_inverse_with(self.mont_nn(), &values)
            .ok_or(PaillierError::InvalidCiphertext)?;
        Ok(inverses.into_iter().map(Ciphertext).collect())
    }

    /// `Π cᵢ^{kᵢ} mod n²`, i.e. `E(Σ kᵢ·mᵢ)`: one row of the dot-product
    /// response legs as a single [`multi_exp`] — one squaring chain as
    /// long as the widest `|kᵢ|`, shared by every base. The sign is folded
    /// into the base exactly as [`PublicKey::mul_plain_signed`] folds it
    /// (`inverses[i]` = `cts[i]⁻¹`, from one [`PublicKey::negate_many`] per
    /// query), so the result is byte-equal to folding `mul_plain_signed`
    /// and [`PublicKey::add`] over the same pairs.
    ///
    /// # Panics
    /// Panics unless there is one inverse and one coefficient per ciphertext.
    pub fn dot_plain_signed(
        &self,
        cts: &[Ciphertext],
        inverses: &[Ciphertext],
        coeffs: &[BigInt],
    ) -> Ciphertext {
        assert_eq!(inverses.len(), cts.len(), "one inverse per ciphertext");
        assert_eq!(coeffs.len(), cts.len(), "one coefficient per ciphertext");
        let exps: Vec<BigUint> = coeffs.iter().map(|k| k.magnitude() % self.n()).collect();
        let pairs: Vec<(&BigUint, &BigUint)> = (0..cts.len())
            .map(|i| {
                let base = if coeffs[i].is_negative() {
                    &inverses[i]
                } else {
                    &cts[i]
                };
                (&base.0, &exps[i])
            })
            .collect();
        Ciphertext(multi_exp(self.mont_nn(), &pairs))
    }

    /// `E(m1 - m2)` from `E(m1)` and `E(m2)`.
    pub fn sub(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        self.add(c1, &self.negate(c2))
    }

    /// Re-randomizes a ciphertext: multiplies by a fresh encryption of zero,
    /// so the value is unchanged but the group element is statistically
    /// independent of the input. The DBSCAN drivers use this before echoing
    /// any ciphertext back to its producer.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        // `E(0) = g^0 · r^n = r^n`: the encryption step's randomizer alone.
        self.add(c, &Ciphertext(self.draw_randomizer(rng)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{rng, shared_keypair};
    use ppds_bigint::random::gen_biguint_below;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn homomorphic_addition() {
        let kp = shared_keypair();
        let mut r = rng(10);
        let c1 = kp.public.encrypt(&b(20), &mut r).unwrap();
        let c2 = kp.public.encrypt(&b(22), &mut r).unwrap();
        let sum = kp.public.add(&c1, &c2);
        assert_eq!(kp.private.decrypt(&sum).unwrap(), b(42));
    }

    #[test]
    fn homomorphic_addition_wraps_mod_n() {
        let kp = shared_keypair();
        let mut r = rng(11);
        let n_minus_1 = kp.public.n() - &b(1);
        let c1 = kp.public.encrypt(&n_minus_1, &mut r).unwrap();
        let c2 = kp.public.encrypt(&b(5), &mut r).unwrap();
        let sum = kp.public.add(&c1, &c2);
        assert_eq!(kp.private.decrypt(&sum).unwrap(), b(4));
    }

    #[test]
    fn add_plain_matches_add() {
        let kp = shared_keypair();
        let mut r = rng(12);
        let c = kp.public.encrypt(&b(100), &mut r).unwrap();
        let shifted = kp.public.add_plain(&c, &b(23));
        assert_eq!(kp.private.decrypt(&shifted).unwrap(), b(123));
    }

    #[test]
    fn mul_plain_scalars() {
        let kp = shared_keypair();
        let mut r = rng(13);
        let c = kp.public.encrypt(&b(7), &mut r).unwrap();
        for k in [0u64, 1, 2, 6, 1000] {
            let scaled = kp.public.mul_plain(&c, &b(k));
            assert_eq!(kp.private.decrypt(&scaled).unwrap(), b(7 * k), "k = {k}");
        }
    }

    #[test]
    fn mul_plain_reduces_large_scalar() {
        let kp = shared_keypair();
        let mut r = rng(14);
        let c = kp.public.encrypt(&b(3), &mut r).unwrap();
        let k = kp.public.n() + &b(2); // k ≡ 2 (mod n)
        let scaled = kp.public.mul_plain(&c, &k);
        assert_eq!(kp.private.decrypt(&scaled).unwrap(), b(6));
    }

    #[test]
    fn mul_plain_signed_negative() {
        let kp = shared_keypair();
        let mut r = rng(15);
        let c = kp.public.encrypt(&b(10), &mut r).unwrap();
        let scaled = kp.public.mul_plain_signed(&c, &BigInt::from_i64(-3));
        // -30 mod n = n - 30
        let expect = kp.public.n() - &b(30);
        assert_eq!(kp.private.decrypt(&scaled).unwrap(), expect);
    }

    #[test]
    fn negate_and_sub() {
        let kp = shared_keypair();
        let mut r = rng(16);
        let c1 = kp.public.encrypt(&b(50), &mut r).unwrap();
        let c2 = kp.public.encrypt(&b(8), &mut r).unwrap();
        let diff = kp.public.sub(&c1, &c2);
        assert_eq!(kp.private.decrypt(&diff).unwrap(), b(42));
        let neg = kp.public.negate(&c1);
        assert_eq!(kp.private.decrypt(&neg).unwrap(), kp.public.n() - &b(50));
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let kp = shared_keypair();
        let mut r = rng(17);
        let c = kp.public.encrypt(&b(77), &mut r).unwrap();
        let c2 = kp.public.rerandomize(&c, &mut r);
        assert_ne!(c, c2);
        assert_eq!(kp.private.decrypt(&c2).unwrap(), b(77));
    }

    #[test]
    fn multiplication_protocol_core_identity() {
        // The exact algebra of Algorithm 2: u' = E(x)^y * E(v), u = D(u') = xy + v.
        let kp = shared_keypair();
        let mut r = rng(18);
        let (x, y, v) = (b(123), b(456), b(789));
        let ex = kp.public.encrypt(&x, &mut r).unwrap();
        let u_prime = kp.public.add(
            &kp.public.mul_plain(&ex, &y),
            &kp.public.encrypt(&v, &mut r).unwrap(),
        );
        let u = kp.private.decrypt(&u_prime).unwrap();
        assert_eq!(u, b(123 * 456 + 789));
    }

    #[test]
    fn random_homomorphic_add_mod_n() {
        let kp = shared_keypair();
        let mut r = rng(19);
        for _ in 0..8 {
            let m1 = gen_biguint_below(&mut r, kp.public.n());
            let m2 = gen_biguint_below(&mut r, kp.public.n());
            let c1 = kp.public.encrypt(&m1, &mut r).unwrap();
            let c2 = kp.public.encrypt(&m2, &mut r).unwrap();
            let got = kp.private.decrypt_crt(&kp.public.add(&c1, &c2)).unwrap();
            assert_eq!(got, m1.add_mod(&m2, kp.public.n()));
        }
    }

    /// The signed scalars the protocols and the encoding can produce, from
    /// the most negative encodable value to `2⁶³`.
    fn signed_scalars(pk: &PublicKey) -> Vec<BigInt> {
        let two_63 = BigInt::from(BigUint::from_u64(1 << 63));
        vec![
            -&BigInt::from(pk.half_n().clone()),
            -&two_63,
            BigInt::from_i64(-3),
            BigInt::from_i64(-1),
            BigInt::zero(),
            BigInt::from_i64(1),
            two_63,
        ]
    }

    #[test]
    fn signed_scalars_and_negation_decrypt_to_the_signed_product() {
        let kp = shared_keypair();
        let n = kp.public.n();
        let mut r = rng(22);
        for _ in 0..3 {
            let m = gen_biguint_below(&mut r, n);
            let c = kp.public.encrypt(&m, &mut r).unwrap();
            for k in signed_scalars(&kp.public) {
                let want = &(&k.rem_euclid(n) * &m) % n;
                let got = kp.public.mul_plain_signed(&c, &k);
                assert_eq!(kp.private.decrypt_crt(&got).unwrap(), want, "k = {k:?}");
            }
            let minus_m = BigInt::from_biguint(ppds_bigint::Sign::Negative, m).rem_euclid(n);
            let neg = kp.public.negate(&c);
            assert_eq!(kp.private.decrypt_crt(&neg).unwrap(), minus_m);
            assert_eq!(kp.public.negate(&neg), c, "an inverse, so an involution");
        }
    }

    #[test]
    fn negate_many_matches_negate_and_types_a_non_unit() {
        let kp = shared_keypair();
        let mut r = rng(23);
        let cts: Vec<Ciphertext> = (0..9u64)
            .map(|m| kp.public.encrypt(&b(m), &mut r).unwrap())
            .collect();
        let singly: Vec<Ciphertext> = cts.iter().map(|c| kp.public.negate(c)).collect();
        assert_eq!(kp.public.negate_many(&cts).unwrap(), singly);
        assert_eq!(kp.public.negate_many(&[]).unwrap(), Vec::new());

        // A multiple of a factor of n has no inverse: the batch form says
        // so, the infallible forms fall back to the `k mod n` exponent.
        for raw in [kp.public.n().clone(), BigUint::zero()] {
            let bad = Ciphertext::from_biguint(raw);
            let mut batch = cts.clone();
            batch[4] = bad.clone();
            assert_eq!(
                kp.public.negate_many(&batch).unwrap_err(),
                PaillierError::InvalidCiphertext
            );
            let minus_three = BigInt::from_i64(-3);
            assert_eq!(
                kp.public.mul_plain_signed(&bad, &minus_three),
                kp.public
                    .mul_plain(&bad, &minus_three.rem_euclid(kp.public.n()))
            );
            let _ = kp.public.negate(&bad);
        }
    }

    #[test]
    fn negate_many_refuses_what_validate_refuses() {
        let kp = shared_keypair();
        let pk = &kp.public;
        let good = pk.encrypt(&b(5), &mut rng(24)).unwrap();
        let nn = pk.n_squared().clone();
        for raw in [
            BigUint::zero(),
            pk.n().clone(),
            nn.clone(),
            &nn + &BigUint::one(),
        ] {
            let bad = Ciphertext::from_biguint(raw);
            let want = pk.validate(&bad).unwrap_err();
            assert_eq!(want, PaillierError::InvalidCiphertext);
            for batch in [vec![bad.clone()], vec![good.clone(), bad.clone()]] {
                assert_eq!(pk.negate_many(&batch).unwrap_err(), want);
                assert_eq!(pk.validate_many(&batch).unwrap_err(), want);
            }
        }
    }

    #[test]
    fn multi_exp_fold_matches_mul_plain_signed_fold_byte_for_byte() {
        let kp = shared_keypair();
        let mut r = rng(21);
        for trial in 0..4u64 {
            let cts: Vec<Ciphertext> = (0..6)
                .map(|_| {
                    let m = gen_biguint_below(&mut r, kp.public.n());
                    kp.public.encrypt(&m, &mut r).unwrap()
                })
                .collect();
            let coeffs: Vec<BigInt> = (0..6)
                .map(|i| match (trial + i) % 4 {
                    0 => BigInt::zero(),
                    1 => BigInt::from_i64(-(17 + i as i64)),
                    2 => BigInt::from_biguint(
                        ppds_bigint::Sign::Positive,
                        gen_biguint_below(&mut r, kp.public.n()),
                    ),
                    _ => BigInt::from_i64(1 + i as i64),
                })
                .collect();
            let acc = kp.public.encrypt(&b(5), &mut r).unwrap();

            let naive = cts.iter().zip(&coeffs).fold(acc.clone(), |acc, (c, k)| {
                kp.public.add(&acc, &kp.public.mul_plain_signed(c, k))
            });
            let inverses = kp.public.negate_many(&cts).unwrap();
            let row = kp.public.dot_plain_signed(&cts, &inverses, &coeffs);
            assert_eq!(
                kp.public.add(&acc, &row),
                naive,
                "trial {trial}: bytes must be identical"
            );
        }
        // Every scalar the encoding admits, each sign, one base.
        let c = kp.public.encrypt(&b(77), &mut r).unwrap();
        let inverse = kp.public.negate_many(std::slice::from_ref(&c)).unwrap();
        for k in signed_scalars(&kp.public) {
            let row = kp.public.dot_plain_signed(
                std::slice::from_ref(&c),
                &inverse,
                std::slice::from_ref(&k),
            );
            assert_eq!(row, kp.public.mul_plain_signed(&c, &k), "k = {k:?}");
        }
        // No bases: the neutral element, a valid E(0).
        assert_eq!(
            kp.public.dot_plain_signed(&[], &[], &[]),
            Ciphertext(BigUint::one())
        );
    }

    #[test]
    fn mul_plain_zero_is_valid_encryption_of_zero() {
        let kp = shared_keypair();
        let mut r = rng(20);
        let c = kp.public.encrypt(&b(9), &mut r).unwrap();
        let zeroed = kp.public.mul_plain(&c, &BigUint::zero());
        assert_eq!(kp.private.decrypt(&zeroed).unwrap(), BigUint::zero());
        // And it must still compose homomorphically.
        let c5 = kp.public.encrypt(&b(5), &mut r).unwrap();
        let sum = kp.public.add(&zeroed, &c5);
        assert_eq!(kp.private.decrypt(&sum).unwrap(), b(5));
    }
}
