//! Key generation, encryption and decryption.

use crate::error::PaillierError;
use ppds_bigint::{modular, prime, random, BigUint, MontgomeryCtx};
use rand::Rng;

/// Smallest accepted key size (bits of `n`). Far below cryptographic
/// strength — the floor only guards against degenerate message spaces in
/// tests. Production use should be ≥ 2048.
pub const MIN_KEY_BITS: usize = 16;

/// A Paillier ciphertext: an element of `Z*_{n²}`.
///
/// Deliberately opaque; all arithmetic goes through [`PublicKey`] methods so
/// every operation is reduced modulo the right `n²`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ciphertext(pub(crate) BigUint);

impl Ciphertext {
    /// The raw group element. Exposed for serialization by the transport
    /// layer; do not perform arithmetic on it directly.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Rebuilds a ciphertext from its raw representation (e.g. received over
    /// the network). Validity against a key is checked lazily by operations.
    pub fn from_biguint(value: BigUint) -> Self {
        Ciphertext(value)
    }
}

/// The public half of a Paillier keypair: `(n, g)` from §3.7 plus
/// precomputed Montgomery state for `n²`.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    /// Always `n + 1`, the standard choice that makes `g^m mod n²` a single
    /// multiplication (`(1 + n)^m = 1 + m·n mod n²`).
    g: BigUint,
    /// `(n - 1) / 2`: largest magnitude representable in the signed encoding.
    half_n: BigUint,
    mont_nn: MontgomeryCtx,
    /// Montgomery state for the *message-space* modulus `n`, shared by
    /// batch ciphertext validation (one batch inversion mod `n` instead of
    /// one GCD per ciphertext).
    mont_n: MontgomeryCtx,
}

/// The private half: `(λ, μ)` from §3.7, plus the factorization and CRT
/// precomputations for fast decryption.
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    lambda: BigUint,
    mu: BigUint,
    crt: CrtContext,
}

/// Precomputed state for Paillier decryption by Chinese remaindering, and
/// for the keyholder's nonce powers (see [`PrivateKey::nonce_power`]).
#[derive(Clone)]
struct CrtContext {
    p: BigUint,
    q: BigUint,
    p_squared: BigUint,
    q_squared: BigUint,
    mont_p: MontgomeryCtx,
    mont_q: MontgomeryCtx,
    mont_pp: MontgomeryCtx,
    mont_qq: MontgomeryCtx,
    /// `L_p(g^{p-1} mod p²)^{-1} mod p`.
    hp: BigUint,
    /// `L_q(g^{q-1} mod q²)^{-1} mod q`.
    hq: BigUint,
    /// `p^{-1} mod q` for Garner recombination.
    p_inv_q: BigUint,
    /// `q mod (p−1)` and `p mod (q−1)`: the exponent of `r^q mod p` and of
    /// `r^p mod q` reduced by the orders of `Z*_p` and `Z*_q`.
    q_mod_p_minus_1: BigUint,
    p_mod_q_minus_1: BigUint,
    /// `(p²)^{-1} mod q²` for Garner recombination modulo `n²`.
    pp_inv_qq: BigUint,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicKey")
            .field("bits", &self.bits())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        f.debug_struct("PrivateKey")
            .field("bits", &self.public.bits())
            .finish_non_exhaustive()
    }
}

/// A full keypair.
#[derive(Clone)]
pub struct Keypair {
    /// The shareable half.
    pub public: PublicKey,
    /// The secret half (embeds a copy of the public key).
    pub private: PrivateKey,
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair")
            .field("bits", &self.public.bits())
            .finish_non_exhaustive()
    }
}

impl Keypair {
    /// Generates a keypair with an `n` of exactly `bits` bits, following
    /// §3.7: draw `p, q` until `gcd(pq, (p-1)(q-1)) = 1`, set `n = pq`,
    /// `λ = lcm(p-1, q-1)`, `g = n + 1`, `μ = (L(g^λ mod n²))^{-1} mod n`.
    ///
    /// # Panics
    /// Panics if `bits < MIN_KEY_BITS` or `bits` is odd.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Keypair {
        assert!(
            bits >= MIN_KEY_BITS,
            "key size {bits} below minimum {MIN_KEY_BITS}"
        );
        assert!(bits.is_multiple_of(2), "key size must be even, got {bits}");
        loop {
            let (p, q) = prime::gen_prime_pair(rng, bits / 2);
            let n = &p * &q;
            debug_assert_eq!(n.bit_length(), bits);
            let one = BigUint::one();
            let p_minus_1 = &p - &one;
            let q_minus_1 = &q - &one;
            let phi = &p_minus_1 * &q_minus_1;
            // §3.7 requirement; holds automatically for same-size primes
            // except in astronomically rare cases, but check anyway.
            if !modular::gcd(&n, &phi).is_one() {
                continue;
            }
            let lambda = modular::lcm(&p_minus_1, &q_minus_1);
            if let Some(keypair) = Self::assemble(n, p, q, lambda) {
                return keypair;
            }
        }
    }

    /// Keyholder-side [`PublicKey::encrypt_many`]: the same ciphertexts,
    /// byte for byte, from the same `rng` draws, under the factorization
    /// only this side holds. Each nonce is accepted by `r mod p ≠ 0 ∧
    /// r mod q ≠ 0` — the same set the public `gcd(r, n) = 1` test accepts —
    /// and its power goes through the `p`-th-power map from those two
    /// residues (`PrivateKey::nonce_power`). The factors never enter the
    /// [`PublicKey`], which is what a peer rebuilds from the wire.
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        debug_assert_eq!(self.public.n, self.private.public.n, "halves of one key");
        self.public
            .encrypt_many_by(ms, rng, |rng| self.private.draw_nonce_power(rng))
    }

    /// Keyholder-side [`PublicKey::encrypt`] (see [`Keypair::encrypt_many`]).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        // One message in, one ciphertext out: `pop` is never `None`.
        self.encrypt_many(std::slice::from_ref(m), rng)?
            .pop()
            .ok_or(PaillierError::MessageOutOfRange)
    }

    fn assemble(n: BigUint, p: BigUint, q: BigUint, lambda: BigUint) -> Option<Keypair> {
        let n_squared = n.square();
        let g = &n + 1u64;
        let mont_nn = MontgomeryCtx::new(&n_squared)
            .expect("n² is odd and > 1: n is a product of odd primes");
        let mont_n = MontgomeryCtx::new(&n).expect("n is odd and > 1: a product of odd primes");

        // μ = (L(g^λ mod n²))^{-1} mod n. For g = n+1 this equals λ^{-1},
        // but compute it generically so the math matches the paper line by
        // line.
        let g_lambda = mont_nn.pow_mod(&g, &lambda);
        let ell = l_function(&g_lambda, &n)?;
        let mu = modular::mod_inverse(&ell, &n)?;

        let public = PublicKey {
            half_n: &(&n - &BigUint::one()) >> 1usize,
            n_squared,
            g,
            n: n.clone(),
            mont_nn,
            mont_n,
        };
        let crt = CrtContext::new(&public, &p, &q)?;
        Some(Keypair {
            private: PrivateKey {
                public: public.clone(),
                lambda,
                mu,
                crt,
            },
            public,
        })
    }
}

/// `L(u) = (u - 1) / n`; defined only when `u ≡ 1 (mod n)`.
fn l_function(u: &BigUint, n: &BigUint) -> Option<BigUint> {
    let numerator = u.checked_sub(&BigUint::one())?;
    let (quotient, remainder) = numerator.div_rem(n);
    remainder.is_zero().then_some(quotient)
}

impl CrtContext {
    fn new(public: &PublicKey, p: &BigUint, q: &BigUint) -> Option<CrtContext> {
        let one = BigUint::one();
        let p_squared = p.square();
        let q_squared = q.square();
        let mont_p = MontgomeryCtx::new(p)?;
        let mont_q = MontgomeryCtx::new(q)?;
        let mont_pp = MontgomeryCtx::new(&p_squared)?;
        let mont_qq = MontgomeryCtx::new(&q_squared)?;
        let g = &public.g;

        // hp = L_p(g^{p-1} mod p²)^{-1} mod p, with L_p(u) = (u-1)/p.
        let gp = mont_pp.pow_mod(&(g % &p_squared), &(p - &one));
        let lp = l_function_over(&gp, p)?;
        let hp = modular::mod_inverse(&lp, p)?;
        let gq = mont_qq.pow_mod(&(g % &q_squared), &(q - &one));
        let lq = l_function_over(&gq, q)?;
        let hq = modular::mod_inverse(&lq, q)?;
        let p_inv_q = modular::mod_inverse(p, q)?;
        let q_mod_p_minus_1 = q % &(p - &one);
        let p_mod_q_minus_1 = p % &(q - &one);
        let pp_inv_qq = modular::mod_inverse(&p_squared, &q_squared)?;

        Some(CrtContext {
            p: p.clone(),
            q: q.clone(),
            p_squared,
            q_squared,
            mont_p,
            mont_q,
            mont_pp,
            mont_qq,
            hp,
            hq,
            p_inv_q,
            q_mod_p_minus_1,
            p_mod_q_minus_1,
            pp_inv_qq,
        })
    }

    /// `(r mod p, r mod q)` when neither is zero, else `None`: the factor
    /// form of the unit test. Below `n` it accepts exactly what
    /// `r ≠ 0 ∧ gcd(r, n) = 1` accepts — `r` shares a factor with `n = pq`
    /// iff `p` or `q` divides it, and `r = 0` fails both.
    fn unit_residues(&self, r: &BigUint) -> Option<(BigUint, BigUint)> {
        let rp = r % &self.p;
        let rq = r % &self.q;
        (!rp.is_zero() && !rq.is_zero()).then_some((rp, rq))
    }
}

/// `L` over an arbitrary modulus `m` (used with `m = p` and `m = q`).
fn l_function_over(u: &BigUint, m: &BigUint) -> Option<BigUint> {
    let numerator = u.checked_sub(&BigUint::one())?;
    let (quotient, remainder) = numerator.div_rem(m);
    remainder.is_zero().then_some(quotient)
}

impl PublicKey {
    /// Reconstructs a public key from its modulus `n` (with the standard
    /// generator `g = n + 1`). This is how a party materializes the peer's
    /// key received over the wire.
    pub fn from_modulus(n: BigUint) -> Result<PublicKey, PaillierError> {
        if n.bit_length() < MIN_KEY_BITS || n.is_even() {
            return Err(PaillierError::KeyTooSmall {
                requested: n.bit_length(),
                minimum: MIN_KEY_BITS,
            });
        }
        let n_squared = n.square();
        let mont_nn = MontgomeryCtx::new(&n_squared)
            .expect("n² is odd and > 1: n was just checked odd and ≥ 2^15");
        let mont_n = MontgomeryCtx::new(&n).expect("n is odd and > 1: just checked odd and ≥ 2^15");
        Ok(PublicKey {
            half_n: &(&n - &BigUint::one()) >> 1usize,
            g: &n + 1u64,
            n,
            n_squared,
            mont_nn,
            mont_n,
        })
    }

    /// The modulus `n` (the message space is `Z_n`).
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `n²`, the ciphertext-space modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// The generator `g`.
    pub fn g(&self) -> &BigUint {
        &self.g
    }

    /// Key size in bits (bit length of `n`).
    pub fn bits(&self) -> usize {
        self.n.bit_length()
    }

    /// Largest magnitude encodable by the signed encoding: `(n-1)/2`.
    pub fn half_n(&self) -> &BigUint {
        &self.half_n
    }

    /// Samples a uniform nonce from `Z*_n`.
    pub fn sample_nonce<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        self.sample_nonce_by(rng, |r| {
            (!r.is_zero() && modular::gcd(&r, &self.n).is_one()).then_some(r)
        })
    }

    /// The one nonce sampling loop: uniform draws below `n` until `unit`
    /// accepts one, returning what `unit` made of it. Both encryption
    /// sides draw through it with tests that accept the same set, so they
    /// consume the same stream positions.
    pub(crate) fn sample_nonce_by<R: Rng + ?Sized, T>(
        &self,
        rng: &mut R,
        mut unit: impl FnMut(BigUint) -> Option<T>,
    ) -> T {
        loop {
            if let Some(nonce) = unit(random::gen_biguint_below(rng, &self.n)) {
                return nonce;
            }
        }
    }

    /// The public side's per-message step: a fresh nonce `r` and its power
    /// `r^n mod n²` by the ladder mod `n²` — which is also `E(0)`.
    pub(crate) fn draw_nonce_power<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        self.mont_nn.pow_mod(&self.sample_nonce(rng), &self.n)
    }

    /// Encrypts `m ∈ Z_n` with a fresh nonce: `c = g^m · r^n mod n²`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        // One message in, one ciphertext out: `pop` is never `None`.
        self.encrypt_many(std::slice::from_ref(m), rng)?
            .pop()
            .ok_or(PaillierError::MessageOutOfRange)
    }

    /// Encrypts a batch of plaintexts.
    ///
    /// Byte-identical to calling [`PublicKey::encrypt`] once per element
    /// with the same `rng`: nonces are rejection-sampled from the identical
    /// stream positions, one message after the other.
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        self.encrypt_many_by(ms, rng, |rng| self.draw_nonce_power(rng))
    }

    /// The one encryption body: every message is checked against `Z_n`
    /// before anything is drawn, then each is sealed as `g^m · r^n mod n²`
    /// with its own `nonce_power(rng)`, in message order. That step —
    /// draw a nonce, return `r^n mod n²` — is the only thing that differs
    /// between a party that knows `n` alone
    /// ([`PublicKey::draw_nonce_power`]) and the keyholder
    /// ([`PrivateKey::draw_nonce_power`]).
    pub(crate) fn encrypt_many_by<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
        mut nonce_power: impl FnMut(&mut R) -> BigUint,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        if ms.iter().any(|m| m >= &self.n) {
            return Err(PaillierError::MessageOutOfRange);
        }
        Ok(ms
            .iter()
            .map(|m| Ciphertext(self.mul_mod_nn(&self.g_pow(m), &nonce_power(rng))))
            .collect())
    }

    /// Encrypts with a caller-chosen nonce (deterministic; used by tests and
    /// for the nonce-1 constants of DGK's comparison cells).
    pub fn encrypt_with_nonce(
        &self,
        m: &BigUint,
        nonce: &BigUint,
    ) -> Result<Ciphertext, PaillierError> {
        if m >= &self.n {
            return Err(PaillierError::MessageOutOfRange);
        }
        let g_to_m = self.g_pow(m);
        let r_to_n = self.mont_nn.pow_mod(nonce, &self.n);
        Ok(Ciphertext(self.mul_mod_nn(&g_to_m, &r_to_n)))
    }

    /// `g^m mod n²` for `g = n + 1`: `(1+n)^m = 1 + m·n (mod n²)`.
    pub(crate) fn g_pow(&self, m: &BigUint) -> BigUint {
        let mn = &(m * &self.n) % &self.n_squared;
        (&mn + 1u64).div_rem(&self.n_squared).1
    }

    pub(crate) fn mul_mod_nn(&self, a: &BigUint, b: &BigUint) -> BigUint {
        &(a * b) % &self.n_squared
    }

    pub(crate) fn pow_mod_nn(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont_nn.pow_mod(base, exp)
    }

    /// The Montgomery context for `n²`, shared with the packing and
    /// homomorphic modules so kernel code accumulates products in one
    /// domain instead of rebuilding per-call state.
    pub(crate) fn mont_nn(&self) -> &MontgomeryCtx {
        &self.mont_nn
    }

    /// Checks that a ciphertext received from outside is an element of
    /// `Z*_{n²}` under this key.
    pub fn validate(&self, c: &Ciphertext) -> Result<(), PaillierError> {
        if c.0 >= self.n_squared || c.0.is_zero() {
            return Err(PaillierError::InvalidCiphertext);
        }
        if !modular::gcd(&c.0, &self.n).is_one() {
            return Err(PaillierError::InvalidCiphertext);
        }
        Ok(())
    }

    /// Validates a batch of ciphertexts with one Montgomery batch inversion
    /// modulo `n` in place of one binary GCD per ciphertext (a residue is
    /// invertible mod `n` exactly when `gcd(c, n) = 1`, which is what
    /// [`PublicKey::validate`] tests).
    ///
    /// Accepts exactly the batches where every individual
    /// [`PublicKey::validate`] call would succeed. On a failing batch it
    /// falls back to per-element validation *in order*, so the returned
    /// error is byte-identical to what a sequential validation loop would
    /// have produced.
    pub fn validate_many(&self, cts: &[Ciphertext]) -> Result<(), PaillierError> {
        let in_range = cts.iter().all(|c| c.0 < self.n_squared && !c.0.is_zero());
        if in_range {
            let residues: Vec<BigUint> = cts.iter().map(|c| &c.0 % &self.n).collect();
            if modular::batch_mod_inverse_with(&self.mont_n, &residues).is_some() {
                return Ok(());
            }
        }
        for c in cts {
            self.validate(c)?;
        }
        Ok(())
    }
}

impl PrivateKey {
    /// The associated public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Standard decryption: `m = L(c^λ mod n²) · μ mod n`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.public.validate(c)?;
        let u = self.public.pow_mod_nn(&c.0, &self.lambda);
        let ell = l_function(&u, &self.public.n).ok_or(PaillierError::InvalidCiphertext)?;
        Ok(modular::mod_mul(&ell, &self.mu, &self.public.n))
    }

    /// CRT decryption (Paillier §7 "decryption using Chinese remaindering"):
    /// roughly 4× faster than [`PrivateKey::decrypt`] at equal key size.
    pub fn decrypt_crt(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.public.validate(c)?;
        self.decrypt_crt_prevalidated(c)
    }

    /// CRT decryption for a ciphertext already checked by
    /// [`PublicKey::validate`] or [`PublicKey::validate_many`] — skips the
    /// per-ciphertext GCD so batch callers pay one batch inversion up front
    /// instead of `k` GCDs. The math still rejects malformed inputs (the
    /// `L` functions fail), but the error *position* within a batch is only
    /// guaranteed to match sequential decryption when validation ran first.
    pub fn decrypt_crt_prevalidated(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        let crt = &self.crt;
        let one = BigUint::one();

        let cp = &c.0 % &crt.p_squared;
        let up = crt.mont_pp.pow_mod(&cp, &(&crt.p - &one));
        let lp = l_function_over(&up, &crt.p).ok_or(PaillierError::InvalidCiphertext)?;
        let mp = modular::mod_mul(&lp, &crt.hp, &crt.p);

        let cq = &c.0 % &crt.q_squared;
        let uq = crt.mont_qq.pow_mod(&cq, &(&crt.q - &one));
        let lq = l_function_over(&uq, &crt.q).ok_or(PaillierError::InvalidCiphertext)?;
        let mq = modular::mod_mul(&lq, &crt.hq, &crt.q);

        // Garner: m = mp + p·((mq - mp)·p^{-1} mod q)
        let diff = mq.sub_mod(&(&mp % &crt.q), &crt.q);
        let t = modular::mod_mul(&diff, &crt.p_inv_q, &crt.q);
        Ok(&mp + &(&crt.p * &t))
    }

    /// The keyholder's per-message step: a nonce drawn through
    /// [`PublicKey::sample_nonce`]'s loop, accepted by the factors
    /// (`r mod p ≠ 0 ∧ r mod q ≠ 0`, the set `gcd(r, n) = 1` accepts, so
    /// the draws and the stream position after them are the public
    /// side's), and its power `r^n mod n²` from those two residues.
    pub(crate) fn draw_nonce_power<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let (r, rp, rq) = self.public.sample_nonce_by(rng, |r| {
            let (rp, rq) = self.crt.unit_residues(&r)?;
            Some((r, rp, rq))
        });
        let power = self.nonce_power(&rp, &rq);
        debug_assert_eq!(power, self.public.pow_mod_nn(&r, &self.public.n));
        power
    }

    /// `r^n mod n²` from `r_p = r mod p` and `r_q = r mod q` (both nonzero)
    /// through the `p`-th-power map. Modulo `p²`, `r^n = (r^q)^p`, and
    /// `u ↦ u^p mod p²` depends only on `u mod p` (`(u + kp)^p ≡ u^p`), so
    /// `r^n mod p² = s_p^p mod p²` with `s_p = r_p^{q mod (p−1)} mod p`
    /// (Fermat): a ladder mod `p` and a `p`-exponent ladder mod `p²`, both
    /// half-width exponents. The `q` twin likewise; Garner recombines the
    /// two into the *same* canonical residue the `n²` ladder returns.
    pub(crate) fn nonce_power(&self, rp: &BigUint, rq: &BigUint) -> BigUint {
        let crt = &self.crt;
        let sp = crt.mont_p.pow_mod(rp, &crt.q_mod_p_minus_1);
        let xp = crt.mont_pp.pow_mod(&sp, &crt.p);
        let sq = crt.mont_q.pow_mod(rq, &crt.p_mod_q_minus_1);
        let xq = crt.mont_qq.pow_mod(&sq, &crt.q);
        // Garner: x = xp + p²·((xq − xp)·(p²)^{-1} mod q²)
        let diff = xq.sub_mod(&(&xp % &crt.q_squared), &crt.q_squared);
        let t = modular::mod_mul(&diff, &crt.pp_inv_qq, &crt.q_squared);
        &xp + &(&crt.p_squared * &t)
    }

    /// The secret exponent `λ`.
    pub fn lambda(&self) -> &BigUint {
        &self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{rng, shared_keypair};

    #[test]
    fn generated_key_has_requested_size() {
        let mut r = rng(1);
        for bits in [16usize, 32, 64, 128] {
            let kp = Keypair::generate(bits, &mut r);
            assert_eq!(kp.public.bits(), bits, "{bits}");
        }
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn tiny_key_rejected() {
        let mut r = rng(2);
        let _ = Keypair::generate(8, &mut r);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_key_size_rejected() {
        let mut r = rng(2);
        let _ = Keypair::generate(65, &mut r);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = shared_keypair();
        let mut r = rng(3);
        for m in [0u64, 1, 42, 0xFFFF_FFFF] {
            let m = BigUint::from_u64(m);
            let c = kp.public.encrypt(&m, &mut r).unwrap();
            assert_eq!(kp.private.decrypt(&c).unwrap(), m);
        }
    }

    #[test]
    fn decrypt_crt_matches_standard() {
        let kp = shared_keypair();
        let mut r = rng(4);
        for _ in 0..10 {
            let m = random::gen_biguint_below(&mut r, kp.public.n());
            let c = kp.public.encrypt(&m, &mut r).unwrap();
            assert_eq!(kp.private.decrypt(&c).unwrap(), m);
            assert_eq!(kp.private.decrypt_crt(&c).unwrap(), m);
        }
    }

    #[test]
    fn largest_message_roundtrips() {
        let kp = shared_keypair();
        let mut r = rng(5);
        let m = &kp.public.n - &BigUint::one();
        let c = kp.public.encrypt(&m, &mut r).unwrap();
        assert_eq!(kp.private.decrypt_crt(&c).unwrap(), m);
    }

    #[test]
    fn message_out_of_range_rejected() {
        let kp = shared_keypair();
        let mut r = rng(6);
        assert_eq!(
            kp.public.encrypt(&kp.public.n.clone(), &mut r).unwrap_err(),
            PaillierError::MessageOutOfRange
        );
    }

    #[test]
    fn encryption_is_probabilistic() {
        let kp = shared_keypair();
        let mut r = rng(7);
        let m = BigUint::from_u64(99);
        let c1 = kp.public.encrypt(&m, &mut r).unwrap();
        let c2 = kp.public.encrypt(&m, &mut r).unwrap();
        assert_ne!(c1, c2, "fresh nonces must give distinct ciphertexts");
        assert_eq!(kp.private.decrypt(&c1).unwrap(), m);
        assert_eq!(kp.private.decrypt(&c2).unwrap(), m);
    }

    #[test]
    fn deterministic_with_fixed_nonce() {
        let kp = shared_keypair();
        let m = BigUint::from_u64(5);
        let nonce = BigUint::from_u64(12345);
        let c1 = kp.public.encrypt_with_nonce(&m, &nonce).unwrap();
        let c2 = kp.public.encrypt_with_nonce(&m, &nonce).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn invalid_ciphertexts_rejected() {
        let kp = shared_keypair();
        let zero = Ciphertext::from_biguint(BigUint::zero());
        assert_eq!(
            kp.private.decrypt(&zero).unwrap_err(),
            PaillierError::InvalidCiphertext
        );
        let too_big = Ciphertext::from_biguint(kp.public.n_squared().clone());
        assert_eq!(
            kp.private.decrypt(&too_big).unwrap_err(),
            PaillierError::InvalidCiphertext
        );
    }

    #[test]
    fn ciphertext_raw_roundtrip() {
        let kp = shared_keypair();
        let mut r = rng(8);
        let m = BigUint::from_u64(1234);
        let c = kp.public.encrypt(&m, &mut r).unwrap();
        let wire = c.as_biguint().clone();
        let back = Ciphertext::from_biguint(wire);
        assert_eq!(kp.private.decrypt(&back).unwrap(), m);
    }

    #[test]
    fn from_modulus_matches_generated_public_key() {
        let kp = shared_keypair();
        let mut r = rng(40);
        let rebuilt = PublicKey::from_modulus(kp.public.n().clone()).unwrap();
        let m = BigUint::from_u64(777);
        let c = rebuilt.encrypt(&m, &mut r).unwrap();
        assert_eq!(kp.private.decrypt(&c).unwrap(), m);
        assert_eq!(rebuilt.n_squared(), kp.public.n_squared());
        assert_eq!(rebuilt.g(), kp.public.g());
    }

    #[test]
    fn from_modulus_rejects_bad_n() {
        assert!(PublicKey::from_modulus(BigUint::from_u64(100)).is_err()); // even
        assert!(PublicKey::from_modulus(BigUint::from_u64(3)).is_err()); // tiny
    }

    #[test]
    fn distinct_keys_decrypt_differently() {
        let mut r = rng(9);
        let kp1 = Keypair::generate(64, &mut r);
        let kp2 = Keypair::generate(64, &mut r);
        assert_ne!(kp1.public.n(), kp2.public.n());
    }

    #[test]
    fn encrypt_many_matches_sequential_encrypt() {
        let kp = shared_keypair();
        let n = kp.public.n().clone();
        let ms: Vec<BigUint> = (0..7u64)
            .map(|i| random::gen_biguint_below(&mut rng(300 + i), &n))
            .collect();
        let mut seq_rng = rng(77);
        let mut batch_rng = rng(77);
        let seq: Vec<Ciphertext> = ms
            .iter()
            .map(|m| kp.public.encrypt(m, &mut seq_rng).unwrap())
            .collect();
        let batch = kp.public.encrypt_many(&ms, &mut batch_rng).unwrap();
        assert_eq!(seq, batch, "batched r^n must not change ciphertext bytes");
        // Both paths must also leave the rng at the same stream position.
        assert_eq!(
            random::gen_biguint_bits(&mut seq_rng, 64),
            random::gen_biguint_bits(&mut batch_rng, 64)
        );
    }

    /// The keyholder's nonce power is the ladder's residue, not merely
    /// congruent to it: every key size the suites use and the smallest,
    /// both orders of the factors (Garner is not symmetric in them), the
    /// edge units, `p + 1` and `q + 1` (≡ 1 modulo one factor only), and
    /// random units.
    #[test]
    fn crt_nonce_power_equals_the_ladder() {
        for (i, bits) in [16usize, 32, 64, 128, 512, 1024].into_iter().enumerate() {
            let mut r = rng(500 + i as u64);
            let kp = Keypair::generate(bits, &mut r);
            let crt = &kp.private.crt;
            let swapped = Keypair::assemble(
                kp.public.n.clone(),
                crt.q.clone(),
                crt.p.clone(),
                kp.private.lambda.clone(),
            )
            .expect("the same key with its factors exchanged");
            let n = kp.public.n();
            let mut nonces = vec![
                BigUint::one(),
                BigUint::from_u64(2),
                n - &BigUint::one(),
                &crt.p + 1u64,
                &crt.q + 1u64,
            ];
            nonces.extend((0..4).map(|_| kp.public.sample_nonce(&mut r)));
            for nonce in &nonces {
                let ladder = kp.public.pow_mod_nn(nonce, n);
                for (key, order) in [(&kp, "p, q"), (&swapped, "q, p")] {
                    let (rp, rq) = key.private.crt.unit_residues(nonce).expect("a unit");
                    assert_eq!(
                        key.private.nonce_power(&rp, &rq),
                        ladder,
                        "{bits} bits, factors {order}, nonce {nonce:?}"
                    );
                }
            }
        }
    }

    /// The factor test accepts exactly the public nonce set, checked on
    /// every `r < n` — every multiple of `p` and of `q` included.
    #[test]
    fn factor_unit_test_accepts_exactly_where_gcd_is_one() {
        for (seed, bits) in [(600u64, 16usize), (601, 20)] {
            let kp = Keypair::generate(bits, &mut rng(seed));
            let n = kp.public.n();
            let (mut r, mut rejected) = (BigUint::zero(), 0usize);
            while &r < n {
                let public = !r.is_zero() && modular::gcd(&r, n).is_one();
                let factors = kp.private.crt.unit_residues(&r).is_some();
                assert_eq!(factors, public, "{bits} bits, r = {r:?}");
                rejected += usize::from(!public);
                r = &r + 1u64;
            }
            // 0, then the p − 1 nonzero multiples of q and q − 1 of p.
            let crt = &kp.private.crt;
            let want = (&crt.p + &crt.q).to_u64().map(|s| s as usize - 1);
            assert_eq!(Some(rejected), want, "{bits} bits");
        }
    }

    /// At keys small enough that a few draws in a hundred are rejected,
    /// the keyholder consumes the public side's stream exactly: same
    /// ciphertexts, same position after them.
    #[test]
    fn keyholder_rejects_the_draws_the_public_side_rejects() {
        let mut rejected = 0;
        for (i, bits) in [16usize, 18, 20, 22, 24].into_iter().enumerate() {
            let kp = Keypair::generate(bits, &mut rng(700 + i as u64));
            let n = kp.public.n().clone();
            let mut msg_rng = rng(710 + i as u64);
            let ms: Vec<BigUint> = (0..500)
                .map(|_| random::gen_biguint_below(&mut msg_rng, &n))
                .collect();
            let (mut pub_rng, mut key_rng) = (rng(720 + i as u64), rng(720 + i as u64));
            // Count what the public loop rejects on a copy of the stream.
            let mut count_rng = rng(720 + i as u64);
            for _ in 0..ms.len() {
                kp.public.sample_nonce_by(&mut count_rng, |r| {
                    let unit = !r.is_zero() && modular::gcd(&r, &n).is_one();
                    rejected += usize::from(!unit);
                    unit.then_some(())
                });
            }
            assert_eq!(
                kp.encrypt_many(&ms, &mut key_rng).unwrap(),
                kp.public.encrypt_many(&ms, &mut pub_rng).unwrap(),
                "{bits} bits"
            );
            let next = random::gen_biguint_bits(&mut pub_rng, 64);
            assert_eq!(random::gen_biguint_bits(&mut key_rng, 64), next);
            assert_eq!(random::gen_biguint_bits(&mut count_rng, 64), next);
        }
        assert!(rejected >= 5, "only {rejected} draws rejected in all");
    }

    #[test]
    fn keyholder_encryption_is_byte_equal_to_public_encryption() {
        let kp = shared_keypair();
        let n = kp.public.n().clone();
        let ms: Vec<BigUint> = (0..7u64)
            .map(|i| random::gen_biguint_below(&mut rng(400 + i), &n))
            .collect();
        let (mut pub_rng, mut key_rng) = (rng(78), rng(78));
        let want = kp.public.encrypt_many(&ms, &mut pub_rng).unwrap();
        let got = kp.encrypt_many(&ms, &mut key_rng).unwrap();
        assert_eq!(got, want);
        // One at a time from the same stream position, too.
        let m = BigUint::from_u64(9);
        assert_eq!(
            kp.encrypt(&m, &mut key_rng).unwrap(),
            kp.public.encrypt(&m, &mut pub_rng).unwrap(),
        );
        assert_eq!(
            random::gen_biguint_bits(&mut key_rng, 64),
            random::gen_biguint_bits(&mut pub_rng, 64)
        );
        assert_eq!(
            kp.encrypt(&n, &mut rng(1)).unwrap_err(),
            PaillierError::MessageOutOfRange
        );
    }

    #[test]
    fn validate_many_matches_sequential_validation() {
        let kp = shared_keypair();
        let mut r = rng(43);
        let good: Vec<Ciphertext> = (0..20)
            .map(|i| kp.public.encrypt(&BigUint::from_u64(i), &mut r).unwrap())
            .collect();
        assert!(kp.public.validate_many(&good).is_ok());
        assert!(kp.public.validate_many(&[]).is_ok());

        // Any bad element fails the batch with the same error a sequential
        // loop reports.
        for bad in [
            Ciphertext::from_biguint(BigUint::zero()),
            Ciphertext::from_biguint(kp.public.n_squared().clone()),
            Ciphertext::from_biguint(kp.public.n().clone()), // gcd(c, n) = n
        ] {
            let mut batch = good.clone();
            batch[7] = bad;
            assert_eq!(
                kp.public.validate_many(&batch).unwrap_err(),
                PaillierError::InvalidCiphertext
            );
        }
    }

    #[test]
    fn decrypt_crt_prevalidated_matches_decrypt_crt() {
        let kp = shared_keypair();
        let mut r = rng(44);
        for _ in 0..10 {
            let m = random::gen_biguint_below(&mut r, kp.public.n());
            let c = kp.public.encrypt(&m, &mut r).unwrap();
            assert_eq!(kp.private.decrypt_crt_prevalidated(&c).unwrap(), m);
        }
    }
}
