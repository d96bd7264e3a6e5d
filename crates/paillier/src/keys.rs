//! Key generation, encryption and decryption.

use crate::dgk::{DgkPrivateKey, DgkPublicKey, MIN_DGK_BITS};
use crate::error::PaillierError;
use ppds_bigint::modular::{self, Crt};
use ppds_bigint::{prime, random, BigUint, FixedBaseTable, MontgomeryCtx};
use rand::Rng;
use std::sync::Arc;

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
    /// The holder's DGK comparison key, which the comparison protocol
    /// encrypts under (`ppds_smc::bitwise`): present on a generated key of
    /// at least [`crate::MIN_DGK_BITS`] bits, and attached to a peer's key
    /// when the session agrees on DGK.
    dgk: Option<Arc<DgkPublicKey>>,
}

/// The private half: `(λ, μ)` from §3.7, plus the factorization and CRT
/// precomputations for fast decryption.
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    lambda: BigUint,
    mu: BigUint,
    crt: CrtContext,
    /// The DGK comparison key generated beside the Paillier one (none
    /// below [`crate::MIN_DGK_BITS`]).
    dgk: Option<Arc<DgkPrivateKey>>,
}

/// Precomputed state for Paillier decryption by Chinese remaindering, and
/// for the keyholder's randomizers `h^s` (see [`PrivateKey::h_pow_many`]).
#[derive(Clone)]
struct CrtContext {
    /// Garner recombination mod `n`, over `p` and `q`.
    mod_n: Crt,
    /// Garner recombination mod `n²`, over `p²` and `q²`.
    mod_nn: Crt,
    mont_pp: MontgomeryCtx,
    mont_qq: MontgomeryCtx,
    /// `L_p(g^{p-1} mod p²)^{-1} mod p` (decryption; unrelated to `h`).
    hp: BigUint,
    /// `L_q(g^{q-1} mod q²)^{-1} mod q` (decryption; unrelated to `h`).
    hq: BigUint,
    /// `p − 1` and `q − 1`: multiples of the orders of `h mod p²` and
    /// `h mod q²`, by which a randomizer exponent is reduced per half.
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// The secret randomizer base `h = x^n mod n²`, an `n`-th residue.
    h: BigUint,
    /// Lim–Lee combs for `h mod p²` and `h mod q²`, shared by every clone
    /// of the key (a session clones its keypair).
    h_combs: Arc<[FixedBaseTable; 2]>,
}

/// Teeth of the keyholder's combs: two blocks of `2^8` rows, 64 KiB a prime
/// at 1024-bit keys, and 31 squarings + 64 products for a 512-bit exponent.
const H_COMB_TEETH: usize = 8;

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
    /// Then, from the same `rng`, the keyholder's secret randomizer base
    /// `h = x^n mod n²` for a uniform unit `x` with `x mod p ∉ {0, 1}` and
    /// `x mod q ∉ {0, 1}` (so `h` is not 1 modulo `p²` nor `q²`). `x` is
    /// drawn after the primes, so a seed's `n` does not depend on it.
    /// Last, from the same `rng`, a DGK comparison key of the same size,
    /// which rides in both halves — unless `bits` is below
    /// [`crate::MIN_DGK_BITS`], where the keypair has no DGK half.
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
            let x = loop {
                let x = random::gen_biguint_below(rng, &n);
                if &x % &p > one && &x % &q > one {
                    break x;
                }
            };
            let keypair = Self::paillier_public(n)
                .and_then(|public| Self::assemble(public, p, q, lambda, &x));
            match keypair {
                Some(keypair) if bits >= MIN_DGK_BITS => {
                    return keypair.with_dgk(DgkPrivateKey::generate(bits, rng));
                }
                Some(keypair) => return keypair,
                None => continue,
            }
        }
    }

    /// This keypair with `dgk` as its DGK half, the public part of which
    /// rides in both [`PublicKey`]s.
    fn with_dgk(self, dgk: DgkPrivateKey) -> Keypair {
        let public = self.public.with_dgk(dgk.public().clone());
        Keypair {
            private: PrivateKey {
                public: public.clone(),
                dgk: Some(Arc::new(dgk)),
                ..self.private
            },
            public,
        }
    }

    /// Keyholder-side [`PublicKey::encrypt_many`]: `g^m · h^s mod n²` with
    /// `s` uniform below `λ` and `h` the key's secret `n`-th residue, by the
    /// factorization only this side holds (`PrivateKey::h_pow_many`).
    /// Decrypts, combines and packs exactly as a public encryption does;
    /// DESIGN.md §2 gives the IND-CPA argument. Neither `h` nor the
    /// factors enter the [`PublicKey`], which is what a peer rebuilds from
    /// the wire. A one-group [`Keypair::encrypt_groups`].
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        let mut groups = self.encrypt_groups([(ms, rng)])?;
        groups.pop().ok_or(PaillierError::MessageOutOfRange)
    }

    /// [`Keypair::encrypt_many`] for groups of messages, each group with
    /// its own stream: a group's messages draw their `s`, one message after
    /// another, as they would one call each; then every message's two comb
    /// scans run in one [`FixedBaseTable::pow_many`] per comb, eight at a
    /// time where the combs' contexts run the eight-lane product, and a
    /// Garner step a message recombines its halves. A message outside
    /// `Z_n` is [`PaillierError::MessageOutOfRange`], before its group
    /// draws.
    pub fn encrypt_groups<'a, R: Rng>(
        &self,
        groups: impl IntoIterator<Item = (&'a [BigUint], R)>,
    ) -> Result<Vec<Vec<Ciphertext>>, PaillierError> {
        debug_assert_eq!(self.public.n, self.private.public.n, "halves of one key");
        let (mut messages, mut lens, mut exps) = (Vec::new(), Vec::new(), Vec::new());
        for (group, mut rng) in groups {
            self.public.check_messages(group)?;
            let lambda = &self.private.lambda;
            exps.extend(
                group
                    .iter()
                    .map(|_| random::gen_biguint_below(&mut rng, lambda)),
            );
            messages.extend(group);
            lens.push(group.len());
        }
        let rhos = self.private.h_pow_many(&exps);
        let mut cts = messages
            .into_iter()
            .zip(&rhos)
            .map(|(m, rho)| self.public.seal(m, rho));
        Ok(lens
            .into_iter()
            .map(|len| cts.by_ref().take(len).collect())
            .collect())
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

    /// The public half for a modulus `n` (odd and > 1), with no DGK key.
    fn paillier_public(n: BigUint) -> Option<PublicKey> {
        let n_squared = n.square();
        Some(PublicKey {
            half_n: &(&n - &BigUint::one()) >> 1usize,
            g: &n + 1u64,
            mont_nn: MontgomeryCtx::new(&n_squared)?,
            mont_n: MontgomeryCtx::new(&n)?,
            n,
            n_squared,
            dgk: None,
        })
    }

    fn assemble(
        public: PublicKey,
        p: BigUint,
        q: BigUint,
        lambda: BigUint,
        x: &BigUint,
    ) -> Option<Keypair> {
        let (n, mont_nn) = (&public.n, &public.mont_nn);
        // μ = (L(g^λ mod n²))^{-1} mod n. For g = n+1 this equals λ^{-1},
        // but compute it generically so the math matches the paper line by
        // line.
        let g_lambda = mont_nn.pow_mod(&public.g, &lambda);
        let ell = l_function(&g_lambda, n)?;
        let mu = modular::mod_inverse(&ell, n)?;
        let h = mont_nn.pow_mod(x, n);

        let crt = CrtContext::new(&public, &p, &q, h)?;
        Some(Keypair {
            private: PrivateKey {
                public: public.clone(),
                lambda,
                mu,
                crt,
                dgk: None,
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
    fn new(public: &PublicKey, p: &BigUint, q: &BigUint, h: BigUint) -> Option<CrtContext> {
        let one = BigUint::one();
        let mod_n = Crt::new(p.clone(), q.clone())?;
        let mod_nn = Crt::new(p.square(), q.square())?;
        let (p_squared, q_squared) = mod_nn.moduli();
        let mont_pp = MontgomeryCtx::new(p_squared)?;
        let mont_qq = MontgomeryCtx::new(q_squared)?;
        let g = &public.g;
        let p_minus_1 = p - &one;
        let q_minus_1 = q - &one;

        // hp = L_p(g^{p-1} mod p²)^{-1} mod p, with L_p(u) = (u-1)/p.
        let gp = mont_pp.pow_mod(&(g % p_squared), &p_minus_1);
        let lp = l_function_over(&gp, p)?;
        let hp = modular::mod_inverse(&lp, p)?;
        let gq = mont_qq.pow_mod(&(g % q_squared), &q_minus_1);
        let lq = l_function_over(&gq, q)?;
        let hq = modular::mod_inverse(&lq, q)?;
        let h_combs = Arc::new([
            FixedBaseTable::new(
                &mont_pp,
                &(&h % p_squared),
                H_COMB_TEETH,
                p_minus_1.bit_length(),
            ),
            FixedBaseTable::new(
                &mont_qq,
                &(&h % q_squared),
                H_COMB_TEETH,
                q_minus_1.bit_length(),
            ),
        ]);

        Some(CrtContext {
            mod_n,
            mod_nn,
            mont_pp,
            mont_qq,
            hp,
            hq,
            p_minus_1,
            q_minus_1,
            h,
            h_combs,
        })
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
        let requested = n.bit_length();
        let too_small = PaillierError::KeyTooSmall {
            requested,
            minimum: MIN_KEY_BITS,
        };
        if requested < MIN_KEY_BITS {
            return Err(too_small);
        }
        // An even `n` has no Montgomery context.
        Keypair::paillier_public(n).ok_or(too_small)
    }

    /// This key with the holder's DGK comparison key attached — how a
    /// party completes its peer's key once the session has agreed on DGK
    /// comparisons and the peer has sent it.
    pub fn with_dgk(self, dgk: Arc<DgkPublicKey>) -> PublicKey {
        PublicKey {
            dgk: Some(dgk),
            ..self
        }
    }

    /// The holder's DGK comparison key, if this key carries one.
    pub fn dgk(&self) -> Option<&DgkPublicKey> {
        self.dgk.as_deref()
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

    /// Samples a uniform nonce from `Z*_n`: uniform draws below `n` until
    /// one is a unit.
    pub fn sample_nonce<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let r = random::gen_biguint_below(rng, &self.n);
            if !r.is_zero() && modular::gcd(&r, &self.n).is_one() {
                return r;
            }
        }
    }

    /// The public side's per-message step: a fresh nonce `r` and its power
    /// `r^n mod n²` by the ladder mod `n²` — a uniform `n`-th residue,
    /// which is also `E(0)`.
    pub(crate) fn draw_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
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
    /// with the same `rng`: every message is checked against `Z_n` before
    /// anything is drawn, then nonces are rejection-sampled from the
    /// identical stream positions, one message after the other.
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        self.check_messages(ms)?;
        Ok(ms
            .iter()
            .map(|m| self.seal(m, &self.draw_randomizer(rng)))
            .collect())
    }

    /// Refuses a batch with a message outside `Z_n`.
    pub(crate) fn check_messages(&self, ms: &[BigUint]) -> Result<(), PaillierError> {
        match ms.iter().any(|m| m >= &self.n) {
            true => Err(PaillierError::MessageOutOfRange),
            false => Ok(()),
        }
    }

    /// `g^m · ρ mod n²` for an `n`-th residue `ρ`: the one step a party
    /// that knows `n` alone (`ρ = r^n`, [`PublicKey::draw_randomizer`])
    /// and the keyholder (`ρ = h^s`, [`PrivateKey::h_pow_many`]) share.
    pub(crate) fn seal(&self, m: &BigUint, rho: &BigUint) -> Ciphertext {
        Ciphertext(self.mul_mod_nn(&self.g_pow(m), rho))
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
        let ((p, q), (p_squared, q_squared)) = (crt.mod_n.moduli(), crt.mod_nn.moduli());

        let up = crt.mont_pp.pow_mod(&(&c.0 % p_squared), &crt.p_minus_1);
        let lp = l_function_over(&up, p).ok_or(PaillierError::InvalidCiphertext)?;
        let mp = modular::mod_mul(&lp, &crt.hp, p);

        let uq = crt.mont_qq.pow_mod(&(&c.0 % q_squared), &crt.q_minus_1);
        let lq = l_function_over(&uq, q).ok_or(PaillierError::InvalidCiphertext)?;
        let mq = modular::mod_mul(&lq, &crt.hq, q);

        Ok(crt.mod_n.combine(&mp, &mq))
    }

    /// `h^s mod n²` for each `s`, from the two combs. `h mod p² = x^{pq}
    /// mod p²` has an order dividing `p − 1` (the `p`-th power kills the
    /// order-`p` part of `Z*_{p²}`), so its half is `h^{s mod (p−1)} mod
    /// p²` — a comb scan over a half-width exponent, every `s` of the
    /// batch in one [`FixedBaseTable::pow_many`]. The `q` twin likewise;
    /// Garner recombines the two into the canonical residue the `n²`
    /// ladder returns. With `s` uniform below `λ`, `h^s` is uniform over
    /// `⟨h⟩`, since `ord(h)` divides `λ` (DESIGN.md §2).
    pub(crate) fn h_pow_many(&self, exps: &[BigUint]) -> Vec<BigUint> {
        let crt = &self.crt;
        let [comb_p, comb_q] = &*crt.h_combs;
        let halves = |m: &BigUint| exps.iter().map(|s| s % m).collect::<Vec<_>>();
        let xp = comb_p.pow_many(&halves(&crt.p_minus_1));
        let xq = comb_q.pow_many(&halves(&crt.q_minus_1));
        let rhos: Vec<BigUint> = xp
            .iter()
            .zip(&xq)
            .map(|(xp, xq)| crt.mod_nn.combine(xp, xq))
            .collect();
        debug_assert!(exps
            .iter()
            .zip(&rhos)
            .all(|(s, rho)| rho == &self.public.pow_mod_nn(&crt.h, s)));
        rhos
    }

    /// [`PrivateKey::h_pow_many`] of one exponent.
    #[cfg(test)]
    fn h_pow(&self, s: &BigUint) -> BigUint {
        self.h_pow_many(std::slice::from_ref(s)).remove(0)
    }

    /// The secret exponent `λ`.
    pub fn lambda(&self) -> &BigUint {
        &self.lambda
    }

    /// The DGK comparison key generated with this one, if the key is of
    /// at least [`crate::MIN_DGK_BITS`] bits.
    pub fn dgk(&self) -> Option<&DgkPrivateKey> {
        self.dgk.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{rng, shared_keypair};
    use crate::SlotLayout;
    use std::collections::HashMap;

    impl PublicKey {
        /// Encrypts with a caller-chosen nonce (deterministic).
        fn encrypt_with_nonce(
            &self,
            m: &BigUint,
            nonce: &BigUint,
        ) -> Result<Ciphertext, PaillierError> {
            if m >= &self.n {
                return Err(PaillierError::MessageOutOfRange);
            }
            let r_to_n = self.mont_nn.pow_mod(nonce, &self.n);
            Ok(Ciphertext(self.mul_mod_nn(&self.g_pow(m), &r_to_n)))
        }
    }

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

    /// One grouped keyholder encryption is, byte for byte, the one-message
    /// [`Keypair::encrypt`] calls on the same streams, and the ladder chain
    /// `g^m · h^s mod n²` with `s` drawn from each: at 256-, 512- and
    /// 1024-bit keys (the scalar kernel, and the eight-lane product at 10
    /// and 20 digits), over batch sizes that fill a group of eight, fall
    /// short of one or spill past it, each cut into uneven groups with
    /// empty ones between; every stream is left where the one-message
    /// calls leave it. A message outside `Z_n` refuses the call.
    #[test]
    fn grouped_encryption_equals_one_message_calls_on_the_same_streams() {
        let keys = [
            (shared_keypair(), 256),
            (&Keypair::generate(512, &mut rng(0x512)), 512),
            (&Keypair::generate(1024, &mut rng(0x1024)), 1024),
        ];
        for (kp, bits) in keys {
            assert_eq!(kp.public.bits(), bits);
            let n = kp.public.n();
            let mut draws = rng(bits as u64);
            for size in [0usize, 1, 2, 3, 4, 7, 8, 9, 17] {
                let ms: Vec<BigUint> = (0..size)
                    .map(|_| random::gen_biguint_below(&mut draws, n))
                    .collect();
                // One group of all, and uneven groups around empty ones.
                let cut = [size / 3, size / 3, size / 2];
                let pieces = [
                    vec![&ms[..]],
                    vec![
                        &ms[..0],
                        &ms[..cut[0]],
                        &ms[cut[1]..cut[2]],
                        &ms[..0],
                        &ms[cut[2]..],
                    ],
                ];
                for (cut, groups) in pieces.iter().enumerate() {
                    let seed = |g: usize| 1000 * size as u64 + 10 * g as u64 + cut as u64;
                    let mut streams: Vec<_> = (0..groups.len()).map(|g| rng(seed(g))).collect();
                    let got = kp
                        .encrypt_groups(groups.iter().copied().zip(streams.iter_mut()))
                        .unwrap();
                    assert_eq!(got.len(), groups.len());
                    for (g, (group, cts)) in groups.iter().zip(&got).enumerate() {
                        let label = format!("{bits} bits, {size} messages, cut {cut}, group {g}");
                        let mut one = rng(seed(g));
                        let singles: Vec<Ciphertext> = group
                            .iter()
                            .map(|m| kp.encrypt(m, &mut one).unwrap())
                            .collect();
                        assert_eq!(cts, &singles, "{label}");
                        let mut chain = rng(seed(g));
                        let ladder: Vec<Ciphertext> = group
                            .iter()
                            .map(|m| {
                                let s = random::gen_biguint_below(&mut chain, &kp.private.lambda);
                                let rho = kp.public.pow_mod_nn(&kp.private.crt.h, &s);
                                Ciphertext(kp.public.mul_mod_nn(&kp.public.g_pow(m), &rho))
                            })
                            .collect();
                        assert_eq!(cts, &ladder, "{label}: the ladder chain");
                        assert_eq!(
                            random::gen_biguint_bits(&mut streams[g], 64),
                            random::gen_biguint_bits(&mut one, 64),
                            "{label}: stream position"
                        );
                    }
                }
            }
            let refused = kp.encrypt_groups([
                (&[BigUint::one()][..], rng(1)),
                (std::slice::from_ref(n), rng(2)),
            ]);
            assert_eq!(refused.unwrap_err(), PaillierError::MessageOutOfRange);
        }
    }

    /// `key` with its factors exchanged and the same `h`: Garner is not
    /// symmetric in the factors, so both orders are checked.
    fn swapped(key: &PrivateKey) -> PrivateKey {
        let crt = &key.crt;
        let mut swapped = key.clone();
        let (p, q) = crt.mod_n.moduli();
        swapped.crt = CrtContext::new(&key.public, q, p, crt.h.clone())
            .expect("the same key with its factors exchanged");
        swapped
    }

    /// The comb path is the `n²` ladder's residue on `h`, not merely
    /// congruent to it: every key size the suites use and the smallest,
    /// both orders of the factors, the exponents at the edges of the
    /// per-half reductions (`p − 1`, `q − 1`, `λ − 1`) and random ones.
    #[test]
    fn comb_path_equals_the_ladder_on_h() {
        for (i, bits) in [16usize, 32, 64, 128, 512, 1024].into_iter().enumerate() {
            let mut r = rng(500 + i as u64);
            let kp = Keypair::generate(bits, &mut r);
            let key = &kp.private;
            let (crt, one) = (&key.crt, BigUint::one());
            let mut exps = vec![
                BigUint::zero(),
                one.clone(),
                crt.p_minus_1.clone(),
                crt.q_minus_1.clone(),
                &key.lambda - &one,
            ];
            exps.extend((0..3).map(|_| random::gen_biguint_below(&mut r, &key.lambda)));
            for s in &exps {
                let ladder = kp.public.pow_mod_nn(&crt.h, s);
                for (key, order) in [(key, "p, q"), (&swapped(key), "q, p")] {
                    assert_eq!(
                        key.h_pow(s),
                        ladder,
                        "{bits} bits, factors {order}, s {s:?}"
                    );
                }
            }
        }
    }

    /// `ρ = h^s` with `s` uniform below `λ` is uniform over `⟨h⟩`: over
    /// every `s < λ`, each element of the subgroup is hit exactly
    /// `λ / |⟨h⟩|` times, and each is an `n`-th residue (`ρ^λ ≡ 1`).
    #[test]
    fn randomizers_are_uniform_over_the_subgroup_of_h() {
        for (seed, bits) in [(600u64, 16usize), (601, 20)] {
            let kp = Keypair::generate(bits, &mut rng(seed));
            let key = &kp.private;
            let (h, one) = (&key.crt.h, BigUint::one());
            let mut hits: HashMap<BigUint, u64> = HashMap::new();
            let mut element = one.clone();
            loop {
                hits.insert(element.clone(), 0);
                element = kp.public.mul_mod_nn(&element, h);
                if element == one {
                    break;
                }
            }
            let (lambda, order) = (key.lambda.to_u64().unwrap(), hits.len() as u64);
            assert_eq!(lambda % order, 0, "{bits} bits: ord(h) divides λ");
            for s in 0..lambda {
                let rho = key.h_pow(&BigUint::from_u64(s));
                *hits.get_mut(&rho).expect("h^s lies in ⟨h⟩") += 1;
            }
            for (rho, count) in &hits {
                assert_eq!(*count, lambda / order, "{bits} bits, ρ = {rho:?}");
                assert!(kp.public.pow_mod_nn(rho, &key.lambda).is_one());
            }
        }
    }

    /// Keyholder ciphertexts are ordinary ciphertexts: both decryption
    /// paths, `add`, `mul_plain`, `rerandomize` and packing take them as
    /// they take public ones. A batch is the sequence of single
    /// encryptions from the same stream, and a message outside `Z_n` is
    /// refused before anything is drawn.
    #[test]
    fn keyholder_ciphertexts_decrypt_and_compose_like_public_ones() {
        let kp = shared_keypair();
        let n = kp.public.n().clone();
        let mut r = rng(78);
        let ms: Vec<BigUint> = (0..7)
            .map(|_| random::gen_biguint_below(&mut r, &n))
            .collect();
        let (mut batch_rng, mut seq_rng) = (rng(79), rng(79));
        let cts = kp.encrypt_many(&ms, &mut batch_rng).unwrap();
        let seq: Vec<Ciphertext> = ms
            .iter()
            .map(|m| kp.encrypt(m, &mut seq_rng).unwrap())
            .collect();
        assert_eq!(cts, seq);
        assert_eq!(
            random::gen_biguint_bits(&mut batch_rng, 64),
            random::gen_biguint_bits(&mut seq_rng, 64)
        );
        for (c, m) in cts.iter().zip(&ms) {
            assert_eq!(kp.private.decrypt(c).unwrap(), *m);
            assert_eq!(kp.private.decrypt_crt(c).unwrap(), *m);
            let fresh = kp.public.rerandomize(c, &mut r);
            assert_ne!(&fresh, c);
            assert_eq!(kp.private.decrypt_crt(&fresh).unwrap(), *m);
        }
        let public = kp.public.encrypt(&ms[1], &mut r).unwrap();
        let sum = kp.public.add(&cts[0], &public);
        assert_eq!(
            kp.private.decrypt_crt(&sum).unwrap(),
            ms[0].add_mod(&ms[1], &n)
        );
        let k = BigUint::from_u64(1 << 40);
        let scaled = kp.public.mul_plain(&cts[2], &k);
        assert_eq!(
            kp.private.decrypt_crt(&scaled).unwrap(),
            &(&ms[2] * &k) % &n
        );

        let layout = SlotLayout::new(kp.public.bits(), 16).unwrap();
        let slots: Vec<u64> = (0..2 * layout.capacity() as u64 + 3).collect();
        let items = kp
            .encrypt_many(
                &slots
                    .iter()
                    .map(|&v| BigUint::from_u64(v))
                    .collect::<Vec<_>>(),
                &mut r,
            )
            .unwrap();
        let plain: Vec<BigUint> = slots.iter().map(|&v| BigUint::from_u64(3 * v)).collect();
        let words = kp
            .public
            .pack_ciphertexts(&layout, &items, &plain, &mut r)
            .unwrap();
        let unpacked = kp
            .private
            .unpack_decrypt(&layout, &words, slots.len())
            .unwrap();
        let want: Vec<BigUint> = slots.iter().map(|&v| BigUint::from_u64(4 * v)).collect();
        assert_eq!(unpacked, want);

        assert_eq!(
            kp.encrypt(&n, &mut rng(1)).unwrap_err(),
            PaillierError::MessageOutOfRange
        );
    }

    /// `x` is drawn after the primes, so a seed's modulus is the one it
    /// gave before keys carried `h`: a digest of `n` at eight sizes,
    /// recorded at the commit before `h` existed. And `x ≢ 0, 1` modulo
    /// either factor, so `h` is a unit and not 1 in either half — checked
    /// on 300 16-bit keys, where `x ≡ 1 (mod p)` is a 1-in-200 draw — and
    /// an `n`-th residue (`h^λ ≡ 1 mod n²`).
    #[test]
    fn a_seed_keeps_its_modulus_and_h_is_not_one_in_either_half() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (i, bits) in [16usize, 20, 32, 64, 128, 256, 512, 1024]
            .into_iter()
            .enumerate()
        {
            let kp = Keypair::generate(bits, &mut rng(800 + i as u64));
            let bytes = kp.public.n().to_bytes_le();
            for b in (bytes.len() as u32).to_le_bytes().into_iter().chain(bytes) {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0x93ca_e634_1302_ef38, "measured {digest:#x}");
        for seed in 0..300 {
            let kp = Keypair::generate(16, &mut rng(900 + seed));
            let crt = &kp.private.crt;
            let (p_squared, q_squared) = crt.mod_nn.moduli();
            assert!(!(&crt.h % p_squared).is_one(), "seed {seed}");
            assert!(!(&crt.h % q_squared).is_one(), "seed {seed}");
            assert!(kp.public.pow_mod_nn(&crt.h, &kp.private.lambda).is_one());
        }
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
