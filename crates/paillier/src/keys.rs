//! Key generation, encryption and decryption.

use crate::error::PaillierError;
use crate::precompute::RandomizerPool;
use ppds_bigint::{modular, prime, random, BigUint, FixedBaseTable, MontgomeryCtx};
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
    g: BigUint,
    /// `g == n + 1`, the standard choice that makes `g^m mod n²` a single
    /// multiplication (`(1 + n)^m = 1 + m·n mod n²`).
    g_is_n_plus_one: bool,
    /// `(n - 1) / 2`: largest magnitude representable in the signed encoding.
    half_n: BigUint,
    mont_nn: MontgomeryCtx,
    /// Montgomery state for the *message-space* modulus `n`, shared by
    /// batch ciphertext validation (one batch inversion mod `n` instead of
    /// one GCD per ciphertext).
    mont_n: MontgomeryCtx,
    /// Optional precomputed-randomizer source (see
    /// [`PublicKey::with_randomizer_pool`]): when attached, every
    /// [`PublicKey::encrypt`] — and with it re-randomization, signed
    /// encryption, and packed-word encryption — consumes a pooled `r^n`
    /// when one is buffered instead of exponentiating inline.
    pool: Option<Arc<RandomizerPool>>,
    /// Optional key-lifetime exponentiation tables (see
    /// [`PublicKey::with_exp_kernels`]); like the randomizer pool, these
    /// ride along with key clones and never change any ciphertext byte.
    kernels: Option<Arc<ExpKernels>>,
}

/// Key-lifetime exponentiation-kernel tables attached to a [`PublicKey`]
/// by [`PublicKey::with_exp_kernels`].
///
/// Today this holds the windowed fixed-base comb for the general-`g`
/// encryption path (`g ≠ n+1`, see [`PublicKey::with_generator`]); keys
/// with the standard generator already beat any table via the
/// `(1+n)^m = 1 + mn` shortcut and carry no tables.
pub struct ExpKernels {
    /// Comb table for `g^m mod n²` covering exponents up to `n`'s width.
    g_table: FixedBaseTable,
}

impl std::fmt::Debug for ExpKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpKernels")
            .field("g_window", &self.g_table.window())
            .field("g_max_exp_bits", &self.g_table.max_exp_bits())
            .finish()
    }
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

/// Precomputed state for Paillier decryption by Chinese remaindering.
#[derive(Clone)]
struct CrtContext {
    p: BigUint,
    q: BigUint,
    p_squared: BigUint,
    q_squared: BigUint,
    mont_pp: MontgomeryCtx,
    mont_qq: MontgomeryCtx,
    /// `L_p(g^{p-1} mod p²)^{-1} mod p`.
    hp: BigUint,
    /// `L_q(g^{q-1} mod q²)^{-1} mod q`.
    hq: BigUint,
    /// `p^{-1} mod q` for Garner recombination.
    p_inv_q: BigUint,
    /// `n mod p(p−1)` and `n mod q(q−1)`: the nonce exponent reduced by the
    /// orders of `Z*_{p²}` and `Z*_{q²}` (see [`PrivateKey::nonce_power`]).
    n_mod_pp_order: BigUint,
    n_mod_qq_order: BigUint,
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
    /// byte for byte, from the same `rng` draws and the same pool hits
    /// (the pool attached to `self.public`, if any), with every fresh
    /// nonce power taken by CRT under the factorization only this side
    /// holds (`PrivateKey::nonce_power`). The factors never enter the
    /// [`PublicKey`], which is what a peer rebuilds from the wire.
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        debug_assert_eq!(self.public.n, self.private.public.n, "halves of one key");
        self.public.encrypt_many_by(ms, rng, |nonces| {
            nonces.iter().map(|r| self.private.nonce_power(r)).collect()
        })
    }

    /// Keyholder-side [`PublicKey::encrypt`] (see [`Keypair::encrypt_many`]).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        let mut cts = self.encrypt_many(std::slice::from_ref(m), rng)?;
        Ok(cts.pop().expect("one ciphertext per message"))
    }

    fn assemble(n: BigUint, p: BigUint, q: BigUint, lambda: BigUint) -> Option<Keypair> {
        let n_squared = n.square();
        let g = &n + 1u64;
        let mont_nn = MontgomeryCtx::new(&n_squared).expect("n² is odd > 1");
        let mont_n = MontgomeryCtx::new(&n).expect("n is odd > 1");

        // μ = (L(g^λ mod n²))^{-1} mod n. For g = n+1 this equals λ^{-1},
        // but compute it generically so the math matches the paper line by
        // line and stays correct if a custom g is ever plugged in.
        let g_lambda = mont_nn.pow_mod(&g, &lambda);
        let ell = l_function(&g_lambda, &n)?;
        let mu = modular::mod_inverse(&ell, &n)?;

        let public = PublicKey {
            half_n: &(&n - &BigUint::one()) >> 1usize,
            g_is_n_plus_one: true,
            n_squared,
            g,
            n: n.clone(),
            mont_nn,
            mont_n,
            pool: None,
            kernels: None,
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
        let n_mod_pp_order = &public.n % &(p * &(p - &one));
        let n_mod_qq_order = &public.n % &(q * &(q - &one));
        let pp_inv_qq = modular::mod_inverse(&p_squared, &q_squared)?;

        Some(CrtContext {
            p: p.clone(),
            q: q.clone(),
            p_squared,
            q_squared,
            mont_pp,
            mont_qq,
            hp,
            hq,
            p_inv_q,
            n_mod_pp_order,
            n_mod_qq_order,
            pp_inv_qq,
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
        if n.bit_length() < MIN_KEY_BITS || n.is_even() {
            return Err(PaillierError::KeyTooSmall {
                requested: n.bit_length(),
                minimum: MIN_KEY_BITS,
            });
        }
        let n_squared = n.square();
        let mont_nn = MontgomeryCtx::new(&n_squared).expect("n² odd > 1");
        let mont_n = MontgomeryCtx::new(&n).expect("n odd > 1");
        Ok(PublicKey {
            half_n: &(&n - &BigUint::one()) >> 1usize,
            g: &n + 1u64,
            g_is_n_plus_one: true,
            n,
            n_squared,
            mont_nn,
            mont_n,
            pool: None,
            kernels: None,
        })
    }

    /// Reconstructs a public key from a modulus `n` and an explicit
    /// generator `g ∈ Z*_{n²}` (Paillier §3.7 allows any `g` whose order is
    /// a nonzero multiple of `n`; the standard `g = n+1` is merely the
    /// cheapest choice). Keys built this way support encryption and all
    /// homomorphic operations; decryption requires the matching private key,
    /// which always embeds its own generator.
    ///
    /// This is the one path where `g^m mod n²` is a full modular
    /// exponentiation rather than the `(1+n)^m = 1 + mn` shortcut, so it is
    /// also the path that benefits from [`PublicKey::with_exp_kernels`].
    ///
    /// # Errors
    /// [`PaillierError::KeyTooSmall`] for a bad modulus, and
    /// [`PaillierError::InvalidGenerator`] when `g` is zero, not below `n²`,
    /// or not invertible (`gcd(g, n) ≠ 1`).
    pub fn with_generator(n: BigUint, g: BigUint) -> Result<PublicKey, PaillierError> {
        let mut public = PublicKey::from_modulus(n)?;
        if g.is_zero() || g >= public.n_squared {
            return Err(PaillierError::InvalidGenerator);
        }
        if !modular::gcd(&(&g % &public.n), &public.n).is_one() {
            return Err(PaillierError::InvalidGenerator);
        }
        public.g_is_n_plus_one = g == public.g;
        public.g = g;
        Ok(public)
    }

    /// Returns a copy of this key carrying precomputed exponentiation
    /// tables (currently: a windowed fixed-base comb for `g^m mod n²`).
    /// Purely a speed lever — every ciphertext byte is identical with and
    /// without kernels, so the tables are protocol-invisible.
    ///
    /// For keys with the standard generator `g = n+1` the `(1+n)^m`
    /// shortcut already beats any table and this is a no-op.
    pub fn with_exp_kernels(mut self) -> PublicKey {
        if !self.g_is_n_plus_one && self.kernels.is_none() {
            let g_table = FixedBaseTable::new(&self.mont_nn, &self.g, 4, self.n.bit_length());
            self.kernels = Some(Arc::new(ExpKernels { g_table }));
        }
        self
    }

    /// Whether exponentiation-kernel tables are attached (always `false`
    /// for standard-generator keys, where the shortcut wins).
    pub fn has_exp_kernels(&self) -> bool {
        self.kernels.is_some()
    }

    /// Returns a copy of this key that draws encryption randomizers from
    /// `pool` whenever the pool has one buffered, falling back to inline
    /// nonce exponentiation on a dry pool. This routes **every** hot-path
    /// encryption under the key — protocol-layer `encrypt`/`encrypt_signed`
    /// calls, [`PublicKey::rerandomize`], packed-word nonces — through the
    /// precompute path without any signature changes at the call sites.
    ///
    /// Determinism note: a pool hit consumes a randomizer produced by the
    /// pool's own RNG instead of drawing a nonce from the caller's stream,
    /// so ciphertext *bytes* are no longer a pure function of the session
    /// seed (protocol outputs, leakage, and ledgers are unaffected —
    /// nonces never influence outcomes). Attach pools for throughput;
    /// leave them off where transcript reproducibility is pinned.
    ///
    /// # Errors
    /// [`PaillierError::RandomizerKeyMismatch`] if the pool was built for a
    /// different modulus.
    pub fn with_randomizer_pool(
        mut self,
        pool: Arc<RandomizerPool>,
    ) -> Result<PublicKey, PaillierError> {
        if pool.public_key().n() != self.n() {
            return Err(PaillierError::RandomizerKeyMismatch);
        }
        self.pool = Some(pool);
        Ok(self)
    }

    /// Drops any attached randomizer pool (used by the pool itself to avoid
    /// a reference cycle when it stores its key).
    pub(crate) fn without_pool(mut self) -> PublicKey {
        self.pool = None;
        self
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
        loop {
            let r = random::gen_biguint_below(rng, &self.n);
            if !r.is_zero() && modular::gcd(&r, &self.n).is_one() {
                return r;
            }
        }
    }

    /// Encrypts `m ∈ Z_n` with a fresh nonce: `c = g^m · r^n mod n²`. When
    /// a [`RandomizerPool`] is attached (see
    /// [`PublicKey::with_randomizer_pool`]) and has a randomizer buffered,
    /// the `r^n` exponentiation is served from the pool and the encryption
    /// collapses to two modular multiplications.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        let mut cts = self.encrypt_many(std::slice::from_ref(m), rng)?;
        Ok(cts.pop().expect("one ciphertext per message"))
    }

    /// Encrypts a batch of plaintexts, amortizing the `r^n` exponentiations
    /// through one shared-exponent kernel pass ([`MontgomeryCtx::pow_many`]).
    ///
    /// Byte-identical to calling [`PublicKey::encrypt`] once per element
    /// with the same `rng`: pool randomizers are consumed in the same order,
    /// nonces are rejection-sampled from the identical stream positions, and
    /// `pow_many` shares only the exponent recoding — every `r^n` value
    /// matches the one-at-a-time ladder bit for bit.
    pub fn encrypt_many<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        self.encrypt_many_by(ms, rng, |nonces| self.mont_nn.pow_many(nonces, &self.n))
    }

    /// The one encryption body: pool hits first, fresh nonces otherwise,
    /// in message order. `nonce_powers` maps the fresh nonces to their
    /// `r^n mod n²` — the only step that differs between a party that knows
    /// `n` alone (the ladder above) and the keyholder
    /// ([`Keypair::encrypt_many`]).
    pub(crate) fn encrypt_many_by<R: Rng + ?Sized>(
        &self,
        ms: &[BigUint],
        rng: &mut R,
        nonce_powers: impl FnOnce(&[BigUint]) -> Vec<BigUint>,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        let mut out: Vec<Option<Ciphertext>> = vec![None; ms.len()];
        // Messages the pool could not serve, and their freshly sampled
        // nonces; the r^n values are computed together below.
        let mut deferred: Vec<usize> = Vec::with_capacity(ms.len());
        let mut nonces: Vec<BigUint> = Vec::with_capacity(ms.len());
        for (i, m) in ms.iter().enumerate() {
            if let Some(randomizer) = self.pool.as_ref().and_then(|pool| pool.take()) {
                out[i] = Some(self.encrypt_with_randomizer(m, randomizer)?);
                continue;
            }
            nonces.push(self.sample_nonce(rng));
            if m >= &self.n {
                return Err(PaillierError::MessageOutOfRange);
            }
            deferred.push(i);
        }
        if !deferred.is_empty() {
            for (i, r_to_n) in deferred.into_iter().zip(nonce_powers(&nonces)) {
                let g_to_m = self.g_pow(&ms[i]);
                out[i] = Some(Ciphertext(self.mul_mod_nn(&g_to_m, &r_to_n)));
            }
        }
        Ok(out
            .into_iter()
            .map(|c| c.expect("every slot filled"))
            .collect())
    }

    /// Encrypts with a caller-chosen nonce (deterministic; used by tests and
    /// by re-randomization).
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

    /// `g^m mod n²`, using the `g = n+1` shortcut when applicable, then
    /// the fixed-base comb when kernels are attached, then a plain windowed
    /// ladder. All three branches return the same canonical residue.
    pub(crate) fn g_pow(&self, m: &BigUint) -> BigUint {
        if self.g_is_n_plus_one {
            // (1+n)^m = 1 + m·n (mod n²)
            let mn = &(m * &self.n) % &self.n_squared;
            (&mn + 1u64).div_rem(&self.n_squared).1
        } else if let Some(kernels) = &self.kernels {
            kernels.g_table.pow(m)
        } else {
            self.mont_nn.pow_mod(&self.g, m)
        }
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

    /// `r^n mod n²` by Chinese remaindering — the keyholder's form of the
    /// nonce power. The residues `(r mod p²)^{n mod p(p−1)} mod p²` and
    /// its `q` twin (the exponent reduced by the order of each unit group)
    /// are Garner-recombined, so the result is the *same* canonical residue
    /// the `n²`-ladder returns for two half-width ladders, about half the
    /// limb products. `r` must be a unit mod `n`, which
    /// [`PublicKey::sample_nonce`] guarantees.
    pub(crate) fn nonce_power(&self, r: &BigUint) -> BigUint {
        let crt = &self.crt;
        let xp = crt
            .mont_pp
            .pow_mod(&(r % &crt.p_squared), &crt.n_mod_pp_order);
        let xq = crt
            .mont_qq
            .pow_mod(&(r % &crt.q_squared), &crt.n_mod_qq_order);
        // Garner: x = xp + p²·((xq − xp)·(p²)^{-1} mod q²)
        let diff = xq.sub_mod(&(&xp % &crt.q_squared), &crt.q_squared);
        let t = modular::mod_mul(&diff, &crt.pp_inv_qq, &crt.q_squared);
        let power = &xp + &(&crt.p_squared * &t);
        debug_assert_eq!(power, self.public.pow_mod_nn(r, &self.public.n));
        power
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

    /// A general-`g` key encrypting under `g = (n+1)^2 · r₀^n` (a valid
    /// generator: its order is a multiple of `n`) must decrypt under the
    /// standard private key to `2m` — because `g^m = (n+1)^{2m} · (r₀^m)^n`
    /// is a standard-generator encryption of `2m mod n`.
    #[test]
    fn with_generator_encrypts_decryptably() {
        let kp = shared_keypair();
        let mut r = rng(41);
        let n = kp.public.n().clone();
        let r0 = kp.public.sample_nonce(&mut r);
        let g = {
            let np1_sq = kp.public.mul_mod_nn(kp.public.g(), kp.public.g());
            let r0_n = kp.public.pow_mod_nn(&r0, &n);
            kp.public.mul_mod_nn(&np1_sq, &r0_n)
        };
        let custom = PublicKey::with_generator(n.clone(), g).unwrap();
        assert!(!custom.g_is_n_plus_one);

        let m = BigUint::from_u64(12345);
        let c = custom.encrypt(&m, &mut r).unwrap();
        let two_m = &(&m * &BigUint::from_u64(2)) % &n;
        assert_eq!(kp.private.decrypt_crt(&c).unwrap(), two_m);
    }

    #[test]
    fn with_generator_rejects_bad_g() {
        let kp = shared_keypair();
        let n = kp.public.n().clone();
        assert_eq!(
            PublicKey::with_generator(n.clone(), BigUint::zero()).unwrap_err(),
            PaillierError::InvalidGenerator
        );
        assert_eq!(
            PublicKey::with_generator(n.clone(), kp.public.n_squared().clone()).unwrap_err(),
            PaillierError::InvalidGenerator
        );
        // g sharing a factor with n: use n itself (gcd(n mod n, n) = n).
        assert_eq!(
            PublicKey::with_generator(n.clone(), n).unwrap_err(),
            PaillierError::InvalidGenerator
        );
    }

    #[test]
    fn exp_kernels_are_byte_invisible() {
        let kp = shared_keypair();
        let mut r = rng(42);
        let n = kp.public.n().clone();
        let r0 = kp.public.sample_nonce(&mut r);
        let g = {
            let np1_sq = kp.public.mul_mod_nn(kp.public.g(), kp.public.g());
            let r0_n = kp.public.pow_mod_nn(&r0, &n);
            kp.public.mul_mod_nn(&np1_sq, &r0_n)
        };
        let plain = PublicKey::with_generator(n.clone(), g).unwrap();
        let fast = plain.clone().with_exp_kernels();
        assert!(fast.has_exp_kernels());

        for seed in 0..8u64 {
            let m = random::gen_biguint_below(&mut rng(100 + seed), &n);
            let nonce = plain.sample_nonce(&mut rng(200 + seed));
            assert_eq!(
                plain.encrypt_with_nonce(&m, &nonce).unwrap(),
                fast.encrypt_with_nonce(&m, &nonce).unwrap(),
                "kernels must not change ciphertext bytes"
            );
        }
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

    /// The CRT nonce power is the ladder's residue, not merely congruent
    /// to it: every key size the suites use, both orders of the factors
    /// (Garner is not symmetric in them), the edge units and random ones.
    #[test]
    fn crt_nonce_power_equals_the_ladder() {
        for (i, bits) in [64usize, 128, 512, 1024].into_iter().enumerate() {
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
            let mut nonces = vec![BigUint::one(), BigUint::from_u64(2), n - &BigUint::one()];
            nonces.extend((0..4).map(|_| kp.public.sample_nonce(&mut r)));
            for nonce in &nonces {
                let ladder = kp.public.pow_mod_nn(nonce, n);
                assert_eq!(kp.private.nonce_power(nonce), ladder, "{bits} bits");
                assert_eq!(
                    swapped.private.nonce_power(nonce),
                    ladder,
                    "{bits} bits, factors exchanged"
                );
            }
        }
    }

    #[test]
    fn keyholder_encryption_is_byte_equal_to_public_encryption() {
        let kp = shared_keypair();
        let n = kp.public.n().clone();
        let ms: Vec<BigUint> = (0..7u64)
            .map(|i| random::gen_biguint_below(&mut rng(400 + i), &n))
            .collect();
        // Without a pool, and with one that serves the first three
        // messages and runs dry: hits and fresh nonces in one batch.
        for pooled in [false, true] {
            let attach = |pk: &PublicKey| {
                if !pooled {
                    return pk.clone();
                }
                let pool = RandomizerPool::new(pk.clone(), 8);
                pool.prefill(3, &mut rng(55));
                pk.clone().with_randomizer_pool(pool).unwrap()
            };
            let public = attach(&kp.public);
            let keyholder = Keypair {
                public: attach(&kp.public),
                private: kp.private.clone(),
            };
            let (mut pub_rng, mut key_rng) = (rng(78), rng(78));
            let want = public.encrypt_many(&ms, &mut pub_rng).unwrap();
            let got = keyholder.encrypt_many(&ms, &mut key_rng).unwrap();
            assert_eq!(got, want, "pooled = {pooled}");
            // One at a time from the same stream position, too.
            let m = BigUint::from_u64(9);
            assert_eq!(
                keyholder.encrypt(&m, &mut key_rng).unwrap(),
                public.encrypt(&m, &mut pub_rng).unwrap(),
                "pooled = {pooled}"
            );
            assert_eq!(
                random::gen_biguint_bits(&mut key_rng, 64),
                random::gen_biguint_bits(&mut pub_rng, 64)
            );
        }
        assert_eq!(
            kp.encrypt(&n, &mut rng(1)).unwrap_err(),
            PaillierError::MessageOutOfRange
        );
    }

    #[test]
    fn exp_kernels_noop_for_standard_generator() {
        let kp = shared_keypair();
        let fast = kp.public.clone().with_exp_kernels();
        assert!(!fast.has_exp_kernels(), "(1+n)^m shortcut already optimal");
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
