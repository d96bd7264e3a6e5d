//! The Damgård–Geisler–Krøigaard cryptosystem (*Efficient and secure
//! comparison for on-line auctions*, ACISP 2007, with the 2009 correction):
//! additively homomorphic encryption over the small plaintext space `Z_u`,
//! built for comparison bits.
//!
//! Setup: `n = pq` where `p − 1` is a multiple of `u·v_p` and `q − 1` of
//! `u·v_q`, for a small prime `u` and `t`-bit primes `v_p`, `v_q`. The
//! public key is `(n, g, h, u, t)` with `g` of order `u·v_p·v_q` and `h` of
//! order `v_p·v_q` in `Z*_n`. A ciphertext is a residue mod `n`:
//! `E(m) = g^m · h^r mod n`, `r` of `2.5·t` bits, so an encryption is one
//! fixed-base comb scan over `h` — no `n`-bit ladder — and a homomorphic
//! step is one product mod `n`, where Paillier's are mod `n²`.
//!
//! The holder of `p` and `v_p` tests a ciphertext for zero with one
//! `t`-bit exponent mod `p`: `c^{v_p} mod p = (g^{v_p})^m`, and `g^{v_p}`
//! has order `u` mod `p`, so the result is 1 exactly when `m ≡ 0 (mod u)`.
//! That is all the comparison protocol asks of the key (`ppds_smc::bitwise`).
//!
//! Semantic security rests on DGK's subgroup assumption (DESIGN.md §2):
//! without the factors, an element of `⟨h⟩` cannot be told from an element
//! of `⟨g⟩·⟨h⟩`. Nothing else in the system relies on it.

use crate::error::PaillierError;
use ppds_bigint::modular::{self, Crt};
use ppds_bigint::{prime, random, BigUint, FixedBaseTable, MontFactor, MontValue, MontgomeryCtx};
use rand::Rng;
use std::sync::Arc;

/// The plaintext prime `u` of every key: the smallest prime above
/// `3·64 − 1 = 191`, the largest nonzero cell
/// `x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` of a comparison of up to 64-bit
/// inputs (`ppds_smc::bitwise`), so no nonzero cell is `≡ 0 (mod u)`. A
/// comparison cut at `m ≤ 62` low bits seeds that sum at `3` or `0`, so
/// its cells reach `3m + 2 ≤ 188`, below `u` too.
pub const DGK_PLAINTEXT_PRIME: u64 = 193;

/// Smallest DGK modulus. [`crate::Keypair::generate`] gives keys below it
/// no DGK half: `p − 1` must hold `2·u·v_p` and a cofactor.
pub const MIN_DGK_BITS: usize = 128;

/// A DGK public key as it travels: `((n, g, h), (u, t))`.
pub type DgkParts = ((BigUint, BigUint, BigUint), (u64, u64));

/// Teeth of the combs over `h`: two blocks of `2^8` rows each
/// (`ppds_bigint::FixedBaseTable`), 64 KiB at a 1024-bit `n`. Over the
/// public side's 400-bit exponent at 1024 bits (`t = 160`) a scan is 24
/// squarings and at most 50 products; over the holder's 160-bit halves,
/// 9 and 20.
const H_COMB_TEETH: usize = 8;

/// Bits of the subgroup primes `v_p`, `v_q` (DGK's `t`) for an `n` of
/// `bits` bits: 160 at 1024 bits, and 224 at 2048 so that Pollard's rho in
/// a `t`-bit subgroup costs the modulus's 112-bit security level; a quarter
/// of the modulus below 1024 bits (test keys).
pub(crate) fn subgroup_bits(bits: usize) -> usize {
    match bits {
        b if b >= 3072 => 256,
        b if b >= 2048 => 224,
        b if b >= 1024 => 160,
        b => b / 4,
    }
}

/// A DGK public key, with the comb over `h` that every encryption and
/// re-randomization scans.
#[derive(Clone)]
pub struct DgkPublicKey {
    n: BigUint,
    g: BigUint,
    /// `g` in Montgomery form mod `n`: sealing a set bit is one product.
    g_mont: MontValue,
    h: BigUint,
    u: u64,
    t: usize,
    mont_n: MontgomeryCtx,
    h_comb: FixedBaseTable,
}

impl std::fmt::Debug for DgkPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DgkPublicKey")
            .field("bits", &self.n.bit_length())
            .field("u", &self.u)
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

/// A DGK private key: the factors and their subgroup primes — `p` and
/// `v_p` for the zero test, both halves for the holder's own encryptions.
#[derive(Clone)]
pub struct DgkPrivateKey {
    public: Arc<DgkPublicKey>,
    /// Garner recombination over the factors `p` and `q`.
    crt: Crt,
    v_p: BigUint,
    v_q: BigUint,
    mont_p: MontgomeryCtx,
    /// Combs over `h mod p` (order `v_p`) and `h mod q` (order `v_q`),
    /// each for `t`-bit exponents.
    h_combs: Arc<[FixedBaseTable; 2]>,
}

impl std::fmt::Debug for DgkPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        f.debug_struct("DgkPrivateKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl DgkPublicKey {
    /// Rebuilds a public key from its wire parts `(n, g, h, u, t)` — how a
    /// party materializes its peer's key — refusing parts no generated key
    /// has: an even or short `n`, a `u` other than [`DGK_PLAINTEXT_PRIME`],
    /// a `t` other than the one keygen picks for `n`'s size, or a `g` / `h`
    /// that is not a unit in `[2, n)`. (Whether `n` has the size the
    /// session agreed on is the session's check.)
    pub fn from_parts(
        n: BigUint,
        g: BigUint,
        h: BigUint,
        u: u64,
        t_sent: u64,
    ) -> Result<DgkPublicKey, PaillierError> {
        let bits = n.bit_length();
        if bits < MIN_DGK_BITS || n.is_even() {
            return Err(PaillierError::KeyTooSmall {
                requested: bits,
                minimum: MIN_DGK_BITS,
            });
        }
        if u != DGK_PLAINTEXT_PRIME {
            return Err(PaillierError::InvalidPublicKey("u is not 193"));
        }
        let t = subgroup_bits(bits);
        if u64::try_from(t) != Ok(t_sent) {
            return Err(PaillierError::InvalidPublicKey(
                "t is not the subgroup size of this modulus",
            ));
        }
        let unit = |x: &BigUint| x > &BigUint::one() && x < &n && modular::gcd(x, &n).is_one();
        if !unit(&g) || !unit(&h) {
            return Err(PaillierError::InvalidPublicKey(
                "g and h must be units of Z_n other than 1",
            ));
        }
        let mont_n = MontgomeryCtx::new(&n).ok_or(PaillierError::InvalidPublicKey("even n"))?;
        let h_comb = FixedBaseTable::new(&mont_n, &h, H_COMB_TEETH, t * 5 / 2);
        let g_mont = mont_n.to_mont_value(&g);
        Ok(DgkPublicKey {
            n,
            g,
            g_mont,
            h,
            u,
            t,
            mont_n,
            h_comb,
        })
    }

    /// The wire parts [`DgkPublicKey::from_parts`] takes back.
    pub fn to_parts(&self) -> DgkParts {
        (
            (self.n.clone(), self.g.clone(), self.h.clone()),
            (self.u, self.t as u64),
        )
    }

    /// The modulus `n`; ciphertexts are residues below it.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// Key size in bits (bit length of `n`).
    pub fn bits(&self) -> usize {
        self.n.bit_length()
    }

    /// The plaintext prime `u`: messages live in `Z_u`.
    pub fn u(&self) -> u64 {
        self.u
    }

    /// `g`, the ciphertext `E(1)` with no randomness.
    pub fn g(&self) -> &BigUint {
        &self.g
    }

    /// `g` in the Montgomery form of [`DgkPublicKey::montgomery`]: `E(1)`
    /// for the homomorphic steps held in that form.
    pub fn g_mont(&self) -> &MontValue {
        &self.g_mont
    }

    /// `a · b mod n`: `E(m_a + m_b)` from `E(m_a)` and `E(m_b)`.
    pub fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont_n.mont_mul(&self.mont_n.to_mont(a), b)
    }

    /// `c^k mod n`: `E(k·m)` from `E(m)`.
    pub fn mul_plain(&self, c: &BigUint, k: u64) -> BigUint {
        self.mont_n.pow_mod(c, &BigUint::from_u64(k))
    }

    /// The Montgomery context mod `n`. Homomorphic steps over ciphertexts
    /// held in its form as [`MontValue`]s — `E(a + b)` is `mul_value(ā,
    /// b̄)`, with `one_value` for `E(0)` — cost one product each and no
    /// conversion, where [`DgkPublicKey::add`] converts an operand in and
    /// the product out; [`DgkPublicKey::mask`] takes its cell in that form.
    pub fn montgomery(&self) -> &MontgomeryCtx {
        &self.mont_n
    }

    /// `E(r·m)`, freshly randomized, from `E(m)` given in Montgomery form
    /// (a [`MontValue`] of [`DgkPublicKey::montgomery`], or its canonical
    /// residue): `c^r · h^s mod n` with `r` uniform in `1..u`, then `s` of
    /// `2.5·t` bits, drawn from `rng` in that order. One comb scan over `h`
    /// with `c` riding its last columns, value-equal to
    /// `add(mul_plain(c, r), h^s)`; a one-cell [`DgkPublicKey::mask_many`].
    pub fn mask<F: MontFactor, R: Rng + ?Sized>(&self, cell_mont: F, rng: &mut R) -> BigUint {
        self.mask_many([(cell_mont, rng)]).remove(0)
    }

    /// [`DgkPublicKey::mask`] for each cell, with the stream paired with
    /// it: each draws its `r`, then its `s`, from its own stream, and the
    /// scans run together, eight cells at a time where the comb's context
    /// runs the eight-lane product (`ppds_bigint::FixedBaseTable::pow_mul_many`).
    /// A [`MontValue`] cell enters its lane as it is.
    pub fn mask_many<F: MontFactor, R: Rng>(
        &self,
        cells: impl IntoIterator<Item = (F, R)>,
    ) -> Vec<BigUint> {
        let draws: Vec<(F, BigUint, u64)> = cells
            .into_iter()
            .map(|(cell, mut rng)| {
                let r = rng.random_range(1..self.u);
                let s = random::gen_biguint_bits(&mut rng, self.t * 5 / 2);
                (cell, s, r)
            })
            .collect();
        let items: Vec<(&BigUint, F, u64)> =
            draws.iter().map(|(cell, s, r)| (s, *cell, *r)).collect();
        self.h_comb.pow_mul_many(&items)
    }

    /// The per-message randomizer `h^r`, `r` uniform of `2.5·t` bits: one
    /// comb scan. `⟨h⟩` has order `v_p·v_q < 2^{2t}`, so `h^r` is within
    /// `2^{-t/2}` of uniform over it.
    fn randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        self.h_comb
            .pow(&random::gen_biguint_bits(rng, self.t * 5 / 2))
    }

    /// `E(m) = g^m · h^r mod n` for `m ∈ Z_u`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Result<BigUint, PaillierError> {
        if m >= self.u {
            return Err(PaillierError::MessageOutOfRange);
        }
        Ok(self.seal(m, self.randomizer(rng)))
    }

    /// `g^m · ρ mod n` for a randomizer `ρ`: `ρ` itself for `m = 0`, one
    /// Montgomery product of `ρ` with the value `ḡ` for `m = 1` — the bits
    /// a comparison sends — and a ladder for the rest of `Z_u`.
    fn seal(&self, m: u64, rho: BigUint) -> BigUint {
        match m {
            0 => rho,
            1 => self.mont_n.mul_out(&self.g_mont, &rho),
            _ => self.add(&self.mul_plain(&self.g, m), &rho),
        }
    }

    /// Checks received ciphertexts and returns their inverses mod `n`
    /// (`E(−m)` each), with one batch inversion: every ciphertext must be a
    /// unit of `Z_n`. Membership in `⟨g⟩·⟨h⟩` needs the factors, so the
    /// holder checks it in [`DgkPrivateKey::is_zero`].
    pub fn negate_many(&self, cts: &[BigUint]) -> Result<Vec<BigUint>, PaillierError> {
        if cts.iter().any(|c| c.is_zero() || c >= &self.n) {
            return Err(PaillierError::InvalidCiphertext);
        }
        modular::batch_mod_inverse_with(&self.mont_n, cts).ok_or(PaillierError::InvalidCiphertext)
    }
}

impl DgkPrivateKey {
    /// Generates a key with an `n` of `max(bits, MIN_DGK_BITS)` bits
    /// (rounded up to even), plaintext prime [`DGK_PLAINTEXT_PRIME`] and
    /// `t`-bit subgroups (160 bits at 1024-bit keys, 224 at 2048). Checks,
    /// before it returns, that `h^{v_p} ≡ 1` and `g^{v_p} ≢ 1 (mod p)`, and
    /// the same mod `q`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> DgkPrivateKey {
        let bits = bits.max(MIN_DGK_BITS).next_multiple_of(2);
        let t = subgroup_bits(bits);
        let u = BigUint::from_u64(DGK_PLAINTEXT_PRIME);
        loop {
            let v_p = prime::gen_prime(rng, t);
            let v_q = prime::gen_prime(rng, t);
            if v_p == v_q {
                continue;
            }
            let (Some(p), Some(q)) = (
                structured_prime(rng, bits / 2, &u, &v_p),
                structured_prime(rng, bits / 2, &u, &v_q),
            ) else {
                continue;
            };
            if p == q {
                continue;
            }
            let (Some(mont_p), Some(mont_q), Some(crt)) = (
                MontgomeryCtx::new(&p),
                MontgomeryCtx::new(&q),
                Crt::new(p.clone(), q.clone()),
            ) else {
                continue;
            };
            let one = BigUint::one();
            let (g_p, h_p) = (
                element_of_order(rng, &mont_p, &u, &v_p),
                element_of_order(rng, &mont_p, &one, &v_p),
            );
            let (g_q, h_q) = (
                element_of_order(rng, &mont_q, &u, &v_q),
                element_of_order(rng, &mont_q, &one, &v_q),
            );
            // By construction `h` has order `v` and `g` order `u·v` in each
            // half; the zero test is exact only if they do, so check.
            let orders_hold = |mont: &MontgomeryCtx, g_x: &BigUint, h_x: &BigUint, v| {
                mont.pow_mod(h_x, v).is_one() && !mont.pow_mod(g_x, v).is_one()
            };
            if !orders_hold(&mont_p, &g_p, &h_p, &v_p) || !orders_hold(&mont_q, &g_q, &h_q, &v_q) {
                continue;
            }
            let n = &p * &q;
            debug_assert_eq!(n.bit_length(), bits);
            let (g, h) = (crt.combine(&g_p, &g_q), crt.combine(&h_p, &h_q));
            let Ok(public) = DgkPublicKey::from_parts(n, g, h, DGK_PLAINTEXT_PRIME, t as u64)
            else {
                continue;
            };
            let h_combs = Arc::new([
                FixedBaseTable::new(&mont_p, &h_p, H_COMB_TEETH, t),
                FixedBaseTable::new(&mont_q, &h_q, H_COMB_TEETH, t),
            ]);
            return DgkPrivateKey {
                public: Arc::new(public),
                crt,
                v_p,
                v_q,
                mont_p,
                h_combs,
            };
        }
    }

    /// The public half, shared.
    pub fn public(&self) -> &Arc<DgkPublicKey> {
        &self.public
    }

    /// The holder's encryption of `m ∈ Z_u`: `g^m · h^s mod n` with `s`
    /// uniform below `v_p·v_q` — exactly uniform over `⟨h⟩`, where the
    /// public side's `2.5·t`-bit exponent is within `2^{-t/2}` of it — as
    /// `h^{s mod v_p} mod p` and `h^{s mod v_q} mod q` from two combs over
    /// `t`-bit exponents, recombined by Garner; a one-message
    /// [`DgkPrivateKey::encrypt_many`].
    pub fn encrypt<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Result<BigUint, PaillierError> {
        Ok(self
            .encrypt_many([(std::slice::from_ref(&m), rng)])?
            .remove(0)
            .remove(0))
    }

    /// [`DgkPrivateKey::encrypt`] for groups of messages, each group with
    /// its own stream: a group's messages draw their `s mod v_p`, then
    /// their `s mod v_q`, one message after another, as they would one
    /// call each, and the comb scans of every group run together, eight at
    /// a time where the combs' contexts run the eight-lane product. A
    /// message outside `Z_u` is [`PaillierError::MessageOutOfRange`], before
    /// its group draws.
    pub fn encrypt_many<'a, R: Rng>(
        &self,
        groups: impl IntoIterator<Item = (&'a [u64], R)>,
    ) -> Result<Vec<Vec<BigUint>>, PaillierError> {
        let public = &self.public;
        let (mut messages, mut lens) = (Vec::new(), Vec::new());
        let (mut s_p, mut s_q) = (Vec::new(), Vec::new());
        for (group, mut rng) in groups {
            if group.iter().any(|&m| m >= public.u) {
                return Err(PaillierError::MessageOutOfRange);
            }
            for _ in group {
                s_p.push(random::gen_biguint_below(&mut rng, &self.v_p));
                s_q.push(random::gen_biguint_below(&mut rng, &self.v_q));
            }
            messages.extend_from_slice(group);
            lens.push(group.len());
        }
        let [comb_p, comb_q] = &*self.h_combs;
        let (rho_p, rho_q) = (comb_p.pow_many(&s_p), comb_q.pow_many(&s_q));
        let mut cts = messages
            .iter()
            .zip(rho_p.iter().zip(&rho_q))
            .map(|(&m, (rho_p, rho_q))| public.seal(m, self.crt.combine(rho_p, rho_q)));
        Ok(lens
            .into_iter()
            .map(|len| cts.by_ref().take(len).collect())
            .collect())
    }

    /// `c^{v_p} mod p` for each cell, after checking that every cell lies
    /// in `[1, n)`, is a unit (by its two residues: `c mod q ≠ 0` here,
    /// `c mod p ≠ 0` implied by the next test), and has its residue mod `p`
    /// in the order-`u·v_p` subgroup every ciphertext's lies in:
    /// `(c^{v_p})^u ≡ 1 (mod p)`. Both powers share their exponent across
    /// the cells (`MontgomeryCtx::pow_many`).
    fn project_many(&self, cells: &[BigUint]) -> Result<Vec<BigUint>, PaillierError> {
        let (p, q) = self.crt.moduli();
        let outside = |c: &BigUint| c.is_zero() || c >= &self.public.n || (c % q).is_zero();
        if cells.iter().any(outside) {
            return Err(PaillierError::InvalidCiphertext);
        }
        let residues: Vec<BigUint> = cells.iter().map(|c| c % p).collect();
        let z = self.mont_p.pow_many(&residues, &self.v_p);
        let u = BigUint::from_u64(self.public.u);
        if self.mont_p.pow_many(&z, &u).iter().all(BigUint::is_one) {
            Ok(z)
        } else {
            Err(PaillierError::InvalidCiphertext)
        }
    }

    /// Whether `c` encrypts 0: one `t`-bit exponent mod `p`. A ciphertext
    /// outside `Z*_n`, or outside the ciphertext subgroup mod `p`, is
    /// [`PaillierError::InvalidCiphertext`]; a one-cell
    /// [`DgkPrivateKey::is_zero_many`].
    pub fn is_zero(&self, c: &BigUint) -> Result<bool, PaillierError> {
        Ok(self.is_zero_many(std::slice::from_ref(c))?[0])
    }

    /// [`DgkPrivateKey::is_zero`] for each cell, every one tested whatever
    /// the others hold, eight at a time where `p`'s context runs the
    /// eight-lane product. One malformed cell makes the whole call
    /// [`PaillierError::InvalidCiphertext`].
    pub fn is_zero_many(&self, cells: &[BigUint]) -> Result<Vec<bool>, PaillierError> {
        Ok(self
            .project_many(cells)?
            .iter()
            .map(BigUint::is_one)
            .collect())
    }
}

/// A prime `p = 2·u·v·r + 1` of exactly `bits` bits with its top two bits
/// set (so two of them multiply to a full-size modulus), or `None` when
/// `4·bits` draws of `r` find none and the caller should draw another `v`.
fn structured_prime<R: Rng + ?Sized>(
    rng: &mut R,
    bits: usize,
    u: &BigUint,
    v: &BigUint,
) -> Option<BigUint> {
    let one = BigUint::one();
    let step = &(u * v) << 1usize;
    let low = &(&BigUint::from_u64(3) << (bits - 2)) - &one;
    let high = &(&one << bits) - &one;
    let (r_low, r_high) = (&(&low + &(&step - &one)) / &step, &high / &step);
    if r_low >= r_high {
        return None;
    }
    (0..4 * bits).find_map(|_| {
        let r = random::gen_biguint_range(rng, &r_low, &r_high);
        let p = &(&step * &r) + &one;
        prime::is_probable_prime(&p, prime::DEFAULT_MILLER_RABIN_ROUNDS, rng).then_some(p)
    })
}

/// An element of order exactly `a·v` mod `p` (`a` is 1 or the prime `u`,
/// `v` a prime, `a·v | p − 1`): a random unit raised to the cofactor, kept
/// when neither the `a`-th nor the `v`-th power of it is 1.
fn element_of_order<R: Rng + ?Sized>(
    rng: &mut R,
    mont_p: &MontgomeryCtx,
    a: &BigUint,
    v: &BigUint,
) -> BigUint {
    let p = mont_p.modulus();
    let two = BigUint::from_u64(2);
    let cofactor = &(p - &BigUint::one()) / &(a * v);
    loop {
        let x = random::gen_biguint_range(rng, &two, p);
        let e = mont_p.pow_mod(&x, &cofactor);
        let order_v = a.is_one() || !mont_p.pow_mod(&e, v).is_one();
        if !e.is_one() && order_v && !mont_p.pow_mod(&e, a).is_one() {
            return e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::rng;
    use std::sync::OnceLock;

    impl DgkPrivateKey {
        fn p(&self) -> &BigUint {
            self.crt.moduli().0
        }

        fn q(&self) -> &BigUint {
            self.crt.moduli().1
        }
    }

    /// Full decryption into `Z_u`, the tests' oracle: the discrete
    /// logarithm of `c^{v_p} mod p` to base `g^{v_p}`, by walking the `u`
    /// powers.
    fn decrypt(key: &DgkPrivateKey, c: &BigUint) -> Result<u64, PaillierError> {
        let z = key.project_many(std::slice::from_ref(c))?.remove(0);
        let g_vp = key.mont_p.pow_mod(&(key.public.g() % key.p()), &key.v_p);
        let mut power = BigUint::one();
        for m in 0..key.public.u {
            if power == z {
                return Ok(m);
            }
            power = modular::mod_mul(&power, &g_vp, key.p());
        }
        Err(PaillierError::InvalidCiphertext)
    }

    fn key() -> &'static DgkPrivateKey {
        static KEY: OnceLock<DgkPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| DgkPrivateKey::generate(128, &mut rng(0xD6C)))
    }

    #[test]
    fn generated_keys_have_the_requested_shape() {
        for (seed, bits, t) in [(1, 64, 32), (3, 128, 32), (4, 1024, 160)] {
            let key = DgkPrivateKey::generate(bits, &mut rng(seed));
            let public = key.public();
            assert_eq!(public.bits(), bits.max(MIN_DGK_BITS), "{bits} bits");
            assert_eq!((public.u(), public.t), (DGK_PLAINTEXT_PRIME, t));
            let u = BigUint::from_u64(public.u);
            for (prime, v) in [(key.p(), &key.v_p), (key.q(), &key.v_q)] {
                assert_eq!(v.bit_length(), t);
                assert!((&(prime - &BigUint::one()) % &(v * &u)).is_zero());
                // h dies under v mod its prime; g does not.
                let mont = MontgomeryCtx::new(prime).unwrap();
                assert!(mont.pow_mod(&(&public.h % prime), v).is_one());
                assert!(!mont.pow_mod(&(&public.g % prime), v).is_one());
            }
            // g^{v_p} has order exactly u mod p.
            let g_vp = key.mont_p.pow_mod(&(&public.g % key.p()), &key.v_p);
            assert!(!g_vp.is_one());
            assert!(key.mont_p.pow_mod(&g_vp, &u).is_one());
        }
        assert_eq!((subgroup_bits(2048), subgroup_bits(512)), (224, 128));
    }

    /// The bound `u` was chosen for: no comparison cell in `[1, 3ℓ − 1]`,
    /// `ℓ ≤ 64`, is a multiple of `u`.
    #[test]
    fn u_exceeds_every_nonzero_cell_of_a_64_bit_comparison() {
        for ell in 1..=64u64 {
            assert!(
                (1..3 * ell).all(|cell| cell % DGK_PLAINTEXT_PRIME != 0),
                "ℓ = {ell}"
            );
        }
        let u = DGK_PLAINTEXT_PRIME;
        assert!((2..u).all(|d| !u.is_multiple_of(d)), "u is prime");
        assert!(
            (3 * 64..u).all(|v| (2..v).any(|d| v.is_multiple_of(d))),
            "the smallest above"
        );
    }

    /// The zero test is exact on every plaintext of `Z_u`, and full
    /// decryption returns each one.
    #[test]
    fn the_zero_test_is_exact_on_every_plaintext() {
        let key = key();
        let public = key.public();
        let mut r = rng(5);
        for m in 0..public.u() {
            for c in [public.encrypt(m, &mut r), key.encrypt(m, &mut r)] {
                let c = c.unwrap();
                assert_eq!(key.is_zero(&c).unwrap(), m == 0, "m = {m}");
                assert_eq!(decrypt(key, &c).unwrap(), m);
            }
        }
        assert_eq!(
            public.encrypt(public.u(), &mut r).unwrap_err(),
            PaillierError::MessageOutOfRange
        );
    }

    /// The holder's CRT encryption lands in the same group as the public
    /// one: it decrypts, composes and survives the zero test alike, and its
    /// randomizer is an element of `⟨h⟩` (killed by `v_p·v_q`). At a 128-bit
    /// key `v_p` has 32 bits, so uniformity is checked on the comb itself:
    /// `s ↦ h^s mod p` is injective on `s < v_p` (no repeat among many
    /// draws) and every image has order dividing `v_p`.
    #[test]
    fn holder_encryptions_are_ciphertexts_like_public_ones() {
        let key = key();
        let public = key.public();
        let mut r = rng(9);
        let order = &key.v_p * &key.v_q;
        for m in [0, 1, 2, 192] {
            let c = key.encrypt(m, &mut r).unwrap();
            assert_eq!(decrypt(key, &c).unwrap(), m);
            assert_eq!(key.is_zero(&c).unwrap(), m == 0);
            let sum = public.add(&c, &public.encrypt(3, &mut r).unwrap());
            assert_eq!(decrypt(key, &sum).unwrap(), (m + 3) % public.u());
        }
        let rho = key.encrypt(0, &mut r).unwrap();
        assert!(public.mont_n.pow_mod(&rho, &order).is_one());
        assert_eq!(
            key.encrypt(193, &mut r),
            Err(PaillierError::MessageOutOfRange)
        );

        let comb_p = &key.h_combs[0];
        let seen: std::collections::HashSet<BigUint> = (0..2_000u64)
            .map(|s| comb_p.pow(&BigUint::from_u64(s)))
            .collect();
        assert_eq!(seen.len(), 2_000, "distinct powers of h mod p");
        assert!(seen
            .iter()
            .all(|rho| key.mont_p.pow_mod(rho, &key.v_p).is_one()));
    }

    /// Sealing by the precomputed `g` gives the ciphertexts of the old
    /// chain `add(mul_plain(g, m), ρ)`, byte for byte, for every plaintext
    /// and both encryptors: with the same draws, `ρ` is the encryption of 0.
    #[test]
    fn sealing_equals_the_ladder_chain() {
        let key = key();
        let public = key.public();
        for m in 0..public.u() {
            for seed in 0..3 {
                let chain = |rho: BigUint| match m {
                    0 => rho,
                    _ => public.add(&public.mul_plain(public.g(), m), &rho),
                };
                let holder = key.encrypt(m, &mut rng(seed)).unwrap();
                let rho = key.encrypt(0, &mut rng(seed)).unwrap();
                assert_eq!(holder, chain(rho), "holder, m = {m}");
                let open = public.encrypt(m, &mut rng(seed)).unwrap();
                let rho = public.encrypt(0, &mut rng(seed)).unwrap();
                assert_eq!(open, chain(rho), "public, m = {m}");
            }
        }
        let mont = public.montgomery();
        assert_eq!(&mont.mul_out(public.g_mont(), &BigUint::one()), public.g());
    }

    #[test]
    fn homomorphic_steps_stay_in_z_u() {
        let key = key();
        let public = key.public();
        let (u, mut r) = (public.u(), rng(6));
        for (a, b, k) in [(3, 5, 7), (192, 1, 2), (0, 0, 192), (100, 100, 3)] {
            let (ca, cb) = (
                public.encrypt(a, &mut r).unwrap(),
                public.encrypt(b, &mut r).unwrap(),
            );
            let sum = public.add(&ca, &cb);
            assert_eq!(decrypt(key, &sum).unwrap(), (a + b) % u);
            assert_eq!(decrypt(key, &public.mul_plain(&ca, k)).unwrap(), a * k % u);
            let neg = public.negate_many(std::slice::from_ref(&ca)).unwrap();
            assert_eq!(decrypt(key, &neg[0]).unwrap(), (u - a) % u);
        }
        assert_eq!(decrypt(key, public.g()).unwrap(), 1);
    }

    /// A masked cell is `c^r · h^s` for the `r`, then `s`, its stream
    /// draws: the product and power it replaces, byte for byte, over every
    /// plaintext and the empty prefix (`one_mont`, `E(0)`).
    #[test]
    fn a_masked_cell_is_the_scaled_rerandomized_ciphertext() {
        let key = key();
        let public = key.public();
        let (mont, u, mut r) = (public.montgomery(), public.u(), rng(10));
        for m in (0..u).step_by(16).chain([u - 1]) {
            let c = public.encrypt(m, &mut r).unwrap();
            for seed in 0..4 {
                let got = public.mask(&mont.to_mont(&c), &mut rng(seed));
                let value = public.mask(&mont.to_mont_value(&c), &mut rng(seed));
                assert_eq!(value, got, "m = {m}, seed {seed}: a cell as a value");
                let mut draws = rng(seed);
                let k = draws.random_range(1..u);
                let s = random::gen_biguint_bits(&mut draws, public.t * 5 / 2);
                let want = public.add(&public.mul_plain(&c, k), &mont.pow_mod(&public.h, &s));
                assert_eq!(got, want, "m = {m}, seed {seed}");
                assert_eq!(decrypt(key, &got).unwrap(), m * k % u);
            }
        }
        let zero = public.mask(mont.one_mont(), &mut r);
        assert_eq!(decrypt(key, &zero).unwrap(), 0);
    }

    /// Out-of-range values, non-units and non-members of the ciphertext
    /// subgroup are typed errors on the key holder's side; out-of-range
    /// values and non-units on the other.
    #[test]
    fn malformed_ciphertexts_are_typed_errors() {
        let key = key();
        let public = key.public();
        let n = public.n().clone();
        let valid = public.encrypt(5, &mut rng(3)).unwrap();
        // `valid` mod p, 0 mod q: no unit, though its p-half is a member.
        let zero_mod_q = key.crt.combine(&(&valid % key.p()), &BigUint::zero());
        assert!((&zero_mod_q % key.q()).is_zero());
        for bad in [BigUint::zero(), n.clone(), &n + &BigUint::one(), zero_mod_q] {
            assert_eq!(key.is_zero(&bad), Err(PaillierError::InvalidCiphertext));
            assert!(public.negate_many(&[valid.clone(), bad]).is_err());
        }
        assert_eq!(key.is_zero(key.p()), Err(PaillierError::InvalidCiphertext));
        let mut r = rng(7);
        let strays = (0..20)
            .map(|_| random::gen_biguint_range(&mut r, &BigUint::from_u64(2), &n))
            .filter(|c| key.is_zero(c).is_err())
            .count();
        assert!(strays >= 19, "{strays} of 20 random residues refused");
    }

    /// Keys whose primes and modulus sit at the widths the session's keys
    /// use: a 256-bit `n` (both halves on the scalar kernel), 512 bits
    /// (`n` on the IFMA kernel where the CPU has one) and 1024 bits (`p`,
    /// `q` and `n` on it).
    fn keys_by_width() -> [&'static DgkPrivateKey; 3] {
        static KEYS: OnceLock<[DgkPrivateKey; 3]> = OnceLock::new();
        let keys = KEYS.get_or_init(|| {
            [256, 512, 1024].map(|bits| DgkPrivateKey::generate(bits, &mut rng(bits as u64)))
        });
        [&keys[0], &keys[1], &keys[2]]
    }

    /// The zero test as one cell's chain: range, `q`, the `v_p` ladder and
    /// the membership ladder, each a `pow_mod`.
    fn zero_test_chain(key: &DgkPrivateKey, c: &BigUint) -> Result<bool, PaillierError> {
        if c.is_zero() || c >= &key.public.n || (c % key.q()).is_zero() {
            return Err(PaillierError::InvalidCiphertext);
        }
        let z = key.mont_p.pow_mod(&(c % key.p()), &key.v_p);
        let u = BigUint::from_u64(key.public.u);
        if key.mont_p.pow_mod(&z, &u).is_one() {
            Ok(z.is_one())
        } else {
            Err(PaillierError::InvalidCiphertext)
        }
    }

    /// The batch zero test, mask and holder encryption give the bytes and
    /// verdicts of the one-item chains they replace — a `pow_mod` ladder
    /// per cell, a single comb scan per mask, two single comb scans and
    /// Garner per bit — from the same streams, at 256-, 512- and 1024-bit
    /// keys and every batch size around the eight lanes.
    #[test]
    fn batches_equal_the_one_item_chains() {
        for key in keys_by_width() {
            let public = key.public();
            let (mont, u, bits) = (public.montgomery(), public.u(), public.bits());
            let mut r = rng(11);
            // Cells of every kind: zero, one, the top of Z_u, and the rest.
            let cells: Vec<BigUint> = (0..17u64)
                .map(|i| {
                    public
                        .encrypt([0, 1, u - 1, i][i as usize % 4], &mut r)
                        .unwrap()
                })
                .collect();
            let verdicts: Vec<bool> = cells
                .iter()
                .map(|c| zero_test_chain(key, c).unwrap())
                .collect();
            assert!(verdicts.contains(&true) && verdicts.contains(&false));
            let masks: Vec<BigUint> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut draws = rng(100 + i as u64);
                    let r = draws.random_range(1..u);
                    let s = random::gen_biguint_bits(&mut draws, public.t * 5 / 2);
                    public.h_comb.pow_mul(&s, &mont.to_mont(c), r)
                })
                .collect();
            let cells_mont: Vec<BigUint> = cells.iter().map(|c| mont.to_mont(c)).collect();
            for size in [0, 1, 2, 7, 8, 9, 16, 17] {
                let label = format!("{bits}-bit key, {size} cells");
                assert_eq!(
                    key.is_zero_many(&cells[..size]).unwrap(),
                    verdicts[..size],
                    "{label}"
                );
                let streams = (0..size).map(|i| rng(100 + i as u64));
                assert_eq!(
                    public.mask_many(cells_mont[..size].iter().zip(streams)),
                    masks[..size],
                    "{label}"
                );
            }
            for (c, zero) in cells.iter().zip(&verdicts) {
                assert_eq!(key.is_zero(c), Ok(*zero), "{bits}-bit key");
            }
            // Three groups of bits, each from its own stream, against the
            // chain a bit at a time: `s mod v_p`, then `s mod v_q`.
            let groups: [&[u64]; 3] = [
                &[1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1],
                &[0; 9],
                &[1, 192],
            ];
            let [comb_p, comb_q] = &*key.h_combs;
            for sizes in [&groups[..], &groups[..1], &groups[2..]] {
                let want: Vec<Vec<BigUint>> = sizes
                    .iter()
                    .enumerate()
                    .map(|(g, group)| {
                        let mut draws = rng(200 + g as u64);
                        group
                            .iter()
                            .map(|&m| {
                                let rho_p =
                                    comb_p.pow(&random::gen_biguint_below(&mut draws, &key.v_p));
                                let rho_q =
                                    comb_q.pow(&random::gen_biguint_below(&mut draws, &key.v_q));
                                let rho = key.crt.combine(&rho_p, &rho_q);
                                public.add(&public.mul_plain(public.g(), m), &rho)
                            })
                            .collect()
                    })
                    .collect();
                let streams = (0..sizes.len()).map(|g| rng(200 + g as u64));
                let got = key
                    .encrypt_many(sizes.iter().copied().zip(streams))
                    .unwrap();
                assert_eq!(got, want, "{bits}-bit key, {} groups", sizes.len());
            }
            let one = key.encrypt(1, &mut rng(200)).unwrap();
            assert_eq!(one, key.encrypt_many([(&[1][..], rng(200))]).unwrap()[0][0]);
            assert_eq!(
                key.encrypt_many([(&[0, 1][..], rng(1)), (&[193][..], rng(2))]),
                Err(PaillierError::MessageOutOfRange)
            );
        }
    }

    /// A malformed cell at any position of a 17-cell batch makes the batch
    /// zero test a typed error, never a panic: zero, `n` and above, a
    /// residue `≡ 0 (mod q)`, and a unit outside the ciphertext subgroup
    /// mod `p`, at a 128-bit key and at 1024 bits (where `p` runs on the
    /// eight-lane product when the CPU has IFMA).
    #[test]
    fn a_malformed_cell_anywhere_in_a_batch_is_a_typed_error() {
        for key in [self::key(), keys_by_width()[2]] {
            let public = key.public();
            let n = public.n().clone();
            let mut r = rng(12);
            let cells: Vec<BigUint> = (0..17)
                .map(|m| public.encrypt(m, &mut r).unwrap())
                .collect();
            let zero_mod_q = key.crt.combine(&(&cells[5] % key.p()), &BigUint::zero());
            let stray = (0..)
                .map(|_| random::gen_biguint_range(&mut r, &BigUint::from_u64(2), &n))
                .find(|c| modular::gcd(c, &n).is_one() && zero_test_chain(key, c).is_err())
                .unwrap();
            for bad in [
                BigUint::zero(),
                n.clone(),
                &n + &BigUint::one(),
                zero_mod_q,
                stray,
            ] {
                assert_eq!(
                    zero_test_chain(key, &bad),
                    Err(PaillierError::InvalidCiphertext)
                );
                for at in 0..cells.len() {
                    let mut batch = cells.clone();
                    batch[at] = bad.clone();
                    assert_eq!(
                        key.is_zero_many(&batch),
                        Err(PaillierError::InvalidCiphertext),
                        "{} bits, bad cell at {at}",
                        public.bits()
                    );
                }
            }
            assert_eq!(
                key.is_zero_many(&cells)
                    .unwrap()
                    .iter()
                    .filter(|&&z| z)
                    .count(),
                1
            );
        }
    }

    #[test]
    fn public_keys_travel_as_parts_and_bad_parts_are_refused() {
        let public = key().public();
        let ((n, g, h), (u, t)) = public.to_parts();
        let back = DgkPublicKey::from_parts(n.clone(), g.clone(), h.clone(), u, t).unwrap();
        assert_eq!(back.to_parts(), public.to_parts());
        let mut r = rng(8);
        let c = back.encrypt(1, &mut r).unwrap();
        assert_eq!(decrypt(key(), &c).unwrap(), 1);

        let refused = |n: BigUint, g: BigUint, h: BigUint, u: u64, t: u64| {
            DgkPublicKey::from_parts(n, g, h, u, t).is_err()
        };
        let short = BigUint::from_u64(u64::MAX);
        assert!(refused(&n + &BigUint::one(), g.clone(), h.clone(), u, t)); // even
        assert!(refused(short.clone(), g.clone(), h.clone(), u, 16)); // short
        assert!(refused(n.clone(), g.clone(), h.clone(), 191, t)); // another u
        assert!(refused(n.clone(), g.clone(), h.clone(), u, t + 1));
        assert!(refused(n.clone(), g.clone(), h.clone(), u, 160));
        assert!(refused(n.clone(), BigUint::one(), h.clone(), u, t));
        assert!(refused(n.clone(), g.clone(), BigUint::zero(), u, t));
        assert!(refused(n.clone(), g.clone(), n.clone(), u, t));
        assert!(refused(n.clone(), g, key().p().clone(), u, t)); // no unit
    }
}
