//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Paillier works modulo `n` and `n²`, both odd, so every hot modular
//! exponentiation in the workspace goes through this context. Inside the
//! kernels a residue is a fixed-width row of `k` limbs and every product is
//! taken in place over caller-owned [`Scratch`] — one allocation per
//! exponentiation, not two per product: a finely integrated operand
//! scanning multiplier ([`MontgomeryCtx::mul_assign`]) and a dedicated
//! squaring ([`MontgomeryCtx::sqr_assign`]: each cross product once, then
//! one reduction pass). Exponentiation uses a fixed 4-bit window. The
//! `BigUint` entry points ([`MontgomeryCtx::mont_mul`] and friends) are the
//! same kernels behind a conversion.

use crate::biguint::BigUint;

/// Precomputed state for repeated multiplication modulo a fixed odd modulus.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus `m` (odd, > 1).
    modulus: BigUint,
    /// Limb count `k`; R = 2^(64k).
    k: usize,
    /// `-m^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R² mod m` as `k` limbs, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod m` — the unit element of the Montgomery domain
    /// (`to_mont(1 mod m)`), kept so every exponentiation and every
    /// multi-exponentiation kernel starts without a conversion multiply.
    one_mont: BigUint,
}

/// Working space of the in-place kernels (`2k + 2` limbs): allocated once
/// per exponentiation by [`MontgomeryCtx::scratch`] and lent to every
/// product in it.
pub(crate) struct Scratch(Vec<u64>);

/// `acc + a·b + carry` as `(low, high)`; cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = acc as u128 + a as u128 * b as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; returns `None` otherwise.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let k = modulus.limbs().len();
        let n0_inv = neg_inv_u64(modulus.limbs()[0]);
        // R² mod m computed by repeated doubling: start from R mod m
        // (obtained by shifting) and double 64k times.
        let r_mod_m = &(&BigUint::one() << (64 * k)) % modulus;
        let mut r2 = r_mod_m.clone();
        for _ in 0..64 * k {
            r2 = r2.add_mod(&r2.clone(), modulus);
        }
        let mut ctx = MontgomeryCtx {
            modulus: modulus.clone(),
            k,
            n0_inv,
            r2: Vec::new(),
            one_mont: r_mod_m,
        };
        ctx.r2 = ctx.widen(&r2);
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Converts `x < m` into Montgomery form `x·R mod m`.
    pub fn to_mont(&self, x: &BigUint) -> BigUint {
        debug_assert!(x < &self.modulus);
        BigUint::from_limbs(self.to_mont_limbs(x, &mut self.scratch()))
    }

    /// Converts out of Montgomery form: `x̄ · R^{-1} mod m`.
    pub fn from_mont(&self, x: &BigUint) -> BigUint {
        debug_assert!(x < &self.modulus);
        self.out_of_mont(&self.widen(x), &mut self.scratch())
    }

    /// Montgomery product `a·b·R^{-1} mod m`.
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let mut acc = self.widen(a);
        let mut scratch = self.scratch();
        if b.limbs().len() == self.k {
            self.mul_assign(&mut acc, b.limbs(), &mut scratch);
        } else {
            self.mul_assign(&mut acc, &self.widen(b), &mut scratch);
        }
        BigUint::from_limbs(acc)
    }

    /// Montgomery square `a²·R^{-1} mod m` — equal to `mont_mul(a, a)`,
    /// through the dedicated squaring kernel the ladders use.
    pub fn mont_sqr(&self, a: &BigUint) -> BigUint {
        debug_assert!(a < &self.modulus);
        let mut acc = self.widen(a);
        self.sqr_assign(&mut acc, &mut self.scratch());
        BigUint::from_limbs(acc)
    }

    /// `R mod m` — the multiplicative identity of the Montgomery domain.
    ///
    /// Equal to `to_mont(1 mod m)`; exposed so exponentiation kernels can
    /// seed their accumulators without a conversion multiply.
    pub fn one_mont(&self) -> &BigUint {
        &self.one_mont
    }

    /// Limbs per residue row (`k`).
    pub(crate) fn width(&self) -> usize {
        self.k
    }

    /// Fresh working space for this modulus.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch(vec![0; 2 * self.k + 2])
    }

    /// `x < m` as a zero-padded row of `k` limbs.
    fn widen(&self, x: &BigUint) -> Vec<u64> {
        let mut row = Vec::with_capacity(self.k);
        row.extend_from_slice(x.limbs());
        row.resize(self.k, 0);
        row
    }

    /// [`Self::one_mont`] as a row.
    pub(crate) fn one_limbs(&self) -> Vec<u64> {
        self.widen(&self.one_mont)
    }

    /// `x` (of any size; reduced first) in Montgomery form, as a row.
    pub(crate) fn to_mont_limbs(&self, x: &BigUint, scratch: &mut Scratch) -> Vec<u64> {
        let mut row = if x >= &self.modulus {
            self.widen(&(x % &self.modulus))
        } else {
            self.widen(x)
        };
        self.mul_assign(&mut row, &self.r2, scratch);
        row
    }

    /// The canonical residue a Montgomery row stands for: one reduction
    /// pass over `x̄` itself, half the work of a product with 1.
    pub(crate) fn out_of_mont(&self, x: &[u64], scratch: &mut Scratch) -> BigUint {
        let k = self.k;
        let t = &mut scratch.0[..];
        t[..k].copy_from_slice(x);
        t[k..].fill(0);
        let mut out = vec![0; k];
        self.redc(t, &mut out);
        BigUint::from_limbs(out)
    }

    /// `acc ← acc·b·R^{-1} mod m`: operand scanning with the reduction
    /// folded into the same pass (two carry chains, one sweep of `t` per
    /// limb of `acc`). Round `i` works on the window `t[i..i + k + 2]`, so
    /// nothing is shifted and the result lands in `t[k..2k]`.
    pub(crate) fn mul_assign(&self, acc: &mut [u64], b: &[u64], scratch: &mut Scratch) {
        let k = self.k;
        let m = self.modulus.limbs();
        assert!(acc.len() == k && b.len() == k, "rows are k limbs wide");
        let t = &mut scratch.0[..];
        t.fill(0);
        for (i, &ai) in acc.iter().enumerate() {
            let w = &mut t[i..i + k + 2];
            let (low, mut c1) = mac(w[0], ai, b[0], 0);
            // u makes the window's lowest limb vanish: t += u·m.
            let u = low.wrapping_mul(self.n0_inv);
            let (zero, mut c2) = mac(low, u, m[0], 0);
            debug_assert_eq!(zero, 0);
            for ((wj, &bj), &mj) in w[1..k].iter_mut().zip(&b[1..]).zip(&m[1..]) {
                let (x, c) = mac(*wj, ai, bj, c1);
                c1 = c;
                let (y, c) = mac(x, u, mj, c2);
                c2 = c;
                *wj = y;
            }
            let top = w[k] as u128 + c1 as u128 + c2 as u128;
            w[k] = top as u64;
            w[k + 1] = (top >> 64) as u64; // ≤ 1: the running value stays < 2m
        }
        self.settle(&t[k..2 * k], t[2 * k], acc);
    }

    /// `acc ← acc²·R^{-1} mod m`: every cross product `aᵢ·aⱼ` once,
    /// doubled, plus the diagonal — `k(k+1)/2` limb products where the
    /// general multiplier spends `k²` — then one reduction pass.
    pub(crate) fn sqr_assign(&self, acc: &mut [u64], scratch: &mut Scratch) {
        let k = self.k;
        assert_eq!(acc.len(), k, "rows are k limbs wide");
        let t = &mut scratch.0[..];
        t.fill(0);
        for (i, &ai) in acc.iter().enumerate() {
            let mut carry = 0;
            for (tj, &aj) in t[2 * i + 1..i + k].iter_mut().zip(&acc[i + 1..]) {
                (*tj, carry) = mac(*tj, ai, aj, carry);
            }
            t[i + k] = carry;
        }
        // t ← 2t + Σ aᵢ²·2^{128i}, two limbs at a time.
        let (mut shifted_out, mut carry) = (0u64, 0u64);
        for (pair, &ai) in t.chunks_exact_mut(2).zip(acc.iter()) {
            let square = ai as u128 * ai as u128;
            let doubled = [
                (pair[0] << 1) | shifted_out,
                (pair[1] << 1) | (pair[0] >> 63),
            ];
            shifted_out = pair[1] >> 63;
            let low = doubled[0] as u128 + (square as u64) as u128 + carry as u128;
            let high = doubled[1] as u128 + (square >> 64) + (low >> 64);
            pair[0] = low as u64;
            pair[1] = high as u64;
            carry = (high >> 64) as u64;
        }
        debug_assert_eq!((shifted_out, carry), (0, 0), "a² fits 2k limbs");
        self.redc(t, acc);
    }

    /// Montgomery reduction of the `2k`-limb value in `t` (below `m·R`;
    /// `t` has a spare limb above it): `out ← t·R^{-1} mod m`.
    fn redc(&self, t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        let m = self.modulus.limbs();
        let mut top = 0u64;
        for i in 0..k {
            let u = t[i].wrapping_mul(self.n0_inv);
            let mut carry = 0;
            for (tj, &mj) in t[i..i + k].iter_mut().zip(m) {
                (*tj, carry) = mac(*tj, u, mj, carry);
            }
            let sum = t[i + k] as u128 + carry as u128 + top as u128;
            t[i + k] = sum as u64;
            top = (sum >> 64) as u64;
        }
        self.settle(&t[k..2 * k], top, out);
    }

    /// The last step of every kernel: `value + overflow·R` is below `2m`;
    /// write its canonical residue to `out`.
    fn settle(&self, value: &[u64], overflow: u64, out: &mut [u64]) {
        let m = self.modulus.limbs();
        let below = overflow == 0
            && value
                .iter()
                .rev()
                .zip(m.iter().rev())
                .find(|(v, m)| v != m)
                .is_some_and(|(v, m)| v < m);
        if below {
            out.copy_from_slice(value);
            return;
        }
        let mut borrow = false;
        for ((o, &v), &mj) in out.iter_mut().zip(value).zip(m) {
            let (d, b1) = v.overflowing_sub(mj);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *o = d;
            borrow = b1 | b2;
        }
        debug_assert_eq!(borrow as u64, overflow, "value < 2m");
    }

    /// Odd powers are not enough for interleaved window scans, so the
    /// window tables hold every power `base^0 ..= base^max_index` in
    /// Montgomery form, as consecutive rows (`base^j` at `[j·k, (j+1)·k)`).
    pub(crate) fn window_table(
        &self,
        base_mont: &[u64],
        max_index: usize,
        scratch: &mut Scratch,
    ) -> Vec<u64> {
        let k = self.k;
        let mut table = Vec::with_capacity((max_index + 1) * k);
        table.extend_from_slice(&self.one_limbs());
        if max_index >= 1 {
            table.extend_from_slice(base_mont);
        }
        for i in 2..=max_index {
            table.extend_from_within((i - 1) * k..);
            self.mul_assign(&mut table[i * k..], base_mont, scratch);
        }
        table
    }

    /// MSB-first 4-bit digits of `exp` (no leading zero digit for
    /// `exp > 0`; empty for `exp = 0`).
    pub(crate) fn exp_windows4(exp: &BigUint) -> Vec<u8> {
        let bits = exp.bit_length();
        let windows = bits.div_ceil(4);
        let mut digits = Vec::with_capacity(windows);
        for w in (0..windows).rev() {
            let mut idx = 0u8;
            for bit in 0..4 {
                let pos = w * 4 + bit;
                if pos < bits && exp.bit(pos) {
                    idx |= 1 << bit;
                }
            }
            digits.push(idx);
        }
        digits
    }

    /// Square-and-multiply over 4-bit window digits (MSB first, at least
    /// one); the shared body of [`Self::pow_mod`] and [`Self::pow_many`].
    /// The table holds `base^0 ..= base^d` for the largest digit `d` the
    /// exponent uses and no more: a `×3` scaling or a 16-bit mask is a
    /// ladder of a few products and must not pay fourteen for its table.
    fn pow_windows(&self, base: &BigUint, digits: &[u8], scratch: &mut Scratch) -> BigUint {
        let k = self.k;
        let max_digit = digits.iter().copied().max().unwrap_or(0) as usize;
        let base_mont = self.to_mont_limbs(base, scratch);
        let table = self.window_table(&base_mont, max_digit, scratch);
        let mut acc = self.one_limbs();
        for (i, &d) in digits.iter().enumerate() {
            if i > 0 {
                for _ in 0..4 {
                    self.sqr_assign(&mut acc, scratch);
                }
            }
            if d != 0 {
                let d = d as usize;
                self.mul_assign(&mut acc, &table[d * k..(d + 1) * k], scratch);
            }
        }
        self.out_of_mont(&acc, scratch)
    }

    /// `base^exp mod m` using a 4-bit fixed window.
    ///
    /// `base` may be ≥ m; it is reduced first.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return &BigUint::one() % &self.modulus;
        }
        self.pow_windows(base, &Self::exp_windows4(exp), &mut self.scratch())
    }

    /// Raises many bases to one shared exponent: `[b^exp mod m; bases]`.
    ///
    /// The exponent's window decomposition is computed once and the
    /// Montgomery context (R², one) and working space are shared, so a
    /// batch costs strictly less than independent [`Self::pow_mod`] calls
    /// while producing limb-identical results.
    pub fn pow_many(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        if exp.is_zero() {
            let one = &BigUint::one() % &self.modulus;
            return vec![one; bases.len()];
        }
        let digits = Self::exp_windows4(exp);
        let mut scratch = self.scratch();
        bases
            .iter()
            .map(|base| self.pow_windows(base, &digits, &mut scratch))
            .collect()
    }
}

/// `-m0^{-1} mod 2^64` for odd `m0`, by Newton–Hensel lifting
/// (doubles correct bits each step: 5 iterations ≥ 64 bits).
fn neg_inv_u64(m0: u64) -> u64 {
    debug_assert!(m0 & 1 == 1);
    let mut inv = m0; // correct to 3 bits for odd m0 (x ≡ x^{-1} mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    debug_assert_eq!(m0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::rng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    /// The allocating word-level CIOS product the in-place kernels
    /// replaced, kept as the reference they are compared against.
    #[allow(clippy::needless_range_loop)] // index form mirrors the CIOS recurrence
    fn mont_mul_reference(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) -> BigUint {
        let k = ctx.k;
        let m = ctx.modulus.limbs();
        let a_limbs = a.limbs();
        let b_limbs = b.limbs();

        // t holds k+1 limbs plus a one-bit overflow in t[k+1].
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            let ai = a_limbs.get(i).copied().unwrap_or(0);

            // t += ai * b
            let mut carry = 0u64;
            for j in 0..k {
                let bj = b_limbs.get(j).copied().unwrap_or(0);
                let sum = t[j] as u128 + ai as u128 * bj as u128 + carry as u128;
                t[j] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = t[k] as u128 + carry as u128;
            t[k] = sum as u64;
            t[k + 1] += (sum >> 64) as u64; // ≤ 1

            // u = t[0] * (-m^{-1}) mod 2^64; t += u*m; t >>= 64
            let u = t[0].wrapping_mul(ctx.n0_inv);
            let first = t[0] as u128 + u as u128 * m[0] as u128;
            debug_assert_eq!(first as u64, 0);
            let mut carry = (first >> 64) as u64;
            for j in 1..k {
                let sum = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
                t[j - 1] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = t[k] as u128 + carry as u128;
            t[k - 1] = sum as u64;
            let c2 = (sum >> 64) as u64;
            t[k] = t[k + 1] + c2; // both ≤ 1, no overflow
            t[k + 1] = 0;
        }

        let mut result = BigUint::from_limbs(t[..=k].to_vec());
        if result >= ctx.modulus {
            result = result.checked_sub(&ctx.modulus).expect("CIOS result < 2m");
        }
        debug_assert!(result < ctx.modulus);
        result
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&b(100)).is_none());
        assert!(MontgomeryCtx::new(&b(101)).is_some());
    }

    #[test]
    fn neg_inv_property() {
        for m0 in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(m0);
            assert_eq!(m0.wrapping_mul(ninv), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn roundtrip_mont_form() {
        let m = b(0xFFFF_FFFF_FFFF_FFC5); // large 64-bit prime
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for v in [0u128, 1, 2, 0xDEAD_BEEF, 0xFFFF_FFFF_FFFF_FFC4] {
            let x = b(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn mont_mul_matches_naive() {
        let mut r = rng(21);
        for bits in [64usize, 128, 512, 1024] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true); // make odd
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for _ in 0..8 {
                let a = gen_biguint_below(&mut r, &m);
                let bv = gen_biguint_below(&mut r, &m);
                let am = ctx.to_mont(&a);
                let bm = ctx.to_mont(&bv);
                let got = ctx.from_mont(&ctx.mont_mul(&am, &bm));
                let want = &(&a * &bv) % &m;
                assert_eq!(got, want, "{bits} bits");
            }
        }
    }

    /// Operands that stress the carry chains: the edges of the residue
    /// range, saturated limbs, a lone top bit, and random residues.
    fn hard_operands(r: &mut rand::rngs::StdRng, m: &BigUint) -> Vec<BigUint> {
        let k = m.limbs().len();
        let all_ones = &BigUint::from_limbs(vec![u64::MAX; k]) % m;
        let top_bit = &(&BigUint::one() << (m.bit_length() - 1)) % m;
        let mut ops = vec![
            BigUint::zero(),
            BigUint::one(),
            m - &BigUint::one(),
            all_ones,
            top_bit,
        ];
        ops.extend((0..3).map(|_| gen_biguint_below(r, m)));
        ops
    }

    /// Odd moduli of exactly `limbs` limbs: random, all limbs saturated
    /// (the largest `u`·`m` products), and the smallest of that width.
    fn hard_moduli(r: &mut rand::rngs::StdRng, limbs: usize) -> Vec<BigUint> {
        let mut random = gen_biguint_bits(r, 64 * limbs);
        random.set_bit(0, true);
        random.set_bit(64 * limbs - 1, true);
        let saturated = BigUint::from_limbs(vec![u64::MAX; limbs]);
        let smallest = &(&BigUint::one() << (64 * limbs - 1)) + 1u64;
        let mut moduli = vec![random, saturated];
        if limbs > 1 {
            moduli.push(smallest);
        }
        moduli
    }

    #[test]
    fn in_place_kernels_match_the_reference_and_long_division() {
        let mut r = rng(80);
        for limbs in [1usize, 2, 3, 16, 17, 32, 33] {
            for m in hard_moduli(&mut r, limbs) {
                let ctx = MontgomeryCtx::new(&m).unwrap();
                assert_eq!(ctx.width(), limbs);
                // R⁻¹ mod m, so (a·b·R⁻¹) % m can be taken by division.
                let r_mod_m = &(&BigUint::one() << (64 * limbs)) % &m;
                let r_inv = crate::modular::mod_inverse(&r_mod_m, &m).unwrap();
                let ops = hard_operands(&mut r, &m);
                let mut scratch = ctx.scratch();
                for a in &ops {
                    for b in &ops {
                        let want = &(&(&(a * b) % &m) * &r_inv) % &m;
                        assert_eq!(mont_mul_reference(&ctx, a, b), want, "{limbs} limbs");
                        assert_eq!(ctx.mont_mul(a, b), want, "{limbs} limbs");
                        let mut row = ctx.widen(a);
                        ctx.mul_assign(&mut row, &ctx.widen(b), &mut scratch);
                        assert_eq!(BigUint::from_limbs(row), want, "{limbs} limbs, in place");
                    }
                    // The dedicated squaring is the product with itself.
                    assert_eq!(
                        ctx.mont_sqr(a),
                        mont_mul_reference(&ctx, a, a),
                        "{limbs} limbs, squaring"
                    );
                    // Conversions: to_mont is a product with R², from_mont
                    // a reduction pass — against the reference for both.
                    let r2 = BigUint::from_limbs(ctx.r2.clone());
                    assert_eq!(ctx.to_mont(a), mont_mul_reference(&ctx, a, &r2));
                    assert_eq!(
                        ctx.from_mont(a),
                        mont_mul_reference(&ctx, a, &BigUint::one())
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_carries_nothing_from_one_product_to_the_next() {
        // One scratch through a long mixed chain equals fresh scratch (and
        // the reference) at every step.
        let mut r = rng(81);
        for m in hard_moduli(&mut r, 5) {
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let mut shared = ctx.scratch();
            let mut acc = ctx.widen(&gen_biguint_below(&mut r, &m));
            for step in 0..200 {
                let before = BigUint::from_limbs(acc.clone());
                let want = if step % 3 == 0 {
                    ctx.sqr_assign(&mut acc, &mut shared);
                    mont_mul_reference(&ctx, &before, &before)
                } else {
                    let b = gen_biguint_below(&mut r, &m);
                    ctx.mul_assign(&mut acc, &ctx.widen(&b), &mut shared);
                    mont_mul_reference(&ctx, &before, &b)
                };
                assert_eq!(BigUint::from_limbs(acc.clone()), want, "step {step}");
            }
        }
    }

    #[test]
    fn pow_mod_small_cases() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(2), &b(10)), b(1024));
        assert_eq!(ctx.pow_mod(&b(2), &b(0)), b(1));
        assert_eq!(ctx.pow_mod(&b(0), &b(5)), b(0));
        assert_eq!(ctx.pow_mod(&b(5), &b(1)), b(5));
        // Fermat: a^(p-1) = 1 mod p
        assert_eq!(ctx.pow_mod(&b(123456), &b(1_000_000_006)), b(1));
    }

    #[test]
    fn pow_mod_reduces_large_base() {
        let m = b(97);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(1000), &b(3)), b(1000u128.pow(3) % 97));
    }

    #[test]
    fn pow_mod_matches_naive_square_multiply() {
        let mut r = rng(77);
        let mut m = gen_biguint_bits(&mut r, 256);
        m.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for _ in 0..4 {
            let base = gen_biguint_below(&mut r, &m);
            let exp = gen_biguint_bits(&mut r, 96);
            // naive square-and-multiply with plain div_rem reduction
            let mut acc = BigUint::one();
            for i in (0..exp.bit_length()).rev() {
                acc = &acc.square() % &m;
                if exp.bit(i) {
                    acc = &(&acc * &base) % &m;
                }
            }
            assert_eq!(ctx.pow_mod(&base, &exp), acc);
        }
    }

    #[test]
    fn pow_many_matches_individual_pow_mod() {
        let mut r = rng(78);
        let mut m = gen_biguint_bits(&mut r, 512);
        m.set_bit(0, true);
        m.set_bit(511, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let exp = gen_biguint_bits(&mut r, 256);
        let bases: Vec<BigUint> = (0..5).map(|_| gen_biguint_below(&mut r, &m)).collect();
        let got = ctx.pow_many(&bases, &exp);
        for (base, g) in bases.iter().zip(&got) {
            assert_eq!(g, &ctx.pow_mod(base, &exp));
        }
        // Zero exponent: everything is 1 mod m.
        assert_eq!(
            ctx.pow_many(&bases, &BigUint::zero()),
            vec![BigUint::one(); 5]
        );
    }

    /// Naive square-and-multiply with a division per step: no window, no
    /// table, no Montgomery form.
    fn naive_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = &BigUint::one() % m;
        for i in (0..exp.bit_length()).rev() {
            acc = &acc.square() % m;
            if exp.bit(i) {
                acc = &(&acc * base) % m;
            }
        }
        acc
    }

    #[test]
    fn window_table_sized_to_the_exponent_changes_no_value() {
        let mut r = rng(79);
        for bits in [64usize, 320, 1024] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let base = gen_biguint_below(&mut r, &m);
            let mut exps: Vec<BigUint> = [0u128, 1, 2, 3, 15, 16, (1 << 16) - 1, 1 << 16]
                .into_iter()
                .map(b)
                .collect();
            exps.extend((0..3).map(|_| gen_biguint_bits(&mut r, bits)));
            for exp in &exps {
                let want = naive_pow(&base, exp, &m);
                assert_eq!(ctx.pow_mod(&base, exp), want, "{bits} bits, exp {exp:?}");
                // The full 16-entry table, as `pow_mod` built it for every
                // exponent before: same residue.
                let base_mont = ctx.to_mont(&base);
                let mut table = vec![ctx.one_mont().clone()];
                for j in 0..15 {
                    table.push(ctx.mont_mul(&table[j], &base_mont));
                }
                let mut acc = ctx.one_mont().clone();
                for d in MontgomeryCtx::exp_windows4(exp) {
                    for _ in 0..4 {
                        acc = ctx.mont_mul(&acc, &acc);
                    }
                    acc = ctx.mont_mul(&acc, &table[d as usize]);
                }
                assert_eq!(ctx.from_mont(&acc), want, "{bits} bits, full table");
                assert_eq!(ctx.pow_many(std::slice::from_ref(&base), exp), vec![want]);
            }
        }
    }

    #[test]
    fn one_mont_is_montgomery_unit() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.one_mont(), &ctx.to_mont(&BigUint::one()));
        let x = ctx.to_mont(&b(12345));
        assert_eq!(ctx.mont_mul(&x, ctx.one_mont()), x);
    }

    #[test]
    fn modulus_one_limb_edge() {
        // Smallest usable odd modulus.
        let m = b(3);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(2), &b(2)), b(1));
        assert_eq!(ctx.pow_mod(&b(2), &b(3)), b(2));
    }
}
