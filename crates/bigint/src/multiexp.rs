//! Exponentiation kernels: fixed-base comb tables and simultaneous
//! multi-exponentiation (Straus / Pippenger).
//!
//! Every kernel here is *value-equal* to the naive formulation it replaces
//! — `FixedBaseTable::pow` returns exactly `MontgomeryCtx::pow_mod`'s
//! canonical residue and `multi_exp` returns exactly `Π bᵢ^eᵢ mod m` — so
//! swapping a kernel into a protocol hot path can never change a wire
//! byte. The win is arithmetic shape, not semantics:
//!
//! * a Lim–Lee comb trades one-off precomputation for exponentiations with
//!   `1/k` of the ladder's squarings (`k` the tooth count) and one table
//!   multiply per column, which pays off once a base is reused a handful of
//!   times (the keyholder's secret randomizer base);
//! * Straus/Pippenger share **one squaring pass** across all `k` operands
//!   of a product of powers, where the naive loop pays a full
//!   square-and-multiply ladder per operand.

use crate::biguint::BigUint;
use crate::montgomery::{MontgomeryCtx, Scratch};

/// Version stamp for the exponentiation-kernel layer, carried into bench
/// trajectory JSON so regressions to naive ladders are visible in data.
pub const KERNEL_DISCIPLINE: &str = "expkernels-v1";

/// Pair count at and above which [`multi_exp`] switches from Straus'
/// interleaved scan to Pippenger's bucket method. Below the cutoff the
/// per-base window tables amortize; above it bucket accumulation does
/// (see `DESIGN.md` §12 for the cost model).
pub const PIPPENGER_CUTOFF: usize = 32;

/// Extracts window digit `i` (little-endian digit order, `w` bits wide)
/// of `exp`.
fn window_digit(exp: &BigUint, bits: usize, w: usize, i: usize) -> usize {
    let mut d = 0usize;
    for b in 0..w {
        let pos = i * w + b;
        if pos < bits && exp.bit(pos) {
            d |= 1 << b;
        }
    }
    d
}

/// Lim–Lee fixed-base comb over a Montgomery context, precomputed once per
/// base lifetime.
///
/// With `k` teeth and spacing `d = ⌈max_exp_bits / k⌉`, an exponent is
/// read as `k` strips of `d` bits: tooth `i` covers bits `i·d .. (i+1)·d`.
/// Row `j ∈ 0..2^k` of the table holds `Π_{i ∈ bits of j} base^(2^{i·d})`
/// in Montgomery form, so `base^e` is one column scan from `t = d − 1`
/// down to 0 — square, then multiply by the row whose bit `i` is bit
/// `i·d + t` of `e`: `d − 1` squarings and at most `d` products, where
/// [`MontgomeryCtx::pow_mod`]'s 4-bit ladder pays `bits` squarings and
/// `bits/4` products. At 8 teeth and a 512-bit exponent that is 63
/// squarings and 64 products, from a table of 256 rows.
///
/// Precomputation costs `(k − 1)·d` squarings and `2^k − k − 1` products;
/// the table is `2^k` rows, whatever the exponent width. Exponents wider
/// than the `k·d` bits the strips cover fall back to `pow_mod`
/// transparently (same canonical result, ladder cost).
#[derive(Clone)]
pub struct FixedBaseTable {
    ctx: MontgomeryCtx,
    teeth: usize,
    spacing: usize,
    /// The base, kept for the wide-exponent fallback path.
    base: BigUint,
    /// `2^teeth` consecutive Montgomery rows; row `j` is the product of
    /// `base^(2^{i·spacing})` over the set bits `i` of `j`.
    rows: Vec<u64>,
}

impl FixedBaseTable {
    /// Builds the comb for `base` (reduced mod the context modulus) with
    /// `teeth` strips covering exponents up to `max_exp_bits` bits.
    ///
    /// # Panics
    /// Panics unless `1 ≤ teeth ≤ 8` (the table is `2^teeth` rows; wider
    /// combs would be megabytes at key widths).
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint, teeth: usize, max_exp_bits: usize) -> Self {
        assert!(
            (1..=8).contains(&teeth),
            "comb teeth must be in 1..=8, got {teeth}"
        );
        let k = ctx.width();
        let spacing = max_exp_bits.div_ceil(teeth).max(1);
        let mut scratch = ctx.scratch();
        let mut rows = Vec::with_capacity(k << teeth);
        rows.extend_from_slice(&ctx.one_limbs());
        // Tooth `i` is base^(2^{i·d}): the previous tooth squared d times.
        // Rows 2^i .. 2^{i+1} are the rows below it times that tooth.
        let mut tooth = ctx.to_mont_limbs(base, &mut scratch);
        for i in 0..teeth {
            if i > 0 {
                for _ in 0..spacing {
                    ctx.sqr_assign(&mut tooth, &mut scratch);
                }
            }
            rows.extend_from_slice(&tooth);
            for j in 1..1 << i {
                rows.extend_from_within(j * k..(j + 1) * k);
                let at = rows.len() - k;
                ctx.mul_assign(&mut rows[at..], &tooth, &mut scratch);
            }
        }
        FixedBaseTable {
            ctx: ctx.clone(),
            teeth,
            spacing,
            base: base.clone(),
            rows,
        }
    }

    /// `base^exp mod m` — limb-identical to
    /// `MontgomeryCtx::pow_mod(base, exp)` for every exponent (comb scan
    /// when the strips cover it, transparent ladder fallback when not).
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        let bits = exp.bit_length();
        if bits > self.teeth * self.spacing {
            return self.ctx.pow_mod(&self.base, exp);
        }
        let k = self.ctx.width();
        let mut scratch = self.ctx.scratch();
        // Absent until the first nonzero column: no squarings of the unit.
        let mut acc: Option<Vec<u64>> = None;
        for t in (0..self.spacing.min(bits)).rev() {
            if let Some(acc) = &mut acc {
                self.ctx.sqr_assign(acc, &mut scratch);
            }
            let row = (0..self.teeth)
                .filter(|&i| exp.bit(i * self.spacing + t))
                .fold(0, |row, i| row | 1 << i);
            if row != 0 {
                mul_into(
                    &self.ctx,
                    &mut acc,
                    &self.rows[row * k..(row + 1) * k],
                    &mut scratch,
                );
            }
        }
        let acc = acc.unwrap_or_else(|| self.ctx.one_limbs());
        self.ctx.out_of_mont(&acc, &mut scratch)
    }
}

/// `Π bases[i]^exps[i] mod m` by whichever simultaneous method fits the
/// operand count: Straus below [`PIPPENGER_CUTOFF`], Pippenger at or
/// above it. Both return the canonical residue, so the selection is
/// invisible to callers.
pub fn multi_exp(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
    if pairs.len() >= PIPPENGER_CUTOFF {
        multi_exp_pippenger(ctx, pairs)
    } else {
        multi_exp_straus(ctx, pairs)
    }
}

/// Straus' interleaved multi-exponentiation (4-bit windows).
///
/// One shared MSB-first squaring pass; at each window position every base
/// contributes at most one table multiply. Per-base tables are sized to
/// the **largest digit that base's exponent actually uses** — a
/// power-of-two exponent (packing slot shifts) costs a 2-entry table and
/// a single multiply, not a 16-entry table.
pub fn multi_exp_straus(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
    let k = ctx.width();
    let mut scratch = ctx.scratch();
    // Per base: its digit sequence (MSB-first) and a table up to the
    // largest digit used.
    let mut prepped = Vec::with_capacity(pairs.len());
    let mut windows = 0usize;
    for (base, exp) in pairs {
        let digits = MontgomeryCtx::exp_windows4(exp);
        let max_digit = digits.iter().copied().max().unwrap_or(0) as usize;
        if max_digit == 0 {
            continue; // exp = 0 contributes a factor of 1
        }
        let base_mont = ctx.to_mont_limbs(base, &mut scratch);
        let table = ctx.window_table(&base_mont, max_digit, &mut scratch);
        windows = windows.max(digits.len());
        prepped.push((table, digits));
    }

    let mut acc = ctx.one_limbs();
    for pos in 0..windows {
        if pos > 0 {
            for _ in 0..4 {
                ctx.sqr_assign(&mut acc, &mut scratch);
            }
        }
        for (table, digits) in &prepped {
            // Digit sequences are MSB-first and right-aligned: a shorter
            // exponent's digits sit in the low window positions.
            let skip = windows - digits.len();
            if pos < skip {
                continue;
            }
            let d = digits[pos - skip] as usize;
            if d != 0 {
                ctx.mul_assign(&mut acc, &table[d * k..(d + 1) * k], &mut scratch);
            }
        }
    }
    ctx.out_of_mont(&acc, &mut scratch)
}

/// `acc ← acc·factor`, where an absent `acc` stands for the unit.
fn mul_into(
    ctx: &MontgomeryCtx,
    acc: &mut Option<Vec<u64>>,
    factor: &[u64],
    scratch: &mut Scratch,
) {
    match acc {
        Some(acc) => ctx.mul_assign(acc, factor, scratch),
        None => *acc = Some(factor.to_vec()),
    }
}

/// Pippenger's bucket multi-exponentiation.
///
/// No per-base tables: at each window position every base is multiplied
/// into the bucket of its digit value, and `Π_d bucket[d]^d` is folded
/// with the suffix-product trick (≤ `2 · 2^w` multiplies per window,
/// independent of `k`). The window widens with the operand count so
/// bucket-fold overhead amortizes across more bases.
pub fn multi_exp_pippenger(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
    let w = match pairs.len() {
        0..=63 => 4usize,
        64..=255 => 5,
        _ => 6,
    };
    let mut scratch = ctx.scratch();
    let mut max_bits = 0usize;
    let prepped: Vec<(Vec<u64>, &BigUint)> = pairs
        .iter()
        .filter(|(_, exp)| !exp.is_zero())
        .map(|(base, exp)| {
            max_bits = max_bits.max(exp.bit_length());
            (ctx.to_mont_limbs(base, &mut scratch), *exp)
        })
        .collect();

    let nwin = max_bits.div_ceil(w);
    let mut acc = ctx.one_limbs();
    let mut first = true;
    for win in (0..nwin).rev() {
        if !first {
            for _ in 0..w {
                ctx.sqr_assign(&mut acc, &mut scratch);
            }
        }
        let mut buckets: Vec<Option<Vec<u64>>> = vec![None; 1 << w];
        for (base_mont, exp) in &prepped {
            let d = window_digit(exp, exp.bit_length(), w, win);
            if d != 0 {
                mul_into(ctx, &mut buckets[d], base_mont, &mut scratch);
            }
        }
        // Fold Π_d bucket[d]^d: running suffix product enters `total`
        // once per digit value, contributing bucket[d] exactly d times.
        let mut running: Option<Vec<u64>> = None;
        let mut total: Option<Vec<u64>> = None;
        for bucket in buckets.iter().skip(1).rev() {
            if let Some(b) = bucket {
                mul_into(ctx, &mut running, b, &mut scratch);
            }
            if let Some(r) = &running {
                mul_into(ctx, &mut total, r, &mut scratch);
            }
        }
        // An all-zero window after a contributing one needs no multiply:
        // the squarings at the top of the loop already advanced `acc`.
        if let Some(t) = total {
            ctx.mul_assign(&mut acc, &t, &mut scratch);
            first = false;
        }
    }
    ctx.out_of_mont(&acc, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::rng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    fn naive_multi_exp(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let m = ctx.modulus();
        let mut acc = &BigUint::one() % m;
        for (base, exp) in pairs {
            acc = &(&acc * &ctx.pow_mod(base, exp)) % m;
        }
        acc
    }

    #[test]
    fn fixed_base_matches_pow_mod_small() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let table = FixedBaseTable::new(&ctx, &b(3), 4, 64);
        for e in [0u128, 1, 2, 15, 16, 17, 255, 1 << 40, (1 << 63) + 12345] {
            assert_eq!(table.pow(&b(e)), ctx.pow_mod(&b(3), &b(e)), "e = {e}");
        }
    }

    #[test]
    fn fixed_base_falls_back_beyond_max_bits() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let table = FixedBaseTable::new(&ctx, &b(7), 4, 16);
        let wide = b(u128::MAX);
        assert_eq!(table.pow(&wide), ctx.pow_mod(&b(7), &wide));
    }

    #[test]
    fn fixed_base_reduces_large_base() {
        let m = b(97);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let table = FixedBaseTable::new(&ctx, &b(1000), 3, 32);
        assert_eq!(table.pow(&b(3)), ctx.pow_mod(&b(1000), &b(3)));
    }

    #[test]
    fn fixed_base_random_windows_and_sizes() {
        let mut r = rng(91);
        for bits in [64usize, 256, 512] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for teeth in 1usize..=8 {
                let base = gen_biguint_below(&mut r, &m);
                let table = FixedBaseTable::new(&ctx, &base, teeth, bits);
                for _ in 0..4 {
                    let exp = gen_biguint_bits(&mut r, bits);
                    assert_eq!(
                        table.pow(&exp),
                        ctx.pow_mod(&base, &exp),
                        "{bits} bits, {teeth} teeth"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_exp_empty_and_zero_exponents() {
        let m = b(101);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(multi_exp(&ctx, &[]), b(1));
        let (base, zero) = (b(5), b(0));
        assert_eq!(multi_exp_straus(&ctx, &[(&base, &zero)]), b(1));
        assert_eq!(multi_exp_pippenger(&ctx, &[(&base, &zero)]), b(1));
    }

    #[test]
    fn straus_and_pippenger_match_naive_random() {
        let mut r = rng(92);
        for bits in [64usize, 256] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for k in [1usize, 2, 5, 33] {
                let bases: Vec<BigUint> = (0..k).map(|_| gen_biguint_below(&mut r, &m)).collect();
                let exps: Vec<BigUint> = (0..k).map(|_| gen_biguint_bits(&mut r, bits)).collect();
                let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter()).collect();
                let want = naive_multi_exp(&ctx, &pairs);
                assert_eq!(multi_exp_straus(&ctx, &pairs), want, "straus k={k}");
                assert_eq!(multi_exp_pippenger(&ctx, &pairs), want, "pippenger k={k}");
                assert_eq!(multi_exp(&ctx, &pairs), want, "auto k={k}");
            }
        }
    }

    #[test]
    fn multi_exp_power_of_two_exponents() {
        // The packing slot-shift shape: every exponent is a single bit.
        let mut r = rng(93);
        let mut m = gen_biguint_bits(&mut r, 256);
        m.set_bit(0, true);
        m.set_bit(255, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let bases: Vec<BigUint> = (0..10).map(|_| gen_biguint_below(&mut r, &m)).collect();
        let exps: Vec<BigUint> = (0..10).map(|i| &BigUint::one() << (24 * i)).collect();
        let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter()).collect();
        let want = naive_multi_exp(&ctx, &pairs);
        assert_eq!(multi_exp_straus(&ctx, &pairs), want);
        assert_eq!(multi_exp_pippenger(&ctx, &pairs), want);
    }
}
