//! Exponentiation kernels: fixed-base comb tables and Straus'
//! simultaneous multi-exponentiation.
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
//! * Straus shares **one squaring pass** across all operands of a product
//!   of powers, where the naive loop pays a full square-and-multiply ladder
//!   per operand.

use std::borrow::Cow;

use crate::biguint::BigUint;
use crate::montgomery::{gather, splat, MontValue, MontgomeryCtx, Scratch, OCTET};

/// Version stamp for the exponentiation-kernel layer, carried into bench
/// trajectory JSON so regressions to naive ladders are visible in data.
pub const KERNEL_DISCIPLINE: &str = "expkernels-v1";

/// Blocks each tooth's strip is cut into (Lim–Lee's `v`): one table per
/// block, so a scan makes `⌈d / COMB_BLOCKS⌉ − 1` squarings instead of
/// `d − 1`, for the same `d` products. At 8 teeth and 1, 2 and 4 blocks a
/// 400-bit exponent mod 1024 bits took 45.1, 32.1 and 27.4 µs, a 1024-bit
/// one mod 2048 bits 400, 300 and 255 µs; each block is a table more, and
/// four would cost the enhanced benchmark its memory bound (DESIGN.md §12).
const COMB_BLOCKS: usize = 2;

/// Lim–Lee fixed-base comb over a Montgomery context, precomputed once per
/// base lifetime.
///
/// With `k` teeth and spacing `d = ⌈max_exp_bits / k⌉`, an exponent is
/// read as `k` strips of `d` bits: tooth `i` covers bits `i·d .. (i+1)·d`.
/// Each strip is cut into `COMB_BLOCKS` (two) blocks of `e = ⌈d / 2⌉` bits,
/// and block `b` has its own table: row `j ∈ 0..2^k` holds
/// `Π_{i ∈ bits of j} base^(2^{i·d + b·e})` in Montgomery form. `base^x`
/// is one column scan from `t = e − 1` down to 0 — square, then multiply
/// by block `b`'s row whose bit `i` is bit `i·d + b·e + t` of `x`, for
/// each block: `e − 1` squarings and at most `d` products, where
/// [`MontgomeryCtx::pow_mod`]'s 4-bit ladder pays `bits` squarings and
/// `bits/4` products. At 8 teeth and a 400-bit exponent that is 24
/// squarings and 50 products (one block would take 49 and 50), from two
/// tables of 256 rows.
///
/// The block tables' teeth are the powers the tooth chain squares through
/// anyway, so precomputation costs `(k − 1)·d + e` squarings and
/// `2·(2^k − k − 1)` products; the tables are `2·2^k` rows, whatever the
/// exponent width. Exponents wider than the `k·d` bits the strips cover
/// fall back to `pow_mod` transparently (same canonical result, ladder
/// cost).
#[derive(Clone)]
pub struct FixedBaseTable {
    ctx: MontgomeryCtx,
    teeth: usize,
    spacing: usize,
    /// Bits a block covers (`e`); the last block of a strip may cover
    /// fewer.
    block: usize,
    /// The base, kept for the wide-exponent fallback path.
    base: BigUint,
    /// One table a block, `2^teeth` consecutive Montgomery rows each; row
    /// `j` of block `b` is the product of `base^(2^{i·spacing + b·block})`
    /// over the set bits `i` of `j`.
    rows: Vec<u64>,
}

impl FixedBaseTable {
    /// Builds the comb for `base` (reduced mod the context modulus) with
    /// `teeth` strips covering exponents up to `max_exp_bits` bits.
    ///
    /// # Panics
    /// Panics unless `1 ≤ teeth ≤ 8` (a table is `2^teeth` rows; wider
    /// combs would be megabytes at key widths).
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint, teeth: usize, max_exp_bits: usize) -> Self {
        assert!(
            (1..=8).contains(&teeth),
            "comb teeth must be in 1..=8, got {teeth}"
        );
        let k = ctx.width();
        let spacing = max_exp_bits.div_ceil(teeth).max(1);
        let block = spacing.div_ceil(COMB_BLOCKS);
        let blocks = spacing.div_ceil(block);
        let mut scratch = ctx.scratch();
        // The teeth of block `b`, in tooth order: base^(2^{i·d + b·e}),
        // snapshots of one squaring chain from the base up.
        let mut teeth_of: Vec<Vec<Vec<u64>>> = vec![Vec::with_capacity(teeth); blocks];
        let mut power = ctx.to_mont_limbs(base, &mut scratch);
        let mut at = 0;
        for i in 0..teeth {
            for (b, block_teeth) in teeth_of.iter_mut().enumerate() {
                for _ in at..i * spacing + b * block {
                    ctx.sqr_assign(&mut power, &mut scratch);
                }
                at = i * spacing + b * block;
                block_teeth.push(power.clone());
            }
        }
        // Rows 2^i .. 2^{i+1} of a block's table are the rows below them
        // times tooth i.
        let mut rows = Vec::with_capacity((blocks * k) << teeth);
        for block_teeth in &teeth_of {
            let table = rows.len();
            rows.extend_from_slice(&ctx.one_limbs());
            for (i, tooth) in block_teeth.iter().enumerate() {
                rows.extend_from_slice(tooth);
                for j in 1..1 << i {
                    rows.extend_from_within(table + j * k..table + (j + 1) * k);
                    let at = rows.len() - k;
                    ctx.mul_assign(&mut rows[at..], tooth, &mut scratch);
                }
            }
        }
        FixedBaseTable {
            ctx: ctx.clone(),
            teeth,
            spacing,
            block,
            base: base.clone(),
            rows,
        }
    }

    /// `base^exp mod m` — limb-identical to
    /// `MontgomeryCtx::pow_mod(base, exp)` for every exponent (comb scan
    /// when the strips cover it, transparent ladder fallback when not); a
    /// [`Self::pow_many`] of one exponent.
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        self.pow_many(std::slice::from_ref(exp)).remove(0)
    }

    /// `base^exp · f^small mod m`, for `f` given in Montgomery form — a
    /// [`MontValue`] of the table's context, or the canonical `f·R mod m`
    /// that [`MontgomeryCtx::to_mont`] and [`MontgomeryCtx::mont_mul`]
    /// leave: one scan, `f` riding the comb's last columns — a multiply at
    /// column `t` for each set bit `t` of `small` — with plain ladder steps
    /// above them when `small` is wider than a block. An exponent too wide
    /// for the comb takes the ladder for both powers; the result is the
    /// canonical residue either way. A [`Self::pow_mul_many`] of one item.
    pub fn pow_mul<F: MontFactor>(&self, exp: &BigUint, factor_mont: F, small: u64) -> BigUint {
        self.pow_mul_many(&[(exp, factor_mont, small)]).remove(0)
    }

    /// `[base^e mod m; exps]`: exponents the strips cover scan eight at a
    /// time where the context runs the eight-lane product (as
    /// [`MontgomeryCtx::pow_many`] does), each lane reading its own comb
    /// rows, and one by one otherwise; the rest take the ladder.
    pub fn pow_many(&self, exps: &[BigUint]) -> Vec<BigUint> {
        let items: Vec<Item> = exps.iter().map(|exp| (exp, None)).collect();
        self.scan_many(&items)
    }

    /// `[base^e · f^small mod m; items]` for items `(e, f in Montgomery
    /// form, small)`, each as [`Self::pow_mul`] defines it, batched as
    /// [`Self::pow_many`]. A [`MontValue`] factor enters its lane as it
    /// is; a [`BigUint`] one is widened into a row first.
    pub fn pow_mul_many<F: MontFactor>(&self, items: &[(&BigUint, F, u64)]) -> Vec<BigUint> {
        let items: Vec<Item> = items
            .iter()
            .map(|(exp, factor, small)| (*exp, Some((factor.row(&self.ctx), *small))))
            .collect();
        self.scan_many(&items)
    }

    /// Whether the strips cover `exp`: otherwise it takes the ladder.
    fn covers(&self, exp: &BigUint) -> bool {
        exp.bit_length() <= self.teeth * self.spacing
    }

    /// The covered items scanned in the groups
    /// [`MontgomeryCtx::lane_groups`] forms, the rest by the ladder, in
    /// item order.
    fn scan_many(&self, items: &[Item]) -> Vec<BigUint> {
        let ctx = &self.ctx;
        let covered: Vec<&Item> = items.iter().filter(|i| self.covers(i.0)).collect();
        let mut scratch = ctx.scratch();
        let mut scanned = Vec::with_capacity(covered.len());
        for (group, eight) in ctx.lane_groups(&covered) {
            scanned.extend(if eight {
                self.scan::<OCTET>(group, &mut scratch)
            } else {
                self.scan::<1>(group, &mut scratch)
            });
        }
        let mut scanned = scanned.into_iter();
        let ladder = |(exp, factor): &Item| {
            let power = ctx.pow_mod(&self.base, exp);
            match factor {
                None => power,
                Some((f, small)) => {
                    let f = ctx.from_mont(&ctx.residue(f));
                    let times = ctx.pow_mod(&f, &BigUint::from_u64(*small));
                    ctx.mont_mul(&power, &ctx.to_mont(&times))
                }
            }
        };
        items
            .iter()
            .map(|item| {
                let scan = self.covers(item.0).then(|| scanned.next()).flatten();
                scan.unwrap_or_else(|| ladder(item))
            })
            .collect()
    }

    /// The comb scan of up to `L` exponents the strips cover, one a lane:
    /// the columns of the widest, each lane multiplying by its own comb
    /// row — the unit row where its index is 0 — and by its factor or the
    /// unit row at its `small`'s bits. A product no lane needs is skipped,
    /// and the accumulator is the first factor until then, so no unit is
    /// squared. Each lane's products differ from its own scan's by unit
    /// factors alone, so its residue is the same.
    ///
    /// Each lane's exponent is cut into its strip words once, before the
    /// first column: the bits a block's tooth reads, column `t` at bit `t`.
    /// A column's row index is then a bit of each of a lane's words.
    fn scan<const L: usize>(&self, items: &[&Item], scratch: &mut Scratch) -> Vec<BigUint> {
        let ctx = &self.ctx;
        let (k, teeth) = (ctx.width(), self.teeth);
        let unit = ctx.one_limbs();
        let factor = |l: usize| items.get(l).and_then(|item| item.1.as_ref());
        let smalls: [u64; L] = std::array::from_fn(|l| factor(l).map_or(0, |f| f.1));
        let factors: [&[u64]; L] = std::array::from_fn(|l| factor(l).map_or(&unit[..], |f| &f.0));
        let bits = items.iter().map(|i| i.0.bit_length()).max().unwrap_or(0);
        let small_bits = smalls.iter().map(|s| 64 - s.leading_zeros() as usize).max();
        let comb_columns = self.block.min(bits);
        let columns = comb_columns.max(small_bits.unwrap_or(0));
        // Strip word `w` of tooth `i` in block `b`, lane by lane, at
        // `(b·teeth + i)·words + w`: the block's bits of the tooth's strip
        // from column `64·w` up, none past the strip's end.
        let words = comb_columns.div_ceil(64).max(1);
        let tables = self.rows.chunks_exact(k << teeth);
        let mut strips = vec![[0u64; L]; tables.len() * teeth * words];
        for (l, item) in items.iter().enumerate() {
            let limbs = item.0.limbs();
            for (b, block) in strips.chunks_exact_mut(teeth * words).enumerate() {
                let width = self.block.min(self.spacing - b * self.block);
                for (i, strip) in block.chunks_exact_mut(words).enumerate() {
                    for (w, word) in strip.iter_mut().enumerate() {
                        let start = i * self.spacing + b * self.block + 64 * w;
                        word[l] = bits_at(limbs, start, width.saturating_sub(64 * w));
                    }
                }
            }
        }
        let mut buf = vec![[0; L]; if L == 1 { 0 } else { k }];
        // Absent until the first product: no squarings of the unit.
        let mut acc: Option<Vec<[u64; L]>> = None;
        for t in (0..columns).rev() {
            if let Some(acc) = &mut acc {
                ctx.product_lanes(acc, None, scratch);
            }
            if t < comb_columns {
                let (w, bit) = (t / 64, t % 64);
                for (table, block) in tables.clone().zip(strips.chunks_exact(teeth * words)) {
                    let mut rows = [0; L];
                    for (i, strip) in block.chunks_exact(words).enumerate() {
                        for (row, word) in rows.iter_mut().zip(strip[w]) {
                            *row |= ((word >> bit) as usize & 1) << i;
                        }
                    }
                    if rows != [0; L] {
                        let rows = rows.map(|row| &table[row * k..(row + 1) * k]);
                        mul_into(ctx, &mut acc, gather(&mut buf, rows), scratch);
                    }
                }
            }
            let set = smalls.map(|small| t < 64 && small >> t & 1 == 1);
            if set.contains(&true) {
                let rows = std::array::from_fn(|l| if set[l] { factors[l] } else { &unit[..] });
                mul_into(ctx, &mut acc, gather(&mut buf, rows), scratch);
            }
        }
        let acc = acc.unwrap_or_else(|| splat(&unit).into_owned());
        ctx.out_of_mont_lanes(acc, items.len(), scratch)
    }
}

/// A factor in Montgomery form for [`FixedBaseTable::pow_mul_many`]: a
/// [`MontValue`] of the table's context, taken as it is, or the canonical
/// residue `f·R mod m` as a [`BigUint`], widened into a row.
pub trait MontFactor: Copy + sealed::Factor {}

impl MontFactor for &BigUint {}
impl MontFactor for &MontValue {}

mod sealed {
    use super::*;

    /// The row a factor enters a lane as.
    pub trait Factor {
        fn row(&self, ctx: &MontgomeryCtx) -> Cow<'_, [u64]>;
    }

    impl Factor for &BigUint {
        fn row(&self, ctx: &MontgomeryCtx) -> Cow<'_, [u64]> {
            Cow::Owned(ctx.widen(self))
        }
    }

    impl Factor for &MontValue {
        fn row(&self, ctx: &MontgomeryCtx) -> Cow<'_, [u64]> {
            Cow::Borrowed(ctx.row_of(self))
        }
    }
}

/// The `len ≤ 64` bits of `limbs` from bit `start` up, as a word (zero
/// past the top limb).
fn bits_at(limbs: &[u64], start: usize, len: usize) -> u64 {
    let limb = |i: usize| limbs.get(i).copied().unwrap_or(0);
    let (word, shift) = (start / 64, start % 64);
    let mut bits = limb(word) >> shift;
    if shift > 0 {
        bits |= limb(word + 1) << (64 - shift);
    }
    match len {
        0 => 0,
        1..64 => bits & ((1 << len) - 1),
        _ => bits,
    }
}

/// `Π bases[i]^exps[i] mod m` by Straus' interleaved multi-exponentiation
/// (4-bit windows).
///
/// One shared MSB-first squaring pass; at each window position every base
/// contributes at most one table multiply. Per-base tables are sized to
/// the **largest digit that base's exponent actually uses** — a
/// power-of-two exponent (packing slot shifts) costs a 2-entry table and
/// a single multiply, not a 16-entry table. The sessions pass 3–6 pairs,
/// where Pippenger's buckets measured slower (DESIGN.md §12).
pub fn multi_exp(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
    let k = ctx.width();
    let mut scratch = ctx.scratch();
    // Per base: its digit sequence (MSB-first) and a table up to the
    // largest digit used.
    let mut prepped = Vec::with_capacity(pairs.len());
    let mut windows = 0usize;
    for &(base, exp) in pairs {
        if exp.is_zero() {
            continue; // a factor of 1
        }
        let digits = MontgomeryCtx::exp_windows4(exp);
        let max_digit = digits.iter().copied().max().unwrap_or(0) as usize;
        let table = ctx.powers::<1>(std::slice::from_ref(base), max_digit, &mut scratch);
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
                let row = &table.as_flattened()[d * k..(d + 1) * k];
                ctx.mul_assign(&mut acc, row, &mut scratch);
            }
        }
    }
    ctx.out_of_mont(&acc, &mut scratch)
}

/// An exponent and, for [`FixedBaseTable::pow_mul`], its factor's
/// Montgomery row and the factor's small exponent.
type Item<'a> = (&'a BigUint, Option<(Cow<'a, [u64]>, u64)>);

/// `acc ← acc·factor` in every lane, where an absent `acc` stands for the
/// unit.
fn mul_into<const L: usize>(
    ctx: &MontgomeryCtx,
    acc: &mut Option<Vec<[u64; L]>>,
    factor: &[[u64; L]],
    scratch: &mut Scratch,
) {
    match acc {
        Some(acc) => ctx.product_lanes(acc, Some(factor), scratch),
        None => *acc = Some(factor.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::{naive_pow, rng};
    use rand::Rng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    fn naive_multi_exp(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let m = ctx.modulus();
        let mut acc = &BigUint::one() % m;
        for (base, exp) in pairs {
            acc = &(&acc * &naive_pow(base, exp, m)) % m;
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
        for bits in [64usize, 256, 512, 1024, 64 * 33] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for teeth in 1usize..=8 {
                let base = gen_biguint_below(&mut r, &m);
                let max_exp_bits = [bits, bits * 5 / 8, 7][teeth % 3];
                let table = FixedBaseTable::new(&ctx, &base, teeth, max_exp_bits);
                let spacing = max_exp_bits.div_ceil(teeth);
                let block = spacing.div_ceil(COMB_BLOCKS);
                let covered = teeth * spacing;
                let factor = gen_biguint_below(&mut r, &m);
                let factor_mont = ctx.to_mont(&factor);
                for width in [1, block, block + 1, spacing, covered, covered + 1] {
                    let mut exp = gen_biguint_bits(&mut r, width);
                    exp.set_bit(width - 1, true);
                    let want = ctx.pow_mod(&base, &exp);
                    assert_eq!(table.pow(&exp), want, "{bits} bits, {teeth} teeth, {width}");
                    let small = r.random::<u64>() >> (width % 64);
                    let times = ctx.pow_mod(&factor, &BigUint::from_u64(small));
                    assert_eq!(
                        table.pow_mul(&exp, &factor_mont, small),
                        ctx.mont_mul(&want, &ctx.to_mont(&times)),
                        "{bits} bits, {teeth} teeth, {width}, small {small}"
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
        assert_eq!(multi_exp(&ctx, &[(&base, &zero)]), b(1));
    }

    #[test]
    fn multi_exp_matches_naive_random() {
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
                assert_eq!(multi_exp(&ctx, &pairs), want, "k={k}");
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
        assert_eq!(multi_exp(&ctx, &pairs), want);
    }
}
