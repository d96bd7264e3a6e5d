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
use crate::montgomery::{put_lane, splat, MontgomeryCtx, Octet, Scratch, OCTET};

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
    /// when the strips cover it, transparent ladder fallback when not).
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        self.scan(exp, None)
    }

    /// `base^exp · f^small mod m`, for `f` given in Montgomery form
    /// (`factor_mont = f·R mod m`, as [`MontgomeryCtx::to_mont`] and
    /// [`MontgomeryCtx::mont_mul`] leave it): one scan, `f` riding the
    /// comb's last columns — a multiply at column `t` for each set bit `t`
    /// of `small` — with plain ladder steps above them when `small` is
    /// wider than a block. An exponent too wide for the comb takes the
    /// ladder for both powers; the result is the canonical residue either
    /// way.
    pub fn pow_mul(&self, exp: &BigUint, factor_mont: &BigUint, small: u64) -> BigUint {
        self.scan(exp, Some((factor_mont, small)))
    }

    /// `[base^e mod m; exps]`, each equal to [`Self::pow`]'s: exponents
    /// the strips cover scan eight at a time where the context runs the
    /// eight-lane product (as [`MontgomeryCtx::pow_many`] does), each lane
    /// reading its own comb rows; the rest one by one, as [`Self::pow`]
    /// runs them.
    pub fn pow_many(&self, exps: &[BigUint]) -> Vec<BigUint> {
        let items: Vec<Item> = exps.iter().map(|exp| (exp, None)).collect();
        self.scan_many(&items)
    }

    /// `[base^e · f^small mod m; items]` for items `(e, f·R mod m, small)`,
    /// each equal to [`Self::pow_mul`]'s, batched as [`Self::pow_many`].
    pub fn pow_mul_many(&self, items: &[(&BigUint, &BigUint, u64)]) -> Vec<BigUint> {
        let items: Vec<Item> = items
            .iter()
            .map(|&(exp, factor, small)| (exp, Some((factor, small))))
            .collect();
        self.scan_many(&items)
    }

    /// Whether the strips cover `exp`: otherwise it takes the ladder.
    fn covers(&self, exp: &BigUint) -> bool {
        exp.bit_length() <= self.teeth * self.spacing
    }

    fn scan_many(&self, items: &[Item]) -> Vec<BigUint> {
        let mut out: Vec<Option<BigUint>> = vec![None; items.len()];
        let covered: Vec<usize> = (0..items.len())
            .filter(|&i| self.covers(items[i].0))
            .collect();
        for group in covered.chunks(OCTET) {
            if self.ctx.octet_serves(group.len()) {
                let lanes: Vec<Item> = group.iter().map(|&i| items[i]).collect();
                for (&i, value) in group.iter().zip(self.scan8(&lanes)) {
                    out[i] = Some(value);
                }
            }
        }
        out.into_iter()
            .zip(items)
            .map(|(value, &(exp, factor))| value.unwrap_or_else(|| self.scan(exp, factor)))
            .collect()
    }

    /// [`Self::scan`] for up to eight exponents the strips cover, one a
    /// lane: the columns of the widest, each lane multiplying by its own
    /// comb row — the unit row where its index is 0 — and by its factor
    /// or the unit row at its `small`'s bits. A column no lane needs is
    /// skipped. Each lane's products differ from its own scan's by unit
    /// factors alone, so its residue is the same.
    fn scan8(&self, lanes: &[Item]) -> Vec<BigUint> {
        let ctx = &self.ctx;
        let k = ctx.width();
        let unit = ctx.one_limbs();
        let bits = lanes.iter().map(|(exp, _)| exp.bit_length()).max();
        let small_bits = lanes
            .iter()
            .map(|(_, factor)| factor.map_or(0, |(_, small)| 64 - small.leading_zeros() as usize))
            .max();
        let comb_columns = self.block.min(bits.unwrap_or(0));
        let columns = comb_columns.max(small_bits.unwrap_or(0));
        let factors: Vec<Option<(Vec<u64>, u64)>> = lanes
            .iter()
            .map(|(_, factor)| factor.map(|(f, small)| (ctx.widen(f), small)))
            .collect();
        let mut operand = splat(&vec![0; k]);
        // Absent until the first column a lane multiplies in.
        let mut acc: Option<Octet> = None;
        for t in (0..columns).rev() {
            if let Some(acc) = &mut acc {
                ctx.octet_product(acc, None);
            }
            if t < comb_columns {
                for (b, table) in self.rows.chunks_exact(k << self.teeth).enumerate() {
                    let offset = b * self.block + t;
                    if offset >= self.spacing {
                        break;
                    }
                    let rows: Vec<usize> = lanes
                        .iter()
                        .map(|(exp, _)| {
                            (0..self.teeth)
                                .filter(|&i| exp.bit(i * self.spacing + offset))
                                .fold(0, |row, i| row | 1 << i)
                        })
                        .collect();
                    if rows.iter().all(|&row| row == 0) {
                        continue;
                    }
                    for (lane, &row) in rows.iter().enumerate() {
                        put_lane(&mut operand, lane, &table[row * k..(row + 1) * k]);
                    }
                    mul_into8(ctx, &mut acc, &operand);
                }
            }
            let rows: Vec<Option<&[u64]>> = factors
                .iter()
                .map(|factor| match factor {
                    Some((f, small)) if t < 64 && small >> t & 1 == 1 => Some(&f[..]),
                    _ => None,
                })
                .collect();
            if rows.iter().any(Option::is_some) {
                for (lane, row) in rows.iter().enumerate() {
                    put_lane(&mut operand, lane, row.unwrap_or(&unit));
                }
                mul_into8(ctx, &mut acc, &operand);
            }
        }
        let acc = acc.unwrap_or_else(|| splat(&unit));
        ctx.octet_out(acc, lanes.len())
    }

    fn scan(&self, exp: &BigUint, factor: Option<(&BigUint, u64)>) -> BigUint {
        let ctx = &self.ctx;
        let bits = exp.bit_length();
        if !self.covers(exp) {
            let power = ctx.pow_mod(&self.base, exp);
            return match factor {
                None => power,
                Some((f, small)) => ctx.mont_mul(
                    &power,
                    &ctx.to_mont(&ctx.pow_mod(&ctx.from_mont(f), &BigUint::from_u64(small))),
                ),
            };
        }
        let k = ctx.width();
        let mut scratch = ctx.scratch();
        let (factor, small) = match factor {
            Some((f, small)) => (ctx.widen(f), small),
            None => (Vec::new(), 0),
        };
        let comb_columns = self.block.min(bits);
        let columns = comb_columns.max(64 - small.leading_zeros() as usize);
        // Absent until the first nonzero column: no squarings of the unit.
        let mut acc: Option<Vec<u64>> = None;
        for t in (0..columns).rev() {
            if let Some(acc) = &mut acc {
                ctx.sqr_assign(acc, &mut scratch);
            }
            if t < comb_columns {
                for (b, table) in self.rows.chunks_exact(k << self.teeth).enumerate() {
                    let offset = b * self.block + t;
                    if offset >= self.spacing {
                        break;
                    }
                    let row = (0..self.teeth)
                        .filter(|&i| exp.bit(i * self.spacing + offset))
                        .fold(0, |row, i| row | 1 << i);
                    if row != 0 {
                        mul_into(ctx, &mut acc, &table[row * k..(row + 1) * k], &mut scratch);
                    }
                }
            }
            if t < 64 && small >> t & 1 == 1 {
                mul_into(ctx, &mut acc, &factor, &mut scratch);
            }
        }
        let acc = acc.unwrap_or_else(|| ctx.one_limbs());
        ctx.out_of_mont(&acc, &mut scratch)
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

/// An exponent and, for [`FixedBaseTable::pow_mul`], its factor in
/// Montgomery form and the factor's small exponent.
type Item<'a> = (&'a BigUint, Option<(&'a BigUint, u64)>);

/// [`mul_into`] for octets.
fn mul_into8(ctx: &MontgomeryCtx, acc: &mut Option<Octet>, factor: &Octet) {
    match acc {
        Some(acc) => ctx.octet_product(acc, Some(factor)),
        None => *acc = Some(factor.clone()),
    }
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
    use rand::Rng;

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
