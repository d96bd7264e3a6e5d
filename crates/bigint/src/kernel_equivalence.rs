//! The IFMA kernel against the scalar one: for one modulus on both, every
//! entry point that hands a value out of the row domain gives the same
//! canonical output, and each kernel's Montgomery product is `a·b·R⁻¹` for
//! its own `R`. The eight-lane product against the single-row one: every
//! lane's row is that kernel's, digit for digit, and the batch entry points
//! built on it give, at every batch size and on both kernels, the outputs of
//! a square-and-multiply by long division. On a CPU without IFMA each test
//! says so and checks nothing.

use proptest::prelude::*;

use crate::modular::{batch_mod_inverse_with, mod_inverse};
use crate::montgomery::{lane_row, put_lane, splat, OCTET};
use crate::multiexp::multi_exp;
use crate::random::{gen_biguint_below, gen_biguint_bits};
use crate::test_helpers::{hard_moduli, hard_operands, naive_pow, rng};
use crate::{BigUint, FixedBaseTable, MontgomeryCtx};

/// Every width the sessions and their neighbours run: each limb count
/// 16–33, 48, and 64 (`n²` of a 2048-bit key).
fn widths() -> impl Iterator<Item = usize> {
    (16..=33).chain([48, 64])
}

/// The scalar and the IFMA context for `m`, or `None` without IFMA.
fn both(m: &BigUint) -> Option<(MontgomeryCtx, MontgomeryCtx)> {
    let ifma = MontgomeryCtx::on_kernel(m, true);
    if ifma.is_none() {
        eprintln!("no avx512ifma on this CPU: the IFMA kernel is not checked");
    }
    Some((MontgomeryCtx::on_kernel(m, false)?, ifma?))
}

/// For every width and hard modulus, `check(scalar, ifma, m, label)`.
fn for_each_modulus(seed: u64, mut check: impl FnMut(&MontgomeryCtx, &MontgomeryCtx, &str)) {
    let mut r = rng(seed);
    for limbs in widths() {
        for (i, m) in hard_moduli(&mut r, limbs).into_iter().enumerate() {
            let Some((scalar, ifma)) = both(&m) else {
                return;
            };
            assert!(ifma.is_ifma() && !scalar.is_ifma());
            check(&scalar, &ifma, &format!("{limbs} limbs, modulus {i}"));
        }
    }
}

/// `a·b·R⁻¹ mod m` by division, for the context's own `R`.
fn by_division(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) -> BigUint {
    let m = ctx.modulus();
    let r_mod_m = &(&BigUint::one() << ctx.r_bits()) % m;
    let Some(r_inv) = mod_inverse(&r_mod_m, m) else {
        panic!("R is a unit mod an odd m")
    };
    &(&(&(a * b) % m) * &r_inv) % m
}

#[test]
fn products_and_conversions_agree_across_kernels() {
    let mut r = rng(90);
    for_each_modulus(91, |scalar, ifma, label| {
        let m = scalar.modulus();
        let ops = hard_operands(&mut r, m);
        for ctx in [scalar, ifma] {
            for a in &ops {
                assert_eq!(ctx.from_mont(&ctx.to_mont(a)), *a, "{label}: round trip");
                assert_eq!(ctx.to_mont(&ctx.from_mont(a)), *a, "{label}: round trip");
                for b in &ops {
                    assert_eq!(ctx.mont_mul(a, b), by_division(ctx, a, b), "{label}");
                }
                assert_eq!(ctx.mont_sqr(a), by_division(ctx, a, a), "{label}: square");
            }
            assert_eq!(ctx.from_mont(ctx.one_mont()), BigUint::one(), "{label}");
        }
        // Out of Montgomery form, products are the same residues.
        for a in &ops {
            for b in &ops {
                let product = |ctx: &MontgomeryCtx| {
                    ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(a), &ctx.to_mont(b)))
                };
                assert_eq!(product(scalar), product(ifma), "{label}");
                assert_eq!(product(ifma), &(a * b) % m, "{label}");
            }
        }
    });
}

#[test]
fn exponentiations_agree_across_kernels() {
    let mut r = rng(92);
    for_each_modulus(93, |scalar, ifma, label| {
        let m = scalar.modulus();
        let bits = m.bit_length();
        let bases = hard_operands(&mut r, m);
        let mut exps: Vec<BigUint> = [0u64, 1, 2, 3, 15, 16, 17, 0xFFFF, 1 << 16, u64::MAX]
            .into_iter()
            .map(BigUint::from_u64)
            .collect();
        exps.push(gen_biguint_bits(&mut r, bits));
        // A base at or above m is reduced first.
        let wide_base = m + &bases[7];
        for exp in &exps {
            let many = scalar.pow_many(&bases, exp);
            assert_eq!(ifma.pow_many(&bases, exp), many, "{label}, exp {exp:?}");
            assert_eq!(ifma.pow_mod(&bases[7], exp), many[7], "{label}");
            assert_eq!(ifma.pow_mod(&wide_base, exp), many[7], "{label}");
        }
        // A key-width exponent once, against the ladder by division.
        let exp = &exps[exps.len() - 1];
        let want = crate::modular::mod_pow(&bases[6], exp, m);
        assert_eq!(ifma.pow_mod(&bases[6], exp), want, "{label}");
    });
}

#[test]
fn fixed_base_combs_agree_across_kernels() {
    let mut r = rng(94);
    for_each_modulus(95, |scalar, ifma, label| {
        let m = scalar.modulus();
        let base = gen_biguint_below(&mut r, m);
        let factor = gen_biguint_below(&mut r, m);
        let max_exp_bits = 97;
        let smalls = [0, 5, u64::MAX].map(|small| {
            let times = scalar.pow_mod(&factor, &BigUint::from_u64(small));
            (small, times)
        });
        for teeth in 1..=8 {
            let combs =
                [scalar, ifma].map(|ctx| FixedBaseTable::new(ctx, &base, teeth, max_exp_bits));
            let factors = [scalar, ifma].map(|ctx| ctx.to_mont(&factor));
            let spacing = max_exp_bits.div_ceil(teeth);
            let block = spacing.div_ceil(2);
            let covered = teeth * spacing;
            // Each side of a block and a strip edge, the last scan column,
            // and past it (the ladder fallback).
            let widths = [
                0,
                1,
                block.saturating_sub(1),
                block,
                block + 1,
                spacing - 1,
                spacing,
                spacing + 1,
                covered - 1,
                covered,
                covered + 1,
                covered + 70,
            ];
            for width in widths {
                let mut exp = &gen_biguint_bits(&mut r, width + 1) % &(&BigUint::one() << width);
                if width > 0 {
                    exp.set_bit(width - 1, true);
                }
                let want = scalar.pow_mod(&base, &exp);
                for (comb, factor_mont) in combs.iter().zip(&factors) {
                    assert_eq!(comb.pow(&exp), want, "{label}, {teeth} teeth, {width} bits");
                    for (small, times) in &smalls {
                        assert_eq!(
                            comb.pow_mul(&exp, factor_mont, *small),
                            &(&want * times) % m,
                            "{label}, {teeth} teeth, {width} bits, small {small}"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn multi_exponentiations_and_batch_inverses_agree_across_kernels() {
    let mut r = rng(96);
    for_each_modulus(97, |scalar, ifma, label| {
        let m = scalar.modulus();
        // Exponents from nothing to past the modulus.
        for count in [31, 32] {
            let bases: Vec<BigUint> = (0..count).map(|_| gen_biguint_below(&mut r, m)).collect();
            let exps: Vec<BigUint> = (0..count)
                .map(|i| match i {
                    0 => BigUint::zero(),
                    1 => m + &BigUint::one(),
                    _ => gen_biguint_bits(&mut r, 8 * i),
                })
                .collect();
            let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
            assert_eq!(
                multi_exp(ifma, &pairs),
                multi_exp(scalar, &pairs),
                "{label}, {count} pairs"
            );
        }
        let mut values = hard_operands(&mut r, m);
        values.retain(|v| !v.is_zero());
        let inverses = batch_mod_inverse_with(scalar, &values);
        let per_element: Option<Vec<BigUint>> = values.iter().map(|v| mod_inverse(v, m)).collect();
        assert_eq!(inverses, per_element, "{label}");
        assert_eq!(batch_mod_inverse_with(ifma, &values), inverses, "{label}");
        values.push(BigUint::zero());
        assert_eq!(batch_mod_inverse_with(ifma, &values), None, "{label}");
    });
}

/// Batch sizes around the eight lanes: none, one, partial, whole and
/// whole-plus-partial groups.
const BATCH_SIZES: [usize; 8] = [0, 1, 2, 7, 8, 9, 16, 17];

/// Moduli at every width the eight-lane product takes: the hard moduli at
/// 1–16 limbs, and for each digit count `N` in 1..=20 one of `52N − 2`
/// bits, the widest of that many digits.
fn octet_moduli(seed: u64) -> Vec<BigUint> {
    let mut r = rng(seed);
    let mut moduli: Vec<BigUint> = (1..=16)
        .flat_map(|limbs| hard_moduli(&mut r, limbs))
        .collect();
    for digits in 1..=20 {
        let bits = 52 * digits - 2;
        let mut m = gen_biguint_bits(&mut r, bits);
        m.set_bit(0, true);
        m.set_bit(bits - 1, true);
        moduli.push(m);
    }
    moduli
}

/// For every modulus of [`octet_moduli`], `check(scalar, ifma, m, label)`
/// with the IFMA context at that width.
fn for_each_octet_modulus(
    seed: u64,
    mut check: impl FnMut(&MontgomeryCtx, &MontgomeryCtx, &BigUint, &str),
) {
    for (i, m) in octet_moduli(seed).into_iter().enumerate() {
        let Some((scalar, ifma)) = both(&m) else {
            return;
        };
        let digits = (m.bit_length() + 2).div_ceil(52);
        assert!(ifma.octet_serves(OCTET), "{digits} digits");
        check(&scalar, &ifma, &m, &format!("modulus {i}, {digits} digits"));
    }
}

/// `count` bases below `m`, cycling through the hard operands, with every
/// seventh at or above `m` (reduced first).
fn bases_for(r: &mut rand::rngs::StdRng, m: &BigUint, count: usize) -> Vec<BigUint> {
    let ops = hard_operands(r, m);
    (0..count)
        .map(|i| match i % 7 {
            6 => m + &ops[i % ops.len()],
            _ if i < ops.len() => ops[i].clone(),
            _ => gen_biguint_below(r, m),
        })
        .collect()
}

#[test]
fn octet_lanes_equal_single_rows_digit_for_digit() {
    let mut r = rng(100);
    for_each_octet_modulus(101, |_, ifma, m, label| {
        let k = ifma.width();
        let ops = hard_operands(&mut r, m);
        // Rows anywhere in [0, 2m): odd lanes hold their value plus m.
        let row = |lane: usize, x: &BigUint| {
            if lane % 2 == 1 {
                ifma.widen(&(x + m))
            } else {
                ifma.widen(x)
            }
        };
        let mut singles: Vec<Vec<u64>> = (0..OCTET).map(|l| row(l, &ops[l])).collect();
        let mut acc = splat::<OCTET>(&vec![0; k]).into_owned();
        for (lane, single) in singles.iter().enumerate() {
            put_lane(&mut acc, lane, single);
        }
        let mut scratch = ifma.scratch();
        for step in 0..200 {
            if step % 3 == 0 {
                ifma.product_lanes(&mut acc, None, &mut scratch);
                for single in &mut singles {
                    ifma.sqr_assign(single, &mut scratch);
                }
            } else {
                let b: Vec<Vec<u64>> = (0..OCTET)
                    .map(|l| row(l + step, &gen_biguint_below(&mut r, m)))
                    .collect();
                let mut octet = splat::<OCTET>(&vec![0; k]).into_owned();
                for (lane, b) in b.iter().enumerate() {
                    put_lane(&mut octet, lane, b);
                }
                ifma.product_lanes(&mut acc, Some(&octet), &mut scratch);
                for (single, b) in singles.iter_mut().zip(&b) {
                    ifma.mul_assign(single, b, &mut scratch);
                }
            }
            for (lane, single) in singles.iter().enumerate() {
                assert_eq!(
                    &lane_row(&acc, lane),
                    single,
                    "{label}, step {step}, lane {lane}"
                );
            }
        }
        // Out of the form, lane by lane.
        let want: Vec<BigUint> = singles
            .iter()
            .map(|single| ifma.out_of_mont(single, &mut scratch))
            .collect();
        assert_eq!(
            ifma.out_of_mont_lanes(acc, OCTET, &mut scratch),
            want,
            "{label}"
        );
    });
}

#[test]
fn pow_many_equals_pow_mod_at_every_batch_size() {
    let mut r = rng(102);
    for_each_octet_modulus(103, |scalar, ifma, m, label| {
        let mut exps: Vec<BigUint> = [0u64, 1, 15, 16, 193]
            .into_iter()
            .map(BigUint::from_u64)
            .collect();
        exps.push(gen_biguint_bits(&mut r, 160));
        let bases = bases_for(&mut r, m, 17);
        for exp in &exps {
            let want: Vec<BigUint> = bases.iter().map(|b| naive_pow(b, exp, m)).collect();
            for ctx in [scalar, ifma] {
                let kernel = if ctx.is_ifma() { "ifma" } else { "scalar" };
                for size in BATCH_SIZES {
                    assert_eq!(
                        ctx.pow_many(&bases[..size], exp),
                        want[..size],
                        "{label}, {kernel}, exp {exp:?}, {size} bases"
                    );
                }
                let one_by_one: Vec<BigUint> = bases.iter().map(|b| ctx.pow_mod(b, exp)).collect();
                assert_eq!(one_by_one, want, "{label}, {kernel}");
            }
        }
    });
}

#[test]
fn batch_comb_scans_equal_one_item_scans() {
    let mut r = rng(104);
    for_each_octet_modulus(105, |scalar, ifma, m, label| {
        let base = gen_biguint_below(&mut r, m);
        let max_exp_bits: usize = 97;
        for teeth in 1..=8 {
            let spacing = max_exp_bits.div_ceil(teeth);
            let block = spacing.div_ceil(2);
            let covered = teeth * spacing;
            // Zero rows in every column (0), nearly every column (1, a lone
            // high bit), both sides of a block and the strip's end, and past
            // it: the lane that takes the ladder.
            let widths = [
                0,
                1,
                block,
                block + 1,
                spacing,
                covered,
                covered + 1,
                covered + 70,
            ];
            let exps: Vec<BigUint> = (0..17)
                .map(|i| match i {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    2 => &BigUint::one() << (covered - 1),
                    _ => gen_biguint_bits(&mut r, widths[i % widths.len()]),
                })
                .collect();
            // `small` of no bits, a few, and wider than a block.
            let factors: Vec<(BigUint, u64)> = (0..17)
                .map(|i| (gen_biguint_below(&mut r, m), [0, 5, u64::MAX, 192][i % 4]))
                .collect();
            let want: Vec<BigUint> = exps.iter().map(|e| naive_pow(&base, e, m)).collect();
            let want_mul: Vec<BigUint> = want
                .iter()
                .zip(&factors)
                .map(|(w, (f, small))| &(w * &naive_pow(f, &BigUint::from_u64(*small), m)) % m)
                .collect();
            for ctx in [scalar, ifma] {
                let kernel = if ctx.is_ifma() { "ifma" } else { "scalar" };
                let comb = FixedBaseTable::new(ctx, &base, teeth, max_exp_bits);
                let factors: Vec<(BigUint, u64)> = factors
                    .iter()
                    .map(|(f, small)| (ctx.to_mont(f), *small))
                    .collect();
                for (i, e) in exps.iter().enumerate() {
                    let (f, small) = &factors[i];
                    assert_eq!(comb.pow(e), want[i], "{label}, {kernel}, {teeth} teeth");
                    assert_eq!(comb.pow_mul(e, f, *small), want_mul[i], "{label}, {kernel}");
                }
                for size in BATCH_SIZES {
                    let label = format!("{label}, {kernel}, {teeth} teeth, {size} exponents");
                    assert_eq!(comb.pow_many(&exps[..size]), want[..size], "{label}");
                    let items: Vec<(&BigUint, &BigUint, u64)> = exps[..size]
                        .iter()
                        .zip(&factors)
                        .map(|(e, (f, small))| (e, f, *small))
                        .collect();
                    assert_eq!(comb.pow_mul_many(&items), want_mul[..size], "{label}");
                }
            }
        }
    });
}

fn modulus_of(limbs: usize, bytes: &[u8]) -> BigUint {
    let mut m = BigUint::from_bytes_le(&bytes[..8 * limbs]);
    m.set_bit(0, true);
    m.set_bit(64 * limbs - 1, true);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At any width the IFMA kernel takes, products, squares and ladders
    /// agree with the scalar kernel's, out of Montgomery form.
    #[test]
    fn the_kernels_agree_at_any_width(
        limbs in 1usize..=64,
        m_bytes in proptest::collection::vec(any::<u8>(), 512..=512),
        a_bytes in proptest::collection::vec(any::<u8>(), 0..=520),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..=520),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..=40),
    ) {
        let m = modulus_of(limbs, &m_bytes);
        if let Some((scalar, ifma)) = both(&m) {
            let a = &BigUint::from_bytes_le(&a_bytes) % &m;
            let b = &BigUint::from_bytes_le(&b_bytes) % &m;
            let exp = BigUint::from_bytes_le(&exp_bytes);
            let product = |ctx: &MontgomeryCtx| {
                ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)))
            };
            prop_assert_eq!(product(&ifma), product(&scalar));
            prop_assert_eq!(ifma.mont_mul(&a, &b), by_division(&ifma, &a, &b));
            prop_assert_eq!(ifma.mont_sqr(&a), by_division(&ifma, &a, &a));
            prop_assert_eq!(ifma.pow_mod(&a, &exp), scalar.pow_mod(&a, &exp));
        }
    }

    /// At any width the eight-lane product takes and any batch size, every
    /// lane's product is the single-row kernel's, digit for digit, and
    /// `pow_many` and the batch comb scan give their one-item outputs.
    #[test]
    fn octets_agree_with_single_rows_at_any_width_and_batch(
        limbs in 1usize..=16,
        size in 0usize..=17,
        m_bytes in proptest::collection::vec(any::<u8>(), 128..=128),
        op_bytes in proptest::collection::vec(any::<u8>(), 17 * 136..=17 * 136),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..=24),
    ) {
        let m = modulus_of(limbs, &m_bytes);
        if let Some((scalar, ifma)) = both(&m) {
            let ops: Vec<BigUint> = op_bytes
                .chunks(136)
                .map(|bytes| &BigUint::from_bytes_le(bytes) % &m)
                .collect();
            let exp = BigUint::from_bytes_le(&exp_bytes);
            let (a, b) = (&ops[..OCTET], &ops[OCTET..2 * OCTET]);
            let zero = splat::<OCTET>(&vec![0; ifma.width()]).into_owned();
            let (mut acc, mut by) = (zero.clone(), zero);
            for lane in 0..OCTET {
                put_lane(&mut acc, lane, &ifma.widen(&a[lane]));
                put_lane(&mut by, lane, &ifma.widen(&b[lane]));
            }
            let mut scratch = ifma.scratch();
            ifma.product_lanes(&mut acc, Some(&by), &mut scratch);
            for lane in 0..OCTET {
                let mut single = ifma.widen(&a[lane]);
                ifma.mul_assign(&mut single, &ifma.widen(&b[lane]), &mut scratch);
                prop_assert_eq!(lane_row(&acc, lane), single);
            }
            let bases = &ops[..size];
            let want: Vec<BigUint> = bases.iter().map(|x| scalar.pow_mod(x, &exp)).collect();
            prop_assert_eq!(ifma.pow_many(bases, &exp), want);
            let comb = FixedBaseTable::new(&ifma, &ops[16], 5, 8 * exp_bytes.len().max(1));
            let exps: Vec<BigUint> = bases.iter().map(|x| x >> (x.bit_length() / 2)).collect();
            let want: Vec<BigUint> = exps.iter().map(|e| comb.pow(e)).collect();
            prop_assert_eq!(comb.pow_many(&exps), want);
        }
    }
}
