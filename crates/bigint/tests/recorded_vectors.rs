//! Outputs of the exponentiation kernels on fixed inputs, recorded at commit
//! 98b442f (allocating `mont_mul`, full 16-entry window tables) so that a
//! rewrite of the arithmetic underneath them — in-place Montgomery products,
//! a dedicated squaring, window tables sized to the exponent — is held to
//! the same residues, limb for limb.
//!
//! Inputs come from seeded generators; each kernel's outputs are folded into
//! one FNV-1a digest over their little-endian bytes, length-prefixed so a
//! shorter residue cannot alias a longer one.

use ppds_bigint::multiexp::{multi_exp_pippenger, multi_exp_straus, PIPPENGER_CUTOFF};
use ppds_bigint::{modular, multi_exp, random, BigUint, FixedBaseTable, MontgomeryCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn digest<'a>(values: impl IntoIterator<Item = &'a BigUint>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in values {
        let bytes = v.to_bytes_le();
        for b in (bytes.len() as u32).to_le_bytes() {
            eat(b);
        }
        for b in bytes {
            eat(b);
        }
    }
    h
}

/// An odd modulus of exactly `bits` bits and operands below it.
fn setup(seed: u64, bits: usize, count: usize) -> (MontgomeryCtx, Vec<BigUint>, StdRng) {
    let mut r = StdRng::seed_from_u64(seed);
    let mut modulus = random::gen_biguint_exact_bits(&mut r, bits);
    modulus.set_bit(0, true);
    let ctx = MontgomeryCtx::new(&modulus).unwrap();
    let bases = (0..count)
        .map(|_| random::gen_biguint_below(&mut r, &modulus))
        .collect();
    (ctx, bases, r)
}

/// The exponent shapes the protocols produce: DGK's `×3`, 16-bit masks,
/// 64-bit coefficients, key-width nonce powers, and the edge digits.
fn exponents(r: &mut StdRng, bits: usize) -> Vec<BigUint> {
    let mut exps: Vec<BigUint> = [0u64, 1, 2, 3, 15, 16, 17, 0xFFFF, 1 << 16, u64::MAX]
        .iter()
        .map(|&e| BigUint::from_u64(e))
        .collect();
    exps.push(random::gen_biguint_exact_bits(r, bits / 2));
    exps.push(random::gen_biguint_exact_bits(r, bits));
    exps.push(random::gen_biguint_exact_bits(r, bits + 7));
    exps
}

const SIZES: [usize; 5] = [64, 192, 1024, 1088, 2048];

#[test]
fn pow_mod_and_pow_many_reproduce_recorded_outputs() {
    let recorded: [(u64, u64); 5] = [
        (0x900c_0439_a3ee_bb7b, 0x681c_f586_cbb3_714d),
        (0x30eb_ab61_ed04_839d, 0x1845_a4eb_7c32_ae9a),
        (0xa1ac_9b94_67ac_2052, 0x37c8_9098_f2e1_a215),
        (0x5056_727c_7fd9_fcf8, 0x2b78_2829_e6df_b887),
        (0x7218_3591_bc05_70bc, 0x7f1b_f4b0_4a36_4a1c),
    ];
    let mut measured = Vec::new();
    for (i, bits) in SIZES.into_iter().enumerate() {
        let (ctx, bases, mut r) = setup(0x5EED + i as u64, bits, 3);
        let exps = exponents(&mut r, bits);
        let single: Vec<BigUint> = exps.iter().map(|e| ctx.pow_mod(&bases[0], e)).collect();
        let many: Vec<BigUint> = exps.iter().flat_map(|e| ctx.pow_many(&bases, e)).collect();
        // pow_many shares only the exponent recoding.
        for (e, chunk) in exps.iter().zip(many.chunks(bases.len())) {
            assert_eq!(chunk[0], ctx.pow_mod(&bases[0], e));
        }
        measured.push((digest(&single), digest(&many)));
    }
    assert_eq!(measured, recorded, "measured {measured:#x?}");
}

#[test]
fn fixed_base_pow_reproduces_recorded_outputs() {
    let recorded: [u64; 5] = [
        0xa8a4_45fe_f4ea_56af,
        0x53b7_16a8_4f66_6c7f,
        0xbbc4_1304_0a47_54f6,
        0xde24_ced3_fdcd_fe14,
        0x8ce7_2c31_40cd_889f,
    ];
    let mut measured = Vec::new();
    for (i, bits) in SIZES.into_iter().enumerate() {
        let (ctx, bases, mut r) = setup(0xF1B + i as u64, bits, 1);
        let exps = exponents(&mut r, bits);
        let mut out = Vec::new();
        for window in [1usize, 4, 5] {
            // `bits + 7`-bit exponents overflow the comb and take the ladder.
            let table = FixedBaseTable::new(&ctx, &bases[0], window, bits);
            for e in &exps {
                let got = table.pow(e);
                assert_eq!(got, ctx.pow_mod(&bases[0], e), "{bits} bits, w = {window}");
                out.push(got);
            }
        }
        measured.push(digest(&out));
    }
    assert_eq!(measured, recorded, "measured {measured:#x?}");
}

#[test]
fn multi_exp_reproduces_recorded_outputs_on_both_sides_of_the_cutoff() {
    let recorded: [u64; 5] = [
        0x4da5_2bb2_8d19_4caa,
        0x7220_bf18_1b9c_2543,
        0x56bf_09d1_cdd5_eb46,
        0x02b2_1a95_b33e_821f,
        0xfeb5_5f19_f1c8_17d2,
    ];
    let mut measured = Vec::new();
    for (i, bits) in SIZES.into_iter().enumerate() {
        let (ctx, bases, mut r) = setup(0x3E + i as u64, bits, PIPPENGER_CUTOFF + 8);
        // Mixed widths: zero, single bits (packing shifts), 64-bit
        // coefficients, and a few key-width scalars.
        let exps: Vec<BigUint> = (0..bases.len())
            .map(|j| match j % 5 {
                0 => BigUint::zero(),
                1 => &BigUint::one() << (j * 7 % bits),
                2 => random::gen_biguint_bits(&mut r, 64),
                3 => random::gen_biguint_bits(&mut r, 16),
                _ => random::gen_biguint_exact_bits(&mut r, bits),
            })
            .collect();
        let mut out = Vec::new();
        for k in [
            0,
            1,
            4,
            PIPPENGER_CUTOFF - 1,
            PIPPENGER_CUTOFF,
            PIPPENGER_CUTOFF + 8,
        ] {
            let pairs: Vec<(&BigUint, &BigUint)> =
                bases[..k].iter().zip(exps[..k].iter()).collect();
            let auto = multi_exp(&ctx, &pairs);
            assert_eq!(multi_exp_straus(&ctx, &pairs), auto, "straus k = {k}");
            assert_eq!(multi_exp_pippenger(&ctx, &pairs), auto, "pippenger k = {k}");
            out.push(auto);
        }
        measured.push(digest(&out));
    }
    assert_eq!(measured, recorded, "measured {measured:#x?}");
}

#[test]
fn batch_inverse_reproduces_recorded_outputs() {
    let recorded: [u64; 5] = [
        0xd267_dbc7_50a1_b2d3,
        0x0409_6357_d179_2ac7,
        0x9e6b_e4b7_d60f_17cf,
        0xf3ee_a8bb_751a_674b,
        0xe039_15e8_9411_d01e,
    ];
    let mut measured = Vec::new();
    for (i, bits) in SIZES.into_iter().enumerate() {
        // A prime modulus would make every value a unit; a random odd one
        // almost does. Redraw the rare batch holding a non-unit.
        let mut seed = 0xBA7C + 16 * i as u64;
        let (ctx, inverses) = loop {
            let (ctx, values, _) = setup(seed, bits, 33);
            if let Some(inv) = modular::batch_mod_inverse_with(&ctx, &values) {
                for (v, w) in values.iter().zip(&inv) {
                    assert!((&(v * w) % ctx.modulus()).is_one());
                }
                assert_eq!(
                    modular::batch_mod_inverse_with(&ctx, &values[..1]).unwrap()[0],
                    inv[0]
                );
                break (ctx, inv);
            }
            seed += 1;
        };
        assert!(modular::batch_mod_inverse_with(&ctx, &[BigUint::zero()]).is_none());
        measured.push(digest(&inverses));
    }
    assert_eq!(measured, recorded, "measured {measured:#x?}");
}
