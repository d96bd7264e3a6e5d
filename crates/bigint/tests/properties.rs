//! Property-based tests for the big integer substrate.
//!
//! Strategy: generate random byte strings, interpret them as integers, and
//! check algebraic laws plus agreement with `u128` native arithmetic on the
//! embeddable range.

use ppds_bigint::{modular, multi_exp, BigInt, BigUint, FixedBaseTable, MontgomeryCtx};
use proptest::prelude::*;

fn biguint_strategy(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..=max_bytes).prop_map(|b| BigUint::from_bytes_le(&b))
}

fn small_pair() -> impl Strategy<Value = (u128, u128)> {
    (any::<u128>(), any::<u128>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_u128((a, b) in small_pair()) {
        prop_assume!(a.checked_add(b).is_some());
        let got = &BigUint::from_u128(a) + &BigUint::from_u128(b);
        prop_assert_eq!(got, BigUint::from_u128(a + b));
    }

    #[test]
    fn sub_matches_u128((a, b) in small_pair()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let got = &BigUint::from_u128(hi) - &BigUint::from_u128(lo);
        prop_assert_eq!(got, BigUint::from_u128(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let got = &BigUint::from_u64(a) * &BigUint::from_u64(b);
        prop_assert_eq!(got, BigUint::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_matches_u128((a, b) in small_pair()) {
        prop_assume!(b != 0);
        let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
        prop_assert_eq!(q, BigUint::from_u128(a / b));
        prop_assert_eq!(r, BigUint::from_u128(a % b));
    }

    #[test]
    fn add_commutative(a in biguint_strategy(64), b in biguint_strategy(64)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in biguint_strategy(48), b in biguint_strategy(48), c in biguint_strategy(48)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in biguint_strategy(48), b in biguint_strategy(48)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint_strategy(40), b in biguint_strategy(40), c in biguint_strategy(40)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn division_reconstructs(a in biguint_strategy(96), b in biguint_strategy(48)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn add_sub_roundtrip(a in biguint_strategy(64), b in biguint_strategy(64)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn shift_is_power_of_two_mul(a in biguint_strategy(32), shift in 0usize..200) {
        let two_pow = {
            let mut one = BigUint::one();
            one.set_bit(0, false);
            one.set_bit(shift, true);
            one
        };
        prop_assert_eq!(&a << shift, &a * &two_pow);
    }

    #[test]
    fn bytes_roundtrip(a in biguint_strategy(80)) {
        prop_assert_eq!(BigUint::from_bytes_le(&a.to_bytes_le()), a.clone());
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint_strategy(40)) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigUint>().unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint_strategy(40)) {
        let s = format!("{a:x}");
        prop_assert_eq!(BigUint::from_hex(&s).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both(a in biguint_strategy(32), b in biguint_strategy(32)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = modular::gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn gcd_lcm_product_law(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let (a, b) = (BigUint::from_u64(a), BigUint::from_u64(b));
        let g = modular::gcd(&a, &b);
        let l = modular::lcm(&a, &b);
        prop_assert_eq!(&g * &l, &a * &b);
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint_strategy(24), m in biguint_strategy(24)) {
        prop_assume!(!m.is_zero() && !m.is_one());
        if let Some(inv) = modular::mod_inverse(&a, &m) {
            prop_assert_eq!(modular::mod_mul(&(&a % &m), &inv, &m), BigUint::one());
        } else {
            prop_assert!(!modular::gcd(&(&a % &m), &m).is_one());
        }
    }

    #[test]
    fn mod_pow_product_of_exponents(
        base in 2u64..1000,
        e1 in 0u64..64,
        e2 in 0u64..64,
        m in 3u64..1_000_000,
    ) {
        // base^(e1+e2) == base^e1 * base^e2 (mod m)
        let base = BigUint::from_u64(base);
        let m = BigUint::from_u64(m | 1); // keep odd to hit Montgomery path
        let lhs = modular::mod_pow(&base, &BigUint::from_u64(e1 + e2), &m);
        let rhs = modular::mod_mul(
            &modular::mod_pow(&base, &BigUint::from_u64(e1), &m),
            &modular::mod_pow(&base, &BigUint::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn montgomery_matches_plain_reduction(
        a in biguint_strategy(32),
        b in biguint_strategy(32),
        m in biguint_strategy(32),
    ) {
        prop_assume!(m.is_odd() && !m.is_one());
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let (a, b) = (&a % &m, &b % &m);
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, modular::mod_mul(&a, &b, &m));
    }

    #[test]
    fn bigint_arithmetic_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from_i64(a), BigInt::from_i64(b));
        let (a, b) = (a as i128, b as i128);
        prop_assert_eq!(&ba + &bb, BigInt::from_i128(a + b));
        prop_assert_eq!(&ba - &bb, BigInt::from_i128(a - b));
        prop_assert_eq!(&ba * &bb, BigInt::from_i128(a * b));
        if b != 0 {
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q, BigInt::from_i128(a / b));
            prop_assert_eq!(r, BigInt::from_i128(a % b));
        }
    }

    #[test]
    fn bigint_rem_euclid_in_range(a in any::<i64>(), m in 1u64..1_000_000) {
        let modulus = BigUint::from_u64(m);
        let r = BigInt::from_i64(a).rem_euclid(&modulus);
        prop_assert!(r < modulus);
        // (a - r) divisible by m
        let diff = &BigInt::from_i64(a) - &BigInt::from(r);
        prop_assert_eq!(diff.rem_euclid(&modulus), BigUint::zero());
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint_strategy(32), b in biguint_strategy(32)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}

/// Odd modulus > 1, so a [`MontgomeryCtx`] always exists.
fn odd_modulus_strategy(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    biguint_strategy(max_bytes).prop_map(|mut m| {
        m.set_bit(0, true);
        if m.is_one() {
            m.set_bit(2, true); // lift 1 → 5
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `multi_exp` ≡ the naive product of per-operand `mod_pow` ladders.
    /// The pair count crosses the Straus→Pippenger cutoff (32), so both
    /// kernels are exercised by the same law.
    #[test]
    fn multi_exp_matches_naive_product(
        m in odd_modulus_strategy(24),
        operands in proptest::collection::vec(
            (biguint_strategy(24), biguint_strategy(12)),
            0..=40,
        ),
    ) {
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let pairs: Vec<(&BigUint, &BigUint)> =
            operands.iter().map(|(b, e)| (b, e)).collect();
        let got = multi_exp(&ctx, &pairs);
        let naive = operands.iter().fold(&BigUint::one() % &m, |acc, (b, e)| {
            modular::mod_mul(&acc, &modular::mod_pow(b, e, &m), &m)
        });
        prop_assert_eq!(got, naive);
    }

    /// `FixedBaseTable::pow` ≡ `mod_pow` across every window size, for
    /// exponents both inside the comb's width (table path) and beyond it
    /// (fallback path).
    #[test]
    fn fixed_base_table_matches_mod_pow(
        m in odd_modulus_strategy(24),
        base in biguint_strategy(24),
        window in 1usize..=8,
        max_exp_bits in 1usize..160,
        exp in biguint_strategy(24),
    ) {
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let table = FixedBaseTable::new(&ctx, &base, window, max_exp_bits);
        prop_assert_eq!(table.pow(&exp), modular::mod_pow(&base, &exp, &m));
    }

    /// Batch inversion ≡ per-element `mod_inverse`: same inverses when all
    /// elements are units, `None` as soon as any element is not.
    #[test]
    fn batch_inverse_matches_per_element(
        m in odd_modulus_strategy(20),
        values in proptest::collection::vec(biguint_strategy(20), 0..=24),
    ) {
        let per_element: Option<Vec<BigUint>> =
            values.iter().map(|v| modular::mod_inverse(v, &m)).collect();
        prop_assert_eq!(modular::batch_mod_inverse(&values, &m), per_element.clone());
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(modular::batch_mod_inverse_with(&ctx, &values), per_element);
    }

    /// A single zero poisons the whole batch, wherever it sits.
    #[test]
    fn batch_inverse_rejects_zero_element(
        m in odd_modulus_strategy(20),
        values in proptest::collection::vec(biguint_strategy(20), 1..=12),
        at in any::<usize>(),
    ) {
        let mut values = values;
        let at = at % values.len();
        values[at] = BigUint::zero();
        prop_assert_eq!(modular::batch_mod_inverse(&values, &m), None);
    }
}
