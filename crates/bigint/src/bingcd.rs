//! Modular inversion under an odd modulus by Pornin's optimized binary GCD
//! (*Optimized Binary GCD for Modular Inversion*, IACR ePrint 2020/972,
//! Algorithm 2), on fixed-width limb rows.
//!
//! The state is four rows of `k` limbs (the modulus' width): `a = y`,
//! `b = m`, `u = 1`, `v = 0`, with `a ≡ u·y` and `b ≡ v·y (mod m)`
//! throughout. An outer iteration
//!
//! 1. builds 64-bit approximations of `a` and `b` — their low 31 bits,
//!    exact, under their top 33 bits at the length of the longer of the two
//!    (the whole value once both fit in 64 bits, where the steps are exact);
//! 2. runs 31 binary-GCD divsteps on the approximations alone, branch-free,
//!    collecting them in a 2×2 matrix `[f0 g0; f1 g1]` of entries at most
//!    `2³¹` in magnitude;
//! 3. applies the matrix once to `(a, b)` by a signed multi-limb pass and an
//!    exact shift right by 31, negating a row (and its matrix row) that
//!    comes out negative;
//! 4. applies the same matrix to `(u, v)`, adding the multiple of `m` that
//!    makes each combination divisible by `2³¹` (a Montgomery-style exact
//!    division) before the shift, then one conditional `±m`.
//!
//! Each outer iteration removes at least 31 bits from `len(a) + len(b)`,
//! which starts at most `2·len(m)` and ends at `len(1) = 1` with `a = 0`, so
//! [`outer_bound`] iterations reach `a = 0`, `b = gcd(y, m)`; `y` is
//! invertible iff `b = 1`, and then `v` is `y⁻¹ mod m` with no correction
//! factor. The loop runs exactly that count and asserts `a = 0` after it.
//!
//! Timing: the divsteps are branch-free, but the passes shrink to the
//! active length of `a` and `b` and the `±m` settle branches, so the kernel
//! is variable-time. DESIGN §12 lists which inversions see secret inputs.

use crate::biguint::BigUint;
use crate::montgomery::neg_inv_u64;

/// Divsteps per outer iteration: `k − 1` in the paper, for 64-bit
/// approximations with `k = 32`.
const STEPS: u32 = 31;

/// The exact low bits of an approximation.
const LOW_MASK: u64 = (1 << STEPS) - 1;

/// Outer iterations that bring `a` to zero under a modulus of `bits` bits:
/// `⌈(2·bits − 1)/31⌉`.
pub(crate) fn outer_bound(bits: usize) -> usize {
    (2 * bits - 1).div_ceil(STEPS as usize)
}

/// `y⁻¹ mod m` for odd `m > 1` and `y < m`, or `None` when
/// `gcd(y, m) ≠ 1`.
pub(crate) fn inverse_odd(y: &BigUint, m: &BigUint) -> Option<BigUint> {
    run(y, m).0
}

/// Runs [`outer_bound`] iterations over four rows of `k` limbs: the
/// inverse (if any), and how many iterations started with `a ≠ 0`.
fn run(y: &BigUint, m: &BigUint) -> (Option<BigUint>, usize) {
    debug_assert!(m.is_odd() && !m.is_one() && y < m);
    let bound = outer_bound(m.bit_length());
    let m = m.limbs();
    let k = m.len();
    let m_neg_inv = neg_inv_u64(m[0]);
    let mut rows = vec![0u64; 4 * k];
    let (ab, uv) = rows.split_at_mut(2 * k);
    let (a, b) = ab.split_at_mut(k);
    let (u, v) = uv.split_at_mut(k);
    a[..y.limbs().len()].copy_from_slice(y.limbs());
    b.copy_from_slice(m);
    u[0] = 1;
    // Limbs of a and b from `len` up are zero.
    let mut len = k;
    let mut needed = 0;
    for i in 0..bound {
        while len > 1 && a[len - 1] | b[len - 1] == 0 {
            len -= 1;
        }
        if len > 1 || a[0] != 0 {
            needed = i + 1;
        }
        let (a_bar, b_bar) = approximations(&a[..len], &b[..len]);
        let mut mat = divsteps(a_bar, b_bar);
        let (a_neg, b_neg) = combine_shift(&mut a[..len], &mut b[..len], &mat);
        if a_neg {
            negate(&mut a[..len]);
            mat[0] = -mat[0];
            mat[1] = -mat[1];
        }
        if b_neg {
            negate(&mut b[..len]);
            mat[2] = -mat[2];
            mat[3] = -mat[3];
        }
        combine_mod(u, v, m, m_neg_inv, &mat);
    }
    assert!(
        a.iter().all(|&l| l == 0),
        "binary GCD left a ≠ 0 after its iteration bound"
    );
    let unit = b[0] == 1 && b[1..].iter().all(|&l| l == 0);
    (unit.then(|| BigUint::from_limbs(v.to_vec())), needed)
}

/// 64-bit approximations of `a` and `b`: the low 31 bits of each under its
/// top 33 bits at `n = max(len(a), len(b), 64)`. Exact once `n = 64`.
fn approximations(a: &[u64], b: &[u64]) -> (u64, u64) {
    let top = a.len() - 1;
    let n = 64 * top + (64 - (a[top] | b[top]).leading_zeros() as usize);
    if n <= 64 {
        return (a[0], b[0]);
    }
    let shift = n - 33;
    let approx = |x: &[u64]| (x[0] & LOW_MASK) | (window(x, shift) << STEPS);
    (approx(a), approx(b))
}

/// The 64 bits of `x` from bit `shift` up (zeros above the top limb).
fn window(x: &[u64], shift: usize) -> u64 {
    let (i, off) = (shift / 64, shift % 64);
    let lo = x[i] >> off;
    match x.get(i + 1) {
        Some(&hi) if off > 0 => lo | (hi << (64 - off)),
        _ => lo,
    }
}

/// 31 divsteps on `(a, b)`, `b` odd, as the matrix `[f0, g0, f1, g1]` with
/// `2³¹·a' = f0·a + g0·b` and `2³¹·b' = f1·a + g1·b`. Branch-free: a step
/// subtracts (after a swap when `a < b`) under masks built from `a`'s low
/// bit and the borrow of `a − b`.
fn divsteps(mut a: u64, mut b: u64) -> [i64; 4] {
    let (mut f0, mut g0, mut f1, mut g1) = (1i64, 0i64, 0i64, 1i64);
    for _ in 0..STEPS {
        let odd = (a & 1).wrapping_neg();
        let swap = odd & ((a < b) as u64).wrapping_neg();
        let t = swap & (a ^ b);
        a ^= t;
        b ^= t;
        let (odd, swap) = (odd as i64, swap as i64);
        let t = swap & (f0 ^ f1);
        f0 ^= t;
        f1 ^= t;
        let t = swap & (g0 ^ g1);
        g0 ^= t;
        g1 ^= t;
        a -= odd as u64 & b;
        f0 -= odd & f1;
        g0 -= odd & g1;
        a >>= 1;
        f1 <<= 1;
        g1 <<= 1;
    }
    [f0, g0, f1, g1]
}

/// `x·f` for a limb `x` and `|f| ≤ 2³¹`: one unsigned 64×64 product of `x`
/// and `f`'s two's-complement bits, corrected by `x·2⁶⁴` when `f < 0`.
#[inline(always)]
fn mul_signed(x: u64, f: i64) -> i128 {
    let wide = (x as u128 * f as u64 as u128) as i128;
    wide.wrapping_sub((((f >> 63) as u64 & x) as i128) << 64)
}

/// `(x, y) ← ((f0·x + g0·y)/2³¹, (f1·x + g1·y)/2³¹)` in place, where both
/// divisions are exact; returns which results are negative (left in two's
/// complement over the row).
fn combine_shift(x: &mut [u64], y: &mut [u64], mat: &[i64; 4]) -> (bool, bool) {
    let [f0, g0, f1, g1] = *mat;
    let (mut cx, mut cy) = (0i128, 0i128);
    let (mut px, mut py) = (0u64, 0u64);
    for i in 0..x.len() {
        let (xi, yi) = (x[i], y[i]);
        let tx = mul_signed(xi, f0) + mul_signed(yi, g0) + cx;
        let ty = mul_signed(xi, f1) + mul_signed(yi, g1) + cy;
        if i > 0 {
            x[i - 1] = (px >> STEPS) | ((tx as u64) << (64 - STEPS));
            y[i - 1] = (py >> STEPS) | ((ty as u64) << (64 - STEPS));
        } else {
            debug_assert!(tx as u64 & LOW_MASK == 0 && ty as u64 & LOW_MASK == 0);
        }
        (px, py) = (tx as u64, ty as u64);
        (cx, cy) = (tx >> 64, ty >> 64);
    }
    let last = x.len() - 1;
    x[last] = (px >> STEPS) | ((cx as u64) << (64 - STEPS));
    y[last] = (py >> STEPS) | ((cy as u64) << (64 - STEPS));
    let (hx, hy) = (cx >> STEPS, cy >> STEPS);
    debug_assert!((-1..=0).contains(&hx) && (-1..=0).contains(&hy));
    (hx < 0, hy < 0)
}

/// `(u, v) ← ((f0·u + g0·v)·2⁻³¹, (f1·u + g1·v)·2⁻³¹) mod m` in place, for
/// `u, v < m` and `|f| + |g| ≤ 2³¹` in each row.
fn combine_mod(u: &mut [u64], v: &mut [u64], m: &[u64], m_neg_inv: u64, mat: &[i64; 4]) {
    let [f0, g0, f1, g1] = *mat;
    // The multiple of m that clears each combination's low 31 bits.
    let low = |f: i64, g: i64| {
        let t = u[0]
            .wrapping_mul(f as u64)
            .wrapping_add(v[0].wrapping_mul(g as u64));
        t.wrapping_mul(m_neg_inv) & LOW_MASK
    };
    let (qu, qv) = (low(f0, g0), low(f1, g1));
    let (mut cu, mut cv) = (0i128, 0i128);
    let (mut pu, mut pv) = (0u64, 0u64);
    for i in 0..m.len() {
        let (ui, vi, mi) = (u[i], v[i], m[i] as u128);
        let tu = mul_signed(ui, f0) + mul_signed(vi, g0) + (mi * qu as u128) as i128 + cu;
        let tv = mul_signed(ui, f1) + mul_signed(vi, g1) + (mi * qv as u128) as i128 + cv;
        if i > 0 {
            u[i - 1] = (pu >> STEPS) | ((tu as u64) << (64 - STEPS));
            v[i - 1] = (pv >> STEPS) | ((tv as u64) << (64 - STEPS));
        }
        (pu, pv) = (tu as u64, tv as u64);
        (cu, cv) = (tu >> 64, tv >> 64);
    }
    let last = m.len() - 1;
    u[last] = (pu >> STEPS) | ((cu as u64) << (64 - STEPS));
    v[last] = (pv >> STEPS) | ((cv as u64) << (64 - STEPS));
    settle(u, cu >> STEPS, m);
    settle(v, cv >> STEPS, m);
}

/// Brings `x + high·2^{64k}`, known to lie in `(−m, 2m)`, into `[0, m)`.
fn settle(x: &mut [u64], high: i128, m: &[u64]) {
    if high < 0 {
        add_wrapping(x, m);
    } else if high > 0 || !below(x, m) {
        sub_wrapping(x, m);
    }
}

/// `x < m` on equal-width rows.
fn below(x: &[u64], m: &[u64]) -> bool {
    x.iter().rev().cmp(m.iter().rev()).is_lt()
}

/// `x += m mod 2^{64k}`.
fn add_wrapping(x: &mut [u64], m: &[u64]) {
    let mut carry = false;
    for (xi, &mi) in x.iter_mut().zip(m) {
        let (s, c1) = xi.overflowing_add(mi);
        let (s, c2) = s.overflowing_add(carry as u64);
        *xi = s;
        carry = c1 | c2;
    }
}

/// `x −= m mod 2^{64k}`.
fn sub_wrapping(x: &mut [u64], m: &[u64]) {
    let mut borrow = false;
    for (xi, &mi) in x.iter_mut().zip(m) {
        let (d, b1) = xi.overflowing_sub(mi);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *xi = d;
        borrow = b1 | b2;
    }
}

/// `x ← −x mod 2^{64k}` (two's complement).
fn negate(x: &mut [u64]) {
    let mut carry = true;
    for xi in x.iter_mut() {
        let (s, c) = (!*xi).overflowing_add(carry as u64);
        *xi = s;
        carry = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::rng;

    /// `y = 2^{len(m)−1}` halves `len(m) − 1` times before its first
    /// subtraction and then walks `(m − 1)/2` down bit by bit: it needs the
    /// whole bound, and no shaped or random operand needs more.
    #[test]
    fn the_worst_operands_need_the_whole_bound_and_no_more() {
        let mut r = rng(90);
        let one = BigUint::one();
        for limbs in 1..=33usize {
            for bits in [64 * limbs - 17, 64 * limbs - 1, 64 * limbs] {
                let mut random = gen_biguint_bits(&mut r, bits);
                random.set_bit(0, true);
                random.set_bit(bits - 1, true);
                let saturated = &(&one << bits) - &one;
                for m in [random, saturated] {
                    let bound = outer_bound(bits);
                    let top = &one << (bits - 1);
                    let (inv, needed) = run(&top, &m);
                    assert_eq!(needed, bound, "{bits} bits");
                    assert_eq!(&(&(&top * &inv.unwrap()) % &m), &one);
                    let shaped = [
                        &one << (bits - 2),
                        &m - &(&one << (bits - 2)),
                        &m - &one,
                        one.clone(),
                        gen_biguint_below(&mut r, &m),
                    ];
                    for y in &shaped {
                        assert!(run(y, &m).1 <= bound, "{bits} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn the_bound_is_the_papers() {
        assert_eq!(outer_bound(1), 1);
        assert_eq!(outer_bound(16), 1);
        assert_eq!(outer_bound(17), 2);
        assert_eq!(outer_bound(1024), 67);
        assert_eq!(outer_bound(2048), 133);
    }
}
