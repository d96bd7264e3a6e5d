//! The radix-2^52 Montgomery kernel on AVX-512 IFMA: Gueron and Krasnov's
//! "almost Montgomery" product (*Accelerating big integer arithmetic using
//! Intel IFMA extensions*, ARITH 2016), which [`MontgomeryCtx`] takes for
//! wide moduli on a CPU that has `avx512f` and `avx512ifma`.
//!
//! A row is `N = ⌈(bits + 2)/52⌉` digits of 52 bits in 64-bit words, and
//! `R = 2^{52N}`, so `4m < R`. A product of two rows below `2m` is below
//! `2m` again (`(a·b + q·m)/R < m·(4m/R + 1)`), so rows stay in `[0, 2m)`
//! and only [`Ifma::residue`] — where a value leaves the row domain —
//! subtracts `m`, by a masked select with no early exit.
//!
//! One product runs `N` rounds over eight-lane vectors of 64-bit
//! accumulators: add the low halves of `aᵢ·b` and `u·m`, drop lane 0 (now
//! ≡ 0 mod 2^52) by shifting every lane down one place, add the high halves.
//! No lane is normalized inside the product; a lane gains below `4·2^52` a
//! round, so after `N ≤ 80` rounds it is below `320·2^52 < 2^61`. Lane 0's
//! value, which `u` is read from, is kept beside the vectors in a scalar
//! (see [`amm`]); one scalar pass after the last round carries every lane
//! back to 52 bits.
//!
//! Beside it sits an eight-lane multi-buffer product (Gueron and Krasnov,
//! *Software implementation of modular exponentiation, using advanced
//! vector instructions architectures*, WAIFI 2012): eight independent
//! rows under one modulus, one in each lane, digit `j` of lane `l` at
//! `[j][l]` (`crate::montgomery`'s rows at `L = 8`). Each lane reads its
//! own `u`, the modulus's digits are broadcast, and the shift is a
//! renaming of vectors, not a lane permute; see [`amm8`]. Its `u` sequence is the
//! single-row kernel's, so every lane ends as that kernel's row, digit
//! for digit.
//!
//! This module holds the workspace's only `unsafe` code. An [`Ifma`] can be
//! built only by [`Ifma::new`], after the CPU reports both features. The
//! vector code loads a row's digits eight at a time, masking off the lanes
//! past its end, after asserting the row's length; everything else it
//! loads or stores is a whole `[u64; 8]`.
//!
//! [`MontgomeryCtx`]: crate::MontgomeryCtx

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512, _mm512_castsi512_si128,
    _mm512_loadu_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_maskz_loadu_epi64,
    _mm512_set1_epi64, _mm512_setzero_si512, _mm512_srli_epi64, _mm512_storeu_si512,
    _mm_extract_epi64,
};

use crate::biguint::BigUint;
use crate::montgomery::neg_inv_u64;

/// Bits a digit holds.
const DIGIT: usize = 52;
const MASK: u64 = (1 << DIGIT) - 1;
/// 64-bit lanes a vector holds.
const LANES: usize = 8;
/// Most vectors a row may span: 80 digits, moduli up to 4,158 bits. Ten
/// vectors each of the accumulator, `b` and `m` take 30 of the 32 registers.
const MAX_VECTORS: usize = 10;
/// Most digits the eight-lane product takes: 20, moduli up to 1,038 bits.
/// Its accumulator, `b` and `m` take a vector a digit each, so past 10
/// digits some of `b` and `m` are read from memory each round; at 40
/// digits (2048 bits) the accumulator spills too, and a product took 0.89×
/// eight single products' time, where 20 digits took 0.29–0.34×.
const OCTET_MAX_DIGITS: usize = 20;

/// The IFMA kernel's constants for one odd modulus.
#[derive(Clone)]
pub(crate) struct Ifma {
    /// Digits a row holds (`N`).
    digits: usize,
    /// The modulus's digits, zero-padded to whole vectors.
    m: Vec<[u64; LANES]>,
    /// `1` as a row: the factor that takes a row out of Montgomery form.
    unit: Vec<u64>,
    /// `−m⁻¹ mod 2^52`.
    k0: u64,
}

/// Digits in whole vectors, zero-padded: the modulus, and a product's lanes.
type Vectors<const L: usize> = [[u64; LANES]; L];

impl Ifma {
    /// The kernel for odd `modulus`, or `None` when the CPU lacks
    /// `avx512f` or `avx512ifma` or the modulus is wider than
    /// `MAX_VECTORS` vectors of digits.
    pub(crate) fn new(modulus: &BigUint) -> Option<Self> {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")) {
            return None;
        }
        let digits = (modulus.bit_length() + 2).div_ceil(DIGIT);
        let vectors = digits.div_ceil(LANES);
        if vectors > MAX_VECTORS {
            return None;
        }
        let padded = to_digits(modulus, vectors * LANES);
        Some(Ifma {
            digits,
            m: padded
                .chunks_exact(LANES)
                .map(|c| std::array::from_fn(|i| c[i]))
                .collect(),
            unit: to_digits(&BigUint::one(), digits),
            k0: neg_inv_u64(modulus.limbs()[0]) & MASK,
        })
    }

    /// Digits per row (`N`); `R = 2^{52N}`.
    pub(crate) fn width(&self) -> usize {
        self.digits
    }

    /// `x < 2^{52N}` as a row.
    pub(crate) fn row(&self, x: &BigUint) -> Vec<u64> {
        to_digits(x, self.digits)
    }

    /// `1` as a row: a product with it takes a row out of Montgomery form.
    pub(crate) fn unit(&self) -> &[u64] {
        &self.unit
    }

    /// The canonical residue of a row in `[0, 2m)`: [`Ifma::residue_in_place`]
    /// on a copy.
    pub(crate) fn residue(&self, row: &[u64]) -> BigUint {
        self.residue_in_place(&mut row.to_vec())
    }

    /// The canonical residue of a row in `[0, 2m)`, reducing the row: `m`
    /// or 0 is subtracted, by mask, whichever it is — one pass finds
    /// whether the row is below `m`, a second subtracts.
    pub(crate) fn residue_in_place(&self, row: &mut [u64]) -> BigUint {
        let m = self.m.as_flattened();
        let mut borrow = 0;
        for (&v, &mj) in row.iter().zip(m) {
            borrow = v.wrapping_sub(mj).wrapping_sub(borrow) >> 63;
        }
        // `borrow` is 1 exactly when the row is below m: subtract nothing.
        let keep = borrow.wrapping_neg();
        let mut borrow = 0;
        for (v, &mj) in row.iter_mut().zip(m) {
            let t = v.wrapping_sub(mj & !keep).wrapping_sub(borrow);
            *v = t & MASK;
            borrow = t >> 63;
        }
        from_digits(row)
    }

    /// The value a row holds, unreduced.
    #[cfg(test)]
    pub(crate) fn value(&self, row: &[u64]) -> BigUint {
        from_digits(row)
    }

    /// `acc ← acc·b·R⁻¹`, squaring for no `b`, through the kernel as wide
    /// as the row; both rows in `[0, 2m)`, the result too.
    pub(crate) fn product(&self, acc: &mut [u64], b: Option<&[u64]>) {
        assert!(
            acc.len() == self.digits && b.is_none_or(|b| b.len() == self.digits),
            "rows are N digits wide"
        );
        match self.m.len() {
            1 => self.run::<1>(acc, b),
            2 => self.run::<2>(acc, b),
            3 => self.run::<3>(acc, b),
            4 => self.run::<4>(acc, b),
            5 => self.run::<5>(acc, b),
            6 => self.run::<6>(acc, b),
            7 => self.run::<7>(acc, b),
            8 => self.run::<8>(acc, b),
            9 => self.run::<9>(acc, b),
            _ => self.run::<10>(acc, b),
        }
    }

    /// [`amm`] at `L` vectors, then the lanes carried back to 52-bit
    /// digits in `acc`.
    fn run<const L: usize>(&self, acc: &mut [u64], b: Option<&[u64]>) {
        let b = b.unwrap_or(acc);
        debug_assert!(
            acc.iter().chain(b).all(|&d| d <= MASK),
            "digits hold 52 bits"
        );
        let Ok(m) = <&Vectors<L>>::try_from(&self.m[..]) else {
            unreachable!("the modulus spans L vectors")
        };
        // SAFETY: an `Ifma` exists only when `new` saw the CPU report
        // `avx512f` and `avx512ifma`.
        let lanes = unsafe { amm(acc, b, m, self.k0) };
        let lanes = lanes.as_flattened();
        let mut carry = 0;
        for (digit, &lane) in acc.iter_mut().zip(lanes) {
            let v = lane + carry;
            *digit = v & MASK;
            carry = v >> DIGIT;
        }
        debug_assert_eq!(carry, 0, "the product is below 2m < R");
        debug_assert!(lanes[acc.len()..].iter().all(|&l| l == 0));
    }

    /// Whether the eight-lane product takes rows of this width.
    pub(crate) fn has_octet(&self) -> bool {
        self.digits <= OCTET_MAX_DIGITS
    }

    /// `acc ← acc·b·R⁻¹` in each of the eight lanes, squaring for no `b`;
    /// every lane's rows in `[0, 2m)`, its result too, and equal digit for
    /// digit to [`Ifma::product`] on that lane's rows.
    ///
    /// # Panics
    /// Unless [`Ifma::has_octet`], or unless the octets are `N` digits.
    pub(crate) fn product8(&self, acc: &mut [[u64; LANES]], b: Option<&[[u64; LANES]]>) {
        assert!(
            acc.len() == self.digits && b.is_none_or(|b| b.len() == self.digits),
            "octets are N digits wide"
        );
        macro_rules! at_width {
            ($($n:literal)*) => {
                match self.digits {
                    $($n => self.run8::<$n>(acc, b),)*
                    _ => panic!("the eight-lane product takes at most {OCTET_MAX_DIGITS} digits"),
                }
            };
        }
        at_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20)
    }

    /// [`amm8`] at `N` digits, written back to `acc`.
    fn run8<const N: usize>(&self, acc: &mut [[u64; LANES]], b: Option<&[[u64; LANES]]>) {
        let Ok(a) = <&[[u64; LANES]; N]>::try_from(&*acc) else {
            unreachable!("acc is N digits")
        };
        let b = match b.map(<&[[u64; LANES]; N]>::try_from) {
            None => a,
            Some(Ok(b)) => b,
            Some(Err(_)) => unreachable!("b is N digits"),
        };
        debug_assert!(
            a.iter().chain(b).flatten().all(|&d| d <= MASK),
            "digits hold 52 bits"
        );
        let m = &self.m.as_flattened()[..N];
        // SAFETY: an `Ifma` exists only when `new` saw the CPU report
        // `avx512f` and `avx512ifma`.
        let (out, carry) = unsafe { amm8::<N>(a, b, m, self.k0) };
        debug_assert_eq!(carry, [0; LANES], "every product is below 2m < R");
        acc.copy_from_slice(&out);
    }
}

/// The almost-Montgomery product of the digit rows `a` and `b` (digits
/// below 2^52, values below `2m`) modulo `m`, whose `−m⁻¹ mod 2^52` is
/// `k0`: `N = a.len()` rounds, each adding `aᵢ·b + u·m` and shifting the
/// accumulator down one digit. Returns the unnormalized lanes, lane `j`
/// weighing `2^{52j}`.
///
/// Lane 0, which `u` is read from, is kept in a scalar: its next value is
/// lane 1 as the round found it plus this round's low halves at digit 1
/// and high halves at digit 0, plus the carry the dropped lane owes. So
/// the chain from one `u` to the next is a few scalar products, and the
/// vectors, which only have to deliver lane 1 a round later, run behind
/// it.
///
/// # Safety
/// The CPU must support `avx512f` and `avx512ifma`.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn amm<const L: usize>(a: &[u64], b: &[u64], m: &Vectors<L>, k0: u64) -> Vectors<L> {
    // The loads below rely on this: vector j starts inside `b`.
    assert!(
        b.len() > LANES * (L - 1) && b.len() <= LANES * L,
        "b spans L vectors"
    );
    let zero = _mm512_setzero_si512();
    let (mut bv, mut mv) = ([zero; L], [zero; L]);
    for j in 0..L {
        let inside = (b.len() - LANES * j).min(LANES);
        let mask = (0xFFu16 >> (LANES - inside)) as u8;
        // SAFETY: `LANES·j < b.len()`, so the pointer stays inside `b`, and
        // the load reads only the `inside` lanes the mask keeps, which are
        // in `b`; masked-off lanes are not accessed. `m[j]` is 64 readable
        // bytes. Neither load needs alignment.
        unsafe {
            bv[j] = _mm512_maskz_loadu_epi64(mask, b.as_ptr().add(LANES * j).cast());
            mv[j] = _mm512_loadu_si512(m[j].as_ptr().cast());
        }
    }
    let mut x = [zero; L];
    let (b0, b1) = (b[0], b.get(1).copied().unwrap_or(0));
    let (m0, m1) = (m[0][0], m[0][1]);
    let mut lane0 = 0u64;
    for &ai in a {
        let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(x[0])) as u64;
        let ab0 = ai as u128 * b0 as u128;
        let t = lane0 + (ab0 as u64 & MASK);
        let u = t.wrapping_mul(k0) & MASK;
        let um0 = u as u128 * m0 as u128;
        lane0 = lane1
            + (ai.wrapping_mul(b1) & MASK)
            + (u.wrapping_mul(m1) & MASK)
            + (ab0 >> DIGIT) as u64
            + (um0 >> DIGIT) as u64
            + ((t + (um0 as u64 & MASK)) >> DIGIT);
        let (av, uv) = (_mm512_set1_epi64(ai as i64), _mm512_set1_epi64(u as i64));
        // The high halves belong one digit up, which is where they land
        // after the shift; they are summed apart from the accumulator.
        let mut high = [zero; L];
        for j in 0..L {
            x[j] = _mm512_madd52lo_epu64(x[j], av, bv[j]);
            x[j] = _mm512_madd52lo_epu64(x[j], uv, mv[j]);
            high[j] = _mm512_madd52hi_epu64(zero, av, bv[j]);
            high[j] = _mm512_madd52hi_epu64(high[j], uv, mv[j]);
        }
        for j in 0..L {
            let above = if j + 1 < L { x[j + 1] } else { zero };
            x[j] = _mm512_add_epi64(_mm512_alignr_epi64::<1>(above, x[j]), high[j]);
        }
    }
    let mut out: Vectors<L> = [[0; LANES]; L];
    for (o, v) in out.iter_mut().zip(x) {
        // SAFETY: `o` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(o.as_mut_ptr().cast(), v) };
    }
    // The vector's lane 0 lacks the carries the scalar took in.
    out[0][0] = lane0;
    out
}

/// The almost-Montgomery product of eight pairs of rows at once, lane `l`
/// holding the rows `a[·][l]` and `b[·][l]` (digits below 2^52, values
/// below `2m`) modulo the `m` all lanes share, whose `−m⁻¹ mod 2^52` is
/// `k0`. Returns the eight results carried back to 52-bit digits, and the
/// carry out of the top digit of each lane (zero, as every product is
/// below `2m < R`).
///
/// Round `i` adds `a_i·b + u·m` in every lane, `u` read lane by lane from
/// the low digit, then drops that digit, now `≡ 0 mod 2^52`, carrying
/// its top bits into the next. The low halves of digit `j`'s products go
/// to vector `j`, the high halves to vector `j + 1`; the drop renames the
/// vectors, so no lane crosses another. A lane gains below `4·2^52` a
/// round, so after `N ≤ 20` rounds it is below `80·2^52 < 2^59`.
///
/// # Safety
/// The CPU must support `avx512f` and `avx512ifma`.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn amm8<const N: usize>(
    a: &[[u64; LANES]; N],
    b: &[[u64; LANES]; N],
    m: &[u64],
    k0: u64,
) -> ([[u64; LANES]; N], [u64; LANES]) {
    let zero = _mm512_setzero_si512();
    // SAFETY: `v` is 64 readable bytes; `loadu` needs no alignment.
    let load = |v: &[u64; LANES]| unsafe { _mm512_loadu_si512(v.as_ptr().cast()) };
    let bv: [__m512i; N] = std::array::from_fn(|j| load(&b[j]));
    let mv: [__m512i; N] = std::array::from_fn(|j| _mm512_set1_epi64(m[j] as i64));
    let k0 = _mm512_set1_epi64(k0 as i64);
    let mut x = [zero; N];
    for ai in a {
        let ai = load(ai);
        let x0 = _mm512_madd52lo_epu64(x[0], ai, bv[0]);
        let u = _mm512_madd52lo_epu64(zero, x0, k0);
        let carry = _mm512_srli_epi64::<52>(_mm512_madd52lo_epu64(x0, u, mv[0]));
        // Digit 0, now ≡ 0 mod 2^52, is dropped: the new digit j is the old
        // digit j + 1 with its low halves, plus digit j's high halves.
        x = std::array::from_fn(|j| {
            let mut v = if j + 1 < N { x[j + 1] } else { zero };
            v = _mm512_madd52hi_epu64(v, ai, bv[j]);
            if j + 1 < N {
                v = _mm512_madd52lo_epu64(v, ai, bv[j + 1]);
                v = _mm512_madd52lo_epu64(v, u, mv[j + 1]);
            }
            _mm512_madd52hi_epu64(v, u, mv[j])
        });
        x[0] = _mm512_add_epi64(x[0], carry);
    }
    let mask = _mm512_set1_epi64(MASK as i64);
    let mut out = [[0; LANES]; N];
    let mut carry = zero;
    for (o, &v) in out.iter_mut().zip(&x) {
        let v = _mm512_add_epi64(v, carry);
        // SAFETY: `o` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(o.as_mut_ptr().cast(), _mm512_and_si512(v, mask)) };
        carry = _mm512_srli_epi64::<52>(v);
    }
    let mut top = [0; LANES];
    // SAFETY: `top` is 64 writable bytes; `storeu` needs no alignment.
    unsafe { _mm512_storeu_si512(top.as_mut_ptr().cast(), carry) };
    (out, top)
}

/// The low `n` 52-bit digits of `x`.
fn to_digits(x: &BigUint, n: usize) -> Vec<u64> {
    let limbs = x.limbs();
    let limb = |i: usize| limbs.get(i).copied().unwrap_or(0);
    (0..n)
        .map(|j| {
            let (word, shift) = (DIGIT * j / 64, DIGIT * j % 64);
            let high = if shift > 64 - DIGIT {
                limb(word + 1) << (64 - shift)
            } else {
                0
            };
            ((limb(word) >> shift) | high) & MASK
        })
        .collect()
}

/// The value of 52-bit digits.
fn from_digits(digits: &[u64]) -> BigUint {
    let mut limbs = vec![0; (DIGIT * digits.len()).div_ceil(64)];
    for (j, &d) in digits.iter().enumerate() {
        let (word, shift) = (DIGIT * j / 64, DIGIT * j % 64);
        limbs[word] |= d << shift;
        if shift > 64 - DIGIT {
            limbs[word + 1] |= d >> (64 - shift);
        }
    }
    BigUint::from_limbs(limbs)
}
