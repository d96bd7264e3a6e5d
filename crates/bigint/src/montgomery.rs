//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Paillier works modulo `n` and `n²`, both odd, so every hot modular
//! exponentiation in the workspace goes through this context. Inside the
//! kernels a residue is a fixed-width row and every product is taken in
//! place, with caller-owned [`Scratch`] where the kernel needs any — one
//! allocation per exponentiation, not two per product. A context runs one of
//! two kernels, chosen once in [`MontgomeryCtx::new`] from the CPU and the
//! width of the modulus alone:
//!
//! * scalar: rows of `k` 64-bit limbs, `R = 2^{64k}`, a finely integrated
//!   operand scanning product ([`MontgomeryCtx::mul_assign`]), every row
//!   canonical;
//! * IFMA, on a CPU with `avx512f` and `avx512ifma` and moduli of at least
//!   [`IFMA_MIN_LIMBS`] limbs: rows of `N = ⌈(bits + 2)/52⌉` 52-bit digits,
//!   `R = 2^{52N}`, Gueron–Krasnov's almost-Montgomery product over
//!   eight-lane vectors (`crate::ifma`), rows in `[0, 2m)`.
//!
//! Exponentiation runs on `L` rows side by side, `Vec<[u64; L]>` with word
//! `j` of lane `l` at `[j][l]`: one row at `L = 1`, and at `L = 8` the
//! IFMA kernel's eight-lane product (up to 20 digits, 1,038 bits), each lane
//! ending as the single-row product would leave it. The lane count is a
//! parameter of one body each — the ladder here, the comb scan in
//! `multiexp` — and is chosen once per batch by
//! [`MontgomeryCtx::lane_groups`]: eight items at a time where a group is
//! large enough to pay ([`MontgomeryCtx::octet_serves`]), one by one
//! everywhere else. The one-item forms are batches of one.
//!
//! A square is the product of a row with itself on either kernel.
//! Exponentiation uses a fixed 4-bit window. The `BigUint` entry points
//! ([`MontgomeryCtx::mont_mul`] and friends) are the same kernels behind a
//! conversion and return canonical residues on either kernel, so the values
//! they hand out differ between kernels only by the `R` they are in
//! Montgomery form for.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::biguint::BigUint;
#[cfg(target_arch = "x86_64")]
use crate::ifma::Ifma;

/// Narrowest modulus, in 64-bit limbs, that takes the IFMA kernel
/// (DESIGN.md §12). On a Xeon with `avx512ifma`, sixteen single-row
/// ladders at a 160-bit exponent took 0.68–0.78× the scalar kernel's time
/// at 8 limbs, and the two were within the box's spread of each other at
/// 4–7; a product in place took 0.3–0.4× at 16 limbs and 0.2–0.25× at 32.
/// A 16-base `pow_many`, which runs that shape on the eight-lane product,
/// took 0.13× the scalar time at 8 limbs and 0.12× at 16.
const IFMA_MIN_LIMBS: usize = 8;

/// Lanes of the eight-lane product.
pub(crate) const OCTET: usize = 8;

/// Fewest rows of `digits` digits that run faster on the eight-lane
/// product, which costs the same for eight, than one by one (DESIGN.md
/// §12). On a Xeon with `avx512ifma` an eight-lane product took 1.5–1.7
/// single products' time at 9–10 digits, 1.9 at 12, 2.1–2.3 at 14–15 and
/// 2.3–2.7 at 16–20; through a ladder or a comb scan, packing the lanes
/// and taking them out adds to that, so a 160-bit ladder mod 512 bits ran
/// 0.77× the single ladders' time at two lanes and a 400-bit comb scan mod
/// 1024 bits 1.1–1.3× at three and 0.8–0.95× at four.
fn octet_min_lanes(digits: usize) -> usize {
    match digits {
        0..=12 => 2,
        13..=15 => 3,
        _ => 4,
    }
}

/// `row` in every lane: the row itself at `L = 1`, copies side by side
/// above.
pub(crate) fn splat<const L: usize>(row: &[u64]) -> Cow<'_, [[u64; L]]> {
    match row.as_chunks::<L>() {
        (rows, []) if L == 1 => Cow::Borrowed(rows),
        _ => Cow::Owned(row.iter().map(|&w| [w; L]).collect()),
    }
}

/// Lane `lane` of `rows` ← `row`.
pub(crate) fn put_lane<const L: usize>(rows: &mut [[u64; L]], lane: usize, row: &[u64]) {
    for (words, &w) in rows.iter_mut().zip(row) {
        words[lane] = w;
    }
}

/// The row lane `lane` of `rows` holds.
#[cfg(test)]
pub(crate) fn lane_row<const L: usize>(rows: &[[u64; L]], lane: usize) -> Vec<u64> {
    rows.iter().map(|words| words[lane]).collect()
}

/// The operand whose lane `l` holds `rows[l]`: the one row itself at
/// `L = 1`, gathered into `buf` above, a whole word of lanes at a time.
pub(crate) fn gather<'a, const L: usize>(
    buf: &'a mut [[u64; L]],
    rows: [&'a [u64]; L],
) -> &'a [[u64; L]] {
    if L == 1 {
        return rows[0].as_chunks().0;
    }
    let rows = rows.map(|row| &row[..buf.len()]);
    for (j, words) in buf.iter_mut().enumerate() {
        *words = std::array::from_fn(|l| rows[l][j]);
    }
    buf
}

/// Precomputed state for repeated multiplication modulo a fixed odd modulus.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus `m` (odd, > 1).
    modulus: BigUint,
    /// The product kernel and the constants it reduces with.
    kernel: Kernel,
    /// `R² mod m` as a row, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod m` — the unit element of the Montgomery domain
    /// (`to_mont(1 mod m)`), kept so every exponentiation and every
    /// multi-exponentiation kernel starts without a conversion multiply.
    one_mont: BigUint,
    /// Which context this is, shared by its clones: a [`MontValue`] is
    /// stamped with it and refused by every other context.
    id: u64,
}

/// A residue in a context's Montgomery form, held in that context's row
/// layout between products: `x·R mod m` as the kernel keeps it (a scalar
/// row is canonical, an IFMA row may hold `m` more). A chain of products
/// on values converts once on the way in ([`MontgomeryCtx::to_mont_value`])
/// and once on the way out (a product with a plain residue,
/// [`MontgomeryCtx::mul_out`], or a comb scan's factor,
/// [`crate::FixedBaseTable::pow_mul_many`]), where the [`BigUint`] forms
/// ([`MontgomeryCtx::mont_mul`] and friends) widen both operands and
/// narrow the product at every call. A value belongs to the context that
/// made it and to that context's clones; any other context panics on it.
#[derive(Clone)]
pub struct MontValue {
    /// The id of the context the row belongs to.
    ctx: u64,
    row: Vec<u64>,
}

/// Source of context ids.
static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(0);

/// The product a context runs, with its row format.
#[derive(Clone)]
enum Kernel {
    /// Rows of `k` 64-bit limbs, `R = 2^{64k}`, canonical.
    Scalar {
        /// `−m⁻¹ mod 2^64`.
        n0_inv: u64,
    },
    /// Rows of `N` 52-bit digits, `R = 2^{52N}`, in `[0, 2m)`.
    #[cfg(target_arch = "x86_64")]
    Ifma(Ifma),
}

/// Working space of the scalar kernel (`2k + 2` limbs; none for the IFMA
/// kernel): allocated once per exponentiation by
/// [`MontgomeryCtx::scratch`] and lent to every product in it.
pub(crate) struct Scratch(Vec<u64>);

/// `acc + a·b + carry` as `(low, high)`; cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = acc as u128 + a as u128 * b as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; returns `None` otherwise.
    /// The IFMA kernel serves it when the CPU has one and the modulus is
    /// at least 8 limbs (512 bits) wide; the scalar kernel otherwise.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let kernel = Some(modulus)
            .filter(|m| m.limbs().len() >= IFMA_MIN_LIMBS)
            .and_then(Self::ifma)
            .unwrap_or_else(|| Self::scalar(modulus));
        Some(Self::with_kernel(modulus, kernel))
    }

    fn scalar(modulus: &BigUint) -> Kernel {
        Kernel::Scalar {
            n0_inv: neg_inv_u64(modulus.limbs()[0]),
        }
    }

    /// The IFMA kernel for `modulus`, where the CPU has one.
    #[cfg(target_arch = "x86_64")]
    fn ifma(modulus: &BigUint) -> Option<Kernel> {
        Ifma::new(modulus).map(Kernel::Ifma)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn ifma(_: &BigUint) -> Option<Kernel> {
        None
    }

    /// The context for odd `modulus > 1` on `kernel`.
    fn with_kernel(modulus: &BigUint, kernel: Kernel) -> Self {
        let mut ctx = MontgomeryCtx {
            modulus: modulus.clone(),
            kernel,
            r2: Vec::new(),
            one_mont: BigUint::zero(),
            id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
        };
        let r_bits = ctx.r_bits();
        ctx.one_mont = &(&BigUint::one() << r_bits) % modulus;
        // R² mod m is 2^{r_bits}·R, the Montgomery form of R: from 2·R, a
        // Montgomery square takes 2^e·R to 2^{2e}·R and a doubling to
        // 2^{e+1}·R, so the bits of r_bits below its top one reach it in
        // ⌊log₂ r_bits⌋ squarings and at most as many doublings.
        let double = |row: &[u64]| {
            let x = ctx.residue(row);
            ctx.widen(&x.add_mod(&x, modulus))
        };
        let mut scratch = ctx.scratch();
        let mut r2 = double(&ctx.one_limbs());
        for bit in (0..r_bits.ilog2()).rev() {
            ctx.sqr_assign(&mut r2, &mut scratch);
            if (r_bits >> bit) & 1 == 1 {
                r2 = double(&r2);
            }
        }
        ctx.r2 = r2;
        ctx
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Converts `x < m` into Montgomery form `x·R mod m`.
    pub fn to_mont(&self, x: &BigUint) -> BigUint {
        debug_assert!(x < &self.modulus);
        self.residue(&self.to_mont_limbs(x, &mut self.scratch()))
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
        self.mul_assign(&mut acc, &self.widen(b), &mut self.scratch());
        self.residue(&acc)
    }

    /// Montgomery square `a²·R^{-1} mod m` — equal to `mont_mul(a, a)`.
    pub fn mont_sqr(&self, a: &BigUint) -> BigUint {
        debug_assert!(a < &self.modulus);
        let mut acc = self.widen(a);
        self.sqr_assign(&mut acc, &mut self.scratch());
        self.residue(&acc)
    }

    /// `R mod m` — the multiplicative identity of the Montgomery domain.
    ///
    /// Equal to `to_mont(1 mod m)`; exposed so exponentiation kernels can
    /// seed their accumulators without a conversion multiply.
    pub fn one_mont(&self) -> &BigUint {
        &self.one_mont
    }

    /// `R = 2^{r_bits}`: `64k` on the scalar kernel, `52N` on the IFMA one.
    pub(crate) fn r_bits(&self) -> usize {
        match &self.kernel {
            Kernel::Scalar { .. } => 64 * self.width(),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => 52 * ifma.width(),
        }
    }

    /// Words per residue row: `k` limbs, or `N` digits.
    pub(crate) fn width(&self) -> usize {
        match &self.kernel {
            Kernel::Scalar { .. } => self.modulus.limbs().len(),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.width(),
        }
    }

    /// Fresh working space for this modulus.
    pub(crate) fn scratch(&self) -> Scratch {
        match &self.kernel {
            Kernel::Scalar { .. } => Scratch(vec![0; 2 * self.width() + 2]),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(_) => Scratch(Vec::new()),
        }
    }

    /// `x < m` as a row.
    pub(crate) fn widen(&self, x: &BigUint) -> Vec<u64> {
        match &self.kernel {
            Kernel::Scalar { .. } => {
                let mut row = Vec::with_capacity(self.width());
                row.extend_from_slice(x.limbs());
                row.resize(self.width(), 0);
                row
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.row(x),
        }
    }

    /// The canonical residue of a row — itself on the scalar kernel, less
    /// `m` when it is not below `m` on the IFMA kernel.
    pub(crate) fn residue(&self, row: &[u64]) -> BigUint {
        match &self.kernel {
            Kernel::Scalar { .. } => BigUint::from_limbs(row.to_vec()),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.residue(row),
        }
    }

    /// [`Self::one_mont`] as a row.
    pub(crate) fn one_limbs(&self) -> Vec<u64> {
        self.widen(&self.one_mont)
    }

    /// `x` (of any size; reduced first) in Montgomery form, as a row.
    pub(crate) fn to_mont_limbs(&self, x: &BigUint, scratch: &mut Scratch) -> Vec<u64> {
        let mut row = self.reduced_row(x);
        self.mul_assign(&mut row, &self.r2, scratch);
        row
    }

    /// `x mod m` as a row, `x` of any size.
    fn reduced_row(&self, x: &BigUint) -> Vec<u64> {
        if x >= &self.modulus {
            self.widen(&(x % &self.modulus))
        } else {
            self.widen(x)
        }
    }

    /// The canonical residue a Montgomery row stands for: on the scalar
    /// kernel one reduction pass over `x̄` itself, half the work of a
    /// product with 1; on the IFMA kernel that product.
    pub(crate) fn out_of_mont(&self, x: &[u64], scratch: &mut Scratch) -> BigUint {
        match &self.kernel {
            Kernel::Scalar { n0_inv } => {
                let k = self.width();
                let t = &mut scratch.0[..];
                t[..k].copy_from_slice(x);
                t[k..].fill(0);
                let mut out = vec![0; k];
                self.redc(*n0_inv, t, &mut out);
                BigUint::from_limbs(out)
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => {
                let mut row = x.to_vec();
                ifma.product(&mut row, Some(ifma.unit()));
                ifma.residue(&row)
            }
        }
    }

    /// Whether a group of `lanes` rows runs on the eight-lane product: the
    /// IFMA kernel, rows of at most 20 digits, and enough lanes to pay for
    /// the eight the product computes.
    pub(crate) fn octet_serves(&self, lanes: usize) -> bool {
        match &self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.has_octet() && lanes >= octet_min_lanes(ifma.width()),
            _ => false,
        }
    }

    /// `items` cut into the groups a batch runs in, each with whether it
    /// takes the eight-lane product: a chunk of up to eight items is one
    /// group where [`Self::octet_serves`] its size, and an item a group
    /// otherwise. The one place the lane count is chosen.
    pub(crate) fn lane_groups<'a, T>(&self, items: &'a [T]) -> Vec<(&'a [T], bool)> {
        let mut groups = Vec::new();
        for group in items.chunks(OCTET) {
            if self.octet_serves(group.len()) {
                groups.push((group, true));
            } else {
                groups.extend(group.chunks(1).map(|item| (item, false)));
            }
        }
        groups
    }

    /// `acc ← acc·b·R^{-1} mod m` in each of `L` lanes, squaring for no
    /// `b`: the single-row product at `L = 1`, the eight-lane one at
    /// `L = 8`, where each lane ends as the single-row product leaves its
    /// own rows.
    ///
    /// # Panics
    /// At `L = 8`, unless the context serves octets ([`Self::octet_serves`]).
    pub(crate) fn product_lanes<const L: usize>(
        &self,
        acc: &mut [[u64; L]],
        b: Option<&[[u64; L]]>,
        scratch: &mut Scratch,
    ) {
        if L == 1 {
            self.product(acc.as_flattened_mut(), b.map(<[_]>::as_flattened), scratch);
            return;
        }
        match &self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) if L == OCTET => ifma.product8(
                acc.as_flattened_mut().as_chunks_mut().0,
                b.map(|b| b.as_flattened().as_chunks().0),
            ),
            _ => unreachable!("eight lanes run on the IFMA kernel alone"),
        }
    }

    /// The canonical residues of the first `lanes` lanes of Montgomery
    /// rows: [`Self::out_of_mont`] lane by lane, each lane copied out into
    /// one row buffer, so no lane allocates but its result.
    pub(crate) fn out_of_mont_lanes<const L: usize>(
        &self,
        mut acc: Vec<[u64; L]>,
        lanes: usize,
        scratch: &mut Scratch,
    ) -> Vec<BigUint> {
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma(ifma) = &self.kernel {
            self.product_lanes(&mut acc, Some(&splat(ifma.unit())), scratch);
        }
        let mut row = vec![0; self.width()];
        (0..lanes)
            .map(|lane| {
                for (word, words) in row.iter_mut().zip(&acc) {
                    *word = words[lane];
                }
                match &self.kernel {
                    Kernel::Scalar { .. } => self.out_of_mont(&row, scratch),
                    #[cfg(target_arch = "x86_64")]
                    Kernel::Ifma(ifma) => ifma.residue_in_place(&mut row),
                }
            })
            .collect()
    }

    /// `acc ← acc·b·R^{-1} mod m`.
    pub(crate) fn mul_assign(&self, acc: &mut [u64], b: &[u64], scratch: &mut Scratch) {
        self.product(acc, Some(b), scratch);
    }

    /// `acc ← acc²·R^{-1} mod m`: the product kernel with `acc` as both
    /// operands. A squaring body that took each cross product once was
    /// slower in place at 4 limbs and no faster at 8, the widths sessions
    /// square at on this kernel where the CPU has IFMA (DESIGN.md §12).
    pub(crate) fn sqr_assign(&self, acc: &mut [u64], scratch: &mut Scratch) {
        self.product(acc, None, scratch);
    }

    /// `acc ← acc·b·R^{-1} mod m`, squaring for no `b`.
    fn product(&self, acc: &mut [u64], b: Option<&[u64]>, scratch: &mut Scratch) {
        match &self.kernel {
            Kernel::Scalar { n0_inv } => {
                let t = &mut scratch.0[..];
                self.cios(*n0_inv, acc, b.unwrap_or(acc), t);
                let k = self.width();
                self.settle(&t[k..2 * k], t[2 * k], acc);
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.product(acc, b),
        }
    }

    /// The scalar product `a·b·R^{-1}`, below `2m`, into `t[k..=2k]`:
    /// operand scanning with the reduction folded into the same pass (two
    /// carry chains, one sweep of `t` per limb of `a`). Round `i` works on
    /// the window `t[i..i + k + 2]`, so nothing is shifted.
    fn cios(&self, n0_inv: u64, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.width();
        let m = self.modulus.limbs();
        assert!(a.len() == k && b.len() == k, "rows are k limbs wide");
        t.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            let w = &mut t[i..i + k + 2];
            let (low, mut c1) = mac(w[0], ai, b[0], 0);
            // u makes the window's lowest limb vanish: t += u·m.
            let u = low.wrapping_mul(n0_inv);
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
    }

    /// Montgomery reduction of the `2k`-limb value in `t` (below `m·R`;
    /// `t` has a spare limb above it): `out ← t·R^{-1} mod m`.
    fn redc(&self, n0_inv: u64, t: &mut [u64], out: &mut [u64]) {
        let k = self.width();
        let m = self.modulus.limbs();
        let mut top = 0u64;
        for i in 0..k {
            let u = t[i].wrapping_mul(n0_inv);
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

    /// The last step of every scalar product: `value + overflow·R` is
    /// below `2m`; write its canonical residue to `out`.
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

    /// The powers `base^0 ..= base^max_digit` in Montgomery form of up to
    /// `L` bases, one a lane (lanes past the bases hold zero), as
    /// consecutive rows: `base^j` at `[j·w, (j+1)·w)` for `w` words a row.
    /// Every power, not just the odd ones, as the interleaved window scans
    /// of [`crate::multi_exp`] need; `max_digit ≥ 1`.
    pub(crate) fn powers<const L: usize>(
        &self,
        bases: &[BigUint],
        max_digit: usize,
        scratch: &mut Scratch,
    ) -> Vec<[u64; L]> {
        let w = self.width();
        let mut table = splat(&self.one_limbs()).into_owned();
        table.resize(2 * w, [0; L]);
        for (lane, base) in bases.iter().enumerate() {
            put_lane(&mut table[w..], lane, &self.reduced_row(base));
        }
        self.product_lanes(&mut table[w..], Some(&splat(&self.r2)), scratch);
        for d in 2..=max_digit {
            table.extend_from_within((d - 1) * w..d * w);
            let (done, next) = table.split_at_mut(d * w);
            self.product_lanes(next, Some(&done[w..2 * w]), scratch);
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
    /// one) for up to `L` bases, one a lane: every lane runs the products
    /// of its own base's ladder, so it ends with the same row. The table
    /// holds `base^0 ..= base^d` for the largest digit `d` the exponent
    /// uses and no more: a `×3` scaling or a 16-bit mask is a ladder of a
    /// few products and must not pay fourteen for its table.
    fn ladder<const L: usize>(
        &self,
        bases: &[BigUint],
        digits: &[u8],
        scratch: &mut Scratch,
    ) -> Vec<BigUint> {
        let w = self.width();
        let max_digit = digits.iter().copied().max().unwrap_or(0) as usize;
        let table = self.powers::<L>(bases, max_digit, scratch);
        let mut acc = table[..w].to_vec();
        for (i, &d) in digits.iter().enumerate() {
            if i > 0 {
                for _ in 0..4 {
                    self.product_lanes(&mut acc, None, scratch);
                }
            }
            if d != 0 {
                let d = d as usize;
                self.product_lanes(&mut acc, Some(&table[d * w..(d + 1) * w]), scratch);
            }
        }
        self.out_of_mont_lanes(acc, bases.len(), scratch)
    }

    /// `x` (of any size; reduced first) in this context's Montgomery form.
    pub fn to_mont_value(&self, x: &BigUint) -> MontValue {
        self.value(self.to_mont_limbs(x, &mut self.scratch()))
    }

    /// `R mod m` as a value: the Montgomery form of 1, the empty product.
    pub fn one_value(&self) -> MontValue {
        self.value(self.one_limbs())
    }

    /// `a ← a·b·R⁻¹ mod m`: the product of two values, in place.
    ///
    /// # Panics
    /// If either value belongs to another context.
    pub fn mul_value(&self, a: &mut MontValue, b: &MontValue) {
        self.check(a);
        self.check(b);
        self.mul_assign(&mut a.row, &b.row, &mut self.scratch());
    }

    /// The canonical residue `ā·x·R⁻¹ mod m` for a value `ā` and `x < m`
    /// out of the form: `a·x mod m` for `ā = a·R`, one product and no
    /// conversion of `ā`.
    ///
    /// # Panics
    /// If the value belongs to another context.
    pub fn mul_out(&self, a: &MontValue, x: &BigUint) -> BigUint {
        self.check(a);
        debug_assert!(x < &self.modulus);
        let mut row = self.widen(x);
        self.mul_assign(&mut row, &a.row, &mut self.scratch());
        self.residue(&row)
    }

    /// A row of this context as a value.
    fn value(&self, row: Vec<u64>) -> MontValue {
        MontValue { ctx: self.id, row }
    }

    /// The row of a value of this context.
    ///
    /// # Panics
    /// If the value belongs to another context.
    pub(crate) fn row_of<'a>(&self, a: &'a MontValue) -> &'a [u64] {
        self.check(a);
        &a.row
    }

    fn check(&self, a: &MontValue) {
        assert_eq!(a.ctx, self.id, "a MontValue is used by its own context");
    }

    /// `base^exp mod m` using a 4-bit fixed window: a [`Self::pow_many`] of
    /// one base.
    ///
    /// `base` may be ≥ m; it is reduced first.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_many(std::slice::from_ref(base), exp).remove(0)
    }

    /// Raises many bases to one shared exponent: `[b^exp mod m; bases]`.
    ///
    /// The exponent's window decomposition is computed once. On the IFMA
    /// kernel at up to 20 digits the bases run eight at a time, one a lane
    /// of the eight-lane product, each through the products of its own
    /// ladder; a group too small to pay for it (DESIGN.md §12), and every
    /// group on the scalar kernel, runs base by base.
    pub fn pow_many(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        if exp.is_zero() {
            let one = &BigUint::one() % &self.modulus;
            return vec![one; bases.len()];
        }
        let digits = Self::exp_windows4(exp);
        let mut scratch = self.scratch();
        let mut out = Vec::with_capacity(bases.len());
        for (group, eight) in self.lane_groups(bases) {
            out.extend(if eight {
                self.ladder::<OCTET>(group, &digits, &mut scratch)
            } else {
                self.ladder::<1>(group, &digits, &mut scratch)
            });
        }
        out
    }
}

/// Kernel choice for tests: a context on either kernel at any width.
#[cfg(test)]
impl MontgomeryCtx {
    /// The canonical residue `x̄ mod m` of a value's Montgomery form — what
    /// [`Self::to_mont`] and [`Self::mont_mul`] hand out for the same chain.
    pub(crate) fn mont_form(&self, a: &MontValue) -> BigUint {
        self.check(a);
        self.residue(&a.row)
    }

    /// The context for odd `modulus > 1` on the scalar kernel, or on the
    /// IFMA kernel at any width it supports (`None` on a CPU without one).
    pub(crate) fn on_kernel(modulus: &BigUint, ifma: bool) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let kernel = if ifma {
            Self::ifma(modulus)?
        } else {
            Self::scalar(modulus)
        };
        Some(Self::with_kernel(modulus, kernel))
    }

    /// Every kernel this CPU runs `modulus` on: scalar, then IFMA.
    pub(crate) fn on_each_kernel(modulus: &BigUint) -> Vec<Self> {
        [false, true]
            .into_iter()
            .filter_map(|ifma| Self::on_kernel(modulus, ifma))
            .collect()
    }

    pub(crate) fn is_ifma(&self) -> bool {
        !matches!(self.kernel, Kernel::Scalar { .. })
    }

    /// The value a row holds, unreduced (an IFMA row may hold `m` more
    /// than its residue).
    pub(crate) fn row_value(&self, row: &[u64]) -> BigUint {
        match &self.kernel {
            Kernel::Scalar { .. } => BigUint::from_limbs(row.to_vec()),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(ifma) => ifma.value(row),
        }
    }
}

/// `-m0^{-1} mod 2^64` for odd `m0`, by Newton–Hensel lifting
/// (doubles correct bits each step: 5 iterations ≥ 64 bits).
pub(crate) fn neg_inv_u64(m0: u64) -> u64 {
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
    use crate::test_helpers::{hard_moduli, hard_operands, naive_pow, rng};

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    /// The allocating word-level CIOS product the in-place kernels
    /// replaced, kept as the reference they are compared against.
    #[allow(clippy::needless_range_loop)] // index form mirrors the CIOS recurrence
    fn mont_mul_reference(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) -> BigUint {
        let m = ctx.modulus.limbs();
        let k = m.len();
        let n0_inv = neg_inv_u64(m[0]);
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
            let u = t[0].wrapping_mul(n0_inv);
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

    #[test]
    fn in_place_kernels_match_the_reference_and_long_division() {
        let mut r = rng(80);
        for limbs in [1usize, 2, 3, 16, 17, 32, 33] {
            for m in hard_moduli(&mut r, limbs) {
                let ops = hard_operands(&mut r, &m);
                for ctx in MontgomeryCtx::on_each_kernel(&m) {
                    let kernel = if ctx.is_ifma() { "ifma" } else { "scalar" };
                    let width = if ctx.is_ifma() {
                        (m.bit_length() + 2).div_ceil(52)
                    } else {
                        limbs
                    };
                    assert_eq!(ctx.width(), width, "{limbs} limbs, {kernel}");
                    // The context's own R: 2^{64k} or 2^{52N}.
                    let r_bits = ctx.r_bits();
                    let r2_by_division = &(&BigUint::one() << (2 * r_bits)) % &m;
                    assert_eq!(ctx.residue(&ctx.r2), r2_by_division);
                    // R⁻¹ mod m, so (a·b·R⁻¹) % m can be taken by division.
                    let r_mod_m = &(&BigUint::one() << r_bits) % &m;
                    assert_eq!(ctx.one_mont(), &r_mod_m);
                    let r_inv = crate::modular::mod_inverse(&r_mod_m, &m).unwrap();
                    let mut scratch = ctx.scratch();
                    for a in &ops {
                        for b in &ops {
                            let want = &(&(&(a * b) % &m) * &r_inv) % &m;
                            if !ctx.is_ifma() {
                                assert_eq!(mont_mul_reference(&ctx, a, b), want, "{limbs} limbs");
                            }
                            assert_eq!(ctx.mont_mul(a, b), want, "{limbs} limbs, {kernel}");
                            let mut row = ctx.widen(a);
                            ctx.mul_assign(&mut row, &ctx.widen(b), &mut scratch);
                            assert_eq!(
                                ctx.residue(&row),
                                want,
                                "{limbs} limbs, {kernel}, in place"
                            );
                            // A scalar row is canonical; an IFMA row may
                            // hold m more.
                            let raw = ctx.row_value(&row);
                            assert!(
                                raw == want || (ctx.is_ifma() && raw == &want + &m),
                                "{limbs} limbs, {kernel}, row in [0, 2m)"
                            );
                        }
                        // A square is the product with itself.
                        assert_eq!(
                            ctx.mont_sqr(a),
                            ctx.mont_mul(a, a),
                            "{limbs} limbs, {kernel}, squaring"
                        );
                        // Conversions: to_mont is a·R, from_mont a·R⁻¹.
                        assert_eq!(ctx.to_mont(a), &(a * &r_mod_m) % &m);
                        assert_eq!(ctx.from_mont(a), &(a * &r_inv) % &m);
                    }
                }
            }
        }
    }

    /// A [`MontValue`] chain is the `BigUint` API's chain: on each kernel,
    /// a product, a square (a value times itself) and a long mixed chain of
    /// values, read back in the form, equal what `mont_mul` / `mont_sqr`
    /// give on the same operands; the unit value is `one_mont`, and
    /// `mul_out` is the plain product, which takes a chain out of the form.
    #[test]
    fn values_agree_with_mont_mul_and_mont_sqr_on_both_kernels() {
        let mut r = rng(83);
        for limbs in [1usize, 3, 8, 16, 17, 32] {
            for m in hard_moduli(&mut r, limbs) {
                let ops = hard_operands(&mut r, &m);
                for ctx in MontgomeryCtx::on_each_kernel(&m) {
                    let kernel = if ctx.is_ifma() { "ifma" } else { "scalar" };
                    let label = format!("{limbs} limbs, {kernel}");
                    assert_eq!(&ctx.mont_form(&ctx.one_value()), ctx.one_mont(), "{label}");
                    for a in &ops {
                        let (a_mont, a_value) = (ctx.to_mont(a), ctx.to_mont_value(a));
                        assert_eq!(ctx.mont_form(&a_value), a_mont, "{label}");
                        let mut squared = a_value.clone();
                        ctx.mul_value(&mut squared, &a_value);
                        assert_eq!(ctx.mont_form(&squared), ctx.mont_sqr(&a_mont), "{label}");
                        for b in &ops {
                            let mut product = a_value.clone();
                            ctx.mul_value(&mut product, &ctx.to_mont_value(b));
                            let want = ctx.mont_mul(&a_mont, &ctx.to_mont(b));
                            assert_eq!(ctx.mont_form(&product), want, "{label}");
                            assert_eq!(ctx.mul_out(&a_value, b), &(a * b) % &m, "{label}");
                        }
                    }
                    let (mut value, mut chain) = (ctx.one_value(), ctx.one_mont().clone());
                    for step in 0..70 {
                        if step % 3 == 0 {
                            let factor = value.clone();
                            ctx.mul_value(&mut value, &factor);
                            chain = ctx.mont_sqr(&chain);
                        } else {
                            let b = gen_biguint_below(&mut r, &m);
                            ctx.mul_value(&mut value, &ctx.to_mont_value(&b));
                            chain = ctx.mont_mul(&chain, &ctx.to_mont(&b));
                        }
                    }
                    assert_eq!(ctx.mont_form(&value), chain, "{label}: chain");
                    let out = ctx.mul_out(&value, &BigUint::one());
                    assert_eq!(out, ctx.from_mont(&chain), "{label}: out of the form");
                }
            }
        }
    }

    /// A value is bound to the context that made it: a context over the
    /// same modulus built apart refuses it; a clone takes it.
    #[test]
    #[should_panic(expected = "its own context")]
    fn a_value_of_another_context_is_refused() {
        let m = b(1_000_000_007);
        let (ctx, other) = (
            MontgomeryCtx::new(&m).unwrap(),
            MontgomeryCtx::new(&m).unwrap(),
        );
        let mut x = ctx.to_mont_value(&b(5));
        ctx.clone().mul_value(&mut x, &ctx.one_value());
        other.mul_value(&mut x, &ctx.one_value());
    }

    #[test]
    fn scratch_carries_nothing_from_one_product_to_the_next() {
        // One scratch through a long mixed chain equals fresh scratch (and
        // the reference) at every step, on each kernel.
        let mut r = rng(81);
        for limbs in [5usize, 17] {
            for m in hard_moduli(&mut r, limbs) {
                for ctx in MontgomeryCtx::on_each_kernel(&m) {
                    let mut shared = ctx.scratch();
                    let mut acc = ctx.widen(&gen_biguint_below(&mut r, &m));
                    for step in 0..200 {
                        let before = ctx.residue(&acc);
                        let want = if step % 3 == 0 {
                            ctx.sqr_assign(&mut acc, &mut shared);
                            ctx.mont_mul(&before, &before)
                        } else {
                            let b = gen_biguint_below(&mut r, &m);
                            ctx.mul_assign(&mut acc, &ctx.widen(&b), &mut shared);
                            if ctx.is_ifma() {
                                ctx.mont_mul(&before, &b)
                            } else {
                                mont_mul_reference(&ctx, &before, &b)
                            }
                        };
                        assert_eq!(ctx.residue(&acc), want, "step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_moduli_take_the_ifma_kernel_where_the_cpu_has_one() {
        #[cfg(target_arch = "x86_64")]
        let has_ifma =
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
        #[cfg(not(target_arch = "x86_64"))]
        let has_ifma = false;
        eprintln!("avx512ifma: {has_ifma}");
        let mut r = rng(82);
        for (limbs, ifma) in [(4, false), (7, false), (8, has_ifma), (16, has_ifma)] {
            for m in hard_moduli(&mut r, limbs) {
                assert_eq!(
                    MontgomeryCtx::new(&m).unwrap().is_ifma(),
                    ifma,
                    "{limbs} limbs"
                );
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
            assert_eq!(ctx.pow_mod(&base, &exp), naive_pow(&base, &exp, &m));
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
