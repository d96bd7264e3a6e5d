#![warn(missing_docs)]

//! Arbitrary-precision integer arithmetic for the privacy-preserving DBSCAN
//! reproduction.
//!
//! The offline dependency set contains no big-integer crate, so this crate
//! implements everything the Paillier cryptosystem (and Yao's millionaires
//! protocol) needs from scratch:
//!
//! * [`BigUint`] — unsigned magnitude on little-endian `u64` limbs with
//!   schoolbook + Karatsuba multiplication and Knuth Algorithm D division,
//! * [`BigInt`] — sign–magnitude signed integers (needed for signed
//!   plaintext encodings and the arithmetic inside Yao's protocol),
//! * [`MontgomeryCtx`] — Montgomery multiplication and windowed modular
//!   exponentiation for odd moduli (Paillier's `n` and `n²` are always odd),
//!   on a scalar CIOS kernel or, for moduli of 512 bits and more on a CPU
//!   with AVX-512 IFMA, a radix-2^52 vector kernel whose intrinsics are
//!   confined to one module,
//! * [`multiexp`] — exponentiation kernels: [`FixedBaseTable`] Lim–Lee
//!   fixed-base combs and Straus' simultaneous [`multi_exp`], all
//!   value-equal to the naive ladders they replace. The windowed ladder
//!   and the comb scan are one body each, run on one row or, on the IFMA
//!   kernel, on eight rows side by side; the one-item forms are batches
//!   of one,
//! * [`modular`] — GCD/LCM, modular inverse (single, by Pornin's optimized
//!   binary GCD over limb rows, and [`modular::batch_mod_inverse`]
//!   Montgomery-batched), and a `mod_pow` entry point,
//! * [`prime`] — Miller–Rabin probable-prime testing and random prime
//!   generation,
//! * [`random`] — uniform sampling of big integers from any [`rand::Rng`].
//!
//! The representation invariant maintained everywhere: the limb vector never
//! has trailing zero limbs, and zero is the empty vector. All public
//! operations preserve it.

mod bigint;
mod biguint;
mod bingcd;
mod div;
mod fmt;
#[cfg(target_arch = "x86_64")]
mod ifma;
#[cfg(test)]
mod kernel_equivalence;
pub mod modular;
mod montgomery;
mod mul;
pub mod multiexp;
pub mod prime;
pub mod random;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use fmt::ParseBigIntError;
pub use montgomery::{MontValue, MontgomeryCtx};
pub use multiexp::{multi_exp, FixedBaseTable, MontFactor, KERNEL_DISCIPLINE};

#[cfg(test)]
mod test_helpers {
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic RNG for unit tests.
    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Operands that stress the carry chains: the edges of the residue
    /// range, saturated limbs, a lone top bit, and random residues.
    pub fn hard_operands(r: &mut StdRng, m: &BigUint) -> Vec<BigUint> {
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

    /// `base^exp mod m` by square-and-multiply with a long division per
    /// step: no window, no table, no Montgomery form — the oracle the
    /// exponentiation kernels are held to.
    pub fn naive_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = &BigUint::one() % m;
        for i in (0..exp.bit_length()).rev() {
            acc = &acc.square() % m;
            if exp.bit(i) {
                acc = &(&acc * base) % m;
            }
        }
        acc
    }

    /// Odd moduli of exactly `limbs` limbs: random, all limbs saturated
    /// (the largest `u`·`m` products), and the smallest of that width.
    pub fn hard_moduli(r: &mut StdRng, limbs: usize) -> Vec<BigUint> {
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
}
