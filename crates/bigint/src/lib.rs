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
//! * [`MontgomeryCtx`] — CIOS Montgomery multiplication and windowed modular
//!   exponentiation for odd moduli (Paillier's `n` and `n²` are always odd),
//! * [`multiexp`] — exponentiation kernels: [`FixedBaseTable`] Lim–Lee
//!   fixed-base combs and Straus/Pippenger simultaneous [`multi_exp`],
//!   all value-equal to the naive ladders they replace,
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
pub mod modular;
mod montgomery;
mod mul;
pub mod multiexp;
pub mod prime;
pub mod random;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use fmt::ParseBigIntError;
pub use montgomery::MontgomeryCtx;
pub use multiexp::{multi_exp, FixedBaseTable, KERNEL_DISCIPLINE};

#[cfg(test)]
mod test_helpers {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic RNG for unit tests.
    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }
}
