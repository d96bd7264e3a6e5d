#![warn(missing_docs)]

//! Paillier's additively homomorphic cryptosystem (Paillier, EUROCRYPT '99),
//! as summarized in §3.7 of Liu et al., *Privacy Preserving Distributed
//! DBSCAN Clustering*.
//!
//! This crate provides everything the paper's protocols consume:
//!
//! * [`Keypair::generate`] — key generation exactly as in §3.7: random primes
//!   `p, q` with `gcd(pq, (p-1)(q-1)) = 1`, `n = pq`, `λ = lcm(p-1, q-1)`,
//!   generator `g` with `μ = (L(g^λ mod n²))^{-1} mod n`,
//! * [`PublicKey::encrypt`] / [`PrivateKey::decrypt`] — `c = g^m·r^n mod n²`
//!   and `m = L(c^λ mod n²)·μ mod n`, with a CRT-accelerated decryption path,
//! * homomorphic operations ([`PublicKey::add`], [`PublicKey::mul_plain`],
//!   …) implementing the two properties quoted by the paper:
//!   `D(E(m1)·E(m2) mod n²) = m1 + m2 mod n` and
//!   `D(E(m1)^m2 mod n²) = m1·m2 mod n`,
//! * a signed-message encoding ([`PublicKey::encrypt_signed`],
//!   [`PrivateKey::decrypt_signed`]) mapping `[-(n-1)/2, (n-1)/2]` into
//!   `Z_n`, which the DBSCAN protocols rely on because masked distances and
//!   Bob's random offsets can be negative,
//! * plaintext-slot packing ([`SlotLayout`], [`PublicKey::pack_encrypt`],
//!   [`PublicKey::pack_ciphertexts`], [`PrivateKey::unpack_decrypt`]):
//!   many small protocol values ride one ciphertext, cutting the
//!   ciphertext-heavy response legs (DGK verdict vectors, masked-distance
//!   replies) and the keyholder's decryption count by the packing factor,
//! * exponentiation kernels ([`PublicKey::dot_plain_signed`],
//!   [`PublicKey::validate_many`], [`PublicKey::negate_many`]):
//!   multi-exponentiation for packed-slot aggregation and dot-product rows,
//!   and Montgomery batch inversion for batch ciphertext validation and
//!   negation — all value-equal to the scalar forms they replace, so every
//!   ciphertext byte and protocol transcript is unchanged,
//! * keyholder encryption ([`Keypair::encrypt_many`]): the party that owns
//!   the key accepts each nonce by `r mod p ≠ 0 ∧ r mod q ≠ 0` (the set
//!   `gcd(r, n) = 1` accepts) and takes its power `r^n mod n²` through the
//!   `p`-th-power map — `(r^q mod p)^p mod p²` and its `q` twin, recombined
//!   by CRT — the identical residue for about a third of the `n²` ladder.
//!
//! ## Deviation from the paper's Algorithm 2 narration
//!
//! Algorithm 2 as printed has Alice send the encryption nonce `r` to Bob and
//! reuse one nonce across encryptions. A Paillier ciphertext with a known
//! nonce is trivially invertible (`m = L(c·r^{-n})` for `g = n+1`), so a
//! literal reading would leak Alice's input. We follow standard practice —
//! and the paper's clear intent, since its Lemma 7 proof assumes semantic
//! security — by drawing a fresh secret nonce per encryption. Correctness of
//! every protocol is unaffected; see DESIGN.md.

mod encoding;
mod error;
mod homomorphic;
mod keys;
mod packing;

pub use error::PaillierError;
pub use keys::{Ciphertext, Keypair, PrivateKey, PublicKey, MIN_KEY_BITS};
pub use packing::{SlotLayout, PACKING_DISCIPLINE};

#[cfg(test)]
pub(crate) mod test_helpers {
    use super::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A shared 256-bit test keypair: generating keys dominates unit-test
    /// time, so tests reuse one unless they specifically test generation.
    pub fn shared_keypair() -> &'static Keypair {
        static KEYPAIR: OnceLock<Keypair> = OnceLock::new();
        KEYPAIR.get_or_init(|| Keypair::generate(256, &mut rng(0xA11CE)))
    }
}
