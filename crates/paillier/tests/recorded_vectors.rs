//! Keyholder ciphertexts on fixed keys and seeds, recorded at commit d29e333
//! (nonce power `(r mod p²)^{n mod p(p−1)}` by CRT, every nonce tested by
//! `gcd(r, n)`), so that a rewrite of `Keypair::encrypt_many` is held to the
//! same bytes against history, not only against the public path it must
//! equal today.
//!
//! Each case folds the ciphertexts and the rng's next draw after them into
//! one FNV-1a digest over their little-endian bytes, length-prefixed so a
//! shorter value cannot alias a longer one.

use ppds_bigint::{random, BigUint};
use ppds_paillier::{Ciphertext, Keypair};
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

/// The keyholder's ciphertexts of `ms` from `seed`, then the stream's next
/// 64-bit draw — which pins where the encryption left the rng.
fn keyholder_digest(kp: &Keypair, ms: &[BigUint], seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let cts = kp.encrypt_many(ms, &mut rng).unwrap();
    let next = random::gen_biguint_bits(&mut rng, 64);
    digest(cts.iter().map(Ciphertext::as_biguint).chain([&next]))
}

/// One DGK bit frame at the benchmark's share domain (ℓ = 33), MSB first as
/// `ppds_smc::bitwise` encrypts it.
fn dgk_frame(x: u64) -> Vec<BigUint> {
    (0..33)
        .rev()
        .map(|i| BigUint::from_u64((x >> i) & 1))
        .collect()
}

#[test]
fn keyholder_encryption_reproduces_recorded_ciphertexts() {
    let recorded: [(u64, u64); 2] = [
        (0xbbf2_e088_1447_0bc5, 0x02e7_1744_7119_f504),
        (0x5428_76fc_ac71_1117, 0x4907_8004_1e67_1bf6),
    ];
    let mut measured = Vec::new();
    for (i, bits) in [512usize, 1024].into_iter().enumerate() {
        let i = i as u64;
        let kp = Keypair::generate(bits, &mut StdRng::seed_from_u64(0x4B1D + i));
        let frame = dgk_frame(0x1_5A3C_96E1);
        let mut msg_rng = StdRng::seed_from_u64(0x3E55 + i);
        let messages: Vec<BigUint> = (0..64)
            .map(|_| random::gen_biguint_below(&mut msg_rng, kp.public.n()))
            .collect();
        measured.push((
            keyholder_digest(&kp, &frame, 0xD6C + i),
            keyholder_digest(&kp, &messages, 0xC0DE + i),
        ));
    }
    assert_eq!(measured, recorded, "measured {measured:#x?}");
}
