//! Paillier cryptosystem costs by key size: key generation, encryption,
//! both decryption paths (standard vs CRT), and the homomorphic operations
//! the Multiplication Protocol is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppds_bigint::{random, BigUint};
use ppds_paillier::{Keypair, SlotLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn bench_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_keygen");
    group.sample_size(10);
    for bits in [256usize, 512, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, &bits| {
            let mut r = rng(1);
            bench.iter(|| Keypair::generate(bits, &mut r));
        });
    }
    group.finish();
}

fn bench_encrypt_decrypt(c: &mut Criterion) {
    for bits in [256usize, 512, 1024] {
        let keypair = Keypair::generate(bits, &mut rng(2));
        let mut r = rng(3);
        let m = random::gen_biguint_below(&mut r, keypair.public.n());
        let ct = keypair.public.encrypt(&m, &mut r).unwrap();

        let mut group = c.benchmark_group(format!("paillier_{bits}"));
        group.sample_size(20);
        group.bench_function("encrypt", |b| {
            let mut r = rng(4);
            b.iter(|| keypair.public.encrypt(black_box(&m), &mut r).unwrap());
        });
        // The same ciphertexts from the side that owns the key: the nonce
        // power by CRT over p², q² (DESIGN.md §12).
        group.bench_function("keyholder_encrypt", |b| {
            let mut r = rng(4);
            b.iter(|| keypair.encrypt(black_box(&m), &mut r).unwrap());
        });
        if bits == 1024 {
            // One DGK bit frame at the benchmark's share domain (ℓ = 33).
            let bit_frame = vec![BigUint::one(); 33];
            group.bench_function("keyholder_encrypt_many33", |b| {
                let mut r = rng(4);
                b.iter(|| keypair.encrypt_many(black_box(&bit_frame), &mut r).unwrap());
            });
        }
        group.bench_function("decrypt_standard", |b| {
            b.iter(|| keypair.private.decrypt(black_box(&ct)).unwrap());
        });
        group.bench_function("decrypt_crt", |b| {
            b.iter(|| keypair.private.decrypt_crt(black_box(&ct)).unwrap());
        });
        group.finish();
    }
}

fn bench_homomorphic_ops(c: &mut Criterion) {
    let keypair = Keypair::generate(512, &mut rng(5));
    let mut r = rng(6);
    let c1 = keypair
        .public
        .encrypt(&BigUint::from_u64(1234), &mut r)
        .unwrap();
    let c2 = keypair
        .public
        .encrypt(&BigUint::from_u64(5678), &mut r)
        .unwrap();
    let scalar = BigUint::from_u64(999_983);

    let mut group = c.benchmark_group("paillier_homomorphic_512");
    group.bench_function("add", |b| {
        b.iter(|| keypair.public.add(black_box(&c1), black_box(&c2)))
    });
    group.bench_function("mul_plain", |b| {
        b.iter(|| keypair.public.mul_plain(black_box(&c1), black_box(&scalar)))
    });
    // Negation is a modular inverse: one extended GCD alone, one per batch
    // plus three products per element together.
    group.bench_function("negate", |b| {
        b.iter(|| keypair.public.negate(black_box(&c1)))
    });
    let batch = vec![c1.clone(); 33];
    group.bench_function("negate_many33", |b| {
        b.iter(|| keypair.public.negate_many(black_box(&batch)).unwrap())
    });
    group.bench_function("rerandomize", |b| {
        let mut r = rng(7);
        b.iter(|| keypair.public.rerandomize(black_box(&c1), &mut r))
    });
    group.finish();
}

/// Unpacking k packed words: the batch-inversion validation path against
/// the former per-word validate + decrypt loop.
fn bench_unpack_words(c: &mut Criterion) {
    use rand::Rng as _;
    let kp = Keypair::generate(512, &mut rng(11));
    let layout = SlotLayout::new(kp.public.bits(), 32).unwrap();
    let mut group = c.benchmark_group("paillier_unpack_512");
    group.sample_size(10);
    for words_n in [4usize, 16] {
        let count = layout.capacity() * words_n;
        let mut r = rng(12);
        let slots: Vec<BigUint> = (0..count)
            .map(|_| BigUint::from_u64(r.random_range(0..1u64 << 32)))
            .collect();
        let words = kp.public.pack_encrypt(&layout, &slots, &mut r).unwrap();
        group.bench_with_input(
            BenchmarkId::new("batch_validate", words_n),
            &words_n,
            |bench, _| {
                bench.iter(|| {
                    kp.private
                        .unpack_decrypt(&layout, black_box(&words), count)
                        .unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("per_word_validate", words_n),
            &words_n,
            |bench, _| {
                bench.iter(|| {
                    words
                        .iter()
                        .flat_map(|w| {
                            let word = kp.private.decrypt_crt(w).unwrap();
                            layout.split_word(&word, layout.capacity())
                        })
                        .take(count)
                        .collect::<Vec<_>>()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_keygen,
    bench_encrypt_decrypt,
    bench_homomorphic_ops,
    bench_unpack_words
);
criterion_main!(benches);
