//! Microbenchmarks for the big-integer substrate: multiplication (including
//! the Karatsuba crossover), Montgomery exponentiation, and prime
//! generation — the primitives every protocol cost decomposes into.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppds_bigint::{modular, multi_exp, prime, random, BigUint, FixedBaseTable, MontgomeryCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn bench_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_mul");
    let mut r = rng(1);
    // Around the Karatsuba threshold (24 limbs = 1536 bits) and the sizes
    // Paillier actually multiplies (n of 1024-4096 bits).
    for limbs in [8usize, 16, 24, 32, 64, 128] {
        let a = random::gen_biguint_exact_bits(&mut r, limbs * 64);
        let b = random::gen_biguint_exact_bits(&mut r, limbs * 64);
        group.bench_with_input(BenchmarkId::from_parameter(limbs), &limbs, |bench, _| {
            bench.iter(|| black_box(&a) * black_box(&b));
        });
    }
    group.finish();
}

fn bench_mod_pow(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_mod_pow");
    group.sample_size(20);
    let mut r = rng(2);
    for bits in [256usize, 512, 1024, 2048] {
        let mut modulus = random::gen_biguint_exact_bits(&mut r, bits);
        modulus.set_bit(0, true);
        let base = random::gen_biguint_below(&mut r, &modulus);
        let exp = random::gen_biguint_exact_bits(&mut r, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| modular::mod_pow(black_box(&base), black_box(&exp), &modulus));
        });
    }
    group.finish();
}

/// One Montgomery product and one squaring at the `n²` width of a 1024-bit
/// key (on the IFMA kernel where the CPU has one), and the ladder at the three exponent shapes the protocols
/// raise ciphertexts to: DGK's `×3`, a 16-bit slot mask, a key-width nonce
/// power.
fn bench_montgomery(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_montgomery");
    let mut r = rng(11);
    let mut modulus = random::gen_biguint_exact_bits(&mut r, 2048);
    modulus.set_bit(0, true);
    let ctx = MontgomeryCtx::new(&modulus).unwrap();
    let base = random::gen_biguint_below(&mut r, &modulus);
    let a = ctx.to_mont(&base);
    let b = ctx.to_mont(&random::gen_biguint_below(&mut r, &modulus));
    group.bench_function("mont_mul_2048", |bench| {
        bench.iter(|| ctx.mont_mul(black_box(&a), black_box(&b)));
    });
    group.bench_function("mont_sqr_2048", |bench| {
        bench.iter(|| ctx.mont_sqr(black_box(&a)));
    });
    for (label, exp) in [
        ("pow_mod_2048/exp_3", BigUint::from_u64(3)),
        ("pow_mod_2048/exp_16bit", BigUint::from_u64(0xFFFF)),
        (
            "pow_mod_2048/exp_1024bit",
            random::gen_biguint_exact_bits(&mut r, 1024),
        ),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| ctx.pow_mod(black_box(&base), black_box(&exp)));
        });
    }
    group.finish();
}

/// Straus multi-exponentiation against the per-operand ladder it replaces
/// on the packed-aggregation and dot-product response legs, from the few
/// pairs a session passes to 256.
fn bench_multi_exp(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_multi_exp");
    group.sample_size(10);
    let mut r = rng(8);
    let mut modulus = random::gen_biguint_exact_bits(&mut r, 512);
    modulus.set_bit(0, true);
    let ctx = MontgomeryCtx::new(&modulus).unwrap();
    for k in [4usize, 16, 64, 256] {
        let operands: Vec<(BigUint, BigUint)> = (0..k)
            .map(|_| {
                (
                    random::gen_biguint_below(&mut r, &modulus),
                    random::gen_biguint_exact_bits(&mut r, 128),
                )
            })
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> = operands.iter().map(|(b, e)| (b, e)).collect();
        group.bench_with_input(BenchmarkId::new("multi_exp", k), &k, |bench, _| {
            bench.iter(|| multi_exp(&ctx, black_box(&pairs)));
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |bench, _| {
            bench.iter(|| {
                operands.iter().fold(BigUint::one(), |acc, (b, e)| {
                    modular::mod_mul(&acc, &modular::mod_pow(b, e, &modulus), &modulus)
                })
            });
        });
    }
    group.finish();
}

/// Lim–Lee fixed-base comb (key-lifetime table, `1/teeth` of the ladder's
/// squarings) at 4 teeth and at the keyholder's 8, against the plain
/// windowed ladder, with full-width exponents.
fn bench_fixed_base(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_fixed_base");
    group.sample_size(20);
    let mut r = rng(9);
    for bits in [512usize, 1024, 2048] {
        let mut modulus = random::gen_biguint_exact_bits(&mut r, bits);
        modulus.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let base = random::gen_biguint_below(&mut r, &modulus);
        let exp = random::gen_biguint_exact_bits(&mut r, bits);
        for teeth in [4usize, 8] {
            let table = FixedBaseTable::new(&ctx, &base, teeth, bits);
            let id = BenchmarkId::new(format!("comb{teeth}"), bits);
            group.bench_with_input(id, &bits, |bench, _| {
                bench.iter(|| table.pow(black_box(&exp)));
            });
        }
        group.bench_with_input(BenchmarkId::new("plain", bits), &bits, |bench, _| {
            bench.iter(|| modular::mod_pow(black_box(&base), black_box(&exp), &modulus));
        });
    }
    group.finish();
}

/// Montgomery batch inversion (one inversion + 3(k−1) multiplications)
/// against k independent `mod_inverse` calls — the CRT-unpacking and
/// batch-validation kernel.
fn bench_batch_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_batch_inverse");
    let mut r = rng(10);
    // A 512-bit RSA-shaped modulus, as a key's `n` is: a random odd one
    // has small factors that some of the 64 values share.
    let modulus = &prime::gen_prime(&mut r, 256) * &prime::gen_prime(&mut r, 256);
    let ctx = MontgomeryCtx::new(&modulus).unwrap();
    for k in [4usize, 16, 64] {
        let values: Vec<BigUint> = (0..k)
            .map(|_| random::gen_biguint_below(&mut r, &modulus))
            .collect();
        group.bench_with_input(BenchmarkId::new("batch", k), &k, |bench, _| {
            bench.iter(|| modular::batch_mod_inverse_with(&ctx, black_box(&values)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("per_element", k), &k, |bench, _| {
            bench.iter(|| {
                values
                    .iter()
                    .map(|v| modular::mod_inverse(v, &modulus).unwrap())
                    .collect::<Vec<_>>()
            });
        });
    }
    group.finish();
}

/// One modular inversion under a 1024-bit key's `n` and `n²`: the single
/// inversion each Montgomery batch pays.
fn bench_mod_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("mod_inverse");
    let mut r = rng(12);
    let n = &prime::gen_prime(&mut r, 512) * &prime::gen_prime(&mut r, 512);
    let nn = n.square();
    for (bits, modulus) in [(1024usize, n), (2048, nn)] {
        let value = random::gen_biguint_below(&mut r, &modulus);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| modular::mod_inverse(black_box(&value), &modulus).unwrap());
        });
    }
    group.finish();
}

fn bench_div_rem(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_div_rem");
    let mut r = rng(3);
    for (ubits, vbits) in [(1024usize, 512usize), (2048, 1024), (4096, 2048)] {
        let u = random::gen_biguint_exact_bits(&mut r, ubits);
        let v = random::gen_biguint_exact_bits(&mut r, vbits);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ubits}div{vbits}")),
            &ubits,
            |bench, _| {
                bench.iter(|| black_box(&u).div_rem(black_box(&v)));
            },
        );
    }
    group.finish();
}

fn bench_prime_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("prime_gen");
    group.sample_size(10);
    for bits in [64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, &bits| {
            let mut r = rng(4);
            bench.iter(|| prime::gen_prime(&mut r, bits));
        });
    }
    group.finish();
}

fn bench_miller_rabin(c: &mut Criterion) {
    let mut group = c.benchmark_group("miller_rabin_prime_input");
    group.sample_size(20);
    let mut r = rng(5);
    for bits in [128usize, 256, 512] {
        let p = prime::gen_prime(&mut r, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            let mut r = rng(6);
            bench.iter(|| prime::is_probable_prime(black_box(&p), 16, &mut r));
        });
    }
    group.finish();
}

fn bench_decimal_io(c: &mut Criterion) {
    let mut r = rng(7);
    let x = random::gen_biguint_exact_bits(&mut r, 2048);
    let s = x.to_string();
    c.bench_function("decimal_format_2048", |b| {
        b.iter(|| black_box(&x).to_string())
    });
    c.bench_function("decimal_parse_2048", |b| {
        b.iter(|| s.parse::<BigUint>().unwrap())
    });
}

criterion_group!(
    benches,
    bench_mul,
    bench_mod_pow,
    bench_montgomery,
    bench_multi_exp,
    bench_fixed_base,
    bench_batch_inverse,
    bench_mod_inverse,
    bench_div_rem,
    bench_prime_gen,
    bench_miller_rabin,
    bench_decimal_io
);
criterion_main!(benches);
