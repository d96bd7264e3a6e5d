//! Bitwise secure comparison in `O(log n0)` ciphertexts: the
//! Damgård–Geisler–Krøigaard (DGK) protocol over the DGK cryptosystem
//! (`ppds_paillier::DgkPublicKey`), which experiment E3 identifies as the
//! fix for Algorithm 1's `O(n0)` cost explosion on the enhanced protocol's
//! masked-share domains.
//!
//! Protocol (Alice holds `x`, Bob holds `y`, both `ℓ`-bit; Alice holds the
//! DGK key, whose plaintext space is `Z_u` with `u = 193 > 3ℓ − 1` for
//! every `ℓ ≤ 64` — `DgkPublicKey::from_parts` refuses any other `u`):
//!
//! 1. Alice sends `E(x_i)` for every bit, most significant first.
//! 2. For each position `i` Bob homomorphically computes
//!    `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` — zero exactly when
//!    `x_i = 0`, `y_i = 1` and all more-significant bits agree, i.e. at the
//!    unique position witnessing `x < y`. Every term is non-negative and
//!    `c_i ≤ 3ℓ − 1 < u`, so a cell is zero mod `u` only when it is zero.
//!    (The XOR is computable because `y_j` is Bob's plaintext:
//!    `x ⊕ 0 = x`, `x ⊕ 1 = 1 − x`.)
//! 3. Bob raises each `c_i` to a fresh uniform scalar of `Z*_u`,
//!    re-randomizes it, permutes the cells, and returns them; Alice runs
//!    the zero test on each and learns whether a zero occurs — the
//!    comparison bit and nothing else (a nonzero cell times a uniform unit
//!    is uniform over `Z*_u`; the permutation hides the witnessing
//!    position). Bob masks, and Alice tests, the cells of every
//!    comparison of a slice in one batch (*Batching* below), and every
//!    cell is tested, whatever the others hold.
//! 4. Alice tells Bob the conclusion, mirroring Algorithm 1 step 7.
//!
//! *Gap-bounded shape.* When both parties are promised `|x − y| < 2^m`
//! with `m + 1 < ℓ` (the enhanced protocol's operands differ by a
//! distance, however wide their masks), the high parts `X = x >> m` and
//! `Y = y >> m` differ by −1, 0 or +1, and their residues mod 3 tell the
//! three apart. Alice sends her `m` low bits and a one-hot encryption of
//! `X mod 3` — `(m + 3)` ciphertexts; with `s = Y mod 3`, the entry `eq`
//! at `s` is `[X = Y]` and `lt` at `(s + 2) mod 3` is `[X < Y]`. Bob
//! returns `(m + 1)` cells: a top cell `E(1 − lt)` and the low cells above
//! with the prefix seeded at `3·(1 − eq)` instead of `E(0)`, so a low cell
//! can be zero only when the high parts agree. At most one cell is zero,
//! exactly when `x < y`, and a cell is at most `3m + 2 ≤ 188 < u`, so
//! steps 3 and 4 and what each party learns are as above. Without the
//! promise, or when it saves nothing, the shape is the `ℓ`-bit one.
//!
//! Communication: `2ℓ` ciphertexts mod `n` + 1 bit, `ℓ = ⌈log₂ n0⌉`, or
//! `2m + 4` under the promise — versus Algorithm 1's `n0` residues and
//! `n0` decryptions. Both parties learn exactly the comparison outcome, so
//! the leakage profile (and therefore every theorem downstream) is
//! unchanged.
//!
//! Randomness: each comparison of a slice draws from its own record scope
//! (`scopes(i)`, a [`ProtocolContext`]) and from nothing else — Bob's cell
//! `j` from `scopes(i).rng_for(j)` (the top cell is `j = m`), his
//! permutation from the `"perm"` substream — so the items are
//! order-independent and read the same whether a caller ships them in one
//! frame or one each.
//!
//! Batching: every exponentiation of a step runs in one call over the whole
//! slice, so that eight of them share each vector product of the IFMA
//! kernel's eight-lane path (`ppds_bigint::MontgomeryCtx::pow_many`):
//! Alice seals every bit of step 1 in one
//! [`DgkPrivateKey::encrypt_many`], Bob masks every cell of step 3 in one
//! [`DgkPublicKey::mask_many`], and Alice zero-tests every cell of step 3
//! in one [`DgkPrivateKey::is_zero_many`]. Each item draws what it drew
//! one call at a time, so no ciphertext or verdict depends on the
//! batching.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use ppds_bigint::{BigUint, MontValue};
use ppds_paillier::{DgkPrivateKey, DgkPublicKey};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use rand::Rng;

/// Bit width needed to represent `value` (at least 1).
fn bit_width(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1)
}

/// How a comparison is cut: the low bits compared one by one, and whether
/// the high parts above them travel as a one-hot digit mod 3. Both parties
/// derive it from public bounds alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// Bits compared one by one, `m` (all `ℓ` of them without a digit).
    low: usize,
    /// Whether `x >> low` rides as a one-hot digit mod 3 and Bob adds a
    /// top cell.
    digit: bool,
}

impl Shape {
    /// The shape for operands at most `domain_bound` that differ by at
    /// most `gap`: `m = bit_width(gap)` low bits and the digit when that
    /// is fewer cells (`m + 1 < ℓ`), all `ℓ` bits otherwise.
    fn new(domain_bound: u64, gap: u64) -> Shape {
        let (ell, m) = (bit_width(domain_bound), bit_width(gap));
        if m + 1 < ell {
            Shape {
                low: m,
                digit: true,
            }
        } else {
            Shape {
                low: ell,
                digit: false,
            }
        }
    }

    /// Ciphertexts Alice sends: her low bits and the digit's three entries.
    fn sent(self) -> usize {
        self.low + 3 * usize::from(self.digit)
    }

    /// Cells Bob returns: one per low bit, and the top cell.
    fn cells(self) -> usize {
        self.low + usize::from(self.digit)
    }

    /// The high part's residue mod 3 (only read when the shape has a digit).
    fn digit_of(self, value: u64) -> usize {
        ((value >> self.low) % 3) as usize
    }
}

/// Alice's plaintext bits for `x`: her low bits, MSB first, then the one-hot
/// digit of her high part when the shape has one.
fn plaintext_bits(x: u64, shape: Shape) -> Vec<u64> {
    let low = (0..shape.low).rev().map(|i| (x >> i) & 1);
    let digit = shape.digit.then(|| shape.digit_of(x));
    let one_hot = digit
        .into_iter()
        .flat_map(|d| (0..3).map(move |k| u64::from(d == k)));
    low.chain(one_hot).collect()
}

/// Step 1 worker: Alice's encrypted bits ([`plaintext_bits`]) for every
/// input of a slice, each input's sealed from its own stream, all of them
/// in one [`DgkPrivateKey::encrypt_many`].
fn encrypt_bit_groups<R: Rng>(
    key: &DgkPrivateKey,
    inputs: impl IntoIterator<Item = (u64, R)>,
    shape: Shape,
) -> Result<Vec<Vec<BigUint>>, SmcError> {
    let (plain, rngs): (Vec<Vec<u64>>, Vec<R>) = inputs
        .into_iter()
        .map(|(x, rng)| (plaintext_bits(x, shape), rng))
        .unzip();
    Ok(key.encrypt_many(plain.iter().map(Vec::as_slice).zip(rngs))?)
}

/// Step 3 worker, Alice's half: the zero test on every cell of every
/// comparison of a slice, in one [`DgkPrivateKey::is_zero_many`], and whether a zero (the
/// unique `x < y` witness) occurs in each comparison. Every cell is tested,
/// so the time taken does not tell where a witness sat; a cell outside the
/// ciphertext group is a typed error.
fn scan_cell_groups(
    key: &DgkPrivateKey,
    groups: &[Vec<BigUint>],
    shape: Shape,
) -> Result<Vec<bool>, SmcError> {
    if let Some(cells) = groups.iter().find(|cells| cells.len() != shape.cells()) {
        return Err(SmcError::protocol(format!(
            "expected {} comparison values, got {}",
            shape.cells(),
            cells.len()
        )));
    }
    let zeros = key.is_zero_many(&groups.concat())?;
    Ok(zeros
        .chunks(shape.cells().max(1))
        .map(|cells| cells.contains(&true))
        .collect())
}

/// Step 2 worker: Bob's cells for one input, before masking, as values in
/// Alice's Montgomery form mod `n`: the low cells MSB first, then the top
/// cell under a digit. `inverses` holds `E(−e)` for each of `bits`, from
/// the slice's one batch inversion.
///
/// The running sums stay in that form: a homomorphic addition is one
/// product, `3·(x ⊕ y)` three, and each cell leaves the form in the comb
/// scan that masks it.
fn prefix_cells(
    alice: &DgkPublicKey,
    bits: &[BigUint],
    inverses: &[BigUint],
    y: u64,
    shape: Shape,
) -> Vec<MontValue> {
    let mont = alice.montgomery();
    let g = alice.g_mont();
    let not = |inv: &BigUint| {
        let mut not = mont.to_mont_value(inv);
        mont.mul_value(&mut not, g);
        not
    };
    let add_thrice = |sum: &mut MontValue, c: &MontValue| {
        for _ in 0..3 {
            mont.mul_value(sum, c);
        }
    };
    // Running 3·Σ (x_j ⊕ y_j) over the more-significant prefix, encrypted.
    // It starts as the trivial `E(0) = 1`, or at `3·(1 − eq)` under a
    // digit, beside the top cell `1 − lt`.
    let mut prefix = mont.one_value();
    let mut top = None;
    if shape.digit {
        let s = shape.digit_of(y);
        let entry = |k: usize| &inverses[shape.low + k];
        add_thrice(&mut prefix, &not(entry(s)));
        top = Some(not(entry((s + 2) % 3)));
    }
    let mut cells = Vec::with_capacity(shape.cells());
    for (pos, (enc_x, inv_x)) in bits.iter().zip(inverses).take(shape.low).enumerate() {
        let y_bit = (y >> (shape.low - 1 - pos)) & 1;
        let x = mont.to_mont_value(enc_x);
        // c = x − y + 1 + 3·Σ: `x + prefix`, plus 1 when y = 0.
        let mut cell = x.clone();
        mont.mul_value(&mut cell, &prefix);
        // x ⊕ y is x when y = 0, 1 − x when y = 1.
        let xor = if y_bit == 0 {
            mont.mul_value(&mut cell, g);
            x
        } else {
            not(inv_x)
        };
        add_thrice(&mut prefix, &xor);
        cells.push(cell);
    }
    cells.extend(top);
    cells
}

/// Step 3 worker, Bob's half: the masked, re-randomized, permuted cells for
/// every input of a slice. One batch inversion checks that every bit of
/// the slice is a unit of `Z_n` and yields the `E(−e)` that `1 − e` needs,
/// for a bit or a digit entry; a vector of the wrong length is refused as
/// the comparisons were one at a time, after the vectors before it are
/// checked. Comparison `i`'s cell `j` ([`prefix_cells`]) becomes
/// `c_j^{r_j} · h^{s_j}` with `r_j` uniform in `1..u`, then `s_j`, drawn
/// from `scopes(i).rng_for(j)` (the top cell is `j = m`, after the low
/// ones); every cell of the slice is masked in one
/// [`DgkPublicKey::mask_many`]. Each comparison's cells are then permuted
/// from its `"perm"` substream.
fn masked_cell_groups(
    alice: &DgkPublicKey,
    bit_groups: &[Vec<BigUint>],
    ys: &[u64],
    shape: Shape,
    scopes: impl Fn(usize) -> ProtocolContext,
) -> Result<Vec<Vec<BigUint>>, SmcError> {
    let short = bit_groups
        .iter()
        .position(|bits| bits.len() != shape.sent());
    let inverses = alice.negate_many(&bit_groups[..short.unwrap_or(bit_groups.len())].concat())?;
    if let Some(i) = short {
        return Err(SmcError::protocol(format!(
            "expected {} encrypted bits, got {}",
            shape.sent(),
            bit_groups[i].len()
        )));
    }
    let cell_groups: Vec<Vec<MontValue>> = bit_groups
        .iter()
        .zip(inverses.chunks(shape.sent().max(1)))
        .zip(ys)
        .map(|((bits, inverses), &y)| prefix_cells(alice, bits, inverses, y, shape))
        .collect();
    let masked = alice.mask_many(cell_groups.iter().enumerate().flat_map(|(i, cells)| {
        let scope = scopes(i);
        cells
            .iter()
            .enumerate()
            .map(move |(pos, cell)| (cell, scope.rng_for(pos as u64)))
    }));
    let mut masked = masked.into_iter();
    Ok((0..cell_groups.len())
        .map(|i| {
            let mut cells: Vec<BigUint> = masked.by_ref().take(shape.cells()).collect();
            cells.shuffle(&mut scopes(i).narrow("perm").rng());
            cells
        })
        .collect())
}

/// Alice's side: inputs `xs`, learns whether `xs[i] < ys[i]` for each of
/// Bob's equally many inputs, in **three wire rounds** for the whole slice
/// (one frame of encrypted bits out, one frame of masked cells back, one
/// frame of conclusions out). Every input is at most `domain_bound`, and
/// both parties are promised `|xs[i] − ys[i]| ≤ gap` (`gap ≥ domain_bound`
/// promises nothing; a broken promise can flip the verdict, as a dishonest
/// input can).
///
/// Comparison `i` draws from `scopes(i)` alone, so outcomes, ciphertexts and
/// the leakage profile do not depend on how a caller cuts its comparisons
/// into slices. A one-item slice is the paper's single comparison: its
/// frames are the item's bytes and nothing else.
pub fn dgk_alice<C, S>(
    chan: &mut C,
    key: &DgkPrivateKey,
    xs: &[u64],
    domain_bound: u64,
    gap: u64,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    let shape = Shape::new(domain_bound, gap);
    // Step 1: encrypted bits, MSB first.
    let inputs = xs.iter().enumerate().map(|(i, &x)| (x, scopes(i).rng()));
    let bit_groups = encrypt_bit_groups(key, inputs, shape)?;
    chan.send_batch(&bit_groups)?;

    // Step 3: the zero test on the masked, permuted cells.
    let cell_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if cell_groups.len() != xs.len() {
        return Err(SmcError::protocol(format!(
            "expected {} masked comparison vectors, got {}",
            xs.len(),
            cell_groups.len()
        )));
    }
    let results = scan_cell_groups(key, &cell_groups, shape)?;
    // Step 4: tell Bob, mirroring Algorithm 1's final message.
    chan.send_batch(&results)?;
    Ok(results)
}

/// Bob's side of [`dgk_alice`]: inputs `ys`, learns whether `xs[i] < ys[i]`
/// under Alice's DGK public key `alice`, with the same `domain_bound` and
/// `gap`. Comparison `i` draws its mask scalars, randomizers and
/// permutation from `scopes(i)`, so each reply is independent of every
/// other item's draws.
pub fn dgk_bob<C, S>(
    chan: &mut C,
    alice: &DgkPublicKey,
    ys: &[u64],
    domain_bound: u64,
    gap: u64,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if ys.is_empty() {
        return Ok(Vec::new());
    }
    let shape = Shape::new(domain_bound, gap);
    let bit_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if bit_groups.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} encrypted bit groups, got {}",
            ys.len(),
            bit_groups.len()
        )));
    }
    let cell_groups = masked_cell_groups(alice, &bit_groups, ys, shape, scopes)?;
    chan.send_batch(&cell_groups)?;

    let results: Vec<bool> = chan.recv_batch()?;
    if results.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} conclusions, got {}",
            ys.len(),
            results.len()
        )));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{alice_keypair, ctx, keypair_1024, rng};
    use ppds_paillier::Keypair;
    use ppds_transport::{duplex, MetricsSnapshot};
    use std::sync::OnceLock;

    fn dgk_key() -> &'static DgkPrivateKey {
        alice_keypair().private.dgk().unwrap()
    }

    /// The DGK half of a deployment-size (1024-bit) key: `t = 160`.
    fn dgk_key_1024() -> &'static DgkPrivateKey {
        keypair_1024().private.dgk().unwrap()
    }

    /// Runs one slice of comparisons under `key`, item `i` scoped
    /// `ctx(seed).at(i)` on Alice's side and `ctx(seed + 1).at(i)` on Bob's;
    /// returns the verdicts both sides agree on and Alice's traffic.
    fn run_under(
        key: &'static DgkPrivateKey,
        xs: &[u64],
        ys: &[u64],
        (bound, gap): (u64, u64),
        seed: u64,
    ) -> (Vec<bool>, MetricsSnapshot) {
        let (mut achan, mut bchan) = duplex();
        let (actx, bctx) = (ctx(seed), ctx(seed + 1));
        std::thread::scope(|scope| {
            let alice = scope.spawn(move || {
                let out = dgk_alice(&mut achan, key, xs, bound, gap, |i| actx.at(i as u64));
                (out.unwrap(), achan.metrics())
            });
            let bob_scopes = |i: usize| bctx.at(i as u64);
            let bob = dgk_bob(&mut bchan, key.public(), ys, bound, gap, bob_scopes).unwrap();
            let (alice, metrics) = alice.join().unwrap();
            assert_eq!(alice, bob, "views must agree");
            (alice, metrics)
        })
    }

    /// One input's encrypted bits: [`encrypt_bit_groups`] for a slice of one.
    fn encrypt_bits<R: Rng>(
        key: &DgkPrivateKey,
        x: u64,
        shape: Shape,
        rng: R,
    ) -> Result<Vec<BigUint>, SmcError> {
        Ok(encrypt_bit_groups(key, [(x, rng)], shape)?.remove(0))
    }

    /// One input's masked cells: [`masked_cell_groups`] for a slice of one.
    fn masked_cells(
        alice: &DgkPublicKey,
        bits: &[BigUint],
        y: u64,
        shape: Shape,
        ctx: &ProtocolContext,
    ) -> Result<Vec<BigUint>, SmcError> {
        let groups = masked_cell_groups(alice, &[bits.to_vec()], &[y], shape, |_| *ctx)?;
        Ok(groups.into_iter().flatten().collect())
    }

    /// [`run_under`] the 256-bit test key, with no promise on the gap.
    fn run(xs: &[u64], ys: &[u64], bound: u64, seed: u64) -> (Vec<bool>, MetricsSnapshot) {
        run_under(dgk_key(), xs, ys, (bound, bound), seed)
    }

    /// One slice relayed frame by frame: Alice's bit groups, Bob's cell
    /// groups and the verdicts, as they crossed the wire.
    type Frames = (Vec<Vec<BigUint>>, Vec<Vec<BigUint>>, Vec<bool>);

    fn relay(key: &'static DgkPrivateKey, xs: &[u64], ys: &[u64], bound: u64, gap: u64) -> Frames {
        let (alice_scopes, bob_scopes) = (|i| ctx(5).at(i as u64), |i| ctx(6).at(i as u64));
        std::thread::scope(|scope| {
            let (mut a1, mut b1) = duplex();
            let (mut a2, mut b2) = duplex();
            let alice = scope.spawn(move || dgk_alice(&mut a1, key, xs, bound, gap, alice_scopes));
            let bob =
                scope.spawn(move || dgk_bob(&mut b2, key.public(), ys, bound, gap, bob_scopes));
            let bits: Vec<Vec<BigUint>> = b1.recv_batch().unwrap();
            a2.send_batch(&bits).unwrap();
            let cells: Vec<Vec<BigUint>> = a2.recv_batch().unwrap();
            b1.send_batch(&cells).unwrap();
            let verdicts: Vec<bool> = b1.recv_batch().unwrap();
            a2.send_batch(&verdicts).unwrap();
            assert_eq!(alice.join().unwrap().unwrap(), verdicts);
            assert_eq!(bob.join().unwrap().unwrap(), verdicts);
            (bits, cells, verdicts)
        })
    }

    /// Bob's cells as they were computed before the Montgomery-form scan:
    /// `rerandomize(mul_plain(add(…), r))`, each step a separate product
    /// or ladder mod `n`, with the same draws — `r`, then `s`, from
    /// `rng_for(pos)` — and the same permutation. Under a digit the prefix
    /// starts at `3·(1 − eq)` and the top cell `1 − lt` draws at `m`.
    fn reference_cells(
        alice: &DgkPublicKey,
        bits: &[BigUint],
        y: u64,
        shape: Shape,
        ctx: &ProtocolContext,
    ) -> Vec<BigUint> {
        let ((_, _, h), (_, t)) = alice.to_parts();
        let inverses = alice.negate_many(bits).unwrap();
        let mut prefix = BigUint::one();
        let mut top = None;
        if shape.digit {
            let s = ((y >> shape.low) % 3) as usize;
            let not = |k: usize| alice.add(&inverses[shape.low + k], alice.g());
            prefix = alice.mul_plain(&not(s), 3);
            top = Some(not((s + 2) % 3));
        }
        let mask = |cell: &BigUint, pos: usize| {
            let mut rng = ctx.rng_for(pos as u64);
            let r = rng.random_range(1..alice.u());
            let s = ppds_bigint::random::gen_biguint_bits(&mut rng, t as usize * 5 / 2);
            alice.add(
                &alice.mul_plain(cell, r),
                &alice.montgomery().pow_mod(&h, &s),
            )
        };
        let mut cells = Vec::new();
        for (pos, (enc_x, inv_x)) in bits.iter().zip(&inverses).take(shape.low).enumerate() {
            let y_bit = (y >> (shape.low - 1 - pos)) & 1;
            let mut cell = alice.add(enc_x, &prefix);
            let xor = if y_bit == 0 {
                cell = alice.add(&cell, alice.g());
                enc_x.clone()
            } else {
                alice.add(inv_x, alice.g())
            };
            prefix = alice.add(&prefix, &alice.mul_plain(&xor, 3));
            cells.push(mask(&cell, pos));
        }
        cells.extend(top.map(|top| mask(&top, shape.low)));
        cells.shuffle(&mut ctx.narrow("perm").rng());
        cells
    }

    /// The Montgomery-form cells are the reference chain's, byte for byte:
    /// random `y` against random encrypted `x`, at `ℓ ∈ {1, 2, 33, 64}`
    /// and at the gap-bounded shapes of the enhanced workload's 33-bit
    /// domain and of a 64-bit one, at 256-, 512- and 1024-bit keys. A
    /// changed draw order or residue moves a cell.
    #[test]
    fn cells_equal_the_reference_chain() {
        static KP512: OnceLock<Keypair> = OnceLock::new();
        let key_512 = KP512
            .get_or_init(|| Keypair::generate(512, &mut rng(0x512)))
            .private
            .dgk()
            .unwrap();
        let mut draws = rng(0xCE11);
        let full = |ell: usize| Shape {
            low: ell,
            digit: false,
        };
        let shapes = [
            full(1),
            full(2),
            full(33),
            full(64),
            Shape::new(6_576_671_828, 1577),
            Shape::new(u64::MAX, 1),
        ];
        for (key, bits) in [(dgk_key(), 256), (key_512, 512), (dgk_key_1024(), 1024)] {
            let alice = key.public();
            assert_eq!(alice.bits(), bits);
            for (at, shape) in shapes.into_iter().enumerate() {
                let width = shape.low + if shape.digit { 4 } else { 0 };
                let top = if width >= 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
                for trial in 0..2u64 {
                    let (x, y) = (draws.random::<u64>() & top, draws.random::<u64>() & top);
                    let enc = encrypt_bits(key, x, shape, ctx(trial).rng()).unwrap();
                    let scope = ctx(0xB0B).at(at as u64 * 10 + trial);
                    assert_eq!(
                        masked_cells(alice, &enc, y, shape, &scope).unwrap(),
                        reference_cells(alice, &enc, y, shape, &scope),
                        "{bits}-bit key, {shape:?}, x = {x}, y = {y}"
                    );
                }
            }
        }
    }

    /// The shape both parties derive: the digit exactly when it saves a
    /// cell, `m = bit_width(gap)` low bits, and the `ℓ`-bit shape otherwise.
    #[test]
    fn the_digit_is_used_only_when_it_saves_cells() {
        let digit = |low| Shape { low, digit: true };
        let full = |low| Shape { low, digit: false };
        assert_eq!(Shape::new(6_576_671_828, 1577), digit(11));
        assert_eq!(Shape::new(6_576_671_828, 3158), digit(12));
        assert_eq!(Shape::new(1 << 53, 3158), digit(12));
        assert_eq!(Shape::new(1 << 63, 1), digit(1));
        assert_eq!(Shape::new(1023, 255), digit(8));
        assert_eq!(Shape::new(1023, 256), full(10));
        assert_eq!(Shape::new(1023, 1023), full(10));
        assert_eq!(Shape::new(1023, u64::MAX), full(10));
        assert_eq!(Shape::new(7, 1), digit(1));
        assert_eq!(Shape::new(7, 2), full(3));
        assert_eq!((digit(12).sent(), digit(12).cells()), (15, 13));
        assert_eq!((full(33).sent(), full(33).cells()), (33, 33));
    }

    /// Pairs at the edges of the promise `|x − y| ≤ gap`, for each domain
    /// bound up to `2^63` and each gap: high parts `x >> m` at every residue
    /// mod 3 (near the bottom and the top of the domain), low parts at 0
    /// and `2^m − 1`, and `x − y ∈ {0, ±1, ±(gap − 1), ±gap}` — every case
    /// in which the high parts differ by −1, 0 or +1. Each verdict is
    /// `x < y`, at 256- and 1024-bit keys.
    #[test]
    fn gap_bounded_comparisons_are_exact_at_the_edges_of_the_promise() {
        for key in [dgk_key(), dgk_key_1024()] {
            let bits = key.public().bits();
            for bound in [6_576_671_828u64, 1 << 53, 1 << 63] {
                for gap in [1u64, 2, 1577, 3157] {
                    let shape = Shape::new(bound, gap);
                    assert!(shape.digit, "{bound}, {gap}");
                    let m = shape.low;
                    let highs = (1..4).chain((bound >> m) - 4..(bound >> m) - 1);
                    let lows = [0, (1 << m) - 1];
                    let diffs = [0, 1, gap - 1, gap];
                    let (mut xs, mut ys) = (Vec::new(), Vec::new());
                    for x in highs.flat_map(|high| lows.map(|low| (high << m) | low)) {
                        for d in diffs {
                            for y in [x.checked_sub(d), x.checked_add(d)].into_iter().flatten() {
                                if y <= bound {
                                    xs.push(x);
                                    ys.push(y);
                                }
                            }
                        }
                    }
                    let residues: std::collections::HashSet<_> =
                        xs.iter().map(|&x| shape.digit_of(x)).collect();
                    assert_eq!(residues.len(), 3);
                    let (got, _) = run_under(key, &xs, &ys, (bound, gap), bound ^ gap);
                    for ((x, y), lt) in xs.iter().zip(&ys).zip(got) {
                        assert_eq!(
                            lt,
                            x < y,
                            "{x} < {y}, bound {bound}, gap {gap}, {bits} bits"
                        );
                    }
                }
            }
        }
    }

    /// The mask width no longer buys cells: at a fixed gap a comparison
    /// sends `m + 3` bits and gets `m + 1` cells back whether the domain is
    /// 33 or 53 bits wide (σ = 20 or 40 on the enhanced workload's
    /// lattice), so its frames are as long; the `ℓ`-bit shape would grow
    /// by 20 ciphertexts each way.
    #[test]
    fn sigma_buys_no_cells() {
        let gap = 3158;
        let widths = [1u64 << 33, 1 << 53].map(|bound| {
            let (xs, ys) = (
                [bound - 5000, bound / 2],
                [bound - 5000 + gap, bound / 2 - 7],
            );
            let (bits, cells, verdicts) = relay(dgk_key(), &xs, &ys, bound, gap);
            assert_eq!(verdicts, [true, false]);
            let counts = |groups: &[Vec<BigUint>]| groups.iter().map(Vec::len).collect::<Vec<_>>();
            (counts(&bits), counts(&cells))
        });
        assert_eq!(widths[0], (vec![15, 15], vec![13, 13]));
        assert_eq!(widths[0], widths[1]);
        let (_, wide) = run(&[1], &[2], 1 << 53, 9);
        let (_, narrow) = run_under(dgk_key(), &[1], &[2], (1 << 53, gap), 9);
        assert!(
            narrow.bytes_sent * 3 < wide.bytes_sent,
            "{narrow:?} vs {wide:?}"
        );
    }

    #[test]
    fn exhaustive_small_domain() {
        for key in [dgk_key(), dgk_key_1024()] {
            for x in 0..8u64 {
                let ys: Vec<u64> = (0..8).collect();
                let (got, _) = run_under(key, &[x; 8], &ys, (7, 7), 100 + x);
                for (y, lt) in ys.iter().zip(got) {
                    assert_eq!(lt, x < *y, "{x} < {y} at {} bits", key.public().bits());
                }
            }
        }
    }

    #[test]
    fn wide_and_equal_values() {
        let bound = (1 << 40) - 1;
        let (xs, ys): (Vec<u64>, Vec<u64>) = [
            (0u64, 1u64),
            (1, 0),
            (123_456_789, 123_456_790),
            (123_456_790, 123_456_789),
            ((1 << 40) - 1, (1 << 40) - 1),
            (0, (1 << 40) - 1),
            ((1 << 40) - 1, 0),
            (1 << 39, (1 << 39) + 1),
            (5, 5),
        ]
        .into_iter()
        .unzip();
        for key in [dgk_key(), dgk_key_1024()] {
            let bits = key.public().bits();
            let (got, _) = run_under(key, &xs, &ys, (bound, bound), 7_000);
            for ((x, y), lt) in xs.iter().zip(&ys).zip(got) {
                assert_eq!(lt, x < y, "{x} < {y} at {bits} bits");
            }
            // The widest domain a u64 operand has: ℓ = 64, cells up to
            // 191 < u. Equal high halves put the witness at the last bit.
            let (xs, ys) = ([u64::MAX - 1, 3, 1 << 63], [u64::MAX, 3, (1 << 63) + 1]);
            let (got, _) = run_under(key, &xs, &ys, (u64::MAX, u64::MAX), 7_100);
            assert_eq!(got, vec![true, false, true], "at {bits} bits");
        }
    }

    #[test]
    fn truncated_bit_vectors_are_protocol_errors() {
        let (mut achan, mut bchan) = duplex();
        // Fake Alice sends too few encrypted bits.
        let short = vec![dgk_key().public().encrypt(0, &mut ctx(1).rng()).unwrap()];
        achan.send(&short).unwrap();
        let err = dgk_bob(&mut bchan, dgk_key().public(), &[3], 7, 7, |_| ctx(1)).unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    /// Under the gap-bounded shape (`m = 12` low bits of a 33-bit domain)
    /// Bob takes exactly `m + 3` ciphertexts and Alice exactly `m + 1`
    /// cells: one short, one long, or the `ℓ`-bit shape's count is a typed
    /// protocol error on either side.
    #[test]
    fn a_wrong_length_vector_in_the_gap_shape_is_a_protocol_error() {
        let (bound, gap) = (6_576_671_828u64, 3158);
        let key = dgk_key();
        let ct = |m: u64| key.public().encrypt(m, &mut ctx(m).rng()).unwrap();
        for len in [14, 16, 33, 13] {
            let (mut achan, mut bchan) = duplex();
            achan.send_batch(&[vec![ct(1); len]]).unwrap();
            let err = dgk_bob(&mut bchan, key.public(), &[9], bound, gap, |_| ctx(1)).unwrap_err();
            assert!(matches!(err, SmcError::Protocol(_)), "{len} bits: {err}");
        }
        for len in [12, 14, 33, 15] {
            let (mut achan, mut bchan) = duplex();
            bchan.send_batch(&[vec![ct(1); len]]).unwrap();
            let err = dgk_alice(&mut achan, key, &[9], bound, gap, |_| ctx(2)).unwrap_err();
            assert!(matches!(err, SmcError::Protocol(_)), "{len} cells: {err}");
        }
    }

    /// A cell that is no ciphertext of Alice's key — out of range, or off
    /// the ciphertext subgroup mod `p` — is a typed error on her side, as is
    /// a bit that is no unit of `Z_n` on Bob's: alone, and in the second
    /// comparison of a three-comparison slice, whose cells are tested in
    /// one batch.
    #[test]
    fn malformed_cells_and_bits_are_typed_errors() {
        let key = dgk_key();
        let n = key.public().n().clone();
        let good = key.public().encrypt(1, &mut ctx(2).rng()).unwrap();
        let goods = vec![good.clone(); 3];
        for bad in [n.clone(), BigUint::zero(), BigUint::from_u64(2)] {
            let with_bad = vec![good.clone(), bad.clone(), good.clone()];
            for (xs, groups) in [
                (&[1][..], vec![with_bad.clone()]),
                (
                    &[1, 4, 6][..],
                    vec![goods.clone(), with_bad.clone(), goods.clone()],
                ),
            ] {
                let (mut achan, mut bchan) = duplex();
                bchan.send_batch(&groups).unwrap();
                let err = dgk_alice(&mut achan, key, xs, 7, 7, |_| ctx(3)).unwrap_err();
                assert!(matches!(err, SmcError::Crypto(_)), "{bad:?}, {xs:?}: {err}");
            }
        }
        for bad in [n, BigUint::zero()] {
            let with_bad = vec![good.clone(), bad.clone(), good.clone()];
            for (ys, groups) in [
                (&[3][..], vec![with_bad.clone()]),
                (
                    &[3, 0, 7][..],
                    vec![goods.clone(), with_bad.clone(), goods.clone()],
                ),
            ] {
                let (mut achan, mut bchan) = duplex();
                achan.send_batch(&groups).unwrap();
                let err = dgk_bob(&mut bchan, key.public(), ys, 7, 7, |_| ctx(4)).unwrap_err();
                assert!(matches!(err, SmcError::Crypto(_)), "{bad:?}, {ys:?}: {err}");
            }
        }
    }

    /// Bob checks a slice's bits with one batch inversion, and refuses a
    /// slice as he did one comparison at a time: between a vector of the
    /// wrong length and one holding a non-unit, the first in slice order
    /// decides the error, and a wrong length is refused before its own
    /// bits are looked at.
    #[test]
    fn the_first_bad_vector_of_a_slice_decides_the_error() {
        let key = dgk_key();
        let good = key.public().encrypt(1, &mut ctx(2).rng()).unwrap();
        let full = vec![good.clone(); 3];
        let bad = vec![good.clone(), BigUint::zero(), good.clone()];
        let short = vec![BigUint::zero(); 2];
        for (groups, crypto) in [
            (vec![full.clone(), bad.clone(), short.clone()], true),
            (vec![full.clone(), short.clone(), bad.clone()], false),
            (vec![short, full.clone(), full], false),
        ] {
            let (mut achan, mut bchan) = duplex();
            achan.send_batch(&groups).unwrap();
            let err = dgk_bob(&mut bchan, key.public(), &[1, 2, 3], 7, 7, |_| ctx(4)).unwrap_err();
            assert_eq!(matches!(err, SmcError::Crypto(_)), crypto, "{err}");
            assert_eq!(bchan.metrics().bytes_sent, 0, "no reply");
        }
    }

    #[test]
    fn a_slice_is_three_rounds_and_an_empty_one_none() {
        let xs: Vec<u64> = vec![0, 1, 400, 700, 1023, 512];
        let ys: Vec<u64> = vec![1, 0, 700, 700, 0, 513];
        let (_, metrics) = run(&xs, &ys, 1023, 40);
        assert_eq!((metrics.rounds_sent, metrics.rounds_received), (2, 1));
        assert_eq!(metrics.total_messages(), 3 * xs.len() as u64);
        let (none, metrics) = run(&[], &[], 7, 42);
        assert!(none.is_empty());
        assert_eq!(metrics.total_rounds(), 0);
    }

    /// Each direction carries `ℓ` ciphertexts mod `n`, half a Paillier
    /// ciphertext's width each: `ℓ·(4 + ⌈bits/8⌉)` bytes both ways for one
    /// comparison, plus the frame headers and Alice's verdict.
    #[test]
    fn each_direction_is_ell_ciphertexts_mod_n() {
        let bound = 1023u64; // ℓ = 10
        let (_, m) = run(&[400], &[700], bound, 2);
        let width = 4 + dgk_key().public().bits().div_ceil(8) as u64;
        let slack = 2 * ppds_transport::FRAME_OVERHEAD_BYTES + 8;
        for bytes in [
            m.bytes_sent - 1 - ppds_transport::FRAME_OVERHEAD_BYTES,
            m.bytes_received,
        ] {
            assert!(
                (10 * (width - 1)..=10 * width + slack).contains(&bytes),
                "{bytes} B for 10 cells of {width} B"
            );
        }
    }

    #[test]
    fn communication_is_logarithmic_in_domain() {
        // ℓ = 10 bits for n0 = 1023 → 20 ciphertexts total, versus the
        // faithful Yao protocol's 1023 residues (~16 KiB at 256-bit keys).
        let bound = 1023u64;
        let dgk_bytes = run(&[400], &[700], bound, 2).1.total_bytes();
        let (m1, m2, m3) = crate::millionaires::modeled_message_sizes(256, bound + 1);
        let yao_bytes = m1 + m2 + m3;
        assert!(
            dgk_bytes * 5 < yao_bytes,
            "DGK {dgk_bytes} B should be far below Yao {yao_bytes} B"
        );
    }
}
