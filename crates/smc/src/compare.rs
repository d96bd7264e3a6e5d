//! Secure comparison of signed values, built on Yao's protocol.
//!
//! The DBSCAN protocols compare signed quantities (masked distances, share
//! differences), while Algorithm 1 wants inputs in `[1, n0]`. A
//! [`ComparisonDomain`] performs the affine shift, and [`Comparator`]
//! selects the backend:
//!
//! * [`Comparator::Yao`] — the faithful Algorithm 1. `O(n0)` Paillier
//!   decryptions per comparison, so only usable when the agreed domain is
//!   small (≤ [`crate::millionaires::MAX_YAO_DOMAIN`]).
//! * [`Comparator::Ideal`] — the ideal comparison functionality, simulated
//!   in-process: same message pattern, payload sizes charged from
//!   [`crate::millionaires::modeled_message_sizes`], same single-bit output
//!   to both parties. **The wire content is not private** (this is a
//!   measurement substitution, not a cryptographic protocol — see DESIGN.md
//!   §3); it exists so full clustering runs can use realistic domains and
//!   statistically hiding masks that would make the faithful YMPP take
//!   CPU-years, while still reporting the traffic the faithful protocol
//!   would have produced.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::millionaires::{self, YaoConfig};
use ppds_observe::trace;
use ppds_paillier::{Keypair, PublicKey, SlotLayout};
use ppds_transport::Channel;

/// Which secure-comparison backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Comparator {
    /// Faithful Algorithm 1 (YMPP). Cost: `O(n0)` decryptions + `O(c2·n0)`
    /// bits per comparison.
    Yao,
    /// Ideal functionality with YMPP-equivalent transcript accounting.
    #[default]
    Ideal,
    /// Bitwise DGK-style comparison: `O(log n0)` ciphertexts per
    /// comparison, same one-bit output to both parties (see
    /// [`crate::bitwise`]). The practical backend for the enhanced
    /// protocol's `2^σ`-wide share domains. Rides the exponentiation
    /// kernels (DESIGN.md §12): bit encryptions share one exponent
    /// recoding, ciphertext validation batches `ℓ` GCDs into one
    /// Montgomery batch inversion, and the packed reply aggregates slots
    /// with one Straus/Pippenger multi-exponentiation — all byte-identical
    /// to the per-element ladders they replace.
    Dgk,
}

/// Comparison operator between Alice's and Bob's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `alice < bob`
    Lt,
    /// `alice ≤ bob`
    Leq,
}

/// The signed interval both parties agree their inputs fall in.
///
/// Yao inputs become `value - lo + 1 ∈ [1, n0]` with one extra slot of
/// headroom so `≤` can be evaluated as `< (j + 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparisonDomain {
    /// Smallest representable value.
    pub lo: i64,
    /// Largest representable value.
    pub hi: i64,
}

impl ComparisonDomain {
    /// Domain `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty comparison domain [{lo}, {hi}]");
        ComparisonDomain { lo, hi }
    }

    /// Symmetric domain `[-bound, bound]`.
    pub fn symmetric(bound: i64) -> Self {
        assert!(bound >= 0, "negative bound {bound}");
        ComparisonDomain::new(-bound, bound)
    }

    /// The Yao domain size `n0` (one slot of headroom included for `Leq`).
    pub fn n0(&self) -> u64 {
        (self.hi - self.lo) as u64 + 2
    }

    /// Shifts a value into `[1, n0 - 1]`.
    fn encode(&self, value: i64) -> Result<u64, SmcError> {
        if value < self.lo || value > self.hi {
            return Err(SmcError::DomainViolation {
                value,
                lo: self.lo,
                hi: self.hi,
            });
        }
        Ok((value - self.lo) as u64 + 1)
    }

    fn yao_config(&self) -> YaoConfig {
        YaoConfig { n0: self.n0() }
    }
}

/// Alice's side of a slice of secure comparisons against Bob's equally long
/// slice, all sharing one `domain` and one operator; returns
/// `values[i] OP bob_values[i]` per element. The operator is Bob's to apply
/// (`i ≤ j` runs as `i < j + 1` on his input), so only [`compare_bob`]
/// takes it. Alice must hold the Paillier keypair used by the Yao and DGK
/// backends.
///
/// Both parties must pass slices of the same length (the protocols guarantee
/// this: both sides know the candidate set size). The Ideal and DGK backends
/// ship the whole slice in a constant number of wire rounds — one batch
/// frame per protocol message, one item per comparison — so a one-item
/// slice *is* the paper's single comparison, byte for byte; the faithful
/// Yao backend has no batched form (Algorithm 1's z-sequence is
/// per-comparison interactive state) and runs the items one after another.
/// An empty slice touches no wire.
///
/// Comparison `i` draws from `scopes(i)` — its record scope — and from
/// nothing else, so the bytes of an item do not depend on which slice a
/// caller ships it in.
///
/// `packed` selects the plaintext-slot-packed transport
/// (`ProtocolConfig::packing`): the DGK backend ships its masked verdict
/// vector as `⌈ℓ/capacity⌉` packed words, and the Ideal backend pads its
/// verdict-sized message to the packed transcript size (see
/// [`IDEAL_PADDING_CAP`]). Outcomes are identical either way; the faithful
/// Yao backend has no packed form (its message 2 is plaintext residues)
/// and ignores the flag.
pub fn compare_alice<C, S>(
    comparator: Comparator,
    chan: &mut C,
    keypair: &Keypair,
    values: &[i64],
    domain: &ComparisonDomain,
    packed: bool,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    let is: Vec<u64> = values
        .iter()
        .map(|&v| domain.encode(v))
        .collect::<Result<_, _>>()?;
    let key_bits = keypair.public.bits();
    let out = match comparator {
        Comparator::Yao => is
            .iter()
            .enumerate()
            .map(|(idx, &i)| {
                millionaires::yao_alice(chan, keypair, i, &domain.yao_config(), &scopes(idx))
            })
            .collect(),
        Comparator::Ideal => ideal_alice(chan, key_bits, &is, domain, packed),
        Comparator::Dgk => {
            let layout = dgk_layout(key_bits, domain, packed);
            crate::bitwise::dgk_alice(chan, keypair, &is, domain.n0(), layout.as_ref(), scopes)
        }
    }?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// Bob's side of [`compare_alice`].
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn compare_bob<C, S>(
    comparator: Comparator,
    chan: &mut C,
    alice_pk: &PublicKey,
    values: &[i64],
    op: CmpOp,
    domain: &ComparisonDomain,
    packed: bool,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    // `i ≤ j` is evaluated as `i < j + 1`; the domain reserves the headroom.
    let j_effs: Vec<u64> = values
        .iter()
        .map(|&v| {
            domain.encode(v).map(|j| match op {
                CmpOp::Lt => j,
                CmpOp::Leq => j + 1,
            })
        })
        .collect::<Result<_, _>>()?;
    let key_bits = alice_pk.bits();
    let out = match comparator {
        Comparator::Yao => j_effs
            .iter()
            .enumerate()
            .map(|(idx, &j)| {
                millionaires::yao_bob(chan, alice_pk, j, &domain.yao_config(), &scopes(idx))
            })
            .collect(),
        Comparator::Ideal => ideal_bob(chan, key_bits, &j_effs, domain),
        Comparator::Dgk => {
            let layout = dgk_layout(key_bits, domain, packed);
            crate::bitwise::dgk_bob(
                chan,
                alice_pk,
                &j_effs,
                domain.n0(),
                layout.as_ref(),
                scopes,
            )
        }
    }?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// The packed DGK reply layout for this key and domain when `packed`; a key
/// too small for one slot has none and runs the unpacked reply on both
/// sides alike.
fn dgk_layout(key_bits: usize, domain: &ComparisonDomain, packed: bool) -> Option<SlotLayout> {
    packed
        .then(|| crate::bitwise::dgk_pack_layout(key_bits, domain.n0()))
        .flatten()
}

/// Share comparisons (§5): per pair, Alice holds `(u_a, u_b)` and Bob holds
/// `(v_a, v_b)`, shares of `dist_a = u_a - v_a` and `dist_b = u_b - v_b`.
/// `dist_a < dist_b` is `u_a - u_b < v_a - v_b`: each party compares its
/// local differences, which this returns.
pub(crate) fn share_diffs(
    pairs: &[(i64, i64)],
    domain: &ComparisonDomain,
) -> Result<Vec<i64>, SmcError> {
    pairs
        .iter()
        .map(|&(a, b)| {
            a.checked_sub(b).ok_or(SmcError::DomainViolation {
                value: i64::MAX,
                lo: domain.lo,
                hi: domain.hi,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ideal backend
// ---------------------------------------------------------------------------

/// Physical padding cap for the Ideal backend. Below the cap, Ideal
/// transcripts are byte-identical to modeled YMPP traffic (validated by the
/// `ideal_traffic_matches_yao_traffic` test); above it, physically shipping
/// the modeled bytes would be pure waste (the faithful protocol at such a
/// domain is exactly what the Ideal backend exists to avoid), so callers
/// account the remainder analytically via
/// [`crate::millionaires::modeled_message_sizes`].
pub const IDEAL_PADDING_CAP: u64 = 4096;

/// Zero padding sized so a message's payload matches the modeled YMPP
/// message (`used` bytes already carry the actual content), capped at
/// [`IDEAL_PADDING_CAP`].
fn padding(modeled: u64, used: u64) -> Vec<u8> {
    vec![0u8; modeled.saturating_sub(used).min(IDEAL_PADDING_CAP) as usize]
}

/// Packing factor the Ideal backend charges its verdict-sized message
/// under `packing`: the capacity of the packed-DGK verdict layout at this
/// key size and domain (1 — no reduction — when the key fits no layout, or
/// when packing is off). Derived from public data only, so both sides pad
/// identically.
fn ideal_packing_factor(key_bits: usize, domain: &ComparisonDomain, packed: bool) -> u64 {
    if !packed {
        return 1;
    }
    crate::bitwise::dgk_pack_layout(key_bits, domain.n0())
        .map_or(1, |layout| layout.capacity() as u64)
}

/// Padding for the verdict-sized message (YMPP message 2): under packing,
/// each shipped byte stands for `factor` slot bytes of the faithful
/// backend's packed verdict words, so the *physical* padding shrinks by
/// the layout capacity while the [`crate::millionaires`] model — and with
/// it the caller's `YaoLedger` — keeps charging the canonical unpacked
/// cost, invariant across framings and packings.
fn verdict_padding(modeled: u64, used: u64, factor: u64) -> Vec<u8> {
    vec![0u8; (modeled.saturating_sub(used).min(IDEAL_PADDING_CAP) / factor.max(1)) as usize]
}

/// Ideal backend, Alice's side: the three messages of a YMPP execution
/// become three batch frames carrying one item per comparison, each item
/// padded as the faithful message it stands for — so modeled bytes stay
/// per-comparison comparable whatever the slice length, and a slice of `k`
/// costs 3 rounds.
fn ideal_alice<C: Channel>(
    chan: &mut C,
    key_bits: usize,
    is: &[u64],
    domain: &ComparisonDomain,
    packed: bool,
) -> Result<Vec<bool>, SmcError> {
    let (_m1, m2, _m3) = millionaires::modeled_message_sizes(key_bits, domain.n0());
    let factor = ideal_packing_factor(key_bits, domain, packed);
    // Message 1 (Bob→Alice in YMPP): Bob's effective inputs.
    let incoming: Vec<(u64, Vec<u8>)> = chan.recv_batch()?;
    if incoming.len() != is.len() {
        return Err(SmcError::protocol(format!(
            "ideal comparator arity mismatch: {} inputs vs {} received",
            is.len(),
            incoming.len()
        )));
    }
    let results: Vec<bool> = is
        .iter()
        .zip(&incoming)
        .map(|(&i, &(j_eff, _))| i < j_eff)
        .collect();
    // Message 2 (Alice→Bob): the results, each padded to the z-sequence
    // size (packed: to its packed-word share).
    let reply: Vec<(bool, Vec<u8>)> = results
        .iter()
        .map(|&r| (r, verdict_padding(m2, 5, factor)))
        .collect();
    chan.send_batch(&reply)?;
    // Message 3 (Bob→Alice): conclusion echoes, as in Algorithm 1 step 7.
    let echoed: Vec<(bool, Vec<u8>)> = chan.recv_batch()?;
    if echoed.len() != results.len() || echoed.iter().zip(&results).any(|(e, &r)| e.0 != r) {
        return Err(SmcError::protocol("ideal comparator echo mismatch"));
    }
    Ok(results)
}

/// Bob's side of [`ideal_alice`]. His messages model single values, so
/// packing has nothing to shrink on this side.
fn ideal_bob<C: Channel>(
    chan: &mut C,
    key_bits: usize,
    j_effs: &[u64],
    domain: &ComparisonDomain,
) -> Result<Vec<bool>, SmcError> {
    let (m1, _m2, m3) = millionaires::modeled_message_sizes(key_bits, domain.n0());
    let out: Vec<(u64, Vec<u8>)> = j_effs.iter().map(|&j| (j, padding(m1, 12))).collect();
    chan.send_batch(&out)?;
    let replies: Vec<(bool, Vec<u8>)> = chan.recv_batch()?;
    if replies.len() != j_effs.len() {
        return Err(SmcError::protocol(format!(
            "ideal comparator arity mismatch: {} inputs vs {} replies",
            j_effs.len(),
            replies.len()
        )));
    }
    let results: Vec<bool> = replies.iter().map(|r| r.0).collect();
    let echo: Vec<(bool, Vec<u8>)> = results.iter().map(|&r| (r, padding(m3, 5))).collect();
    chan.send_batch(&echo)?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{alice_keypair, ctx};
    use ppds_transport::{duplex, MetricsSnapshot};

    /// Runs one slice of comparisons `pairs[i].0 OP pairs[i].1`, item `i`
    /// scoped `at(i)`; returns the verdicts both sides agree on and Alice's
    /// traffic.
    fn run(
        comparator: Comparator,
        pairs: &[(i64, i64)],
        op: CmpOp,
        domain: ComparisonDomain,
    ) -> (Vec<bool>, MetricsSnapshot) {
        let (mut achan, mut bchan) = duplex();
        let (a_vals, b_vals): (Vec<i64>, Vec<i64>) = pairs.iter().copied().unzip();
        let kp = alice_keypair();
        std::thread::scope(|scope| {
            let alice = scope.spawn(move || {
                let actx = ctx(600);
                let scopes = |i| actx.at(i as u64);
                let out =
                    compare_alice(comparator, &mut achan, kp, &a_vals, &domain, false, scopes);
                (out.unwrap(), achan.metrics())
            });
            let bctx = ctx(601);
            let scopes = |i| bctx.at(i as u64);
            let bob_view = compare_bob(
                comparator, &mut bchan, &kp.public, &b_vals, op, &domain, false, scopes,
            )
            .unwrap();
            let (alice_view, metrics) = alice.join().unwrap();
            assert_eq!(alice_view, bob_view, "views must agree");
            (alice_view, metrics)
        })
    }

    #[test]
    fn all_backends_agree_with_native_comparison() {
        let domain = ComparisonDomain::symmetric(10);
        let values = [-10i64, -3, 0, 1, 10];
        let pairs: Vec<(i64, i64)> = values
            .iter()
            .flat_map(|&a| values.iter().map(move |&b| (a, b)))
            .collect();
        for comparator in [Comparator::Yao, Comparator::Ideal, Comparator::Dgk] {
            let (lt, _) = run(comparator, &pairs, CmpOp::Lt, domain);
            let (leq, _) = run(comparator, &pairs, CmpOp::Leq, domain);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(lt[i], a < b, "{comparator:?}: {a} < {b}");
                assert_eq!(leq[i], a <= b, "{comparator:?}: {a} <= {b}");
            }
        }
    }

    #[test]
    fn asymmetric_domain_and_its_upper_edge() {
        let domain = ComparisonDomain::new(5, 25);
        let yao = |pair, op| run(Comparator::Yao, &[pair], op, domain).0[0];
        assert!(yao((5, 25), CmpOp::Lt));
        assert!(!yao((25, 5), CmpOp::Lt));
        // j = hi uses the reserved headroom slot; must not error.
        assert!(yao((25, 25), CmpOp::Leq));
        assert!(!yao((25, 25), CmpOp::Lt));
        assert!(run(Comparator::Ideal, &[(25, 25)], CmpOp::Leq, domain).0[0]);
    }

    #[test]
    fn out_of_domain_is_error() {
        let domain = ComparisonDomain::symmetric(5);
        let (mut achan, _b) = duplex();
        let kp = alice_keypair();
        assert!(matches!(
            compare_alice(
                Comparator::Ideal,
                &mut achan,
                kp,
                &[6],
                &domain,
                false,
                |_| ctx(1)
            ),
            Err(SmcError::DomainViolation { value: 6, .. })
        ));
    }

    #[test]
    fn share_comparison_matches_plain() {
        use crate::backend::SmcBackend;
        use crate::leakage::Party;
        use crate::test_helpers::paillier_backend;

        let domain = ComparisonDomain::symmetric(100);
        // dists: alice-held u, bob-held v; dist_i = u_i - v_i.
        let us = [(50i64, 20i64), (10, 9), (7, 7)];
        let vs = [(43i64, 8i64), (2, 0), (0, 1)];
        for comparator in [Comparator::Yao, Comparator::Ideal] {
            let backend = paillier_backend(comparator, true);
            let (mut achan, mut bchan) = duplex();
            let run = |chan: &mut _, role, pairs: &[(i64, i64)], seed| {
                let scopes = |i| ctx(seed).at(i as u64);
                let mut acct = Default::default();
                backend
                    .share_less_than_scoped(chan, role, pairs, &domain, scopes, &mut acct)
                    .unwrap()
            };
            let (alice_view, bob_view) = std::thread::scope(|scope| {
                let alice = scope.spawn(|| run(&mut achan, Party::Alice, &us, 2));
                let bob_view = run(&mut bchan, Party::Bob, &vs, 3);
                (alice.join().unwrap(), bob_view)
            });
            assert_eq!(alice_view, bob_view);
            // dist_a=7 vs dist_b=12 → true; 8 vs 9 → true; 7 vs 6 → false.
            assert_eq!(alice_view, vec![true, true, false], "{comparator:?}");
        }
    }

    #[test]
    fn ideal_traffic_matches_yao_traffic() {
        // The Ideal comparator must charge the transcript the same bytes the
        // faithful protocol produces (within BigUint minimal-length noise).
        let domain = ComparisonDomain::symmetric(16);
        let bytes = |comparator| {
            run(comparator, &[(3, 5)], CmpOp::Lt, domain)
                .1
                .total_bytes() as f64
        };
        let (yao, ideal) = (bytes(Comparator::Yao), bytes(Comparator::Ideal));
        let rel_err = (yao - ideal).abs() / yao;
        assert!(rel_err < 0.05, "yao = {yao}, ideal = {ideal}");
    }

    #[test]
    fn a_slice_is_three_rounds_for_ideal_and_dgk() {
        let domain = ComparisonDomain::symmetric(16);
        let pairs: Vec<(i64, i64)> = (0..20).map(|i| (i % 7 - 3, (i % 5) - 2)).collect();
        for comparator in [Comparator::Ideal, Comparator::Dgk] {
            let (_, m) = run(comparator, &pairs, CmpOp::Lt, domain);
            // 3 frames for 20 comparisons; one at a time would be 60.
            assert_eq!(m.total_rounds(), 3, "{comparator:?}");
            assert_eq!(m.total_messages(), 3 * pairs.len() as u64, "{comparator:?}");
        }
        // The faithful Yao backend has no batched form: rounds stay 3/cmp.
        let (_, m) = run(Comparator::Yao, &pairs[..2], CmpOp::Lt, domain);
        assert_eq!(m.total_rounds(), 6);
        // And no comparisons are no frames.
        let (none, m) = run(Comparator::Ideal, &[], CmpOp::Lt, domain);
        assert!(none.is_empty());
        assert_eq!(m.total_rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "empty comparison domain")]
    fn inverted_domain_panics() {
        let _ = ComparisonDomain::new(3, 2);
    }

    #[test]
    fn domain_n0_has_leq_headroom() {
        assert_eq!(ComparisonDomain::new(1, 1).n0(), 2);
        assert_eq!(ComparisonDomain::symmetric(5).n0(), 12);
    }
}
