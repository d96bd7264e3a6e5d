//! Secure k-th order statistic over secret-shared distances (§5).
//!
//! After the dot-product phase of the enhanced protocol, Alice holds
//! `u_i = Dist²(A, B_i) + v_i` and Bob holds `v_i`. Neither party knows any
//! distance, but together they can compare two shared distances with one
//! secure comparison (`u_a - u_b` vs `v_a - v_b`). The paper proposes two
//! selection algorithms over this comparison oracle and we implement both:
//!
//! * [`SelectionMethod::RepeatedMin`] — scan for the minimum, delete it,
//!   repeat `k` times: `O(kn)` comparisons, best when `k` is small (the
//!   common case, since `k ≤ MinPts`);
//! * [`SelectionMethod::QuickSelect`] — quickselect on the index set with a
//!   deterministic pivot (both parties must take identical control paths
//!   without extra coordination): expected `O(n)` comparisons, `O(n²)`
//!   worst case, better for large `k` — exactly the trade-off §5 discusses.
//!
//! Control flow is driven purely by comparison outcomes, which Algorithm 1
//! reveals to both parties anyway, so both sides replay the identical
//! decision sequence and stay in lockstep with zero additional messages.
//! Comparisons reach the substrate through [`SmcBackend`], a slice of
//! independent pairs at a time; how a slice is framed is the backend's.

use crate::backend::SmcBackend;
use crate::compare::ComparisonDomain;
use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::leakage::Party;
use crate::sharing::SharingLedger;
use ppds_observe::trace;
use ppds_transport::Channel;

/// Which of the paper's two k-th-smallest algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// `O(kn)` repeated minimum scan.
    #[default]
    RepeatedMin,
    /// Expected `O(n)` quickselect with deterministic middle pivot.
    QuickSelect,
}

/// Result of a selection: which element ranked k-th, and how many secure
/// comparisons it took (the unit experiment E8 counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionOutcome {
    /// Index (into the original share vector) of the k-th smallest distance.
    pub index: usize,
    /// Number of secure comparisons executed.
    pub comparisons: usize,
}

/// Selects the k-th smallest (1-based) of the distances this party holds
/// `shares` of — Alice's `u_i`, Bob's `v_i` — reaching every share
/// comparison through `backend`, so one call site serves both the Paillier
/// and the sharing substrate. `role` is the comparison role
/// ([`Party::Alice`] holds the compare keypair); `ctx` is the selection
/// step's context, and every comparison is scoped by its position in the
/// algorithm (minimum scans by ordinal, quickselect by level and pair), so
/// its bytes do not depend on how the backend frames it.
///
/// The comparisons of one quickselect partition level are independent and
/// are handed to the backend as one slice (3 wire rounds per level when it
/// batches); a minimum scan is inherently sequential — each comparison's
/// operand depends on the previous outcome — and hands over slices of one.
/// `_batched` selects nothing: framing is the backend's alone. The
/// parameter keeps the call shape `perfbench/` was written against.
///
/// # Panics
/// Panics if `shares` is empty or `k` is not in `1..=shares.len()`.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn kth_smallest_with<C: Channel, B: SmcBackend>(
    method: SelectionMethod,
    backend: &B,
    chan: &mut C,
    role: Party,
    shares: &[i64],
    k: usize,
    domain: &ComparisonDomain,
    _batched: bool,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<SelectionOutcome, SmcError> {
    let n = shares.len();
    assert!(n > 0, "cannot select from an empty share vector");
    assert!(
        (1..=n).contains(&k),
        "k = {k} out of range for {n} elements"
    );
    let span = trace::span("kth", || chan.metrics());
    // The comparison oracle both algorithms run over: whether
    // `dist[a] < dist[b]` for each `(a, b)` of a slice of independent pairs,
    // pair `i` scoped `base.at(first + i)`; the backend frames the slice.
    let mut share_pairs: Vec<(i64, i64)> = Vec::new();
    let mut less = |pairs: &[(usize, usize)], base: &ProtocolContext, first: u64| {
        share_pairs.clear();
        share_pairs.extend(pairs.iter().map(|&(a, b)| (shares[a], shares[b])));
        let scopes = |i: usize| base.at(first + i as u64);
        let outcomes =
            backend.share_less_than_scoped(chan, role, &share_pairs, domain, scopes, acct)?;
        if outcomes.len() != pairs.len() {
            return Err(SmcError::protocol(
                "share comparison outcome arity mismatch",
            ));
        }
        Ok(outcomes)
    };
    let out = match method {
        SelectionMethod::RepeatedMin => repeated_min(n, k, ctx, &mut less),
        SelectionMethod::QuickSelect => quick_select(n, k, ctx, &mut less),
    }?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// `less(pairs, base, first)`: see [`kth_smallest_with`].
type Less<'a> =
    dyn FnMut(&[(usize, usize)], &ProtocolContext, u64) -> Result<Vec<bool>, SmcError> + 'a;

fn repeated_min(
    n: usize,
    k: usize,
    ctx: &ProtocolContext,
    less: &mut Less<'_>,
) -> Result<SelectionOutcome, SmcError> {
    let mut active: Vec<usize> = (0..n).collect();
    let mut comparisons = 0;
    for round in 0..k {
        let mut min_pos = 0;
        for pos in 1..active.len() {
            // Inherently sequential control flow, but each comparison's
            // randomness is keyed by its ordinal, not by stream position.
            let pair = (active[pos], active[min_pos]);
            if less(&[pair], ctx, comparisons as u64)?[0] {
                min_pos = pos;
            }
            comparisons += 1;
        }
        if round == k - 1 {
            return Ok(SelectionOutcome {
                index: active[min_pos],
                comparisons,
            });
        }
        active.swap_remove(min_pos);
    }
    unreachable!("loop returns on round k-1")
}

fn quick_select(
    n: usize,
    k: usize,
    ctx: &ProtocolContext,
    less: &mut Less<'_>,
) -> Result<SelectionOutcome, SmcError> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut k = k; // 1-based rank within `items`
    let mut comparisons = 0;
    let mut level = 0u64;
    loop {
        if items.len() == 1 {
            return Ok(SelectionOutcome {
                index: items[0],
                comparisons,
            });
        }
        // Deterministic pivot: both parties pick the same position without
        // exchanging anything.
        let pivot = items[items.len() / 2];
        // Every pivot comparison of one partition level is independent:
        // comparison `i` of level `ℓ` draws from `ctx.at(ℓ).at(i)`.
        let pairs: Vec<(usize, usize)> = items
            .iter()
            .filter(|&&i| i != pivot)
            .map(|&i| (i, pivot))
            .collect();
        let outcomes = less(&pairs, &ctx.at(level), 0)?;
        level += 1;
        comparisons += pairs.len();
        let mut smaller = Vec::new();
        let mut not_smaller = Vec::new();
        for (&(idx, _), &is_less) in pairs.iter().zip(&outcomes) {
            if is_less {
                smaller.push(idx);
            } else {
                not_smaller.push(idx);
            }
        }
        if k <= smaller.len() {
            items = smaller;
        } else if k == smaller.len() + 1 {
            return Ok(SelectionOutcome {
                index: pivot,
                comparisons,
            });
        } else {
            k -= smaller.len() + 1;
            items = not_smaller;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SharingBackend;
    use crate::compare::Comparator;
    use crate::sharing::DealerTape;
    use crate::test_helpers::{ctx, paillier_backend as paillier, rng};
    use ppds_transport::duplex;
    use rand::Rng;

    /// Splits `dists` into shares (u_i = d_i + v_i for random v_i), runs the
    /// selection on two threads, and returns the outcome both sides agree
    /// on with Alice's ledger.
    fn run_with<B: SmcBackend + Sync>(
        backend: &B,
        dists: &[i64],
        k: usize,
        method: SelectionMethod,
        seed: u64,
    ) -> (SelectionOutcome, SharingLedger) {
        let mut r = rng(seed);
        let vs: Vec<i64> = dists.iter().map(|_| r.random_range(-50..=50)).collect();
        let us: Vec<i64> = dists.iter().zip(&vs).map(|(d, v)| d + v).collect();
        let bound = 2 * (dists.iter().map(|d| d.abs()).max().unwrap_or(0) + 50);
        let domain = ComparisonDomain::symmetric(bound);
        let (mut achan, mut bchan) = duplex();
        std::thread::scope(|s| {
            let alice = s.spawn(|| {
                let mut acct = SharingLedger::default();
                let (role, actx) = (Party::Alice, ctx(seed + 1));
                let out = kth_smallest_with(
                    method, backend, &mut achan, role, &us, k, &domain, true, &actx, &mut acct,
                );
                (out.unwrap(), acct)
            });
            let mut acct = SharingLedger::default();
            let (role, bctx) = (Party::Bob, ctx(seed + 2));
            let bob = kth_smallest_with(
                method, backend, &mut bchan, role, &vs, k, &domain, true, &bctx, &mut acct,
            )
            .unwrap();
            let (alice, acct) = alice.join().unwrap();
            assert_eq!(alice, bob, "both parties must agree");
            (alice, acct)
        })
    }

    fn run(dists: &[i64], k: usize, method: SelectionMethod, seed: u64) -> SelectionOutcome {
        run_with(&paillier(Comparator::Ideal, false), dists, k, method, seed).0
    }

    /// The set of indices whose value ties for the k-th smallest (selection
    /// may return any of them).
    fn kth_tie_set(dists: &[i64], k: usize) -> Vec<usize> {
        let mut sorted: Vec<i64> = dists.to_vec();
        sorted.sort();
        let kth_value = sorted[k - 1];
        (0..dists.len())
            .filter(|&i| dists[i] == kth_value)
            .collect()
    }

    #[test]
    fn selects_correct_index_all_ranks() {
        let dists = [9i64, 2, 14, 5, 0, 7];
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            for k in 1..=dists.len() {
                let outcome = run(&dists, k, method, 100 + k as u64);
                let valid = kth_tie_set(&dists, k);
                assert!(
                    valid.contains(&outcome.index),
                    "{method:?} k={k}: got {} want one of {valid:?}",
                    outcome.index
                );
            }
        }
    }

    #[test]
    fn handles_ties() {
        let dists = [5i64, 5, 5, 1, 5];
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            let outcome = run(&dists, 1, method, 7);
            assert_eq!(outcome.index, 3, "{method:?}: unique minimum");
            let outcome = run(&dists, 3, method, 8);
            assert!(dists[outcome.index] == 5, "{method:?}: tie rank");
        }
    }

    #[test]
    fn single_element() {
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            let outcome = run(&[42], 1, method, 9);
            assert_eq!(outcome.index, 0);
            assert_eq!(outcome.comparisons, 0, "{method:?}");
        }
    }

    #[test]
    fn repeated_min_comparison_count_is_exact() {
        // Round t scans (n - t) active elements => (n - t - 1) comparisons.
        let dists = [3i64, 1, 4, 1, 5, 9, 2, 6];
        let n = dists.len();
        for k in 1..=4 {
            let outcome = run(&dists, k, SelectionMethod::RepeatedMin, 20);
            let expect: usize = (0..k).map(|t| n - t - 1).sum();
            assert_eq!(outcome.comparisons, expect, "k={k}");
        }
    }

    #[test]
    fn quickselect_uses_fewer_comparisons_for_large_k() {
        let mut r = rng(33);
        let dists: Vec<i64> = (0..40).map(|_| r.random_range(0..1000)).collect();
        let rm = run(&dists, 20, SelectionMethod::RepeatedMin, 40);
        let qs = run(&dists, 20, SelectionMethod::QuickSelect, 41);
        assert!(
            qs.comparisons < rm.comparisons,
            "quickselect {} vs repeated-min {}",
            qs.comparisons,
            rm.comparisons
        );
    }

    #[test]
    fn yao_backend_agrees_with_ideal_on_small_instance() {
        let dists = [4i64, 1, 3, 2];
        let yao = paillier(Comparator::Yao, false);
        for k in 1..=4 {
            let ideal = run(&dists, k, SelectionMethod::RepeatedMin, 60);
            let (yao, _) = run_with(&yao, &dists, k, SelectionMethod::RepeatedMin, 61);
            assert_eq!(ideal.index, yao.index, "k={k}");
        }
    }

    #[test]
    fn substrates_and_framings_agree() {
        let dists = [9i64, 2, 14, 5, 0, 7, 3, 11];
        let method = SelectionMethod::QuickSelect;
        for k in [1, 4, 8] {
            for batching in [false, true] {
                let sharing = SharingBackend {
                    tape: DealerTape::from_seed(77),
                    batching,
                    dot_mask_bound: 1 << 20,
                };
                let seed = 500 + k as u64;
                let (p, pacct) = run_with(
                    &paillier(Comparator::Ideal, batching),
                    &dists,
                    k,
                    method,
                    seed,
                );
                let (sh, sacct) = run_with(&sharing, &dists, k, method, seed);
                assert_eq!(p, sh, "k={k} batching={batching}");
                // Paillier leaves the sharing ledger untouched; sharing
                // accounts one substitution per comparison.
                assert_eq!(pacct, SharingLedger::default());
                assert_eq!(sacct.compares as usize, sh.comparisons);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_panics() {
        let _ = run(&[1, 2], 0, SelectionMethod::RepeatedMin, 70);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_above_n_panics() {
        let _ = run(&[1, 2], 3, SelectionMethod::QuickSelect, 71);
    }
}
