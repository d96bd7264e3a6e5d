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
//!
//! A selection is a resumable step machine ([`Selection`]): it names the
//! comparisons of its next step, takes their verdicts, and moves on. A
//! minimum scan is inherently sequential — each comparison's operand depends
//! on the previous outcome — so its step is one pair; the comparisons of one
//! quickselect partition level are independent, so its step is the level.
//! [`select_in_lockstep`] advances many selections together: step `r` of
//! every live one is a single slice handed to the [`SmcBackend`], which
//! frames it, so a chunk of core-point tests costs the rounds of its longest
//! selection instead of the sum over its tests. Every comparison stays keyed
//! by its own selection's context and its position in that selection's
//! algorithm, so its bytes do not depend on what shares its frame.

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

/// Where a [`Selection`] stands in its algorithm.
#[derive(Debug)]
enum Progress {
    /// Scanning `active` for its minimum, `scans_left` scans to go (this one
    /// included): position `pos` is compared against the minimum so far.
    Min {
        active: Vec<usize>,
        scans_left: usize,
        min_pos: usize,
        pos: usize,
    },
    /// Partitioning `items` around their middle element for rank `k`
    /// (1-based within `items`).
    Quick {
        items: Vec<usize>,
        k: usize,
        level: u64,
    },
    Done(usize),
}

/// One k-th-smallest selection over the distances this party holds `shares`
/// of — Alice's `u_i`, Bob's `v_i` — as a step machine: [`next_pairs`]
/// names the comparisons the algorithm asks next, [`absorb`] takes their
/// verdicts, [`outcome`] is `Some` once no pair is left to ask.
///
/// [`next_pairs`]: Selection::next_pairs
/// [`absorb`]: Selection::absorb
/// [`outcome`]: Selection::outcome
#[derive(Debug)]
pub struct Selection<'a> {
    shares: &'a [i64],
    ctx: ProtocolContext,
    progress: Progress,
    /// This step's questions: is `dist[a] < dist[b]`, per `(a, b)`.
    pairs: Vec<(usize, usize)>,
    comparisons: usize,
}

impl<'a> Selection<'a> {
    /// The selection of the `k`-th smallest (1-based) of `shares`, its
    /// comparisons keyed under `ctx`. An empty share vector or a rank outside
    /// `1..=shares.len()` is a typed error: both can arrive from a peer.
    pub fn new(
        method: SelectionMethod,
        shares: &'a [i64],
        k: usize,
        ctx: ProtocolContext,
    ) -> Result<Self, SmcError> {
        let n = shares.len();
        if !(1..=n).contains(&k) {
            return Err(SmcError::protocol(format!(
                "selection rank k = {k} out of range for {n} shared distances"
            )));
        }
        let all = (0..n).collect();
        let progress = match method {
            SelectionMethod::RepeatedMin => Progress::Min {
                active: all,
                scans_left: k,
                min_pos: 0,
                pos: 1,
            },
            SelectionMethod::QuickSelect => Progress::Quick {
                items: all,
                k,
                level: 0,
            },
        };
        let mut selection = Selection {
            shares,
            ctx,
            progress,
            pairs: Vec::new(),
            comparisons: 0,
        };
        selection.ask();
        Ok(selection)
    }

    /// The index pairs `(a, b)` of this step — is `dist[a] < dist[b]`? —
    /// empty once the selection is decided.
    pub fn next_pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The scope pair `i` of this step draws from: a minimum scan's pair by
    /// its ordinal among the selection's comparisons, a quickselect pair by
    /// level and position — a function of the algorithm's state alone.
    fn scope(&self, i: usize) -> ProtocolContext {
        match &self.progress {
            Progress::Quick { level, .. } => self.ctx.at(*level).at(i as u64),
            _ => self.ctx.at((self.comparisons + i) as u64),
        }
    }

    /// Takes this step's verdicts, one per pair of [`Selection::next_pairs`],
    /// and moves to the next step.
    pub fn absorb(&mut self, verdicts: &[bool]) -> Result<(), SmcError> {
        if verdicts.len() != self.pairs.len() {
            return Err(SmcError::protocol(
                "share comparison outcome arity mismatch",
            ));
        }
        self.comparisons += verdicts.len();
        match &mut self.progress {
            Progress::Min {
                active,
                scans_left,
                min_pos,
                pos,
            } => {
                if verdicts.first() == Some(&true) {
                    *min_pos = *pos;
                }
                *pos += 1;
                if *pos == active.len() && *scans_left > 1 {
                    active.swap_remove(*min_pos);
                    (*scans_left, *min_pos, *pos) = (*scans_left - 1, 0, 1);
                }
            }
            Progress::Quick { items, k, level } => {
                let pivot = items[items.len() / 2];
                let side = |less: bool| {
                    let kept = self.pairs.iter().zip(verdicts);
                    kept.filter(move |(_, &v)| v == less).map(|(&(i, _), _)| i)
                };
                let smaller = side(true).count();
                if *k == smaller + 1 {
                    self.progress = Progress::Done(pivot);
                } else {
                    *items = side(*k <= smaller).collect();
                    *k -= if *k > smaller { smaller + 1 } else { 0 };
                    *level += 1;
                }
            }
            Progress::Done(_) => {}
        }
        self.ask();
        Ok(())
    }

    /// Which element ranked k-th and what it cost, once decided.
    pub fn outcome(&self) -> Option<SelectionOutcome> {
        match self.progress {
            Progress::Done(index) => Some(SelectionOutcome {
                index,
                comparisons: self.comparisons,
            }),
            _ => None,
        }
    }

    /// Writes down the pairs of the step `progress` stands at, or the
    /// decision when that step asks nothing.
    fn ask(&mut self) {
        self.pairs.clear();
        let decided = match &self.progress {
            Progress::Min {
                active,
                min_pos,
                pos,
                ..
            } => match active.get(*pos) {
                Some(&next) => {
                    self.pairs.push((next, active[*min_pos]));
                    None
                }
                // The last scan has run off its end: its minimum ranks k-th.
                None => Some(active[*min_pos]),
            },
            // Deterministic pivot: both parties pick the same position
            // without exchanging anything.
            Progress::Quick { items, .. } => {
                let pivot = items[items.len() / 2];
                let others = items.iter().filter(|&&i| i != pivot);
                self.pairs.extend(others.map(|&i| (i, pivot)));
                (items.len() == 1).then_some(pivot)
            }
            Progress::Done(index) => Some(*index),
        };
        if let Some(index) = decided {
            self.progress = Progress::Done(index);
        }
    }
}

/// Drives `selections` to their outcomes together: step `r` of every
/// selection still undecided is one slice of share comparisons, which
/// `backend` frames — so the exchange count is that of the longest selection,
/// not the sum. `role` is the comparison role ([`Party::Alice`] holds the
/// compare keypair). Returns one outcome per selection, in order.
pub fn select_in_lockstep<C: Channel, B: SmcBackend>(
    backend: &B,
    chan: &mut C,
    role: Party,
    selections: &mut [Selection<'_>],
    domain: &ComparisonDomain,
    acct: &mut SharingLedger,
) -> Result<Vec<SelectionOutcome>, SmcError> {
    let span = trace::span("kth", || chan.metrics());
    let (mut pairs, mut scopes) = (Vec::new(), Vec::new());
    loop {
        pairs.clear();
        scopes.clear();
        for selection in selections.iter() {
            for (i, &(a, b)) in selection.next_pairs().iter().enumerate() {
                pairs.push((selection.shares[a], selection.shares[b]));
                scopes.push(selection.scope(i));
            }
        }
        if pairs.is_empty() {
            break;
        }
        let verdicts =
            backend.share_less_than_scoped(chan, role, &pairs, domain, |i| scopes[i], acct)?;
        if verdicts.len() != pairs.len() {
            return Err(SmcError::protocol(
                "share comparison outcome arity mismatch",
            ));
        }
        let mut at = 0;
        for selection in selections.iter_mut() {
            let asked = selection.next_pairs().len();
            selection.absorb(&verdicts[at..at + asked])?;
            at += asked;
        }
    }
    span.end(|| chan.metrics());
    let undecided = || SmcError::protocol("a selection ended without an outcome");
    let decided = selections.iter().map(|s| s.outcome().ok_or_else(undecided));
    decided.collect()
}

/// Selects the k-th smallest (1-based) of the distances this party holds
/// `shares` of: [`select_in_lockstep`] over a slice of one [`Selection`].
/// `ctx` is the selection step's context. `_batched` selects nothing —
/// framing is the backend's alone; the parameter keeps the call shape
/// `perfbench/` was written against.
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
    let mut one = [Selection::new(method, shares, k, *ctx)?];
    Ok(select_in_lockstep(backend, chan, role, &mut one, domain, acct)?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{ctx, rng};
    use rand::Rng;

    /// Drives one selection over plain distances, an oracle answering each
    /// pair it asks; the two-party runs are `tests/properties.rs`'.
    fn run(dists: &[i64], k: usize, method: SelectionMethod) -> SelectionOutcome {
        let mut selection = Selection::new(method, dists, k, ctx(1)).unwrap();
        while selection.outcome().is_none() {
            let asked = selection.next_pairs().iter();
            let verdicts: Vec<bool> = asked.map(|&(a, b)| dists[a] < dists[b]).collect();
            assert!(
                !verdicts.is_empty(),
                "an undecided selection asks something"
            );
            selection.absorb(&verdicts).unwrap();
        }
        selection.outcome().unwrap()
    }

    const METHODS: [SelectionMethod; 2] =
        [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect];

    #[test]
    fn selects_correct_index_all_ranks() {
        let dists = [9i64, 2, 14, 5, 0, 7];
        let mut sorted = dists;
        sorted.sort();
        for method in METHODS {
            for k in 1..=dists.len() {
                let outcome = run(&dists, k, method);
                assert_eq!(dists[outcome.index], sorted[k - 1], "{method:?} k={k}");
            }
        }
    }

    #[test]
    fn handles_ties() {
        let dists = [5i64, 5, 5, 1, 5];
        for method in METHODS {
            assert_eq!(
                run(&dists, 1, method).index,
                3,
                "{method:?}: unique minimum"
            );
            assert_eq!(
                dists[run(&dists, 3, method).index],
                5,
                "{method:?}: tie rank"
            );
        }
    }

    #[test]
    fn single_element() {
        for method in METHODS {
            let outcome = run(&[42], 1, method);
            assert_eq!((outcome.index, outcome.comparisons), (0, 0), "{method:?}");
        }
    }

    #[test]
    fn repeated_min_comparison_count_is_exact() {
        // Round t scans (n - t) active elements => (n - t - 1) comparisons.
        let dists = [3i64, 1, 4, 1, 5, 9, 2, 6];
        let n = dists.len();
        for k in 1..=n {
            let outcome = run(&dists, k, SelectionMethod::RepeatedMin);
            let expect: usize = (0..k).map(|t| n - t - 1).sum();
            assert_eq!(outcome.comparisons, expect, "k={k}");
        }
    }

    #[test]
    fn quickselect_uses_fewer_comparisons_for_large_k() {
        let mut r = rng(33);
        let dists: Vec<i64> = (0..40).map(|_| r.random_range(0..1000)).collect();
        let rm = run(&dists, 20, SelectionMethod::RepeatedMin).comparisons;
        let qs = run(&dists, 20, SelectionMethod::QuickSelect).comparisons;
        assert!(qs < rm, "quickselect {qs} vs repeated-min {rm}");
    }

    #[test]
    fn empty_shares_and_ranks_out_of_range_are_typed_errors() {
        for method in METHODS {
            for (shares, k) in [(&[][..], 1), (&[1, 2][..], 0), (&[1, 2][..], 3)] {
                let err = Selection::new(method, shares, k, ctx(70)).unwrap_err();
                assert!(matches!(err, SmcError::Protocol(_)), "{method:?} k={k}");
            }
        }
    }

    #[test]
    fn a_step_refuses_verdicts_of_another_arity() {
        let shares = [4, 1, 3];
        let mut scan = Selection::new(SelectionMethod::RepeatedMin, &shares, 2, ctx(72)).unwrap();
        assert_eq!(scan.next_pairs(), [(1, 0)]);
        assert!(scan.absorb(&[]).is_err());
        assert!(scan.absorb(&[true, false]).is_err());
        scan.absorb(&[true]).unwrap();
        assert_eq!(scan.next_pairs(), [(2, 1)], "1 is the minimum so far");
        assert_eq!(scan.outcome(), None);
    }
}
