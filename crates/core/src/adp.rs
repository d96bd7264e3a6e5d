//! The arbitrary-partition distance protocol (§4.4).
//!
//! For a record pair `(x, y)` under arbitrary per-cell ownership, the
//! squared distance decomposes over three public attribute classes:
//!
//! * `V_A` — attributes where Alice owns both `x_k` and `y_k`: she sums
//!   `(x_k − y_k)²` locally;
//! * `V_B` — symmetric for Bob;
//! * `H` — attributes where the endpoints are split across parties:
//!   `(x_k − y_k)² = x_k² − 2·x_k·y_k + y_k²`; the squares stay local and
//!   the cross terms go through the Multiplication Protocol with Bob as
//!   keyholder and Alice blinding with zero-sum `r_k` — exactly the HDP
//!   treatment the paper prescribes ("the horizontally partitioned data
//!   could be processed using the Protocol HDP").
//!
//! One Yao comparison then decides
//! `V_A + Σ_H a_k²  ≤  Eps² − V_B − Σ_H b_k² + 2·Σ_H a_k·b_k`,
//! which is `dist²(x, y) ≤ Eps²`. Vertical data is the case where every
//! column has one owner: `H` is empty, nothing is multiplied, and the
//! comparison is protocol VDP's `α ≤ Eps² − β` (§4.3).
//!
//! Both the multiplication stage and the comparison dispatch through the
//! session's [`SmcBackend`], so the same dataflow runs over Paillier
//! ciphertexts or 8-byte ring shares (DESIGN.md §14), a whole candidate set
//! to a wire frame or the paper's one pair at a time (DESIGN.md §7).

use crate::config::{ProtocolConfig, YaoLedger};
use ppds_smc::compare::{CmpOp, ComparisonDomain};
use ppds_smc::{Party, ProtocolContext, RecordId, SharingLedger, SmcBackend, SmcError};
use ppds_transport::Channel;

/// One party's view of a record pair: its own values (`Some`) per
/// attribute, for records `x` and `y`.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    /// Own values of record `x` (`Some` at owned attributes).
    pub x: &'a [Option<i64>],
    /// Own values of record `y`.
    pub y: &'a [Option<i64>],
}

/// Classified attribute contributions, computed locally by each party from
/// its own view. Ownership is complementary, so the two parties' `split`
/// endpoint lists align index-for-index.
struct LocalParts {
    /// Σ (x_k − y_k)² over attributes where this party owns both endpoints,
    /// plus the square of its endpoint at every split attribute: all of
    /// `dist²` this party can compute alone.
    local: i64,
    /// This party's endpoint value per split attribute, ascending `k`.
    split_endpoints: Vec<i64>,
}

fn classify(view: PairView<'_>) -> LocalParts {
    assert_eq!(view.x.len(), view.y.len(), "views must share the schema");
    let mut local = 0i64;
    let mut split_endpoints = Vec::new();
    for (xk, yk) in view.x.iter().zip(view.y) {
        match (xk, yk) {
            (Some(x), Some(y)) => local += (x - y) * (x - y),
            (Some(v), None) | (None, Some(v)) => {
                local += v * v;
                split_endpoints.push(*v);
            }
            (None, None) => {} // the peer owns both endpoints
        }
    }
    LocalParts {
        local,
        split_endpoints,
    }
}

/// One party's side of a slice of arbitrary-partition comparisons: one
/// `dist²(x, y) ≤ Eps²` decision per pair view of a whole candidate set
/// (both sides pass the same pairs in the same order). The multiplication
/// stages of every split pair come first (Bob keyholder), then one
/// comparison per pair; the per-pair zero-sum masks cancel inside the fold.
/// `domain` holds both operands of every pair (`domain::split_domain` over
/// the session's split-attribute counts). `ctx` is the step's context:
/// pair `i` keys its masks, multiplication nonces and comparison randomness
/// by `i`, its position in the slice. The views are streamed, never
/// collected: at a chunk of lockstep pairs a buffer of them costs more than
/// the local sums it feeds. How either stage is framed — one wire frame per
/// protocol message for all pairs, or one exchange per pair — is the
/// backend's business; outcomes, ledgers and bytes are the same either way.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn adp_compare<'v, C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    role: Party,
    views: impl ExactSizeIterator<Item = PairView<'v>>,
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    let pairs = views.len();
    let mut locals = Vec::with_capacity(pairs);
    // Cross terms through the Multiplication Protocol. Pairs without split
    // attributes have none to multiply and stay out of the stage —
    // ownership is complementary, so both parties filter identically. A
    // slice with none at all folds nothing and touches no wire.
    let (mut records, mut groups): (Vec<RecordId>, Vec<Vec<i64>>) = Default::default();
    for (i, view) in views.enumerate() {
        let parts = classify(view);
        locals.push(parts.local);
        if !parts.split_endpoints.is_empty() {
            records.push(i as RecordId);
            groups.push(parts.split_endpoints);
        }
    }
    ledger.record_many(cfg.key_bits, domain.n0(), pairs as u64);
    let values = match role {
        // Alice: `V_A + Σ_H a_k²`.
        Party::Alice => {
            backend.mul_fold_peer(chan, &groups, &records, ctx, acct)?;
            locals
        }
        // Bob: `Eps² − V_B − Σ_H b_k² + 2·Σ_H a_k·b_k`.
        Party::Bob => {
            let eps = cfg.params.eps_sq as i64;
            let mut values: Vec<i64> = locals.iter().map(|local| eps - local).collect();
            let crosses = backend.mul_fold_keyholder(chan, &groups, &records, ctx, acct)?;
            for (&i, cross) in records.iter().zip(crosses) {
                let value = &mut values[i as usize];
                *value = crate::hdp::responder_operand(*value, cross, domain)?;
            }
            values
        }
    };
    backend.compare_batch(chan, role, &values, CmpOp::Leq, domain, ctx, acct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::domain::split_domain;
    use crate::partition::{ArbitraryPartition, Owner};
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams, Point};
    use ppds_paillier::Keypair;
    use ppds_smc::{AnyBackend, DealerTape, SharingBackend};
    use ppds_transport::{duplex, MetricsSnapshot};
    use std::sync::OnceLock;

    fn alice_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(44)))
    }

    fn bob_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(55)))
    }

    /// (sharing, batching): both substrates in both framings.
    const SUBSTRATES: [(bool, bool); 4] =
        [(false, false), (false, true), (true, false), (true, true)];

    /// What Alice takes away from one slice of comparisons.
    struct Decided {
        within: Vec<bool>,
        sharing: SharingLedger,
        traffic: MetricsSnapshot,
    }

    /// Decides every record pair of `pairs` in one slice, over the domain
    /// of the partition's split columns; both sides must agree on the
    /// verdicts and the Yao ledger.
    fn run(
        cfg: ProtocolConfig,
        (sharing, batching): (bool, bool),
        part: &ArbitraryPartition,
        pairs: &[(usize, usize)],
    ) -> Decided {
        let cfg = cfg.with_batching(batching);
        let dim = part.dim();
        let owners = &part.ownership;
        let split = (0..dim)
            .filter(|&k| owners.iter().any(|row| row[k] != owners[0][k]))
            .count();
        let domain = split_domain(&cfg, dim, 0, split);
        let backend_for = |mine: &'static Keypair, theirs: &'static Keypair| {
            if sharing {
                AnyBackend::Sharing(SharingBackend {
                    tape: DealerTape::from_seed(909),
                    batching,
                    dot_mask_bound: 1 << 20,
                })
            } else {
                AnyBackend::Paillier(paillier_backend(&cfg, mine, &theirs.public, dim))
            }
        };
        fn views_of<'a>(
            values: &'a [Vec<Option<i64>>],
            pairs: &[(usize, usize)],
        ) -> Vec<PairView<'a>> {
            let view = |&(x, y): &(usize, usize)| PairView {
                x: &values[x],
                y: &values[y],
            };
            pairs.iter().map(view).collect()
        }
        let (mut achan, mut bchan) = duplex();
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let backend = backend_for(alice_kp(), bob_kp());
                let (views, role) = (views_of(&part.alice_values, pairs), Party::Alice);
                let (mut ledger, mut acct) = Default::default();
                let out = adp_compare(
                    &mut achan,
                    &cfg,
                    &backend,
                    role,
                    views.into_iter(),
                    &domain,
                    &ctx(800),
                    &mut ledger,
                    &mut acct,
                );
                let traffic = achan.metrics();
                let decided = Decided {
                    within: out.unwrap(),
                    sharing: acct,
                    traffic,
                };
                (decided, ledger)
            });
            let backend = backend_for(bob_kp(), alice_kp());
            let (views, role) = (views_of(&part.bob_values, pairs), Party::Bob);
            let (mut ledger, mut acct) = Default::default();
            let bob = adp_compare(
                &mut bchan,
                &cfg,
                &backend,
                role,
                views.into_iter(),
                &domain,
                &ctx(900),
                &mut ledger,
                &mut acct,
            )
            .unwrap();
            let (alice, a_ledger) = a.join().unwrap();
            assert_eq!(alice.within, bob);
            assert_eq!(a_ledger, ledger);
            assert_eq!(ledger.comparisons, pairs.len() as u64);
            alice
        })
    }

    fn cfg(eps_sq: u64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 2 }, 5)
    }

    fn records() -> Vec<Point> {
        vec![
            Point::new(vec![1, -2, 3, 0]),
            Point::new(vec![0, -2, 1, 2]),
            Point::new(vec![4, 4, -4, -4]),
            Point::new(vec![0, 0, 0, 0]),
        ]
    }

    /// Alice owns attributes `0..2` of every record, Bob `2..4`.
    fn split_at_two(records: &[Point]) -> ArbitraryPartition {
        let owners = vec![Owner::Alice, Owner::Alice, Owner::Bob, Owner::Bob];
        ArbitraryPartition::from_records(records, vec![owners; records.len()])
    }

    #[test]
    fn matches_plain_distance_on_random_partitions() {
        let records = records();
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|x| (0..4).filter(move |&y| y != x).map(move |y| (x, y)))
            .collect();
        let expect: Vec<bool> = pairs
            .iter()
            .map(|&(x, y)| dist_sq(&records[x], &records[y]) <= 20)
            .collect();
        let mut r = rng(9);
        let mut partitions: Vec<ArbitraryPartition> = (0..3)
            .map(|_| ArbitraryPartition::random(&mut r, &records))
            .collect();
        partitions.push(split_at_two(&records));
        for (trial, part) in partitions.iter().enumerate() {
            for substrate in SUBSTRATES {
                let got = run(cfg(20), substrate, part, &pairs).within;
                assert_eq!(got, expect, "partition {trial}, {substrate:?}");
            }
        }
        // The faithful Yao comparator decides a vertical split alike, here
        // on the boundary: dist²(records 0, 1) = 9.
        let yao = ProtocolConfig::new_with_yao(cfg(9).params, 5);
        let vertical = split_at_two(&records);
        assert_eq!(
            run(yao, (false, false), &vertical, &[(0, 1)]).within,
            [true]
        );
    }

    #[test]
    fn a_batched_slice_is_five_rounds() {
        let part = ArbitraryPartition::random(&mut rng(77), &records());
        // One slice: record 0 against every other record.
        let traffic = run(cfg(20), (false, true), &part, &[(0, 1), (0, 2), (0, 3)]).traffic;
        // 2 rounds of multiplication + 3 of comparison for the whole slice.
        assert!(
            traffic.total_rounds() <= 5,
            "rounds = {}",
            traffic.total_rounds()
        );
        let none = run(cfg(20), (false, true), &part, &[]);
        assert!(none.within.is_empty());
        assert_eq!(none.traffic.total_rounds(), 0);
    }

    #[test]
    fn pure_vertical_ownership_needs_no_multiplication() {
        // Constant per-column ownership => H is empty => ADP is VDP: Alice's
        // `α` against Bob's `Eps² − β`, in the comparison's rounds alone.
        // Record 0 sits at the origin; (α, β) per partner below.
        let records: Vec<Point> = [
            [0, 0, 0, 0],
            [1, 2, 1, 2], // (5, 5): 10, on the boundary
            [1, 2, 2, 2], // (5, 8)
            [1, 3, 0, 0], // (10, 0)
            [0, 0, 1, 3], // (0, 10)
            [0, 3, 1, 1], // (9, 2)
            [0, 2, 1, 2], // (4, 5)
            [3, 4, 0, 0], // (25, 0)
        ]
        .iter()
        .map(|c| Point::new(c.to_vec()))
        .collect();
        let part = split_at_two(&records);
        let pairs: Vec<(usize, usize)> = (1..8).map(|y| (0, y)).collect();
        let expect = [true, false, true, true, false, true, false];
        for substrate @ (sharing, batching) in SUBSTRATES {
            let out = run(cfg(10), substrate, &part, &pairs);
            assert_eq!(out.within, expect, "{substrate:?}");
            assert_eq!(out.sharing.compares, if sharing { 7 } else { 0 });
            assert_eq!(out.sharing.triples, 0, "nothing is multiplied");
            // One Ideal (or masked-open) exchange for all 7, or one each.
            let exchange = if sharing { 2 } else { 3 };
            let frames = if batching { 1 } else { 7 };
            assert_eq!(out.traffic.total_rounds(), exchange * frames);
        }
    }

    #[test]
    fn pure_horizontal_rows_exercise_full_multiplication() {
        // Record 0 fully Alice's, record 1 fully Bob's: every attribute is a
        // split pair, V_A = V_B = 0.
        let records = vec![Point::new(vec![1, 2]), Point::new(vec![2, 4])];
        let ownership = vec![
            vec![Owner::Alice, Owner::Alice],
            vec![Owner::Bob, Owner::Bob],
        ];
        let part = ArbitraryPartition::from_records(&records, ownership);
        // dist² = 1 + 4 = 5.
        assert_eq!(run(cfg(5), (false, false), &part, &[(0, 1)]).within, [true]);
        assert_eq!(
            run(cfg(4), (false, false), &part, &[(0, 1)]).within,
            [false]
        );
    }
}
