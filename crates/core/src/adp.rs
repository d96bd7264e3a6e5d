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
//! which is `dist²(x, y) ≤ Eps²`.
//!
//! Both the multiplication stage and the comparison dispatch through the
//! session's [`SmcBackend`], so the same dataflow runs over Paillier
//! ciphertexts or 8-byte ring shares (DESIGN.md §14), a whole candidate set
//! to a wire frame or the paper's one pair at a time (DESIGN.md §7).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::adp_domain;
use ppds_smc::compare::CmpOp;
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

fn classify(view: &PairView<'_>) -> LocalParts {
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
/// `ctx` is the step's context: pair `i` keys its masks, multiplication
/// nonces and comparison randomness by `i`, its position in the slice. How
/// either stage is framed — one wire frame per protocol message for all
/// pairs, or one exchange per pair — is the backend's business; outcomes,
/// ledgers and bytes are the same either way.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn adp_compare<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    role: Party,
    views: &[PairView<'_>],
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    let Some(first) = views.first() else {
        return Ok(Vec::new());
    };
    let domain = adp_domain(cfg, first.x.len());
    let mut locals = Vec::with_capacity(views.len());
    // Cross terms through the Multiplication Protocol. Pairs without split
    // attributes have none to multiply and stay out of the stage —
    // ownership is complementary, so both parties filter identically.
    let (mut records, mut groups): (Vec<RecordId>, Vec<Vec<i64>>) = Default::default();
    for (i, view) in views.iter().enumerate() {
        let parts = classify(view);
        locals.push(parts.local);
        if !parts.split_endpoints.is_empty() {
            records.push(i as RecordId);
            groups.push(parts.split_endpoints);
        }
    }
    ledger.record_many(cfg.key_bits, domain.n0(), views.len() as u64);
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
                *value = crate::hdp::responder_operand(*value, cross, &domain)?;
            }
            values
        }
    };
    let cmp_ctx = ctx.narrow("cmp");
    backend.compare_batch(chan, role, &values, CmpOp::Leq, &domain, &cmp_ctx, acct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
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

    /// Decides every record pair of `pairs` in one slice; returns the
    /// verdicts both sides agree on and Alice's traffic.
    fn run(
        cfg: ProtocolConfig,
        (sharing, batching): (bool, bool),
        part: &ArbitraryPartition,
        pairs: &[(usize, usize)],
    ) -> (Vec<bool>, MetricsSnapshot) {
        let cfg = cfg.with_batching(batching);
        let dim = part.alice_values[0].len();
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
                    &views,
                    &ctx(800),
                    &mut ledger,
                    &mut acct,
                );
                (out.unwrap(), ledger, achan.metrics())
            });
            let backend = backend_for(bob_kp(), alice_kp());
            let (views, role) = (views_of(&part.bob_values, pairs), Party::Bob);
            let (mut ledger, mut acct) = Default::default();
            let bob = adp_compare(
                &mut bchan,
                &cfg,
                &backend,
                role,
                &views,
                &ctx(900),
                &mut ledger,
                &mut acct,
            )
            .unwrap();
            let (alice, a_ledger, metrics) = a.join().unwrap();
            assert_eq!(alice, bob);
            assert_eq!(a_ledger, ledger);
            assert_eq!(ledger.comparisons, pairs.len() as u64);
            (alice, metrics)
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
        for trial in 0..3 {
            let part = ArbitraryPartition::random(&mut r, &records);
            for substrate in [(false, false), (false, true), (true, false), (true, true)] {
                let (got, _) = run(cfg(20), substrate, &part, &pairs);
                assert_eq!(
                    got, expect,
                    "trial {trial}, (sharing, batching) = {substrate:?}"
                );
            }
        }
    }

    #[test]
    fn a_batched_slice_is_five_rounds() {
        let part = ArbitraryPartition::random(&mut rng(77), &records());
        // One slice: record 0 against every other record.
        let (_, metrics) = run(cfg(20), (false, true), &part, &[(0, 1), (0, 2), (0, 3)]);
        // 2 rounds of multiplication + 3 of comparison for the whole slice.
        assert!(
            metrics.total_rounds() <= 5,
            "rounds = {}",
            metrics.total_rounds()
        );
        let (none, metrics) = run(cfg(20), (false, true), &part, &[]);
        assert!(none.is_empty());
        assert_eq!(metrics.total_rounds(), 0);
    }

    #[test]
    fn pure_vertical_ownership_needs_no_multiplication() {
        // Constant per-column ownership => H is empty => ADP reduces to VDP.
        let records = vec![Point::new(vec![0, 0]), Point::new(vec![3, 4])];
        let ownership = vec![vec![Owner::Alice, Owner::Bob]; 2];
        let part = ArbitraryPartition::from_records(&records, ownership);
        // dist² = 25 ≤ 25 (boundary), in the comparison's 3 rounds alone.
        let (within, metrics) = run(cfg(25), (false, false), &part, &[(0, 1)]);
        assert_eq!(within, [true]);
        assert_eq!(metrics.total_rounds(), 3);
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
        assert_eq!(run(cfg(5), (false, false), &part, &[(0, 1)]).0, [true]);
        assert_eq!(run(cfg(4), (false, false), &part, &[(0, 1)]).0, [false]);
    }
}
