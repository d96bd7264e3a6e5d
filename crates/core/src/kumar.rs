//! The Kumar et al. \[14\]-style **insecure baseline** and the Figure 1
//! intersection attack against it.
//!
//! The paper's second motivating contribution is that the prior horizontal
//! protocol of Kumar & Rangan (ADMA 2007) "poses significant privacy risks
//! of identifying individual records from the other party": the responder
//! learns, *per identified query record*, which of his points it neighbors
//! — so he can intersect Eps-disks (Figure 1) and localize the record.
//!
//! This module implements that baseline faithfully enough to attack: it is
//! the basic horizontal protocol with two deliberate weaknesses —
//!
//! 1. the querier sends a **stable query identifier** with every
//!    neighborhood query, and
//! 2. the responder's points are processed **in fixed order with per-point
//!    result bits tied to that identifier** (no per-query permutation),
//!
//! so the responder's leakage log fills with
//! [`LeakageEvent::LinkedNeighborBit`] records. [`intersection_attack`]
//! then replays Figure 1 *from an actual protocol transcript*: for each
//! query id it computes the set of lattice positions consistent with every
//! observed bit. The `figure1_attack_executes_on_transcripts` tests compare
//! the result against the honest protocol, where the same adversary is
//! stuck with disk unions.
//!
//! **Never use this protocol for anything but measurement.**

use crate::config::{ProtocolConfig, YaoLedger};
use crate::driver::PartyOutput;
use crate::error::CoreError;
use crate::session::{establish, HandshakeProfile, Mode};
use ppds_bigint::BigInt;
use ppds_dbscan::index::{LinearIndex, NeighborIndex};
use ppds_dbscan::{dist_sq, Clustering, Label, Point};
use ppds_paillier::{Keypair, PublicKey};
use ppds_smc::compare::{compare_alice, compare_bob, CmpOp};
use ppds_smc::multiplication::{mul_batches_keyholder, mul_batches_peer, zero_sum_masks};
use ppds_smc::{LeakageEvent, LeakageLog, Party, ProtocolContext, SmcError};
use ppds_transport::Channel;
use std::collections::{BTreeMap, VecDeque};

const TAG_DONE: u8 = 0;
const TAG_QUERY: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(usize),
}

/// Querier side of one linkable neighborhood query (the [14]-style leak:
/// the query carries a stable id).
#[allow(clippy::too_many_arguments)]
fn kumar_query<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_keypair: &Keypair,
    responder_pk: &PublicKey,
    query: &Point,
    query_id: u64,
    responder_count: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
) -> Result<usize, SmcError> {
    chan.send(&query_id)?; // the deliberate weakness
    let dim = query.dim();
    let domain = crate::domain::hdp_domain(cfg, dim);
    let i_val = i64::try_from(query.norm_sq()).expect("ΣA² fits i64");
    let ys: Vec<BigInt> = query
        .coords()
        .iter()
        .map(|&c| BigInt::from_i64(c))
        .collect();
    let (mask_ctx, mul_ctx, cmp_ctx) = (ctx.narrow("mask"), ctx.narrow("mul"), ctx.narrow("cmp"));
    let mut count = 0usize;
    // One responder point at a time, as [14] prescribes: each exchange is
    // a slice of one, scoped by the point's position.
    for pos in 0..responder_count as u64 {
        mul_batches_peer(
            chan,
            responder_pk,
            std::slice::from_ref(&ys),
            |_| zero_sum_masks(mask_ctx.rng_for(pos), dim, &cfg.mul_mask_bound()),
            |_| mul_ctx.at(pos),
            None,
        )?;
        ledger.record(cfg.key_bits, domain.n0());
        let (comparator, scope) = (cfg.comparator, |_| cmp_ctx.at(pos));
        let within = compare_alice(
            comparator,
            chan,
            my_keypair,
            &[i_val],
            &domain,
            false,
            scope,
        )?;
        count += within[0] as usize;
    }
    Ok(count)
}

/// Responder side: fixed point order, bits recorded against the query id.
#[allow(clippy::too_many_arguments)]
fn kumar_respond<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_keypair: &Keypair,
    querier_pk: &PublicKey,
    my_points: &[Point],
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    leakage: &mut LeakageLog,
) -> Result<(), SmcError> {
    let query_id: u64 = chan.recv()?;
    let dim = my_points.first().map_or(0, Point::dim);
    let domain = crate::domain::hdp_domain(cfg, dim);
    let eps = cfg.params.eps_sq as i64;
    let (mul_ctx, cmp_ctx) = (ctx.narrow("mul"), ctx.narrow("cmp"));
    for (idx, point) in my_points.iter().enumerate() {
        let xs: Vec<BigInt> = point
            .coords()
            .iter()
            .map(|&c| BigInt::from_i64(c))
            .collect();
        let scope = |_| mul_ctx.at(idx as u64);
        let ws = mul_batches_keyholder(chan, my_keypair, &[xs], scope, None)?;
        let inner: i64 = ws[0]
            .iter()
            .fold(BigInt::zero(), |acc, w| &acc + w)
            .to_i64()
            .ok_or_else(|| SmcError::protocol("inner product overflows i64"))?;
        let own = point.norm_sq() as i64;
        let j_val = crate::hdp::responder_operand(eps - own, inner, &domain)?;
        ledger.record(cfg.key_bits, domain.n0());
        let (comparator, scope) = (cfg.comparator, |_| cmp_ctx.at(idx as u64));
        let within = compare_bob(
            comparator,
            chan,
            querier_pk,
            &[j_val],
            CmpOp::Leq,
            &domain,
            false,
            scope,
        )?[0];
        leakage.record(LeakageEvent::LinkedNeighborBit {
            query_id,
            point: idx as u64,
            within,
        });
    }
    Ok(())
}

/// One party's full run of the Kumar-style baseline (structure identical to
/// the honest horizontal protocol; only the linkability differs).
pub fn kumar_party<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_points: &[Point],
    role: Party,
    ctx: &ProtocolContext,
) -> Result<PartyOutput, CoreError> {
    let dim = my_points.first().map_or(0, Point::dim);
    cfg.validate(dim.max(1))?;
    crate::horizontal::check_points(cfg, my_points)?;
    let keypair = Keypair::generate(cfg.key_bits, &mut ctx.narrow("keygen").rng());
    let session = establish(
        chan,
        cfg,
        keypair,
        role,
        &HandshakeProfile {
            mode: Mode::KumarBaseline,
            n: my_points.len(),
            dim,
            dim_must_match: true,
        },
        ctx,
    )?;

    let mut leakage = LeakageLog::new();
    let mut ledger = YaoLedger::default();
    let clustering;

    let query_ctx = ctx.narrow("query");
    let serve_ctx = ctx.narrow("serve");
    let run_query_phase = |chan: &mut C, leakage: &mut LeakageLog, ledger: &mut YaoLedger| {
        let index = LinearIndex::new(my_points, cfg.params.eps_sq);
        let mut states = vec![State::Unclassified; my_points.len()];
        let mut next_cluster = 0usize;
        let mut issued = 0u64;
        let mut core_test = |chan: &mut C,
                             leakage: &mut LeakageLog,
                             ledger: &mut YaoLedger,
                             idx: usize,
                             own: usize|
         -> Result<bool, CoreError> {
            chan.send(&TAG_QUERY)?;
            let qctx = query_ctx.at(issued);
            issued += 1;
            let count = kumar_query(
                chan,
                cfg,
                &session.my_keypair,
                &session.peer_pk,
                &my_points[idx],
                idx as u64,
                session.peer_n,
                &qctx,
                ledger,
            )?;
            leakage.record(LeakageEvent::NeighborCount {
                query: format!("own#{idx}"),
                count: count as u64,
            });
            Ok(own + count >= cfg.params.min_pts)
        };
        for i in 0..my_points.len() {
            if states[i] != State::Unclassified {
                continue;
            }
            let seeds = index.region_query(&my_points[i]);
            if !core_test(chan, leakage, ledger, i, seeds.len())? {
                states[i] = State::Noise;
                continue;
            }
            let cluster_id = next_cluster;
            next_cluster += 1;
            let mut queue: VecDeque<usize> = VecDeque::new();
            for &s in &seeds {
                states[s] = State::Cluster(cluster_id);
                if s != i {
                    queue.push_back(s);
                }
            }
            while let Some(current) = queue.pop_front() {
                let result = index.region_query(&my_points[current]);
                if core_test(chan, leakage, ledger, current, result.len())? {
                    for &neighbor in &result {
                        match states[neighbor] {
                            State::Unclassified => {
                                queue.push_back(neighbor);
                                states[neighbor] = State::Cluster(cluster_id);
                            }
                            State::Noise => states[neighbor] = State::Cluster(cluster_id),
                            State::Cluster(_) => {}
                        }
                    }
                }
            }
        }
        chan.send(&TAG_DONE)?;
        let labels = states
            .into_iter()
            .map(|s| match s {
                State::Unclassified => unreachable!("all classified"),
                State::Noise => Label::Noise,
                State::Cluster(id) => Label::Cluster(id),
            })
            .collect();
        Ok::<_, CoreError>(Clustering {
            labels,
            num_clusters: next_cluster,
        })
    };
    let run_respond_phase = |chan: &mut C, leakage: &mut LeakageLog, ledger: &mut YaoLedger| {
        let mut served = 0u64;
        loop {
            let tag: u8 = chan.recv()?;
            match tag {
                TAG_DONE => return Ok::<_, CoreError>(()),
                TAG_QUERY => {
                    let qctx = serve_ctx.at(served);
                    served += 1;
                    kumar_respond(
                        chan,
                        cfg,
                        &session.my_keypair,
                        &session.peer_pk,
                        my_points,
                        &qctx,
                        ledger,
                        leakage,
                    )?
                }
                other => {
                    return Err(CoreError::Smc(SmcError::protocol(format!(
                        "unexpected control tag {other}"
                    ))))
                }
            }
        }
    };

    match role {
        Party::Alice => {
            clustering = Some(run_query_phase(chan, &mut leakage, &mut ledger)?);
            run_respond_phase(chan, &mut leakage, &mut ledger)?;
        }
        Party::Bob => {
            run_respond_phase(chan, &mut leakage, &mut ledger)?;
            clustering = Some(run_query_phase(chan, &mut leakage, &mut ledger)?);
        }
    }
    Ok(PartyOutput {
        clustering: clustering.expect("query phase ran"),
        leakage,
        traffic: chan.metrics(),
        yao: ledger,
        sharing: Default::default(),
    })
}

/// Runs the baseline for both parties over an in-memory pair.
pub fn run_kumar_pair(
    cfg: &ProtocolConfig,
    alice_points: &[Point],
    bob_points: &[Point],
    mut rng_a: rand::rngs::StdRng,
    mut rng_b: rand::rngs::StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    let (ctx_a, ctx_b) = (
        ProtocolContext::from_rng(&mut rng_a),
        ProtocolContext::from_rng(&mut rng_b),
    );
    crate::driver::run_pair(
        |mut chan| kumar_party(&mut chan, cfg, alice_points, Party::Alice, &ctx_a),
        |mut chan| kumar_party(&mut chan, cfg, bob_points, Party::Bob, &ctx_b),
    )
}

/// The Figure 1 attack, run offline on a responder's transcript: for every
/// query id seen, count the lattice positions (within `[-bound, bound]²…`)
/// consistent with *all* observed linked bits. Smaller is worse for the
/// victim. Returns `query_id → feasible position count`.
pub fn intersection_attack(
    my_points: &[Point],
    leakage: &LeakageLog,
    eps_sq: u64,
    bound: i64,
) -> BTreeMap<u64, u64> {
    // Gather per-query bit vectors.
    let mut bits: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();
    for event in leakage.events() {
        if let LeakageEvent::LinkedNeighborBit {
            query_id,
            point,
            within,
        } = event
        {
            bits.entry(*query_id)
                .or_default()
                .push((*point as usize, *within));
        }
    }
    let dim = my_points.first().map_or(0, Point::dim);
    assert_eq!(dim, 2, "the lattice sweep implemented for 2-D scenarios");

    let mut result = BTreeMap::new();
    for (query_id, constraints) in bits {
        let mut feasible = 0u64;
        for x in -bound..=bound {
            for y in -bound..=bound {
                let candidate = Point::new(vec![x, y]);
                let consistent = constraints.iter().all(|&(idx, within)| {
                    (dist_sq(&my_points[idx], &candidate) <= eps_sq) == within
                });
                feasible += consistent as u64;
            }
        }
        result.insert(query_id, feasible);
    }
    result
}

/// The best the same adversary can do against the *honest* protocol: each
/// of his matched points constrains the unknown record only to the union of
/// matched disks (bits are unlinkable across his points, so no intersection
/// is sound). Returns the union size for reference.
pub fn unlinkable_feasible_region(my_points: &[Point], eps_sq: u64, bound: i64) -> u64 {
    let mut feasible = 0u64;
    for x in -bound..=bound {
        for y in -bound..=bound {
            let candidate = Point::new(vec![x, y]);
            let hit = my_points.iter().any(|p| dist_sq(p, &candidate) <= eps_sq);
            feasible += hit as u64;
        }
    }
    feasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_data_pair, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, DbscanParams};

    fn figure1_setup() -> (Vec<Point>, Vec<Point>, ProtocolConfig) {
        let alice = vec![Point::new(vec![8, 5])]; // in all three disks
        let bob = vec![
            Point::new(vec![0, 0]),
            Point::new(vec![16, 0]),
            Point::new(vec![8, 14]),
        ];
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 100,
                min_pts: 5, // force noise: only the queries matter
            },
            64,
        );
        (alice, bob, cfg)
    }

    #[test]
    fn baseline_still_clusters_correctly() {
        // The weakness is in leakage, not in the computed output.
        let alice = vec![
            Point::new(vec![0, 0]),
            Point::new(vec![1, 1]),
            Point::new(vec![20, 20]),
        ];
        let bob = vec![Point::new(vec![0, 1]), Point::new(vec![21, 20])];
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 4,
                min_pts: 3,
            },
            25,
        );
        let (a, b) = run_kumar_pair(&cfg, &alice, &bob, rng(1), rng(2)).unwrap();
        assert_eq!(
            a.clustering,
            dbscan_with_external_density(&alice, &bob, cfg.params)
        );
        assert_eq!(
            b.clustering,
            dbscan_with_external_density(&bob, &alice, cfg.params)
        );
    }

    #[test]
    fn figure1_attack_executes_on_transcripts() {
        let (alice, bob, cfg) = figure1_setup();
        let (_, bob_out) = run_kumar_pair(&cfg, &alice, &bob, rng(3), rng(4)).unwrap();

        // Bob received one linked bit per (query, own point).
        assert_eq!(bob_out.leakage.count_kind("linked_neighbor_bit"), 3);

        let localized = intersection_attack(&bob, &bob_out.leakage, 100, 40);
        let count = localized[&0];
        // Eps = 10 geometry: the three-disk intersection has 3 lattice
        // points (F1 table) — Bob pinned Alice's record to 3 candidates.
        assert_eq!(count, 3, "attack must localize the record");

        // Against the honest protocol the same adversary gets no linkable
        // bits at all…
        let views = (
            PartyData::Horizontal(alice),
            PartyData::Horizontal(bob.clone()),
        );
        let (_, honest_bob) = run_data_pair(&cfg, views.0, views.1, rng(5), rng(6)).unwrap();
        assert_eq!(honest_bob.leakage.count_kind("linked_neighbor_bit"), 0);
        // …and his best unlinkable inference is the union of his disks.
        let union = unlinkable_feasible_region(&bob, 100, 40);
        assert!(
            union > 100 * count,
            "honest protocol leaves ≥ 100x more uncertainty ({union} vs {count})"
        );
    }

    #[test]
    fn attack_uses_negative_bits_too() {
        // A query outside B3's disk: the "not within" bit carves the
        // feasible set down to (disk1 ∩ disk2) \ disk3.
        let alice = vec![Point::new(vec![8, -2])]; // in disks 1,2; not 3
        let bob = vec![
            Point::new(vec![0, 0]),
            Point::new(vec![16, 0]),
            Point::new(vec![8, 14]),
        ];
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 100,
                min_pts: 5,
            },
            64,
        );
        let (_, bob_out) = run_kumar_pair(&cfg, &alice, &bob, rng(7), rng(8)).unwrap();
        let localized = intersection_attack(&bob, &bob_out.leakage, 100, 40);
        let feasible = localized[&0];
        // Exact reference count by direct enumeration.
        let mut expect = 0u64;
        for x in -40i64..=40 {
            for y in -40i64..=40 {
                let p = Point::new(vec![x, y]);
                let d1 = dist_sq(&bob[0], &p) <= 100;
                let d2 = dist_sq(&bob[1], &p) <= 100;
                let d3 = dist_sq(&bob[2], &p) <= 100;
                expect += (d1 && d2 && !d3) as u64;
            }
        }
        assert_eq!(feasible, expect);
        assert!(feasible > 0, "the true record position stays feasible");
    }

    #[test]
    fn multiple_queries_localize_independently() {
        let alice = vec![Point::new(vec![8, 5]), Point::new(vec![-20, -20])];
        let bob = vec![Point::new(vec![0, 0]), Point::new(vec![16, 0])];
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 100,
                min_pts: 6,
            },
            64,
        );
        let (_, bob_out) = run_kumar_pair(&cfg, &alice, &bob, rng(9), rng(10)).unwrap();
        let localized = intersection_attack(&bob, &bob_out.leakage, 100, 40);
        assert_eq!(localized.len(), 2, "one feasible set per identified query");
        // Query 0 (in both disks) is far more localized than query 1
        // (outside both — only negative constraints).
        assert!(localized[&0] < localized[&1]);
    }
}
