//! Multi-party horizontal DBSCAN — the extension the paper's §1 and §6
//! point to ("the two-party algorithm can be extended to multi-party
//! cases") but never spells out.
//!
//! `K ≥ 2` parties each own complete records. The construction generalizes
//! Algorithms 3 & 4 in the natural way:
//!
//! * every party holds one Paillier keypair and runs a pairwise session
//!   with each peer (full mesh; public-key exchange + versioned `Hello`
//!   handshake per [`crate::session`]);
//! * the run proceeds in `K` deterministic *phases*; in phase `p`, party
//!   `p` is the querier: it resolves the density of all its points with
//!   one peer after another, chunk by chunk as the two-party driver does
//!   (DESIGN.md §7), each peer answering on their pairwise channel;
//! * a core-point test for the querier's point sums its own neighbor count
//!   with one HDP count per peer (each over a fresh per-query permutation,
//!   preserving the Figure 1 defense against every peer independently);
//! * cluster expansion still traverses only the querier's own points, so
//!   each party's output clustering of its own records matches the
//!   two-party reference semantics with the union of all peers as the
//!   external set: `dbscan_with_external_density(own, all_others)`.
//!
//! Leakage per party is the Theorem 9 profile against each peer
//! separately: per own point, one neighbor count *per peer* (strictly
//! finer-grained than the union count — the price of the pairwise
//! construction; a future aggregation layer could hide the split at the
//! cost of a joint protocol among all K parties).
//!
//! Entry points: [`crate::session::Participant::run_mesh`] for one node
//! over real channels, [`crate::session::run_mesh_local`] for all nodes on
//! threads over an in-memory mesh.

use crate::config::ProtocolConfig;
use crate::driver::PartyOutput;
use crate::error::CoreError;
use crate::horizontal::{
    check_points, expand_own_points, resolve_peer_density, serve_peer_density,
};
use crate::session::{
    establish, HandshakeProfile, Mode, PeerInfo, Session, SessionLog, SessionMeta, SessionOutcome,
    WIRE_VERSION,
};
use ppds_dbscan::{Clustering, Point};
use ppds_observe::{trace, MetricsSnapshot, Span};
use ppds_paillier::Keypair;
use ppds_smc::{Party, ProtocolContext};
use ppds_transport::Channel;

/// One node's full run of the multi-party horizontal protocol: the
/// implementation behind [`crate::session::Participant::run_mesh`].
///
/// Randomness: each pairwise exchange draws from
/// `ctx.narrow("mesh").at(querier_id).at(responder_id)` — keyed by the
/// *ordered pair of global ids*, not by traffic order — so adding,
/// removing, or resizing one peer never shifts the streams (masks,
/// nonces, Figure-1 permutations) this node uses with any other peer,
/// and both halves of an exchange walk the same path (which the sharing
/// backend's dealer tape re-keys onto the pair's shared seed). Pinned by
/// the `mesh_streams_are_keyed_per_peer` integration test.
pub(crate) fn run_mesh_node<C: Channel>(
    peers: &mut [(usize, C)],
    my_id: usize,
    k_parties: usize,
    cfg: &ProtocolConfig,
    my_points: &[Point],
    keypair: Option<Keypair>,
    ctx: &ProtocolContext,
) -> Result<(SessionOutcome, Span), CoreError> {
    // The top-level spans tile the node's run, as in `run_two_party`: the
    // first opens before the argument checks, the last comes back open.
    let keygen_span = trace::span("keygen", MetricsSnapshot::default);
    if k_parties < 2 {
        return Err(CoreError::config("need at least two parties"));
    }
    if peers.len() != k_parties - 1 {
        return Err(CoreError::config(format!(
            "one channel per peer: got {} for {} parties",
            peers.len(),
            k_parties
        )));
    }
    if my_id >= k_parties {
        return Err(CoreError::config(format!(
            "party id {my_id} out of range for {k_parties} parties"
        )));
    }
    peers.sort_by_key(|(peer_id, _)| *peer_id);

    let dim = my_points.first().map_or(0, Point::dim);
    cfg.validate(dim.max(1))?;
    check_points(cfg, my_points)?;

    // One keypair per node, one pairwise session per peer. The lower id
    // plays the Alice role of the key exchange ordering.
    let keypair = match keypair {
        Some(kp) => kp,
        None => Keypair::generate(cfg.key_bits, &mut ctx.narrow("keygen").rng()),
    };
    keygen_span.end(MetricsSnapshot::default);
    let profile = HandshakeProfile {
        mode: Mode::Multiparty,
        n: my_points.len(),
        dim,
    };
    let establish_span = trace::span("establish", || mesh_metrics(peers));
    let mut sessions: Vec<(usize, Session)> = Vec::with_capacity(peers.len());
    for (peer_id, chan) in peers.iter_mut() {
        let role = if my_id < *peer_id {
            Party::Alice
        } else {
            Party::Bob
        };
        let peer_span = trace::span_with(|| format!("peer#{peer_id}"), || chan.metrics());
        let session = establish(chan, cfg, keypair.clone(), role, &profile, ctx)?;
        peer_span.end(|| chan.metrics());
        sessions.push((*peer_id, session));
    }
    establish_span.end(|| mesh_metrics(peers));

    let mut log = SessionLog::new();
    let mut clustering = None;
    let mesh_ctx = ctx.narrow("mesh");

    // K deterministic phases; ids give every party the same schedule.
    let execute_span = trace::span("execute", || mesh_metrics(peers));
    for phase in 0..k_parties {
        if phase == my_id {
            // Both halves of a pairwise exchange walk the path
            // `mesh → at(querier) → at(responder)`, so the sharing
            // backend's tape draws stay correlated across the pair while
            // every ordered pair still gets its own independent streams.
            let querier_ctx = mesh_ctx.at(my_id as u64);
            clustering = Some(query_phase(
                peers,
                &sessions,
                cfg,
                my_points,
                &querier_ctx,
                &mut log,
            )?);
        } else {
            // Serve the querying party on the channel that leads to it.
            let idx = peers
                .iter()
                .position(|(peer_id, _)| *peer_id == phase)
                .expect("phase party is a peer");
            let (_, session) = &sessions[idx];
            let (_, chan) = &mut peers[idx];
            let pair_ctx = mesh_ctx.at(phase as u64).at(my_id as u64).narrow("hdp");
            serve_peer_density(chan, cfg, session, my_points, &pair_ctx, &mut log)?;
        }
    }
    execute_span.end(|| mesh_metrics(peers));

    let assemble_span = trace::span("assemble", || mesh_metrics(peers));
    let traffic = peers.iter().map(|(_, chan)| chan.metrics()).sum();
    let peer_meta = sessions
        .iter()
        .map(|(peer_id, session)| PeerInfo {
            id: *peer_id,
            n: session.peer_n,
            dim: session.peer_dim,
        })
        .collect();
    let outcome = SessionOutcome {
        output: PartyOutput {
            clustering: clustering.expect("own phase ran"),
            leakage: log.leakage,
            traffic,
            yao: log.ledger,
            sharing: log.sharing,
        },
        trace: None,
        meta: SessionMeta {
            wire_version: WIRE_VERSION,
            mode: Mode::Multiparty,
            batching: cfg.batching,
            packing: cfg.packing,
            backend: cfg.backend,
            pruning: cfg.pruning,
            peers: peer_meta,
        },
    };
    Ok((outcome, assemble_span))
}

/// Summed traffic across every pairwise channel — the snapshot a mesh-level
/// span edge carries (componentwise sums of monotone counters are still
/// monotone, so span deltas stay well-defined).
fn mesh_metrics<C: Channel>(peers: &[(usize, C)]) -> MetricsSnapshot {
    peers.iter().map(|(_, chan)| chan.metrics()).sum()
}

/// The querier's phase: the two-party driver's resolve, once per peer on
/// that peer's channel and under the ordered-pair context
/// `querier_ctx.at(peer_id)`, then one expansion over the summed counts.
fn query_phase<C: Channel>(
    peers: &mut [(usize, C)],
    sessions: &[(usize, Session)],
    cfg: &ProtocolConfig,
    points: &[Point],
    querier_ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<Clustering, CoreError> {
    let mut peer_counts = vec![0usize; points.len()];
    for ((peer_id, chan), (_, session)) in peers.iter_mut().zip(sessions) {
        // Each peer answers with its own band-filtered candidate
        // cardinalities and its own count.
        let counts = resolve_peer_density(
            chan,
            cfg,
            session,
            points,
            &querier_ctx.at(*peer_id as u64).narrow("hdp"),
            log,
            |idx| format!("own#{idx}/peer#{peer_id}"),
        )?;
        for (total, count) in peer_counts.iter_mut().zip(counts) {
            *total += count;
        }
    }
    Ok(expand_own_points(cfg, points, |idx, own_count| {
        own_count + peer_counts[idx] >= cfg.params.min_pts
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_data_pair, run_mesh_local, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, DbscanParams};
    use ppds_smc::LeakageEvent;

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn pts(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn mesh(c: &ProtocolConfig, parties: &[Vec<Point>], seed: u64) -> Vec<PartyOutput> {
        run_mesh_local(c, parties, seed)
            .unwrap()
            .into_iter()
            .map(|outcome| outcome.output)
            .collect()
    }

    #[test]
    fn three_parties_match_external_density_reference() {
        let parties = vec![
            pts(&[&[0, 0], &[10, 10], &[30, -30]]),
            pts(&[&[1, 0], &[11, 10]]),
            pts(&[&[0, 1], &[10, 11], &[-30, 30]]),
        ];
        let c = cfg(4, 3, 40);
        let outputs = mesh(&c, &parties, 77);
        assert_eq!(outputs.len(), 3);
        for (i, out) in outputs.iter().enumerate() {
            let others: Vec<Point> = parties
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, p)| p.iter().cloned())
                .collect();
            let reference = dbscan_with_external_density(&parties[i], &others, c.params);
            assert_eq!(out.clustering, reference, "party {i}");
        }
    }

    #[test]
    fn two_party_case_equals_bilateral_protocol() {
        let alice = pts(&[&[0, 0], &[1, 1], &[20, 20]]);
        let bob = pts(&[&[0, 1], &[19, 20]]);
        let c = cfg(4, 3, 30);
        let multi = mesh(&c, &[alice.clone(), bob.clone()], 5);
        let views = (alice.clone(), bob.clone());
        let views = (
            PartyData::Horizontal(views.0),
            PartyData::Horizontal(views.1),
        );
        let (two_a, two_b) = run_data_pair(&c, views.0, views.1, rng(1), rng(2)).unwrap();
        assert_eq!(multi[0].clustering, two_a.clustering);
        assert_eq!(multi[1].clustering, two_b.clustering);
    }

    #[test]
    fn four_parties_pool_density() {
        // Each party alone sees nothing; four together make every point core.
        let parties = vec![
            pts(&[&[0, 0]]),
            pts(&[&[1, 0]]),
            pts(&[&[0, 1]]),
            pts(&[&[1, 1]]),
        ];
        let c = cfg(4, 4, 5);
        let outputs = mesh(&c, &parties, 9);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.clustering.num_clusters, 1, "party {i}");
            assert_eq!(out.clustering.noise_count(), 0, "party {i}");
        }
    }

    #[test]
    fn leakage_is_per_peer_neighbor_counts() {
        let parties = vec![pts(&[&[0, 0], &[5, 5]]), pts(&[&[1, 0]]), pts(&[&[0, 1]])];
        let c = cfg(4, 2, 10);
        let outputs = mesh(&c, &parties, 11);
        // Party 0 issued queries against 2 peers: counts come in pairs.
        let counts = outputs[0].leakage.count_kind("neighbor_count");
        assert!(counts > 0 && counts.is_multiple_of(2), "counts = {counts}");
        for event in outputs[0].leakage.events() {
            if let LeakageEvent::NeighborCount { query, .. } = event {
                assert!(query.contains("/peer#"), "per-peer context: {query}");
            }
        }
    }

    #[test]
    fn uneven_party_sizes_work() {
        let parties = vec![
            pts(&[&[0, 0], &[1, 0], &[0, 1], &[9, 9]]),
            pts(&[&[1, 1]]),
            pts(&[]),
        ];
        let c = cfg(4, 3, 12);
        let outputs = mesh(&c, &parties, 13);
        assert_eq!(outputs[2].clustering.labels.len(), 0);
        let others: Vec<Point> = parties[1..].iter().flatten().cloned().collect();
        let reference = dbscan_with_external_density(&parties[0], &others, c.params);
        assert_eq!(outputs[0].clustering, reference);
    }

    #[test]
    fn mesh_outcome_carries_per_peer_metadata() {
        let parties = vec![pts(&[&[0, 0], &[1, 1]]), pts(&[&[1, 0]]), pts(&[&[0, 1]])];
        let c = cfg(4, 2, 10);
        let outcomes = run_mesh_local(&c, &parties, 3).unwrap();
        let meta = &outcomes[0].meta;
        assert_eq!(meta.mode, Mode::Multiparty);
        assert_eq!(meta.wire_version, WIRE_VERSION);
        assert_eq!(meta.peers.len(), 2);
        assert_eq!(meta.peers[0].id, 1);
        assert_eq!(meta.peers[0].n, 1);
        assert_eq!(meta.peers[1].id, 2);
    }
}
