//! The vertically partitioned DBSCAN driver (Algorithms 5 & 6).
//!
//! Both parties hold an attribute slice of *every* record, so they run one
//! shared DBSCAN loop in lockstep over the common record index space; each
//! `dist ≤ Eps` test is a single protocol-VDP comparison whose outcome both
//! sides learn — resolved once per unordered candidate pair, in chunks,
//! before the loop starts. Because the control flow is a deterministic
//! function of those shared outcomes, the two parties compute
//! byte-identical clusterings without exchanging any labels — and that
//! clustering is *exactly* the single-party DBSCAN of the joined records
//! (verified label-for-label by the integration tests).
//!
//! Runs through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::prune::{for_each_pair_chunk, BandCandidates, BandTable, PAIR_CHUNK};
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use crate::vdp::{local_delta_sq, vdp_compare};
use ppds_dbscan::{dbscan_over_graph, Clustering, DbscanParams, NeighborGraph, Point};
use ppds_observe::trace;
use ppds_smc::{LeakageEvent, LeakageLog, Party, ProtocolContext};
use ppds_transport::Channel;
use std::fmt::Write as _;

/// The shared lockstep DBSCAN engine, in two phases.
///
/// **Resolve** is the only wire phase: every unordered candidate pair goes
/// through `compare_chunk` — one joint `dist² ≤ Eps²` bit per pair,
/// [`PAIR_CHUNK`] pairs per call, so a batching backend spends O(1) wire
/// rounds per chunk and the reference framing a comparison per round over
/// the same stream (`bands = None` streams all `n(n−1)/2` pairs). DBSCAN
/// region-queries every record and both parties learn every bit it asks
/// for, so the disclosed set is exactly "one bit per candidate pair"
/// whatever the visiting order: resolving it up front discloses nothing
/// the per-query exchange of Algorithms 5/6 did not.
///
/// **Expand** is Algorithm 5/6 verbatim over the resolved graph — same
/// visiting order, one `NeighborCount` disclosure per region query — and
/// touches no wire. Also used by the arbitrary-partition driver.
pub(crate) fn lockstep_dbscan<C, F>(
    chan: &mut C,
    n: usize,
    params: DbscanParams,
    bands: Option<BandCandidates>,
    mut compare_chunk: F,
    leakage: &mut LeakageLog,
) -> Result<Clustering, CoreError>
where
    C: Channel,
    F: FnMut(&mut C, u64, &[(u32, u32)]) -> Result<Vec<bool>, CoreError>,
{
    let records = u32::try_from(n)
        .map_err(|_| CoreError::config("lockstep modes index records with 32 bits"))?;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut chunk = 0u64;
    for_each_pair_chunk(records, bands.as_ref(), |pairs| {
        let span = trace::span_with(|| format!("resolve#{chunk}"), || chan.metrics());
        let within = compare_chunk(chan, chunk, pairs)?;
        if within.len() != pairs.len() {
            return Err(CoreError::mismatch(format!(
                "resolve chunk {chunk} arity: {} pairs vs {} answers",
                pairs.len(),
                within.len()
            )));
        }
        edges.extend(
            pairs
                .iter()
                .zip(&within)
                .filter(|(_, &w)| w)
                .map(|(&p, _)| p),
        );
        span.end(|| chan.metrics());
        chunk += 1;
        Ok(())
    })?;
    // Expand needs the graph alone: the band index and the edge list go
    // before the ledger and the labels are allocated.
    drop(bands);
    let graph = NeighborGraph::from_edges(n, &edges);
    drop(edges);
    // One ledger entry per region query: every record once, and once more
    // whenever a later cluster starts on a core point next to it. Room for
    // two each holds the whole ledger in one block that never moves on
    // ordinary data (the E13 inputs re-query 3-4 % of the records).
    leakage.reserve(2 * n);
    Ok(dbscan_over_graph(&graph, params, |x, count| {
        let digits = x.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut query = String::with_capacity("record#".len() + digits);
        write!(query, "record#{x}").expect("writing to a String cannot fail");
        leakage.record(LeakageEvent::NeighborCount {
            query,
            count: count as u64,
        });
    }))
}

/// The vertical protocol as a [`ModeDriver`]. The parties own different
/// attribute slices, so their dimensions legitimately differ; the joined
/// dimension is only known (and validated) after the handshake.
pub(crate) struct VerticalDriver<'a> {
    pub attrs: &'a [Point],
}

impl ModeDriver for VerticalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        crate::horizontal::check_points(cfg, self.attrs)
    }

    fn profile(&self) -> HandshakeProfile {
        HandshakeProfile {
            mode: Mode::Vertical,
            n: self.attrs.len(),
            dim: self.attrs.first().map_or(1, Point::dim),
            dim_must_match: false,
        }
    }

    fn check_session(&self, cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError> {
        if session.peer_n != self.attrs.len() {
            return Err(CoreError::HandshakeMismatch {
                field: "record_count",
                ours: self.attrs.len() as u64,
                theirs: session.peer_n as u64,
            });
        }
        let my_dim = self.attrs.first().map_or(1, Point::dim);
        cfg.validate(my_dim + session.peer_dim)
    }

    fn execute<C: Channel>(
        &self,
        chan: &mut C,
        mctx: &ModeContext<'_>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, attrs) = (mctx.cfg, self.attrs);
        let total_dim = attrs.first().map_or(1, Point::dim) + mctx.session.peer_dim;
        let backend = mctx.backend(total_dim);
        // With grid pruning, both sides publish coarse bands over the
        // attributes they own (disclosure ledgered inside the oracle) and
        // derive identical joined-band candidate pairs.
        let bands = vertical_band_oracle(chan, mctx, attrs, &mut log.leakage)?;
        let (ledger, sharing) = (&mut log.ledger, &mut log.sharing);
        // One context instance per chunk; pair `i` of a chunk draws from
        // resolve.at(chunk).at(i) however the backend frames it.
        let resolve_ctx = ctx.narrow("resolve");
        let mut locals: Vec<u64> = Vec::with_capacity(PAIR_CHUNK);
        let compare_chunk = |chan: &mut C, chunk: u64, pairs: &[(u32, u32)]| {
            locals.clear();
            locals.extend(
                pairs
                    .iter()
                    .map(|&(x, y)| local_delta_sq(&attrs[x as usize], &attrs[y as usize])),
            );
            let (role, cctx) = (mctx.role, resolve_ctx.at(chunk));
            Ok(vdp_compare(
                chan, cfg, &backend, role, &locals, total_dim, &cctx, ledger, sharing,
            )?)
        };
        lockstep_dbscan(
            chan,
            attrs.len(),
            cfg.params,
            bands,
            compare_chunk,
            &mut log.leakage,
        )
    }
}

/// Builds the joined-band candidate oracle for a grid-pruned vertical
/// session (`None` when the config is exhaustive): each party quantizes
/// the attribute slice it owns to coarse public bands, both tables are
/// exchanged (the received table is validated against the handshake and
/// ledgered as a `pruning_bands` leakage event), and the rows are
/// concatenated in the agreed order — Alice's dimensions first — so both
/// parties index the identical joined band table.
fn vertical_band_oracle<C: Channel>(
    chan: &mut C,
    mctx: &ModeContext<'_>,
    attrs: &[Point],
    leakage: &mut LeakageLog,
) -> Result<Option<BandCandidates>, CoreError> {
    let cfg = mctx.cfg;
    let ppds_dbscan::Pruning::Grid { coarseness } = cfg.pruning else {
        return Ok(None);
    };
    let width = ppds_dbscan::band_width(cfg.params.eps_sq, coarseness);
    let mine = BandTable::collect(
        attrs.first().map_or(1, Point::dim),
        attrs
            .iter()
            .map(|p| p.coords().iter().map(|&c| c.div_euclid(width))),
    );
    let theirs = crate::prune::exchange_band_tables(
        chan,
        &mine,
        mctx.session.peer_dim,
        false,
        width,
        cfg.coord_bound,
        leakage,
    )?;
    let joined = match mctx.role {
        Party::Alice => BandTable::join(&mine, &theirs)?,
        Party::Bob => BandTable::join(&theirs, &mine)?,
    };
    Ok(Some(BandCandidates::new(joined, width)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::partition::VerticalPartition;
    use crate::session::{run_data_pair, Participant, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan, eval};

    fn records(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn vertical(
        c: &ProtocolConfig,
        part: &VerticalPartition,
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let (alice, bob) = (part.alice.clone(), part.bob.clone());
        let views = (PartyData::Vertical(alice), PartyData::Vertical(bob));
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    #[test]
    fn matches_plaintext_dbscan_exactly() {
        let recs = records(&[
            &[0, 0, 1, 0],
            &[1, 0, 0, 0],
            &[0, 1, 1, 1],
            &[10, 10, 10, 10],
            &[11, 10, 10, 10],
            &[10, 11, 10, 11],
            &[-20, 5, 3, -9],
        ]);
        let c = cfg(6, 3, 25);
        for split in [1usize, 2, 3] {
            let part = VerticalPartition::split(&recs, split);
            let (a_out, b_out) = vertical(&c, &part, 1, 2);
            let reference = dbscan(&recs, c.params);
            assert_eq!(a_out.clustering, reference, "split {split}: alice");
            assert_eq!(b_out.clustering, reference, "split {split}: bob");
            assert!(eval::same_partition(&a_out.clustering, &b_out.clustering));
        }
    }

    #[test]
    fn yao_backend_matches_ideal() {
        let recs = records(&[&[0, 0], &[1, 1], &[9, 9], &[1, 0]]);
        let part = VerticalPartition::split(&recs, 1);
        let ideal = cfg(2, 2, 10);
        let yao = ProtocolConfig::new_with_yao(ideal.params, 10);
        let (ia, _) = vertical(&ideal, &part, 3, 4);
        let (ya, _) = vertical(&yao, &part, 5, 6);
        assert_eq!(ia.clustering, ya.clustering);
    }

    #[test]
    fn leakage_matches_theorem_10() {
        // Each region query reveals exactly one neighbor count per party.
        let recs = records(&[&[0, 0], &[1, 1], &[9, 9]]);
        let part = VerticalPartition::split(&recs, 1);
        let c = cfg(2, 2, 10);
        let (a_out, b_out) = vertical(&c, &part, 7, 8);
        assert!(a_out.leakage.count_kind("neighbor_count") > 0);
        assert_eq!(
            a_out.leakage.count_kind("neighbor_count"),
            b_out.leakage.count_kind("neighbor_count"),
            "lockstep parties issue identical query sequences"
        );
        assert_eq!(a_out.leakage.count_kind("core_point_bit"), 0);
    }

    #[test]
    fn record_count_mismatch_rejected_with_typed_error() {
        let recs = records(&[&[0, 0], &[1, 1]]);
        let part = VerticalPartition::split(&recs, 1);
        let c = cfg(2, 2, 10);
        let result = crate::driver::run_pair(
            |mut chan| {
                Participant::new(c)
                    .role(Party::Alice)
                    .data(PartyData::Vertical(part.alice.clone()))
                    .seed(9)
                    .run(&mut chan)
            },
            |mut chan| {
                // Bob drops a record.
                Participant::new(c)
                    .role(Party::Bob)
                    .data(PartyData::Vertical(part.bob[..1].to_vec()))
                    .seed(10)
                    .run(&mut chan)
            },
        );
        match result.unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "record_count"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn traffic_is_quadratic_in_n() {
        // §4.3.2: O(c2·n0·n²) — doubling n should roughly quadruple bytes.
        let make = |n: usize| {
            let recs: Vec<Point> = (0..n)
                .map(|i| Point::new(vec![(i as i64) * 3, (i as i64) % 5]))
                .collect();
            VerticalPartition::split(&recs, 1)
        };
        let c = cfg(4, 2, 50);
        let (a_small, _) = vertical(&c, &make(6), 11, 12);
        let (a_big, _) = vertical(&c, &make(12), 13, 14);
        let ratio = a_big.yao.comparisons as f64 / a_small.yao.comparisons.max(1) as f64;
        assert!(
            ratio > 2.5,
            "comparisons should grow superlinearly, ratio = {ratio}"
        );
    }
}
