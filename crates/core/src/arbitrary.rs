//! The arbitrary-partition DBSCAN driver (§4.4).
//!
//! "Since the arbitrarily partitioned data could be decomposed into
//! horizontally and vertically partitioned data, …, the algorithm for the
//! arbitrarily partitioned data is the combination of algorithms for
//! horizontally and vertically partitioned data." — concretely: the control
//! structure is the vertical protocol's shared lockstep loop (both parties
//! hold a stake in *every* record, so both learn every label, per §3.3),
//! while each distance test uses the ADP decomposition ([`crate::adp`]) that
//! routes split attribute pairs through the Multiplication Protocol.
//!
//! Runs through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::adp::{adp_compare, PairView};
use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::prune::{BandCandidates, BandTable};
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use crate::vertical::lockstep_dbscan;
use ppds_dbscan::Clustering;
use ppds_smc::{Party, ProtocolContext};
use ppds_transport::Channel;

/// The arbitrary-partition protocol as a [`ModeDriver`]. `values` is this
/// party's view: per record, `Some(value)` exactly at the attributes it
/// owns (see [`crate::partition::ArbitraryPartition`]).
pub(crate) struct ArbitraryDriver<'a> {
    pub values: &'a [Vec<Option<i64>>],
}

impl ArbitraryDriver<'_> {
    fn dim(&self) -> usize {
        self.values.first().map_or(1, Vec::len)
    }
}

impl ModeDriver for ArbitraryDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        let dim = self.dim();
        cfg.validate(dim)?;
        for (i, row) in self.values.iter().enumerate() {
            if row.len() != dim {
                return Err(CoreError::config(format!(
                    "record {i} has {} attributes, expected {dim}",
                    row.len()
                )));
            }
            for value in row.iter().flatten() {
                if value.abs() > cfg.coord_bound {
                    return Err(CoreError::config(format!(
                        "record {i} exceeds the agreed coordinate bound {}",
                        cfg.coord_bound
                    )));
                }
            }
        }
        Ok(())
    }

    fn profile(&self) -> HandshakeProfile {
        HandshakeProfile {
            mode: Mode::Arbitrary,
            n: self.values.len(),
            dim: self.dim(),
            dim_must_match: true,
        }
    }

    fn check_session(&self, _cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError> {
        if session.peer_n != self.values.len() {
            return Err(CoreError::HandshakeMismatch {
                field: "record_count",
                ours: self.values.len() as u64,
                theirs: session.peer_n as u64,
            });
        }
        Ok(())
    }

    fn execute<C: Channel>(
        &self,
        chan: &mut C,
        mctx: &ModeContext<'_>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, values) = (mctx.cfg, self.values);
        let backend = mctx.backend(self.dim());
        // With grid pruning, each party publishes coarse bands at the
        // attribute cells it owns (the rest stay sentinel-marked), the
        // tables are merged owner-wise, and both sides derive identical
        // candidate pairs over the merged band table.
        let bands = arbitrary_band_oracle(chan, mctx, values, self.dim(), &mut log.leakage)?;
        let (ledger, sharing) = (&mut log.ledger, &mut log.sharing);
        // One context instance per chunk (see the vertical driver).
        let resolve_ctx = ctx.narrow("resolve");
        let compare_chunk = |chan: &mut C, chunk: u64, pairs: &[(u32, u32)]| {
            let views: Vec<PairView<'_>> = pairs
                .iter()
                .map(|&(x, y)| PairView {
                    x: &values[x as usize],
                    y: &values[y as usize],
                })
                .collect();
            let (role, cctx) = (mctx.role, resolve_ctx.at(chunk));
            Ok(adp_compare(
                chan, cfg, &backend, role, &views, &cctx, ledger, sharing,
            )?)
        };
        lockstep_dbscan(
            chan,
            values.len(),
            cfg.params,
            bands,
            compare_chunk,
            &mut log.leakage,
        )
    }
}

/// Builds the merged-band candidate oracle for a grid-pruned arbitrary
/// session (`None` when the config is exhaustive). Each party quantizes
/// the attribute cells it owns to coarse public bands and marks the rest
/// with the [`crate::prune::BAND_UNOWNED`] sentinel; both tables are
/// exchanged (the received table is validated against the handshake and
/// ledgered as a `pruning_bands` leakage event) and merged owner-wise in
/// the agreed (Alice, Bob) order, so both parties index the identical
/// merged band table. A cell owned by neither party is a typed error,
/// never a silent desync.
fn arbitrary_band_oracle<C: Channel>(
    chan: &mut C,
    mctx: &ModeContext<'_>,
    values: &[Vec<Option<i64>>],
    dim: usize,
    leakage: &mut ppds_smc::LeakageLog,
) -> Result<Option<BandCandidates>, CoreError> {
    let cfg = mctx.cfg;
    let ppds_dbscan::Pruning::Grid { coarseness } = cfg.pruning else {
        return Ok(None);
    };
    let width = ppds_dbscan::band_width(cfg.params.eps_sq, coarseness);
    let mine = BandTable::collect(
        dim,
        values.iter().map(|row| {
            row.iter().map(|cell| match cell {
                Some(v) => v.div_euclid(width),
                None => crate::prune::BAND_UNOWNED,
            })
        }),
    );
    let theirs = crate::prune::exchange_band_tables(
        chan,
        &mine,
        dim,
        true,
        width,
        cfg.coord_bound,
        leakage,
    )?;
    let merged = match mctx.role {
        Party::Alice => BandTable::merge(&mine, &theirs)?,
        Party::Bob => BandTable::merge(&theirs, &mine)?,
    };
    Ok(Some(BandCandidates::new(merged, width)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::partition::{ArbitraryPartition, Owner};
    use crate::session::{run_data_pair, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan, DbscanParams, Point};

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn arbitrary(
        c: &ProtocolConfig,
        part: &ArbitraryPartition,
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let (alice, bob) = (part.alice_values.clone(), part.bob_values.clone());
        let views = (PartyData::Arbitrary(alice), PartyData::Arbitrary(bob));
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    fn records() -> Vec<Point> {
        vec![
            Point::new(vec![0, 0, 1]),
            Point::new(vec![1, 0, 0]),
            Point::new(vec![0, 1, 1]),
            Point::new(vec![8, 8, 8]),
            Point::new(vec![9, 8, 8]),
            Point::new(vec![8, 9, 9]),
            Point::new(vec![-9, 9, 0]),
        ]
    }

    #[test]
    fn random_partitions_match_plaintext() {
        let recs = records();
        let c = cfg(4, 3, 12);
        let reference = dbscan(&recs, c.params);
        let mut r = rng(42);
        for trial in 0..3 {
            let part = ArbitraryPartition::random(&mut r, &recs);
            let (a_out, b_out) = arbitrary(&c, &part, 100 + trial, 200 + trial);
            assert_eq!(a_out.clustering, reference, "trial {trial}: alice");
            assert_eq!(b_out.clustering, reference, "trial {trial}: bob");
        }
    }

    #[test]
    fn vertical_ownership_pattern_reduces_to_vertical_protocol_result() {
        let recs = records();
        let ownership = vec![vec![Owner::Alice, Owner::Bob, Owner::Bob]; recs.len()];
        let part = ArbitraryPartition::from_records(&recs, ownership);
        let c = cfg(4, 3, 12);
        let (a_out, _) = arbitrary(&c, &part, 1, 2);
        assert_eq!(a_out.clustering, dbscan(&recs, c.params));
    }

    #[test]
    fn row_wise_ownership_works_like_horizontal_rows() {
        // Whole records owned by alternating parties — the "horizontal rows
        // inside the arbitrary model" case from Figure 4.
        let recs = records();
        let ownership: Vec<Vec<Owner>> = (0..recs.len())
            .map(|i| vec![if i % 2 == 0 { Owner::Alice } else { Owner::Bob }; 3])
            .collect();
        let part = ArbitraryPartition::from_records(&recs, ownership);
        let c = cfg(4, 3, 12);
        let (a_out, b_out) = arbitrary(&c, &part, 3, 4);
        // Unlike the horizontal protocol, the arbitrary driver runs the
        // joint lockstep loop, so the result matches centralized DBSCAN.
        assert_eq!(a_out.clustering, dbscan(&recs, c.params));
        assert_eq!(b_out.clustering, a_out.clustering);
    }

    #[test]
    fn leakage_is_neighbor_counts_like_vertical() {
        let recs = records();
        let part = ArbitraryPartition::random(&mut rng(5), &recs);
        let c = cfg(4, 3, 12);
        let (a_out, _) = arbitrary(&c, &part, 6, 7);
        assert!(a_out.leakage.count_kind("neighbor_count") > 0);
        assert_eq!(a_out.leakage.count_kind("core_point_bit"), 0);
    }
}
