//! Protocol VDP (§4.3): secure `dist²(d_x, d_y) ≤ Eps²` for vertically
//! partitioned records.
//!
//! Each party computes its local squared-delta sum over the attributes it
//! owns — Alice `α = Σ_{k ≤ l} (d_{x,k} − d_{y,k})²`, Bob
//! `β = Σ_{k > l} (d_{x,k} − d_{y,k})²` — and a single Yao comparison
//! decides `α ≤ Eps² − β`. No homomorphic encryption is needed at all;
//! the whole cost is the comparison (the paper's `O(c2·n0·n²)` bound).
//!
//! The comparison itself runs through the session's [`SmcBackend`], so a
//! sharing-backend session replaces the garbled-circuit stand-in with a
//! shared-bit `share_less_than` over `Z_2^64` without touching this module's
//! dataflow, and a session's framing — a whole candidate set per wire frame,
//! or the paper's one comparison per round trip — is the backend's too.

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::vdp_domain;
use ppds_smc::compare::CmpOp;
use ppds_smc::{Party, ProtocolContext, SharingLedger, SmcBackend, SmcError};
use ppds_transport::Channel;

/// Local squared-delta sum between two attribute slices (each party calls
/// this on its own slice of records `x` and `y`).
pub fn local_delta_sq(x: &ppds_dbscan::Point, y: &ppds_dbscan::Point) -> u64 {
    ppds_dbscan::dist_sq(x, y)
}

/// One party's side of a slice of VDP comparisons: one `dist² ≤ Eps²`
/// decision per entry of `locals`, this party's local squared-delta sums
/// for a whole candidate set (Alice's `α`, Bob's `β`; both sides pass the
/// same candidates in the same order). `total_dim` is the full record
/// dimension `m` (needed to agree on the comparison domain); `ctx` is the
/// step's context, and entry `i` draws from `ctx.at(i)` — its position in
/// the slice. How the slice is framed — one wire frame per protocol message
/// or one round trip per entry — is the backend's business; outcomes,
/// ledgers and bytes are the same either way.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn vdp_compare<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    role: Party,
    locals: &[u64],
    total_dim: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    let domain = vdp_domain(cfg, total_dim);
    ledger.record_many(cfg.key_bits, domain.n0(), locals.len() as u64);
    let eps = cfg.params.eps_sq as i64;
    let values: Vec<i64> = locals
        .iter()
        .map(|&local| {
            let local = i64::try_from(local).expect("α, β fit i64 on a validated lattice");
            match role {
                Party::Alice => local,
                Party::Bob => eps - local,
            }
        })
        .collect();
    backend.compare_batch(chan, role, &values, CmpOp::Leq, &domain, ctx, acct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams, Point};
    use ppds_paillier::Keypair;
    use ppds_smc::compare::Comparator;
    use ppds_smc::{AnyBackend, DealerTape, SharingBackend};
    use ppds_transport::{duplex, MetricsSnapshot};
    use std::sync::OnceLock;

    fn alice_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(33)))
    }

    fn bob_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(34)))
    }

    /// What Alice takes away from one slice of comparisons.
    struct Decided {
        within: Vec<bool>,
        ledger: YaoLedger,
        sharing: SharingLedger,
        traffic: MetricsSnapshot,
    }

    fn run(
        cfg: ProtocolConfig,
        (sharing, batching): (bool, bool),
        alphas: &[u64],
        betas: &[u64],
        dim: usize,
    ) -> Decided {
        let cfg = cfg.with_batching(batching);
        let backend_for = |mine: &'static Keypair, theirs: &'static Keypair| {
            if sharing {
                AnyBackend::Sharing(SharingBackend {
                    tape: DealerTape::from_seed(77),
                    batching,
                    dot_mask_bound: 1 << 20,
                })
            } else {
                AnyBackend::Paillier(paillier_backend(&cfg, mine, &theirs.public, dim))
            }
        };
        let (mut achan, mut bchan) = duplex();
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let backend = backend_for(alice_kp(), bob_kp());
                let (mut ledger, mut sharing) = Default::default();
                let role = Party::Alice;
                let within = vdp_compare(
                    &mut achan,
                    &cfg,
                    &backend,
                    role,
                    alphas,
                    dim,
                    &ctx(3),
                    &mut ledger,
                    &mut sharing,
                )
                .unwrap();
                Decided {
                    within,
                    ledger,
                    sharing,
                    traffic: achan.metrics(),
                }
            });
            let backend = backend_for(bob_kp(), alice_kp());
            let (mut ledger, mut acct) = Default::default();
            let role = Party::Bob;
            let bob = vdp_compare(
                &mut bchan,
                &cfg,
                &backend,
                role,
                betas,
                dim,
                &ctx(4),
                &mut ledger,
                &mut acct,
            )
            .unwrap();
            let alice = a.join().unwrap();
            assert_eq!(alice.within, bob);
            assert_eq!(alice.ledger, ledger);
            alice
        })
    }

    fn cfg(eps_sq: u64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 2 }, 3)
    }

    const ALPHAS: [u64; 7] = [0, 5, 5, 10, 0, 11, 3];
    const BETAS: [u64; 7] = [0, 5, 6, 0, 10, 0, 4];

    #[test]
    fn decides_exactly_alpha_plus_beta_vs_eps_on_both_substrates() {
        let expect: Vec<bool> = ALPHAS
            .iter()
            .zip(&BETAS)
            .map(|(&a, &b)| a + b <= 10)
            .collect();
        for sharing in [false, true] {
            for batching in [false, true] {
                let out = run(cfg(10), (sharing, batching), &ALPHAS, &BETAS, 2);
                assert_eq!(out.within, expect, "sharing={sharing} batching={batching}");
                assert_eq!(out.ledger.comparisons, 7);
                assert_eq!(out.sharing.compares, if sharing { 7 } else { 0 });
                // One Ideal (or masked-open) exchange for all 7, or one each.
                let exchange = if sharing { 2 } else { 3 };
                let frames = if batching { 1 } else { 7 };
                assert_eq!(out.traffic.total_rounds(), exchange * frames);
            }
        }
    }

    #[test]
    fn split_records_match_full_distance() {
        let cfg = ProtocolConfig::new_with_yao(
            DbscanParams {
                eps_sq: 9,
                min_pts: 2,
            },
            3,
        );
        let full_x = Point::new(vec![1, -2, 3, 0]);
        let full_y = Point::new(vec![0, -2, 1, 2]);
        // Vertical split at attribute 2.
        let alpha = local_delta_sq(
            &Point::new(full_x.coords()[..2].to_vec()),
            &Point::new(full_y.coords()[..2].to_vec()),
        );
        let beta = local_delta_sq(
            &Point::new(full_x.coords()[2..].to_vec()),
            &Point::new(full_y.coords()[2..].to_vec()),
        );
        let expect = dist_sq(&full_x, &full_y) <= 9;
        assert_eq!(
            run(cfg, (false, false), &[alpha], &[beta], 4).within,
            [expect]
        );
        assert!(matches!(cfg.comparator, Comparator::Yao));
    }
}
