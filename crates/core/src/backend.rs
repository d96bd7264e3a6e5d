//! Session-level construction of the pluggable SMC backend.
//!
//! Every driver obtains its [`AnyBackend`] here from the negotiated
//! [`Session`] and the public [`ProtocolConfig`]: the Paillier variant
//! borrows the session keys and carries the dimension-dependent packing
//! layouts and mask bounds the homomorphic path used before the trait
//! existed (so transcripts stay byte-identical), the sharing variant
//! carries the handshake-agreed [`DealerTape`](ppds_smc::DealerTape) and
//! the same dot mask bound clamped to the ring-safe range. See
//! DESIGN.md §14.

use crate::config::ProtocolConfig;
use crate::session::{ModeContext, Session};
use ppds_bigint::BigUint;
use ppds_paillier::{Keypair, PublicKey};
use ppds_smc::backend::clamp_sharing_bound;
use ppds_smc::{AnyBackend, BackendKind, DealerTape, PaillierBackend, SharingBackend};

/// The homomorphic backend exactly as the drivers configured the direct
/// Paillier calls: comparator, packing flags, and mask bounds all derived
/// from the public config and the data dimension.
pub(crate) fn paillier_backend<'a>(
    cfg: &ProtocolConfig,
    my_keypair: &'a Keypair,
    peer_pk: &'a PublicKey,
    dim: usize,
) -> PaillierBackend<'a> {
    PaillierBackend {
        my_keypair,
        peer_pk,
        comparator: cfg.comparator,
        packed: cfg.packing,
        batching: cfg.batching,
        mul_packing: crate::domain::mul_response_packing(cfg, dim).filter(|_| cfg.packing),
        dot_packing: crate::domain::dot_response_packing(cfg, dim).filter(|_| cfg.packing),
        mul_mask_bound: cfg.mul_mask_bound(),
        dot_mask_bound: BigUint::from_u64(cfg.enhanced_mask_bound(dim)),
    }
}

/// The secret-sharing backend for a session that negotiated `tape`.
pub(crate) fn sharing_backend(
    cfg: &ProtocolConfig,
    tape: DealerTape,
    dim: usize,
) -> SharingBackend {
    SharingBackend {
        tape,
        batching: cfg.batching,
        dot_mask_bound: clamp_sharing_bound(&BigUint::from_u64(cfg.enhanced_mask_bound(dim))),
    }
}

/// The concrete backend a session runs its SMC workhorses on, for data of
/// dimension `dim`.
pub(crate) fn backend_for<'a>(
    cfg: &ProtocolConfig,
    session: &'a Session,
    dim: usize,
) -> AnyBackend<'a> {
    match cfg.backend {
        BackendKind::Paillier => AnyBackend::Paillier(paillier_backend(
            cfg,
            &session.my_keypair,
            &session.peer_pk,
            dim,
        )),
        BackendKind::Sharing => AnyBackend::Sharing(sharing_backend(
            cfg,
            session.tape.expect("sharing sessions negotiate a tape"),
            dim,
        )),
    }
}

impl ModeContext<'_> {
    /// This session's SMC backend for data of dimension `dim`.
    pub(crate) fn backend(&self, dim: usize) -> AnyBackend<'_> {
        backend_for(self.cfg, self.session, dim)
    }
}
