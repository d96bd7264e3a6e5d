#![warn(missing_docs)]

//! Secure two-party computation primitives from Liu et al., *Privacy
//! Preserving Distributed DBSCAN Clustering*.
//!
//! The paper composes its DBSCAN protocols (crate `ppdbscan`) out of three
//! reusable primitives, all implemented here against the
//! [`ppds_transport::Channel`] abstraction:
//!
//! * [`multiplication`] — the **Multiplication Protocol** (Algorithm 2,
//!   §4.1): the key-holding party inputs `x`, the peer inputs `y` and a
//!   random mask `v`; the key holder learns `x·y + v` and nothing else.
//!   A batched dot-product variant serves the enhanced protocol's
//!   `Dist² = ⟨(ΣA², -2A₁, …, -2Aₘ, 1), (1, B₁, …, Bₘ, ΣB²)⟩` form (§5).
//! * [`millionaires`] — **Yao's Millionaires' Problem Protocol**
//!   (Algorithm 1, §3.8) over a bounded domain `[1, n0]`, instantiated with
//!   Paillier as the public-key scheme, including the random-prime retry
//!   loop ("all z_u differ by at least 2 mod p").
//! * [`compare`] — secure comparison built on YMPP, with domain shifting for
//!   signed operands, `<`/`≤` semantics, share-vs-share comparison, and
//!   three interchangeable backends: the faithful
//!   [`compare::Comparator::Yao`], the transcript-cost-equivalent
//!   [`compare::Comparator::Ideal`] (substitution documented in DESIGN.md
//!   §3), and the `O(log n0)` bitwise [`compare::Comparator::Dgk`]
//!   ([`bitwise`]) that lifts Algorithm 1's linear-domain bottleneck.
//! * [`kth`] — secure selection of the k-th smallest secret-shared distance
//!   (§5), by the O(kn) repeated-minimum scan and by expected-O(n)
//!   quickselect — the paper's two proposed algorithms.
//!
//! Every protocol is written as two symmetric halves (`*_keyholder` for the
//! party holding the decryption key, `*_peer` for the other) exchanging
//! typed messages over a [`ppds_transport::Channel`].
//! [`leakage::LeakageLog`] captures each value a protocol deliberately
//! reveals, so callers can assert an execution leaked exactly what the
//! paper's theorems permit.
//!
//! Randomness is supplied through [`context::ProtocolContext`]: every
//! entry point takes a record-scoped context and derives keyed substreams
//! (session seed → step → instance → record) instead of threading one
//! sequential generator, so draws are independent of execution order —
//! batched and unbatched framings produce byte-identical transcripts.

pub mod backend;
pub mod bitwise;
pub mod compare;
pub mod context;
pub mod error;
pub mod kth;
pub mod leakage;
pub mod millionaires;
pub mod multiplication;
pub mod setup;
pub mod sharing;

pub use backend::{AnyBackend, BackendKind, PaillierBackend, SharingBackend, SmcBackend};
pub use context::{ProtocolContext, RecordId};
pub use error::SmcError;
pub use leakage::{LeakageEvent, LeakageLog, Party};
pub use multiplication::ResponsePacking;
pub use sharing::{DealerTape, SharingLedger, SHARING_DISCIPLINE};

#[cfg(test)]
pub(crate) mod test_helpers {
    use crate::context::ProtocolContext;
    use ppds_paillier::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    pub fn ctx(seed: u64) -> ProtocolContext {
        ProtocolContext::new(seed)
    }

    pub fn alice_keypair() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(0xA11CE)))
    }

    /// A Paillier backend whose both roles use Alice's test key, no packing.
    pub fn paillier_backend(
        comparator: crate::compare::Comparator,
        batching: bool,
    ) -> crate::backend::PaillierBackend<'static> {
        let mask_bound = ppds_bigint::BigUint::from_u64(1 << 20);
        crate::backend::PaillierBackend {
            my_keypair: alice_keypair(),
            peer_pk: &alice_keypair().public,
            comparator,
            packed: false,
            batching,
            mul_packing: None,
            dot_packing: None,
            mul_mask_bound: mask_bound.clone(),
            dot_mask_bound: mask_bound,
        }
    }

    pub fn bob_keypair() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(0xB0B)))
    }
}
