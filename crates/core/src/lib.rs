#![warn(missing_docs)]

//! **Privacy preserving distributed DBSCAN clustering** — the complete
//! protocol suite of Liu, Xiong, Luo & Huang (EDBT/ICDT Workshops 2012;
//! extended in *Transactions on Data Privacy* 6, 2013).
//!
//! Two semi-honest parties, Alice and Bob, cluster the union of their
//! private data without revealing records to each other. Four protocol
//! families are implemented, one module each:
//!
//! * [`horizontal`] — Algorithms 3 & 4 over *horizontally* partitioned data
//!   (each party owns complete records). Each party runs DBSCAN over its own
//!   points; neighborhood densities are augmented with the peer's matching
//!   count via protocol HDP ([`hdp`]), with the peer's point order freshly
//!   permuted per query so neighborhoods cannot be intersected (the
//!   Figure 1 attack on Kumar et al.).
//! * [`vertical`] — Algorithms 5 & 6 over *vertically* partitioned data
//!   (each party owns an attribute slice of every record). Both parties run
//!   the identical DBSCAN loop in lockstep; each distance test is one
//!   Yao comparison via protocol VDP ([`vdp`]), and both end with the same
//!   clustering of all records.
//! * [`arbitrary`] — §4.4: per-record, per-attribute ownership. Each
//!   distance decomposes into a vertical part (local) and a horizontal part
//!   (Multiplication Protocol), combined in one comparison ([`adp`]).
//! * [`enhanced`] — Section 5 (Algorithms 7 & 8): the horizontal protocol
//!   with the neighbor-count leakage removed. Distances become additive
//!   secret shares via a dot-product Multiplication Protocol; the k-th
//!   smallest shared distance (k = MinPts − |own neighbors|) is selected
//!   with either of the paper's two algorithms and compared to Eps², so the
//!   peer's neighbor count never surfaces — only the core-point bit.
//!
//! Beyond the paper's two-party scope, [`multiparty`] implements the
//! K-party generalization its conclusion sketches as future work (pairwise
//! sessions over a full mesh, K deterministic querier phases), and
//! [`kumar`] implements the *insecure* Kumar et al. \[14\] baseline the paper
//! argues against — with an executable Figure 1 intersection attack that
//! demonstrates exactly why the permutation defense matters.
//!
//! # The session API
//!
//! All five protocol modes run through one typed entry point: the
//! [`session::Participant`] builder. A participant describes one party's
//! side — config, role, private [`session::PartyData`] view, optional
//! keypair, deterministic seed — and [`session::Participant::run`]
//! executes it over any [`ppds_transport::Channel`] (in-memory or TCP),
//! after a versioned [`session::Hello`] handshake that cross-checks every
//! public protocol parameter and rejects disagreements with a typed
//! [`CoreError::HandshakeMismatch`]. The returned
//! [`session::SessionOutcome`] wraps this party's [`driver::PartyOutput`]
//! — the clustering, the exact [`ppds_smc::LeakageLog`] of what the party
//! learned (tested against Theorems 9/10/11), wire-level traffic counters,
//! and a [`config::YaoLedger`] with the modeled faithful-Yao cost — plus
//! the negotiated [`session::SessionMeta`].
//!
//! [`session::run_data_pair`] and [`session::run_mesh_local`] run all
//! parties of a session on threads over in-memory channels.
//!
//! ```
//! use ppdbscan::session::{run_participants, Participant, PartyData};
//! use ppdbscan::ProtocolConfig;
//! use ppds_dbscan::{DbscanParams, Point};
//! use ppds_smc::Party;
//!
//! let cfg = ProtocolConfig::new(DbscanParams { eps_sq: 4, min_pts: 3 }, 10);
//! let alice = Participant::new(cfg)
//!     .role(Party::Alice)
//!     .data(PartyData::Horizontal(vec![
//!         Point::new(vec![0, 0]),
//!         Point::new(vec![1, 1]),
//!     ]))
//!     .seed(1);
//! let bob = Participant::new(cfg)
//!     .role(Party::Bob)
//!     .data(PartyData::Horizontal(vec![
//!         Point::new(vec![0, 1]),
//!         Point::new(vec![9, 9]),
//!     ]))
//!     .seed(2);
//! let (alice_out, _bob_out) = run_participants(alice, bob).unwrap();
//! println!("Alice sees {} clusters", alice_out.output.clustering.num_clusters);
//! ```

pub mod adp;
pub mod arbitrary;
pub(crate) mod backend;
pub mod config;
pub mod domain;
pub mod driver;
pub mod enhanced;
pub mod error;
pub mod hdp;
pub mod horizontal;
pub mod kumar;
pub mod multiparty;
pub mod partition;
pub(crate) mod prune;
pub mod session;
pub mod vdp;
pub mod vertical;

pub use config::ProtocolConfig;
pub use driver::PartyOutput;
pub use error::CoreError;
pub use partition::{ArbitraryPartition, VerticalPartition};
pub use ppds_smc::{ProtocolContext, RecordId};
pub use session::{
    run_data_pair, run_participants, Hello, Mode, Participant, PartyData, SessionMeta,
    SessionOutcome, WIRE_VERSION,
};

#[cfg(test)]
pub(crate) mod test_helpers {
    use ppds_smc::ProtocolContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    pub fn ctx(seed: u64) -> ProtocolContext {
        ProtocolContext::new(seed)
    }
}
