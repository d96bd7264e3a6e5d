//! Per-party outputs and the in-process pair conductor.
//!
//! The protocol entry point is the [`crate::session`] module: a
//! [`crate::session::Participant`] runs any mode over any
//! [`ppds_transport::Channel`] (see `examples/hospitals_horizontal.rs` for
//! a genuine two-process TCP deployment); [`run_pair`] executes two halves
//! on two threads over an in-memory channel pair.

use crate::config::YaoLedger;
use crate::error::CoreError;
use ppds_dbscan::Clustering;
use ppds_smc::{LeakageLog, SharingLedger};
use ppds_transport::{duplex, MemoryChannel, MetricsSnapshot};

/// Everything one party takes away from a protocol run.
#[derive(Debug)]
pub struct PartyOutput {
    /// The clustering this party learned (its own points for horizontal
    /// protocols; all records for vertical/arbitrary).
    pub clustering: Clustering,
    /// Exactly what this party learned beyond its prescribed output.
    pub leakage: LeakageLog,
    /// Actual bytes/messages this endpoint moved.
    pub traffic: MetricsSnapshot,
    /// Modeled cost of the faithful Yao protocol for every comparison run.
    pub yao: YaoLedger,
    /// Sharing-backend substitution accounting (all zero under Paillier):
    /// exact counts of masked-open comparisons, Beaver triples consumed,
    /// opened field elements, and modeled offline-phase bytes.
    pub sharing: SharingLedger,
}

/// Runs the two halves of a protocol on two scoped threads over an
/// in-memory duplex pair.
pub fn run_pair<A, B, RA, RB>(alice_half: A, bob_half: B) -> Result<(RA, RB), CoreError>
where
    A: FnOnce(MemoryChannel) -> Result<RA, CoreError> + Send,
    B: FnOnce(MemoryChannel) -> Result<RB, CoreError> + Send,
    RA: Send,
    RB: Send,
{
    let (alice_chan, bob_chan) = duplex();
    let (alice_result, bob_result) = std::thread::scope(|scope| {
        let alice = scope.spawn(move || alice_half(alice_chan));
        let bob = scope.spawn(move || bob_half(bob_chan));
        (
            alice.join().map_err(|_| CoreError::PartyPanicked("alice")),
            bob.join().map_err(|_| CoreError::PartyPanicked("bob")),
        )
    });
    Ok((alice_result??, bob_result??))
}
