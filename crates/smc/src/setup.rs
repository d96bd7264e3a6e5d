//! Session setup: public key exchange.
//!
//! Both DBSCAN protocols need both parties to hold keypairs (the
//! Multiplication Protocol's key holder varies by query direction, and
//! Yao's protocol always decrypts under the querying side's key), so a
//! session starts with a symmetric exchange of Paillier moduli. A party
//! whose session runs DGK comparisons appends the DGK public key its
//! keypair carries to the same frame ([`KeyFrame`]), so the comparison keys
//! cost no frame of their own.

use crate::error::SmcError;
use ppds_bigint::BigUint;
use ppds_paillier::{DgkParts, DgkPublicKey, Keypair, PaillierError, PublicKey};
use ppds_transport::wire::{Reader, WireDecode, WireEncode};
use ppds_transport::{Channel, TransportError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Peer DGK keys a process keeps built (DESIGN.md §12): a comb over a
/// 1024-bit key's `h` is 64–80 KiB and one over a 2048-bit key's 128–160
/// KiB, so the cache holds at most ≈ 0.3 MiB or ≈ 0.6 MiB.
const PEER_DGK_KEYS: usize = 4;

/// The peer DGK keys this process has accepted, most recently received
/// last: a key that comes back — the server's hot keypair, a client's
/// next session — reuses its context and comb instead of validating and
/// building them again.
static PEER_DGK_CACHE: KeyCache = KeyCache::new(PEER_DGK_KEYS);

/// Built DGK public keys by their full wire parts, at most `cap` of them;
/// a new one drops the least recently received.
struct KeyCache {
    cap: usize,
    keys: Mutex<VecDeque<(DgkParts, Arc<DgkPublicKey>)>>,
}

impl KeyCache {
    const fn new(cap: usize) -> KeyCache {
        KeyCache {
            cap,
            keys: Mutex::new(VecDeque::new()),
        }
    }

    /// The key for `parts`: the one built before when these exact parts
    /// were accepted, or a new one that [`DgkPublicKey::from_parts`]
    /// validates and builds (outside the lock) and the cache keeps. Parts
    /// it refuses are never kept.
    fn get_or_build(&self, parts: DgkParts) -> Result<Arc<DgkPublicKey>, PaillierError> {
        if let Some(key) = self.get(&parts) {
            return Ok(key);
        }
        let ((n, g, h), (u, t)) = parts.clone();
        let key = Arc::new(DgkPublicKey::from_parts(n, g, h, u, t)?);
        // Another session may have built the same key meanwhile.
        if let Some(key) = self.get(&parts) {
            return Ok(key);
        }
        let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
        if keys.len() == self.cap {
            keys.pop_front();
        }
        keys.push_back((parts, key.clone()));
        Ok(key)
    }

    /// The key kept for `parts`, now the most recently received.
    fn get(&self, parts: &DgkParts) -> Option<Arc<DgkPublicKey>> {
        let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
        let at = keys.iter().position(|(kept, _)| kept == parts)?;
        let entry = keys.remove(at)?;
        let key = entry.1.clone();
        keys.push_back(entry);
        Some(key)
    }
}

/// The key-exchange frame: the sender's Paillier modulus `n` (`g = n + 1`
/// is the fixed convention), then, when its session runs DGK comparisons,
/// its DGK public key as `((n, g, h), (u, t))`. A frame that ends after the
/// modulus carries no DGK key.
pub struct KeyFrame {
    /// The Paillier modulus.
    pub n: BigUint,
    /// The DGK public key's wire parts, if sent.
    pub dgk: Option<DgkParts>,
}

impl WireEncode for KeyFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        if let Some(dgk) = &self.dgk {
            dgk.encode(out);
        }
    }
}

impl WireDecode for KeyFrame {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let n = BigUint::decode(reader)?;
        let dgk = match reader.is_empty() {
            true => None,
            false => Some(WireDecode::decode(reader)?),
        };
        Ok(KeyFrame { n, dgk })
    }
}

/// Sends our public key, with our DGK key when `dgk`.
pub fn send_public_key<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    dgk: bool,
) -> Result<(), SmcError> {
    let frame = KeyFrame {
        n: keypair.public.n().clone(),
        dgk: keypair
            .public
            .dgk()
            .filter(|_| dgk)
            .map(DgkPublicKey::to_parts),
    };
    chan.send(&frame)?;
    Ok(())
}

/// Receives and validates the peer's public key, carrying the peer's DGK
/// key when the frame holds one ([`DgkPublicKey::from_parts`] checks it,
/// unless these exact parts were accepted and built before and are still
/// in the process's cache of peer keys).
pub fn recv_public_key<C: Channel>(chan: &mut C) -> Result<PublicKey, SmcError> {
    let frame: KeyFrame = chan.recv()?;
    let public = PublicKey::from_modulus(frame.n)?;
    Ok(match frame.dgk {
        Some(parts) => public.with_dgk(PEER_DGK_CACHE.get_or_build(parts)?),
        None => public,
    })
}

/// Symmetric exchange: Alice sends first, then receives; Bob mirrors.
/// Returns the peer's public key. `dgk` says whether this side's session
/// runs DGK comparisons, and so sends its DGK key.
pub fn exchange_keys_alice<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    dgk: bool,
) -> Result<PublicKey, SmcError> {
    send_public_key(chan, keypair, dgk)?;
    recv_public_key(chan)
}

/// Bob's half of [`exchange_keys_alice`].
pub fn exchange_keys_bob<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    dgk: bool,
) -> Result<PublicKey, SmcError> {
    let peer = recv_public_key(chan)?;
    send_public_key(chan, keypair, dgk)?;
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{alice_keypair, bob_keypair, keypair_1024, rng};
    use ppds_bigint::BigUint;
    use ppds_transport::duplex;

    #[test]
    fn key_exchange_roundtrip() {
        let (mut a_chan, mut b_chan) = duplex();
        let bob = std::thread::spawn(move || {
            let peer = exchange_keys_bob(&mut b_chan, bob_keypair(), false).unwrap();
            (peer, b_chan)
        });
        let alice_view_of_bob = exchange_keys_alice(&mut a_chan, alice_keypair(), false).unwrap();
        let (bob_view_of_alice, _chan) = bob.join().unwrap();
        assert_eq!(alice_view_of_bob.n(), bob_keypair().public.n());
        assert_eq!(bob_view_of_alice.n(), alice_keypair().public.n());
    }

    #[test]
    fn received_key_can_encrypt_for_peer() {
        let (mut a_chan, mut b_chan) = duplex();
        send_public_key(&mut a_chan, alice_keypair(), false).unwrap();
        let alice_pk = recv_public_key(&mut b_chan).unwrap();
        let mut r = rng(1);
        let c = alice_pk.encrypt(&BigUint::from_u64(321), &mut r).unwrap();
        assert_eq!(
            alice_keypair().private.decrypt(&c).unwrap(),
            BigUint::from_u64(321)
        );
    }

    #[test]
    fn dgk_keys_ride_the_key_frame_and_a_bad_one_is_refused() {
        let (mut a_chan, mut b_chan) = duplex();
        let bob = std::thread::spawn(move || {
            let peer = exchange_keys_bob(&mut b_chan, bob_keypair(), true).unwrap();
            (peer, b_chan.metrics())
        });
        let alice_view_of_bob = exchange_keys_alice(&mut a_chan, alice_keypair(), false).unwrap();
        let (bob_view_of_alice, bob_traffic) = bob.join().unwrap();
        let parts = |kp: &Keypair| kp.public.dgk().unwrap().to_parts();
        assert_eq!(
            alice_view_of_bob.dgk().unwrap().to_parts(),
            parts(bob_keypair())
        );
        assert!(bob_view_of_alice.dgk().is_none());
        assert_eq!(bob_traffic.total_rounds(), 2, "one frame each way");

        // A composite plaintext "prime" is refused with a typed error.
        let (mut a_chan, mut b_chan) = duplex();
        let ((n, g, h), (_, t)) = parts(alice_keypair());
        let forged = KeyFrame {
            n: alice_keypair().public.n().clone(),
            dgk: Some(((n, g, h), (65, t))),
        };
        a_chan.send(&forged).unwrap();
        assert!(matches!(
            recv_public_key(&mut b_chan),
            Err(SmcError::Crypto(_))
        ));
    }

    /// The DGK key a frame carries, as its receiver builds it.
    fn received_dgk(keypair: &Keypair) -> PublicKey {
        let (mut a_chan, mut b_chan) = duplex();
        send_public_key(&mut a_chan, keypair, true).unwrap();
        recv_public_key(&mut b_chan).unwrap()
    }

    /// Two receipts of one key share one built key (one comb); another
    /// key gets its own; a refused key is never kept, so its next receipt
    /// is refused again.
    #[test]
    fn a_peer_dgk_key_is_built_once_and_shared() {
        let (first, again) = (received_dgk(alice_keypair()), received_dgk(alice_keypair()));
        let (first, again) = (first.dgk().unwrap(), again.dgk().unwrap());
        assert!(std::ptr::eq(first, again), "one key, one comb");
        assert_eq!(
            first.to_parts(),
            alice_keypair().public.dgk().unwrap().to_parts()
        );
        let other = received_dgk(bob_keypair());
        assert!(!std::ptr::eq(first, other.dgk().unwrap()));
        assert_eq!(
            other.dgk().unwrap().to_parts(),
            bob_keypair().public.dgk().unwrap().to_parts()
        );
        let ((n, g, h), (_, t)) = alice_keypair().public.dgk().unwrap().to_parts();
        let forged = ((n, g, h), (65, t));
        for _ in 0..2 {
            assert!(PEER_DGK_CACHE.get_or_build(forged.clone()).is_err());
            assert!(PEER_DGK_CACHE.get(&forged).is_none());
        }
    }

    /// A cache of two keeps the two most recently received keys: a third
    /// drops the least recent, which is built anew when it comes back,
    /// and a hit makes its key the most recent.
    #[test]
    fn the_key_cache_holds_its_cap() {
        let cache = KeyCache::new(2);
        let parts = [alice_keypair(), bob_keypair(), keypair_1024()]
            .map(|kp| kp.public.dgk().unwrap().to_parts());
        let built = |i: usize| cache.get_or_build(parts[i].clone()).unwrap();
        let (a, b) = (built(0), built(1));
        assert!(Arc::ptr_eq(&a, &built(0)), "a hit, now the most recent");
        let c = built(2);
        assert_eq!(cache.keys.lock().unwrap().len(), 2);
        assert!(cache.get(&parts[1]).is_none(), "the least recent went");
        assert!(Arc::ptr_eq(&a, &built(0)) && Arc::ptr_eq(&c, &built(2)));
        let b_again = built(1);
        assert!(!Arc::ptr_eq(&b, &b_again), "built anew");
        assert_eq!(b.to_parts(), b_again.to_parts());
        assert_eq!(cache.keys.lock().unwrap().len(), 2);
    }

    #[test]
    fn garbage_modulus_rejected() {
        let (mut a_chan, mut b_chan) = duplex();
        a_chan.send(&BigUint::from_u64(4)).unwrap(); // even, tiny
        assert!(recv_public_key(&mut b_chan).is_err());
    }
}
