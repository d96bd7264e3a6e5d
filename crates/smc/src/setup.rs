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

/// Peer keys of each kind a process keeps built (DESIGN.md §12): a comb
/// over a 1024-bit DGK key's `h` is 64–80 KiB and one over a 2048-bit key's
/// 128–160 KiB, so the DGK cache holds at most ≈ 0.3 MiB or ≈ 0.6 MiB; a
/// Paillier key's two Montgomery contexts are a few KiB.
const PEER_KEYS: usize = 4;

/// The peer DGK keys this process has accepted, most recently received
/// last: a key that comes back — the server's hot keypair, a client's
/// next session — reuses its context and comb instead of validating and
/// building them again.
static PEER_DGK_CACHE: KeyCache<DgkParts, Arc<DgkPublicKey>> = KeyCache::new(PEER_KEYS);

/// The peer Paillier moduli this process has accepted, by modulus: a
/// modulus that comes back reuses its `n²` and `n` Montgomery contexts.
static PEER_PAILLIER_CACHE: KeyCache<BigUint, PublicKey> = KeyCache::new(PEER_KEYS);

/// Built public keys by their wire parts `P`, at most `cap` of them; a new
/// one drops the least recently received.
struct KeyCache<P, K> {
    cap: usize,
    keys: Mutex<VecDeque<(P, K)>>,
}

impl<P: PartialEq + Clone, K: Clone> KeyCache<P, K> {
    const fn new(cap: usize) -> Self {
        KeyCache {
            cap,
            keys: Mutex::new(VecDeque::new()),
        }
    }

    /// The key for `parts`: the one built before when these exact parts
    /// were accepted, or a new one that `build` validates and builds
    /// (outside the lock) and the cache keeps. Parts it refuses are never
    /// kept.
    fn get_or_build(
        &self,
        parts: P,
        build: impl FnOnce(P) -> Result<K, PaillierError>,
    ) -> Result<K, PaillierError> {
        if let Some(key) = self.get(&parts) {
            return Ok(key);
        }
        let key = build(parts.clone())?;
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
    fn get(&self, parts: &P) -> Option<K> {
        let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
        let at = keys.iter().position(|(kept, _)| kept == parts)?;
        let entry = keys.remove(at)?;
        let key = entry.1.clone();
        keys.push_back(entry);
        Some(key)
    }
}

/// Builds a peer's DGK key from its wire parts ([`DgkPublicKey::from_parts`]
/// checks them).
fn build_dgk(((n, g, h), (u, t)): DgkParts) -> Result<Arc<DgkPublicKey>, PaillierError> {
    DgkPublicKey::from_parts(n, g, h, u, t).map(Arc::new)
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
/// key when the frame holds one. [`PublicKey::from_modulus`] refuses an
/// even or too-small modulus and [`DgkPublicKey::from_parts`] checks the
/// DGK parts, unless these exact parts were accepted and built before and
/// are still in the process's caches of peer keys.
pub fn recv_public_key<C: Channel>(chan: &mut C) -> Result<PublicKey, SmcError> {
    let frame: KeyFrame = chan.recv()?;
    let public = PEER_PAILLIER_CACHE.get_or_build(frame.n, PublicKey::from_modulus)?;
    Ok(match frame.dgk {
        Some(parts) => public.with_dgk(PEER_DGK_CACHE.get_or_build(parts, build_dgk)?),
        None => public,
    })
}

/// The symmetric exchange: sends our public key (with our DGK key when
/// `dgk`), then receives and validates the peer's. Both sides send before
/// either reads, so the exchange costs one flight whoever runs it first.
pub fn exchange_keys<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    dgk: bool,
) -> Result<PublicKey, SmcError> {
    send_public_key(chan, keypair, dgk)?;
    recv_public_key(chan)
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
            let peer = exchange_keys(&mut b_chan, bob_keypair(), false).unwrap();
            (peer, b_chan)
        });
        let alice_view_of_bob = exchange_keys(&mut a_chan, alice_keypair(), false).unwrap();
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
            let peer = exchange_keys(&mut b_chan, bob_keypair(), true).unwrap();
            (peer, b_chan.metrics())
        });
        let alice_view_of_bob = exchange_keys(&mut a_chan, alice_keypair(), false).unwrap();
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
            assert!(PEER_DGK_CACHE
                .get_or_build(forged.clone(), build_dgk)
                .is_err());
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
        let built = |i: usize| cache.get_or_build(parts[i].clone(), build_dgk).unwrap();
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

    /// The Paillier half of the same cache: two receipts of one modulus
    /// share one build of its `n²` and `n` contexts; a key of its own is
    /// built for another modulus; a refused modulus — even, or below the
    /// minimum size — is refused before anything is built and never kept.
    #[test]
    fn a_peer_paillier_key_is_built_once_and_shared() {
        let received = |kp: &Keypair| {
            let (mut a_chan, mut b_chan) = duplex();
            send_public_key(&mut a_chan, kp, false).unwrap();
            recv_public_key(&mut b_chan).unwrap()
        };
        let n = alice_keypair().public.n().clone();
        let mut builds = 0;
        let mut build = |n| {
            builds += 1;
            PublicKey::from_modulus(n)
        };
        let (first, again) = (received(alice_keypair()), received(alice_keypair()));
        assert_eq!((first.n(), again.n()), (&n, &n));
        assert!(PEER_PAILLIER_CACHE.get(&n).is_some(), "kept once accepted");
        let cached = PEER_PAILLIER_CACHE
            .get_or_build(n.clone(), &mut build)
            .unwrap();
        assert_eq!((cached.n(), builds), (&n, 0), "a hit builds nothing");
        let other = received(bob_keypair());
        assert_eq!(other.n(), bob_keypair().public.n());
        let mut r = rng(3);
        let c = first.encrypt(&BigUint::from_u64(77), &mut r).unwrap();
        let plain = alice_keypair().private.decrypt(&c).unwrap();
        assert_eq!(plain, BigUint::from_u64(77), "the cached key encrypts");
        let even = BigUint::from_bytes_be(&[[0xff; 31].as_slice(), &[0xfe]].concat());
        let tiny = BigUint::from_u64(15);
        for refused in [even, tiny] {
            for _ in 0..2 {
                let got =
                    PEER_PAILLIER_CACHE.get_or_build(refused.clone(), PublicKey::from_modulus);
                assert!(got.is_err());
                assert!(PEER_PAILLIER_CACHE.get(&refused).is_none());
            }
        }
    }

    /// The cap holds for the Paillier kind as for the DGK one: a cache of
    /// two keeps the two most recently received moduli.
    #[test]
    fn the_paillier_key_cache_holds_its_cap() {
        let cache = KeyCache::new(2);
        let moduli =
            [alice_keypair(), bob_keypair(), keypair_1024()].map(|kp| kp.public.n().clone());
        let mut builds = 0;
        let mut built = |i: usize| {
            let build = |n| {
                builds += 1;
                PublicKey::from_modulus(n)
            };
            cache.get_or_build(moduli[i].clone(), build).unwrap()
        };
        built(0);
        built(1);
        built(0);
        built(2);
        assert_eq!(cache.keys.lock().unwrap().len(), 2);
        assert!(cache.get(&moduli[1]).is_none(), "the least recent went");
        assert!(cache.get(&moduli[0]).is_some() && cache.get(&moduli[2]).is_some());
        built(1);
        assert_eq!(builds, 4, "three first builds and one rebuild");
    }

    #[test]
    fn garbage_modulus_rejected() {
        let (mut a_chan, mut b_chan) = duplex();
        a_chan.send(&BigUint::from_u64(4)).unwrap(); // even, tiny
        assert!(recv_public_key(&mut b_chan).is_err());
    }
}
