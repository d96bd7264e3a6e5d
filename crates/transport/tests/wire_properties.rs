//! Property tests for the framing invariant: every encodable value must
//! round-trip through the wire codec exactly, a batch frame is its items
//! back to back (so a message is a batch of one), a hostile frame is a typed
//! error, and the two transports must charge byte-identical traffic for the
//! same message sequence.

use ppds_bigint::{BigInt, BigUint, Sign};
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{
    duplex, Channel, MetricsSnapshot, Reader, TransportError, WireDecode, WireEncode,
};
use proptest::prelude::*;
use std::net::TcpListener;

fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: &T) -> bool {
    let bytes = value.encode_to_vec();
    match T::decode_exact(&bytes) {
        Ok(back) => back == *value,
        Err(_) => false,
    }
}

/// Ships `items` as one batch frame over an in-memory pair and returns
/// what the far side decodes, with both endpoints' counters.
fn ship_batch<T: WireEncode + WireDecode>(
    items: &[T],
) -> (Vec<T>, MetricsSnapshot, MetricsSnapshot) {
    let (mut a, mut b) = duplex();
    a.send_batch(items).unwrap();
    let got = b.recv_batch().unwrap();
    (got, a.metrics(), b.metrics())
}

fn biguints(groups: &[Vec<Vec<u8>>]) -> Vec<Vec<BigUint>> {
    let group = |g: &Vec<Vec<u8>>| g.iter().map(|b| BigUint::from_bytes_le(b)).collect();
    groups.iter().map(group).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn count_free_batches_roundtrip(
        words in proptest::collection::vec(any::<u64>(), 0..20),
        pairs in proptest::collection::vec((any::<bool>(), any::<i64>()), 0..20),
        groups in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..5),
            0..6,
        ),
    ) {
        let (got, sent, received) = ship_batch(&words);
        prop_assert_eq!(&got, &words);
        // The items and the frame header, nothing else; an empty batch is
        // still one frame and one logical message.
        prop_assert_eq!(sent.bytes_sent, 8 * words.len() as u64 + 4);
        prop_assert_eq!(sent.messages_sent, words.len().max(1) as u64);
        prop_assert_eq!((sent.rounds_sent, received.rounds_received), (1, 1));
        prop_assert_eq!(received.messages_received, sent.messages_sent);
        prop_assert_eq!(ship_batch(&pairs).0, pairs);
        // Nested, self-delimiting items: groups of length-prefixed integers.
        let groups = biguints(&groups);
        prop_assert_eq!(ship_batch(&groups).0, groups);
    }

    #[test]
    fn a_message_is_a_batch_of_one(
        word in any::<u64>(),
        group in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..5),
        flag in any::<bool>(),
    ) {
        fn same_on_the_wire<T: WireEncode + WireDecode + Clone + PartialEq + std::fmt::Debug>(
            item: T,
        ) -> bool {
            let (mut plain_a, mut plain_b) = duplex();
            plain_a.send(&item).unwrap();
            let bytes = plain_b.recv_bytes().unwrap();
            let (mut batch_a, mut batch_b) = duplex();
            batch_a.send_batch(std::slice::from_ref(&item)).unwrap();
            let batch_bytes = batch_b.recv_bytes().unwrap();
            // And each form decodes what the other sent.
            plain_a.send(&item).unwrap();
            batch_a.send_batch(std::slice::from_ref(&item)).unwrap();
            bytes == batch_bytes
                && plain_a.metrics() == batch_a.metrics()
                && plain_b.recv_batch::<T>().unwrap() == [item.clone()]
                && batch_b.recv::<T>().unwrap() == item
                && plain_b.metrics() == batch_b.metrics()
        }
        prop_assert!(same_on_the_wire(word));
        prop_assert!(same_on_the_wire(biguints(&[group]).remove(0)));
        prop_assert!(same_on_the_wire((flag, word)));
    }

    #[test]
    fn damaged_batches_are_typed_errors(
        groups in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..24), 1..5),
            1..6,
        ),
        cut in 1usize..4,
        junk in 1u8..=255,
    ) {
        let groups = biguints(&groups);
        let mut payload = Vec::new();
        for group in &groups {
            group.encode(&mut payload);
        }
        let decode = |bytes: &[u8]| {
            let (mut a, mut b) = duplex();
            a.send_bytes(bytes).unwrap();
            b.recv_batch::<Vec<BigUint>>()
        };
        prop_assert_eq!(decode(&payload).unwrap(), groups);
        // A last item cut short, and bytes after the last item that are no
        // item themselves (one to three bytes cannot hold a u32 count).
        let truncated = decode(&payload[..payload.len() - cut]);
        prop_assert!(matches!(truncated, Err(TransportError::Decode { .. })));
        payload.extend(std::iter::repeat_n(junk, cut));
        prop_assert!(matches!(decode(&payload), Err(TransportError::Decode { .. })));
    }

    #[test]
    fn u64_roundtrips(v in any::<u64>()) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn i64_roundtrips(v in any::<i64>()) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn bool_and_u32_roundtrip(b in any::<bool>(), v in any::<u32>()) {
        prop_assert!(roundtrip(&b));
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn biguint_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let value = BigUint::from_bytes_le(&bytes);
        prop_assert!(roundtrip(&value));
    }

    #[test]
    fn bigint_roundtrips(magnitude in proptest::collection::vec(any::<u8>(), 0..48), negative in any::<bool>()) {
        let magnitude = BigUint::from_bytes_le(&magnitude);
        let sign = if magnitude.is_zero() {
            Sign::Zero
        } else if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let value = BigInt::from_biguint(sign, magnitude);
        prop_assert!(roundtrip(&value));
    }

    #[test]
    fn vectors_and_tuples_roundtrip(
        xs in proptest::collection::vec(any::<u64>(), 0..20),
        pair in (any::<u64>(), any::<i64>()),
    ) {
        prop_assert!(roundtrip(&xs));
        prop_assert!(roundtrip(&pair));
    }

    #[test]
    fn truncation_never_decodes(v in any::<u64>(), cut in 1usize..8) {
        let bytes = v.encode_to_vec();
        prop_assert!(u64::decode_exact(&bytes[..bytes.len() - cut]).is_err());
    }

    #[test]
    fn trailing_bytes_always_rejected(v in any::<u64>(), junk in 1u8..=255) {
        let mut bytes = v.encode_to_vec();
        bytes.push(junk);
        prop_assert!(u64::decode_exact(&bytes).is_err());
    }

    #[test]
    fn biguint_encoding_is_canonical(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        // Encoding is minimal: re-encoding a decoded value reproduces the
        // same bytes (no redundant leading zeros survive a round-trip).
        let value = BigUint::from_bytes_le(&bytes);
        let encoded = value.encode_to_vec();
        let again = BigUint::decode_exact(&encoded).unwrap().encode_to_vec();
        prop_assert_eq!(encoded, again);
    }
}

/// A batch of an item type that occupies no bytes could never end: the
/// decoder refuses it instead of looping, and an empty frame of such items
/// is simply no items.
#[test]
fn zero_width_batch_items_are_refused_not_looped_on() {
    #[derive(Debug)]
    struct Nothing;
    impl WireDecode for Nothing {
        fn decode(_reader: &mut Reader<'_>) -> Result<Self, TransportError> {
            Ok(Nothing)
        }
    }
    let (mut a, mut b) = duplex();
    a.send_bytes(&[1, 2, 3]).unwrap();
    assert!(matches!(
        b.recv_batch::<Nothing>(),
        Err(TransportError::Decode { .. })
    ));
    a.send_bytes(&[1]).unwrap();
    assert!(matches!(
        b.recv_batch::<()>(),
        Err(TransportError::Decode { .. })
    ));
    a.send_bytes(&[]).unwrap();
    assert!(b.recv_batch::<()>().unwrap().is_empty());
}

/// The test binary's allocator: the system one, noting the largest single
/// request each thread makes, so a test can say how much a decoder reserved.
struct NotingAllocator;

thread_local! {
    static LARGEST_REQUEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local is a plain `Cell<usize>` with
// no destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl std::alloc::GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the caller's layout is passed through as is.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

/// `Vec::decode` reserves no more than the bytes that are actually there.
/// A `BigUint` is 24 bytes in memory and the length guard admits one
/// announced item per byte left, so a frame of one-byte "items" used to
/// reserve 24 times its own size (≈ 1.5 GiB for a 64 MiB frame) before the
/// first element failed to decode.
#[test]
fn hostile_vec_counts_reserve_no_more_than_the_frame_holds() {
    const ITEMS: usize = 1 << 20;
    let mut frame = (ITEMS as u32).encode_to_vec();
    frame.resize(4 + ITEMS, 0xFF);
    LARGEST_REQUEST.with(|c| c.set(0));
    let outcome = Vec::<BigUint>::decode_exact(&frame);
    let largest = LARGEST_REQUEST.with(std::cell::Cell::get);
    assert!(matches!(outcome, Err(TransportError::Decode { .. })));
    assert!(
        largest <= frame.len(),
        "{largest} B reserved for a {} B frame",
        frame.len()
    );
    // Honest elements still decode when there are more of them than the
    // bounded reservation: the vector grows as they arrive.
    let empties = vec![Vec::<u8>::new(); 1000];
    let back = Vec::<Vec<u8>>::decode_exact(&empties.encode_to_vec()).unwrap();
    assert_eq!(back, empties);
    // More items announced than bytes left is refused before any decode.
    assert!(Vec::<u8>::decode_exact(&u32::MAX.encode_to_vec()).is_err());
}

/// Drives the same message sequence over an in-memory pair and over real
/// TCP sockets; both transports must report byte-identical
/// [`MetricsSnapshot`]s (payload + framing) on each endpoint.
#[test]
fn memory_and_tcp_charge_identical_traffic() {
    let payloads: Vec<Vec<u8>> = vec![
        vec![],
        vec![1],
        vec![0xAB; 7],
        vec![0xCD; 1024],
        (0..=255).collect(),
    ];

    // In-memory endpoints.
    let (mut mem_a, mut mem_b) = duplex();
    for p in &payloads {
        mem_a.send_bytes(p).unwrap();
        let got = mem_b.recv_bytes().unwrap();
        assert_eq!(&got, p);
    }
    mem_b.send_bytes(&[9, 9, 9]).unwrap();
    let _ = mem_a.recv_bytes().unwrap();

    // The same sequence over real sockets.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let payloads_clone = payloads.clone();
    let server = std::thread::spawn(move || {
        let mut chan = TcpChannel::accept(&listener).unwrap();
        for p in &payloads_clone {
            let got = chan.recv_bytes().unwrap();
            assert_eq!(&got, p);
        }
        chan.send_bytes(&[9, 9, 9]).unwrap();
        chan.metrics()
    });
    let mut tcp_a = TcpChannel::connect(addr).unwrap();
    for p in &payloads {
        tcp_a.send_bytes(p).unwrap();
    }
    let _ = tcp_a.recv_bytes().unwrap();
    let tcp_b_metrics: MetricsSnapshot = server.join().unwrap();

    assert_eq!(mem_a.metrics(), tcp_a.metrics(), "sender-side parity");
    assert_eq!(mem_b.metrics(), tcp_b_metrics, "receiver-side parity");
    // And the invariant that makes the accounting trustworthy at all:
    assert_eq!(mem_a.metrics().bytes_sent, mem_b.metrics().bytes_received);
}
