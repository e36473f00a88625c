//! Property tests for the wire codec: encoding round-trips bit for
//! bit, and decoding is total — truncated, mutated, oversized, or
//! outright random bytes produce typed [`FrameError`]s, never panics.

use perfport_serve::frame::{DecodeStep, Frame, FrameError, Role, HEADER_LEN, MAX_PAYLOAD};
use proptest::collection;
use proptest::prelude::*;

/// Printable-ASCII strings (lengths in `len`), which is what idents,
/// specs, CSV fragments, and one-line manifests are made of.
fn ascii_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    collection::vec(32u8..127, len).prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// Builds one frame of the kind selected by `kind` from the shared
/// field pool, so a single strategy covers the whole enum.
fn build_frame(kind: usize, a: u64, b: u64, c: u64, coord: bool, s1: String, s2: String) -> Frame {
    match kind {
        0 => Frame::Hello {
            role: if coord {
                Role::Coordinator
            } else {
                Role::Worker
            },
            ident: s1,
            detail: s2,
        },
        1 => Frame::Lease {
            lease_id: a,
            start: b,
            end: c,
        },
        // The v2 `Result`: the manifest travels only in `Hello`.
        2 => Frame::Result {
            lease_id: a,
            start: b,
            end: c,
            csv: s2,
        },
        3 => Frame::Heartbeat {
            lease_id: a,
            done: b,
        },
        _ => Frame::Bye { reason: s1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_frames_round_trip(
        kind in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        coord in proptest::bool::ANY,
        s1 in ascii_text(0..48),
        s2 in ascii_text(0..256),
    ) {
        let frame = build_frame(kind, a, b, c, coord, s1, s2);
        let bytes = frame.encode();
        prop_assert_eq!(Frame::decode_exact(&bytes), Ok(frame.clone()));
        // The streaming decoder agrees with the datagram decoder.
        match Frame::decode_step(&bytes) {
            Ok(DecodeStep::Ready { frame: streamed, consumed }) => {
                prop_assert_eq!(streamed, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
            other => prop_assert!(false, "decode_step: {:?}", other),
        }
    }

    #[test]
    fn every_prefix_is_truncated_never_a_panic(
        kind in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        coord in proptest::bool::ANY,
        s1 in ascii_text(0..48),
        s2 in ascii_text(0..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = build_frame(kind, a, b, c, coord, s1, s2).encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        match Frame::decode_exact(&bytes[..cut]) {
            Err(FrameError::Truncated { have, need }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(need > 0);
                prop_assert!(cut + need <= bytes.len());
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
        // The streaming decoder reports the same shortfall as Incomplete.
        match Frame::decode_step(&bytes[..cut]) {
            Ok(DecodeStep::Incomplete { need }) => prop_assert!(need > 0),
            other => prop_assert!(false, "decode_step cut at {}: {:?}", cut, other),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_exactly(
        kind in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        coord in proptest::bool::ANY,
        s1 in ascii_text(0..48),
        s2 in ascii_text(0..64),
        junk in collection::vec(0u8..=255, 1..32),
    ) {
        let frame = build_frame(kind, a, b, c, coord, s1, s2);
        let mut bytes = frame.encode();
        let frame_len = bytes.len();
        bytes.extend_from_slice(&junk);
        prop_assert_eq!(
            Frame::decode_exact(&bytes),
            Err(FrameError::TrailingBytes { extra: junk.len() })
        );
        // The streaming decoder instead consumes exactly one frame and
        // leaves the junk for the next decode attempt.
        match Frame::decode_step(&bytes) {
            Ok(DecodeStep::Ready { frame: streamed, consumed }) => {
                prop_assert_eq!(streamed, frame);
                prop_assert_eq!(consumed, frame_len);
            }
            other => prop_assert!(false, "decode_step: {:?}", other),
        }
    }

    #[test]
    fn mutated_frames_never_panic(
        kind in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        coord in proptest::bool::ANY,
        s1 in ascii_text(0..48),
        s2 in ascii_text(0..64),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = build_frame(kind, a, b, c, coord, s1, s2).encode();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip;
        // Totality: any outcome is fine, panicking is not.
        let _ = Frame::decode_exact(&bytes);
        let _ = Frame::decode_step(&bytes);
    }

    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..96)) {
        let _ = Frame::decode_exact(&bytes);
        let _ = Frame::decode_step(&bytes);
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation(
        excess in 1u32..=(u32::MAX - MAX_PAYLOAD),
        version in 0u8..=255,
        tag in 0u8..=255,
    ) {
        // A hostile length field is refused on the header alone — no
        // matter what the rest of the header claims, and long before
        // any payload could be buffered.
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[0..4].copy_from_slice(&(MAX_PAYLOAD + excess).to_le_bytes());
        bytes[4] = version;
        bytes[5] = tag;
        prop_assert_eq!(
            Frame::decode_step(&bytes),
            Err(FrameError::Oversized { len: MAX_PAYLOAD + excess })
        );
    }

    #[test]
    fn split_streams_reassemble(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        reason in ascii_text(0..64),
        split_frac in 0.0f64..1.0,
    ) {
        // Two frames over one stream, delivered with an arbitrary split
        // point: the incremental decoder recovers both regardless of
        // where the transport happened to fragment.
        let first = Frame::Heartbeat { lease_id: a, done: b };
        let second = Frame::Bye { reason };
        let mut stream = first.encode();
        stream.extend_from_slice(&second.encode());
        let split = ((stream.len() as f64) * split_frac) as usize;

        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for chunk in [&stream[..split], &stream[split..]] {
            buf.extend_from_slice(chunk);
            loop {
                match Frame::decode_step(&buf) {
                    Ok(DecodeStep::Ready { frame, consumed }) => {
                        decoded.push(frame);
                        buf.drain(..consumed);
                    }
                    Ok(DecodeStep::Incomplete { .. }) => break,
                    Err(e) => {
                        prop_assert!(false, "split at {}: {}", split, e);
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(decoded, vec![first, second]);
        prop_assert!(buf.is_empty());
    }
}
