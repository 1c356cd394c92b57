//! Adversarial property tests for the wire-frame decoder
//! (`indoor_model::frames`): whatever bytes arrive — clean streams split
//! at arbitrary packet boundaries, truncated frames, bit-flipped
//! payloads or headers, oversized length prefixes — the decoder must
//! never panic, never fabricate a frame, and surface exactly one typed
//! error after which it stays poisoned so the server can close the
//! connection cleanly (the contract `crates/net` relies on: framing
//! errors end connections; service errors ride inside frames).

use indoor_spatial::model::frames::{
    Frame, FrameDecoder, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use indoor_spatial::model::wire::crc32;
use indoor_spatial::model::{ObjectDelta, ObjectId, ObjectUpdate, QueryResponse};
use indoor_spatial::synth::{random_venue, workload};
use proptest::prelude::*;

/// One frame of **every** variant: scalar control frames, id-carrying
/// requests with real query payloads, every reply kind, and replication
/// stream frames (the id-less kind). Built once — venue synthesis is
/// the expensive part and every proptest case wants the same pool.
fn sample_frames() -> &'static [Frame] {
    static POOL: std::sync::OnceLock<Vec<Frame>> = std::sync::OnceLock::new();
    POOL.get_or_init(build_frames)
}

/// Upper bound of the `pick` strategies; picks index the pool modulo its
/// length, so this only has to be at least that.
const PICKS: usize = 64;

/// Ordinal of a frame's variant. No wildcard arm: a new `Frame` variant
/// fails to compile here until the pool below carries one.
fn variant(f: &Frame) -> usize {
    match f {
        Frame::Ping { .. } => 0,
        Frame::Query { .. } => 1,
        Frame::QueryBatch { .. } => 2,
        Frame::UpdateObjects { .. } => 3,
        Frame::UpdateKeywords { .. } => 4,
        Frame::AttachObjects { .. } => 5,
        Frame::AddVenue { .. } => 6,
        Frame::RemoveVenue { .. } => 7,
        Frame::Metrics { .. } => 8,
        Frame::Replicate { .. } => 9,
        Frame::Pong { .. } => 10,
        Frame::Answer { .. } => 11,
        Frame::AnswerBatch { .. } => 12,
        Frame::MutationOk { .. } => 13,
        Frame::VenueCreated { .. } => 14,
        Frame::Ack { .. } => 15,
        Frame::Error { .. } => 16,
        Frame::MetricsText { .. } => 17,
        Frame::Wal { .. } => 18,
        Frame::ReplHead { .. } => 19,
        Frame::ReplEnd { .. } => 20,
    }
}
const VARIANTS: usize = 21;

fn build_frames() -> Vec<Frame> {
    let venue = random_venue(90);
    let reqs = workload::mixed_requests(&venue, 1, 3, 45.0, "atm", 90);
    let points = workload::query_points(&venue, 3, 91);
    let mut frames = vec![
        Frame::Ping { id: 7 },
        Frame::Pong { id: 7 },
        Frame::Metrics { id: 11 },
        Frame::QueryBatch {
            id: 12,
            reqs: reqs.iter().map(|r| (1, r.clone())).collect(),
        },
        Frame::UpdateObjects {
            id: 13,
            venue: 1,
            deltas: vec![
                ObjectDelta::Insert {
                    id: ObjectId(4),
                    at: points[0],
                },
                ObjectDelta::Remove { id: ObjectId(2) },
            ],
        },
        Frame::UpdateKeywords {
            id: 14,
            venue: 1,
            updates: vec![ObjectUpdate {
                delta: ObjectDelta::Move {
                    id: ObjectId(4),
                    to: points[1],
                },
                labels: vec!["atm".into(), "café".into()],
            }],
        },
        Frame::AttachObjects {
            id: 15,
            venue: 0,
            objects: points.clone(),
        },
        Frame::AddVenue {
            id: 16,
            venue_json: b"{\"venue\":1}".to_vec(),
            config: vec![9, 8, 7],
        },
        Frame::RemoveVenue { id: 17, venue: 3 },
        Frame::Answer {
            id: 18,
            result: Ok(QueryResponse::Knn(vec![(ObjectId(1), 2.5)])),
        },
        Frame::AnswerBatch {
            id: 19,
            results: vec![
                Ok(QueryResponse::ShortestDistance(None)),
                Err(WireError::Timeout {
                    venue: 1,
                    in_flight: 4,
                    limit: 4,
                }),
            ],
        },
        Frame::VenueCreated { id: 20, venue: 4 },
        Frame::Ack { id: 21 },
        Frame::MetricsText {
            id: 23,
            text: "# TYPE indoor_venues gauge\nindoor_venues 2\n".into(),
        },
        Frame::ReplEnd {
            venue: 3,
            err: None,
        },
        Frame::Replicate {
            venue: 3,
            from_lsn: 12,
        },
        Frame::ReplHead {
            venue: 3,
            version: 41,
        },
        Frame::Wal {
            venue: 3,
            lsn: 13,
            record: vec![0xAB; 57],
        },
        Frame::ReplEnd {
            venue: 3,
            err: Some(WireError::NotDurable),
        },
        Frame::Error {
            id: 9,
            err: WireError::Overloaded {
                venue: 1,
                in_flight: 8,
                limit: 8,
            },
        },
        Frame::MutationOk { id: 10, version: 6 },
    ];
    for (i, req) in reqs.into_iter().enumerate() {
        frames.push(Frame::Query {
            id: 100 + i as u64,
            venue: 0,
            req,
        });
    }
    frames
}

#[test]
fn the_pool_carries_every_frame_variant() {
    let pool = sample_frames();
    assert!(pool.len() <= PICKS);
    for v in 0..VARIANTS {
        assert!(
            pool.iter().any(|f| variant(f) == v),
            "no frame of variant {v}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `encode_into` appends exactly the bytes the format defines —
    /// `[len][crc32(payload)][payload]`, spelled out here rather than
    /// taken from `encode()` — whatever the buffer already holds, and
    /// whatever an earlier, longer use left in its spare capacity.
    #[test]
    fn encode_into_a_dirty_reused_buffer_matches_the_format(
        picks in proptest::collection::vec(0usize..PICKS, 1..12),
        junk in proptest::collection::vec(0u8..255, 0..40),
        reuse_every in 1usize..5,
    ) {
        let pool = sample_frames();
        let mut buf = Vec::new();
        for (i, pick) in picks.iter().enumerate() {
            let frame = &pool[pick % pool.len()];
            if i % reuse_every == 0 {
                // A connection's reply buffer between drains: cleared,
                // capacity (and stale bytes beyond `len`) kept.
                buf.clear();
                buf.extend_from_slice(&junk);
            }
            let start = buf.len();
            frame.encode_into(&mut buf);

            let payload = frame.encode_payload();
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
            prop_assert_eq!(&buf[start..], &want[..]);
            prop_assert_eq!(&frame.encode(), &want);
            prop_assert!(buf.starts_with(&junk), "bytes ahead of the frame are untouched");
        }
    }

    /// A clean stream decodes to the same frames regardless of how the
    /// bytes are split across `extend` calls (TCP owes no respect to
    /// frame boundaries).
    #[test]
    fn arbitrary_packetisation_roundtrips(
        picks in proptest::collection::vec(0usize..PICKS, 1..8),
        chunk in 1usize..97,
    ) {
        let pool = sample_frames();
        let sent: Vec<&Frame> = picks.iter().map(|i| &pool[i % pool.len()]).collect();
        let bytes: Vec<u8> = sent.iter().flat_map(|f| f.encode()).collect();

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for part in bytes.chunks(chunk) {
            dec.extend(part);
            while let Some(f) = dec.next().expect("clean stream decodes") {
                got.push(f);
            }
        }
        prop_assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            prop_assert_eq!(g, *s);
        }
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A truncated frame is *incomplete*, not an error: the decoder
    /// reports nothing until the rest arrives, then yields the frame.
    #[test]
    fn truncation_is_silence_not_error(pick in 0usize..PICKS, cut_seed in 0u64..u64::MAX) {
        let pool = sample_frames();
        let frame = &pool[pick % pool.len()];
        let bytes = frame.encode();
        // Cut strictly inside the frame (1 ..= len-1).
        let cut = 1 + (cut_seed as usize) % (bytes.len() - 1);

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..cut]);
        prop_assert_eq!(dec.next().expect("prefix is not an error"), None);
        prop_assert_eq!(dec.next().expect("still not an error"), None);
        dec.extend(&bytes[cut..]);
        prop_assert_eq!(dec.next().expect("completed frame decodes").as_ref(), Some(frame));
        prop_assert_eq!(dec.next().expect("stream drained"), None);
    }

    /// Flipping any payload byte trips the CRC: a typed error, never a
    /// panic, never a phantom frame — and the poison is permanent, so a
    /// valid frame arriving afterwards is *not* resurrected.
    #[test]
    fn payload_corruption_poisons_permanently(
        pick in 0usize..PICKS,
        at_seed in 0u64..u64::MAX,
        flip in 1u8..255,
    ) {
        let pool = sample_frames();
        let frame = &pool[pick % pool.len()];
        let mut bytes = frame.encode();
        // Corrupt past the length word: CRC bytes or payload bytes.
        let lo = 4;
        let at = lo + (at_seed as usize) % (bytes.len() - lo);
        bytes[at] ^= flip;

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        prop_assert!(dec.next().is_err(), "corrupt frame must fail CRC");
        dec.extend(&frame.encode());
        prop_assert!(dec.next().is_err(), "poison outlives fresh valid bytes");
    }

    /// A length prefix above the hard ceiling is rejected from the
    /// header alone — before any payload arrives, so a hostile peer
    /// cannot make the server allocate 4 GiB.
    #[test]
    fn oversized_length_is_rejected_from_the_header(excess in 1u32..1000) {
        let len = MAX_FRAME_LEN + excess;
        let mut bytes = Vec::with_capacity(FRAME_HEADER_LEN);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        prop_assert!(dec.next().is_err(), "oversized header must be refused");
        prop_assert!(dec.next().is_err(), "and the refusal is sticky");
    }

    /// Garbage that happens to parse as a *short* frame still cannot
    /// produce output: a random byte soup either stays silent (looks
    /// like a long incomplete frame) or errors — it never yields a
    /// frame. (A fabricated frame needs a CRC32 collision.)
    #[test]
    fn random_bytes_never_fabricate_a_frame(
        noise in proptest::collection::vec(0u8..255, FRAME_HEADER_LEN..200),
    ) {
        let mut dec = FrameDecoder::new();
        dec.extend(&noise);
        for _ in 0..4 {
            match dec.next() {
                Ok(None) => {}
                Ok(Some(f)) => prop_assert!(false, "decoded a frame from noise: {f:?}"),
                Err(_) => break,
            }
        }
    }
}
