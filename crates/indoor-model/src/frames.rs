//! Network frame vocabulary — the typed messages the TCP front-end
//! (`crates/net`) exchanges, and the length-prefixed CRC framing that
//! carries them.
//!
//! The vocabulary lives here, next to the request/response types it
//! encodes, for the same reason the WAL vocabulary does ([`crate::wire`]):
//! every crate that speaks the protocol — server, client, follower,
//! scenario replay — shares one byte layout that cannot drift from the
//! definition of a request. Frames reference only model types and plain
//! scalars; service-side structures (shard configs, service errors) cross
//! the wire as scalar mirrors ([`WireError`]) or as opaque payloads
//! encoded by the layer that owns them (venue admin carries the core
//! crate's own config encoding).
//!
//! # Outer framing
//!
//! A connection starts with an 8-byte magic ([`NET_MAGIC`]) in each
//! direction, then carries a stream of frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! `crc32` covers the payload. `len` above [`MAX_FRAME_LEN`] is a framing
//! error before any allocation happens — a corrupt length prefix cannot
//! OOM the peer. The payload's first byte is the frame tag; the rest is
//! the tag-specific body, decoded with [`crate::wire::WireReader`] and
//! required to consume the payload exactly.
//!
//! [`FrameDecoder`] is the incremental decoder over that stream: feed it
//! bytes as they arrive, pull complete frames out. Any framing or decode
//! failure is a typed [`LoadError`] — never a panic — and poisons the
//! decoder: framing is not self-synchronising (a bad length prefix makes
//! every later boundary a guess), so the contract after an error is a
//! clean connection close, not a resync heuristic.
//!
//! # Request ids
//!
//! Every request frame carries a caller-chosen `id` echoed by its reply,
//! which is what makes pipelining safe: a client may have any number of
//! requests in flight and match replies by id regardless of coalescing
//! on the server side. Replication frames carry no id — a `Replicate`
//! subscription turns the connection into a one-way ordered stream.

use crate::serialize::LoadError;
use crate::wire::{crc32, WireReader, WireWriter};
use crate::{IndoorPoint, ObjectDelta, ObjectUpdate, QueryRequest, QueryResponse};

/// Connection handshake magic: protocol name + version byte. Bump the
/// version byte on any incompatible vocabulary change.
pub const NET_MAGIC: [u8; 8] = *b"VIPNET\x01\0";

/// Hard ceiling on one frame's payload, checked before allocation.
/// Generous enough for a venue JSON or a multi-thousand-slot batch,
/// small enough that a corrupt length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bytes of outer framing per frame (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Service-side failures as they cross the wire — a scalar mirror of the
/// core crate's `ServiceError` plus the replication-specific refusals.
/// Carried inside [`Frame::Answer`] / [`Frame::Error`] / [`Frame::ReplEnd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// No shard registered under the venue id.
    UnknownVenue { venue: u32 },
    /// Shed at admission: in-flight budget full under a shed policy.
    /// Retryable — the work was never started.
    Overloaded {
        venue: u32,
        in_flight: u64,
        limit: u64,
    },
    /// Admission wait exhausted its blocking timeout. Retryable.
    Timeout {
        venue: u32,
        in_flight: u64,
        limit: u64,
    },
    /// Mutation batch failed validation; the venue is unchanged.
    Delta { venue: u32, detail: String },
    /// Venue index construction failed.
    Build { detail: String },
    /// A durable mutation could not be journalled (not applied).
    Persist { venue: u32, detail: String },
    /// The venue is read-only pending restart recovery.
    Degraded { venue: u32, detail: String },
    /// Replication refused: the leader is volatile (no WAL to ship).
    NotDurable,
    /// Replication refused: the requested WAL suffix is gone (rotated
    /// away) or unreadable; the follower must bootstrap from a snapshot.
    LogUnavailable { venue: u32, detail: String },
    /// The peer sent a frame the server could not act on (unknown venue
    /// kind aside — a semantically invalid payload).
    Malformed { detail: String },
}

impl WireError {
    /// Whether a retry (with backoff) can succeed without operator
    /// intervention: true exactly for the admission-layer rejections.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Overloaded { .. } | WireError::Timeout { .. }
        )
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            WireError::UnknownVenue { venue } => {
                w.put_u8(0);
                w.put_u32(*venue);
            }
            WireError::Overloaded {
                venue,
                in_flight,
                limit,
            } => {
                w.put_u8(1);
                w.put_u32(*venue);
                w.put_u64(*in_flight);
                w.put_u64(*limit);
            }
            WireError::Timeout {
                venue,
                in_flight,
                limit,
            } => {
                w.put_u8(2);
                w.put_u32(*venue);
                w.put_u64(*in_flight);
                w.put_u64(*limit);
            }
            WireError::Delta { venue, detail } => {
                w.put_u8(3);
                w.put_u32(*venue);
                w.put_str(detail);
            }
            WireError::Build { detail } => {
                w.put_u8(4);
                w.put_str(detail);
            }
            WireError::Persist { venue, detail } => {
                w.put_u8(5);
                w.put_u32(*venue);
                w.put_str(detail);
            }
            WireError::Degraded { venue, detail } => {
                w.put_u8(6);
                w.put_u32(*venue);
                w.put_str(detail);
            }
            WireError::NotDurable => w.put_u8(7),
            WireError::LogUnavailable { venue, detail } => {
                w.put_u8(8);
                w.put_u32(*venue);
                w.put_str(detail);
            }
            WireError::Malformed { detail } => {
                w.put_u8(9);
                w.put_str(detail);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<WireError, LoadError> {
        let tag = r.get_u8("wire error tag")?;
        Ok(match tag {
            0 => WireError::UnknownVenue {
                venue: r.get_u32("error venue")?,
            },
            1 => WireError::Overloaded {
                venue: r.get_u32("error venue")?,
                in_flight: r.get_u64("error in_flight")?,
                limit: r.get_u64("error limit")?,
            },
            2 => WireError::Timeout {
                venue: r.get_u32("error venue")?,
                in_flight: r.get_u64("error in_flight")?,
                limit: r.get_u64("error limit")?,
            },
            3 => WireError::Delta {
                venue: r.get_u32("error venue")?,
                detail: r.get_str("error detail")?.to_string(),
            },
            4 => WireError::Build {
                detail: r.get_str("error detail")?.to_string(),
            },
            5 => WireError::Persist {
                venue: r.get_u32("error venue")?,
                detail: r.get_str("error detail")?.to_string(),
            },
            6 => WireError::Degraded {
                venue: r.get_u32("error venue")?,
                detail: r.get_str("error detail")?.to_string(),
            },
            7 => WireError::NotDurable,
            8 => WireError::LogUnavailable {
                venue: r.get_u32("error venue")?,
                detail: r.get_str("error detail")?.to_string(),
            },
            9 => WireError::Malformed {
                detail: r.get_str("error detail")?.to_string(),
            },
            other => return Err(r.err("wire error tag 0..=9", format!("tag {other}"))),
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownVenue { venue } => write!(f, "no venue registered under id {venue}"),
            WireError::Overloaded {
                venue,
                in_flight,
                limit,
            } => write!(
                f,
                "venue {venue} overloaded: {in_flight} in flight at limit {limit}, request shed"
            ),
            WireError::Timeout {
                venue,
                in_flight,
                limit,
            } => write!(
                f,
                "venue {venue} admission timed out: {in_flight} in flight at limit {limit}"
            ),
            WireError::Delta { venue, detail } => {
                write!(f, "object delta rejected for venue {venue}: {detail}")
            }
            WireError::Build { detail } => write!(f, "cannot build venue index: {detail}"),
            WireError::Persist { venue, detail } => {
                write!(
                    f,
                    "durable mutation of venue {venue} not journalled: {detail}"
                )
            }
            WireError::Degraded { venue, detail } => {
                write!(f, "venue {venue} is degraded (read-only): {detail}")
            }
            WireError::NotDurable => write!(f, "leader is volatile: no WAL to replicate"),
            WireError::LogUnavailable { venue, detail } => {
                write!(f, "WAL suffix for venue {venue} unavailable: {detail}")
            }
            WireError::Malformed { detail } => write!(f, "malformed request: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// Frame tags. Client→server tags are < 0x80, server→client ≥ 0x80 — a
// peer can reject a frame sent in the wrong direction by tag range alone.
// 0x09 / 0x88 (a stats request and its reply, superseded by the metrics
// page) are retired and never reused.
const TAG_PING: u8 = 0x01;
const TAG_QUERY: u8 = 0x02;
const TAG_QUERY_BATCH: u8 = 0x03;
const TAG_UPDATE_OBJECTS: u8 = 0x04;
const TAG_UPDATE_KEYWORDS: u8 = 0x05;
const TAG_ATTACH_OBJECTS: u8 = 0x06;
const TAG_ADD_VENUE: u8 = 0x07;
const TAG_REMOVE_VENUE: u8 = 0x08;
const TAG_REPLICATE: u8 = 0x0A;
const TAG_METRICS: u8 = 0x0B;
const TAG_PONG: u8 = 0x81;
const TAG_ANSWER: u8 = 0x82;
const TAG_ANSWER_BATCH: u8 = 0x83;
const TAG_MUTATION_OK: u8 = 0x84;
const TAG_VENUE_CREATED: u8 = 0x85;
const TAG_ACK: u8 = 0x86;
const TAG_ERROR: u8 = 0x87;
const TAG_WAL: u8 = 0x89;
const TAG_REPL_HEAD: u8 = 0x8A;
const TAG_REPL_END: u8 = 0x8B;
const TAG_METRICS_TEXT: u8 = 0x8C;

/// One protocol message. Request frames (`id`-bearing, tag < 0x80) flow
/// client→server; reply and replication frames flow back.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server ----
    /// Liveness probe; answered by [`Frame::Pong`] with the same id.
    Ping {
        id: u64,
    },
    /// One query for one venue; answered by [`Frame::Answer`].
    Query {
        id: u64,
        venue: u32,
        req: QueryRequest,
    },
    /// A heterogeneous multi-venue batch; slot `i` of the
    /// [`Frame::AnswerBatch`] reply answers `reqs[i]`.
    QueryBatch {
        id: u64,
        reqs: Vec<(u32, QueryRequest)>,
    },
    /// Object churn batch; answered by [`Frame::MutationOk`] carrying the
    /// venue's post-apply version, or [`Frame::Error`].
    UpdateObjects {
        id: u64,
        venue: u32,
        deltas: Vec<ObjectDelta>,
    },
    /// Labelled keyword churn batch; answered like `UpdateObjects`.
    UpdateKeywords {
        id: u64,
        venue: u32,
        updates: Vec<ObjectUpdate>,
    },
    /// Replace a venue's object set; answered like `UpdateObjects`.
    AttachObjects {
        id: u64,
        venue: u32,
        objects: Vec<IndoorPoint>,
    },
    /// Register a venue. `venue_json` is the venue's JSON serialisation;
    /// `config` is the shard config in the core crate's own WAL encoding
    /// (opaque at this layer — the crate that owns the config owns its
    /// bytes). Answered by [`Frame::VenueCreated`].
    AddVenue {
        id: u64,
        venue_json: Vec<u8>,
        config: Vec<u8>,
    },
    /// Unregister a venue; answered by [`Frame::Ack`].
    RemoveVenue {
        id: u64,
        venue: u32,
    },
    /// Telemetry exposition page; answered by [`Frame::MetricsText`]
    /// carrying the full Prometheus-style text (see
    /// [`crate::metrics::encode_text`]).
    Metrics {
        id: u64,
    },
    /// Subscribe this connection to `venue`'s WAL stream starting at
    /// `from_lsn` (0 = from the venue's birth record). The leader replies
    /// [`Frame::ReplHead`], then [`Frame::Wal`] frames in LSN order —
    /// first the suffix already on disk, then live appends as they
    /// happen — until the connection closes or [`Frame::ReplEnd`].
    Replicate {
        venue: u32,
        from_lsn: u64,
    },

    // ---- server → client ----
    Pong {
        id: u64,
    },
    /// Reply to [`Frame::Query`].
    Answer {
        id: u64,
        result: Result<QueryResponse, WireError>,
    },
    /// Reply to [`Frame::QueryBatch`], slot-aligned with its request.
    AnswerBatch {
        id: u64,
        results: Vec<Result<QueryResponse, WireError>>,
    },
    /// Mutation applied; `version` is the venue's object version after.
    MutationOk {
        id: u64,
        version: u64,
    },
    /// Venue registered under `venue`.
    VenueCreated {
        id: u64,
        venue: u32,
    },
    /// Bare success reply (venue removal).
    Ack {
        id: u64,
    },
    /// Typed failure reply to any id-bearing request.
    Error {
        id: u64,
        err: WireError,
    },
    /// Reply to [`Frame::Metrics`]: the encoded exposition page. Shipped
    /// as text, not typed series — scrapers diff/lint the page itself,
    /// and the format is the compatibility surface (DESIGN.md §15).
    MetricsText {
        id: u64,
        text: String,
    },
    /// One WAL record of a replication stream: `record` is the exact
    /// payload journalled at `lsn` (the core crate's record encoding,
    /// opaque here). Applying records in order reproduces the leader.
    Wal {
        venue: u32,
        lsn: u64,
        record: Vec<u8>,
    },
    /// Head of a replication stream: the leader's version at subscribe
    /// time. The follower is caught up when its applied LSN reaches
    /// this (and then keeps tailing).
    ReplHead {
        venue: u32,
        version: u64,
    },
    /// The replication stream ended: the venue was removed, the suffix
    /// was unavailable, or the leader refused (see `err`).
    ReplEnd {
        venue: u32,
        err: Option<WireError>,
    },
}

impl Frame {
    /// Encode the frame payload (tag + body, no outer framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write_payload(&mut w);
        w.into_bytes()
    }

    fn write_payload(&self, w: &mut WireWriter) {
        match self {
            Frame::Ping { id } => {
                w.put_u8(TAG_PING);
                w.put_u64(*id);
            }
            Frame::Query { id, venue, req } => {
                w.put_u8(TAG_QUERY);
                w.put_u64(*id);
                w.put_u32(*venue);
                w.put_request(req);
            }
            Frame::QueryBatch { id, reqs } => {
                w.put_u8(TAG_QUERY_BATCH);
                w.put_u64(*id);
                w.put_u32(reqs.len() as u32);
                for (venue, req) in reqs {
                    w.put_u32(*venue);
                    w.put_request(req);
                }
            }
            Frame::UpdateObjects { id, venue, deltas } => {
                w.put_u8(TAG_UPDATE_OBJECTS);
                w.put_u64(*id);
                w.put_u32(*venue);
                w.put_deltas(deltas);
            }
            Frame::UpdateKeywords { id, venue, updates } => {
                w.put_u8(TAG_UPDATE_KEYWORDS);
                w.put_u64(*id);
                w.put_u32(*venue);
                w.put_updates(updates);
            }
            Frame::AttachObjects { id, venue, objects } => {
                w.put_u8(TAG_ATTACH_OBJECTS);
                w.put_u64(*id);
                w.put_u32(*venue);
                w.put_points(objects);
            }
            Frame::AddVenue {
                id,
                venue_json,
                config,
            } => {
                w.put_u8(TAG_ADD_VENUE);
                w.put_u64(*id);
                w.put_bytes(venue_json);
                w.put_bytes(config);
            }
            Frame::RemoveVenue { id, venue } => {
                w.put_u8(TAG_REMOVE_VENUE);
                w.put_u64(*id);
                w.put_u32(*venue);
            }
            Frame::Metrics { id } => {
                w.put_u8(TAG_METRICS);
                w.put_u64(*id);
            }
            Frame::Replicate { venue, from_lsn } => {
                w.put_u8(TAG_REPLICATE);
                w.put_u32(*venue);
                w.put_u64(*from_lsn);
            }
            Frame::Pong { id } => {
                w.put_u8(TAG_PONG);
                w.put_u64(*id);
            }
            Frame::Answer { id, result } => {
                w.put_u8(TAG_ANSWER);
                w.put_u64(*id);
                encode_result(w, result);
            }
            Frame::AnswerBatch { id, results } => {
                w.put_u8(TAG_ANSWER_BATCH);
                w.put_u64(*id);
                w.put_u32(results.len() as u32);
                for r in results {
                    encode_result(w, r);
                }
            }
            Frame::MutationOk { id, version } => {
                w.put_u8(TAG_MUTATION_OK);
                w.put_u64(*id);
                w.put_u64(*version);
            }
            Frame::VenueCreated { id, venue } => {
                w.put_u8(TAG_VENUE_CREATED);
                w.put_u64(*id);
                w.put_u32(*venue);
            }
            Frame::Ack { id } => {
                w.put_u8(TAG_ACK);
                w.put_u64(*id);
            }
            Frame::Error { id, err } => {
                w.put_u8(TAG_ERROR);
                w.put_u64(*id);
                err.encode(w);
            }
            Frame::MetricsText { id, text } => {
                w.put_u8(TAG_METRICS_TEXT);
                w.put_u64(*id);
                w.put_str(text);
            }
            Frame::Wal { venue, lsn, record } => {
                w.put_u8(TAG_WAL);
                w.put_u32(*venue);
                w.put_u64(*lsn);
                w.put_bytes(record);
            }
            Frame::ReplHead { venue, version } => {
                w.put_u8(TAG_REPL_HEAD);
                w.put_u32(*venue);
                w.put_u64(*version);
            }
            Frame::ReplEnd { venue, err } => {
                w.put_u8(TAG_REPL_END);
                w.put_u32(*venue);
                match err {
                    Some(e) => {
                        w.put_u8(1);
                        e.encode(w);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }

    /// Decode a frame payload (tag + body); the payload must be consumed
    /// exactly.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, LoadError> {
        let mut r = WireReader::new(payload);
        let tag = r.get_u8("frame tag")?;
        let frame = match tag {
            TAG_PING => Frame::Ping {
                id: r.get_u64("ping id")?,
            },
            TAG_QUERY => Frame::Query {
                id: r.get_u64("query id")?,
                venue: r.get_u32("query venue")?,
                req: r.get_request()?,
            },
            TAG_QUERY_BATCH => {
                let id = r.get_u64("batch id")?;
                let n = r.get_u32("batch request count")? as usize;
                let mut reqs = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    let venue = r.get_u32("batch slot venue")?;
                    reqs.push((venue, r.get_request()?));
                }
                Frame::QueryBatch { id, reqs }
            }
            TAG_UPDATE_OBJECTS => Frame::UpdateObjects {
                id: r.get_u64("update id")?,
                venue: r.get_u32("update venue")?,
                deltas: r.get_deltas()?,
            },
            TAG_UPDATE_KEYWORDS => Frame::UpdateKeywords {
                id: r.get_u64("update id")?,
                venue: r.get_u32("update venue")?,
                updates: r.get_updates()?,
            },
            TAG_ATTACH_OBJECTS => Frame::AttachObjects {
                id: r.get_u64("attach id")?,
                venue: r.get_u32("attach venue")?,
                objects: r.get_points()?,
            },
            TAG_ADD_VENUE => Frame::AddVenue {
                id: r.get_u64("add-venue id")?,
                venue_json: r.get_bytes("venue json")?.to_vec(),
                config: r.get_bytes("shard config")?.to_vec(),
            },
            TAG_REMOVE_VENUE => Frame::RemoveVenue {
                id: r.get_u64("remove id")?,
                venue: r.get_u32("remove venue")?,
            },
            TAG_METRICS => Frame::Metrics {
                id: r.get_u64("metrics id")?,
            },
            TAG_REPLICATE => Frame::Replicate {
                venue: r.get_u32("replicate venue")?,
                from_lsn: r.get_u64("replicate from_lsn")?,
            },
            TAG_PONG => Frame::Pong {
                id: r.get_u64("pong id")?,
            },
            TAG_ANSWER => Frame::Answer {
                id: r.get_u64("answer id")?,
                result: decode_result(&mut r)?,
            },
            TAG_ANSWER_BATCH => {
                let id = r.get_u64("batch answer id")?;
                let n = r.get_u32("batch answer count")? as usize;
                let mut results = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    results.push(decode_result(&mut r)?);
                }
                Frame::AnswerBatch { id, results }
            }
            TAG_MUTATION_OK => Frame::MutationOk {
                id: r.get_u64("mutation id")?,
                version: r.get_u64("mutation version")?,
            },
            TAG_VENUE_CREATED => Frame::VenueCreated {
                id: r.get_u64("created id")?,
                venue: r.get_u32("created venue")?,
            },
            TAG_ACK => Frame::Ack {
                id: r.get_u64("ack id")?,
            },
            TAG_ERROR => Frame::Error {
                id: r.get_u64("error id")?,
                err: WireError::decode(&mut r)?,
            },
            TAG_METRICS_TEXT => Frame::MetricsText {
                id: r.get_u64("metrics id")?,
                text: r.get_str("metrics text")?.to_string(),
            },
            TAG_WAL => Frame::Wal {
                venue: r.get_u32("wal venue")?,
                lsn: r.get_u64("wal lsn")?,
                record: r.get_bytes("wal record")?.to_vec(),
            },
            TAG_REPL_HEAD => Frame::ReplHead {
                venue: r.get_u32("repl venue")?,
                version: r.get_u64("repl version")?,
            },
            TAG_REPL_END => Frame::ReplEnd {
                venue: r.get_u32("repl venue")?,
                err: match r.get_u8("repl error flag")? {
                    0 => None,
                    1 => Some(WireError::decode(&mut r)?),
                    other => return Err(r.err("repl error flag 0/1", format!("flag {other}"))),
                },
            },
            other => return Err(r.err("frame tag", format!("unknown tag {other:#04x}"))),
        };
        r.finish("frame end")?;
        Ok(frame)
    }

    /// Encode with outer framing: `[len][crc][payload]`, ready to write
    /// to a socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the framed encoding to `out`, bytes identical to
    /// [`Frame::encode`]: the header is reserved, the payload written in
    /// place behind it, then `len` and `crc` patched — no intermediate
    /// payload buffer, and a connection that reuses `out` stops
    /// allocating once it has grown to its largest burst.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = WireWriter::over(std::mem::take(out));
        w.put_u64(0);
        self.write_payload(&mut w);
        *out = w.into_bytes();
        let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
        debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    /// The request id this frame carries, if any (replication frames and
    /// the `Replicate` subscription are id-less stream frames).
    pub fn id(&self) -> Option<u64> {
        match self {
            Frame::Ping { id }
            | Frame::Query { id, .. }
            | Frame::QueryBatch { id, .. }
            | Frame::UpdateObjects { id, .. }
            | Frame::UpdateKeywords { id, .. }
            | Frame::AttachObjects { id, .. }
            | Frame::AddVenue { id, .. }
            | Frame::RemoveVenue { id, .. }
            | Frame::Metrics { id }
            | Frame::Pong { id }
            | Frame::Answer { id, .. }
            | Frame::AnswerBatch { id, .. }
            | Frame::MutationOk { id, .. }
            | Frame::VenueCreated { id, .. }
            | Frame::Ack { id }
            | Frame::Error { id, .. }
            | Frame::MetricsText { id, .. } => Some(*id),
            Frame::Replicate { .. }
            | Frame::Wal { .. }
            | Frame::ReplHead { .. }
            | Frame::ReplEnd { .. } => None,
        }
    }
}

fn encode_result(w: &mut WireWriter, r: &Result<QueryResponse, WireError>) {
    match r {
        Ok(resp) => {
            w.put_u8(0);
            w.put_response(resp);
        }
        Err(e) => {
            w.put_u8(1);
            e.encode(w);
        }
    }
}

fn decode_result(r: &mut WireReader<'_>) -> Result<Result<QueryResponse, WireError>, LoadError> {
    match r.get_u8("result tag")? {
        0 => Ok(Ok(r.get_response()?)),
        1 => Ok(Err(WireError::decode(r)?)),
        other => Err(r.err("result tag 0/1", format!("tag {other}"))),
    }
}

/// Incremental decoder over the outer framing: feed bytes as the socket
/// yields them, pull complete frames out. Not self-synchronising: any
/// error poisons the decoder (every subsequent [`FrameDecoder::next`]
/// repeats it) and the connection must be closed.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames; compacted
    /// opportunistically instead of per-frame so a burst of small frames
    /// costs one memmove, not one per frame.
    consumed: usize,
    /// The first error, kept as `(offset, expected, found)` so it can be
    /// re-raised on every later call (`LoadError` itself is not `Clone` —
    /// it can wrap an `io::Error` — but every decode failure here is the
    /// `Wire` variant, which is plain data).
    poisoned: Option<(u64, &'static str, String)>,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes received from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Decode the next complete frame: `Ok(Some(frame))`, `Ok(None)` when
    /// more bytes are needed, or the framing/decode error that poisons
    /// this decoder.
    // Not `Iterator`: `Ok(None)` means "need more bytes", not "done", and
    // errors must surface per call so poisoning stays observable.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, LoadError> {
        if let Some((offset, expected, found)) = &self.poisoned {
            return Err(LoadError::Wire {
                offset: *offset,
                expected,
                found: found.clone(),
            });
        }
        match self.try_next() {
            Ok(frame) => Ok(frame),
            Err(err) => {
                if let LoadError::Wire {
                    offset,
                    expected,
                    found,
                } = &err
                {
                    self.poisoned = Some((*offset, expected, found.clone()));
                } else {
                    // Unreachable today (frame decoding only produces
                    // `Wire` errors), but fail closed if that changes.
                    self.poisoned = Some((0, "frame", err.to_string()));
                }
                Err(err)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<Frame>, LoadError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < FRAME_HEADER_LEN {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap());
        let want_crc = u32::from_le_bytes(avail[4..8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(LoadError::Wire {
                offset: self.consumed as u64,
                expected: "frame length within MAX_FRAME_LEN",
                found: format!("length prefix {len} exceeds cap {MAX_FRAME_LEN}"),
            });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if avail.len() < total {
            self.compact();
            return Ok(None);
        }
        let payload = &avail[FRAME_HEADER_LEN..total];
        let got_crc = crc32(payload);
        if got_crc != want_crc {
            return Err(LoadError::Wire {
                offset: (self.consumed + 4) as u64,
                expected: "frame payload CRC",
                found: format!("crc {got_crc:#010x}, header says {want_crc:#010x}"),
            });
        }
        let frame = Frame::decode_payload(payload)?;
        self.consumed += total;
        Ok(Some(frame))
    }

    /// Drop consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, PartitionId};
    use geometry::Point;
    use std::sync::Arc;

    fn pt(x: f64, y: f64) -> IndoorPoint {
        IndoorPoint::new(PartitionId(2), Point::new(x, y, 0))
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Ping { id: 1 },
            Frame::Query {
                id: 2,
                venue: 0,
                req: QueryRequest::Knn {
                    q: pt(1.0, 2.0),
                    k: 4,
                },
            },
            Frame::QueryBatch {
                id: 3,
                reqs: vec![
                    (
                        0,
                        QueryRequest::Range {
                            q: pt(0.5, 0.5),
                            radius: 9.0,
                        },
                    ),
                    (
                        1,
                        QueryRequest::KnnKeyword {
                            q: pt(3.0, 3.0),
                            k: 2,
                            keyword: Arc::from("atm"),
                        },
                    ),
                ],
            },
            Frame::UpdateObjects {
                id: 4,
                venue: 1,
                deltas: vec![ObjectDelta::Insert {
                    id: ObjectId(7),
                    at: pt(4.0, 4.0),
                }],
            },
            Frame::UpdateKeywords {
                id: 5,
                venue: 1,
                updates: vec![ObjectUpdate {
                    delta: ObjectDelta::Remove { id: ObjectId(7) },
                    labels: vec!["atm".into()],
                }],
            },
            Frame::AttachObjects {
                id: 6,
                venue: 0,
                objects: vec![pt(1.0, 1.0), pt(2.0, 2.0)],
            },
            Frame::AddVenue {
                id: 7,
                venue_json: b"{\"venue\":1}".to_vec(),
                config: vec![9, 8, 7],
            },
            Frame::RemoveVenue { id: 8, venue: 3 },
            Frame::Metrics { id: 12 },
            Frame::Replicate {
                venue: 2,
                from_lsn: 17,
            },
            Frame::Pong { id: 1 },
            Frame::Answer {
                id: 2,
                result: Ok(QueryResponse::Knn(vec![(ObjectId(1), 2.5)])),
            },
            Frame::AnswerBatch {
                id: 3,
                results: vec![
                    Ok(QueryResponse::Range(Vec::new())),
                    Err(WireError::Overloaded {
                        venue: 1,
                        in_flight: 64,
                        limit: 64,
                    }),
                ],
            },
            Frame::MutationOk { id: 4, version: 12 },
            Frame::VenueCreated { id: 7, venue: 4 },
            Frame::Ack { id: 8 },
            Frame::Error {
                id: 9,
                err: WireError::Degraded {
                    venue: 0,
                    detail: "rollback failed".into(),
                },
            },
            Frame::MetricsText {
                id: 12,
                text: "# TYPE indoor_venues gauge\nindoor_venues 2\n".into(),
            },
            Frame::Wal {
                venue: 2,
                lsn: 18,
                record: vec![1, 2, 3, 4],
            },
            Frame::ReplHead {
                venue: 2,
                version: 30,
            },
            Frame::ReplEnd {
                venue: 2,
                err: Some(WireError::NotDurable),
            },
            Frame::ReplEnd {
                venue: 2,
                err: None,
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in sample_frames() {
            let payload = frame.encode_payload();
            let back = Frame::decode_payload(&payload).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        // Worst-case delivery: one byte per read.
        for b in stream {
            dec.extend(&[b]);
            while let Some(f) = dec.next().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_crc_poisons_the_decoder() {
        let mut bytes = Frame::Ping { id: 5 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let err = dec.next().unwrap_err().to_string();
        assert!(err.contains("CRC") || err.contains("crc"), "{err}");
        // Poisoned: even valid bytes afterwards repeat the error.
        dec.extend(&Frame::Ping { id: 6 }.encode());
        dec.next().unwrap_err();
    }

    #[test]
    fn oversized_length_prefix_fails_before_buffering() {
        let mut dec = FrameDecoder::new();
        let mut header = Vec::new();
        header.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&header);
        let err = dec.next().unwrap_err().to_string();
        assert!(err.contains("exceeds cap"), "{err}");
    }

    #[test]
    fn truncated_payload_is_not_an_error_yet() {
        let bytes = Frame::Metrics { id: 1 }.encode();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..bytes.len() - 1]);
        assert_eq!(dec.next().unwrap(), None);
        dec.extend(&bytes[bytes.len() - 1..]);
        assert_eq!(dec.next().unwrap(), Some(Frame::Metrics { id: 1 }));
    }

    #[test]
    fn trailing_bytes_inside_a_payload_are_rejected() {
        let mut payload = Frame::Ping { id: 1 }.encode_payload();
        payload.push(0);
        let err = Frame::decode_payload(&payload).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let err = Frame::decode_payload(&[0x7F]).unwrap_err().to_string();
        assert!(err.contains("unknown tag"), "{err}");
    }

    #[test]
    fn retryability_matches_admission_errors() {
        assert!(WireError::Overloaded {
            venue: 0,
            in_flight: 1,
            limit: 1
        }
        .is_retryable());
        assert!(WireError::Timeout {
            venue: 0,
            in_flight: 1,
            limit: 1
        }
        .is_retryable());
        assert!(!WireError::UnknownVenue { venue: 0 }.is_retryable());
        assert!(!WireError::NotDurable.is_retryable());
    }
}
