//! The request/reply client.
//!
//! [`NetClient`] offers two styles over one connection:
//!
//! * **sequential calls** (`query`, `update_objects`, `metrics`, …): send
//!   one request, wait for its reply. Transient server rejections
//!   ([`WireError::is_retryable`]) retry under the client's
//!   [`RetryPolicy`] — the wire mirror of the in-process convention the
//!   scenario lab uses.
//! * **pipelining** (`send_query` + `recv_answer`): fire any number of
//!   requests before reading a reply. Ids are client-assigned and echoed
//!   by the server, so replies match up regardless of how the server
//!   coalesced the work. This is the path the open-loop load generator
//!   drives.
//!
//! Pipelined sends go out **one write per burst**. A `send_query` with
//! no reply waiting to be collected (nothing decoded or buffered but not
//! yet taken) writes at once, so a caller that fires without reading
//! never waits. A `send_query` made while replies are still waiting —
//! the follow-up to one reply of a burst that arrived together — is
//! held, and the held requests leave in one write when the client is
//! next about to block on the socket (a receive that finds nothing
//! decoded, or a sequential call), or once they pass 64 KiB. The server
//! then reads them together and serves them as one coalesced batch
//! (DESIGN.md §13.2).
//!
//! Pipelined retryable failures are *not* retried automatically — an
//! open-loop caller owns its schedule; it decides whether a shed request
//! is re-sent or counted and dropped.

use crate::{transient, NetError};
use indoor_model::frames::{Frame, FrameDecoder, WireError, NET_MAGIC};
use indoor_model::{
    IndoorPoint, ObjectDelta, ObjectUpdate, QueryRequest, QueryResponse, Venue, VenueId,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use vip_tree::{RetryPolicy, ServiceError, ShardConfig};

/// One pipelined reply: the request id it answers, and the answer or
/// the typed service error.
pub type Reply = (u64, Result<QueryResponse, WireError>);

/// One protocol connection. Not `Sync` — a connection is a serial byte
/// stream; use one client per thread (they are cheap).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Replies read while waiting for a different id (pipelining).
    inbox: VecDeque<Frame>,
    next_id: u64,
    retry: RetryPolicy,
    buf: Vec<u8>,
    /// Encoded requests not yet written: the burst being held while a
    /// reply waits to be collected. Reused from burst to burst.
    out: Vec<u8>,
}

/// Size of the socket read buffer, and the most request bytes a burst
/// holds back before they leave without waiting for a receive.
const BURST_BYTES: usize = 64 * 1024;

impl NetClient {
    /// Connect and handshake. The default [`RetryPolicy`] retries
    /// transient overload rejections; [`NetClient::with_retry`] tunes it.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&NET_MAGIC)?;
        let mut magic = [0u8; NET_MAGIC.len()];
        stream.read_exact(&mut magic).map_err(|_| {
            NetError::Handshake("server closed before presenting protocol magic".into())
        })?;
        if magic != NET_MAGIC {
            return Err(NetError::Handshake(format!(
                "peer magic {magic:02x?} is not the protocol's"
            )));
        }
        Ok(NetClient {
            stream,
            dec: FrameDecoder::new(),
            inbox: VecDeque::new(),
            next_id: 1,
            retry: RetryPolicy::default(),
            buf: vec![0u8; BURST_BYTES],
            out: Vec::new(),
        })
    }

    /// Replace the overload retry policy ([`RetryPolicy::fail_fast`]
    /// surfaces every rejection).
    pub fn with_retry(mut self, retry: RetryPolicy) -> NetClient {
        self.retry = retry;
        self
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let id = self.fresh_id();
        match self.call(Frame::Ping { id }, id)? {
            Frame::Pong { .. } => Ok(()),
            _ => Err(NetError::Unexpected("want Pong")),
        }
    }

    /// Answer one query, retrying transient overload rejections under
    /// the client's [`RetryPolicy`].
    pub fn query(&mut self, venue: u32, req: &QueryRequest) -> Result<QueryResponse, NetError> {
        let retry = self.retry;
        retry.run(NetError::is_retryable, || {
            let id = self.fresh_id();
            match self.call(
                Frame::Query {
                    id,
                    venue,
                    req: req.clone(),
                },
                id,
            )? {
                Frame::Answer { result, .. } => result.map_err(NetError::Server),
                Frame::Error { err, .. } => Err(NetError::Server(err)),
                _ => Err(NetError::Unexpected("want Answer")),
            }
        })
    }

    /// Answer a heterogeneous multi-venue batch; slot `i` answers
    /// `reqs[i]`. Per-slot failures are values, not call failures.
    pub fn query_batch(
        &mut self,
        reqs: &[(u32, QueryRequest)],
    ) -> Result<Vec<Result<QueryResponse, WireError>>, NetError> {
        let id = self.fresh_id();
        match self.call(
            Frame::QueryBatch {
                id,
                reqs: reqs.to_vec(),
            },
            id,
        )? {
            Frame::AnswerBatch { results, .. } => Ok(results),
            Frame::Error { err, .. } => Err(NetError::Server(err)),
            _ => Err(NetError::Unexpected("want AnswerBatch")),
        }
    }

    /// Apply an object-delta batch; returns the venue's post-apply
    /// version.
    pub fn update_objects(&mut self, venue: u32, deltas: &[ObjectDelta]) -> Result<u64, NetError> {
        let id = self.fresh_id();
        let frame = Frame::UpdateObjects {
            id,
            venue,
            deltas: deltas.to_vec(),
        };
        self.mutation(frame, id)
    }

    /// Apply a labelled keyword-delta batch; returns the post-apply
    /// version.
    pub fn update_keywords(
        &mut self,
        venue: u32,
        updates: &[ObjectUpdate],
    ) -> Result<u64, NetError> {
        let id = self.fresh_id();
        let frame = Frame::UpdateKeywords {
            id,
            venue,
            updates: updates.to_vec(),
        };
        self.mutation(frame, id)
    }

    /// Replace a venue's object set wholesale; returns the post-apply
    /// version.
    pub fn attach_objects(&mut self, venue: u32, objects: &[IndoorPoint]) -> Result<u64, NetError> {
        let id = self.fresh_id();
        let frame = Frame::AttachObjects {
            id,
            venue,
            objects: objects.to_vec(),
        };
        self.mutation(frame, id)
    }

    fn mutation(&mut self, frame: Frame, id: u64) -> Result<u64, NetError> {
        match self.call(frame, id)? {
            Frame::MutationOk { version, .. } => Ok(version),
            Frame::Error { err, .. } => Err(NetError::Server(err)),
            _ => Err(NetError::Unexpected("want MutationOk")),
        }
    }

    /// Register a venue server-side; returns the id requests route by.
    pub fn add_venue(&mut self, venue: &Venue, config: &ShardConfig) -> Result<u32, NetError> {
        let mut venue_json = Vec::new();
        venue
            .save_json(&mut venue_json)
            .expect("venue serialises to memory");
        let id = self.fresh_id();
        match self.call(
            Frame::AddVenue {
                id,
                venue_json,
                config: config.encode_wire(),
            },
            id,
        )? {
            Frame::VenueCreated { venue, .. } => Ok(venue),
            Frame::Error { err, .. } => Err(NetError::Server(err)),
            _ => Err(NetError::Unexpected("want VenueCreated")),
        }
    }

    /// Unregister a venue.
    pub fn remove_venue(&mut self, venue: u32) -> Result<(), NetError> {
        let id = self.fresh_id();
        match self.call(Frame::RemoveVenue { id, venue }, id)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Error { err, .. } => Err(NetError::Server(err)),
            _ => Err(NetError::Unexpected("want Ack")),
        }
    }

    /// Fetch the server's telemetry exposition page (Prometheus-style
    /// text; run `indoor_model::metrics::lint_text` over it before
    /// trusting the series).
    pub fn metrics(&mut self) -> Result<String, NetError> {
        let id = self.fresh_id();
        match self.call(Frame::Metrics { id }, id)? {
            Frame::MetricsText { text, .. } => Ok(text),
            Frame::Error { err, .. } => Err(NetError::Server(err)),
            _ => Err(NetError::Unexpected("want MetricsText")),
        }
    }

    // ---- pipelined interface ----

    /// Queue a query without waiting for its reply; returns the id the
    /// reply will echo. The bytes leave at once when no reply is waiting
    /// to be collected. Otherwise they are held, so that follow-ups sent
    /// while draining a burst of replies leave as one write — before the
    /// next receive (or sequential call) blocks on the socket, or as soon
    /// as the held bytes pass 64 KiB.
    pub fn send_query(&mut self, venue: u32, req: QueryRequest) -> Result<u64, NetError> {
        let id = self.fresh_id();
        Frame::Query { id, venue, req }.encode_into(&mut self.out);
        let reply_waiting = self.dec.pending() > 0 || !self.inbox.is_empty();
        if !reply_waiting || self.out.len() > BURST_BYTES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Receive the next in-flight reply, whichever id it answers.
    pub fn recv_answer(&mut self) -> Result<Reply, NetError> {
        loop {
            if let Some(reply) = self.try_recv_answer()? {
                return Ok(reply);
            }
        }
    }

    /// Set the socket read timeout governing [`NetClient::try_recv_answer`]
    /// (and blocking receives, which treat a timeout as "keep waiting").
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Non-blocking flavour of [`NetClient::recv_answer`]: `Ok(None)`
    /// when no complete reply is available within the socket's read
    /// timeout. The open-loop load generator uses this to keep sending
    /// on schedule while replies trickle back.
    pub fn try_recv_answer(&mut self) -> Result<Option<Reply>, NetError> {
        let is_reply = |f: &Frame| matches!(f, Frame::Answer { .. } | Frame::Error { .. });
        if let Some(pos) = self.inbox.iter().position(is_reply) {
            let parked = self.inbox.remove(pos).expect("position just found");
            return Ok(as_reply(parked).ok());
        }
        while let Some(frame) = self.poll_frame()? {
            match as_reply(frame) {
                Ok(reply) => return Ok(Some(reply)),
                // Not a query reply: leave it for a sequential caller.
                Err(other) => self.inbox.push_back(other),
            }
        }
        Ok(None)
    }

    /// Write the held burst, if any.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        sent
    }

    /// Send `frame` (with any held burst ahead of it), then read frames
    /// until the reply bearing `id` arrives (parking unrelated frames in
    /// the inbox).
    fn call(&mut self, frame: Frame, id: u64) -> Result<Frame, NetError> {
        frame.encode_into(&mut self.out);
        self.flush()?;
        if let Some(pos) = self.inbox.iter().position(|f| f.id() == Some(id)) {
            return Ok(self.inbox.remove(pos).expect("position just found"));
        }
        loop {
            let frame = self.read_frame()?;
            if frame.id() == Some(id) {
                return Ok(frame);
            }
            self.inbox.push_back(frame);
        }
    }

    /// Blocking read of the next complete frame. A read timeout set
    /// through [`NetClient::set_read_timeout`] only bounds
    /// `try_recv_answer`: here an elapsed quantum means "keep waiting".
    fn read_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.poll_frame()? {
                return Ok(frame);
            }
        }
    }

    /// The next complete frame, or `None` when the socket's read timeout
    /// elapses first. The held burst leaves before the read blocks.
    fn poll_frame(&mut self) -> Result<Option<Frame>, NetError> {
        loop {
            if let Some(frame) = self.dec.next()? {
                return Ok(Some(frame));
            }
            self.flush()?;
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.dec.extend(&self.buf[..n]),
                Err(e) if transient(&e) => return Ok(None),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// A query reply as the pipelined interface returns it; any other frame
/// comes back unchanged.
fn as_reply(frame: Frame) -> Result<Reply, Frame> {
    match frame {
        Frame::Answer { id, result } => Ok((id, result)),
        Frame::Error { id, err } => Ok((id, Err(err))),
        other => Err(other),
    }
}

/// Convert a typed wire failure back into the in-process error
/// vocabulary where that helps callers reuse service-level handling
/// (admission rejections keep venue/occupancy detail; everything else
/// keeps its rendered message).
pub fn service_error(e: &WireError) -> ServiceError {
    use std::sync::Arc;
    match e {
        WireError::UnknownVenue { venue } => ServiceError::UnknownVenue(VenueId::from(*venue)),
        WireError::Overloaded {
            venue,
            in_flight,
            limit,
        } => ServiceError::Overloaded {
            venue: VenueId::from(*venue),
            in_flight: *in_flight as usize,
            limit: *limit as usize,
        },
        WireError::Timeout {
            venue,
            in_flight,
            limit,
        } => ServiceError::Timeout {
            venue: VenueId::from(*venue),
            in_flight: *in_flight as usize,
            limit: *limit as usize,
        },
        other => {
            ServiceError::Replication(VenueId::from(0u32), Arc::from(other.to_string().as_str()))
        }
    }
}

// `wire_error` and `service_error` are near-inverses; keep both sides
// honest with a round-trip check on the retryable pair.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire_error;

    #[test]
    fn admission_errors_round_trip_between_vocabularies() {
        let e = ServiceError::Overloaded {
            venue: VenueId::from(3u32),
            in_flight: 9,
            limit: 8,
        };
        assert_eq!(service_error(&wire_error(&e)), e);
        let t = ServiceError::Timeout {
            venue: VenueId::from(1u32),
            in_flight: 4,
            limit: 4,
        };
        assert_eq!(service_error(&wire_error(&t)), t);
    }
}
