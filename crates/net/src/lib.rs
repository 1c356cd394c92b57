//! Network front-end for the indoor query service: a blocking-thread TCP
//! server speaking the length-prefixed CRC-framed protocol of
//! [`indoor_model::frames`], a pipelining client, and WAL-shipping
//! replication (leader stream serving + follower apply loop).
//!
//! # Shape
//!
//! * [`NetServer`] — binds a listener, spawns one thread per connection.
//!   Each connection drains its socket into a [`FrameDecoder`], coalesces
//!   every query frame buffered at that moment into **one**
//!   [`IndoorService::execute_batch`] call (pipelined clients batch
//!   themselves), writes every reply of the drain in one write, and answers
//!   admission rejections with typed
//!   [`WireError::Overloaded`] / [`WireError::Timeout`] replies — an
//!   overloaded server degrades per-request, it never drops connections.
//! * [`NetClient`] — sequential request/reply calls plus a pipelined
//!   `send_query`/`recv_answer` pair that writes once per burst: a send
//!   made while replies wait to be collected is held until the client is
//!   about to block on the socket, so follow-ups to one burst of replies
//!   arrive together and coalesce server-side. Transient server
//!   rejections retry under a [`RetryPolicy`].
//! * [`follower`] — opens a `Replicate` stream and applies shipped WAL
//!   records through [`IndoorService::apply_replicated`], producing a
//!   replica whose answers are byte-identical to the leader's.
//!
//! Everything is `std`: blocking sockets with read timeouts, threads, and
//! mpsc — no async runtime. DESIGN.md §13 states the protocol and
//! replication contracts this crate implements.
//!
//! [`FrameDecoder`]: indoor_model::frames::FrameDecoder
//! [`IndoorService`]: vip_tree::IndoorService
//! [`IndoorService::execute_batch`]: vip_tree::IndoorService::execute_batch
//! [`IndoorService::apply_replicated`]: vip_tree::IndoorService::apply_replicated
//! [`WireError::Overloaded`]: indoor_model::frames::WireError::Overloaded
//! [`WireError::Timeout`]: indoor_model::frames::WireError::Timeout
//! [`RetryPolicy`]: vip_tree::RetryPolicy

mod client;
pub mod follower;
mod server;

pub use client::{service_error, NetClient, Reply};
pub use server::{NetServer, ServerConfig};

use indoor_model::frames::WireError;
use indoor_model::LoadError;
use std::io;

/// Client-side failures: transport, framing, handshake, or a typed
/// server-side error carried over the wire.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer's byte stream violated the framing or a frame's encoding.
    /// The connection is poisoned — close it.
    Protocol(LoadError),
    /// The peer did not present the protocol magic.
    Handshake(String),
    /// The server answered with a typed failure. Retryable iff
    /// [`WireError::is_retryable`].
    Server(WireError),
    /// The peer replied with a frame kind the protocol state does not
    /// allow (e.g. a `MutationOk` to a query).
    Unexpected(&'static str),
    /// The peer closed the connection mid-exchange.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::Handshake(d) => write!(f, "handshake failed: {d}"),
            NetError::Server(e) => write!(f, "server error: {e}"),
            NetError::Unexpected(what) => write!(f, "unexpected reply frame: {what}"),
            NetError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            NetError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<LoadError> for NetError {
    fn from(e: LoadError) -> NetError {
        NetError::Protocol(e)
    }
}

impl NetError {
    /// Whether retrying the request (with backoff) can succeed: true
    /// exactly for the server's admission-layer rejections.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Server(e) if e.is_retryable())
    }
}

/// A socket error that means "nothing yet", not "broken": the read
/// timeout elapsed or a signal interrupted the call.
pub(crate) fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Map a service-side error to its wire mirror. `VenueId` crosses as its
/// raw index; detail strings as rendered messages.
pub(crate) fn wire_error(e: &vip_tree::ServiceError) -> WireError {
    use vip_tree::ServiceError as E;
    match e {
        E::UnknownVenue(v) => WireError::UnknownVenue {
            venue: v.index() as u32,
        },
        E::Overloaded {
            venue,
            in_flight,
            limit,
        } => WireError::Overloaded {
            venue: venue.index() as u32,
            in_flight: *in_flight as u64,
            limit: *limit as u64,
        },
        E::Timeout {
            venue,
            in_flight,
            limit,
        } => WireError::Timeout {
            venue: venue.index() as u32,
            in_flight: *in_flight as u64,
            limit: *limit as u64,
        },
        E::OutOfVenue(..) => WireError::Malformed {
            detail: e.to_string(),
        },
        E::Delta(v, d) => WireError::Delta {
            venue: v.index() as u32,
            detail: d.to_string(),
        },
        E::Build(b) => WireError::Build {
            detail: b.to_string(),
        },
        E::Persist(v, p) => WireError::Persist {
            venue: v.index() as u32,
            detail: p.to_string(),
        },
        E::Degraded(v, r) => WireError::Degraded {
            venue: v.index() as u32,
            detail: r.to_string(),
        },
        E::Replication(v, d) => WireError::LogUnavailable {
            venue: v.index() as u32,
            detail: d.to_string(),
        },
    }
}
