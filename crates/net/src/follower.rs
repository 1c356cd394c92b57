//! Follower side of WAL-shipping replication.
//!
//! A follower is a **volatile** [`IndoorService`] (it must not
//! re-journal shipped records — see `vip_tree::apply_replicated`) fed by
//! a `Replicate` stream: connect, subscribe from the first LSN still
//! needed, apply every [`Frame::Wal`] record in order through the same
//! replay paths restart recovery uses. Because the leader ships the
//! journalled payload bytes verbatim and the follower applies them
//! through the recovery code, the replica's answers are byte-identical
//! to the leader's for every query kind.
//!
//! Catch-up is explicit in the protocol: the stream head carries the
//! leader's version at subscribe time, which the follower records via
//! [`IndoorService::note_leader_version`] so `replication_lag` in its
//! shard stats counts down to 0 as the backlog drains — and live
//! tailing afterwards keeps it at 0.
//!
//! [`IndoorService`]: vip_tree::IndoorService
//! [`IndoorService::note_leader_version`]: vip_tree::IndoorService::note_leader_version

use crate::NetError;
use indoor_model::frames::{Frame, FrameDecoder, NET_MAGIC};
use indoor_model::VenueId;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use vip_tree::IndoorService;

/// What a replication session accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaReport {
    /// The venue replicated (leader id = follower id).
    pub venue: VenueId,
    /// Records applied this session.
    pub applied: u64,
    /// The replica's version after the last applied record.
    pub version: u64,
    /// The leader's version from the stream head (the catch-up target
    /// at subscribe time; live tailing can push `version` past it).
    pub head: u64,
}

/// An open replication stream, past its handshake and `ReplHead`.
#[derive(Debug)]
pub struct ReplicaStream {
    stream: TcpStream,
    dec: FrameDecoder,
    venue: VenueId,
    head: u64,
    applied: u64,
    buf: Vec<u8>,
}

/// Connect to a leader and subscribe to `venue`'s WAL from `from_lsn`
/// (`0` bootstraps the venue from its birth record; `v + 1` resumes a
/// replica already at version `v`). Fails with the leader's typed
/// refusal if the suffix is unavailable.
pub fn subscribe(
    addr: impl ToSocketAddrs,
    venue: VenueId,
    from_lsn: u64,
) -> Result<ReplicaStream, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(&NET_MAGIC)?;
    let mut magic = [0u8; NET_MAGIC.len()];
    stream
        .read_exact(&mut magic)
        .map_err(|_| NetError::Handshake("leader closed before presenting magic".into()))?;
    if magic != NET_MAGIC {
        return Err(NetError::Handshake(format!(
            "peer magic {magic:02x?} is not the protocol's"
        )));
    }
    stream.write_all(
        &Frame::Replicate {
            venue: venue.index() as u32,
            from_lsn,
        }
        .encode(),
    )?;
    let mut rs = ReplicaStream {
        stream,
        dec: FrameDecoder::new(),
        venue,
        head: 0,
        applied: 0,
        buf: vec![0u8; 64 * 1024],
    };
    match rs.read_frame()? {
        Some(Frame::ReplHead { version, .. }) => {
            rs.head = version;
            Ok(rs)
        }
        Some(Frame::ReplEnd { err, .. }) => Err(match err {
            Some(e) => NetError::Server(e),
            None => NetError::Closed,
        }),
        Some(_) => Err(NetError::Unexpected("want ReplHead")),
        None => Err(NetError::Closed),
    }
}

impl ReplicaStream {
    /// The leader's version at subscribe time — the catch-up target.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Apply stream records to `service` until its replica of the venue
    /// reaches the stream head, then return (the stream stays open for
    /// [`ReplicaStream::tail`]). The first applied record registers the
    /// venue, after which the leader's version is noted so
    /// `replication_lag` counts down as the backlog drains.
    pub fn catch_up(&mut self, service: &IndoorService) -> Result<ReplicaReport, NetError> {
        // An unregistered venue always needs its Create record; a
        // registered replica is caught up once it reaches the head (so a
        // resume at `head` returns immediately instead of blocking on
        // the live stream).
        while service.version(self.venue).map_or(true, |v| v < self.head) {
            if !self.step(service)? {
                break;
            }
        }
        Ok(self.report(service))
    }

    /// Keep applying live records until the leader closes the stream
    /// (or ends it with `ReplEnd`), or `stop` is raised. The replica
    /// tracks the leader in real time while this runs.
    pub fn tail(
        &mut self,
        service: &IndoorService,
        stop: &AtomicBool,
    ) -> Result<ReplicaReport, NetError> {
        self.stream
            .set_read_timeout(Some(Duration::from_millis(20)))?;
        loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            match self.step(service) {
                Ok(true) => {}
                Ok(false) => break,
                Err(NetError::Io(e)) if crate::transient(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.report(service))
    }

    fn report(&self, service: &IndoorService) -> ReplicaReport {
        ReplicaReport {
            venue: self.venue,
            applied: self.applied,
            version: service.version(self.venue).unwrap_or(0),
            head: self.head,
        }
    }

    /// Apply the next stream frame: `Ok(true)` applied one record,
    /// `Ok(false)` the stream ended (leader close, `ReplEnd`, or venue
    /// removal).
    fn step(&mut self, service: &IndoorService) -> Result<bool, NetError> {
        let frame = match self.read_frame()? {
            Some(f) => f,
            None => return Ok(false),
        };
        match frame {
            Frame::Wal { record, lsn, .. } => {
                let version = service
                    .apply_replicated(self.venue, &record)
                    .map_err(|e| NetError::Server(crate::wire_error(&e)))?;
                self.applied += 1;
                // A Remove record unregisters the replica; the stream is
                // over for this venue.
                if version == u64::MAX {
                    return Ok(false);
                }
                debug_assert_eq!(version, lsn, "applied version tracks the shipped LSN");
                let _ = service.note_leader_version(self.venue, self.head.max(version));
                Ok(true)
            }
            Frame::ReplEnd { err: Some(e), .. } => Err(NetError::Server(e)),
            Frame::ReplEnd { err: None, .. } => Ok(false),
            _ => Err(NetError::Unexpected("want Wal or ReplEnd")),
        }
    }

    /// Read the next frame; `None` on leader close.
    fn read_frame(&mut self) -> Result<Option<Frame>, NetError> {
        loop {
            if let Some(f) = self.dec.next()? {
                return Ok(Some(f));
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.dec.extend(&self.buf[..n]);
        }
    }
}
