//! The blocking-thread TCP server.
//!
//! One accept thread polls a non-blocking listener; each accepted
//! connection gets its own thread. A connection thread alternates
//! between draining the socket into its [`FrameDecoder`] and serving
//! every frame that drain completed — which is where pipelining pays:
//! all query frames a client had in flight at drain time coalesce into
//! **one** [`IndoorService::execute_batch`] call, so a depth-`d`
//! pipeline gets batch execution without any client-side batching API.
//! That call runs on the connection's own thread (a one-venue batch
//! starts no other), requests move out of their frames into it, and
//! replies encode into one buffer the connection keeps, which leaves in
//! one write per drain: between the socket read and the socket write a
//! request pays for its answer only.
//!
//! Backpressure is typed, not transport-level: an admission rejection
//! ([`ServiceError::Overloaded`] / [`ServiceError::Timeout`]) becomes a
//! [`WireError`] reply for exactly the rejected requests; the connection
//! itself never drops. A *framing* error, by contrast, poisons the
//! decoder (byte boundaries are untrustworthy from then on), and the
//! contract is a clean connection close — the client observes EOF, never
//! a panic and never a garbage reply.
//!
//! A [`Frame::Replicate`] subscription flips the connection into a
//! one-way WAL stream: `ReplHead`, the on-disk backlog, then live
//! appends as the leader journals them (see `vip_tree::wal_subscribe`
//! for the no-gap/no-duplicate cut argument). The stream ends with
//! `ReplEnd` on server shutdown or venue removal.
//!
//! [`ServiceError::Overloaded`]: vip_tree::ServiceError::Overloaded
//! [`ServiceError::Timeout`]: vip_tree::ServiceError::Timeout

use crate::{transient, wire_error};
use indoor_model::frames::{Frame, FrameDecoder, WireError, NET_MAGIC};
use indoor_model::{Venue, VenueId};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vip_tree::{IndoorService, Mutation, QueryRequest, ShardConfig};

/// Tuning knobs for the serving loops.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Socket read timeout — the quantum at which idle connection
    /// threads re-check the stop flag (and replication streams probe
    /// for a closed peer).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// A running server: owns the accept thread, which owns the connection
/// threads. Dropping (or [`NetServer::stop`]) signals every thread and
/// joins them — in-flight replies finish, replication streams end with
/// a clean `ReplEnd`.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind and serve `service` on `addr` (use port 0 for an ephemeral
    /// port; [`NetServer::local_addr`] reports the bound one).
    pub fn bind(service: Arc<IndoorService>, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        NetServer::bind_with(service, addr, ServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit tuning.
    pub fn bind_with(
        service: Arc<IndoorService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept = std::thread::spawn(move || accept_loop(listener, service, config, stop2));
        Ok(NetServer {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signal every serving thread and join them. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<IndoorService>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = service.clone();
                let stop = stop.clone();
                conns.push(std::thread::spawn(move || {
                    // Transport errors mean the peer is gone; there is
                    // nobody left to report them to.
                    let _ = serve_conn(&service, stream, config, &stop);
                }));
            }
            Err(e) if transient(&e) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Read once into `buf`: `Some(n)` bytes arrived (0 = peer closed),
/// `None` = timeout quantum elapsed (caller re-checks the stop flag).
fn read_quantum(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    match stream.read(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e) if transient(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

fn serve_conn(
    service: &IndoorService,
    mut stream: TcpStream,
    config: ServerConfig,
    stop: &AtomicBool,
) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.write_all(&NET_MAGIC)?;
    let mut magic = [0u8; NET_MAGIC.len()];
    let mut got = 0;
    while got < magic.len() {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match read_quantum(&mut stream, &mut magic[got..])? {
            Some(0) => return Ok(()),
            Some(n) => got += n,
            None => {}
        }
    }
    if magic != NET_MAGIC {
        // Not our protocol; close without guessing at a reply format.
        return Ok(());
    }

    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    // Reused across drains: once they have grown to the connection's
    // largest burst, serving a request allocates only what its answer owns.
    let mut frames: Vec<Frame> = Vec::new();
    let mut slots: Vec<(VenueId, QueryRequest)> = Vec::new();
    let mut shapes: Vec<ReplyShape> = Vec::new();
    let mut reply: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match read_quantum(&mut stream, &mut buf)? {
            Some(0) => return Ok(()),
            Some(n) => dec.extend(&buf[..n]),
            None => continue,
        }
        // Poisoned framing: the byte boundaries are gone, so the contract
        // is a clean close — the frames decoded ahead of the break are
        // still answered, then the client sees EOF.
        let poisoned = loop {
            match dec.next() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        // Every reply this drain produces goes out in one write.
        reply.clear();
        let mut drained = frames.drain(..).peekable();
        while let Some(frame) = drained.next() {
            match frame {
                frame if is_query(&frame) => {
                    // Coalesce the run of query frames this one starts,
                    // moving their requests into the slot vector.
                    slots.clear();
                    shapes.clear();
                    let mut take = |f: Frame| match f {
                        Frame::Query { id, venue, req } => {
                            shapes.push((id, None));
                            slots.push((VenueId::from(venue), req));
                        }
                        Frame::QueryBatch { id, reqs } => {
                            shapes.push((id, Some(reqs.len())));
                            slots.extend(reqs.into_iter().map(|(v, r)| (VenueId::from(v), r)));
                        }
                        _ => unreachable!("`is_query` admits only query frames"),
                    };
                    take(frame);
                    while let Some(f) = drained.next_if(is_query) {
                        take(f);
                    }
                    answer_queries(service, &slots, &shapes, &mut reply);
                }
                // The subscription consumes the connection: it becomes a
                // one-way WAL stream until peer close or server stop.
                Frame::Replicate { venue, from_lsn } => {
                    stream.write_all(&reply)?;
                    return serve_replication(service, stream, venue, from_lsn, stop);
                }
                // Anything `serve_admin` does not know is a server→client
                // frame sent the wrong way: answer the frames ahead of it,
                // then close.
                admin => match serve_admin(service, &admin) {
                    Some(answer) => answer.encode_into(&mut reply),
                    None => return stream.write_all(&reply),
                },
            }
        }
        stream.write_all(&reply)?;
        if poisoned {
            return Ok(());
        }
    }
}

fn is_query(f: &Frame) -> bool {
    matches!(f, Frame::Query { .. } | Frame::QueryBatch { .. })
}

/// How one query frame is answered: its id and, for a `QueryBatch`, how
/// many slots it owns (`None` = a single `Query`).
type ReplyShape = (u64, Option<usize>);

/// Serve a coalesced run of query frames with one `execute_batch` call —
/// on this connection's thread; a one-venue run starts no other — then
/// fan the slot results back out to per-frame replies appended to `reply`.
fn answer_queries(
    service: &IndoorService,
    slots: &[(VenueId, QueryRequest)],
    shapes: &[ReplyShape],
    reply: &mut Vec<u8>,
) {
    let mut results = service
        .execute_batch(slots)
        .into_iter()
        .map(|r| r.map_err(|e| wire_error(&e)));
    for &(id, batch) in shapes {
        match batch {
            None => {
                let result = results.next().expect("one result per slot");
                Frame::Answer { id, result }.encode_into(reply);
            }
            Some(n) => {
                let results = results.by_ref().take(n).collect();
                Frame::AnswerBatch { id, results }.encode_into(reply);
            }
        }
    }
}

/// Answer one non-query, non-replication frame; `None` when the peer
/// violated the protocol and the connection must close.
fn serve_admin(service: &IndoorService, frame: &Frame) -> Option<Frame> {
    Some(match frame {
        Frame::Ping { id } => Frame::Pong { id: *id },
        Frame::UpdateObjects { id, venue, deltas } => {
            mutation_reply(service, *id, *venue, Mutation::Deltas(deltas.into()))
        }
        Frame::UpdateKeywords { id, venue, updates } => mutation_reply(
            service,
            *id,
            *venue,
            Mutation::KeywordUpdates(updates.into()),
        ),
        Frame::AttachObjects { id, venue, objects } => {
            mutation_reply(service, *id, *venue, Mutation::Attach(objects.into()))
        }
        Frame::AddVenue {
            id,
            venue_json,
            config,
        } => serve_add_venue(service, *id, venue_json, config),
        Frame::RemoveVenue { id, venue } => match service.remove_venue(VenueId::from(*venue)) {
            Ok(()) => Frame::Ack { id: *id },
            Err(e) => Frame::Error {
                id: *id,
                err: wire_error(&e),
            },
        },
        Frame::Metrics { id } => Frame::MetricsText {
            id: *id,
            text: indoor_model::metrics::encode_text(&service.metrics_snapshot()),
        },
        // Query/QueryBatch/Replicate are routed before this function;
        // anything else is a server→client frame sent the wrong way.
        _ => return None,
    })
}

/// Run a mutation and reply `MutationOk` with the version it published
/// — its own LSN, whatever other connections did to the venue meanwhile —
/// or the typed error.
fn mutation_reply(service: &IndoorService, id: u64, venue: u32, mutation: Mutation<'_>) -> Frame {
    match service.mutate(VenueId::from(venue), mutation) {
        Ok((version, _)) => Frame::MutationOk { id, version },
        Err(e) => Frame::Error {
            id,
            err: wire_error(&e),
        },
    }
}

fn serve_add_venue(service: &IndoorService, id: u64, venue_json: &[u8], config: &[u8]) -> Frame {
    let malformed = |detail: String| Frame::Error {
        id,
        err: WireError::Malformed { detail },
    };
    let venue = match Venue::load_json(venue_json) {
        Ok(v) => v,
        Err(e) => return malformed(format!("venue json: {e}")),
    };
    let config = match ShardConfig::decode_wire(config) {
        Ok(c) => c,
        Err(e) => return malformed(format!("shard config: {e}")),
    };
    match service.add_venue(Arc::new(venue), config) {
        Ok(venue) => Frame::VenueCreated {
            id,
            venue: venue.index() as u32,
        },
        Err(e) => Frame::Error {
            id,
            err: wire_error(&e),
        },
    }
}

/// Serve a `Replicate` subscription: head, on-disk backlog, then live
/// appends until the peer closes, the venue's taps drop (removal), or
/// the server stops.
fn serve_replication(
    service: &IndoorService,
    mut stream: TcpStream,
    venue: u32,
    from_lsn: u64,
    stop: &AtomicBool,
) -> io::Result<()> {
    let vid = VenueId::from(venue);
    let sub = match service.wal_subscribe(vid, from_lsn) {
        Ok(sub) => sub,
        Err(e) => {
            let err = if !service.is_durable() {
                WireError::NotDurable
            } else {
                wire_error(&e)
            };
            return stream.write_all(
                &Frame::ReplEnd {
                    venue,
                    err: Some(err),
                }
                .encode(),
            );
        }
    };
    let mut out = Frame::ReplHead {
        venue,
        version: sub.version,
    }
    .encode();
    for (lsn, payload) in &sub.backlog {
        Frame::Wal {
            venue,
            lsn: *lsn,
            record: payload.to_vec(),
        }
        .encode_into(&mut out);
    }
    stream.write_all(&out)?;

    let mut probe = [0u8; 1];
    loop {
        if stop.load(Ordering::Acquire) {
            return stream.write_all(&Frame::ReplEnd { venue, err: None }.encode());
        }
        match sub.live.recv_timeout(Duration::from_millis(20)) {
            Ok(first) => {
                // One write carries every record the tap holds by now,
                // in LSN order.
                out.clear();
                for (lsn, payload) in std::iter::once(first).chain(sub.live.try_iter()) {
                    Frame::Wal {
                        venue,
                        lsn,
                        record: payload.to_vec(),
                    }
                    .encode_into(&mut out);
                }
                stream.write_all(&out)?;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Idle: probe for a silently departed peer so the thread
                // does not outlive the follower. The protocol is one-way
                // here, so any byte from the peer is a violation — close.
                match read_quantum(&mut stream, &mut probe)? {
                    Some(0) => return Ok(()),
                    Some(_) => return Ok(()),
                    None => {}
                }
            }
            // Venue removed: its shard (and every tap sender) is gone.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return stream.write_all(&Frame::ReplEnd { venue, err: None }.encode());
            }
        }
    }
}
