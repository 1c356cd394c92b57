//! Set-up, the generator lanes, and the answer checks — the pieces both
//! the end-to-end run and the traced run are made of.

use crate::estimators::Summary;
use crate::oracle::Oracle;
use crate::phase::{slice_ops, Lanes, Slice, Slicer, CALIBRATION};
use crate::workloads::{Batch, Plan, WRITER_BATCHES_PER_S};
use indoor_model::frames::Frame;
use indoor_model::{QueryKind, QueryRequest, QueryResponse, VenueId};
use indoor_net::{NetClient, NetError, NetServer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vip_tree::{IndoorService, RetryPolicy, ShardConfig, TreeHandle};

/// Requests of the stream replayed at the end of every set-up: fills
/// the result cache and the scratch pools.
pub const WARM_OPS: usize = 16_384;
/// Every 256th shortest-distance request of the stream has its answers
/// compared with the oracle; every 64th wire reply with the service.
const SD_CHECK_EVERY: usize = 256;
const REPLY_CHECK_EVERY: u64 = 64;
/// Wire generator shape: two connections, four requests in flight each.
pub const WIRE_CONNECTIONS: usize = 2;
const WIRE_DEPTH: usize = 4;
/// The writer snapshots into the durability directory after every
/// 1 400th batch: a rotation every 2.8 s at 500 batches/s, and never on
/// the last batch of a whole number of seconds, so the reopen always has
/// a log suffix to replay.
pub const SNAPSHOT_EVERY: u64 = 1400;

/// `benchmark/out/`: the span files and the durable workload's
/// directories. Inside the checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A directory under [`out_dir`], unique to this process, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temporary directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nobody to report to; a leftover lands in the ignored `out/`.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up times of one run and the memory the first set-up added.
pub struct SetupStats {
    pub times_s: Vec<f64>,
    pub resident_mib: f64,
}

impl SetupStats {
    pub fn setup_s(&self) -> Summary {
        Summary::of(&self.times_s)
    }
}

/// Run `make` several times, timing each, and keep the last product: at
/// least three times, then on until the set-ups have taken three seconds
/// together, fifteen times at most. `setup_s` is the median, so one
/// disturbed set-up does not decide it. Memory growth is read across the
/// first.
pub fn repeat_setup<T>(mut make: impl FnMut() -> T) -> (T, SetupStats) {
    // Hand the allocator's free pages back first: compiling the stream
    // leaves tens of MiB of holes that are resident but free, and a
    // set-up that lands in them would seem to cost no memory.
    crate::host::trim_heap();
    let resident_before = crate::host::resident_mib();
    let t = Instant::now();
    let mut product = make();
    let mut times_s = vec![t.elapsed().as_secs_f64()];
    let resident_mib = crate::host::resident_mib() - resident_before;
    while times_s.len() < 3 || (times_s.len() < 15 && times_s.iter().sum::<f64>() < 3.0) {
        drop(product);
        let t = Instant::now();
        product = make();
        times_s.push(t.elapsed().as_secs_f64());
    }
    (
        product,
        SetupStats {
            times_s,
            resident_mib,
        },
    )
}

/// A service with the plan's venue registered on it.
pub struct Served {
    pub svc: Arc<IndoorService>,
    pub venue: VenueId,
}

impl Served {
    /// Register the plan's venue on `svc` under `config` (tree build,
    /// objects, keyword index, WAL birth on a durable service) and force
    /// every lazy leaf grid, so that the index has its full size before
    /// it is measured.
    pub fn register(svc: IndoorService, plan: &Plan, config: ShardConfig) -> Served {
        let venue = svc
            .add_venue(plan.venue.clone(), config)
            .expect("benchmark venue builds");
        let served = Served {
            svc: Arc::new(svc),
            venue,
        };
        served.tree().ip_tree().build_leaf_grid();
        served
    }

    pub fn volatile(plan: &Plan) -> Served {
        Served::register(IndoorService::new(), plan, plan.config.clone())
    }

    pub fn durable(plan: &Plan, dir: &Path) -> Served {
        Served::register(
            IndoorService::open(dir).expect("open durable service"),
            plan,
            plan.config.clone(),
        )
    }

    pub fn tree(&self) -> Arc<vip_tree::VipTree> {
        let engine = self.svc.engine(self.venue).expect("venue registered");
        match engine.tree() {
            TreeHandle::Vip(tree) => tree.clone(),
            TreeHandle::Ip(_) => unreachable!("service shards are VIP-trees"),
        }
    }

    /// Bytes of every index the venue holds — tree with slabs and leaf
    /// grids, object index, keyword object index — in MiB. Exact.
    pub fn index_mib(&self) -> f64 {
        let engine = self.svc.engine(self.venue).expect("venue registered");
        let objects = engine.tree().ip().object_index();
        let keywords = engine.keywords();
        let bytes = self.tree().size_bytes()
            + objects.map_or(0, |o| o.size_bytes())
            + keywords.map_or(0, |k| k.object_index().size_bytes());
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Replay the first [`WARM_OPS`] requests of the stream: the last
    /// step of a set-up, ahead of the measured phase.
    pub fn warm_up(&self, plan: &Plan) {
        for req in plan.queries.iter().take(WARM_OPS) {
            std::hint::black_box(self.svc.execute(self.venue, req).expect("warm-up query"));
        }
    }
}

/// A loopback server over a volatile service, with its generator
/// connections.
pub struct Wired {
    // Field order is drop order: connections close before the server
    // joins its threads.
    pub clients: Vec<NetClient>,
    _server: NetServer,
    pub served: Served,
}

impl Wired {
    pub fn new(plan: &Plan) -> Wired {
        let served = Served::volatile(plan);
        let server = NetServer::bind(served.svc.clone(), "127.0.0.1:0").expect("bind loopback");
        let clients = (0..WIRE_CONNECTIONS)
            .map(|_| {
                NetClient::connect(server.local_addr())
                    .expect("connect to loopback server")
                    .with_retry(RetryPolicy::fail_fast())
            })
            .collect();
        Wired {
            clients,
            _server: server,
            served,
        }
    }

    /// Replay the first [`WARM_OPS`] requests over the first connection,
    /// pipelined.
    pub fn warm_up(&mut self, plan: &Plan) {
        let venue = self.served.venue.index() as u32;
        let client = &mut self.clients[0];
        let mut in_flight = 0;
        for req in plan.queries.iter().take(WARM_OPS) {
            if in_flight == WIRE_DEPTH {
                let (_, answer) = client.recv_answer().expect("warm-up reply");
                answer.expect("warm-up answer");
                in_flight -= 1;
            }
            client.send_query(venue, req.clone()).expect("warm-up send");
            in_flight += 1;
        }
        for _ in 0..in_flight {
            let (_, answer) = client.recv_answer().expect("warm-up reply");
            answer.expect("warm-up answer");
        }
    }
}

/// Which stream positions have their answers checked against the
/// oracle: every 256th shortest-distance request. Fixed per stream, so
/// however often the generators cycle it, the oracle runs once per
/// marked position.
pub fn distance_checks(queries: &[QueryRequest]) -> Vec<bool> {
    let mut seen = 0usize;
    queries
        .iter()
        .map(|req| {
            let sd = req.kind() == QueryKind::ShortestDistance;
            seen += usize::from(sd);
            sd && seen % SD_CHECK_EVERY == 1
        })
        .collect()
}

/// Answers a lane set aside for checking after the phase.
#[derive(Default)]
pub struct Samples {
    /// `(stream position, distance answered)` at the marked positions.
    pub distances: Vec<(u32, Option<f64>)>,
    /// `(stream position, reply)` of every 64th wire reply.
    pub replies: Vec<(u32, QueryResponse)>,
}

/// What one generator lane did.
#[derive(Default)]
pub struct LaneReport {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Samples,
}

impl LaneReport {
    pub fn merge(&mut self, other: LaneReport) {
        self.slices.extend(other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.distances.extend(other.samples.distances);
        self.samples.replies.extend(other.samples.replies);
    }

    fn observe(&mut self, checks: &[bool], at: usize, resp: &QueryResponse) {
        if checks[at] {
            match resp.distance() {
                Some(d) => self.samples.distances.push((at as u32, d)),
                // A marked position is a distance request.
                None => self.failed += 1,
            }
        }
    }
}

/// Positions `start, start + stride, ...` of a stream of `len`
/// requests, cycling.
struct Cursor {
    at: usize,
    stride: usize,
    len: usize,
}

impl Cursor {
    fn next(&mut self) -> usize {
        let at = self.at;
        self.at = (self.at + self.stride) % self.len;
        at
    }
}

/// What a lane needs to know about the phase it runs in.
pub struct LaneContext<'a> {
    pub plan: &'a Plan,
    pub checks: &'a [bool],
    pub lanes: &'a Lanes,
    /// All generator threads of the phase start together.
    pub go: &'a Barrier,
    pub run_for: Duration,
}

/// One in-process closed-loop client: the next request leaves when the
/// previous answer has arrived. Latency is the distance between
/// consecutive clock reads — one read per operation, never a start/stop
/// pair around an operation that may take 0.3 us.
pub fn inproc_lane(
    ctx: &LaneContext<'_>,
    served: &Served,
    lane: usize,
    start: usize,
) -> LaneReport {
    let queries = &ctx.plan.queries;
    let mut cursor = Cursor {
        at: start % queries.len(),
        stride: 1,
        len: queries.len(),
    };
    let mut report = LaneReport::default();
    ctx.go.wait();

    let t = Instant::now();
    let mut calibrated = 0u64;
    while t.elapsed() < CALIBRATION {
        let _ = std::hint::black_box(served.svc.execute(served.venue, &queries[cursor.next()]));
        calibrated += 1;
    }
    let per_slice = slice_ops(calibrated, t.elapsed());

    let begin = Instant::now();
    let deadline = begin + ctx.run_for;
    let mut slicer = Slicer::begin(ctx.lanes, lane, per_slice, begin);
    let mut prev = begin;
    loop {
        let at = cursor.next();
        let result = served.svc.execute(served.venue, &queries[at]);
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        report.attempted += 1;
        match &result {
            Ok(resp) => report.observe(ctx.checks, at, resp),
            Err(_) => report.failed += 1,
        }
        prev = slicer.record(now, now - prev).unwrap_or(now);
    }
    report.slices = slicer.slices;
    report
}

struct InFlight {
    id: u64,
    at: usize,
    sent: Instant,
}

/// Keep [`WIRE_DEPTH`] requests in flight on `client` until a reply
/// arrives at or after `until`, then drain. `on_reply` sees every reply
/// before the drain: when it arrived, its latency from its own send
/// stamp, its stream position, and the answer (`None` for a typed
/// server error). One clock read per reply: the next request leaves on
/// the read that timed the reply.
fn pump(
    client: &mut NetClient,
    venue: u32,
    queries: &[QueryRequest],
    cursor: &mut Cursor,
    until: Instant,
    on_reply: &mut dyn FnMut(Instant, Duration, usize, Option<QueryResponse>),
) -> Result<(), NetError> {
    let mut flying: Vec<InFlight> = Vec::with_capacity(WIRE_DEPTH);
    for _ in 0..WIRE_DEPTH {
        let at = cursor.next();
        let id = client.send_query(venue, queries[at].clone())?;
        flying.push(InFlight {
            id,
            at,
            sent: Instant::now(),
        });
    }
    loop {
        let (id, result) = client.recv_answer()?;
        let now = Instant::now();
        let slot = flying
            .iter()
            .position(|f| f.id == id)
            .expect("reply to a request in flight");
        on_reply(now, now - flying[slot].sent, flying[slot].at, result.ok());
        if now >= until {
            flying.swap_remove(slot);
            break;
        }
        let at = cursor.next();
        let id = client.send_query(venue, queries[at].clone())?;
        flying[slot] = InFlight { id, at, sent: now };
    }
    for _ in 0..flying.len() {
        // Past the end of the phase: drained, not counted.
        let (_id, _late) = client.recv_answer()?;
    }
    Ok(())
}

/// One wire connection in a closed loop of depth [`WIRE_DEPTH`]. Blocking
/// socket: a polling generator would own one of the host's two
/// processors and its p99 would be the scheduler's quantum.
pub fn wire_lane(
    ctx: &LaneContext<'_>,
    client: &mut NetClient,
    venue: u32,
    lane: usize,
) -> LaneReport {
    let queries = &ctx.plan.queries;
    // Connection `lane` of `n` replays every n-th request of the stream.
    let mut cursor = Cursor {
        at: (WARM_OPS + lane) % queries.len(),
        stride: WIRE_CONNECTIONS,
        len: queries.len(),
    };
    let mut report = LaneReport::default();
    ctx.go.wait();

    let t = Instant::now();
    let mut calibrated = 0u64;
    let calibration = pump(
        client,
        venue,
        queries,
        &mut cursor,
        t + CALIBRATION,
        &mut |_, _, _, _| calibrated += 1,
    );
    let per_slice = slice_ops(calibrated, t.elapsed());

    let begin = Instant::now();
    let deadline = begin + ctx.run_for;
    let mut slicer = Slicer::begin(ctx.lanes, lane, per_slice, begin);
    let mut replies_seen = 0u64;
    let measured = calibration.and_then(|()| {
        let on_reply = &mut |now, latency, at, answer: Option<QueryResponse>| {
            if now >= deadline {
                return;
            }
            report.attempted += 1;
            match answer {
                Some(resp) => {
                    report.observe(ctx.checks, at, &resp);
                    replies_seen += 1;
                    if replies_seen.is_multiple_of(REPLY_CHECK_EVERY) {
                        report.samples.replies.push((at as u32, resp));
                    }
                }
                None => report.failed += 1,
            }
            // A slice closes between two replies; the requests in flight
            // keep their own send stamps, so nothing restarts.
            slicer.record(now, latency);
        };
        pump(client, venue, queries, &mut cursor, deadline, on_reply)
    });
    if let Err(e) = measured {
        // A broken connection fails the run, it does not end it quietly.
        eprintln!("wire lane {lane}: {e}");
        report.attempted += 1;
        report.failed += 1;
    }
    report.slices = slicer.slices;
    report
}

/// What the writer thread of `churn_durable` did.
#[derive(Default)]
pub struct WriterReport {
    /// Ack latency of every batch, from its scheduled send time.
    pub ack_us: Vec<f64>,
    /// How late each batch left, against its schedule.
    pub late_us: Vec<f64>,
    pub failed: u64,
    /// Net growth of the plain and the keyword object set.
    pub plain_growth: i64,
    pub keyword_growth: i64,
    /// Snapshot rotations: when each ran, its size, the batch it covers.
    pub snapshot_windows: Vec<(Instant, Instant)>,
    pub snapshot_bytes: usize,
    pub batches_at_last_snapshot: u64,
}

impl WriterReport {
    pub fn batches(&self) -> u64 {
        self.ack_us.len() as u64
    }
}

/// The open-loop writer: batch `i` is due `i` x 2 ms after the start,
/// whatever happened to the batches before it, and its latency runs
/// from that due time — a stalled write path delays, and is charged
/// for, every batch behind the stall. A faster write path cannot write
/// more and so cannot slow the reader that way.
pub fn writer(ctx: &LaneContext<'_>, served: &Served, dir: &Path) -> WriterReport {
    let interval = Duration::from_nanos(1_000_000_000 / WRITER_BATCHES_PER_S);
    let mut report = WriterReport::default();
    ctx.go.wait();
    // The reader calibrates first; writes start with its measured phase.
    std::thread::sleep(CALIBRATION);
    let begin = Instant::now();
    let deadline = begin + ctx.run_for;
    for (i, batch) in ctx.plan.updates.iter().enumerate() {
        let due = begin + interval * i as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let outcome = match batch {
            Batch::Plain(deltas) => served.svc.update_objects(served.venue, deltas),
            Batch::Keyword(updates) => served.svc.update_keyword_objects(served.venue, updates),
        };
        let acked = Instant::now();
        match outcome {
            Ok(applied) => {
                let growth = applied.inserts as i64 - applied.removes as i64;
                match batch {
                    Batch::Plain(_) => report.plain_growth += growth,
                    Batch::Keyword(_) => report.keyword_growth += growth,
                }
            }
            Err(_) => report.failed += 1,
        }
        report.ack_us.push((acked - due).as_secs_f64() * 1e6);
        report.late_us.push((sent - due).as_secs_f64() * 1e6);
        if report.batches() % SNAPSHOT_EVERY == 0 {
            match served.svc.save_snapshot(dir) {
                Ok(snapshot) => {
                    report.snapshot_windows.push((acked, Instant::now()));
                    report.snapshot_bytes = snapshot.bytes;
                    report.batches_at_last_snapshot = report.batches();
                }
                Err(_) => report.failed += 1,
            }
        }
    }
    report
}

/// The wire form of an answer: what "byte-identical" compares.
pub fn answer_bytes(resp: &QueryResponse) -> Vec<u8> {
    Frame::Answer {
        id: 0,
        result: Ok(resp.clone()),
    }
    .encode()
}

/// Compare the sampled distance answers with the oracle at 1e-9;
/// returns `(answers compared, answers wrong)`.
pub fn verify_distances(plan: &Plan, samples: &[(u32, Option<f64>)]) -> (u64, u64) {
    let mut oracle = Oracle::new(&plan.venue);
    let mut truth: HashMap<u32, Option<f64>> = HashMap::new();
    let mut wrong = 0;
    for &(at, answer) in samples {
        let want = *truth.entry(at).or_insert_with(|| {
            let QueryRequest::ShortestDistance { s, t } = &plan.queries[at as usize] else {
                unreachable!("only distance requests are marked for checking");
            };
            oracle.distance(s, t)
        });
        if !crate::oracle::agree(want, answer) {
            wrong += 1;
        }
    }
    (samples.len() as u64, wrong)
}

/// Compare sampled wire replies, byte for byte, with what the service
/// answers in-process; returns `(replies compared, replies differing)`.
pub fn verify_replies(
    plan: &Plan,
    served: &Served,
    replies: &[(u32, QueryResponse)],
) -> (u64, u64) {
    let differing = replies
        .iter()
        .filter(|(at, reply)| {
            let direct = served
                .svc
                .execute(served.venue, &plan.queries[*at as usize]);
            direct.map_or(true, |d| answer_bytes(&d) != answer_bytes(reply))
        })
        .count();
    (replies.len() as u64, differing as u64)
}

/// The answers, in wire form, to the first 200 requests of the stream:
/// the menu compared across a drop and reopen.
pub fn menu_answers(plan: &Plan, served: &Served) -> Vec<Vec<u8>> {
    plan.queries
        .iter()
        .take(200)
        .map(|req| match served.svc.execute(served.venue, req) {
            Ok(resp) => answer_bytes(&resp),
            Err(e) => e.to_string().into_bytes(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_256th_distance_request_is_marked() {
        let p = indoor_synth::workload::query_points(&indoor_synth::random_venue(1), 1, 1)[0];
        let sd = QueryRequest::ShortestDistance { s: p, t: p };
        let knn = QueryRequest::Knn { q: p, k: 1 };
        let mut queries = Vec::new();
        for _ in 0..600 {
            queries.push(knn.clone());
            queries.push(sd.clone());
        }
        let marks = distance_checks(&queries);
        let marked: Vec<usize> = (0..marks.len()).filter(|&i| marks[i]).collect();
        // The 1st, 257th and 513th distance request.
        assert_eq!(marked, vec![1, 513, 1025]);
    }

    #[test]
    fn cursor_cycles_with_its_stride() {
        let mut c = Cursor {
            at: 3,
            stride: 2,
            len: 6,
        };
        let seen: Vec<usize> = (0..5).map(|_| c.next()).collect();
        assert_eq!(seen, vec![3, 5, 1, 3, 5]);
    }

    #[test]
    fn temp_dirs_are_unique_and_removed() {
        let (a, b) = (TempDir::new("t"), TempDir::new("t"));
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn setup_repeats_and_keeps_the_last() {
        let mut made = 0;
        let (last, stats) = repeat_setup(|| {
            made += 1;
            made
        });
        assert_eq!(
            (last, stats.times_s.len()),
            (15, 15),
            "fast set-ups run fifteen times"
        );
    }
}
