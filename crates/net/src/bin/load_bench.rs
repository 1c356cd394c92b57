//! Open- and closed-loop load generator over the wire protocol, with a
//! committed regression baseline (`BENCH_net.json`, gated by
//! `net_check`).
//!
//! ```sh
//! cargo run --release -p indoor-net --bin load_bench -- \
//!     --out /tmp/BENCH_net.json [--requests 300] [--qps 3000] [--seed 42]
//! ```
//!
//! The matrix: closed-loop cells sweep connections × pipeline depth ×
//! overload policy (shed vs block) against an in-process loopback
//! server; one open-loop cell issues on a fixed arrival schedule and
//! measures latency **from the scheduled send time** (the
//! coordinated-omission correction — a stalled reply inflates every
//! latency behind it, as it would for real arrivals); one flood cell
//! pushes pipeline depth far past a tiny admission capacity and asserts
//! the contract this front-end exists for: the gate sheds (`shed > 0`)
//! with typed per-request errors while **every connection survives and
//! every request gets a reply**.
//!
//! Each cell reports p50/p99/p999/max (µs) and throughput; `net_check`
//! gates p50 per cell against the committed baseline and sanity-checks
//! the tail ordering of the open-loop cell. Latencies land in one
//! lock-free telemetry histogram per cell — every reply is a sample
//! shared across connection threads without a mutex, and p999/max come
//! from the full population, not a sorted per-connection vector.

use indoor_model::QueryRequest;
use indoor_net::{NetClient, NetServer};
use indoor_synth::{random_venue, workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::telemetry::{HistSnapshot, Histogram};
use vip_tree::{AdmissionConfig, IndoorService, OverloadPolicy, RetryPolicy, ShardConfig};

struct Args {
    out: String,
    seed: u64,
    /// Requests per connection in every cell.
    requests: usize,
    /// Per-connection arrival rate of the open-loop cell.
    qps: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_net.json".into(),
        seed: 42,
        requests: 300,
        qps: 3000.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {a}"))
        };
        match a.as_str() {
            "--out" => args.out = val(),
            "--seed" => args.seed = val().parse().expect("bad --seed"),
            "--requests" => args.requests = val().parse().expect("bad --requests"),
            "--qps" => args.qps = val().parse().expect("bad --qps"),
            "--help" | "-h" => {
                println!("usage: load_bench [--out PATH] [--seed S] [--requests N] [--qps Q]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// Connections of the flood cell, and how many times `--requests` each
/// of them sends.
const FLOOD_CONNS: usize = 4;
const FLOOD_SCALE: usize = 8;

#[derive(Debug, Default)]
struct CellCounts {
    answered: u64,
    shed: u64,
}

impl CellCounts {
    fn merge(&mut self, other: CellCounts) {
        self.answered += other.answered;
        self.shed += other.shed;
    }
}

struct Cell {
    key: String,
    requests: u64,
    answered: u64,
    shed: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
    qps: f64,
}

fn finish(
    key: String,
    requests: u64,
    counts: CellCounts,
    lat_ns: HistSnapshot,
    wall: Duration,
) -> Cell {
    Cell {
        key,
        requests,
        answered: counts.answered,
        shed: counts.shed,
        p50_us: lat_ns.p50() as f64 / 1e3,
        p99_us: lat_ns.p99() as f64 / 1e3,
        p999_us: lat_ns.p999() as f64 / 1e3,
        max_us: lat_ns.max() as f64 / 1e3,
        qps: counts.answered as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// One closed-loop connection: keep `depth` queries in flight, measure
/// send→reply. Shed/timeout replies count, not crash — the server
/// degrades per-request.
fn closed_loop(
    addr: std::net::SocketAddr,
    venue: u32,
    reqs: &[QueryRequest],
    lat: &Histogram,
    depth: usize,
) -> CellCounts {
    let mut client = NetClient::connect(addr)
        .expect("connect")
        .with_retry(RetryPolicy::fail_fast());
    let mut counts = CellCounts::default();
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut sent = 0usize;
    while sent < reqs.len() || !in_flight.is_empty() {
        while in_flight.len() < depth && sent < reqs.len() {
            let id = client
                .send_query(venue, reqs[sent].clone())
                .expect("send survives overload");
            in_flight.insert(id, Instant::now());
            sent += 1;
        }
        let (id, result) = client.recv_answer().expect("connection survives overload");
        let t0 = in_flight.remove(&id).expect("reply matches a sent id");
        match result {
            Ok(_) => {
                counts.answered += 1;
                lat.record(t0.elapsed().as_nanos() as u64);
            }
            Err(e) if e.is_retryable() => counts.shed += 1,
            Err(e) => panic!("non-transient server error: {e}"),
        }
    }
    counts
}

/// One open-loop connection: send on a fixed schedule regardless of
/// replies; latency from the *scheduled* send time.
fn open_loop(
    addr: std::net::SocketAddr,
    venue: u32,
    reqs: &[QueryRequest],
    lat: &Histogram,
    qps: f64,
) -> CellCounts {
    let mut client = NetClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_micros(200)))
        .expect("read timeout");
    let interval = Duration::from_secs_f64(1.0 / qps);
    let start = Instant::now();
    let mut counts = CellCounts::default();
    let mut scheduled: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    while done < reqs.len() {
        let now = Instant::now();
        while next < reqs.len() && now >= start + interval * next as u32 {
            let due = start + interval * next as u32;
            let id = client
                .send_query(venue, reqs[next].clone())
                .expect("send survives overload");
            scheduled.insert(id, due);
            next += 1;
        }
        match client
            .try_recv_answer()
            .expect("connection survives overload")
        {
            Some((id, result)) => {
                let due = scheduled.remove(&id).expect("reply matches a sent id");
                done += 1;
                match result {
                    Ok(_) => {
                        counts.answered += 1;
                        lat.record(due.elapsed().as_nanos() as u64);
                    }
                    Err(e) if e.is_retryable() => counts.shed += 1,
                    Err(e) => panic!("non-transient server error: {e}"),
                }
            }
            None => {
                if next < reqs.len() {
                    let due = start + interval * next as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep((due - now).min(Duration::from_micros(100)));
                    }
                }
            }
        }
    }
    counts
}

/// Run one cell: a connection per entry of `shares`, each replaying its
/// own request slice.
fn run_cell(
    addr: std::net::SocketAddr,
    venue: u32,
    shares: &[&[QueryRequest]],
    mode: impl Fn(std::net::SocketAddr, u32, &[QueryRequest], &Histogram) -> CellCounts + Sync,
) -> (CellCounts, HistSnapshot, Duration) {
    let t0 = Instant::now();
    let lat = Histogram::new();
    let mut total = CellCounts::default();
    std::thread::scope(|scope| {
        let (mode, lat) = (&mode, &lat);
        let handles: Vec<_> = shares
            .iter()
            .map(|&reqs| scope.spawn(move || mode(addr, venue, reqs, lat)))
            .collect();
        for h in handles {
            total.merge(h.join().expect("connection thread"));
        }
    });
    (total, lat.snapshot(), t0.elapsed())
}

/// A loopback server over a fresh volatile service carrying one
/// synthesised venue under `admission`.
fn loopback(seed: u64, admission: AdmissionConfig) -> (NetServer, u32) {
    let service = Arc::new(IndoorService::new());
    let venue = Arc::new(random_venue(seed));
    let objects = workload::place_objects(&venue, 16, seed);
    let keywords = workload::cycling_labels(&objects, "atm");
    let id = service
        .add_venue(
            venue,
            ShardConfig {
                threads: 1,
                objects,
                keywords,
                admission,
                ..ShardConfig::default()
            },
        )
        .expect("bench venue builds");
    let server = NetServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    (server, id.index() as u32)
}

fn main() {
    let args = parse_args();
    let venue_src = random_venue(args.seed);
    let reqs =
        workload::mixed_requests(&venue_src, args.requests / 4 + 1, 4, 60.0, "atm", args.seed);
    let reqs = &reqs[..args.requests.min(reqs.len())];
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cells: Vec<Cell> = Vec::new();

    // Closed-loop matrix: connections × depth × overload policy, each
    // against a generous gate (the normal-operation cells).
    for (pname, policy) in [
        ("shed", OverloadPolicy::Shed),
        (
            "block",
            OverloadPolicy::Block {
                timeout: Duration::from_millis(20),
            },
        ),
    ] {
        let (server, venue) = loopback(
            args.seed,
            AdmissionConfig {
                max_in_flight: 64,
                policy,
            },
        );
        let addr = server.local_addr();
        for conns in [1usize, 2, 4] {
            for depth in [1usize, 4] {
                let (counts, lat, wall) =
                    run_cell(addr, venue, &vec![reqs; conns], |a, v, r, h| {
                        closed_loop(a, v, r, h, depth)
                    });
                let key = format!("(closed, {pname}, c{conns}, d{depth})");
                let cell = finish(key, (reqs.len() * conns) as u64, counts, lat, wall);
                println!(
                    "{:32} p50 {:8.1}us p99 {:8.1}us p999 {:8.1}us max {:8.1}us {:9.0} q/s shed {}",
                    cell.key,
                    cell.p50_us,
                    cell.p99_us,
                    cell.p999_us,
                    cell.max_us,
                    cell.qps,
                    cell.shed
                );
                cells.push(cell);
            }
        }
    }

    // Open-loop: fixed arrival schedule, latency from scheduled send.
    {
        let (server, venue) = loopback(
            args.seed,
            AdmissionConfig {
                max_in_flight: 64,
                policy: OverloadPolicy::Shed,
            },
        );
        let addr = server.local_addr();
        let qps = args.qps;
        let (counts, lat, wall) = run_cell(addr, venue, &[reqs; 2], |a, v, r, h| {
            open_loop(a, v, r, h, qps)
        });
        let cell = finish(
            format!("(open, shed, c2, q{})", qps as u64),
            (reqs.len() * 2) as u64,
            counts,
            lat,
            wall,
        );
        println!(
            "{:32} p50 {:8.1}us p99 {:8.1}us p999 {:8.1}us max {:8.1}us {:9.0} q/s shed {}",
            cell.key, cell.p50_us, cell.p99_us, cell.p999_us, cell.max_us, cell.qps, cell.shed
        );
        cells.push(cell);
    }

    // Flood: depth far past a tiny admission capacity. The acceptance
    // contract: the gate pushes back (shed > 0) with typed errors and
    // zero connection loss (every request resolves to answer or shed).
    //
    // The gate only refuses a share that arrives while another is inside
    // it, and a share of cache hits is through in microseconds. So every
    // connection replays its own slice of requests nobody repeats — all
    // misses, however warm the cache — and enough of them that handler
    // threads overlap inside the admission window even on one core.
    {
        let per_conn = FLOOD_SCALE * args.requests;
        let flood = workload::mixed_requests(
            &venue_src,
            (FLOOD_CONNS * per_conn).div_ceil(5),
            4,
            60.0,
            "atm",
            args.seed ^ 0xF100D,
        );
        let distinct: std::collections::HashSet<&QueryRequest> = flood.iter().collect();
        assert_eq!(
            distinct.len(),
            flood.len(),
            "flood requests must not repeat"
        );
        let shares: Vec<&[QueryRequest]> = flood.chunks_exact(per_conn).take(FLOOD_CONNS).collect();
        assert_eq!(shares.len(), FLOOD_CONNS);
        let (server, venue) = loopback(
            args.seed,
            AdmissionConfig {
                max_in_flight: 2,
                policy: OverloadPolicy::Shed,
            },
        );
        let addr = server.local_addr();
        let (counts, lat, wall) = run_cell(addr, venue, &shares, |a, v, r, h| {
            closed_loop(a, v, r, h, 64)
        });
        let cell = finish(
            format!("(flood, shed, c{FLOOD_CONNS}, d64)"),
            (per_conn * FLOOD_CONNS) as u64,
            counts,
            lat,
            wall,
        );
        println!(
            "{:32} p50 {:8.1}us p99 {:8.1}us p999 {:8.1}us max {:8.1}us {:9.0} q/s shed {}",
            cell.key, cell.p50_us, cell.p99_us, cell.p999_us, cell.max_us, cell.qps, cell.shed
        );
        assert!(
            cell.shed > 0,
            "flood cell must shed at depth 64 against capacity 2 — the admission gate is not \
             reaching the wire"
        );
        assert_eq!(
            cell.answered + cell.shed,
            cell.requests,
            "every flooded request must resolve to an answer or a typed shed — a lost request \
             means a dropped connection"
        );
        cells.push(cell);
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"net-serving\",\n");
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"requests_per_conn\": {},\n", args.requests));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"requests\": {}, \"answered\": {}, \"shed\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}, \
             \"qps\": {:.1}}}{}\n",
            c.key,
            c.requests,
            c.answered,
            c.shed,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.max_us,
            c.qps,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&args.out, &out).expect("write bench json");
    println!("wrote {} ({} cells)", args.out, cells.len());
}
