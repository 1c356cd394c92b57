//! Closed-loop load generator over the wire protocol, and the flood
//! contract of the admission gate.
//!
//! ```sh
//! cargo run --release -p indoor-net --bin load_bench -- \
//!     [--out PATH] [--requests 300] [--seed 42]
//! ```
//!
//! The matrix: closed-loop cells sweep connections × pipeline depth ×
//! overload policy (shed vs block) against an in-process loopback
//! server; one flood cell pushes pipeline depth far past a tiny
//! admission capacity and asserts the contract this front-end exists
//! for: the gate sheds (`shed > 0`) with typed per-request errors while
//! **every connection survives and every request gets a reply**. A
//! broken contract panics the run. Open-loop latency is `benchmark/`'s
//! (`net.open3k_*`, DESIGN.md §13.4).
//!
//! Each cell prints p50/p99/p999/max (µs) and throughput; `--out PATH`
//! also writes them as JSON. Latencies land in one lock-free telemetry
//! histogram per cell — every reply is a sample shared across
//! connection threads without a mutex, and p999/max come from the full
//! population, not a sorted per-connection vector.

use indoor_model::QueryRequest;
use indoor_net::{NetClient, NetServer};
use indoor_synth::{random_venue, workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::telemetry::{HistSnapshot, Histogram};
use vip_tree::{AdmissionConfig, IndoorService, OverloadPolicy, RetryPolicy, ShardConfig};

struct Args {
    out: Option<String>,
    seed: u64,
    /// Requests per connection in every cell.
    requests: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: None,
        seed: 42,
        requests: 300,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {a}"))
        };
        match a.as_str() {
            "--out" => args.out = Some(val()),
            "--seed" => args.seed = val().parse().expect("bad --seed"),
            "--requests" => args.requests = val().parse().expect("bad --requests"),
            "--help" | "-h" => {
                println!("usage: load_bench [--out PATH] [--seed S] [--requests N]");
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

/// Run one cell: a closed-loop connection at pipeline `depth` per entry
/// of `shares`, each replaying its own request slice.
fn run_cell(
    addr: std::net::SocketAddr,
    venue: u32,
    shares: &[&[QueryRequest]],
    depth: usize,
) -> (CellCounts, HistSnapshot, Duration) {
    let t0 = Instant::now();
    let lat = Histogram::new();
    let mut total = CellCounts::default();
    std::thread::scope(|scope| {
        let lat = &lat;
        let handles: Vec<_> = shares
            .iter()
            .map(|&reqs| scope.spawn(move || closed_loop(addr, venue, reqs, lat, depth)))
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
                let (counts, lat, wall) = run_cell(addr, venue, &vec![reqs; conns], depth);
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
        let (counts, lat, wall) = run_cell(addr, venue, &shares, 64);
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

    let Some(path) = args.out else { return };
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
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({} cells)", cells.len());
}
