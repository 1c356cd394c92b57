//! The traced run (`--trace 1`): where a request's time goes, layer by
//! layer.
//!
//! A fixed sample of the workload's own stream is replayed through
//! successive public taps — bare tree, engine, service, frames, wire —
//! in interleaved blocks: one block per tap, then the next tap, and the
//! whole sequence again for ten rounds, so that host drift falls on
//! every tap alike. Inside a block, spans are cut by consecutive clock
//! reads, as in the end-to-end run. `telemetry::set_trace_interval(1)`
//! makes the program's own phase histograms and counters cover every
//! query; everything runs on this thread, so those counts repeat
//! exactly. One span per tap call is kept in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` at the end.
//!
//! The work is fixed (ten rounds); `--seconds` only caps it.

use crate::e2e::{check_durability, check_hit_rate, churn_phase, plan_for, print_writer};
use crate::estimators::{median, percentile};
use crate::host::ref_kernel_us;
use crate::phase::stall_ratio;
use crate::report::{Report, PER_LAYER};
use crate::run::{distance_checks, out_dir, Served, TempDir, SNAPSHOT_EVERY, WARM_OPS};
use crate::workloads::{Batch, Workload, WRITER_BATCHES_PER_S};
use indoor_model::frames::{Frame, FrameDecoder, NET_MAGIC};
use indoor_model::metrics::{MetricValue, MetricsSnapshot};
use indoor_model::{QueryKind, QueryRequest, QueryResponse};
use indoor_net::{NetClient, NetServer};
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::{
    telemetry, IndoorService, KeywordObjects, QueryEngine, QueryScratch, ShardConfig, VipTree,
};

/// Requests in the fixed sample: the head of the compiled stream.
const SAMPLE: usize = 4096;
const ROUNDS: usize = 10;
/// Taps that cost tens of microseconds a call (a worker spawn, a
/// loopback round trip) see every 8th request of the sample.
const SPARSE: usize = 8;
/// Update batches each round feeds to the volatile and the durable
/// service.
const UPDATE_CHUNK: usize = 100;
/// The open-loop diagnostic: one connection, 3 000 requests a second.
const OPEN_LOOP_QPS: u32 = 3000;
const OPEN_LOOP_REQUESTS: usize = 6000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Tree,
    Engine,
    ServiceMiss,
    ServiceHit,
    Batch1,
    Batch8,
    EncodeQuery,
    DecodeQuery,
    EncodeAnswer,
    DecodeAnswer,
    Ping,
    WireQuery,
    EndToEndSampled,
    EndToEndTraced,
    UpdateVolatile,
    UpdateDurable,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Tree => "tree",
            Layer::Engine => "engine",
            Layer::ServiceMiss => "service.miss",
            Layer::ServiceHit => "service.hit",
            Layer::Batch1 => "service.batch1",
            Layer::Batch8 => "service.batch8",
            Layer::EncodeQuery => "frames.encode_query",
            Layer::DecodeQuery => "frames.decode_query",
            Layer::EncodeAnswer => "frames.encode_answer",
            Layer::DecodeAnswer => "frames.decode_answer",
            Layer::Ping => "net.ping",
            Layer::WireQuery => "net.query",
            Layer::EndToEndSampled => "end_to_end.sampled",
            Layer::EndToEndTraced => "end_to_end.traced",
            Layer::UpdateVolatile => "objects.update",
            Layer::UpdateDurable => "persist.update",
        }
    }

    /// The tap above: the layer whose span of the same request contains
    /// this layer's work. A layer's self time is its tap minus the tap
    /// below it.
    fn parent(self) -> Option<Layer> {
        match self {
            Layer::Tree => Some(Layer::Engine),
            Layer::Engine => Some(Layer::ServiceMiss),
            Layer::Batch1
            | Layer::EncodeQuery
            | Layer::DecodeQuery
            | Layer::EncodeAnswer
            | Layer::DecodeAnswer
            | Layer::Ping => Some(Layer::WireQuery),
            Layer::UpdateVolatile => Some(Layer::UpdateDurable),
            _ => None,
        }
    }
}

struct Span {
    round: u16,
    /// Stream position of the request (batch index for update taps).
    request: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// `(request, microseconds)` of every call of one tap, in call order.
type Durations = Vec<(usize, f64)>;

struct Tracer {
    epoch: Instant,
    round: u16,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One tap block: `op` on each request in turn, a span between each
    /// pair of consecutive clock reads.
    fn tap(
        &mut self,
        layer: Layer,
        requests: impl Iterator<Item = usize>,
        mut op: impl FnMut(usize),
    ) {
        let mut prev = self.now_ns();
        for request in requests {
            op(request);
            let now = self.now_ns();
            self.spans.push(Span {
                round: self.round,
                request: request as u32,
                layer,
                start_ns: prev,
                end_ns: now,
            });
            prev = now;
        }
    }

    fn durations(&self, layer: Layer) -> Durations {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.request as usize, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    }

    fn write(&self, workload: Workload) -> std::io::Result<()> {
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        let mut out = BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            let parent = match s.layer.parent() {
                Some(p) => format!("\"{}\"", p.name()),
                None => "null".into(),
            };
            writeln!(
                out,
                "{{\"round\":{},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.round,
                s.request,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        println!("{} spans written to {}", self.spans.len(), path.display());
        Ok(())
    }
}

/// The class-weighted median: the median of each class of calls (query
/// kind, batch kind), weighted by the class's share of the calls. One
/// median over a mix of 4 us distance lookups and 30 us keyword searches
/// would sit wherever the mix tips it; this adds up across layers.
fn weighted_median(durations: &[(usize, f64)], class_of: &dyn Fn(usize) -> usize) -> f64 {
    let mut classes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(request, us) in durations {
        classes.entry(class_of(request)).or_default().push(us);
    }
    classes
        .values()
        .map(|c| median(c) * c.len() as f64 / durations.len() as f64)
        .sum()
}

/// Median of one class of calls (0 when the class is empty).
fn class_median(
    durations: &[(usize, f64)],
    class_of: &dyn Fn(usize) -> usize,
    class: usize,
) -> f64 {
    let of_class: Vec<f64> = durations
        .iter()
        .filter(|(request, _)| class_of(*request) == class)
        .map(|&(_, us)| us)
        .collect();
    median(&of_class)
}

/// Per-call difference of two taps that made the same calls in the
/// same order.
fn minus(upper: &[(usize, f64)], lower: &[(usize, f64)]) -> Durations {
    assert_eq!(upper.len(), lower.len(), "taps made different calls");
    upper
        .iter()
        .zip(lower)
        .map(|(&(request, a), &(below, b))| {
            assert_eq!(request, below, "taps made different calls");
            (request, a - b)
        })
        .collect()
}

/// The calls of a full-sample tap that a sparse tap also made.
fn sparse_calls(full: &[(usize, f64)]) -> Durations {
    full.iter()
        .enumerate()
        .filter(|(i, _)| (i % SAMPLE).is_multiple_of(SPARSE))
        .map(|(_, &call)| call)
        .collect()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.series
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// `(count, sum, p50 bucket bound)` of a histogram series.
fn histogram(snap: &MetricsSnapshot, name: &str) -> (u64, u64, u64) {
    for s in snap.series.iter().filter(|s| s.name == name) {
        if let MetricValue::Histogram {
            buckets,
            count,
            sum,
            ..
        } = &s.value
        {
            let p50 = buckets
                .iter()
                .find(|&&(_, cumulative)| 2 * cumulative >= *count)
                .map_or(0, |&(le, _)| le);
            return (*count, *sum, p50);
        }
    }
    (0, 0, 0)
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Answer `req` on the bare tree, as `exec::execute_in` dispatches it
/// but with nothing around it.
fn bare_answer(
    tree: &VipTree,
    keywords: &KeywordObjects,
    scratch: &mut QueryScratch,
    req: &QueryRequest,
) -> QueryResponse {
    match req {
        QueryRequest::Knn { q, k } => QueryResponse::Knn(tree.knn_in(q, *k, scratch)),
        QueryRequest::Range { q, radius } => {
            QueryResponse::Range(tree.range_in(q, *radius, scratch))
        }
        QueryRequest::KnnKeyword { q, k, keyword } => QueryResponse::KnnKeyword(
            keywords.knn_keyword_in(tree.ip_tree(), q, *k, keyword, scratch),
        ),
        QueryRequest::ShortestDistance { s, t } => {
            QueryResponse::ShortestDistance(tree.shortest_distance_in(s, t, scratch))
        }
        QueryRequest::ShortestPath { s, t } => {
            QueryResponse::ShortestPath(tree.shortest_path_in(s, t, scratch))
        }
    }
}

/// Bytes of the venue logs (`venue-<slot>.wal`) in a durability directory.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read durability directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// The open-loop diagnostic: `OPEN_LOOP_REQUESTS` requests leave one
/// connection on a 3 000/s schedule whatever the replies do; latency
/// runs from the scheduled send. Sender and receiver are two threads on
/// the two halves of one socket, speaking frames directly, both
/// blocking. Returns `(latency p50, generator lateness p99)` in us.
fn open_loop(
    addr: SocketAddr,
    venue: u32,
    requests: &[QueryRequest],
) -> std::io::Result<(f64, f64)> {
    let mut tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    tx.write_all(&NET_MAGIC)?;
    let mut magic = [0u8; NET_MAGIC.len()];
    tx.read_exact(&mut magic)?;
    let mut rx = tx.try_clone()?;
    let interval = Duration::from_secs(1) / OPEN_LOOP_QPS;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval * i as u32;

    let (late, latency) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<u32>> {
            let mut late = Vec::with_capacity(OPEN_LOOP_REQUESTS);
            for i in 0..OPEN_LOOP_REQUESTS {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push((Instant::now() - due(i)).as_nanos() as u32);
                let frame = Frame::Query {
                    id: i as u64,
                    venue,
                    req: requests[i % requests.len()].clone(),
                };
                tx.write_all(&frame.encode())?;
            }
            Ok(late)
        });
        let receiver = scope.spawn(move || -> std::io::Result<Vec<u32>> {
            let mut latency = Vec::with_capacity(OPEN_LOOP_REQUESTS);
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            while latency.len() < OPEN_LOOP_REQUESTS {
                let n = rx.read(&mut buf)?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                decoder.extend(&buf[..n]);
                let now = Instant::now();
                while let Some(frame) = decoder.next().map_err(std::io::Error::other)? {
                    let id = frame.id().expect("query replies carry ids") as usize;
                    latency.push((now - due(id)).as_nanos() as u32);
                }
            }
            Ok(latency)
        });
        (
            sender.join().expect("open-loop sender"),
            receiver.join().expect("open-loop receiver"),
        )
    });
    let (mut late, mut latency) = (late?, latency?);
    Ok((
        f64::from(percentile(&mut latency, 0.50)) / 1e3,
        f64::from(percentile(&mut late, 0.99)) / 1e3,
    ))
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Report {
    telemetry::set_trace_interval(1);
    let mut report = Report::new(PER_LAYER);
    let budget = Duration::from_secs(seconds);

    // ---- synth and build, layer by layer --------------------------------
    let t = Instant::now();
    let venue = Arc::new(workload.venue_spec().build());
    report.set("synth.venue_gen_s", t.elapsed().as_secs_f64());
    let plan = plan_for(&mut report, workload, seed, venue);

    let t = Instant::now();
    let tree =
        Arc::new(VipTree::build(plan.venue.clone(), &plan.config.tree).expect("tree builds"));
    report.set("build.tree_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    tree.ip_tree().build_leaf_grid();
    report.set("build.leaf_grid_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    tree.attach_objects(&plan.config.objects);
    report.set("build.objects_attach_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let keywords = Arc::new(KeywordObjects::build(tree.ip_tree(), &plan.config.keywords));
    report.set("build.keywords_s", t.elapsed().as_secs_f64());
    report.set("build.nodes", tree.ip_tree().num_nodes() as f64);
    report.set("build.leaves", tree.ip_tree().num_leaves() as f64);
    let engine = QueryEngine::for_vip(tree.clone())
        .with_threads(1)
        .with_keywords(keywords.clone());

    // The service as the workload runs it, warm; and one whose cache
    // holds a single entry, so that the first call of a request always
    // misses and the second always hits.
    let warm = Served::volatile(&plan);
    warm.warm_up(&plan);
    let cold = Served::register(
        IndoorService::new(),
        &plan,
        ShardConfig {
            cache_capacity: 1,
            ..plan.config.clone()
        },
    );
    let (mut wire_client, wire_server) = (workload == Workload::WireClosed)
        .then(|| {
            let server = NetServer::bind(warm.svc.clone(), "127.0.0.1:0").expect("bind loopback");
            let client = NetClient::connect(server.local_addr()).expect("connect to loopback");
            (client, server)
        })
        .unzip();
    let churn = (workload == Workload::ChurnDurable).then(|| {
        let dir = TempDir::new("trace-taps");
        let durable = Served::durable(&plan, dir.path());
        (Served::volatile(&plan), durable, dir)
    });

    // ---- the sample, and its frames ---------------------------------------
    let sample = &plan.queries[..SAMPLE.min(plan.queries.len())];
    let kind_of = |request: usize| plan.queries[request].kind().index();
    let venue_id = warm.venue.index() as u32;
    let query_frames: Vec<Frame> = sample
        .iter()
        .enumerate()
        .map(|(i, req)| Frame::Query {
            id: i as u64,
            venue: venue_id,
            req: req.clone(),
        })
        .collect();
    let answer_frames: Vec<Frame> = sample
        .iter()
        .enumerate()
        .map(|(i, req)| Frame::Answer {
            id: i as u64,
            result: Ok(engine.execute(req)),
        })
        .collect();
    let query_bytes: Vec<Vec<u8>> = query_frames.iter().map(Frame::encode).collect();
    let answer_bytes: Vec<Vec<u8>> = answer_frames.iter().map(Frame::encode).collect();
    let mean_len = |b: &[Vec<u8>]| b.iter().map(Vec::len).sum::<usize>() as f64 / b.len() as f64;
    report.set("frames.bytes_per_query", mean_len(&query_bytes));
    report.set("frames.bytes_per_answer", mean_len(&answer_bytes));

    // ---- the rounds ---------------------------------------------------------
    let mut tracer = Tracer {
        epoch: Instant::now(),
        round: 0,
        spans: Vec::new(),
    };
    let mut scratch = QueryScratch::new();
    let mut decoder = FrameDecoder::new();
    let mut ref_kernel = Vec::new();
    let (mut sampled_p50, mut sampled_p99, mut traced_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut e2e_hits, mut e2e_queries, mut e2e_evictions) = (0, 0, 0);
    let cold_before = cold.svc.metrics_snapshot();
    let tap_budget = if churn.is_some() {
        budget * 2 / 5
    } else {
        budget
    };
    let (mut plain_deltas, mut wal_deltas, mut wal_growth) = (0u64, 0u64, 0u64);
    let churn_before = churn.as_ref().map(|(volatile, _, _)| {
        volatile
            .svc
            .venue_stats(volatile.venue)
            .expect("venue stats")
    });

    for round in 0..ROUNDS {
        if round >= 2 && tracer.epoch.elapsed() >= tap_budget {
            println!("time budget reached after {round} rounds");
            break;
        }
        tracer.round = round as u16;
        ref_kernel.push(ref_kernel_us());
        let all = 0..sample.len();
        let sparse = || (0..sample.len()).step_by(SPARSE);

        tracer.tap(Layer::Tree, all.clone(), |i| {
            std::hint::black_box(bare_answer(&tree, &keywords, &mut scratch, &sample[i]));
        });
        {
            // Two calls per request, three clock reads: miss, then hit.
            // Between the two taps that share one tree (bare tree, engine),
            // so that each of the three starts on caches holding another
            // index's data rather than its own from the tap before.
            let mut prev = tracer.now_ns();
            for i in all.clone() {
                for layer in [Layer::ServiceMiss, Layer::ServiceHit] {
                    let _ = std::hint::black_box(cold.svc.execute(cold.venue, &sample[i]));
                    let now = tracer.now_ns();
                    tracer.spans.push(Span {
                        round: round as u16,
                        request: i as u32,
                        layer,
                        start_ns: prev,
                        end_ns: now,
                    });
                    prev = now;
                }
            }
        }
        tracer.tap(Layer::Engine, all.clone(), |i| {
            std::hint::black_box(engine.execute(&sample[i]));
        });
        tracer.tap(Layer::Batch1, sparse(), |i| {
            let one = [(warm.venue, sample[i].clone())];
            std::hint::black_box(warm.svc.execute_batch(&one));
        });
        tracer.tap(Layer::Batch8, sparse(), |i| {
            let eight: Vec<_> = sample[i..(i + 8).min(sample.len())]
                .iter()
                .map(|req| (warm.venue, req.clone()))
                .collect();
            std::hint::black_box(warm.svc.execute_batch(&eight));
        });
        tracer.tap(Layer::EncodeQuery, all.clone(), |i| {
            std::hint::black_box(query_frames[i].encode());
        });
        tracer.tap(Layer::DecodeQuery, all.clone(), |i| {
            decoder.extend(&query_bytes[i]);
            std::hint::black_box(decoder.next().expect("own frame decodes"));
        });
        tracer.tap(Layer::EncodeAnswer, all.clone(), |i| {
            std::hint::black_box(answer_frames[i].encode());
        });
        tracer.tap(Layer::DecodeAnswer, all.clone(), |i| {
            decoder.extend(&answer_bytes[i]);
            std::hint::black_box(decoder.next().expect("own frame decodes"));
        });
        if let Some(client) = wire_client.as_mut() {
            tracer.tap(Layer::Ping, sparse(), |_| client.ping().expect("ping"));
            tracer.tap(Layer::WireQuery, sparse(), |i| {
                std::hint::black_box(client.query(venue_id, &sample[i]).expect("wire query"));
            });
        }

        // The workload's own path over two fresh chunks of the stream,
        // once at the shipped 1-in-32 sampling and once fully traced,
        // in alternating order.
        let e2e_taps = [Layer::EndToEndSampled, Layer::EndToEndTraced];
        for slot in 0..2 {
            let layer = e2e_taps[(slot + round) % 2];
            // The head of the stream is the warm-up's; these start behind it.
            let chunk = WARM_OPS.div_ceil(SAMPLE) + 2 * round + slot;
            let positions = (chunk * SAMPLE..(chunk + 1) * SAMPLE).map(|p| p % plan.queries.len());
            telemetry::set_trace_interval(if layer == Layer::EndToEndTraced {
                1
            } else {
                32
            });
            let before = warm.svc.stats();
            let first = tracer.spans.len();
            tracer.tap(layer, positions, |p| {
                let _ = std::hint::black_box(warm.svc.execute(warm.venue, &plan.queries[p]));
            });
            telemetry::set_trace_interval(1);
            let after = warm.svc.stats();
            e2e_hits += after.total_cache_hits() - before.total_cache_hits();
            e2e_queries += after.total_queries() - before.total_queries();
            e2e_evictions += after.evictions - before.evictions;
            let mut block: Vec<u32> = tracer.spans[first..]
                .iter()
                .map(|s| (s.end_ns - s.start_ns) as u32)
                .collect();
            let p50 = f64::from(percentile(&mut block, 0.50)) / 1e3;
            if layer == Layer::EndToEndTraced {
                traced_p50.push(p50);
            } else {
                sampled_p50.push(p50);
                sampled_p99.push(f64::from(percentile(&mut block, 0.99)) / 1e3);
            }
        }

        if let Some((volatile, durable, dir)) = &churn {
            let batches = round * UPDATE_CHUNK..(round + 1) * UPDATE_CHUNK;
            let wal_before = wal_bytes(dir.path());
            // Same batches to both services, in alternating order.
            let mut taps = [
                (Layer::UpdateVolatile, volatile),
                (Layer::UpdateDurable, durable),
            ];
            if round % 2 == 1 {
                taps.reverse();
            }
            for (layer, served) in taps {
                tracer.tap(layer, batches.clone(), |b| {
                    match &plan.updates[b] {
                        Batch::Plain(deltas) => served.svc.update_objects(served.venue, deltas),
                        Batch::Keyword(updates) => {
                            served.svc.update_keyword_objects(served.venue, updates)
                        }
                    }
                    .expect("compiled batch applies");
                });
            }
            for b in batches {
                let batch = &plan.updates[b];
                wal_deltas += batch.len() as u64;
                if matches!(batch, Batch::Plain(_)) {
                    plain_deltas += batch.len() as u64;
                }
            }
            wal_growth += wal_bytes(dir.path()) - wal_before;
        }
    }
    drop(wire_client);

    // ---- the ledger ---------------------------------------------------------
    let tree_us = tracer.durations(Layer::Tree);
    let engine_us = tracer.durations(Layer::Engine);
    let miss_us = tracer.durations(Layer::ServiceMiss);
    for (name, kind) in [
        ("tree.knn_us", QueryKind::Knn),
        ("tree.range_us", QueryKind::Range),
        ("tree.sd_us", QueryKind::ShortestDistance),
        ("tree.sp_us", QueryKind::ShortestPath),
        ("keywords.knn_us", QueryKind::KnnKeyword),
    ] {
        report.set(name, class_median(&tree_us, &kind_of, kind.index()));
    }
    let all_kinds = |layer: Layer| weighted_median(&tracer.durations(layer), &kind_of);
    let tree_all = weighted_median(&tree_us, &kind_of);
    let engine_self = weighted_median(&minus(&engine_us, &tree_us), &kind_of);
    let service_self = weighted_median(&minus(&miss_us, &engine_us), &kind_of);
    let miss_all = weighted_median(&miss_us, &kind_of);
    report.set("engine.execute_us", weighted_median(&engine_us, &kind_of));
    report.set("engine.self_us", engine_self);
    report.set("service.miss_us", miss_all);
    report.set("service.hit_us", all_kinds(Layer::ServiceHit));
    report.set("service.self_us", service_self);
    // The tail of the workload's own in-process path at the shipped
    // sampling: per-block p99, median over the rounds.
    report.set("service.query_p99_us", median(&sampled_p99));
    let batch1_us = tracer.durations(Layer::Batch1);
    let batch1_all = weighted_median(&batch1_us, &kind_of);
    report.set("service.batch1_us", batch1_all);
    report.set("service.batch8_us_per_req", all_kinds(Layer::Batch8) / 8.0);
    let below_miss = tree_all + engine_self + service_self;
    println!(
        "ledger: tree {tree_all:.3} + engine.self {engine_self:.3} + service.self {service_self:.3} \
         = {below_miss:.3} us against service.miss {miss_all:.3} us ({:+.1} %)",
        (below_miss / miss_all - 1.0) * 100.0
    );
    if (below_miss / miss_all - 1.0).abs() > 0.15 {
        report
            .problem("the tree/engine/service ledger is more than 15 % off service.miss_us".into());
    }
    if workload == Workload::CampusCold && tree_all + engine_self < 0.8 * miss_all {
        report.problem(format!(
            "campus_cold: tree + engine own {:.0} % of a miss, under the 80 % the workload exists for",
            (tree_all + engine_self) / miss_all * 100.0
        ));
    }

    // The program's own counters over the misses of the one-entry cache:
    // every one of them ran the engine, traced.
    let cold_after = cold.svc.metrics_snapshot();
    let grown = |name: &str| counter(&cold_after, name) - counter(&cold_before, name);
    let traced = grown("indoor_traced_queries_total");
    let pushed = grown("indoor_nodes_pushed_total");
    let pruned = grown("indoor_nodes_pruned_total");
    report.set("tree.nodes_pushed_per_q", ratio(pushed, traced));
    report.set("tree.prune_rate", ratio(pruned, pushed + pruned));
    report.set(
        "tree.slab_rows_per_q",
        ratio(grown("indoor_slab_rows_total"), traced),
    );
    report.set(
        "tree.kbest_updates_per_q",
        ratio(grown("indoor_kbest_updates_total"), traced),
    );
    let phase_sum = |name: &str| histogram(&cold_after, name).1 - histogram(&cold_before, name).1;
    let phases = [
        ("tree.descent_share", phase_sum("indoor_phase_descent_us")),
        (
            "tree.leaf_fold_share",
            phase_sum("indoor_phase_leaf_fold_us"),
        ),
        ("tree.heap_share", phase_sum("indoor_phase_heap_us")),
    ];
    let phase_total: u64 = phases.iter().map(|p| p.1).sum();
    for (name, sum) in phases {
        report.set(name, ratio(sum, phase_total));
    }

    // The warm service's cache, over the end-to-end blocks only.
    let hit_rate = ratio(e2e_hits, e2e_queries);
    report.set("service.cache_hit_rate", hit_rate);
    report.set("service.cache_evictions", e2e_evictions as f64);
    check_hit_rate(&mut report, workload, hit_rate);
    let warm_metrics = warm.svc.metrics_snapshot();
    let mean_us = |name: &str| {
        let (count, sum, _) = histogram(&warm_metrics, name);
        ratio(sum, count)
    };
    report.set("service.cache_probe_us", mean_us("indoor_cache_probe_us"));
    report.set(
        "service.admission_wait_us",
        mean_us("indoor_admission_wait_us"),
    );
    report.set("service.shed", warm.svc.stats().shed as f64);
    report.attempted += e2e_queries + traced;

    let frames_us: Vec<(&str, Durations)> = [
        ("frames.encode_query_us", Layer::EncodeQuery),
        ("frames.decode_query_us", Layer::DecodeQuery),
        ("frames.encode_answer_us", Layer::EncodeAnswer),
        ("frames.decode_answer_us", Layer::DecodeAnswer),
    ]
    .into_iter()
    .map(|(name, layer)| (name, tracer.durations(layer)))
    .collect();
    for (name, us) in &frames_us {
        report.set(name, weighted_median(us, &kind_of));
    }

    if let Some(server) = &wire_server {
        let ping = median(
            &tracer
                .durations(Layer::Ping)
                .iter()
                .map(|d| d.1)
                .collect::<Vec<_>>(),
        );
        let query_us = tracer.durations(Layer::WireQuery);
        let query_all = weighted_median(&query_us, &kind_of);
        // What a wire query holds that a ping does not: one batch of one
        // and the four frame codings, call by call.
        let mut below = batch1_us.clone();
        for (_, us) in &frames_us {
            for (sum, coding) in below.iter_mut().zip(sparse_calls(us)) {
                assert_eq!(sum.0, coding.0, "taps made different calls");
                sum.1 += coding.1;
            }
        }
        let frames_all: f64 = frames_us
            .iter()
            .map(|(_, us)| weighted_median(us, &kind_of))
            .sum();
        report.set("net.rtt_ping_us", ping);
        report.set("net.rtt_query_c1d1_us", query_all);
        let mut query_ns: Vec<u32> = query_us.iter().map(|d| (d.1 * 1e3) as u32).collect();
        report.set(
            "net.rtt_query_c1d1_p99_us",
            f64::from(percentile(&mut query_ns, 0.99)) / 1e3,
        );
        report.set(
            "net.self_us",
            weighted_median(&minus(&query_us, &below), &kind_of),
        );
        let sum = ping + batch1_all + frames_all;
        println!(
            "ledger: rtt_ping {ping:.1} + service.batch1 {batch1_all:.1} + frames {frames_all:.2} \
             = {sum:.1} us against rtt_query_c1d1 {query_all:.1} us ({:+.1} %)",
            (sum / query_all - 1.0) * 100.0
        );
        if (sum / query_all - 1.0).abs() > 0.25 {
            report.problem("the wire ledger is more than 25 % off net.rtt_query_c1d1_us".into());
        }
        match open_loop(server.local_addr(), venue_id, sample) {
            Ok((p50, late_p99)) => {
                report.set("net.open3k_p50_us", p50);
                report.set("net.open3k_late_p99_us", late_p99);
            }
            Err(e) => report.problem(format!("open-loop diagnostic: {e}")),
        }
    }
    drop(wire_server);

    // ---- churn: the write path, then the concurrent phase -----------------
    if let Some((volatile, durable, dir)) = churn {
        let batch_kind = |b: usize| usize::from(matches!(plan.updates[b], Batch::Keyword(_)));
        let volatile_us = tracer.durations(Layer::UpdateVolatile);
        let durable_us = tracer.durations(Layer::UpdateDurable);
        report.set(
            "objects.update_us_per_batch",
            class_median(&volatile_us, &batch_kind, 0),
        );
        report.set(
            "keywords.update_us_per_batch",
            class_median(&volatile_us, &batch_kind, 1),
        );
        report.set(
            "persist.self_us_per_batch",
            weighted_median(&minus(&durable_us, &volatile_us), &batch_kind),
        );
        let before = churn_before.expect("read with the services");
        let after = volatile
            .svc
            .venue_stats(volatile.venue)
            .expect("venue stats");
        report.set(
            "objects.leaf_touches_per_delta",
            ratio(
                after.object_leaf_touches - before.object_leaf_touches,
                plain_deltas,
            ),
        );
        report.set(
            "objects.leaf_builds",
            (after.object_leaf_builds - before.object_leaf_builds) as f64,
        );
        report.set(
            "objects.compactions",
            (after.object_compactions - before.object_compactions) as f64,
        );
        let durable_metrics = durable.svc.metrics_snapshot();
        let (appends, _, append_p50) = histogram(&durable_metrics, "indoor_wal_append_us");
        report.set("persist.wal_append_us", append_p50 as f64);
        report.set("persist.wal_appends", appends as f64);
        report.set("persist.wal_bytes_per_delta", ratio(wal_growth, wal_deltas));
        report.attempted += volatile_us.len() as u64 + durable_us.len() as u64;
        drop((volatile, durable, dir));

        let dir = TempDir::new("trace-phase");
        let served = Served::durable(&plan, dir.path());
        served.warm_up(&plan);
        let checks = distance_checks(&plan.queries);
        let run_for = budget - tap_budget;
        let (lane, written) = churn_phase(&plan, &checks, &served, dir.path(), run_for);
        let (acks, ack_p99) = print_writer(&written, run_for);
        report.set("persist.update_p50_us", acks.median);
        report.set("persist.update_p99_us", ack_p99);
        let snapshots: Vec<f64> = written
            .snapshot_windows
            .iter()
            .map(|&(a, b)| (b - a).as_secs_f64())
            .collect();
        report.set("persist.snapshot_s", median(&snapshots));
        report.set("persist.snapshot_bytes", written.snapshot_bytes as f64);
        match stall_ratio(&lane.slices, &written.snapshot_windows) {
            Some(r) => report.set("persist.snapshot_stall_ratio", r),
            None => println!("no slice clear of a snapshot: persist.snapshot_stall_ratio unset"),
        }
        report.attempted += lane.attempted + written.batches();
        report.failed += lane.failed + written.failed;
        if run_for.as_secs() * WRITER_BATCHES_PER_S / SNAPSHOT_EVERY >= 3
            && written.snapshot_windows.len() < 3
        {
            report.problem(format!(
                "churn_durable completed {} snapshot rotations, fewer than 3",
                written.snapshot_windows.len()
            ));
        }
        let recovery = check_durability(&mut report, &plan, served, dir.path(), &written);
        report.set("persist.recover_s", recovery.recover_s);
        report.set("persist.replayed_records", recovery.replayed_records as f64);
    }

    report.set("host.ref_kernel_us", median(&ref_kernel));
    report.set(
        "trace.overhead_ratio",
        median(&traced_p50) / median(&sampled_p50),
    );
    if let Err(e) = tracer.write(workload) {
        report.problem(format!("span file: {e}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_median_weights_classes_by_their_share() {
        // Three fast calls around 1 us, one slow at 9 us.
        let calls = [(0, 1.0), (1, 1.2), (2, 0.8), (3, 9.0)];
        let class = |r: usize| usize::from(r == 3);
        assert_eq!(weighted_median(&calls, &class), 0.75 * 1.0 + 0.25 * 9.0);
        assert_eq!(class_median(&calls, &class, 1), 9.0);
        assert_eq!(class_median(&calls, &class, 7), 0.0);
    }

    #[test]
    fn minus_pairs_calls_and_sparse_calls_picks_every_eighth() {
        let upper = [(4, 5.0), (9, 7.0)];
        let lower = [(4, 2.0), (9, 3.0)];
        assert_eq!(minus(&upper, &lower), vec![(4, 3.0), (9, 4.0)]);
        let full: Durations = (0..2 * SAMPLE).map(|i| (i % SAMPLE, i as f64)).collect();
        let sparse = sparse_calls(&full);
        assert_eq!(sparse.len(), 2 * SAMPLE / SPARSE);
        assert_eq!(sparse[1], (SPARSE, SPARSE as f64));
        assert_eq!(
            sparse[SAMPLE / SPARSE],
            (0, SAMPLE as f64),
            "second round restarts"
        );
    }

    #[test]
    fn spans_are_cut_by_consecutive_clock_reads() {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            round: 3,
            spans: Vec::new(),
        };
        tracer.tap(Layer::Tree, 5..8, |_| {
            std::thread::sleep(Duration::from_micros(50))
        });
        assert_eq!(tracer.spans.len(), 3);
        for pair in tracer.spans.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns, "no gap between spans");
        }
        let us = tracer.durations(Layer::Tree);
        assert_eq!(us.iter().map(|d| d.0).collect::<Vec<_>>(), vec![5, 6, 7]);
        assert!(us.iter().all(|d| d.1 >= 50.0));
        assert!(tracer.durations(Layer::Engine).is_empty());
        assert_eq!(Layer::Tree.parent(), Some(Layer::Engine));
    }

    #[test]
    fn histogram_reads_count_sum_and_median_bucket() {
        let snap = MetricsSnapshot {
            series: vec![indoor_model::metrics::Series {
                name: "h".into(),
                help: String::new(),
                labels: vec![],
                value: MetricValue::Histogram {
                    buckets: vec![(1, 2), (2, 7), (4, 10)],
                    count: 10,
                    sum: 21,
                    max: 4,
                },
            }],
        };
        assert_eq!(histogram(&snap, "h"), (10, 21, 2));
        assert_eq!(histogram(&snap, "missing"), (0, 0, 0));
        assert_eq!(counter(&snap, "h"), 0);
    }
}
