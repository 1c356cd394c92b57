//! The end-to-end run (`--trace 0`): set up, warm up, measure the phase
//! in slices, check answers, report what a user of the system sees.

use crate::estimators::Summary;
use crate::phase::{Lanes, PhaseTimings};
use crate::report::{Report, END_TO_END};
use crate::run::{
    distance_checks, inproc_lane, menu_answers, repeat_setup, verify_distances, verify_replies,
    wire_lane, writer, LaneContext, LaneReport, Served, TempDir, Wired, WriterReport,
    SNAPSHOT_EVERY, WARM_OPS,
};
use crate::workloads::{Plan, Workload, WRITER_BATCHES_PER_S};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vip_tree::{IndoorService, ServiceStats};

/// Print and check the cache hit rate of the queries answered between
/// two stats readings.
fn phase_hit_rate(
    report: &mut Report,
    workload: Workload,
    before: &ServiceStats,
    after: &ServiceStats,
) {
    let queries = after.total_queries() - before.total_queries();
    let hits = after.total_cache_hits() - before.total_cache_hits();
    let hit_rate = hits as f64 / queries.max(1) as f64;
    println!("cache hit rate over the phase {hit_rate:.4}");
    check_hit_rate(report, workload, hit_rate);
}

/// Check that the workload still loads the layer it exists for: no hits
/// on `campus_cold`, 0.95-0.99 on the two hit-dominated workloads (at
/// 0.90 the misses would own three quarters of the time; a rate that
/// parks p99 on the hit/miss boundary would make it bimodal).
pub fn check_hit_rate(report: &mut Report, workload: Workload, hit_rate: f64) {
    let ok = match workload {
        Workload::CampusCold => hit_rate == 0.0,
        Workload::KioskHot | Workload::WireClosed => (0.95..=0.99).contains(&hit_rate),
        Workload::ChurnDurable => true,
    };
    if !ok {
        report.problem(format!(
            "{}: cache hit rate {hit_rate:.4} is outside the workload's design",
            workload.name()
        ));
    }
}

/// Compile the plan for `workload` at `seed` on its (already
/// synthesised) venue and check the stream against the pinned
/// fingerprint.
pub fn plan_for(
    report: &mut Report,
    workload: Workload,
    seed: u64,
    venue: Arc<indoor_model::Venue>,
) -> Plan {
    let plan = Plan::compile(workload, venue, seed);
    println!(
        "workload {} seed {seed} stream fingerprint {:#018x} ({} queries, {} update batches)",
        workload.name(),
        plan.fingerprint,
        plan.queries.len(),
        plan.updates.len()
    );
    if let Err(e) = plan.check_fingerprint(seed) {
        report.problem(e);
    }
    plan
}

/// The concurrent phase of `churn_durable`: a closed-loop reader beside
/// the paced writer, on the same shard.
pub fn churn_phase(
    plan: &Plan,
    checks: &[bool],
    served: &Served,
    dir: &Path,
    run_for: Duration,
) -> (LaneReport, WriterReport) {
    let lanes = Lanes::new(1);
    let go = Barrier::new(2);
    let ctx = LaneContext {
        plan,
        checks,
        lanes: &lanes,
        go: &go,
        run_for,
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| inproc_lane(&ctx, served, 0, WARM_OPS));
        let writer = scope.spawn(|| writer(&ctx, served, dir));
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    })
}

/// What dropping and reopening the durable service showed.
pub struct Recovery {
    pub recover_s: f64,
    pub replayed_records: usize,
}

/// After the phase has quiesced: the live object counts equal the
/// generator's model; then drop the service and reopen it from its
/// directory — a 200-request menu answers byte-identically, the version
/// survives, and recovery replays exactly the records journalled after
/// the last snapshot.
pub fn check_durability(
    report: &mut Report,
    plan: &Plan,
    served: Served,
    dir: &Path,
    written: &WriterReport,
) -> Recovery {
    let base = i64::from(plan.profile.objects_per_venue);
    let engine = served.svc.engine(served.venue).expect("venue registered");
    let plain_live = engine
        .tree()
        .ip()
        .object_index()
        .map_or(0, |o| o.num_live());
    let keyword_live = engine.keywords().map_or(0, |k| k.object_index().num_live());
    drop(engine);
    let want = (base + written.plain_growth, base + written.keyword_growth);
    if (plain_live as i64, keyword_live as i64) != want {
        report.problem(format!(
            "live objects (plain {plain_live}, keyword {keyword_live}) differ from the model {want:?}"
        ));
    }
    let rotations = written.snapshot_windows.len() as u64;
    if rotations != written.batches() / SNAPSHOT_EVERY {
        report.problem(format!(
            "{rotations} snapshot rotations for {} batches",
            written.batches()
        ));
    }

    let menu = menu_answers(plan, &served);
    let version = served.svc.version(served.venue).expect("venue registered");
    let venue = served.venue;
    let t = Instant::now();
    drop(served);
    let (svc, recovery) = IndoorService::open_with_report(dir).expect("reopen durable service");
    let recover_s = t.elapsed().as_secs_f64();

    let reopened = Served {
        svc: Arc::new(svc),
        venue,
    };
    if reopened.svc.version(venue).ok() != Some(version) {
        report.problem(format!("version {version} did not survive the reopen"));
    }
    let journalled = (written.batches() - written.batches_at_last_snapshot) as usize;
    // A run too short to snapshot replays the venue's Create record too.
    let expected = journalled + usize::from(rotations == 0);
    if recovery.replayed_records != expected {
        report.problem(format!(
            "recovery replayed {} records, {expected} were journalled after the last snapshot",
            recovery.replayed_records
        ));
    }
    let differing = menu
        .iter()
        .zip(menu_answers(plan, &reopened))
        .filter(|(before, after)| *before != after)
        .count();
    report.attempted += menu.len() as u64;
    report.failed += differing as u64;
    println!(
        "durability: {} batches acked, {rotations} rotations, reopen replayed {} records, \
         {differing} of {} menu answers differ",
        written.batches(),
        recovery.replayed_records,
        menu.len()
    );
    Recovery {
        recover_s,
        replayed_records: recovery.replayed_records,
    }
}

/// Print the writer's side of the phase; returns its ack latency's
/// summary and p99.
pub fn print_writer(written: &WriterReport, run_for: Duration) -> (Summary, f64) {
    let mut acks = written.ack_us.clone();
    acks.sort_by(f64::total_cmp);
    let mut late = written.late_us.clone();
    late.sort_by(f64::total_cmp);
    let p99 = |v: &[f64]| v.get(v.len() * 99 / 100).copied().unwrap_or(0.0);
    let summary = Summary::of(&acks);
    println!(
        "writer: {} batches of the {} scheduled, update_p50_us = {summary} us, \
         update p99 {:.1} us, generator lateness p99 {:.1} us",
        written.batches(),
        run_for.as_secs() * WRITER_BATCHES_PER_S,
        p99(&acks),
        p99(&late)
    );
    (summary, p99(&acks))
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Report {
    let mut report = Report::new(END_TO_END);
    let venue = Arc::new(workload.venue_spec().build());
    let plan = plan_for(&mut report, workload, seed, venue);
    let checks = distance_checks(&plan.queries);
    let run_for = Duration::from_secs(seconds);

    let (lane, setup, index_mib) = match workload {
        Workload::CampusCold | Workload::KioskHot => {
            let (served, setup) = repeat_setup(|| {
                let served = Served::volatile(&plan);
                served.warm_up(&plan);
                served
            });
            let lanes = Lanes::new(1);
            let go = Barrier::new(1);
            let ctx = LaneContext {
                plan: &plan,
                checks: &checks,
                lanes: &lanes,
                go: &go,
                run_for,
            };
            let before = served.svc.stats();
            let lane = inproc_lane(&ctx, &served, 0, WARM_OPS);
            phase_hit_rate(&mut report, workload, &before, &served.svc.stats());
            (lane, setup, served.index_mib())
        }
        Workload::ChurnDurable => {
            // The tuple drops the service before its directory.
            let ((served, dir), setup) = repeat_setup(|| {
                let dir = TempDir::new(workload.name());
                let served = Served::durable(&plan, dir.path());
                served.warm_up(&plan);
                (served, dir)
            });
            let index_mib = served.index_mib();
            let (lane, written) = churn_phase(&plan, &checks, &served, dir.path(), run_for);
            print_writer(&written, run_for);
            report.attempted += written.batches();
            report.failed += written.failed;
            let recovery = check_durability(&mut report, &plan, served, dir.path(), &written);
            println!("recover_s = {:.4} s", recovery.recover_s);
            (lane, setup, index_mib)
        }
        Workload::WireClosed => {
            let (mut wired, setup) = repeat_setup(|| {
                let mut wired = Wired::new(&plan);
                wired.warm_up(&plan);
                wired
            });
            let lanes = Lanes::new(wired.clients.len());
            let go = Barrier::new(wired.clients.len());
            let ctx = LaneContext {
                plan: &plan,
                checks: &checks,
                lanes: &lanes,
                go: &go,
                run_for,
            };
            let venue = wired.served.venue.index() as u32;
            let before = wired.served.svc.stats();
            let mut lane = LaneReport::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = wired
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let ctx = &ctx;
                        scope.spawn(move || wire_lane(ctx, client, venue, i))
                    })
                    .collect();
                for h in handles {
                    lane.merge(h.join().expect("generator thread"));
                }
            });
            phase_hit_rate(&mut report, workload, &before, &wired.served.svc.stats());
            let (compared, differing) = verify_replies(&plan, &wired.served, &lane.samples.replies);
            println!(
                "wire: {compared} replies compared with in-process answers, {differing} differ"
            );
            report.failed += differing;
            if compared == 0 {
                report.problem("no wire reply was compared with the service".into());
            }
            (lane, setup, wired.served.index_mib())
        }
    };

    let (compared, wrong) = verify_distances(&plan, &lane.samples.distances);
    println!("oracle: {compared} distance answers compared, {wrong} wrong");
    report.attempted += lane.attempted;
    report.failed += lane.failed + wrong;
    if compared == 0 {
        report.problem("no distance answer was compared with the oracle".into());
    }

    let timings = PhaseTimings::of(&lane.slices);
    // Not a metric of the system: the host's weather while it was measured.
    println!("host.ref_kernel_us = {} us", timings.ref_kernel_us);
    report.set_summary("throughput_ops_s", timings.throughput_ops_s);
    report.set_summary("query_p50_us", timings.query_p50_us);
    // Printed, not gated: the tail moves too much between same-code runs.
    println!("query_p99_us = {} us", timings.query_p99_us);
    report.set_summary("cpu_us_per_op", timings.cpu_us_per_op);
    report.set_summary("setup_s", setup.setup_s());
    report.set("index_mib", index_mib);
    report.set("resident_mib", setup.resident_mib);
    report
}
