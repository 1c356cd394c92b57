//! Scenario lab: compile a small flash-crowd workload, replay it through
//! the full `IndoorService` stack, and print what became of its requests
//! — the single-profile version of the standard matrix that
//! `crates/scenarios`' tier-1 test replays.
//!
//! The profile: two venues at steady load until an 8x spike piles onto
//! venue 0 (the "victim") for six ticks while venue 1 (the "bystander")
//! carries on. The victim's admission gate sheds beyond one in-flight
//! request; [`ShardStats`] shows the overload stayed contained — the
//! bystander's counters are untouched.
//!
//! ```sh
//! cargo run --release --example scenario_lab
//! ```

use indoor_scenarios::{compile, run_service, validate_stream, ScenarioWorld};
use indoor_spatial::model::{AdmissionSpec, OverloadSpec};
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, random_venue};
use std::sync::Arc;

fn main() {
    let seed = 7u64;
    let world = ScenarioWorld::new(vec![
        Arc::new(presets::melbourne_central().build()),
        Arc::new(random_venue(11)),
    ]);

    // A compact flash crowd: 16 ticks, spike of 8x on venue 0 mid-run,
    // kiosk-grade admission (one request at a time) at the victim.
    let mut p = WorkloadProfile::base("flash_crowd");
    p.ticks = 16;
    p.queries_per_tick = 64;
    p.initial_slots = 2;
    p.arrival = ArrivalCurve::Spike {
        start: 6,
        len: 6,
        magnify: 8,
    };
    p.hot_slot = Some(0);
    p.admission = vec![AdmissionSpec {
        slot: 0,
        max_in_flight: 1,
        policy: OverloadSpec::Shed,
    }];

    let stream = compile(&p, &world, seed, 2);
    validate_stream(&p, &world, &stream).expect("generated stream is valid");
    let queries: usize = stream.iter().map(TickEvents::queries).sum();
    println!(
        "compiled {} ticks / {queries} queries (seed {seed}, fingerprint 0x{:016x})\n",
        stream.len(),
        fingerprint_stream(&stream)
    );

    let c = run_service(&p, &world, &stream, seed);
    println!(
        "{}: {} requests, {} answered, {} dropped; gate pushback {} shed, {} timeouts\n",
        c.profile, c.requests, c.answered, c.dropped, c.shed, c.timeouts
    );

    // Per-venue attribution: rebuild the service state and show that the
    // spike's shedding landed on the victim shard only.
    let service = IndoorService::new();
    let victim = service
        .add_venue(
            world.venue(0).clone(),
            ShardConfig {
                objects: world.base_objects(0, p.objects_per_venue, seed),
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    policy: OverloadPolicy::Shed,
                },
                ..ShardConfig::default()
            },
        )
        .expect("victim venue");
    let bystander = service
        .add_venue(
            world.venue(1).clone(),
            ShardConfig {
                objects: world.base_objects(1, p.objects_per_venue, seed),
                ..ShardConfig::default()
            },
        )
        .expect("bystander venue");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for ev in stream.iter().flat_map(|te| te.events.iter()) {
                    if let ScenarioEvent::Query { slot, req } = ev {
                        let id = if *slot == 0 { victim } else { bystander };
                        let _ = service.execute(id, req);
                    }
                }
            });
        }
    });
    println!("Per-venue attribution (ShardStats):");
    for (label, id) in [("victim", victim), ("bystander", bystander)] {
        let s = service.venue_stats(id).expect("registered venue");
        println!(
            "  {label:<10} shed {:>5}  timeouts {:>3}  cached {:>4}/{:<5} gate {}",
            s.shed,
            s.admission_timeouts,
            s.cached_entries,
            s.cache_capacity,
            if s.admission_capacity == 0 {
                "unbounded".to_string()
            } else {
                format!("depth {}", s.admission_capacity)
            }
        );
    }
}
