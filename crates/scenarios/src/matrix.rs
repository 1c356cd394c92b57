//! The standing scenario matrix: six adversarial profiles × the
//! competitor suite × the full service stack.
//!
//! `scenario_bench` runs exactly this matrix with a fixed seed and
//! commits the result as `BENCH_scenarios.json`; `scenario_check` gates
//! regressions against it. The profile set is the contract — add a
//! profile here (and a digest row will appear in the JSON), refresh the
//! baseline, and the new cell joins the gate (see DESIGN.md §12).

use crate::compile::{compile, validate_stream, ScenarioWorld};
use crate::report::ProfileDigest;
use crate::run::{run_index, run_service, CellMetrics, RunOptions};
use indoor_bench::{build_suite, SuiteOptions};
use indoor_model::{
    fingerprint_stream, AdmissionSpec, ArrivalCurve, ChurnSpec, KeywordSkew, OverloadSpec,
    QueryKind, QueryMix, TickEvents, VenueAction, VenueEvent, WorkloadProfile,
};
use indoor_synth::{presets, random_venue};
use std::sync::Arc;

/// Shared object-set size: every standard profile uses the same base
/// objects so the per-index suite is built **once** and replayed under
/// every profile.
pub const OBJECTS_PER_VENUE: u32 = 96;

/// One standard profile plus what the overload gates are expected to do
/// under it — `scenario_bench` hard-asserts these, so a refactor that
/// silently stops exercising admission control fails the bench, not
/// just a statistic.
pub struct StandardProfile {
    pub profile: WorkloadProfile,
    /// The run must observe shed rejections (`OverloadPolicy::Shed`).
    pub expect_shed: bool,
    /// The run must observe admission timeouts (`OverloadPolicy::Block`).
    pub expect_timeouts: bool,
}

/// The worlds behind the standard slots: slot 0 is the paper's
/// Melbourne Central venue (shared with `BENCH_query.json` cells, so
/// per-index numbers are comparable across the two files), slots 1–2
/// synthetic neighbours.
pub fn standard_world() -> ScenarioWorld {
    ScenarioWorld::new(vec![
        Arc::new(presets::melbourne_central().build()),
        Arc::new(random_venue(101)),
        Arc::new(random_venue(102)),
    ])
}

fn base(name: &str) -> WorkloadProfile {
    let mut p = WorkloadProfile::base(name);
    p.ticks = 32;
    p.queries_per_tick = 48;
    p.objects_per_venue = OBJECTS_PER_VENUE;
    p.repeat_pct = 25;
    p.hot_set = 48;
    p
}

/// The six standard profiles (see DESIGN.md §12 for the vocabulary).
pub fn standard_profiles() -> Vec<StandardProfile> {
    let mut out = Vec::new();

    // 1. A two-cycle diurnal day over one venue: load swells and ebbs,
    // the kiosk-repeat share keeps the cache warm.
    let mut diurnal = base("diurnal");
    diurnal.arrival = ArrivalCurve::Diurnal {
        trough_pct: 25,
        cycles: 2,
    };
    out.push(StandardProfile {
        profile: diurnal,
        expect_shed: false,
        expect_timeouts: false,
    });

    // 2. Flash crowd: an 8x spike piles onto venue 0 mid-run while its
    // neighbour holds base load; venue 0's kiosk-grade gate admits one
    // request at a time and sheds the rest. The comparative question:
    // what do p99 and shed counts look like at the victim vs. the
    // bystander? (Depth 1 because release-mode queries answer in ~5us —
    // a deeper gate never fills and the profile would stop exercising
    // shedding at all.)
    let mut flash = base("flash_crowd");
    flash.initial_slots = 2;
    flash.arrival = ArrivalCurve::Spike {
        start: 12,
        len: 6,
        magnify: 8,
    };
    flash.hot_slot = Some(0);
    flash.admission = vec![AdmissionSpec {
        slot: 0,
        max_in_flight: 1,
        policy: OverloadSpec::Shed,
    }];
    out.push(StandardProfile {
        profile: flash,
        expect_shed: true,
        expect_timeouts: false,
    });

    // 3. Zipf-skewed keyword search: 80%-ish keyword traffic over a
    // 24-term vocabulary with s=2 skew. Bare indexes answer keyword
    // queries empty (dispatch cost only) — the service row, with its
    // keyword shard and cache, is the real measurement.
    let mut zipf = base("zipf_keyword");
    zipf.keywords = Some(KeywordSkew {
        vocabulary: 24,
        exponent: 2,
    });
    let mut weights = [1u32; QueryKind::COUNT];
    weights[QueryKind::KnnKeyword.index()] = 6;
    zipf.mix = QueryMix { weights };
    out.push(StandardProfile {
        profile: zipf,
        expect_shed: false,
        expect_timeouts: false,
    });

    // 4. Churn storm: a 6x delta burst (inserts/removes/moves, keyword
    // batches interleaved) lands mid-run while queries keep arriving
    // through a Block{1us} gate of depth 1 — admission timeouts are the
    // expected symptom of updaters and queries colliding. The budget is
    // deliberately smaller than one release-mode query (~5us): a waiter
    // that collides with any holder times out, so the counter is
    // exercised on every run, not only when the scheduler is unkind.
    // The query spike rides the same window as the delta burst: enough
    // per-tick queries that the workers genuinely overlap (a constant
    // trickle of 48/tick spreads 12 queries per worker across thread
    // spawn stagger and rarely collides at all).
    let mut storm = base("churn_storm");
    storm.keywords = Some(KeywordSkew {
        vocabulary: 12,
        exponent: 1,
    });
    storm.mix = QueryMix::uniform();
    storm.arrival = ArrivalCurve::Spike {
        start: 8,
        len: 10,
        magnify: 6,
    };
    storm.hot_slot = Some(0);
    storm.churn = Some(ChurnSpec {
        base_per_tick: 60,
        curve: ArrivalCurve::Spike {
            start: 8,
            len: 10,
            magnify: 6,
        },
        insert_pct: 25,
        remove_pct: 25,
    });
    storm.admission = vec![AdmissionSpec {
        slot: 0,
        max_in_flight: 1,
        policy: OverloadSpec::Block { timeout_micros: 1 },
    }];
    out.push(StandardProfile {
        profile: storm,
        expect_shed: false,
        expect_timeouts: true,
    });

    // 5. Mixed read/write: steady plain-delta churn under a uniform
    // query mix across two venues — the "normal busy day" cell.
    let mut mixed = base("mixed_rw");
    mixed.initial_slots = 2;
    mixed.mix = QueryMix::uniform();
    mixed.keywords = Some(KeywordSkew {
        vocabulary: 12,
        exponent: 1,
    });
    mixed.churn = Some(ChurnSpec {
        base_per_tick: 30,
        curve: ArrivalCurve::Constant,
        insert_pct: 30,
        remove_pct: 30,
    });
    out.push(StandardProfile {
        profile: mixed,
        expect_shed: false,
        expect_timeouts: false,
    });

    // 6. Venue lifecycle: a venue joins mid-traffic, another retires and
    // later returns — routing, id-burning and fresh-shard build all
    // happen while the rest of the fleet keeps serving.
    let mut life = base("venue_lifecycle");
    life.initial_slots = 2;
    life.venue_events = vec![
        VenueEvent {
            tick: 8,
            action: VenueAction::Add { slot: 2 },
        },
        VenueEvent {
            tick: 16,
            action: VenueAction::Remove { slot: 1 },
        },
        VenueEvent {
            tick: 24,
            action: VenueAction::Add { slot: 1 },
        },
    ];
    out.push(StandardProfile {
        profile: life,
        expect_shed: false,
        expect_timeouts: false,
    });

    out
}

/// Everything one matrix run produces.
pub struct MatrixOutput {
    pub digests: Vec<ProfileDigest>,
    pub cells: Vec<CellMetrics>,
}

/// Compile, validate and run every standard profile: one `SVC`
/// end-to-end cell per profile, plus one query-replay cell per
/// competitor (slot-0 stream, updates skipped — bare indexes are
/// immutable snapshots). Panics if a generated stream fails validation
/// or an overload expectation is not met — a broken generator must not
/// produce a plausible-looking baseline.
pub fn run_matrix(seed: u64, compile_threads: usize, opts: &RunOptions) -> MatrixOutput {
    let world = standard_world();
    let suite = build_suite(
        world.venue(0),
        &SuiteOptions {
            with_distaw_plus: true,
            objects: Some(world.base_objects(0, OBJECTS_PER_VENUE, seed)),
            ..SuiteOptions::default()
        },
    );

    let mut digests = Vec::new();
    let mut cells = Vec::new();
    for sp in standard_profiles() {
        let profile = &sp.profile;
        let stream = compile(profile, &world, seed, compile_threads);
        validate_stream(profile, &world, &stream)
            .unwrap_or_else(|e| panic!("profile {}: invalid stream: {e}", profile.name));
        digests.push(ProfileDigest {
            name: profile.name.clone(),
            fingerprint: fingerprint_stream(&stream),
            ticks: profile.ticks,
            queries: stream.iter().map(TickEvents::queries).sum(),
            deltas: stream.iter().map(TickEvents::deltas).sum(),
        });

        let svc = run_service(profile, &world, &stream, seed, opts);
        assert!(
            !sp.expect_shed || svc.shed > 0,
            "profile {} was expected to exercise shedding: {svc:?}",
            profile.name
        );
        assert!(
            !sp.expect_timeouts || svc.timeouts > 0,
            "profile {} was expected to exercise admission timeouts: {svc:?}",
            profile.name
        );
        cells.push(svc);
        for (index, ..) in &suite {
            cells.push(run_index(profile, index, &stream));
        }
    }
    MatrixOutput { digests, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_profiles_compile_validate_and_fingerprint_stably() {
        let world = standard_world();
        for sp in standard_profiles() {
            let a = compile(&sp.profile, &world, 1234, 1);
            validate_stream(&sp.profile, &world, &a)
                .unwrap_or_else(|e| panic!("{}: {e}", sp.profile.name));
            let b = compile(&sp.profile, &world, 1234, 4);
            assert_eq!(
                fingerprint_stream(&a),
                fingerprint_stream(&b),
                "{} not thread-invariant",
                sp.profile.name
            );
        }
    }

    #[test]
    fn profile_names_are_unique() {
        let profiles = standard_profiles();
        let mut names: Vec<&str> = profiles.iter().map(|p| p.profile.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), profiles.len());
    }
}
