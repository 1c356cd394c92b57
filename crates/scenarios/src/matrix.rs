//! The standing scenario matrix: six adversarial profiles replayed
//! through the full service stack, as tier-1 tests.
//!
//! Its checks are behavioural and live in source: each profile's stream
//! fingerprint at seed [`PINNED_SEED`] ([`PINNED_FINGERPRINTS`]), each
//! profile's overload expectations ([`StandardProfile`]), and the request
//! accounting of every service run. Nothing is timed; `benchmark/` is the
//! record for speed (see DESIGN.md §12).

use crate::compile::ScenarioWorld;
use indoor_model::{
    AdmissionSpec, ArrivalCurve, ChurnSpec, KeywordSkew, OverloadSpec, QueryKind, QueryMix,
    VenueAction, VenueEvent, WorkloadProfile,
};
use indoor_synth::{presets, random_venue};
use std::sync::Arc;

/// Base objects per venue slot, shared by every standard profile.
const OBJECTS_PER_VENUE: u32 = 96;

/// One standard profile plus what the overload gates are expected to do
/// under it — the matrix test hard-asserts these, so a refactor that
/// silently stops exercising admission control fails `cargo test`, not
/// just a statistic.
pub struct StandardProfile {
    pub profile: WorkloadProfile,
    /// The run must observe shed rejections (`OverloadPolicy::Shed`).
    pub expect_shed: bool,
    /// The run must observe admission timeouts (`OverloadPolicy::Block`).
    pub expect_timeouts: bool,
}

/// The worlds behind the standard slots: slot 0 is the paper's
/// Melbourne Central venue, slots 1–2 synthetic neighbours.
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
    // request at a time and sheds the rest, which the clients retry.
    // (Depth 1 because release-mode queries answer in ~5us — a deeper
    // gate never fills and the profile would stop exercising shedding
    // at all.)
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

    // 3. Zipf-skewed keyword search: 60% keyword traffic over a
    // 24-term vocabulary with s=2 skew, served by the keyword shard and
    // its cache.
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
    // that collides with any holder times out.
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

/// The seed [`PINNED_FINGERPRINTS`] hold at, and the matrix test runs at.
pub const PINNED_SEED: u64 = 42;

/// Stream fingerprint of every standard profile at [`PINNED_SEED`]. A
/// change here is a change to the workload compiler or the profile
/// vocabulary: say why in the commit that re-signs it.
pub const PINNED_FINGERPRINTS: [(&str, u64); 6] = [
    ("diurnal", 0xf360_06c1_e213_54b0),
    ("flash_crowd", 0x46ca_b595_017c_155f),
    ("zipf_keyword", 0xd0c1_2546_d1bb_81eb),
    ("churn_storm", 0xcf97_1ee2_7543_8d01),
    ("mixed_rw", 0x8e53_69b7_127b_3c54),
    ("venue_lifecycle", 0xdc09_7d88_65ca_15d7),
];

/// The pinned fingerprint of the standard profile `name`.
pub fn pinned_fingerprint(name: &str) -> u64 {
    PINNED_FINGERPRINTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("standard profile {name} has no pinned fingerprint"))
        .1
}

/// Service runs an overload profile gets to move its counters. Whether
/// two workers meet at a depth-1 gate is up to the scheduler: on a host
/// whose vCPUs are not running at the same moment a whole run can pass
/// without two queries overlapping. Pinned to one CPU, `churn_storm`
/// timed out in about one run in eight; on two free CPUs, in every run.
/// A gate that never pushes back fails every attempt; the matrix test
/// checks the first run that engaged.
const OVERLOAD_ATTEMPTS: usize = 32;

mod tests {
    use super::*;
    use crate::compile::{compile, validate_stream};
    use crate::run::{run_service, CellMetrics};
    use indoor_model::fingerprint_stream;

    #[test]
    fn standard_profiles_compile_validate_and_fingerprint_stably() {
        let world = standard_world();
        let profiles = standard_profiles();
        assert_eq!(profiles.len(), PINNED_FINGERPRINTS.len());
        for sp in profiles {
            let name = &sp.profile.name;
            let a = compile(&sp.profile, &world, PINNED_SEED, 1);
            validate_stream(&sp.profile, &world, &a).unwrap_or_else(|e| panic!("{name}: {e}"));
            let b = compile(&sp.profile, &world, PINNED_SEED, 4);
            let fp = fingerprint_stream(&a);
            assert_eq!(fp, fingerprint_stream(&b), "{name} not thread-invariant");
            assert_eq!(
                fp,
                pinned_fingerprint(name),
                "{name}: fingerprint {fp:#018x} at seed {PINNED_SEED} is not the pinned one"
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

    /// The overload check's one home. Every standard profile is compiled,
    /// validated and replayed through the service at [`PINNED_SEED`];
    /// every run must account for each request of its stream (answered or
    /// dropped), and an overload profile must move its shed / timeout
    /// counter within [`OVERLOAD_ATTEMPTS`] runs — a broken generator or an
    /// idle gate must not pass.
    #[test]
    fn standard_matrix_accounts_every_request_and_engages_its_gates() {
        let world = standard_world();
        for sp in standard_profiles() {
            let profile = &sp.profile;
            let stream = compile(profile, &world, PINNED_SEED, 2);
            validate_stream(profile, &world, &stream)
                .unwrap_or_else(|e| panic!("profile {}: invalid stream: {e}", profile.name));

            let run = || {
                let c = run_service(profile, &world, &stream, PINNED_SEED);
                assert_eq!(
                    c.answered + c.dropped,
                    c.requests,
                    "profile {}: request accounting: {c:?}",
                    profile.name
                );
                c
            };
            let engaged = |c: &CellMetrics| {
                (!sp.expect_shed || c.shed > 0) && (!sp.expect_timeouts || c.timeouts > 0)
            };
            let mut svc = run();
            for _ in 1..OVERLOAD_ATTEMPTS {
                if engaged(&svc) {
                    break;
                }
                svc = run();
            }
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
        }
    }
}
