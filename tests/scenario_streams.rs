//! Property tests for the scenario-lab workload compiler
//! (`crates/scenarios`): for *arbitrary* profiles — not just the six
//! committed standards — compilation must be bit-deterministic for a
//! fixed seed regardless of thread count, and every generated stream
//! must pass the independent validator (venue ids in range, no query or
//! delta to a dead venue, no `DeltaError`-shaped update batch).
//!
//! These are the properties the pinned fingerprints rely on
//! (`PINNED_FINGERPRINTS` in `crates/scenarios/src/matrix.rs`, asserted
//! by a unit test at seed 42): a pin is only meaningful if identical
//! seeds really do reproduce identical streams on any runner. The lab's
//! other checks — request accounting, must-shed and must-timeout — need
//! a service to replay through, so their one home is the tier-1 test
//! `matrix::tests::standard_matrix_accounts_every_request_and_engages_its_gates`
//! beside `run_service` in `crates/scenarios`; these tests need only the
//! compiler and the validator.

use indoor_scenarios::{compile, validate_stream, ScenarioWorld};
use indoor_spatial::model::{AdmissionSpec, OverloadSpec, VenueAction, VenueEvent};
use indoor_spatial::prelude::*;
use indoor_spatial::synth::random_venue;
use proptest::prelude::*;
use std::sync::Arc;

fn world() -> ScenarioWorld {
    ScenarioWorld::new(vec![
        Arc::new(random_venue(70)),
        Arc::new(random_venue(71)),
        Arc::new(random_venue(72)),
    ])
}

/// Assemble a profile from raw generator draws, exercising every
/// vocabulary axis: arrival shape, keyword skew, churn, admission,
/// multi-venue traffic and mid-run lifecycle.
#[allow(clippy::too_many_arguments)]
fn profile(
    ticks: u32,
    qpt: u32,
    arrival: u8,
    slots: u32,
    keywords: bool,
    churn: bool,
    lifecycle: bool,
    admission: bool,
) -> WorkloadProfile {
    let mut p = WorkloadProfile::base("prop");
    p.ticks = ticks;
    p.queries_per_tick = qpt;
    p.initial_slots = slots;
    p.arrival = match arrival % 3 {
        0 => ArrivalCurve::Constant,
        1 => ArrivalCurve::Diurnal {
            trough_pct: 20,
            cycles: 2,
        },
        _ => ArrivalCurve::Spike {
            start: ticks / 4,
            len: (ticks / 4).max(1),
            magnify: 5,
        },
    };
    if matches!(p.arrival, ArrivalCurve::Spike { .. }) {
        p.hot_slot = Some(0);
    }
    if keywords {
        p.keywords = Some(KeywordSkew {
            vocabulary: 8,
            exponent: 2,
        });
        p.mix = QueryMix::uniform();
    }
    if churn {
        p.churn = Some(ChurnSpec {
            base_per_tick: 12,
            curve: ArrivalCurve::Spike {
                start: ticks / 3,
                len: (ticks / 3).max(1),
                magnify: 4,
            },
            insert_pct: 30,
            remove_pct: 30,
        });
    }
    if lifecycle && slots < 3 {
        // Venue 2 joins mid-run, serves, and retires again.
        p.venue_events = vec![
            VenueEvent {
                tick: ticks / 3,
                action: VenueAction::Add { slot: 2 },
            },
            VenueEvent {
                tick: 2 * ticks / 3,
                action: VenueAction::Remove { slot: 2 },
            },
        ];
    }
    if admission {
        p.admission = vec![AdmissionSpec {
            slot: 0,
            max_in_flight: 2,
            policy: OverloadSpec::Shed,
        }];
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fingerprint contract behind the pins: one seed, one
    /// stream — no matter how many compile threads, and stable across
    /// repeated compilations. A different seed must not collide.
    #[test]
    fn compilation_is_bit_deterministic_for_a_fixed_seed(
        seed in 0u64..10_000,
        ticks in 4u32..16,
        qpt in 4u32..32,
        arrival in 0u8..3,
        slots in 1u32..3,
        flags in 0u8..16,
    ) {
        let world = world();
        let p = profile(
            ticks, qpt, arrival, slots,
            flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0,
        );
        let fp1 = fingerprint_stream(&compile(&p, &world, seed, 1));
        for threads in [2usize, 5] {
            prop_assert_eq!(
                fp1,
                fingerprint_stream(&compile(&p, &world, seed, threads)),
                "thread count {} changed the stream", threads
            );
        }
        prop_assert_eq!(fp1, fingerprint_stream(&compile(&p, &world, seed, 1)));
        assert_ne!(
            fp1,
            fingerprint_stream(&compile(&p, &world, seed ^ 0x9E37_79B9, 1)),
            "distinct seeds collided"
        );
    }

    /// Every generated stream is well-formed under the independent
    /// validator: ticks ordered, venue ids in range, queries and updates
    /// only to live venues, delta batches applicable without
    /// `DeltaError`, partitions within venue bounds.
    #[test]
    fn generated_streams_pass_the_independent_validator(
        seed in 0u64..10_000,
        ticks in 4u32..16,
        qpt in 4u32..32,
        arrival in 0u8..3,
        slots in 1u32..3,
        flags in 0u8..16,
    ) {
        let world = world();
        let p = profile(
            ticks, qpt, arrival, slots,
            flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0,
        );
        let stream = compile(&p, &world, seed, 3);
        prop_assert_eq!(stream.len(), ticks as usize);
        if let Err(e) = validate_stream(&p, &world, &stream) {
            panic!("invalid stream: {e}");
        }
        // The stream is non-trivial: at least one query per tick floor.
        let queries: usize = stream.iter().map(TickEvents::queries).sum();
        prop_assert!(queries > 0, "profile generated no queries at all");
    }
}
