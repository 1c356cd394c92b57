//! The four workloads: which venue, which traffic, and why.
//!
//! Request streams come from `indoor_scenarios::compile` over the four
//! profiles below — the benchmark owns the profiles, not a generator.
//! The seed is an argument; the service sees only the compiled events.

use indoor_model::{
    fingerprint_stream, ArrivalCurve, ChurnSpec, KeywordSkew, ObjectDelta, ObjectUpdate, QueryMix,
    QueryRequest, ScenarioEvent, Venue, WorkloadProfile,
};
use indoor_scenarios::{compile, validate_stream, ScenarioWorld};
use indoor_synth::{presets, CampusSpec};
use std::sync::Arc;
use vip_tree::ShardConfig;

/// Seed of the pinned stream fingerprints (and the default `--seed`).
pub const DEFAULT_SEED: u64 = 42;

/// Keyword vocabulary of every profile: labels `kw0`..`kw7`.
const VOCABULARY: u32 = 8;

/// Query events per read-only stream. The generators cycle the stream,
/// so its length sets only how long a cold request stays away: 262 144
/// requests put 64 cache capacities between two visits.
const QUERY_EVENTS: u32 = 1 << 18;

/// Deltas per update batch, and the writer's fixed batch rate.
pub const BATCH_DELTAS: u32 = 8;
pub const WRITER_BATCHES_PER_S: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampusCold,
    KioskHot,
    ChurnDurable,
    WireClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampusCold,
        Workload::KioskHot,
        Workload::ChurnDurable,
        Workload::WireClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusCold => "campus_cold",
            Workload::KioskHot => "kiosk_hot",
            Workload::ChurnDurable => "churn_durable",
            Workload::WireClosed => "wire_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `campus_cold` runs on the paper's largest dataset (Clayton, §4.1
    /// Table 2: ~55 k doors, an index of ~95 MiB with its leaf grids
    /// against a 4 MiB L2); the others on Menzies-2, small enough that
    /// the tree is never what they wait for.
    pub fn venue_spec(self) -> CampusSpec {
        match self {
            Workload::CampusCold => presets::clayton(),
            _ => presets::menzies_2(),
        }
    }

    /// The stream fingerprint at [`DEFAULT_SEED`]. A refactor of the
    /// scenario compiler that changes the traffic fails the run instead
    /// of silently changing what is measured.
    pub fn pinned_fingerprint(self) -> u64 {
        match self {
            Workload::CampusCold => 0xeeee_7a28_c9f5_2c58,
            // `wire_closed` replays the `kiosk_hot` profile.
            Workload::KioskHot | Workload::WireClosed => 0x90a7_9068_f503_57f1,
            Workload::ChurnDurable => 0x9b6f_e5ea_bc9b_496b,
        }
    }

    pub fn profile(self) -> WorkloadProfile {
        // `range_radius` is fixed per venue so that the median range
        // answer holds 10-50 objects (21 on Clayton, 20 on Menzies-2).
        let (objects, radius) = match self {
            Workload::CampusCold => (8192, 100.0),
            _ => (2048, 30.0),
        };
        let base = WorkloadProfile {
            ticks: QUERY_EVENTS / 64,
            queries_per_tick: 64,
            objects_per_venue: objects,
            mix: QueryMix::uniform(),
            knn_k: 10,
            range_radius: radius,
            keywords: Some(KeywordSkew {
                vocabulary: VOCABULARY,
                exponent: 1,
            }),
            ..WorkloadProfile::base(self.name())
        };
        match self {
            // Every request distinct: the cache never hits.
            Workload::CampusCold => base,
            // The compiler draws the repeat per *point*, so a pair query
            // repeats only when both ends are hot and the pair space is
            // `hot_set`²: 24 keeps the distinct hot requests at ~1.4 k
            // (24 kNN + 24 range + <= 192 keyword + 2 x 576 pairs), under
            // the 4 096-entry cache, for a hit rate of ~0.97. A hot set
            // of 256 would put 65 k pairs through a 4 k cache and quietly
            // turn this into a miss workload.
            Workload::KioskHot | Workload::WireClosed => WorkloadProfile {
                repeat_pct: 98,
                hot_set: 24,
                ..base
            },
            // One tick = one batch of 8 deltas beside 8 queries. Updates
            // cannot cycle (an id is inserted once), so the stream holds
            // a batch for every 2 ms of the longest run the contract
            // allows (60 s) and some to spare.
            Workload::ChurnDurable => WorkloadProfile {
                ticks: QUERY_EVENTS / 8,
                queries_per_tick: 8,
                churn: Some(ChurnSpec {
                    base_per_tick: BATCH_DELTAS,
                    curve: ArrivalCurve::Constant,
                    insert_pct: 25,
                    remove_pct: 25,
                }),
                repeat_pct: 25,
                ..base
            },
        }
    }
}

/// One `Updates` event, in the form of the service call that absorbs it:
/// an all-unlabelled batch goes through `update_objects`, an all-labelled
/// one (about one in three, the compiler's 0.34 draw) through
/// `update_keyword_objects`.
pub enum Batch {
    Plain(Vec<ObjectDelta>),
    Keyword(Vec<ObjectUpdate>),
}

impl Batch {
    fn of(updates: Vec<ObjectUpdate>) -> Batch {
        if updates.iter().all(|u| u.labels.is_empty()) {
            Batch::Plain(updates.iter().map(|u| u.delta).collect())
        } else {
            Batch::Keyword(updates)
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Batch::Plain(deltas) => deltas.len(),
            Batch::Keyword(updates) => updates.len(),
        }
    }
}

/// Everything a run needs that depends on the workload and the seed.
pub struct Plan {
    pub workload: Workload,
    pub venue: Arc<Venue>,
    pub profile: WorkloadProfile,
    /// Objects, keyword-labelled copy, one engine thread; the rest at
    /// the shipped defaults (unbounded admission, 4 096-entry cache,
    /// `SyncPolicy::Never`).
    pub config: ShardConfig,
    /// The stream's `Query` events, in order.
    pub queries: Vec<QueryRequest>,
    /// The stream's `Updates` events, in order (empty unless the
    /// profile churns).
    pub updates: Vec<Batch>,
    pub fingerprint: u64,
}

impl Plan {
    /// Compile `workload`'s profile at `seed` against `venue`, check the
    /// stream, and split it into the reader's and the writer's halves.
    pub fn compile(workload: Workload, venue: Arc<Venue>, seed: u64) -> Plan {
        let profile = workload.profile();
        let world = ScenarioWorld::new(vec![venue.clone()]);
        let stream = compile(&profile, &world, seed, 1);
        validate_stream(&profile, &world, &stream).expect("compiled stream is valid");
        let fingerprint = fingerprint_stream(&stream);
        let (mut queries, mut updates) = (Vec::new(), Vec::new());
        for event in stream.into_iter().flat_map(|tick| tick.events) {
            match event {
                ScenarioEvent::Query { req, .. } => queries.push(req),
                ScenarioEvent::Updates { updates: batch, .. } => updates.push(Batch::of(batch)),
                ScenarioEvent::AddVenue { .. } | ScenarioEvent::RemoveVenue { .. } => {
                    unreachable!("benchmark profiles have no venue events")
                }
            }
        }
        // The compiler's liveness model starts from ids 0..n at these
        // positions, object `i` labelled `kw{i % vocabulary}`.
        let objects = world.base_objects(0, profile.objects_per_venue, seed);
        let keywords = objects
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, vec![KeywordSkew::label(i as u32 % VOCABULARY)]))
            .collect();
        Plan {
            workload,
            venue,
            profile,
            config: ShardConfig {
                threads: 1,
                objects,
                keywords,
                ..ShardConfig::default()
            },
            queries,
            updates,
            fingerprint,
        }
    }

    /// At the default seed the stream must be the pinned one.
    pub fn check_fingerprint(&self, seed: u64) -> Result<(), String> {
        let pinned = self.workload.pinned_fingerprint();
        if seed == DEFAULT_SEED && self.fingerprint != pinned {
            return Err(format!(
                "{}: stream fingerprint {:#018x} at seed {DEFAULT_SEED} is not the pinned {:#018x}",
                self.workload.name(),
                self.fingerprint,
                pinned
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(w: Workload, seed: u64) -> Plan {
        Plan::compile(w, Arc::new(w.venue_spec().build()), seed)
    }

    #[test]
    fn default_seed_reproduces_the_pinned_fingerprints() {
        for w in Workload::ALL {
            let p = plan(w, DEFAULT_SEED);
            p.check_fingerprint(DEFAULT_SEED).unwrap();
            assert_eq!(p.queries.len(), QUERY_EVENTS as usize, "{}", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_compiler() {
        for w in [Workload::KioskHot, Workload::ChurnDurable] {
            let a = plan(w, 43);
            let b = plan(w, 43);
            assert_eq!(a.fingerprint, b.fingerprint, "same seed, same stream");
            assert_ne!(a.fingerprint, w.pinned_fingerprint(), "{}", w.name());
            assert_ne!(a.queries, plan(w, DEFAULT_SEED).queries);
            // Off the default seed nothing is pinned.
            a.check_fingerprint(43).unwrap();
        }
    }

    #[test]
    fn churn_stream_feeds_both_threads() {
        let p = plan(Workload::ChurnDurable, DEFAULT_SEED);
        // A batch for every 2 ms of a 60 s run.
        assert!(p.updates.len() as u64 >= 60 * WRITER_BATCHES_PER_S);
        assert!(p.updates.iter().all(|b| b.len() == BATCH_DELTAS as usize));
        let labelled = p
            .updates
            .iter()
            .filter(|b| matches!(b, Batch::Keyword(_)))
            .count();
        let share = labelled as f64 / p.updates.len() as f64;
        assert!((0.30..0.38).contains(&share), "keyword share {share}");
        assert!(plan(Workload::KioskHot, DEFAULT_SEED).updates.is_empty());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("engine_cold"), None);
    }
}
