//! Workload-profile vocabulary for the scenario lab.
//!
//! The indoor-query experimental study evaluates indexes under a *matrix*
//! of workloads, not a single request mix: load that swells and ebbs over
//! a day, flash crowds that pile onto one venue, keyword popularity that
//! follows a heavy-tailed (Zipf) distribution, churn storms, and venues
//! appearing or disappearing while traffic is live. This module captures
//! that matrix as **data**: a [`WorkloadProfile`] describes a workload
//! declaratively, and a compiler (the `indoor-scenarios` crate) lowers it
//! into a timestamped [`TickEvents`] stream of typed requests and object
//! updates that any runner can replay.
//!
//! The vocabulary is deliberately free of generators and indexes — it is
//! the *contract* between profile authors, the compiler, and runners, the
//! same way [`QueryRequest`] is the contract between
//! clients and indexes.
//!
//! # Determinism
//!
//! Everything here is reproducible bit-for-bit from a seed, on any host.
//! That rules out transcendental math (libm results vary across
//! platforms), so the diurnal curve is a triangle wave, not a sinusoid,
//! and the Zipf skew uses an **integer** exponent (`weight = 1/rank^s`
//! computed by repeated multiplication). [`StreamFingerprint`] hashes a
//! compiled stream into one `u64` over the same bit-pattern identity the
//! request cache keys on, so "identical seeds produce identical streams"
//! is checkable across machines by comparing a single number.

use crate::{ObjectDelta, ObjectUpdate, QueryKind, QueryRequest};

/// Per-tick arrival-rate multiplier: how many requests tick `t` carries
/// relative to the profile's base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalCurve {
    /// Flat load: level 1.0 at every tick.
    Constant,
    /// A diurnal day modelled as a triangle wave (deterministic across
    /// platforms, unlike a sinusoid): level ramps linearly from
    /// `trough_pct/100` up to 1.0 at each cycle's midpoint and back.
    /// `cycles` is the number of "days" over the whole run.
    Diurnal { trough_pct: u32, cycles: u32 },
    /// Constant background (level 1.0) with a `magnify`× spike during
    /// ticks `[start, start + len)` — the flash-crowd shape.
    Spike { start: u32, len: u32, magnify: u32 },
}

impl ArrivalCurve {
    /// The multiplier at `tick` of a `ticks`-long run.
    pub fn level(&self, tick: u32, ticks: u32) -> f64 {
        match *self {
            ArrivalCurve::Constant => 1.0,
            ArrivalCurve::Diurnal { trough_pct, cycles } => {
                let trough = f64::from(trough_pct.min(100)) / 100.0;
                let cycle_len = (ticks / cycles.max(1)).max(1);
                let phase = tick % cycle_len;
                // Triangle: 0 → 1 over the first half, 1 → 0 over the
                // second. All arithmetic is exact-rounded IEEE — no libm.
                let half = f64::from(cycle_len) / 2.0;
                let up = f64::from(phase.min(cycle_len - phase));
                trough + (1.0 - trough) * (up / half).min(1.0)
            }
            ArrivalCurve::Spike {
                start,
                len,
                magnify,
            } => {
                if tick >= start && tick < start.saturating_add(len) {
                    f64::from(magnify.max(1))
                } else {
                    1.0
                }
            }
        }
    }
}

/// Relative weights of the five query kinds in a profile's request mix,
/// indexed by [`QueryKind::index`]. All-zero mixes are invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    pub weights: [u32; QueryKind::COUNT],
}

impl QueryMix {
    /// An even split over all five kinds.
    pub fn uniform() -> QueryMix {
        QueryMix {
            weights: [1; QueryKind::COUNT],
        }
    }

    /// A kNN/range/distance mix with no keyword traffic — answerable by
    /// every index in the competitor suite, including the plain
    /// [`AnswerRequest`](crate::AnswerRequest) surface.
    pub fn read_heavy() -> QueryMix {
        let mut weights = [0; QueryKind::COUNT];
        weights[QueryKind::Knn.index()] = 4;
        weights[QueryKind::Range.index()] = 2;
        weights[QueryKind::ShortestDistance.index()] = 2;
        weights[QueryKind::ShortestPath.index()] = 1;
        QueryMix { weights }
    }

    /// Total weight (the modulus query rolls are drawn under).
    pub fn total(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// The kind a roll in `0..self.total()` lands on, walking the
    /// cumulative weights in [`QueryKind::ALL`] order.
    pub fn kind_for(&self, roll: u32) -> QueryKind {
        debug_assert!(self.total() > 0, "all-zero query mix");
        let mut acc = 0u32;
        for kind in QueryKind::ALL {
            acc += self.weights[kind.index()];
            if roll < acc {
                return kind;
            }
        }
        // roll >= total: callers draw `roll % total()`, so this is
        // unreachable for valid rolls; clamp to the last weighted kind.
        QueryKind::ALL
            .into_iter()
            .rev()
            .find(|k| self.weights[k.index()] > 0)
            .unwrap_or(QueryKind::Knn)
    }
}

/// Zipf-skewed keyword popularity: keyword `kw<r>` (rank `r` in
/// `0..vocabulary`) is drawn with weight `1 / (r + 1)^exponent`.
///
/// The exponent is an integer so the weights are computable by repeated
/// multiplication — bit-deterministic on every host (`powf` is not).
/// `exponent = 1` is the classic Zipf law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeywordSkew {
    /// Distinct keywords (`kw0` .. `kw{vocabulary-1}`).
    pub vocabulary: u32,
    /// Integer skew exponent (≥ 1; larger = more skewed).
    pub exponent: u32,
}

impl KeywordSkew {
    /// The canonical label of rank `rank`.
    pub fn label(rank: u32) -> String {
        format!("kw{rank}")
    }
}

/// Object-churn intensity: how many [`ObjectDelta`]s per tick, shaped by
/// an arrival curve (a `Spike` curve makes a churn *storm*), and the
/// insert/remove split (the remainder are moves — the cheap,
/// velocity-skewed bulk of a tracking workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Deltas per tick at curve level 1.0.
    pub base_per_tick: u32,
    /// Intensity multiplier over time.
    pub curve: ArrivalCurve,
    /// Percent of deltas that insert fresh objects.
    pub insert_pct: u32,
    /// Percent of deltas that remove live objects.
    pub remove_pct: u32,
}

/// Overload policy vocabulary, mirrored (without the `std::time`
/// dependency on the index side) by the service's `OverloadPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadSpec {
    /// Fail fast beyond the in-flight budget.
    Shed,
    /// Park arrivals up to `timeout_micros`, then fail.
    Block { timeout_micros: u64 },
}

/// Admission control applied to one venue slot when a service runner
/// replays the profile (ignored by raw per-index replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSpec {
    /// The venue slot the gate applies to.
    pub slot: u32,
    /// In-flight budget (0 = unbounded).
    pub max_in_flight: u32,
    pub policy: OverloadSpec,
}

/// A venue joining or leaving the world mid-traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VenueAction {
    /// Register venue slot `slot` (its venue comes from the world's slot
    /// list; queries route to it from this tick on).
    Add { slot: u32 },
    /// Unregister venue slot `slot` (no queries route to it afterwards).
    Remove { slot: u32 },
}

/// A timestamped [`VenueAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VenueEvent {
    pub tick: u32,
    pub action: VenueAction,
}

/// One adversarial workload, described declaratively. The
/// `indoor-scenarios` compiler lowers a profile into a [`TickEvents`]
/// stream; runners replay the stream against a service or a bare index.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Stable cell name in the scenario matrix.
    pub name: String,
    /// Logical duration (streams are replayed as fast as possible; ticks
    /// order events and shape the curves, they are not wall-clock).
    pub ticks: u32,
    /// Requests per venue slot per tick at curve level 1.0.
    pub queries_per_tick: u32,
    /// Arrival shape. When `hot_slot` is set the curve applies to that
    /// slot only (the flash-crowd venue) and every other slot sees
    /// constant base load; otherwise it applies to all slots.
    pub arrival: ArrivalCurve,
    pub hot_slot: Option<u32>,
    /// Venue slots alive at tick 0 (`0..initial_slots`).
    pub initial_slots: u32,
    /// Objects attached to every venue slot before traffic starts; churn
    /// liveness starts from ids `0..objects_per_venue`.
    pub objects_per_venue: u32,
    pub mix: QueryMix,
    pub knn_k: u32,
    pub range_radius: f64,
    /// Keyword popularity skew; required when `mix` weights
    /// [`QueryKind::KnnKeyword`] above zero.
    pub keywords: Option<KeywordSkew>,
    /// Object churn against `churn_slot` (None = read-only stream).
    pub churn: Option<ChurnSpec>,
    /// The slot churn deltas land on (must be an initial slot).
    pub churn_slot: u32,
    /// Percent of queries drawn from a small fixed hot set instead of
    /// fresh random points — the kiosk-repeat traffic a result cache
    /// exists for (0 = every request unique).
    pub repeat_pct: u32,
    /// Hot-set size per slot when `repeat_pct > 0`.
    pub hot_set: u32,
    /// Venues added/removed mid-run.
    pub venue_events: Vec<VenueEvent>,
    /// Admission gates a service runner installs per slot.
    pub admission: Vec<AdmissionSpec>,
}

impl WorkloadProfile {
    /// A small constant-load read-only profile; the usual starting point
    /// for custom profiles (`WorkloadProfile { name, ..WorkloadProfile::base(..) }`).
    pub fn base(name: &str) -> WorkloadProfile {
        WorkloadProfile {
            name: name.to_string(),
            ticks: 32,
            queries_per_tick: 64,
            arrival: ArrivalCurve::Constant,
            hot_slot: None,
            initial_slots: 1,
            objects_per_venue: 96,
            mix: QueryMix::read_heavy(),
            knn_k: 5,
            range_radius: 150.0,
            keywords: None,
            churn: None,
            churn_slot: 0,
            repeat_pct: 0,
            hot_set: 64,
            venue_events: Vec::new(),
            admission: Vec::new(),
        }
    }

    /// The highest venue slot the profile can reference (initial slots
    /// plus every slot named by a venue event).
    pub fn max_slot(&self) -> u32 {
        let mut max = self.initial_slots.saturating_sub(1);
        for e in &self.venue_events {
            let (VenueAction::Add { slot } | VenueAction::Remove { slot }) = e.action;
            max = max.max(slot);
        }
        max
    }
}

/// One event of a compiled stream. Within a tick, events are ordered:
/// venue changes first, then queries (slot-major), then update batches —
/// runners replay queries and updates of one tick concurrently.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// One typed request routed to venue slot `slot`.
    Query { slot: u32, req: QueryRequest },
    /// One labelled delta batch against slot `slot`'s object set
    /// (applied atomically, like `IndoorService::update_objects`).
    Updates {
        slot: u32,
        updates: Vec<ObjectUpdate>,
    },
    /// Venue slot `slot` joins the world.
    AddVenue { slot: u32 },
    /// Venue slot `slot` leaves the world.
    RemoveVenue { slot: u32 },
}

/// All events of one logical tick, in replay order.
#[derive(Debug, Clone, PartialEq)]
pub struct TickEvents {
    pub tick: u32,
    pub events: Vec<ScenarioEvent>,
}

impl TickEvents {
    /// Count of query events in this tick.
    pub fn queries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Query { .. }))
            .count()
    }

    /// Count of individual deltas across this tick's update batches.
    pub fn deltas(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                ScenarioEvent::Updates { updates, .. } => updates.len(),
                _ => 0,
            })
            .sum()
    }
}

/// Order-sensitive 64-bit FNV-1a fingerprint of a compiled stream.
///
/// Absorbs every event over the same bit-pattern identity the request
/// cache keys on ([`crate::IndoorPoint::key_bits`]), so two streams
/// fingerprint equal iff they would behave identically as cache keys and
/// delta batches. Identical seeds must reproduce identical fingerprints
/// on any machine: `indoor_scenarios` pins each standard profile's
/// fingerprint at seed 42 in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFingerprint(u64);

impl StreamFingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> StreamFingerprint {
        StreamFingerprint(Self::OFFSET)
    }

    pub fn absorb_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.absorb_u64(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn absorb_point(&mut self, p: &crate::IndoorPoint) {
        let (partition, x, y, level) = p.key_bits();
        self.absorb_u64(u64::from(partition));
        self.absorb_u64(x);
        self.absorb_u64(y);
        self.absorb_u64(level as u64);
    }

    fn absorb_request(&mut self, req: &QueryRequest) {
        self.absorb_u64(req.kind().index() as u64);
        match req {
            QueryRequest::Knn { q, k } => {
                self.absorb_point(q);
                self.absorb_u64(*k as u64);
            }
            QueryRequest::Range { q, radius } => {
                self.absorb_point(q);
                self.absorb_u64(radius.to_bits());
            }
            QueryRequest::KnnKeyword { q, k, keyword } => {
                self.absorb_point(q);
                self.absorb_u64(*k as u64);
                self.absorb_bytes(keyword.as_bytes());
            }
            QueryRequest::ShortestDistance { s, t } | QueryRequest::ShortestPath { s, t } => {
                self.absorb_point(s);
                self.absorb_point(t);
            }
        }
    }

    fn absorb_update(&mut self, u: &ObjectUpdate) {
        match u.delta {
            ObjectDelta::Insert { id, at } => {
                self.absorb_u64(0);
                self.absorb_u64(u64::from(id.0));
                self.absorb_point(&at);
            }
            ObjectDelta::Remove { id } => {
                self.absorb_u64(1);
                self.absorb_u64(u64::from(id.0));
            }
            ObjectDelta::Move { id, to } => {
                self.absorb_u64(2);
                self.absorb_u64(u64::from(id.0));
                self.absorb_point(&to);
            }
        }
        self.absorb_u64(u.labels.len() as u64);
        for label in &u.labels {
            self.absorb_bytes(label.as_bytes());
        }
    }

    pub fn absorb_event(&mut self, tick: u32, event: &ScenarioEvent) {
        self.absorb_u64(u64::from(tick));
        match event {
            ScenarioEvent::Query { slot, req } => {
                self.absorb_u64(0x51);
                self.absorb_u64(u64::from(*slot));
                self.absorb_request(req);
            }
            ScenarioEvent::Updates { slot, updates } => {
                self.absorb_u64(0x52);
                self.absorb_u64(u64::from(*slot));
                self.absorb_u64(updates.len() as u64);
                for u in updates {
                    self.absorb_update(u);
                }
            }
            ScenarioEvent::AddVenue { slot } => {
                self.absorb_u64(0x53);
                self.absorb_u64(u64::from(*slot));
            }
            ScenarioEvent::RemoveVenue { slot } => {
                self.absorb_u64(0x54);
                self.absorb_u64(u64::from(*slot));
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for StreamFingerprint {
    fn default() -> StreamFingerprint {
        StreamFingerprint::new()
    }
}

/// Fingerprint a whole compiled stream (see [`StreamFingerprint`]).
pub fn fingerprint_stream(stream: &[TickEvents]) -> u64 {
    let mut fp = StreamFingerprint::new();
    for tick in stream {
        for event in &tick.events {
            fp.absorb_event(tick.tick, event);
        }
    }
    fp.finish()
}

mod error {
    use std::fmt;

    /// Why a compiled stream failed structural validation (see the
    /// `indoor-scenarios` validator, which also checks deltas against a
    /// simulated live set).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TickEventsError {
        /// An event referenced a venue slot outside the world.
        SlotOutOfRange { tick: u32, slot: u32, slots: u32 },
        /// A query or update targeted a slot not alive at that tick.
        SlotNotAlive { tick: u32, slot: u32 },
        /// A point referenced a partition the slot's venue lacks.
        BadPartition { tick: u32, slot: u32 },
        /// A delta batch failed live-set validation.
        InvalidDelta {
            tick: u32,
            slot: u32,
            detail: String,
        },
        /// Ticks were not strictly increasing.
        UnorderedTicks { tick: u32 },
    }

    impl fmt::Display for TickEventsError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TickEventsError::SlotOutOfRange { tick, slot, slots } => {
                    write!(
                        f,
                        "tick {tick}: slot {slot} out of range (world has {slots})"
                    )
                }
                TickEventsError::SlotNotAlive { tick, slot } => {
                    write!(f, "tick {tick}: slot {slot} not alive")
                }
                TickEventsError::BadPartition { tick, slot } => {
                    write!(f, "tick {tick}: point outside slot {slot}'s venue")
                }
                TickEventsError::InvalidDelta { tick, slot, detail } => {
                    write!(f, "tick {tick}: invalid delta for slot {slot}: {detail}")
                }
                TickEventsError::UnorderedTicks { tick } => {
                    write!(f, "tick {tick}: stream ticks not strictly increasing")
                }
            }
        }
    }

    impl std::error::Error for TickEventsError {}
}

pub use error::TickEventsError as ScenarioStreamError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndoorPoint, ObjectId, PartitionId};
    use geometry::Point;

    fn pt(x: f64, y: f64) -> IndoorPoint {
        IndoorPoint::new(PartitionId(1), Point { x, y, level: 0 })
    }

    #[test]
    fn arrival_curves_shape_as_documented() {
        let c = ArrivalCurve::Constant;
        assert_eq!(c.level(0, 10), 1.0);
        let d = ArrivalCurve::Diurnal {
            trough_pct: 20,
            cycles: 1,
        };
        assert!(
            (d.level(0, 24) - 0.2).abs() < 1e-12,
            "trough at cycle start"
        );
        assert!((d.level(12, 24) - 1.0).abs() < 1e-12, "peak at midpoint");
        assert!(d.level(6, 24) > d.level(2, 24), "ramp rises");
        let s = ArrivalCurve::Spike {
            start: 4,
            len: 2,
            magnify: 10,
        };
        assert_eq!(s.level(3, 10), 1.0);
        assert_eq!(s.level(4, 10), 10.0);
        assert_eq!(s.level(5, 10), 10.0);
        assert_eq!(s.level(6, 10), 1.0);
    }

    #[test]
    fn mix_rolls_cover_kinds_by_weight() {
        let mix = QueryMix::read_heavy();
        let total = mix.total();
        assert_eq!(total, 9);
        let mut counts = [0usize; QueryKind::COUNT];
        for roll in 0..total {
            counts[mix.kind_for(roll).index()] += 1;
        }
        assert_eq!(counts[QueryKind::Knn.index()], 4);
        assert_eq!(counts[QueryKind::KnnKeyword.index()], 0);
        assert_eq!(counts[QueryKind::ShortestPath.index()], 1);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = TickEvents {
            tick: 0,
            events: vec![ScenarioEvent::Query {
                slot: 0,
                req: QueryRequest::Knn {
                    q: pt(1.0, 2.0),
                    k: 3,
                },
            }],
        };
        let b = TickEvents {
            tick: 0,
            events: vec![ScenarioEvent::Query {
                slot: 0,
                req: QueryRequest::Knn {
                    q: pt(1.0, 2.5),
                    k: 3,
                },
            }],
        };
        assert_eq!(
            fingerprint_stream(std::slice::from_ref(&a)),
            fingerprint_stream(std::slice::from_ref(&a))
        );
        assert_ne!(
            fingerprint_stream(std::slice::from_ref(&a)),
            fingerprint_stream(std::slice::from_ref(&b))
        );
        assert_ne!(
            fingerprint_stream(&[a.clone(), b.clone()]),
            fingerprint_stream(&[b, a])
        );
    }

    #[test]
    fn fingerprint_distinguishes_update_shapes() {
        let ins = TickEvents {
            tick: 1,
            events: vec![ScenarioEvent::Updates {
                slot: 0,
                updates: vec![ObjectUpdate {
                    delta: ObjectDelta::Insert {
                        id: ObjectId(7),
                        at: pt(0.0, 0.0),
                    },
                    labels: vec!["kw1".into()],
                }],
            }],
        };
        let mv = TickEvents {
            tick: 1,
            events: vec![ScenarioEvent::Updates {
                slot: 0,
                updates: vec![ObjectUpdate {
                    delta: ObjectDelta::Move {
                        id: ObjectId(7),
                        to: pt(0.0, 0.0),
                    },
                    labels: vec!["kw1".into()],
                }],
            }],
        };
        assert_ne!(fingerprint_stream(&[ins]), fingerprint_stream(&[mv]));
    }

    #[test]
    fn profile_slots_extend_with_venue_events() {
        let mut p = WorkloadProfile::base("x");
        assert_eq!(p.max_slot(), 0);
        p.venue_events.push(VenueEvent {
            tick: 3,
            action: VenueAction::Add { slot: 2 },
        });
        assert_eq!(p.max_slot(), 2);
    }
}
