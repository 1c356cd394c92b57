//! The indoor space data model used throughout the workspace.
//!
//! Following §2 of the VIP-Tree paper, an indoor venue is a set of
//! *partitions* (rooms, hallways, staircases, lifts, and — for campus
//! datasets — the outdoor space between buildings) connected by *doors*.
//! Each door belongs to one partition (an exterior door) or two partitions.
//!
//! From a venue two derived structures are built:
//!
//! * the **door-to-door (D2D) graph** \[Yang, Lu, Jensen 2010\]: one vertex
//!   per door, an edge between every pair of doors sharing a partition,
//!   weighted by the indoor distance between the doors;
//! * the **accessibility-base (AB) graph** \[Lu, Cao, Jensen 2012\]: one
//!   vertex per partition, one labelled edge per door connecting two
//!   partitions.
//!
//! Partitions are classified (Definition in §2) by door count: a partition
//! with one door is *no-through*, with more than `beta` doors a *hallway*,
//! otherwise *general*.
//!
//! The crate also defines the query-facing vocabulary shared by every
//! index: [`IndoorPoint`], [`IndoorPath`], the [`IndoorIndex`] /
//! [`ObjectQueries`] traits implemented by VIP/IP-tree, the baselines,
//! G-tree and ROAD, the typed [`QueryRequest`] / [`QueryResponse`]
//! enums (hashable by f64 bit pattern — the canonical key of result
//! caches and multi-venue routers) that every index answers through the
//! blanket [`AnswerRequest`] impl, and the object-churn vocabulary
//! ([`ObjectDelta`] / [`ObjectUpdate`]) live services ingest.

mod builder;
mod delta;
pub mod frames;
mod ids;
pub mod json;
pub mod metrics;
mod path;
mod point;
mod query;
mod request;
pub mod scenario;
pub mod serialize;
mod venue;
pub mod wire;

pub use builder::{ModelError, VenueBuilder};
pub use delta::{DeltaError, ObjectDelta, ObjectUpdate};
pub use ids::{DoorId, ObjectId, PartitionId, VenueId};
pub use path::IndoorPath;
pub use point::IndoorPoint;
pub use query::{IndoorIndex, ObjectQueries, QueryStats};
pub use request::{AnswerRequest, QueryKind, QueryRequest, QueryResponse};
pub use scenario::{
    fingerprint_stream, AdmissionSpec, ArrivalCurve, ChurnSpec, KeywordSkew, OverloadSpec,
    QueryMix, ScenarioEvent, ScenarioStreamError, StreamFingerprint, TickEvents, VenueAction,
    VenueEvent, WorkloadProfile,
};
pub use serialize::LoadError;
pub use venue::{
    snap_length, Door, Partition, PartitionClass, PartitionKind, Venue, VenueStats, LENGTH_TICK,
    TICKS_PER_METRE,
};

/// Default hallway-classification threshold: a partition with more than
/// `BETA` doors is a hallway (the paper uses β = 4).
pub const BETA: usize = 4;
