//! Scenario lab: adversarial workload profiles for the index suite.
//!
//! *An Experimental Analysis of Indoor Spatial Queries* (PAPERS.md) makes
//! the case that index rankings are workload-dependent: the winner under
//! uniform point queries is not the winner under skewed keyword traffic
//! or heavy churn. This crate turns that evaluation blueprint into a
//! standing harness over the repo's seven indexes plus the full
//! [`IndoorService`](vip_tree::IndoorService) stack:
//!
//! 1. [`compile()`] lowers a declarative
//!    [`WorkloadProfile`](indoor_model::WorkloadProfile) (diurnal curves,
//!    flash crowds, Zipf keyword skew, churn storms, venue lifecycle)
//!    into a deterministic, seedable stream of
//!    [`TickEvents`](indoor_model::TickEvents) — typed requests plus
//!    `ObjectUpdate` batches. Identical seeds produce bit-identical
//!    streams at any thread count, checkable by one fingerprint.
//! 2. [`run`] replays a stream end-to-end through `IndoorService`
//!    (admission gates, result cache, churn absorption, concurrent
//!    workers) or query-only through any competitor via
//!    [`AnyIndex::answer`](indoor_bench::AnyIndex::answer), collecting
//!    per-cell metrics: p50/p99 latency, throughput, shed/timeout
//!    counts, cache hit rate, deltas/s absorbed.
//! 3. [`matrix`] + [`report`] run the standard profile set across the
//!    suite and render a human-readable crossover matrix (and, on
//!    request, JSON). The matrix's checks live in source and run inside
//!    `scenario_bench`: each profile's fingerprint at seed 42
//!    ([`PINNED_FINGERPRINTS`]) and its overload expectations. Timings
//!    are printed, not gated; `benchmark/` is the record for speed.

pub mod compile;
pub mod matrix;
pub mod report;
pub mod run;
pub mod zipf;

pub use compile::{compile, validate_stream, ScenarioWorld};
pub use matrix::{
    pinned_fingerprint, run_matrix, standard_profiles, standard_world, MatrixOutput,
    StandardProfile, OBJECTS_PER_VENUE, PINNED_FINGERPRINTS, PINNED_SEED,
};
pub use report::{crossover_matrix, render_json, IndexCost, ProfileDigest};
pub use run::{run_index, run_service, run_service_wire, Arrival, CellMetrics, RunOptions};
pub use zipf::Zipf;
