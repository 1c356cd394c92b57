//! Scenario lab: adversarial workload profiles replayed through the
//! service.
//!
//! *An Experimental Analysis of Indoor Spatial Queries* (PAPERS.md) makes
//! the case that serving behaviour is workload-dependent: a flash crowd,
//! skewed keyword traffic or a churn storm each stress a different part
//! of the stack. This crate turns that blueprint into a standing,
//! behavioural harness over the full
//! [`IndoorService`](vip_tree::IndoorService) stack:
//!
//! 1. [`compile()`] lowers a declarative
//!    [`WorkloadProfile`](indoor_model::WorkloadProfile) (diurnal curves,
//!    flash crowds, Zipf keyword skew, churn storms, venue lifecycle)
//!    into a deterministic, seedable stream of
//!    [`TickEvents`](indoor_model::TickEvents) — typed requests plus
//!    `ObjectUpdate` batches. Identical seeds produce bit-identical
//!    streams at any thread count, checkable by one fingerprint.
//! 2. [`run_service`] replays a stream end-to-end through
//!    `IndoorService` (admission gates, result cache, churn absorption,
//!    [`WORKERS`] concurrent closed-loop clients), collecting per-cell
//!    metrics: p50/p99 latency, throughput, shed/timeout counts, cache
//!    hit rate, deltas/s absorbed, phase attribution.
//! 3. [`matrix`] + [`report`] run the standard profile set and render the
//!    matrix text. The matrix's checks live in source and run inside
//!    `scenario_bench`: each profile's fingerprint at seed 42
//!    ([`PINNED_FINGERPRINTS`]) and its overload expectations (must
//!    shed, must time out). Timings are printed, not gated; `benchmark/`
//!    is the record for speed, and the cross-index comparison of size,
//!    build time and per-kind cost is `experiments`'.

pub mod compile;
pub mod matrix;
pub mod report;
pub mod run;
pub mod zipf;

pub use compile::{compile, validate_stream, ScenarioWorld};
pub use matrix::{
    pinned_fingerprint, run_matrix, standard_profiles, standard_world, StandardProfile,
    PINNED_FINGERPRINTS, PINNED_SEED,
};
pub use report::crossover_matrix;
pub use run::{run_service, CellMetrics, WORKERS};
pub use zipf::Zipf;
