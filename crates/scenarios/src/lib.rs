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
//!    [`WORKERS`] concurrent closed-loop clients) and returns the run's
//!    [`CellMetrics`]: requests, answered, dropped, shed and timeouts.
//! 3. The standard matrix — six profiles, with each one's fingerprint
//!    pinned at seed 42 and its overload expectations (must shed, must
//!    time out) — is test code (`matrix.rs`). Its one home for the
//!    overload check is the tier-1 test
//!    `matrix::tests::standard_matrix_accounts_every_request_and_engages_its_gates`,
//!    run by `cargo test`. Nothing here is timed: `benchmark/` is the
//!    record for speed, and the cross-index comparison of size, build
//!    time and per-kind cost is `experiments`'.

pub mod compile;
#[cfg(test)]
mod matrix;
pub mod run;
pub mod zipf;

pub use compile::{compile, validate_stream, ScenarioWorld};
pub use run::{run_service, CellMetrics, WORKERS};
pub use zipf::Zipf;
