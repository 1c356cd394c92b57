//! Per-venue admission control settings.

use std::time::Duration;

/// What a shard does with arrivals beyond its in-flight budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Fail fast with [`ServiceError::Overloaded`](super::ServiceError::Overloaded) — the caller retries,
    /// degrades, or routes elsewhere. The right default for latency-bound
    /// front-ends: a shed request costs microseconds, a queued one costs
    /// the whole backlog.
    Shed,
    /// Park the arrival until capacity frees, up to `timeout`; then fail
    /// with [`ServiceError::Timeout`](super::ServiceError::Timeout). For callers that prefer bounded
    /// waiting over retry loops.
    Block { timeout: Duration },
}

/// Per-venue admission control: a bound on concurrently executing
/// queries (batch shares weigh their slot count) plus the overload
/// policy. Persisted with the venue on a durable service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum in-flight query weight; **0 = unbounded** (no gate at
    /// all — the un-gated fast path is exactly the pre-admission code).
    pub max_in_flight: usize,
    /// What to do at the bound.
    pub policy: OverloadPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_in_flight: 0,
            policy: OverloadPolicy::Shed,
        }
    }
}
