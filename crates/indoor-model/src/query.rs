use crate::{IndoorPath, IndoorPoint, ObjectId};

/// The shortest-distance accounting every index shares; §4.3.1 of the
/// paper reports "#pairs of doors" considered by DistMx variants and
/// VIP-Tree (Fig. 9(a)) — implementations accumulate the equivalent
/// quantity here when stats collection is enabled. The VIP-tree's kNN
/// and range walk is counted by its query trace instead
/// (`vip_tree::telemetry::QueryTrace`).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Door pairs combined to produce the final answer (Fig. 9(a)).
    pub door_pairs: u64,
    /// Number of queries accumulated into this struct.
    pub queries: u64,
}

impl QueryStats {
    pub fn merge(&mut self, other: &QueryStats) {
        self.door_pairs += other.door_pairs;
        self.queries += other.queries;
    }

    pub fn mean_door_pairs(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.door_pairs as f64 / self.queries as f64
        }
    }
}

/// The two queries every competitor supports (§3.1–§3.3): shortest
/// distance and shortest path between two indoor points.
///
/// Implementations: `VipTree`, `IpTree` (crate `vip-tree`), `DistMx`,
/// `DistAw` (crate `indoor-baselines`), `GTree` (crate `gtree`), `Road`
/// (crate `road`).
pub trait IndoorIndex {
    /// Human-readable name used by the benchmark harness tables.
    fn name(&self) -> &'static str;

    /// Indoor shortest distance, or `None` when `t` is unreachable from `s`.
    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64>;

    /// Full door-sequence shortest path (§3.2/§3.3), or `None` when
    /// unreachable. The returned path must satisfy
    /// [`IndoorPath::validate`] and its length must equal
    /// `shortest_distance(s, t)`.
    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath>;

    /// Bytes of index structure (excluding the venue model itself);
    /// Fig. 8(b).
    fn index_size_bytes(&self) -> usize;
}

/// Object queries (§3.4): k nearest neighbours and range search over a set
/// of objects embedded in the index.
pub trait ObjectQueries {
    /// The `k` objects nearest to `q` as `(object, distance)` sorted by
    /// ascending distance (fewer if the venue holds fewer reachable
    /// objects).
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)>;

    /// Every object within indoor distance `radius` of `q`, sorted by
    /// ascending distance.
    fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_mean() {
        let mut a = QueryStats {
            door_pairs: 10,
            queries: 2,
        };
        let b = QueryStats {
            door_pairs: 20,
            queries: 3,
        };
        a.merge(&b);
        assert_eq!(a.door_pairs, 30);
        assert_eq!(a.queries, 5);
        assert!((a.mean_door_pairs() - 6.0).abs() < 1e-12);
        assert_eq!(QueryStats::default().mean_door_pairs(), 0.0);
    }
}
