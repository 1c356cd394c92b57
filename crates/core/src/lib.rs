//! IP-Tree and VIP-Tree: the indoor spatial indexes of
//! *"VIP-Tree: An Effective Index for Indoor Spatial Queries"* (PVLDB
//! 10(4), 2016), with all four query algorithms: shortest distance (§3.1),
//! shortest path (§3.2–3.3), k nearest neighbours and range (§3.4).
//!
//! # Index structure
//!
//! Adjacent indoor partitions are combined into leaf nodes (one hallway per
//! leaf, rule ii of §2.1.2), which are then merged bottom-up (Algorithm 1)
//! until a single root remains. Each node stores its *access doors* — the
//! doors connecting its interior to the rest of the venue — plus a distance
//! matrix:
//!
//! * leaf node `N`: distances from every door of `N` to every access door
//!   of `N`, with next-hop doors for path recovery;
//! * non-leaf node `N`: pairwise distances between the access doors of
//!   `N`'s children.
//!
//! All matrix entries are **global** shortest-path distances (leaf matrices
//! come from Dijkstra over the full D2D graph; level-`l` graphs preserve
//! exactness by induction — see DESIGN.md).
//!
//! [`IpTree`] answers queries by ascending the tree (Algorithm 2/3);
//! [`VipTree`] additionally materialises, for every door, the distances to
//! the access doors of all its ancestors, turning the ascent into table
//! lookups (O(ρ²) shortest distance, §3.1.2).
//!
//! # Example
//!
//! ```
//! use indoor_synth::random_venue;
//! use vip_tree::{VipTree, VipTreeConfig};
//! use indoor_synth::workload::query_pairs;
//!
//! let venue = std::sync::Arc::new(random_venue(1));
//! let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
//! let (s, t) = query_pairs(&venue, 1, 7)[0];
//! let d = tree.shortest_distance_points(&s, &t);
//! let p = tree.shortest_path_points(&s, &t);
//! if let (Some(d), Some(p)) = (d, p) {
//!     assert!((p.length - d).abs() < 1e-6);
//! }
//! ```

mod ascent;
mod build;
mod exec;
mod keywords;
mod knn;
mod leaf;
mod leafdist;
mod matrices;
mod merge;
mod objects;
mod path;
pub mod persist;
mod repl;
mod retry;
mod service;
mod slabs;
mod stats;
pub mod telemetry;
pub mod ticks;
mod tree;
mod vip;

pub use exec::{PooledScratch, QueryEngine, QueryScratch, ScratchPool, TreeHandle};
pub use keywords::{KeywordObjects, TermId};
pub use objects::{DeltaReport, ObjectIndex, ObjectIndexStats};
pub use persist::{
    CrashMode, FaultAt, FaultKind, FaultStorage, OsStorage, PersistError, RecoveryReport,
    SnapshotReport, Storage, StorageFile,
};
pub use repl::{WalEntry, WalSubscription};
pub use retry::RetryPolicy;
pub use service::{
    AdmissionConfig, IndoorService, KindStats, Mutation, OverloadPolicy, ServiceError,
    ServiceStats, ShardConfig, ShardStats, SyncPolicy, DEFAULT_CACHE_CAPACITY, METRIC_FAMILIES,
};
pub use slabs::Slabs;
pub use stats::TreeStats;
pub use tree::{BuildError, IpTree, NodeIdx, VipTreeConfig, NO_NODE};
pub use vip::VipTree;

// The typed request/delta vocabulary lives in `indoor-model` (so every
// index crate answers it); re-exported here because the engine and
// service surfaces speak it.
pub use indoor_model::{
    AnswerRequest, DeltaError, ObjectDelta, ObjectUpdate, QueryKind, QueryRequest, QueryResponse,
    VenueId,
};

use indoor_model::{IndoorIndex, IndoorPath, IndoorPoint, ObjectId, ObjectQueries};

impl ObjectQueries for IpTree {
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        IpTree::knn(self, q, k)
    }
    fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        IpTree::range(self, q, radius)
    }
}

impl IndoorIndex for IpTree {
    fn name(&self) -> &'static str {
        "IP-Tree"
    }
    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_points(s, t)
    }
    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        self.shortest_path_points(s, t)
    }
    fn index_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

impl IndoorIndex for VipTree {
    fn name(&self) -> &'static str {
        "VIP-Tree"
    }
    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_points(s, t)
    }
    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        self.shortest_path_points(s, t)
    }
    fn index_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}
