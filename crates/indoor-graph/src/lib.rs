//! Weighted-graph substrate shared by every index in this workspace.
//!
//! The indoor door-to-door (D2D) graph, the level-`l` graphs used to build
//! IP/VIP-tree distance matrices, the border graphs of G-tree, and the
//! hybrid overlay graph of ROAD are all instances of [`CsrGraph`]: a
//! compact, immutable, undirected weighted graph in compressed-sparse-row
//! form.
//!
//! Query processing is dominated by repeated Dijkstra searches, so the
//! crate provides a reusable [`DijkstraEngine`] with epoch-based state
//! reset (no `O(V)` clearing between runs). Every search is one settle
//! loop behind five entry points: [`DijkstraEngine::run`] stops once a target
//! set is settled (an empty set settles everything reachable),
//! [`DijkstraEngine::run_visit`] and [`DijkstraEngine::run_dynamic`] stop
//! when their visitor breaks (the latter over per-query arcs), and
//! [`DijkstraEngine::point_to_point`] and
//! [`DijkstraEngine::point_to_point_dynamic`] (per-query arcs) stop once
//! no frontier label can improve the best route. [`DijkstraEngine::chain_into`] is the one walk
//! of the parent pointers.

mod csr;
mod dijkstra;
mod oracle;
pub mod parallel;

pub use csr::{CsrGraph, GraphBuilder};
pub use dijkstra::{DijkstraEngine, EnginePool, PooledEngine, NO_VERTEX};
pub use oracle::floyd_warshall;
