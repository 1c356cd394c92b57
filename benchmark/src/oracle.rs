//! Shortest-distance oracle: a plain point-to-point Dijkstra over the
//! venue's door-to-door graph, sharing nothing with the tree it checks.

use indoor_graph::DijkstraEngine;
use indoor_model::{IndoorPoint, Venue};

/// Agreement demanded between the service's answer and the oracle's.
pub const TOLERANCE: f64 = 1e-9;

pub struct Oracle<'v> {
    venue: &'v Venue,
    engine: DijkstraEngine,
}

impl<'v> Oracle<'v> {
    pub fn new(venue: &'v Venue) -> Oracle<'v> {
        Oracle {
            venue,
            engine: DijkstraEngine::new(venue.num_doors()),
        }
    }

    /// Indoor distance from `s` to `t`: the walk inside a shared
    /// partition, or the best route through the doors of both.
    pub fn distance(&mut self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        let direct = s.direct_distance(self.venue, t);
        let via = self
            .engine
            .point_to_point(
                self.venue.d2d(),
                &s.door_seeds(self.venue),
                &t.door_seeds(self.venue),
            )
            .map(|(d, _)| d);
        match (direct, via) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Whether the answered distance is the oracle's within [`TOLERANCE`].
pub fn agree(want: Option<f64>, got: Option<f64>) -> bool {
    match (want, got) {
        (Some(want), Some(got)) => (want - got).abs() <= TOLERANCE,
        (None, None) => true,
        _ => false,
    }
}
