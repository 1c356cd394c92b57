use crate::{DoorId, PartitionId};
use geometry::{Point, Rect};
use indoor_graph::CsrGraph;

/// Declared role of a partition. Purely descriptive: query processing only
/// ever looks at the derived [`PartitionClass`], but generators and
/// examples use the kind for weight policies (lifts may use travel time)
/// and for object placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    Room,
    Hallway,
    /// A staircase segment connecting two consecutive floors (§2: "a
    /// staircase ... is considered as a general partition with two doors at
    /// its connecting floors").
    Staircase,
    /// One segment of a lift shaft connecting two consecutive floors (§2:
    /// a lift connecting n floors becomes n-1 such partitions).
    Lift,
    Escalator,
    /// Outdoor space between buildings of a campus venue; induces the
    /// paper's "edges between the entry/exit doors of different buildings".
    Outdoor,
}

/// Classification by door count (§2): exactly one door = no-through; more
/// than β doors = hallway; otherwise general.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionClass {
    NoThrough,
    General,
    Hallway,
}

/// A door connecting one partition to another (or to the venue exterior).
#[derive(Debug, Clone)]
pub struct Door {
    pub id: DoorId,
    pub position: Point,
    /// The one or two partitions this door belongs to. `partitions[1]` is
    /// `None` for exterior doors.
    pub partitions: [Option<PartitionId>; 2],
}

impl Door {
    /// Iterate over the partitions the door belongs to.
    #[inline]
    pub fn partition_ids(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.partitions.iter().flatten().copied()
    }

    /// Whether this door leads out of the venue.
    #[inline]
    pub fn is_exterior(&self) -> bool {
        self.partitions[1].is_none()
    }

    /// The partition on the other side of the door, if any.
    #[inline]
    pub fn other_side(&self, p: PartitionId) -> Option<PartitionId> {
        match self.partitions {
            [Some(a), Some(b)] if a == p => Some(b),
            [Some(a), Some(b)] if b == p => Some(a),
            _ => None,
        }
    }
}

/// An indoor partition: a room, hallway, staircase/lift segment, or the
/// outdoor space. Treated as convex free space: the distance between any
/// two of its doors (and from interior points to its doors) is the direct
/// indoor metric distance, unless a fixed traversal weight is set (lifts).
#[derive(Debug, Clone)]
pub struct Partition {
    pub id: PartitionId,
    pub kind: PartitionKind,
    /// Floor of the partition (the lower floor for stairs/lift segments).
    pub level: i32,
    /// Planar extent, used for random point generation and door placement.
    pub extent: Rect,
    /// Doors of this partition (unordered, no duplicates).
    pub doors: Vec<DoorId>,
    /// If set, every door-to-door traversal through this partition costs
    /// this fixed weight instead of the metric distance — e.g. `0.0` for a
    /// lift when weights model walking distance, or a constant when they
    /// model travel time (§2).
    pub fixed_traversal_weight: Option<f64>,
}

impl Partition {
    #[inline]
    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    /// Distance between two points of this partition under its weight
    /// policy, rounded up to a whole number of [`LENGTH_TICK`]s. This is
    /// the one source of length in the model: the D2D graph, the
    /// point-to-door legs and the same-partition direct distance all read
    /// it.
    #[inline]
    pub fn traversal_distance(&self, a: &Point, b: &Point) -> f64 {
        snap_length(match self.fixed_traversal_weight {
            Some(w) => w,
            None => a.distance(b),
        })
    }
}

/// The length quantum, 2⁻¹⁰ m: every length the model hands out is a
/// whole number of ticks, so any sum of lengths below 2⁴³ m is exact in
/// f64 and every association order gives the same bits (DESIGN.md §16).
pub const LENGTH_TICK: f64 = 1.0 / TICKS_PER_METRE;

/// Ticks in a metre: multiplying by it (a power of two) is exact.
pub const TICKS_PER_METRE: f64 = 1024.0;

/// `len` rounded **up** to a whole number of [`LENGTH_TICK`]s. Rounding
/// up is monotone and subadditive (`snap(a + b) ≤ snap(a) + snap(b)`),
/// so snapped lengths keep the triangle inequality that superior-door
/// pruning relies on (DESIGN.md §5); round-to-nearest does not.
/// Non-finite lengths pass through unchanged.
#[inline]
pub fn snap_length(len: f64) -> f64 {
    // Every f64 at or above 2⁵² is already whole.
    const WHOLE: f64 = (1u64 << 52) as f64;
    let ticks = len * TICKS_PER_METRE;
    // A truncating cast, not `f64::ceil`, which is a libm call at the
    // default target.
    if ticks.abs() < WHOLE {
        let whole = ticks as i64 as f64;
        (if whole < ticks { whole + 1.0 } else { whole }) * LENGTH_TICK
    } else {
        len
    }
}

/// Summary statistics in the shape of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VenueStats {
    pub doors: usize,
    pub partitions: usize,
    /// Directed arc count of the D2D graph (Table 2 convention).
    pub d2d_edges: usize,
    pub hallways: usize,
    pub no_through: usize,
    pub max_out_degree: usize,
    pub levels: usize,
}

/// A complete indoor venue: partitions, doors, and the derived D2D graph.
///
/// Constructed through [`crate::VenueBuilder`]; immutable afterwards.
#[derive(Debug, Clone)]
pub struct Venue {
    pub(crate) doors: Vec<Door>,
    pub(crate) partitions: Vec<Partition>,
    pub(crate) classes: Vec<PartitionClass>,
    pub(crate) d2d: CsrGraph,
    pub(crate) beta: usize,
}

impl Venue {
    #[inline]
    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    #[inline]
    pub fn door(&self, id: DoorId) -> &Door {
        &self.doors[id.index()]
    }

    #[inline]
    pub fn partition(&self, id: PartitionId) -> &Partition {
        &self.partitions[id.index()]
    }

    #[inline]
    pub fn doors(&self) -> &[Door] {
        &self.doors
    }

    #[inline]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The door-to-door graph (vertex ids coincide with [`DoorId`]s).
    #[inline]
    pub fn d2d(&self) -> &CsrGraph {
        &self.d2d
    }

    /// The hallway-classification threshold β used for this venue.
    #[inline]
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// Derived classification of a partition (§2).
    #[inline]
    pub fn class(&self, id: PartitionId) -> PartitionClass {
        self.classes[id.index()]
    }

    /// Table 2 style statistics.
    pub fn stats(&self) -> VenueStats {
        let mut levels: Vec<i32> = self.partitions.iter().map(|p| p.level).collect();
        levels.sort_unstable();
        levels.dedup();
        VenueStats {
            doors: self.doors.len(),
            partitions: self.partitions.len(),
            d2d_edges: self.d2d.num_arcs(),
            hallways: self
                .classes
                .iter()
                .filter(|c| **c == PartitionClass::Hallway)
                .count(),
            no_through: self
                .classes
                .iter()
                .filter(|c| **c == PartitionClass::NoThrough)
                .count(),
            max_out_degree: self.d2d.max_degree(),
            levels: levels.len(),
        }
    }

    /// Approximate heap size of the model (doors + partitions + D2D graph).
    pub fn size_bytes(&self) -> usize {
        self.d2d.size_bytes()
            + self.doors.len() * std::mem::size_of::<Door>()
            + self
                .partitions
                .iter()
                .map(|p| std::mem::size_of::<Partition>() + p.doors.len() * 4)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::{snap_length, LENGTH_TICK, TICKS_PER_METRE};
    use geometry::Point;
    use proptest::prelude::*;

    #[test]
    fn snap_rounds_up_to_whole_ticks() {
        assert_eq!(snap_length(0.0), 0.0);
        assert_eq!(snap_length(5.0), 5.0);
        assert_eq!(snap_length(LENGTH_TICK / 3.0), LENGTH_TICK);
        assert_eq!(snap_length(1.0 + LENGTH_TICK / 2.0), 1.0 + LENGTH_TICK);
        assert_eq!(snap_length(-LENGTH_TICK / 2.0), 0.0);
        assert_eq!(snap_length(f64::INFINITY), f64::INFINITY);
        assert!(snap_length(f64::NAN).is_nan());
        assert_eq!(snap_length(1e300), 1e300);
    }

    proptest! {
        /// Ceil, computed without libm: whole ticks, never below `len`,
        /// less than one tick above it, and idempotent.
        #[test]
        fn snap_is_the_tick_ceiling(len in 0.0..1e7f64) {
            let s = snap_length(len);
            prop_assert_eq!(s.to_bits(), ((len * TICKS_PER_METRE).ceil() * LENGTH_TICK).to_bits());
            prop_assert!(s >= len && s - len < LENGTH_TICK);
            prop_assert_eq!(snap_length(s).to_bits(), s.to_bits());
        }

        /// Rounding up keeps the triangle inequality of the metric, which
        /// superior-door pruning relies on (DESIGN.md §5):
        /// `snap |a,c| ≤ snap |a,b| + snap |b,c|`. Rounding to the nearest
        /// tick does not: with it, `knn_matches_brute_force` fails on
        /// `random_venue(1017)`, where the tree answers 16.56640625 m and
        /// Dijkstra 16.5654296875 m, one tick apart.
        #[test]
        fn snap_is_subadditive(pts in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64, -3..30i32), 3)) {
            let p: Vec<Point> = pts.iter().map(|&(x, y, l)| Point::new(x, y, l)).collect();
            let d = |i: usize, j: usize| snap_length(p[i].distance(&p[j]));
            prop_assert!(d(0, 2) <= d(0, 1) + d(1, 2), "{:?}", p);
        }
    }
}
