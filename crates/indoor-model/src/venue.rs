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
    /// policy.
    #[inline]
    pub fn traversal_distance(&self, a: &Point, b: &Point) -> f64 {
        match self.fixed_traversal_weight {
            Some(w) => w,
            None => a.distance(b),
        }
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
