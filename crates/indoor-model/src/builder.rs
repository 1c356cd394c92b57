use crate::venue::{Door, Partition, PartitionClass, PartitionKind, Venue};
use crate::{DoorId, PartitionId, BETA};
use geometry::{Point, Rect};
use indoor_graph::GraphBuilder;
use std::fmt;

/// Errors detected while assembling a venue.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A door referenced a partition id that was never registered.
    UnknownPartition {
        door: DoorId,
        partition: PartitionId,
    },
    /// A door listed the same partition on both sides.
    DoorSelfLoop { door: DoorId },
    /// A partition ended up with no doors, which would make it unreachable.
    PartitionWithoutDoors { partition: PartitionId },
    /// The venue has no partitions at all.
    Empty,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownPartition { door, partition } => {
                write!(f, "door {door} references unknown partition {partition}")
            }
            ModelError::DoorSelfLoop { door } => {
                write!(f, "door {door} connects a partition to itself")
            }
            ModelError::PartitionWithoutDoors { partition } => {
                write!(f, "partition {partition} has no doors")
            }
            ModelError::Empty => write!(f, "venue has no partitions"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Incremental venue construction.
///
/// ```
/// use indoor_model::{VenueBuilder, PartitionKind};
/// use geometry::{Point, Rect};
///
/// let mut b = VenueBuilder::new();
/// let room = b.add_partition(PartitionKind::Room, Rect::new(0.0, 0.0, 5.0, 5.0, 0));
/// let hall = b.add_partition(PartitionKind::Hallway, Rect::new(5.0, 0.0, 8.0, 20.0, 0));
/// b.add_door(Point::new(5.0, 2.5, 0), room, Some(hall));
/// b.add_exterior_door(Point::new(8.0, 10.0, 0), hall);
/// let venue = b.build().unwrap();
/// assert_eq!(venue.num_doors(), 2);
/// ```
#[derive(Debug)]
pub struct VenueBuilder {
    doors: Vec<Door>,
    partitions: Vec<Partition>,
    beta: usize,
}

impl Default for VenueBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl VenueBuilder {
    pub fn new() -> Self {
        VenueBuilder {
            doors: Vec::new(),
            partitions: Vec::new(),
            beta: BETA,
        }
    }

    /// Override the hallway-classification threshold β (default 4).
    pub fn with_beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    pub fn add_partition(&mut self, kind: PartitionKind, extent: Rect) -> PartitionId {
        let id = PartitionId(self.partitions.len() as u32);
        self.partitions.push(Partition {
            id,
            kind,
            level: extent.level,
            extent,
            doors: Vec::new(),
            fixed_traversal_weight: None,
        });
        id
    }

    /// Set a fixed traversal weight for a partition (e.g. 0 for a lift when
    /// edge weights model walking distance; see §2 of the paper).
    pub fn set_fixed_traversal_weight(&mut self, p: PartitionId, weight: f64) {
        self.partitions[p.index()].fixed_traversal_weight = Some(weight);
    }

    /// Add a door between `a` and (optionally) `b`; `None` makes it an
    /// exterior door.
    pub fn add_door(&mut self, position: Point, a: PartitionId, b: Option<PartitionId>) -> DoorId {
        let id = DoorId(self.doors.len() as u32);
        self.doors.push(Door {
            id,
            position,
            partitions: [Some(a), b],
        });
        id
    }

    pub fn add_exterior_door(&mut self, position: Point, a: PartitionId) -> DoorId {
        self.add_door(position, a, None)
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    /// Validate, classify partitions, build the D2D graph, and freeze.
    pub fn build(mut self) -> Result<Venue, ModelError> {
        if self.partitions.is_empty() {
            return Err(ModelError::Empty);
        }

        // Wire doors into partitions (validating references).
        for door in &self.doors {
            for pid in door.partition_ids() {
                if pid.index() >= self.partitions.len() {
                    return Err(ModelError::UnknownPartition {
                        door: door.id,
                        partition: pid,
                    });
                }
            }
            if let [Some(a), Some(b)] = door.partitions {
                if a == b {
                    return Err(ModelError::DoorSelfLoop { door: door.id });
                }
            }
        }
        for door in &self.doors {
            let id = door.id;
            for pid in door.partitions.iter().flatten() {
                self.partitions[pid.index()].doors.push(id);
            }
        }
        for p in &mut self.partitions {
            p.doors.sort_unstable();
            p.doors.dedup();
            if p.doors.is_empty() {
                return Err(ModelError::PartitionWithoutDoors { partition: p.id });
            }
        }

        // Classification (§2): 1 door => no-through; > β doors => hallway.
        let beta = self.beta;
        let classes: Vec<PartitionClass> = self
            .partitions
            .iter()
            .map(|p| match p.doors.len() {
                1 => PartitionClass::NoThrough,
                n if n > beta => PartitionClass::Hallway,
                _ => PartitionClass::General,
            })
            .collect();

        // D2D graph: clique over the doors of each partition.
        let edge_hint: usize = self
            .partitions
            .iter()
            .map(|p| p.doors.len() * (p.doors.len().saturating_sub(1)) / 2)
            .sum();
        let mut gb = GraphBuilder::with_edge_capacity(self.doors.len(), edge_hint);
        for p in &self.partitions {
            for (i, &da) in p.doors.iter().enumerate() {
                for &db in &p.doors[i + 1..] {
                    let w = p.traversal_distance(
                        &self.doors[da.index()].position,
                        &self.doors[db.index()].position,
                    );
                    gb.add_edge(da.0, db.0, w);
                }
            }
        }

        Ok(Venue {
            doors: self.doors,
            partitions: self.partitions,
            classes,
            d2d: gb.build(),
            beta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room(level: i32, i: usize) -> Rect {
        let x = i as f64 * 6.0;
        Rect::new(x, 0.0, x + 5.0, 5.0, level)
    }

    #[test]
    fn simple_venue_builds() {
        let mut b = VenueBuilder::new();
        let hall = b.add_partition(PartitionKind::Hallway, Rect::new(0.0, 5.0, 30.0, 8.0, 0));
        let mut rooms = Vec::new();
        for i in 0..5 {
            let r = b.add_partition(PartitionKind::Room, room(0, i));
            b.add_door(Point::new(i as f64 * 6.0 + 2.5, 5.0, 0), r, Some(hall));
            rooms.push(r);
        }
        b.add_exterior_door(Point::new(0.0, 6.5, 0), hall);
        let v = b.build().unwrap();

        assert_eq!(v.num_partitions(), 6);
        assert_eq!(v.num_doors(), 6);
        // Hallway has 6 doors (> β = 4) => Hallway class; rooms => NoThrough.
        assert_eq!(v.class(hall), PartitionClass::Hallway);
        for r in rooms {
            assert_eq!(v.class(r), PartitionClass::NoThrough);
        }
        // D2D: clique over 6 hallway doors = 15 undirected = 30 arcs.
        assert_eq!(v.d2d().num_arcs(), 30);
        let stats = v.stats();
        assert_eq!(stats.hallways, 1);
        assert_eq!(stats.no_through, 5);
        assert_eq!(stats.max_out_degree, 5);
    }

    #[test]
    fn fixed_traversal_weight_applies() {
        let mut b = VenueBuilder::new();
        let lift = b.add_partition(PartitionKind::Lift, Rect::new(0.0, 0.0, 2.0, 2.0, 0));
        let h0 = b.add_partition(PartitionKind::Hallway, Rect::new(2.0, 0.0, 10.0, 2.0, 0));
        let h1 = b.add_partition(PartitionKind::Hallway, Rect::new(2.0, 0.0, 10.0, 2.0, 1));
        b.set_fixed_traversal_weight(lift, 0.0);
        let d0 = b.add_door(Point::new(2.0, 1.0, 0), lift, Some(h0));
        let d1 = b.add_door(Point::new(2.0, 1.0, 1), lift, Some(h1));
        b.add_exterior_door(Point::new(10.0, 1.0, 0), h0);
        b.add_exterior_door(Point::new(10.0, 1.0, 1), h1);
        let v = b.build().unwrap();
        assert_eq!(v.d2d().arc_weight(d0.0, d1.0), Some(0.0));
    }

    #[test]
    fn errors_detected() {
        assert_eq!(VenueBuilder::new().build().unwrap_err(), ModelError::Empty);

        let mut b = VenueBuilder::new();
        let p = b.add_partition(PartitionKind::Room, room(0, 0));
        b.add_door(Point::new(0.0, 0.0, 0), p, Some(p));
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::DoorSelfLoop { .. }
        ));

        let mut b = VenueBuilder::new();
        let _empty = b.add_partition(PartitionKind::Room, room(0, 0));
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::PartitionWithoutDoors { .. }
        ));
    }
}
