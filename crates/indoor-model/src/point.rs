use crate::venue::Venue;
use crate::{DoorId, IndoorPath, PartitionId};
use geometry::Point;
use indoor_graph::DijkstraEngine;
use std::hash::{Hash, Hasher};

/// A queryable indoor location: a position inside a known partition.
///
/// All query algorithms take source/target/query locations in this form;
/// the partition is what links the metric position to the topology (its
/// doors are the only exits). Resolving a raw coordinate to its partition
/// is a (trivial) point-location step outside the scope of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndoorPoint {
    pub partition: PartitionId,
    pub position: Point,
}

impl IndoorPoint {
    pub fn new(partition: PartitionId, position: Point) -> Self {
        IndoorPoint {
            partition,
            position,
        }
    }

    /// Distance from this point to a door of its own partition, under the
    /// partition's weight policy (§3.1: "If d is a local access door of
    /// Partition(s) then dist(s, d) can be trivially computed").
    pub fn distance_to_door(&self, venue: &Venue, door: DoorId) -> f64 {
        let p = venue.partition(self.partition);
        debug_assert!(
            p.doors.contains(&door),
            "door {door} is not a door of partition {}",
            self.partition
        );
        p.traversal_distance(&self.position, &venue.door(door).position)
    }

    /// `(door, distance)` seeds for virtual-source Dijkstra runs over the
    /// D2D graph: each door of the containing partition, labelled with the
    /// point-to-door distance.
    pub fn door_seeds(&self, venue: &Venue) -> Vec<(u32, f64)> {
        venue
            .partition(self.partition)
            .doors
            .iter()
            .map(|&d| (d.0, self.distance_to_door(venue, d)))
            .collect()
    }

    /// Canonical bit-pattern identity `(partition, x_bits, y_bits, level)`
    /// used to hash and compare typed query requests.
    ///
    /// Key equality is bitwise coordinate equality: stricter than `==`
    /// for signed zeros (`-0.0` ≠ `0.0`) and reflexive for NaN, so a
    /// request containing a NaN coordinate still equals itself as a
    /// result-cache key. See DESIGN.md, "Request hashing rules".
    #[inline]
    pub fn key_bits(&self) -> (u32, u64, u64, i32) {
        let (x, y, level) = self.position.key_bits();
        (self.partition.0, x, y, level)
    }

    /// Direct (same-partition) distance between two points, defined only
    /// when both lie in the same partition.
    pub fn direct_distance(&self, venue: &Venue, other: &IndoorPoint) -> Option<f64> {
        if self.partition == other.partition {
            let p = venue.partition(self.partition);
            Some(p.traversal_distance(&self.position, &other.position))
        } else {
            None
        }
    }

    /// Exact point-to-point route to `t` (§3.1.1): the better of the
    /// direct same-partition walk and a D2D search between the two door
    /// seed sets, as `(distance, exit)`. The direct walk wins ties and
    /// returns `None` for `exit`; `Some(exit)` means the route leaves
    /// through the doors, and `engine.path_to(exit)` lists them from
    /// this point's door to `t`'s. `None` when `t` is unreachable.
    pub fn route_to(
        &self,
        venue: &Venue,
        t: &IndoorPoint,
        engine: &mut DijkstraEngine,
    ) -> Option<(f64, Option<u32>)> {
        let direct = self.direct_distance(venue, t);
        let via = engine.point_to_point(venue.d2d(), &self.door_seeds(venue), &t.door_seeds(venue));
        match (direct, via) {
            (Some(d), via) if via.is_none_or(|(vd, _)| d <= vd) => Some((d, None)),
            (_, via) => via.map(|(vd, exit)| (vd, Some(exit))),
        }
    }

    /// [`route_to`](Self::route_to) expanded into an [`IndoorPath`]: the
    /// direct walk crosses no door, a door route lists them from the
    /// engine's parent chain.
    pub fn path_to(
        &self,
        venue: &Venue,
        t: &IndoorPoint,
        engine: &mut DijkstraEngine,
    ) -> Option<IndoorPath> {
        let (length, exit) = self.route_to(venue, t, engine)?;
        let doors = match exit {
            None => Vec::new(),
            Some(exit) => {
                let chain = engine.path_to(exit).expect("exit door is labelled");
                chain.into_iter().map(DoorId).collect()
            }
        };
        Some(IndoorPath {
            source: *self,
            target: *t,
            doors,
            length,
        })
    }
}

/// Hashes the bit-pattern identity ([`IndoorPoint::key_bits`]).
///
/// `IndoorPoint` is deliberately **not** `Eq` (its `PartialEq` is plain
/// `f64` equality); hash-consistent equality for hash-map keys is provided
/// by the request types (`QueryRequest`), whose manual `PartialEq`/`Eq`
/// compare `key_bits` and therefore agree with this hash.
impl Hash for IndoorPoint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (p, x, y, level) = self.key_bits();
        state.write_u32(p);
        state.write_u64(x);
        state.write_u64(y);
        state.write_i32(level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionKind, VenueBuilder};
    use geometry::Rect;

    fn one_room_venue() -> (Venue, PartitionId, DoorId, DoorId) {
        let mut b = VenueBuilder::new();
        let room = b.add_partition(PartitionKind::Room, Rect::new(0.0, 0.0, 10.0, 10.0, 0));
        let other = b.add_partition(PartitionKind::Room, Rect::new(10.0, 0.0, 20.0, 10.0, 0));
        let d1 = b.add_door(Point::new(10.0, 5.0, 0), room, Some(other));
        let d2 = b.add_exterior_door(Point::new(0.0, 5.0, 0), room);
        let v = b.build().unwrap();
        (v, room, d1, d2)
    }

    #[test]
    fn door_distances_are_euclidean() {
        let (v, room, d1, d2) = one_room_venue();
        let p = IndoorPoint::new(room, Point::new(4.0, 5.0, 0));
        assert!((p.distance_to_door(&v, d1) - 6.0).abs() < 1e-12);
        assert!((p.distance_to_door(&v, d2) - 4.0).abs() < 1e-12);
        let seeds = p.door_seeds(&v);
        assert_eq!(seeds.len(), 2);
    }

    #[test]
    fn direct_distance_same_partition_only() {
        let (v, room, _, _) = one_room_venue();
        let a = IndoorPoint::new(room, Point::new(0.0, 0.0, 0));
        let b2 = IndoorPoint::new(room, Point::new(3.0, 4.0, 0));
        assert_eq!(a.direct_distance(&v, &b2), Some(5.0));
        let c = IndoorPoint::new(PartitionId(1), Point::new(12.0, 5.0, 0));
        assert_eq!(a.direct_distance(&v, &c), None);
    }

    #[test]
    fn route_to_prefers_the_direct_walk_on_ties_and_returns_door_exits() {
        let (v, room, _, _) = one_room_venue();
        let mut engine = DijkstraEngine::new(v.num_doors());
        // s stands on d1: through d1 costs 0 + 6, exactly the direct walk.
        let s = IndoorPoint::new(room, Point::new(10.0, 5.0, 0));
        let t = IndoorPoint::new(room, Point::new(4.0, 5.0, 0));
        assert_eq!(s.route_to(&v, &t, &mut engine), Some((6.0, None)));
        assert!(s.path_to(&v, &t, &mut engine).unwrap().doors.is_empty());

        // A weightless corridor beside the room makes its two doors 1 m
        // from s and t, which stand 8 m apart inside the room.
        let mut b = VenueBuilder::new();
        let room = b.add_partition(PartitionKind::Room, Rect::new(0.0, 0.0, 10.0, 10.0, 0));
        let corridor = b.add_partition(PartitionKind::Hallway, Rect::new(10.0, 0.0, 20.0, 10.0, 0));
        b.set_fixed_traversal_weight(corridor, 0.0);
        let lo = b.add_door(Point::new(10.0, 1.0, 0), room, Some(corridor));
        let hi = b.add_door(Point::new(10.0, 9.0, 0), room, Some(corridor));
        let v = b.build().unwrap();
        let mut engine = DijkstraEngine::new(v.num_doors());
        let s = IndoorPoint::new(room, Point::new(9.0, 1.0, 0));
        let t = IndoorPoint::new(room, Point::new(9.0, 9.0, 0));
        assert_eq!(s.direct_distance(&v, &t), Some(8.0));
        let (d, exit) = s.route_to(&v, &t, &mut engine).unwrap();
        assert!((d - 2.0).abs() < 1e-12, "got {d}");
        assert_eq!(exit, Some(hi.0));
        assert_eq!(engine.path_to(hi.0), Some(vec![lo.0, hi.0]));
        let path = s.path_to(&v, &t, &mut engine).unwrap();
        assert_eq!(path.doors, vec![lo, hi]);
        assert_eq!(path.validate(&v), Ok(d));
    }
}
