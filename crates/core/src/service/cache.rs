//! The service's bounded, stamp-keyed result cache.

use indoor_model::{QueryRequest, QueryResponse};
use std::collections::HashMap;

/// Bounded result cache with clock (second-chance) eviction.
///
/// Entries are stamped; a probe only hits when the entry's stamp equals
/// the expected one, so version bumps invalidate structurally — dead
/// entries are reclaimed by the clock sweep rather than an O(n) purge.
#[derive(Debug)]
pub(crate) struct ClockCache {
    pub(super) map: HashMap<QueryRequest, CacheEntry>,
    /// Insertion ring the clock hand sweeps; always in sync with `map`.
    ring: Vec<QueryRequest>,
    hand: usize,
    pub(super) capacity: usize,
}

#[derive(Debug)]
pub(super) struct CacheEntry {
    stamp: u64,
    referenced: bool,
    resp: QueryResponse,
}

impl ClockCache {
    /// Configured capacity in entries (persisted by service snapshots).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn new(capacity: usize) -> ClockCache {
        ClockCache {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity: capacity.max(1),
        }
    }

    pub(super) fn probe(&mut self, req: &QueryRequest, stamp: u64) -> Option<QueryResponse> {
        let e = self.map.get_mut(req)?;
        if e.stamp != stamp {
            return None;
        }
        e.referenced = true;
        Some(e.resp.clone())
    }

    /// Insert or revive `req`'s entry; `true` when the clock evicted
    /// another entry to make room.
    pub(super) fn insert(&mut self, req: QueryRequest, stamp: u64, resp: QueryResponse) -> bool {
        if let Some(e) = self.map.get_mut(&req) {
            // Re-insert under a fresh stamp revives the slot in place.
            e.stamp = stamp;
            e.resp = resp;
            e.referenced = true;
            return false;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(req.clone());
            self.map.insert(
                req,
                CacheEntry {
                    stamp,
                    referenced: false,
                    resp,
                },
            );
            return false;
        }
        // Clock sweep: grant every referenced entry a second chance; the
        // sweep terminates because it clears flags as it goes.
        loop {
            let victim = self.ring[self.hand].clone();
            let e = self.map.get_mut(&victim).expect("ring key in map");
            if e.referenced {
                e.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
                continue;
            }
            self.map.remove(&victim);
            self.ring[self.hand] = req.clone();
            self.map.insert(
                req,
                CacheEntry {
                    stamp,
                    referenced: false,
                    resp,
                },
            );
            self.hand = (self.hand + 1) % self.capacity;
            return true;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.hand = 0;
    }
}
