//! Binary wire vocabulary for durable storage of the churn stream.
//!
//! The persistence subsystem (`vip_tree::persist`) journals object
//! mutations and snapshots whole services to disk; this module owns the
//! primitive encoding those files are made of — little-endian scalars,
//! length-prefixed strings, and the record encode/decode of the churn
//! types ([`ObjectDelta`] / [`ObjectUpdate`]) that ride the write-ahead
//! log. Keeping the vocabulary here (next to the types it encodes) means
//! every index crate can speak the same byte layout, and the encoding of
//! a delta cannot drift from the definition of a delta.
//!
//! Decoding is position-tracked: every failure is a [`LoadError::Wire`]
//! carrying the byte offset plus what was expected and what was found,
//! so a corrupt record in a megabyte-long log names its own location.
//!
//! `f64` values are stored as raw IEEE-754 bit patterns — a snapshot
//! reloads distances bit-for-bit, which is what makes "recovered service
//! answers byte-identical" a testable contract rather than an epsilon
//! comparison.

use crate::serialize::LoadError;
use crate::{
    DoorId, IndoorPath, IndoorPoint, ObjectDelta, ObjectId, ObjectUpdate, PartitionId,
    QueryRequest, QueryResponse,
};
use geometry::Point;
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// framing every snapshot section and WAL record, computed without any
/// external dependency.
///
/// Slice-by-8: `tables[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold in one step of eight independent
/// lookups instead of eight dependent ones. Same polynomial, same value
/// for every input as the bytewise form (the test module keeps that form
/// as the reference).
pub fn crc32(bytes: &[u8]) -> u32 {
    // Built on first use; `OnceLock` keeps it `const`-free.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut bytewise = [0u32; 256];
        for (i, slot) in bytewise.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut t = [bytewise; 8];
        for k in 1..8 {
            let prev = t[k - 1];
            for (slot, p) in t[k].iter_mut().zip(prev) {
                *slot = bytewise[(p & 0xFF) as usize] ^ (p >> 8);
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append-only little-endian encoder over a plain `Vec<u8>`.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Append to `buf`, keeping its contents and its allocation;
    /// [`WireWriter::into_bytes`] hands the same buffer back.
    pub fn over(buf: Vec<u8>) -> WireWriter {
        WireWriter { buf }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw IEEE-754 bit pattern: reload is bit-for-bit, NaN included.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed (u32) raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_point(&mut self, p: &IndoorPoint) {
        self.put_u32(p.partition.0);
        self.put_f64(p.position.x);
        self.put_f64(p.position.y);
        self.put_i32(p.position.level);
    }

    pub fn put_delta(&mut self, d: &ObjectDelta) {
        match d {
            ObjectDelta::Insert { id, at } => {
                self.put_u8(0);
                self.put_u32(id.0);
                self.put_point(at);
            }
            ObjectDelta::Remove { id } => {
                self.put_u8(1);
                self.put_u32(id.0);
            }
            ObjectDelta::Move { id, to } => {
                self.put_u8(2);
                self.put_u32(id.0);
                self.put_point(to);
            }
        }
    }

    /// Count-prefixed point list — the one definition every file kind
    /// encodes object positions with.
    pub fn put_points(&mut self, points: &[IndoorPoint]) {
        self.put_u32(points.len() as u32);
        for p in points {
            self.put_point(p);
        }
    }

    /// Count-prefixed label list (the keyword vocabulary attached to an
    /// object) — the one definition every file kind encodes labels with.
    pub fn put_labels(&mut self, labels: &[String]) {
        self.put_u32(labels.len() as u32);
        for l in labels {
            self.put_str(l);
        }
    }

    pub fn put_update(&mut self, u: &ObjectUpdate) {
        self.put_delta(&u.delta);
        self.put_labels(&u.labels);
    }

    /// Count-prefixed delta batch — the body of a WAL `Deltas` record and
    /// of an `UpdateObjects` frame alike.
    pub fn put_deltas(&mut self, deltas: &[ObjectDelta]) {
        self.put_u32(deltas.len() as u32);
        for d in deltas {
            self.put_delta(d);
        }
    }

    /// Count-prefixed labelled batch (see [`WireWriter::put_deltas`]).
    pub fn put_updates(&mut self, updates: &[ObjectUpdate]) {
        self.put_u32(updates.len() as u32);
        for u in updates {
            self.put_update(u);
        }
    }

    /// A typed query request, tagged by [`crate::QueryKind::index`]. `k` rides as
    /// a `u64` so the layout is identical across 32/64-bit hosts.
    pub fn put_request(&mut self, req: &QueryRequest) {
        self.put_u8(req.kind().index() as u8);
        match req {
            QueryRequest::Knn { q, k } => {
                self.put_point(q);
                self.put_u64(*k as u64);
            }
            QueryRequest::Range { q, radius } => {
                self.put_point(q);
                self.put_f64(*radius);
            }
            QueryRequest::KnnKeyword { q, k, keyword } => {
                self.put_point(q);
                self.put_u64(*k as u64);
                self.put_str(keyword);
            }
            QueryRequest::ShortestDistance { s, t } | QueryRequest::ShortestPath { s, t } => {
                self.put_point(s);
                self.put_point(t);
            }
        }
    }

    /// A fully-expanded route (see [`IndoorPath`]): endpoints, door
    /// sequence, and the length as a raw bit pattern.
    pub fn put_path(&mut self, p: &IndoorPath) {
        self.put_point(&p.source);
        self.put_point(&p.target);
        self.put_u32(p.doors.len() as u32);
        for d in &p.doors {
            self.put_u32(d.0);
        }
        self.put_f64(p.length);
    }

    /// Count-prefixed `(object, distance)` list — the payload of every
    /// kNN/range/keyword response.
    pub fn put_scored(&mut self, objs: &[(ObjectId, f64)]) {
        self.put_u32(objs.len() as u32);
        for (id, d) in objs {
            self.put_u32(id.0);
            self.put_f64(*d);
        }
    }

    /// A typed query response, tagged like its request. Distances and
    /// paths ride as bit patterns, so a response decoded off the wire is
    /// byte-identical to the in-process answer — the loopback e2e contract.
    pub fn put_response(&mut self, resp: &QueryResponse) {
        self.put_u8(resp.kind().index() as u8);
        match resp {
            QueryResponse::Knn(objs)
            | QueryResponse::Range(objs)
            | QueryResponse::KnnKeyword(objs) => {
                self.put_scored(objs);
            }
            QueryResponse::ShortestDistance(d) => match d {
                Some(d) => {
                    self.put_u8(1);
                    self.put_f64(*d);
                }
                None => self.put_u8(0),
            },
            QueryResponse::ShortestPath(p) => match p {
                Some(p) => {
                    self.put_u8(1);
                    self.put_path(p);
                }
                None => self.put_u8(0),
            },
        }
    }
}

/// Position-tracked little-endian decoder; every error names its byte
/// offset and what was expected there.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset from the start of the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A decode failure at the current offset.
    pub fn err(&self, expected: &'static str, found: impl Into<String>) -> LoadError {
        LoadError::Wire {
            offset: self.pos as u64,
            expected,
            found: found.into(),
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], LoadError> {
        if self.remaining() < n {
            return Err(self.err(
                expected,
                format!("only {} of {n} bytes left", self.remaining()),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self, expected: &'static str) -> Result<u8, LoadError> {
        Ok(self.take(1, expected)?[0])
    }

    pub fn get_u32(&mut self, expected: &'static str) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(
            self.take(4, expected)?.try_into().unwrap(),
        ))
    }

    pub fn get_u64(&mut self, expected: &'static str) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(
            self.take(8, expected)?.try_into().unwrap(),
        ))
    }

    pub fn get_i32(&mut self, expected: &'static str) -> Result<i32, LoadError> {
        Ok(i32::from_le_bytes(
            self.take(4, expected)?.try_into().unwrap(),
        ))
    }

    pub fn get_f64(&mut self, expected: &'static str) -> Result<f64, LoadError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8, expected)?.try_into().unwrap(),
        )))
    }

    /// Length-prefixed raw bytes; the length is sanity-checked against the
    /// remaining buffer before allocation.
    pub fn get_bytes(&mut self, expected: &'static str) -> Result<&'a [u8], LoadError> {
        let len = self.get_u32(expected)? as usize;
        if len > self.remaining() {
            return Err(self.err(
                expected,
                format!("length prefix {len} exceeds remaining {}", self.remaining()),
            ));
        }
        self.take(len, expected)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self, expected: &'static str) -> Result<&'a str, LoadError> {
        let start = self.pos;
        let bytes = self.get_bytes(expected)?;
        std::str::from_utf8(bytes).map_err(|e| LoadError::Wire {
            offset: start as u64,
            expected,
            found: format!("invalid UTF-8 ({e})"),
        })
    }

    pub fn get_point(&mut self) -> Result<IndoorPoint, LoadError> {
        let partition = PartitionId(self.get_u32("point partition id")?);
        let x = self.get_f64("point x")?;
        let y = self.get_f64("point y")?;
        let level = self.get_i32("point level")?;
        Ok(IndoorPoint::new(partition, Point::new(x, y, level)))
    }

    pub fn get_delta(&mut self) -> Result<ObjectDelta, LoadError> {
        let kind = self.get_u8("delta kind tag")?;
        let id = ObjectId(self.get_u32("delta object id")?);
        Ok(match kind {
            0 => ObjectDelta::Insert {
                id,
                at: self.get_point()?,
            },
            1 => ObjectDelta::Remove { id },
            2 => ObjectDelta::Move {
                id,
                to: self.get_point()?,
            },
            other => {
                return Err(self.err("delta kind tag 0..=2", format!("tag {other}")));
            }
        })
    }

    /// Count-prefixed point list (see [`WireWriter::put_points`]). The
    /// count is capped before allocation so a corrupt length prefix
    /// cannot trigger a huge reserve.
    pub fn get_points(&mut self) -> Result<Vec<IndoorPoint>, LoadError> {
        let n = self.get_u32("point count")? as usize;
        let mut points = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            points.push(self.get_point()?);
        }
        Ok(points)
    }

    /// Count-prefixed label list (see [`WireWriter::put_labels`]).
    pub fn get_labels(&mut self) -> Result<Vec<String>, LoadError> {
        let n = self.get_u32("label count")? as usize;
        let mut labels = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            labels.push(self.get_str("label")?.to_string());
        }
        Ok(labels)
    }

    pub fn get_update(&mut self) -> Result<ObjectUpdate, LoadError> {
        let delta = self.get_delta()?;
        let labels = self.get_labels()?;
        Ok(ObjectUpdate { delta, labels })
    }

    /// Count-prefixed delta batch (see [`WireWriter::put_deltas`]); the
    /// count is capped before allocation like [`WireReader::get_points`].
    pub fn get_deltas(&mut self) -> Result<Vec<ObjectDelta>, LoadError> {
        let n = self.get_u32("delta count")? as usize;
        let mut deltas = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            deltas.push(self.get_delta()?);
        }
        Ok(deltas)
    }

    /// Count-prefixed labelled batch (see [`WireWriter::put_updates`]).
    pub fn get_updates(&mut self) -> Result<Vec<ObjectUpdate>, LoadError> {
        let n = self.get_u32("update count")? as usize;
        let mut updates = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            updates.push(self.get_update()?);
        }
        Ok(updates)
    }

    /// Decode a typed query request (see [`WireWriter::put_request`]).
    pub fn get_request(&mut self) -> Result<QueryRequest, LoadError> {
        let tag = self.get_u8("request kind tag")?;
        Ok(match tag {
            0 => QueryRequest::Knn {
                q: self.get_point()?,
                k: self.get_u64("knn k")? as usize,
            },
            1 => QueryRequest::Range {
                q: self.get_point()?,
                radius: self.get_f64("range radius")?,
            },
            2 => QueryRequest::KnnKeyword {
                q: self.get_point()?,
                k: self.get_u64("keyword knn k")? as usize,
                keyword: Arc::from(self.get_str("keyword")?),
            },
            3 => QueryRequest::ShortestDistance {
                s: self.get_point()?,
                t: self.get_point()?,
            },
            4 => QueryRequest::ShortestPath {
                s: self.get_point()?,
                t: self.get_point()?,
            },
            other => {
                return Err(self.err("request kind tag 0..=4", format!("tag {other}")));
            }
        })
    }

    /// Decode a route (see [`WireWriter::put_path`]).
    pub fn get_path(&mut self) -> Result<IndoorPath, LoadError> {
        let source = self.get_point()?;
        let target = self.get_point()?;
        let n = self.get_u32("path door count")? as usize;
        let mut doors = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            doors.push(DoorId(self.get_u32("path door id")?));
        }
        let length = self.get_f64("path length")?;
        Ok(IndoorPath {
            source,
            target,
            doors,
            length,
        })
    }

    /// Decode a `(object, distance)` list (see [`WireWriter::put_scored`]).
    pub fn get_scored(&mut self) -> Result<Vec<(ObjectId, f64)>, LoadError> {
        let n = self.get_u32("scored object count")? as usize;
        let mut objs = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            let id = ObjectId(self.get_u32("scored object id")?);
            let d = self.get_f64("scored object distance")?;
            objs.push((id, d));
        }
        Ok(objs)
    }

    /// Decode a typed query response (see [`WireWriter::put_response`]).
    pub fn get_response(&mut self) -> Result<QueryResponse, LoadError> {
        let tag = self.get_u8("response kind tag")?;
        Ok(match tag {
            0 => QueryResponse::Knn(self.get_scored()?),
            1 => QueryResponse::Range(self.get_scored()?),
            2 => QueryResponse::KnnKeyword(self.get_scored()?),
            3 => QueryResponse::ShortestDistance(match self.get_u8("distance presence flag")? {
                0 => None,
                1 => Some(self.get_f64("shortest distance")?),
                other => {
                    return Err(self.err("distance presence flag 0/1", format!("flag {other}")));
                }
            }),
            4 => QueryResponse::ShortestPath(match self.get_u8("path presence flag")? {
                0 => None,
                1 => Some(self.get_path()?),
                other => {
                    return Err(self.err("path presence flag 0/1", format!("flag {other}")));
                }
            }),
            other => {
                return Err(self.err("response kind tag 0..=4", format!("tag {other}")));
            }
        })
    }

    /// Assert the buffer is fully consumed (section payloads are
    /// self-delimiting; leftover bytes mean a format mismatch).
    pub fn finish(&self, expected: &'static str) -> Result<(), LoadError> {
        if self.remaining() != 0 {
            return Err(self.err(expected, format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32: no table, so it shares nothing
    /// with the sliced implementation it checks.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_reference_at_every_length_and_alignment() {
        // Every split of a slice into 8-byte steps and a bytewise tail,
        // starting at every alignment of the underlying buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..80)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_equals_reference_on_arbitrary_input(
            words in proptest::collection::vec(0u64..u64::MAX, 0..48),
            trim in 0usize..8,
        ) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let bytes = &bytes[..bytes.len().saturating_sub(trim)];
            proptest::prop_assert_eq!(crc32(bytes), crc32_reference(bytes));
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i32(-3);
        w.put_f64(f64::NAN);
        w.put_str("café");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8("u8").unwrap(), 7);
        assert_eq!(r.get_u32("u32").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("u64").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i32("i32").unwrap(), -3);
        // Bit-pattern round trip: NaN payload preserved.
        assert_eq!(r.get_f64("f64").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_str("str").unwrap(), "café");
        r.finish("end").unwrap();
    }

    #[test]
    fn deltas_and_updates_round_trip() {
        let p = IndoorPoint::new(PartitionId(3), Point::new(1.5, -2.25, 1));
        let cases = [
            ObjectDelta::Insert {
                id: ObjectId(9),
                at: p,
            },
            ObjectDelta::Remove { id: ObjectId(0) },
            ObjectDelta::Move {
                id: ObjectId(4),
                to: p,
            },
        ];
        for d in cases {
            let mut w = WireWriter::new();
            w.put_delta(&d);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_delta().unwrap(), d);
            r.finish("end").unwrap();
        }
        let u = ObjectUpdate {
            delta: ObjectDelta::Insert {
                id: ObjectId(2),
                at: p,
            },
            labels: vec!["atm".into(), "café".into()],
        };
        let mut w = WireWriter::new();
        w.put_update(&u);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_update().unwrap(), u);
    }

    #[test]
    fn truncated_reads_name_offset_and_expectation() {
        let mut w = WireWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_u32("first").unwrap();
        let err = r.get_u64("trailing counter").unwrap_err();
        match err {
            LoadError::Wire {
                offset,
                expected,
                found,
            } => {
                assert_eq!(offset, 4);
                assert_eq!(expected, "trailing counter");
                assert!(found.contains("0 of 8"), "{found}");
            }
            other => panic!("wrong variant: {other}"),
        }
    }

    #[test]
    fn requests_round_trip() {
        let p = IndoorPoint::new(PartitionId(1), Point::new(3.5, -0.0, 2));
        let q = IndoorPoint::new(PartitionId(7), Point::new(f64::NAN, 9.0, -1));
        let cases = [
            QueryRequest::Knn { q: p, k: 5 },
            QueryRequest::Range {
                q,
                radius: f64::INFINITY,
            },
            QueryRequest::KnnKeyword {
                q: p,
                k: 0,
                keyword: Arc::from("café"),
            },
            QueryRequest::ShortestDistance { s: p, t: q },
            QueryRequest::ShortestPath { s: q, t: p },
        ];
        for req in cases {
            let mut w = WireWriter::new();
            w.put_request(&req);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            // QueryRequest equality is by bit pattern, so NaN coordinates
            // still compare equal after the round trip.
            assert_eq!(r.get_request().unwrap(), req);
            r.finish("end").unwrap();
        }
    }

    #[test]
    fn responses_round_trip() {
        let p = IndoorPoint::new(PartitionId(1), Point::new(3.5, 4.5, 0));
        let path = IndoorPath {
            source: p,
            target: IndoorPoint::new(PartitionId(2), Point::new(8.0, 1.0, 0)),
            doors: vec![DoorId(3), DoorId(9)],
            length: 12.75,
        };
        let cases = [
            QueryResponse::Knn(vec![(ObjectId(1), 2.5), (ObjectId(4), f64::MAX)]),
            QueryResponse::Range(Vec::new()),
            QueryResponse::KnnKeyword(vec![(ObjectId(0), 0.0)]),
            QueryResponse::ShortestDistance(Some(7.25)),
            QueryResponse::ShortestDistance(None),
            QueryResponse::ShortestPath(Some(path)),
            QueryResponse::ShortestPath(None),
        ];
        for resp in cases {
            let mut w = WireWriter::new();
            w.put_response(&resp);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_response().unwrap(), resp);
            r.finish("end").unwrap();
        }
    }

    #[test]
    fn bad_request_and_response_tags_are_rejected() {
        let mut r = WireReader::new(&[5u8]);
        assert!(r.get_request().unwrap_err().to_string().contains("tag 5"));
        let mut r = WireReader::new(&[9u8]);
        assert!(r.get_response().unwrap_err().to_string().contains("tag 9"));
        // Bad presence flag on a shortest-distance response.
        let mut r = WireReader::new(&[3u8, 7u8]);
        assert!(r.get_response().unwrap_err().to_string().contains("flag 7"));
    }

    #[test]
    fn bad_delta_tag_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let err = r.get_delta().unwrap_err().to_string();
        assert!(err.contains("tag 9"), "{err}");
    }
}
