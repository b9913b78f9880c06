//! Structure-of-arrays feature columns and packet batches.
//!
//! [`FeatureColumns`] holds a batch's features **column-major** (one
//! contiguous `f32` slice per feature): the shape the batched interval
//! index probes read, so the switch gathers the rows it defers into one
//! and probes whole column slices at once without touching the
//! allocator. [`PacketBatch`] is a whole-batch ingest: one pass over the
//! packets fills the canonical flow keys and the four packet-level
//! feature columns in tight per-column loops. The switch walk no longer
//! ingests through it — it gathers features only for the rows it defers.
//!
//! Both types are plain growable buffers designed for reuse: `fill`/
//! `reset` reshape in place, so a replay loop allocates once and then
//! processes arbitrarily many batches allocation-free.

use crate::features::PL_DIM;
use crate::five_tuple::FiveTuple;
use crate::packet::Packet;

/// A column-major `rows × dims` feature matrix: column `d` is the
/// contiguous slice `data[d*rows .. (d+1)*rows]`. The transpose of
/// `iguard_runtime::Dataset`'s row-major layout — this is the shape the
/// interval-index batch probes consume.
#[derive(Clone, Debug, Default)]
pub struct FeatureColumns {
    dims: usize,
    rows: usize,
    data: Vec<f32>,
}

impl FeatureColumns {
    /// Reshapes to `dims` columns of `rows` values each, reusing the
    /// backing buffer. Contents are unspecified until written.
    pub fn reset(&mut self, dims: usize, rows: usize) {
        self.dims = dims;
        self.rows = rows;
        self.data.clear();
        self.data.resize(dims * rows, 0.0);
    }

    pub fn dims(&self) -> usize {
        self.dims
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `d` as a contiguous slice of length `rows`.
    #[inline]
    pub fn column(&self, d: usize) -> &[f32] {
        &self.data[d * self.rows..(d + 1) * self.rows]
    }

    /// Mutable view of column `d`.
    #[inline]
    pub fn column_mut(&mut self, d: usize) -> &mut [f32] {
        &mut self.data[d * self.rows..(d + 1) * self.rows]
    }

    /// Pre-grows the backing buffer for a `dims × rows` reshape without
    /// changing the current contents or shape.
    pub fn reserve(&mut self, dims: usize, rows: usize) {
        let need = dims * rows;
        if self.data.capacity() < need {
            self.data.reserve(need - self.data.len());
        }
    }

    /// Gathers row `i` (one value per column) into `out`.
    pub fn gather_row_into(&self, i: usize, out: &mut Vec<f32>) {
        debug_assert!(i < self.rows);
        out.clear();
        for d in 0..self.dims {
            out.push(self.data[d * self.rows + i]);
        }
    }
}

/// One ingested packet batch in structure-of-arrays form: the canonical
/// flow key per packet plus the 4 packet-level feature columns of
/// [`crate::features::FeatureSet::PacketLevel`] (dst_port, proto,
/// wire_len, ttl), extracted in per-column tight loops.
#[derive(Clone, Debug, Default)]
pub struct PacketBatch {
    /// `keys[i]` = `pkts[i].five.canonical()` — computed once per packet
    /// here instead of once per lookup downstream.
    pub keys: Vec<FiveTuple>,
    /// The 4 packet-level feature columns, `pkts.len()` rows each.
    pub pl: FeatureColumns,
}

impl PacketBatch {
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Pre-grows the backing buffers for batches of up to `rows` packets,
    /// so a streaming loop that calls [`PacketBatch::fill`] with a known
    /// maximum batch size never reallocates after warm-up.
    pub fn reserve(&mut self, rows: usize) {
        if self.keys.capacity() < rows {
            self.keys.reserve(rows - self.keys.len());
        }
        self.pl.reserve(PL_DIM, rows);
    }

    /// Ingests `pkts`: canonical keys, then each PL feature column in its
    /// own pass. Reuses the previous fill's buffers.
    pub fn fill(&mut self, pkts: &[Packet]) {
        let n = pkts.len();
        self.keys.clear();
        self.keys.extend(pkts.iter().map(|p| p.five.canonical()));
        self.pl.reset(PL_DIM, n);
        for (dst, p) in self.pl.column_mut(0).iter_mut().zip(pkts) {
            *dst = p.five.dst_port as f32;
        }
        for (dst, p) in self.pl.column_mut(1).iter_mut().zip(pkts) {
            *dst = p.five.proto as f32;
        }
        for (dst, p) in self.pl.column_mut(2).iter_mut().zip(pkts) {
            *dst = p.wire_len as f32;
        }
        for (dst, p) in self.pl.column_mut(3).iter_mut().zip(pkts) {
            *dst = p.ttl as f32;
        }
    }

    /// The packet-level feature row of packet `i` — identical to
    /// [`crate::features::packet_level_features`] on the source packet.
    #[inline]
    pub fn pl_row(&self, i: usize) -> [f32; PL_DIM] {
        [self.pl.column(0)[i], self.pl.column(1)[i], self.pl.column(2)[i], self.pl.column(3)[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::packet_level_features;
    use crate::five_tuple::PROTO_TCP;
    use crate::packet::TcpFlags;

    fn pkt(sport: u16, len: u16, ttl: u8) -> Packet {
        Packet {
            ts_ns: 0,
            five: FiveTuple::new(0xC0A80101, 0x0A000001, sport, 80, PROTO_TCP),
            wire_len: len,
            ttl,
            flags: TcpFlags::default(),
        }
    }

    #[test]
    fn columns_match_per_packet_extraction() {
        let pkts = vec![pkt(40_000, 60, 64), pkt(40_001, 1500, 128), pkt(2, 0, 0)];
        let mut b = PacketBatch::default();
        b.fill(&pkts);
        assert_eq!(b.len(), 3);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(b.keys[i], p.five.canonical());
            assert_eq!(b.pl_row(i).to_vec(), packet_level_features(p));
            let mut row = Vec::new();
            b.pl.gather_row_into(i, &mut row);
            assert_eq!(row, packet_level_features(p));
        }
    }

    #[test]
    fn refill_reshapes_in_place() {
        let mut b = PacketBatch::default();
        b.fill(&[pkt(1, 100, 64); 8]);
        assert_eq!(b.pl.rows(), 8);
        b.fill(&[pkt(2, 200, 32)]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.pl.rows(), 1);
        assert_eq!(b.pl.column(2), &[200.0]);
        b.fill(&[]);
        assert!(b.is_empty());
        assert_eq!(b.pl.column(0), &[] as &[f32]);
    }
}
