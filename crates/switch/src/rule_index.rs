//! Compiled index over a quantized [`RangeTable`] — the switch-side twin
//! of [`iguard_core::rule_index`].
//!
//! A [`RangeTable`] resolves a key by scanning every installed entry and
//! keeping the minimum priority. [`RangeIndex`] compiles the same entries
//! into per-field interval tables (cut points = the distinct `lo` and
//! `hi + 1` values of all entries) so a lookup is one binary search per
//! field plus a word-wise AND — and returns the **identical** entry on
//! every key. Priority order is baked in at build time: bitmap bit
//! positions are assigned by ascending `(priority, entry position)`, which
//! reproduces the scan's min-by-priority-earliest-wins tie-break, so the
//! first set bit of the AND result *is* the winning entry.

use iguard_core::rule_index::{BatchScratch, IndexBuilder, IntervalIndex};
use iguard_telemetry::counter;

use crate::tcam::RangeTable;

/// The compiled first-match index of a [`RangeTable`].
#[derive(Clone, Debug)]
pub struct RangeIndex {
    inner: IntervalIndex,
    /// Bit position → entry position in the source table (push order),
    /// sorted by `(priority, position)` at build time.
    order: Vec<u32>,
}

impl RangeIndex {
    pub fn build(table: &RangeTable) -> Self {
        let entries = table.entries();
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_by_key(|&i| (entries[i as usize].priority, i));
        let mut b = IndexBuilder::new(table.field_bits.len());
        let mut buf = Vec::with_capacity(table.field_bits.len());
        for &pos in &order {
            buf.clear();
            for &(lo, hi) in &entries[pos as usize].fields {
                // Inclusive [lo, hi] → half-open [lo, hi + 1) in u64 cut
                // space (no overflow: field values are u32).
                buf.push((lo as u64, hi as u64 + 1));
            }
            b.push_rule(&buf);
        }
        Self { inner: b.finish(), order }
    }

    /// Entry position (into [`RangeTable::entries`]) of the winning entry
    /// — equal to [`RangeTable::lookup_idx`] on every key.
    pub fn lookup(&self, key: &[u32], scratch: &mut Vec<u64>) -> Option<usize> {
        counter!("switch.rule_index.lookup").inc();
        match self.inner.lookup_with(scratch, |d| key[d] as u64) {
            Some(bit) => {
                counter!("switch.rule_index.hit").inc();
                Some(self.order[bit as usize] as usize)
            }
            None => {
                counter!("switch.rule_index.miss").inc();
                None
            }
        }
    }

    /// Columnar batch lookup: `cols[f]` is field `f` of every quantized
    /// key in the batch (all columns the same length). Fills `out` with
    /// one entry position per row, equal to per-key [`RangeIndex::lookup`]
    /// calls; the `lookup`/`hit`/`miss` counters advance by the same
    /// totals as the scalar path.
    pub fn lookup_batch(
        &self,
        cols: &[&[u32]],
        scratch: &mut BatchScratch,
        out: &mut Vec<Option<u32>>,
    ) {
        let n = cols.first().map_or(0, |c| c.len());
        debug_assert!(cols.iter().all(|c| c.len() == n), "ragged key columns");
        counter!("switch.rule_index.lookup").add(n as u64);
        self.inner.lookup_batch_with(scratch, n, |d, i| cols[d][i] as u64, out);
        let mut hits = 0u64;
        for slot in out.iter_mut() {
            if let Some(bit) = slot {
                *bit = self.order[*bit as usize];
                hits += 1;
            }
        }
        counter!("switch.rule_index.hit").add(hits);
        counter!("switch.rule_index.miss").add(n as u64 - hits);
    }

    pub fn n_rules(&self) -> usize {
        self.inner.n_rules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcam::{RangeEntry, RangeTable};

    fn table(entries: &[(&[(u32, u32)], u32)]) -> RangeTable {
        let fields = entries.first().map_or(1, |(f, _)| f.len());
        let mut t = RangeTable::new(vec![8; fields]);
        for &(fields, priority) in entries {
            t.push(RangeEntry { fields: fields.to_vec(), priority });
        }
        t
    }

    #[test]
    fn empty_table_misses() {
        let idx = RangeIndex::build(&RangeTable::new(vec![8]));
        assert_eq!(idx.lookup(&[0], &mut Vec::new()), None);
    }

    #[test]
    fn priority_beats_push_order() {
        // Entry 1 has the better (lower) priority on the overlap.
        let t = table(&[(&[(0, 100)], 5), (&[(50, 200)], 1)]);
        let idx = RangeIndex::build(&t);
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[60], &mut s), Some(1));
        assert_eq!(idx.lookup(&[10], &mut s), Some(0));
        assert_eq!(idx.lookup(&[150], &mut s), Some(1));
        assert_eq!(idx.lookup(&[201], &mut s), None);
    }

    #[test]
    fn priority_ties_resolve_to_earliest_entry() {
        let t = table(&[(&[(0, 100)], 3), (&[(0, 100)], 3)]);
        let idx = RangeIndex::build(&t);
        assert_eq!(idx.lookup(&[50], &mut Vec::new()), Some(0));
        assert_eq!(t.lookup_idx(&[50]), Some(0));
    }

    /// The columnar probe agrees with per-key lookups over a full grid,
    /// fed both in sorted order (long amortised runs) and field-swapped
    /// order (descending runs in the second field).
    #[test]
    fn batch_lookup_matches_scalar_on_full_grid() {
        let t = table(&[
            (&[(0, 15), (3, 9)], 2),
            (&[(4, 30), (0, 31)], 0),
            (&[(10, 10), (10, 10)], 1),
            (&[(0, 31), (20, 25)], 3),
        ]);
        let idx = RangeIndex::build(&t);
        let mut grid: Vec<[u32; 2]> =
            (0..=32u32).flat_map(|a| (0..=32u32).map(move |b| [a, b])).collect();
        for pass in 0..2 {
            if pass == 1 {
                grid.reverse();
            }
            let cols: Vec<Vec<u32>> = (0..2).map(|f| grid.iter().map(|k| k[f]).collect()).collect();
            let views: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut scratch = BatchScratch::default();
            let mut out = Vec::new();
            idx.lookup_batch(&views, &mut scratch, &mut out);
            let mut s = Vec::new();
            for (key, got) in grid.iter().zip(&out) {
                assert_eq!(got.map(|p| p as usize), idx.lookup(key, &mut s), "key {key:?}");
            }
        }
    }

    /// Exhaustive agreement with the linear scan on a multi-field table,
    /// including inclusive upper edges.
    #[test]
    fn agrees_with_linear_scan_on_full_grid() {
        let t = table(&[
            (&[(0, 15), (3, 9)], 2),
            (&[(4, 30), (0, 31)], 0),
            (&[(10, 10), (10, 10)], 1),
            (&[(0, 31), (20, 25)], 3),
        ]);
        let idx = RangeIndex::build(&t);
        let mut s = Vec::new();
        for a in 0..=32u32 {
            for b in 0..=32u32 {
                let key = [a, b];
                assert_eq!(idx.lookup(&key, &mut s), t.lookup_idx(&key), "key {key:?}");
                assert_eq!(
                    t.lookup_idx(&key).map(|i| &t.entries()[i]),
                    t.lookup(&key),
                    "lookup_idx vs lookup at {key:?}"
                );
            }
        }
    }
}
