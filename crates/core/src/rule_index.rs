//! Compiled rule index: sublinear first-match lookup over axis-aligned
//! rule sets.
//!
//! Both whitelist representations in this workspace — float
//! [`Hypercube`](crate::rules::Hypercube) rules and the quantized TCAM
//! range entries in `iguard-switch` — are conjunctions of per-dimension
//! intervals resolved by a priority-ordered linear scan. That scan is
//! `O(rules · dims)` per key. This module compiles the same rules into a
//! per-dimension **interval table**: the distinct cut points of all rules,
//! sorted, where each of the `cuts + 1` elementary intervals carries a
//! bitmap (rows of `u64` words) of the rules covering it. A lookup is one
//! binary search per dimension plus a word-wise AND across dimensions; the
//! first set bit of the surviving bitmap is the first-match rule. Cost:
//! `O(dims · log cuts + dims · rules/64)` — sublinear in practice because
//! the AND runs 64 rules per word and exits early on an all-zero
//! intersection.
//!
//! The index is **exact**: it returns the identical rule (or miss) as the
//! linear scan on every key, including NaN components (always a miss, as
//! IEEE comparison dictates), signed zeros (`-0.0` and `+0.0` compare
//! equal and are normalised to one cut), and infinite rule bounds. The cut
//! domain is `u64`; float bounds enter through [`ord_key`], a monotone
//! bijection from non-NaN `f32` onto an integer order, so every float
//! comparison carries over to integer comparison exactly. The quantized
//! TCAM index in `iguard-switch` uses field values as cuts directly.

use iguard_telemetry::counter;

/// Maps a non-NaN `f32` onto `u64` such that `a < b ⇔ ord_key(a) <
/// ord_key(b)` (with `-0.0` and `+0.0` mapped to the same key, matching
/// IEEE `==`). The usual sign-flip trick: negative floats have their bits
/// inverted, positive floats get the sign bit set, which linearises the
/// two monotone halves of the IEEE encoding.
///
/// NaN is the caller's problem: rule bounds containing NaN make the rule
/// empty, key components containing NaN make the lookup a miss — both are
/// handled before any key is formed.
#[inline]
pub fn ord_key(v: f32) -> u64 {
    debug_assert!(!v.is_nan(), "NaN must be filtered before ordering");
    // Branchless on purpose — this runs inside the batch probe's key
    // conversion loop, which vectorises only if every lane is straight
    // arithmetic. `+ 0.0` collapses -0.0 onto +0.0 (IEEE: -0.0 + 0.0 =
    // +0.0, x + 0.0 = x otherwise); the XOR mask inverts negative
    // payloads and sets the sign bit of positive ones in one expression.
    let b = (v + 0.0).to_bits() as i32;
    let u = (b as u32) ^ (((b >> 31) as u32) | 0x8000_0000);
    u as u64
}

/// One dimension of the index: sorted distinct cut points and, for each of
/// the `cuts.len() + 1` elementary intervals, a bitmap row of the rules
/// covering that interval.
#[derive(Clone, Debug)]
struct DimIntervals {
    cuts: Vec<u64>,
    /// `(cuts.len() + 1) * words` words; row `i` covers keys `k` with
    /// `cuts[i-1] <= k < cuts[i]` (row 0: `k < cuts[0]`; last row:
    /// `k >= cuts[last]`).
    rows: Vec<u64>,
    /// `cuts` narrowed to `u32` when every cut fits (always true for
    /// [`ord_key`] cuts, whose range is `u32`); empty otherwise. The
    /// batch probe's cut-major count runs on this homogeneous `u32`
    /// form — compare, add, and accumulator all one lane width, twice
    /// the SIMD lanes of the `u64` domain.
    cuts32: Vec<u32>,
}

/// A compiled interval index over `u64` cut keys. Build with
/// [`IndexBuilder`]; bit positions are assigned in push order, and
/// [`IntervalIndex::lookup_with`] returns the lowest set bit — so pushing
/// rules in priority order makes the result the first match.
#[derive(Clone, Debug)]
pub struct IntervalIndex {
    dims: Vec<DimIntervals>,
    words: usize,
    n_rules: usize,
}

/// Accumulates per-rule, per-dimension half-open cut ranges `[lo, hi)`
/// before compiling them into an [`IntervalIndex`].
pub struct IndexBuilder {
    n_dims: usize,
    /// One entry per pushed rule; `None` marks a rule that can never match
    /// (empty in some dimension) — it keeps its bit position but sets no
    /// interval bits and contributes no cuts.
    rules: Vec<Option<Vec<(u64, u64)>>>,
}

impl IndexBuilder {
    pub fn new(n_dims: usize) -> Self {
        Self { n_dims, rules: Vec::new() }
    }

    /// Adds the next rule (bit position = call order). `bounds[d]` is the
    /// half-open `[lo, hi)` the rule covers in cut space; a rule with
    /// `lo >= hi` in any dimension is empty and will never match.
    pub fn push_rule(&mut self, bounds: &[(u64, u64)]) {
        assert_eq!(bounds.len(), self.n_dims, "one bound pair per dimension");
        if bounds.iter().any(|&(lo, hi)| lo >= hi) {
            self.rules.push(None);
        } else {
            self.rules.push(Some(bounds.to_vec()));
        }
    }

    pub fn finish(self) -> IntervalIndex {
        let n_rules = self.rules.len();
        let words = n_rules.div_ceil(64);
        let mut dims = Vec::with_capacity(self.n_dims);
        for d in 0..self.n_dims {
            let mut cuts: Vec<u64> =
                self.rules.iter().flatten().flat_map(|r| [r[d].0, r[d].1]).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut rows = vec![0u64; (cuts.len() + 1) * words];
            for (bit, rule) in self.rules.iter().enumerate() {
                let Some(rule) = rule else { continue };
                let (lo, hi) = rule[d];
                // `lo` and `hi` are both cuts: the rule covers the
                // elementary intervals strictly after `lo`'s row up to and
                // including `hi`'s row.
                let first = cuts.partition_point(|&c| c <= lo);
                let last = cuts.partition_point(|&c| c < hi);
                debug_assert!(first <= last);
                for iv in first..=last {
                    rows[iv * words + bit / 64] |= 1u64 << (bit % 64);
                }
            }
            let cuts32 = if cuts.iter().all(|&c| c <= u32::MAX as u64) {
                cuts.iter().map(|&c| c as u32).collect()
            } else {
                Vec::new()
            };
            dims.push(DimIntervals { cuts, rows, cuts32 });
        }
        IntervalIndex { dims, words, n_rules }
    }
}

/// Caller-owned scratch for [`IntervalIndex::lookup_batch_with`]: the
/// row-major `rows × words` AND accumulator and the dimension-major
/// cut-space key buffer, reused across batches so the probe loop never
/// allocates.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    acc: Vec<u64>,
    /// Dimension-major elementary-interval indices (`dims × rows`) of the
    /// register-resident fast path.
    iv: Vec<u32>,
    /// One dimension's cut-space keys, materialised (and clamped to
    /// `u32`) so the interval count can run cut-major over a contiguous
    /// buffer.
    keys: Vec<u32>,
}

/// Cut arrays up to this length resolve by branchless linear count in the
/// batch probe (vectorises, no cross-row dependency); longer arrays use
/// the run-amortised binary search. Break-even sits around one cache line
/// of cuts per SIMD lane-width comparison vs `log2(n)` mispredictable
/// branches.
const LINEAR_CUT_SCAN_MAX: usize = 64;

/// Rule sets up to `64 × REG_WORDS_MAX` rules run the batch AND pass with
/// the whole accumulator in registers (a fixed-size array the compiler
/// keeps out of memory); wider sets fall back to the row-major scratch
/// block.
const REG_WORDS_MAX: usize = 4;

/// Run-amortised interval search: resolves cut-space key `k` to its
/// elementary-interval index, reusing the previous `(key, interval)` pair
/// of this dimension. Batch keys arrive in whatever row order the caller
/// produced, but real traffic repeats values (ports, protocols, quantized
/// buckets), so equal neighbours cost nothing and near neighbours search
/// only the cut run between the two keys instead of the full cut array.
#[inline]
fn run_interval(cuts: &[u64], prev: &mut Option<(u64, usize)>, k: u64) -> usize {
    let iv = match *prev {
        Some((pk, piv)) if k == pk => piv,
        // Key moved up: the answer is at or after the previous interval,
        // so search only the suffix run.
        Some((pk, piv)) if k > pk => piv + cuts[piv..].partition_point(|&c| c <= k),
        // Key moved down: every cut past `piv` exceeds the previous key
        // (and hence `k`), so the prefix search is exact.
        Some((_, piv)) => cuts[..piv].partition_point(|&c| c <= k),
        None => cuts.partition_point(|&c| c <= k),
    };
    debug_assert_eq!(iv, cuts.partition_point(|&c| c <= k));
    *prev = Some((k, iv));
    iv
}

impl IntervalIndex {
    pub fn n_rules(&self) -> usize {
        self.n_rules
    }

    /// First-match lookup: `key(d)` supplies the cut-space key for
    /// dimension `d`. Returns the lowest bit position whose rule covers
    /// the key in every dimension. `scratch` is the caller-owned AND
    /// accumulator (resized to the word count on every call), so the hot
    /// path allocates nothing.
    pub fn lookup_with(&self, scratch: &mut Vec<u64>, key: impl Fn(usize) -> u64) -> Option<u32> {
        if self.n_rules == 0 {
            return None;
        }
        scratch.clear();
        scratch.resize(self.words, !0u64);
        // Bits past n_rules never belong to a rule; mask them off so the
        // early-exit test below sees a true all-zero intersection.
        let tail = self.n_rules % 64;
        if tail != 0 {
            scratch[self.words - 1] = (1u64 << tail) - 1;
        }
        for (d, dim) in self.dims.iter().enumerate() {
            let k = key(d);
            let iv = dim.cuts.partition_point(|&c| c <= k);
            let row = &dim.rows[iv * self.words..(iv + 1) * self.words];
            let mut any = 0u64;
            for (w, &r) in scratch.iter_mut().zip(row) {
                *w &= r;
                any |= *w;
            }
            if any == 0 {
                return None;
            }
        }
        scratch
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| (wi * 64) as u32 + w.trailing_zeros())
    }

    /// Columnar batch lookup: resolves `n` keys at once, dimension-major.
    /// `key(d, i)` supplies the cut-space key of row `i` in dimension `d`;
    /// `out` receives one first-match answer per row, identical to `n`
    /// independent [`IntervalIndex::lookup_with`] calls (debug-asserted).
    ///
    /// The probe walks one dimension at a time across the whole batch, so
    /// each dimension's cut array stays hot while binary searches are
    /// amortised over key runs ([`run_interval`]), and the per-row AND
    /// accumulators live in one contiguous `rows × words` block. Rows
    /// whose accumulator has already gone all-zero skip the search
    /// entirely.
    pub fn lookup_batch_with(
        &self,
        scratch: &mut BatchScratch,
        n: usize,
        key: impl Fn(usize, usize) -> u64,
        out: &mut Vec<Option<u32>>,
    ) {
        out.clear();
        if self.n_rules == 0 {
            out.resize(n, None);
            return;
        }
        let words = self.words;
        // Bits past n_rules never belong to a rule; start each row's
        // accumulator with them masked off so dead rows read as all-zero.
        let tail = self.n_rules % 64;
        let tail_mask = if tail == 0 { !0u64 } else { (1u64 << tail) - 1 };
        // ≤ 64 × REG_WORDS_MAX rules: two-pass register-resident probe.
        // Pass 1 resolves every row's elementary interval per dimension
        // (dimension-major, so each cut array stays hot); pass 2 walks
        // row-major with the whole AND accumulator in a fixed-size array
        // the compiler keeps in registers — no `rows × words` scratch
        // block to initialise, write per dimension, and re-read for
        // extraction.
        if words <= REG_WORDS_MAX {
            self.resolve_intervals(scratch, n, &key);
            match words {
                1 => self.reg_and_pass::<1>(scratch, n, tail_mask, out),
                2 => self.reg_and_pass::<2>(scratch, n, tail_mask, out),
                3 => self.reg_and_pass::<3>(scratch, n, tail_mask, out),
                _ => self.reg_and_pass::<4>(scratch, n, tail_mask, out),
            }
        } else {
            // Wide rule sets: dimension-major walk over a `rows × words`
            // accumulator block, skipping rows already all-zero.
            scratch.acc.clear();
            scratch.acc.resize(n * words, !0u64);
            if tail_mask != !0 {
                for r in 0..n {
                    scratch.acc[(r + 1) * words - 1] = tail_mask;
                }
            }
            for (d, dim) in self.dims.iter().enumerate() {
                let cuts = &dim.cuts[..];
                let mut prev: Option<(u64, usize)> = None;
                for (i, acc) in scratch.acc.chunks_exact_mut(words).enumerate() {
                    if acc.iter().all(|&w| w == 0) {
                        continue;
                    }
                    let iv = run_interval(cuts, &mut prev, key(d, i));
                    let row = &dim.rows[iv * words..(iv + 1) * words];
                    for (w, &r) in acc.iter_mut().zip(row) {
                        *w &= r;
                    }
                }
            }
            for acc in scratch.acc.chunks_exact(words) {
                out.push(
                    acc.iter()
                        .enumerate()
                        .find(|(_, &w)| w != 0)
                        .map(|(wi, &w)| (wi * 64) as u32 + w.trailing_zeros()),
                );
            }
        }
        #[cfg(debug_assertions)]
        {
            // Scalar oracle: the batch probe must agree with the per-key
            // path bit for bit.
            let mut s = Vec::new();
            for (i, &got) in out.iter().enumerate() {
                debug_assert_eq!(got, self.lookup_with(&mut s, |d| key(d, i)), "row {i}");
            }
        }
    }

    /// Pass 1 of the register-resident batch probe: fill `scratch.iv`
    /// (dimension-major, `dims × n`) with each row's elementary-interval
    /// index. Short cut arrays that fit `u32` resolve by a **cut-major**
    /// linear count: the dimension's key column is materialised once
    /// (clamped to `u32`, exact because every cut fits `u32`), then each
    /// cut makes one unit-stride pass over it, accumulating
    /// `iv[i] += (cut <= key[i])`. Every pass is a long contiguous
    /// compare/add loop in one lane width with no cross-row dependency,
    /// so it vectorises — unlike a per-row scan of the cut array, whose
    /// short mixed-width inner loop defeats the vectoriser. Long (or
    /// 64-bit) cut arrays fall back to the run-amortised binary search,
    /// which real traffic keeps cheap because adjacent rows repeat
    /// values.
    fn resolve_intervals(
        &self,
        scratch: &mut BatchScratch,
        n: usize,
        key: &impl Fn(usize, usize) -> u64,
    ) {
        let BatchScratch { iv, keys, .. } = scratch;
        iv.clear();
        iv.resize(self.dims.len() * n, 0);
        for (d, dim) in self.dims.iter().enumerate() {
            let cuts = &dim.cuts[..];
            let ivs = &mut iv[d * n..(d + 1) * n];
            if !dim.cuts32.is_empty() && cuts.len() <= LINEAR_CUT_SCAN_MAX {
                // Clamping keys to u32::MAX preserves every `cut <= key`
                // outcome because no cut exceeds u32::MAX.
                keys.clear();
                keys.extend((0..n).map(|i| key(d, i).min(u32::MAX as u64) as u32));
                // Range pruning: a cut at or below the chunk's smallest
                // key is counted by *every* row — fold those into a
                // constant base. A cut above the largest key is counted
                // by none — skip it. Only cuts inside the chunk's key
                // range need a compare pass, which on repeat-heavy
                // traffic (floods: one value per dimension) collapses
                // the loop to at most one pass.
                let (mut kmin, mut kmax) = (u32::MAX, 0u32);
                for &k in keys.iter() {
                    kmin = kmin.min(k);
                    kmax = kmax.max(k);
                }
                let lo = dim.cuts32.partition_point(|&c| c <= kmin);
                let hi = dim.cuts32.partition_point(|&c| c <= kmax);
                if lo > 0 {
                    ivs.fill(lo as u32);
                }
                for &c in &dim.cuts32[lo..hi] {
                    for (slot, &k) in ivs.iter_mut().zip(keys.iter()) {
                        *slot += (c <= k) as u32;
                    }
                }
            } else {
                let mut prev: Option<(u64, usize)> = None;
                for (i, slot) in ivs.iter_mut().enumerate() {
                    *slot = run_interval(cuts, &mut prev, key(d, i)) as u32;
                }
            }
            #[cfg(debug_assertions)]
            for (i, slot) in ivs.iter().enumerate() {
                debug_assert_eq!(*slot as usize, cuts.partition_point(|&c| c <= key(d, i)));
            }
        }
    }

    /// Pass 2 of the register-resident batch probe: row-major AND over
    /// the intervals resolved by [`IntervalIndex::resolve_intervals`].
    /// `W` is the compile-time word count, so the accumulator is a plain
    /// `[u64; W]` in registers; per dimension only an index load and `W`
    /// gathered ANDs remain.
    fn reg_and_pass<const W: usize>(
        &self,
        scratch: &BatchScratch,
        n: usize,
        tail_mask: u64,
        out: &mut Vec<Option<u32>>,
    ) {
        debug_assert_eq!(self.words, W);
        let ivs = &scratch.iv[..];
        for i in 0..n {
            let mut w = [!0u64; W];
            w[W - 1] = tail_mask;
            for (d, dim) in self.dims.iter().enumerate() {
                let base = ivs[d * n + i] as usize * W;
                let row = &dim.rows[base..base + W];
                for j in 0..W {
                    w[j] &= row[j];
                }
            }
            out.push(
                w.iter()
                    .enumerate()
                    .find(|(_, &x)| x != 0)
                    .map(|(wi, &x)| (wi * 64) as u32 + x.trailing_zeros()),
            );
        }
    }
}

/// The compiled index of a float [`RuleSet`](crate::rules::RuleSet):
/// first-match semantics identical to scanning `whitelist` in order and
/// returning the first [`Hypercube`](crate::rules::Hypercube) containing
/// the point.
#[derive(Clone, Debug)]
pub struct RuleIndex {
    inner: IntervalIndex,
}

impl RuleIndex {
    pub fn build(rules: &crate::rules::RuleSet) -> Self {
        let n_dims = rules.bounds.len();
        let mut b = IndexBuilder::new(n_dims);
        let mut buf = Vec::with_capacity(n_dims);
        for cube in &rules.whitelist {
            buf.clear();
            for d in 0..n_dims {
                let (lo, hi) = (cube.lo[d], cube.hi[d]);
                if lo.is_nan() || hi.is_nan() || !(lo < hi) {
                    // `contains` is false for every point (NaN comparisons
                    // are false; lo >= hi covers nothing): empty marker.
                    buf.push((1, 0));
                } else {
                    buf.push((ord_key(lo), ord_key(hi)));
                }
            }
            b.push_rule(&buf);
        }
        Self { inner: b.finish() }
    }

    /// Index of the first whitelist cube containing `x`, or `None`. Equal
    /// to [`RuleSet::lookup`](crate::rules::RuleSet::lookup) on every
    /// input, NaN included.
    pub fn lookup(&self, x: &[f32], scratch: &mut Vec<u64>) -> Option<usize> {
        counter!("core.rule_index.lookup").inc();
        // A NaN component fails `v >= lo` for every rule, even unbounded
        // ones — the linear scan misses, so the index must too.
        if x.iter().any(|v| v.is_nan()) {
            return None;
        }
        let hit = self.inner.lookup_with(scratch, |d| ord_key(x[d]));
        if hit.is_some() {
            counter!("core.rule_index.hit").inc();
        }
        hit.map(|bit| bit as usize)
    }

    /// Columnar batch lookup: `cols[d]` is the feature-`d` column of the
    /// batch (all columns the same length). Fills `out` with one answer
    /// per row, equal to calling [`RuleIndex::lookup`] on each gathered
    /// row; counters advance by the same totals as the per-key path.
    ///
    /// NaN components are folded into the key domain instead of branching
    /// per row: `u64::MAX` is strictly above [`ord_key`] of every non-NaN
    /// float, so a NaN lands in the top elementary interval — and because
    /// every non-empty rule's upper bound is itself a cut, no rule covers
    /// that interval. The row misses, exactly as the scalar NaN scan does.
    pub fn lookup_batch(
        &self,
        cols: &[&[f32]],
        scratch: &mut BatchScratch,
        out: &mut Vec<Option<u32>>,
    ) {
        let n = cols.first().map_or(0, |c| c.len());
        debug_assert!(cols.iter().all(|c| c.len() == n), "ragged feature columns");
        counter!("core.rule_index.lookup").add(n as u64);
        self.inner.lookup_batch_with(
            scratch,
            n,
            |d, i| {
                let v = cols[d][i];
                // Branchless NaN fold: `v != v` only for NaN, and OR-ing
                // all-ones yields u64::MAX — keeps the key-materialisation
                // loop straight-line so it vectorises.
                let b = (v + 0.0).to_bits() as i32;
                let k = ((b as u32) ^ (((b >> 31) as u32) | 0x8000_0000)) as u64;
                k | ((v != v) as u64).wrapping_neg()
            },
            out,
        );
        let hits = out.iter().filter(|h| h.is_some()).count();
        counter!("core.rule_index.hit").add(hits as u64);
    }

    pub fn n_rules(&self) -> usize {
        self.inner.n_rules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Hypercube, RuleSet};
    use iguard_runtime::rng::Rng;

    #[test]
    fn ord_key_is_monotone_and_collapses_zero() {
        let vals = [
            f32::NEG_INFINITY,
            -1e30,
            -2.5,
            -1.0,
            -f32::MIN_POSITIVE,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            2.5,
            1e30,
            f32::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(ord_key(w[0]) < ord_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(ord_key(-0.0), ord_key(0.0));
    }

    #[test]
    fn empty_index_misses() {
        let idx = IndexBuilder::new(3).finish();
        assert_eq!(idx.lookup_with(&mut Vec::new(), |_| 5), None);
    }

    #[test]
    fn first_match_wins_on_overlap() {
        let mut b = IndexBuilder::new(1);
        b.push_rule(&[(10, 20)]);
        b.push_rule(&[(0, 100)]);
        let idx = b.finish();
        let mut s = Vec::new();
        assert_eq!(idx.lookup_with(&mut s, |_| 15), Some(0));
        assert_eq!(idx.lookup_with(&mut s, |_| 5), Some(1));
        assert_eq!(idx.lookup_with(&mut s, |_| 100), None, "hi is exclusive");
        assert_eq!(idx.lookup_with(&mut s, |_| 20), Some(1), "rule 0 hi exclusive");
    }

    #[test]
    fn empty_rule_keeps_bit_position() {
        let mut b = IndexBuilder::new(1);
        b.push_rule(&[(7, 7)]); // empty: lo >= hi
        b.push_rule(&[(0, 10)]);
        let idx = b.finish();
        assert_eq!(idx.lookup_with(&mut Vec::new(), |_| 7), Some(1));
    }

    #[test]
    fn more_than_64_rules_crosses_word_boundary() {
        let mut b = IndexBuilder::new(1);
        for r in 0..130u64 {
            b.push_rule(&[(r * 10, r * 10 + 10)]);
        }
        let idx = b.finish();
        let mut s = Vec::new();
        for r in 0..130u64 {
            assert_eq!(idx.lookup_with(&mut s, |_| r * 10 + 5), Some(r as u32));
        }
        assert_eq!(idx.lookup_with(&mut s, |_| 1300), None);
    }

    #[test]
    fn batch_lookup_matches_scalar_on_random_columns() {
        let mut rng = Rng::seed_from_u64(0xBA7C);
        for trial in 0..12 {
            let dims = 1 + (trial % 4);
            let n_rules = 1 + (trial * 13) % 100; // crosses the 64-bit word boundary
            let mut whitelist = Vec::new();
            for _ in 0..n_rules {
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                for _ in 0..dims {
                    let a = (rng.gen_range(-8.0..8.0) as f32 * 4.0).round() / 4.0;
                    let w = rng.gen_range(0.0..4.0) as f32;
                    lo.push(if rng.gen_bool(0.1) { f32::NEG_INFINITY } else { a });
                    hi.push(if rng.gen_bool(0.1) { f32::INFINITY } else { a + w });
                }
                whitelist.push(Hypercube { lo, hi });
            }
            let rules =
                RuleSet { bounds: vec![(-8.0, 8.0); dims], whitelist, total_regions: n_rules };
            let idx = RuleIndex::build(&rules);
            // Column-major probe batch with runs of repeated values plus
            // NaN/±inf/±0 specials scattered in.
            let n = 257;
            let mut cols: Vec<Vec<f32>> = vec![Vec::with_capacity(n); dims];
            for i in 0..n {
                for col in cols.iter_mut() {
                    let v = if rng.gen_bool(0.08) {
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0]
                            [rng.gen_range(0..5usize)]
                    } else if i > 0 && rng.gen_bool(0.3) {
                        col[i - 1] // repeated run: exercises the amortised path
                    } else {
                        rng.gen_range(-10.0..10.0) as f32
                    };
                    col.push(v);
                }
            }
            let views: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut scratch = BatchScratch::default();
            let mut out = Vec::new();
            idx.lookup_batch(&views, &mut scratch, &mut out);
            assert_eq!(out.len(), n);
            let mut s = Vec::new();
            for i in 0..n {
                let row: Vec<f32> = cols.iter().map(|c| c[i]).collect();
                assert_eq!(
                    out[i].map(|b| b as usize),
                    idx.lookup(&row, &mut s),
                    "trial {trial}, row {i}: {row:?}"
                );
            }
        }
    }

    /// Random rule sets: index lookup equals the linear first-match scan
    /// on every probe, including NaN/±0/±inf components.
    #[test]
    fn rule_index_matches_linear_scan_exhaustively() {
        let mut rng = Rng::seed_from_u64(0x1D5E);
        for trial in 0..20 {
            let dims = 1 + (trial % 3);
            let n_rules = 1 + (trial * 7) % 90;
            let mut whitelist = Vec::new();
            for _ in 0..n_rules {
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                for _ in 0..dims {
                    let a = (rng.gen_range(-8.0..8.0) as f32 * 4.0).round() / 4.0;
                    let w = rng.gen_range(0.0..4.0) as f32;
                    let l = if rng.gen_range(0.0..1.0) < 0.1 { f32::NEG_INFINITY } else { a };
                    let h = if rng.gen_range(0.0..1.0) < 0.1 { f32::INFINITY } else { a + w };
                    lo.push(l);
                    hi.push(h);
                }
                whitelist.push(Hypercube { lo, hi });
            }
            let rules =
                RuleSet { bounds: vec![(-8.0, 8.0); dims], whitelist, total_regions: n_rules };
            let idx = RuleIndex::build(&rules);
            let mut scratch = Vec::new();
            let mut probe = |x: &[f32]| {
                assert_eq!(
                    idx.lookup(x, &mut scratch),
                    rules.lookup(x),
                    "trial {trial}, x = {x:?}"
                );
            };
            for _ in 0..400 {
                let x: Vec<f32> = (0..dims).map(|_| rng.gen_range(-10.0..10.0) as f32).collect();
                probe(&x);
            }
            for special in [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, 2.0] {
                let x = vec![special; dims];
                probe(&x);
            }
        }
    }
}
