//! The whitelist TCAM: native range matching, and the range→ternary
//! expansion that argues for it.
//!
//! Whitelist rules are conjunctions of per-field ranges. Two cost models
//! exist on real hardware:
//!
//! * **Prefix expansion** ([`range_to_prefixes`]): a range becomes up to
//!   `2w − 2` ternary prefixes, and a multi-field rule would need the
//!   *product* of its fields' prefix counts — prohibitive beyond a couple
//!   of range fields. Kept only as that argument's evidence; nothing
//!   installs ternary entries.
//! * **Native range match** ([`RangeTable`]): Tofino's TCAM implements
//!   range matching directly with 4-bit DirtCAM slices at roughly twice
//!   the bit cost of an exact field, keeping **one entry per rule**. This
//!   is how 13-range-field whitelist rules are actually installable, and
//!   it is the cost model the resource accounting (paper Table 1) uses.

use iguard_core::error::{IguardError, TcamError};
use iguard_core::rules::RuleSet;
use iguard_telemetry::{counter, span};

/// Fixed-point encoding of one feature into a TCAM field.
#[derive(Clone, Copy, Debug)]
pub struct FieldSpec {
    /// Field width in bits (≤ 32).
    pub bits: u8,
    /// Multiplier applied to the f32 feature before rounding to integer
    /// (e.g. 1000 to carry milliseconds in an integer field).
    pub scale: f32,
}

impl FieldSpec {
    pub fn new(bits: u8, scale: f32) -> Self {
        Self::try_new(bits, scale).expect("valid field spec")
    }

    /// Fallible constructor: reports invalid widths/scales as
    /// [`IguardError::Tcam`] instead of panicking — for rule sets compiled
    /// from untrusted or tuned configurations.
    pub fn try_new(bits: u8, scale: f32) -> Result<Self, IguardError> {
        if bits < 1 || bits > 32 {
            return Err(TcamError::BadFieldWidth { bits }.into());
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(TcamError::BadScale.into());
        }
        Ok(Self { bits, scale })
    }

    /// Largest representable field value.
    pub fn max_value(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Quantises a feature value, saturating at the field width.
    ///
    /// Scale and compare in `f64`: a product of two `f32`s is exact in
    /// `f64` (24 + 24 significand bits), and `max_value() as f64` holds
    /// every `u32` exactly — whereas `max_value() as f32` rounds
    /// `u32::MAX` up to 2³², so the old `f32` comparison failed to
    /// saturate values that scale to exactly `u32::MAX` and mis-rounded
    /// near the top of 25-bit-plus domains.
    pub fn quantize(&self, v: f32) -> u32 {
        if !v.is_finite() {
            return if v > 0.0 { self.max_value() } else { 0 };
        }
        let scaled = (v as f64 * self.scale as f64).round();
        if scaled <= 0.0 {
            0
        } else if scaled >= self.max_value() as f64 {
            self.max_value()
        } else {
            scaled as u32
        }
    }

    /// The canonical feature value of grid key `k` — the representative
    /// point the compiled table's semantics are defined on: an installed
    /// entry covers `k` iff the float rule contains `dequantize(k)`.
    /// Monotone non-decreasing in `k` (division by a positive scale), which
    /// is what lets [`compile_ruleset_checked`] binary-search the exact
    /// boundary keys of each rule.
    pub fn dequantize(&self, k: u32) -> f32 {
        k as f32 / self.scale
    }

    /// Smallest key `k ∈ [0, max_value()]` with `dequantize(k) >= bound`,
    /// or `max_value() + 1` when no key reaches `bound`. `bound` must not
    /// be NaN (callers reject NaN rule bounds as empty).
    fn first_key_at_or_above(&self, bound: f32) -> u64 {
        let max = self.max_value() as u64;
        if !(self.dequantize(max as u32) >= bound) {
            return max + 1;
        }
        if self.dequantize(0) >= bound {
            return 0;
        }
        // Invariant: dequantize(lo) < bound <= dequantize(hi).
        let (mut lo, mut hi) = (0u64, max);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.dequantize(mid as u32) >= bound {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// Expands the inclusive integer range `[lo, hi]` within a `width`-bit
/// field into minimal covering prefixes `(value, mask)`.
pub fn range_to_prefixes(lo: u32, hi: u32, width: u8) -> Vec<(u32, u32)> {
    assert!(width >= 1 && width <= 32);
    let field_max = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    assert!(lo <= hi, "empty range");
    assert!(hi <= field_max, "range exceeds field width");
    let mut out = Vec::new();
    let mut lo = lo as u64;
    let hi = hi as u64;
    while lo <= hi {
        // The largest power-of-two block starting at `lo` that stays ≤ hi.
        let max_align = if lo == 0 { width as u32 } else { lo.trailing_zeros() };
        let mut block_bits = max_align.min(width as u32);
        while block_bits > 0 && lo + (1u64 << block_bits) - 1 > hi {
            block_bits -= 1;
        }
        let mask =
            if block_bits >= 32 { 0 } else { (!((1u64 << block_bits) - 1)) as u32 & field_max };
        out.push((lo as u32, mask));
        lo += 1u64 << block_bits;
    }
    out
}

/// One native-range entry: inclusive `[lo, hi]` per field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    pub fields: Vec<(u32, u32)>,
    /// Lower number = higher priority.
    pub priority: u32,
}

impl RangeEntry {
    pub fn matches(&self, key: &[u32]) -> bool {
        debug_assert_eq!(key.len(), self.fields.len());
        self.fields.iter().zip(key).all(|(&(lo, hi), &k)| (lo..=hi).contains(&k))
    }
}

/// A TCAM programmed with native range matching (DirtCAM slices): one
/// entry per rule, regardless of how many fields carry ranges.
#[derive(Clone, Debug, Default)]
pub struct RangeTable {
    entries: Vec<RangeEntry>,
    /// Bit width per field.
    pub field_bits: Vec<u8>,
    /// Rules the compiler skipped because they cover no grid point in some
    /// dimension (sub-quantum width, or NaN bounds). Installing them would
    /// make the TCAM match keys the float rule rejects; skipping keeps the
    /// table exactly faithful. `len() + skipped_empty` = source rule count.
    pub skipped_empty: u64,
}

impl RangeTable {
    pub fn new(field_bits: Vec<u8>) -> Self {
        Self { entries: Vec::new(), field_bits, skipped_empty: 0 }
    }

    /// A table holding `entries` in the given order.
    pub(crate) fn from_entries(field_bits: Vec<u8>, entries: Vec<RangeEntry>) -> Self {
        debug_assert!(entries.iter().all(|e| e.fields.len() == field_bits.len()));
        Self { entries, field_bits, skipped_empty: 0 }
    }

    pub fn push(&mut self, entry: RangeEntry) {
        debug_assert_eq!(entry.fields.len(), self.field_bits.len());
        self.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The installed entries, in push order.
    pub fn entries(&self) -> &[RangeEntry] {
        &self.entries
    }

    /// Highest-priority matching entry, if any.
    pub fn lookup(&self, key: &[u32]) -> Option<&RangeEntry> {
        counter!("switch.tcam.lookup").inc();
        let hit = self.entries.iter().filter(|e| e.matches(key)).min_by_key(|e| e.priority);
        if hit.is_some() {
            counter!("switch.tcam.hit").inc();
        }
        hit
    }

    /// Position (in push order) of the highest-priority matching entry —
    /// the linear-scan reference [`crate::rule_index::RangeIndex`] must
    /// reproduce. Ties on priority resolve to the earliest entry, matching
    /// [`RangeTable::lookup`]'s `min_by_key`. Telemetry-free: this is the
    /// comparison arm of parity tests and debug assertions.
    pub fn lookup_idx(&self, key: &[u32]) -> Option<usize> {
        (0..self.entries.len())
            .filter(|&i| self.entries[i].matches(key))
            .min_by_key(|&i| self.entries[i].priority)
    }

    /// Key width after range encoding: DirtCAM range matching costs about
    /// twice the bits of an exact match (each 4-bit nibble needs a 16-bit
    /// one-hot slice arrangement; 2x is the conventional estimate).
    pub fn encoded_key_bits(&self) -> u32 {
        self.field_bits.iter().map(|&b| 2 * b as u32).sum()
    }
}

/// The bound-sized encoding: one `bits`-wide field per feature, scaled so
/// the feature's upper bound `hi` maps to the field's largest value. A
/// bound below 1 gets the scale of a bound of 1.
///
/// # Errors
/// [`TcamError::BadFieldWidth`] for a width outside 1..=32, and
/// [`TcamError::BadScale`] for an infinite upper bound (its scale would be
/// zero), which a rule file may carry.
pub fn field_specs_for_bounds(
    bounds: &[(f32, f32)],
    bits: u8,
) -> Result<Vec<FieldSpec>, IguardError> {
    let maxk = FieldSpec::try_new(bits, 1.0)?.max_value() as f32;
    bounds
        .iter()
        .map(|&(_, hi)| FieldSpec::try_new(bits, (maxk / hi.max(1e-6)).min(maxk)))
        .collect()
}

/// Compiles a whitelist [`RuleSet`] into a native-range TCAM table: at
/// most one entry per hypercube.
///
/// The table's semantics are the float rules restricted to the canonical
/// grid: entry `r` matches key `k` **iff** cube `r` contains the point
/// `dequantize(k)` per field. Because `dequantize` is monotone, the keys a
/// cube covers in each dimension form the contiguous range
/// `[first_key(lo), first_key(hi) − 1]` found by binary search on the
/// actual `f32` comparison — so TCAM↔float parity on grid points is exact
/// by construction, with no special cases:
///
/// * an upper bound at or beyond the domain edge covers up to
///   `max_value()` only if `dequantize(max_value()) < hi` — a half-open
///   cube ending exactly at the edge value excludes the top key;
/// * a cube narrower than one quantum covers *no* key and is skipped
///   (counted in [`RangeTable::skipped_empty`]) instead of being widened
///   to a point range the float rule rejects.
///
/// Entry priorities remain the source cube positions, so first-match rule
/// identity is preserved across the skip.
pub fn compile_ruleset(rules: &RuleSet, specs: &[FieldSpec]) -> RangeTable {
    compile_ruleset_checked(rules, specs).expect("one FieldSpec per feature")
}

/// Fallible variant of [`compile_ruleset`]: dimension mismatches surface
/// as [`IguardError::Tcam`] rather than a panic.
pub fn compile_ruleset_checked(
    rules: &RuleSet,
    specs: &[FieldSpec],
) -> Result<RangeTable, IguardError> {
    if rules.bounds.len() != specs.len() {
        return Err(
            TcamError::DimensionMismatch { rules: rules.bounds.len(), specs: specs.len() }.into()
        );
    }
    Ok(span!("switch.tcam.compile").time(|| {
        let mut table = RangeTable::new(specs.iter().map(|s| s.bits).collect());
        'cubes: for (prio, cube) in rules.whitelist.iter().enumerate() {
            let mut fields = Vec::with_capacity(specs.len());
            for ((&lo, &hi), spec) in cube.lo.iter().zip(&cube.hi).zip(specs) {
                if lo.is_nan() || hi.is_nan() {
                    // NaN bounds fail every `contains` comparison: the
                    // cube matches nothing.
                    table.skipped_empty += 1;
                    counter!("switch.tcam.skip_empty").inc();
                    continue 'cubes;
                }
                let klo = spec.first_key_at_or_above(lo);
                let khi = spec.first_key_at_or_above(hi);
                if klo >= khi {
                    table.skipped_empty += 1;
                    counter!("switch.tcam.skip_empty").inc();
                    continue 'cubes;
                }
                fields.push((klo as u32, (khi - 1) as u32));
            }
            table.push(RangeEntry { fields, priority: prio as u32 });
            counter!("switch.tcam.install").inc();
        }
        table
    }))
}

/// Quantises a feature vector into a TCAM lookup key: clears `out` and
/// fills it with one quantised value per field, reusing its capacity.
pub fn quantize_key_into(x: &[f32], specs: &[FieldSpec], out: &mut Vec<u32>) {
    assert_eq!(x.len(), specs.len());
    out.clear();
    out.extend(x.iter().zip(specs).map(|(&v, s)| s.quantize(v)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(prefixes: &[(u32, u32)], lo: u32, hi: u32, width: u8) {
        let max = if width == 32 { u32::MAX } else { (1 << width) - 1 };
        let upper = max.min(hi.saturating_add(4));
        for v in lo.saturating_sub(4)..=upper {
            let matched = prefixes.iter().any(|&(val, mask)| v & mask == val & mask);
            assert_eq!(matched, (lo..=hi).contains(&v), "value {v} in [{lo},{hi}]");
        }
    }

    #[test]
    fn full_range_is_one_entry() {
        let p = range_to_prefixes(0, 255, 8);
        assert_eq!(p, vec![(0, 0)]);
    }

    #[test]
    fn exact_value_is_full_mask() {
        let p = range_to_prefixes(7, 7, 8);
        assert_eq!(p, vec![(7, 0xFF)]);
    }

    #[test]
    fn classic_worst_case_range() {
        // [1, 14] in 4 bits: the textbook 6-entry expansion (2w − 2).
        let p = range_to_prefixes(1, 14, 4);
        assert_eq!(p.len(), 6);
        covers_exactly(&p, 1, 14, 4);
    }

    #[test]
    fn random_ranges_cover_exactly() {
        for &(lo, hi) in &[(0u32, 10u32), (3, 200), (100, 100), (5, 255), (37, 141)] {
            let p = range_to_prefixes(lo, hi, 8);
            covers_exactly(&p, lo, hi, 8);
        }
    }

    #[test]
    fn wide_field_range() {
        let p = range_to_prefixes(1000, 70000, 32);
        let hit = |val: u32| p.iter().any(|&(v, m)| val & m == v & m);
        assert!(!hit(999));
        assert!((1000..=1100).all(hit)); // spot-check the low end
        assert!(hit(65000));
        assert!(hit(70000));
        assert!(!hit(70001));
    }

    #[test]
    fn quantize_saturates() {
        let spec = FieldSpec::new(8, 1.0);
        assert_eq!(spec.quantize(-5.0), 0);
        assert_eq!(spec.quantize(300.0), 255);
        assert_eq!(spec.quantize(42.4), 42);
        assert_eq!(spec.quantize(f32::INFINITY), 255);
        assert_eq!(spec.quantize(f32::NEG_INFINITY), 0);
    }

    #[test]
    fn field_specs_fit_bounds() {
        let specs = field_specs_for_bounds(&[(0.0, 100.0), (0.0, 1e6)], 16).unwrap();
        assert_eq!(specs[0].quantize(100.0), 65_535);
        assert!(specs[1].quantize(1e6) <= 65_535);
    }

    /// The scales are the ones every caller computed inline before the
    /// encoding had one home, to the bit, at both widths in use.
    #[test]
    fn field_specs_match_the_inline_encoding() {
        let bounds =
            [(0.0, 0.0), (0.0, 1e-9), (0.0, 0.5), (0.0, 1.0), (0.0, 8.987_322), (0.0, 3e7)];
        let specs = field_specs_for_bounds(&bounds, 16).unwrap();
        for (&(_, hi), spec) in bounds.iter().zip(&specs) {
            let inline = (65_535.0f32 / hi.max(1e-6)).min(65_535.0);
            assert_eq!((spec.bits, spec.scale.to_bits()), (16, inline.to_bits()), "hi = {hi}");
        }
        let specs = field_specs_for_bounds(&bounds, 24).unwrap();
        for (&(_, hi), spec) in bounds.iter().zip(&specs) {
            let maxk = (1u32 << 24) as f32 - 1.0;
            let inline = (maxk / hi.max(1e-6)).min(maxk);
            assert_eq!((spec.bits, spec.scale.to_bits()), (24, inline.to_bits()), "hi = {hi}");
        }
    }

    #[test]
    fn field_specs_reject_bad_widths() {
        for bits in [0, 33] {
            let err = field_specs_for_bounds(&[(0.0, 1.0)], bits).unwrap_err();
            assert!(matches!(err, IguardError::Tcam(TcamError::BadFieldWidth { .. })), "{bits}");
        }
    }

    /// `RuleSet::from_tsv` accepts an `inf` bound; sizing a field to it
    /// is a typed error, not a panic.
    #[test]
    fn infinite_bound_from_tsv_is_bad_scale() {
        let tsv = "iguard-ruleset\tv1\t2\t1\t1\n\
                   bounds_lo\t0\t0\n\
                   bounds_hi\t4\tinf\n\
                   rule\t0\t0\t1\t1\n";
        let rules = RuleSet::from_tsv(tsv).expect("the parser accepts inf bounds");
        assert_eq!(rules.bounds[1].1, f32::INFINITY);
        let err = field_specs_for_bounds(&rules.bounds, 16).unwrap_err();
        assert!(matches!(err, IguardError::Tcam(TcamError::BadScale)), "{err:?}");
    }

    #[test]
    fn quantize_applies_scale() {
        let spec = FieldSpec::new(16, 1000.0);
        assert_eq!(spec.quantize(1.5), 1500);
    }

    /// The pinned f32-precision divergence: 16 777 215 × 3 = 50 331 645
    /// exactly in f64, but the f32 product rounds down to 50 331 644 (the
    /// result needs 26 significand bits). The old f32 path returned the
    /// wrong key.
    #[test]
    fn quantize_is_exact_beyond_f32_precision() {
        let spec = FieldSpec::new(32, 3.0);
        assert_eq!(spec.quantize(16_777_215.0), 50_331_645);
    }

    /// Edge behaviour at and around `u32::MAX` for a full-width field:
    /// `max_value() as f32` is 2³² (not representable), so the old
    /// comparison was against the wrong bound; in f64 every u32 is exact.
    #[test]
    fn quantize_32bit_edges() {
        let spec = FieldSpec::new(32, 1.0);
        // Largest f32 below 2³²: must pass through unsaturated.
        assert_eq!(spec.quantize(4_294_967_040.0), 4_294_967_040);
        // u32::MAX itself is not an f32; its nearest (2³²) saturates.
        assert_eq!(spec.quantize(u32::MAX as f32), u32::MAX);
        assert_eq!(spec.quantize(5e9), u32::MAX);
        assert_eq!(spec.quantize(f32::INFINITY), u32::MAX);
        assert_eq!(spec.quantize(-1.0), 0);
    }

    /// A half-open cube ending exactly at the top grid value must exclude
    /// the top key — the old compiler's saturation check made the entry
    /// inclusive of `max_value()` there.
    #[test]
    fn domain_edge_upper_bound_is_exclusive() {
        use iguard_core::rules::Hypercube;
        let spec = FieldSpec::new(8, 1.0);
        let rules = RuleSet {
            bounds: vec![(0.0, 256.0)],
            whitelist: vec![Hypercube { lo: vec![0.0], hi: vec![255.0] }],
            total_regions: 1,
        };
        let table = compile_ruleset(&rules, &[spec]);
        assert_eq!(table.len(), 1);
        assert!(table.lookup(&[254]).is_some());
        assert!(table.lookup(&[255]).is_none(), "hi = dequantize(255) is excluded");
        assert!(!rules.matches(&[spec.dequantize(255)]));
        // Only a bound past the top value (or +inf) covers the top key.
        let open = RuleSet {
            bounds: vec![(0.0, 256.0)],
            whitelist: vec![Hypercube { lo: vec![0.0], hi: vec![f32::INFINITY] }],
            total_regions: 1,
        };
        assert!(compile_ruleset(&open, &[spec]).lookup(&[255]).is_some());
    }

    /// A cube narrower than one quantum covers no grid point: it must be
    /// skipped, not widened to a point range the float rule rejects.
    #[test]
    fn sub_quantum_cube_is_skipped() {
        use iguard_core::rules::Hypercube;
        let spec = FieldSpec::new(8, 1.0);
        let rules = RuleSet {
            bounds: vec![(0.0, 256.0)],
            whitelist: vec![
                Hypercube { lo: vec![0.4], hi: vec![0.6] },
                Hypercube { lo: vec![10.0], hi: vec![20.0] },
            ],
            total_regions: 2,
        };
        let table = compile_ruleset(&rules, &[spec]);
        assert_eq!(table.len(), 1, "only the wide cube installs");
        assert_eq!(table.skipped_empty, 1);
        assert!(table.lookup(&[0]).is_none(), "old compiler matched key 0 here");
        // Priority still names the source cube.
        assert_eq!(table.lookup(&[15]).unwrap().priority, 1);
        // The grid has no point inside [0.4, 0.6), so the float rules
        // agree with the table on every key.
        for k in 0..=255u32 {
            assert_eq!(table.lookup(&[k]).is_some(), rules.matches(&[spec.dequantize(k)]));
        }
    }

    /// NaN rule bounds compile to nothing (contains() is always false).
    #[test]
    fn nan_bounds_are_skipped() {
        use iguard_core::rules::Hypercube;
        let rules = RuleSet {
            bounds: vec![(0.0, 256.0)],
            whitelist: vec![Hypercube { lo: vec![f32::NAN], hi: vec![10.0] }],
            total_regions: 1,
        };
        let table = compile_ruleset(&rules, &[FieldSpec::new(8, 1.0)]);
        assert_eq!(table.len(), 0);
        assert_eq!(table.skipped_empty, 1);
    }

    #[test]
    fn table_priority_order() {
        let mut t = RangeTable::new(vec![8]);
        t.push(RangeEntry { fields: vec![(0, 255)], priority: 5 }); // catch-all
        t.push(RangeEntry { fields: vec![(7, 7)], priority: 1 });
        let hit = t.lookup(&[7]).unwrap();
        assert_eq!(hit.priority, 1);
        let other = t.lookup(&[9]).unwrap();
        assert_eq!(other.priority, 5);
    }

    #[test]
    fn compiled_ruleset_agrees_with_ruleset() {
        use iguard_core::rules::Hypercube;
        // Whitelist: x0 ∈ [0, 100), x1 ∈ [50, 200).
        let rules = RuleSet {
            bounds: vec![(0.0, 256.0), (0.0, 256.0)],
            whitelist: vec![Hypercube { lo: vec![0.0, 50.0], hi: vec![100.0, 200.0] }],
            total_regions: 2,
        };
        let specs = vec![FieldSpec::new(8, 1.0), FieldSpec::new(8, 1.0)];
        let table = compile_ruleset(&rules, &specs);
        assert!(!table.is_empty());
        let mut key = Vec::new();
        for probe in [[50.0f32, 100.0], [99.0, 50.0], [100.0, 100.0], [50.0, 200.0], [255.0, 255.0]]
        {
            quantize_key_into(&probe, &specs, &mut key);
            let tcam_benign = table.lookup(&key).is_some();
            assert_eq!(tcam_benign, rules.matches(&probe), "disagreement at {probe:?}");
        }
    }

    #[test]
    fn infinite_bounds_saturate() {
        use iguard_core::rules::Hypercube;
        let rules = RuleSet {
            bounds: vec![(0.0, 256.0)],
            whitelist: vec![Hypercube { lo: vec![f32::NEG_INFINITY], hi: vec![f32::INFINITY] }],
            total_regions: 1,
        };
        let specs = vec![FieldSpec::new(8, 1.0)];
        let table = compile_ruleset(&rules, &specs);
        assert_eq!(table.len(), 1);
        assert!(table.lookup(&[0]).is_some());
        assert!(table.lookup(&[255]).is_some());
    }
}
