//! The rule-diff engine and the transactional ruleset lifecycle.
//!
//! The paper compiles the whitelist once and installs it forever; under
//! drift the controller retrains and must *replace* the installed ruleset
//! on a live switch. Reinstalling the full table is unbounded rule churn
//! (every entry rewritten) and opens a classification gap while the TCAM
//! is half-programmed. This module bounds both:
//!
//! * [`RulesetDiff::between`] computes the **minimal install/remove
//!   delta** between two compiled [`RangeTable`]s. Entries are keyed by
//!   their canonical content `(priority, fields)` — an entry present in
//!   both tables is never churned, so the delta size is
//!   `|old| + |new| − 2·|old ∩ new|`, the multiset-minimal edit.
//! * [`RulesetTxn`] packages a delta with a monotonically increasing
//!   version and the retrained float whitelist it was compiled from,
//!   compiled once — first-match index included — when the controller
//!   builds the transaction. The payload sits behind an [`Arc`], so
//!   cloning a transaction for retries or staging never allocates.
//! * The data plane applies it atomically (see `MatchEngine::apply_ruleset`
//!   in [`crate::pipeline`]) doing only what a switch does — a switch
//!   writes O(churn) entries, the emulator makes one merge walk of the
//!   delta over the live table — then flips a pointer to the
//!   transaction's shared whitelist. Every packet is classified by
//!   exactly one complete ruleset — the old one up to the swap, the new
//!   one after — and zero packets ever see a partial table.
//!
//! ## Canonical order
//!
//! Diffing and application keep entries sorted by `(priority, fields)`.
//! First-match semantics survive canonicalisation: [`RangeTable::lookup`]
//! resolves ties by `(priority, position)`, so reordering equal-priority
//! entries can only change *which* equal-priority entry is reported —
//! never whether a key matches, nor the winning priority. The pipeline
//! consumes only the match/no-match bit, so verdicts are invariant.
//!
//! ## Versioning rules
//!
//! Versions order transactions, not tables. A data plane at version `v`
//! accepts exactly `v + 1` (each txn is a delta against its
//! predecessor); re-delivery of any version `≤ v` is an idempotent no-op
//! (counted in `switch.ruleset.replayed`) so retries over a duplicating
//! channel are safe; a version `> v + 1` is rejected with
//! [`SwitchError::StaleRuleset`] — the plane's base table is stale for
//! that diff and applying it would corrupt the ruleset. A transaction
//! whose shape does not fit (field widths, a remove the table does not
//! hold, a whitelist not over the 13 switch features) is rejected the
//! same way, never with a panic.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use iguard_core::error::SwitchError;
use iguard_core::rules::RuleSet;

use crate::pipeline::IndexedWhitelist;
use crate::tcam::{RangeEntry, RangeTable};

/// Total content order on entries: priority first (the match-relevant
/// part), then the field ranges as a tie-break so equal-priority entries
/// have a deterministic position.
fn entry_cmp(a: &RangeEntry, b: &RangeEntry) -> Ordering {
    (a.priority, &a.fields).cmp(&(b.priority, &b.fields))
}

/// The entries of `table` in canonical `(priority, fields)` order — the
/// normal form diffing and application operate on.
pub fn canonical_entries(table: &RangeTable) -> Vec<RangeEntry> {
    canonical(table.entries()).into_owned()
}

/// `entries` in canonical order: borrowed when already sorted (the live
/// table and every delta [`RulesetTxn`] builds), a sorted copy otherwise.
fn canonical(entries: &[RangeEntry]) -> Cow<'_, [RangeEntry]> {
    if entries.is_sorted_by(|a, b| entry_cmp(a, b) != Ordering::Greater) {
        Cow::Borrowed(entries)
    } else {
        let mut v = entries.to_vec();
        v.sort_by(entry_cmp);
        Cow::Owned(v)
    }
}

/// The minimal install/remove delta between two compiled tables.
///
/// `removes` come out in canonical old-table order, `installs` in
/// canonical new-table order — both deterministic, so two controllers
/// diffing the same pair of tables emit byte-identical transactions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RulesetDiff {
    pub installs: Vec<RangeEntry>,
    pub removes: Vec<RangeEntry>,
}

impl RulesetDiff {
    /// Multiset-minimal delta turning `old` into `new`: a merge walk over
    /// the two canonical entry lists. Entries equal in content (priority
    /// and every field range) are untouched.
    pub fn between(old: &RangeTable, new: &RangeTable) -> Self {
        let old_c = canonical_entries(old);
        let new_c = canonical_entries(new);
        let mut installs = Vec::new();
        let mut removes = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_c.len() && j < new_c.len() {
            match entry_cmp(&old_c[i], &new_c[j]) {
                Ordering::Less => {
                    removes.push(old_c[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    installs.push(new_c[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        removes.extend_from_slice(&old_c[i..]);
        installs.extend_from_slice(&new_c[j..]);
        Self { installs, removes }
    }

    /// Number of TCAM entry writes this delta costs (installs + removes).
    pub fn churn(&self) -> usize {
        self.installs.len() + self.removes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.installs.is_empty() && self.removes.is_empty()
    }
}

/// A transactional ruleset update: the versioned delta the controller
/// sends down the (fallible) action channel, plus the retrained float
/// whitelist the delta was compiled from — the emulator's exact model of
/// the post-transaction TCAM image, installed in the same atomic flip.
///
/// The whitelist is compiled (first-match index included) once, here,
/// and the data plane's epoch shares it by [`Arc`]; the delta and the
/// whitelist sit behind one more [`Arc`], so [`Clone`] is two reference
/// count bumps and never touches the allocator.
///
/// Per-flow actions (blacklist install/remove, flow clears) stay on the
/// flat [`crate::pipeline::ControlAction`] path; this type owns the
/// *ruleset lifecycle* only.
#[derive(Clone, Debug)]
pub struct RulesetTxn {
    /// Monotonic transaction version; the data plane at version `v`
    /// applies exactly `v + 1`.
    pub version: u64,
    payload: Arc<TxnPayload>,
}

#[derive(Debug)]
struct TxnPayload {
    /// Installs in canonical new-table order, removes in canonical
    /// old-table order.
    delta: RulesetDiff,
    /// Bit width per TCAM field — lets a version-1 transaction bootstrap
    /// an empty table and every later one validate shape agreement.
    field_bits: Vec<u8>,
    /// The float FL whitelist matching the post-transaction table, with
    /// its compiled index. The PL whitelist is not part of the drift loop
    /// and keeps its installed rules.
    fl: Arc<IndexedWhitelist>,
}

impl RulesetTxn {
    /// A transaction carrying the delta from `old` to `new`.
    pub fn diff(version: u64, old: &RangeTable, new: &RangeTable, fl_rules: RuleSet) -> Self {
        Self::new(version, RulesetDiff::between(old, new), &new.field_bits, fl_rules)
    }

    /// A transaction installing `table` wholesale (the version-1
    /// bootstrap against an empty data plane).
    pub fn full_install(version: u64, table: &RangeTable, fl_rules: RuleSet) -> Self {
        let delta = RulesetDiff { installs: canonical_entries(table), removes: Vec::new() };
        Self::new(version, delta, &table.field_bits, fl_rules)
    }

    fn new(version: u64, delta: RulesetDiff, field_bits: &[u8], fl_rules: RuleSet) -> Self {
        let fl = Arc::new(IndexedWhitelist::new(fl_rules));
        Self {
            version,
            payload: Arc::new(TxnPayload { delta, field_bits: field_bits.to_vec(), fl }),
        }
    }

    /// Number of TCAM entry writes this transaction costs.
    pub fn churn(&self) -> usize {
        self.payload.delta.churn()
    }

    /// The float FL whitelist matching the post-transaction table.
    pub fn fl_rules(&self) -> &RuleSet {
        self.payload.fl.rules()
    }

    /// Entries to add, canonical new-table order.
    pub(crate) fn installs(&self) -> &[RangeEntry] {
        &self.payload.delta.installs
    }

    /// Entries to delete, canonical old-table order.
    pub(crate) fn removes(&self) -> &[RangeEntry] {
        &self.payload.delta.removes
    }

    pub(crate) fn field_bits(&self) -> &[u8] {
        &self.payload.field_bits
    }

    /// The compiled FL whitelist, shared with every epoch it is installed in.
    pub(crate) fn fl(&self) -> &Arc<IndexedWhitelist> {
        &self.payload.fl
    }
}

/// Data-plane-side accounting of the ruleset lifecycle, mirrored into
/// the `switch.ruleset.*` telemetry counters: TCAM entry writes actually
/// performed, completed atomic swaps, idempotent replays absorbed, stale
/// transactions rejected, and phase whitelists installed
/// (`switch.phase.rulesets_installed`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RulesetCounters {
    /// Entries written by accepted transactions (Σ installs).
    pub installed: u64,
    /// Entries deleted by accepted transactions (Σ removes).
    pub removed: u64,
    /// Completed epoch flips (accepted transactions).
    pub swaps: u64,
    /// Transactions rejected with [`SwitchError::StaleRuleset`].
    pub stale: u64,
    /// Re-deliveries of already-applied versions absorbed as no-ops.
    pub replayed: u64,
    /// Intermediate-phase whitelists installed by `set_phase_rulesets`.
    pub phase_installed: u64,
}

impl RulesetCounters {
    /// Field-wise sum.
    pub fn merge(&self, o: &Self) -> Self {
        Self {
            installed: self.installed + o.installed,
            removed: self.removed + o.removed,
            swaps: self.swaps + o.swaps,
            stale: self.stale + o.stale,
            replayed: self.replayed + o.replayed,
            phase_installed: self.phase_installed + o.phase_installed,
        }
    }
}

/// Applies a delta to `base`, producing the successor table in canonical
/// order. Fails with [`SwitchError::StaleRuleset`] when the delta does
/// not fit the base — a remove names an entry the base does not hold, or
/// the field shape disagrees — which means the transaction was diffed
/// against a different table than the one installed.
///
/// One merge walk over the canonical base, removes and installs: each
/// remove consumes one equal base entry, and installs land at their
/// canonical position. Canonical inputs — the live table and every delta
/// [`RulesetTxn`] builds — are walked in place; anything else is sorted
/// into a scratch copy first, so the result is the same multiset edit for
/// any input order.
///
/// `expected`/`got` in the error carry the version bookkeeping of the
/// caller (`expected` = the version the plane would accept next).
pub(crate) fn apply_delta(
    base: &RangeTable,
    installs: &[RangeEntry],
    removes: &[RangeEntry],
    field_bits: &[u8],
    expected: u64,
    got: u64,
) -> Result<RangeTable, SwitchError> {
    let stale = SwitchError::StaleRuleset { expected, got };
    if !base.field_bits.is_empty() && base.field_bits != field_bits {
        return Err(stale);
    }
    if removes.iter().chain(installs).any(|e| e.fields.len() != field_bits.len()) {
        return Err(stale);
    }
    let (base, installs, removes) =
        (canonical(base.entries()), canonical(installs), canonical(removes));
    let mut entries =
        Vec::with_capacity((base.len() + installs.len()).saturating_sub(removes.len()));
    let mut removes = removes.iter().peekable();
    let mut installs = installs.iter().peekable();
    for e in base.iter() {
        // A remove the walk passes without a match stays at the head and
        // fails the check after the loop.
        if removes.next_if(|&r| r == e).is_some() {
            continue;
        }
        while let Some(ins) = installs.next_if(|i| entry_cmp(i, e) == Ordering::Less) {
            entries.push(ins.clone());
        }
        entries.push(e.clone());
    }
    if removes.next().is_some() {
        return Err(stale);
    }
    entries.extend(installs.cloned());
    Ok(RangeTable::from_entries(field_bits.to_vec(), entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_runtime::proptest_lite;
    use iguard_runtime::rng::Rng;

    fn entry(lo: u32, hi: u32, priority: u32) -> RangeEntry {
        RangeEntry { fields: vec![(lo, hi)], priority }
    }

    fn table(entries: Vec<RangeEntry>) -> RangeTable {
        let mut t = RangeTable::new(vec![8]);
        for e in entries {
            t.push(e);
        }
        t
    }

    #[test]
    fn diff_of_identical_tables_is_empty() {
        let a = table(vec![entry(0, 10, 0), entry(5, 20, 1)]);
        // Same content, different push order: still no churn.
        let b = table(vec![entry(5, 20, 1), entry(0, 10, 0)]);
        let d = RulesetDiff::between(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.churn(), 0);
    }

    #[test]
    fn diff_churn_is_symmetric_difference() {
        let a = table(vec![entry(0, 10, 0), entry(5, 20, 1), entry(30, 40, 2)]);
        let b = table(vec![entry(0, 10, 0), entry(5, 21, 1), entry(50, 60, 3)]);
        let d = RulesetDiff::between(&a, &b);
        assert_eq!(d.removes, vec![entry(5, 20, 1), entry(30, 40, 2)]);
        assert_eq!(d.installs, vec![entry(5, 21, 1), entry(50, 60, 3)]);
        assert_eq!(d.churn(), 4);
    }

    #[test]
    fn diff_respects_multiset_counts() {
        // Two identical entries in `a`, one in `b`: exactly one remove.
        let a = table(vec![entry(0, 10, 0), entry(0, 10, 0)]);
        let b = table(vec![entry(0, 10, 0)]);
        let d = RulesetDiff::between(&a, &b);
        assert_eq!(d.removes.len(), 1);
        assert!(d.installs.is_empty());
    }

    #[test]
    fn apply_delta_reconstructs_new_table() {
        let a = table(vec![entry(0, 10, 0), entry(5, 20, 1), entry(30, 40, 2)]);
        let b = table(vec![entry(50, 60, 3), entry(0, 10, 0), entry(5, 21, 1)]);
        let d = RulesetDiff::between(&a, &b);
        let applied = apply_delta(&a, &d.installs, &d.removes, &b.field_bits, 1, 1).unwrap();
        assert_eq!(applied.entries(), canonical_entries(&b).as_slice());
    }

    #[test]
    fn apply_delta_rejects_foreign_base() {
        let a = table(vec![entry(0, 10, 0)]);
        let d = RulesetDiff {
            installs: vec![],
            removes: vec![entry(99, 100, 7)], // not in `a`
        };
        let err = apply_delta(&a, &d.installs, &d.removes, &[8], 2, 5).unwrap_err();
        assert_eq!(err, SwitchError::StaleRuleset { expected: 2, got: 5 });
    }

    #[test]
    fn apply_delta_rejects_field_shape_mismatch() {
        let a = table(vec![entry(0, 10, 0)]);
        let err = apply_delta(&a, &[], &[], &[8, 8], 2, 2).unwrap_err();
        assert!(matches!(err, SwitchError::StaleRuleset { .. }));
    }

    #[test]
    fn canonicalisation_preserves_match_semantics() {
        // Overlapping entries with mixed priorities and a same-priority
        // pair: match bit and winning priority must survive reordering.
        let t = table(vec![entry(50, 200, 1), entry(0, 100, 5), entry(0, 100, 1)]);
        let canon = {
            let mut c = RangeTable::new(t.field_bits.clone());
            for e in canonical_entries(&t) {
                c.push(e);
            }
            c
        };
        for k in 0..=255u32 {
            let a = t.lookup(&[k]).map(|e| e.priority);
            let b = canon.lookup(&[k]).map(|e| e.priority);
            assert_eq!(a, b, "key {k}");
        }
    }

    /// The element-wise remove/insert algorithm the merge walk replaced:
    /// binary-search and `Vec::remove` each remove, then insert each
    /// install at its canonical position. The oracle of the property below.
    fn apply_delta_by_element(
        base: &RangeTable,
        installs: &[RangeEntry],
        removes: &[RangeEntry],
        field_bits: &[u8],
        expected: u64,
        got: u64,
    ) -> Result<RangeTable, SwitchError> {
        let stale = SwitchError::StaleRuleset { expected, got };
        if !base.field_bits.is_empty() && base.field_bits != field_bits {
            return Err(stale);
        }
        let mut entries = canonical_entries(base);
        for r in removes {
            if r.fields.len() != field_bits.len() {
                return Err(stale);
            }
            match entries.binary_search_by(|e| entry_cmp(e, r)) {
                Ok(pos) => {
                    entries.remove(pos);
                }
                Err(_) => return Err(stale),
            }
        }
        for ins in installs {
            if ins.fields.len() != field_bits.len() {
                return Err(stale);
            }
            let pos = entries.partition_point(|e| entry_cmp(e, ins) != Ordering::Greater);
            entries.insert(pos, ins.clone());
        }
        let mut table = RangeTable::new(field_bits.to_vec());
        for e in entries {
            table.push(e);
        }
        Ok(table)
    }

    /// An entry over `dims` fields from a tiny value space, so equal
    /// entries (duplicates, removes that hit) are common.
    fn small_entry(rng: &mut Rng, dims: usize) -> RangeEntry {
        let fields = (0..dims)
            .map(|_| {
                let lo = rng.gen_range(0u32..3);
                (lo, lo + rng.gen_range(0u32..2))
            })
            .collect();
        RangeEntry { fields, priority: rng.gen_range(0u32..3) }
    }

    fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
    }

    proptest_lite! {
        /// The merge walk returns the element-wise algorithm's table or
        /// its error on arbitrary deltas: bases in any order (or empty
        /// bootstrap tables), unsorted and duplicated installs and
        /// removes, removes of absent entries, and wrong field counts.
        fn merge_walk_apply_matches_element_wise_oracle(rng, cases = 512) {
            let dims = rng.gen_range(1usize..3);
            let field_bits = vec![4u8; dims];
            let base = if rng.gen_bool(0.15) {
                RangeTable::default()
            } else {
                let mut t = RangeTable::new(field_bits.clone());
                for _ in 0..rng.gen_range(0usize..10) {
                    t.push(small_entry(rng, dims));
                }
                t
            };
            // Removes: mostly entries the base holds (some twice), some
            // absent, in canonical order or shuffled.
            let mut removes: Vec<RangeEntry> =
                base.entries().iter().filter(|_| rng.gen_bool(0.4)).cloned().collect();
            for _ in 0..rng.gen_range(0usize..3) {
                if rng.gen_bool(0.3) {
                    removes.push(small_entry(rng, dims));
                } else if let Some(r) = removes.first().cloned() {
                    removes.push(r);
                }
            }
            let mut installs: Vec<RangeEntry> =
                (0..rng.gen_range(0usize..8)).map(|_| small_entry(rng, dims)).collect();
            if let Some(dup) = installs.first().cloned().filter(|_| rng.gen_bool(0.3)) {
                installs.push(dup);
            }
            for list in [&mut removes, &mut installs] {
                if rng.gen_bool(0.5) {
                    list.sort_by(entry_cmp);
                } else {
                    shuffle(rng, list);
                }
                if rng.gen_bool(0.05) {
                    list.push(small_entry(rng, dims + 1));
                }
            }
            let txn_bits = if rng.gen_bool(0.05) { vec![4u8; dims + 1] } else { field_bits };
            let got = apply_delta(&base, &installs, &removes, &txn_bits, 3, 3);
            let want = apply_delta_by_element(&base, &installs, &removes, &txn_bits, 3, 3);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.entries(), w.entries());
                    assert_eq!(g.field_bits, w.field_bits);
                    assert_eq!(g.skipped_empty, w.skipped_empty);
                }
                (Err(g), Err(w)) => assert_eq!(g, w),
                (g, w) => panic!(
                    "merge walk ok={} but oracle ok={}: base {:?}, installs {installs:?}, \
                     removes {removes:?}",
                    g.is_ok(),
                    w.is_ok(),
                    base.entries()
                ),
            }
        }
    }
}
