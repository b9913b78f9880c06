//! The [`DataPlane`] abstraction: what a switch backend must provide.
//!
//! The controller and the replay harness do not care *how* packets are
//! classified — serially, across shards, or behind a sketch admission
//! stage — only that a backend can consume packet batches, surface the
//! digests those batches produced **in packet arrival order**, accept
//! control-plane commands, and report its counters. Everything downstream
//! (controller feedback, the confusion matrix, the telemetry report) is
//! expressed against this trait, which is what makes backends
//! interchangeable and byte-comparable.
//!
//! Two types implement it: [`crate::pipeline::Pipeline`], the one data
//! plane for every layout (serial, sharded, sketched — picked by the
//! config type it is built from), and [`crate::pipeline::ScalarPipeline`],
//! the per-packet oracle that wraps a `Pipeline` of any layout.
//!
//! ## Contract
//!
//! * `process_batch` appends one outcome per packet, in input order, and
//!   advances `packets_processed` by the batch length.
//! * `drain_seq_digests_into` yields every digest generated since the
//!   last drain, ordered by the arrival sequence number of the generating
//!   packet — **not** by worker/shard completion order. Two backends fed
//!   the same packets with the same control feedback must produce the
//!   same digest stream.
//! * `apply` takes effect before the next `process_batch` call; backends
//!   need not support mid-batch rule changes (hardware installs rules
//!   between packets too, just at a finer grain).
//!
//! `process_batch` and `classify_batch` are the **primary** entry points:
//! `Pipeline` classifies each batch in fixed 1024-row chunks, resolving
//! the stateless lookups of a chunk with one batched index probe over
//! feature columns, in every layout, so callers should hand over the
//! largest batches their latency budget allows.
//! Per-packet processing is just a batch of one (the `ScalarPipeline`
//! oracle is the per-packet baseline). An empty batch is a no-op.

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::table::{FlowTableStats, PressureStats};
use iguard_runtime::Dataset;

use iguard_core::error::SwitchError;

use crate::pipeline::{ControlAction, PathCounters, ProcessOutcome, SeqDigest, WhitelistCounters};
use crate::ruleset::{RulesetCounters, RulesetTxn};

/// Occupancy and approximation statistics of the sketched layout (see
/// `crate::sketched`). Exact layouts report `None` from
/// [`DataPlane::sketch_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Flows currently holding an exact table slot.
    pub tracked: usize,
    /// Hard cap on `tracked` derived from the byte budget
    /// (`usize::MAX` = unbudgeted).
    pub max_tracked: usize,
    /// Exact-table bytes held by tracked flows right now.
    pub resident_bytes: usize,
    /// Configured resident-byte budget, if any.
    pub budget_bytes: Option<usize>,
    /// Fixed overhead of the admission sketches (CMS + Bloom).
    pub sketch_bytes: usize,
    /// Flows promoted from the sketch into an exact slot.
    pub promoted: u64,
    /// Packets absorbed by the sketch (never claimed an exact slot).
    pub absorbed: u64,
    /// Tracked flows evicted under budget pressure.
    pub evicted: u64,
}

/// Overload-layer observability of a backend: the merged pressure view
/// of its flow-table shards plus the degraded-mode and digest-shedding
/// accounting (see `crate::pipeline::OverloadConfig`). Rates and
/// high-water marks in `pressure` merge by max across shards — one hot
/// shard stays visible in the aggregate — while the event counts sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Merged flow-table pressure view (see
    /// [`iguard_flow::table::PressureStats::merge`]).
    pub pressure: PressureStats,
    /// Logical shards currently in degraded mode.
    pub degraded_shards: u32,
    /// Degraded-mode entries across all shards so far.
    pub degraded_entries: u64,
    /// Degraded-mode exits across all shards so far.
    pub degraded_exits: u64,
    /// Total batches spent degraded, summed over shards (residency).
    pub degraded_batches: u64,
    /// Benign digests shed (at the source while degraded, or displaced /
    /// dropped at the buffer cap).
    pub shed_benign: u64,
    /// Malicious digests dropped because the buffer was cap-full of
    /// malicious evidence already.
    pub shed_malicious: u64,
    /// Sketch admissions rejected only because pressure raised the
    /// promote threshold (the sketched layout; 0 elsewhere).
    pub admission_tightened: u64,
    /// Most digests any one shard ever buffered at once.
    pub digest_buffered_hwm: usize,
}

impl OverloadStats {
    /// Folds another shard's view into this one (sum events, merge
    /// pressure, max the buffer high-water mark).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            pressure: self.pressure.merge(&other.pressure),
            degraded_shards: self.degraded_shards + other.degraded_shards,
            degraded_entries: self.degraded_entries + other.degraded_entries,
            degraded_exits: self.degraded_exits + other.degraded_exits,
            degraded_batches: self.degraded_batches + other.degraded_batches,
            shed_benign: self.shed_benign + other.shed_benign,
            shed_malicious: self.shed_malicious + other.shed_malicious,
            admission_tightened: self.admission_tightened + other.admission_tightened,
            digest_buffered_hwm: self.digest_buffered_hwm.max(other.digest_buffered_hwm),
        }
    }
}

/// A switch data-plane backend.
pub trait DataPlane {
    /// Classifies a batch, appending one [`ProcessOutcome`] per packet in
    /// input order. Implementations clear `out` first; the caller owns the
    /// buffer so the hot loop reuses its allocation. This is the primary
    /// ingest path: `Pipeline` defers the stateless lookups of each chunk
    /// to one batched index probe, and results are byte-identical to
    /// per-packet processing at any batch size.
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>);

    /// Appends the digests accumulated since the last drain, in packet
    /// arrival order, each with its global packet sequence tag, clearing
    /// the backend's internal buffers. The fallible digest channel and
    /// the controller's dedup window are keyed on these tags.
    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>);

    /// Applies a controller command (blacklist install/remove, flow clear).
    fn apply(&mut self, action: ControlAction);

    /// Applies a versioned whitelist-ruleset transaction (the lifecycle
    /// half of the control-plane API; per-flow actions stay on
    /// [`Self::apply`]). Like `apply`, the transaction takes effect before
    /// the next `process_batch` call, and the swap is **hitless**: the
    /// successor ruleset is built completely off to the side and swapped
    /// in whole, so every packet is classified by exactly one complete
    /// ruleset. Versions are monotonic — a replayed transaction
    /// (`txn.version <= ruleset_version()`) is an idempotent no-op counted
    /// in telemetry, and a version beyond the next expected one is
    /// rejected with [`SwitchError::StaleRuleset`] because its delta was
    /// computed against a base this plane does not hold.
    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError>;

    /// Version of the installed whitelist ruleset (0 until the first
    /// transaction is applied).
    fn ruleset_version(&self) -> u64;

    /// Lifecycle accounting of the ruleset transactions seen so far
    /// (entries installed/removed, swaps, replayed no-ops, stale rejects).
    fn ruleset_counters(&self) -> RulesetCounters;

    /// The installed blacklist in canonical sorted order — equality checks
    /// across backends, and the source a crashed controller rebuilds its
    /// install map from.
    fn blacklist_contents(&self) -> Vec<FiveTuple>;

    /// Re-derives one digest per *labeled* resident flow (deterministic
    /// order, sequence tags from the [`crate::pipeline::RESYNC_SEQ_BASE`]
    /// space). The controller triggers this after a digest-channel outage:
    /// classifications whose original digests were lost in transit are
    /// still present in the flow-label storage, so a resync sweep recovers
    /// the missed installs and storage releases.
    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>);

    /// Aggregate per-path packet counters.
    fn counters(&self) -> PathCounters;

    /// Aggregate whitelist-index lookup counters (FL + PL lookups and
    /// hits). Deterministic across worker counts and shard groupings.
    fn whitelist_counters(&self) -> WhitelistCounters;

    /// Classifies raw 13-feature FL rows in bulk through the compiled
    /// whitelist index (`true` = malicious, i.e. no whitelist rule
    /// matched), applying the backend's configured log-compress map.
    /// Clears `out` first; one verdict per row, in row order, identical at
    /// any worker count. This is the offline/batch twin of the blue path's
    /// per-packet FL decision — same rules, same index, same scratch reuse.
    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>);

    /// Aggregate flow-table occupancy/collision statistics.
    fn flow_table_stats(&self) -> FlowTableStats;

    /// Number of blacklist entries currently installed.
    fn blacklist_len(&self) -> usize;

    /// Total packets offered to `process_batch` (and `process`) so far.
    fn packets_processed(&self) -> u64;

    /// Sketch-occupancy statistics; `None` for exact layouts (the
    /// default), `Some` for the sketched one.
    fn sketch_stats(&self) -> Option<SketchStats> {
        None
    }

    /// Overload-layer statistics: merged pressure view, degraded-mode
    /// residency, and digest-shedding counts.
    fn overload_stats(&self) -> OverloadStats;
}
