//! The [`DataPlane`] abstraction: what a switch backend must provide.
//!
//! The controller and the replay harness do not care *how* packets are
//! classified — serially, across shards, or behind a sketch admission
//! stage — only that a backend can consume packet batches, surface the
//! digests those batches produced **in packet arrival order**, accept
//! control-plane commands, and report its counts. Everything downstream
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
//!   counts each packet on exactly one path of `stats().paths`. An empty
//!   batch is a no-op. Per-packet processing is a batch of one.
//! * `drain_seq_digests_into` orders digests by the arrival sequence
//!   number of the generating packet, **not** by worker/shard completion
//!   order: two backends fed the same packets with the same control
//!   feedback produce the same digest stream.
//! * `apply` and `apply_ruleset` take effect before the next
//!   `process_batch` call, and every read after them (`stats`, the
//!   blacklist reads, the resync sweep) sees them. `Pipeline` queues a
//!   per-flow action on its shard group's inbox and applies it first
//!   thing in the group's next batch job, on the worker that owns those
//!   shards, or on the caller before any read. Backends need not support
//!   mid-batch rule changes (hardware installs rules between packets
//!   too, just at a finer grain).
//! * [`DataPlane::stats`] returns one [`DataPlaneStats`] snapshot, the
//!   only tally of each event, which the per-figure getters project.
//!   `Pipeline` builds it in one walk of its logical shards and publishes
//!   the registry from the difference of two snapshots (DESIGN.md §18).

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::table::{FlowEvents, FlowShard, FlowTableStats, PressureStats};
use iguard_runtime::Dataset;

use iguard_core::error::SwitchError;

use crate::pipeline::{ControlAction, PathCounters, ProcessOutcome, SeqDigest, WhitelistCounters};
use crate::ruleset::{RulesetCounters, RulesetTxn};

/// Occupancy and approximation statistics of the sketched layout (see
/// `crate::sketched`), projected by [`DataPlaneStats::sketch_stats`].
/// Exact layouts report `None`.
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
    #[inline]
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

/// The sketch stage's part of a [`DataPlaneStats`]: the fields of
/// [`SketchStats`] that the stage itself holds, which mean what they mean
/// there. `resident_bytes` follows from `tracked`, and budget evictions
/// are the flow table's ([`FlowEvents::evict_budget`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchView {
    pub tracked: usize,
    pub max_tracked: usize,
    pub budget_bytes: Option<usize>,
    pub sketch_bytes: usize,
    pub promoted: u64,
    pub absorbed: u64,
    /// Sketch windows cleared.
    pub window_resets: u64,
}

/// One point-in-time read of every count a data plane keeps, which the
/// getters project and the registry publish step renders. Each event is
/// held once: `collision_packets` and the sketch's `evicted` are projected
/// from `events`; `overload.pressure.evictions` sums its three kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Per-path packet counts; every packet offered takes one path, so
    /// [`PathCounters::total_offered`] is the packets processed.
    pub paths: PathCounters,
    /// Whitelist-index lookups and hits, bulk classification included.
    /// Pipeline-scoped (the group scratches), so zero in a shard view.
    pub whitelist: WhitelistCounters,
    /// Flow-table event counts.
    pub events: FlowEvents,
    /// Phase-boundary looks that convicted their flow.
    pub phase_convicted: u64,
    /// Occupied slots across both hash tables.
    pub occupancy: usize,
    /// Slot capacity across both hash tables.
    pub capacity: usize,
    /// Pressure view, degraded-mode residency and digest shedding.
    pub overload: OverloadStats,
    /// The sketch stage (sketched layout only).
    pub sketch: Option<SketchView>,
    /// Ruleset transaction lifecycle. Pipeline-scoped (the match engine),
    /// so zero in a shard view.
    pub ruleset: RulesetCounters,
}

impl DataPlaneStats {
    /// Folds another shard's snapshot into this one: counts and occupancy
    /// marks sum, rates and collision-window marks take the max (see
    /// [`PressureStats::merge`]). A data plane has at most one sketch
    /// stage, so at most one side carries a sketch view.
    #[inline]
    pub fn merge(&self, o: &Self) -> Self {
        debug_assert!(self.sketch.is_none() || o.sketch.is_none(), "two sketch stages");
        Self {
            paths: self.paths.merge(&o.paths),
            whitelist: self.whitelist.merge(&o.whitelist),
            events: self.events.merge(&o.events),
            phase_convicted: self.phase_convicted + o.phase_convicted,
            occupancy: self.occupancy + o.occupancy,
            capacity: self.capacity + o.capacity,
            overload: self.overload.merge(&o.overload),
            sketch: self.sketch.or(o.sketch),
            ruleset: self.ruleset.merge(&o.ruleset),
        }
    }

    /// Occupancy and collision summary of the flow tables.
    pub fn flow_table(&self) -> FlowTableStats {
        FlowTableStats {
            occupancy: self.occupancy,
            capacity: self.capacity,
            collision_packets: self.events.collision,
        }
    }

    /// The sketch stage's statistics; `None` for exact layouts.
    pub fn sketch_stats(&self) -> Option<SketchStats> {
        self.sketch.map(|s| SketchStats {
            tracked: s.tracked,
            max_tracked: s.max_tracked,
            resident_bytes: s.tracked * FlowShard::slot_bytes(),
            budget_bytes: s.budget_bytes,
            sketch_bytes: s.sketch_bytes,
            promoted: s.promoted,
            absorbed: s.absorbed,
            evicted: self.events.evict_budget,
        })
    }
}

/// A switch data-plane backend.
pub trait DataPlane {
    /// Classifies a batch, appending one [`ProcessOutcome`] per packet in
    /// input order. Implementations clear `out` first; the caller owns the
    /// buffer so the hot loop reuses its allocation. This is the primary
    /// ingest path: `Pipeline` cuts each batch into fixed 1024-row chunks
    /// and resolves a chunk's stateless lookups with one batched index
    /// probe, so callers should hand over the largest batches their
    /// latency budget allows; results are byte-identical to per-packet
    /// processing at any batch size.
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>);

    /// Appends the digests accumulated since the last drain, in packet
    /// arrival order, each with its global packet sequence tag, clearing
    /// the backend's internal buffers. The fallible digest channel and
    /// the controller's dedup window are keyed on these tags.
    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>);

    /// Applies a controller command (blacklist install/remove, flow clear):
    /// every later read sees it, and it takes effect before the next
    /// `process_batch`.
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

    /// Classifies raw 13-feature FL rows in bulk through the compiled
    /// whitelist index (`true` = malicious, i.e. no whitelist rule
    /// matched), applying the backend's configured log-compress map.
    /// Clears `out` first; one verdict per row, in row order, identical at
    /// any worker count. This is the offline/batch twin of the blue path's
    /// per-packet FL decision — same rules, same index, same scratch reuse.
    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>);

    /// Every count the backend keeps, as one snapshot. Deterministic
    /// across worker counts and shard groupings.
    fn stats(&self) -> DataPlaneStats;

    /// Blacklist entries installed, counting every action applied so far,
    /// read from the live sets without a full snapshot: the action channel
    /// asks on every install under a finite TCAM.
    fn blacklist_len(&self) -> usize;

    /// Per-path packet counters. Goes when Benchmark v2 moves `perf`.
    fn counters(&self) -> PathCounters {
        self.stats().paths
    }

    /// Whitelist-index lookup counters. Goes when Benchmark v2 moves `perf`.
    fn whitelist_counters(&self) -> WhitelistCounters {
        self.stats().whitelist
    }

    /// Flow-table occupancy and collisions. Goes when Benchmark v2 moves `perf`.
    fn flow_table_stats(&self) -> FlowTableStats {
        self.stats().flow_table()
    }

    /// Overload-layer statistics. Goes when Benchmark v2 moves `perf`.
    fn overload_stats(&self) -> OverloadStats {
        self.stats().overload
    }

    /// Sketch statistics, if any. Goes when Benchmark v2 moves `perf`.
    fn sketch_stats(&self) -> Option<SketchStats> {
        self.stats().sketch_stats()
    }

    /// Ruleset lifecycle counters. Goes when Benchmark v2 moves `perf`.
    fn ruleset_counters(&self) -> RulesetCounters {
        self.stats().ruleset
    }

    /// Packets offered so far. Goes when Benchmark v2 moves `perf`.
    fn packets_processed(&self) -> u64 {
        self.stats().paths.total_offered()
    }
}
