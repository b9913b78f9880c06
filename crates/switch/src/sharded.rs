//! The sharded data-plane backend: multi-core packet replay with
//! deterministic digest merging.
//!
//! A Tofino pipe classifies flows in parallel match-action stages; this
//! emulator's serial [`Pipeline`](crate::pipeline::Pipeline) cannot use
//! more than one host core. [`ShardedPipeline`] partitions *all* mutable
//! state — flow table, blacklist, digest buffer, path counters — by a hash
//! of the canonical 5-tuple, and drives the partitions on a persistent
//! worker crew ([`par::Crew`]): long-lived threads that take one job per
//! batch, so a batch pays a sub-µs handoff rather than a thread spawn and
//! join. Per-flow pipelines are independent (Genos/pForest make
//! the same observation for in-network forests), so sharding by flow is
//! semantically free; the only cross-shard artefact is digest order, which
//! is restored by an explicit merge.
//!
//! ## Determinism rules
//!
//! 1. **State partition is fixed.** Flows map to one of
//!    [`LOGICAL_SHARDS`] logical shards via a seeded bi-hash, *independent
//!    of the physical shard count*. Physical shards (`shards` in
//!    [`ShardedPipelineConfig`]) only group logical shards onto workers;
//!    regrouping never moves state. Hence replay output is byte-identical
//!    at 1, 2, or 8 physical shards and at any `IGUARD_WORKERS` setting.
//! 2. **Per-shard packet order is arrival order.** A batch is binned by
//!    shard in input order, and each shard consumes its bin sequentially,
//!    so a flow always sees its packets in sequence.
//! 3. **Digests merge by sequence number.** Every digest is tagged with
//!    the global arrival index of the packet that produced it; draining
//!    sorts the per-shard streams by that tag, not by thread completion
//!    order. At most one digest per packet makes the key unique, so the
//!    merged stream is a total order.
//!
//! Relative to the serial `Pipeline`, hash-slot collisions differ: each
//! logical shard owns `slots_per_table / LOGICAL_SHARDS` slots per table
//! (total capacity is preserved) and indexes them within the shard, so
//! *which* flows collide under pressure changes. Under no slot pressure
//! the two backends agree packet-for-packet — the parity test in
//! `tests/shard_invariance.rs` pins that.

use iguard_flow::batch::PacketBatch;
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::table::{FlowTableConfig, FlowTableStats};
use iguard_runtime::par::{self, Crew};
use iguard_runtime::scratch::ShardBins;
use iguard_runtime::Dataset;
use iguard_telemetry::{counter, histogram, span};

use iguard_core::rules::RuleSet;

use iguard_core::error::SwitchError;

use crate::data_plane::DataPlane;
use crate::pipeline::{
    record_batch_telemetry, update_overload, ControlAction, Digest, MatchEngine, MatchScratch,
    PacketVerdict, PathCounters, PathTaken, PipelineConfig, ProcessOutcome, SeqDigest, ShardState,
    WhitelistCounters, BATCH_CHUNK, RESYNC_SEQ_BASE,
};
use crate::ruleset::{RulesetCounters, RulesetTxn};

/// Number of logical state partitions. Fixed — it is the determinism
/// anchor: changing it changes which flows share a flow-table slot, so it
/// is a compile-time constant rather than a config knob.
pub const LOGICAL_SHARDS: usize = 16;

/// Seed of the shard-assignment hash (distinct from the flow-table seeds
/// so shard choice and slot choice stay uncorrelated).
const SHARD_HASH_SEED: u64 = 0x5AAD_ED51_0C7E_D001;

/// Logical shard owning a flow. Direction-symmetric (both directions of a
/// flow land on the same shard) via a commutative endpoint combine, like
/// [`FiveTuple::bi_hash`] — but a single avalanche round, because this
/// runs once per packet on the batch hot path and shard choice only needs
/// `log2(LOGICAL_SHARDS)` well-mixed bits, not a full 64-bit hash.
#[inline]
fn logical_shard_of(five: &FiveTuple) -> usize {
    let a = ((five.src_ip as u64) << 16) | five.src_port as u64;
    let b = ((five.dst_ip as u64) << 16) | five.dst_port as u64;
    let mut x = a.wrapping_add(b) ^ ((five.proto as u64) << 48) ^ SHARD_HASH_SEED;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x % LOGICAL_SHARDS as u64) as usize
}

/// Sharded-pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardedPipelineConfig {
    /// The per-packet pipeline semantics (rules flags, flow-table shape).
    pub pipeline: PipelineConfig,
    /// Physical shard groups driven in parallel; clamped to
    /// `1..=LOGICAL_SHARDS`. Purely a performance knob — see the module
    /// determinism rules.
    pub shards: usize,
}

impl Default for ShardedPipelineConfig {
    fn default() -> Self {
        Self { pipeline: PipelineConfig::default(), shards: 4 }
    }
}

iguard_runtime::builder_setters! { ShardedPipelineConfig =>
    /// Builder: pipeline semantics.
    with_pipeline => pipeline: PipelineConfig,
    /// Builder: physical shard count.
    with_shards => shards: usize,
}

/// A pipeline config is a sharded config with the default shard count.
impl From<PipelineConfig> for ShardedPipelineConfig {
    fn from(pipeline: PipelineConfig) -> Self {
        Self { pipeline, ..Default::default() }
    }
}

/// A physical shard group: the logical shards one worker drives (each a
/// [`ShardState`] — a full, independent copy of the mutable data-plane
/// state for the flows hashed to it), plus the group's reusable outcome
/// buffer (one outcome per bin row, in bin order) and its private match
/// scratch (index bitmap words, deferred-lookup columns, whitelist
/// counters) — per group, not per shard, because one worker drives a
/// group serially. `verdicts` is the group's reusable slice of a
/// `classify_batch` result.
#[derive(Default)]
struct Group {
    shards: Vec<ShardState>,
    outcomes: Vec<ProcessOutcome>,
    scratch: MatchScratch,
    verdicts: Vec<bool>,
}

/// The sharded data plane.
pub struct ShardedPipeline {
    cfg: ShardedPipelineConfig,
    engine: MatchEngine,
    /// `groups[g].shards[p]` is logical shard `p * groups.len() + g`.
    groups: Vec<Group>,
    bins: ShardBins,
    /// The shared columnar view of the current batch: filled once per
    /// `process_batch` call, then read (immutably) by every group worker.
    batch: PacketBatch,
    /// Identity row index (`0..n`) for the single-group fast path.
    rows_idx: Vec<u32>,
    merge_scratch: Vec<SeqDigest>,
    /// The threads driving the groups, sized `min(current_workers,
    /// groups)` by [`Crew::sized`] on first use; a crew of one (a single
    /// group, or one worker) starts no thread.
    crew: Option<Crew>,
    processed: u64,
    /// Monotonic counter for resync digest sequence tags (offset from
    /// [`RESYNC_SEQ_BASE`], disjoint from packet sequence numbers).
    resync_seq: u64,
}

// A pipeline and the crew it owns move between threads together.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ShardedPipeline>();
};

impl ShardedPipeline {
    pub fn new(
        cfg: impl Into<ShardedPipelineConfig>,
        fl_rules: RuleSet,
        pl_rules: RuleSet,
    ) -> Self {
        let cfg = cfg.into();
        let phys = cfg.shards.clamp(1, LOGICAL_SHARDS);
        // Preserve total capacity: each logical shard gets an equal cut of
        // the configured slots.
        let per_shard_slots = (cfg.pipeline.flow_table.slots_per_table / LOGICAL_SHARDS).max(1);
        let shard_cfg =
            FlowTableConfig { slots_per_table: per_shard_slots, ..cfg.pipeline.flow_table };
        let mut groups: Vec<Group> = (0..phys).map(|_| Group::default()).collect();
        for l in 0..LOGICAL_SHARDS {
            groups[l % phys].shards.push(ShardState::new(shard_cfg));
        }
        Self {
            engine: MatchEngine::new(&cfg.pipeline, fl_rules, pl_rules),
            cfg,
            groups,
            bins: ShardBins::new(),
            batch: PacketBatch::default(),
            rows_idx: Vec::new(),
            merge_scratch: Vec::new(),
            crew: None,
            processed: 0,
            resync_seq: 0,
        }
    }

    /// Installs one whitelist per intermediate phase boundary. One engine
    /// is shared read-only by every shard group, so the single hitless
    /// epoch flip swaps the phase array for all 16 logical shards at once
    /// — between batches, like [`ShardedPipeline::apply_ruleset`].
    pub fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        self.engine.set_phase_rulesets(rulesets);
    }

    pub fn config(&self) -> &ShardedPipelineConfig {
        &self.cfg
    }

    /// Physical shard groups in use (≤ [`LOGICAL_SHARDS`]).
    pub fn physical_shards(&self) -> usize {
        self.groups.len()
    }

    fn shard(&self, logical: usize) -> &ShardState {
        let phys = self.groups.len();
        &self.groups[logical % phys].shards[logical / phys]
    }

    fn shard_mut(&mut self, logical: usize) -> &mut ShardState {
        let phys = self.groups.len();
        &mut self.groups[logical % phys].shards[logical / phys]
    }

    /// Packets processed per logical shard, in logical-shard order.
    pub fn shard_packet_counts(&self) -> Vec<u64> {
        (0..LOGICAL_SHARDS).map(|l| self.shard(l).processed).collect()
    }

    /// Flow-table occupancy per logical shard, in logical-shard order.
    pub fn shard_occupancies(&self) -> Vec<usize> {
        (0..LOGICAL_SHARDS).map(|l| self.shard(l).flow.occupancy()).collect()
    }

    /// Overload view per logical shard, in logical-shard order — the
    /// unmerged constituents of [`DataPlane::overload_stats`], for tests
    /// and tooling that need to see *which* shards are degraded or what
    /// each shard's pressure reads rather than the fleet-wide summary.
    pub fn shard_overload_views(&self) -> Vec<crate::data_plane::OverloadStats> {
        (0..LOGICAL_SHARDS).map(|l| self.shard(l).overload_view()).collect()
    }

    /// Load-imbalance ratio: max over mean of per-shard packet counts
    /// (1.0 = perfectly balanced; 0.0 when nothing was processed).
    pub fn imbalance_ratio(&self) -> f64 {
        let counts = self.shard_packet_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// The installed TCAM image of the live ruleset epoch — one table,
    /// shared by every shard group and swapped for all of them in a
    /// single epoch flip.
    pub fn ruleset_table(&self) -> &crate::tcam::RangeTable {
        self.engine.ruleset_table()
    }

    /// The installed blacklist across all shards, in canonical sorted
    /// order (for equality checks across backends).
    pub fn blacklist_contents(&self) -> Vec<FiveTuple> {
        let mut v: Vec<FiveTuple> =
            (0..LOGICAL_SHARDS).flat_map(|l| self.shard(l).blacklist.iter().copied()).collect();
        v.sort_unstable();
        v
    }

    /// Drains every shard's digest buffer into `merge_scratch`, restoring
    /// global packet arrival order (seq is unique — at most one digest per
    /// packet — so the sort is a total, backend-independent order). Both
    /// drain flavours share this; returns the number merged.
    fn merge_digests(&mut self) -> usize {
        let Self { groups, merge_scratch, .. } = self;
        span!("switch.sharded.digest_merge").time(|| {
            merge_scratch.clear();
            for group in groups.iter_mut() {
                for shard in &mut group.shards {
                    merge_scratch.append(&mut shard.digests);
                }
            }
            merge_scratch.sort_unstable_by_key(|sd| sd.seq);
            merge_scratch.len()
        })
    }

    /// Occupancy telemetry only on productive drains — replay drains
    /// after every batch and most drains are empty.
    fn record_drain_occupancy(&self, drained: usize) {
        if drained > 0 {
            for l in 0..LOGICAL_SHARDS {
                histogram!("switch.sharded.shard_occupancy")
                    .record(self.shard(l).flow.occupancy() as u64);
            }
        }
    }
}

impl DataPlane for ShardedPipeline {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        out.clear();
        if pkts.is_empty() {
            return;
        }
        let Self { groups, bins, engine, processed, batch, rows_idx, cfg, crew, .. } = self;
        let phys = groups.len();
        let overload_cfg = cfg.pipeline.overload;

        counter!("switch.sharded.batches").inc();
        histogram!("switch.sharded.batch_packets").record(pkts.len() as u64);
        record_batch_telemetry(pkts.len());

        // Columnar ingest once, shared read-only by every group worker.
        // `batch.keys` are canonical 5-tuples; `logical_shard_of` is
        // direction-symmetric, so hashing the canonical key picks the same
        // shard as hashing the wire-order tuple.
        batch.fill(pkts);
        let batch = &*batch;
        let base_seq = *processed;

        // Single physical group: every packet lands in group 0 and a
        // one-group binning pass is the identity permutation, so skip the
        // bin/scatter machinery and process in arrival order directly.
        // Output is identical to the general path by construction.
        if phys == 1 {
            let Group { shards, scratch, .. } = &mut groups[0];
            rows_idx.clear();
            rows_idx.extend(0..pkts.len() as u32);
            // Rows are walked in arrival order, so the engine writes the
            // outcome column directly — no group buffer or scatter pass.
            engine.process_rows(
                shards,
                |i| logical_shard_of(&batch.keys[i]),
                batch,
                pkts,
                rows_idx,
                base_seq,
                scratch,
                out,
            );
            // Hysteresis steps once per batch per *logical* shard — the
            // same schedule as the multi-group path below, so degraded-mode
            // transitions are grouping/worker invariant.
            for st in shards.iter_mut() {
                update_overload(st, &overload_cfg);
            }
            *processed += pkts.len() as u64;
            return;
        }

        // Bin packet indices by physical group, preserving arrival order.
        bins.reset(phys);
        for (i, key) in batch.keys.iter().enumerate() {
            bins.push(logical_shard_of(key) % phys, i as u32);
        }

        let bins = &*bins;
        let engine = &*engine;
        Crew::sized(crew, par::current_workers().min(phys)).for_each_mut(groups, |g, group| {
            let bin = bins.bin(g);
            histogram!("switch.sharded.group_batch_packets").record(bin.len() as u64);
            let Group { shards, outcomes, scratch, .. } = group;
            outcomes.clear();
            engine.process_rows(
                shards,
                |i| logical_shard_of(&batch.keys[i]) / phys,
                batch,
                pkts,
                bin,
                base_seq,
                scratch,
                outcomes,
            );
            // Every group steps all of its shards every batch (even shards
            // whose bin was empty this batch): the hysteresis clock is
            // per-batch, not per-packet, so it must tick uniformly.
            for st in shards.iter_mut() {
                update_overload(st, &overload_cfg);
            }
        });

        // Reassemble outcomes into packet order: each group emits one
        // outcome per bin row in bin order, and the bins partition
        // 0..pkts.len(), so every index is written exactly once.
        let placeholder = ProcessOutcome {
            verdict: PacketVerdict::Forward,
            path: PathTaken::Brown,
            mirrored: false,
        };
        out.resize(pkts.len(), placeholder);
        for (g, group) in self.groups.iter().enumerate() {
            debug_assert_eq!(self.bins.bin(g).len(), group.outcomes.len());
            for (&i, &outcome) in self.bins.bin(g).iter().zip(&group.outcomes) {
                out[i as usize] = outcome;
            }
        }
        self.processed += pkts.len() as u64;
    }

    fn drain_digests_into(&mut self, out: &mut Vec<Digest>) {
        let drained = self.merge_digests();
        out.extend(self.merge_scratch.iter().map(|sd| sd.digest));
        self.merge_scratch.clear();
        self.record_drain_occupancy(drained);
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        let drained = self.merge_digests();
        out.append(&mut self.merge_scratch);
        self.record_drain_occupancy(drained);
    }

    fn apply(&mut self, action: ControlAction) {
        let five = match action {
            ControlAction::InstallBlacklist(f)
            | ControlAction::RemoveBlacklist(f)
            | ControlAction::ClearFlow(f) => f,
        };
        let shard = self.shard_mut(logical_shard_of(&five));
        match action {
            ControlAction::InstallBlacklist(f) => {
                shard.blacklist.insert(f.canonical());
            }
            ControlAction::RemoveBlacklist(f) => {
                shard.blacklist.remove(&f.canonical());
            }
            ControlAction::ClearFlow(f) => {
                shard.flow.clear(&f);
            }
        }
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        // One engine is shared read-only by every shard group, so a single
        // epoch flip swaps the ruleset for all shards at once — between
        // batches, per the trait contract.
        self.engine.apply_ruleset(txn)
    }

    fn ruleset_version(&self) -> u64 {
        self.engine.ruleset_version()
    }

    fn ruleset_counters(&self) -> RulesetCounters {
        self.engine.ruleset_counters()
    }

    fn blacklist_contents(&self) -> Vec<FiveTuple> {
        ShardedPipeline::blacklist_contents(self)
    }

    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>) {
        // Logical-shard order is fixed regardless of the physical
        // grouping, so the resync stream is shard/worker invariant.
        let mut flows = Vec::new();
        for l in 0..LOGICAL_SHARDS {
            self.shard(l).flow.labeled_flows_into(&mut flows);
        }
        for (five, malicious) in flows {
            out.push(SeqDigest {
                seq: RESYNC_SEQ_BASE + self.resync_seq,
                digest: Digest::new(five, malicious),
            });
            self.resync_seq += 1;
        }
    }

    fn whitelist_counters(&self) -> WhitelistCounters {
        // Per-packet and batch-classification lookups both accumulate in
        // group scratches. Addition is commutative, so the sum is
        // grouping-invariant.
        self.groups.iter().fold(WhitelistCounters::default(), |acc, g| acc.merge(&g.scratch.wl))
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        out.clear();
        let n = rows.rows();
        if n == 0 {
            return;
        }
        // Fixed `BATCH_CHUNK` boundaries, dealt to the groups as
        // contiguous runs of chunks: neither the boundaries nor the
        // concatenation order depend on the worker count, so the verdict
        // vector (and the counter totals) are worker-invariant.
        record_batch_telemetry(n);
        let Self { groups, engine, crew, .. } = self;
        let phys = groups.len();
        let rows_per_group = n.div_ceil(BATCH_CHUNK).div_ceil(phys) * BATCH_CHUNK;
        let engine = &*engine;
        let classify = |g: usize, group: &mut Group| {
            let Group { scratch, verdicts, .. } = group;
            verdicts.clear();
            let end = ((g + 1) * rows_per_group).min(n);
            for start in (g * rows_per_group..end).step_by(BATCH_CHUNK) {
                let chunk_end = (start + BATCH_CHUNK).min(n);
                engine.classify_fl_batch(rows, start, chunk_end, scratch, verdicts);
            }
        };
        Crew::sized(crew, par::current_workers().min(phys)).for_each_mut(groups, classify);
        out.reserve(n);
        for group in groups.iter() {
            out.extend_from_slice(&group.verdicts);
        }
    }

    fn counters(&self) -> PathCounters {
        let mut total = PathCounters::default();
        for l in 0..LOGICAL_SHARDS {
            let p = self.shard(l).paths;
            total.blacklist += p.blacklist;
            total.brown += p.brown;
            total.blue += p.blue;
            total.orange += p.orange;
            total.purple += p.purple;
            total.green_loopback += p.green_loopback;
        }
        total
    }

    fn flow_table_stats(&self) -> FlowTableStats {
        (0..LOGICAL_SHARDS)
            .fold(FlowTableStats::default(), |acc, l| acc.merge(&self.shard(l).flow.stats()))
    }

    fn overload_stats(&self) -> crate::data_plane::OverloadStats {
        // Logical-shard order, like every other fold here, so the merged
        // view is identical at any physical grouping.
        (0..LOGICAL_SHARDS).fold(crate::data_plane::OverloadStats::default(), |acc, l| {
            acc.merge(&self.shard(l).overload_view())
        })
    }

    fn blacklist_len(&self) -> usize {
        (0..LOGICAL_SHARDS).map(|l| self.shard(l).blacklist.len()).sum()
    }

    fn packets_processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::testutil::{accept_all, fl_mean_size_below};
    use iguard_flow::five_tuple::PROTO_TCP;
    use iguard_flow::packet::TcpFlags;
    use iguard_flow::table::FlowTableConfig;
    use iguard_runtime::par::with_workers;

    fn pkt(flow: u16, ts_ms: u64, len: u16) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A000001, 0xC0A80101, 30_000 + flow, 80, PROTO_TCP),
            wire_len: len,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    fn cfg(threshold: u64, shards: usize) -> ShardedPipelineConfig {
        ShardedPipelineConfig::default()
            .with_pipeline(PipelineConfig::from(
                FlowTableConfig::default().with_pkt_threshold(threshold),
            ))
            .with_shards(shards)
    }

    fn mixed_batch(flows: u16, pkts_per_flow: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for i in 0..(flows as u64 * pkts_per_flow) {
            let f = (i % flows as u64) as u16;
            let len = if f % 3 == 0 { 1400 } else { 120 };
            out.push(pkt(f, i, len));
        }
        out
    }

    /// Unwrap-audit regression: the imbalance ratio is total-function —
    /// zero traffic reads 0.0 (no division, no panic on the max fold)
    /// and stays finite after a single packet.
    #[test]
    fn imbalance_ratio_is_total() {
        let mut dp = ShardedPipeline::new(cfg(3, 4), accept_all(13), accept_all(4));
        assert_eq!(dp.imbalance_ratio(), 0.0);
        let mut out = Vec::new();
        dp.process_batch(&[pkt(1, 0, 120)], &mut out);
        let r = dp.imbalance_ratio();
        assert!(r.is_finite() && r >= 1.0, "ratio {r}");
    }

    #[test]
    fn batch_outcomes_match_serial_processing() {
        let batch = mixed_batch(24, 6);
        let mut sharded = ShardedPipeline::new(cfg(3, 4), accept_all(13), accept_all(4));
        let mut out = Vec::new();
        sharded.process_batch(&batch, &mut out);

        let mut serial = ShardedPipeline::new(cfg(3, 4), accept_all(13), accept_all(4));
        let mut one = Vec::new();
        let mut serial_out = Vec::new();
        for p in &batch {
            serial.process_batch(std::slice::from_ref(p), &mut one);
            serial_out.push(one[0]);
        }
        assert_eq!(out, serial_out, "batching must not change outcomes");
        assert_eq!(sharded.packets_processed(), batch.len() as u64);
    }

    #[test]
    fn digest_stream_is_seq_ordered_and_shard_invariant() {
        let batch = mixed_batch(32, 5);
        let run = |shards: usize, workers: usize| {
            with_workers(workers, || {
                let mut dp =
                    ShardedPipeline::new(cfg(3, shards), fl_mean_size_below(800.0), accept_all(4));
                let mut out = Vec::new();
                dp.process_batch(&batch, &mut out);
                let mut digests = Vec::new();
                dp.drain_digests_into(&mut digests);
                (out, digests, dp.blacklist_contents(), dp.counters())
            })
        };
        let base = run(1, 1);
        assert!(!base.1.is_empty(), "blue path should emit digests");
        for (shards, workers) in [(2, 1), (8, 1), (1, 8), (8, 8), (16, 4)] {
            assert_eq!(run(shards, workers), base, "{shards} shards / {workers} workers differ");
        }
    }

    #[test]
    fn apply_routes_to_owning_shard() {
        let mut dp = ShardedPipeline::new(cfg(3, 8), accept_all(13), accept_all(4));
        let five = pkt(1, 0, 100).five;
        dp.apply(ControlAction::InstallBlacklist(five));
        assert_eq!(dp.blacklist_len(), 1);
        let mut out = Vec::new();
        dp.process_batch(&[pkt(1, 0, 100)], &mut out);
        assert_eq!(out[0].path, PathTaken::Blacklist);
        // Reverse direction blocked too (canonical key + bi-hash shard).
        let mut rev = pkt(1, 1, 100);
        rev.five = rev.five.reversed();
        dp.process_batch(&[rev], &mut out);
        assert_eq!(out[0].path, PathTaken::Blacklist);
        dp.apply(ControlAction::RemoveBlacklist(five));
        assert_eq!(dp.blacklist_len(), 0);
    }

    #[test]
    fn counters_and_stats_aggregate_across_shards() {
        let batch = mixed_batch(20, 4);
        let mut dp = ShardedPipeline::new(cfg(2, 4), accept_all(13), accept_all(4));
        let mut out = Vec::new();
        dp.process_batch(&batch, &mut out);
        assert_eq!(dp.counters().total_offered(), batch.len() as u64);
        let stats = dp.flow_table_stats();
        assert!(stats.occupancy > 0);
        assert_eq!(stats.capacity, 2 * (4096 / LOGICAL_SHARDS) * LOGICAL_SHARDS);
        assert!(dp.imbalance_ratio() >= 1.0);
        assert_eq!(dp.shard_packet_counts().iter().sum::<u64>(), batch.len() as u64);
    }

    #[test]
    fn clear_flow_releases_shard_storage() {
        let mut dp = ShardedPipeline::new(cfg(5, 2), accept_all(13), accept_all(4));
        let mut out = Vec::new();
        dp.process_batch(&[pkt(7, 0, 100)], &mut out);
        assert_eq!(dp.flow_table_stats().occupancy, 1);
        dp.apply(ControlAction::ClearFlow(pkt(7, 0, 100).five));
        assert_eq!(dp.flow_table_stats().occupancy, 0);
    }
}
