//! The sharded layout: multi-core packet replay with deterministic
//! digest merging.
//!
//! A Tofino pipe classifies flows in parallel match-action stages; the
//! serial layout cannot use more than one host core. A [`Pipeline`] built
//! from a [`ShardedPipelineConfig`] (the [`ShardedPipeline`] alias)
//! partitions *all* mutable state — flow table, blacklist, digest buffer,
//! path counters — by a hash of the canonical 5-tuple, and drives the
//! partitions on a persistent worker crew
//! ([`iguard_runtime::par::Crew`]): long-lived threads that take one job
//! per batch, so a batch pays a sub-µs handoff rather than a thread spawn
//! and join. Per-flow pipelines are independent (Genos/pForest make the
//! same observation for in-network forests), so sharding by flow is
//! semantically free; the only cross-shard artefact is digest order, which
//! is restored by an explicit merge. The walk itself is the one every
//! layout runs ([`crate::pipeline::MatchEngine::process_rows`]).
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
//! Relative to the serial layout, hash-slot collisions differ: each
//! logical shard owns `slots_per_table / LOGICAL_SHARDS` slots per table
//! (total capacity is preserved) and indexes them within the shard, so
//! *which* flows collide under pressure changes. Under no slot pressure
//! the two layouts agree packet-for-packet — the parity test in
//! `tests/shard_invariance.rs` pins that.

use iguard_flow::five_tuple::FiveTuple;

use crate::pipeline::{Pipeline, PipelineConfig};

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
pub(crate) fn logical_shard_of(five: &FiveTuple) -> usize {
    let a = ((five.src_ip as u64) << 16) | five.src_port as u64;
    let b = ((five.dst_ip as u64) << 16) | five.dst_port as u64;
    let mut x = a.wrapping_add(b) ^ ((five.proto as u64) << 48) ^ SHARD_HASH_SEED;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x % LOGICAL_SHARDS as u64) as usize
}

/// Sharded-layout configuration.
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

/// The sharded layout, built by [`Pipeline::new`] from a
/// [`ShardedPipelineConfig`].
pub type ShardedPipeline = Pipeline;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_plane::DataPlane;
    use crate::pipeline::testutil::{accept_all, fl_mean_size_below};
    use crate::pipeline::{ControlAction, PathTaken};
    use iguard_flow::five_tuple::PROTO_TCP;
    use iguard_flow::packet::{Packet, TcpFlags};
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
                dp.drain_seq_digests_into(&mut digests);
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
