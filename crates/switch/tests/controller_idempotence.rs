//! Property: sequence-tagged digest processing is idempotent. A digest
//! stream with injected duplicates (same sequence tag, re-delivered at a
//! later point within the dedup window) must produce the *exact same
//! action stream* — and therefore the same installed blacklist and the
//! same data-plane effects — as the deduplicated stream, under both FIFO
//! and LRU eviction, regardless of how the stream is chunked into
//! controller calls.

mod support;

use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_switch::controller::{Controller, ControllerConfig, EvictionPolicy};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{ControlAction, Digest, Pipeline, PipelineConfig, SeqDigest};
use support::accept_all;

fn five(flow: u16) -> FiveTuple {
    FiveTuple::new(0x0A000001, 0xC0A80101, 20_000 + flow, 443, PROTO_TCP)
}

/// A pipeline with one resident (unclassified) flow per id, so ClearFlow
/// actions have observable effect on occupancy.
fn preloaded_pipeline(n_flows: u16) -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig::default(), accept_all(13), accept_all(4));
    let mut out = Vec::new();
    for f in 0..n_flows {
        let pkt = Packet {
            ts_ns: f as u64 * 1_000,
            five: five(f),
            wire_len: 200,
            ttl: 64,
            flags: TcpFlags::default(),
        };
        p.process_batch(std::slice::from_ref(&pkt), &mut out);
    }
    p
}

/// Feeds `stream` to a fresh controller in random-sized chunks, applying
/// every action to `dp`; returns the concatenated action stream.
fn drive(
    stream: &[SeqDigest],
    policy: EvictionPolicy,
    capacity: usize,
    dp: &mut Pipeline,
    rng: &mut Rng,
) -> Vec<ControlAction> {
    let mut controller = Controller::new(ControllerConfig {
        blacklist_capacity: capacity,
        policy,
        ..Default::default()
    });
    let mut all = Vec::new();
    let mut actions = Vec::new();
    let mut start = 0;
    while start < stream.len() {
        let end = (start + rng.gen_range(1usize..=16)).min(stream.len());
        controller.process_seq_digests_into(&stream[start..end], &mut actions);
        for &a in &actions {
            dp.apply(a);
        }
        all.extend_from_slice(&actions);
        start = end;
    }
    assert_eq!(controller.installed_len(), dp.blacklist_len());
    all
}

fn check(rng: &mut Rng, policy: EvictionPolicy) {
    let n_flows = rng.gen_range(4u16..32);
    let len = rng.gen_range(20u64..150);
    // Base stream: unique sequence tags, random flows and labels.
    let base: Vec<SeqDigest> = (0..len)
        .map(|seq| SeqDigest {
            seq,
            digest: Digest::new(five(rng.gen_range(0u16..n_flows)), rng.gen_bool(0.5)),
        })
        .collect();
    // Duplicated stream: every message delivered, plus immediate
    // re-deliveries and far re-deliveries of random earlier messages
    // (all within the default dedup window).
    let mut dup = Vec::new();
    for (i, &sd) in base.iter().enumerate() {
        dup.push(sd);
        if rng.gen_bool(0.3) {
            dup.push(sd);
        }
        if i > 0 && rng.gen_bool(0.2) {
            let j = rng.gen_range(0..i as u64) as usize;
            dup.push(base[j]);
        }
    }
    // Small capacity so eviction churn would expose any dedup leak into
    // recency/queue state.
    let capacity = rng.gen_range(2usize..8);

    let mut dp_dup = preloaded_pipeline(n_flows);
    let mut dp_clean = preloaded_pipeline(n_flows);
    let actions_dup = drive(&dup, policy, capacity, &mut dp_dup, rng);
    let actions_clean = drive(&base, policy, capacity, &mut dp_clean, rng);

    assert_eq!(actions_dup, actions_clean, "duplicates must not alter the action stream");
    assert_eq!(dp_dup.blacklist_contents(), dp_clean.blacklist_contents());
    assert_eq!(
        dp_dup.flow_table_stats().occupancy,
        dp_clean.flow_table_stats().occupancy,
        "storage releases must be identical"
    );
}

proptest_lite! {
    /// FIFO: duplicate digests change nothing observable.
    fn duplicated_digests_are_idempotent_fifo(rng) {
        check(rng, EvictionPolicy::Fifo);
    }

    /// LRU: duplicate digests change nothing observable — in particular
    /// they must not refresh recency stamps.
    fn duplicated_digests_are_idempotent_lru(rng) {
        check(rng, EvictionPolicy::Lru);
    }
}
