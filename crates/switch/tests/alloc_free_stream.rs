//! The streaming replay loop reuses its buffers: once warm, it performs
//! no heap allocation per batch.
//!
//! A counting global allocator wraps the system one, which is why this
//! suite is its own test binary holding a single test: any other test
//! running alongside would add its allocations to the count. Debug
//! builds cross-check every batched whitelist probe against a scalar
//! oracle that allocates, so the gate runs in optimised builds only
//! (`scripts/check.sh` runs it with `--release`).

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iguard_core::rules::RuleSet;
use iguard_flow::table::{FlowShard, FlowTableConfig};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::pipeline::PipelineConfig;
use iguard_switch::replay::{replay_source, ChaosConfig, ReplayConfig};
use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::streaming::{StreamingConfig, StreamingTrace};

/// Counts allocation and reallocation calls; frees are not counted.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 7;
const BATCH: usize = 512;
/// Base stream length: about 100 batches of 512 packets.
const FLOWS: u64 = 2_000;

/// Runs the complete streaming replay over `flows` flows through a
/// budgeted (flows/16 slots) 2Q sketched pipeline and returns
/// `(allocation calls, batches)`.
fn replay_counting(fl: &RuleSet, pl: &RuleSet, flows: u64) -> (u64, u64) {
    let mut source =
        StreamingTrace::new(StreamingConfig::default().with_seed(SEED).with_total_flows(flows));
    let pipe =
        PipelineConfig::default().with_flow_table(FlowTableConfig::default().with_pkt_threshold(4));
    let slots = (flows as usize / 16).max(64);
    let cfg = SketchedPipelineConfig::default()
        .with_pipeline(pipe)
        .with_budget_bytes(Some(slots * FlowShard::slot_bytes()))
        .with_promote_threshold(2)
        .with_eviction(SketchEviction::TwoQ);
    let mut dp = SketchedPipeline::new(cfg, fl.clone(), pl.clone());
    let mut controller = Controller::new(ControllerConfig::default());
    let rcfg = ReplayConfig::default().with_batch_size(BATCH);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let report =
        replay_source(&mut source, &mut dp, &mut controller, &rcfg, &ChaosConfig::default(), None)
            .expect("generated packets need no parsing");
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    (allocs, report.packets.div_ceil(BATCH as u64))
}

/// Replays the stream at N and at 2N flows and compares allocator calls.
/// Everything allocated once per run (source lanes, sketches, replay
/// buffers) cancels out of the margin, so the margin counts steady-state
/// allocations only. It must stay below the marginal batch count: no
/// batch allocates, with room for the amortised growth of the digest and
/// blacklist containers. A discarded warm-up run first pays the
/// process's one-time costs (telemetry registration, lazy statics).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run an allocating oracle per batch; scripts/check.sh runs it with --release"
)]
fn streaming_replay_allocates_nothing_per_batch() {
    let (fl, pl) = support::trained_rules(SEED);
    replay_counting(&fl, &pl, FLOWS);
    let (allocs_n, batches_n) = replay_counting(&fl, &pl, FLOWS);
    let (allocs_2n, batches_2n) = replay_counting(&fl, &pl, 2 * FLOWS);
    let marginal_batches = batches_2n - batches_n;
    let marginal_allocs = allocs_2n.saturating_sub(allocs_n);
    assert!(marginal_batches >= 50, "the doubled stream added only {marginal_batches} batches");
    assert!(
        marginal_allocs < marginal_batches,
        "the streaming loop allocates per batch: {marginal_allocs} allocations \
         over {marginal_batches} extra batches"
    );
}
