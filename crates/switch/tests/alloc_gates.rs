//! Allocation gates, under one counting global allocator.
//!
//! * The streaming replay loop reuses its buffers: once warm, it performs
//!   no heap allocation per batch.
//! * A ruleset swap costs O(churn): cloning a transaction never touches
//!   the allocator, and applying one allocates the successor table and
//!   nothing else — no `RuleSet` clone, no index rebuild. The float
//!   whitelist and its index are compiled once, when the transaction is
//!   built, and shared by the epoch that installs it.
//!
//! The allocator counts every thread's calls, which is why this suite is
//! its own test binary holding a single test that runs the gates one
//! after the other: any other test running alongside would add its
//! allocations to the count. Debug builds cross-check every batched
//! whitelist probe against a scalar oracle that allocates, and an
//! allocation count only means something optimised, so the suite runs in
//! optimised builds only (`scripts/check.sh` runs it with `--release`).

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iguard_core::rules::{Hypercube, RuleSet};
use iguard_flow::table::{FlowShard, FlowTableConfig};
use iguard_runtime::rng::Rng;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Pipeline, PipelineConfig};
use iguard_switch::replay::{replay_source, ChaosConfig, ReplayConfig};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::tcam::{compile_ruleset, FieldSpec};
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

/// Runs `f` and returns its result with the allocator calls it made.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts only mean something optimised; scripts/check.sh runs it with --release"
)]
fn allocation_gates() {
    streaming_replay_allocates_nothing_per_batch();
    ruleset_swap_allocates_only_the_successor_table();
}

const STREAM_SEED: u64 = 7;
const BATCH: usize = 512;
/// Base stream length: about 100 batches of 512 packets.
const FLOWS: u64 = 2_000;

/// Runs the complete streaming replay over `flows` flows through a
/// budgeted (flows/16 slots) 2Q sketched pipeline and returns
/// `(allocation calls, batches)`.
fn replay_counting(fl: &RuleSet, pl: &RuleSet, flows: u64) -> (u64, u64) {
    let mut source = StreamingTrace::new(
        StreamingConfig::default().with_seed(STREAM_SEED).with_total_flows(flows),
    );
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
    let (report, allocs) = counting(|| {
        replay_source(&mut source, &mut dp, &mut controller, &rcfg, &ChaosConfig::default(), None)
            .expect("generated packets need no parsing")
    });
    (allocs, report.packets.div_ceil(BATCH as u64))
}

/// Replays the stream at N and at 2N flows and compares allocator calls.
/// Everything allocated once per run (source lanes, sketches, replay
/// buffers) cancels out of the margin, so the margin counts steady-state
/// allocations only. It must stay below the marginal batch count: no
/// batch allocates, with room for the amortised growth of the digest and
/// blacklist containers. A discarded warm-up run first pays the
/// process's one-time costs (telemetry registration, lazy statics).
fn streaming_replay_allocates_nothing_per_batch() {
    let (fl, pl) = support::trained_rules(STREAM_SEED);
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

const SWAP_SEED: u64 = 18;
/// FL whitelist size: the scale of a trained whitelist (hundreds of
/// cubes), where one `RuleSet` clone alone costs two allocations a cube.
const CUBES: usize = 320;
/// Allocations a swap may make beyond one per successor-table entry:
/// the entry vector, the field-width vector and the shared table handle.
const SWAP_OVERHEAD: u64 = 3;

/// A cube over the 13 switch features, at least one quantum wide in
/// every dimension of an 8-bit, unit-scale field.
fn cube(rng: &mut Rng) -> Hypercube {
    let lo: Vec<f32> = (0..13).map(|_| rng.gen_range(0.0f32..200.0)).collect();
    let hi = lo.iter().map(|&l| l + rng.gen_range(2.0f32..50.0)).collect();
    Hypercube { lo, hi }
}

fn rules(whitelist: Vec<Hypercube>) -> RuleSet {
    let dim = whitelist[0].lo.len();
    RuleSet { bounds: vec![(0.0, 255.0); dim], total_regions: whitelist.len(), whitelist }
}

/// Clones and applies a diff that replaces every tenth cube of a
/// 320-cube whitelist: the clone allocates nothing, the swap at most one
/// allocation per successor-table entry plus [`SWAP_OVERHEAD`].
fn ruleset_swap_allocates_only_the_successor_table() {
    let mut rng = Rng::seed_from_u64(SWAP_SEED);
    let old_cubes: Vec<Hypercube> = (0..CUBES).map(|_| cube(&mut rng)).collect();
    // The retrained generation replaces every tenth cube.
    let mut new_cubes = old_cubes.clone();
    for c in new_cubes.iter_mut().step_by(10) {
        *c = cube(&mut rng);
    }
    let (old_rules, new_rules) = (rules(old_cubes), rules(new_cubes));
    let specs = vec![FieldSpec::new(8, 1.0); 13];
    let (old, new) = (compile_ruleset(&old_rules, &specs), compile_ruleset(&new_rules, &specs));
    assert!(new.len() >= 300, "only {} entries compiled", new.len());

    let v1 = RulesetTxn::full_install(1, &old, old_rules.clone());
    let v2 = RulesetTxn::diff(2, &old, &new, new_rules);
    assert!(v2.churn() > 0 && v2.churn() < new.len(), "churn {}", v2.churn());
    let mut dp = Pipeline::new(PipelineConfig::default(), old_rules, support::accept_all(4));
    // The bootstrap pays the process's one-time costs (telemetry handles).
    dp.apply_ruleset(&v1).expect("bootstrap v1");

    let (staged, allocs) = counting(|| v2.clone());
    assert_eq!(allocs, 0, "cloning a transaction allocated");
    let (applied, allocs) = counting(|| dp.apply_ruleset(&staged));
    applied.expect("v2 applies on top of v1");
    assert_eq!(dp.ruleset_version(), 2);
    let bound = new.len() as u64 + SWAP_OVERHEAD;
    assert!(
        allocs <= bound,
        "the swap made {allocs} allocations, over the {bound} a {}-entry table needs",
        new.len()
    );
}
