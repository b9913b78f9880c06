//! The four workloads: what each one feeds the emulated switch, which
//! backend it runs on, and why it exists. Every input is generated from
//! the seed during set-up, so the timed reps replay pre-generated packets
//! and never pay for the generator.

use std::time::Instant;

use iguard_core::rules::RuleSet;
use iguard_flow::table::{FlowShard, FlowTableConfig, PhaseSchedule};
use iguard_runtime::Rng;
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Pipeline, PipelineConfig};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::sketched::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::{Scenario, ALL_SCENARIOS};
use iguard_synth::streaming::{StreamingConfig, StreamingTrace};
use iguard_synth::trace::Trace;

use crate::model::{self, Generation, Models, TrainingData, PHASE_BOUNDARIES};

/// Flow-table idle timeout of every workload (the `FlowTableConfig`
/// default); storm segments are spaced past it.
const IDLE_TIMEOUT_NS: u64 = 2_000_000_000;

/// Exact-table budget of the sketched backend, in slots. The streaming
/// workload keeps ~1.3k flows resident at once, so 512 slots forces
/// continuous admission and eviction.
const SKETCH_BUDGET_SLOTS: usize = 512;

/// Flow-table slots per hash table on the storm workload: 32 per logical
/// shard, small enough that the canon storms overrun it.
const STORM_SLOTS: usize = 512;

/// Rounds of the four-scenario canon in the storm workload.
const STORM_ROUNDS: u64 = 8;

/// Control ticks between two ruleset swaps on the adaptation workload.
const SWAP_EVERY_TICKS: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StreamExact,
    StreamSketched,
    StormSharded,
    AdaptSwap,
}

pub const ALL: [Workload; 4] =
    [Workload::StreamExact, Workload::StreamSketched, Workload::StormSharded, Workload::AdaptSwap];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamExact => "stream_exact",
            Workload::StreamSketched => "stream_sketched",
            Workload::StormSharded => "storm_sharded",
            Workload::AdaptSwap => "adapt_swap",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the run is pinned to (whatever `IGUARD_WORKERS` says),
    /// and the physical shard count of the storm backend: one per worker.
    pub fn workers(self) -> usize {
        match self {
            Workload::StormSharded => 2,
            _ => 1,
        }
    }

    /// Packets per `process_batch` call at full scale; one batch plus its
    /// control tick is one replay tick. Every workload has ≥ 1,000 ticks, so
    /// at least ten lie beyond the per-tick p99. The stream workloads keep
    /// about 1,240 ticks on 100,000 flows, so a rep lasts a quarter of a
    /// second or so and a run holds dozens of them: the per-tick floor, and
    /// with it the p99, is steady only when some rep ran each tick outside
    /// the host's slow spells (at 4,096 packets a tick and half as many
    /// reps, the p99's run-to-run spread was four times as wide).
    fn full_batch(self) -> usize {
        match self {
            Workload::StreamExact | Workload::StreamSketched => 2048,
            Workload::StormSharded | Workload::AdaptSwap => 1024,
        }
    }
}

/// Size of the generated inputs: `div` = 1 is the benchmark, larger values
/// divide flow counts and batch sizes alike, so a scaled run keeps about
/// the same number of ticks on a hundredth of the packets.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub div: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { div: 1 };

    fn flows(self, n: u64) -> u64 {
        (n / self.div as u64).max(1)
    }

    fn count(self, n: usize) -> usize {
        (n / self.div).max(1)
    }
}

/// Everything a workload replays, generated once per set-up.
pub struct Inputs {
    pub workload: Workload,
    pub trace: Trace,
    pub batch: usize,
    pub models: Models,
    /// The warm-refit generation on the attack-shifted window.
    pub warm: Generation,
    /// Per-boundary phase whitelists (storm workload only).
    pub phase_rules: Vec<RuleSet>,
    /// Ruleset transactions staged at the start of the given tick.
    pub swaps: Vec<(u64, RulesetTxn)>,
    pub training: TrainingData,
    /// Wall time of packet generation alone.
    pub gen_ns: u64,
}

/// Generates a workload's packets and trains and compiles its models.
pub fn build(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let t = Instant::now();
    let trace = match workload {
        Workload::StreamExact | Workload::StreamSketched => {
            stream_trace(seed, scale.flows(100_000))
        }
        Workload::StormSharded => storm_trace(seed, scale),
        Workload::AdaptSwap => stream_trace(seed ^ 0xADA9, scale.flows(80_000)),
    };
    let gen_ns = t.elapsed().as_nanos() as u64;
    let training = TrainingData::generate();
    let (models, _) = model::cold_cycle(&training);
    let batch = scale.count(workload.full_batch());
    let phase_rules = match workload {
        Workload::StormSharded => model::phase_rulesets(),
        _ => Vec::new(),
    };
    let (warm, _, _) = model::warm_cycle(&models, &training);
    let swaps = match workload {
        Workload::AdaptSwap => {
            swap_schedule(&models.cold, &warm, trace.len().div_ceil(batch) as u64)
        }
        _ => Vec::new(),
    };
    Inputs { workload, trace, batch, models, warm, phase_rules, swaps, training, gen_ns }
}

/// The streaming mix of `StreamingConfig::default()` — 65,536 Zipf-1.1
/// users on 64 concurrent lanes, 20% Mirai/UdpDdos/OsScan/Keylogging
/// flows — materialised so replay never pays for generation.
fn stream_trace(seed: u64, flows: u64) -> Trace {
    StreamingTrace::new(StreamingConfig::default().with_seed(seed).with_total_flows(flows))
        .materialize()
}

/// One canon scenario as the overload sweep replays it: benign background
/// across the storm window, the storm, and an echo tail — one small benign
/// flow set replayed nine times, each pass shifted past the idle timeout,
/// so degraded shards see genuinely calm windows and exit.
fn canon_segment(sc: Scenario, seed: u64, scale: Scale) -> Trace {
    let intensity = match sc {
        Scenario::StateExhaustion => 16_000,
        Scenario::PulseWave => 8_000,
        Scenario::Slowloris => 300,
        Scenario::C2Beacon => 200,
    };
    let window = 8.0;
    let salt = ALL_SCENARIOS.iter().position(|s| *s == sc).unwrap_or(0) as u64;
    let mut rng = Rng::seed_from_u64(seed ^ 0x0E11_0AD0 ^ (salt << 8));
    let storm = sc.trace(scale.count(intensity), window, &mut rng);
    let storm_end = storm.packets.last().map_or(0, |p| p.ts_ns);
    let background = benign_trace(scale.count(60), window, &mut rng);
    let tail = benign_trace(scale.count(150), 12.0, &mut rng);
    // Each echo starts 2.5 s after the previous traffic, past the idle
    // timeout, so lingering residents are reclaimable on first touch.
    let gap = IDLE_TIMEOUT_NS + IDLE_TIMEOUT_NS / 4;
    let tail_span = tail.packets.last().map_or(0, |p| p.ts_ns) + gap;
    let mut segs = vec![background, storm];
    for echo in 0..9 {
        let mut t = tail.clone();
        t.shift_time(storm_end + gap + echo * tail_span);
        segs.push(t);
    }
    Trace::merge(segs)
}

/// Rounds `seed..seed+8` of the four canon scenarios, one after another in
/// time, each segment shifted past the previous one's end plus the idle
/// timeout.
fn storm_trace(seed: u64, scale: Scale) -> Trace {
    let mut out = Trace::new();
    for round in 0..STORM_ROUNDS {
        for sc in ALL_SCENARIOS {
            let mut seg = canon_segment(sc, seed.wrapping_add(round), scale);
            let start = out.packets.last().map_or(0, |p| p.ts_ns + IDLE_TIMEOUT_NS + 1);
            seg.shift_time(start);
            out.packets.append(&mut seg.packets);
            out.labels.append(&mut seg.labels);
        }
    }
    out
}

/// Version 1 installs the cold generation at tick 0; every
/// [`SWAP_EVERY_TICKS`] ticks after that the next version diffs to the
/// other generation, so whitelist writes interleave with lookups all run.
fn swap_schedule(cold: &Generation, warm: &Generation, ticks: u64) -> Vec<(u64, RulesetTxn)> {
    let gens = [cold, warm];
    let mut swaps = vec![(0, RulesetTxn::full_install(1, &cold.table, cold.fl.clone()))];
    let mut k = 1u64;
    while k * SWAP_EVERY_TICKS < ticks {
        let (from, to) = (gens[(k as usize + 1) % 2], gens[k as usize % 2]);
        swaps.push((
            k * SWAP_EVERY_TICKS,
            RulesetTxn::diff(k + 1, &from.table, &to.table, to.fl.clone()),
        ));
        k += 1;
    }
    swaps
}

/// The flow-table configuration of a workload's backend.
pub fn flow_table_config(workload: Workload) -> FlowTableConfig {
    let base = FlowTableConfig::default().with_pkt_threshold(4);
    match workload {
        Workload::StormSharded => base
            .with_slots_per_table(STORM_SLOTS)
            .with_phases(PhaseSchedule::new(&PHASE_BOUNDARIES)),
        _ => base,
    }
}

/// A workload's backend, kept concrete so the shard accounting of the
/// sharded one stays reachable.
#[allow(clippy::large_enum_variant)] // one per rep, never stored in bulk
pub enum Backend {
    Serial(Pipeline),
    Sketched(SketchedPipeline),
    Sharded(ShardedPipeline),
}

impl Backend {
    /// A fresh backend for one rep. `shards` only matters on the storm
    /// workload, whose fingerprint must not depend on it.
    pub fn new(inputs: &Inputs, shards: usize) -> Self {
        let w = inputs.workload;
        let pipe = PipelineConfig::default().with_flow_table(flow_table_config(w));
        let (fl, pl) = (inputs.models.cold.fl.clone(), inputs.models.pl.clone());
        match w {
            Workload::StreamExact | Workload::AdaptSwap => {
                Backend::Serial(Pipeline::new(pipe, fl, pl))
            }
            Workload::StreamSketched => {
                let cfg = SketchedPipelineConfig::default()
                    .with_pipeline(pipe)
                    .with_budget_bytes(Some(SKETCH_BUDGET_SLOTS * FlowShard::slot_bytes()))
                    .with_promote_threshold(2)
                    .with_eviction(SketchEviction::TwoQ);
                Backend::Sketched(SketchedPipeline::new(cfg, fl, pl))
            }
            Workload::StormSharded => {
                let cfg = ShardedPipelineConfig::from(pipe).with_shards(shards);
                let mut sp = ShardedPipeline::new(cfg, fl, pl);
                sp.set_phase_rulesets(&inputs.phase_rules);
                Backend::Sharded(sp)
            }
        }
    }

    pub fn dp(&mut self) -> &mut dyn DataPlane {
        match self {
            Backend::Serial(p) => p,
            Backend::Sketched(p) => p,
            Backend::Sharded(p) => p,
        }
    }

    pub fn view(&self) -> &dyn DataPlane {
        match self {
            Backend::Serial(p) => p,
            Backend::Sketched(p) => p,
            Backend::Sharded(p) => p,
        }
    }

    /// Packets each physical shard group processed (one group unsharded).
    pub fn group_packets(&self) -> Vec<u64> {
        match self {
            Backend::Sharded(sp) => {
                let phys = sp.physical_shards();
                let mut groups = vec![0u64; phys];
                for (l, n) in sp.shard_packet_counts().into_iter().enumerate() {
                    groups[l % phys] += n;
                }
                groups
            }
            other => vec![other.view().packets_processed()],
        }
    }

    /// Busiest over mean logical-shard packet count (1 when unsharded).
    pub fn imbalance_ratio(&self) -> f64 {
        match self {
            Backend::Sharded(sp) => sp.imbalance_ratio(),
            _ => 1.0,
        }
    }
}
