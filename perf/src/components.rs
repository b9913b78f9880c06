//! Isolated timings of layers that run inside `process_batch`, where the
//! benchmark cannot put a clock: each feeds the workload's own packets to
//! one layer's public entry point on its own. They overlap the
//! `dataplane` span, so they are reported but never added to it.

use std::hint::black_box;
use std::time::Instant;

use iguard_flow::batch::PacketBatch;
use iguard_flow::sketch::{BloomFilter, CountMinSketch};
use iguard_flow::table::{FlowShard, FlowTableConfig};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::sketched::SketchedPipelineConfig;
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};

use crate::workloads::{Backend, Inputs};

/// Packets of the trace prefix whose flows the whitelist timing classifies.
const CLASSIFY_PREFIX: usize = 1 << 20;

/// Ruleset transactions applied by the swap timing.
const APPLY_TXNS: u64 = 8;

/// Fastest of `reps` runs of `f`, in nanoseconds.
fn fastest_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one rep")
}

/// `PacketBatch::fill`, batch by batch, per packet.
pub fn batch_fill_ns_per_pkt(trace: &Trace, batch: usize) -> f64 {
    let mut b = PacketBatch::default();
    let ns = fastest_ns(2, || {
        for chunk in trace.packets.chunks(batch) {
            b.fill(chunk);
            black_box(&b);
        }
    });
    ns as f64 / trace.len().max(1) as f64
}

/// `FlowShard::observe` on one shard of the workload's table shape, per
/// packet. No controller clears flows here, so classified residents stay
/// until they time out or are displaced.
pub fn observe_ns_per_pkt(trace: &Trace, cfg: FlowTableConfig) -> f64 {
    let ns = fastest_ns(2, || {
        let mut shard = FlowShard::new(cfg);
        for p in &trace.packets {
            black_box(shard.observe(p, p.ts_ns));
        }
    });
    ns as f64 / trace.len().max(1) as f64
}

/// `BloomFilter::insert` + `CountMinSketch::increment` at the sketched
/// backend's default geometry, per packet.
pub fn sketch_ns_per_pkt(trace: &Trace) -> f64 {
    let g = SketchedPipelineConfig::default();
    let ns = fastest_ns(2, || {
        let mut bloom = BloomFilter::new(g.bloom_bits, g.bloom_hashes, g.seed);
        let mut cms = CountMinSketch::new(g.cms_width, g.cms_depth, g.seed);
        for p in &trace.packets {
            let key = p.five.canonical();
            black_box(bloom.insert(&key));
            black_box(cms.increment(&key));
        }
    });
    ns as f64 / trace.len().max(1) as f64
}

/// `DataPlane::classify_batch` on the FL rows `extract_flows` freezes from
/// the workload's packets, per row.
pub fn classify_ns_per_row(inputs: &Inputs, shards: usize) -> f64 {
    let n = inputs.trace.len().min(CLASSIFY_PREFIX);
    let prefix = Trace {
        packets: inputs.trace.packets[..n].to_vec(),
        labels: inputs.trace.labels[..n].to_vec(),
    };
    let rows =
        extract_flows(&prefix, &ExtractConfig { pkt_threshold: 4, ..Default::default() }).features;
    let mut backend = Backend::new(inputs, shards);
    let mut out = Vec::new();
    let ns = fastest_ns(3, || backend.dp().classify_batch(&rows, &mut out));
    ns as f64 / rows.rows().max(1) as f64
}

/// `DataPlane::apply_ruleset` (index rebuild plus epoch flip) on a fresh
/// backend: a full install of the cold generation, then diffs alternating
/// warm and cold. Mean microseconds per transaction.
pub fn ruleset_apply_us(inputs: &Inputs, shards: usize) -> f64 {
    let cold = &inputs.models.cold;
    let gens = [cold, &inputs.warm];
    let mut txns = vec![RulesetTxn::full_install(1, &cold.table, cold.fl.clone())];
    for v in 2..=APPLY_TXNS {
        let (from, to) = (gens[v as usize % 2], gens[(v as usize + 1) % 2]);
        txns.push(RulesetTxn::diff(v, &from.table, &to.table, to.fl.clone()));
    }
    let mut backend = Backend::new(inputs, shards);
    let t = Instant::now();
    for txn in &txns {
        backend.dp().apply_ruleset(txn).expect("consecutive versions apply");
    }
    t.elapsed().as_nanos() as f64 / 1e3 / txns.len() as f64
}
