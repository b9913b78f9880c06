//! Control-action inbox suite: [`DataPlane::apply`] only queues an
//! action on its shard group's inbox, and every reader settles the
//! inboxes before it reads. A property interleaves random batches,
//! control actions and reads, never with a batch between an action and
//! the next read, on every layout. Half the gaps end in a read; the rest
//! run straight into the next batch, whose groups must apply their
//! inboxes before they walk.
//!
//! * every blacklist read equals a model that replays the actions in
//!   order, and every batch packet takes the blacklist path exactly when
//!   its flow is in that model;
//! * every read gives the same answer when it is repeated after the
//!   other readers, so no reader sees less than another;
//! * the sharded layout reads and classifies identically at 1, 2 and 8
//!   groups × 1 and 8 workers, and the scalar walk matches the columnar
//!   one on the serial layout.

mod support;

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_runtime::hash::FlowSet;
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_switch::data_plane::{DataPlane, DataPlaneStats};
use iguard_switch::pipeline::{
    ControlAction, Layout, PathTaken, Pipeline, ProcessOutcome, ScalarPipeline,
};
use iguard_switch::sharded::ShardedPipelineConfig;
use iguard_switch::sketched::SketchedPipelineConfig;
use support::{accept_all, fl_mean_size_below, flow_cfg, pkt};

/// Flows that carry traffic; [`ABSENT`] and up never send a packet.
const FLOWS: u32 = 24;
const ABSENT: u32 = 1_000;

/// One step of a script. `Read` carries the order the four readers run
/// in, as a permutation index.
#[derive(Clone, Debug)]
enum Step {
    Batch(Vec<Packet>),
    Act(ControlAction),
    Read(usize),
}

/// A random script: rounds of one batch, then a gap of actions and reads
/// that ends with a read or, half the time, with its last action.
fn script(rng: &mut Rng) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut ts = 0u64;
    // Half the flows send large packets and are convicted at their
    // threshold packet, so clears hit labelled and unlabelled residents.
    let size = |f: u32| if f.is_multiple_of(2) { 1_000 } else { 100 };
    let five = |rng: &mut Rng, f: u32| {
        let five = pkt(f, 0, 0).five;
        if rng.gen_bool(0.5) {
            five.reversed()
        } else {
            five
        }
    };
    for _ in 0..rng.gen_range(4usize..10) {
        let pkts = (0..rng.gen_range(1usize..160))
            .map(|_| {
                ts += rng.gen_range(0u64..2_000_000);
                let f = rng.gen_range(0..FLOWS);
                pkt(f, ts, size(f))
            })
            .collect();
        steps.push(Step::Batch(pkts));
        for _ in 0..rng.gen_range(0usize..6) {
            let f = rng.gen_range(0..FLOWS);
            let acts = match rng.gen_range(0u8..7) {
                0 => vec![ControlAction::InstallBlacklist(five(rng, f))],
                1 => vec![ControlAction::RemoveBlacklist(five(rng, f))],
                2 => vec![ControlAction::ClearFlow(five(rng, f))],
                // One flow installed, removed and cleared within one gap.
                3 => vec![
                    ControlAction::InstallBlacklist(five(rng, f)),
                    ControlAction::RemoveBlacklist(five(rng, f)),
                    ControlAction::ClearFlow(five(rng, f)),
                ],
                // A remove before its install.
                4 => vec![
                    ControlAction::RemoveBlacklist(five(rng, f)),
                    ControlAction::InstallBlacklist(five(rng, f)),
                ],
                // A clear of a flow that is not resident.
                5 => vec![ControlAction::ClearFlow(five(rng, ABSENT + f))],
                _ => {
                    steps.push(Step::Read(rng.gen_range(0usize..24)));
                    continue;
                }
            };
            steps.extend(acts.into_iter().map(Step::Act));
        }
        if rng.gen_bool(0.5) {
            steps.push(Step::Read(rng.gen_range(0usize..24)));
        }
    }
    steps
}

/// What one read step saw.
#[derive(Debug, PartialEq)]
struct Read {
    contents: Vec<FiveTuple>,
    len: usize,
    stats: DataPlaneStats,
    /// `None` for a backend without per-shard views.
    shards: Option<Vec<DataPlaneStats>>,
}

/// Everything a script makes observable.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    outcomes: Vec<Vec<ProcessOutcome>>,
    reads: Vec<Read>,
}

/// Runs `steps` on `dp`. Each batch's blacklist hits must match the
/// replayed model. Each read runs the four readers in the step's order,
/// checks the blacklist reads against the model, and checks that
/// repeating the snapshot reads after the others changes nothing.
fn run<D: DataPlane>(
    what: &str,
    dp: &mut D,
    steps: &[Step],
    shard_stats: impl Fn(&D) -> Option<Vec<DataPlaneStats>>,
) -> Transcript {
    let mut t = Transcript::default();
    let mut model: FlowSet<FiveTuple> = FlowSet::default();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Batch(pkts) => {
                let mut out = Vec::new();
                dp.process_batch(pkts, &mut out);
                for (k, (p, o)) in pkts.iter().zip(&out).enumerate() {
                    let listed = model.contains(&p.five.canonical());
                    let red = o.path == PathTaken::Blacklist;
                    assert_eq!(red, listed, "{what}: packet {k} of the batch at step {i}");
                }
                t.outcomes.push(out);
            }
            Step::Act(action) => {
                match *action {
                    ControlAction::InstallBlacklist(f) => model.insert(f.canonical()),
                    ControlAction::RemoveBlacklist(f) => model.remove(&f.canonical()),
                    ControlAction::ClearFlow(_) => false,
                };
                dp.apply(*action);
            }
            &Step::Read(order) => {
                let mut readers = vec![0, 1, 2, 3];
                let mut k = order;
                let mut seq = Vec::new();
                while !readers.is_empty() {
                    let n = readers.len();
                    seq.push(readers.remove(k % n));
                    k /= n;
                }
                let (mut contents, mut len, mut stats, mut shards) = (None, None, None, None);
                for r in seq {
                    match r {
                        0 => contents = Some(dp.blacklist_contents()),
                        1 => len = Some(dp.blacklist_len()),
                        2 => stats = Some(dp.stats()),
                        _ => shards = Some(shard_stats(dp)),
                    }
                }
                let read = Read {
                    contents: contents.unwrap(),
                    len: len.unwrap(),
                    stats: stats.unwrap(),
                    shards: shards.unwrap(),
                };
                let mut want: Vec<FiveTuple> = model.iter().copied().collect();
                want.sort_unstable();
                assert_eq!(read.contents, want, "{what}: blacklist contents at step {i}");
                assert_eq!(read.len, want.len(), "{what}: blacklist length at step {i}");
                assert_eq!(
                    read.stats,
                    dp.stats(),
                    "{what}: stats() changed on re-read at step {i}"
                );
                assert_eq!(read.shards, shard_stats(dp), "{what}: shard_stats() at step {i}");
                t.reads.push(read);
            }
        }
    }
    t
}

fn pipeline(layout: Layout) -> Pipeline {
    Pipeline::new(layout, fl_mean_size_below(600.0), accept_all(4))
}

fn views(dp: &Pipeline) -> Option<Vec<DataPlaneStats>> {
    Some(dp.shard_stats())
}

iguard_runtime::proptest_lite! {
    /// Reads right after `apply` see every action, at every layout and
    /// shard grouping.
    fn reads_after_apply_see_every_action(rng, cases = 64) {
        let steps = script(rng);
        let cfg = flow_cfg(64);

        let serial = run("serial", &mut pipeline(cfg.into()), &steps, views);
        let mut scalar_dp = ScalarPipeline::new(cfg, fl_mean_size_below(600.0), accept_all(4));
        let scalar = run("scalar", &mut scalar_dp, &steps, |_| None);
        assert_eq!(scalar.outcomes, serial.outcomes, "scalar vs columnar outcomes");
        for (s, c) in scalar.reads.iter().zip(&serial.reads) {
            assert_eq!((&s.contents, s.len, &s.stats), (&c.contents, c.len, &c.stats));
        }

        let sketched = SketchedPipelineConfig::default()
            .with_pipeline(cfg)
            .with_budget_bytes(Some(24 * iguard_flow::table::FlowShard::slot_bytes()));
        run("sketched", &mut pipeline(sketched.into()), &steps, views);

        let mut base: Option<Transcript> = None;
        for shards in [1, 2, 8] {
            for workers in [1, 8] {
                let what = format!("sharded {shards}x{workers}");
                let layout = ShardedPipelineConfig { pipeline: cfg, shards }.into();
                let t = with_workers(workers, || run(&what, &mut pipeline(layout), &steps, views));
                match &base {
                    None => base = Some(t),
                    Some(b) => assert!(*b == t, "{what} diverged from sharded 1x1"),
                }
            }
        }
    }
}
