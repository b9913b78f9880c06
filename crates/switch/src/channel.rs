//! Fallible control channels between the data plane and the controller.
//!
//! PR 3 gave replay a lossless, instantaneous control loop: every digest
//! the data plane produced reached the controller the same tick, and
//! every controller action took effect immediately. Real switch control
//! channels (digest DMA rings, gRPC/P4Runtime sessions) drop, duplicate,
//! delay and reorder messages, and rule installs fail — so this module
//! puts an explicitly fallible channel on each direction:
//!
//! * [`DigestChannel`] — data plane → controller. Messages offered each
//!   tick are subjected to the [`FaultPlan`]'s drop / duplicate / delay
//!   probabilities on admission and adjacent-pair reorder on delivery;
//!   scripted outage windows lose everything offered while down.
//! * [`ActionChannel`] — controller → data plane. Each send can fail with
//!   [`SwitchError::ChannelDown`] (outage or sampled send failure) or
//!   [`SwitchError::TcamFull`] (install into a saturated table); the
//!   caller decides whether to retry.
//!
//! Each channel counts its faults in a `Copy` snapshot, [`ChannelStats`]
//! and [`ActionStats`], and writes nothing to the telemetry registry; the
//! replay loop publishes the snapshots.
//!
//! Both channels own one derived [`FaultStream`] and consume it serially
//! in message order. Because they sit on the *merged* (sequence-ordered)
//! digest stream of the replay loop, fault decisions are byte-identical
//! at any shard/worker count. A [`FaultPlan::none`] plan takes a
//! pass-through fast path that performs no RNG draws at all, so fault-free
//! chaos replay is bit-for-bit the plain replay. Delivery keeps the
//! in-flight queue in admission order as it pulls the due messages out,
//! so the `(due, ord)` sort runs over input that is already sorted
//! whenever no message was delayed.

use iguard_core::{IguardError, SwitchError};
use iguard_runtime::{ChannelKind, FaultPlan, FaultStream};

use crate::data_plane::DataPlane;
use crate::pipeline::{ControlAction, SeqDigest};

/// Observable per-channel fault accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages offered for transit.
    pub offered: u64,
    /// Messages handed to the receiver (duplicates count individually).
    pub delivered: u64,
    /// Messages lost (sampled drops + outage losses).
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Adjacent pairs swapped at delivery.
    pub reordered: u64,
    /// Messages held back at least one tick.
    pub delayed: u64,
}

/// In-transit message: delivery-due tick, admission order, payload.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    due: u64,
    ord: u64,
    msg: SeqDigest,
}

/// The lossy data-plane → controller digest channel.
pub struct DigestChannel {
    plan: FaultPlan,
    stream: FaultStream,
    /// Messages in transit, in admission order.
    in_flight: Vec<InFlight>,
    /// Reused delivery scratch: messages due this tick, pre-sort. Kept on
    /// the channel so steady-state delivery performs no allocation.
    ready: Vec<InFlight>,
    admitted: u64,
    stats: ChannelStats,
}

impl DigestChannel {
    pub fn new(plan: FaultPlan) -> Self {
        let stream = plan.stream(ChannelKind::Digest);
        Self {
            plan,
            stream,
            in_flight: Vec::new(),
            ready: Vec::new(),
            admitted: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Offers a batch of digests for transit at `tick`. Fault decisions
    /// are drawn per message, in message order.
    pub fn offer(&mut self, tick: u64, digests: &[SeqDigest]) {
        self.stats.offered += digests.len() as u64;
        if self.plan.is_none() {
            // Pass-through fast path: no draws, instantaneous transit.
            for &msg in digests {
                self.in_flight.push(InFlight { due: tick, ord: self.admitted, msg });
                self.admitted += 1;
            }
            return;
        }
        let down = self.plan.is_down(ChannelKind::Digest, tick);
        for &msg in digests {
            if down {
                // Scripted outage: everything offered is lost, no draws —
                // the stream stays aligned with runs that differ only in
                // outage windows.
                self.stats.dropped += 1;
                continue;
            }
            if self.stream.fires(self.plan.drop_p) {
                self.stats.dropped += 1;
                continue;
            }
            let copies = if self.stream.fires(self.plan.duplicate_p) {
                self.stats.duplicated += 1;
                2
            } else {
                1
            };
            let due = if self.stream.fires(self.plan.delay_p) {
                self.stats.delayed += 1;
                tick + self.stream.delay_ticks(self.plan.max_delay_ticks)
            } else {
                tick
            };
            for _ in 0..copies {
                self.in_flight.push(InFlight { due, ord: self.admitted, msg });
                self.admitted += 1;
            }
        }
    }

    /// Delivers every in-transit message due at `tick` into `out`
    /// (cleared first), in (due, admission) order with adjacent-pair
    /// reorder faults applied.
    pub fn deliver_into(&mut self, tick: u64, out: &mut Vec<SeqDigest>) {
        out.clear();
        if self.in_flight.is_empty() {
            return;
        }
        // Order-keeping split: due messages go to `ready`, the rest stay,
        // both in admission order, so the sort below is linear unless
        // delays interleaved due ticks.
        let ready = &mut self.ready;
        ready.clear();
        self.in_flight.retain(|&f| {
            let due = f.due <= tick;
            if due {
                ready.push(f);
            }
            !due
        });
        if ready.is_empty() {
            return;
        }
        ready.sort_unstable_by_key(|f| (f.due, f.ord));
        if self.plan.reorder_p > 0.0 {
            for pair in ready.chunks_mut(2) {
                if pair.len() == 2 && self.stream.fires(self.plan.reorder_p) {
                    pair.swap(0, 1);
                    self.stats.reordered += 1;
                }
            }
        }
        self.stats.delivered += ready.len() as u64;
        out.extend(ready.iter().map(|f| f.msg));
    }

    /// Whether messages are still in transit (delayed past the last tick).
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// Observable action-channel accounting. Per-flow actions and ruleset
/// transactions share the transport, so both count here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActionStats {
    /// Send attempts.
    pub sends: u64,
    /// Sends failed in transit ([`SwitchError::ChannelDown`]).
    pub send_failed: u64,
    /// Installs rejected by the TCAM budget ([`SwitchError::TcamFull`]).
    pub tcam_full: u64,
}

/// The fallible controller → data-plane command channel.
pub struct ActionChannel {
    plan: FaultPlan,
    stream: FaultStream,
    /// Hardware TCAM entry budget; installs beyond it are rejected.
    tcam_capacity: usize,
    stats: ActionStats,
}

impl ActionChannel {
    pub fn new(plan: FaultPlan, tcam_capacity: usize) -> Self {
        let stream = plan.stream(ChannelKind::Action);
        Self { plan, stream, tcam_capacity, stats: ActionStats::default() }
    }

    /// Attempts to apply `action` to the data plane at `tick`.
    ///
    /// Errors are *transport or resource* failures the caller can retry:
    /// [`SwitchError::ChannelDown`] while an outage window covers `tick`
    /// or a sampled send failure fires, [`SwitchError::TcamFull`] when an
    /// install would exceed the TCAM budget (retryable because eviction
    /// removes may free space). On success the action has reached the
    /// data plane: every later read sees it, and it takes effect before
    /// the next batch (see the [`DataPlane`] contract).
    pub fn send<D: DataPlane + ?Sized>(
        &mut self,
        dp: &mut D,
        action: ControlAction,
        tick: u64,
    ) -> Result<(), IguardError> {
        self.transmit(tick)?;
        // An unbounded budget (`usize::MAX`, the default) skips the count,
        // which applies every queued action and walks every shard.
        if matches!(action, ControlAction::InstallBlacklist(_))
            && self.tcam_capacity != usize::MAX
            && dp.blacklist_len() >= self.tcam_capacity
        {
            self.stats.tcam_full += 1;
            return Err(SwitchError::TcamFull { capacity: self.tcam_capacity }.into());
        }
        dp.apply(action);
        Ok(())
    }

    /// Attempts to deliver a whole-ruleset transaction at `tick`.
    ///
    /// Subject to the same transport faults as [`ActionChannel::send`]
    /// (outage windows, sampled send failures) but *not* the TCAM-capacity
    /// check: a ruleset swap replaces the whitelist image wholesale rather
    /// than growing the blacklist, so the per-entry budget does not apply.
    /// Version errors ([`SwitchError::StaleRuleset`]) surface from the
    /// data plane itself and are final — resending cannot fix them; in-order
    /// replays are an idempotent `Ok`.
    pub fn send_ruleset<D: DataPlane + ?Sized>(
        &mut self,
        dp: &mut D,
        txn: &crate::ruleset::RulesetTxn,
        tick: u64,
    ) -> Result<(), IguardError> {
        self.transmit(tick)?;
        dp.apply_ruleset(txn).map_err(IguardError::from)
    }

    /// The transport half of every send: counts the attempt, then fails
    /// it with [`SwitchError::ChannelDown`] while an outage window covers
    /// `tick` or when a sampled send failure fires. An outage draws
    /// nothing, and a [`FaultPlan::none`] plan never draws, so the fault
    /// stream stays aligned across runs that differ only in outages.
    fn transmit(&mut self, tick: u64) -> Result<(), IguardError> {
        self.stats.sends += 1;
        if self.plan.is_down(ChannelKind::Action, tick)
            || (!self.plan.is_none() && self.stream.fires(self.plan.send_fail_p))
        {
            self.stats.send_failed += 1;
            return Err(SwitchError::ChannelDown.into());
        }
        Ok(())
    }

    pub fn stats(&self) -> ActionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Digest, Pipeline, PipelineConfig};
    use iguard_core::rules::{Hypercube, RuleSet};
    use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};

    fn accept_all(dim: usize) -> RuleSet {
        RuleSet {
            bounds: vec![(0.0, 1.0); dim],
            whitelist: vec![Hypercube {
                lo: vec![f32::NEG_INFINITY; dim],
                hi: vec![f32::INFINITY; dim],
            }],
            total_regions: 1,
        }
    }

    fn sd(seq: u64) -> SeqDigest {
        SeqDigest {
            seq,
            digest: Digest::new(FiveTuple::new(1, 2, 1000 + seq as u16, 80, PROTO_TCP), true),
        }
    }

    fn batch(n: u64) -> Vec<SeqDigest> {
        (0..n).map(sd).collect()
    }

    #[test]
    fn none_plan_is_transparent_and_ordered() {
        let mut ch = DigestChannel::new(FaultPlan::none());
        let msgs = batch(16);
        ch.offer(3, &msgs);
        let mut out = Vec::new();
        ch.deliver_into(3, &mut out);
        assert_eq!(out, msgs);
        assert!(!ch.has_in_flight());
        let s = ch.stats();
        assert_eq!((s.offered, s.delivered), (16, 16));
        assert_eq!((s.dropped, s.duplicated, s.reordered, s.delayed), (0, 0, 0, 0));
    }

    iguard_runtime::proptest_lite! {
        /// A fault-free channel delivers every due message in (due,
        /// admission) order, also when offer ticks go backwards and
        /// deliveries leave messages in flight.
        fn none_plan_delivers_in_due_then_admission_order(rng, cases = 64) {
            let mut ch = DigestChannel::new(FaultPlan::none());
            let mut model: Vec<(u64, u64)> = Vec::new(); // (due, seq)
            let (mut seq, mut out) = (0u64, Vec::new());
            for _ in 0..40 {
                let tick = rng.gen_range(0u64..12);
                if rng.gen_bool(0.6) {
                    let msgs: Vec<SeqDigest> =
                        (0..rng.gen_range(0u64..5)).map(|i| sd(seq + i)).collect();
                    model.extend(msgs.iter().map(|m| (tick, m.seq)));
                    seq += msgs.len() as u64;
                    ch.offer(tick, &msgs);
                } else {
                    ch.deliver_into(tick, &mut out);
                    let mut due: Vec<(u64, u64)> =
                        model.iter().copied().filter(|&(d, _)| d <= tick).collect();
                    model.retain(|&(d, _)| d > tick);
                    due.sort_unstable();
                    let want: Vec<u64> = due.iter().map(|&(_, s)| s).collect();
                    assert_eq!(out.iter().map(|m| m.seq).collect::<Vec<_>>(), want);
                }
                assert_eq!(ch.has_in_flight(), !model.is_empty());
            }
        }
    }

    #[test]
    fn full_drop_loses_everything() {
        let mut ch = DigestChannel::new(FaultPlan::none().with_drop_p(1.0).with_seed(1));
        ch.offer(0, &batch(8));
        let mut out = Vec::new();
        ch.deliver_into(0, &mut out);
        assert!(out.is_empty());
        assert_eq!(ch.stats().dropped, 8);
    }

    #[test]
    fn full_duplication_delivers_two_copies() {
        let mut ch = DigestChannel::new(FaultPlan::none().with_duplicate_p(1.0).with_seed(1));
        ch.offer(0, &batch(4));
        let mut out = Vec::new();
        ch.deliver_into(0, &mut out);
        assert_eq!(out.len(), 8);
        // Copies are adjacent: same seq twice, in admission order.
        for (i, pair) in out.chunks(2).enumerate() {
            assert_eq!(pair[0].seq, i as u64);
            assert_eq!(pair[1].seq, i as u64);
        }
        assert_eq!(ch.stats().duplicated, 4);
    }

    #[test]
    fn delays_hold_messages_until_due() {
        let plan = FaultPlan::none().with_delay(1.0, 3).with_seed(7);
        let mut ch = DigestChannel::new(plan);
        ch.offer(10, &batch(32));
        let mut out = Vec::new();
        ch.deliver_into(10, &mut out);
        assert!(out.is_empty(), "everything is delayed at least one tick");
        assert!(ch.has_in_flight());
        let mut total = 0;
        for tick in 11..=13 {
            ch.deliver_into(tick, &mut out);
            total += out.len();
        }
        assert_eq!(total, 32, "all messages arrive within max delay");
        assert!(!ch.has_in_flight());
        assert_eq!(ch.stats().delayed, 32);
        // Delivery preserves seq order within a tick (due, admission).
        assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn outage_window_loses_offers_then_heals() {
        let plan = FaultPlan::none().with_outage(ChannelKind::Digest, 5, 8).with_seed(3);
        let mut ch = DigestChannel::new(plan);
        let mut out = Vec::new();
        ch.offer(5, &batch(4));
        ch.deliver_into(5, &mut out);
        assert!(out.is_empty());
        assert_eq!(ch.stats().dropped, 4);
        // Healed: tick 8 is outside the half-open window.
        ch.offer(8, &batch(4));
        ch.deliver_into(8, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn reorder_swaps_adjacent_pairs_only() {
        let mut ch = DigestChannel::new(FaultPlan::none().with_reorder_p(1.0).with_seed(2));
        ch.offer(0, &batch(6));
        let mut out = Vec::new();
        ch.deliver_into(0, &mut out);
        let seqs: Vec<u64> = out.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![1, 0, 3, 2, 5, 4]);
        assert_eq!(ch.stats().reordered, 3);
    }

    #[test]
    fn same_plan_same_faults() {
        let mk = || DigestChannel::new(FaultPlan::lossy(99, 0.4));
        let run = |mut ch: DigestChannel| {
            let mut all = Vec::new();
            let mut out = Vec::new();
            for tick in 0..20u64 {
                ch.offer(tick, &batch(5));
                ch.deliver_into(tick, &mut out);
                all.extend(out.iter().map(|d| d.seq));
            }
            (all, ch.stats())
        };
        assert_eq!(run(mk()), run(mk()), "fault decisions must replay identically");
    }

    fn test_dp() -> Pipeline {
        Pipeline::new(PipelineConfig::default(), accept_all(13), accept_all(4))
    }

    #[test]
    fn action_send_applies_on_success() {
        let mut dp = test_dp();
        let mut ch = ActionChannel::new(FaultPlan::none(), usize::MAX);
        let five = sd(1).digest.five;
        ch.send(&mut dp, ControlAction::InstallBlacklist(five), 0).expect("clean channel");
        assert_eq!(dp.blacklist_len(), 1);
        assert_eq!(ch.stats(), ActionStats { sends: 1, ..ActionStats::default() });
    }

    #[test]
    fn action_send_fails_during_outage() {
        let mut dp = test_dp();
        let plan = FaultPlan::none().with_outage(ChannelKind::Action, 0, 10);
        let mut ch = ActionChannel::new(plan, usize::MAX);
        let five = sd(1).digest.five;
        let err = ch.send(&mut dp, ControlAction::InstallBlacklist(five), 4).unwrap_err();
        assert!(matches!(err, IguardError::Switch(SwitchError::ChannelDown)));
        assert_eq!(dp.blacklist_len(), 0);
        ch.send(&mut dp, ControlAction::InstallBlacklist(five), 10).expect("healed");
        assert_eq!(dp.blacklist_len(), 1);
    }

    #[test]
    fn action_send_rejects_install_when_tcam_full() {
        let mut dp = test_dp();
        let mut ch = ActionChannel::new(FaultPlan::none(), 3);
        let five = |i: u64| sd(i).digest.five;
        for i in 0..3 {
            ch.send(&mut dp, ControlAction::InstallBlacklist(five(i)), 0).expect("fits");
        }
        let err = ch.send(&mut dp, ControlAction::InstallBlacklist(five(3)), 0);
        assert!(matches!(err, Err(IguardError::Switch(SwitchError::TcamFull { capacity: 3 }))));
        // Non-install actions still pass at capacity; removing an absent
        // key frees nothing, removing either direction of an entry frees
        // one slot.
        ch.send(&mut dp, ControlAction::RemoveBlacklist(five(9)), 0).expect("remove");
        assert!(ch.send(&mut dp, ControlAction::InstallBlacklist(five(3)), 0).is_err());
        ch.send(&mut dp, ControlAction::RemoveBlacklist(five(1).reversed()), 0).expect("remove");
        ch.send(&mut dp, ControlAction::InstallBlacklist(five(3)), 0).expect("a slot was freed");
        assert_eq!((dp.blacklist_len(), dp.blacklist_contents().len()), (3, 3));
        assert_eq!(ch.stats(), ActionStats { sends: 8, send_failed: 0, tcam_full: 2 });
    }

    #[test]
    fn ruleset_send_skips_tcam_budget_but_honours_outage() {
        use crate::ruleset::RulesetTxn;
        use crate::tcam::{RangeEntry, RangeTable};
        let mut table = RangeTable::new(vec![4, 4]);
        table.push(RangeEntry { fields: vec![(0, 7), (0, 15)], priority: 0 });
        let txn = RulesetTxn::full_install(1, &table, accept_all(13));

        let mut dp = test_dp();
        let plan = FaultPlan::none().with_outage(ChannelKind::Action, 0, 5);
        // Zero TCAM budget: ruleset swaps must still go through.
        let mut ch = ActionChannel::new(plan, 0);
        let err = ch.send_ruleset(&mut dp, &txn, 2).unwrap_err();
        assert!(matches!(err, IguardError::Switch(SwitchError::ChannelDown)));
        assert_eq!(dp.ruleset_version(), 0, "failed send must not advance the version");
        ch.send_ruleset(&mut dp, &txn, 5).expect("healed channel applies the swap");
        assert_eq!(dp.ruleset_version(), 1);
        // Retrying a delivered version is an idempotent no-op.
        ch.send_ruleset(&mut dp, &txn, 6).expect("replay is idempotent");
        assert_eq!(dp.stats().ruleset.replayed, 1);
        assert_eq!(ch.stats(), ActionStats { sends: 3, send_failed: 1, tcam_full: 0 });
    }

    #[test]
    fn tcam_budget_counts_installs_queued_on_the_sharded_layout() {
        use crate::pipeline::{PathTaken, ProcessOutcome};
        use crate::sharded::ShardedPipelineConfig;
        use iguard_flow::packet::{Packet, TcpFlags};
        use iguard_runtime::par::with_workers;
        // Installs sent in one gap, a reverse-direction duplicate and a
        // repeat among them: every count must see the queued ones.
        let five = |i: u64| sd(i).digest.five;
        let sends =
            [five(0), five(1), five(1).reversed(), five(2), five(0), five(3), five(4), five(5)];
        let install_all = |dp: &mut dyn DataPlane| {
            let mut ch = ActionChannel::new(FaultPlan::none(), 4);
            let sent: Vec<Result<(), IguardError>> =
                sends.iter().map(|&f| ch.send(dp, ControlAction::InstallBlacklist(f), 0)).collect();
            sent.into_iter()
                .map(|r| match r {
                    Ok(()) => true,
                    Err(IguardError::Switch(SwitchError::TcamFull { capacity: 4 })) => false,
                    Err(e) => panic!("unexpected send error {e:?}"),
                })
                .collect::<Vec<bool>>()
        };
        let group_of = |f: &FiveTuple| crate::sharded::logical_shard_of(f) % 2;
        assert!(sends.iter().any(|f| group_of(f) == 0) && sends.iter().any(|f| group_of(f) == 1));
        let serial = install_all(&mut test_dp());
        assert_eq!(serial, [true, true, true, true, true, true, false, false]);
        with_workers(2, || {
            let layout = ShardedPipelineConfig { pipeline: PipelineConfig::default(), shards: 2 };
            let mut dp = Pipeline::new(layout, accept_all(13), accept_all(4));
            assert_eq!(install_all(&mut dp), serial, "2 groups x 2 workers vs serial");
            assert_eq!(dp.blacklist_len(), 4);
            // The next batch walks the installed entries on both groups.
            let pkts: Vec<Packet> = sends
                .iter()
                .map(|&five| Packet {
                    ts_ns: 0,
                    five,
                    wire_len: 100,
                    ttl: 64,
                    flags: TcpFlags::default(),
                })
                .collect();
            let mut out: Vec<ProcessOutcome> = Vec::new();
            dp.process_batch(&pkts, &mut out);
            let dropped: Vec<bool> = out.iter().map(|o| o.path == PathTaken::Blacklist).collect();
            assert_eq!(dropped, serial);
        });
    }

    iguard_runtime::proptest_lite! {
        /// Per-flow actions and ruleset transactions share one transport:
        /// under the same fault plan they fail on exactly the same ticks.
        fn action_and_ruleset_sends_fail_on_the_same_ticks(rng, cases = 64) {
            use crate::ruleset::RulesetTxn;
            use crate::tcam::{RangeEntry, RangeTable};
            let start = rng.gen_range(0u64..40);
            let plan = FaultPlan::none()
                .with_send_fail_p(rng.gen_range(0.0f64..1.0))
                .with_outage(ChannelKind::Action, start, start + rng.gen_range(1u64..20))
                .with_seed(rng.next_u64());
            let mut table = RangeTable::new(vec![4, 4]);
            table.push(RangeEntry { fields: vec![(0, 7), (0, 15)], priority: 0 });
            let txn = RulesetTxn::full_install(1, &table, accept_all(13));
            let (mut dp_a, mut dp_r) = (test_dp(), test_dp());
            let mut actions = ActionChannel::new(plan.clone(), usize::MAX);
            let mut rulesets = ActionChannel::new(plan, usize::MAX);
            for tick in 0..64u64 {
                let five = sd(tick).digest.five;
                let a = actions.send(&mut dp_a, ControlAction::ClearFlow(five), tick).is_ok();
                // After the first delivery every resend is an idempotent
                // replay, so only the transport can fail it.
                let r = rulesets.send_ruleset(&mut dp_r, &txn, tick).is_ok();
                assert_eq!(a, r, "tick {tick}");
            }
            assert_eq!(actions.stats(), rulesets.stats());
        }
    }

    #[test]
    fn sampled_send_failures_are_deterministic() {
        let run = || {
            let mut dp = test_dp();
            let mut ch = ActionChannel::new(
                FaultPlan::none().with_send_fail_p(0.5).with_seed(11),
                usize::MAX,
            );
            (0..64u64)
                .map(|i| ch.send(&mut dp, ControlAction::ClearFlow(sd(i).digest.five), i).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
        assert_eq!(a, run());
    }
}
