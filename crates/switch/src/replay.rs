//! Trace replay through the emulated switch, with throughput/latency and
//! per-packet detection accounting (paper §4.2.1, App. B.1).
//!
//! ## Latency model
//! A Tofino-1 ingress pipe is a fixed-depth pipeline: per-packet latency is
//! `stages × per_stage_ns` regardless of the program. With 12 stages at
//! 44.4 ns the base latency is 532.8 ns — the figure the paper reports.
//! Blue-path packets are mirrored to the loopback port and traverse the
//! pipe twice; the reported average weighs that second pass in.
//!
//! ## Throughput model
//! The pipe forwards at line rate; capacity is consumed by offered packets
//! plus loopback copies, so the sustainable offered throughput is
//! `line_rate × offered / (offered + loopback)`. Designs that detect in
//! the control plane (HorusEye-style) additionally detour a fraction of
//! traffic through a CPU port of limited bandwidth; detoured bytes beyond
//! that bandwidth stall, capping effective throughput.
//!
//! ## Batching
//! One loop, [`replay_source`], pulls packets from a [`PacketSource`] — a
//! materialised [`Trace`] through the zero-copy [`TraceSource`], or a
//! generated [`StreamingTrace`] in O(batch) memory — and feeds the data
//! plane through [`DataPlane::process_batch`] in
//! `ReplayConfig::batch_size` slices — the backend's columnar
//! (structure-of-arrays) hot path. Verdicts, digests, and counters are
//! byte-identical at every batch size (batch 1 degenerates to per-packet
//! processing), so `batch_size` is purely a throughput knob; larger
//! batches amortise feature extraction and index probes across rows.

use std::num::NonZeroU64;
use std::sync::OnceLock;

use iguard_core::error::{IguardError, SwitchError};
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_metrics::ConfusionMatrix;
use iguard_runtime::hash::FlowMap;
use iguard_runtime::{ChannelKind, FaultPlan};

use iguard_synth::streaming::StreamingTrace;
use iguard_synth::trace::Trace;
use iguard_telemetry::Counter;

use crate::channel::{ActionChannel, ActionStats, ChannelStats, DigestChannel};
use crate::controller::{Controller, ControllerSnapshot, ControllerStats};
use crate::data_plane::DataPlane;
use crate::pipeline::{
    publish_growth, ControlAction, PacketVerdict, ProcessOutcome, Rows, SeqDigest,
};
use crate::ruleset::RulesetTxn;

/// Pipeline timing constants.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    pub stages: usize,
    pub per_stage_ns: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // 12 stages × 44.4 ns = 532.8 ns, the paper's per-packet latency.
        Self { stages: 12, per_stage_ns: 44.4 }
    }
}

impl LatencyModel {
    pub fn base_ns(&self) -> f64 {
        self.stages as f64 * self.per_stage_ns
    }
}

/// Control-plane interaction model for throughput accounting.
#[derive(Clone, Copy, Debug)]
pub struct ControlPlaneModel {
    /// Fraction of offered packets detoured through the control plane for
    /// *detection* (0 for iGuard: detection is entirely in the data plane;
    /// HorusEye-style designs mirror suspicious traffic up).
    pub detour_fraction: f64,
    /// CPU-port bandwidth available to detoured traffic (Gbps).
    pub cp_port_gbps: f64,
}

impl ControlPlaneModel {
    /// iGuard: no detection detour.
    pub fn iguard() -> Self {
        Self { detour_fraction: 0.0, cp_port_gbps: 10.0 }
    }

    /// HorusEye-style: the data-plane iForest is tuned for high recall /
    /// low precision, so a large share of traffic is mirrored to the CPU
    /// port for autoencoder confirmation; the port's *effective* bandwidth
    /// after PCIe and software overheads is a few Gbps.
    pub fn control_plane_detection() -> Self {
        Self { detour_fraction: 0.5, cp_port_gbps: 4.0 }
    }
}

/// Replay output.
///
/// Counts are measured on the emulated pipeline. `throughput_gbps`,
/// `avg_latency_ns` and `digest_kbps` are *modelled*: they come from
/// [`LatencyModel`], [`ControlPlaneModel`] and the controller's digest-size
/// constants applied to those counts, not from a clock.
///
/// The control plane's counts are the three snapshots read when the
/// replay ended: the replay's own channels, and the controller's lifetime
/// counts, which a crash does not rewind.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    pub packets: u64,
    pub bytes: u64,
    /// Trace span (seconds of traffic time): newest minus oldest packet
    /// timestamp.
    pub duration_secs: f64,
    /// Offered load implied by the trace.
    pub offered_gbps: f64,
    /// Modelled sustainable throughput under [`ReplayConfig::line_rate_gbps`]
    /// and [`ControlPlaneModel`].
    pub throughput_gbps: f64,
    /// Modelled mean per-packet latency (ns) under [`LatencyModel`],
    /// loopback passes included.
    pub avg_latency_ns: f64,
    /// Packets dropped by the pipeline.
    pub dropped: u64,
    /// Per-packet detection quality (truth = packet of malicious flow,
    /// positive = packet dropped/flagged).
    pub tp: u64,
    pub fp: u64,
    pub tn: u64,
    pub fn_: u64,
    pub digests: u64,
    /// Modelled control-plane digest bandwidth (KBps over the trace
    /// duration, from the controller's per-digest size constants).
    pub digest_kbps: f64,
    /// Loopback copies generated.
    pub loopback: u64,
    // --- Chaos observability (the fault counts are zero in fault-free replay) ---
    /// The controller's counts (dedup, installs, retries, shedding,
    /// degraded entries, ruleset lifecycle).
    pub controller: ControllerStats,
    /// The digest channel's fault counts.
    pub digest_channel: ChannelStats,
    /// The action channel's sends and failures.
    pub action_channel: ActionStats,
    /// Recovery latency after the last scripted outage heals, in packets
    /// (ticks from heal to the last successful install × batch size).
    pub recovery_packets: u64,
    /// Extra control-loop ticks run after the trace to drain in-flight
    /// work (0 when the loop was already quiescent).
    pub flush_ticks: u64,
    /// Digests re-derived from resident flow labels by resync sweeps.
    pub resync_digests: u64,
    /// Whitelist-index lookups performed during this replay (FL + PL;
    /// delta over the backend's counters, so reused backends report only
    /// this replay's work).
    pub wl_lookups: u64,
    /// Lookups that matched a whitelist rule.
    pub wl_hits: u64,
    /// Ruleset transactions confirmed applied by the data plane (each is
    /// one hitless epoch flip); `controller.rulesets_delivered`.
    pub ruleset_swaps: u64,
}

impl ReplayReport {
    pub fn confusion(&self) -> ConfusionMatrix {
        ConfusionMatrix { tp: self.tp, fp: self.fp, tn: self.tn, fn_: self.fn_ }
    }
}

/// One mitigated flow's timeline: first truth-malicious packet seen →
/// blacklist rule live on the data plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MitigationRecord {
    /// Canonical key of the mitigated flow.
    pub five: FiveTuple,
    /// Global arrival index of the flow's first truth-malicious packet.
    pub first_seen_seq: u64,
    /// Replay tick that processed that packet.
    pub first_seen_tick: u64,
    /// Tick whose control phase landed the blacklist install.
    pub installed_tick: u64,
    /// Truth-malicious packets of this flow the data plane had to judge
    /// without a blacklist rule — the flow's exposure, in packets.
    pub packets_before_install: u64,
    /// Phase index of the first malicious digest delivered for this flow
    /// ([`crate::pipeline::FINAL_PHASE`] when the single-shot threshold,
    /// an idle timeout, or a label resync decided it).
    pub deciding_phase: u8,
}

/// In-flight exposure accounting of one not-yet-mitigated flow.
#[derive(Clone, Copy, Debug)]
struct PendingMitigation {
    first_seen_seq: u64,
    first_seen_tick: u64,
    packets: u64,
    installed: bool,
    /// Phase of the first delivered malicious digest (first-wins; `None`
    /// until one arrives).
    phase: Option<u8>,
}

/// Per-flow time-to-mitigation log, threaded through the replay
/// digest/action loop by [`replay_source`]. The replay loop notes
/// every truth-malicious packet; the control loop finalises a record the
/// moment the flow's blacklist install lands on the data plane. Records
/// accumulate in install order — a deterministic order, since installs
/// are driven by the seq-merged digest stream — so the log is
/// byte-comparable across backends, shard counts, and worker counts.
#[derive(Clone, Debug, Default)]
pub struct MitigationLog {
    flows: FlowMap<FiveTuple, PendingMitigation>,
    /// Finalised records, in blacklist-install order.
    pub records: Vec<MitigationRecord>,
}

impl MitigationLog {
    /// Notes one truth-malicious packet of `five` (canonical key).
    fn note_malicious(&mut self, five: FiveTuple, seq: u64, tick: u64) {
        let p = self.flows.entry(five).or_insert(PendingMitigation {
            first_seen_seq: seq,
            first_seen_tick: tick,
            packets: 0,
            installed: false,
            phase: None,
        });
        if !p.installed {
            p.packets += 1;
        }
    }

    /// A malicious digest for `five` (canonical key) was delivered to the
    /// controller, decided at `phase`. First delivery wins — the digest
    /// stream is seq-merged, so "first" is deterministic across backends
    /// and shard/worker counts. Flows never seen truth-malicious
    /// (controller false positives) are skipped, like in
    /// [`MitigationLog::note_install`].
    fn note_digest_phase(&mut self, five: FiveTuple, phase: u8) {
        let Some(p) = self.flows.get_mut(&five) else { return };
        if p.phase.is_none() {
            p.phase = Some(phase);
        }
    }

    /// A blacklist install for `five` (canonical key) just landed.
    fn note_install(&mut self, five: FiveTuple, tick: u64) {
        // Installs for flows never seen as truth-malicious (controller
        // false positives) carry no mitigation timeline; skip them.
        let Some(p) = self.flows.get_mut(&five) else { return };
        if p.installed {
            return;
        }
        p.installed = true;
        self.records.push(MitigationRecord {
            five,
            first_seen_seq: p.first_seen_seq,
            first_seen_tick: p.first_seen_tick,
            installed_tick: tick,
            packets_before_install: p.packets,
            deciding_phase: p.phase.unwrap_or(crate::pipeline::FINAL_PHASE),
        });
    }

    /// Truth-malicious flows that never got a blacklist rule (undetected,
    /// or their install was still in flight when replay ended).
    pub fn unmitigated(&self) -> usize {
        self.flows.values().filter(|p| !p.installed).count()
    }

    /// Sorted per-flow exposure in packets — the time-to-mitigation CDF's
    /// sample set (packet axis).
    pub fn ttm_packets_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.records.iter().map(|r| r.packets_before_install).collect();
        v.sort_unstable();
        v
    }
}

/// Replay configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Link rate the trace is replayed at (the paper uses a 40 Gbps link).
    pub line_rate_gbps: f64,
    pub latency: LatencyModel,
    pub control_plane: ControlPlaneModel,
    /// Serialise each packet to wire bytes and re-parse it before
    /// processing — exercises the full parser path (slower).
    pub exercise_wire: bool,
    /// Packets handed to [`DataPlane::process_batch`] per call. The
    /// controller drains digests and feeds actions back *between* batches,
    /// so this is also the feedback granularity: 1 (the default) reproduces
    /// per-packet control feedback; larger batches let sharded backends
    /// parallelise but delay blacklist installs by up to a batch.
    pub batch_size: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            line_rate_gbps: 40.0,
            latency: LatencyModel::default(),
            control_plane: ControlPlaneModel::iguard(),
            exercise_wire: false,
            batch_size: 1,
        }
    }
}

iguard_runtime::builder_setters! { ReplayConfig =>
    /// Builder: replay link rate in Gbps.
    with_line_rate_gbps => line_rate_gbps: f64,
    /// Builder: pipeline timing model.
    with_latency => latency: LatencyModel,
    /// Builder: control-plane interaction model.
    with_control_plane => control_plane: ControlPlaneModel,
    /// Builder: round-trip packets through wire bytes before processing.
    with_exercise_wire => exercise_wire: bool,
}

impl ReplayConfig {
    /// Builder: data-plane batch size (also the controller feedback
    /// granularity); clamped to ≥ 1.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }
}

/// When and how a simulated controller crash recovers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashRecovery {
    /// Restore the last [`Controller::snapshot`] taken by the checkpoint
    /// schedule (a pristine controller if none was taken yet).
    RestoreCheckpoint,
    /// Cold-start from the data plane's installed blacklist — the
    /// authoritative state that survives a control-plane crash.
    RebuildFromDataPlane,
}

/// A scripted controller crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Tick at whose start the controller's in-memory state is lost.
    pub at_tick: u64,
    pub recovery: CrashRecovery,
}

/// Chaos parameters for [`replay_source`]: the channel fault plan plus the
/// recovery machinery exercised against it. The default is the ideal
/// loop — no faults, no resync, unlimited TCAM — under which the replay is
/// bit-identical to the fault-free [`replay`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    pub plan: FaultPlan,
    /// Every `n` ticks the controller asks the data plane to re-derive
    /// digests from resident labeled flows, recovering classifications
    /// whose digests were lost in transit. `None` disables resync.
    pub resync_interval: Option<NonZeroU64>,
    /// Every `n` ticks the controller snapshots itself (the state a
    /// [`CrashRecovery::RestoreCheckpoint`] crash falls back to). `None`
    /// takes no checkpoints.
    pub checkpoint_interval: Option<NonZeroU64>,
    pub crash: Option<CrashSpec>,
    /// Scripted ruleset swaps: at the start of each named tick the
    /// transaction is staged on the controller — as if a drift-triggered
    /// retrain had just completed — and delivery then rides the fallible
    /// action channel with capped backoff until the data plane accepts
    /// it. A transaction the data plane rejects (a version gap or a
    /// whitelist of the wrong shape) is dropped and counted in
    /// [`ControllerStats::rulesets_rejected`], not retried. Lets chaos tests
    /// exercise swap-under-fault convergence without running a retrain in
    /// the loop.
    pub ruleset_swaps: Vec<(u64, RulesetTxn)>,
    /// Hardware blacklist budget enforced by the action channel; installs
    /// beyond it fail with `TcamFull`.
    pub tcam_capacity: usize,
    /// Upper bound on post-trace control-loop ticks used to drain delayed
    /// digests, pending retries and resync stragglers.
    pub max_flush_ticks: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            plan: FaultPlan::none(),
            resync_interval: None,
            checkpoint_interval: None,
            crash: None,
            ruleset_swaps: Vec::new(),
            tcam_capacity: usize::MAX,
            max_flush_ticks: 1024,
        }
    }
}

iguard_runtime::builder_setters! { ChaosConfig =>
    /// Builder: channel fault plan.
    with_plan => plan: FaultPlan,
    /// Builder: hardware blacklist (TCAM) capacity.
    with_tcam_capacity => tcam_capacity: usize,
    /// Builder: post-trace flush budget in ticks.
    with_max_flush_ticks => max_flush_ticks: u64,
}

impl ChaosConfig {
    /// Builder: resync sweep interval in ticks; 0 disables resync.
    pub fn with_resync_interval(mut self, ticks: u64) -> Self {
        self.resync_interval = NonZeroU64::new(ticks);
        self
    }

    /// Builder: controller checkpoint interval in ticks; 0 disables
    /// checkpoints.
    pub fn with_checkpoint_interval(mut self, ticks: u64) -> Self {
        self.checkpoint_interval = NonZeroU64::new(ticks);
        self
    }

    /// Builder: scripted controller crash.
    pub fn with_crash(mut self, at_tick: u64, recovery: CrashRecovery) -> Self {
        self.crash = Some(CrashSpec { at_tick, recovery });
        self
    }

    /// Builder: stage `txn` on the controller at the start of `at_tick`.
    /// May be called repeatedly; swaps are staged in tick order.
    pub fn with_ruleset_swap(mut self, at_tick: u64, txn: RulesetTxn) -> Self {
        self.ruleset_swaps.push((at_tick, txn));
        self
    }
}

/// Replays a labelled trace through a [`DataPlane`] + controller.
///
/// Per-packet ground truth is "belongs to a malicious flow"; a detection
/// is "the pipeline dropped (or flagged) the packet". This is the
/// per-packet metric of §4.2.1. Generic over the backend: every
/// [`crate::pipeline::Pipeline`] layout (serial, sharded, sketched) and the
/// [`crate::pipeline::ScalarPipeline`] oracle replay through it, including
/// through `&mut dyn DataPlane`.
///
/// [`replay_chaos_traced`] with the default (ideal) [`ChaosConfig`] and no
/// [`MitigationLog`] — the channels take their no-draw pass-through paths,
/// so this is bit-identical to the pre-chaos replay loop.
pub fn replay<D: DataPlane + ?Sized>(
    trace: &Trace,
    data_plane: &mut D,
    controller: &mut Controller,
    cfg: &ReplayConfig,
) -> ReplayReport {
    replay_chaos_traced(trace, data_plane, controller, cfg, &ChaosConfig::default(), None)
}

/// Number of registry counters the control loop publishes.
const CONTROL_ROWS: usize = 19;

/// Every registry counter the control loop publishes, with its total in
/// the controller's and the two channels' snapshots.
fn control_rows(c: &ControllerStats, d: &ChannelStats, a: &ActionStats) -> Rows<CONTROL_ROWS> {
    [
        ("switch.controller.digest", c.digests),
        ("switch.controller.dup_digest", c.dup_digests),
        ("switch.controller.blacklist_install", c.installs),
        ("switch.controller.blacklist_evict", c.evictions),
        ("switch.controller.drift_trigger", c.drift_triggers),
        ("switch.controller.retry", c.retries),
        ("switch.controller.retry_exhausted", c.retries_exhausted),
        ("switch.controller.shed", c.shed),
        ("switch.controller.degraded", c.degraded_entries),
        ("switch.controller.ruleset_staged", c.rulesets_staged),
        ("switch.controller.ruleset_delivered", c.rulesets_delivered),
        ("switch.controller.ruleset_rejected", c.rulesets_rejected),
        ("switch.controller.ruleset_retry", c.ruleset_retries),
        ("switch.chan.dropped", d.dropped),
        ("switch.chan.duplicated", d.duplicated),
        ("switch.chan.reordered", d.reordered),
        ("switch.chan.delayed", d.delayed),
        ("switch.chan.send_failed", a.send_failed),
        ("switch.chan.tcam_full", a.tcam_full),
    ]
}

/// Mutable control-loop state threaded through the per-tick step.
struct ControlLoop {
    digest_chan: DigestChannel,
    action_chan: ActionChannel,
    seq_buf: Vec<SeqDigest>,
    delivered: Vec<SeqDigest>,
    actions: Vec<ControlAction>,
    due: Vec<(ControlAction, u32)>,
    last_install_tick: Option<u64>,
    /// The control-plane rows the last tick published.
    published: Rows<CONTROL_ROWS>,
}

impl ControlLoop {
    /// One control-plane tick: drain data-plane digests through the lossy
    /// channel, process deliveries, send resulting actions (queueing
    /// failures for retry), and re-send due retries. `do_resync` adds a
    /// label-resync sweep to this tick's offered digests, and the tick
    /// ends by publishing the control plane's counts.
    /// Returns whether the tick moved anything (digests offered or
    /// delivered, retries re-sent) — the flush phase's convergence signal.
    fn tick<D: DataPlane + ?Sized>(
        &mut self,
        dp: &mut D,
        controller: &mut Controller,
        tick: u64,
        do_resync: bool,
        report: &mut ReplayReport,
        mut mitigation: Option<&mut MitigationLog>,
    ) -> bool {
        self.seq_buf.clear();
        dp.drain_seq_digests_into(&mut self.seq_buf);
        report.digests += self.seq_buf.len() as u64;
        if do_resync {
            dp.resync_labeled_into(&mut self.seq_buf);
        }
        if !self.seq_buf.is_empty() {
            self.digest_chan.offer(tick, &self.seq_buf);
        }
        self.digest_chan.deliver_into(tick, &mut self.delivered);
        if let Some(m) = mitigation.as_deref_mut() {
            // Attribute each flow's verdict to the phase of its first
            // *delivered* malicious digest — delivery is what drives the
            // install, and the delivered stream is seq-merged, so the
            // attribution is deterministic.
            for sd in &self.delivered {
                if sd.digest.malicious {
                    m.note_digest_phase(sd.digest.five.canonical(), sd.digest.phase);
                }
            }
        }
        controller.process_seq_digests_into(&self.delivered, &mut self.actions);
        for i in 0..self.actions.len() {
            let action = self.actions[i];
            self.send(dp, controller, action, 1, tick, mitigation.as_deref_mut());
        }
        controller.take_due_retries(tick, &mut self.due);
        for i in 0..self.due.len() {
            let (action, attempt) = self.due[i];
            self.send(dp, controller, action, attempt, tick, mitigation.as_deref_mut());
        }
        // Ruleset lifecycle: a staged (drift-retrained or scripted)
        // transaction rides the same fallible channel as per-flow
        // actions. Transport failures back off with the controller's retry
        // policy and never abandon the transaction, so a healed channel
        // always converges to the retrained generation. A rejection by the
        // data plane itself is final: resending cannot fix it, and it
        // would hold every later transaction behind it.
        let mut ruleset_moved = false;
        if let Some(txn) = controller.due_ruleset(tick).cloned() {
            match self.action_chan.send_ruleset(dp, &txn, tick) {
                Ok(()) => {
                    controller.ruleset_delivered();
                    ruleset_moved = true;
                }
                Err(IguardError::Switch(SwitchError::ChannelDown)) => {
                    controller.note_ruleset_failure(tick)
                }
                Err(_) => {
                    controller.ruleset_rejected();
                    ruleset_moved = true;
                }
            }
        }
        // Publish each control-plane count's growth since the last tick.
        static HANDLES: [OnceLock<&'static Counter>; CONTROL_ROWS] =
            [const { OnceLock::new() }; CONTROL_ROWS];
        let rows =
            control_rows(&controller.stats(), &self.digest_chan.stats(), &self.action_chan.stats());
        publish_growth(&HANDLES, &mut self.published, rows, |_| false);
        !self.seq_buf.is_empty()
            || !self.delivered.is_empty()
            || !self.due.is_empty()
            || ruleset_moved
    }

    fn send<D: DataPlane + ?Sized>(
        &mut self,
        dp: &mut D,
        controller: &mut Controller,
        action: ControlAction,
        attempt: u32,
        tick: u64,
        mitigation: Option<&mut MitigationLog>,
    ) {
        match self.action_chan.send(dp, action, tick) {
            Ok(()) => {
                if let ControlAction::InstallBlacklist(five) = action {
                    self.last_install_tick = Some(tick);
                    if let Some(m) = mitigation {
                        m.note_install(five.canonical(), tick);
                    }
                }
            }
            Err(_) => controller.note_send_failure(action, attempt, tick),
        }
    }

    /// Work still owed to the loop: digests in transit, queued retries,
    /// or an undelivered ruleset transaction.
    fn has_outstanding(&self, controller: &Controller) -> bool {
        self.digest_chan.has_in_flight()
            || controller.has_pending_retries()
            || controller.has_pending_ruleset()
    }
}

/// Stages on `controller` every scripted swap due by `tick`, advancing
/// `next` through `swaps` (sorted by tick).
fn stage_due_swaps(
    swaps: &[&(u64, RulesetTxn)],
    next: &mut usize,
    tick: u64,
    controller: &mut Controller,
) {
    while let Some((_, txn)) = swaps.get(*next).filter(|(at, _)| *at <= tick) {
        controller.stage_ruleset(txn.clone());
        *next += 1;
    }
}

/// Simulated controller crash: the in-memory state is gone; rebuild it
/// from the chosen survivor.
fn recover<D: DataPlane + ?Sized>(
    controller: &mut Controller,
    dp: &D,
    recovery: CrashRecovery,
    checkpoint: Option<&ControllerSnapshot>,
) {
    match recovery {
        CrashRecovery::RestoreCheckpoint => match checkpoint {
            Some(snap) => controller.restore_from(snap),
            // No checkpoint taken yet: recover to a pristine controller.
            None => controller.rebuild_from_blacklist(&[]),
        },
        CrashRecovery::RebuildFromDataPlane => {
            controller.rebuild_from_blacklist(&dp.blacklist_contents());
        }
    }
}

/// A pull-based packet supplier for [`replay_source`]. Successive calls
/// walk one fixed packet sequence — the concatenation of all batches must
/// not depend on `max`.
pub trait PacketSource {
    /// Returns the next batch of at most `max` packets with their
    /// ground-truth labels (`true` = malicious flow); empty at end of
    /// stream. A source that holds its packets returns sub-slices of them
    /// and leaves the buffers alone; a generator fills `pkts`/`labels`
    /// (owned by the replay loop, reused across batches, so the loop never
    /// allocates per batch) and returns them.
    fn next_batch<'a>(
        &'a mut self,
        max: usize,
        pkts: &'a mut Vec<Packet>,
        labels: &'a mut Vec<bool>,
    ) -> (&'a [Packet], &'a [bool]);
}

/// Zero-copy [`PacketSource`] over a materialised [`Trace`]: every batch
/// is a sub-slice of the trace.
#[derive(Clone, Debug)]
pub struct TraceSource<'t> {
    trace: &'t Trace,
    pos: usize,
}

impl<'t> TraceSource<'t> {
    /// A source positioned at the trace's first packet.
    pub fn new(trace: &'t Trace) -> Self {
        Self { trace, pos: 0 }
    }
}

impl PacketSource for TraceSource<'_> {
    fn next_batch<'a>(
        &'a mut self,
        max: usize,
        _pkts: &'a mut Vec<Packet>,
        _labels: &'a mut Vec<bool>,
    ) -> (&'a [Packet], &'a [bool]) {
        let start = self.pos;
        self.pos = (start + max).min(self.trace.len());
        (&self.trace.packets[start..self.pos], &self.trace.labels[start..self.pos])
    }
}

/// The million-flow generator: fills the loop's buffers, so memory is
/// O(batch), not O(trace).
impl PacketSource for StreamingTrace {
    fn next_batch<'a>(
        &'a mut self,
        max: usize,
        pkts: &'a mut Vec<Packet>,
        labels: &'a mut Vec<bool>,
    ) -> (&'a [Packet], &'a [bool]) {
        self.fill_next(max, pkts, labels);
        (pkts, labels)
    }
}

/// [`replay_source`] over a materialised [`Trace`], with a wire-exercise
/// parse failure raised as a panic: a trace whose packets came from
/// [`Packet::to_bytes`] re-parses by construction. `mitigation`, when
/// given, is filled as [`replay_source`] describes; `None` disables the
/// tracking entirely (no per-packet map work).
pub fn replay_chaos_traced<D: DataPlane + ?Sized>(
    trace: &Trace,
    data_plane: &mut D,
    controller: &mut Controller,
    cfg: &ReplayConfig,
    chaos: &ChaosConfig,
    mitigation: Option<&mut MitigationLog>,
) -> ReplayReport {
    replay_source(&mut TraceSource::new(trace), data_plane, controller, cfg, chaos, mitigation)
        .unwrap_or_else(|e| panic!("replay wire exercise failed: {e}"))
}

/// The replay loop: pulls `cfg.batch_size` packets at a time from
/// `source`, runs them through the data plane, and runs the control loop
/// under deterministic fault injection.
///
/// Each data-plane batch is one control-loop *tick*: digests drained from
/// the backend ride a [`DigestChannel`] governed by `chaos.plan`, the
/// controller processes whatever arrives (dedup'd on sequence tags), and
/// its actions go back over an [`ActionChannel`] whose failures feed the
/// controller's retry queue. After the source ends the loop keeps ticking
/// — bounded by `chaos.max_flush_ticks` — until delayed digests, retries
/// and resync sweeps drain, so eventual convergence is observable in the
/// returned report.
///
/// `mitigation`, when given, notes every truth-malicious packet against
/// its flow, and the control loop stamps the tick at which the flow's
/// blacklist install lands. Wire-exercise parse failures surface as typed
/// [`IguardError::Wire`] values — for sources of externally sourced
/// (pcap-derived or fuzzed) packets, where a malformed packet is an input
/// condition, not a codec bug.
pub fn replay_source<S: PacketSource + ?Sized, D: DataPlane + ?Sized>(
    source: &mut S,
    data_plane: &mut D,
    controller: &mut Controller,
    cfg: &ReplayConfig,
    chaos: &ChaosConfig,
    mut mitigation: Option<&mut MitigationLog>,
) -> Result<ReplayReport, IguardError> {
    let mut report = ReplayReport::default();
    let wl_start = data_plane.stats().whitelist;
    let mut latency_total = 0.0f64;
    let base_ns = cfg.latency.base_ns();
    let batch_size = cfg.batch_size.max(1);
    // All hot-loop buffers are allocated once and reused across batches.
    let mut pkts: Vec<Packet> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    let mut wire_buf: Vec<Packet> = Vec::new();
    let mut outcomes: Vec<ProcessOutcome> = Vec::with_capacity(batch_size);
    let mut ctl = ControlLoop {
        digest_chan: DigestChannel::new(chaos.plan.clone()),
        action_chan: ActionChannel::new(chaos.plan.clone(), chaos.tcam_capacity),
        seq_buf: Vec::new(),
        delivered: Vec::new(),
        actions: Vec::new(),
        due: Vec::new(),
        last_install_tick: None,
        // A reused controller's earlier counts are not this replay's.
        published: control_rows(&controller.stats(), &Default::default(), &Default::default()),
    };
    let mut checkpoint: Option<ControllerSnapshot> = None;
    let mut crash_pending = chaos.crash;
    // Scripted swaps staged in tick order, whatever order they were
    // scripted in (stable sort keeps same-tick swaps in script order, so
    // the later — higher-version — one supersedes as latest-wins).
    let mut swaps: Vec<&(u64, RulesetTxn)> = chaos.ruleset_swaps.iter().collect();
    swaps.sort_by_key(|(at, _)| *at);
    let mut next_swap = 0usize;
    let mut tick: u64 = 0;
    let (mut ts_min, mut ts_max) = (u64::MAX, 0u64);
    loop {
        let (batch, truths) = source.next_batch(batch_size, &mut pkts, &mut labels);
        if batch.is_empty() {
            break;
        }
        debug_assert_eq!(batch.len(), truths.len());
        if let Some(crash) = crash_pending {
            if crash.at_tick == tick {
                recover(controller, data_plane, crash.recovery, checkpoint.as_ref());
                crash_pending = None;
            }
        }
        stage_due_swaps(&swaps, &mut next_swap, tick, controller);
        // Wire exercise re-encodes into the scratch buffer; otherwise the
        // source's batch is fed as is.
        let batch: &[Packet] = if cfg.exercise_wire {
            wire_buf.clear();
            for pkt in batch {
                wire_buf.push(Packet::from_bytes(pkt.ts_ns, &pkt.to_bytes())?);
            }
            &wire_buf
        } else {
            batch
        };
        data_plane.process_batch(batch, &mut outcomes);
        debug_assert_eq!(outcomes.len(), batch.len());
        // Per-packet work is the confusion-matrix branch and the span
        // bounds only; everything additive (bytes, drops, loopback copies,
        // latency) folds into the report once per batch.
        let first_seq = report.packets;
        let mut mirrored = 0u64;
        let mut dropped = 0u64;
        let mut bytes = 0u64;
        for (i, ((outcome, pkt), &truth)) in outcomes.iter().zip(batch).zip(truths).enumerate() {
            bytes += pkt.wire_len as u64;
            ts_min = ts_min.min(pkt.ts_ns);
            ts_max = ts_max.max(pkt.ts_ns);
            let flagged = outcome.verdict == PacketVerdict::Drop;
            dropped += flagged as u64;
            match (truth, flagged) {
                (true, true) => report.tp += 1,
                (true, false) => report.fn_ += 1,
                (false, true) => report.fp += 1,
                (false, false) => report.tn += 1,
            }
            if truth {
                if let Some(m) = mitigation.as_deref_mut() {
                    m.note_malicious(pkt.five.canonical(), first_seq + i as u64, tick);
                }
            }
            mirrored += outcome.mirrored as u64;
        }
        report.packets += outcomes.len() as u64;
        report.bytes += bytes;
        report.dropped += dropped;
        report.loopback += mirrored;
        latency_total += (outcomes.len() as u64 + mirrored) as f64 * base_ns;
        // Controller runs continuously alongside the data plane: digests
        // drain (in arrival order) through the channel and actions apply
        // between batches.
        let do_resync = chaos.resync_interval.is_some_and(|iv| tick > 0 && tick % iv == 0);
        ctl.tick(data_plane, controller, tick, do_resync, &mut report, mitigation.as_deref_mut());
        if chaos.checkpoint_interval.is_some_and(|iv| tick % iv == 0) {
            checkpoint = Some(controller.snapshot());
        }
        tick += 1;
    }

    // Flush phase: the source is drained, but delayed digests, queued
    // retries and un-resynced labels may still be outstanding. Keep
    // ticking the control loop (resyncing every tick, since there is no
    // more packet work to interleave with) until a fully quiescent tick or
    // the budget runs out.
    let resync_enabled = chaos.resync_interval.is_some();
    let mut flush_ticks = 0u64;
    while flush_ticks < chaos.max_flush_ticks {
        // Swaps scripted past the end of the trace still stage (and then
        // hold the flush loop open until delivered).
        stage_due_swaps(&swaps, &mut next_swap, tick, controller);
        if !ctl.has_outstanding(controller) && !resync_enabled && next_swap >= swaps.len() {
            break;
        }
        let active = ctl.tick(
            data_plane,
            controller,
            tick,
            resync_enabled,
            &mut report,
            mitigation.as_deref_mut(),
        );
        tick += 1;
        flush_ticks += 1;
        if !active && !ctl.has_outstanding(controller) && next_swap >= swaps.len() {
            break;
        }
    }

    report.flush_ticks = flush_ticks;
    report.controller = controller.stats();
    report.digest_channel = ctl.digest_chan.stats();
    // The channel was offered every drained and every resynced digest.
    report.resync_digests = report.digest_channel.offered - report.digests;
    report.action_channel = ctl.action_chan.stats();
    report.ruleset_swaps = report.controller.rulesets_delivered;
    let heal = [ChannelKind::Digest, ChannelKind::Action]
        .into_iter()
        .filter_map(|ch| chaos.plan.heal_tick(ch))
        .max();
    if let (Some(heal), Some(last)) = (heal, ctl.last_install_tick) {
        if last >= heal {
            report.recovery_packets = (last - heal) * batch_size as u64;
        }
    }

    let wl_end = data_plane.stats().whitelist;
    report.wl_lookups = wl_end.lookups - wl_start.lookups;
    report.wl_hits = wl_end.hits - wl_start.hits;

    report.duration_secs = (ts_max.saturating_sub(ts_min) as f64 / 1e9).max(1e-9);
    report.avg_latency_ns = latency_total / report.packets.max(1) as f64;
    report.offered_gbps = report.bytes as f64 * 8.0 / report.duration_secs / 1e9;

    // Throughput: loopback copies consume pipe slots; control-plane
    // detours are capped by the CPU port.
    let total_slots = (report.packets + report.loopback) as f64;
    let pipe_share = report.packets as f64 / total_slots.max(1.0);
    let mut throughput = cfg.line_rate_gbps * pipe_share;
    let cp = cfg.control_plane;
    if cp.detour_fraction > 0.0 {
        let detoured = throughput * cp.detour_fraction;
        let passed = throughput - detoured + detoured.min(cp.cp_port_gbps);
        throughput = passed.min(cfg.line_rate_gbps);
    }
    report.throughput_gbps = throughput.min(cfg.line_rate_gbps);
    report.digest_kbps = controller.overhead_kbps(report.duration_secs);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use iguard_core::rules::{Hypercube, RuleSet};
    use iguard_flow::table::FlowTableConfig;
    use iguard_runtime::rng::Rng;
    use iguard_synth::attacks::Attack;
    use iguard_synth::benign::benign_trace;
    use iguard_synth::streaming::StreamingTrace;

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

    /// FL whitelist benign iff std of IPD (feature 10) above a floor —
    /// flood tooling is machine-regular, benign jitter is not.
    fn fl_ipd_jitter_above(floor: f32) -> RuleSet {
        let mut lo = vec![f32::NEG_INFINITY; 13];
        let hi = vec![f32::INFINITY; 13];
        lo[10] = floor;
        RuleSet {
            bounds: vec![(0.0, 2000.0); 13],
            whitelist: vec![Hypercube { lo, hi }],
            total_regions: 2,
        }
    }

    fn pipeline(fl: RuleSet) -> Pipeline {
        Pipeline::new(
            PipelineConfig {
                flow_table: FlowTableConfig {
                    slots_per_table: 8192,
                    pkt_threshold: 4,
                    ..Default::default()
                },
                drop_malicious: true,
                log_compress: false,
                ..Default::default()
            },
            fl,
            accept_all(4),
        )
    }

    #[test]
    fn benign_trace_mostly_forwarded() {
        let mut rng = Rng::seed_from_u64(1);
        let trace = benign_trace(150, 5.0, &mut rng);
        let mut p = pipeline(accept_all(13));
        let mut c = Controller::new(ControllerConfig::default());
        let r = replay(&trace, &mut p, &mut c, &ReplayConfig::default());
        assert_eq!(r.packets as usize, trace.len());
        assert_eq!(r.fp, 0, "accept-all whitelist must not drop benign");
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn flood_attack_blocked_and_blacklisted() {
        let mut rng = Rng::seed_from_u64(2);
        let benign = benign_trace(100, 5.0, &mut rng);
        let attack = Attack::UdpDdos.trace(30, 5.0, &mut rng);
        let trace = iguard_synth::trace::Trace::merge(vec![benign, attack]);
        let mut p = pipeline(fl_ipd_jitter_above(0.0008));
        let mut c = Controller::new(ControllerConfig::default());
        let r = replay(&trace, &mut p, &mut c, &ReplayConfig::default());
        let cm = r.confusion();
        assert!(cm.recall() > 0.8, "recall {} too low", cm.recall());
        assert!(p.blacklist_len() > 0, "malicious flows should be blacklisted");
        assert!(r.digests > 0);
    }

    /// Unwrap-audit regression: the checked wire-exercise entry returns
    /// the identical report to the infallible convenience wrapper on a
    /// self-generated trace — converting the reparse `expect` to a typed
    /// `Result` changed no accounting.
    #[test]
    fn checked_wire_replay_matches_infallible() {
        let mut rng = Rng::seed_from_u64(11);
        let trace = benign_trace(60, 3.0, &mut rng);
        let cfg = ReplayConfig::default().with_exercise_wire(true);
        let run = |checked: bool| -> ReplayReport {
            let mut p = pipeline(accept_all(13));
            let mut c = Controller::new(ControllerConfig::default());
            if checked {
                replay_source(
                    &mut TraceSource::new(&trace),
                    &mut p,
                    &mut c,
                    &cfg,
                    &ChaosConfig::default(),
                    None,
                )
                .expect("self-generated trace round-trips")
            } else {
                replay_chaos_traced(&trace, &mut p, &mut c, &cfg, &ChaosConfig::default(), None)
            }
        };
        let (a, b) = (run(true), run(false));
        assert_eq!(a.packets, b.packets);
        assert_eq!((a.tp, a.fp, a.tn, a.fn_), (b.tp, b.fp, b.tn, b.fn_));
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.bytes, b.bytes);
    }

    /// Unwrap-audit regression: a malformed wire buffer surfaces as the
    /// typed [`IguardError::Wire`] the checked replay propagates, not a
    /// panic.
    #[test]
    fn wire_parse_failure_is_typed() {
        let mut rng = Rng::seed_from_u64(12);
        let trace = benign_trace(2, 1.0, &mut rng);
        let bytes = trace.packets[0].to_bytes();
        let err = Packet::from_bytes(0, &bytes[..bytes.len() - 4]).unwrap_err();
        let lifted: IguardError = err.into();
        assert!(matches!(lifted, IguardError::Wire(_)), "{lifted}");
    }

    #[test]
    fn latency_base_is_532_8ns() {
        let m = LatencyModel::default();
        assert!((m.base_ns() - 532.8).abs() < 1e-9);
    }

    #[test]
    fn loopback_raises_avg_latency() {
        let mut rng = Rng::seed_from_u64(3);
        let trace = benign_trace(100, 5.0, &mut rng);
        let mut p = pipeline(accept_all(13));
        let mut c = Controller::new(ControllerConfig::default());
        let r = replay(&trace, &mut p, &mut c, &ReplayConfig::default());
        assert!(r.avg_latency_ns >= 532.8);
        assert!(r.avg_latency_ns < 2.0 * 532.8);
        assert!(r.loopback > 0);
    }

    #[test]
    fn data_plane_throughput_beats_control_plane_detour() {
        let mut rng = Rng::seed_from_u64(4);
        let trace = benign_trace(200, 2.0, &mut rng);
        let mk_report = |cp: ControlPlaneModel| {
            let mut p = pipeline(accept_all(13));
            let mut c = Controller::new(ControllerConfig::default());
            let cfg = ReplayConfig { control_plane: cp, ..Default::default() };
            replay(&trace, &mut p, &mut c, &cfg)
        };
        let iguard = mk_report(ControlPlaneModel::iguard());
        let horuseye = mk_report(ControlPlaneModel::control_plane_detection());
        assert!(
            iguard.throughput_gbps > 1.4 * horuseye.throughput_gbps,
            "iGuard {} vs control-plane {}",
            iguard.throughput_gbps,
            horuseye.throughput_gbps
        );
        // This synthetic mix has short flows (frequent blue-path mirrors);
        // the App. B.1 bench uses long flows and lands near line rate.
        assert!(iguard.throughput_gbps > 30.0, "iGuard throughput {}", iguard.throughput_gbps);
    }

    #[test]
    fn wire_exercise_is_lossless() {
        let mut rng = Rng::seed_from_u64(5);
        let trace = benign_trace(40, 1.0, &mut rng);
        let run = |wire: bool| {
            let mut p = pipeline(accept_all(13));
            let mut c = Controller::new(ControllerConfig::default());
            let cfg = ReplayConfig { exercise_wire: wire, ..Default::default() };
            replay(&trace, &mut p, &mut c, &cfg)
        };
        let direct = run(false);
        let parsed = run(true);
        assert_eq!(direct.packets, parsed.packets);
        assert_eq!(direct.dropped, parsed.dropped);
        assert_eq!(direct.tp, parsed.tp);
    }

    #[test]
    fn stream_replay_matches_materialised_replay() {
        use iguard_synth::streaming::StreamingConfig;
        let scfg = StreamingConfig::default().with_seed(11).with_total_flows(400);
        let trace = StreamingTrace::new(scfg.clone()).materialize();
        let run_mat = |cfg: &ReplayConfig| {
            let mut p = pipeline(fl_ipd_jitter_above(0.0008));
            let mut c = Controller::new(ControllerConfig::default());
            let mut log = MitigationLog::default();
            let r = replay_chaos_traced(
                &trace,
                &mut p,
                &mut c,
                cfg,
                &ChaosConfig::default(),
                Some(&mut log),
            );
            (r, p.blacklist_contents(), log.records)
        };
        let run_stream = |cfg: &ReplayConfig| {
            let mut src = StreamingTrace::new(scfg.clone());
            let mut p = pipeline(fl_ipd_jitter_above(0.0008));
            let mut c = Controller::new(ControllerConfig::default());
            let mut log = MitigationLog::default();
            let r = replay_source(
                &mut src,
                &mut p,
                &mut c,
                cfg,
                &ChaosConfig::default(),
                Some(&mut log),
            )
            .expect("generated packets need no parsing");
            (r, p.blacklist_contents(), log.records)
        };
        let cfg = ReplayConfig::default().with_batch_size(64);
        let (m, m_bl, m_log) = run_mat(&cfg);
        let (s, s_bl, s_log) = run_stream(&cfg);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (s.tp, s.fp, s.tn, s.fn_));
        assert_eq!(m.packets, s.packets);
        assert_eq!(m.bytes, s.bytes);
        assert_eq!(m.dropped, s.dropped);
        assert_eq!(m.loopback, s.loopback);
        assert_eq!(m.digests, s.digests);
        assert_eq!(m.wl_lookups, s.wl_lookups);
        assert_eq!(format!("{m:?}"), format!("{s:?}"), "whole report differs");
        assert_eq!(m_bl, s_bl);
        assert_eq!(m_log, s_log, "mitigation records differ");
        assert!(!m_log.is_empty(), "stream must mitigate some flows");
        assert!(m.packets > 1000, "trace too small to be meaningful");
        // Wire exercise applies to streams too: the round-tripped stream
        // replays exactly like the round-tripped trace, and losslessly.
        let wire = cfg.with_exercise_wire(true);
        let (mw, mw_bl, mw_log) = run_mat(&wire);
        let (sw, sw_bl, sw_log) = run_stream(&wire);
        assert_eq!(format!("{mw:?}"), format!("{sw:?}"), "wire-exercised report differs");
        assert_eq!((mw_bl, mw_log), (sw_bl, sw_log));
        assert_eq!((sw.tp, sw.fp, sw.tn, sw.fn_), (s.tp, s.fp, s.tn, s.fn_));
        assert_eq!((sw.packets, sw.bytes, sw.dropped), (s.packets, s.bytes, s.dropped));
    }

    #[test]
    fn scripted_ruleset_swap_retries_until_channel_heals() {
        use crate::tcam::{RangeEntry, RangeTable};
        let mut rng = Rng::seed_from_u64(6);
        let trace = benign_trace(120, 5.0, &mut rng);
        let mut p = pipeline(accept_all(13));
        let mut c = Controller::new(ControllerConfig::default());
        let mut table = RangeTable::new(vec![4, 4]);
        table.push(RangeEntry { fields: vec![(0, 7), (0, 15)], priority: 0 });
        let txn = RulesetTxn::full_install(1, &table, accept_all(13));
        // The action channel is down for the first 10 ticks; the swap is
        // staged at tick 2 and must survive on backoff until the heal.
        let chaos = ChaosConfig::default()
            .with_plan(FaultPlan::none().with_outage(ChannelKind::Action, 0, 10).with_seed(5))
            .with_ruleset_swap(2, txn);
        let cfg = ReplayConfig::default().with_batch_size(8);
        let r = replay_chaos_traced(&trace, &mut p, &mut c, &cfg, &chaos, None);
        assert_eq!(r.ruleset_swaps, 1, "swap must deliver once the channel heals");
        assert!(r.controller.ruleset_retries >= 1, "outage must force at least one retry");
        assert_eq!(p.ruleset_version(), 1);
        assert!(!c.has_pending_ruleset());
    }

    /// A zero resync or checkpoint interval is "disabled", not a
    /// remainder by zero: it replays exactly like an unset one.
    #[test]
    fn zero_intervals_replay_like_unset_ones() {
        let mut rng = Rng::seed_from_u64(9);
        let benign = benign_trace(60, 5.0, &mut rng);
        let attack = Attack::UdpDdos.trace(15, 5.0, &mut rng);
        let trace = iguard_synth::trace::Trace::merge(vec![benign, attack]);
        let zero = ChaosConfig::default().with_resync_interval(0).with_checkpoint_interval(0);
        assert_eq!((zero.resync_interval, zero.checkpoint_interval), (None, None));
        let run = |chaos: &ChaosConfig| {
            let mut p = pipeline(fl_ipd_jitter_above(0.0008));
            let mut c = Controller::new(ControllerConfig::default());
            let cfg = ReplayConfig::default().with_batch_size(16);
            let r = replay_chaos_traced(&trace, &mut p, &mut c, &cfg, chaos, None);
            format!("{r:?} {:?}", p.blacklist_contents())
        };
        assert_eq!(run(&zero), run(&ChaosConfig::default()));
        // A crash restoring a checkpoint that was never taken falls back to
        // a pristine controller, as with no checkpoint schedule at all.
        let crash = |c: ChaosConfig| c.with_crash(3, CrashRecovery::RestoreCheckpoint);
        assert_eq!(run(&crash(zero)), run(&crash(ChaosConfig::default())));
    }

    #[test]
    fn stream_replay_is_batch_size_invariant() {
        use iguard_synth::streaming::StreamingConfig;
        let scfg = StreamingConfig::default().with_seed(12).with_total_flows(200);
        let run = |batch: usize| {
            let mut src = StreamingTrace::new(scfg.clone());
            let mut p = pipeline(fl_ipd_jitter_above(0.0008));
            let mut c = Controller::new(ControllerConfig::default());
            let cfg = ReplayConfig::default().with_batch_size(batch);
            replay_source(&mut src, &mut p, &mut c, &cfg, &ChaosConfig::default(), None)
                .expect("generated packets need no parsing")
        };
        let a = run(97);
        let b = run(97);
        // Same batch size → fully deterministic.
        assert_eq!((a.tp, a.fp, a.tn, a.fn_), (b.tp, b.fp, b.tn, b.fn_));
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.digests, b.digests);
        // Across batch sizes the packet stream is identical (batch size is
        // only the control-feedback granularity, which may shift installs).
        let c = run(1);
        let d = run(4096);
        for r in [&c, &d] {
            assert_eq!(a.packets, r.packets);
            assert_eq!(a.bytes, r.bytes);
            assert_eq!(a.tp + a.fn_, r.tp + r.fn_, "ground-truth positives differ");
            assert_eq!(a.fp + a.tn, r.fp + r.tn, "ground-truth negatives differ");
        }
    }

    #[test]
    fn mitigation_log_times_first_malicious_packet_to_install() {
        let mut rng = Rng::seed_from_u64(7);
        let benign = benign_trace(80, 5.0, &mut rng);
        let attack = Attack::UdpDdos.trace(20, 5.0, &mut rng);
        let trace = iguard_synth::trace::Trace::merge(vec![benign, attack]);
        let mut p = pipeline(fl_ipd_jitter_above(0.0008));
        let mut c = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let r = replay_chaos_traced(
            &trace,
            &mut p,
            &mut c,
            &ReplayConfig::default(),
            &ChaosConfig::default(),
            Some(&mut log),
        );
        assert!(!log.records.is_empty(), "flood flows must get mitigation records");
        // False-positive installs (benign flows the FL rules rejected)
        // carry no mitigation timeline, so records ≤ installs.
        assert!(log.records.len() <= p.blacklist_len());
        for rec in &log.records {
            assert!(rec.installed_tick >= rec.first_seen_tick);
            // A flow needs pkt_threshold packets to reach the blue path,
            // so its exposure is at least that many packets.
            assert!(rec.packets_before_install >= 4, "exposure {}", rec.packets_before_install);
        }
        // Packet-axis samples are bounded by the flow's own traffic.
        let ttm = log.ttm_packets_sorted();
        assert!(*ttm.last().unwrap() <= r.tp + r.fn_);
        assert_eq!(ttm.len(), log.records.len());
        // Fast per-packet feedback (batch 1) mitigates within a few
        // packets of the classification threshold.
        assert!(ttm[ttm.len() / 2] <= 16, "median exposure {} packets", ttm[ttm.len() / 2]);
    }

    #[test]
    fn mitigation_log_is_identical_across_backends() {
        use crate::sharded::{ShardedPipeline, ShardedPipelineConfig};
        let mut rng = Rng::seed_from_u64(8);
        let benign = benign_trace(60, 5.0, &mut rng);
        let attack = Attack::TcpDdos.trace(15, 5.0, &mut rng);
        let trace = iguard_synth::trace::Trace::merge(vec![benign, attack]);
        let cfg = ReplayConfig::default().with_batch_size(32);
        let run = |shards: Option<usize>| {
            let mut c = Controller::new(ControllerConfig::default());
            let mut log = MitigationLog::default();
            let fl = fl_ipd_jitter_above(0.0008);
            match shards {
                None => {
                    let mut p = pipeline(fl);
                    replay_chaos_traced(
                        &trace,
                        &mut p,
                        &mut c,
                        &cfg,
                        &ChaosConfig::default(),
                        Some(&mut log),
                    );
                }
                Some(s) => {
                    let pcfg = PipelineConfig {
                        flow_table: FlowTableConfig {
                            slots_per_table: 8192,
                            pkt_threshold: 4,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    let mut p = ShardedPipeline::new(
                        ShardedPipelineConfig::from(pcfg).with_shards(s),
                        fl,
                        accept_all(4),
                    );
                    replay_chaos_traced(
                        &trace,
                        &mut p,
                        &mut c,
                        &cfg,
                        &ChaosConfig::default(),
                        Some(&mut log),
                    );
                }
            }
            (log.records.clone(), log.unmitigated())
        };
        let serial = run(None);
        for shards in [1, 8] {
            let sharded = run(Some(shards));
            // Collision sets differ between the serial and sharded tables,
            // so only the sharded grid must agree record-for-record; the
            // serial run pins the same unmitigated count.
            if shards == 1 {
                assert_eq!(sharded.1, serial.1, "unmitigated count differs from serial");
            } else {
                assert_eq!(sharded, run(Some(1)), "sharded mitigation records differ");
            }
            assert!(!sharded.0.is_empty());
        }
    }
}
