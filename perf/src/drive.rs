//! The benchmark's replay loop. It makes the same public calls in the same
//! order as `iguard_switch::replay::replay_chaos_traced` with the ideal
//! (fault-free) `ChaosConfig` — closed loop, as fast as possible: each
//! tick is one `process_batch` followed by one control tick, and packet
//! timestamps drive flow semantics only, never pacing. Unlike the library
//! loop it reads a clock at every tick boundary (for the per-tick
//! latency), and in a traced rep also around every layer call. Spans go
//! into a buffer preallocated before the loop starts and are folded into
//! per-layer totals after it ends.

use std::time::Instant;

use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::FaultPlan;
use iguard_switch::channel::{ActionChannel, DigestChannel};
use iguard_switch::controller::Controller;
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{ControlAction, PacketVerdict, ProcessOutcome, SeqDigest};
use iguard_switch::replay::ReplayReport;
use iguard_switch::ruleset::RulesetTxn;
use iguard_synth::trace::Trace;

/// Post-trace control ticks allowed to drain in-flight work (the
/// `ChaosConfig` default).
const MAX_FLUSH_TICKS: u64 = 1024;

/// The layer a span of the traced loop is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `DataPlane::process_batch`.
    Dataplane,
    /// The loop's own confusion-matrix and byte accounting.
    Accounting,
    /// `DataPlane::drain_seq_digests_into`.
    DigestDrain,
    /// `DigestChannel::offer` + `deliver_into`.
    Channel,
    /// `Controller::process_seq_digests_into`.
    Controller,
    /// `ActionChannel::send` of every action, plus due retries.
    Action,
    /// Ruleset staging and `ActionChannel::send_ruleset`.
    Ruleset,
    /// The traced rep's own `overload_stats` sample (pressure high-water).
    Probe,
}

/// Every layer, in declaration order (`LAYERS[l as usize] == l`).
pub const LAYERS: [Layer; 8] = [
    Layer::Dataplane,
    Layer::Accounting,
    Layer::DigestDrain,
    Layer::Channel,
    Layer::Controller,
    Layer::Action,
    Layer::Ruleset,
    Layer::Probe,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dataplane => "dataplane",
            Layer::Accounting => "accounting",
            Layer::DigestDrain => "digest_drain",
            Layer::Channel => "channel",
            Layer::Controller => "controller",
            Layer::Action => "action",
            Layer::Ruleset => "ruleset",
            Layer::Probe => "probe",
        }
    }
}

/// One layer call, in nanoseconds since the loop began.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
}

/// Clock of one rep: per-tick wall times always, per-layer spans when
/// tracing.
pub struct Recorder {
    tracing: bool,
    origin: Instant,
    last: u64,
    tick_start: u64,
    pub tick_ns: Vec<u64>,
    spans: Vec<Span>,
    pub wall_ns: u64,
}

impl Recorder {
    /// A recorder with room for `ticks` ticks, so the loop never grows it.
    pub fn new(ticks: usize, tracing: bool) -> Self {
        let cap = ticks + MAX_FLUSH_TICKS as usize;
        Self {
            tracing,
            origin: Instant::now(),
            last: 0,
            tick_start: 0,
            tick_ns: Vec::with_capacity(cap),
            spans: Vec::with_capacity(if tracing { cap * LAYERS.len() } else { 0 }),
            wall_ns: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self) {
        self.origin = Instant::now();
    }

    #[inline]
    fn start_tick(&mut self) {
        self.tick_start = self.now();
        self.last = self.tick_start;
    }

    /// Closes the span that began at the previous mark.
    #[inline]
    fn mark(&mut self, layer: Layer) {
        if self.tracing {
            let t = self.now();
            self.spans.push(Span { layer, start: self.last, end: t });
            self.last = t;
        }
    }

    #[inline]
    fn end_tick(&mut self) {
        let t = if self.tracing { self.last } else { self.now() };
        self.tick_ns.push(t - self.tick_start);
    }

    /// Total span time per layer, indexed by `Layer as usize`.
    pub fn layer_totals(&self) -> [u64; LAYERS.len()] {
        let mut totals = [0u64; LAYERS.len()];
        for s in &self.spans {
            totals[s.layer as usize] += s.end - s.start;
        }
        totals
    }
}

/// What one rep did, counted by the loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub packets: u64,
    pub bytes: u64,
    pub tp: u64,
    pub fp: u64,
    pub tn: u64,
    pub fn_: u64,
    pub dropped: u64,
    pub mirrored: u64,
    pub digests: u64,
    pub actions: u64,
    pub installs: u64,
    pub action_failures: u64,
    pub ruleset_failures: u64,
    pub swaps_delivered: u64,
    pub ticks: u64,
    pub flush_ticks: u64,
    /// Highest `overload_stats().pressure.pressure_milli` seen after a
    /// batch (traced reps only).
    pub pressure_hwm_milli: u32,
}

impl Counts {
    /// Control operations that failed or were abandoned.
    pub fn failed(&self) -> u64 {
        self.action_failures + self.ruleset_failures
    }
}

/// The replay-visible outputs two runs of the same inputs must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub confusion: (u64, u64, u64, u64),
    pub packets: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub loopback: u64,
    pub digests: u64,
    pub swaps: u64,
    pub ruleset_version: u64,
    pub blacklist: Vec<FiveTuple>,
}

impl Fingerprint {
    pub fn of_loop(c: &Counts, dp: &dyn DataPlane) -> Self {
        Self {
            confusion: (c.tp, c.fp, c.tn, c.fn_),
            packets: c.packets,
            bytes: c.bytes,
            dropped: c.dropped,
            loopback: c.mirrored,
            digests: c.digests,
            swaps: c.swaps_delivered,
            ruleset_version: dp.ruleset_version(),
            blacklist: dp.blacklist_contents(),
        }
    }

    pub fn of_report(r: &ReplayReport, dp: &dyn DataPlane) -> Self {
        Self {
            confusion: (r.tp, r.fp, r.tn, r.fn_),
            packets: r.packets,
            bytes: r.bytes,
            dropped: r.dropped,
            loopback: r.loopback,
            digests: r.digests,
            swaps: r.ruleset_swaps,
            ruleset_version: dp.ruleset_version(),
            blacklist: dp.blacklist_contents(),
        }
    }

    /// One-line form for gate messages (the blacklist by length).
    pub fn summary(&self) -> String {
        format!(
            "confusion={:?} packets={} dropped={} digests={} swaps={} version={} blacklist_len={}",
            self.confusion,
            self.packets,
            self.dropped,
            self.digests,
            self.swaps,
            self.ruleset_version,
            self.blacklist.len()
        )
    }
}

/// Controller-side buffers of the loop, allocated once per rep.
struct Control {
    digest_chan: DigestChannel,
    action_chan: ActionChannel,
    seq_buf: Vec<SeqDigest>,
    delivered: Vec<SeqDigest>,
    actions: Vec<ControlAction>,
    due: Vec<(ControlAction, u32)>,
}

impl Control {
    fn send(
        &mut self,
        dp: &mut dyn DataPlane,
        controller: &mut Controller,
        action: ControlAction,
        attempt: u32,
        tick: u64,
        c: &mut Counts,
    ) {
        c.actions += 1;
        match self.action_chan.send(dp, action, tick) {
            Ok(()) => c.installs += matches!(action, ControlAction::InstallBlacklist(_)) as u64,
            Err(_) => {
                c.action_failures += 1;
                controller.note_send_failure(action, attempt, tick);
            }
        }
    }

    /// One control tick; returns whether it moved anything.
    fn tick(
        &mut self,
        dp: &mut dyn DataPlane,
        controller: &mut Controller,
        tick: u64,
        c: &mut Counts,
        rec: &mut Recorder,
    ) -> bool {
        self.seq_buf.clear();
        dp.drain_seq_digests_into(&mut self.seq_buf);
        c.digests += self.seq_buf.len() as u64;
        rec.mark(Layer::DigestDrain);
        if !self.seq_buf.is_empty() {
            self.digest_chan.offer(tick, &self.seq_buf);
        }
        self.digest_chan.deliver_into(tick, &mut self.delivered);
        rec.mark(Layer::Channel);
        controller.process_seq_digests_into(&self.delivered, &mut self.actions);
        rec.mark(Layer::Controller);
        for i in 0..self.actions.len() {
            self.send(dp, controller, self.actions[i], 1, tick, c);
        }
        controller.take_due_retries(tick, &mut self.due);
        for i in 0..self.due.len() {
            let (action, attempt) = self.due[i];
            self.send(dp, controller, action, attempt, tick, c);
        }
        rec.mark(Layer::Action);
        let mut swapped = false;
        if let Some(txn) = controller.due_ruleset(tick).cloned() {
            match self.action_chan.send_ruleset(dp, &txn, tick) {
                Ok(()) => {
                    controller.ruleset_delivered();
                    c.swaps_delivered += 1;
                    swapped = true;
                }
                Err(_) => {
                    c.ruleset_failures += 1;
                    controller.note_ruleset_failure(tick);
                }
            }
        }
        rec.mark(Layer::Ruleset);
        !self.seq_buf.is_empty() || !self.delivered.is_empty() || !self.due.is_empty() || swapped
    }

    fn has_outstanding(&self, controller: &Controller) -> bool {
        self.digest_chan.has_in_flight()
            || controller.has_pending_retries()
            || controller.has_pending_ruleset()
    }
}

/// Replays `trace` through `dp` and `controller` in `batch`-packet ticks,
/// staging each `(tick, txn)` of `swaps` at the start of its tick.
pub fn replay(
    trace: &Trace,
    batch: usize,
    swaps: &[(u64, RulesetTxn)],
    dp: &mut dyn DataPlane,
    controller: &mut Controller,
    rec: &mut Recorder,
) -> Counts {
    let mut c = Counts::default();
    let mut outcomes: Vec<ProcessOutcome> = Vec::with_capacity(batch);
    let mut ctl = Control {
        digest_chan: DigestChannel::new(FaultPlan::none()),
        action_chan: ActionChannel::new(FaultPlan::none(), usize::MAX),
        seq_buf: Vec::new(),
        delivered: Vec::new(),
        actions: Vec::new(),
        due: Vec::new(),
    };
    let mut next_swap = 0;
    let mut stage_due = |tick: u64, controller: &mut Controller| {
        while next_swap < swaps.len() && swaps[next_swap].0 <= tick {
            controller.stage_ruleset(swaps[next_swap].1.clone());
            next_swap += 1;
        }
        next_swap >= swaps.len()
    };
    let mut tick = 0u64;
    rec.begin();
    for (pkts, labels) in trace.packets.chunks(batch).zip(trace.labels.chunks(batch)) {
        rec.start_tick();
        stage_due(tick, controller);
        rec.mark(Layer::Ruleset);
        dp.process_batch(pkts, &mut outcomes);
        rec.mark(Layer::Dataplane);
        let (mut bytes, mut dropped, mut mirrored) = (0u64, 0u64, 0u64);
        for ((o, p), &truth) in outcomes.iter().zip(pkts).zip(labels) {
            bytes += p.wire_len as u64;
            let flagged = o.verdict == PacketVerdict::Drop;
            dropped += flagged as u64;
            match (truth, flagged) {
                (true, true) => c.tp += 1,
                (true, false) => c.fn_ += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
            }
            mirrored += o.mirrored as u64;
        }
        c.packets += outcomes.len() as u64;
        c.bytes += bytes;
        c.dropped += dropped;
        c.mirrored += mirrored;
        rec.mark(Layer::Accounting);
        if rec.tracing {
            c.pressure_hwm_milli =
                c.pressure_hwm_milli.max(dp.overload_stats().pressure.pressure_milli);
            rec.mark(Layer::Probe);
        }
        ctl.tick(dp, controller, tick, &mut c, rec);
        rec.end_tick();
        tick += 1;
    }
    c.ticks = tick;
    while c.flush_ticks < MAX_FLUSH_TICKS {
        rec.start_tick();
        let all_staged = stage_due(tick, controller);
        rec.mark(Layer::Ruleset);
        if !ctl.has_outstanding(controller) && all_staged {
            break;
        }
        let active = ctl.tick(dp, controller, tick, &mut c, rec);
        rec.end_tick();
        tick += 1;
        c.flush_ticks += 1;
        if !active && !ctl.has_outstanding(controller) && all_staged {
            break;
        }
    }
    rec.wall_ns = rec.now();
    c
}
