//! The control plane: digest consumption and blacklist management.
//!
//! The controller receives a digest whenever the data plane classifies a
//! flow, releases the flow's stateful storage, and — for malicious flows —
//! installs a blacklist rule, evicting old entries FIFO or LRU when the
//! table is full (paper §3.3.2). It also accounts control-plane bandwidth
//! for the App. B.2 comparison.
//!
//! ## Hardening (PR 4)
//!
//! The digest and action paths between switch and controller are lossy in
//! practice (dropped digests, duplicated retransmissions, gRPC write
//! failures, TCAM-full rejections). This module makes the controller safe
//! under those faults:
//!
//! * **Idempotent digest processing.** [`Controller::process_seq_digests_into`]
//!   dedups on the global packet sequence tag carried by [`SeqDigest`],
//!   over a bounded sliding window, so a duplicated digest cannot
//!   double-count bandwidth, churn eviction state, or re-issue installs.
//! * **Bounded retries with backoff.** Failed action sends are re-queued
//!   by [`Controller::note_send_failure`] with deterministic exponential
//!   backoff plus seeded jitter, capped at
//!   [`RetryPolicy::max_attempts`]; the due ones are re-drained each tick
//!   via [`Controller::take_due_retries`].
//! * **Graceful degradation.** When the retry queue saturates, the
//!   controller sheds the lowest-priority work first (flow-storage clears
//!   before blacklist removes before installs) and raises a
//!   telemetry-visible `degraded` flag with hysteresis, instead of growing
//!   without bound.
//! * **Checkpoint / rebuild.** [`Controller::snapshot`] /
//!   [`Controller::restore_from`] round-trip the complete mutable state
//!   (including the retry RNG, so the jitter stream resumes exactly);
//!   [`Controller::rebuild_from_blacklist`] cold-starts a crashed
//!   controller from the data plane's installed rules.

use std::collections::VecDeque;

use iguard_core::drift::{DriftConfig, DriftDetector};
use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::hash::{FlowMap, FlowSet};
use iguard_runtime::Rng;
use iguard_telemetry::counter;

use crate::pipeline::{ControlAction, Digest, SeqDigest};
use crate::ruleset::RulesetTxn;

/// Blacklist eviction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    Fifo,
    Lru,
}

/// Retry behaviour for failed control-plane action sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts per action before giving up (first send
    /// included), at which point the action is counted exhausted.
    pub max_attempts: u32,
    /// Backoff before attempt `n` is `min(base << (n-1), max)` ticks.
    pub base_backoff_ticks: u64,
    pub max_backoff_ticks: u64,
    /// Uniform jitter in `0..=jitter_ticks` added to each backoff, drawn
    /// from the controller's own seeded stream (deterministic).
    pub jitter_ticks: u64,
    /// Retry-queue capacity; beyond it, lowest-priority work is shed.
    pub queue_cap: usize,
    /// Seed of the jitter RNG stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// Tick at which a re-send falls due when the `attempts`-th failed
    /// send happened at `tick`: `min(base << (attempts - 1), max)` ticks
    /// of backoff plus one uniform jitter draw from `rng` (no draw when
    /// jitter is off). Per-flow retries and ruleset re-sends both go
    /// through here, so they back off alike.
    fn due_after(&self, attempts: u32, tick: u64, rng: &mut Rng) -> u64 {
        let shift = attempts.saturating_sub(1).min(62);
        let backoff =
            self.base_backoff_ticks.saturating_shl(shift).min(self.max_backoff_ticks).max(1);
        let jitter = if self.jitter_ticks > 0 { rng.gen_range(0..=self.jitter_ticks) } else { 0 };
        tick + backoff + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_backoff_ticks: 1,
            max_backoff_ticks: 64,
            jitter_ticks: 1,
            queue_cap: 256,
            seed: 0x0C11_7E12_1E72_11A5,
        }
    }
}

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Maximum blacklist entries the data plane can hold.
    pub blacklist_capacity: usize,
    pub policy: EvictionPolicy,
    /// Bytes accounted per digest (13.125 for iGuard, ~65.125 for designs
    /// that ship flow features to the control plane).
    pub digest_bytes: f64,
    /// Sliding dedup window (in digests) for sequence-tagged processing.
    /// 0 disables dedup. Must exceed the channel's maximum
    /// duplicate-delivery distance for exactly-once semantics.
    pub dedup_window: usize,
    pub retry: RetryPolicy,
    /// Drift detection over the admitted digest stream; `None` (the
    /// default) turns the adaptation loop off.
    pub drift: Option<DriftConfig>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            blacklist_capacity: 4096,
            policy: EvictionPolicy::Fifo,
            digest_bytes: crate::pipeline::DIGEST_BYTES_IGUARD,
            dedup_window: 4096,
            retry: RetryPolicy::default(),
            drift: None,
        }
    }
}

/// An action awaiting re-send after a failed attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PendingRetry {
    action: ControlAction,
    /// Attempts already made (≥1 when queued).
    attempt: u32,
    /// Tick at/after which the re-send is due.
    due: u64,
}

/// A staged ruleset transaction awaiting delivery to the data plane.
///
/// Unlike per-flow [`PendingRetry`] work, a staged ruleset is never
/// abandoned to transport failures: it is the only path off a drifted
/// model, and replays are idempotent (the plane no-ops versions it already
/// holds), so the controller re-sends it with capped backoff until the
/// channel heals — which is what lets retraining converge after an
/// arbitrarily long outage. Only a rejection by the data plane itself
/// drops it ([`Controller::ruleset_rejected`]).
struct PendingRuleset {
    txn: RulesetTxn,
    /// Send attempts made so far.
    attempts: u32,
    /// Tick at/after which the next send is due.
    due: u64,
}

/// Shedding priority: higher keeps its retry-queue slot longer. Losing a
/// `ClearFlow` wastes one flow-table slot until resync; losing an install
/// forwards malicious traffic — so installs outrank everything.
fn action_priority(a: &ControlAction) -> u8 {
    match a {
        ControlAction::InstallBlacklist(_) => 2,
        ControlAction::RemoveBlacklist(_) => 1,
        ControlAction::ClearFlow(_) => 0,
    }
}

/// Consecutive quiescent [`Controller::take_due_retries`] calls (empty
/// retry queue, nothing due) required before the degraded flag clears.
const DEGRADED_CLEAR_TICKS: u64 = 4;

/// A point-in-time copy of the controller's complete mutable state.
///
/// Collections are stored in deterministic order (`installed` sorted by
/// key) so two snapshots of equal logical state compare equal.
///
/// The drift-detector window and any staged ruleset transaction are
/// deliberately **not** part of the snapshot: both are reconstructible —
/// the detector re-arms on the live digest stream, and ruleset replays
/// are idempotent, so the adaptation loop simply re-stages after a
/// restore instead of resuming a possibly-superseded delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerSnapshot {
    queue: Vec<FiveTuple>,
    installed: Vec<(FiveTuple, u64)>,
    clock: u64,
    digests_seen: u64,
    digest_bytes_total: f64,
    dedup_order: Vec<u64>,
    retry_queue: Vec<PendingRetry>,
    retry_rng_state: [u64; 4],
    degraded: bool,
    ever_degraded: bool,
    quiescent_ticks: u64,
    dup_digests: u64,
    retries: u64,
    retries_exhausted: u64,
    shed: u64,
}

/// The control-plane process.
pub struct Controller {
    cfg: ControllerConfig,
    /// FIFO install-order queue (front = oldest). Only maintained under
    /// [`EvictionPolicy::Fifo`]; LRU picks victims by recency stamp and
    /// would otherwise grow this without bound.
    queue: VecDeque<FiveTuple>,
    /// Membership + recency stamps.
    installed: FlowMap<FiveTuple, u64>,
    clock: u64,
    digests_seen: u64,
    digest_bytes_total: f64,
    /// Sequence tags inside the dedup window.
    dedup_seen: FlowSet<u64>,
    /// Window eviction order (front = oldest tag).
    dedup_order: VecDeque<u64>,
    retry_queue: VecDeque<PendingRetry>,
    retry_rng: Rng,
    degraded: bool,
    ever_degraded: bool,
    quiescent_ticks: u64,
    dup_digests: u64,
    retries: u64,
    retries_exhausted: u64,
    shed: u64,
    /// Drift detector over admitted digests (None = adaptation off).
    drift: Option<DriftDetector>,
    /// Set by a drift fire, cleared by [`Self::take_drift_trigger`].
    drift_pending: bool,
    pending_rulesets: VecDeque<PendingRuleset>,
    rulesets_staged: u64,
    rulesets_delivered: u64,
    rulesets_rejected: u64,
    ruleset_send_failures: u64,
}

impl Controller {
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.blacklist_capacity > 0, "blacklist capacity must be positive");
        Self {
            queue: VecDeque::new(),
            installed: FlowMap::default(),
            clock: 0,
            digests_seen: 0,
            digest_bytes_total: 0.0,
            dedup_seen: FlowSet::default(),
            dedup_order: VecDeque::new(),
            retry_queue: VecDeque::new(),
            retry_rng: Rng::seed_from_u64(cfg.retry.seed),
            degraded: false,
            ever_degraded: false,
            quiescent_ticks: 0,
            dup_digests: 0,
            retries: 0,
            retries_exhausted: 0,
            shed: 0,
            drift: cfg.drift.map(DriftDetector::new),
            drift_pending: false,
            pending_rulesets: VecDeque::new(),
            rulesets_staged: 0,
            rulesets_delivered: 0,
            rulesets_rejected: 0,
            ruleset_send_failures: 0,
            cfg,
        }
    }

    /// Consumes a batch of sequence-tagged digests, producing data-plane
    /// commands in a caller-owned buffer (cleared first).
    ///
    /// This is the **single** digest entry point: digests whose tag is
    /// already inside the dedup window are dropped (counted in
    /// [`Self::dup_digests`]) before touching bandwidth accounting or
    /// eviction state. Lossless callers tag digests with their global
    /// arrival sequence — unique tags make dedup a no-op, so one path
    /// serves lossless and lossy channels with identical semantics (the
    /// former non-seq `process_digests` entry point, which skipped dedup,
    /// was removed).
    pub fn process_seq_digests_into(
        &mut self,
        digests: &[SeqDigest],
        actions: &mut Vec<ControlAction>,
    ) {
        actions.clear();
        for &sd in digests {
            if !self.dedup_admit(sd.seq) {
                self.dup_digests += 1;
                counter!("switch.controller.dup_digest").inc();
                continue;
            }
            self.process_one(sd.digest, actions);
        }
    }

    /// Returns false if `seq` was already seen inside the window.
    fn dedup_admit(&mut self, seq: u64) -> bool {
        if self.cfg.dedup_window == 0 {
            return true;
        }
        if !self.dedup_seen.insert(seq) {
            return false;
        }
        self.dedup_order.push_back(seq);
        if self.dedup_order.len() > self.cfg.dedup_window {
            if let Some(old) = self.dedup_order.pop_front() {
                self.dedup_seen.remove(&old);
            }
        }
        true
    }

    fn process_one(&mut self, d: Digest, actions: &mut Vec<ControlAction>) {
        self.digests_seen += 1;
        self.digest_bytes_total += self.cfg.digest_bytes;
        self.clock += 1;
        counter!("switch.controller.digest").inc();
        // Drift watch runs on *admitted* digests only: duplicates were
        // already dropped, so a retransmission storm cannot fake a shift.
        if let Some(det) = &mut self.drift {
            if det.observe(d.malicious) {
                self.drift_pending = true;
                counter!("switch.controller.drift_trigger").inc();
            }
        }
        let key = d.five.canonical();
        // Always release the flow's stateful storage: the class now
        // lives in the label register / blacklist.
        actions.push(ControlAction::ClearFlow(key));
        if !d.malicious {
            return;
        }
        if let Some(stamp) = self.installed.get_mut(&key) {
            // Already blacklisted: refresh recency for LRU.
            *stamp = self.clock;
            return;
        }
        // Evict if full.
        if self.installed.len() >= self.cfg.blacklist_capacity {
            if let Some(victim) = self.pick_victim() {
                self.installed.remove(&victim);
                counter!("switch.controller.blacklist_evict").inc();
                actions.push(ControlAction::RemoveBlacklist(victim));
            }
        }
        self.installed.insert(key, self.clock);
        if self.cfg.policy == EvictionPolicy::Fifo {
            // LRU never consumes this queue (victims come from recency
            // stamps), so pushing under LRU would leak one entry per
            // install forever.
            self.queue.push_back(key);
        }
        counter!("switch.controller.blacklist_install").inc();
        actions.push(ControlAction::InstallBlacklist(key));
    }

    fn pick_victim(&mut self) -> Option<FiveTuple> {
        match self.cfg.policy {
            EvictionPolicy::Fifo => {
                // Pop queue entries until one is still installed.
                while let Some(cand) = self.queue.pop_front() {
                    if self.installed.contains_key(&cand) {
                        return Some(cand);
                    }
                }
                None
            }
            EvictionPolicy::Lru => {
                self.installed.iter().min_by_key(|(_, &stamp)| stamp).map(|(k, _)| *k)
            }
        }
    }

    /// Records a failed action send and schedules a re-send with
    /// exponential backoff + jitter, or gives up after
    /// [`RetryPolicy::max_attempts`]. `attempt` is how many sends have
    /// been made so far (1 for the first failure).
    pub fn note_send_failure(&mut self, action: ControlAction, attempt: u32, tick: u64) {
        self.retries += 1;
        counter!("switch.controller.retry").inc();
        if attempt >= self.cfg.retry.max_attempts {
            self.retries_exhausted += 1;
            counter!("switch.controller.retry_exhausted").inc();
            self.enter_degraded();
            return;
        }
        let due = self.cfg.retry.due_after(attempt, tick, &mut self.retry_rng);
        let pending = PendingRetry { action, attempt: attempt + 1, due };
        if self.retry_queue.len() >= self.cfg.retry.queue_cap {
            self.shed_for(&pending);
        } else {
            self.retry_queue.push_back(pending);
        }
        self.quiescent_ticks = 0;
    }

    /// Queue is full: drop the lowest-priority entry if the newcomer
    /// outranks it, else drop the newcomer. Either way the controller is
    /// now degraded — it is knowingly discarding control-plane work.
    fn shed_for(&mut self, pending: &PendingRetry) {
        self.enter_degraded();
        let victim = self
            .retry_queue
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (action_priority(&p.action), usize::MAX - i))
            .map(|(i, p)| (i, action_priority(&p.action)));
        match victim {
            Some((i, prio)) if prio < action_priority(&pending.action) => {
                self.retry_queue.remove(i);
                self.retry_queue.push_back(*pending);
            }
            _ => {}
        }
        self.shed += 1;
        counter!("switch.controller.shed").inc();
    }

    fn enter_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.ever_degraded = true;
            counter!("switch.controller.degraded").inc();
        }
        self.quiescent_ticks = 0;
    }

    /// Drains retries due at `tick` into `out` as `(action, attempt)`
    /// pairs, preserving queue order. Also advances the degraded-flag
    /// hysteresis: after [`DEGRADED_CLEAR_TICKS`] consecutive fully
    /// quiescent calls the flag clears.
    pub fn take_due_retries(&mut self, tick: u64, out: &mut Vec<(ControlAction, u32)>) {
        out.clear();
        let n = self.retry_queue.len();
        for _ in 0..n {
            if let Some(p) = self.retry_queue.pop_front() {
                if p.due <= tick {
                    out.push((p.action, p.attempt));
                } else {
                    self.retry_queue.push_back(p);
                }
            }
        }
        if self.retry_queue.is_empty() && out.is_empty() {
            if self.degraded {
                self.quiescent_ticks += 1;
                if self.quiescent_ticks >= DEGRADED_CLEAR_TICKS {
                    self.degraded = false;
                    self.quiescent_ticks = 0;
                }
            }
        } else {
            self.quiescent_ticks = 0;
        }
    }

    /// True once the drift detector has fired since the last take; reading
    /// clears the flag. The harness reacts by warm-refitting the forest
    /// and staging the resulting transaction via [`Self::stage_ruleset`].
    pub fn take_drift_trigger(&mut self) -> bool {
        std::mem::take(&mut self.drift_pending)
    }

    /// The drift detector, when adaptation is configured.
    pub fn drift_detector(&self) -> Option<&DriftDetector> {
        self.drift.as_ref()
    }

    /// Stages a retrained ruleset transaction for delivery to the data
    /// plane. Transactions queue in staging order (= version order, since
    /// each is a delta against its predecessor's table) and deliver
    /// strictly one at a time: the data plane can only accept `v + 1`, so
    /// a later transaction must wait for every earlier one to land.
    pub fn stage_ruleset(&mut self, txn: RulesetTxn) {
        self.rulesets_staged += 1;
        counter!("switch.controller.ruleset_staged").inc();
        self.pending_rulesets.push_back(PendingRuleset { txn, attempts: 0, due: 0 });
    }

    /// The oldest staged transaction, if it is due for (re)send at `tick`.
    pub fn due_ruleset(&self, tick: u64) -> Option<&RulesetTxn> {
        self.pending_rulesets.front().filter(|p| p.due <= tick).map(|p| &p.txn)
    }

    pub fn has_pending_ruleset(&self) -> bool {
        !self.pending_rulesets.is_empty()
    }

    /// Records a failed ruleset send and schedules the next attempt with
    /// the same capped exponential backoff (+ seeded jitter) as per-flow
    /// retries. Unlike those, a transport failure never abandons the
    /// transaction — see [`PendingRuleset`] for why that is safe and
    /// necessary.
    pub fn note_ruleset_failure(&mut self, tick: u64) {
        let Some(p) = self.pending_rulesets.front_mut() else { return };
        self.ruleset_send_failures += 1;
        counter!("switch.controller.ruleset_retry").inc();
        p.attempts = p.attempts.saturating_add(1);
        p.due = self.cfg.retry.due_after(p.attempts, tick, &mut self.retry_rng);
    }

    /// Drops the oldest staged transaction because the data plane
    /// rejected it ([`iguard_core::SwitchError::StaleRuleset`]: a version
    /// gap or a whitelist of the wrong shape). Resending cannot change
    /// that verdict, and delivery is strictly in order, so retrying would
    /// hold every later transaction behind it forever.
    pub fn ruleset_rejected(&mut self) {
        if self.pending_rulesets.pop_front().is_some() {
            self.rulesets_rejected += 1;
            counter!("switch.controller.ruleset_rejected").inc();
        }
    }

    /// Marks the oldest staged transaction delivered (the data plane
    /// accepted or replay-no-op'd it) and advances the queue.
    pub fn ruleset_delivered(&mut self) {
        if self.pending_rulesets.pop_front().is_some() {
            self.rulesets_delivered += 1;
            counter!("switch.controller.ruleset_delivered").inc();
        }
    }

    /// Ruleset transactions handed to [`Self::stage_ruleset`].
    pub fn rulesets_staged(&self) -> u64 {
        self.rulesets_staged
    }

    /// Staged transactions confirmed applied by the data plane.
    pub fn rulesets_delivered(&self) -> u64 {
        self.rulesets_delivered
    }

    /// Failed ruleset send attempts.
    pub fn ruleset_send_failures(&self) -> u64 {
        self.ruleset_send_failures
    }

    /// Staged transactions dropped by [`Self::ruleset_rejected`].
    pub fn rulesets_rejected(&self) -> u64 {
        self.rulesets_rejected
    }

    pub fn has_pending_retries(&self) -> bool {
        !self.retry_queue.is_empty()
    }

    /// Currently degraded (shedding or exhausted retries, not yet healed).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Ever entered the degraded state during this controller's life.
    pub fn ever_degraded(&self) -> bool {
        self.ever_degraded
    }

    /// Captures the complete mutable state for later [`Self::restore_from`].
    pub fn snapshot(&self) -> ControllerSnapshot {
        let mut installed: Vec<(FiveTuple, u64)> =
            self.installed.iter().map(|(k, &v)| (*k, v)).collect();
        installed.sort_unstable_by_key(|(k, _)| *k);
        ControllerSnapshot {
            queue: self.queue.iter().copied().collect(),
            installed,
            clock: self.clock,
            digests_seen: self.digests_seen,
            digest_bytes_total: self.digest_bytes_total,
            dedup_order: self.dedup_order.iter().copied().collect(),
            retry_queue: self.retry_queue.iter().copied().collect(),
            retry_rng_state: self.retry_rng.state(),
            degraded: self.degraded,
            ever_degraded: self.ever_degraded,
            quiescent_ticks: self.quiescent_ticks,
            dup_digests: self.dup_digests,
            retries: self.retries,
            retries_exhausted: self.retries_exhausted,
            shed: self.shed,
        }
    }

    /// Resets all mutable state to `snap` (configuration is kept). The
    /// retry RNG resumes mid-stream, so jitter draws after a restore match
    /// a run that never crashed.
    pub fn restore_from(&mut self, snap: &ControllerSnapshot) {
        self.drift = self.cfg.drift.map(DriftDetector::new);
        self.drift_pending = false;
        self.pending_rulesets.clear();
        self.queue = snap.queue.iter().copied().collect();
        self.installed = snap.installed.iter().copied().collect();
        self.clock = snap.clock;
        self.digests_seen = snap.digests_seen;
        self.digest_bytes_total = snap.digest_bytes_total;
        self.dedup_order = snap.dedup_order.iter().copied().collect();
        self.dedup_seen = snap.dedup_order.iter().copied().collect();
        self.retry_queue = snap.retry_queue.iter().copied().collect();
        self.retry_rng = Rng::from_state(snap.retry_rng_state);
        self.degraded = snap.degraded;
        self.ever_degraded = snap.ever_degraded;
        self.quiescent_ticks = snap.quiescent_ticks;
        self.dup_digests = snap.dup_digests;
        self.retries = snap.retries;
        self.retries_exhausted = snap.retries_exhausted;
        self.shed = snap.shed;
    }

    /// Cold-starts a crashed controller from the data plane's installed
    /// blacklist (the authoritative survivor): membership and eviction
    /// order are rebuilt from `contents` (canonical sorted order, as
    /// returned by `DataPlane::blacklist_contents`); bandwidth counters,
    /// the dedup window, and pending retries are lost with the crash.
    pub fn rebuild_from_blacklist(&mut self, contents: &[FiveTuple]) {
        self.drift = self.cfg.drift.map(DriftDetector::new);
        self.drift_pending = false;
        self.pending_rulesets.clear();
        self.queue.clear();
        self.installed.clear();
        self.clock = 0;
        self.digests_seen = 0;
        self.digest_bytes_total = 0.0;
        self.dedup_seen.clear();
        self.dedup_order.clear();
        self.retry_queue.clear();
        self.retry_rng = Rng::seed_from_u64(self.cfg.retry.seed);
        self.degraded = false;
        self.quiescent_ticks = 0;
        for &five in contents {
            self.clock += 1;
            self.installed.insert(five, self.clock);
            if self.cfg.policy == EvictionPolicy::Fifo {
                self.queue.push_back(five);
            }
        }
    }

    /// Number of blacklist entries currently installed.
    pub fn installed_len(&self) -> usize {
        self.installed.len()
    }

    /// FIFO bookkeeping queue length (0 under LRU; under FIFO it can
    /// briefly exceed `installed_len` by tombstones awaiting compaction).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn digests_seen(&self) -> u64 {
        self.digests_seen
    }

    /// Digests discarded by the sequence dedup window.
    pub fn dup_digests(&self) -> u64 {
        self.dup_digests
    }

    /// Failed sends recorded (each failure counts once, including final
    /// ones that exhausted the attempt budget).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Actions abandoned after [`RetryPolicy::max_attempts`] sends.
    pub fn retries_exhausted(&self) -> u64 {
        self.retries_exhausted
    }

    /// Shedding events (retry queue at capacity).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Control-plane bandwidth over an observation window (App. B.2
    /// reports KBps over 30 s).
    pub fn overhead_kbps(&self, window_secs: f64) -> f64 {
        assert!(window_secs > 0.0);
        self.digest_bytes_total / 1024.0 / window_secs
    }
}

/// `u64 << shift` that saturates instead of overflowing.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_flow::five_tuple::PROTO_TCP;

    fn digest(flow: u16, malicious: bool) -> Digest {
        Digest::new(FiveTuple::new(1, 2, 1000 + flow, 80, PROTO_TCP), malicious)
    }

    fn seq_digest(seq: u64, flow: u16, malicious: bool) -> SeqDigest {
        SeqDigest { seq, digest: digest(flow, malicious) }
    }

    fn cfg(cap: usize, policy: EvictionPolicy) -> ControllerConfig {
        ControllerConfig { blacklist_capacity: cap, policy, ..Default::default() }
    }

    /// Tags each digest with consecutive sequence numbers from `base` and
    /// runs them through the (sole) seq-keyed entry point.
    fn run(c: &mut Controller, base: u64, ds: &[Digest]) -> Vec<ControlAction> {
        let sds: Vec<SeqDigest> = ds
            .iter()
            .enumerate()
            .map(|(i, &d)| SeqDigest { seq: base + i as u64, digest: d })
            .collect();
        let mut actions = Vec::new();
        c.process_seq_digests_into(&sds, &mut actions);
        actions
    }

    #[test]
    fn benign_digest_only_clears_storage() {
        let mut c = Controller::new(cfg(10, EvictionPolicy::Fifo));
        let actions = run(&mut c, 0, &[digest(1, false)]);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], ControlAction::ClearFlow(_)));
        assert_eq!(c.installed_len(), 0);
    }

    #[test]
    fn malicious_digest_installs_blacklist() {
        let mut c = Controller::new(cfg(10, EvictionPolicy::Fifo));
        let actions = run(&mut c, 0, &[digest(1, true)]);
        assert!(actions.iter().any(|a| matches!(a, ControlAction::InstallBlacklist(_))));
        assert_eq!(c.installed_len(), 1);
    }

    #[test]
    fn duplicate_installs_are_deduped() {
        let mut c = Controller::new(cfg(10, EvictionPolicy::Fifo));
        let _ = run(&mut c, 0, &[digest(1, true), digest(1, true)]);
        assert_eq!(c.installed_len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut c = Controller::new(cfg(2, EvictionPolicy::Fifo));
        let _ = run(&mut c, 0, &[digest(1, true), digest(2, true)]);
        let actions = run(&mut c, 2, &[digest(3, true)]);
        let evicted: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ControlAction::RemoveBlacklist(f) => Some(*f),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, vec![digest(1, true).five.canonical()]);
        assert_eq!(c.installed_len(), 2);
    }

    #[test]
    fn lru_refresh_protects_hot_entries() {
        let mut c = Controller::new(cfg(2, EvictionPolicy::Lru));
        let _ = run(&mut c, 0, &[digest(1, true), digest(2, true)]);
        // Refresh flow 1, then overflow: flow 2 must be the LRU victim.
        let _ = run(&mut c, 2, &[digest(1, true)]);
        let actions = run(&mut c, 3, &[digest(3, true)]);
        let evicted: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ControlAction::RemoveBlacklist(f) => Some(*f),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, vec![digest(2, true).five.canonical()]);
    }

    /// Regression: under LRU the install-order queue used to grow by one
    /// entry per install and never shrink — churning many flows through a
    /// small table leaked memory linearly in trace length.
    #[test]
    fn lru_queue_stays_bounded_under_churn() {
        let mut c = Controller::new(cfg(16, EvictionPolicy::Lru));
        let mut actions = Vec::new();
        for i in 0..10_000u32 {
            let five = FiveTuple::new(i + 1, 2, 7, 80, PROTO_TCP);
            let sd = SeqDigest { seq: i as u64, digest: Digest::new(five, true) };
            c.process_seq_digests_into(&[sd], &mut actions);
        }
        assert_eq!(c.installed_len(), 16);
        assert_eq!(c.queue_len(), 0, "LRU must not accumulate queue entries");
    }

    /// FIFO's queue self-compacts: tombstones are popped during victim
    /// selection, so sustained churn keeps it at the table size.
    #[test]
    fn fifo_queue_stays_bounded_under_churn() {
        let mut c = Controller::new(cfg(16, EvictionPolicy::Fifo));
        let mut actions = Vec::new();
        for i in 0..10_000u32 {
            let five = FiveTuple::new(i + 1, 2, 7, 80, PROTO_TCP);
            let sd = SeqDigest { seq: i as u64, digest: Digest::new(five, true) };
            c.process_seq_digests_into(&[sd], &mut actions);
        }
        assert_eq!(c.installed_len(), 16);
        assert_eq!(c.queue_len(), 16);
    }

    #[test]
    fn seq_dedup_drops_duplicates_inside_window() {
        let mut c = Controller::new(cfg(10, EvictionPolicy::Fifo));
        let mut actions = Vec::new();
        c.process_seq_digests_into(
            &[seq_digest(7, 1, true), seq_digest(7, 1, true), seq_digest(8, 2, false)],
            &mut actions,
        );
        assert_eq!(c.dup_digests(), 1);
        assert_eq!(c.digests_seen(), 2, "duplicate must not touch bandwidth accounting");
        assert_eq!(c.installed_len(), 1);
    }

    #[test]
    fn seq_dedup_window_slides() {
        let mut c =
            Controller::new(ControllerConfig { dedup_window: 2, ..cfg(10, EvictionPolicy::Fifo) });
        let mut actions = Vec::new();
        c.process_seq_digests_into(
            &[seq_digest(1, 1, false), seq_digest(2, 2, false), seq_digest(3, 3, false)],
            &mut actions,
        );
        // Seq 1 has been evicted from the window — a late duplicate is
        // re-admitted (the price of a bounded window).
        c.process_seq_digests_into(&[seq_digest(1, 1, false)], &mut actions);
        assert_eq!(c.dup_digests(), 0);
        assert_eq!(c.digests_seen(), 4);
    }

    #[test]
    fn retry_backoff_grows_and_caps() {
        let mut c = Controller::new(ControllerConfig {
            retry: RetryPolicy { jitter_ticks: 0, ..RetryPolicy::default() },
            ..ControllerConfig::default()
        });
        let act = ControlAction::InstallBlacklist(digest(1, true).five);
        let mut due = Vec::new();
        // attempt=1 → backoff 1; attempt=5 → min(1<<4, 64)=16.
        c.note_send_failure(act, 1, 100);
        c.take_due_retries(100, &mut due);
        assert!(due.is_empty());
        c.take_due_retries(101, &mut due);
        assert_eq!(due, vec![(act, 2)]);
        c.note_send_failure(act, 5, 100);
        c.take_due_retries(115, &mut due);
        assert!(due.is_empty());
        c.take_due_retries(116, &mut due);
        assert_eq!(due, vec![(act, 6)]);
    }

    #[test]
    fn retries_exhaust_after_max_attempts() {
        let mut c = Controller::new(ControllerConfig::default());
        let act = ControlAction::InstallBlacklist(digest(1, true).five);
        c.note_send_failure(act, c.cfg.retry.max_attempts, 0);
        assert_eq!(c.retries_exhausted(), 1);
        assert!(!c.has_pending_retries());
        assert!(c.is_degraded());
    }

    #[test]
    fn saturated_retry_queue_sheds_lowest_priority_first() {
        let mut c = Controller::new(ControllerConfig {
            retry: RetryPolicy { queue_cap: 2, jitter_ticks: 0, ..RetryPolicy::default() },
            ..ControllerConfig::default()
        });
        let clear = ControlAction::ClearFlow(digest(1, true).five);
        let install = ControlAction::InstallBlacklist(digest(2, true).five);
        c.note_send_failure(clear, 1, 0);
        c.note_send_failure(clear, 1, 0);
        assert!(!c.is_degraded());
        // Queue full of ClearFlow: an install replaces one of them.
        c.note_send_failure(install, 1, 0);
        assert!(c.is_degraded());
        assert_eq!(c.shed(), 1);
        let mut due = Vec::new();
        c.take_due_retries(u64::MAX / 2, &mut due);
        assert!(due.iter().any(|(a, _)| *a == install), "install must survive shedding");
        // A ClearFlow arriving at a full queue of installs is itself shed.
        c.note_send_failure(install, 1, 0);
        c.note_send_failure(install, 1, 0);
        c.note_send_failure(clear, 1, 0);
        c.take_due_retries(u64::MAX / 2, &mut due);
        assert!(due.iter().all(|(a, _)| *a != clear));
    }

    #[test]
    fn degraded_flag_clears_after_quiescence() {
        let mut c = Controller::new(ControllerConfig::default());
        let act = ControlAction::InstallBlacklist(digest(1, true).five);
        c.note_send_failure(act, c.cfg.retry.max_attempts, 0);
        assert!(c.is_degraded());
        let mut due = Vec::new();
        for t in 0..DEGRADED_CLEAR_TICKS {
            assert!(c.is_degraded(), "still degraded at quiescent tick {t}");
            c.take_due_retries(t, &mut due);
        }
        assert!(!c.is_degraded());
        assert!(c.ever_degraded());
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut c = Controller::new(cfg(4, EvictionPolicy::Lru));
        let mut actions = Vec::new();
        for i in 0..6u16 {
            c.process_seq_digests_into(&[seq_digest(i as u64, i, i % 2 == 0)], &mut actions);
        }
        c.note_send_failure(ControlAction::InstallBlacklist(digest(9, true).five), 1, 3);
        let snap = c.snapshot();

        // Diverge, then restore: state must match the snapshot again.
        c.process_seq_digests_into(&[seq_digest(100, 50, true)], &mut actions);
        let mut due = Vec::new();
        c.take_due_retries(u64::MAX / 2, &mut due);
        assert_ne!(c.snapshot(), snap);
        c.restore_from(&snap);
        assert_eq!(c.snapshot(), snap);

        // The restored controller behaves identically going forward —
        // including the jitter RNG stream.
        let mut a = Controller::new(cfg(4, EvictionPolicy::Lru));
        a.restore_from(&snap);
        let mut b = Controller::new(cfg(4, EvictionPolicy::Lru));
        b.restore_from(&snap);
        for attempt in 1..4 {
            a.note_send_failure(ControlAction::ClearFlow(digest(8, true).five), attempt, 10);
            b.note_send_failure(ControlAction::ClearFlow(digest(8, true).five), attempt, 10);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn rebuild_from_blacklist_restores_membership() {
        let mut c = Controller::new(cfg(8, EvictionPolicy::Fifo));
        let survivors: Vec<FiveTuple> =
            (0..5u16).map(|i| digest(i, true).five.canonical()).collect();
        c.rebuild_from_blacklist(&survivors);
        assert_eq!(c.installed_len(), 5);
        assert_eq!(c.queue_len(), 5);
        // Re-learning an already-installed flow refreshes, not re-installs.
        let actions = run(&mut c, 0, &[digest(0, true)]);
        assert!(actions.iter().all(|a| !matches!(a, ControlAction::InstallBlacklist(_))));
    }

    /// Paper App. B.2: 50k digests in 30 s ≈ 21 KBps for iGuard and ≈ 5.2x
    /// more for designs shipping flow features.
    #[test]
    fn digest_overhead_matches_paper_appendix() {
        let mut actions = Vec::new();
        let mut iguard = Controller::new(ControllerConfig::default());
        for i in 0..50_000u32 {
            let d = Digest::new(FiveTuple::new(i, 2, 1, 80, PROTO_TCP), false);
            iguard
                .process_seq_digests_into(&[SeqDigest { seq: i as u64, digest: d }], &mut actions);
        }
        let kbps = iguard.overhead_kbps(30.0);
        assert!((kbps - 21.4).abs() < 1.0, "iGuard overhead {kbps} KBps");

        let mut horuseye = Controller::new(ControllerConfig {
            digest_bytes: crate::pipeline::DIGEST_BYTES_HORUSEYE,
            ..Default::default()
        });
        for i in 0..50_000u32 {
            let d = Digest::new(FiveTuple::new(i, 2, 1, 80, PROTO_TCP), false);
            horuseye
                .process_seq_digests_into(&[SeqDigest { seq: i as u64, digest: d }], &mut actions);
        }
        let ratio = horuseye.overhead_kbps(30.0) / kbps;
        assert!((ratio - 5.0).abs() < 0.5, "overhead ratio {ratio} (paper: 5.2x)");
    }

    #[test]
    fn drift_trigger_surfaces_once_per_fire() {
        let drift = DriftConfig::default().with_window(50).with_min_samples(25).with_cooldown(50);
        let mut c = Controller::new(ControllerConfig {
            drift: Some(drift),
            ..cfg(1024, EvictionPolicy::Fifo)
        });
        let mut actions = Vec::new();
        let mut seq = 0u64;
        let mut feed = |c: &mut Controller, n: u64, malicious: bool| {
            for i in 0..n {
                let five = FiveTuple::new((seq + i) as u32 + 1, 2, 7, 80, PROTO_TCP);
                let sd = SeqDigest { seq: seq + i, digest: Digest::new(five, malicious) };
                c.process_seq_digests_into(&[sd], &mut actions);
            }
            seq += n;
        };
        feed(&mut c, 200, false);
        assert!(!c.take_drift_trigger(), "stable stream must not trigger");
        feed(&mut c, 200, true);
        assert!(c.take_drift_trigger(), "regime change must trigger");
        assert!(!c.take_drift_trigger(), "reading clears the flag");
        assert_eq!(c.drift_detector().expect("configured").fires(), 1);
    }

    /// Ruleset re-sends and per-flow retries share one backoff rule and
    /// one jitter stream: for the same history of failed attempts, two
    /// fresh controllers schedule both at the same due ticks.
    #[test]
    fn ruleset_resends_and_flow_retries_fall_due_alike() {
        use crate::tcam::RangeTable;
        let cfg = ControllerConfig {
            retry: RetryPolicy { jitter_ticks: 3, max_attempts: 16, ..RetryPolicy::default() },
            ..ControllerConfig::default()
        };
        let (mut flows, mut rulesets) = (Controller::new(cfg), Controller::new(cfg));
        let act = ControlAction::InstallBlacklist(digest(1, true).five);
        let txn = RulesetTxn::full_install(
            1,
            &RangeTable::new(vec![4]),
            crate::pipeline::testutil::accept_all(13),
        );
        rulesets.stage_ruleset(txn);
        let mut due = Vec::new();
        let mut tick = 10;
        for attempt in 1..=9u32 {
            flows.note_send_failure(act, attempt, tick);
            rulesets.note_ruleset_failure(tick);
            let flow_due = (tick..).find(|&t| {
                flows.take_due_retries(t, &mut due);
                !due.is_empty()
            });
            let ruleset_due = (tick..).find(|&t| rulesets.due_ruleset(t).is_some());
            assert_eq!(flow_due, ruleset_due, "attempt {attempt}");
            assert_eq!(due, vec![(act, attempt + 1)]);
            tick = flow_due.expect("due within the backoff cap");
        }
    }

    #[test]
    fn staged_ruleset_backs_off_and_persists_until_delivered() {
        use crate::tcam::{RangeEntry, RangeTable};
        let mut c = Controller::new(ControllerConfig {
            retry: RetryPolicy { jitter_ticks: 0, ..RetryPolicy::default() },
            ..ControllerConfig::default()
        });
        assert!(c.due_ruleset(0).is_none());
        let mut table = RangeTable::new(vec![4, 4]);
        table.push(RangeEntry { fields: vec![(0, 3), (1, 2)], priority: 0 });
        let txn = RulesetTxn::full_install(1, &table, crate::pipeline::testutil::accept_all(13));
        c.stage_ruleset(txn);
        assert_eq!(c.due_ruleset(5).expect("due immediately").version, 1);

        // Failed sends back off (base 1 << n, capped), but never abandon.
        c.note_ruleset_failure(5);
        assert!(c.due_ruleset(5).is_none());
        assert!(c.due_ruleset(6).is_some());
        for t in [6, 7, 8] {
            c.note_ruleset_failure(t);
        }
        // attempt 4 → backoff 8 from tick 8.
        assert!(c.due_ruleset(15).is_none());
        assert!(c.due_ruleset(16).is_some());
        assert!(c.has_pending_ruleset());
        assert_eq!(c.ruleset_send_failures(), 4);

        c.ruleset_delivered();
        assert!(!c.has_pending_ruleset());
        assert_eq!(c.rulesets_staged(), 1);
        assert_eq!(c.rulesets_delivered(), 1);
        // Idempotent: delivering with nothing staged counts nothing.
        c.ruleset_delivered();
        assert_eq!(c.rulesets_delivered(), 1);
    }
}
