//! The control plane: digest consumption and blacklist management.
//!
//! The controller receives a digest whenever the data plane classifies a
//! flow, releases the flow's stateful storage, and — for malicious flows —
//! installs a blacklist rule, evicting old entries FIFO or LRU when the
//! table is full (paper §3.3.2). It also accounts control-plane bandwidth
//! for the App. B.2 comparison.
//!
//! Every control-plane event is counted once, in the [`ControllerStats`]
//! that [`Controller::stats`] returns: lifetime counts of the instance,
//! kept outside the crash-losable state, so no recovery rewinds them. The
//! replay loop, not the controller, publishes them to the registry.
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
//!   While the window's tags are strictly increasing (every lossless run)
//!   membership is a compare against the newest tag plus a binary search;
//!   a hash set of the window exists only while a descent is inside it.
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
//!   [`Controller::restore_from`] round-trip the crash-losable state,
//!   declared once as one struct (including the retry RNG, so the jitter
//!   stream resumes exactly); [`Controller::rebuild_from_blacklist`]
//!   cold-starts a crashed controller from the data plane's installed
//!   rules. Neither touches the ruleset staging queue or the counts, so a
//!   staged swap is still delivered after a crash and no event is
//!   forgotten.

use std::collections::VecDeque;

use iguard_core::drift::{DriftConfig, DriftDetector};
use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::hash::{FlowMap, FlowSet};
use iguard_runtime::Rng;

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

/// The controller's crash-losable state: everything a checkpoint saves
/// and a crash destroys, declared once so no field can escape
/// checkpointing. A snapshot is a clone of it, a restore an assignment,
/// and a cold rebuild starts a fresh one.
///
/// Kept outside: the configuration, the drift detector (it re-arms on the
/// live digest stream), the ruleset staging queue, which a crash leaves
/// alone so that a transaction staged but not yet delivered still lands
/// after recovery, and the [`ControllerStats`] counts.
#[derive(Clone, Debug, PartialEq)]
struct State {
    /// FIFO install-order queue (front = oldest). Only maintained under
    /// [`EvictionPolicy::Fifo`]; LRU picks victims by recency stamp and
    /// would otherwise grow this without bound.
    queue: VecDeque<FiveTuple>,
    /// Membership + recency stamps.
    installed: FlowMap<FiveTuple, u64>,
    clock: u64,
    /// Sequence tags inside the dedup window, in admission order (front =
    /// oldest). Strictly increasing while `dedup_descents` is 0.
    dedup_order: VecDeque<u64>,
    /// Adjacent pairs of `dedup_order` whose second tag is the smaller: a
    /// reorder, a duplicate re-admitted after leaving the window, or a
    /// packet tag following a [`crate::pipeline::RESYNC_SEQ_BASE`] tag.
    dedup_descents: usize,
    /// The window's tags as a set, present exactly while `dedup_descents`
    /// is nonzero, when binary search over `dedup_order` is unsound.
    dedup_seen: Option<FlowSet<u64>>,
    retry_queue: VecDeque<PendingRetry>,
    /// Jitter stream; checkpointed so draws after a restore match a run
    /// that never crashed.
    retry_rng: Rng,
    degraded: bool,
    quiescent_ticks: u64,
}

impl State {
    fn new(retry_seed: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            installed: FlowMap::default(),
            clock: 0,
            dedup_order: VecDeque::new(),
            dedup_descents: 0,
            dedup_seen: None,
            retry_queue: VecDeque::new(),
            retry_rng: Rng::seed_from_u64(retry_seed),
            degraded: false,
            quiescent_ticks: 0,
        }
    }

    /// Records `key` as installed at recency `stamp`. Only FIFO queues
    /// it: LRU never consumes the queue (victims come from recency
    /// stamps), so pushing under LRU would leak one entry per install.
    fn install(&mut self, policy: EvictionPolicy, key: FiveTuple, stamp: u64) {
        self.installed.insert(key, stamp);
        if policy == EvictionPolicy::Fifo {
            self.queue.push_back(key);
        }
    }
}

/// A point-in-time copy of the controller's crash-losable state, for
/// [`Controller::restore_from`]. Two snapshots of equal logical state
/// compare equal (map and set equality ignore iteration order).
///
/// The drift-detector window and the ruleset staging queue are not part
/// of it: the detector re-arms on the live digest stream, and the staging
/// queue survives a crash untouched, so a staged transaction is still
/// delivered after recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerSnapshot(State);

/// Lifetime event counts of one [`Controller`], one field per event,
/// returned as a `Copy` snapshot by [`Controller::stats`]. A crash does
/// not rewind them (see [`State`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Digests admitted past the dedup window.
    pub digests: u64,
    /// Digests discarded by the dedup window.
    pub dup_digests: u64,
    /// Blacklist installs issued.
    pub installs: u64,
    /// Blacklist entries evicted to make room for an install.
    pub evictions: u64,
    /// Drift-detector fires.
    pub drift_triggers: u64,
    /// Failed per-flow action sends, the ones that exhausted the budget too.
    pub retries: u64,
    /// Actions abandoned after [`RetryPolicy::max_attempts`] sends.
    pub retries_exhausted: u64,
    /// Shedding events (retry queue at capacity).
    pub shed: u64,
    /// Entries into the degraded state.
    pub degraded_entries: u64,
    /// Ruleset transactions handed to [`Controller::stage_ruleset`].
    pub rulesets_staged: u64,
    /// Staged transactions confirmed applied by the data plane.
    pub rulesets_delivered: u64,
    /// Staged transactions dropped by [`Controller::ruleset_rejected`].
    pub rulesets_rejected: u64,
    /// Failed ruleset send attempts.
    pub ruleset_retries: u64,
}

/// The control-plane process.
pub struct Controller {
    cfg: ControllerConfig,
    /// Everything a crash loses.
    state: State,
    /// Drift detector over admitted digests (None = adaptation off).
    drift: Option<DriftDetector>,
    /// Set by a drift fire, cleared by [`Self::take_drift_trigger`].
    drift_pending: bool,
    pending_rulesets: VecDeque<PendingRuleset>,
    stats: ControllerStats,
}

impl Controller {
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.blacklist_capacity > 0, "blacklist capacity must be positive");
        Self {
            state: State::new(cfg.retry.seed),
            drift: cfg.drift.map(DriftDetector::new),
            drift_pending: false,
            pending_rulesets: VecDeque::new(),
            stats: ControllerStats::default(),
            cfg,
        }
    }

    /// Consumes a batch of sequence-tagged digests, producing data-plane
    /// commands in a caller-owned buffer (cleared first).
    ///
    /// This is the **single** digest entry point: digests whose tag is
    /// already inside the dedup window are dropped (counted in
    /// [`ControllerStats::dup_digests`]) before touching bandwidth accounting or
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
                self.stats.dup_digests += 1;
                continue;
            }
            self.process_one(sd.digest, actions);
        }
    }

    /// Returns false if `seq` was already seen inside the window, else
    /// admits it, sliding the oldest tag out of a full window.
    fn dedup_admit(&mut self, seq: u64) -> bool {
        let window = self.cfg.dedup_window;
        if window == 0 {
            return true;
        }
        let s = &mut self.state;
        let seen = match &mut s.dedup_seen {
            // Unsorted window: one probe tests and records the tag.
            Some(set) => !set.insert(seq),
            // Sorted window: a tag past the newest is new without a search.
            None => {
                s.dedup_order.back().is_some_and(|&newest| seq <= newest)
                    && s.dedup_order.binary_search(&seq).is_ok()
            }
        };
        if seen {
            return false;
        }
        if s.dedup_order.len() == window {
            if let Some(old) = s.dedup_order.pop_front() {
                if s.dedup_order.front().is_some_and(|&next| next < old) {
                    s.dedup_descents -= 1;
                }
                if s.dedup_descents == 0 {
                    s.dedup_seen = None;
                } else if let Some(set) = &mut s.dedup_seen {
                    set.remove(&old);
                }
            }
        }
        if s.dedup_order.back().is_some_and(|&newest| seq < newest) {
            s.dedup_descents += 1;
            if s.dedup_seen.is_none() {
                let tags = s.dedup_order.iter().copied().chain([seq]);
                s.dedup_seen = Some(tags.collect());
            }
        }
        s.dedup_order.push_back(seq);
        debug_assert_eq!(s.dedup_seen.is_some(), s.dedup_descents > 0);
        true
    }

    fn process_one(&mut self, d: Digest, actions: &mut Vec<ControlAction>) {
        self.stats.digests += 1;
        self.state.clock += 1;
        // Drift watch runs on *admitted* digests only: duplicates were
        // already dropped, so a retransmission storm cannot fake a shift.
        if let Some(det) = &mut self.drift {
            if det.observe(d.malicious) {
                self.drift_pending = true;
                self.stats.drift_triggers += 1;
            }
        }
        let key = d.five.canonical();
        // Always release the flow's stateful storage: the class now
        // lives in the label register / blacklist.
        actions.push(ControlAction::ClearFlow(key));
        if !d.malicious {
            return;
        }
        if let Some(stamp) = self.state.installed.get_mut(&key) {
            // Already blacklisted: refresh recency for LRU.
            *stamp = self.state.clock;
            return;
        }
        // Evict if full. The victim goes before the new key is inserted:
        // a stale FIFO queue entry for `key` must not evict it.
        if self.state.installed.len() >= self.cfg.blacklist_capacity {
            if let Some(victim) = self.evict() {
                self.stats.evictions += 1;
                actions.push(ControlAction::RemoveBlacklist(victim));
            }
        }
        self.state.install(self.cfg.policy, key, self.state.clock);
        self.stats.installs += 1;
        actions.push(ControlAction::InstallBlacklist(key));
    }

    /// Removes the eviction victim from `installed` and returns it: the
    /// oldest install still present (FIFO) or the least recently stamped
    /// entry (LRU).
    fn evict(&mut self) -> Option<FiveTuple> {
        let s = &mut self.state;
        match self.cfg.policy {
            EvictionPolicy::Fifo => {
                // Pop queue entries until one is still installed.
                while let Some(cand) = s.queue.pop_front() {
                    if s.installed.remove(&cand).is_some() {
                        return Some(cand);
                    }
                }
                None
            }
            EvictionPolicy::Lru => {
                let victim = s.installed.iter().min_by_key(|(_, &stamp)| stamp).map(|(k, _)| *k)?;
                s.installed.remove(&victim);
                Some(victim)
            }
        }
    }

    /// Records a failed action send and schedules a re-send with
    /// exponential backoff + jitter, or gives up after
    /// [`RetryPolicy::max_attempts`]. `attempt` is how many sends have
    /// been made so far (1 for the first failure).
    pub fn note_send_failure(&mut self, action: ControlAction, attempt: u32, tick: u64) {
        self.stats.retries += 1;
        if attempt >= self.cfg.retry.max_attempts {
            self.stats.retries_exhausted += 1;
            self.enter_degraded();
            return;
        }
        let due = self.cfg.retry.due_after(attempt, tick, &mut self.state.retry_rng);
        let pending = PendingRetry { action, attempt: attempt + 1, due };
        if self.state.retry_queue.len() >= self.cfg.retry.queue_cap {
            self.shed_for(&pending);
        } else {
            self.state.retry_queue.push_back(pending);
        }
        self.state.quiescent_ticks = 0;
    }

    /// Queue is full: drop the lowest-priority entry if the newcomer
    /// outranks it, else drop the newcomer. Either way the controller is
    /// now degraded — it is knowingly discarding control-plane work.
    fn shed_for(&mut self, pending: &PendingRetry) {
        self.enter_degraded();
        let victim = self
            .state
            .retry_queue
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (action_priority(&p.action), usize::MAX - i))
            .map(|(i, p)| (i, action_priority(&p.action)));
        match victim {
            Some((i, prio)) if prio < action_priority(&pending.action) => {
                self.state.retry_queue.remove(i);
                self.state.retry_queue.push_back(*pending);
            }
            _ => {}
        }
        self.stats.shed += 1;
    }

    fn enter_degraded(&mut self) {
        if !self.state.degraded {
            self.state.degraded = true;
            self.stats.degraded_entries += 1;
        }
        self.state.quiescent_ticks = 0;
    }

    /// Drains retries due at `tick` into `out` as `(action, attempt)`
    /// pairs, preserving queue order. Also advances the degraded-flag
    /// hysteresis: after [`DEGRADED_CLEAR_TICKS`] consecutive fully
    /// quiescent calls the flag clears.
    pub fn take_due_retries(&mut self, tick: u64, out: &mut Vec<(ControlAction, u32)>) {
        out.clear();
        let n = self.state.retry_queue.len();
        for _ in 0..n {
            if let Some(p) = self.state.retry_queue.pop_front() {
                if p.due <= tick {
                    out.push((p.action, p.attempt));
                } else {
                    self.state.retry_queue.push_back(p);
                }
            }
        }
        if self.state.retry_queue.is_empty() && out.is_empty() {
            if self.state.degraded {
                self.state.quiescent_ticks += 1;
                if self.state.quiescent_ticks >= DEGRADED_CLEAR_TICKS {
                    self.state.degraded = false;
                    self.state.quiescent_ticks = 0;
                }
            }
        } else {
            self.state.quiescent_ticks = 0;
        }
    }

    /// True once the drift detector has fired since the last take; reading
    /// clears the flag. The harness reacts by warm-refitting the forest
    /// and staging the resulting transaction via [`Self::stage_ruleset`].
    pub fn take_drift_trigger(&mut self) -> bool {
        std::mem::take(&mut self.drift_pending)
    }

    /// Stages a retrained ruleset transaction for delivery to the data
    /// plane. Transactions queue in staging order (= version order, since
    /// each is a delta against its predecessor's table) and deliver
    /// strictly one at a time: the data plane can only accept `v + 1`, so
    /// a later transaction must wait for every earlier one to land.
    pub fn stage_ruleset(&mut self, txn: RulesetTxn) {
        self.stats.rulesets_staged += 1;
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
        self.stats.ruleset_retries += 1;
        p.attempts = p.attempts.saturating_add(1);
        p.due = self.cfg.retry.due_after(p.attempts, tick, &mut self.state.retry_rng);
    }

    /// Drops the oldest staged transaction because the data plane
    /// rejected it ([`iguard_core::SwitchError::StaleRuleset`]: a version
    /// gap or a whitelist of the wrong shape). Resending cannot change
    /// that verdict, and delivery is strictly in order, so retrying would
    /// hold every later transaction behind it forever.
    pub fn ruleset_rejected(&mut self) {
        if self.pending_rulesets.pop_front().is_some() {
            self.stats.rulesets_rejected += 1;
        }
    }

    /// Marks the oldest staged transaction delivered (the data plane
    /// accepted or replay-no-op'd it) and advances the queue.
    pub fn ruleset_delivered(&mut self) {
        if self.pending_rulesets.pop_front().is_some() {
            self.stats.rulesets_delivered += 1;
        }
    }

    pub fn has_pending_retries(&self) -> bool {
        !self.state.retry_queue.is_empty()
    }

    /// Currently degraded (shedding or exhausted retries, not yet healed).
    pub fn is_degraded(&self) -> bool {
        self.state.degraded
    }

    /// Captures the crash-losable state for later [`Self::restore_from`].
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot(self.state.clone())
    }

    /// Resets the crash-losable state to `snap`. The configuration, the
    /// ruleset staging queue and the lifetime counts are kept; the drift
    /// detector re-arms. The retry RNG resumes mid-stream, so jitter draws
    /// after a restore match a run that never crashed.
    pub fn restore_from(&mut self, snap: &ControllerSnapshot) {
        self.reset_drift();
        self.state = snap.0.clone();
    }

    /// Cold-starts a crashed controller from the data plane's installed
    /// blacklist (the authoritative survivor): membership and eviction
    /// order are rebuilt from `contents` (canonical sorted order, as
    /// returned by `DataPlane::blacklist_contents`); the dedup window,
    /// pending retries and the jitter stream are lost with the crash. The
    /// ruleset staging queue and the lifetime counts are kept.
    pub fn rebuild_from_blacklist(&mut self, contents: &[FiveTuple]) {
        self.reset_drift();
        let mut state = State::new(self.cfg.retry.seed);
        for &five in contents {
            state.clock += 1;
            state.install(self.cfg.policy, five, state.clock);
        }
        self.state = state;
    }

    /// A crashed controller's drift detector re-arms empty.
    fn reset_drift(&mut self) {
        self.drift = self.cfg.drift.map(DriftDetector::new);
        self.drift_pending = false;
    }

    /// Number of blacklist entries currently installed.
    pub fn installed_len(&self) -> usize {
        self.state.installed.len()
    }

    /// FIFO bookkeeping queue length (0 under LRU; under FIFO it can
    /// briefly exceed `installed_len` by tombstones awaiting compaction).
    pub fn queue_len(&self) -> usize {
        self.state.queue.len()
    }

    /// Every event count of this controller's life.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Digests discarded by the sequence dedup window.
    pub fn dup_digests(&self) -> u64 {
        self.stats.dup_digests
    }

    /// Control-plane bandwidth over an observation window (App. B.2
    /// reports KBps over 30 s): every admitted digest at
    /// [`ControllerConfig::digest_bytes`].
    pub fn overhead_kbps(&self, window_secs: f64) -> f64 {
        assert!(window_secs > 0.0);
        self.stats.digests as f64 * self.cfg.digest_bytes / 1024.0 / window_secs
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
        assert_eq!(c.stats().digests, 2, "duplicate must not touch bandwidth accounting");
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
        assert_eq!(c.stats().digests, 4);
    }

    /// The dedup window as it was before the sorted fast path: a hash set
    /// of the window's tags beside their admission order. Kept as the
    /// reference the on-demand set must reproduce decision for decision.
    struct ReferenceWindow {
        window: usize,
        seen: FlowSet<u64>,
        order: VecDeque<u64>,
    }

    impl ReferenceWindow {
        fn new(window: usize) -> Self {
            Self { window, seen: FlowSet::default(), order: VecDeque::new() }
        }

        fn admit(&mut self, seq: u64) -> bool {
            if self.window == 0 {
                return true;
            }
            if !self.seen.insert(seq) {
                return false;
            }
            self.order.push_back(seq);
            if self.order.len() > self.window {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
            true
        }
    }

    /// A tag stream mixing monotone runs, duplicates from inside and far
    /// outside a small window, adjacent swaps and resync tags, over a
    /// small flow pool so refreshes and evictions happen.
    fn mixed_seq_stream(rng: &mut Rng, len: usize) -> Vec<SeqDigest> {
        use crate::pipeline::RESYNC_SEQ_BASE;
        let (mut next, mut resync) = (0u64, 0u64);
        let mut seqs: Vec<u64> = Vec::with_capacity(len);
        while seqs.len() < len {
            match rng.gen_range(0u8..5) {
                0 => {
                    for _ in 0..rng.gen_range(1u64..24) {
                        seqs.push(next);
                        next += 1;
                    }
                }
                1 if !seqs.is_empty() => {
                    let back = rng.gen_range(0..seqs.len().min(4));
                    seqs.push(seqs[seqs.len() - 1 - back]);
                }
                2 if !seqs.is_empty() => seqs.push(seqs[rng.gen_range(0..seqs.len())]),
                3 => {
                    seqs.extend([next + 1, next]);
                    next += 2;
                }
                _ => {
                    seqs.push(RESYNC_SEQ_BASE + resync);
                    resync += 1;
                }
            }
        }
        seqs.truncate(len);
        seqs.into_iter()
            .map(|seq| seq_digest(seq, rng.gen_range(0u16..12), rng.gen_bool(0.7)))
            .collect()
    }

    iguard_runtime::proptest_lite! {
        /// The sorted window with its on-demand set admits exactly what the
        /// reference window admits, so the controller emits the same
        /// actions as a dedup-free controller fed the reference's
        /// admissions, under both eviction policies.
        fn dedup_matches_reference_window(rng, cases = 256) {
            let len = rng.gen_range(100usize..400);
            let stream = mixed_seq_stream(rng, len);
            for window in [0, 1, 2, 4096] {
                for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
                    let mut c = Controller::new(ControllerConfig {
                        dedup_window: window,
                        ..cfg(5, policy)
                    });
                    let mut oracle = Controller::new(ControllerConfig {
                        dedup_window: 0,
                        ..cfg(5, policy)
                    });
                    let mut reference = ReferenceWindow::new(window);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for (i, &sd) in stream.iter().enumerate() {
                        let dups = c.dup_digests();
                        c.process_seq_digests_into(&[sd], &mut got);
                        let admitted = reference.admit(sd.seq);
                        assert_eq!(c.dup_digests() == dups, admitted, "w{window} {policy:?} #{i}");
                        want.clear();
                        if admitted {
                            oracle.process_seq_digests_into(&[sd], &mut want);
                        }
                        assert_eq!(got, want, "w{window} {policy:?} #{i}");
                        assert_eq!(c.state.dedup_order, reference.order);
                        assert_eq!(c.state.dedup_seen.is_some(), c.state.dedup_descents > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_with_descent_in_window_round_trips() {
        let mut c = Controller::new(cfg(4, EvictionPolicy::Lru));
        let mut actions = Vec::new();
        let sds = [seq_digest(1, 1, true), seq_digest(3, 2, true), seq_digest(2, 3, false)];
        c.process_seq_digests_into(&sds, &mut actions);
        assert_eq!(c.state.dedup_descents, 1);
        assert!(c.state.dedup_seen.is_some(), "a descent in the window builds the set");
        let snap = c.snapshot();

        c.process_seq_digests_into(&[seq_digest(9, 4, true)], &mut actions);
        c.restore_from(&snap);
        assert_eq!(c.snapshot(), snap);
        // The restored window still rejects every tag inside it.
        c.process_seq_digests_into(&sds, &mut actions);
        assert_eq!(c.dup_digests(), 3);
        assert!(actions.is_empty());

        // A controller reaching the same window by the same tags compares
        // equal, set included.
        let mut twin = Controller::new(cfg(4, EvictionPolicy::Lru));
        twin.process_seq_digests_into(&sds, &mut actions);
        twin.process_seq_digests_into(&sds, &mut actions);
        assert_eq!(twin.snapshot(), c.snapshot());
    }

    #[test]
    fn set_is_dropped_once_the_last_descent_leaves_the_window() {
        let mut c =
            Controller::new(ControllerConfig { dedup_window: 3, ..cfg(10, EvictionPolicy::Fifo) });
        let mut actions = Vec::new();
        let mut feed = |c: &mut Controller, seq: u64| {
            c.process_seq_digests_into(&[seq_digest(seq, 1, false)], &mut actions);
        };
        feed(&mut c, 2);
        assert!(c.state.dedup_seen.is_none(), "a sorted window needs no set");
        for seq in [1, 3] {
            feed(&mut c, seq);
            assert!(c.state.dedup_seen.is_some(), "the descent 2 > 1 is inside at {seq}");
        }
        // Window [1, 3, 4]: the pair (2, 1) has left.
        feed(&mut c, 4);
        assert_eq!(c.state.dedup_descents, 0);
        assert!(c.state.dedup_seen.is_none());
        feed(&mut c, 1);
        assert_eq!(c.dup_digests(), 1, "binary search still finds an old tag");
        // Tag 2 slid out of the window: re-admitted, a new descent.
        feed(&mut c, 2);
        assert_eq!((c.dup_digests(), c.state.dedup_descents), (1, 1));
        assert!(c.state.dedup_seen.is_some());
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
        assert_eq!(c.stats().retries_exhausted, 1);
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
        assert_eq!(c.stats().shed, 1);
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
        assert!(c.stats().degraded_entries > 0);
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

    /// Neither recovery rewinds the counts: they are the instance's, not
    /// the crash-losable state's.
    #[test]
    fn recovery_keeps_the_lifetime_counts() {
        let mut c = Controller::new(cfg(4, EvictionPolicy::Fifo));
        let snap = c.snapshot();
        let _ = run(&mut c, 0, &[digest(1, true), digest(1, true)]);
        c.note_send_failure(ControlAction::ClearFlow(digest(2, false).five), 1, 0);
        let counted = c.stats();
        assert_eq!((counted.digests, counted.installs, counted.retries), (2, 1, 1));
        c.restore_from(&snap);
        assert_eq!(c.stats(), counted);
        c.rebuild_from_blacklist(&[]);
        assert_eq!(c.stats(), counted);
        assert_eq!(c.overhead_kbps(1.0), 2.0 * c.cfg.digest_bytes / 1024.0);
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
        assert_eq!(c.stats().drift_triggers, 1);
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
        assert_eq!(c.stats().ruleset_retries, 4);

        c.ruleset_delivered();
        assert!(!c.has_pending_ruleset());
        assert_eq!((c.stats().rulesets_staged, c.stats().rulesets_delivered), (1, 1));
        // Idempotent: delivering with nothing staged counts nothing.
        c.ruleset_delivered();
        assert_eq!(c.stats().rulesets_delivered, 1);
    }
}
