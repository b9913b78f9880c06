//! The per-packet match-action pipeline of paper Fig. 4.
//!
//! Six execution paths, colour-coded as in the figure:
//!
//! * **red** — 5-tuple hits the blacklist table: drop immediately;
//! * **brown** — 1..(n−1)-th packet of a tracked flow: update state, match
//!   *packet-level* features against the PL whitelist;
//! * **blue** — n-th packet or idle timeout: match PL+FL features against
//!   the whitelists, emit a digest, mirror to the loopback port (green) to
//!   write the flow label;
//! * **orange** — both hash-table slots hold other flows: match PL
//!   features only (an unclassified resident keeps its slot; a classified
//!   one is evicted for the new flow);
//! * **purple** — flow already classified: decide from the flow-label
//!   register, no feature work;
//! * **green** — the loopback copy of a blue packet: updates the flow
//!   label storage (emulated synchronously; counted for latency).
//!
//! One data-plane struct, [`Pipeline`], runs every layout: the serial
//! slot layout (one full-size logical shard), the sharded layout
//! ([`crate::sharded::LOGICAL_SHARDS`] logical shards grouped onto a
//! worker crew) and the sketched layout (one logical shard behind the
//! sketch admission stage of [`crate::sketched`]). The layout is picked by
//! the config type handed to [`Pipeline::new`].
//!
//! Two walks drive the six paths: the columnar
//! [`MatchEngine::process_rows`] (the production hot path), which
//! defers the stateless brown/orange packet-level lookups to one batched
//! index probe over gathered feature columns per [`BATCH_CHUNK`]-row
//! chunk, and writes verdicts back into a preallocated outcome column;
//! and the scalar per-packet
//! [`MatchEngine::process_one`] (the reference/oracle path behind
//! [`ScalarPipeline`]). Both make the same flow-table observe (with sketch
//! admission at the untracked seam, [`ShardState::observe`]) and share
//! one six-path dispatch ([`MatchEngine::dispatch`]); they are
//! parity-pinned byte for byte (verdicts, digests, counters) by the
//! `soa_parity` suite on every layout.

use std::cell::{Ref, RefCell};
use std::sync::{Arc, OnceLock};

use iguard_core::error::SwitchError;
use iguard_core::rule_index::{BatchScratch, RuleIndex};
use iguard_core::rules::RuleSet;
use iguard_flow::batch::FeatureColumns;
use iguard_flow::features::{
    log_compress, log_compress_vec, packet_level_features_array, switch_fl_features_into, PL_DIM,
    SWITCH_FL_DIM,
};
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::stats::FlowStats;
use iguard_flow::table::{FlowShard, FlowTableConfig, InsertOutcome};
use iguard_runtime::hash::FlowSet;
use iguard_runtime::par::{self, Crew};
use iguard_runtime::scratch::ShardBins;
use iguard_runtime::Dataset;
use iguard_telemetry::{counter, histogram, registry, span, Counter};

use crate::data_plane::{DataPlane, DataPlaneStats, OverloadStats};
use crate::ruleset::{apply_delta, RulesetCounters, RulesetTxn};
use crate::sharded::{logical_shard_of, ShardedPipelineConfig, LOGICAL_SHARDS};
use crate::sketched::{SketchStage, SketchedPipelineConfig};
use crate::tcam::RangeTable;

/// Fixed row-chunk size of the batched hot path. Every layout cuts every
/// batch — packets in `process_batch`, dataset rows in `classify_batch` —
/// at the same 1024-row boundaries, so scratch high-water marks, counter
/// totals, and verdict vectors never depend on worker or shard count.
pub(crate) const BATCH_CHUNK: usize = 1024;

/// Phase tag of a digest produced outside the phase ladder: the final
/// packet-threshold blue path, an idle-timeout flush, or a post-outage
/// resync rederivation. Intermediate phase convictions carry their
/// 0-based boundary index instead.
pub const FINAL_PHASE: u8 = u8::MAX;

/// Digest payload sent to the controller: 13 B flow ID + 1-bit label
/// (paper App. B.2), plus the deciding phase — which look at the flow
/// produced this verdict (an intermediate boundary index, or
/// [`FINAL_PHASE`] for the single-shot path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub five: FiveTuple,
    pub malicious: bool,
    /// Deciding phase: 0-based boundary index, or [`FINAL_PHASE`].
    pub phase: u8,
}

impl Digest {
    /// A single-shot digest (final threshold / timeout / resync).
    pub fn new(five: FiveTuple, malicious: bool) -> Self {
        Self { five, malicious, phase: FINAL_PHASE }
    }

    /// A digest emitted by an intermediate phase-boundary conviction.
    pub fn at_phase(five: FiveTuple, malicious: bool, phase: u8) -> Self {
        Self { five, malicious, phase }
    }
}

/// Effective digest size on the wire for iGuard (13 B + 1 bit).
pub const DIGEST_BYTES_IGUARD: f64 = 13.125;
/// Digest size for control-plane-detection designs that must also ship
/// ~52 B of flow features (paper App. B.2).
pub const DIGEST_BYTES_HORUSEYE: f64 = 65.125;

/// Commands the controller issues back to the data plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlAction {
    InstallBlacklist(FiveTuple),
    RemoveBlacklist(FiveTuple),
    /// Release the flow's stateful storage.
    ClearFlow(FiveTuple),
}

/// Final disposition of a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketVerdict {
    Forward,
    Drop,
}

/// Which Fig.-4 path the packet took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathTaken {
    /// Red: blacklist hit.
    Blacklist,
    /// Brown: early packet, PL-feature decision.
    Brown,
    /// Blue: n-th packet / timeout, PL+FL decision + digest + loopback.
    Blue,
    /// Orange: hash collision, PL-feature decision.
    Orange,
    /// Purple: early decision from the flow-label register.
    Purple,
}

/// Per-path packet counters (the green/loopback count is separate because
/// loopback packets are copies, not offered traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCounters {
    pub blacklist: u64,
    pub brown: u64,
    pub blue: u64,
    pub orange: u64,
    pub purple: u64,
    /// Green-path loopback copies generated by blue packets.
    pub green_loopback: u64,
}

impl PathCounters {
    pub fn total_offered(&self) -> u64 {
        self.blacklist + self.brown + self.blue + self.orange + self.purple
    }

    /// Counts one packet's outcome, plus its loopback copy if mirrored.
    #[inline]
    fn record(&mut self, o: &ProcessOutcome) {
        *match o.path {
            PathTaken::Blacklist => &mut self.blacklist,
            PathTaken::Brown => &mut self.brown,
            PathTaken::Blue => &mut self.blue,
            PathTaken::Orange => &mut self.orange,
            PathTaken::Purple => &mut self.purple,
        } += 1;
        self.green_loopback += o.mirrored as u64;
    }

    /// Field-wise sum — merging per-shard counters.
    #[inline]
    pub fn merge(&self, o: &Self) -> Self {
        Self {
            blacklist: self.blacklist + o.blacklist,
            brown: self.brown + o.brown,
            blue: self.blue + o.blue,
            orange: self.orange + o.orange,
            purple: self.purple + o.purple,
            green_loopback: self.green_loopback + o.green_loopback,
        }
    }
}

/// Overload-layer configuration: digest buffer bound and the hysteresis
/// thresholds of the per-shard degraded mode. All decisions driven by
/// this config are pure functions of per-logical-shard deterministic
/// state (the flow table's pressure signal and the batch count), so they
/// are byte-identical across worker counts and shard groupings.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Most digests one shard buffers between drains. At the cap the
    /// buffer sheds deterministically by priority: malicious-evidence
    /// digests outlive benign ones (see `OverloadState::push_digest`).
    pub digest_buffer_cap: usize,
    /// Enter degraded mode when the shard's pressure (per-mille) reaches
    /// this. Must be above 500: a full-but-quiet table reads at most 500,
    /// so only sustained churn can trip entry.
    pub degrade_enter_milli: u32,
    /// A batch is "calm" when pressure is at or below this.
    pub degrade_exit_milli: u32,
    /// Consecutive calm batches required to leave degraded mode (the
    /// hysteresis band that stops pulse edges from flapping the mode).
    pub degrade_calm_batches: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            digest_buffer_cap: 1 << 16,
            degrade_enter_milli: 750,
            degrade_exit_milli: 500,
            degrade_calm_batches: 4,
        }
    }
}

iguard_runtime::builder_setters! { OverloadConfig =>
    /// Builder: per-shard digest buffer cap.
    with_digest_buffer_cap => digest_buffer_cap: usize,
    /// Builder: degraded-mode entry threshold (per-mille pressure).
    with_degrade_enter_milli => degrade_enter_milli: u32,
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    pub flow_table: FlowTableConfig,
    /// Drop packets judged malicious (else forward to a quarantine port —
    /// still counted as a positive detection).
    pub drop_malicious: bool,
    /// Whether the installed FL whitelist was trained on log-compressed
    /// features (see `iguard_flow::features::log_compress`); the pipeline
    /// then applies the same monotone map before matching. On hardware the
    /// equivalent is exponentiating the rule boundaries at install time.
    pub log_compress: bool,
    /// Overload-survival behaviour (degraded mode + digest shedding).
    pub overload: OverloadConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            flow_table: FlowTableConfig::default(),
            drop_malicious: true,
            log_compress: false,
            overload: OverloadConfig::default(),
        }
    }
}

iguard_runtime::builder_setters! { PipelineConfig =>
    /// Builder: flow-table configuration.
    with_flow_table => flow_table: FlowTableConfig,
    /// Builder: drop (true) vs quarantine-forward (false) detected packets.
    with_drop_malicious => drop_malicious: bool,
    /// Builder: apply the log-compress map before FL matching.
    with_log_compress => log_compress: bool,
    /// Builder: overload-survival configuration.
    with_overload => overload: OverloadConfig,
}

/// A bare flow-table config is a pipeline config with defaults elsewhere —
/// lets `Pipeline::new(FlowTableConfig::default().with_pkt_threshold(4), …)`
/// read naturally.
impl From<FlowTableConfig> for PipelineConfig {
    fn from(flow_table: FlowTableConfig) -> Self {
        Self { flow_table, ..Default::default() }
    }
}

/// Outcome of processing one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessOutcome {
    pub verdict: PacketVerdict,
    pub path: PathTaken,
    /// Whether this packet generated a loopback copy (second pipeline pass).
    pub mirrored: bool,
}

/// The red-path outcome: a blacklist hit drops before any flow state.
const BLACKLISTED: ProcessOutcome =
    ProcessOutcome { verdict: PacketVerdict::Drop, path: PathTaken::Blacklist, mirrored: false };

/// A digest tagged with the global arrival sequence number of the packet
/// that produced it — the sort key the sharded backend merges by, and the
/// idempotence key the controller's dedup window tracks when the digest
/// channel can duplicate deliveries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqDigest {
    pub seq: u64,
    pub digest: Digest,
}

/// Sequence-number base for control-plane **resync** digests (re-derived
/// from resident flow labels after a channel outage). Packet digests use
/// the global arrival index, which stays far below this bit, so the two
/// sequence spaces never collide in the controller's dedup window.
pub const RESYNC_SEQ_BASE: u64 = 1 << 63;

/// Whitelist-lookup counters a backend accumulates: how many times the
/// compiled rule index was consulted (FL + PL lookups) and how many of
/// those matched a whitelist rule. Deterministic across worker counts and
/// shard groupings — lookups are a pure function of which packets each
/// flow sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WhitelistCounters {
    pub lookups: u64,
    pub hits: u64,
}

impl WhitelistCounters {
    pub fn merge(&self, other: &Self) -> Self {
        Self { lookups: self.lookups + other.lookups, hits: self.hits + other.hits }
    }
}

/// Reusable per-worker lookup scratch threaded through
/// [`MatchEngine::process_one`] and the batched entry points: the index's
/// bitmap AND accumulators, feature-row/column buffers, the deferred-PL
/// work list, and the whitelist counters. One per serial pipeline / per
/// shard group, so the hot path never allocates and parallel workers
/// never share mutable state.
#[derive(Clone, Debug, Default)]
pub(crate) struct MatchScratch {
    words: Vec<u64>,
    row: Vec<f32>,
    pub(crate) wl: WhitelistCounters,
    /// Deferred packet-level lookups of the current chunk: `(batch row,
    /// position in the outcome column)` for brown/orange packets, whose
    /// PL decision is stateless and can be resolved columnar after the
    /// stateful walk.
    pending: Vec<(u32, u32)>,
    /// PL feature columns of the pending rows, gathered from the packets.
    pend_cols: FeatureColumns,
    /// Transposed FL feature columns of one `classify_batch` chunk.
    fl_cols: FeatureColumns,
    /// Row-major bitmap accumulator of the batch index probes.
    bscratch: BatchScratch,
    /// First-match results of the latest batch probe.
    hits: Vec<Option<u32>>,
}

/// The complete mutable data-plane state of one logical shard: its flow
/// table partition, blacklist, pending digest buffer, path and phase
/// counters, and — in the sketched layout only — the sketch admission
/// stage. A [`Pipeline`] owns one full-size instance
/// (serial and sketched layouts) or [`LOGICAL_SHARDS`] (sharded layout);
/// both walks run against this same shape.
pub(crate) struct ShardState {
    pub(crate) flow: FlowShard,
    pub(crate) blacklist: FlowSet<FiveTuple>,
    pub(crate) digests: Vec<SeqDigest>,
    pub(crate) paths: PathCounters,
    /// Phase-boundary looks that convicted the flow.
    pub(crate) convicted: u64,
    pub(crate) overload: OverloadState,
    pub(crate) sketch: Option<Box<SketchStage>>,
}

impl ShardState {
    pub(crate) fn new(cfg: FlowTableConfig) -> Self {
        Self {
            flow: FlowShard::new(cfg),
            blacklist: FlowSet::default(),
            digests: Vec::new(),
            paths: PathCounters::default(),
            convicted: 0,
            overload: OverloadState::default(),
            sketch: None,
        }
    }

    /// The flow-table observe both walks make: advance a resident flow
    /// (touching the sketch's eviction book, if any), or — at the
    /// untracked seam — claim a slot directly (exact layouts) or through
    /// sketch admission. `None` means the sketch absorbed the packet: it
    /// takes the stateless orange fallback.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        key: FiveTuple,
        i1: u32,
        i2: u32,
        pkt: &Packet,
    ) -> Option<InsertOutcome> {
        let Self { flow, sketch, overload, .. } = self;
        match flow.observe_resident_prehashed(key, i1, i2, pkt, pkt.ts_ns) {
            Some((out, pos)) => {
                if let Some(sk) = sketch {
                    sk.touch(pos);
                }
                Some(out)
            }
            None => match sketch {
                None => Some(flow.admit_prehashed(key, i1, i2, pkt, pkt.ts_ns).0),
                Some(sk) => sk.admit(flow, overload, key, i1, i2, pkt),
            },
        }
    }

    /// Applies a controller command to this (owning) shard. `ClearFlow`
    /// also drops the flow from the sketch's eviction book.
    fn apply(&mut self, action: ControlAction) {
        match action {
            ControlAction::InstallBlacklist(five) => {
                self.blacklist.insert(five.canonical());
            }
            ControlAction::RemoveBlacklist(five) => {
                self.blacklist.remove(&five.canonical());
            }
            ControlAction::ClearFlow(five) => {
                if let (Some(pos), Some(sk)) = (self.flow.clear(&five), &mut self.sketch) {
                    sk.forget(pos);
                }
            }
        }
    }

    /// Advances this shard by one batch: records the pressure gauge,
    /// steps the hysteretic degraded-mode machine — enter immediately at
    /// `degrade_enter_milli`, exit only after `degrade_calm_batches`
    /// consecutive batches at or below `degrade_exit_milli` — and records
    /// the sketch stage's occupancy gauges. Called exactly once per
    /// non-empty batch per logical shard by both walks, so mode
    /// transitions are invariant under worker count and shard grouping.
    pub(crate) fn end_batch(&mut self, cfg: &OverloadConfig) {
        if let Some(sk) = &self.sketch {
            sk.end_batch();
        }
        let pressure = self.flow.pressure_milli();
        histogram!("switch.flow_table.pressure").record(pressure as u64);
        let o = &mut self.overload;
        if o.degraded {
            o.counts.degraded_batches += 1;
            if pressure <= cfg.degrade_exit_milli {
                o.calm += 1;
                if o.calm >= cfg.degrade_calm_batches {
                    o.degraded = false;
                    o.calm = 0;
                    o.counts.degraded_exits += 1;
                }
            } else {
                o.calm = 0;
            }
        } else if pressure >= cfg.degrade_enter_milli {
            o.degraded = true;
            o.calm = 0;
            o.counts.degraded_entries += 1;
        }
    }

    /// This shard's snapshot: every count it owns, with no slot scan.
    #[inline]
    pub(crate) fn stats(&self) -> DataPlaneStats {
        let (table, o) = (self.flow.stats(), &self.overload);
        DataPlaneStats {
            paths: self.paths,
            events: *self.flow.events(),
            phase_convicted: self.convicted,
            occupancy: table.occupancy,
            capacity: table.capacity,
            overload: OverloadStats {
                pressure: self.flow.pressure_stats(),
                degraded_shards: o.degraded as u32,
                ..o.counts
            },
            sketch: self.sketch.as_ref().map(|sk| sk.view()),
            ..DataPlaneStats::default()
        }
    }
}

/// Per-shard overload state: the hysteretic degraded-mode flag plus the
/// shedding/residency accounting it drives. Advanced once per batch by
/// [`ShardState::end_batch`]; consulted on every digest push. Everything here
/// is derived from the shard's own packet stream and batch count, never
/// from wall-clock or sibling shards — a storm degrading one shard leaves
/// the others' state untouched.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OverloadState {
    /// In degraded mode: benign digests are shed at the source and (in
    /// the sketched layout) admission demands more evidence.
    pub(crate) degraded: bool,
    /// Consecutive calm batches seen while degraded.
    calm: u32,
    /// The shard's counts in the shape it reports them; `pressure` and
    /// `degraded_shards` are filled in by [`ShardState::stats`].
    pub(crate) counts: OverloadStats,
}

impl OverloadState {
    /// Bounded digest buffering with deterministic priority shedding —
    /// the only way digests enter a shard's buffer.
    ///
    /// * Degraded mode sheds benign digests at the source: the flow keeps
    ///   its written label and later packets still take the purple path,
    ///   so verdicts are unchanged — only the controller's ClearFlow
    ///   housekeeping is deferred.
    /// * At the buffer cap, an incoming malicious digest displaces the
    ///   oldest *benign* one (malicious evidence outlives benign); an
    ///   incoming benign digest is dropped; a cap-full all-malicious
    ///   buffer keeps its earliest evidence and drops the newcomer.
    pub(crate) fn push_digest(
        &mut self,
        buf: &mut Vec<SeqDigest>,
        sd: SeqDigest,
        cfg: &OverloadConfig,
    ) {
        let counts = &mut self.counts;
        if self.degraded && !sd.digest.malicious {
            counts.shed_benign += 1;
            return;
        }
        if buf.len() >= cfg.digest_buffer_cap {
            if sd.digest.malicious {
                if let Some(i) = buf.iter().position(|d| !d.digest.malicious) {
                    // O(cap) shift, paid only while a storm overflows the
                    // buffer; removal preserves the seq order the merge
                    // relies on.
                    buf.remove(i);
                    counts.shed_benign += 1;
                } else {
                    counts.shed_malicious += 1;
                    return;
                }
            } else {
                counts.shed_benign += 1;
                return;
            }
        }
        buf.push(sd);
        counts.digest_buffered_hwm = counts.digest_buffered_hwm.max(buf.len());
    }
}

/// A whitelist with its compiled first-match index. All verdicts go
/// through the index; debug builds cross-check every lookup against the
/// linear scan, and the exhaustive parity suite pins the equivalence in
/// release. Built once per generation and shared by [`Arc`] between the
/// [`RulesetTxn`] that carries it and every epoch that installs it.
#[derive(Debug)]
pub(crate) struct IndexedWhitelist {
    rules: RuleSet,
    index: RuleIndex,
}

impl IndexedWhitelist {
    pub(crate) fn new(rules: RuleSet) -> Self {
        let index = rules.build_index();
        Self { rules, index }
    }

    pub(crate) fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Malicious iff no whitelist rule matches — identical to
    /// [`RuleSet::predict`], resolved through the index.
    fn predict(&self, x: &[f32], words: &mut Vec<u64>, wl: &mut WhitelistCounters) -> bool {
        wl.lookups += 1;
        let hit = self.index.lookup(x, words);
        debug_assert_eq!(hit, self.rules.lookup(x), "compiled index diverged from linear scan");
        if hit.is_some() {
            wl.hits += 1;
        }
        hit.is_none()
    }

    /// Columnar [`IndexedWhitelist::predict`] over a whole chunk: fills
    /// `hits` with the first-match rule per row (`None` ⇒ malicious).
    /// Counter totals equal `cols.rows()` scalar calls, and debug builds
    /// re-assert every row against the linear scan — the scalar oracle of
    /// the batch path.
    fn predict_batch(
        &self,
        cols: &FeatureColumns,
        scratch: &mut BatchScratch,
        hits: &mut Vec<Option<u32>>,
        wl: &mut WhitelistCounters,
    ) {
        // Stack views: the widest feature set (FL) bounds every
        // whitelist's column count.
        let dims = cols.dims();
        assert!(dims <= SWITCH_FL_DIM, "{dims} feature columns exceed SWITCH_FL_DIM");
        let views: [&[f32]; SWITCH_FL_DIM] =
            std::array::from_fn(|d| if d < dims { cols.column(d) } else { &[] });
        let views = &views[..dims];
        wl.lookups += cols.rows() as u64;
        self.index.lookup_batch(views, scratch, hits);
        wl.hits += hits.iter().filter(|h| h.is_some()).count() as u64;
        #[cfg(debug_assertions)]
        {
            let mut row = Vec::new();
            for (i, h) in hits.iter().enumerate() {
                row.clear();
                row.extend(views.iter().map(|c| c[i]));
                debug_assert_eq!(
                    h.map(|b| b as usize),
                    self.rules.lookup(&row),
                    "batch probe diverged from linear scan at row {i}"
                );
            }
        }
    }
}

/// One complete, self-consistent generation of the installed FL
/// whitelist: the float rules the hot path matches on, and the TCAM
/// entry table the same generation was installed from. Both halves swap
/// together, so the emulated float match and the modelled TCAM contents
/// can never skew. Every piece is shared by [`Arc`], so building a
/// successor reuses whatever it does not replace.
struct WhitelistEpoch {
    /// Float-side whitelist with its compiled index, compiled once by
    /// the [`RulesetTxn`] that installed it.
    fl: Arc<IndexedWhitelist>,
    /// The installed TCAM image, canonical `(priority, fields)` order.
    table: Arc<RangeTable>,
    /// Per-phase whitelists, index-aligned with the flow table's
    /// [`iguard_flow::table::PhaseSchedule`] boundaries. Empty = phase
    /// evaluation disabled (every boundary look escalates). Part of the
    /// epoch so a swap replaces all phases and the final ruleset together.
    phases: Arc<[IndexedWhitelist]>,
}

/// The per-packet match-action logic, factored out of [`Pipeline`] so
/// every layout and both walks share one decision procedure. Holds only
/// read-only state (the installed rules, their compiled indexes, and the
/// config flags); the mutable flow/blacklist/digest state — and the
/// per-worker lookup scratch — is passed in per call, which is what lets
/// shards run it concurrently on disjoint state.
///
/// ## Hitless ruleset swap
///
/// [`MatchEngine::apply_ruleset`] builds the successor generation
/// completely — the table after one merge walk of the delta, and the float
/// rules the transaction compiled, shared by [`Arc`] — and only then
/// assigns it over the live `epoch`. The assignment happens under
/// `&mut self`, which the [`DataPlane`] contract confines to the gap
/// between batches: every packet is classified by exactly one complete
/// ruleset and zero packets observe a partial table. (On real hardware the
/// same discipline is a release-store of the active-buffer pointer after
/// the staging writes; see DESIGN.md §13.)
pub(crate) struct MatchEngine {
    /// The live whitelist generation over the 13 switch FL features.
    epoch: WhitelistEpoch,
    /// Version of the live epoch (0 until the first transaction).
    version: u64,
    /// Whitelist over the 4 PL features (not part of the drift loop).
    pl_rules: IndexedWhitelist,
    drop_malicious: bool,
    log_compress: bool,
    /// Digest-shedding configuration consulted at every digest push.
    overload: OverloadConfig,
    ruleset_stats: RulesetCounters,
}

impl MatchEngine {
    pub(crate) fn new(cfg: &PipelineConfig, fl_rules: RuleSet, pl_rules: RuleSet) -> Self {
        assert_eq!(fl_rules.bounds.len(), 13, "FL rules must cover the 13 switch features");
        assert_eq!(pl_rules.bounds.len(), 4, "PL rules must cover the 4 packet features");
        Self {
            epoch: WhitelistEpoch {
                fl: Arc::new(IndexedWhitelist::new(fl_rules)),
                table: Arc::default(),
                phases: Arc::from([]),
            },
            version: 0,
            pl_rules: IndexedWhitelist::new(pl_rules),
            drop_malicious: cfg.drop_malicious,
            log_compress: cfg.log_compress,
            overload: cfg.overload,
            ruleset_stats: RulesetCounters::default(),
        }
    }

    /// The live FL whitelist generation.
    fn fl_rules(&self) -> &IndexedWhitelist {
        &self.epoch.fl
    }

    /// The live whitelist of intermediate phase `phase`, if one is
    /// installed. `None` means the boundary look has no model — the
    /// packet escalates exactly like a brown early packet.
    fn phase_rules(&self, phase: u8) -> Option<&IndexedWhitelist> {
        self.epoch.phases.get(phase as usize)
    }

    /// Installs one whitelist ruleset per intermediate phase, replacing
    /// any previous phase array. Hitless: the successor epoch (the new
    /// phase array next to the live FL generation) is complete before it
    /// replaces the live one — the same discipline as
    /// [`MatchEngine::apply_ruleset`], so all phases (and the final
    /// ruleset) always swap together.
    pub(crate) fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        for rs in rulesets {
            assert_eq!(rs.bounds.len(), 13, "phase rules must cover the 13 switch features");
        }
        self.epoch = WhitelistEpoch {
            fl: Arc::clone(&self.epoch.fl),
            table: Arc::clone(&self.epoch.table),
            phases: rulesets.iter().map(|r| IndexedWhitelist::new(r.clone())).collect(),
        };
        self.ruleset_stats.phase_installed += rulesets.len() as u64;
    }

    /// Applies a versioned ruleset transaction (see [`crate::ruleset`]).
    ///
    /// * `txn.version == version + 1` — the successor epoch is built
    ///   (delta merged into the live table, the transaction's compiled
    ///   float rules shared, the phase array carried over) and replaces the
    ///   live one once it is complete. Nothing is recompiled: the cost is
    ///   one walk over the table.
    /// * `txn.version <= version` — idempotent replay: no-op, `Ok`.
    /// * anything newer, or a delta or whitelist whose shape does not fit
    ///   the live table and the 13 switch features —
    ///   [`SwitchError::StaleRuleset`]; the live epoch keeps serving.
    pub(crate) fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        if txn.version <= self.version {
            self.ruleset_stats.replayed += 1;
            return Ok(());
        }
        let expected = self.version + 1;
        let live = &self.epoch;
        let table = if txn.version != expected || txn.fl_rules().bounds.len() != SWITCH_FL_DIM {
            Err(SwitchError::StaleRuleset { expected, got: txn.version })
        } else {
            apply_delta(
                &live.table,
                txn.installs(),
                txn.removes(),
                txn.field_bits(),
                expected,
                txn.version,
            )
        };
        let table = match table {
            Ok(t) => t,
            Err(e) => {
                self.ruleset_stats.stale += 1;
                return Err(e);
            }
        };
        // The successor is complete before it replaces the live epoch.
        // Phase whitelists ride along unchanged: a final-ruleset swap must
        // never silently drop the phase array.
        self.epoch = WhitelistEpoch {
            fl: Arc::clone(txn.fl()),
            table: Arc::new(table),
            phases: Arc::clone(&live.phases),
        };
        self.version = txn.version;
        self.ruleset_stats.installed += txn.installs().len() as u64;
        self.ruleset_stats.removed += txn.removes().len() as u64;
        self.ruleset_stats.swaps += 1;
        Ok(())
    }

    /// FL verdict for one raw 13-feature row: applies the configured
    /// log-compress map into the scratch row buffer (the installed rules
    /// were trained on compressed features), then resolves through the
    /// compiled index. The batch classification entry points build on this.
    pub(crate) fn classify_fl(&self, row: &[f32], scratch: &mut MatchScratch) -> bool {
        let MatchScratch { words, row: buf, wl, .. } = scratch;
        let x: &[f32] = if self.log_compress {
            buf.clear();
            buf.extend_from_slice(row);
            iguard_flow::features::log_compress_vec(buf);
            buf
        } else {
            row
        };
        self.fl_rules().predict(x, words, wl)
    }

    /// The live FL features of a frozen flow-stats record, written into
    /// `row` under the configured log-compress map.
    fn fl_row(&self, stats: &FlowStats, row: &mut Vec<f32>) {
        switch_fl_features_into(stats, row);
        if self.log_compress {
            log_compress_vec(row);
        }
    }

    /// The six-path dispatch both walks share: turns one
    /// [`ShardState::observe`] result into the packet's outcome. Purple,
    /// blue and phase-boundary packets resolve here, because a verdict
    /// writes the flow label that the flow's next packet — possibly in
    /// this very batch — must see. Brown packets and orange packets
    /// (collisions, and packets the sketch absorbed) come back with
    /// `pending = true` and a placeholder `Forward` verdict: their
    /// packet-level decision is stateless, so the caller resolves it,
    /// inline (scalar walk) or in one batched probe (columnar walk).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn dispatch(
        &self,
        s: &mut ShardState,
        scratch: &mut MatchScratch,
        seen: Option<InsertOutcome>,
        pkt: &Packet,
        key: FiveTuple,
        (i1, i2): (u32, u32),
        seq: u64,
    ) -> (ProcessOutcome, bool) {
        let pending = |path| {
            (ProcessOutcome { verdict: PacketVerdict::Forward, path, mirrored: false }, true)
        };
        let digest = match seen {
            Some(InsertOutcome::Classified { label }) => {
                let verdict = self.verdict_for(label);
                return (
                    ProcessOutcome { verdict, path: PathTaken::Purple, mirrored: false },
                    false,
                );
            }
            Some(InsertOutcome::Early { .. }) => return pending(PathTaken::Brown),
            None | Some(InsertOutcome::Collision | InsertOutcome::ReplacedClassified { .. }) => {
                return pending(PathTaken::Orange)
            }
            Some(InsertOutcome::Ready { stats, timed_out: _ }) => {
                self.fl_row(&stats, &mut scratch.row);
                let MatchScratch { words, row, wl, .. } = scratch;
                // The installed whitelist is the merge of FL and PL rules
                // (§3.3.1): a flow must look benign to both to pass.
                let malicious = self.fl_rules().predict(row, words, wl)
                    || self.pl_rules.predict(&packet_level_features_array(pkt), words, wl);
                Digest::new(pkt.five, malicious)
            }
            Some(InsertOutcome::PhaseReady { stats, phase }) => {
                // Convict-only early look: the per-phase whitelist can
                // pull the blue verdict forward to this boundary, but a
                // benign-looking flow is *not* labelled — it escalates to
                // the next phase (or the final threshold) like a brown
                // early packet. No model installed for this phase ⇒
                // escalate unconditionally.
                let convicted = match self.phase_rules(phase) {
                    Some(pwl) => {
                        self.fl_row(&stats, &mut scratch.row);
                        let MatchScratch { words, row, wl, .. } = scratch;
                        pwl.predict(row, words, wl)
                    }
                    None => false,
                };
                if !convicted {
                    return pending(PathTaken::Brown);
                }
                s.convicted += 1;
                Digest::at_phase(pkt.five, true, phase)
            }
        };
        // Blue path: digest to the controller, then the green loopback
        // copy writes the flow label.
        s.overload.push_digest(&mut s.digests, SeqDigest { seq, digest }, &self.overload);
        s.flow.set_label_prehashed(key, i1, i2, digest.malicious);
        let verdict = self.verdict_for(digest.malicious);
        (ProcessOutcome { verdict, path: PathTaken::Blue, mirrored: true }, false)
    }

    /// Runs one packet through the six-path pipeline against the given
    /// shard state. `seq` is the packet's global arrival index; a blue-path
    /// digest is tagged with it so per-shard digest streams can be merged
    /// back into arrival order deterministically.
    ///
    /// This is the scalar reference path; [`MatchEngine::process_rows`]
    /// is the columnar production path, parity-pinned to this one.
    pub(crate) fn process_one(
        &self,
        s: &mut ShardState,
        scratch: &mut MatchScratch,
        pkt: &Packet,
        seq: u64,
    ) -> ProcessOutcome {
        let key = pkt.five.canonical();
        let o = if s.blacklist.contains(&key) {
            BLACKLISTED
        } else {
            let slots = s.flow.slot_index_pair(&key);
            let seen = s.observe(key, slots.0, slots.1, pkt);
            let (mut o, pending) = self.dispatch(s, scratch, seen, pkt, key, slots, seq);
            if pending {
                let MatchScratch { words, wl, .. } = scratch;
                let pl = packet_level_features_array(pkt);
                o.verdict = self.verdict_for(self.pl_rules.predict(&pl, words, wl));
            }
            o
        };
        s.paths.record(&o);
        o
    }

    /// The columnar six-path walk: processes the batch rows listed in
    /// `rows` (indices into `pkts`, in per-shard arrival order) against
    /// the shard states, appending one outcome per row to `out` in `rows`
    /// order (`out[k]` answers row `rows[k]`).
    ///
    /// The walk is split into phases per [`BATCH_CHUNK`]-row chunk:
    ///
    /// 1. **Stateful walk** — per row: blacklist probe on the canonical
    ///    key, flow-table observe (sketch admission included), and the
    ///    shared [`MatchEngine::dispatch`]. Brown/orange rows only record
    ///    a *pending* entry — their PL decision is stateless.
    /// 2. **Columnar resolve** — the pending rows' PL features are
    ///    gathered into compact columns and resolved with one batch index
    ///    probe, then written back into the outcome column branchlessly.
    ///
    /// Verdicts, digests, and every counter are byte-identical to running
    /// [`MatchEngine::process_one`] over the same rows in the same order:
    /// chunk boundaries only ever split the stateless deferred lookups.
    /// `state_of` maps a batch row to its index in `states`; `seq` of row
    /// `r` is `base_seq + r`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_rows(
        &self,
        states: &mut [ShardState],
        state_of: impl Fn(usize) -> usize,
        pkts: &[Packet],
        rows: &[u32],
        base_seq: u64,
        scratch: &mut MatchScratch,
        out: &mut Vec<ProcessOutcome>,
    ) {
        out.reserve(rows.len());
        for chunk in rows.chunks(BATCH_CHUNK) {
            scratch.pending.clear();
            for &r in chunk {
                let i = r as usize;
                let pkt = &pkts[i];
                let s = &mut states[state_of(i)];
                let key = pkt.five.canonical();

                // Red path: blacklist match (the `is_empty` test skips the
                // hash when no rules are installed — the common case
                // mid-batch).
                let o = if !s.blacklist.is_empty() && s.blacklist.contains(&key) {
                    BLACKLISTED
                } else {
                    let slots = s.flow.slot_index_pair(&key);
                    let seen = s.observe(key, slots.0, slots.1, pkt);
                    let seq = base_seq + r as u64;
                    let (o, pending) = self.dispatch(s, scratch, seen, pkt, key, slots, seq);
                    if pending {
                        scratch.pending.push((r, out.len() as u32));
                    }
                    o
                };
                s.paths.record(&o);
                out.push(o);
            }
            self.resolve_pending(pkts, scratch, out);
        }
    }

    /// Phase 2 of [`MatchEngine::process_rows`]: gathers the deferred
    /// brown/orange rows' PL features into compact columns, probes the PL
    /// whitelist once for the whole set, and patches the verdict column
    /// in place (branchless select — `Forward`/`Drop` indexed by the
    /// decision bit).
    fn resolve_pending(
        &self,
        pkts: &[Packet],
        scratch: &mut MatchScratch,
        out: &mut [ProcessOutcome],
    ) {
        let MatchScratch { pending, pend_cols, bscratch, hits, wl, .. } = scratch;
        if pending.is_empty() {
            return;
        }
        pend_cols.reset(PL_DIM, pending.len());
        for (k, &(r, _)) in pending.iter().enumerate() {
            for (d, v) in packet_level_features_array(&pkts[r as usize]).into_iter().enumerate() {
                pend_cols.column_mut(d)[k] = v;
            }
        }
        self.pl_rules.predict_batch(pend_cols, bscratch, hits, wl);
        let verdicts = [PacketVerdict::Forward, PacketVerdict::Drop];
        for (&(_, pos), hit) in pending.iter().zip(hits.iter()) {
            out[pos as usize].verdict = verdicts[(hit.is_none() && self.drop_malicious) as usize];
        }
    }

    /// Columnar FL classification of dataset rows `start..end` (one
    /// chunk): transposes the rows into the scratch feature columns,
    /// applies the configured log-compress map per column, probes the FL
    /// index once for the whole chunk, and appends one verdict per row
    /// (`true` = malicious) — identical to per-row
    /// [`MatchEngine::classify_fl`] calls, counters included.
    pub(crate) fn classify_fl_batch(
        &self,
        rows: &Dataset,
        start: usize,
        end: usize,
        scratch: &mut MatchScratch,
        out: &mut Vec<bool>,
    ) {
        scratch.fl_cols.reset(SWITCH_FL_DIM, end - start);
        for d in 0..SWITCH_FL_DIM {
            let col = scratch.fl_cols.column_mut(d);
            for (dst, i) in col.iter_mut().zip(start..end) {
                *dst = rows.row(i)[d];
            }
            if self.log_compress {
                for v in col.iter_mut() {
                    *v = log_compress(*v);
                }
            }
        }
        let MatchScratch { fl_cols, bscratch, hits, wl, .. } = scratch;
        self.fl_rules().predict_batch(fl_cols, bscratch, hits, wl);
        out.extend(hits.iter().map(|h| h.is_none()));
    }

    pub(crate) fn verdict_for(&self, malicious: bool) -> PacketVerdict {
        if malicious && self.drop_malicious {
            PacketVerdict::Drop
        } else {
            PacketVerdict::Forward
        }
    }
}

/// The state layout a [`Pipeline`] is built with, picked by the config
/// type handed to [`Pipeline::new`]:
///
/// * [`PipelineConfig`] (or a bare [`FlowTableConfig`]) — one full-size
///   logical shard, walked serially;
/// * [`ShardedPipelineConfig`] — [`LOGICAL_SHARDS`] logical shards,
///   grouped into `shards` physical groups driven on a worker crew;
/// * [`SketchedPipelineConfig`] — one logical shard behind the sketch
///   admission stage.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    Serial(PipelineConfig),
    Sharded(ShardedPipelineConfig),
    Sketched(SketchedPipelineConfig),
}

impl From<PipelineConfig> for Layout {
    fn from(cfg: PipelineConfig) -> Self {
        Self::Serial(cfg)
    }
}

impl From<FlowTableConfig> for Layout {
    fn from(flow_table: FlowTableConfig) -> Self {
        Self::Serial(flow_table.into())
    }
}

impl From<ShardedPipelineConfig> for Layout {
    fn from(cfg: ShardedPipelineConfig) -> Self {
        Self::Sharded(cfg)
    }
}

impl From<SketchedPipelineConfig> for Layout {
    fn from(cfg: SketchedPipelineConfig) -> Self {
        Self::Sketched(cfg)
    }
}

/// A physical shard group: the logical shards one worker drives (each a
/// [`ShardState`] — a full, independent copy of the mutable data-plane
/// state for the flows hashed to it), plus the group's reusable outcome
/// buffer (one outcome per bin row, in bin order) and its private match
/// scratch (index bitmap words, deferred-lookup columns, whitelist
/// counters) — per group, not per shard, because one worker drives a
/// group serially. `verdicts` is the group's reusable slice of a
/// `classify_batch` result.
///
/// `inbox` holds the control actions routed to the group's shards since
/// it last settled, as `(shard in group, action)` in arrival order.
/// [`Group::settle`] applies them: first thing in the group's next
/// `process_batch` job, on the worker that walks these shards, or on the
/// caller before any other entry point touches shard state.
#[derive(Default)]
struct Group {
    shards: Vec<ShardState>,
    inbox: Vec<(usize, ControlAction)>,
    outcomes: Vec<ProcessOutcome>,
    scratch: MatchScratch,
    verdicts: Vec<bool>,
}

impl Group {
    /// Applies the inbox to the group's shards in arrival order and
    /// empties it.
    fn settle(&mut self) {
        for (p, action) in self.inbox.drain(..) {
            self.shards[p].apply(action);
        }
    }
}

/// Settles every group's inbox.
fn settle_all(groups: &mut [Group]) {
    groups.iter_mut().for_each(Group::settle);
}

/// The logical shards, in logical-shard order — every fold over them is
/// therefore identical at any physical grouping. Shard `p·G + g` is
/// `groups[g].shards[p]`, so the walk goes row by row, with no division.
fn logical_shards(groups: &[Group]) -> impl Iterator<Item = &ShardState> {
    let rows = groups[0].shards.len();
    (0..rows).flat_map(move |p| groups.iter().filter_map(move |g| g.shards.get(p)))
}

/// The emulated data plane, in any [`Layout`]. The batched [`DataPlane`]
/// entry points run the columnar hot path ([`MatchEngine::process_rows`]);
/// [`Pipeline::process`] is the scalar per-packet walk, kept
/// byte-compatible so it can serve as the parity oracle (see
/// [`ScalarPipeline`]).
///
/// [`DataPlane::apply`] only routes a control action to its group's
/// inbox. Each group applies its inbox at the start of its next
/// `process_batch` job, on the worker that walks its shards; every other
/// entry point settles the inboxes before it touches shard state, so
/// every read sees every applied action. The `&self` readers settle
/// through a [`RefCell`]: a `Pipeline` is `Send` but not `Sync`.
pub struct Pipeline {
    engine: MatchEngine,
    /// `groups[g].shards[p]` is logical shard `p * groups.len() + g`.
    groups: RefCell<Vec<Group>>,
    /// Logical shards: 1 (serial and sketched layouts) or
    /// [`LOGICAL_SHARDS`] (sharded layout).
    logical: usize,
    bins: ShardBins,
    /// Identity row index (`0..n`) for the single-group path.
    rows_idx: Vec<u32>,
    /// The threads driving the groups, sized `min(current_workers,
    /// groups)` by [`Crew::sized`] on first use; a crew of one (a single
    /// group, or one worker) starts no thread.
    crew: Option<Crew>,
    processed: u64,
    /// Monotonic counter for resync digest sequence tags (offset from
    /// [`RESYNC_SEQ_BASE`], disjoint from packet sequence numbers).
    resync_seq: u64,
    /// The rows the last [`Pipeline::publish`] rendered.
    published: Rows<PUBLISHED>,
}

/// Number of registry counters a [`Pipeline`] publishes.
const PUBLISHED: usize = 38;

/// Every registry counter a [`Pipeline`] publishes, with its total in `s`.
fn registry_rows(s: &DataPlaneStats) -> Rows<PUBLISHED> {
    let (p, wl, e, ov, rs) = (&s.paths, &s.whitelist, &s.events, &s.overload, &s.ruleset);
    let sk = s.sketch.unwrap_or_default();
    [
        ("switch.pipeline.path.blacklist", p.blacklist),
        ("switch.pipeline.path.brown", p.brown),
        ("switch.pipeline.path.blue", p.blue),
        ("switch.pipeline.path.orange", p.orange),
        ("switch.pipeline.path.purple", p.purple),
        ("switch.pipeline.path.green_loopback", p.green_loopback),
        ("core.rule_index.lookup", wl.lookups),
        ("core.rule_index.hit", wl.hits),
        ("flow.table.classified", e.classified),
        ("flow.table.ready_timeout", e.ready_timeout),
        ("flow.table.ready", e.ready),
        ("flow.table.phase_ready", e.phase_ready),
        ("flow.table.early", e.early),
        ("flow.table.install", e.install),
        ("flow.table.evict_classified", e.evict_classified),
        ("flow.table.collision", e.collision),
        ("flow.table.evict_budget", e.evict_budget),
        ("flow.table.clear", e.clear),
        // Every phase-ready observation reaches the dispatch's boundary
        // look, which convicts the flow or escalates it.
        ("switch.phase.boundary", e.phase_ready),
        ("switch.phase.escalated", e.phase_ready - s.phase_convicted),
        ("switch.phase.convicted", s.phase_convicted),
        ("switch.sketch.promoted", sk.promoted),
        ("switch.sketch.absorbed", sk.absorbed),
        // Only the sketch stage evicts under a budget.
        ("switch.sketch.evicted", e.evict_budget),
        ("switch.sketch.window_reset", sk.window_resets),
        ("switch.overload.degraded_enter", ov.degraded_entries),
        ("switch.overload.degraded_exit", ov.degraded_exits),
        ("switch.overload.shed_benign", ov.shed_benign),
        ("switch.overload.shed_malicious", ov.shed_malicious),
        ("switch.overload.admission_tightened", ov.admission_tightened),
        // High-water marks publish the merged view: occupancy marks sum
        // over shards, collision-window marks take the max.
        ("switch.flow_table.occupancy_hwm", ov.pressure.occupancy_hwm as u64),
        ("switch.flow_table.collision_hwm", ov.pressure.collision_window_hwm),
        ("switch.ruleset.installed", rs.installed),
        ("switch.ruleset.removed", rs.removed),
        ("switch.ruleset.swaps", rs.swaps),
        ("switch.ruleset.stale", rs.stale),
        ("switch.ruleset.replayed", rs.replayed),
        ("switch.phase.rulesets_installed", rs.phase_installed),
    ]
}

/// Registry counters by name, each with its total.
pub(crate) type Rows<const N: usize> = [(&'static str, u64); N];

/// Adds each row's growth over the same row of `published` to the
/// registry counter `handles` caches for it, then records `rows` as
/// published. A counter registers (the only allocation) on its first
/// growth, or when `register` names it.
pub(crate) fn publish_growth<const N: usize>(
    handles: &[OnceLock<&'static Counter>; N],
    published: &mut Rows<N>,
    rows: Rows<N>,
    register: impl Fn(&str) -> bool,
) {
    for (((name, total), (_, was)), handle) in rows.iter().zip(published.iter()).zip(handles) {
        if total > was || (handle.get().is_none() && register(name)) {
            handle.get_or_init(|| registry::counter(name)).add(total - was);
        }
    }
    *published = rows;
}

// A pipeline and the crew it owns move between threads together.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Pipeline>();
};

impl Pipeline {
    pub fn new(layout: impl Into<Layout>, fl_rules: RuleSet, pl_rules: RuleSet) -> Self {
        let (cfg, logical, phys, sketch) = match layout.into() {
            Layout::Serial(cfg) => (cfg, 1, 1, None),
            Layout::Sharded(s) => {
                (s.pipeline, LOGICAL_SHARDS, s.shards.clamp(1, LOGICAL_SHARDS), None)
            }
            Layout::Sketched(s) => (s.pipeline, 1, 1, Some(s)),
        };
        // Preserve total capacity: each logical shard gets an equal cut of
        // the configured slots.
        let slots = (cfg.flow_table.slots_per_table / logical).max(1);
        let shard_cfg = FlowTableConfig { slots_per_table: slots, ..cfg.flow_table };
        let mut groups: Vec<Group> = (0..phys).map(|_| Group::default()).collect();
        for l in 0..logical {
            groups[l % phys].shards.push(ShardState::new(shard_cfg));
        }
        let first = &mut groups[0].shards[0];
        first.sketch = sketch.map(|s| Box::new(SketchStage::new(s, first.flow.capacity())));
        Self {
            engine: MatchEngine::new(&cfg, fl_rules, pl_rules),
            groups: RefCell::new(groups),
            logical,
            bins: ShardBins::new(),
            rows_idx: Vec::new(),
            crew: None,
            processed: 0,
            resync_seq: 0,
            published: registry_rows(&DataPlaneStats::default()),
        }
    }

    /// Processes one packet through the scalar per-packet walk (the
    /// oracle path; see [`ScalarPipeline`]).
    pub fn process(&mut self, pkt: &Packet) -> ProcessOutcome {
        let seq = self.processed;
        self.processed += 1;
        let l = self.shard_of(&pkt.five);
        let groups = self.groups.get_mut();
        settle_all(groups);
        let phys = groups.len();
        let Group { shards, scratch, .. } = &mut groups[l % phys];
        self.engine.process_one(&mut shards[l / phys], scratch, pkt, seq)
    }

    /// Adds each counter's growth since the last published snapshot to the
    /// registry, on the calling thread after the crew has joined. A counter
    /// registers (the only allocation) on its first growth, or for the
    /// ruleset entry counts on the first accepted swap.
    fn publish(&mut self) {
        static HANDLES: [OnceLock<&'static Counter>; PUBLISHED] =
            [const { OnceLock::new() }; PUBLISHED];
        const WITH_SWAP: [&str; 2] = ["switch.ruleset.installed", "switch.ruleset.removed"];
        let now = self.stats();
        let swapped = now.ruleset.swaps > 0;
        publish_growth(&HANDLES, &mut self.published, registry_rows(&now), |name| {
            swapped && WITH_SWAP.contains(&name)
        });
    }

    /// Closes a batch on every logical shard (see [`ShardState::end_batch`]).
    fn end_batch(&mut self) {
        for st in self.groups.get_mut().iter_mut().flat_map(|g| &mut g.shards) {
            st.end_batch(&self.engine.overload);
        }
    }

    /// Logical shard owning a flow.
    fn shard_of(&self, five: &FiveTuple) -> usize {
        if self.logical == 1 {
            0
        } else {
            logical_shard_of(five)
        }
    }

    /// The groups with every inbox settled, for the `&self` readers.
    fn settled(&self) -> Ref<'_, Vec<Group>> {
        settle_all(&mut self.groups.borrow_mut());
        self.groups.borrow()
    }

    /// Installs one whitelist per intermediate phase boundary of the flow
    /// table's [`iguard_flow::table::PhaseSchedule`]. One engine is shared
    /// read-only by every shard group, so the single hitless epoch flip
    /// swaps the phase array (and the final ruleset) for all logical
    /// shards at once. An empty slice disables phase evaluation — every
    /// boundary look escalates.
    pub fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        self.engine.set_phase_rulesets(rulesets);
        self.publish();
    }

    /// Number of per-phase whitelists installed in the live epoch.
    pub fn phase_count(&self) -> usize {
        self.engine.epoch.phases.len()
    }

    /// The installed TCAM image of the live ruleset epoch, in canonical
    /// `(priority, fields)` order (empty until the first transaction).
    pub fn ruleset_table(&self) -> &RangeTable {
        &self.engine.epoch.table
    }

    /// Physical shard groups in use (≤ [`LOGICAL_SHARDS`]).
    pub fn physical_shards(&self) -> usize {
        self.groups.borrow().len()
    }

    /// Packets processed per logical shard, in logical-shard order.
    pub fn shard_packet_counts(&self) -> Vec<u64> {
        logical_shards(&self.settled()).map(|s| s.paths.total_offered()).collect()
    }

    /// Snapshot per logical shard, in logical-shard order — the unmerged
    /// constituents of [`DataPlane::stats`], for tests and tooling that
    /// need to see *which* shards are degraded or what each one counted.
    /// The pipeline-scoped whitelist and ruleset counts read zero here.
    pub fn shard_stats(&self) -> Vec<DataPlaneStats> {
        logical_shards(&self.settled()).map(ShardState::stats).collect()
    }

    /// Load-imbalance ratio: max over mean of per-shard packet counts
    /// (1.0 = perfectly balanced; 0.0 when nothing was processed).
    pub fn imbalance_ratio(&self) -> f64 {
        let counts = self.shard_packet_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

impl DataPlane for Pipeline {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        out.clear();
        if pkts.is_empty() {
            return;
        }
        record_batch_telemetry(pkts.len());
        let Self { groups, bins, engine, processed, rows_idx, crew, logical, .. } = self;
        let groups = groups.get_mut();
        let phys = groups.len();
        if *logical > 1 {
            counter!("switch.sharded.batches").inc();
            histogram!("switch.sharded.batch_packets").record(pkts.len() as u64);
        }
        // `logical_shard_of` is direction-symmetric, so hashing the
        // wire-order tuple picks the shard of the canonical flow key.
        let shard_of = |i: usize| logical_shard_of(&pkts[i].five);
        let base_seq = *processed;
        *processed += pkts.len() as u64;
        let overload = &engine.overload;

        // Single physical group: the caller settles the inbox and walks
        // the rows in arrival order, so the engine writes the outcome
        // column directly — no binning, group buffer or scatter pass.
        // Output is identical to the general path by construction.
        if phys == 1 {
            groups[0].settle();
            let Group { shards, scratch, .. } = &mut groups[0];
            rows_idx.clear();
            rows_idx.extend(0..pkts.len() as u32);
            if *logical == 1 {
                engine.process_rows(shards, |_| 0, pkts, rows_idx, base_seq, scratch, out);
            } else {
                engine.process_rows(shards, shard_of, pkts, rows_idx, base_seq, scratch, out);
            }
            for st in shards.iter_mut() {
                st.end_batch(overload);
            }
        } else {
            // Bin packet indices by physical group, preserving arrival
            // order.
            bins.reset(phys);
            for i in 0..pkts.len() {
                bins.push(shard_of(i) % phys, i as u32);
            }

            let bins = &*bins;
            let engine = &*engine;
            let crew = Crew::sized(crew, par::current_workers().min(phys));
            crew.for_each_mut(groups, |g, group| {
                let bin = bins.bin(g);
                histogram!("switch.sharded.group_batch_packets").record(bin.len() as u64);
                // The actions sent since the last batch are applied here,
                // on the worker whose cache holds these shards.
                group.settle();
                let Group { shards, outcomes, scratch, .. } = group;
                outcomes.clear();
                engine.process_rows(
                    shards,
                    |i| shard_of(i) / phys,
                    pkts,
                    bin,
                    base_seq,
                    scratch,
                    outcomes,
                );
                // Every group steps all of its shards every batch (even
                // shards whose bin was empty this batch): the hysteresis
                // clock is per-batch, not per-packet, so it must tick
                // uniformly.
                for st in shards.iter_mut() {
                    st.end_batch(overload);
                }
            });

            // Reassemble outcomes into packet order: each group emits one
            // outcome per bin row in bin order, and the bins partition
            // 0..pkts.len(), so every index is written exactly once.
            out.resize(pkts.len(), BLACKLISTED);
            for (g, group) in groups.iter().enumerate() {
                debug_assert_eq!(bins.bin(g).len(), group.outcomes.len());
                for (&i, &outcome) in bins.bin(g).iter().zip(&group.outcomes) {
                    out[i as usize] = outcome;
                }
            }
        }
        self.publish();
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        let groups = self.groups.get_mut();
        // One logical shard: its buffer is already in arrival order.
        if self.logical == 1 {
            out.append(&mut groups[0].shards[0].digests);
            return;
        }
        // Restore global packet arrival order across shards (seq is
        // unique — at most one digest per packet — so the sort is a
        // total, grouping-independent order).
        let start = out.len();
        span!("switch.sharded.digest_merge").time(|| {
            for st in groups.iter_mut().flat_map(|g| &mut g.shards) {
                out.append(&mut st.digests);
            }
            out[start..].sort_unstable_by_key(|sd| sd.seq);
        });
        // Occupancy telemetry only on productive drains — replay drains
        // after every batch and most drains are empty.
        if out.len() > start {
            settle_all(groups);
            for st in logical_shards(groups) {
                histogram!("switch.sharded.shard_occupancy").record(st.flow.occupancy() as u64);
            }
        }
    }

    fn apply(&mut self, action: ControlAction) {
        let (ControlAction::InstallBlacklist(five)
        | ControlAction::RemoveBlacklist(five)
        | ControlAction::ClearFlow(five)) = action;
        let l = self.shard_of(&five);
        let groups = self.groups.get_mut();
        let phys = groups.len();
        groups[l % phys].inbox.push((l / phys, action));
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        // One engine is shared read-only by every shard group, so a single
        // epoch flip swaps the ruleset for all shards at once — between
        // batches, per the trait contract.
        let applied = self.engine.apply_ruleset(txn);
        self.publish();
        applied
    }

    fn ruleset_version(&self) -> u64 {
        self.engine.version
    }

    fn blacklist_contents(&self) -> Vec<FiveTuple> {
        let mut v: Vec<FiveTuple> =
            logical_shards(&self.settled()).flat_map(|s| s.blacklist.iter().copied()).collect();
        v.sort_unstable();
        v
    }

    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>) {
        // Logical-shard order is fixed regardless of the physical
        // grouping, so the resync stream is shard/worker invariant.
        let groups = self.groups.get_mut();
        settle_all(groups);
        let mut flows = Vec::new();
        for st in logical_shards(groups) {
            st.flow.labeled_flows_into(&mut flows);
        }
        for (five, malicious) in flows {
            out.push(SeqDigest {
                seq: RESYNC_SEQ_BASE + self.resync_seq,
                digest: Digest::new(five, malicious),
            });
            self.resync_seq += 1;
        }
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        out.clear();
        let n = rows.rows();
        if n == 0 {
            return;
        }
        // Fixed `BATCH_CHUNK` boundaries, dealt to the groups as
        // contiguous runs of chunks: neither the boundaries nor the
        // concatenation order depend on the worker count, so the verdict
        // vector (and the counter totals) are worker-invariant.
        record_batch_telemetry(n);
        let Self { groups, engine, crew, .. } = self;
        let groups = groups.get_mut();
        let phys = groups.len();
        let rows_per_group = n.div_ceil(BATCH_CHUNK).div_ceil(phys) * BATCH_CHUNK;
        let engine = &*engine;
        let classify = |g: usize, group: &mut Group| {
            let Group { scratch, verdicts, .. } = group;
            verdicts.clear();
            let end = ((g + 1) * rows_per_group).min(n);
            for start in (g * rows_per_group..end).step_by(BATCH_CHUNK) {
                let chunk_end = (start + BATCH_CHUNK).min(n);
                engine.classify_fl_batch(rows, start, chunk_end, scratch, verdicts);
            }
        };
        Crew::sized(crew, par::current_workers().min(phys)).for_each_mut(groups, classify);
        out.reserve(n);
        for group in groups.iter() {
            out.extend_from_slice(&group.verdicts);
        }
        self.publish();
    }

    fn stats(&self) -> DataPlaneStats {
        let groups = self.settled();
        let mut all = logical_shards(&groups)
            .map(ShardState::stats)
            .reduce(|a, b| a.merge(&b))
            .unwrap_or_default();
        // Lookups live in the group scratches, ruleset counts in the engine.
        for g in groups.iter() {
            all.whitelist = all.whitelist.merge(&g.scratch.wl);
        }
        all.ruleset = self.engine.ruleset_stats;
        debug_assert_eq!(all.paths.total_offered(), self.processed);
        all
    }

    fn blacklist_len(&self) -> usize {
        logical_shards(&self.settled()).map(|s| s.blacklist.len()).sum()
    }
}

/// Batch-path telemetry: row-count distribution and the number of
/// [`BATCH_CHUNK`] chunks the batch cuts into. Recorded once per
/// top-level batch call — never per worker or per shard group — so the
/// totals are invariant under worker and shard count.
fn record_batch_telemetry(rows: usize) {
    histogram!("switch.batch.rows").record(rows as u64);
    counter!("switch.batch.chunks").add(rows.div_ceil(BATCH_CHUNK) as u64);
}

/// The scalar per-packet backend behind the [`DataPlane`] interface:
/// every batch call loops [`Pipeline::process`] /
/// [`MatchEngine::classify_fl`] one row at a time, exactly as the data
/// plane worked before the columnar refactor. It wraps a [`Pipeline`] of
/// any [`Layout`], so it is the measured baseline and parity oracle of
/// the structure-of-arrays walk for the serial, sharded and sketched
/// layouts alike — same rules, same state, no batching.
pub struct ScalarPipeline(Pipeline);

impl ScalarPipeline {
    pub fn new(layout: impl Into<Layout>, fl_rules: RuleSet, pl_rules: RuleSet) -> Self {
        Self(Pipeline::new(layout, fl_rules, pl_rules))
    }

    /// Installs per-phase whitelists on the wrapped pipeline (see
    /// [`Pipeline::set_phase_rulesets`]).
    pub fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        self.0.set_phase_rulesets(rulesets);
    }
}

impl DataPlane for ScalarPipeline {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        out.clear();
        // An empty batch is a no-op on every path: no overload tick.
        if pkts.is_empty() {
            return;
        }
        out.extend(pkts.iter().map(|p| self.0.process(p)));
        // One overload tick and one publish per batch, same cadence as the
        // columnar walk, so the two stay parity-pinned under pressure too.
        self.0.end_batch();
        self.0.publish();
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        self.0.drain_seq_digests_into(out);
    }

    fn apply(&mut self, action: ControlAction) {
        self.0.apply(action);
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        self.0.apply_ruleset(txn)
    }

    fn ruleset_version(&self) -> u64 {
        self.0.ruleset_version()
    }

    fn blacklist_contents(&self) -> Vec<FiveTuple> {
        self.0.blacklist_contents()
    }

    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>) {
        self.0.resync_labeled_into(out);
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        out.clear();
        let Pipeline { engine, groups, .. } = &mut self.0;
        let scratch = &mut groups.get_mut()[0].scratch;
        out.extend((0..rows.rows()).map(|i| engine.classify_fl(rows.row(i), scratch)));
        self.0.publish();
    }

    fn stats(&self) -> DataPlaneStats {
        self.0.stats()
    }

    fn blacklist_len(&self) -> usize {
        self.0.blacklist_len()
    }
}

#[cfg(test)]
impl Pipeline {
    /// Logical shard `logical`'s state, inboxes settled.
    pub(crate) fn shard(&self, logical: usize) -> Ref<'_, ShardState> {
        Ref::map(self.settled(), |groups| {
            let phys = groups.len();
            &groups[logical % phys].shards[logical / phys]
        })
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use iguard_core::rules::{Hypercube, RuleSet};

    /// A whitelist that accepts everything (one unbounded benign box).
    pub fn accept_all(dim: usize) -> RuleSet {
        RuleSet {
            bounds: vec![(0.0, 1.0); dim],
            whitelist: vec![Hypercube {
                lo: vec![f32::NEG_INFINITY; dim],
                hi: vec![f32::INFINITY; dim],
            }],
            total_regions: 1,
        }
    }

    /// A whitelist that rejects everything (empty).
    pub fn reject_all(dim: usize) -> RuleSet {
        RuleSet { bounds: vec![(0.0, 1.0); dim], whitelist: vec![], total_regions: 1 }
    }

    /// FL whitelist benign iff mean packet size (feature 2) < `cut`.
    pub fn fl_mean_size_below(cut: f32) -> RuleSet {
        let mut lo = vec![f32::NEG_INFINITY; 13];
        let mut hi = vec![f32::INFINITY; 13];
        lo[2] = f32::NEG_INFINITY;
        hi[2] = cut;
        RuleSet {
            bounds: vec![(0.0, 2000.0); 13],
            whitelist: vec![Hypercube { lo, hi }],
            total_regions: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_flow::five_tuple::PROTO_TCP;
    use iguard_flow::packet::TcpFlags;
    use iguard_flow::table::PhaseSchedule;
    use testutil::*;

    fn pkt(flow: u16, ts_ms: u64, len: u16) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A000001, 0xC0A80101, 30_000 + flow, 80, PROTO_TCP),
            wire_len: len,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    /// Drains `p`'s digests through the seq-tagged drain, tags dropped.
    fn drained(p: &mut Pipeline) -> Vec<Digest> {
        let mut v = Vec::new();
        p.drain_seq_digests_into(&mut v);
        v.into_iter().map(|sd| sd.digest).collect()
    }

    fn cfg(n: u64) -> PipelineConfig {
        PipelineConfig {
            flow_table: FlowTableConfig { pkt_threshold: n, ..Default::default() },
            drop_malicious: true,
            log_compress: false,
            overload: OverloadConfig::default(),
        }
    }

    #[test]
    fn benign_flow_walks_brown_then_blue_then_purple() {
        let mut p = Pipeline::new(cfg(3), accept_all(13), accept_all(4));
        let o1 = p.process(&pkt(1, 0, 100));
        assert_eq!(o1.path, PathTaken::Brown);
        assert_eq!(o1.verdict, PacketVerdict::Forward);
        let o2 = p.process(&pkt(1, 1, 100));
        assert_eq!(o2.path, PathTaken::Brown);
        let o3 = p.process(&pkt(1, 2, 100));
        assert_eq!(o3.path, PathTaken::Blue);
        assert!(o3.mirrored);
        assert_eq!(o3.verdict, PacketVerdict::Forward);
        // After classification: purple.
        let o4 = p.process(&pkt(1, 3, 100));
        assert_eq!(o4.path, PathTaken::Purple);
        assert_eq!(p.counters().green_loopback, 1);
        assert_eq!(drained(&mut p), vec![Digest::new(pkt(1, 0, 0).five, false)]);
    }

    #[test]
    fn malicious_flow_dropped_at_blue_and_after() {
        // FL whitelist only accepts mean size < 200: large-packet flow fails.
        let mut p = Pipeline::new(cfg(2), fl_mean_size_below(200.0), accept_all(4));
        let _ = p.process(&pkt(2, 0, 1000));
        let o2 = p.process(&pkt(2, 1, 1000));
        assert_eq!(o2.path, PathTaken::Blue);
        assert_eq!(o2.verdict, PacketVerdict::Drop);
        let o3 = p.process(&pkt(2, 2, 1000));
        assert_eq!(o3.path, PathTaken::Purple);
        assert_eq!(o3.verdict, PacketVerdict::Drop);
        let d = drained(&mut p);
        assert!(d[0].malicious);
    }

    #[test]
    fn transaction_with_wrong_feature_count_is_rejected_as_stale() {
        let mut p = Pipeline::new(cfg(2), fl_mean_size_below(200.0), accept_all(4));
        let mut table = RangeTable::new(vec![4]);
        table.push(crate::tcam::RangeEntry { fields: vec![(0, 15)], priority: 0 });
        let txn = RulesetTxn::full_install(1, &table, accept_all(12));
        assert_eq!(p.apply_ruleset(&txn), Err(SwitchError::StaleRuleset { expected: 1, got: 1 }));
        let c = p.ruleset_counters();
        assert_eq!((c.swaps, c.stale, c.installed), (0, 1, 0));
        assert_eq!(p.ruleset_version(), 0);
        assert!(p.ruleset_table().is_empty());
        // The live 13-feature generation keeps serving: the large-packet
        // flow still fails its whitelist.
        let _ = p.process(&pkt(2, 0, 1000));
        assert_eq!(p.process(&pkt(2, 1, 1000)).verdict, PacketVerdict::Drop);
    }

    #[test]
    fn blacklist_short_circuits() {
        let mut p = Pipeline::new(cfg(3), accept_all(13), accept_all(4));
        p.apply(ControlAction::InstallBlacklist(pkt(3, 0, 0).five));
        let o = p.process(&pkt(3, 0, 100));
        assert_eq!(o.path, PathTaken::Blacklist);
        assert_eq!(o.verdict, PacketVerdict::Drop);
        // Reverse direction also blocked (canonical key).
        let mut rev = pkt(3, 1, 100);
        rev.five = rev.five.reversed();
        assert_eq!(p.process(&rev).path, PathTaken::Blacklist);
    }

    iguard_runtime::proptest_lite! {
        /// The blacklist count matches the listed contents through
        /// duplicate installs, removes of absent keys, flow clears and
        /// both directions of a tuple, in every layout.
        fn blacklist_count_tracks_contents(rng, cases = 64) {
            use crate::sharded::ShardedPipelineConfig;
            use crate::sketched::SketchedPipelineConfig;
            let c = cfg(2);
            let layouts: [Layout; 5] = [
                c.into(),
                SketchedPipelineConfig { pipeline: c, ..Default::default() }.into(),
                ShardedPipelineConfig { pipeline: c, shards: 1 }.into(),
                ShardedPipelineConfig { pipeline: c, shards: 2 }.into(),
                ShardedPipelineConfig { pipeline: c, shards: 8 }.into(),
            ];
            let steps: Vec<(u16, bool, u8)> = (0..96)
                .map(|_| (rng.gen_range(0u16..12), rng.gen_bool(0.5), rng.gen_range(0u8..4)))
                .collect();
            for layout in layouts {
                let mut p = Pipeline::new(layout, accept_all(13), accept_all(4));
                for (i, &(flow, reverse, op)) in steps.iter().enumerate() {
                    let pk = pkt(flow, i as u64, 100);
                    let five = if reverse { pk.five.reversed() } else { pk.five };
                    match op {
                        0 => p.apply(ControlAction::InstallBlacklist(five)),
                        1 => p.apply(ControlAction::RemoveBlacklist(five)),
                        2 => p.apply(ControlAction::ClearFlow(five)),
                        _ => {
                            let _ = p.process(&pk);
                        }
                    }
                    assert_eq!(p.blacklist_len(), p.blacklist_contents().len(), "{layout:?} step {i}");
                }
            }
        }
    }

    #[test]
    fn pl_rules_drop_early_packets() {
        let mut p = Pipeline::new(cfg(5), accept_all(13), reject_all(4));
        let o = p.process(&pkt(4, 0, 100));
        assert_eq!(o.path, PathTaken::Brown);
        assert_eq!(o.verdict, PacketVerdict::Drop);
    }

    #[test]
    fn collision_takes_orange_path() {
        let mut c = cfg(100);
        c.flow_table.slots_per_table = 1;
        let mut p = Pipeline::new(c, accept_all(13), accept_all(4));
        let _ = p.process(&pkt(1, 0, 100));
        let _ = p.process(&pkt(2, 0, 100));
        let o = p.process(&pkt(3, 0, 100));
        assert_eq!(o.path, PathTaken::Orange);
        assert_eq!(o.verdict, PacketVerdict::Forward);
        assert_eq!(p.counters().orange, 1);
    }

    #[test]
    fn controller_actions_round_trip() {
        let mut p = Pipeline::new(cfg(2), accept_all(13), accept_all(4));
        let five = pkt(9, 0, 0).five;
        p.apply(ControlAction::InstallBlacklist(five));
        assert_eq!(p.blacklist_len(), 1);
        p.apply(ControlAction::RemoveBlacklist(five));
        assert_eq!(p.blacklist_len(), 0);
        // ClearFlow releases storage.
        let _ = p.process(&pkt(9, 0, 100));
        assert_eq!(p.flow_table_stats().occupancy, 1);
        p.apply(ControlAction::ClearFlow(five));
        assert_eq!(p.flow_table_stats().occupancy, 0);
    }

    #[test]
    fn quarantine_mode_forwards_detected_packets() {
        let mut c = cfg(2);
        c.drop_malicious = false;
        let mut p = Pipeline::new(c, fl_mean_size_below(10.0), accept_all(4));
        let _ = p.process(&pkt(5, 0, 500));
        let o = p.process(&pkt(5, 1, 500));
        assert_eq!(o.verdict, PacketVerdict::Forward); // detected but forwarded
        assert!(drained(&mut p)[0].malicious); // still reported
    }

    #[test]
    fn path_counters_sum_to_offered() {
        let mut p = Pipeline::new(cfg(2), accept_all(13), accept_all(4));
        for f in 0..10u16 {
            for i in 0..4u64 {
                let _ = p.process(&pkt(f, i, 100));
            }
        }
        assert_eq!(p.counters().total_offered(), 40);
        assert_eq!(p.packets_processed(), 40);
    }

    /// The overload canon config with an intermediate phase boundary.
    fn cfg_phases(n: u64, boundaries: &[u64]) -> PipelineConfig {
        let mut c = cfg(n);
        c.flow_table.phases = PhaseSchedule::new(boundaries);
        c
    }

    /// Off-by-one pin for the blue transition (exact-`pkt_threshold`
    /// boundary): the n-th packet of a flow — count == threshold, not
    /// threshold+1 — must take blue, and the scalar and columnar walks
    /// must agree packet-for-packet.
    #[test]
    fn blue_fires_at_exactly_the_threshold_packet_scalar_and_columnar() {
        let n = 4u64;
        let pkts: Vec<Packet> = (0..6).map(|i| pkt(1, i, 100)).collect();

        // Scalar oracle: process_one via Pipeline::process.
        let mut scalar = Pipeline::new(cfg(n), accept_all(13), accept_all(4));
        let scalar_paths: Vec<PathTaken> = pkts.iter().map(|p| scalar.process(p).path).collect();
        assert_eq!(
            scalar_paths,
            vec![
                PathTaken::Brown,  // 1st
                PathTaken::Brown,  // 2nd
                PathTaken::Brown,  // 3rd: count 3 < n, still early
                PathTaken::Blue,   // 4th: count == n exactly
                PathTaken::Purple, // classified thereafter
                PathTaken::Purple,
            ],
            "blue must fire at exactly the n-th packet"
        );

        // Columnar walk (process_rows) must place the transition on the
        // same packet.
        let mut columnar = Pipeline::new(cfg(n), accept_all(13), accept_all(4));
        let mut out = Vec::new();
        columnar.process_batch(&pkts, &mut out);
        let col_paths: Vec<PathTaken> = out.iter().map(|o| o.path).collect();
        assert_eq!(col_paths, scalar_paths, "columnar boundary diverged from scalar");
        assert_eq!(drained(&mut columnar), drained(&mut scalar));
    }

    #[test]
    fn phase_boundary_convicts_confident_malicious_early() {
        // Threshold 4, boundary at 2: a large-packet flow fails the phase
        // whitelist on its 2nd packet and is convicted two packets early.
        let mut p = Pipeline::new(cfg_phases(4, &[2]), accept_all(13), accept_all(4));
        p.set_phase_rulesets(&[fl_mean_size_below(200.0)]);
        assert_eq!(p.phase_count(), 1);
        assert_eq!(p.process(&pkt(1, 0, 1000)).path, PathTaken::Brown);
        let o2 = p.process(&pkt(1, 1, 1000));
        assert_eq!(o2.path, PathTaken::Blue);
        assert_eq!(o2.verdict, PacketVerdict::Drop);
        assert!(o2.mirrored);
        // Classified from here on — the label write happened at the
        // boundary.
        let o3 = p.process(&pkt(1, 2, 1000));
        assert_eq!(o3.path, PathTaken::Purple);
        assert_eq!(o3.verdict, PacketVerdict::Drop);
        let d = drained(&mut p);
        assert_eq!(d.len(), 1);
        assert!(d[0].malicious);
        assert_eq!(d[0].phase, 0, "digest must carry the deciding phase");
    }

    #[test]
    fn phase_boundary_escalates_uncertain_flows_to_the_final_threshold() {
        // Small packets pass the phase whitelist: no early verdict, no
        // label write — the flow escalates and keeps single-shot
        // semantics at the threshold.
        let mut p = Pipeline::new(cfg_phases(4, &[2]), accept_all(13), accept_all(4));
        p.set_phase_rulesets(&[fl_mean_size_below(200.0)]);
        assert_eq!(p.process(&pkt(2, 0, 100)).path, PathTaken::Brown);
        let o2 = p.process(&pkt(2, 1, 100));
        assert_eq!(o2.path, PathTaken::Brown, "escalation rides the brown path");
        assert!(!o2.mirrored);
        assert_eq!(p.process(&pkt(2, 2, 100)).path, PathTaken::Brown);
        let o4 = p.process(&pkt(2, 3, 100));
        assert_eq!(o4.path, PathTaken::Blue);
        let d = drained(&mut p);
        assert_eq!(d.len(), 1, "escalated flows digest once, at the threshold");
        assert_eq!(d[0].phase, FINAL_PHASE);
    }

    #[test]
    fn phase_schedule_without_rulesets_keeps_single_shot_semantics() {
        // A configured schedule with no installed phase whitelists must
        // behave exactly like today's pipeline: every boundary escalates.
        let pkts: Vec<Packet> = (0..5).map(|i| pkt(3, i, 1000)).collect();
        let mut plain = Pipeline::new(cfg(4), accept_all(13), accept_all(4));
        let mut phased = Pipeline::new(cfg_phases(4, &[2, 3]), accept_all(13), accept_all(4));
        for p in &pkts {
            let a = plain.process(p);
            let b = phased.process(p);
            assert_eq!((a.verdict, a.path, a.mirrored), (b.verdict, b.path, b.mirrored));
        }
        assert_eq!(drained(&mut plain), drained(&mut phased));
    }

    #[test]
    fn phase_walk_parity_scalar_vs_columnar() {
        // Mixed flows — convicted at the boundary, escalated to blue, and
        // short-lived — through both walks, interleaved in one batch.
        let phase_rules = [fl_mean_size_below(200.0)];
        let mut pkts = Vec::new();
        for i in 0..5u64 {
            pkts.push(pkt(1, i * 3, 1000)); // convicted at boundary
            pkts.push(pkt(2, i * 3 + 1, 100)); // escalates, blue at 4
            if i < 1 {
                pkts.push(pkt(3, i * 3 + 2, 100)); // stays early
            }
        }
        let mut scalar = ScalarPipeline::new(cfg_phases(4, &[2]), accept_all(13), accept_all(4));
        scalar.set_phase_rulesets(&phase_rules);
        let mut columnar = Pipeline::new(cfg_phases(4, &[2]), accept_all(13), accept_all(4));
        columnar.set_phase_rulesets(&phase_rules);
        let (mut so, mut co) = (Vec::new(), Vec::new());
        scalar.process_batch(&pkts, &mut so);
        columnar.process_batch(&pkts, &mut co);
        assert_eq!(so, co, "phase walks diverged between scalar and columnar");
        let (mut sd_, mut cd) = (Vec::new(), Vec::new());
        scalar.drain_seq_digests_into(&mut sd_);
        columnar.drain_seq_digests_into(&mut cd);
        assert_eq!(sd_, cd);
        assert!(sd_.iter().any(|d| d.digest.phase == 0), "expected a phase-0 conviction");
    }

    fn sd(seq: u64, malicious: bool) -> SeqDigest {
        SeqDigest { seq, digest: Digest::new(pkt(seq as u16, 0, 0).five, malicious) }
    }

    #[test]
    fn push_digest_sheds_benign_first_and_keeps_earliest_malicious_evidence() {
        let cfg = OverloadConfig::default().with_digest_buffer_cap(2);
        let mut o = OverloadState::default();
        let mut buf = Vec::new();
        o.push_digest(&mut buf, sd(0, false), &cfg);
        o.push_digest(&mut buf, sd(1, true), &cfg);
        assert_eq!(buf.len(), 2);
        // At the cap: an incoming benign digest is dropped...
        o.push_digest(&mut buf, sd(2, false), &cfg);
        assert_eq!((buf.len(), o.counts.shed_benign), (2, 1));
        // ...an incoming malicious one displaces the oldest benign...
        o.push_digest(&mut buf, sd(3, true), &cfg);
        assert_eq!(o.counts.shed_benign, 2);
        assert_eq!(buf.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert!(buf.iter().all(|d| d.digest.malicious));
        // ...and an all-malicious cap-full buffer keeps its earliest
        // evidence, dropping the newcomer.
        o.push_digest(&mut buf, sd(4, true), &cfg);
        assert_eq!((o.counts.shed_malicious, buf[0].seq), (1, 1));
        // Degraded mode sheds benign at the source even with buffer room.
        buf.clear();
        o.degraded = true;
        o.push_digest(&mut buf, sd(5, false), &cfg);
        o.push_digest(&mut buf, sd(6, true), &cfg);
        assert_eq!((buf.len(), o.counts.shed_benign), (1, 3));
        assert_eq!(o.counts.digest_buffered_hwm, 2);
    }

    /// 512 distinct single-packet flows against a 4-slot table: almost
    /// every observation collides, so the windowed churn signal pegs high.
    fn storm_batch(base_ms: u64) -> Vec<Packet> {
        (0..512u16).map(|f| pkt(f, base_ms + f as u64, 100)).collect()
    }

    #[test]
    fn degraded_mode_enters_under_churn_and_exits_after_calm_batches() {
        let c = PipelineConfig::from(FlowTableConfig {
            slots_per_table: 2,
            pkt_threshold: 100,
            ..Default::default()
        });
        let mut p = Pipeline::new(c, accept_all(13), accept_all(4));
        let mut out = Vec::new();
        p.process_batch(&storm_batch(0), &mut out);
        let os = p.overload_stats();
        assert_eq!(os.degraded_shards, 1, "storm churn must trip degraded mode");
        assert_eq!(os.degraded_entries, 1);
        assert!(os.pressure.pressure_milli >= 750, "pressure {}", os.pressure.pressure_milli);
        assert!(os.pressure.collision_window_hwm > 0);

        // Calm traffic: only resident flows, enough packets per batch to
        // roll the pressure window. One calm batch is not enough...
        let calm = |base_ms: u64| -> Vec<Packet> {
            (0..256u64).map(|i| pkt(0, base_ms + i, 100)).collect()
        };
        p.process_batch(&calm(600), &mut out);
        assert_eq!(p.overload_stats().degraded_shards, 1, "hysteresis holds after one calm batch");
        // ...but `degrade_calm_batches` consecutive ones clear it.
        for b in 1..4u64 {
            p.process_batch(&calm(600 + 300 * b), &mut out);
        }
        let os = p.overload_stats();
        assert_eq!(os.degraded_shards, 0, "calm streak must exit degraded mode");
        assert_eq!(os.degraded_exits, 1);
        assert!(os.degraded_batches >= 4, "residency {} batches", os.degraded_batches);
        assert!(os.pressure.churn_milli_hwm >= 750);
    }

    #[test]
    fn degraded_shard_sheds_benign_digests_but_keeps_verdicts() {
        // FL: benign iff mean packet size < 200. Flow 0 stays small
        // (benign), flow 1 large (malicious); threshold 2 → their second
        // packets take the blue path and emit digests while degraded.
        let c = PipelineConfig::from(FlowTableConfig {
            slots_per_table: 2,
            pkt_threshold: 2,
            ..Default::default()
        });
        let mut p = Pipeline::new(c, fl_mean_size_below(200.0), accept_all(4));
        let mut out = Vec::new();
        let storm: Vec<Packet> =
            (0..512u16).map(|f| pkt(f, f as u64, if f == 1 { 1000 } else { 100 })).collect();
        p.process_batch(&storm, &mut out);
        assert_eq!(p.overload_stats().degraded_shards, 1);
        drained(&mut p); // discard pre-storm digests

        p.process_batch(&[pkt(0, 600, 100), pkt(1, 601, 1000)], &mut out);
        assert_eq!(out[0].path, PathTaken::Blue);
        assert_eq!(out[1].path, PathTaken::Blue);
        let d = drained(&mut p);
        assert_eq!(d.len(), 1, "benign digest shed at the source");
        assert!(d[0].malicious);
        assert_eq!(d[0].five, pkt(1, 0, 0).five.canonical());
        assert!(p.overload_stats().shed_benign >= 1);
        // The shed flow kept its label: later packets still ride purple
        // with the same verdict — only ClearFlow housekeeping is deferred.
        p.process_batch(&[pkt(0, 602, 100)], &mut out);
        assert_eq!(out[0].path, PathTaken::Purple);
        assert_eq!(out[0].verdict, PacketVerdict::Forward);
    }
}
