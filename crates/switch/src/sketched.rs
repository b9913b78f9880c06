//! Sketch-assisted data plane: a count–min + Bloom admission filter in
//! front of the exact flow tables, under a hard resident-bytes budget.
//!
//! The exact [`crate::pipeline::Pipeline`] gives every new flow a table
//! slot on its first packet. At a million concurrent flows that is
//! hundreds of megabytes of register state — far beyond what a switch
//! pipeline stage holds. The Zipf reality of traffic is that *most flows
//! are short*: a slot spent on a two-packet DNS exchange is a slot a
//! long-lived flow (the ones the FL whitelist can actually classify)
//! cannot use.
//!
//! [`SketchedPipeline`] interposes an **admission layer** on the untracked
//! path of the flow table (the [`iguard_flow::table::FlowShard`]
//! resident/admit seam):
//!
//! * A **Bloom filter** remembers "seen at least once" — the first packet
//!   of any flow stays in the sketch (implicit estimate 1) and never
//!   touches the exact table.
//! * A **count–min sketch** counts repeat arrivals; since CMS only ever
//!   *over*-estimates, any flow that truly reaches
//!   `promote_threshold` packets within a sketch window is **guaranteed**
//!   to be promoted into the exact table by that packet — the bounded-FN
//!   argument of DESIGN.md §12.
//! * Packets of unpromoted flows are **absorbed**: they get the stateless
//!   packet-level verdict (the same decision the orange collision path
//!   makes — the paper's "cannot be tracked" fallback) and are counted in
//!   `switch.sketch.absorbed`.
//!
//! Promoted flows claim exact slots, subject to a **resident-byte
//! budget**: `budget_bytes / slot_bytes` flows at most. At the cap, a
//! pluggable policy ([`SketchEviction`]: FIFO / LRU / random / 2Q) picks
//! a victim, whose slot is released (`switch.sketch.evicted`). CMS counts
//! survive eviction, so an evicted-but-active flow re-promotes on its
//! next packet.
//!
//! With `promote_threshold ≤ 1` **and** no budget, the admission layer is
//! inert and the backend is packet-for-packet identical to [`Pipeline`]
//! (verdicts, seq-tagged digests, every counter) — pinned by the
//! `scale_parity` suite.

use iguard_core::error::SwitchError;
use iguard_core::rules::RuleSet;
use iguard_flow::features::packet_level_features_array;
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::sketch::{BloomFilter, CountMinSketch};
use iguard_flow::table::{FlowShard, FlowTableStats, InsertOutcome, ObserveTallies, SlotClaim};
use iguard_runtime::hash::FlowMap;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_telemetry::{counter, histogram};

use crate::data_plane::{DataPlane, SketchStats};
use crate::pipeline::{
    record_batch_telemetry, update_overload, ControlAction, Digest, MatchEngine, MatchScratch,
    PacketVerdict, PathCounters, PathTaken, PipelineConfig, ProcessOutcome, SeqDigest, ShardState,
    WhitelistCounters, BATCH_CHUNK, RESYNC_SEQ_BASE,
};
use crate::ruleset::{RulesetCounters, RulesetTxn};

/// Victim-selection policy of the budgeted exact table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchEviction {
    /// Evict the oldest-admitted flow.
    Fifo,
    /// Evict the least-recently-*seen* flow (any packet refreshes).
    Lru,
    /// Evict a uniformly random tracked flow (seeded, deterministic).
    Random,
    /// Simplified 2Q: fresh admissions sit in a FIFO probation queue
    /// (A1in); a repeat packet promotes to the protected LRU main queue
    /// (Am). Victims come from probation first — one-hit wonders never
    /// displace proven flows.
    TwoQ,
}

/// Configuration of a [`SketchedPipeline`]. The default is the inert
/// exact-parity mode: no budget, promote on first packet.
#[derive(Clone, Copy, Debug)]
pub struct SketchedPipelineConfig {
    pub pipeline: PipelineConfig,
    /// Hard cap on exact-table resident bytes (`None` = unbudgeted).
    /// Translated to a tracked-flow cap via
    /// [`FlowShard::slot_bytes`], minimum 1 flow.
    pub budget_bytes: Option<usize>,
    /// Sketch estimate at which a flow earns an exact slot. `≤ 1`
    /// bypasses the sketch entirely (exact-parity mode).
    pub promote_threshold: u32,
    pub eviction: SketchEviction,
    /// Count–min geometry (width is rounded up to a power of two).
    pub cms_width: usize,
    pub cms_depth: usize,
    /// Bloom geometry (bits rounded up to a power of two).
    pub bloom_bits: usize,
    pub bloom_hashes: usize,
    /// Sketch window: CMS + Bloom are cleared after this many untracked
    /// observations, so stale counts cannot promote dead flows forever.
    pub window_packets: u64,
    /// Seed of the sketch hash families and the random-eviction RNG.
    pub seed: u64,
}

impl Default for SketchedPipelineConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            budget_bytes: None,
            promote_threshold: 1,
            eviction: SketchEviction::Fifo,
            cms_width: 4096,
            cms_depth: 4,
            bloom_bits: 1 << 16,
            bloom_hashes: 2,
            window_packets: 1 << 20,
            seed: 0xC0FF_EE00,
        }
    }
}

iguard_runtime::builder_setters! { SketchedPipelineConfig =>
    /// Builder: pipeline semantics.
    with_pipeline => pipeline: PipelineConfig,
    /// Builder: exact-table byte budget (`None` = unbudgeted).
    with_budget_bytes => budget_bytes: Option<usize>,
    /// Builder: sketch estimate at which a flow earns an exact slot.
    with_promote_threshold => promote_threshold: u32,
    /// Builder: eviction policy under budget pressure.
    with_eviction => eviction: SketchEviction,
    /// Builder: sketch hash-family / eviction-RNG seed.
    with_seed => seed: u64,
}

const NIL: u32 = u32::MAX;

/// Intrusive doubly-linked-list node of the queue-based policies.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: FiveTuple,
    prev: u32,
    next: u32,
    /// Which list the node is on: 0 = probation/main queue, 1 = 2Q's
    /// protected Am queue.
    list: u8,
}

/// The set of tracked flows plus the policy's victim ordering. `len()` is
/// exactly the number of exact-table residents — kept in lockstep via the
/// [`SlotClaim`] channel — so budget checks are O(1) and never scan the
/// tables.
struct EvictionBook {
    policy: SketchEviction,
    /// Point lookups only — never iterated, so the randomly keyed hasher
    /// cannot leak nondeterminism into victim choice.
    map: FlowMap<FiveTuple, u32>,
    slab: Vec<Node>,
    free: Vec<u32>,
    /// Queue heads/tails, indexed by list id (list 1 used by 2Q only).
    head: [u32; 2],
    tail: [u32; 2],
    /// Dense key vector of the Random policy (swap-remove victimhood).
    dense: Vec<FiveTuple>,
    rng: Rng,
}

impl EvictionBook {
    fn new(policy: SketchEviction, seed: u64) -> Self {
        Self {
            policy,
            map: FlowMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: [NIL; 2],
            tail: [NIL; 2],
            dense: Vec::new(),
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, list, .. } = self.slab[i as usize];
        match prev {
            NIL => self.head[list as usize] = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail[list as usize] = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, i: u32, list: u8) {
        let t = self.tail[list as usize];
        self.slab[i as usize].prev = t;
        self.slab[i as usize].next = NIL;
        self.slab[i as usize].list = list;
        match t {
            NIL => self.head[list as usize] = i,
            t => self.slab[t as usize].next = i,
        }
        self.tail[list as usize] = i;
    }

    /// Records a freshly admitted flow.
    fn insert(&mut self, key: FiveTuple) {
        if self.policy == SketchEviction::Random {
            self.map.insert(key, self.dense.len() as u32);
            self.dense.push(key);
            return;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize].key = key;
                i
            }
            None => {
                self.slab.push(Node { key, prev: NIL, next: NIL, list: 0 });
                (self.slab.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_tail(i, 0);
    }

    /// A tracked flow was seen again (resident hit).
    fn touch(&mut self, key: &FiveTuple) {
        match self.policy {
            SketchEviction::Fifo | SketchEviction::Random => {}
            SketchEviction::Lru => {
                if let Some(&i) = self.map.get(key) {
                    self.unlink(i);
                    self.push_tail(i, 0);
                }
            }
            SketchEviction::TwoQ => {
                // Any re-access lands the flow at the protected queue's
                // LRU tail.
                if let Some(&i) = self.map.get(key) {
                    self.unlink(i);
                    self.push_tail(i, 1);
                }
            }
        }
    }

    /// Forgets a flow (controller clear, or displacement by the table's
    /// own timeout/classified-evict reclaim). Returns false if unknown.
    fn remove(&mut self, key: &FiveTuple) -> bool {
        let Some(i) = self.map.remove(key) else { return false };
        if self.policy == SketchEviction::Random {
            let i = i as usize;
            self.dense.swap_remove(i);
            if i < self.dense.len() {
                self.map.insert(self.dense[i], i as u32);
            }
            return true;
        }
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Picks and removes the policy's victim.
    fn pop_victim(&mut self) -> Option<FiveTuple> {
        if self.policy == SketchEviction::Random {
            if self.dense.is_empty() {
                return None;
            }
            let i = self.rng.gen_range(0..self.dense.len());
            let key = self.dense[i];
            self.remove(&key);
            return Some(key);
        }
        // 2Q prefers the probation queue; FIFO/LRU only have list 0.
        let i = match self.head[0] {
            NIL => self.head[1],
            i => i,
        };
        if i == NIL {
            return None;
        }
        let key = self.slab[i as usize].key;
        self.map.remove(&key);
        self.unlink(i);
        self.free.push(i);
        Some(key)
    }
}

/// The sketch-assisted [`DataPlane`] backend — see the module docs.
pub struct SketchedPipeline {
    cfg: SketchedPipelineConfig,
    engine: MatchEngine,
    state: ShardState,
    scratch: MatchScratch,
    cms: CountMinSketch,
    bloom: BloomFilter,
    book: EvictionBook,
    max_tracked: usize,
    window_left: u64,
    tallies: ObserveTallies,
    promoted: u64,
    absorbed: u64,
    evicted: u64,
    resync_seq: u64,
}

impl SketchedPipeline {
    pub fn new(cfg: SketchedPipelineConfig, fl_rules: RuleSet, pl_rules: RuleSet) -> Self {
        assert!(cfg.window_packets >= 1, "sketch window must be at least one packet");
        let max_tracked =
            cfg.budget_bytes.map(|b| (b / FlowShard::slot_bytes()).max(1)).unwrap_or(usize::MAX);
        Self {
            engine: MatchEngine::new(&cfg.pipeline, fl_rules, pl_rules),
            state: ShardState::new(cfg.pipeline.flow_table),
            scratch: MatchScratch::default(),
            cms: CountMinSketch::new(cfg.cms_width, cfg.cms_depth, cfg.seed),
            bloom: BloomFilter::new(cfg.bloom_bits, cfg.bloom_hashes, cfg.seed ^ 0x9E37_79B9),
            book: EvictionBook::new(cfg.eviction, cfg.seed.wrapping_add(1)),
            max_tracked,
            window_left: cfg.window_packets,
            tallies: ObserveTallies::default(),
            promoted: 0,
            absorbed: 0,
            evicted: 0,
            resync_seq: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &SketchedPipelineConfig {
        &self.cfg
    }

    /// Flows currently holding an exact slot.
    pub fn tracked(&self) -> usize {
        self.book.len()
    }

    /// Promotion bar after pressure-adaptive tightening: the base
    /// threshold doubles once the flow table crosses the degraded-enter
    /// pressure and quadruples near saturation (≥ 900‰), demanding more
    /// repeat evidence per exact slot exactly when slots are scarcest.
    /// Inert in exact-parity mode (base ≤ 1 never consults the sketch).
    fn effective_promote_threshold(&self) -> u32 {
        let base = self.cfg.promote_threshold;
        if base <= 1 {
            return base;
        }
        let p = self.state.flow.pressure_milli();
        let mult = if p >= 900 {
            4
        } else if p >= self.cfg.pipeline.overload.degrade_enter_milli {
            2
        } else {
            1
        };
        base.saturating_mul(mult)
    }

    /// One sketch observation of an untracked flow: returns true when the
    /// flow's (over-)estimated packet count reaches the promotion bar.
    fn sketch_admit(&mut self, key: &FiveTuple) -> bool {
        if self.window_left == 0 {
            self.cms.clear();
            self.bloom.clear();
            self.window_left = self.cfg.window_packets;
            counter!("switch.sketch.window_reset").inc();
        }
        self.window_left -= 1;
        let seen = self.bloom.insert(key);
        // First sighting is the implicit estimate 1; repeats go through
        // the CMS (whose count starts at the *second* packet, hence +1).
        let est = if seen { self.cms.increment(key).saturating_add(1) } else { 1 };
        let eff = self.effective_promote_threshold();
        if est >= self.cfg.promote_threshold && est < eff {
            // Would have been admitted at the calm threshold — rejected
            // only because pressure raised the bar.
            self.state.overload.admission_tightened += 1;
            counter!("switch.overload.admission_tightened").inc();
        }
        est >= eff
    }

    /// The scalar sketch-assisted walk: identical to
    /// [`MatchEngine::process_one`] except that an untracked flow must get
    /// past the admission sketch (and the byte budget) before it can claim
    /// an exact slot.
    fn process_one_sketched(&mut self, pkt: &Packet, seq: u64) -> ProcessOutcome {
        self.state.processed += 1;
        let key = pkt.five.canonical();

        // Red path: blacklist match.
        if self.state.blacklist.contains(&key) {
            self.state.paths.blacklist += 1;
            counter!("switch.pipeline.path.blacklist").inc();
            return ProcessOutcome {
                verdict: PacketVerdict::Drop,
                path: PathTaken::Blacklist,
                mirrored: false,
            };
        }

        let pl = packet_level_features_array(pkt);
        let (i1, i2) = self.state.flow.slot_index_pair(&key);
        let resident = self.state.flow.observe_resident_prehashed(
            key,
            i1,
            i2,
            pkt,
            pkt.ts_ns,
            &mut self.tallies,
        );
        let outcome = match resident {
            Some(out) => {
                self.book.touch(&key);
                out
            }
            None => {
                let admit = self.cfg.promote_threshold <= 1 || self.sketch_admit(&key);
                if !admit {
                    // Absorbed: the sketch holds the flow's only state, so
                    // the packet gets the stateless PL-only decision — the
                    // same "cannot track" fallback as the collision path.
                    self.absorbed += 1;
                    counter!("switch.sketch.absorbed").inc();
                    self.state.paths.orange += 1;
                    counter!("switch.pipeline.path.orange").inc();
                    let malicious = self.engine.predict_pl(&pl, &mut self.scratch);
                    return ProcessOutcome {
                        verdict: self.engine.verdict_for(malicious),
                        path: PathTaken::Orange,
                        mirrored: false,
                    };
                }
                if self.cfg.promote_threshold > 1 {
                    self.promoted += 1;
                    counter!("switch.sketch.promoted").inc();
                }
                // Budget: make room *before* claiming, so the tracked set
                // never exceeds the cap even transiently.
                while self.book.len() >= self.max_tracked {
                    match self.book.pop_victim() {
                        Some(victim) => {
                            let released = self.state.flow.evict(&victim);
                            debug_assert!(released, "eviction book out of sync with table");
                            self.evicted += 1;
                            counter!("switch.sketch.evicted").inc();
                        }
                        None => break,
                    }
                }
                let (out, claim) =
                    self.state.flow.admit_prehashed(key, i1, i2, pkt, pkt.ts_ns, &mut self.tallies);
                match claim {
                    SlotClaim::Fresh => self.book.insert(key),
                    SlotClaim::Displaced(old) => {
                        self.book.remove(&old);
                        self.book.insert(key);
                    }
                    SlotClaim::Unclaimed => {}
                }
                out
            }
        };

        match outcome {
            InsertOutcome::Classified { label } => {
                self.state.paths.purple += 1;
                counter!("switch.pipeline.path.purple").inc();
                ProcessOutcome {
                    verdict: self.engine.verdict_for(label),
                    path: PathTaken::Purple,
                    mirrored: false,
                }
            }
            InsertOutcome::Early { .. } => {
                self.state.paths.brown += 1;
                counter!("switch.pipeline.path.brown").inc();
                let malicious = self.engine.predict_pl(&pl, &mut self.scratch);
                ProcessOutcome {
                    verdict: self.engine.verdict_for(malicious),
                    path: PathTaken::Brown,
                    mirrored: false,
                }
            }
            InsertOutcome::Ready { stats, timed_out: _ } => {
                self.state.paths.blue += 1;
                counter!("switch.pipeline.path.blue").inc();
                let malicious = self.engine.predict_blue(&stats, &pl, &mut self.scratch);
                let ShardState { overload, digests, .. } = &mut self.state;
                overload.push_digest(
                    digests,
                    SeqDigest { seq, digest: Digest::new(pkt.five, malicious) },
                    &self.cfg.pipeline.overload,
                );
                self.state.paths.green_loopback += 1;
                counter!("switch.pipeline.path.green_loopback").inc();
                self.state.flow.set_label_prehashed(key, i1, i2, malicious);
                ProcessOutcome {
                    verdict: self.engine.verdict_for(malicious),
                    path: PathTaken::Blue,
                    mirrored: true,
                }
            }
            InsertOutcome::PhaseReady { stats, phase } => {
                counter!("switch.phase.boundary").inc();
                // Convict-only early look, same semantics as the exact
                // pipeline: a phase-whitelist hit pulls the blue verdict
                // forward; a benign-looking flow escalates like brown.
                let convicted = self.engine.predict_phase(phase, &stats, &mut self.scratch);
                if convicted {
                    counter!("switch.phase.convicted").inc();
                    self.state.paths.blue += 1;
                    counter!("switch.pipeline.path.blue").inc();
                    let ShardState { overload, digests, .. } = &mut self.state;
                    overload.push_digest(
                        digests,
                        SeqDigest { seq, digest: Digest::at_phase(pkt.five, true, phase) },
                        &self.cfg.pipeline.overload,
                    );
                    self.state.paths.green_loopback += 1;
                    counter!("switch.pipeline.path.green_loopback").inc();
                    self.state.flow.set_label_prehashed(key, i1, i2, true);
                    ProcessOutcome {
                        verdict: self.engine.verdict_for(true),
                        path: PathTaken::Blue,
                        mirrored: true,
                    }
                } else {
                    counter!("switch.phase.escalated").inc();
                    self.state.paths.brown += 1;
                    counter!("switch.pipeline.path.brown").inc();
                    let malicious = self.engine.predict_pl(&pl, &mut self.scratch);
                    ProcessOutcome {
                        verdict: self.engine.verdict_for(malicious),
                        path: PathTaken::Brown,
                        mirrored: false,
                    }
                }
            }
            InsertOutcome::Collision | InsertOutcome::ReplacedClassified { .. } => {
                self.state.paths.orange += 1;
                counter!("switch.pipeline.path.orange").inc();
                let malicious = self.engine.predict_pl(&pl, &mut self.scratch);
                ProcessOutcome {
                    verdict: self.engine.verdict_for(malicious),
                    path: PathTaken::Orange,
                    mirrored: false,
                }
            }
        }
    }

    /// Installs one whitelist per intermediate phase boundary via the
    /// engine's hitless epoch flip (see [`MatchEngine::set_phase_rulesets`]).
    pub fn set_phase_rulesets(&mut self, rulesets: &[RuleSet]) {
        self.engine.set_phase_rulesets(rulesets);
    }
}

impl DataPlane for SketchedPipeline {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<ProcessOutcome>) {
        out.clear();
        if pkts.is_empty() {
            return;
        }
        record_batch_telemetry(pkts.len());
        out.reserve(pkts.len());
        let base_seq = self.state.processed;
        for (i, p) in pkts.iter().enumerate() {
            let o = self.process_one_sketched(p, base_seq + i as u64);
            out.push(o);
        }
        self.tallies.flush();
        let ocfg = self.cfg.pipeline.overload;
        update_overload(&mut self.state, &ocfg);
        let tracked = self.book.len();
        histogram!("switch.sketch.occupancy").record(tracked as u64);
        if tracked > 0 {
            let bytes = tracked * FlowShard::slot_bytes() + self.cms.bytes() + self.bloom.bytes();
            histogram!("switch.sketch.bytes_per_flow").record((bytes / tracked) as u64);
        }
    }

    fn drain_digests_into(&mut self, out: &mut Vec<Digest>) {
        out.extend(self.state.digests.drain(..).map(|sd| sd.digest));
    }

    fn drain_seq_digests_into(&mut self, out: &mut Vec<SeqDigest>) {
        out.append(&mut self.state.digests);
    }

    fn apply(&mut self, action: ControlAction) {
        match action {
            ControlAction::InstallBlacklist(five) => {
                self.state.blacklist.insert(five.canonical());
            }
            ControlAction::RemoveBlacklist(five) => {
                self.state.blacklist.remove(&five.canonical());
            }
            ControlAction::ClearFlow(five) => {
                if self.state.flow.clear(&five) {
                    self.book.remove(&five.canonical());
                }
            }
        }
    }

    fn apply_ruleset(&mut self, txn: &RulesetTxn) -> Result<(), SwitchError> {
        self.engine.apply_ruleset(txn)
    }

    fn ruleset_version(&self) -> u64 {
        self.engine.ruleset_version()
    }

    fn ruleset_counters(&self) -> RulesetCounters {
        self.engine.ruleset_counters()
    }

    fn blacklist_contents(&self) -> Vec<FiveTuple> {
        let mut v: Vec<FiveTuple> = self.state.blacklist.iter().copied().collect();
        v.sort_unstable();
        v
    }

    fn resync_labeled_into(&mut self, out: &mut Vec<SeqDigest>) {
        let mut flows = Vec::new();
        self.state.flow.labeled_flows_into(&mut flows);
        for (five, malicious) in flows {
            out.push(SeqDigest {
                seq: RESYNC_SEQ_BASE + self.resync_seq,
                digest: Digest::new(five, malicious),
            });
            self.resync_seq += 1;
        }
    }

    fn counters(&self) -> PathCounters {
        self.state.paths
    }

    fn whitelist_counters(&self) -> WhitelistCounters {
        self.scratch.wl
    }

    fn classify_batch(&mut self, rows: &Dataset, out: &mut Vec<bool>) {
        out.clear();
        if rows.rows() == 0 {
            return;
        }
        record_batch_telemetry(rows.rows());
        out.reserve(rows.rows());
        for start in (0..rows.rows()).step_by(BATCH_CHUNK) {
            let end = (start + BATCH_CHUNK).min(rows.rows());
            self.engine.classify_fl_batch(rows, start, end, &mut self.scratch, out);
        }
    }

    fn flow_table_stats(&self) -> FlowTableStats {
        self.state.flow.stats()
    }

    fn blacklist_len(&self) -> usize {
        self.state.blacklist.len()
    }

    fn packets_processed(&self) -> u64 {
        self.state.processed
    }

    fn overload_stats(&self) -> crate::data_plane::OverloadStats {
        self.state.overload_view()
    }

    fn sketch_stats(&self) -> Option<SketchStats> {
        Some(SketchStats {
            tracked: self.book.len(),
            max_tracked: self.max_tracked,
            resident_bytes: self.book.len() * FlowShard::slot_bytes(),
            budget_bytes: self.cfg.budget_bytes,
            sketch_bytes: self.cms.bytes() + self.bloom.bytes(),
            promoted: self.promoted,
            absorbed: self.absorbed,
            evicted: self.evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::testutil::accept_all;
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_flow::packet::TcpFlags;

    fn pkt(flow: u16, ts_ms: u64) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A00_0001, 0xC0A8_0001, 10_000 + flow, 53, PROTO_UDP),
            wire_len: 100,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    fn sketchy(budget_flows: usize, threshold: u32, policy: SketchEviction) -> SketchedPipeline {
        let cfg = SketchedPipelineConfig::default()
            .with_budget_bytes(Some(budget_flows * FlowShard::slot_bytes()))
            .with_promote_threshold(threshold)
            .with_eviction(policy);
        SketchedPipeline::new(cfg, accept_all(13), accept_all(4))
    }

    #[test]
    fn first_packet_is_absorbed_then_promoted() {
        let mut dp = sketchy(64, 2, SketchEviction::Fifo);
        let mut out = Vec::new();
        dp.process_batch(&[pkt(1, 0)], &mut out);
        // First packet: sketch only, orange fallback, nothing tracked.
        assert_eq!(out[0].path, PathTaken::Orange);
        assert_eq!(dp.tracked(), 0);
        assert_eq!(dp.sketch_stats().unwrap().absorbed, 1);
        dp.process_batch(&[pkt(1, 1)], &mut out);
        // Second packet: estimate reaches 2 → promoted into an exact slot.
        assert_eq!(dp.tracked(), 1);
        assert_eq!(dp.sketch_stats().unwrap().promoted, 1);
        assert_eq!(out[0].path, PathTaken::Brown);
    }

    #[test]
    fn budget_is_never_exceeded() {
        for policy in [
            SketchEviction::Fifo,
            SketchEviction::Lru,
            SketchEviction::Random,
            SketchEviction::TwoQ,
        ] {
            let mut dp = sketchy(4, 1, policy);
            let mut out = Vec::new();
            for f in 0..64u16 {
                dp.process_batch(&[pkt(f, f as u64)], &mut out);
                assert!(dp.tracked() <= 4, "{policy:?} exceeded budget: {}", dp.tracked());
            }
            let st = dp.sketch_stats().unwrap();
            assert_eq!(st.tracked, 4);
            assert_eq!(st.evicted, 60);
            assert!(st.resident_bytes <= st.budget_bytes.unwrap());
        }
    }

    #[test]
    fn fifo_and_lru_pick_different_victims() {
        // Flows 0,1,2 admitted; flow 0 then re-accessed. A 4th admission
        // must evict flow 0 under FIFO but flow 1 under LRU.
        let drive = |policy| {
            let mut dp = sketchy(3, 1, policy);
            let mut out = Vec::new();
            for f in [0u16, 1, 2, 0] {
                dp.process_batch(&[pkt(f, 1)], &mut out);
            }
            dp.process_batch(&[pkt(3, 2)], &mut out);
            // The victim's flow restarts on its next packet (Early with
            // pkt_count 1 ⇒ it lost its slot); survivors continue.
            dp
        };
        let fifo = drive(SketchEviction::Fifo);
        let lru = drive(SketchEviction::Lru);
        // FIFO victim = flow 0 (oldest admit); its key is gone.
        assert!(!fifo.state.flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(fifo.state.flow.label_of(&pkt(1, 0).five.canonical()).is_some());
        // LRU victim = flow 1 (flow 0 was refreshed).
        assert!(lru.state.flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!lru.state.flow.label_of(&pkt(1, 0).five.canonical()).is_some());
    }

    #[test]
    fn two_q_protects_reaccessed_flows() {
        let mut dp = sketchy(3, 1, SketchEviction::TwoQ);
        let mut out = Vec::new();
        // Admit 0,1,2; re-access 0 (promotes it to the protected queue).
        for f in [0u16, 1, 2, 0] {
            dp.process_batch(&[pkt(f, 1)], &mut out);
        }
        // Two new admissions evict from probation (1 then 2), never 0.
        for f in [3u16, 4] {
            dp.process_batch(&[pkt(f, 2)], &mut out);
        }
        assert!(dp.state.flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!dp.state.flow.label_of(&pkt(1, 0).five.canonical()).is_some());
        assert!(!dp.state.flow.label_of(&pkt(2, 0).five.canonical()).is_some());
    }

    #[test]
    fn random_eviction_is_seeded_deterministic() {
        let run = |seed| {
            let cfg = SketchedPipelineConfig::default()
                .with_budget_bytes(Some(8 * FlowShard::slot_bytes()))
                .with_eviction(SketchEviction::Random)
                .with_seed(seed);
            let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
            let mut out = Vec::new();
            for f in 0..200u16 {
                dp.process_batch(&[pkt(f, f as u64)], &mut out);
            }
            let mut keys: Vec<FiveTuple> = dp.book.dense.clone();
            keys.sort_unstable();
            keys
        };
        assert_eq!(run(1), run(1), "same seed must evict the same victims");
        assert_ne!(run(1), run(2), "different seeds should diverge");
    }
}
