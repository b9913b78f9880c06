//! The sketched layout: a count–min + Bloom admission stage in front of
//! the exact flow tables, under a hard resident-bytes budget.
//!
//! The serial layout gives every new flow a table slot on its first
//! packet. At a million concurrent flows that is hundreds of megabytes
//! of register state — far beyond what a switch pipeline stage holds.
//! The Zipf reality of traffic is that *most flows are short*: a slot
//! spent on a two-packet DNS exchange is a slot a long-lived flow (the
//! ones the FL whitelist can actually classify) cannot use.
//!
//! A [`Pipeline`] built from a [`SketchedPipelineConfig`] (the
//! [`SketchedPipeline`] alias) has one logical shard carrying a
//! [`SketchStage`]. It is a stage of the shared walk, not a separate
//! backend: both walks call [`crate::pipeline::ShardState::observe`],
//! which hands an untracked flow — the
//! [`iguard_flow::table::FlowShard`] resident/admit seam — to
//! [`SketchStage::admit`] instead of straight to the slot claim:
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
//! a victim, whose slot is released (`switch.sketch.evicted`). The
//! policy's book is a register array at the flow table's slot positions,
//! like the paper's per-flow registers: no key is hashed to keep it. CMS
//! counts survive eviction, so an evicted-but-active flow re-promotes on
//! its next packet.
//!
//! With `promote_threshold ≤ 1` **and** no budget, the admission stage is
//! inert and the layout is packet-for-packet identical to the serial one
//! (verdicts, seq-tagged digests, every counter) — pinned by the
//! `scale_parity` suite, which also pins budgeted runs to golden
//! fingerprints.

use std::num::NonZeroU64;

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::sketch::{BloomFilter, CountMinSketch};
use iguard_flow::table::{FlowShard, InsertOutcome, SlotClaim};
use iguard_runtime::rng::Rng;
use iguard_telemetry::histogram;

use crate::data_plane::SketchView;
use crate::pipeline::{OverloadState, Pipeline, PipelineConfig};

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

/// Configuration of the sketched layout. The default is the inert
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
    pub window_packets: NonZeroU64,
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
            window_packets: const { NonZeroU64::new(1 << 20).unwrap() },
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

/// One eviction-book entry, stored at its flow's slot position: the
/// intrusive doubly-linked-list links of the queue-based policies.
#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
    /// Which list the node is on: 0 = probation/main queue, 1 = 2Q's
    /// protected Am queue.
    list: u8,
    /// Whether the position holds a tracked flow.
    live: bool,
}

/// The set of tracked flows plus the policy's victim ordering, addressed
/// by flow-table slot position (see [`SlotClaim`]) — a register array
/// beside the table's, not an associative map, so a resident touch or a
/// victim's release never hashes a key. `len` is exactly the number of
/// exact-table residents — kept in lockstep via the [`SlotClaim`]
/// channel — so budget checks are O(1) and never scan the tables.
struct EvictionBook {
    policy: SketchEviction,
    nodes: Vec<Node>,
    len: usize,
    /// Queue heads/tails, indexed by list id (list 1 used by 2Q only).
    head: [u32; 2],
    tail: [u32; 2],
    /// Random policy: the live positions (swap-remove victimhood), and
    /// each position's index in `dense`.
    dense: Vec<u32>,
    dense_at: Vec<u32>,
    rng: Rng,
}

impl EvictionBook {
    fn new(policy: SketchEviction, seed: u64, positions: usize) -> Self {
        Self {
            policy,
            nodes: vec![Node { prev: NIL, next: NIL, list: 0, live: false }; positions],
            len: 0,
            head: [NIL; 2],
            tail: [NIL; 2],
            dense: Vec::new(),
            dense_at: vec![NIL; if policy == SketchEviction::Random { positions } else { 0 }],
            rng: Rng::seed_from_u64(seed),
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, list, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head[list as usize] = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail[list as usize] = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, i: u32, list: u8) {
        let t = self.tail[list as usize];
        let node = &mut self.nodes[i as usize];
        (node.prev, node.next, node.list) = (t, NIL, list);
        match t {
            NIL => self.head[list as usize] = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail[list as usize] = i;
    }

    /// Records a freshly admitted flow at `pos`.
    fn insert(&mut self, pos: u32) {
        debug_assert!(!self.nodes[pos as usize].live, "slot {pos} admitted twice");
        self.nodes[pos as usize].live = true;
        self.len += 1;
        if self.policy == SketchEviction::Random {
            self.dense_at[pos as usize] = self.dense.len() as u32;
            self.dense.push(pos);
        } else {
            self.push_tail(pos, 0);
        }
    }

    /// The tracked flow at `pos` was seen again (resident hit).
    fn touch(&mut self, pos: u32) {
        // 2Q: any re-access lands the flow at the protected queue's LRU
        // tail.
        let list = match self.policy {
            SketchEviction::Fifo | SketchEviction::Random => return,
            SketchEviction::Lru => 0,
            SketchEviction::TwoQ => 1,
        };
        if self.nodes[pos as usize].live {
            self.unlink(pos);
            self.push_tail(pos, list);
        }
    }

    /// Forgets the flow at `pos` (controller clear, budget victim, or
    /// displacement by the table's own timeout/classified-evict reclaim).
    fn remove(&mut self, pos: u32) {
        let node = &mut self.nodes[pos as usize];
        if !node.live {
            return;
        }
        node.live = false;
        self.len -= 1;
        if self.policy == SketchEviction::Random {
            let i = self.dense_at[pos as usize] as usize;
            self.dense.swap_remove(i);
            if let Some(&moved) = self.dense.get(i) {
                self.dense_at[moved as usize] = i as u32;
            }
        } else {
            self.unlink(pos);
        }
    }

    /// Picks and removes the policy's victim, returning its position.
    fn pop_victim(&mut self) -> Option<u32> {
        let pos = if self.policy == SketchEviction::Random {
            if self.dense.is_empty() {
                return None;
            }
            self.dense[self.rng.gen_range(0..self.dense.len())]
        } else {
            // 2Q prefers the probation queue; FIFO/LRU only have list 0.
            match self.head {
                [NIL, NIL] => return None,
                [NIL, i] | [i, _] => i,
            }
        };
        self.remove(pos);
        Some(pos)
    }
}

/// The sketch admission stage of the sketched layout — see the module
/// docs. It lives in the layout's one [`crate::pipeline::ShardState`] and
/// is consulted only at the flow table's untracked seam
/// ([`SketchStage::admit`]), plus an eviction-book touch on every
/// resident hit.
pub(crate) struct SketchStage {
    cfg: SketchedPipelineConfig,
    cms: CountMinSketch,
    bloom: BloomFilter,
    book: EvictionBook,
    window_left: u64,
    /// The stage's sizes and counts in the shape it reports them; `tracked`
    /// is filled in by [`SketchStage::view`].
    view: SketchView,
}

impl SketchStage {
    /// A stage in front of a flow table of `positions` slots (both hash
    /// tables), which sizes the eviction book.
    pub(crate) fn new(cfg: SketchedPipelineConfig, positions: usize) -> Self {
        let cms = CountMinSketch::new(cfg.cms_width, cfg.cms_depth, cfg.seed);
        let bloom = BloomFilter::new(cfg.bloom_bits, cfg.bloom_hashes, cfg.seed ^ 0x9E37_79B9);
        let view = SketchView {
            max_tracked: cfg
                .budget_bytes
                .map_or(usize::MAX, |b| (b / FlowShard::slot_bytes()).max(1)),
            budget_bytes: cfg.budget_bytes,
            sketch_bytes: cms.bytes() + bloom.bytes(),
            ..SketchView::default()
        };
        Self {
            book: EvictionBook::new(cfg.eviction, cfg.seed.wrapping_add(1), positions),
            window_left: cfg.window_packets.get(),
            cms,
            bloom,
            view,
            cfg,
        }
    }

    /// The tracked flow at slot position `pos` was seen again (resident
    /// hit).
    #[inline]
    pub(crate) fn touch(&mut self, pos: u32) {
        self.book.touch(pos);
    }

    /// The controller released the tracked flow at slot position `pos`.
    pub(crate) fn forget(&mut self, pos: u32) {
        self.book.remove(pos);
    }

    /// Sketch admission of an untracked flow: the Bloom/CMS estimate
    /// against the (pressure-tightened) promote bar, then — for an
    /// admitted flow — budget eviction and the slot claim, keeping the
    /// eviction book in lockstep with the table. `None` means the packet
    /// was absorbed: the sketch holds the flow's only state, so the walk
    /// gives it the stateless PL-only decision — the same "cannot track"
    /// fallback as the collision path.
    pub(crate) fn admit(
        &mut self,
        flow: &mut FlowShard,
        overload: &mut OverloadState,
        key: FiveTuple,
        i1: u32,
        i2: u32,
        pkt: &Packet,
    ) -> Option<InsertOutcome> {
        if self.cfg.promote_threshold > 1 {
            if !self.sketch_admit(&key, flow.pressure_milli(), overload) {
                self.view.absorbed += 1;
                return None;
            }
            self.view.promoted += 1;
        }
        // Budget: make room *before* claiming, so the tracked set never
        // exceeds the cap even transiently.
        while self.book.len >= self.view.max_tracked {
            let Some(victim) = self.book.pop_victim() else { break };
            let released = flow.evict_at(victim);
            debug_assert!(released, "eviction book out of sync with table");
        }
        let (out, claim) = flow.admit_prehashed(key, i1, i2, pkt, pkt.ts_ns);
        match claim {
            SlotClaim::Fresh(pos) => self.book.insert(pos),
            SlotClaim::Displaced(_, pos) => {
                self.book.remove(pos);
                self.book.insert(pos);
            }
            SlotClaim::Unclaimed => {}
        }
        Some(out)
    }

    /// One sketch observation of an untracked flow: returns true when the
    /// flow's (over-)estimated packet count reaches the promotion bar.
    /// The bar is pressure-adaptive: the base threshold doubles once the
    /// flow table crosses the degraded-enter pressure and quadruples near
    /// saturation (≥ 900‰), demanding more repeat evidence per exact slot
    /// exactly when slots are scarcest.
    fn sketch_admit(&mut self, key: &FiveTuple, pressure: u32, o: &mut OverloadState) -> bool {
        if self.window_left == 0 {
            self.cms.clear();
            self.bloom.clear();
            self.window_left = self.cfg.window_packets.get();
            self.view.window_resets += 1;
        }
        self.window_left -= 1;
        let seen = self.bloom.insert(key);
        // First sighting is the implicit estimate 1; repeats go through
        // the CMS (whose count starts at the *second* packet, hence +1).
        let est = if seen { self.cms.increment(key).saturating_add(1) } else { 1 };
        let base = self.cfg.promote_threshold;
        let mult = if pressure >= 900 {
            4
        } else if pressure >= self.cfg.pipeline.overload.degrade_enter_milli {
            2
        } else {
            1
        };
        let eff = base.saturating_mul(mult);
        if est >= base && est < eff {
            // Would have been admitted at the calm threshold — rejected
            // only because pressure raised the bar.
            o.counts.admission_tightened += 1;
        }
        est >= eff
    }

    /// Batch end: records the occupancy gauges.
    pub(crate) fn end_batch(&self) {
        let tracked = self.book.len;
        histogram!("switch.sketch.occupancy").record(tracked as u64);
        if tracked > 0 {
            let bytes = tracked * FlowShard::slot_bytes() + self.view.sketch_bytes;
            histogram!("switch.sketch.bytes_per_flow").record((bytes / tracked) as u64);
        }
    }

    /// The stage's part of its shard's snapshot.
    pub(crate) fn view(&self) -> SketchView {
        SketchView { tracked: self.book.len, ..self.view }
    }
}

/// The sketched layout: one logical shard behind the admission stage,
/// built by [`Pipeline::new`] from a [`SketchedPipelineConfig`].
pub type SketchedPipeline = Pipeline;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_plane::DataPlane;
    use crate::pipeline::testutil::accept_all;
    use crate::pipeline::{ControlAction, PathTaken};
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_flow::packet::TcpFlags;
    use iguard_flow::table::FlowTableConfig;

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
        assert_eq!(dp.sketch_stats().unwrap().tracked, 0);
        assert_eq!(dp.sketch_stats().unwrap().absorbed, 1);
        dp.process_batch(&[pkt(1, 1)], &mut out);
        // Second packet: estimate reaches 2 → promoted into an exact slot.
        assert_eq!(dp.sketch_stats().unwrap().tracked, 1);
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
                assert!(
                    dp.sketch_stats().unwrap().tracked <= 4,
                    "{policy:?} exceeded budget: {}",
                    dp.sketch_stats().unwrap().tracked
                );
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
        assert!(!fifo.shard(0).flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(fifo.shard(0).flow.label_of(&pkt(1, 0).five.canonical()).is_some());
        // LRU victim = flow 1 (flow 0 was refreshed).
        assert!(lru.shard(0).flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!lru.shard(0).flow.label_of(&pkt(1, 0).five.canonical()).is_some());
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
        assert!(dp.shard(0).flow.label_of(&pkt(0, 0).five.canonical()).is_some());
        assert!(!dp.shard(0).flow.label_of(&pkt(1, 0).five.canonical()).is_some());
        assert!(!dp.shard(0).flow.label_of(&pkt(2, 0).five.canonical()).is_some());
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
            let mut positions = dp.shard(0).sketch.as_ref().unwrap().book.dense.clone();
            positions.sort_unstable();
            positions
        };
        assert_eq!(run(1), run(1), "same seed must evict the same victims");
        assert_ne!(run(1), run(2), "different seeds should diverge");
    }

    /// The eviction book agrees with the flow table slot for slot, and
    /// the policy's own index (lists or dense vector) covers exactly the
    /// live positions.
    fn assert_lockstep(dp: &SketchedPipeline) {
        let shard = dp.shard(0);
        let (flow, book) = (&shard.flow, &shard.sketch.as_ref().unwrap().book);
        assert_eq!(book.len, flow.occupancy());
        for pos in 0..flow.capacity() as u32 {
            let live = book.nodes[pos as usize].live;
            assert_eq!(live, flow.key_at(pos).is_some(), "slot {pos} out of lockstep");
        }
        let indexed = if book.policy == SketchEviction::Random {
            for (i, &pos) in book.dense.iter().enumerate() {
                assert_eq!(book.dense_at[pos as usize], i as u32);
            }
            book.dense.len()
        } else {
            let mut n = 0;
            for head in book.head {
                let mut i = head;
                while i != NIL {
                    assert!(book.nodes[i as usize].live, "dead slot {i} on a queue");
                    n += 1;
                    i = book.nodes[i as usize].next;
                }
            }
            n
        };
        assert_eq!(indexed, book.len);
    }

    iguard_runtime::proptest_lite! {
        /// After every batch the book's live positions are the table's
        /// occupied slots — for every policy, at random budgets, promote
        /// bars and batch sizes, with controller clears, idle-timeout
        /// displacement and classified-resident displacement interleaved
        /// (a small table, a short packet threshold and a 20 ms timeout
        /// make all three frequent).
        fn book_stays_in_lockstep_with_the_table(rng) {
            let policies = [
                SketchEviction::Fifo,
                SketchEviction::Lru,
                SketchEviction::Random,
                SketchEviction::TwoQ,
            ];
            let flow_table = FlowTableConfig::default()
                .with_slots_per_table(rng.gen_range(2..16))
                .with_pkt_threshold(rng.gen_range(2..5))
                .with_timeout_ns(20_000_000);
            let cfg = SketchedPipelineConfig::default()
                .with_pipeline(PipelineConfig::default().with_flow_table(flow_table))
                .with_budget_bytes(Some(rng.gen_range(1..24) * FlowShard::slot_bytes()))
                .with_promote_threshold(rng.gen_range(1..4))
                .with_eviction(policies[rng.gen_range(0..4)])
                .with_seed(rng.next_u64());
            let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
            let (mut out, mut digests, mut ts_ms) = (Vec::new(), Vec::new(), 0);
            for _ in 0..40 {
                let batch: Vec<Packet> = (0..rng.gen_range(1..17))
                    .map(|_| {
                        ts_ms += rng.gen_range(0..8);
                        pkt(rng.gen_range(0..48), ts_ms)
                    })
                    .collect();
                dp.process_batch(&batch, &mut out);
                dp.drain_seq_digests_into(&mut digests);
                if rng.gen_bool(0.3) {
                    dp.apply(ControlAction::ClearFlow(pkt(rng.gen_range(0..48), 0).five));
                }
                assert_lockstep(&dp);
            }
        }
    }
}
