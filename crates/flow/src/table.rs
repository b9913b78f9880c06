//! The data-plane flow table: double hash tables with bi-hash indexing.
//!
//! Models the stateful storage of paper §3.3.1 / Fig. 4:
//!
//! * two fixed-size register arrays ("double hash tables") indexed by the
//!   direction-symmetric [`FiveTuple::bi_hash`] under two different seeds —
//!   a packet probes table 1 first, then table 2, mitigating collisions;
//! * a per-flow **packet-count threshold `n`**: flow-level features are
//!   considered reliable at the n-th packet, at which point the feature
//!   vector is frozen and handed to classification;
//! * an **idle timeout `δ`**: a flow idle longer than δ is classified with
//!   whatever state it has and its storage released;
//! * an explicit **collision** outcome when both candidate slots hold other
//!   live flows — the paper's orange execution path.
//!
//! [`FlowShard`], a self-contained pair of hash tables, is the only flow
//! store. The serial and sketched pipeline layouts own one full-size
//! shard; the sharded layout owns many small ones, one per 5-tuple
//! partition, each behaving exactly as a full-size shard of the same slot
//! count.

use crate::five_tuple::FiveTuple;
use crate::packet::Packet;
use crate::stats::FlowStats;
use iguard_telemetry::counter;

/// Observations per churn-rate window: every `PRESSURE_WINDOW` packets a
/// shard observes, its collision/eviction tallies are folded into a churn
/// rate (per-mille of the window) and the window restarts. A fixed,
/// per-shard packet count — never wall-clock, batch, or worker derived —
/// so the pressure signal is byte-identical across batch sizes, worker
/// counts, and shard groupings.
pub const PRESSURE_WINDOW: u64 = 256;

/// Maximum number of intermediate phase boundaries a schedule can hold.
/// Fixed so [`PhaseSchedule`] (and therefore [`FlowTableConfig`]) stays
/// `Copy` — four early looks before the final threshold is already more
/// than the pForest-style designs use.
pub const MAX_PHASES: usize = 4;

/// Intermediate classification boundaries for phase-aware operation
/// (pForest-style): a tracked flow additionally surfaces its frozen
/// feature state at each boundary `b < pkt_threshold` packets, so the
/// pipeline can consult a per-phase model long before the final
/// threshold. The default (no boundaries) reproduces single-shot
/// semantics exactly — every packet path is bit-identical to a build
/// without this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSchedule {
    boundaries: [u64; MAX_PHASES],
    len: u8,
}

impl Default for PhaseSchedule {
    fn default() -> Self {
        Self::disabled()
    }
}

impl PhaseSchedule {
    /// The single-shot schedule: no intermediate boundaries.
    pub const fn disabled() -> Self {
        Self { boundaries: [0; MAX_PHASES], len: 0 }
    }

    /// A schedule with the given boundaries (at most [`MAX_PHASES`]).
    /// Ordering/range validity is enforced against the owning config by
    /// [`FlowShard::new`], which knows the final threshold.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.len() <= MAX_PHASES, "at most {MAX_PHASES} phase boundaries");
        let mut boundaries = [0u64; MAX_PHASES];
        boundaries[..bounds.len()].copy_from_slice(bounds);
        Self { boundaries, len: bounds.len() as u8 }
    }

    /// Number of intermediate boundaries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured boundaries, in ascending packet-count order.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries[..self.len as usize]
    }
}

/// Configuration of the flow table.
#[derive(Clone, Copy, Debug)]
pub struct FlowTableConfig {
    /// Slots per hash table (two tables of this size are kept).
    pub slots_per_table: usize,
    /// Packet-count threshold `n`: classify at the n-th packet.
    pub pkt_threshold: u64,
    /// Idle timeout `δ` in nanoseconds.
    pub timeout_ns: u64,
    /// Hash seed of table 1.
    pub seed1: u64,
    /// Hash seed of table 2.
    pub seed2: u64,
    /// Intermediate phase boundaries (default: disabled / single-shot).
    pub phases: PhaseSchedule,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        Self {
            slots_per_table: 4096,
            pkt_threshold: 8,
            timeout_ns: 2_000_000_000, // 2 s
            seed1: 0x5151_5151,
            seed2: 0xA3A3_A3A3,
            phases: PhaseSchedule::disabled(),
        }
    }
}

impl FlowTableConfig {
    /// Builder: slots per hash table.
    pub fn with_slots_per_table(mut self, slots: usize) -> Self {
        self.slots_per_table = slots;
        self
    }

    /// Builder: packet-count threshold `n`.
    pub fn with_pkt_threshold(mut self, n: u64) -> Self {
        self.pkt_threshold = n;
        self
    }

    /// Builder: idle timeout `δ` in nanoseconds.
    pub fn with_timeout_ns(mut self, timeout_ns: u64) -> Self {
        self.timeout_ns = timeout_ns;
        self
    }

    /// Builder: intermediate phase boundaries.
    pub fn with_phases(mut self, phases: PhaseSchedule) -> Self {
        self.phases = phases;
        self
    }
}

/// A point-in-time occupancy summary — the `DataPlane` trait reports this
/// uniformly for single-table and sharded backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Occupied slots across both hash tables (summed over shards).
    pub occupancy: usize,
    /// Total slot capacity across both hash tables (summed over shards).
    pub capacity: usize,
    /// Packets that hit the collision (orange) path.
    pub collision_packets: u64,
}

impl FlowTableStats {
    /// Fraction of slots occupied.
    pub fn fill(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupancy as f64 / self.capacity as f64
        }
    }

    /// Element-wise sum — merging per-shard stats into a table-wide view.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            occupancy: self.occupancy + other.occupancy,
            capacity: self.capacity + other.capacity,
            collision_packets: self.collision_packets + other.collision_packets,
        }
    }
}

/// Point-in-time pressure summary of one shard (or a merge of many): the
/// live pressure signal plus the high-water marks that show how bad the
/// worst window so far was. See [`FlowShard::pressure_milli`] for the
/// signal definition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Current pressure, 0..=1000 (per-mille). Max over merged shards.
    pub pressure_milli: u32,
    /// Churn rate of the last completed window, 0..=1000. Max over shards.
    pub churn_milli: u32,
    /// Highest completed-window churn rate seen. Max over shards.
    pub churn_milli_hwm: u32,
    /// Most resident flows ever held at once. Summed over shards (an
    /// upper bound on the table-wide simultaneous high-water mark).
    pub occupancy_hwm: usize,
    /// Most collision packets in one completed window. Max over shards.
    pub collision_window_hwm: u64,
    /// Most displacements in one completed window. Max over shards.
    pub eviction_window_hwm: u64,
    /// Total residents displaced by newer flows (timed-out or classified
    /// slot reuse) plus budget evictions. Summed over shards.
    pub evictions: u64,
}

impl PressureStats {
    /// Folds another shard's pressure view into this one: rates and their
    /// high-water marks take the max (pressure is a per-shard signal — one
    /// hot shard must stay visible in the aggregate), while occupancy
    /// high-water and eviction totals sum.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            pressure_milli: self.pressure_milli.max(other.pressure_milli),
            churn_milli: self.churn_milli.max(other.churn_milli),
            churn_milli_hwm: self.churn_milli_hwm.max(other.churn_milli_hwm),
            occupancy_hwm: self.occupancy_hwm + other.occupancy_hwm,
            collision_window_hwm: self.collision_window_hwm.max(other.collision_window_hwm),
            eviction_window_hwm: self.eviction_window_hwm.max(other.eviction_window_hwm),
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One slot of a hash table.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: FiveTuple,
    stats: FlowStats,
    /// `None` = unclassified (-1 in the paper), `Some(m)` = classified.
    label: Option<bool>,
    /// Index of the next [`PhaseSchedule`] boundary this flow has yet to
    /// cross. Reset to 0 on install *and* on idle-timeout rebirth — a
    /// reborn flow restarts its phase ladder from scratch.
    phase: u8,
}

/// What [`FlowShard::admit_prehashed`] did to slot storage — the
/// bookkeeping signal the memory-budgeted (sketched) data plane needs to
/// keep an exact resident count and an exact eviction book without ever
/// scanning the tables. A claim names the slot's *position*: its index
/// in table 1, or `slots_per_table + index` in table 2 — the one address
/// [`FlowShard::evict_at`], [`FlowShard::clear`] and the eviction book
/// share, the way the paper's register arrays share the bi-hash index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotClaim {
    /// Installed into a previously empty slot: one more resident flow.
    Fresh(u32),
    /// Installed over a timed-out or already-classified foreign resident,
    /// whose key is returned: resident count unchanged, but the displaced
    /// key is no longer tracked.
    Displaced(FiveTuple, u32),
    /// Nothing installed (collision): resident set unchanged.
    Unclaimed,
}

/// The result of observing one packet — maps 1:1 to the coloured packet
/// execution paths of Fig. 4 (blacklist matching happens upstream in the
/// switch pipeline, not here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InsertOutcome {
    /// 1..(n−1)-th packet of a tracked flow; state updated (brown path).
    Early { pkt_count: u64 },
    /// The n-th packet arrived, or the resident flow timed out: the frozen
    /// feature state is handed out and the slot awaits a label (blue path).
    Ready { stats: FlowStats, timed_out: bool },
    /// The flow crossed an intermediate [`PhaseSchedule`] boundary: its
    /// current feature state is surfaced for an early per-phase look, but
    /// the slot stays resident and unlabeled — tracking continues toward
    /// the next boundary or the final threshold. `phase` is the index of
    /// the boundary just crossed.
    PhaseReady { stats: FlowStats, phase: u8 },
    /// The flow was already classified; early decision (purple path).
    Classified { label: bool },
    /// Both candidate slots hold other *unclassified* live flows
    /// (orange path, resident label −1): the packet cannot be tracked.
    Collision,
    /// Both slots were occupied but a resident was already classified
    /// (orange path, resident label 0/1): the resident was evicted and the
    /// new flow installed.
    ReplacedClassified { pkt_count: u64 },
}

/// Deferred telemetry of [`FlowShard::observe_resident_prehashed`],
/// [`FlowShard::admit_prehashed`] and [`FlowShard::evict_at`]: per-event
/// counts accumulated in plain fields and flushed to the global registry
/// in one atomic add per event kind. A batched caller flushes once per
/// chunk; [`FlowShard::observe`] flushes per call — either way the
/// registry totals are identical to per-packet `counter!(..).inc()` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObserveTallies {
    pub classified: u64,
    pub ready_timeout: u64,
    pub ready: u64,
    pub phase_ready: u64,
    pub early: u64,
    pub install: u64,
    pub evict_classified: u64,
    pub collision: u64,
    pub evict_budget: u64,
}

impl ObserveTallies {
    /// Adds the accumulated counts to the global metric registry and
    /// zeroes the tallies.
    pub fn flush(&mut self) {
        let flush_one = |n: u64, c: &'static iguard_telemetry::Counter| {
            if n > 0 {
                c.add(n);
            }
        };
        flush_one(self.classified, counter!("flow.table.classified"));
        flush_one(self.ready_timeout, counter!("flow.table.ready_timeout"));
        flush_one(self.ready, counter!("flow.table.ready"));
        flush_one(self.phase_ready, counter!("flow.table.phase_ready"));
        flush_one(self.early, counter!("flow.table.early"));
        flush_one(self.install, counter!("flow.table.install"));
        flush_one(self.evict_classified, counter!("flow.table.evict_classified"));
        flush_one(self.collision, counter!("flow.table.collision"));
        flush_one(self.evict_budget, counter!("flow.table.evict_budget"));
        *self = Self::default();
    }
}

/// Advances a resident flow by one packet — the state machine behind
/// [`FlowShard::observe_resident_prehashed`].
#[inline]
fn advance(
    slot: &mut Slot,
    cfg: &FlowTableConfig,
    p: &Packet,
    now_ns: u64,
    tallies: &mut ObserveTallies,
) -> InsertOutcome {
    if let Some(label) = slot.label {
        tallies.classified += 1;
        return InsertOutcome::Classified { label };
    }
    // Timeout check before updating: an idle flow is classified on
    // whatever state it accumulated.
    if slot.stats.timed_out(now_ns, cfg.timeout_ns) {
        let stats = slot.stats;
        // Restart tracking from this packet. The reborn incarnation
        // restarts its phase ladder too — phase progress must not leak
        // across the idle gap.
        slot.stats = FlowStats::from_first_packet(p);
        slot.phase = 0;
        tallies.ready_timeout += 1;
        return InsertOutcome::Ready { stats, timed_out: true };
    }
    slot.stats.update(p);
    if slot.stats.pkt_count >= cfg.pkt_threshold {
        tallies.ready += 1;
        return InsertOutcome::Ready { stats: slot.stats, timed_out: false };
    }
    // Intermediate phase boundary: surface the current state for an
    // early look but keep tracking. `>=` (not `==`) catches up a ladder
    // that skipped a boundary, though with one outcome per packet and
    // strictly increasing boundaries that cannot happen from this walk
    // alone.
    let ph = slot.phase as usize;
    if ph < cfg.phases.len() && slot.stats.pkt_count >= cfg.phases.boundaries()[ph] {
        slot.phase += 1;
        tallies.phase_ready += 1;
        return InsertOutcome::PhaseReady { stats: slot.stats, phase: ph as u8 };
    }
    tallies.early += 1;
    InsertOutcome::Early { pkt_count: slot.stats.pkt_count }
}

/// Double-hash-table flow storage: one self-contained partition.
///
/// This is the unit of state the sharded data plane distributes — each
/// shard owns the flows whose canonical 5-tuple hashes into it, and no
/// state is shared between shards.
pub struct FlowShard {
    cfg: FlowTableConfig,
    /// Both hash tables as one register array: table 1 is
    /// `slots[..slots_per_table]`, table 2 the rest, so an index here is
    /// a slot's [`SlotClaim`] position.
    slots: Vec<Option<Slot>>,
    /// `slots_per_table - 1` when the size is a power of two (the
    /// default): `h % size == h & mask`, and the AND avoids a 64-bit
    /// divide on the per-packet path. `None` falls back to `%`.
    pow2_mask: Option<u64>,
    /// Count of packets that hit the collision path (telemetry).
    pub collision_packets: u64,
    /// Occupied slots across both tables, maintained O(1) at every slot
    /// mutation so the pressure signal never scans the tables.
    resident: usize,
    /// Most resident flows ever held at once.
    occupancy_hwm: usize,
    /// Residents displaced by newer flows plus budget evictions (total).
    evictions: u64,
    /// Packets observed in the current churn window.
    win_obs: u64,
    /// Collision packets in the current churn window.
    win_collisions: u64,
    /// Displacements (timed-out / classified slot reuse) in the current
    /// churn window.
    win_evictions: u64,
    /// Churn rate of the last completed window (per-mille of the window).
    churn_milli: u32,
    /// Highest completed-window churn rate seen.
    churn_milli_hwm: u32,
    /// Most collision packets in one completed window.
    collision_window_hwm: u64,
    /// Most displacements in one completed window.
    eviction_window_hwm: u64,
}

impl FlowShard {
    pub fn new(cfg: FlowTableConfig) -> Self {
        assert!(cfg.slots_per_table > 0, "table must have at least one slot");
        assert!(cfg.pkt_threshold >= 1, "packet threshold must be >= 1");
        // Phase boundaries must be strictly increasing, at least 2 (the
        // first packet of a flow takes the install path, which never emits
        // a phase look), and strictly below the final threshold (the
        // threshold itself is the single-shot blue path).
        let mut prev = 1u64;
        for &b in cfg.phases.boundaries() {
            assert!(b >= 2, "phase boundary {b} must be >= 2");
            assert!(b > prev, "phase boundaries must be strictly increasing");
            assert!(b < cfg.pkt_threshold, "phase boundary {b} must be below the packet threshold");
            prev = b;
        }
        Self {
            slots: vec![None; 2 * cfg.slots_per_table],
            pow2_mask: cfg
                .slots_per_table
                .is_power_of_two()
                .then(|| cfg.slots_per_table as u64 - 1),
            cfg,
            collision_packets: 0,
            resident: 0,
            occupancy_hwm: 0,
            evictions: 0,
            win_obs: 0,
            win_collisions: 0,
            win_evictions: 0,
            churn_milli: 0,
            churn_milli_hwm: 0,
            collision_window_hwm: 0,
            eviction_window_hwm: 0,
        }
    }

    pub fn config(&self) -> &FlowTableConfig {
        &self.cfg
    }

    #[inline]
    fn reduce(&self, h: u64) -> usize {
        match self.pow2_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.cfg.slots_per_table as u64) as usize,
        }
    }

    /// Advances the churn window by one observed packet, folding the
    /// window's collision/eviction tallies into `churn_milli` when it
    /// completes. Called once per packet from the resident probe.
    #[inline]
    fn note_observe(&mut self) {
        self.win_obs += 1;
        if self.win_obs >= PRESSURE_WINDOW {
            // A packet either collides or displaces, never both, so the
            // sum stays within the window.
            let churn = (self.win_collisions + self.win_evictions).min(self.win_obs);
            self.churn_milli = (churn * 1000 / self.win_obs) as u32;
            self.churn_milli_hwm = self.churn_milli_hwm.max(self.churn_milli);
            self.collision_window_hwm = self.collision_window_hwm.max(self.win_collisions);
            self.eviction_window_hwm = self.eviction_window_hwm.max(self.win_evictions);
            self.win_obs = 0;
            self.win_collisions = 0;
            self.win_evictions = 0;
        }
    }

    /// Resident-count / churn bookkeeping of one slot claim.
    #[inline]
    fn note_claim(&mut self, claim: &SlotClaim) {
        match claim {
            SlotClaim::Fresh(_) => {
                self.resident += 1;
                self.occupancy_hwm = self.occupancy_hwm.max(self.resident);
            }
            SlotClaim::Displaced(..) => {
                self.evictions += 1;
                self.win_evictions += 1;
            }
            SlotClaim::Unclaimed => {}
        }
    }

    /// The live pressure signal, 0..=1000 (per-mille): the max of the
    /// last completed window's churn rate (collisions + displacements per
    /// observed packet) and *half* the occupancy fill. Churn-primary by
    /// design — a full but quiet table tops out at 500, below the
    /// degraded-mode entry threshold, so sustained slot fighting (the
    /// state-exhaustion signature) is what reads as overload, and the
    /// signal can fall back through the exit threshold in pulse gaps even
    /// while the table is still full of stale residents.
    #[inline]
    pub fn pressure_milli(&self) -> u32 {
        let occ = (self.resident * 500 / self.capacity()) as u32;
        self.churn_milli.max(occ)
    }

    /// Pressure + high-water-mark summary of this shard.
    pub fn pressure_stats(&self) -> PressureStats {
        PressureStats {
            pressure_milli: self.pressure_milli(),
            churn_milli: self.churn_milli,
            churn_milli_hwm: self.churn_milli_hwm,
            occupancy_hwm: self.occupancy_hwm,
            collision_window_hwm: self.collision_window_hwm,
            eviction_window_hwm: self.eviction_window_hwm,
            evictions: self.evictions,
        }
    }

    /// The candidate slot pair of `key` — a pure function of the config
    /// (seeds + table size), exposed so a caller hashes a packet's key
    /// once for the probe, the slot claim and the label write.
    pub fn slot_index_pair(&self, key: &FiveTuple) -> (u32, u32) {
        (
            self.reduce(key.bi_hash(self.cfg.seed1)) as u32,
            self.reduce(key.bi_hash(self.cfg.seed2)) as u32,
        )
    }

    /// The [`SlotClaim`] positions of a slot pair, table 1 first.
    #[inline]
    fn positions(&self, i1: u32, i2: u32) -> [usize; 2] {
        [i1 as usize, self.cfg.slots_per_table + i2 as usize]
    }

    /// Position of the canonical `key`'s slot; hashes table 2 only on a miss.
    fn locate(&self, key: &FiveTuple) -> Option<usize> {
        let tables = [(self.cfg.seed1, 0), (self.cfg.seed2, self.cfg.slots_per_table)];
        let mut positions =
            tables.into_iter().map(|(seed, base)| base + self.reduce(key.bi_hash(seed)));
        positions.find(|&pos| matches!(&self.slots[pos], Some(s) if s.key == *key))
    }

    /// Observes one packet, advancing flow state and reporting which
    /// execution path it takes. `now_ns` is the packet's arrival time.
    /// Canonicalizes and hashes the key itself and flushes its telemetry
    /// per call; the pipeline's batched walks instead call the two halves
    /// below with the key and slot pair precomputed and the tallies
    /// flushed once per chunk (registry totals are identical).
    pub fn observe(&mut self, p: &Packet, now_ns: u64) -> InsertOutcome {
        let key = p.five.canonical();
        let (i1, i2) = self.slot_index_pair(&key);
        let mut t = ObserveTallies::default();
        let out = match self.observe_resident_prehashed(key, i1, i2, p, now_ns, &mut t) {
            Some((out, _)) => out,
            None => self.admit_prehashed(key, i1, i2, p, now_ns, &mut t).0,
        };
        t.flush();
        out
    }

    /// The resident half of the probe/install walk: if `key` is tracked
    /// in either table, advance its state (classified / early / ready /
    /// timeout-restart, exactly as [`FlowShard::observe`]) and
    /// return the outcome with the slot's [`SlotClaim`] position; if
    /// untracked, return `None` **without claiming a slot**. The seam the
    /// sketch-assisted data plane interposes on: untracked flows go to
    /// the admission sketch instead of straight to
    /// [`FlowShard::admit_prehashed`]. Inlined: out of line, unwrapping
    /// the pair copied the outcome per packet (−6% `stream_exact` pps).
    #[inline]
    pub fn observe_resident_prehashed(
        &mut self,
        key: FiveTuple,
        i1: u32,
        i2: u32,
        p: &Packet,
        now_ns: u64,
        tallies: &mut ObserveTallies,
    ) -> Option<(InsertOutcome, u32)> {
        debug_assert_eq!(key, p.five.canonical());
        debug_assert_eq!((i1, i2), self.slot_index_pair(&key));
        self.note_observe();
        // Probe for the flow itself first (either table).
        for pos in self.positions(i1, i2) {
            if let Some(slot) = &mut self.slots[pos] {
                if slot.key == key {
                    return Some((advance(slot, &self.cfg, p, now_ns, tallies), pos as u32));
                }
            }
        }
        None
    }

    /// The install half of the walk, for a flow known to be untracked:
    /// claim a free or reclaimable slot, or report a collision. Also
    /// reports *what storage changed* ([`SlotClaim`]) so a budgeted
    /// caller can keep an exact resident count and learn which foreign
    /// key was displaced.
    pub fn admit_prehashed(
        &mut self,
        key: FiveTuple,
        i1: u32,
        i2: u32,
        p: &Packet,
        now_ns: u64,
        tallies: &mut ObserveTallies,
    ) -> (InsertOutcome, SlotClaim) {
        debug_assert_eq!(key, p.five.canonical());
        debug_assert_eq!((i1, i2), self.slot_index_pair(&key));
        let positions = self.positions(i1, i2);

        // Find a free slot (table 1 preferred), evicting timed-out
        // residents.
        for pos in positions {
            let slot_opt = &mut self.slots[pos];
            let claim = match slot_opt {
                None => Some(SlotClaim::Fresh(pos as u32)),
                Some(s) if s.stats.timed_out(now_ns, self.cfg.timeout_ns) => {
                    Some(SlotClaim::Displaced(s.key, pos as u32))
                }
                Some(_) => None,
            };
            if let Some(claim) = claim {
                // Build the stats once and install a copy: the threshold-1
                // fast path below reads the same value without re-probing
                // the slot it just wrote (no unwrap on the hot path).
                let stats = FlowStats::from_first_packet(p);
                *slot_opt = Some(Slot { key, stats, label: None, phase: 0 });
                self.note_claim(&claim);
                tallies.install += 1;
                let out = if self.cfg.pkt_threshold == 1 {
                    tallies.ready += 1;
                    InsertOutcome::Ready { stats, timed_out: false }
                } else {
                    tallies.early += 1;
                    InsertOutcome::Early { pkt_count: 1 }
                };
                return (out, claim);
            }
        }

        // Both occupied by live foreign flows — the orange path. A
        // *classified* resident can be evicted (its verdict lives on in the
        // blacklist/whitelist outcome); an unclassified one cannot.
        for pos in positions {
            let slot_opt = &mut self.slots[pos];
            if let Some(s) = slot_opt {
                if s.label.is_some() {
                    let displaced = s.key;
                    *slot_opt = Some(Slot {
                        key,
                        stats: FlowStats::from_first_packet(p),
                        label: None,
                        phase: 0,
                    });
                    let claim = SlotClaim::Displaced(displaced, pos as u32);
                    self.note_claim(&claim);
                    tallies.evict_classified += 1;
                    tallies.install += 1;
                    return (InsertOutcome::ReplacedClassified { pkt_count: 1 }, claim);
                }
            }
        }
        self.collision_packets += 1;
        self.win_collisions += 1;
        tallies.collision += 1;
        (InsertOutcome::Collision, SlotClaim::Unclaimed)
    }

    /// Releases the slot at `pos` — a position a [`SlotClaim`] or
    /// [`FlowShard::observe_resident_prehashed`] reported — under memory
    /// pressure (the budgeted data plane's policy eviction). No key is
    /// re-hashed. Identical storage effect to [`FlowShard::clear`], but
    /// counted as an eviction, not a controller-driven clear. Returns
    /// false if the slot was already empty (a stale eviction-book entry).
    pub fn evict_at(&mut self, pos: u32, tallies: &mut ObserveTallies) -> bool {
        if self.slots[pos as usize].take().is_none() {
            return false;
        }
        self.resident -= 1;
        self.evictions += 1;
        tallies.evict_budget += 1;
        true
    }

    /// The flow resident at slot position `pos`, if any.
    pub fn key_at(&self, pos: u32) -> Option<FiveTuple> {
        self.slots.get(pos as usize)?.as_ref().map(|s| s.key)
    }

    /// Resident bytes one tracked flow costs: one slot (key + stats +
    /// label + discriminant). The budgeted data plane divides its byte
    /// budget by this to get a tracked-flow cap.
    pub fn slot_bytes() -> usize {
        std::mem::size_of::<Option<Slot>>()
    }

    /// Installs a label for a tracked flow (the green loopback path writes
    /// the class into flow-label storage). Returns false if the flow is not
    /// resident.
    pub fn set_label(&mut self, key: &FiveTuple, label: bool) -> bool {
        let key = key.canonical();
        let (i1, i2) = self.slot_index_pair(&key);
        self.set_label_prehashed(key, i1, i2, label)
    }

    /// [`FlowShard::set_label`] with the canonical key and its slot pair
    /// precomputed — the batched walk already holds both from its hashing
    /// pre-pass, so the label write re-hashes nothing.
    pub fn set_label_prehashed(&mut self, key: FiveTuple, i1: u32, i2: u32, label: bool) -> bool {
        debug_assert_eq!(key, key.canonical());
        debug_assert_eq!((i1, i2), self.slot_index_pair(&key));
        let (table1, table2) = self.slots.split_at_mut(self.cfg.slots_per_table);
        for slot in [&mut table1[i1 as usize], &mut table2[i2 as usize]].into_iter().flatten() {
            if slot.key == key {
                slot.label = Some(label);
                return true;
            }
        }
        false
    }

    /// Reads the label of a tracked flow, if any.
    pub fn label_of(&self, key: &FiveTuple) -> Option<Option<bool>> {
        let pos = self.locate(&key.canonical())?;
        self.slots[pos].as_ref().map(|s| s.label)
    }

    /// Releases the storage of a flow (controller cleanup on digest).
    /// Returns the freed slot's [`SlotClaim`] position if the flow was
    /// resident.
    pub fn clear(&mut self, key: &FiveTuple) -> Option<u32> {
        let pos = self.locate(&key.canonical())?;
        self.slots[pos] = None;
        self.resident -= 1;
        counter!("flow.table.clear").inc();
        Some(pos as u32)
    }

    /// Appends every resident flow that already carries a label, in slot
    /// order (table 1 then table 2) — a deterministic iteration the
    /// control-plane resync path uses to re-derive lost digests after a
    /// channel outage.
    pub fn labeled_flows_into(&self, out: &mut Vec<(FiveTuple, bool)>) {
        for slot in self.slots.iter().flatten() {
            if let Some(label) = slot.label {
                out.push((slot.key, label));
            }
        }
    }

    /// Number of occupied slots across both tables. O(1): reads the
    /// maintained resident counter; debug builds cross-check it against a
    /// full slot scan.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "resident counter drifted from slot scan"
        );
        self.resident
    }

    /// Total slot capacity across both tables.
    pub fn capacity(&self) -> usize {
        2 * self.cfg.slots_per_table
    }

    /// Occupancy + collision summary for this shard.
    pub fn stats(&self) -> FlowTableStats {
        FlowTableStats {
            occupancy: self.occupancy(),
            capacity: self.capacity(),
            collision_packets: self.collision_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::five_tuple::PROTO_TCP;
    use crate::packet::TcpFlags;

    fn cfg() -> FlowTableConfig {
        FlowTableConfig {
            slots_per_table: 64,
            pkt_threshold: 3,
            timeout_ns: 1_000_000_000,
            seed1: 1,
            seed2: 2,
            phases: PhaseSchedule::disabled(),
        }
    }

    fn pkt(flow: u16, ts_ms: u64) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A000001, 0xC0A80101, 10_000 + flow, 80, PROTO_TCP),
            wire_len: 100,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    #[test]
    fn flow_progresses_to_threshold() {
        let mut t = FlowShard::new(cfg());
        assert_eq!(t.observe(&pkt(1, 0), 0), InsertOutcome::Early { pkt_count: 1 });
        assert_eq!(t.observe(&pkt(1, 1), 1_000_000), InsertOutcome::Early { pkt_count: 2 });
        match t.observe(&pkt(1, 2), 2_000_000) {
            InsertOutcome::Ready { stats, timed_out } => {
                assert_eq!(stats.pkt_count, 3);
                assert!(!timed_out);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn reverse_direction_hits_same_slot() {
        let mut t = FlowShard::new(cfg());
        let fwd = pkt(1, 0);
        let mut rev = pkt(1, 1);
        rev.five = fwd.five.reversed();
        rev.ts_ns = 1_000_000;
        assert_eq!(t.observe(&fwd, 0), InsertOutcome::Early { pkt_count: 1 });
        assert_eq!(t.observe(&rev, 1_000_000), InsertOutcome::Early { pkt_count: 2 });
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn classified_flow_takes_purple_path() {
        let mut t = FlowShard::new(cfg());
        let _ = t.observe(&pkt(1, 0), 0);
        assert!(t.set_label(&pkt(1, 0).five, true));
        assert_eq!(t.observe(&pkt(1, 1), 1_000_000), InsertOutcome::Classified { label: true });
    }

    #[test]
    fn timeout_freezes_state_and_restarts() {
        let mut t = FlowShard::new(cfg());
        let _ = t.observe(&pkt(1, 0), 0);
        // 2 s later: > 1 s timeout.
        match t.observe(&pkt(1, 2000), 2_000_000_000) {
            InsertOutcome::Ready { stats, timed_out } => {
                assert!(timed_out);
                assert_eq!(stats.pkt_count, 1);
            }
            other => panic!("expected timed-out Ready, got {other:?}"),
        }
        // Tracking restarted with the new packet.
        assert_eq!(t.label_of(&pkt(1, 0).five), Some(None));
    }

    #[test]
    fn phase_boundaries_surface_state_and_keep_tracking() {
        let c = FlowTableConfig { pkt_threshold: 6, phases: PhaseSchedule::new(&[2, 4]), ..cfg() };
        let mut t = FlowShard::new(c);
        assert_eq!(t.observe(&pkt(1, 0), 0), InsertOutcome::Early { pkt_count: 1 });
        match t.observe(&pkt(1, 1), 1_000_000) {
            InsertOutcome::PhaseReady { stats, phase } => {
                assert_eq!(phase, 0);
                assert_eq!(stats.pkt_count, 2);
            }
            other => panic!("expected PhaseReady 0, got {other:?}"),
        }
        assert_eq!(t.observe(&pkt(1, 2), 2_000_000), InsertOutcome::Early { pkt_count: 3 });
        match t.observe(&pkt(1, 3), 3_000_000) {
            InsertOutcome::PhaseReady { stats, phase } => {
                assert_eq!(phase, 1);
                assert_eq!(stats.pkt_count, 4);
            }
            other => panic!("expected PhaseReady 1, got {other:?}"),
        }
        assert_eq!(t.observe(&pkt(1, 4), 4_000_000), InsertOutcome::Early { pkt_count: 5 });
        assert!(matches!(
            t.observe(&pkt(1, 5), 5_000_000),
            InsertOutcome::Ready { timed_out: false, .. }
        ));
    }

    #[test]
    fn reborn_flow_restarts_at_phase_zero() {
        let c = FlowTableConfig { pkt_threshold: 6, phases: PhaseSchedule::new(&[2]), ..cfg() };
        let mut t = FlowShard::new(c);
        let _ = t.observe(&pkt(1, 0), 0);
        // Cross the boundary: phase ladder advances past boundary 0.
        assert!(matches!(
            t.observe(&pkt(1, 1), 1_000_000),
            InsertOutcome::PhaseReady { phase: 0, .. }
        ));
        // Idle past the 1 s timeout: the old incarnation flushes.
        assert!(matches!(
            t.observe(&pkt(1, 2000), 2_000_000_000),
            InsertOutcome::Ready { timed_out: true, .. }
        ));
        // The reborn incarnation must cross boundary 0 again at packet 2.
        assert!(matches!(
            t.observe(&pkt(1, 2001), 2_001_000_000),
            InsertOutcome::PhaseReady { phase: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "below the packet threshold")]
    fn phase_boundary_at_threshold_is_rejected() {
        let c = FlowTableConfig { pkt_threshold: 4, phases: PhaseSchedule::new(&[2, 4]), ..cfg() };
        let _ = FlowShard::new(c);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn phase_boundaries_must_increase() {
        let c = FlowTableConfig { pkt_threshold: 10, phases: PhaseSchedule::new(&[4, 4]), ..cfg() };
        let _ = FlowShard::new(c);
    }

    #[test]
    fn collision_reported_when_both_tables_full() {
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 100;
        let mut t = FlowShard::new(small);
        assert_eq!(t.observe(&pkt(1, 0), 0), InsertOutcome::Early { pkt_count: 1 });
        assert_eq!(t.observe(&pkt(2, 0), 0), InsertOutcome::Early { pkt_count: 1 });
        // Third distinct flow: both single-slot tables occupied, unclassified.
        assert_eq!(t.observe(&pkt(3, 0), 0), InsertOutcome::Collision);
        assert_eq!(t.collision_packets, 1);
    }

    #[test]
    fn classified_resident_evicted_on_collision() {
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 100;
        let mut t = FlowShard::new(small);
        let _ = t.observe(&pkt(1, 0), 0);
        let _ = t.observe(&pkt(2, 0), 0);
        assert!(t.set_label(&pkt(1, 0).five, false));
        assert_eq!(t.observe(&pkt(3, 0), 0), InsertOutcome::ReplacedClassified { pkt_count: 1 });
        // Old resident is gone.
        assert_eq!(t.label_of(&pkt(1, 0).five), None);
    }

    #[test]
    fn labeled_flows_lists_only_classified_residents() {
        let mut t = FlowShard::new(cfg());
        let _ = t.observe(&pkt(1, 0), 0);
        let _ = t.observe(&pkt(2, 0), 0);
        let _ = t.observe(&pkt(3, 0), 0);
        assert!(t.set_label(&pkt(1, 0).five, true));
        assert!(t.set_label(&pkt(3, 0).five, false));
        let mut labeled = Vec::new();
        t.labeled_flows_into(&mut labeled);
        labeled.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(
            labeled,
            vec![(pkt(1, 0).five.canonical(), true), (pkt(3, 0).five.canonical(), false)]
        );
        // Clearing removes the flow from the resync view.
        assert!(t.clear(&pkt(1, 0).five).is_some());
        labeled.clear();
        t.labeled_flows_into(&mut labeled);
        assert_eq!(labeled, vec![(pkt(3, 0).five.canonical(), false)]);
    }

    #[test]
    fn clear_releases_slot() {
        let mut t = FlowShard::new(cfg());
        let _ = t.observe(&pkt(1, 0), 0);
        assert_eq!(t.occupancy(), 1);
        assert!(t.clear(&pkt(1, 0).five).is_some());
        assert_eq!(t.occupancy(), 0);
        assert!(t.clear(&pkt(1, 0).five).is_none());
    }

    /// Claims a slot for flow `f` at `ts_ms` through the untracked seam.
    fn admit(t: &mut FlowShard, f: u16, ts_ms: u64, tallies: &mut ObserveTallies) -> SlotClaim {
        let p = pkt(f, ts_ms);
        let key = p.five.canonical();
        let (i1, i2) = t.slot_index_pair(&key);
        t.admit_prehashed(key, i1, i2, &p, p.ts_ns, tallies).1
    }

    #[test]
    fn evict_at_and_clear_free_the_claimed_position() {
        // One slot per table: position 0 is table 1, position 1 table 2.
        let small = FlowTableConfig { slots_per_table: 1, pkt_threshold: 100, ..cfg() };
        let mut t = FlowShard::new(small);
        let mut tl = ObserveTallies::default();
        let key = |f: u16| pkt(f, 0).five.canonical();
        assert_eq!(admit(&mut t, 1, 0, &mut tl), SlotClaim::Fresh(0));
        assert_eq!(admit(&mut t, 2, 0, &mut tl), SlotClaim::Fresh(1));
        assert_eq!((t.key_at(0), t.key_at(1)), (Some(key(1)), Some(key(2))));

        // A resident hit reports the position its claim named.
        let p = pkt(2, 1);
        let (i1, i2) = t.slot_index_pair(&key(2));
        let hit = t.observe_resident_prehashed(key(2), i1, i2, &p, p.ts_ns, &mut tl);
        assert_eq!(hit.map(|(_, pos)| pos), Some(1));

        assert_eq!(t.clear(&key(2)), Some(1));
        assert_eq!((t.key_at(1), t.occupancy()), (None, 1));
        assert_eq!(admit(&mut t, 2, 0, &mut tl), SlotClaim::Fresh(1));

        assert!(t.evict_at(0, &mut tl));
        assert_eq!((t.key_at(0), t.key_at(1), t.occupancy()), (None, Some(key(2)), 1));
        assert!(!t.evict_at(0, &mut tl), "an empty slot is not evicted twice");
        assert_eq!(tl.evict_budget, 1);

        // Idle-timeout displacement names the stale resident and its slot.
        assert_eq!(admit(&mut t, 3, 5000, &mut tl), SlotClaim::Fresh(0));
        assert_eq!(admit(&mut t, 4, 5000, &mut tl), SlotClaim::Displaced(key(2), 1));
        // Classified-resident displacement: both live, flow 3 labelled.
        assert!(t.set_label(&key(3), false));
        assert_eq!(admit(&mut t, 5, 5000, &mut tl), SlotClaim::Displaced(key(3), 0));
        assert_eq!(t.clear(&key(5)), Some(0));
        assert!(t.evict_at(1, &mut tl));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn threshold_one_classifies_first_packet() {
        let mut c = cfg();
        c.pkt_threshold = 1;
        let mut t = FlowShard::new(c);
        match t.observe(&pkt(1, 0), 0) {
            InsertOutcome::Ready { stats, .. } => assert_eq!(stats.pkt_count, 1),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn pressure_rises_under_collision_churn_and_sets_high_water_marks() {
        // One slot per table, huge threshold: after the first two flows
        // claim the slots, every further distinct flow collides. Run two
        // full churn windows so churn_milli reflects a completed window.
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 1_000;
        let mut t = FlowShard::new(small);
        for f in 0..(2 * PRESSURE_WINDOW as u16) {
            let _ = t.observe(&pkt(f, 0), 0);
        }
        let ps = t.pressure_stats();
        assert!(ps.churn_milli > 900, "near-total collision churn, got {}", ps.churn_milli);
        assert!(t.pressure_milli() >= ps.churn_milli);
        assert_eq!(ps.churn_milli_hwm, ps.churn_milli);
        assert!(ps.collision_window_hwm > 0);
        assert_eq!(ps.occupancy_hwm, 2);
    }

    #[test]
    fn full_but_quiet_table_reads_at_most_half_pressure() {
        // Both slots taken, zero churn: the occupancy component alone caps
        // at 500 per-mille, below any degraded-mode entry threshold — a
        // full table that nobody is fighting over is not overload.
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 1_000;
        let mut t = FlowShard::new(small);
        let _ = t.observe(&pkt(1, 0), 0);
        let _ = t.observe(&pkt(2, 0), 0);
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.pressure_milli(), 500);
    }

    #[test]
    fn timed_out_displacement_counts_as_eviction_churn() {
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 1_000;
        let mut t = FlowShard::new(small);
        let _ = t.observe(&pkt(1, 0), 0);
        let _ = t.observe(&pkt(2, 0), 0);
        // 5 s later a new flow displaces the stale resident in table 1.
        let _ = t.observe(&pkt(3, 5000), 5_000_000_000);
        let ps = t.pressure_stats();
        assert_eq!(ps.evictions, 1);
        // Displacement keeps the resident count flat (one out, one in).
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn pressure_stats_merge_maxes_rates_and_sums_totals() {
        let a = PressureStats {
            pressure_milli: 800,
            churn_milli: 800,
            churn_milli_hwm: 900,
            occupancy_hwm: 10,
            collision_window_hwm: 100,
            eviction_window_hwm: 5,
            evictions: 7,
        };
        let b = PressureStats {
            pressure_milli: 100,
            churn_milli: 100,
            churn_milli_hwm: 950,
            occupancy_hwm: 3,
            collision_window_hwm: 40,
            eviction_window_hwm: 9,
            evictions: 2,
        };
        let m = a.merge(&b);
        assert_eq!(m.pressure_milli, 800);
        assert_eq!(m.churn_milli_hwm, 950);
        assert_eq!(m.occupancy_hwm, 13);
        assert_eq!(m.collision_window_hwm, 100);
        assert_eq!(m.eviction_window_hwm, 9);
        assert_eq!(m.evictions, 9);
    }

    #[test]
    fn timed_out_foreign_resident_is_evicted() {
        let mut small = FlowTableConfig { slots_per_table: 1, ..cfg() };
        small.pkt_threshold = 100;
        let mut t = FlowShard::new(small);
        let _ = t.observe(&pkt(1, 0), 0);
        let _ = t.observe(&pkt(2, 0), 0);
        // 5 s later both residents are stale; a new flow takes a slot.
        assert_eq!(t.observe(&pkt(3, 5000), 5_000_000_000), InsertOutcome::Early { pkt_count: 1 });
    }
}
