//! Streaming trace generation: million-flow traces without materialisation.
//!
//! [`crate::trace::Trace`] holds every packet in memory, which caps
//! experiments at the ~10k-packet replays of the earlier benches. A
//! [`StreamingTrace`] instead *is* the trace: a seeded generator that
//! yields packets (or fills caller-owned batch buffers) on demand, so a
//! simulated-hours, million-flow workload costs O(lanes) state — a few
//! kilobytes — no matter how long it runs.
//!
//! ## Structure
//!
//! * A **Zipf-skewed user population** ([`Zipf`], rejection-inversion
//!   sampling — O(1) per draw at any population size): a few heavy-hitter
//!   devices dominate while a long tail of users appears rarely, the flow
//!   popularity regime sketch-assisted tables are built for.
//! * **Lanes**: `cfg.lanes` independent flow generators, each with its own
//!   derived RNG stream, laying flows back-to-back in time with sampled
//!   inter-flow gaps. A K-way merge on (timestamp, lane) interleaves them
//!   into one globally time-ordered packet stream with deterministic
//!   tie-breaks.
//! * **Benign/attack interleave**: each new flow is an attack with
//!   probability `attack_fraction`, drawn from `cfg.attacks`; benign flows
//!   sample the [`crate::benign::device_mixture`] with the same hyper-prior
//!   parameter jitter as [`crate::profile::FlowProfile::gen_flow`].
//!
//! ## Batch-size invariance
//!
//! The stream is one fixed packet sequence; [`StreamingTrace::fill_next`]
//! merely cuts it at the caller's boundary. Reading the stream at batch
//! size 1, 7, or 1024 yields byte-identical packets in the same order —
//! the same chunking rule the batched pipeline relies on — and the
//! property tests pin it.
//!
//! ## Allocation discipline
//!
//! After construction, the streaming path performs **no allocation**: lane
//! state is fixed-size, packets are generated incrementally (no per-flow
//! `Vec`), and `fill_next` writes into caller-owned buffers. The switch
//! suite `alloc_free_stream` asserts this with a counting allocator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_runtime::rng::Rng;

use crate::attacks::{Attack, BOT_IP_BASE, VICTIM_IP_BASE};
use crate::benign::{device_mixture, CLOUD_IP_BASE, DEVICE_IP_BASE};
use crate::profile::{FlagsModel, FlowProfile, IpdModel, SizeModel};
use crate::trace::Trace;

/// Placeholder packet for a lane slot that hasn't produced one yet.
fn zero_packet() -> Packet {
    Packet {
        ts_ns: 0,
        five: FiveTuple::new(0, 0, 0, 0, 0),
        wire_len: 0,
        ttl: 0,
        flags: TcpFlags::default(),
    }
}

/// Zipf(n, s) rank sampler: `P(k) ∝ k^−s` over ranks `1..=n`, via
/// Hörmann–Derflinger rejection-inversion. O(1) per sample with no
/// precomputed table, so the user population can be in the millions.
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: f64,
    s: f64,
    /// `H(1.5) − 1`: lower end of the inversion range.
    h_x1: f64,
    /// `H(n + 0.5)`: upper end of the inversion range.
    h_n: f64,
    /// Fast-accept threshold `2 − H⁻¹(H(2.5) − 2^−s)`.
    threshold: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "population must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and ≥ 0");
        let mut z = Self { n: n as f64, s, h_x1: 0.0, h_n: 0.0, threshold: 0.0 };
        z.h_x1 = z.h(1.5) - 1.0;
        z.h_n = z.h(z.n + 0.5);
        z.threshold = 2.0 - z.h_inv(z.h(2.5) - 2f64.powf(-s));
        z
    }

    /// `H(x) = ∫ x^−s dx`, anchored so `H` is continuous at `s = 1`.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k as u64;
            }
        }
    }
}

/// Configuration of a [`StreamingTrace`].
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    pub seed: u64,
    /// Benign device population size; source addresses are Zipf-ranked
    /// into `DEVICE_IP_BASE + rank`. Capped at 2²⁴ (the 10.0.0.0/8 pool).
    pub users: u64,
    /// Zipf skew `s` of the user popularity distribution.
    pub zipf_exponent: f64,
    /// Concurrent flow lanes — the number of flows in flight at any
    /// simulated instant (and the only O(·) state the stream keeps).
    pub lanes: usize,
    /// Total flows to emit before the stream ends.
    pub total_flows: u64,
    /// Probability that a lane's next flow is an attack flow.
    pub attack_fraction: f64,
    /// Attack behaviours to interleave (uniformly chosen per attack flow).
    pub attacks: Vec<Attack>,
    /// Mean per-lane gap between a flow's last packet and the next flow's
    /// first packet (exponentially distributed).
    pub mean_flow_gap_ms: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            users: 65_536,
            zipf_exponent: 1.1,
            lanes: 64,
            total_flows: 10_000,
            attack_fraction: 0.2,
            attacks: vec![Attack::Mirai, Attack::UdpDdos, Attack::OsScan, Attack::Keylogging],
            mean_flow_gap_ms: 50.0,
        }
    }
}

impl StreamingConfig {
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_total_flows(mut self, flows: u64) -> Self {
        self.total_flows = flows;
        self
    }
}

/// One in-flight flow generator: fixed-size state, produces its flow's
/// packets one at a time with the exact per-packet model of
/// [`FlowProfile::gen_flow`] (hyper-prior jitter, IPD walk, TCP flag
/// sequencing), then rolls over to the lane's next flow.
struct Lane {
    rng: Rng,
    /// Timestamp of `pending` (the lane's next packet to emit).
    pending: Packet,
    malicious: bool,
    size: SizeModel,
    ipd: IpdModel,
    ttl: u8,
    flags: FlagsModel,
    is_tcp: bool,
    /// Index of `pending` within the current flow.
    idx: u32,
    last_idx: u32,
}

/// A seeded, non-materialised packet stream: see the module docs.
pub struct StreamingTrace {
    attack_fraction: f64,
    mean_flow_gap_ns: f64,
    profiles: Vec<(FlowProfile, f64)>,
    total_weight: f64,
    attack_profiles: Vec<FlowProfile>,
    zipf: Zipf,
    lanes: Vec<Lane>,
    /// Min-heap of `(pending timestamp, lane)` — the K-way merge front.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    flows_left: u64,
    flows_started: u64,
    packets_emitted: u64,
}

impl StreamingTrace {
    pub fn new(cfg: StreamingConfig) -> Self {
        assert!(cfg.lanes >= 1, "need at least one lane");
        assert!(!cfg.attacks.is_empty() || cfg.attack_fraction == 0.0);
        let users = cfg.users.clamp(1, 1 << 24);
        let base = Rng::seed_from_u64(cfg.seed);
        let mut s = Self {
            attack_fraction: cfg.attack_fraction,
            mean_flow_gap_ns: cfg.mean_flow_gap_ms * 1e6,
            profiles: device_mixture(),
            total_weight: 0.0,
            attack_profiles: cfg.attacks.iter().map(|a| a.profile()).collect(),
            zipf: Zipf::new(users, cfg.zipf_exponent),
            lanes: Vec::with_capacity(cfg.lanes),
            heap: BinaryHeap::with_capacity(cfg.lanes),
            flows_left: cfg.total_flows,
            flows_started: 0,
            packets_emitted: 0,
        };
        s.total_weight = s.profiles.iter().map(|(_, w)| w).sum();
        for li in 0..cfg.lanes {
            if s.flows_left == 0 {
                break;
            }
            let mut lane = Lane {
                rng: base.derive(li as u64),
                pending: zero_packet(),
                malicious: false,
                size: SizeModel { mean: 0.0, std: 0.0, min: 0, max: 0 },
                ipd: IpdModel { mean_ms: 0.0, std_ms: 0.0 },
                ttl: 64,
                flags: FlagsModel::none(),
                is_tcp: false,
                idx: 0,
                last_idx: 0,
            };
            // Stagger lane start times across one mean gap so the merge
            // front doesn't begin with `lanes` simultaneous flows.
            let start = Self::sample_gap(&mut lane.rng, s.mean_flow_gap_ns);
            s.start_flow(&mut lane, start);
            s.flows_left -= 1;
            s.flows_started += 1;
            s.heap.push(Reverse((lane.pending.ts_ns, li as u32)));
            s.lanes.push(lane);
        }
        s
    }

    /// Exponential inter-flow gap with the configured mean.
    fn sample_gap(rng: &mut Rng, mean_ns: f64) -> u64 {
        let u = rng.next_f64().clamp(f64::EPSILON, 1.0 - f64::EPSILON);
        (-(1.0 - u).ln() * mean_ns) as u64
    }

    /// Rolls `lane` onto a fresh flow whose first packet lands at
    /// `start_ns`, drawing profile, endpoints, and hyper-prior parameters
    /// from the lane's RNG — the incremental twin of
    /// [`FlowProfile::gen_flow`].
    fn start_flow(&self, lane: &mut Lane, start_ns: u64) {
        let rng = &mut lane.rng;
        let malicious = self.attack_fraction > 0.0 && rng.gen_bool(self.attack_fraction);
        let profile = if malicious {
            &self.attack_profiles[rng.gen_range(0..self.attack_profiles.len())]
        } else {
            // Weighted benign mixture choice (same walk as `gen_trace`).
            let mut pick = rng.gen_range(0.0..self.total_weight);
            let mut chosen = &self.profiles[0].0;
            for (p, w) in &self.profiles {
                if pick < *w {
                    chosen = p;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        let (src_ip, dst_ip) = if malicious {
            (
                BOT_IP_BASE + (self.zipf.sample(rng) as u32 & 0x0FFF),
                VICTIM_IP_BASE + rng.gen_range(0u32..64),
            )
        } else {
            (
                DEVICE_IP_BASE + (self.zipf.sample(rng) - 1) as u32,
                CLOUD_IP_BASE + rng.gen_range(0u32..256),
            )
        };
        // Per-flow hyper-prior jitter, identical to `gen_flow`.
        lane.size = SizeModel {
            mean: profile.size.mean * rng.gen_range(0.8..1.25),
            std: profile.size.std * rng.gen_range(0.7..1.4),
            ..profile.size
        };
        lane.ipd = IpdModel {
            mean_ms: profile.ipd.mean_ms * rng.gen_range(0.7..1.45),
            std_ms: profile.ipd.std_ms * rng.gen_range(0.7..1.4),
        };
        let n = rng.gen_range(profile.pkts.0..=profile.pkts.1).max(1);
        let src_port: u16 = rng.gen_range(32768..61000);
        let dst_port = profile.dst_port.sample(rng);
        lane.ttl = if profile.ttl_jitter == 0 {
            profile.ttl
        } else {
            let j = rng.gen_range(0..=2 * profile.ttl_jitter as i32) - profile.ttl_jitter as i32;
            (profile.ttl as i32 + j).clamp(1, 255) as u8
        };
        lane.flags = profile.flags;
        lane.is_tcp = profile.proto == PROTO_TCP;
        lane.malicious = malicious;
        lane.idx = 0;
        lane.last_idx = n - 1;
        let five = FiveTuple::new(src_ip, dst_ip, src_port, dst_port, profile.proto);
        lane.pending = Self::make_packet(lane, five, start_ns);
    }

    fn make_packet(lane: &mut Lane, five: FiveTuple, ts_ns: u64) -> Packet {
        let flags = if lane.is_tcp {
            lane.flags.flags_for(lane.idx, lane.last_idx)
        } else {
            TcpFlags::default()
        };
        Packet { ts_ns, five, wire_len: lane.size.sample(&mut lane.rng), ttl: lane.ttl, flags }
    }

    /// Emits lane `li`'s pending packet and advances it to the next one
    /// (next packet of the flow, or the lane's next flow). Returns false
    /// when the lane is exhausted (global flow budget spent).
    fn advance_lane(&mut self, li: usize) -> bool {
        // Split borrows: take the lane out of self mutably via index.
        if self.lanes[li].idx < self.lanes[li].last_idx {
            let lane = &mut self.lanes[li];
            lane.idx += 1;
            let ts = lane.pending.ts_ns + lane.ipd.sample_ns(&mut lane.rng);
            let five = lane.pending.five;
            lane.pending = Self::make_packet(lane, five, ts);
            true
        } else if self.flows_left > 0 {
            self.flows_left -= 1;
            self.flows_started += 1;
            let gap = {
                let lane = &mut self.lanes[li];
                lane.pending.ts_ns + Self::sample_gap(&mut lane.rng, self.mean_flow_gap_ns)
            };
            let mut lane = std::mem::replace(
                &mut self.lanes[li],
                Lane {
                    rng: Rng::seed_from_u64(0),
                    pending: zero_packet(),
                    malicious: false,
                    size: SizeModel { mean: 0.0, std: 0.0, min: 0, max: 0 },
                    ipd: IpdModel { mean_ms: 0.0, std_ms: 0.0 },
                    ttl: 64,
                    flags: FlagsModel::none(),
                    is_tcp: false,
                    idx: 0,
                    last_idx: 0,
                },
            );
            self.start_flow(&mut lane, gap);
            self.lanes[li] = lane;
            true
        } else {
            false
        }
    }

    /// The next `(packet, ground-truth label)` of the merged stream, or
    /// `None` when the flow budget is exhausted and every lane has
    /// drained.
    pub fn next_packet(&mut self) -> Option<(Packet, bool)> {
        let Reverse((_, li)) = self.heap.pop()?;
        let li = li as usize;
        let pkt = self.lanes[li].pending;
        let label = self.lanes[li].malicious;
        if self.advance_lane(li) {
            self.heap.push(Reverse((self.lanes[li].pending.ts_ns, li as u32)));
        }
        self.packets_emitted += 1;
        Some((pkt, label))
    }

    /// Fills `pkts`/`labels` (cleared first) with up to `max` packets from
    /// the stream; returns the count, 0 at end-of-stream. The caller owns
    /// the buffers, so a replay loop that reuses them runs allocation-free
    /// after warm-up — and the concatenation of all batches is identical
    /// at any `max`.
    pub fn fill_next(
        &mut self,
        max: usize,
        pkts: &mut Vec<Packet>,
        labels: &mut Vec<bool>,
    ) -> usize {
        pkts.clear();
        labels.clear();
        while pkts.len() < max {
            match self.next_packet() {
                Some((p, l)) => {
                    pkts.push(p);
                    labels.push(l);
                }
                None => break,
            }
        }
        pkts.len()
    }

    /// Flows whose first packet has been generated so far.
    pub fn flows_started(&self) -> u64 {
        self.flows_started
    }

    /// Packets handed out so far.
    pub fn packets_emitted(&self) -> u64 {
        self.packets_emitted
    }

    /// Drains the whole stream into an in-memory [`Trace`] — for tests
    /// and small calibration runs that need random access; defeats the
    /// purpose at scale.
    pub fn materialize(mut self) -> Trace {
        let mut t = Trace::new();
        while let Some((p, l)) = self.next_packet() {
            t.push(p, l);
        }
        t
    }
}

impl Iterator for StreamingTrace {
    type Item = (Packet, bool);

    fn next(&mut self) -> Option<(Packet, bool)> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_runtime::proptest_lite;

    fn collect_at(cfg: StreamingConfig, batch: usize) -> (Vec<Packet>, Vec<bool>) {
        let mut s = StreamingTrace::new(cfg);
        let (mut pkts, mut labels) = (Vec::new(), Vec::new());
        let (mut all_p, mut all_l) = (Vec::new(), Vec::new());
        while s.fill_next(batch, &mut pkts, &mut labels) > 0 {
            all_p.extend_from_slice(&pkts);
            all_l.extend_from_slice(&labels);
        }
        (all_p, all_l)
    }

    #[test]
    fn batch_size_invariant_and_deterministic() {
        let cfg = StreamingConfig { total_flows: 400, lanes: 16, ..Default::default() };
        let want = collect_at(cfg.clone(), 1);
        assert!(!want.0.is_empty());
        for batch in [3, 64, 1024, 1_000_000] {
            assert_eq!(collect_at(cfg.clone(), batch), want, "stream differs at batch {batch}");
        }
        // Different seed, different stream.
        assert_ne!(collect_at(cfg.with_seed(8), 64), want);
    }

    #[test]
    fn timestamps_are_nondecreasing_and_flow_budget_is_exact() {
        let cfg = StreamingConfig { total_flows: 300, lanes: 8, ..Default::default() };
        let mut s = StreamingTrace::new(cfg);
        let mut last = 0u64;
        let mut flows = std::collections::HashSet::new();
        while let Some((p, _)) = s.next_packet() {
            assert!(p.ts_ns >= last, "timestamps must be merged in order");
            last = p.ts_ns;
            flows.insert(p.five.canonical());
        }
        assert_eq!(s.flows_started(), 300);
        // 5-tuples can collide across flows (ephemeral port reuse) but the
        // distinct-key count must be in the same ballpark.
        assert!(flows.len() > 250, "got {} distinct keys", flows.len());
    }

    #[test]
    fn materialize_matches_streaming() {
        let cfg = StreamingConfig { total_flows: 120, lanes: 4, ..Default::default() };
        let t = StreamingTrace::new(cfg.clone()).materialize();
        let (pkts, labels) = collect_at(cfg, 17);
        assert_eq!(t.packets, pkts);
        assert_eq!(t.labels, labels);
    }

    #[test]
    fn attack_fraction_is_respected() {
        let cfg =
            StreamingConfig { total_flows: 2_000, attack_fraction: 0.3, ..Default::default() };
        let t = StreamingTrace::new(cfg).materialize();
        let frac = t.malicious_fraction();
        // Packet-level fraction differs from the 0.3 flow-level fraction
        // (attack flows have their own length distribution) but must be
        // clearly present and clearly minority.
        assert!(frac > 0.05 && frac < 0.8, "malicious packet fraction {frac}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 1.2);
        let mut rng = Rng::seed_from_u64(11);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            let k = z.sample(&mut rng);
            assert!((1..=10_000).contains(&k));
            if k <= 10 {
                head += 1;
            }
        }
        // With s=1.2, the top-10 ranks carry well over a third of the mass;
        // uniform would give 0.1 %.
        assert!(head as f64 / N as f64 > 0.3, "head mass {}", head as f64 / N as f64);
    }

    proptest_lite! {
        /// Any exponent/population: samples stay in range, and the rank-1
        /// frequency dominates the deep tail.
        fn zipf_sampler_sane(rng, cases = 12) {
            let n = rng.gen_range(2u64..1_000_000);
            let s = rng.gen_range(0.0f64..2.5);
            let z = Zipf::new(n, s);
            for _ in 0..200 {
                let k = z.sample(rng);
                assert!((1..=n).contains(&k), "rank {k} outside 1..={n}");
            }
        }

        /// The stream is identical however many lanes' worth of packets
        /// each read grabs, across random configs.
        fn stream_batch_invariance(rng, cases = 6) {
            let cfg = StreamingConfig {
                seed: rng.next_u64(),
                users: rng.gen_range(10u64..5_000),
                zipf_exponent: rng.gen_range(0.5f64..1.5),
                lanes: rng.gen_range(1usize..24),
                total_flows: rng.gen_range(1u64..300),
                attack_fraction: rng.gen_range(0.0f64..0.5),
                ..Default::default()
            };
            let a = collect_at(cfg.clone(), 1);
            let b = collect_at(cfg.clone(), rng.gen_range(2usize..500));
            assert_eq!(a, b);
        }
    }
}
