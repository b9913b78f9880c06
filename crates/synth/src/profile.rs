//! Parametric flow profiles — the shared machinery behind the benign and
//! attack generators.
//!
//! A [`FlowProfile`] describes one behaviour (an IoT device habit or an
//! attack tool) as distributions over packet size, inter-packet delay, flow
//! length, ports, TTL and TCP flags. Generators sample concrete flows from
//! profiles; all randomness flows through the caller's RNG.

use iguard_runtime::rng::Rng;

use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};

use crate::trace::Trace;

/// Truncated-normal packet size model (bytes on the wire).
#[derive(Clone, Copy, Debug)]
pub struct SizeModel {
    pub mean: f64,
    pub std: f64,
    pub min: u16,
    pub max: u16,
}

impl SizeModel {
    pub fn sample(&self, rng: &mut Rng) -> u16 {
        let v = gauss(rng, self.mean, self.std);
        (v.round() as i64).clamp(self.min as i64, self.max as i64) as u16
    }
}

/// Truncated-normal inter-packet delay model (milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct IpdModel {
    pub mean_ms: f64,
    pub std_ms: f64,
}

impl IpdModel {
    /// Samples an IPD in nanoseconds, floored at 10 µs.
    pub fn sample_ns(&self, rng: &mut Rng) -> u64 {
        let ms = gauss(rng, self.mean_ms, self.std_ms).max(0.01);
        (ms * 1e6) as u64
    }
}

/// Destination-port selection.
#[derive(Clone, Debug)]
pub enum PortModel {
    /// Always the same port.
    Fixed(u16),
    /// Uniform choice from a set (e.g. telnet 23/2323).
    Choice(Vec<u16>),
    /// Uniform in an inclusive range (port sweeps).
    Range(u16, u16),
}

impl PortModel {
    pub fn sample(&self, rng: &mut Rng) -> u16 {
        match self {
            PortModel::Fixed(p) => *p,
            PortModel::Choice(ps) => ps[rng.gen_range(0..ps.len())],
            PortModel::Range(lo, hi) => rng.gen_range(*lo..=*hi),
        }
    }
}

/// TCP flag sequencing over a flow's packets.
#[derive(Clone, Copy, Debug)]
pub struct FlagsModel {
    /// First packet carries SYN.
    pub syn_first: bool,
    /// Every packet carries SYN (SYN flood / scans).
    pub syn_all: bool,
    /// Non-first packets carry ACK.
    pub ack_rest: bool,
    /// Last packet carries FIN.
    pub fin_last: bool,
}

impl FlagsModel {
    /// A normal TCP conversation: SYN, then ACKs, FIN at the end.
    pub fn conversation() -> Self {
        Self { syn_first: true, syn_all: false, ack_rest: true, fin_last: true }
    }

    /// Pure SYN probes (scans, SYN floods).
    pub fn syn_probe() -> Self {
        Self { syn_first: true, syn_all: true, ack_rest: false, fin_last: false }
    }

    /// No flags (UDP/ICMP).
    pub fn none() -> Self {
        Self { syn_first: false, syn_all: false, ack_rest: false, fin_last: false }
    }

    fn flags_for(&self, idx: u32, last_idx: u32) -> TcpFlags {
        let mut f = TcpFlags::default();
        if self.syn_all || (self.syn_first && idx == 0) {
            f.syn = true;
        }
        if self.ack_rest && idx > 0 {
            f.ack = true;
        }
        if self.fin_last && idx == last_idx && last_idx > 0 {
            f.fin = true;
        }
        f
    }
}

/// A complete behavioural profile.
#[derive(Clone, Debug)]
pub struct FlowProfile {
    pub name: &'static str,
    pub proto: u8,
    pub dst_port: PortModel,
    pub size: SizeModel,
    pub ipd: IpdModel,
    /// Inclusive range of packets per flow.
    pub pkts: (u32, u32),
    pub ttl: u8,
    /// Uniform ±jitter applied to TTL per flow.
    pub ttl_jitter: u8,
    pub flags: FlagsModel,
}

impl FlowProfile {
    /// Generates one flow's packets starting at `start_ns`: a
    /// [`FlowCursor`] collected.
    pub fn gen_flow(&self, rng: &mut Rng, src_ip: u32, dst_ip: u32, start_ns: u64) -> Vec<Packet> {
        let mut cursor = FlowCursor::start(self, rng, src_ip, dst_ip, start_ns);
        let mut out = Vec::with_capacity(cursor.len as usize);
        while let Some(p) = cursor.next_packet(rng) {
            out.push(p);
        }
        out
    }
}

/// One flow being sampled from a [`FlowProfile`], a packet at a time.
///
/// This is the single definition of the per-flow model: [`Self::start`]
/// draws the flow's hyper-prior size/IPD jitter, length, ports and TTL,
/// and [`Self::next_packet`] walks its packets (IPD, then size). Both
/// [`FlowProfile::gen_flow`] and the streaming lanes
/// ([`crate::streaming`]) drive it, so they draw in the same order from
/// the same RNG. Fixed-size and allocation-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowCursor {
    five: FiveTuple,
    size: SizeModel,
    ipd: IpdModel,
    ttl: u8,
    /// TCP flag sequencing; `None` for flag-less protocols.
    flags: Option<FlagsModel>,
    /// Timestamp of the last packet emitted (the flow start before any).
    ts_ns: u64,
    /// Packets emitted so far.
    idx: u32,
    /// Packets in the flow (≥ 1).
    len: u32,
}

impl FlowCursor {
    /// Draws one flow of `profile` from `src_ip` to `dst_ip` whose first
    /// packet lands at `start_ns`. Each flow draws its own size/IPD
    /// parameters from a hyper-prior around the profile (devices of the
    /// same kind differ in firmware, link quality and workload), which
    /// makes the benign manifold heavy-tailed — the regime in which
    /// density-based detectors like iForest produce benign false positives
    /// while reconstruction models still fit the structure (paper §3.1's
    /// premise).
    pub(crate) fn start(
        profile: &FlowProfile,
        rng: &mut Rng,
        src_ip: u32,
        dst_ip: u32,
        start_ns: u64,
    ) -> Self {
        let size = SizeModel {
            mean: profile.size.mean * rng.gen_range(0.8..1.25),
            std: profile.size.std * rng.gen_range(0.7..1.4),
            ..profile.size
        };
        let ipd = IpdModel {
            mean_ms: profile.ipd.mean_ms * rng.gen_range(0.7..1.45),
            std_ms: profile.ipd.std_ms * rng.gen_range(0.7..1.4),
        };
        let len = rng.gen_range(profile.pkts.0..=profile.pkts.1).max(1);
        let src_port: u16 = rng.gen_range(32768..61000);
        let dst_port = profile.dst_port.sample(rng);
        let ttl = if profile.ttl_jitter == 0 {
            profile.ttl
        } else {
            let j = rng.gen_range(0..=2 * profile.ttl_jitter as i32) - profile.ttl_jitter as i32;
            (profile.ttl as i32 + j).clamp(1, 255) as u8
        };
        Self {
            five: FiveTuple::new(src_ip, dst_ip, src_port, dst_port, profile.proto),
            size,
            ipd,
            ttl,
            flags: (profile.proto == PROTO_TCP).then_some(profile.flags),
            ts_ns: start_ns,
            idx: 0,
            len,
        }
    }

    /// The flow's next packet, or `None` once all of it has been emitted
    /// (no RNG draw then).
    #[inline]
    pub(crate) fn next_packet(&mut self, rng: &mut Rng) -> Option<Packet> {
        if self.idx == self.len {
            return None;
        }
        if self.idx > 0 {
            self.ts_ns += self.ipd.sample_ns(rng);
        }
        let flags =
            self.flags.map_or_else(TcpFlags::default, |f| f.flags_for(self.idx, self.len - 1));
        self.idx += 1;
        Some(Packet {
            ts_ns: self.ts_ns,
            five: self.five,
            wire_len: self.size.sample(rng),
            ttl: self.ttl,
            flags,
        })
    }
}

/// Draws one profile from a weighted mixture whose weights sum to
/// `total_weight` — one uniform draw, walked against the weights in order.
pub(crate) fn pick_weighted<'a>(
    profiles: &'a [(FlowProfile, f64)],
    total_weight: f64,
    rng: &mut Rng,
) -> &'a FlowProfile {
    let mut pick = rng.gen_range(0.0..total_weight);
    for (p, w) in profiles {
        if pick < *w {
            return p;
        }
        pick -= w;
    }
    &profiles[0].0
}

/// IP address pools and flow scheduling for a scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Number of flows to generate.
    pub flows: usize,
    /// Flow start times are uniform over `[0, window_secs]`.
    pub window_secs: f64,
    /// Source IPs: `src_base .. src_base + src_count`.
    pub src_base: u32,
    pub src_count: u32,
    /// Destination IPs: `dst_base .. dst_base + dst_count`.
    pub dst_base: u32,
    pub dst_count: u32,
}

/// Generates a trace by sampling `flows` flows from a weighted profile
/// mixture; every packet is labelled `malicious`. Each flow's
/// [`FlowCursor`] writes straight into the one packet buffer, which
/// [`Trace::sort_by_time`] then puts in time order.
pub fn gen_trace(
    profiles: &[(FlowProfile, f64)],
    scenario: &ScenarioConfig,
    malicious: bool,
    rng: &mut Rng,
) -> Trace {
    assert!(!profiles.is_empty(), "need at least one profile");
    let total_w: f64 = profiles.iter().map(|(_, w)| w).sum();
    assert!(total_w > 0.0, "profile weights must sum > 0");
    let window_ns = (scenario.window_secs * 1e9) as u64;
    let mut t = Trace::new();
    for _ in 0..scenario.flows {
        let chosen = pick_weighted(profiles, total_w, rng);
        let src = scenario.src_base + rng.gen_range(0..scenario.src_count.max(1));
        let dst = scenario.dst_base + rng.gen_range(0..scenario.dst_count.max(1));
        let start = if window_ns > 0 { rng.gen_range(0..window_ns) } else { 0 };
        let mut cursor = FlowCursor::start(chosen, rng, src, dst, start);
        while let Some(p) = cursor.next_packet(rng) {
            t.packets.push(p);
        }
    }
    t.labels = vec![malicious; t.packets.len()];
    t.sort_by_time();
    t
}

/// Box–Muller Gaussian sample.
pub fn gauss(rng: &mut Rng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_runtime::rng::Rng;

    fn profile() -> FlowProfile {
        FlowProfile {
            name: "test",
            proto: PROTO_TCP,
            dst_port: PortModel::Fixed(80),
            size: SizeModel { mean: 100.0, std: 10.0, min: 60, max: 200 },
            ipd: IpdModel { mean_ms: 10.0, std_ms: 2.0 },
            pkts: (5, 5),
            ttl: 64,
            ttl_jitter: 0,
            flags: FlagsModel::conversation(),
        }
    }

    #[test]
    fn flow_has_requested_length_and_ordering() {
        let mut rng = Rng::seed_from_u64(1);
        let pkts = profile().gen_flow(&mut rng, 1, 2, 1000);
        assert_eq!(pkts.len(), 5);
        assert_eq!(pkts[0].ts_ns, 1000);
        assert!(pkts.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // All packets share the 5-tuple.
        assert!(pkts.iter().all(|p| p.five == pkts[0].five));
    }

    #[test]
    fn conversation_flags_sequence() {
        let mut rng = Rng::seed_from_u64(2);
        let pkts = profile().gen_flow(&mut rng, 1, 2, 0);
        assert!(pkts[0].flags.syn && !pkts[0].flags.ack);
        assert!(pkts[1].flags.ack && !pkts[1].flags.syn);
        assert!(pkts[4].flags.fin);
    }

    #[test]
    fn syn_probe_sets_syn_on_all() {
        let mut p = profile();
        p.flags = FlagsModel::syn_probe();
        let mut rng = Rng::seed_from_u64(3);
        let pkts = p.gen_flow(&mut rng, 1, 2, 0);
        assert!(pkts.iter().all(|pk| pk.flags.syn));
    }

    #[test]
    fn udp_flow_carries_no_flags() {
        let mut p = profile();
        p.proto = PROTO_UDP;
        let mut rng = Rng::seed_from_u64(4);
        let pkts = p.gen_flow(&mut rng, 1, 2, 0);
        assert!(pkts.iter().all(|pk| pk.flags == TcpFlags::default()));
    }

    #[test]
    fn sizes_respect_clamps() {
        let m = SizeModel { mean: 100.0, std: 500.0, min: 60, max: 150 };
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((60..=150).contains(&s));
        }
    }

    #[test]
    fn gauss_statistics() {
        let mut rng = Rng::seed_from_u64(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gauss(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn gen_trace_schedules_within_window() {
        let mut rng = Rng::seed_from_u64(7);
        let sc = ScenarioConfig {
            flows: 50,
            window_secs: 1.0,
            src_base: 10,
            src_count: 5,
            dst_base: 100,
            dst_count: 3,
        };
        let t = gen_trace(&[(profile(), 1.0)], &sc, true, &mut rng);
        assert!(t.len() >= 250);
        assert!(t.labels.iter().all(|&l| l));
        assert!(t.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Start times within ~window + flow duration slack.
        assert!(t.packets[0].ts_ns < 1_000_000_000);
    }

    #[test]
    fn ttl_jitter_bounded() {
        let mut p = profile();
        p.ttl_jitter = 3;
        let mut rng = Rng::seed_from_u64(8);
        for _ in 0..100 {
            let pkts = p.gen_flow(&mut rng, 1, 2, 0);
            assert!((61..=67).contains(&pkts[0].ttl));
        }
    }
}
