//! The 15 attack generators of the paper's evaluation.
//!
//! Ten "direct" attacks (IoT-malware propagation, DDoS floods, scans,
//! exfiltration) plus five "router" variants — the same behaviours observed
//! through an aggregating home-router/NAT, which collapses source addresses
//! and adds queueing jitter, making the traffic look *more* like benign
//! aggregate traffic (these are the attacks conventional iForest does worst
//! on in the paper).
//!
//! Attack profiles are tuned so that every marginal feature lies inside the
//! benign mixture's range while the *joint* structure (e.g. the tight
//! size/IPD variance of flood tools, or the too-regular cadence of
//! keylogger beacons) is off the benign manifold — reproducing the overlap
//! regime of paper Fig. 2/7.

use iguard_runtime::rng::Rng;

use iguard_flow::five_tuple::{PROTO_ICMP, PROTO_TCP, PROTO_UDP};

use crate::profile::{
    gen_trace, FlagsModel, FlowProfile, IpdModel, PortModel, ScenarioConfig, SizeModel,
};
use crate::trace::Trace;

/// 172.16.0.0/16: compromised-device sources.
pub const BOT_IP_BASE: u32 = 0xAC10_0000;
/// 192.168.1.1: the home router every "router" variant NATs through.
pub const ROUTER_IP: u32 = 0xC0A8_0101;
/// 198.51.100.0/24: victim pool.
pub const VICTIM_IP_BASE: u32 = 0xC633_6400;

/// The 15 attacks of the paper's evaluation (Figs. 2, 5–9; Tables 2–3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Attack {
    Mirai,
    Aidra,
    Bashlite,
    UdpDdos,
    TcpDdos,
    HttpDdos,
    OsScan,
    ServiceScan,
    DataTheft,
    Keylogging,
    MiraiRouterFilter,
    OsScanRouter,
    PortScanRouter,
    TcpDdosRouter,
    UdpDdosRouter,
}

/// All 15 attacks in the paper's reporting order (Fig. 2 first, then the
/// appendix attacks).
pub const ALL_ATTACKS: [Attack; 15] = [
    Attack::Aidra,
    Attack::Mirai,
    Attack::Bashlite,
    Attack::UdpDdos,
    Attack::OsScan,
    Attack::HttpDdos,
    Attack::DataTheft,
    Attack::Keylogging,
    Attack::ServiceScan,
    Attack::TcpDdos,
    Attack::MiraiRouterFilter,
    Attack::OsScanRouter,
    Attack::PortScanRouter,
    Attack::TcpDdosRouter,
    Attack::UdpDdosRouter,
];

impl Attack {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::Mirai => "Mirai",
            Attack::Aidra => "Aidra",
            Attack::Bashlite => "Bashlite",
            Attack::UdpDdos => "UDP DDoS",
            Attack::TcpDdos => "TCP DDoS",
            Attack::HttpDdos => "HTTP DDoS",
            Attack::OsScan => "OS scan",
            Attack::ServiceScan => "Service scan",
            Attack::DataTheft => "Data theft",
            Attack::Keylogging => "Keylogging",
            Attack::MiraiRouterFilter => "Mirai router filter",
            Attack::OsScanRouter => "OS scan router",
            Attack::PortScanRouter => "Port scan router",
            Attack::TcpDdosRouter => "TCP DDoS router",
            Attack::UdpDdosRouter => "UDP DDoS router",
        }
    }

    /// Whether this is a router (NAT-aggregated) variant.
    pub fn is_router_variant(&self) -> bool {
        matches!(
            self,
            Attack::MiraiRouterFilter
                | Attack::OsScanRouter
                | Attack::PortScanRouter
                | Attack::TcpDdosRouter
                | Attack::UdpDdosRouter
        )
    }

    /// The behavioural profile of this attack.
    ///
    /// A router variant is its direct attack seen through the NAT: the
    /// router hop decrements TTL and its queueing widens IPD jitter,
    /// blending the flows further into benign aggregate traffic.
    pub fn profile(&self) -> FlowProfile {
        let mut profile = match self {
            // Mirai: telnet credential scanning — tiny SYN probes to
            // 23/2323, metronome-regular retry cadence.
            Attack::Mirai | Attack::MiraiRouterFilter => FlowProfile {
                name: "mirai",
                proto: PROTO_TCP,
                dst_port: PortModel::Choice(vec![23, 2323]),
                size: SizeModel { mean: 78.0, std: 12.0, min: 60, max: 130 },
                ipd: IpdModel { mean_ms: 95.0, std_ms: 40.0 },
                pkts: (3, 7),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::syn_probe(),
            },
            // Aidra: IRC-era botnet scanning, similar to Mirai but slower
            // and chattier.
            Attack::Aidra => FlowProfile {
                name: "aidra",
                proto: PROTO_TCP,
                dst_port: PortModel::Fixed(23),
                size: SizeModel { mean: 92.0, std: 18.0, min: 60, max: 160 },
                ipd: IpdModel { mean_ms: 150.0, std_ms: 60.0 },
                pkts: (4, 10),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::syn_probe(),
            },
            // Bashlite/Gafgyt: scan + small-payload UDP flood blend.
            Attack::Bashlite => FlowProfile {
                name: "bashlite",
                proto: PROTO_UDP,
                dst_port: PortModel::Choice(vec![23, 80, 8080]),
                size: SizeModel { mean: 128.0, std: 24.0, min: 80, max: 220 },
                ipd: IpdModel { mean_ms: 42.0, std_ms: 16.0 },
                pkts: (6, 18),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::none(),
            },
            // Volumetric UDP flood: mid-size packets at kHz rate with
            // machine-tight variance.
            Attack::UdpDdos | Attack::UdpDdosRouter => FlowProfile {
                name: "udp_ddos",
                proto: PROTO_UDP,
                dst_port: PortModel::Fixed(53),
                size: SizeModel { mean: 512.0, std: 80.0, min: 300, max: 760 },
                ipd: IpdModel { mean_ms: 2.5, std_ms: 1.0 },
                pkts: (48, 160),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::none(),
            },
            // SYN flood: minimum-size SYNs at kHz rate.
            Attack::TcpDdos | Attack::TcpDdosRouter => FlowProfile {
                name: "tcp_ddos",
                proto: PROTO_TCP,
                dst_port: PortModel::Fixed(80),
                size: SizeModel { mean: 64.0, std: 6.0, min: 54, max: 90 },
                ipd: IpdModel { mean_ms: 2.0, std_ms: 0.8 },
                pkts: (32, 128),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::syn_probe(),
            },
            // HTTP GET flood: request-size packets at a rate no browser
            // sustains.
            Attack::HttpDdos => FlowProfile {
                name: "http_ddos",
                proto: PROTO_TCP,
                dst_port: PortModel::Fixed(80),
                size: SizeModel { mean: 340.0, std: 90.0, min: 200, max: 620 },
                ipd: IpdModel { mean_ms: 16.0, std_ms: 7.0 },
                pkts: (16, 64),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::conversation(),
            },
            // OS fingerprint scan: lone probes with fingerprinting TTLs.
            Attack::OsScan | Attack::OsScanRouter => FlowProfile {
                name: "os_scan",
                proto: PROTO_ICMP,
                dst_port: PortModel::Fixed(0),
                size: SizeModel { mean: 78.0, std: 10.0, min: 60, max: 120 },
                ipd: IpdModel { mean_ms: 60.0, std_ms: 8.0 },
                pkts: (1, 3),
                ttl: 255,
                ttl_jitter: 1,
                flags: FlagsModel::none(),
            },
            // Service discovery: SYNs across the well-known port range.
            Attack::ServiceScan => FlowProfile {
                name: "service_scan",
                proto: PROTO_TCP,
                dst_port: PortModel::Range(1, 1024),
                size: SizeModel { mean: 62.0, std: 4.0, min: 54, max: 80 },
                ipd: IpdModel { mean_ms: 25.0, std_ms: 3.0 },
                pkts: (1, 2),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::syn_probe(),
            },
            // Port sweep through the router: like service scan but across
            // ephemeral ports too.
            Attack::PortScanRouter => FlowProfile {
                name: "port_scan",
                proto: PROTO_TCP,
                dst_port: PortModel::Range(1, 16384),
                size: SizeModel { mean: 60.0, std: 3.0, min: 54, max: 74 },
                ipd: IpdModel { mean_ms: 18.0, std_ms: 2.2 },
                pkts: (1, 2),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::syn_probe(),
            },
            // Bulk exfiltration: looks like cloud sync but sustained,
            // unidirectional, and variance-tight.
            Attack::DataTheft => FlowProfile {
                name: "data_theft",
                proto: PROTO_TCP,
                dst_port: PortModel::Fixed(443),
                size: SizeModel { mean: 1150.0, std: 150.0, min: 800, max: 1420 },
                ipd: IpdModel { mean_ms: 14.0, std_ms: 7.0 },
                pkts: (64, 200),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::conversation(),
            },
            // Keylogger beacons: keep-alive-sized packets on a cadence far
            // too regular for a human-facing device.
            Attack::Keylogging => FlowProfile {
                name: "keylogging",
                proto: PROTO_TCP,
                dst_port: PortModel::Fixed(443),
                size: SizeModel { mean: 84.0, std: 10.0, min: 64, max: 120 },
                ipd: IpdModel { mean_ms: 920.0, std_ms: 150.0 },
                pkts: (4, 12),
                ttl: 64,
                ttl_jitter: 0,
                flags: FlagsModel::conversation(),
            },
        };
        if self.is_router_variant() {
            profile.ttl = profile.ttl.saturating_sub(1).max(1);
            profile.ipd.std_ms *= 2.5;
        }
        profile
    }

    /// Generates an attack trace of `flows` flows over `window_secs`.
    ///
    /// Router variants source all traffic from [`ROUTER_IP`] (the NAT
    /// collapses devices into one address); their TTL and IPD adjustment
    /// lives in [`Self::profile`].
    pub fn trace(&self, flows: usize, window_secs: f64, rng: &mut Rng) -> Trace {
        let scenario = if self.is_router_variant() {
            ScenarioConfig {
                flows,
                window_secs,
                src_base: ROUTER_IP,
                src_count: 1,
                dst_base: VICTIM_IP_BASE,
                dst_count: 64,
            }
        } else {
            ScenarioConfig {
                flows,
                window_secs,
                src_base: BOT_IP_BASE,
                src_count: 128,
                dst_base: VICTIM_IP_BASE,
                dst_count: 64,
            }
        };
        gen_trace(&[(self.profile(), 1.0)], &scenario, true, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign;
    use crate::trace::{extract_flows, ExtractConfig};
    use iguard_runtime::rng::Rng;

    #[test]
    fn all_attacks_generate_labelled_traffic() {
        let mut rng = Rng::seed_from_u64(1);
        for attack in ALL_ATTACKS {
            let t = attack.trace(20, 2.0, &mut rng);
            assert!(!t.is_empty(), "{:?} produced no packets", attack);
            assert!(t.labels.iter().all(|&l| l), "{:?} mislabelled", attack);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL_ATTACKS.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn router_variants_share_source_ip() {
        let mut rng = Rng::seed_from_u64(2);
        let t = Attack::UdpDdosRouter.trace(10, 1.0, &mut rng);
        assert!(t.packets.iter().all(|p| p.five.src_ip == ROUTER_IP));
    }

    #[test]
    fn direct_attacks_use_bot_pool() {
        let mut rng = Rng::seed_from_u64(3);
        let t = Attack::Mirai.trace(10, 1.0, &mut rng);
        assert!(t
            .packets
            .iter()
            .all(|p| (BOT_IP_BASE..BOT_IP_BASE + 128).contains(&p.five.src_ip)));
    }

    /// Attack marginals must fall inside benign marginal ranges — the
    /// Fig. 2 overlap premise. Checked on mean packet size.
    #[test]
    fn attack_mean_sizes_inside_benign_range() {
        let mut rng = Rng::seed_from_u64(4);
        let benign = benign::benign_trace(400, 10.0, &mut rng);
        let bf = extract_flows(&benign, &ExtractConfig::default());
        let b_sizes: Vec<f32> = bf.features.column(2).collect();
        let (b_lo, b_hi) = (
            b_sizes.iter().cloned().fold(f32::INFINITY, f32::min),
            b_sizes.iter().cloned().fold(0.0f32, f32::max),
        );
        for attack in ALL_ATTACKS {
            let t = attack.trace(40, 5.0, &mut rng);
            let af = extract_flows(&t, &ExtractConfig::default());
            let mean: f32 = af.features.column(2).sum::<f32>() / af.features.rows() as f32;
            assert!(
                mean >= b_lo && mean <= b_hi,
                "{}: mean size {mean} outside benign [{b_lo}, {b_hi}]",
                attack.name()
            );
        }
    }

    #[test]
    fn flood_attacks_have_tighter_ipd_variance_than_benign() {
        let mut rng = Rng::seed_from_u64(5);
        let cfg = ExtractConfig::default();
        let benign = extract_flows(&benign::benign_trace(300, 10.0, &mut rng), &cfg);
        let attack = extract_flows(&Attack::UdpDdos.trace(50, 5.0, &mut rng), &cfg);
        // Feature 10 = std IPD. Flood tooling is machine-regular.
        let mean_std = |fs: &iguard_runtime::Dataset| fs.column(10).sum::<f32>() / fs.rows() as f32;
        assert!(mean_std(&attack.features) < mean_std(&benign.features));
    }
}
