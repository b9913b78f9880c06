//! Trace assembly and flow-level dataset extraction.
//!
//! A [`Trace`] is a timestamp-ordered packet sequence with per-packet
//! ground-truth labels (`true` = malicious). [`extract_flows`] converts a
//! trace into labelled flow feature vectors the way the deployment would:
//! features are accumulated per (bidirectional) flow and a sample is frozen
//! at the packet-count threshold `n` or after an idle gap `δ` — the
//! truncation the switch imposes (paper §3.3.1), applied consistently to
//! training and evaluation.

use std::collections::HashMap;

use iguard_runtime::Dataset;

use iguard_flow::features::{flow_features, FeatureSet};
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::stats::FlowStats;

/// A labelled packet trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Packets in timestamp order.
    pub packets: Vec<Packet>,
    /// Ground truth per packet: `true` = belongs to a malicious flow.
    pub labels: Vec<bool>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Appends a packet with its ground-truth label.
    pub fn push(&mut self, p: Packet, malicious: bool) {
        self.packets.push(p);
        self.labels.push(malicious);
    }

    /// Merges traces into one, sorted by timestamp (stable for ties).
    pub fn merge(traces: Vec<Trace>) -> Trace {
        let mut zipped: Vec<(Packet, bool)> =
            traces.into_iter().flat_map(|t| t.packets.into_iter().zip(t.labels)).collect();
        zipped.sort_by_key(|(p, _)| p.ts_ns);
        let mut out = Trace::new();
        for (p, l) in zipped {
            out.push(p, l);
        }
        out
    }

    /// Span of the trace in seconds: newest minus oldest packet
    /// timestamp, so a trace kept in file order (e.g. from pcap) that is
    /// not sorted still reads a non-negative span.
    pub fn duration_secs(&self) -> f64 {
        let (lo, hi) = self
            .packets
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), p| (lo.min(p.ts_ns), hi.max(p.ts_ns)));
        hi.saturating_sub(lo) as f64 / 1e9
    }

    /// Total wire bytes.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.wire_len as u64).sum()
    }

    /// Shifts all timestamps by `offset_ns` (used to interleave scenarios).
    pub fn shift_time(&mut self, offset_ns: u64) {
        for p in &mut self.packets {
            p.ts_ns += offset_ns;
        }
    }

    /// Fraction of packets labelled malicious.
    pub fn malicious_fraction(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l).count() as f64 / self.labels.len() as f64
    }
}

/// Flow-level dataset: one feature row + label per flow segment.
#[derive(Clone, Debug, Default)]
pub struct LabeledFlows {
    pub features: Dataset,
    pub labels: Vec<bool>,
}

impl LabeledFlows {
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Appends another dataset.
    pub fn extend(&mut self, other: LabeledFlows) {
        self.features.extend_rows(&other.features);
        self.labels.extend(other.labels);
    }

    /// Only the benign feature rows (for fitting scalers / teachers).
    pub fn benign_features(&self) -> Dataset {
        let idx: Vec<usize> = (0..self.len()).filter(|&i| !self.labels[i]).collect();
        self.features.select_rows(&idx)
    }

    /// Keeps a random-free, deterministic subset: every k-th sample of the
    /// malicious class until the malicious fraction is at most `frac`.
    /// Mirrors the paper's "20 % attack traffic added" mixing when a
    /// generator produced more attack flows than needed.
    pub fn cap_malicious_fraction(&mut self, frac: f64) {
        let benign = self.labels.iter().filter(|&&l| !l).count();
        let target_mal = ((benign as f64) * frac / (1.0 - frac)).floor() as usize;
        let mut kept_mal = 0usize;
        let mut keep = Vec::with_capacity(self.len());
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, &l) in self.labels.iter().enumerate() {
            if l {
                if kept_mal >= target_mal {
                    continue;
                }
                kept_mal += 1;
            }
            keep.push(i);
            labels.push(l);
        }
        self.features = self.features.select_rows(&keep);
        self.labels = labels;
    }
}

/// Flow extraction parameters — the `n` / `δ` truncation of §3.3.1.
#[derive(Clone, Copy, Debug)]
pub struct ExtractConfig {
    /// Packet-count threshold `n`: freeze the sample at the n-th packet.
    pub pkt_threshold: u64,
    /// Idle timeout `δ` (ns): freeze when a flow pauses longer than this.
    pub timeout_ns: u64,
    pub feature_set: FeatureSet,
    /// Apply the monotone log-compression of
    /// [`iguard_flow::features::log_compress`] to every emitted feature
    /// vector (what the model-facing pipelines use).
    pub log_compress: bool,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        Self {
            pkt_threshold: 8,
            timeout_ns: 2_000_000_000,
            feature_set: FeatureSet::SwitchFl,
            log_compress: false,
        }
    }
}

/// Extracts labelled flow samples from a trace (exact tracking — this is
/// the control-plane training path of Fig. 1, which has no hash
/// collisions). Residual flows still open at trace end are flushed.
pub fn extract_flows(trace: &Trace, cfg: &ExtractConfig) -> LabeledFlows {
    struct Open {
        stats: FlowStats,
        malicious: bool,
    }
    let mut open: HashMap<FiveTuple, Open> = HashMap::new();
    let mut out = LabeledFlows::default();
    let freeze = |o: &Open, out: &mut LabeledFlows| {
        let mut f = flow_features(cfg.feature_set, &o.stats);
        if cfg.log_compress {
            iguard_flow::features::log_compress_vec(&mut f);
        }
        out.features.push_row(&f);
        out.labels.push(o.malicious);
    };
    for (p, &mal) in trace.packets.iter().zip(&trace.labels) {
        let key = p.five.canonical();
        match open.get_mut(&key) {
            Some(o) => {
                if o.stats.timed_out(p.ts_ns, cfg.timeout_ns) {
                    freeze(o, &mut out);
                    *o = Open { stats: FlowStats::from_first_packet(p), malicious: mal };
                } else {
                    o.stats.update(p);
                    o.malicious |= mal;
                    if o.stats.pkt_count >= cfg.pkt_threshold {
                        freeze(o, &mut out);
                        open.remove(&key);
                    }
                }
            }
            None => {
                let o = Open { stats: FlowStats::from_first_packet(p), malicious: mal };
                if cfg.pkt_threshold <= 1 {
                    freeze(&o, &mut out);
                } else {
                    open.insert(key, o);
                }
            }
        }
    }
    // Flush residual flows in deterministic order.
    let mut rest: Vec<(FiveTuple, Open)> = open.into_iter().collect();
    rest.sort_by_key(|(k, _)| *k);
    for (_, o) in rest {
        freeze(&o, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_flow::packet::TcpFlags;

    fn pkt(flow: u16, ts_ms: u64, len: u16) -> Packet {
        Packet {
            ts_ns: ts_ms * 1_000_000,
            five: FiveTuple::new(0x0A000001, 0xC0A80101, 20_000 + flow, 53, PROTO_UDP),
            wire_len: len,
            ttl: 64,
            flags: TcpFlags::default(),
        }
    }

    #[test]
    fn merge_sorts_by_timestamp() {
        let mut a = Trace::new();
        a.push(pkt(1, 10, 100), false);
        a.push(pkt(1, 30, 100), false);
        let mut b = Trace::new();
        b.push(pkt(2, 20, 100), true);
        let m = Trace::merge(vec![a, b]);
        let ts: Vec<u64> = m.packets.iter().map(|p| p.ts_ns).collect();
        assert_eq!(ts, vec![10_000_000, 20_000_000, 30_000_000]);
        assert_eq!(m.labels, vec![false, true, false]);
    }

    #[test]
    fn extraction_freezes_at_threshold() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.push(pkt(1, i * 10, 100), false);
        }
        let cfg = ExtractConfig { pkt_threshold: 3, ..Default::default() };
        let flows = extract_flows(&t, &cfg);
        // 5 packets: one frozen sample at pkt 3, residual (pkts 4-5) flushed.
        assert_eq!(flows.len(), 2);
        assert_eq!(flows.features[(0, 0)], 3.0); // pkt_count of first sample
        assert_eq!(flows.features[(1, 0)], 2.0);
    }

    #[test]
    fn extraction_splits_on_timeout() {
        let mut t = Trace::new();
        t.push(pkt(1, 0, 100), false);
        t.push(pkt(1, 10_000, 100), false); // 10 s gap > 2 s timeout
        let cfg = ExtractConfig { pkt_threshold: 100, ..Default::default() };
        let flows = extract_flows(&t, &cfg);
        assert_eq!(flows.len(), 2);
        assert!(flows.features.iter_rows().all(|f| f[0] == 1.0));
    }

    #[test]
    fn label_is_sticky_per_segment() {
        let mut t = Trace::new();
        t.push(pkt(1, 0, 100), false);
        t.push(pkt(1, 10, 100), true); // one malicious packet taints segment
        t.push(pkt(1, 20, 100), false);
        let cfg = ExtractConfig { pkt_threshold: 3, ..Default::default() };
        let flows = extract_flows(&t, &cfg);
        assert_eq!(flows.len(), 1);
        assert!(flows.labels[0]);
    }

    #[test]
    fn cap_malicious_fraction_caps() {
        let mut d = LabeledFlows::default();
        for i in 0..100 {
            d.features.push_row(&[i as f32]);
            d.labels.push(i < 80); // 80 malicious, 20 benign
        }
        d.cap_malicious_fraction(0.2);
        let mal = d.labels.iter().filter(|&&l| l).count();
        assert_eq!(mal, 5); // 20 benign -> 5 malicious = 20 %
        assert_eq!(d.len(), 25);
    }

    #[test]
    fn bidirectional_packets_fold_into_one_flow() {
        let fwd = pkt(1, 0, 100);
        let mut rev = pkt(1, 5, 200);
        rev.five = fwd.five.reversed();
        let mut t = Trace::new();
        t.push(fwd, false);
        t.push(rev, false);
        let cfg = ExtractConfig { pkt_threshold: 2, ..Default::default() };
        let flows = extract_flows(&t, &cfg);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows.features[(0, 0)], 2.0);
    }

    #[test]
    fn trace_stats() {
        let mut t = Trace::new();
        t.push(pkt(1, 0, 100), false);
        t.push(pkt(2, 1000, 200), true);
        assert_eq!(t.total_bytes(), 300);
        assert!((t.duration_secs() - 1.0).abs() < 1e-9);
        assert!((t.malicious_fraction() - 0.5).abs() < 1e-12);
    }
}
