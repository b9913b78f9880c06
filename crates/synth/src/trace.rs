//! Trace assembly and flow-level dataset extraction.
//!
//! A [`Trace`] is a timestamp-ordered packet sequence with per-packet
//! ground-truth labels (`true` = malicious). [`extract_flows`] converts a
//! trace into labelled flow feature vectors the way the deployment would:
//! features are accumulated per (bidirectional) flow and a sample is frozen
//! at the packet-count threshold `n` or after an idle gap `δ` — the
//! truncation the switch imposes (paper §3.3.1), applied consistently to
//! training and evaluation.

use std::collections::{HashMap, HashSet};

use iguard_runtime::Dataset;

use iguard_flow::features::{flow_features, packet_level_features, FeatureSet};
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::stats::FlowStats;

use crate::loser_tree::LoserTree;

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

    /// Merges traces into one, sorted by timestamp (stable for ties): the
    /// result equals a stable sort of the inputs' concatenation.
    ///
    /// Each input is first put in time order by [`Self::sort_by_time`]
    /// (a check only, for the usual already-ordered input), then a loser
    /// tree over the inputs' heads copies each stretch of one input that
    /// precedes every other head into one preallocated output, so
    /// time-disjoint inputs cost a slice copy each. Beyond its inputs the
    /// merge allocates that output and a cursor per input, plus the sort
    /// scratch of any input that arrives out of order.
    pub fn merge(mut traces: Vec<Trace>) -> Trace {
        for t in &mut traces {
            t.sort_by_time();
        }
        let total = traces.iter().map(Trace::len).sum();
        let mut out =
            Trace { packets: Vec::with_capacity(total), labels: Vec::with_capacity(total) };
        let mut at = vec![0usize; traces.len()];
        let mut front = LoserTree::new(traces.iter().map(|t| t.packets.first().map(|p| p.ts_ns)));
        while let Some(w) = front.winner() {
            let (t, from) = (&traces[w], at[w]);
            let to = from + front.winning_run(t.packets[from..].iter().map(|p| p.ts_ns));
            out.packets.extend_from_slice(&t.packets[from..to]);
            out.labels.extend_from_slice(&t.labels[from..to]);
            at[w] = to;
            front.replace_winner(t.packets.get(to).map(|p| p.ts_ns));
        }
        out
    }

    /// Puts the trace in time order, stably: packets with equal timestamps
    /// keep their order and every label travels with its packet. This is
    /// the one ordering step of the materialised generators and
    /// transforms; a trace already in order costs one read-only pass.
    pub fn sort_by_time(&mut self) {
        if self.packets.is_sorted_by_key(|p| p.ts_ns) {
            return;
        }
        let order = time_order(&self.packets);
        self.packets = order.iter().map(|&i| self.packets[i]).collect();
        self.labels = order.iter().map(|&i| self.labels[i]).collect();
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

/// The stable time order of `packets`, as positions: an LSD radix sort of
/// `(timestamp − earliest, position)` pairs, [`RADIX_BITS`] timestamp bits
/// a pass and only as many passes as the trace's time span needs. Every
/// pass is a stable counting sort, so equal timestamps keep their order;
/// the packets themselves move once, afterwards.
fn time_order(packets: &[Packet]) -> Vec<usize> {
    let earliest = packets.iter().map(|p| p.ts_ns).min().unwrap_or(0);
    let mut order: Vec<(u64, usize)> =
        packets.iter().enumerate().map(|(i, p)| (p.ts_ns - earliest, i)).collect();
    let span_bits =
        order.iter().map(|&(t, _)| t).max().map_or(0, |t| u64::BITS - t.leading_zeros());
    let mut next = vec![(0, 0); order.len()];
    let digit = |t: u64, shift: u32| (t >> shift) as usize & ((1 << RADIX_BITS) - 1);
    for shift in (0..span_bits).step_by(RADIX_BITS as usize) {
        let mut at = [0usize; 1 << RADIX_BITS];
        for &(t, _) in &order {
            at[digit(t, shift)] += 1;
        }
        let mut start = 0;
        for slot in &mut at {
            (*slot, start) = (start, start + *slot);
        }
        for &(t, i) in &order {
            let d = digit(t, shift);
            next[at[d]] = (t, i);
            at[d] += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order.into_iter().map(|(_, i)| i).collect()
}

/// Timestamp bits per pass of [`time_order`]: a 2,048-entry histogram,
/// three passes for spans under 8.6 s.
const RADIX_BITS: u32 = 11;

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

/// Packet-level features of the first packet of every flow in a trace,
/// in first-arrival order — the training rows of the early-packet
/// (PL) model.
pub fn first_packet_pl(trace: &Trace) -> Dataset {
    let mut seen = HashSet::new();
    let mut out = Dataset::default();
    for p in &trace.packets {
        if seen.insert(p.five.canonical()) {
            out.push_row(&packet_level_features(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_flow::five_tuple::PROTO_UDP;
    use iguard_flow::packet::TcpFlags;
    use iguard_runtime::proptest_lite;

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

    /// The merge the loser tree replaced, kept as the oracle: zip every
    /// input's packets with their labels, stable-sort by timestamp, unzip.
    fn zip_sort_merged(traces: Vec<Trace>) -> Trace {
        let mut zipped: Vec<(Packet, bool)> =
            traces.into_iter().flat_map(|t| t.packets.into_iter().zip(t.labels)).collect();
        zipped.sort_by_key(|(p, _)| p.ts_ns);
        let (packets, labels) = zipped.into_iter().unzip();
        Trace { packets, labels }
    }

    /// A random trace over a narrow timestamp span (heavy ties), in time
    /// order or not, possibly empty; packets are told apart by their
    /// length so a tie broken the wrong way shows.
    fn random_trace(rng: &mut iguard_runtime::rng::Rng, ordered: bool) -> Trace {
        let span = rng.gen_range(1u64..50);
        let mut t = Trace::new();
        for _ in 0..rng.gen_range(0usize..60) {
            t.push(pkt(0, rng.gen_range(0..span), rng.gen_range(60..1500)), rng.gen_bool(0.5));
        }
        if ordered {
            zip_sort_merged(vec![t])
        } else {
            t
        }
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(Trace::merge(vec![]).is_empty());
        assert!(Trace::merge(vec![Trace::new(), Trace::new()]).is_empty());
    }

    #[test]
    fn sort_by_time_is_stable_and_carries_labels() {
        let mut t = Trace::new();
        t.push(pkt(1, 20, 100), true);
        t.push(pkt(2, 10, 200), false);
        t.push(pkt(3, 20, 300), false);
        t.push(pkt(4, 10, 400), true);
        t.sort_by_time();
        let lens: Vec<u16> = t.packets.iter().map(|p| p.wire_len).collect();
        assert_eq!(lens, vec![200, 400, 100, 300]);
        assert_eq!(t.labels, vec![false, true, true, false]);
    }

    proptest_lite! {
        /// The radix ordering equals a stable sort by timestamp for time
        /// spans from a single instant to the whole `u64` range (zero to
        /// six passes), with ties at both ends of the range.
        fn sort_by_time_matches_stable_sort(rng, cases = 128) {
            let bits = rng.gen_range(0u32..=64);
            let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
            let earliest = rng.next_u64() >> rng.gen_range(0u32..64);
            let mut t = Trace::new();
            for _ in 0..rng.gen_range(0usize..300) {
                let mut p = pkt(0, 0, rng.gen_range(60..1500));
                p.ts_ns = earliest.saturating_add(rng.next_u64() & mask);
                t.push(p, rng.gen_bool(0.5));
            }
            let want = zip_sort_merged(vec![t.clone()]);
            t.sort_by_time();
            assert_eq!(t.packets, want.packets);
            assert_eq!(t.labels, want.labels);
        }

        /// The loser-tree merge equals zip + stable sort + unzip on random
        /// inputs: none at all, empty ones, ones out of time order, and
        /// timestamps squeezed into a narrow span so ties abound within
        /// and across inputs.
        fn merge_matches_zip_sort_oracle(rng, cases = 128) {
            let traces: Vec<Trace> = (0..rng.gen_range(0usize..12))
                .map(|_| {
                    let ordered = rng.gen_bool(0.7);
                    random_trace(rng, ordered)
                })
                .collect();
            let want = zip_sort_merged(traces.clone());
            let got = Trace::merge(traces);
            assert_eq!(got.packets, want.packets);
            assert_eq!(got.labels, want.labels);
        }
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

    #[test]
    fn first_packet_pl_one_per_flow() {
        let mut rng = iguard_runtime::rng::Rng::seed_from_u64(2);
        let t = crate::benign::benign_trace(25, 2.0, &mut rng);
        let pl = first_packet_pl(&t);
        let distinct: HashSet<_> = t.packets.iter().map(|p| p.five.canonical()).collect();
        assert_eq!(pl.rows(), distinct.len());
    }
}
