//! Autoencoder-guided iTree training (paper §3.2.1).
//!
//! Unlike a conventional iTree (random feature, random split), a guided
//! tree asks the teacher to label the node's samples — augmented with `k`
//! synthetic points jittered around those samples ([`augment_around`];
//! the paper's footnote-7 bounds cloud, [`augment`], would be all
//! off-manifold here) — and picks the split maximising information gain
//! (Eq. 2–4) with [`best_split`].
//! Growth stops when `|X_node| ≤ 1`, depth reaches `⌈log₂ Ψ⌉`, or the
//! teacher-labelled class ratio at the node drops below `τ_split`
//! (the extra criterion that later shrinks the rule table, §4.2.2).

use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_telemetry::{counter, histogram};

use crate::teacher::Teacher;

/// Hyper-parameters of guided tree growth.
#[derive(Clone, Copy, Debug)]
pub struct GuidedTreeConfig {
    /// Depth cap; callers usually pass `⌈log₂ Ψ⌉`.
    pub max_depth: usize,
    /// `k`: augmentation points per node.
    pub k_augment: usize,
    /// `τ_split`: stop when min/max class ratio drops below this
    /// (paper footnote 8: 1e-2 works well).
    pub tau_split: f64,
    /// Candidate split points examined per feature.
    pub n_candidates: usize,
}

impl Default for GuidedTreeConfig {
    fn default() -> Self {
        Self { max_depth: 8, k_augment: 32, tau_split: 1e-2, n_candidates: 8 }
    }
}

/// Arena node of a guided tree.
#[derive(Clone, Debug)]
pub enum GNode {
    /// `x[feature] < split` goes to `left`, else `right` (arena indices).
    Internal { feature: usize, split: f32, left: usize, right: usize },
    /// Terminal node, indexing into [`GuidedTree::leaves`].
    Leaf { leaf_id: usize },
}

/// A terminal region of the tree.
#[derive(Clone, Debug)]
pub struct LeafInfo {
    /// Axis-aligned bounds `[lo, hi)` per feature (the leaf's hypercube).
    pub bounds: Vec<(f32, f32)>,
    /// Distilled label; `None` until knowledge distillation runs.
    pub label: Option<bool>,
    /// Training samples that reached this leaf while growing.
    pub train_count: usize,
    /// Depth of the leaf.
    pub depth: usize,
}

/// One guided isolation tree.
#[derive(Clone, Debug)]
pub struct GuidedTree {
    nodes: Vec<GNode>,
    /// Leaf metadata, indexed by `leaf_id`.
    pub leaves: Vec<LeafInfo>,
}

/// A region either resolves to a single leaf or straddles a split.
pub type RegionResolution = Result<usize, (usize, f32)>;

impl GuidedTree {
    /// Grows a guided tree on `data` restricted to `indices` (the Ψ
    /// sub-sample), within `global_bounds` per feature.
    pub fn fit(
        data: &Dataset,
        indices: &[usize],
        global_bounds: &[(f32, f32)],
        teacher: &dyn Teacher,
        cfg: &GuidedTreeConfig,
        rng: &mut Rng,
    ) -> Self {
        assert!(data.rows() > 0, "cannot fit on empty data");
        assert_eq!(data.cols(), global_bounds.len(), "bounds/feature width mismatch");
        let mut tree = Self { nodes: Vec::new(), leaves: Vec::new() };
        let root = tree.build(data, indices.to_vec(), global_bounds.to_vec(), 0, teacher, cfg, rng);
        debug_assert_eq!(root, 0, "root must be node 0");
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        bounds: Vec<(f32, f32)>,
        depth: usize,
        teacher: &dyn Teacher,
        cfg: &GuidedTreeConfig,
        rng: &mut Rng,
    ) -> usize {
        let node_slot = self.nodes.len();
        self.nodes.push(GNode::Leaf { leaf_id: usize::MAX }); // placeholder

        // Hard stopping criteria that need no teacher call.
        if indices.len() <= 1 || depth >= cfg.max_depth {
            return self.seal_leaf(node_slot, bounds, indices.len(), depth);
        }

        // X_decision = X_node ∪ X_aug (manifold-aware blending; see
        // `augment_around` for why pure bounds sampling fails here).
        let mut decision = data.select_rows(&indices);
        augment_around(&mut decision, &bounds, cfg.k_augment, rng);
        let labels = teacher.predict(&decision);
        let n_mal = labels.iter().filter(|&&l| l).count();
        let n_ben = labels.len() - n_mal;

        // Skew stopping criterion: min/max < τ_split.
        let ratio = if n_mal.max(n_ben) == 0 {
            0.0
        } else {
            n_mal.min(n_ben) as f64 / n_mal.max(n_ben) as f64
        };
        if ratio < cfg.tau_split {
            return self.seal_leaf(node_slot, bounds, indices.len(), depth);
        }

        let Some((q, p, _gain)) = best_split(&decision, &labels, cfg.n_candidates) else {
            // No split improves purity: terminal.
            return self.seal_leaf(node_slot, bounds, indices.len(), depth);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| data[(i, q)] < p);
        // Degenerate partitions of the *training* samples still recurse —
        // the children cover distinct regions of augmented space — but an
        // empty side gets an empty index set and terminates immediately.
        let mut left_bounds = bounds.clone();
        left_bounds[q].1 = p;
        let mut right_bounds = bounds;
        right_bounds[q].0 = p;
        let left = self.build(data, left_idx, left_bounds, depth + 1, teacher, cfg, rng);
        let right = self.build(data, right_idx, right_bounds, depth + 1, teacher, cfg, rng);
        self.nodes[node_slot] = GNode::Internal { feature: q, split: p, left, right };
        node_slot
    }

    fn seal_leaf(
        &mut self,
        node_slot: usize,
        bounds: Vec<(f32, f32)>,
        train_count: usize,
        depth: usize,
    ) -> usize {
        let leaf_id = self.leaves.len();
        counter!("core.guided.leaves").inc();
        histogram!("core.guided.leaf_depth").record(depth as u64);
        self.leaves.push(LeafInfo { bounds, label: None, train_count, depth });
        self.nodes[node_slot] = GNode::Leaf { leaf_id };
        node_slot
    }

    /// The leaf a sample routes to.
    pub fn leaf_of(&self, x: &[f32]) -> usize {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                GNode::Leaf { leaf_id } => return *leaf_id,
                GNode::Internal { feature, split, left, right } => {
                    idx = if x[*feature] < *split { *left } else { *right };
                }
            }
        }
    }

    /// Distilled label of the leaf `x` routes to; `None` before distillation.
    pub fn predict(&self, x: &[f32]) -> Option<bool> {
        self.leaves[self.leaf_of(x)].label
    }

    /// All split points on `feature`, ascending.
    pub fn boundaries(&self, feature: usize) -> Vec<f32> {
        let mut out: Vec<f32> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                GNode::Internal { feature: f, split, .. } if *f == feature => Some(*split),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.total_cmp(b));
        out.dedup();
        out
    }

    /// Resolves an axis-aligned region `[lo, hi)` to a single leaf, or
    /// reports the first straddling split `(feature, split)` — the
    /// primitive behind whitelist-rule generation.
    ///
    /// The walk starts at node `*node` (the root is node 0) and leaves
    /// `*node` at the leaf or straddled node where it stopped. A sub-region
    /// of `[lo, hi)` routes through that node the same way, so resolving
    /// it from the returned cursor gives the same answer as from the root.
    pub fn resolve_region(&self, lo: &[f32], hi: &[f32], node: &mut u32) -> RegionResolution {
        loop {
            match self.nodes[*node as usize] {
                GNode::Leaf { leaf_id } => return Ok(leaf_id),
                GNode::Internal { feature, split, left, right } => {
                    if hi[feature] <= split {
                        *node = left as u32;
                    } else if lo[feature] >= split {
                        *node = right as u32;
                    } else {
                        return Err((feature, split));
                    }
                }
            }
        }
    }

    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }
}

/// Binary entropy of `mal` positives among `total` (paper Eq. 2).
pub fn entropy(mal: usize, total: usize) -> f64 {
    if total == 0 || mal == 0 || mal == total {
        return 0.0;
    }
    let p = mal as f64 / total as f64;
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Bounds-cloud augmentation: appends `k` points ~ Normal(midpoint,
/// range/2) per feature, clipped to the bounds (paper footnote 7), to
/// `out`. Features are drawn independently.
pub fn augment(bounds: &[(f32, f32)], k: usize, rng: &mut Rng, out: &mut Dataset) {
    let mut x = Vec::with_capacity(bounds.len());
    for _ in 0..k {
        x.clear();
        x.extend(bounds.iter().map(|&(lo, hi)| {
            let mean = 0.5 * (lo + hi);
            let std = 0.5 * (hi - lo);
            if std <= 0.0 {
                return lo;
            }
            let g = rng.normal();
            (mean + std * g as f32).clamp(lo, hi)
        }));
        out.push_row(&x);
    }
}

/// Manifold-aware augmentation: appends `k` points to `samples`, each a
/// real sample (one of the rows present on entry) jittered by Gaussian
/// noise scaled to those samples' own per-feature spread, with a
/// log-uniform excursion multiplier in `[1/4, 4]`.
///
/// Why not pure bounds sampling? Flow features obey hard internal
/// constraints (min ≤ mean ≤ max packet size, count·mean ≈ total bytes),
/// so independently-drawn feature vectors are *all* infeasible and the
/// teacher labels the entire cloud malicious — zero entropy gradient, and
/// the information-gain search degenerates (measured: 2000/2000 of the
/// bounds cloud flagged). Local jitter instead surrounds the node's data
/// with an inner shell the teacher calls benign and an outer shell it
/// calls malicious, so the information-gain search places cuts exactly
/// where the teacher's boundary hugs the data — which is what distilling
/// the teacher into axis-aligned boxes requires. Falls back to [`augment`]
/// when the node holds no real samples.
pub fn augment_around(samples: &mut Dataset, bounds: &[(f32, f32)], k: usize, rng: &mut Rng) {
    let n = samples.rows();
    if n == 0 {
        return augment(bounds, k, rng, samples);
    }
    let dim = bounds.len();
    // Per-feature std of the node's samples; degenerate features fall back
    // to a sliver of the node's bound range.
    let mut mean = vec![0.0f64; dim];
    for s in samples.iter_rows() {
        for (m, &v) in mean.iter_mut().zip(s.iter()) {
            *m += v as f64;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut sigma = vec![0.0f64; dim];
    for s in samples.iter_rows() {
        for ((sg, &v), m) in sigma.iter_mut().zip(s.iter()).zip(&mean) {
            let d = v as f64 - m;
            *sg += d * d;
        }
    }
    for (sg, &(lo, hi)) in sigma.iter_mut().zip(bounds) {
        *sg = (*sg / n as f64).sqrt();
        if *sg <= 0.0 {
            *sg = ((hi - lo) as f64 / 20.0).max(1e-9);
        }
    }
    let mut x = Vec::with_capacity(dim);
    for _ in 0..k {
        let base = samples.row(rng.gen_range(0..n));
        // Log-uniform excursion: 2^U(-2, 2) ∈ [1/4, 4].
        let scale = 2f64.powf(rng.gen_range(-2.0..2.0));
        x.clear();
        x.extend(base.iter().zip(bounds).zip(&sigma).map(|((&x, &(lo, hi)), &sg)| {
            let jitter = (rng.normal() * sg * scale) as f32;
            (x + jitter).clamp(lo, hi.max(lo))
        }));
        samples.push_row(&x);
    }
}

/// The information-gain-maximising split `(q*, p*, gain)` of a labelled
/// decision set (paper Eq. 2–4), or `None` when no candidate gains.
/// Features are searched in ascending order and each feature's
/// candidates ascending; only a strictly larger gain replaces the best.
///
/// One sort per feature does all the work: `(value, label)` pairs sorted
/// by `total_cmp` give both the deduplicated values the candidates are
/// drawn from (see [`split_candidates`]) and a prefix count of malicious
/// labels, so a candidate's left side is the run of non-NaN values below
/// it, found by binary search. NaN values sort to the ends (by sign) and
/// always go right, as `x < p` is false for them.
///
/// Adds the number of candidates examined to the
/// `core.guided.split_candidates` counter.
pub fn best_split(
    decision: &Dataset,
    labels: &[bool],
    n_candidates: usize,
) -> Option<(usize, f32, f64)> {
    debug_assert_eq!(decision.rows(), labels.len(), "one label per decision row");
    let n = labels.len();
    let n_mal = labels.iter().filter(|&&l| l).count();
    let parent_h = entropy(n_mal, n);
    let mut pairs: Vec<(f32, bool)> = Vec::with_capacity(n);
    let mut vals: Vec<f32> = Vec::with_capacity(n);
    let mut mal_before: Vec<usize> = Vec::with_capacity(n + 1);
    let mut examined = 0u64;
    let mut best: Option<(usize, f32, f64)> = None;
    for q in 0..decision.cols() {
        pairs.clear();
        pairs.extend(decision.column(q).zip(labels.iter().copied()));
        // Unstable is enough: `total_cmp` ties are bit-identical values,
        // which always fall on the same side of a candidate.
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        vals.clear();
        mal_before.clear();
        mal_before.push(0);
        let mut seen_mal = 0;
        for &(v, mal) in &pairs {
            if vals.last() != Some(&v) {
                vals.push(v);
            }
            seen_mal += usize::from(mal);
            mal_before.push(seen_mal);
        }
        // The non-NaN values: negative NaNs sort first, positive ones last.
        let lead = pairs.iter().take_while(|(v, _)| v.is_nan()).count();
        let tail = pairs[lead..].iter().rev().take_while(|(v, _)| v.is_nan()).count();
        let finite = &pairs[lead..n - tail];
        for p in split_candidates(&vals, n_candidates) {
            examined += 1;
            let ln = finite.partition_point(|&(v, _)| v < p);
            let lm = mal_before[lead + ln] - mal_before[lead];
            let (rn, rm) = (n - ln, n_mal - lm);
            if ln == 0 || rn == 0 {
                continue;
            }
            let w_left = ln as f64 / n as f64;
            let child_h = w_left * entropy(lm, ln) + (1.0 - w_left) * entropy(rm, rn);
            let gain = parent_h - child_h;
            if gain > best.map_or(0.0, |(_, _, g)| g) {
                best = Some((q, p, gain));
            }
        }
    }
    counter!("core.guided.split_candidates").add(examined);
    best
}

/// Candidate split points from a feature's sorted, deduplicated values:
/// midpoints between evenly spaced order statistics (capped at
/// `n_candidates`), non-finite midpoints dropped and repeats collapsed.
fn split_candidates(vals: &[f32], n_candidates: usize) -> impl Iterator<Item = f32> + '_ {
    let m = vals.len();
    let n = m.saturating_sub(1).min(n_candidates);
    let mut last = None;
    (1..=n).filter_map(move |i| {
        let pos = (i * (m - 1) / (n + 1)).min(m - 2);
        let p = 0.5 * (vals[pos] + vals[pos + 1]);
        if !p.is_finite() || last == Some(p) {
            return None;
        }
        last = Some(p);
        Some(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teacher::OracleTeacher;
    use iguard_runtime::rng::Rng;

    fn bounds2() -> Vec<(f32, f32)> {
        vec![(0.0, 1.0), (0.0, 1.0)]
    }

    fn uniform2(n: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        d
    }

    /// Benign = left half plane; oracle teacher knows it.
    #[test]
    fn guided_tree_finds_oracle_boundary() {
        let mut rng = Rng::seed_from_u64(1);
        let data = uniform2(256, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.5);
        let cfg = GuidedTreeConfig { max_depth: 8, k_augment: 64, ..Default::default() };
        let tree = GuidedTree::fit(&data, &indices, &bounds2(), &teacher, &cfg, &mut rng);
        // The tree should split (near) x0 = 0.5 at the root region.
        let splits = tree.boundaries(0);
        assert!(splits.iter().any(|s| (s - 0.5).abs() < 0.15), "no split near 0.5: {splits:?}");
        // Samples on either side of the oracle boundary go to different leaves.
        assert_ne!(tree.leaf_of(&[0.1, 0.5]), tree.leaf_of(&[0.9, 0.5]));
    }

    #[test]
    fn skew_stops_growth_for_pure_regions() {
        let mut rng = Rng::seed_from_u64(2);
        // Teacher says everything benign: τ_split stops at the root.
        let data = uniform2(128, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        let teacher = OracleTeacher(|_: &[f32]| false);
        let tree = GuidedTree::fit(
            &data,
            &indices,
            &bounds2(),
            &teacher,
            &GuidedTreeConfig::default(),
            &mut rng,
        );
        assert_eq!(tree.n_leaves(), 1, "pure data should yield a single leaf");
    }

    #[test]
    fn depth_cap_is_respected() {
        let mut rng = Rng::seed_from_u64(3);
        let data = uniform2(512, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        // Checkerboard oracle forces deep splitting; cap must hold.
        let teacher =
            OracleTeacher(|x: &[f32]| ((x[0] * 8.0) as i32 + (x[1] * 8.0) as i32) % 2 == 0);
        let cfg = GuidedTreeConfig { max_depth: 4, k_augment: 16, ..Default::default() };
        let tree = GuidedTree::fit(&data, &indices, &bounds2(), &teacher, &cfg, &mut rng);
        assert!(tree.leaves.iter().all(|l| l.depth <= 4));
    }

    #[test]
    fn leaf_bounds_partition_space() {
        let mut rng = Rng::seed_from_u64(4);
        let data = uniform2(256, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        let teacher = OracleTeacher(|x: &[f32]| x[0] + x[1] > 1.0);
        let tree = GuidedTree::fit(
            &data,
            &indices,
            &bounds2(),
            &teacher,
            &GuidedTreeConfig::default(),
            &mut rng,
        );
        // Every probe point lands in exactly one leaf whose bounds contain it.
        for _ in 0..200 {
            let x = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let leaf = &tree.leaves[tree.leaf_of(&x)];
            for (v, &(lo, hi)) in x.iter().zip(&leaf.bounds) {
                assert!(*v >= lo && *v < hi || (*v == hi && hi == 1.0));
            }
        }
    }

    #[test]
    fn resolve_region_matches_leaf_of() {
        let mut rng = Rng::seed_from_u64(5);
        let data = uniform2(256, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        let teacher = OracleTeacher(|x: &[f32]| x[1] > 0.6);
        let tree = GuidedTree::fit(
            &data,
            &indices,
            &bounds2(),
            &teacher,
            &GuidedTreeConfig::default(),
            &mut rng,
        );
        // A tiny region around a point resolves to that point's leaf.
        let x = [0.3f32, 0.3];
        let eps = 1e-5f32;
        let lo = [x[0] - eps, x[1] - eps];
        let hi = [x[0] + eps, x[1] + eps];
        // An `Err` means x happens to lie on a boundary — acceptable.
        if let Ok(leaf) = tree.resolve_region(&lo, &hi, &mut 0) {
            assert_eq!(leaf, tree.leaf_of(&x));
        }
        // The whole space straddles if the tree split at all.
        if tree.n_leaves() > 1 {
            let mut cursor = 0;
            assert!(tree.resolve_region(&[0.0, 0.0], &[1.0, 1.0], &mut cursor).is_err());
            assert_eq!(cursor, 0, "the root straddles the whole space");
        }
    }

    /// A walk resumed at the node where the enclosing region's walk
    /// stopped gives the same answer as one from the root, on nested
    /// boxes shrinking toward random points.
    #[test]
    fn resumed_walk_matches_walk_from_root() {
        let mut rng = Rng::seed_from_u64(7);
        let data = uniform2(256, &mut rng);
        let indices: Vec<usize> = (0..data.rows()).collect();
        let teacher = OracleTeacher(|x: &[f32]| x[0] * x[1] > 0.2);
        let cfg = GuidedTreeConfig { k_augment: 64, ..Default::default() };
        let tree = GuidedTree::fit(&data, &indices, &bounds2(), &teacher, &cfg, &mut rng);
        assert!(tree.n_leaves() > 4);
        for _ in 0..200 {
            let x = [rng.gen_range(0.0f32..1.0), rng.gen_range(0.0f32..1.0)];
            let (mut lo, mut hi) = ([f32::NEG_INFINITY; 2], [f32::INFINITY; 2]);
            let mut cursor = 0u32;
            for _ in 0..12 {
                let resumed = tree.resolve_region(&lo, &hi, &mut cursor);
                assert_eq!(resumed, tree.resolve_region(&lo, &hi, &mut 0));
                let Err((f, split)) = resumed else { break };
                // Keep the half that holds x, as the decomposition would.
                if x[f] < split {
                    hi[f] = split;
                } else {
                    lo[f] = split;
                }
            }
        }
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 10), 0.0);
        assert!((entropy(5, 10) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(0, 0), 0.0);
    }

    #[test]
    fn augment_respects_bounds() {
        let mut rng = Rng::seed_from_u64(6);
        let bounds = vec![(0.2f32, 0.4), (10.0, 10.0)];
        let mut out = Dataset::new(2);
        augment(&bounds, 100, &mut rng, &mut out);
        assert_eq!(out.rows(), 100);
        for x in out.iter_rows() {
            assert!((0.2..=0.4).contains(&x[0]));
            assert_eq!(x[1], 10.0); // degenerate range collapses to lo
        }
    }

    #[test]
    fn split_candidates_sorted_within_range() {
        let vals: Vec<f32> = (0..50).map(|i| i as f32 / 50.0).collect();
        let cands: Vec<f32> = split_candidates(&vals, 8).collect();
        assert!(!cands.is_empty() && cands.len() <= 8);
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        assert!(cands.iter().all(|&p| p > 0.0 && p < 1.0));
    }
}
