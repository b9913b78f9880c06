//! Autoencoder-guided iTree training (paper §3.2.1).
//!
//! Unlike a conventional iTree (random feature, random split), a guided
//! tree asks the teacher to label the node's samples — augmented with `k`
//! synthetic points drawn from the node's feature ranges (footnote 7:
//! normal with mean = midpoint of the bounds and std = half the range,
//! clipped) — and picks the split maximising information gain (Eq. 2–4).
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
        for x in augment_around(&decision, &bounds, cfg.k_augment, rng) {
            decision.push_row(&x);
        }
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

        // Search (q*, p*) maximising information gain over candidates.
        let parent_h = entropy(n_mal, labels.len());
        let dim = bounds.len();
        let mut best: Option<(usize, f32, f64)> = None;
        for q in 0..dim {
            for p in split_candidates(&decision, q, cfg.n_candidates) {
                counter!("core.guided.split_candidates").inc();
                let (mut lm, mut ln, mut rm, mut rn) = (0usize, 0usize, 0usize, 0usize);
                for (x, &mal) in decision.iter_rows().zip(&labels) {
                    if x[q] < p {
                        ln += 1;
                        if mal {
                            lm += 1;
                        }
                    } else {
                        rn += 1;
                        if mal {
                            rm += 1;
                        }
                    }
                }
                if ln == 0 || rn == 0 {
                    continue;
                }
                let w_left = ln as f64 / labels.len() as f64;
                let child_h = w_left * entropy(lm, ln) + (1.0 - w_left) * entropy(rm, rn);
                let gain = parent_h - child_h;
                if gain > best.map_or(0.0, |(_, _, g)| g) {
                    best = Some((q, p, gain));
                }
            }
        }

        let Some((q, p, _gain)) = best else {
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
    pub fn resolve_region(&self, lo: &[f32], hi: &[f32]) -> RegionResolution {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                GNode::Leaf { leaf_id } => return Ok(*leaf_id),
                GNode::Internal { feature, split, left, right } => {
                    if hi[*feature] <= *split {
                        idx = *left;
                    } else if lo[*feature] >= *split {
                        idx = *right;
                    } else {
                        return Err((*feature, *split));
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

/// Bounds-cloud augmentation: `k` points ~ Normal(midpoint, range/2) per
/// feature, clipped to the bounds (paper footnote 7). Features are drawn
/// independently.
pub fn augment(bounds: &[(f32, f32)], k: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
    (0..k)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| {
                    let mean = 0.5 * (lo + hi);
                    let std = 0.5 * (hi - lo);
                    if std <= 0.0 {
                        return lo;
                    }
                    let g = rng.normal();
                    (mean + std * g as f32).clamp(lo, hi)
                })
                .collect()
        })
        .collect()
}

/// Manifold-aware augmentation: each point is a real node sample jittered
/// by Gaussian noise scaled to the node data's own per-feature spread,
/// with a log-uniform excursion multiplier in `[1/4, 4]`.
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
pub fn augment_around(
    samples: &Dataset,
    bounds: &[(f32, f32)],
    k: usize,
    rng: &mut Rng,
) -> Vec<Vec<f32>> {
    if samples.rows() == 0 {
        return augment(bounds, k, rng);
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
        *m /= samples.rows() as f64;
    }
    let mut sigma = vec![0.0f64; dim];
    for s in samples.iter_rows() {
        for ((sg, &v), m) in sigma.iter_mut().zip(s.iter()).zip(&mean) {
            let d = v as f64 - m;
            *sg += d * d;
        }
    }
    for (sg, &(lo, hi)) in sigma.iter_mut().zip(bounds) {
        *sg = (*sg / samples.rows() as f64).sqrt();
        if *sg <= 0.0 {
            *sg = ((hi - lo) as f64 / 20.0).max(1e-9);
        }
    }
    (0..k)
        .map(|_| {
            let base = samples.row(rng.gen_range(0..samples.rows()));
            // Log-uniform excursion: 2^U(-2, 2) ∈ [1/4, 4].
            let scale = 2f64.powf(rng.gen_range(-2.0..2.0));
            base.iter()
                .zip(bounds)
                .zip(&sigma)
                .map(|((&x, &(lo, hi)), &sg)| {
                    let jitter = (rng.normal() * sg * scale) as f32;
                    (x + jitter).clamp(lo, hi.max(lo))
                })
                .collect()
        })
        .collect()
}

/// Candidate split points for feature `q`: midpoints between evenly spaced
/// order statistics of the decision set (capped at `n_candidates`).
fn split_candidates(decision: &Dataset, q: usize, n_candidates: usize) -> Vec<f32> {
    let mut vals: Vec<f32> = decision.iter_rows().map(|x| x[q]).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals.dedup();
    if vals.len() < 2 {
        return Vec::new();
    }
    let n = (vals.len() - 1).min(n_candidates);
    (1..=n)
        .map(|i| {
            let pos = i * (vals.len() - 1) / (n + 1).max(1);
            let pos = pos.min(vals.len() - 2);
            0.5 * (vals[pos] + vals[pos + 1])
        })
        .filter(|p| p.is_finite())
        .collect::<Vec<f32>>()
        .into_iter()
        .fold(Vec::new(), |mut acc, p| {
            if acc.last() != Some(&p) {
                acc.push(p);
            }
            acc
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
        match tree.resolve_region(&lo, &hi) {
            Ok(leaf) => assert_eq!(leaf, tree.leaf_of(&x)),
            Err(_) => {} // x happens to lie on a boundary — acceptable
        }
        // The whole space straddles if the tree split at all.
        if tree.n_leaves() > 1 {
            assert!(tree.resolve_region(&[0.0, 0.0], &[1.0, 1.0]).is_err());
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
        for x in augment(&bounds, 100, &mut rng) {
            assert!((0.2..=0.4).contains(&x[0]));
            assert_eq!(x[1], 10.0); // degenerate range collapses to lo
        }
    }

    #[test]
    fn split_candidates_sorted_within_range() {
        let decision =
            Dataset::from_rows(&(0..50).map(|i| vec![i as f32 / 50.0]).collect::<Vec<_>>());
        let cands = split_candidates(&decision, 0, 8);
        assert!(!cands.is_empty() && cands.len() <= 8);
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        assert!(cands.iter().all(|&p| p > 0.0 && p < 1.0));
    }
}
