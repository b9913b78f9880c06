//! Whitelist-rule generation (paper §3.2.3).
//!
//! The labelled forest is compiled into axis-aligned hypercubes on which
//! its vote is constant. The paper describes enumerating the cartesian
//! product of all leaf boundaries; we compute the same partition by
//! **adaptive region splitting** — recursively split a region only while
//! some tree's decision still straddles it — which emits each maximal
//! constant-vote region directly instead of enumerating grid cells that
//! would be merged again afterwards. The decomposition proceeds breadth
//! first so each frontier level resolves in parallel across the runtime
//! worker pool; the result is independent of worker count because split
//! order never affects the final partition. Adjacent same-label cubes are
//! then greedily merged, and the benign (label-0) cubes become the
//! whitelist: anything matching no whitelist rule is treated as malicious.
//!
//! Both stages work on flat rows, not on per-box allocations; a
//! [`Hypercube`] is built only for the merged whitelist.
//!
//! - **Resumed walks.** The frontier is `lo ‖ hi` rows (`2·dim` floats).
//!   A child region lies inside its parent, so every tree node the
//!   parent's walk passed routes the child the same way. Each row carries
//!   one node cursor per tree (the node where that tree's walk stopped on
//!   the parent) and the child's walk resumes there instead of at the
//!   root. The iForest branch-and-bound explores both sides of a
//!   straddle, has no single stopping node, and carries no cursors.
//! - **Sorted merge.** A box is one `u64` word per axis holding its
//!   `(lo, hi)` bit patterns. Each merge axis is one sort of a box index
//!   by the other axes' words, then the lower bound on the axis, then
//!   input position, followed by a sweep that coalesces abutting
//!   neighbours with equal other-axis words. No key is allocated per box,
//!   and the output order is that of grouping by the other axes' bits.

use iguard_iforest::tree::Node as IfNode;
use iguard_iforest::IsolationForest;
use iguard_runtime::{par, Dataset};
use iguard_telemetry::{counter, histogram, span};

use crate::forest::IGuardForest;
use crate::rule_index::RuleIndex;

/// An axis-aligned box `[lo, hi)` over the feature space.
#[derive(Clone, Debug, PartialEq)]
pub struct Hypercube {
    pub lo: Vec<f32>,
    pub hi: Vec<f32>,
}

impl Hypercube {
    /// Half-open membership test.
    pub fn contains(&self, x: &[f32]) -> bool {
        x.iter().zip(self.lo.iter().zip(&self.hi)).all(|(&v, (&lo, &hi))| v >= lo && v < hi)
    }

    /// Volume of the box (product of extents).
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(&lo, &hi)| (hi - lo).max(0.0) as f64).product()
    }

    fn dims(&self) -> usize {
        self.lo.len()
    }
}

/// Rule-generation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleGenError {
    /// The decomposition exceeded the region budget — the model is too
    /// fragmented to compile into a rule table of acceptable size.
    /// `reached` is the region count at the point the budget was blown,
    /// so callers can tell a near miss from a runaway decomposition.
    TooManyRegions { budget: usize, reached: usize },
    /// A model constructor was handed zero training rows. Feature bounds
    /// (and therefore rule hypercubes) are undefined on an empty set, so
    /// the caller gets a typed error instead of a library panic.
    EmptyTrainingSet,
    /// An iGuard forest was handed to the rule compiler before
    /// distillation labelled its leaves: there is no vote to compile.
    NotDistilled,
}

impl std::fmt::Display for RuleGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleGenError::TooManyRegions { budget, reached } => {
                write!(
                    f,
                    "region decomposition exceeded budget of {budget}: reached {reached} regions"
                )
            }
            RuleGenError::EmptyTrainingSet => {
                write!(f, "empty training set: cannot derive feature bounds or rules")
            }
            RuleGenError::NotDistilled => {
                write!(f, "forest is not distilled: its leaves carry no labels to compile")
            }
        }
    }
}

impl std::error::Error for RuleGenError {}

/// A compiled whitelist rule set.
#[derive(Clone, Debug)]
pub struct RuleSet {
    /// Global feature bounds the rules were compiled within.
    pub bounds: Vec<(f32, f32)>,
    /// Benign (label-0) regions, post-merge.
    pub whitelist: Vec<Hypercube>,
    /// Constant-vote regions found before dropping malicious ones and
    /// before merging (a fragmentation measure).
    pub total_regions: usize,
}

/// How a region `[lo, hi)` resolves against an ensemble. The third
/// argument is the region's node cursors (one per tree for a guided
/// forest, none for the iForest): each walk resumes at its cursor and
/// leaves it at the node where it stopped, which the region's children
/// inherit. `Sync` because frontier levels of the decomposition resolve
/// concurrently.
type Resolve<'a> = dyn Fn(&[f32], &[f32], &mut [u32]) -> Result<bool, (usize, f32)> + Sync + 'a;

impl RuleSet {
    /// Compiles a distilled [`IGuardForest`] into whitelist rules, or
    /// [`RuleGenError::NotDistilled`] if its leaves are not yet labelled.
    ///
    /// The region's verdict is the *majority vote*, so the decomposition
    /// short-circuits: once enough trees have resolved that the remaining
    /// (straddled) trees cannot change the majority, the region is
    /// constant and need not be split further. This is what keeps the
    /// compilation tractable in 13 dimensions.
    pub fn from_iguard(forest: &IGuardForest, max_regions: usize) -> Result<Self, RuleGenError> {
        if !forest.is_distilled() {
            return Err(RuleGenError::NotDistilled);
        }
        let needed = forest.votes_needed();
        let resolve = |lo: &[f32], hi: &[f32], cursors: &mut [u32]| {
            let mut mal = 0usize;
            let mut unresolved = 0usize;
            let mut first_straddle: Option<(usize, f32)> = None;
            for (tree, cursor) in forest.trees().iter().zip(cursors) {
                match tree.resolve_region(lo, hi, cursor) {
                    // Distillation labels every leaf, so `None` never occurs.
                    Ok(leaf) => mal += usize::from(tree.leaves[leaf].label == Some(true)),
                    Err(straddle) => {
                        unresolved += 1;
                        first_straddle.get_or_insert(straddle);
                    }
                }
            }
            if mal >= needed {
                return Ok(true); // malicious vote already locked in
            }
            if mal + unresolved < needed {
                return Ok(false); // benign even if all straddles go malicious
            }
            Err(first_straddle.expect("undetermined region must have a straddle"))
        };
        Self::compile(forest.bounds().to_vec(), forest.trees().len(), &resolve, max_regions)
    }

    /// Compiles a conventional [`IsolationForest`] (thresholded anomaly
    /// score) into whitelist rules — how HorusEye-style deployments install
    /// the baseline iForest in the data plane.
    ///
    /// Branch-and-bound: for each tree, the region's attainable path
    /// length is bounded by exploring both sides of straddled splits; if
    /// the resulting score interval lies entirely on one side of the
    /// threshold, the region's verdict is constant without further
    /// splitting.
    pub fn from_iforest(
        forest: &IsolationForest,
        bounds: &[(f32, f32)],
        max_regions: usize,
    ) -> Result<Self, RuleGenError> {
        let resolve = |lo: &[f32], hi: &[f32], _: &mut [u32]| {
            let mut path_min = 0.0f64;
            let mut path_max = 0.0f64;
            let mut first_straddle: Option<(usize, f32)> = None;
            for tree in forest.trees() {
                let b = iforest_path_bounds(tree.root(), lo, hi, 0, &mut first_straddle);
                path_min += b.0;
                path_max += b.1;
            }
            let n = forest.trees().len() as f64;
            // Score is decreasing in mean path length.
            let score_hi = 2f64.powf(-(path_min / n) / forest.c_psi());
            let score_lo = 2f64.powf(-(path_max / n) / forest.c_psi());
            if score_lo > forest.threshold() {
                return Ok(true);
            }
            if score_hi <= forest.threshold() {
                return Ok(false);
            }
            Err(first_straddle.expect("undetermined region must have a straddle"))
        };
        Self::compile(bounds.to_vec(), 0, &resolve, max_regions)
    }

    /// The shared adaptive decomposition + merge pipeline. Each region
    /// carries `n_cursors` node cursors for `resolve`, all starting at the
    /// root (node 0).
    ///
    /// The root region is **unbounded**: tree inference routes every point
    /// (inside training bounds or not) to some leaf, so the rule table must
    /// cover the whole feature space to be consistent with the forest. Edge
    /// rules extend to ±∞ and are intersected with finite field domains
    /// only when installed into a TCAM.
    ///
    /// Breadth-first: every region of the current frontier resolves in
    /// parallel, then a sequential pass counts the resolved regions against
    /// the budget and splits straddled ones, left child before right, into
    /// the next frontier.
    fn compile(
        bounds: Vec<(f32, f32)>,
        n_cursors: usize,
        resolve: &Resolve<'_>,
        max_regions: usize,
    ) -> Result<Self, RuleGenError> {
        /// Frontier rows per parallel task: each task returns one
        /// resolution and cursor buffer for its whole run of rows.
        const CHUNK: usize = 128;
        let dim = bounds.len();
        let k = n_cursors;
        let (benign, total_regions) = span!("core.rules.decompose").time(|| {
            // Frontier: one `lo ‖ hi` row per region, and its `k` cursors.
            let mut frontier = Dataset::new(2 * dim);
            let mut root = vec![f32::NEG_INFINITY; dim];
            root.resize(2 * dim, f32::INFINITY);
            frontier.push_row(&root);
            let mut cursors = vec![0u32; k];
            let mut benign = Dataset::new(2 * dim);
            let mut total_regions = 0usize;
            while frontier.rows() > 0 {
                let width = frontier.rows();
                histogram!("core.rules.frontier_width").record(width as u64);
                let resolved = par::par_map_range(width.div_ceil(CHUNK), |c| {
                    let rows = c * CHUNK..((c + 1) * CHUNK).min(width);
                    let mut advanced = cursors[rows.start * k..rows.end * k].to_vec();
                    let verdicts: Vec<_> = rows
                        .enumerate()
                        .map(|(j, r)| {
                            let row = frontier.row(r);
                            resolve(&row[..dim], &row[dim..], &mut advanced[j * k..(j + 1) * k])
                        })
                        .collect();
                    (verdicts, advanced)
                });
                let mut verdicts = Vec::with_capacity(width);
                cursors.clear();
                for (v, advanced) in resolved {
                    verdicts.extend(v);
                    cursors.extend(advanced);
                }
                let mut next = Dataset::new(2 * dim);
                let mut next_cursors = Vec::new();
                for (r, resolution) in verdicts.into_iter().enumerate() {
                    let row = frontier.row(r);
                    match resolution {
                        Ok(label) => {
                            total_regions += 1;
                            if total_regions > max_regions {
                                return Err(RuleGenError::TooManyRegions {
                                    budget: max_regions,
                                    reached: total_regions,
                                });
                            }
                            if !label {
                                benign.push_row(row);
                            }
                        }
                        Err((feature, split)) => {
                            debug_assert!(
                                row[feature] < split && split < row[dim + feature],
                                "straddle split must be interior"
                            );
                            next.push_row(row);
                            next.row_mut(next.rows() - 1)[dim + feature] = split;
                            next.push_row(row);
                            next.row_mut(next.rows() - 1)[feature] = split;
                            let at = &cursors[r * k..(r + 1) * k];
                            next_cursors.extend_from_slice(at);
                            next_cursors.extend_from_slice(at);
                            if next.rows() > max_regions * 2 {
                                return Err(RuleGenError::TooManyRegions {
                                    budget: max_regions,
                                    reached: total_regions + next.rows(),
                                });
                            }
                        }
                    }
                }
                frontier = next;
                cursors = next_cursors;
            }
            Ok((benign, total_regions))
        })?;
        counter!("core.rules.regions").add(total_regions as u64);
        let whitelist = span!("core.rules.merge").time(|| merge_rows(&benign));
        counter!("core.rules.whitelist_rules").add(whitelist.len() as u64);
        Ok(Self { bounds, whitelist, total_regions })
    }

    /// Number of whitelist rules.
    pub fn len(&self) -> usize {
        self.whitelist.len()
    }

    pub fn is_empty(&self) -> bool {
        self.whitelist.is_empty()
    }

    /// Whether `x` matches a whitelist rule. No clamping: edge rules are
    /// unbounded, mirroring forest inference on out-of-range points.
    pub fn matches(&self, x: &[f32]) -> bool {
        self.whitelist.iter().any(|c| c.contains(x))
    }

    /// Index of the first whitelist cube containing `x` — the linear-scan
    /// reference the compiled [`RuleIndex`] must reproduce bit-for-bit.
    pub fn lookup(&self, x: &[f32]) -> Option<usize> {
        self.whitelist.iter().position(|c| c.contains(x))
    }

    /// Compiles the whitelist into a [`RuleIndex`] for sublinear
    /// first-match lookups.
    pub fn build_index(&self) -> RuleIndex {
        RuleIndex::build(self)
    }

    /// Hard prediction: malicious iff no whitelist rule matches.
    pub fn predict(&self, x: &[f32]) -> bool {
        !self.matches(x)
    }

    /// Batch predictions over the rows of `xs`, in parallel through the
    /// compiled index. Rows are processed in fixed-size chunks with one
    /// scratch buffer per chunk, so the output is byte-identical at any
    /// `IGUARD_WORKERS` setting — and, because the index agrees with the
    /// scan on every key, identical to mapping [`RuleSet::predict`] over
    /// the rows (cross-checked per row in debug builds).
    pub fn predictions(&self, xs: &Dataset) -> Vec<bool> {
        const CHUNK: usize = 1024;
        let n = xs.rows();
        if n == 0 {
            return Vec::new();
        }
        let index = self.build_index();
        let starts: Vec<usize> = (0..n).step_by(CHUNK).collect();
        let parts = par::par_map_vec(starts, |start| {
            let end = (start + CHUNK).min(n);
            let mut scratch = Vec::new();
            let mut out = Vec::with_capacity(end - start);
            for i in start..end {
                let hit = index.lookup(xs.row(i), &mut scratch);
                debug_assert_eq!(hit, self.lookup(xs.row(i)), "index/scan divergence at row {i}");
                out.push(hit.is_none());
            }
            out
        });
        parts.into_iter().flatten().collect()
    }

    /// Serialises the rule set to a line-oriented TSV document.
    ///
    /// `f32` values print through `Display`, whose shortest-round-trip
    /// output parses back to the identical bit pattern (infinities print
    /// as `inf`/`-inf`), so `from_tsv(to_tsv())` reproduces the rule set
    /// exactly — no binary encoding needed.
    pub fn to_tsv(&self) -> String {
        let dim = self.bounds.len();
        let mut out = String::new();
        out.push_str(&format!(
            "iguard-ruleset\tv1\t{}\t{}\t{}\n",
            dim,
            self.total_regions,
            self.whitelist.len()
        ));
        let push_vals = |out: &mut String, tag: &str, vals: &[f32]| {
            out.push_str(tag);
            for v in vals {
                out.push('\t');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        };
        let (los, his): (Vec<f32>, Vec<f32>) = self.bounds.iter().copied().unzip();
        push_vals(&mut out, "bounds_lo", &los);
        push_vals(&mut out, "bounds_hi", &his);
        for cube in &self.whitelist {
            let mut line = cube.lo.clone();
            line.extend_from_slice(&cube.hi);
            push_vals(&mut out, "rule", &line);
        }
        out
    }

    /// Parses a document produced by [`RuleSet::to_tsv`].
    pub fn from_tsv(s: &str) -> Result<Self, String> {
        fn vals(fields: &[&str]) -> Result<Vec<f32>, String> {
            fields
                .iter()
                .map(|f| f.parse::<f32>().map_err(|e| format!("bad float {f:?}: {e}")))
                .collect()
        }
        let mut lines = s.lines();
        let header = lines.next().ok_or("empty document")?;
        let h: Vec<&str> = header.split('\t').collect();
        if h.len() != 5 || h[0] != "iguard-ruleset" || h[1] != "v1" {
            return Err(format!("bad header: {header:?}"));
        }
        let dim: usize = h[2].parse().map_err(|e| format!("bad dim: {e}"))?;
        let total_regions: usize = h[3].parse().map_err(|e| format!("bad total_regions: {e}"))?;
        let n_rules: usize = h[4].parse().map_err(|e| format!("bad rule count: {e}"))?;
        let mut expect = |tag: &str| -> Result<Vec<f32>, String> {
            let line = lines.next().ok_or_else(|| format!("missing {tag} line"))?;
            let f: Vec<&str> = line.split('\t').collect();
            if f.first() != Some(&tag) {
                return Err(format!("expected {tag} line, got {line:?}"));
            }
            vals(&f[1..])
        };
        let los = expect("bounds_lo")?;
        let his = expect("bounds_hi")?;
        if los.len() != dim || his.len() != dim {
            return Err("bounds width mismatch".into());
        }
        let bounds: Vec<(f32, f32)> = los.into_iter().zip(his).collect();
        let mut whitelist = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let line = expect("rule")?;
            if line.len() != 2 * dim {
                return Err(format!("rule width {} != 2*{dim}", line.len()));
            }
            whitelist.push(Hypercube { lo: line[..dim].to_vec(), hi: line[dim..].to_vec() });
        }
        Ok(Self { bounds, whitelist, total_regions })
    }
}

/// Bounds on the path length a point inside region `[lo, hi)` can attain
/// in a conventional iTree. Straddled splits explore both children; the
/// first straddle encountered is recorded for region splitting.
fn iforest_path_bounds(
    node: &IfNode,
    lo: &[f32],
    hi: &[f32],
    depth: usize,
    first_straddle: &mut Option<(usize, f32)>,
) -> (f64, f64) {
    match node {
        IfNode::Leaf { size } => {
            let p = depth as f64 + iguard_iforest::tree::average_path_length(*size);
            (p, p)
        }
        IfNode::Internal { feature, split, left, right } => {
            if hi[*feature] <= *split {
                iforest_path_bounds(left, lo, hi, depth + 1, first_straddle)
            } else if lo[*feature] >= *split {
                iforest_path_bounds(right, lo, hi, depth + 1, first_straddle)
            } else {
                first_straddle.get_or_insert((*feature, *split));
                let l = iforest_path_bounds(left, lo, hi, depth + 1, first_straddle);
                let r = iforest_path_bounds(right, lo, hi, depth + 1, first_straddle);
                (l.0.min(r.0), l.1.max(r.1))
            }
        }
    }
}

/// Greedy merging of adjacent same-label boxes: two boxes merge when they
/// agree on every dimension except one where they abut exactly. Runs to a
/// fixpoint over all axes.
///
/// Implementation: see [`merge_rows`]. A pass is one sort per axis,
/// `O(d · n log n)` comparisons of up to `d − 1` packed words each plus a
/// linear sweep, and `n` shrinks with every merge — which matters, as
/// baseline iForests can decompose into 10⁵ regions.
pub fn merge_adjacent(cubes: Vec<Hypercube>) -> Vec<Hypercube> {
    let Some(first) = cubes.first() else {
        return cubes;
    };
    let mut rows = Dataset::new(2 * first.dims());
    let mut row = Vec::with_capacity(rows.cols());
    for cube in &cubes {
        row.clear();
        row.extend_from_slice(&cube.lo);
        row.extend_from_slice(&cube.hi);
        rows.push_row(&row);
    }
    merge_rows(&rows)
}

/// [`merge_adjacent`] on flat `lo ‖ hi` rows.
///
/// Each box becomes one `u64` word per axis holding the bit patterns of
/// `(lo, hi)`, `lo` in the high half, so comparing words compares the
/// bounds' bits lexicographically. For each axis `d`, a sort orders a box
/// index by the words of every other axis (ascending axis order), then by
/// `lo[d]` under `total_cmp` (so a NaN bound cannot panic the sort), then
/// by input position; a sweep then extends the last emitted box while the
/// next one has the same other-axis words and starts exactly where it
/// ends on `d`. Boxes with equal other-axis words form one group: groups
/// come out in key order and each keeps its input order among equal
/// `lo[d]`.
fn merge_rows(rows: &Dataset) -> Vec<Hypercube> {
    /// The group key on axis `d`: every axis's word but `d`'s.
    fn key(w: &[u64], d: usize) -> (&[u64], &[u64]) {
        (&w[..d], &w[d + 1..])
    }
    const HI: u64 = 0xFFFF_FFFF;
    let lo_of = |w: u64| f32::from_bits((w >> 32) as u32);
    let hi_of = |w: u64| f32::from_bits((w & HI) as u32);
    let dim = rows.cols() / 2;
    let mut n = rows.rows();
    if n == 0 {
        return Vec::new();
    }
    let mut words: Vec<u64> = (0..n)
        .flat_map(|i| {
            let (lo, hi) = rows.row(i).split_at(dim);
            lo.iter().zip(hi).map(|(l, h)| (l.to_bits() as u64) << 32 | h.to_bits() as u64)
        })
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut out: Vec<u64> = Vec::with_capacity(words.len());
    loop {
        counter!("core.rules.merge_pass").inc();
        let mut merged_any = false;
        for d in 0..dim {
            order.clear();
            order.extend(0..n);
            order.sort_unstable_by(|&i, &j| {
                let (a, b) = (&words[i * dim..][..dim], &words[j * dim..][..dim]);
                key(a, d)
                    .cmp(&key(b, d))
                    .then_with(|| lo_of(a[d]).total_cmp(&lo_of(b[d])))
                    .then(i.cmp(&j))
            });
            out.clear();
            for &i in &order {
                let next = &words[i * dim..][..dim];
                if let Some(last) = out.len().checked_sub(dim).map(|at| &mut out[at..]) {
                    if hi_of(last[d]) == lo_of(next[d]) && key(last, d) == key(next, d) {
                        last[d] = (last[d] & !HI) | (next[d] & HI);
                        merged_any = true;
                        continue;
                    }
                }
                out.extend_from_slice(next);
            }
            n = out.len() / dim;
            std::mem::swap(&mut words, &mut out);
        }
        if !merged_any {
            break;
        }
    }
    (0..n)
        .map(|i| {
            let w = &words[i * dim..][..dim];
            Hypercube {
                lo: w.iter().map(|&w| lo_of(w)).collect(),
                hi: w.iter().map(|&w| hi_of(w)).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::IGuardConfig;
    use crate::teacher::OracleTeacher;
    use iguard_runtime::rng::Rng;

    fn cube(lo: &[f32], hi: &[f32]) -> Hypercube {
        Hypercube { lo: lo.to_vec(), hi: hi.to_vec() }
    }

    fn uniform2(n: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        d
    }

    #[test]
    fn merge_adjacent_survives_nan_bounds() {
        // A NaN bound must not panic the merge sort — NaN cubes sort last
        // under `total_cmp` and simply fail to merge with anything.
        let cubes = vec![
            cube(&[0.0, 0.0], &[0.5, 1.0]),
            cube(&[f32::NAN, 0.0], &[1.0, 1.0]),
            cube(&[0.5, 0.0], &[1.0, 1.0]),
        ];
        let merged = merge_adjacent(cubes);
        assert_eq!(merged.len(), 2, "finite pair merges, NaN cube survives");
    }

    #[test]
    fn contains_is_half_open() {
        let c = cube(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(c.contains(&[0.0, 0.5]));
        assert!(!c.contains(&[1.0, 0.5]));
        assert!(!c.contains(&[0.5, -0.1]));
    }

    #[test]
    fn merge_abutting_boxes() {
        let merged =
            merge_adjacent(vec![cube(&[0.0, 0.0], &[0.5, 1.0]), cube(&[0.5, 0.0], &[1.0, 1.0])]);
        assert_eq!(merged, vec![cube(&[0.0, 0.0], &[1.0, 1.0])]);
    }

    #[test]
    fn merge_is_transitive_across_passes() {
        // Three boxes in a row merge into one (needs a second pass).
        let merged =
            merge_adjacent(vec![cube(&[0.0], &[1.0]), cube(&[2.0], &[3.0]), cube(&[1.0], &[2.0])]);
        assert_eq!(merged, vec![cube(&[0.0], &[3.0])]);
    }

    #[test]
    fn no_merge_across_gap_or_two_axes() {
        let gap = merge_adjacent(vec![cube(&[0.0], &[1.0]), cube(&[1.5], &[2.0])]);
        assert_eq!(gap.len(), 2);
        let diag =
            merge_adjacent(vec![cube(&[0.0, 0.0], &[1.0, 1.0]), cube(&[1.0, 1.0], &[2.0, 2.0])]);
        assert_eq!(diag.len(), 2);
    }

    fn trained_forest(rng: &mut Rng) -> (IGuardForest, Dataset) {
        let data = uniform2(512, rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.6);
        let cfg = IGuardConfig { n_trees: 7, subsample: 128, k_augment: 32, ..Default::default() };
        let mut forest = IGuardForest::fit(&data, &teacher, &cfg, rng);
        forest.distill(&data, &teacher, 16, rng);
        (forest, data)
    }

    /// The paper's consistency check: rules reproduce the distilled forest.
    #[test]
    fn rules_are_consistent_with_forest() {
        let mut rng = Rng::seed_from_u64(1);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        let mut agree = 0usize;
        let n = 1000;
        for _ in 0..n {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            if rules.predict(&x) == forest.predict(&x) {
                agree += 1;
            }
        }
        let c = agree as f64 / n as f64;
        assert!(c >= 0.99, "consistency {c} below paper's 0.992–0.996 band");
    }

    #[test]
    fn whitelist_covers_benign_side() {
        let mut rng = Rng::seed_from_u64(2);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        assert!(!rules.is_empty());
        assert!(rules.matches(&[0.2, 0.5]), "benign point must match whitelist");
        assert!(rules.predict(&[0.9, 0.5]), "malicious point must not match");
    }

    #[test]
    fn out_of_range_points_follow_forest_semantics() {
        let mut rng = Rng::seed_from_u64(3);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        // Edge rules are unbounded: far outside the training bounds the
        // verdict matches the forest's own leaf routing.
        for x in [[-100.0f32, 0.5], [100.0, 0.5], [0.5, 1e9], [0.5, -1e9]] {
            assert_eq!(rules.predict(&x), forest.predict(&x), "x = {x:?}");
        }
    }

    #[test]
    fn budget_violation_reported() {
        let mut rng = Rng::seed_from_u64(4);
        let (forest, _) = trained_forest(&mut rng);
        match RuleSet::from_iguard(&forest, 1) {
            Err(err @ RuleGenError::TooManyRegions { budget: 1, reached }) => {
                assert!(reached > 1, "reached ({reached}) must exceed the budget of 1");
                let msg = err.to_string();
                assert!(
                    msg.contains("budget of 1") && msg.contains(&format!("reached {reached}")),
                    "error message must name budget and reached count: {msg:?}"
                );
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn undistilled_forest_is_a_typed_error() {
        let mut rng = Rng::seed_from_u64(10);
        let data = uniform2(128, &mut rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.6);
        let cfg = IGuardConfig { n_trees: 3, subsample: 64, ..Default::default() };
        let forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
        let err = RuleSet::from_iguard(&forest, 100_000).unwrap_err();
        assert_eq!(err, RuleGenError::NotDistilled);
        assert!(err.to_string().contains("not distilled"), "{err}");
    }

    #[test]
    fn iforest_rules_flag_outliers() {
        let mut rng = Rng::seed_from_u64(5);
        let mut data = Dataset::new(2);
        for _ in 0..512 {
            data.push_row(&[0.5 + rng.gen_range(-0.1..0.1), 0.5 + rng.gen_range(-0.1..0.1)]);
        }
        let cfg = iguard_iforest::IsolationForestConfig {
            n_trees: 10,
            subsample: 64,
            contamination: 0.05,
        };
        let forest = IsolationForest::fit(&data, &cfg, &mut rng);
        let bounds = vec![(0.0f32, 1.0), (0.0, 1.0)];
        let rules = RuleSet::from_iforest(&forest, &bounds, 500_000).unwrap();
        // Consistency with the thresholded forest on in-bounds points.
        let mut agree = 0;
        for _ in 0..500 {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            if rules.predict(&x) == forest.predict(&x) {
                agree += 1;
            }
        }
        assert!(agree >= 495, "iforest rule consistency {agree}/500");
    }

    #[test]
    fn decomposition_partitions_space() {
        // Regions (kept + dropped) must tile the bounds: check by sampling
        // that exactly one benign box contains any benign-predicted point.
        let mut rng = Rng::seed_from_u64(6);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        for _ in 0..300 {
            let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let hits = rules.whitelist.iter().filter(|c| c.contains(&x)).count();
            assert!(hits <= 1, "point {x:?} in {hits} merged boxes");
        }
    }

    /// The compiled index returns the identical rule as the linear scan on
    /// a trained whitelist, and batch `predictions` (which run through the
    /// index) equal per-point `predict` at any worker count.
    #[test]
    fn index_and_predictions_agree_with_linear_scan() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(9);
        let (forest, data) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        let index = rules.build_index();
        let mut scratch = Vec::new();
        for _ in 0..1000 {
            let x = vec![rng.gen_range(-0.5..1.5) as f32, rng.gen_range(-0.5..1.5) as f32];
            assert_eq!(index.lookup(&x, &mut scratch), rules.lookup(&x), "x = {x:?}");
        }
        let expect: Vec<bool> = (0..data.rows()).map(|i| rules.predict(data.row(i))).collect();
        for workers in [1, 2, 8] {
            let got = with_workers(workers, || rules.predictions(&data));
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    /// Same seed ⇒ identical whitelist regardless of worker count.
    #[test]
    fn compilation_identical_at_any_worker_count() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(7);
        let (forest, _) = trained_forest(&mut rng);
        let run = |workers: usize| {
            with_workers(workers, || RuleSet::from_iguard(&forest, 100_000).unwrap())
        };
        let serial = run(1);
        for workers in [2, 8] {
            let r = run(workers);
            assert_eq!(serial.whitelist, r.whitelist, "workers = {workers}");
            assert_eq!(serial.total_regions, r.total_regions);
        }
    }

    /// TSV round trip is exact, including unbounded edge rules.
    #[test]
    fn tsv_round_trip_is_exact() {
        let mut rng = Rng::seed_from_u64(8);
        let (forest, _) = trained_forest(&mut rng);
        let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
        assert!(rules.whitelist.iter().any(|c| c.lo.iter().any(|v| v.is_infinite())));
        let back = RuleSet::from_tsv(&rules.to_tsv()).unwrap();
        assert_eq!(rules.bounds, back.bounds);
        assert_eq!(rules.whitelist, back.whitelist);
        assert_eq!(rules.total_regions, back.total_regions);
    }

    #[test]
    fn tsv_rejects_corrupt_input() {
        assert!(RuleSet::from_tsv("").is_err());
        assert!(RuleSet::from_tsv("not-a-ruleset\tv1\t2\t0\t0").is_err());
        assert!(RuleSet::from_tsv(
            "iguard-ruleset\tv1\t2\t5\t1\nbounds_lo\t0\t0\nbounds_hi\t1\t1\nrule\t0\t0\t1"
        )
        .is_err());
    }
}
