//! Property-based tests for the iGuard core: rule/forest equivalence and
//! decomposition invariants on randomly grown forests.

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::guided::{best_split, entropy};
use iguard_core::rules::{merge_adjacent, Hypercube, RuleSet};
use iguard_core::teacher::OracleTeacher;
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

/// Half-open boxes intersect iff they overlap on every axis.
fn overlaps(a: &Hypercube, b: &Hypercube) -> bool {
    a.lo.iter()
        .zip(&a.hi)
        .zip(b.lo.iter().zip(&b.hi))
        .all(|((alo, ahi), (blo, bhi))| alo < bhi && blo < ahi)
}

/// A random irregular grid: per-axis sorted cut points at arbitrary float
/// positions, from which a random subset of (pairwise-disjoint) cells is
/// selected — the same shape `RuleSet` decomposition hands to
/// `merge_adjacent`, minus any alignment to unit coordinates.
fn random_grid_cells(rng: &mut Rng, dim: usize, cells_per_axis: usize) -> Vec<Hypercube> {
    let axes: Vec<Vec<f32>> = (0..dim)
        .map(|_| {
            let mut cuts: Vec<f32> =
                (0..=cells_per_axis).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            cuts.dedup();
            cuts
        })
        .collect();
    let mut cells = Vec::new();
    let mut idx = vec![0usize; dim];
    loop {
        if rng.gen_bool(0.5) {
            let lo: Vec<f32> = (0..dim).map(|d| axes[d][idx[d]]).collect();
            let hi: Vec<f32> = (0..dim).map(|d| axes[d][idx[d] + 1]).collect();
            cells.push(Hypercube { lo, hi });
        }
        // Odometer over the per-axis cell indices.
        let mut d = 0;
        loop {
            if d == dim {
                return cells;
            }
            idx[d] += 1;
            if idx[d] + 1 < axes[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

/// Bounds that stress the merge and the split search: ties, both zeros,
/// both infinities and both NaN signs.
const AWKWARD: [f32; 10] =
    [f32::NEG_INFINITY, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, f32::INFINITY, f32::NAN, -f32::NAN];

fn awkward_value(rng: &mut Rng) -> f32 {
    if rng.gen_bool(0.75) {
        AWKWARD[rng.gen_range(0..AWKWARD.len())]
    } else {
        rng.gen_range(-2.0f32..2.0)
    }
}

/// Every bound's bit pattern, in order: `Hypercube`'s `PartialEq` would
/// equate -0.0 with 0.0 and never NaN with NaN.
fn cube_bits(cubes: &[Hypercube]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
    cubes.iter().map(|c| (bits(&c.lo), bits(&c.hi))).collect()
}

/// The hash-grouped merge `merge_adjacent` replaced, kept as the oracle of
/// its output and output order: per axis, group boxes by the bit patterns
/// of their other axes, visit groups in key order, sort each group by the
/// axis' lower bound and coalesce abutting runs.
fn reference_merge(mut cubes: Vec<Hypercube>) -> Vec<Hypercube> {
    use std::collections::HashMap;
    if cubes.is_empty() {
        return cubes;
    }
    let dims = cubes[0].lo.len();
    loop {
        let mut merged_any = false;
        for d in 0..dims {
            let mut groups: HashMap<Vec<u32>, Vec<Hypercube>> = HashMap::new();
            for cube in cubes.drain(..) {
                let mut key = Vec::with_capacity(2 * (dims - 1));
                for a in (0..dims).filter(|&a| a != d) {
                    key.push(cube.lo[a].to_bits());
                    key.push(cube.hi[a].to_bits());
                }
                groups.entry(key).or_default().push(cube);
            }
            let mut keyed: Vec<(Vec<u32>, Vec<Hypercube>)> = groups.into_iter().collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (_, mut group) in keyed {
                group.sort_by(|a, b| a.lo[d].total_cmp(&b.lo[d]));
                let mut run: Option<Hypercube> = None;
                for cube in group {
                    match run.take() {
                        None => run = Some(cube),
                        Some(mut prev) => {
                            if prev.hi[d] == cube.lo[d] {
                                prev.hi[d] = cube.hi[d];
                                merged_any = true;
                                run = Some(prev);
                            } else {
                                cubes.push(prev);
                                run = Some(cube);
                            }
                        }
                    }
                }
                cubes.extend(run);
            }
        }
        if !merged_any {
            return cubes;
        }
    }
}

/// The candidate generator the one-sort split search replaced: sorted,
/// `==`-deduplicated column values (NaNs kept), midpoints of evenly spaced
/// order statistics, non-finite midpoints dropped, repeats collapsed.
fn reference_candidates(decision: &Dataset, q: usize, n_candidates: usize) -> Vec<f32> {
    let mut vals: Vec<f32> = decision.iter_rows().map(|x| x[q]).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals.dedup();
    if vals.len() < 2 {
        return Vec::new();
    }
    let n = (vals.len() - 1).min(n_candidates);
    let mut out: Vec<f32> = Vec::new();
    for i in 1..=n {
        let pos = (i * (vals.len() - 1) / (n + 1)).min(vals.len() - 2);
        let p = 0.5 * (vals[pos] + vals[pos + 1]);
        if p.is_finite() && out.last() != Some(&p) {
            out.push(p);
        }
    }
    out
}

/// The split search the one-sort version replaced: one counting pass over
/// every decision row per candidate.
fn reference_best_split(
    decision: &Dataset,
    labels: &[bool],
    n_candidates: usize,
) -> Option<(usize, f32, f64)> {
    let n_mal = labels.iter().filter(|&&l| l).count();
    let parent_h = entropy(n_mal, labels.len());
    let mut best: Option<(usize, f32, f64)> = None;
    for q in 0..decision.cols() {
        for p in reference_candidates(decision, q, n_candidates) {
            let (mut lm, mut ln, mut rm, mut rn) = (0usize, 0usize, 0usize, 0usize);
            for (x, &mal) in decision.iter_rows().zip(labels) {
                if x[q] < p {
                    ln += 1;
                    lm += usize::from(mal);
                } else {
                    rn += 1;
                    rm += usize::from(mal);
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
    best
}

/// A split as bit patterns, so -0.0 and NaN compare exactly.
fn split_bits(s: Option<(usize, f32, f64)>) -> Option<(usize, u32, u64)> {
    s.map(|(q, p, g)| (q, p.to_bits(), g.to_bits()))
}

fn trained_forest(seed: u64, cut: f32) -> IGuardForest {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Dataset::new(3);
    for _ in 0..256 {
        data.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
    }
    let teacher = OracleTeacher(move |x: &[f32]| x[0] > cut);
    let cfg = IGuardConfig { n_trees: 5, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
    forest.distill(&data, &teacher, 16, &mut rng);
    forest
}

proptest_lite! {
    /// The compiled rule set agrees with the distilled forest everywhere —
    /// including far outside the training bounds.
    fn rules_equal_forest(rng, cases = 8) {
        let seed = rng.gen_range(0u64..50);
        let cut = rng.gen_range(0.2f32..0.8);
        let forest = trained_forest(seed, cut);
        let rules = RuleSet::from_iguard(&forest, 400_000).unwrap();
        let mut probe_rng = Rng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..200 {
            let x: Vec<f32> = (0..3).map(|_| probe_rng.gen_range(-2.0..3.0)).collect();
            assert_eq!(rules.predict(&x), forest.predict(&x), "at {x:?}");
        }
    }

    /// Merged whitelist boxes never overlap: any point lies in ≤ 1 box.
    fn whitelist_boxes_disjoint(rng, cases = 8) {
        let seed = rng.gen_range(0u64..50);
        let cut = rng.gen_range(0.2f32..0.8);
        let forest = trained_forest(seed, cut);
        let rules = RuleSet::from_iguard(&forest, 400_000).unwrap();
        let mut probe_rng = Rng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..200 {
            let x: Vec<f32> = (0..3).map(|_| probe_rng.gen_range(0.0..1.0)).collect();
            let hits = rules.whitelist.iter().filter(|c| c.contains(&x)).count();
            assert!(hits <= 1, "{hits} boxes contain {x:?}");
        }
    }

    /// Merging never changes membership: a point is covered by the merged
    /// set iff it was covered by the original set.
    fn merge_preserves_coverage(rng) {
        // Unit grid cells, possibly duplicated.
        let n_boxes = rng.gen_range(1usize..12);
        let cubes: Vec<Hypercube> = (0..n_boxes)
            .map(|_| {
                let i = rng.gen_range(0u8..8);
                let j = rng.gen_range(0u8..8);
                Hypercube {
                    lo: vec![i as f32, j as f32],
                    hi: vec![i as f32 + 1.0, j as f32 + 1.0],
                }
            })
            .collect();
        let merged = merge_adjacent(cubes.clone());
        assert!(merged.len() <= cubes.len());
        for _ in 0..20 {
            let p = [rng.gen_range(0.0f32..8.0), rng.gen_range(0.0f32..8.0)];
            let before = cubes.iter().any(|c| c.contains(&p));
            let after = merged.iter().any(|c| c.contains(&p));
            assert_eq!(before, after, "coverage changed at {p:?}");
        }
    }

    /// `merge_adjacent` on disjoint irregular grid cells emits boxes that
    /// are pairwise disjoint by exact interval arithmetic (not sampling),
    /// and that preserve total volume.
    fn merged_boxes_geometrically_disjoint(rng) {
        let dim = rng.gen_range(1usize..4);
        let per_axis = rng.gen_range(2usize..5);
        let cells = random_grid_cells(rng, dim, per_axis);
        let input_volume: f64 = cells.iter().map(Hypercube::volume).sum();
        let merged = merge_adjacent(cells);
        for (i, a) in merged.iter().enumerate() {
            for b in &merged[i + 1..] {
                assert!(!overlaps(a, b), "merged boxes overlap: {a:?} vs {b:?}");
            }
        }
        let merged_volume: f64 = merged.iter().map(Hypercube::volume).sum();
        // Extents are f32: a merged box's extent (c - a) and the sum of its
        // parts (b - a) + (c - b) round differently at ~1e-7 relative.
        let tol = 1e-4 * input_volume.abs().max(1.0);
        assert!(
            (merged_volume - input_volume).abs() <= tol,
            "volume changed: {input_volume} -> {merged_volume}"
        );
    }

    /// Merged boxes cover exactly the union of the inputs: membership is
    /// unchanged both for points drawn inside input cells and for arbitrary
    /// probes (which may fall in gaps or outside entirely).
    fn merge_union_exact_on_irregular_grid(rng) {
        let dim = rng.gen_range(1usize..4);
        let per_axis = rng.gen_range(2usize..5);
        let cells = random_grid_cells(rng, dim, per_axis);
        let merged = merge_adjacent(cells.clone());
        for _ in 0..30 {
            let p: Vec<f32> = (0..dim).map(|_| rng.gen_range(-6.0f32..6.0)).collect();
            let before = cells.iter().any(|c| c.contains(&p));
            let after = merged.iter().any(|c| c.contains(&p));
            assert_eq!(before, after, "coverage changed at probe {p:?}");
        }
        for cell in &cells {
            let p: Vec<f32> = cell
                .lo
                .iter()
                .zip(&cell.hi)
                .map(|(&l, &h)| l + (h - l) * rng.gen_range(0.0f32..1.0))
                .collect();
            if cell.contains(&p) {
                assert!(
                    merged.iter().any(|c| c.contains(&p)),
                    "interior point {p:?} of {cell:?} lost by merge"
                );
            }
        }
    }

    /// The compiled whitelist reproduces the forest's leaf-label *vote*
    /// (computed by hand from the trees and `votes_needed`, not via
    /// `IGuardForest::predict`) on 1k sampled points per case.
    fn ruleset_matches_forest_voting_on_1k_points(rng, cases = 4) {
        let seed = rng.gen_range(0u64..1000);
        let cut = rng.gen_range(0.2f32..0.8);
        let forest = trained_forest(seed, cut);
        let rules = RuleSet::from_iguard(&forest, 400_000).unwrap();
        let needed = forest.votes_needed();
        let mut probe = Rng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..1000 {
            let x: Vec<f32> = (0..3).map(|_| probe.gen_range(-1.0f32..2.0)).collect();
            let mal_votes =
                forest.trees().iter().filter(|t| t.predict(&x).expect("distilled")).count();
            let vote = mal_votes >= needed;
            assert_eq!(
                rules.predict(&x),
                vote,
                "rule/vote disagreement at {x:?} ({mal_votes}/{needed} votes)"
            );
        }
    }

    /// `merge_adjacent` reproduces the hash-grouped merge bit for bit and
    /// in order, on boxes with duplicates, faces shared on several axes and
    /// ±0.0, ±∞ and NaN bounds.
    fn merge_matches_hash_group_reference(rng, cases = 256) {
        let dim = rng.gen_range(1usize..4);
        let n = rng.gen_range(0usize..40);
        let mut cubes: Vec<Hypercube> = Vec::with_capacity(n);
        for _ in 0..n {
            if !cubes.is_empty() && rng.gen_bool(0.3) {
                // A duplicate, or a neighbour sharing every face but one.
                let mut c = cubes[rng.gen_range(0..cubes.len())].clone();
                if rng.gen_bool(0.5) {
                    let d = rng.gen_range(0..dim);
                    c.lo[d] = c.hi[d];
                    c.hi[d] = awkward_value(rng);
                }
                cubes.push(c);
            } else {
                let lo = (0..dim).map(|_| awkward_value(rng)).collect();
                let hi = (0..dim).map(|_| awkward_value(rng)).collect();
                cubes.push(Hypercube { lo, hi });
            }
        }
        let expect = reference_merge(cubes.clone());
        assert_eq!(cube_bits(&merge_adjacent(cubes)), cube_bits(&expect));
    }

    /// The one-sort split search picks the same `(q, p, gain)`, bit for
    /// bit, as a counting pass per candidate, on decision sets with ties,
    /// ±0.0, ±∞ and NaN values.
    fn best_split_matches_counting_reference(rng, cases = 256) {
        let cols = rng.gen_range(1usize..4);
        let rows = rng.gen_range(0usize..60);
        let mut decision = Dataset::new(cols);
        for _ in 0..rows {
            let row: Vec<f32> = (0..cols).map(|_| awkward_value(rng)).collect();
            decision.push_row(&row);
        }
        let p_mal = rng.gen_range(0.0f64..1.0);
        let labels: Vec<bool> = (0..rows).map(|_| rng.gen_bool(p_mal)).collect();
        let n_candidates = rng.gen_range(1usize..12);
        assert_eq!(
            split_bits(best_split(&decision, &labels, n_candidates)),
            split_bits(reference_best_split(&decision, &labels, n_candidates)),
        );
    }

    /// Binary entropy is bounded by [0, 1], symmetric, and zero at purity.
    fn entropy_properties(rng, cases = 256) {
        let mal = rng.gen_range(0usize..100);
        let extra = rng.gen_range(0usize..100);
        let total = mal + extra;
        let h = entropy(mal, total);
        assert!((0.0..=1.0 + 1e-12).contains(&h));
        assert!((h - entropy(extra, total)).abs() < 1e-12);
        assert_eq!(entropy(0, total), 0.0);
        assert_eq!(entropy(total, total), 0.0);
    }
}
