//! Confusion matrices and F1-family metrics.
//!
//! Convention throughout the workspace: **`true` = malicious = positive
//! class**, `false` = benign.

/// Binary confusion matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Malicious predicted malicious.
    pub tp: u64,
    /// Benign predicted malicious.
    pub fp: u64,
    /// Benign predicted benign.
    pub tn: u64,
    /// Malicious predicted benign.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_predictions(truth: &[bool], pred: &[bool]) -> Self {
        assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
        let mut cm = Self::default();
        for (&t, &p) in truth.iter().zip(pred) {
            cm.record(t, p);
        }
        cm
    }

    /// Records one observation.
    pub fn record(&mut self, truth: bool, pred: bool) {
        match (truth, pred) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// Merges another confusion matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of correct predictions; 0 if empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / total as f64
    }

    /// Precision of the positive (malicious) class; 0 when undefined.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall / true-positive rate of the positive class; 0 when undefined.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// False-positive rate; 0 when undefined.
    pub fn fpr(&self) -> f64 {
        let denom = self.fp + self.tn;
        if denom == 0 {
            0.0
        } else {
            self.fp as f64 / denom as f64
        }
    }

    /// F1 of the positive class; 0 when precision + recall = 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// The confusion matrix of the *negative* class (labels swapped).
    pub fn negated(&self) -> ConfusionMatrix {
        ConfusionMatrix { tp: self.tn, fp: self.fn_, tn: self.tp, fn_: self.fp }
    }

    /// Macro F1: unweighted mean of the positive-class F1 and the
    /// negative-class F1 — the headline accuracy metric of the paper.
    pub fn macro_f1(&self) -> f64 {
        (self.f1() + self.negated().f1()) / 2.0
    }
}

/// Convenience wrapper computing macro F1 straight from predictions.
pub fn macro_f1(truth: &[bool], pred: &[bool]) -> f64 {
    ConfusionMatrix::from_predictions(truth, pred).macro_f1()
}

/// The validation sweep: the first of `candidates` with the highest macro
/// F1 when predicting malicious for `score > t`, as `(t, macro_f1)`.
///
/// # Panics
/// Panics if `scores` and `truth` differ in length or `candidates` is
/// empty.
pub fn best_threshold_among(
    scores: &[f64],
    truth: &[bool],
    candidates: impl IntoIterator<Item = f64>,
) -> (f64, f64) {
    assert_eq!(scores.len(), truth.len(), "scores/truth length mismatch");
    let mut best: Option<(f64, f64)> = None;
    for t in candidates {
        let mut cm = ConfusionMatrix::default();
        for (&s, &y) in scores.iter().zip(truth) {
            cm.record(y, s > t);
        }
        let f1 = cm.macro_f1();
        if best.is_none_or(|(_, b)| f1 > b) {
            best = Some((t, f1));
        }
    }
    best.expect("need at least one candidate threshold")
}

/// [`best_threshold_among`] over 65 evenly spaced order statistics of
/// `scores` (all of them when there are fewer), lowest first: how every
/// experiment tunes a threshold on validation.
///
/// # Panics
/// Panics on empty or NaN scores, or a length mismatch with `truth`.
pub fn best_threshold(scores: &[f64], truth: &[bool]) -> (f64, f64) {
    assert!(!scores.is_empty(), "need validation scores");
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n_cand = 64.min(sorted.len());
    let last = sorted.len() - 1;
    best_threshold_among(scores, truth, (0..=n_cand).map(|i| sorted[i * last / n_cand]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_one() {
        let truth = vec![true, false, true, false];
        let cm = ConfusionMatrix::from_predictions(&truth, &truth);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
        assert_eq!(cm.fpr(), 0.0);
    }

    #[test]
    fn counts_are_placed_correctly() {
        let truth = vec![true, true, false, false];
        let pred = vec![true, false, true, false];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred);
        assert_eq!((cm.tp, cm.fn_, cm.fp, cm.tn), (1, 1, 1, 1));
        assert_eq!(cm.accuracy(), 0.5);
    }

    #[test]
    fn hand_computed_macro_f1() {
        // tp=8, fn=2, fp=1, tn=9.
        let cm = ConfusionMatrix { tp: 8, fp: 1, tn: 9, fn_: 2 };
        let f1_pos = 2.0 * (8.0 / 9.0) * (8.0 / 10.0) / ((8.0 / 9.0) + (8.0 / 10.0));
        let f1_neg = 2.0 * (9.0 / 11.0) * (9.0 / 10.0) / ((9.0 / 11.0) + (9.0 / 10.0));
        assert!((cm.macro_f1() - (f1_pos + f1_neg) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_all_negative_is_defined() {
        let truth = vec![false, false];
        let pred = vec![false, false];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred);
        assert_eq!(cm.f1(), 0.0); // no positives: positive F1 undefined -> 0
        assert_eq!(cm.negated().f1(), 1.0);
        assert_eq!(cm.macro_f1(), 0.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfusionMatrix { tp: 1, fp: 2, tn: 3, fn_: 4 };
        a.merge(&ConfusionMatrix { tp: 10, fp: 20, tn: 30, fn_: 40 });
        assert_eq!(a, ConfusionMatrix { tp: 11, fp: 22, tn: 33, fn_: 44 });
    }

    #[test]
    fn finds_separating_threshold() {
        let scores = vec![0.1, 0.2, 0.3, 0.8, 0.9, 1.0];
        let truth = vec![false, false, false, true, true, true];
        let (thr, f1) = best_threshold(&scores, &truth);
        assert!((0.3..0.8).contains(&thr), "threshold {thr}");
        assert_eq!(f1, 1.0);
    }

    #[test]
    fn degenerate_scores_still_return() {
        let scores = vec![0.5; 10];
        let truth: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let (_, f1) = best_threshold(&scores, &truth);
        assert!(f1 >= 0.0);
    }

    #[test]
    fn sweep_keeps_the_first_best_candidate() {
        let scores = vec![0.1, 0.2, 0.9];
        let truth = vec![false, false, true];
        // 0.3 and 0.5 both separate perfectly; 0.0 does not.
        assert_eq!(best_threshold_among(&scores, &truth, [0.0, 0.3, 0.5]), (0.3, 1.0));
        assert_eq!(best_threshold_among(&scores, &truth, [0.5, 0.3]), (0.5, 1.0));
        // A lone candidate wins whatever it scores.
        assert_eq!(best_threshold_among(&scores, &truth, [1.0]).0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn sweep_rejects_no_candidates() {
        let _ = best_threshold_among(&[0.5], &[true], []);
    }

    #[test]
    fn negated_is_involution() {
        let cm = ConfusionMatrix { tp: 5, fp: 3, tn: 7, fn_: 2 };
        assert_eq!(cm.negated().negated(), cm);
    }
}
