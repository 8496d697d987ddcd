//! Planted ground truth and precision/recall evaluation.
//!
//! Because the workload generator plants the semantic atoms, every generated
//! schema pair knows its true correspondences exactly — enabling the
//! quantitative evaluation (precision / recall / F1 at a threshold) that the
//! paper's real engagement could not perform.

use harmony_core::correspondence::MatchSet;
use sm_schema::ElementId;
use std::collections::{HashMap, HashSet};

use crate::ontology::SemanticId;

/// Ground truth of one generated schema pair.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// True correspondences (source element, target element).
    pairs: HashSet<(ElementId, ElementId)>,
    /// Semantic atom realized by each source element.
    pub source_semantics: HashMap<ElementId, SemanticId>,
    /// Semantic atom realized by each target element.
    pub target_semantics: HashMap<ElementId, SemanticId>,
}

/// Precision/recall evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrEval {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// tp / (tp + fp); 1.0 when nothing was predicted.
    pub precision: f64,
    /// tp / (tp + fn); 1.0 when nothing was true.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl GroundTruth {
    /// Record a true correspondence.
    pub fn add_pair(&mut self, source: ElementId, target: ElementId) {
        self.pairs.insert((source, target));
    }

    /// All true pairs.
    pub fn pairs(&self) -> &HashSet<(ElementId, ElementId)> {
        &self.pairs
    }

    /// Number of true pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs are planted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Is `(source, target)` a true correspondence?
    pub fn is_match(&self, source: ElementId, target: ElementId) -> bool {
        self.pairs.contains(&(source, target))
    }

    /// Distinct target elements participating in some true pair — the
    /// denominator of the paper's "34% of S_B matched".
    pub fn matched_targets(&self) -> HashSet<ElementId> {
        self.pairs.iter().map(|&(_, t)| t).collect()
    }

    /// Distinct source elements participating in some true pair.
    pub fn matched_sources(&self) -> HashSet<ElementId> {
        self.pairs.iter().map(|&(s, _)| s).collect()
    }

    /// Evaluate predicted `(source, target)` pairs.
    pub fn evaluate_pairs<'a, I>(&self, predicted: I) -> PrEval
    where
        I: IntoIterator<Item = &'a (ElementId, ElementId)>,
    {
        let predicted: HashSet<(ElementId, ElementId)> = predicted.into_iter().copied().collect();
        let tp = predicted.intersection(&self.pairs).count();
        let fp = predicted.len() - tp;
        let fn_ = self.pairs.len() - tp;
        PrEval::from_counts(tp, fp, fn_)
    }

    /// Evaluate a [`MatchSet`]'s *validated* correspondences.
    pub fn evaluate_validated(&self, matches: &MatchSet) -> PrEval {
        let predicted: Vec<(ElementId, ElementId)> =
            matches.validated().map(|c| (c.source, c.target)).collect();
        self.evaluate_pairs(predicted.iter())
    }

    /// Evaluate *all* correspondences of a set regardless of status (useful
    /// for raw selection-policy output).
    pub fn evaluate_all(&self, matches: &MatchSet) -> PrEval {
        let predicted: Vec<(ElementId, ElementId)> =
            matches.all().iter().map(|c| (c.source, c.target)).collect();
        self.evaluate_pairs(predicted.iter())
    }
}

impl PrEval {
    /// Build from raw counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Self {
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PrEval {
            tp,
            fp,
            fn_,
            precision,
            recall,
            f1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::confidence::Confidence;
    use harmony_core::correspondence::{Correspondence, MatchAnnotation};

    fn truth() -> GroundTruth {
        let mut t = GroundTruth::default();
        t.add_pair(ElementId(0), ElementId(0));
        t.add_pair(ElementId(1), ElementId(1));
        t.add_pair(ElementId(2), ElementId(2));
        t
    }

    #[test]
    fn perfect_prediction() {
        let t = truth();
        let predicted = [
            (ElementId(0), ElementId(0)),
            (ElementId(1), ElementId(1)),
            (ElementId(2), ElementId(2)),
        ];
        let e = t.evaluate_pairs(predicted.iter());
        assert_eq!((e.tp, e.fp, e.fn_), (3, 0, 0));
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
        assert_eq!(e.f1, 1.0);
    }

    #[test]
    fn partial_prediction() {
        let t = truth();
        let predicted = [
            (ElementId(0), ElementId(0)),
            (ElementId(5), ElementId(5)), // fp
        ];
        let e = t.evaluate_pairs(predicted.iter());
        assert_eq!((e.tp, e.fp, e.fn_), (1, 1, 2));
        assert!((e.precision - 0.5).abs() < 1e-12);
        assert!((e.recall - 1.0 / 3.0).abs() < 1e-12);
        assert!(e.f1 > 0.0 && e.f1 < 1.0);
    }

    #[test]
    fn empty_prediction_and_empty_truth() {
        let t = truth();
        let e = t.evaluate_pairs(std::iter::empty::<&(ElementId, ElementId)>());
        assert_eq!(e.precision, 1.0, "vacuous precision");
        assert_eq!(e.recall, 0.0);
        assert_eq!(e.f1, 0.0);

        let empty = GroundTruth::default();
        let e2 = empty.evaluate_pairs(std::iter::empty::<&(ElementId, ElementId)>());
        assert_eq!(e2.recall, 1.0, "vacuous recall");
    }

    #[test]
    fn validated_only_counted() {
        let t = truth();
        let mut m = MatchSet::new();
        m.push(
            Correspondence::candidate(ElementId(0), ElementId(0), Confidence::new(0.9))
                .validate("a", MatchAnnotation::Equivalent),
        );
        m.push(Correspondence::candidate(
            ElementId(1),
            ElementId(1),
            Confidence::new(0.9),
        )); // candidate: not counted by evaluate_validated
        let e = t.evaluate_validated(&m);
        assert_eq!(e.tp, 1);
        let e_all = t.evaluate_all(&m);
        assert_eq!(e_all.tp, 2);
    }

    #[test]
    fn matched_sets() {
        let t = truth();
        assert_eq!(t.matched_targets().len(), 3);
        assert_eq!(t.matched_sources().len(), 3);
        assert!(t.is_match(ElementId(0), ElementId(0)));
        assert!(!t.is_match(ElementId(0), ElementId(1)));
    }
}
