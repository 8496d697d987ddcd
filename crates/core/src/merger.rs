//! Vote mergers.
//!
//! The paper (§3.2): *"A vote merger combines the confidence scores into a
//! single match score … based on how confident each match voter is regarding
//! a given correspondence."* [`MergeStrategy::HarmonyWeighted`] implements
//! that commitment-weighted combination; the alternatives reproduce the
//! "conventional" combiners (COMA-style weighted linear, average, max) for
//! the ablation experiment (F5 in DESIGN.md).

use crate::confidence::Confidence;

/// How per-voter confidences are combined into one match score.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MergeStrategy {
    /// Harmony's scheme: a weighted mean where each vote's weight is its own
    /// commitment |c|. Confident voters (much evidence, decisive ratio)
    /// dominate; neutral voters are ignored entirely.
    #[default]
    HarmonyWeighted,
    /// Plain arithmetic mean of all votes (neutral votes dilute).
    Average,
    /// The single most positive vote wins (COMA's `max` combiner).
    Max,
    /// Fixed per-voter weights, position-aligned with the voter panel
    /// (COMA-style weighted linear combination). Missing weights default to 1.
    Linear(Vec<f64>),
}

impl MergeStrategy {
    /// Merge one pair's votes into a single confidence.
    ///
    /// `votes[i]` must correspond to the i-th voter of the panel (relevant
    /// for [`MergeStrategy::Linear`]). Empty input merges to neutral.
    pub fn merge(&self, votes: &[Confidence]) -> Confidence {
        if votes.is_empty() {
            return Confidence::NEUTRAL;
        }
        match self {
            MergeStrategy::HarmonyWeighted => {
                let mut num = 0.0;
                let mut den = 0.0;
                for v in votes {
                    let w = v.commitment();
                    num += w * v.value();
                    den += w;
                }
                if den == 0.0 {
                    Confidence::NEUTRAL
                } else {
                    Confidence::new(num / den)
                }
            }
            MergeStrategy::Average => {
                let sum: f64 = votes.iter().map(|v| v.value()).sum();
                Confidence::new(sum / votes.len() as f64)
            }
            MergeStrategy::Max => Confidence::new(
                votes
                    .iter()
                    .map(|v| v.value())
                    .fold(f64::NEG_INFINITY, f64::max),
            ),
            MergeStrategy::Linear(weights) => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (i, v) in votes.iter().enumerate() {
                    let w = weights.get(i).copied().unwrap_or(1.0).max(0.0);
                    num += w * v.value();
                    den += w;
                }
                if den == 0.0 {
                    Confidence::NEUTRAL
                } else {
                    Confidence::new(num / den)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Confidence {
        Confidence::new(v)
    }

    #[test]
    fn empty_votes_merge_to_neutral() {
        for s in [
            MergeStrategy::HarmonyWeighted,
            MergeStrategy::Average,
            MergeStrategy::Max,
            MergeStrategy::Linear(vec![]),
        ] {
            assert!(s.merge(&[]).is_neutral(), "{s:?}");
        }
    }

    #[test]
    fn harmony_ignores_neutral_votes() {
        // One confident positive + many neutrals: the neutrals must not
        // dilute (this is the whole point vs. Average).
        let votes = [c(0.8), c(0.0), c(0.0), c(0.0), c(0.0)];
        let harmony = MergeStrategy::HarmonyWeighted.merge(&votes);
        let average = MergeStrategy::Average.merge(&votes);
        assert!((harmony.value() - 0.8).abs() < 1e-9);
        assert!((average.value() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn harmony_confident_voter_dominates_wobbly_one() {
        let votes = [c(0.9), c(-0.1)];
        let merged = MergeStrategy::HarmonyWeighted.merge(&votes);
        // (0.9·0.9 + 0.1·(−0.1)) / (0.9+0.1) = 0.80
        assert!((merged.value() - 0.80).abs() < 1e-9);
    }

    #[test]
    fn all_neutral_merges_neutral() {
        let votes = [c(0.0), c(0.0)];
        assert!(MergeStrategy::HarmonyWeighted.merge(&votes).is_neutral());
    }

    #[test]
    fn max_takes_most_positive() {
        let votes = [c(-0.9), c(0.2), c(0.7)];
        assert!((MergeStrategy::Max.merge(&votes).value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn linear_respects_weights() {
        let votes = [c(1.0 - 1e-9), c(-1.0 + 1e-9)];
        let s = MergeStrategy::Linear(vec![3.0, 1.0]);
        let merged = s.merge(&votes);
        assert!((merged.value() - 0.5).abs() < 1e-6);
        // Missing weights default to 1 → plain average.
        let t = MergeStrategy::Linear(vec![]);
        assert!((t.merge(&votes).value()).abs() < 1e-6);
    }

    #[test]
    fn linear_negative_weights_clamped() {
        let votes = [c(0.5), c(-0.5)];
        let s = MergeStrategy::Linear(vec![-5.0, 1.0]);
        assert!((s.merge(&votes).value() + 0.5).abs() < 1e-9);
    }

    #[test]
    fn merged_scores_stay_in_open_interval() {
        let votes = [c(0.999), c(0.999), c(0.999)];
        for s in [
            MergeStrategy::HarmonyWeighted,
            MergeStrategy::Average,
            MergeStrategy::Max,
            MergeStrategy::Linear(vec![1.0, 1.0, 1.0]),
        ] {
            let m = s.merge(&votes);
            assert!(m.value() > -1.0 && m.value() < 1.0);
        }
    }

    #[test]
    fn negative_evidence_pulls_harmony_down() {
        let votes = [c(0.4), c(-0.8)];
        let merged = MergeStrategy::HarmonyWeighted.merge(&votes);
        assert!(merged.value() < 0.0, "{merged}");
    }
}
