//! Data instances attached to schema elements.
//!
//! The paper (§3.2) contrasts Harmony's documentation-driven matching with
//! conventional *instance-based* matchers, noting that in the government
//! sector "schema documentation is easier to obtain than data (which may not
//! yet exist, or may be sensitive)". To make that trade-off measurable, this
//! module stores sampled column/element values alongside a schema — when
//! they are available at all.

use crate::element::ElementId;
use std::collections::HashMap;

/// Sampled instance values for (some) elements of one schema.
#[derive(Debug, Clone, Default)]
pub struct InstanceData {
    values: HashMap<ElementId, Vec<String>>,
}

impl InstanceData {
    /// No instance data (the paper's common case).
    pub fn empty() -> Self {
        InstanceData::default()
    }

    /// Attach a sample of values to an element (replaces any previous
    /// sample).
    pub fn set(&mut self, element: ElementId, values: Vec<String>) {
        self.values.insert(element, values);
    }

    /// The sample for an element, if any.
    pub fn get(&self, element: ElementId) -> Option<&[String]> {
        self.values.get(&element).map(Vec::as_slice)
    }

    /// Number of elements carrying samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no element has instance data.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of sampled values across all elements.
    pub fn total_values(&self) -> usize {
        self.values.values().map(Vec::len).sum()
    }
}

/// Cheap distributional features of one element's value sample, precomputed
/// once so per-pair comparisons are O(feature count).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceProfile {
    /// Number of sampled values.
    pub count: usize,
    /// Distinct values / count (1.0 = key-like, small = code-like).
    pub distinct_ratio: f64,
    /// Mean value length in characters.
    pub mean_len: f64,
    /// Fraction of characters that are ASCII digits.
    pub digit_frac: f64,
    /// Fraction of characters that are ASCII letters.
    pub alpha_frac: f64,
    /// Fraction of values parsing as numbers.
    pub numeric_frac: f64,
    /// Up to 64 distinct lowercase values (for overlap estimation).
    pub value_sample: Vec<String>,
}

impl InstanceProfile {
    /// Profile a value sample. Returns `None` for an empty sample.
    pub fn from_values(values: &[String]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut distinct: std::collections::HashSet<String> =
            std::collections::HashSet::with_capacity(values.len().min(256));
        let mut chars = 0usize;
        let mut digits = 0usize;
        let mut alphas = 0usize;
        let mut numeric = 0usize;
        let mut len_sum = 0usize;
        for v in values {
            len_sum += v.chars().count();
            for c in v.chars() {
                chars += 1;
                if c.is_ascii_digit() {
                    digits += 1;
                } else if c.is_ascii_alphabetic() {
                    alphas += 1;
                }
            }
            if v.trim().parse::<f64>().is_ok() {
                numeric += 1;
            }
            if distinct.len() < 4096 {
                distinct.insert(v.to_lowercase());
            }
        }
        let mut value_sample: Vec<String> = distinct.iter().cloned().collect();
        value_sample.sort();
        value_sample.truncate(64);
        let n = values.len() as f64;
        let chars = chars.max(1) as f64;
        Some(InstanceProfile {
            count: values.len(),
            distinct_ratio: distinct.len() as f64 / n,
            mean_len: len_sum as f64 / n,
            digit_frac: digits as f64 / chars,
            alpha_frac: alphas as f64 / chars,
            numeric_frac: numeric as f64 / n,
            value_sample,
        })
    }

    /// Distributional similarity of two profiles in `[0, 1]`: a blend of
    /// feature closeness (length, character classes, distinctness) and
    /// direct value overlap (Jaccard over the retained samples).
    pub fn similarity(&self, other: &InstanceProfile) -> f64 {
        let closeness = |a: f64, b: f64, scale: f64| 1.0 - ((a - b).abs() / scale).min(1.0);
        let len_sim = closeness(self.mean_len, other.mean_len, 20.0);
        let digit_sim = closeness(self.digit_frac, other.digit_frac, 1.0);
        let alpha_sim = closeness(self.alpha_frac, other.alpha_frac, 1.0);
        let numeric_sim = closeness(self.numeric_frac, other.numeric_frac, 1.0);
        let distinct_sim = closeness(self.distinct_ratio, other.distinct_ratio, 1.0);
        let feature_sim = 0.2 * len_sim
            + 0.25 * digit_sim
            + 0.2 * alpha_sim
            + 0.2 * numeric_sim
            + 0.15 * distinct_sim;

        let a: std::collections::HashSet<&str> =
            self.value_sample.iter().map(String::as_str).collect();
        let b: std::collections::HashSet<&str> =
            other.value_sample.iter().map(String::as_str).collect();
        let inter = a.intersection(&b).count();
        let union = a.len() + b.len() - inter;
        let overlap = if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        };
        // Shared actual values are strong evidence; distributional agreement
        // alone is weak (many unrelated columns are "short codes").
        (0.55 * feature_sim + 0.45 * overlap.sqrt()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_sample_has_no_profile() {
        assert!(InstanceProfile::from_values(&[]).is_none());
    }

    #[test]
    fn profile_features() {
        let p = InstanceProfile::from_values(&vals(&["12", "34", "12"])).unwrap();
        assert_eq!(p.count, 3);
        assert!((p.distinct_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.mean_len, 2.0);
        assert_eq!(p.digit_frac, 1.0);
        assert_eq!(p.alpha_frac, 0.0);
        assert_eq!(p.numeric_frac, 1.0);
        assert_eq!(p.value_sample, vals(&["12", "34"]));
    }

    #[test]
    fn same_distribution_scores_high() {
        let a = InstanceProfile::from_values(&vals(&["2024-01-02", "2023-11-30"])).unwrap();
        let b = InstanceProfile::from_values(&vals(&["2022-05-06", "2024-09-09"])).unwrap();
        let dates = a.similarity(&b);
        let names = InstanceProfile::from_values(&vals(&["Smith", "Jones", "Garcia"])).unwrap();
        let cross = a.similarity(&names);
        assert!(dates > cross, "dates {dates} vs cross {cross}");
        assert!((0.0..=1.0).contains(&dates));
    }

    #[test]
    fn shared_values_boost_similarity() {
        let a = InstanceProfile::from_values(&vals(&["alpha", "bravo", "charlie"])).unwrap();
        let b = InstanceProfile::from_values(&vals(&["alpha", "bravo", "delta"])).unwrap();
        let c = InstanceProfile::from_values(&vals(&["xx", "yy", "zz"])).unwrap();
        assert!(a.similarity(&b) > a.similarity(&c));
    }

    #[test]
    fn similarity_symmetric_and_reflexive() {
        let a = InstanceProfile::from_values(&vals(&["1", "2", "3"])).unwrap();
        let b = InstanceProfile::from_values(&vals(&["alpha", "beta"])).unwrap();
        assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
        assert!(a.similarity(&a) > 0.95);
    }

    #[test]
    fn instance_data_container() {
        let mut d = InstanceData::empty();
        assert!(d.is_empty());
        d.set(ElementId(3), vals(&["x", "y"]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.total_values(), 2);
        assert_eq!(d.get(ElementId(3)).unwrap().len(), 2);
        assert!(d.get(ElementId(4)).is_none());
        d.set(ElementId(3), vals(&["z"]));
        assert_eq!(d.total_values(), 1, "replacement semantics");
    }

    #[test]
    fn case_insensitive_value_sample() {
        let p = InstanceProfile::from_values(&vals(&["ABC", "abc"])).unwrap();
        assert_eq!(p.value_sample.len(), 1);
    }
}
