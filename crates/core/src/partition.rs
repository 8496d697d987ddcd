//! Binary overlap partitioning — Lesson #3.
//!
//! §4.4: *"we observed that the three sets: {S1−S2}, {S2−S1}, and {S1∩S2}
//! provide a useful partition of the match of two large schemata."* The
//! paper's customer decision hinged on exactly these cardinalities: "only 34%
//! of S_B matched S_A and 66% of S_B (or 517 elements) did not, indicating
//! that subsuming Sys(S_B) would be a challenging undertaking."

use crate::correspondence::MatchSet;
use sm_schema::{ElementId, Schema};
use std::collections::HashSet;

/// The three-way partition of a binary match.
#[derive(Debug, Clone)]
pub struct BinaryPartition {
    /// Source elements with no validated counterpart (S1 − S2).
    pub only_source: Vec<ElementId>,
    /// Target elements with no validated counterpart (S2 − S1).
    pub only_target: Vec<ElementId>,
    /// Source elements participating in some validated match (S1 ∩ S2,
    /// viewed from the source side).
    pub shared_source: Vec<ElementId>,
    /// Target elements participating in some validated match (S1 ∩ S2,
    /// viewed from the target side).
    pub shared_target: Vec<ElementId>,
}

impl BinaryPartition {
    /// Partition `source` and `target` by the *validated* correspondences of
    /// `matches`.
    pub fn compute(source: &Schema, target: &Schema, matches: &MatchSet) -> Self {
        let matched_s: HashSet<ElementId> = matches.matched_sources();
        let matched_t: HashSet<ElementId> = matches.matched_targets();
        let mut only_source = Vec::new();
        let mut shared_source = Vec::new();
        for id in source.ids() {
            if matched_s.contains(&id) {
                shared_source.push(id);
            } else {
                only_source.push(id);
            }
        }
        let mut only_target = Vec::new();
        let mut shared_target = Vec::new();
        for id in target.ids() {
            if matched_t.contains(&id) {
                shared_target.push(id);
            } else {
                only_target.push(id);
            }
        }
        BinaryPartition {
            only_source,
            only_target,
            shared_source,
            shared_target,
        }
    }

    /// Fraction of source elements that matched, in `[0,1]`.
    pub fn source_matched_fraction(&self) -> f64 {
        fraction(self.shared_source.len(), self.only_source.len())
    }

    /// Fraction of target elements that matched — the paper's headline
    /// number (34% for S_B).
    pub fn target_matched_fraction(&self) -> f64 {
        fraction(self.shared_target.len(), self.only_target.len())
    }

    /// |S1 − S2|, |S2 − S1|, |S1 ∩ S2| as (source-only, target-only,
    /// shared-target) counts. "Shared" is reported from the target side to
    /// mirror the paper's accounting of S_B.
    pub fn cardinalities(&self) -> (usize, usize, usize) {
        (
            self.only_source.len(),
            self.only_target.len(),
            self.shared_target.len(),
        )
    }

    /// One-paragraph decision summary in the spirit of §3.1: subsumption is
    /// attractive when the distinct remainder of the target is small and the
    /// overlap large.
    pub fn subsumption_advice(&self, subsume_threshold: f64) -> SubsumptionAdvice {
        let matched = self.target_matched_fraction();
        if matched >= subsume_threshold {
            SubsumptionAdvice::Subsume
        } else {
            SubsumptionAdvice::RetainAndBridge
        }
    }
}

/// The customer's two options from §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsumptionAdvice {
    /// Fold the target system into the source system.
    Subsume,
    /// Keep the target system and build an ETL bridge (data-warehouse style).
    RetainAndBridge,
}

fn fraction(part: usize, rest: usize) -> f64 {
    let total = part + rest;
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use crate::correspondence::{Correspondence, MatchAnnotation};
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};

    fn schema(id: u32, n: usize) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let root = s.add_root("Root", ElementKind::Group, DataType::None);
        for i in 0..n.saturating_sub(1) {
            s.add_child(root, format!("e{i}"), ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    fn validated(s: u32, t: u32) -> Correspondence {
        Correspondence::candidate(ElementId(s), ElementId(t), Confidence::new(0.9))
            .validate("a", MatchAnnotation::Equivalent)
    }

    #[test]
    fn partition_is_exact_and_disjoint() {
        let a = schema(1, 10);
        let b = schema(2, 6);
        let mut m = MatchSet::new();
        m.push(validated(1, 1));
        m.push(validated(2, 2));
        let p = BinaryPartition::compute(&a, &b, &m);
        assert_eq!(p.shared_source.len(), 2);
        assert_eq!(p.only_source.len(), 8);
        assert_eq!(p.shared_target.len(), 2);
        assert_eq!(p.only_target.len(), 4);
        // Disjoint + complete on both sides.
        let all_s: HashSet<_> = p.only_source.iter().chain(p.shared_source.iter()).collect();
        assert_eq!(all_s.len(), a.len());
        let all_t: HashSet<_> = p.only_target.iter().chain(p.shared_target.iter()).collect();
        assert_eq!(all_t.len(), b.len());
    }

    #[test]
    fn fractions_mirror_paper_accounting() {
        // Build the paper's shape: |S_B| = 784, 267 matched (34%).
        let a = schema(1, 1378);
        let b = schema(2, 784);
        let mut m = MatchSet::new();
        for i in 0..267u32 {
            m.push(validated(i, i));
        }
        let p = BinaryPartition::compute(&a, &b, &m);
        assert!((p.target_matched_fraction() - 267.0 / 784.0).abs() < 1e-12);
        let (_, only_b, shared_b) = p.cardinalities();
        assert_eq!(shared_b, 267);
        assert_eq!(only_b, 784 - 267, "the paper's 517 unmatched elements");
    }

    #[test]
    fn candidates_do_not_count() {
        let a = schema(1, 4);
        let b = schema(2, 4);
        let mut m = MatchSet::new();
        m.push(Correspondence::candidate(
            ElementId(0),
            ElementId(0),
            Confidence::new(0.99),
        ));
        let p = BinaryPartition::compute(&a, &b, &m);
        assert!(
            p.shared_source.is_empty(),
            "unvalidated matches are not overlap"
        );
    }

    #[test]
    fn one_to_many_counts_elements_once() {
        let a = schema(1, 4);
        let b = schema(2, 4);
        let mut m = MatchSet::new();
        m.push(validated(1, 1));
        m.push(validated(1, 2)); // same source twice
        let p = BinaryPartition::compute(&a, &b, &m);
        assert_eq!(p.shared_source.len(), 1);
        assert_eq!(p.shared_target.len(), 2);
    }

    #[test]
    fn empty_schemas_have_zero_fractions() {
        let a = Schema::new(SchemaId(1), "e", SchemaFormat::Generic);
        let b = Schema::new(SchemaId(2), "e", SchemaFormat::Generic);
        let p = BinaryPartition::compute(&a, &b, &MatchSet::new());
        assert_eq!(p.source_matched_fraction(), 0.0);
        assert_eq!(p.target_matched_fraction(), 0.0);
    }

    #[test]
    fn subsumption_advice_thresholds() {
        let a = schema(1, 10);
        let b = schema(2, 10);
        let mut m = MatchSet::new();
        for i in 0..8u32 {
            m.push(validated(i, i));
        }
        let p = BinaryPartition::compute(&a, &b, &m);
        assert_eq!(p.subsumption_advice(0.5), SubsumptionAdvice::Subsume);
        assert_eq!(
            p.subsumption_advice(0.9),
            SubsumptionAdvice::RetainAndBridge
        );
    }
}
