//! Project feasibility and cost estimation.
//!
//! The first two use cases of §2. *Project feasibility*: "schema matching
//! tools are needed to quickly estimate the extent to which it will be
//! feasible to generate a community vocabulary from a collection of data
//! sources" — no resources are committed "unless the potential value is
//! clear". *Project planning*: "how much time and money should be allocated
//! to these projects?".
//!
//! A [`FeasibilityReport`] combines pairwise overlap estimates (from quick
//! matches or vocabulary signatures) with the `harmony-core` effort model to
//! produce the go/no-go evidence and the cost estimate a contract would be
//! written against.

use harmony_core::batch::prepare_schemas_global;
use harmony_core::effort::{EffortEstimate, EffortModel};
use harmony_core::prepare::PreparedSchema;
use sm_schema::{Schema, SchemaId};
use std::sync::Arc;

/// Go / no-go grading of a proposed integration project.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasibilityGrade {
    /// High overlap: a community vocabulary will come cheaply.
    Favorable,
    /// Moderate overlap: feasible with real effort.
    Marginal,
    /// Low overlap: the sources barely share concepts; reconsider scope.
    Unfavorable,
}

/// Feasibility assessment for building a community vocabulary over a set of
/// candidate source schemata.
#[derive(Debug, Clone)]
pub struct FeasibilityReport {
    /// The candidate sources.
    pub members: Vec<SchemaId>,
    /// Mean pairwise vocabulary overlap in `[0,1]`.
    pub mean_overlap: f64,
    /// Minimum pairwise overlap (the weakest link).
    pub min_overlap: f64,
    /// Total elements across members.
    pub total_elements: usize,
    /// Grade derived from the overlap statistics.
    pub grade: FeasibilityGrade,
    /// Estimated matching effort to build the vocabulary.
    pub effort: EffortEstimate,
}

/// Assess the feasibility of convening a COI over `schemas`.
///
/// `overlap` is measured as pairwise normalized-token Jaccard — the quick
/// approximation §5 calls for, not a full match. The effort estimate assumes
/// the paper's workflow: summarize each source, then match each source pair
/// incrementally.
pub fn assess(schemas: &[&Schema], model: &EffortModel) -> FeasibilityReport {
    // Bulk-prepare on the shared executor: a feasibility sweep over a cold
    // candidate set is exactly the batch layer's Plan-stage workload.
    let prepared: Vec<Arc<PreparedSchema>> = prepare_schemas_global(schemas);

    let mut overlaps: Vec<f64> = Vec::new();
    for i in 0..prepared.len() {
        let sig_i = prepared[i].signature();
        for p in prepared.iter().skip(i + 1) {
            let sig_j = p.signature();
            let inter = sig_i.intersection(sig_j).count() as f64;
            let union = (sig_i.len() + sig_j.len()) as f64 - inter;
            overlaps.push(if union == 0.0 { 0.0 } else { inter / union });
        }
    }
    let mean_overlap = if overlaps.is_empty() {
        0.0
    } else {
        overlaps.iter().sum::<f64>() / overlaps.len() as f64
    };
    let min_overlap = overlaps.iter().copied().fold(f64::INFINITY, f64::min);
    let min_overlap = if min_overlap.is_finite() {
        min_overlap
    } else {
        0.0
    };

    let grade = if mean_overlap >= 0.25 {
        FeasibilityGrade::Favorable
    } else if mean_overlap >= 0.08 {
        FeasibilityGrade::Marginal
    } else {
        FeasibilityGrade::Unfavorable
    };

    // Effort: one summarization per schema (≈ one concept per ~9 elements,
    // the paper's S_A density), plus pairwise incremental matching.
    let total_elements: usize = schemas.iter().map(|s| s.len()).sum();
    let concepts = (total_elements as f64 / 9.0).ceil() as usize;
    let mut inspections = 0usize;
    let mut validations = 0usize;
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let pairs = schemas[i].len() * schemas[j].len();
            // Empirical survival of the confidence filter ≈ 2·10⁻³ at the
            // default threshold plus overlap-driven validations.
            inspections += (pairs as f64 * 2e-3).round() as usize;
            let smaller = schemas[i].len().min(schemas[j].len());
            validations += (smaller as f64 * mean_overlap).round() as usize;
        }
    }
    let effort = model.estimate(&harmony_core::effort::Workload {
        inspections,
        validations,
        concepts,
        increments: concepts,
    });

    FeasibilityReport {
        members: schemas.iter().map(|s| s.id).collect(),
        mean_overlap,
        min_overlap,
        total_elements,
        grade,
        effort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    fn schema(id: u32, words: &[&str]) -> Schema {
        // The first word names the root so schemata share only the listed
        // vocabulary and nothing incidental.
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root(words[0], ElementKind::Group, DataType::None);
        for w in &words[1..] {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    #[test]
    fn overlapping_sources_grade_favorable() {
        let a = schema(1, &["aircraft", "mission", "sortie", "pilot"]);
        let b = schema(2, &["aircraft", "mission", "payload"]);
        let r = assess(&[&a, &b], &EffortModel::default());
        assert!(r.mean_overlap > 0.25, "{}", r.mean_overlap);
        assert_eq!(r.grade, FeasibilityGrade::Favorable);
        assert_eq!(r.members, vec![SchemaId(1), SchemaId(2)]);
    }

    #[test]
    fn disjoint_sources_grade_unfavorable() {
        let a = schema(1, &["aircraft", "mission"]);
        let b = schema(2, &["tariff", "customs"]);
        let r = assess(&[&a, &b], &EffortModel::default());
        assert_eq!(r.mean_overlap, 0.0);
        assert_eq!(r.grade, FeasibilityGrade::Unfavorable);
    }

    #[test]
    fn effort_grows_with_schema_count_and_size() {
        let model = EffortModel::default();
        let small: Vec<Schema> = (0..2)
            .map(|i| schema(i, &["alpha", "beta", "gamma"]))
            .collect();
        let small_refs: Vec<&Schema> = small.iter().collect();
        let r_small = assess(&small_refs, &model);

        let big: Vec<Schema> = (0..5)
            .map(|i| {
                let words: Vec<String> = (0..40).map(|j| format!("w{i}_{j}")).collect();
                let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                schema(i, &refs)
            })
            .collect();
        let big_refs: Vec<&Schema> = big.iter().collect();
        let r_big = assess(&big_refs, &model);
        assert!(r_big.effort.person_days > r_small.effort.person_days);
        assert!(r_big.total_elements > r_small.total_elements);
    }

    #[test]
    fn single_schema_and_empty_set() {
        let a = schema(1, &["x"]);
        let r = assess(&[&a], &EffortModel::default());
        assert_eq!(r.mean_overlap, 0.0);
        assert_eq!(r.min_overlap, 0.0);
        let r2 = assess(&[], &EffortModel::default());
        assert!(r2.members.is_empty());
        assert_eq!(r2.total_elements, 0);
    }

    #[test]
    fn min_overlap_is_weakest_link() {
        let a = schema(1, &["aircraft", "mission", "pilot"]);
        let b = schema(2, &["aircraft", "mission", "sortie"]);
        let c = schema(3, &["tariff", "customs"]);
        let r = assess(&[&a, &b, &c], &EffortModel::default());
        assert_eq!(r.min_overlap, 0.0, "c shares nothing");
        assert!(r.mean_overlap > 0.0);
    }
}
