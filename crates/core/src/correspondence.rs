//! Correspondences and match sets.
//!
//! A [`Correspondence`] is one asserted (or candidate) link between a source
//! and a target element, carrying the engineer-facing metadata the paper's
//! workflow needs: validation status, a semantic annotation ("additional
//! semantics such as is-a or part-of", §3.3), provenance of who asserted it,
//! and an optional reviewer assignment (the spreadsheet view let users sort
//! "by status, team member assigned to investigate it, etc.", §4.3).

use crate::confidence::Confidence;
use sm_schema::ElementId;
use std::collections::{HashMap, HashSet};

/// Review status of a correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchStatus {
    /// Produced by the engine, not yet reviewed.
    Candidate,
    /// Confirmed by an integration engineer.
    Validated,
    /// Rejected by an integration engineer.
    Rejected,
}

/// Semantic annotation of a validated correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchAnnotation {
    /// The elements denote the same concept.
    Equivalent,
    /// Source is a kind of target.
    IsA,
    /// Source is a part of target.
    PartOf,
    /// Related, but none of the above.
    RelatedTo,
}

/// One link between a source and a target element.
#[derive(Debug, Clone, PartialEq)]
pub struct Correspondence {
    /// Source element.
    pub source: ElementId,
    /// Target element.
    pub target: ElementId,
    /// Merged match score.
    pub score: Confidence,
    /// Review status.
    pub status: MatchStatus,
    /// Semantic annotation (meaningful once validated).
    pub annotation: MatchAnnotation,
    /// Who asserted/validated this link (engineer name or `"engine"`).
    pub asserted_by: String,
    /// Team member assigned to investigate, if any.
    pub assigned_to: Option<String>,
}

impl Correspondence {
    /// An engine-produced candidate.
    pub fn candidate(source: ElementId, target: ElementId, score: Confidence) -> Self {
        Correspondence {
            source,
            target,
            score,
            status: MatchStatus::Candidate,
            annotation: MatchAnnotation::Equivalent,
            asserted_by: "engine".to_string(),
            assigned_to: None,
        }
    }

    /// Mark validated by `engineer` with an annotation.
    pub fn validate(mut self, engineer: impl Into<String>, annotation: MatchAnnotation) -> Self {
        self.status = MatchStatus::Validated;
        self.annotation = annotation;
        self.asserted_by = engineer.into();
        self
    }

    /// Mark rejected by `engineer`.
    pub fn reject(mut self, engineer: impl Into<String>) -> Self {
        self.status = MatchStatus::Rejected;
        self.asserted_by = engineer.into();
        self
    }
}

/// A set of correspondences between one source and one target schema.
#[derive(Debug, Clone, Default)]
pub struct MatchSet {
    correspondences: Vec<Correspondence>,
}

impl MatchSet {
    /// Empty set.
    pub fn new() -> Self {
        MatchSet::default()
    }

    /// Build from a list.
    pub fn from_vec(correspondences: Vec<Correspondence>) -> Self {
        MatchSet { correspondences }
    }

    /// Add one correspondence.
    pub fn push(&mut self, c: Correspondence) {
        self.correspondences.push(c);
    }

    /// A copy of `selected` with every correspondence validated as
    /// `asserted_by` under `annotation` — the auto-validation step every
    /// machine-selected batch (n-way population, repository bulk
    /// recording) applies before recording.
    pub fn validated_from(
        selected: &MatchSet,
        asserted_by: &str,
        annotation: MatchAnnotation,
    ) -> MatchSet {
        let mut validated = MatchSet::new();
        for c in selected.all() {
            validated.push(c.clone().validate(asserted_by.to_string(), annotation));
        }
        validated
    }

    /// All correspondences.
    pub fn all(&self) -> &[Correspondence] {
        &self.correspondences
    }

    /// Mutable access (for validation passes).
    pub fn all_mut(&mut self) -> &mut [Correspondence] {
        &mut self.correspondences
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.correspondences.len()
    }

    /// True when no correspondences exist.
    pub fn is_empty(&self) -> bool {
        self.correspondences.is_empty()
    }

    /// Correspondences with a given status.
    pub fn with_status(&self, status: MatchStatus) -> impl Iterator<Item = &Correspondence> {
        self.correspondences
            .iter()
            .filter(move |c| c.status == status)
    }

    /// Validated correspondences only.
    pub fn validated(&self) -> impl Iterator<Item = &Correspondence> {
        self.with_status(MatchStatus::Validated)
    }

    /// Distinct source elements that participate in a *validated* match.
    pub fn matched_sources(&self) -> HashSet<ElementId> {
        self.validated().map(|c| c.source).collect()
    }

    /// Distinct target elements that participate in a *validated* match.
    pub fn matched_targets(&self) -> HashSet<ElementId> {
        self.validated().map(|c| c.target).collect()
    }

    /// Group validated correspondences by source.
    pub fn by_source(&self) -> HashMap<ElementId, Vec<&Correspondence>> {
        let mut map: HashMap<ElementId, Vec<&Correspondence>> = HashMap::new();
        for c in self.validated() {
            map.entry(c.source).or_default().push(c);
        }
        map
    }

    /// Sort (stable) by descending score — the match-centric view's default.
    pub fn sort_by_score(&mut self) {
        self.correspondences.sort_by(|a, b| {
            b.score
                .value()
                .partial_cmp(&a.score.value())
                .expect("finite")
        });
    }

    /// Merge another set into this one (e.g. accumulating increments).
    pub fn extend(&mut self, other: MatchSet) {
        self.correspondences.extend(other.correspondences);
    }

    /// Keep only the best-scoring correspondence per (source, target) pair.
    pub fn dedup_pairs(&mut self) {
        let mut best: HashMap<(ElementId, ElementId), Correspondence> = HashMap::new();
        for c in self.correspondences.drain(..) {
            match best.entry((c.source, c.target)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let incumbent_validated = e.get().status == MatchStatus::Validated;
                    let challenger_validated = c.status == MatchStatus::Validated;
                    // Validated entries always beat candidates; otherwise the
                    // higher score wins.
                    let replace = match (challenger_validated, incumbent_validated) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => c.score.value() > e.get().score.value(),
                    };
                    if replace {
                        e.insert(c);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(c);
                }
            }
        }
        self.correspondences = best.into_values().collect();
        self.sort_by_score();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: u32, t: u32, score: f64) -> Correspondence {
        Correspondence::candidate(ElementId(s), ElementId(t), Confidence::new(score))
    }

    #[test]
    fn candidate_lifecycle() {
        let cand = c(0, 1, 0.8);
        assert_eq!(cand.status, MatchStatus::Candidate);
        assert_eq!(cand.asserted_by, "engine");
        let validated = cand.clone().validate("alice", MatchAnnotation::IsA);
        assert_eq!(validated.status, MatchStatus::Validated);
        assert_eq!(validated.annotation, MatchAnnotation::IsA);
        assert_eq!(validated.asserted_by, "alice");
        let rejected = cand.reject("bob");
        assert_eq!(rejected.status, MatchStatus::Rejected);
    }

    #[test]
    fn status_filters() {
        let mut set = MatchSet::new();
        set.push(c(0, 0, 0.9).validate("a", MatchAnnotation::Equivalent));
        set.push(c(0, 1, 0.4));
        set.push(c(1, 1, 0.2).reject("a"));
        assert_eq!(set.validated().count(), 1);
        assert_eq!(set.with_status(MatchStatus::Candidate).count(), 1);
        assert_eq!(set.with_status(MatchStatus::Rejected).count(), 1);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn matched_sets_only_count_validated() {
        let mut set = MatchSet::new();
        set.push(c(0, 0, 0.9).validate("a", MatchAnnotation::Equivalent));
        set.push(c(1, 1, 0.9)); // candidate: ignored
        assert_eq!(set.matched_sources().len(), 1);
        assert!(set.matched_sources().contains(&ElementId(0)));
        assert_eq!(set.matched_targets().len(), 1);
    }

    #[test]
    fn by_source_groups() {
        let mut set = MatchSet::new();
        set.push(c(0, 0, 0.9).validate("a", MatchAnnotation::Equivalent));
        set.push(c(0, 1, 0.5).validate("a", MatchAnnotation::RelatedTo));
        set.push(c(2, 2, 0.7).validate("b", MatchAnnotation::Equivalent));
        let groups = set.by_source();
        assert_eq!(groups[&ElementId(0)].len(), 2);
        assert_eq!(groups[&ElementId(2)].len(), 1);
    }

    #[test]
    fn sort_and_dedup() {
        let mut set = MatchSet::new();
        set.push(c(0, 0, 0.2));
        set.push(c(0, 0, 0.8));
        set.push(c(1, 1, 0.5));
        set.dedup_pairs();
        assert_eq!(set.len(), 2);
        assert!(
            (set.all()[0].score.value() - 0.8).abs() < 1e-9,
            "best kept, sorted first"
        );
    }

    #[test]
    fn dedup_prefers_validated_over_higher_scoring_candidate() {
        let mut set = MatchSet::new();
        set.push(c(0, 0, 0.4).validate("a", MatchAnnotation::Equivalent));
        set.push(c(0, 0, 0.9));
        set.dedup_pairs();
        assert_eq!(set.len(), 1);
        // The higher-score candidate wins the score comparison first; the
        // validated entry must still survive.
        assert_eq!(set.all()[0].status, MatchStatus::Validated);
    }

    #[test]
    fn extend_accumulates() {
        let mut a = MatchSet::from_vec(vec![c(0, 0, 0.9)]);
        let b = MatchSet::from_vec(vec![c(1, 1, 0.8)]);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
