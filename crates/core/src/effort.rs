//! Human-effort and project-planning estimation.
//!
//! The paper's *project planning* use case (§2): "how much time and money
//! should be allocated to these projects?" — answered by matching *without*
//! mapping, to "estimate the level of programming effort required". And §3.3
//! gives one calibration point: the S_A×S_B effort took "three days of
//! effort, by two human integration engineers" (= 6 person-days) for a
//! workflow that inspected confidence-filtered candidates out of ~10^6
//! scored pairs across 191 concepts.

/// Cost model of an interactive matching effort.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortModel {
    /// Seconds for an engineer to judge one shown candidate pair.
    pub secs_per_inspection: f64,
    /// Seconds to record a validated match with annotations.
    pub secs_per_validation: f64,
    /// Seconds to create one concept label during SUMMARIZE.
    pub secs_per_concept: f64,
    /// Fixed per-increment overhead (setting filters, orienting), seconds.
    pub secs_per_increment: f64,
    /// Productive seconds per engineer per day.
    pub workday_secs: f64,
}

impl Default for EffortModel {
    /// Defaults calibrated so the paper's workload lands near its reported 6
    /// person-days: ~20 s per inspection, ~40 s per recorded validation,
    /// ~3 min per concept label, ~2 min per increment, 6-hour productive day.
    fn default() -> Self {
        EffortModel {
            secs_per_inspection: 20.0,
            secs_per_validation: 40.0,
            secs_per_concept: 180.0,
            secs_per_increment: 120.0,
            workday_secs: 6.0 * 3600.0,
        }
    }
}

/// Workload description for an estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Workload {
    /// Candidates shown to reviewers (post confidence filter).
    pub inspections: usize,
    /// Matches validated and recorded.
    pub validations: usize,
    /// Concept labels created during summarization.
    pub concepts: usize,
    /// Workflow increments executed.
    pub increments: usize,
}

/// Result of an effort estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffortEstimate {
    /// Total person-seconds.
    pub person_secs: f64,
    /// Total person-days (person-seconds / workday).
    pub person_days: f64,
}

impl EffortEstimate {
    /// Calendar days when `engineers` work in parallel (ceiling).
    pub fn calendar_days(&self, engineers: usize) -> f64 {
        if engineers == 0 {
            return f64::INFINITY;
        }
        (self.person_days / engineers as f64).ceil()
    }
}

impl EffortModel {
    /// Estimate the effort of a workload.
    pub fn estimate(&self, w: &Workload) -> EffortEstimate {
        let person_secs = w.inspections as f64 * self.secs_per_inspection
            + w.validations as f64 * self.secs_per_validation
            + w.concepts as f64 * self.secs_per_concept
            + w.increments as f64 * self.secs_per_increment;
        EffortEstimate {
            person_secs,
            person_days: person_secs / self.workday_secs,
        }
    }

    /// Project-planning helper (§2 "Project planning"): given schema sizes
    /// and an expected candidate-survival rate at the confidence threshold,
    /// predict the workload *before* running the match.
    ///
    /// `survival_rate` is the expected fraction of candidate pairs that pass
    /// the confidence filter (empirically ~10^-3 for the default threshold);
    /// `expected_overlap` the fraction of the smaller schema expected to
    /// match (drives validations).
    pub fn predict_workload(
        &self,
        source_elements: usize,
        target_elements: usize,
        concepts: usize,
        survival_rate: f64,
        expected_overlap: f64,
    ) -> Workload {
        let pairs = source_elements * target_elements;
        let inspections = (pairs as f64 * survival_rate.clamp(0.0, 1.0)).round() as usize;
        let validations = (source_elements.min(target_elements) as f64
            * expected_overlap.clamp(0.0, 1.0))
        .round() as usize;
        Workload {
            inspections,
            validations,
            concepts,
            increments: concepts.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_workload_lands_near_six_person_days() {
        // The paper's effort: 191 concepts total (140 + 51), ~191 increments
        // (140 source concepts driven; use 140), 267 validated matches
        // (34% of 784), and a few thousand inspected candidates.
        let model = EffortModel::default();
        let w = Workload {
            inspections: 4500,
            validations: 267,
            concepts: 191,
            increments: 140,
        };
        let est = model.estimate(&w);
        assert!(
            est.person_days > 4.0 && est.person_days < 9.0,
            "estimate {:.1} person-days should be near the paper's 6",
            est.person_days
        );
        // Two engineers → about three calendar days.
        let days = est.calendar_days(2);
        assert!((2.0..=5.0).contains(&days), "calendar days {days}");
    }

    #[test]
    fn estimate_is_linear_in_each_term() {
        let model = EffortModel::default();
        let base = model.estimate(&Workload::default());
        assert_eq!(base.person_secs, 0.0);
        let one_inspection = model.estimate(&Workload {
            inspections: 1,
            ..Default::default()
        });
        assert!((one_inspection.person_secs - model.secs_per_inspection).abs() < 1e-9);
        let ten = model.estimate(&Workload {
            inspections: 10,
            ..Default::default()
        });
        assert!((ten.person_secs - 10.0 * model.secs_per_inspection).abs() < 1e-9);
    }

    #[test]
    fn calendar_days_divide_by_engineers() {
        let est = EffortEstimate {
            person_secs: 0.0,
            person_days: 6.0,
        };
        assert_eq!(est.calendar_days(2), 3.0);
        assert_eq!(est.calendar_days(4), 2.0, "ceiling of 1.5");
        assert!(est.calendar_days(0).is_infinite());
    }

    #[test]
    fn predicted_workload_scales_with_schema_sizes() {
        let model = EffortModel::default();
        let small = model.predict_workload(100, 100, 10, 1e-3, 0.3);
        let large = model.predict_workload(1378, 784, 191, 1e-3, 0.34);
        assert!(large.inspections > small.inspections);
        assert_eq!(large.inspections, 1080, "1378·784·1e-3 rounded");
        assert_eq!(large.validations, (784.0_f64 * 0.34).round() as usize);
        // Rates are clamped.
        let clamped = model.predict_workload(10, 10, 1, 7.0, -3.0);
        assert_eq!(clamped.inspections, 100);
        assert_eq!(clamped.validations, 0);
    }
}
