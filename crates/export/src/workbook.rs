//! The paper's spreadsheet deliverable.
//!
//! §3.4: *"the final result was delivered as an Excel spreadsheet. The first
//! sheet enumerated the 191 concepts with their 24 concept-level matches
//! (167 rows), the second sheet contained the individual schema elements
//! (indexed to a concept) and their element-level matches. Both sheets were
//! organized in 'outer-join' style with three types of rows: those specific
//! to S_A, those specific to S_B, and those having matched elements of S_A
//! and S_B."*
//!
//! [`Workbook::build`] reproduces exactly that structure, and the row
//! accounting (`concepts − concept_matches = concept rows`, the paper's
//! 191 − 24 = 167) falls out of the outer join.

use crate::csv::{fmt_score, CsvWriter};
use harmony_core::correspondence::MatchSet;
use harmony_core::summarize::Summary;
use sm_schema::{ElementId, Schema};
use std::collections::{HashMap, HashSet};

/// The paper's three row types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Specific to the source schema (S_A).
    SourceOnly,
    /// Specific to the target schema (S_B).
    TargetOnly,
    /// Matched elements of both.
    Matched,
}

impl RowKind {
    fn label(self) -> &'static str {
        match self {
            RowKind::SourceOnly => "source-only",
            RowKind::TargetOnly => "target-only",
            RowKind::Matched => "matched",
        }
    }
}

/// One row of the concept sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptRow {
    /// Outer-join row type.
    pub kind: RowKind,
    /// Source concept label, empty for target-only rows.
    pub source_concept: String,
    /// Target concept label, empty for source-only rows.
    pub target_concept: String,
}

/// One row of the element sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementRow {
    /// Outer-join row type.
    pub kind: RowKind,
    /// Source element path (empty for target-only rows).
    pub source_element: String,
    /// Concept the source element is indexed to.
    pub source_concept: String,
    /// Target element path (empty for source-only rows).
    pub target_element: String,
    /// Concept the target element is indexed to.
    pub target_concept: String,
    /// Match score for matched rows.
    pub score: Option<f64>,
}

/// The two-sheet deliverable.
#[derive(Debug, Clone)]
pub struct Workbook {
    /// Sheet 1: concepts and concept-level matches.
    pub concept_sheet: Vec<ConceptRow>,
    /// Sheet 2: elements and element-level matches.
    pub element_sheet: Vec<ElementRow>,
}

impl Workbook {
    /// Assemble the deliverable.
    ///
    /// * `concept_matches` — validated concept-level matches as (source
    ///   concept index, target concept index) into the two summaries.
    /// * `element_matches` — element-level matches; only *validated*
    ///   correspondences appear as matched rows.
    pub fn build(
        source: &Schema,
        target: &Schema,
        source_summary: &Summary,
        target_summary: &Summary,
        concept_matches: &[(usize, usize)],
        element_matches: &MatchSet,
    ) -> Workbook {
        // ---- Sheet 1: concepts, outer-join over concept matches ----------
        let matched_src: HashMap<usize, usize> = concept_matches.iter().copied().collect();
        let matched_tgt: HashSet<usize> = concept_matches.iter().map(|&(_, t)| t).collect();
        let mut concept_sheet = Vec::new();
        for (si, c) in source_summary.concepts.iter().enumerate() {
            match matched_src.get(&si) {
                Some(&ti) => concept_sheet.push(ConceptRow {
                    kind: RowKind::Matched,
                    source_concept: c.label.clone(),
                    target_concept: target_summary.concepts[ti].label.clone(),
                }),
                None => concept_sheet.push(ConceptRow {
                    kind: RowKind::SourceOnly,
                    source_concept: c.label.clone(),
                    target_concept: String::new(),
                }),
            }
        }
        for (ti, c) in target_summary.concepts.iter().enumerate() {
            if !matched_tgt.contains(&ti) {
                concept_sheet.push(ConceptRow {
                    kind: RowKind::TargetOnly,
                    source_concept: String::new(),
                    target_concept: c.label.clone(),
                });
            }
        }

        // ---- Sheet 2: elements, outer-join over element matches ----------
        let concept_label = |summary: &Summary, id: ElementId| -> String {
            summary
                .concept_of(id)
                .map(|c| c.label.clone())
                .unwrap_or_default()
        };
        let mut element_sheet = Vec::new();
        let mut matched_sources: HashSet<ElementId> = HashSet::new();
        let mut matched_targets: HashSet<ElementId> = HashSet::new();
        let mut matched_rows: Vec<ElementRow> = element_matches
            .validated()
            .map(|c| {
                matched_sources.insert(c.source);
                matched_targets.insert(c.target);
                ElementRow {
                    kind: RowKind::Matched,
                    source_element: source.path(c.source).to_string(),
                    source_concept: concept_label(source_summary, c.source),
                    target_element: target.path(c.target).to_string(),
                    target_concept: concept_label(target_summary, c.target),
                    score: Some(c.score.value()),
                }
            })
            .collect();
        matched_rows.sort_by(|a, b| a.source_element.cmp(&b.source_element));
        element_sheet.extend(matched_rows);
        for id in source.ids() {
            if !matched_sources.contains(&id) {
                element_sheet.push(ElementRow {
                    kind: RowKind::SourceOnly,
                    source_element: source.path(id).to_string(),
                    source_concept: concept_label(source_summary, id),
                    target_element: String::new(),
                    target_concept: String::new(),
                    score: None,
                });
            }
        }
        for id in target.ids() {
            if !matched_targets.contains(&id) {
                element_sheet.push(ElementRow {
                    kind: RowKind::TargetOnly,
                    source_element: String::new(),
                    source_concept: String::new(),
                    target_element: target.path(id).to_string(),
                    target_concept: concept_label(target_summary, id),
                    score: None,
                });
            }
        }

        Workbook {
            concept_sheet,
            element_sheet,
        }
    }

    /// The paper's headline row accounting: total concepts, concept-level
    /// matches, and resulting sheet-1 rows (191, 24, 167 in the case study).
    pub fn concept_accounting(&self) -> (usize, usize, usize) {
        let matches = self
            .concept_sheet
            .iter()
            .filter(|r| r.kind == RowKind::Matched)
            .count();
        let rows = self.concept_sheet.len();
        (rows + matches, matches, rows)
    }

    /// Render sheet 1 as CSV.
    pub fn concept_csv(&self) -> String {
        let mut w = CsvWriter::new();
        w.row(&["row_type", "source_concept", "target_concept"]);
        for r in &self.concept_sheet {
            w.row(&[r.kind.label(), &r.source_concept, &r.target_concept]);
        }
        w.finish()
    }

    /// Render sheet 2 as CSV.
    pub fn element_csv(&self) -> String {
        let mut w = CsvWriter::new();
        w.row(&[
            "row_type",
            "source_element",
            "source_concept",
            "target_element",
            "target_concept",
            "score",
        ]);
        for r in &self.element_sheet {
            w.row(&[
                r.kind.label(),
                &r.source_element,
                &r.source_concept,
                &r.target_element,
                &r.target_concept,
                &r.score.map(fmt_score).unwrap_or_default(),
            ]);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::confidence::Confidence;
    use harmony_core::correspondence::{Correspondence, MatchAnnotation};
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};

    fn fixture() -> (Schema, Schema, Summary, Summary, MatchSet) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let ev = a.add_root("All_Event_Vitals", ElementKind::Table, DataType::None);
        let a_date = a
            .add_child(ev, "begin_date", ElementKind::Column, DataType::Date)
            .unwrap();
        let p = a.add_root("Person", ElementKind::Table, DataType::None);
        a.add_child(p, "last_name", ElementKind::Column, DataType::text())
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let ev2 = b.add_root("Event", ElementKind::ComplexType, DataType::None);
        let b_date = b
            .add_child(ev2, "BeginDate", ElementKind::XmlElement, DataType::Date)
            .unwrap();
        let w = b.add_root("Weapon", ElementKind::ComplexType, DataType::None);
        b.add_child(w, "serial", ElementKind::XmlElement, DataType::text())
            .unwrap();

        let sa = Summary::builder()
            .concept_subtree(&a, "Event", ev)
            .concept_subtree(&a, "Person", p)
            .build();
        let sb = Summary::builder()
            .concept_subtree(&b, "Event", ev2)
            .concept_subtree(&b, "Weapon", w)
            .build();

        let mut m = MatchSet::new();
        m.push(
            Correspondence::candidate(ev, ev2, Confidence::new(0.8))
                .validate("alice", MatchAnnotation::Equivalent),
        );
        m.push(
            Correspondence::candidate(a_date, b_date, Confidence::new(0.9))
                .validate("alice", MatchAnnotation::Equivalent),
        );
        (a, b, sa, sb, m)
    }

    #[test]
    fn concept_sheet_outer_join_accounting() {
        let (a, b, sa, sb, m) = fixture();
        // One concept-level match: Event ↔ Event.
        let wb = Workbook::build(&a, &b, &sa, &sb, &[(0, 0)], &m);
        // 4 concepts, 1 match → 3 rows (the paper's 191 − 24 = 167 rule).
        let (total, matches, rows) = wb.concept_accounting();
        assert_eq!(total, 4);
        assert_eq!(matches, 1);
        assert_eq!(rows, 3);
        let kinds: Vec<RowKind> = wb.concept_sheet.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RowKind::Matched));
        assert!(kinds.contains(&RowKind::SourceOnly));
        assert!(kinds.contains(&RowKind::TargetOnly));
    }

    #[test]
    fn element_sheet_covers_every_element_once() {
        let (a, b, sa, sb, m) = fixture();
        let wb = Workbook::build(&a, &b, &sa, &sb, &[(0, 0)], &m);
        // 2 matched rows + (4 − 2) source-only + (4 − 2) target-only = 6.
        assert_eq!(wb.element_sheet.len(), 6);
        let matched = wb
            .element_sheet
            .iter()
            .filter(|r| r.kind == RowKind::Matched)
            .count();
        assert_eq!(matched, 2);
        // Row accounting: every element appears exactly once.
        let source_mentions = wb
            .element_sheet
            .iter()
            .filter(|r| !r.source_element.is_empty())
            .count();
        assert_eq!(source_mentions, a.len());
        let target_mentions = wb
            .element_sheet
            .iter()
            .filter(|r| !r.target_element.is_empty())
            .count();
        assert_eq!(target_mentions, b.len());
    }

    #[test]
    fn elements_indexed_to_concepts() {
        let (a, b, sa, sb, m) = fixture();
        let wb = Workbook::build(&a, &b, &sa, &sb, &[(0, 0)], &m);
        let date_row = wb
            .element_sheet
            .iter()
            .find(|r| r.source_element.contains("begin_date"))
            .unwrap();
        assert_eq!(date_row.source_concept, "Event");
        assert_eq!(date_row.target_concept, "Event");
        assert_eq!(date_row.kind, RowKind::Matched);
        assert!(date_row.score.unwrap() > 0.8);
    }

    #[test]
    fn csv_rendering_parses_back() {
        let (a, b, sa, sb, m) = fixture();
        let wb = Workbook::build(&a, &b, &sa, &sb, &[(0, 0)], &m);
        let concept_rows = crate::csv::parse_csv(&wb.concept_csv());
        assert_eq!(concept_rows.len(), 1 + wb.concept_sheet.len());
        assert_eq!(
            concept_rows[0],
            vec!["row_type", "source_concept", "target_concept"]
        );
        let element_rows = crate::csv::parse_csv(&wb.element_csv());
        assert_eq!(element_rows.len(), 1 + wb.element_sheet.len());
        assert!(element_rows
            .iter()
            .any(|r| r[1].contains("All_Event_Vitals/begin_date")));
    }

    #[test]
    fn candidates_do_not_appear_as_matched() {
        let (a, b, sa, sb, _) = fixture();
        let mut m = MatchSet::new();
        m.push(Correspondence::candidate(
            ElementId(0),
            ElementId(0),
            Confidence::new(0.99),
        ));
        let wb = Workbook::build(&a, &b, &sa, &sb, &[], &m);
        assert!(wb.element_sheet.iter().all(|r| r.kind != RowKind::Matched));
    }

    #[test]
    fn empty_everything() {
        let a = Schema::new(SchemaId(1), "e", SchemaFormat::Generic);
        let b = Schema::new(SchemaId(2), "e", SchemaFormat::Generic);
        let s = Summary::builder().build();
        let wb = Workbook::build(&a, &b, &s, &s, &[], &MatchSet::new());
        assert!(wb.concept_sheet.is_empty());
        assert!(wb.element_sheet.is_empty());
        assert_eq!(wb.concept_accounting(), (0, 0, 0));
    }
}
