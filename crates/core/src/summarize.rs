//! Schema summarization — the paper's `SUMMARIZE(S)` operator.
//!
//! Lesson #1 (§4.2): *"industrial-scale schema matching systems must also
//! support summarization. This operator would take a schema S as its input
//! and generate a simpler representation S′ as its output. The operator must
//! also generate a mapping that relates the elements of S to those of S′."*
//!
//! Two construction paths are provided:
//!
//! * **Manual** ([`Summary::builder`]): the engineer assigns concept labels
//!   to schema elements — exactly what the paper's engineers did ("creating
//!   a set of labels (corresponding to important domain concepts) and
//!   assigning them to particular schema elements"; they identified 140 such
//!   elements in S_A and 51 in S_B).
//! * **Automatic** ([`auto_summarize`]): a structural importance heuristic in
//!   the spirit of the schema-summarization work the paper cites (Yu &
//!   Jagadish, VLDB 2006): elements are ranked by subtree size, fanout, and
//!   documentation, and the top-k containers become concepts.

use sm_schema::{DataType, ElementId, ElementKind, Schema, SchemaFormat, SchemaId};
use std::collections::HashMap;

/// One concept of a schema summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Concept {
    /// Human-assigned or derived label (e.g. `"Event"`, `"Person"`).
    pub label: String,
    /// The representative element the concept is anchored at (usually a
    /// table or complex type).
    pub anchor: ElementId,
    /// All elements assigned to this concept (anchor included).
    pub members: Vec<ElementId>,
}

impl Concept {
    /// Number of member elements.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// A summary S′ of a schema S: a flat list of concepts plus the mapping from
/// elements of S to concepts of S′.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Concepts in creation order.
    pub concepts: Vec<Concept>,
    /// element → index into `concepts`. Elements may be unassigned; the
    /// paper's mapping related "each schema element to at most one concept".
    assignment: HashMap<ElementId, usize>,
}

impl Summary {
    /// Start building a manual summary.
    pub fn builder() -> SummaryBuilder {
        SummaryBuilder {
            summary: Summary::default(),
        }
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True when the summary has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// The concept an element is assigned to, if any.
    pub fn concept_of(&self, id: ElementId) -> Option<&Concept> {
        self.assignment.get(&id).map(|&i| &self.concepts[i])
    }

    /// Index of the concept an element is assigned to.
    pub fn concept_index_of(&self, id: ElementId) -> Option<usize> {
        self.assignment.get(&id).copied()
    }

    /// Fraction of the schema's elements covered by some concept.
    pub fn coverage(&self, schema: &Schema) -> f64 {
        if schema.is_empty() {
            return 0.0;
        }
        self.assignment.len() as f64 / schema.len() as f64
    }

    /// Materialize S′ itself as a (flat, one-level) [`Schema`] of
    /// [`ElementKind::Concept`] nodes, so summaries can be *matched* like any
    /// other schema — this enables the paper's coarse-grained
    /// concept-level matching.
    pub fn to_schema(&self, id: SchemaId, name: impl Into<String>) -> Schema {
        let mut s = Schema::new(id, name, SchemaFormat::Generic);
        for c in &self.concepts {
            s.add_root(&c.label, ElementKind::Concept, DataType::None);
        }
        s
    }

    /// Labels in concept order.
    pub fn labels(&self) -> Vec<&str> {
        self.concepts.iter().map(|c| c.label.as_str()).collect()
    }
}

/// Builder for manual summaries.
pub struct SummaryBuilder {
    summary: Summary,
}

impl SummaryBuilder {
    /// Create a concept anchored at `anchor`, assigning the whole subtree of
    /// `anchor` (within `schema`) to it. Returns the concept index.
    pub fn concept_subtree(
        mut self,
        schema: &Schema,
        label: impl Into<String>,
        anchor: ElementId,
    ) -> Self {
        let members = schema.subtree_ids(anchor);
        let idx = self.summary.concepts.len();
        for &m in &members {
            self.summary.assignment.entry(m).or_insert(idx);
        }
        self.summary.concepts.push(Concept {
            label: label.into(),
            anchor,
            members,
        });
        self
    }

    /// Create a concept from an explicit member list (first member anchors).
    pub fn concept_members(mut self, label: impl Into<String>, members: Vec<ElementId>) -> Self {
        let idx = self.summary.concepts.len();
        for &m in &members {
            self.summary.assignment.entry(m).or_insert(idx);
        }
        self.summary.concepts.push(Concept {
            label: label.into(),
            anchor: members.first().copied().unwrap_or(ElementId(0)),
            members,
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Summary {
        self.summary
    }
}

/// Importance score of an element for automatic summarization.
///
/// Blends (log) subtree size, fanout, documentation presence, and a bonus
/// for container kinds. Mirrors the *structural hints* approach of the
/// summarization literature the paper cites.
pub fn importance(schema: &Schema, id: ElementId) -> f64 {
    let e = schema.element(id);
    let subtree = schema.subtree_size(id) as f64;
    let fanout = e.children.len() as f64;
    let doc_bonus = if e.has_doc() { 0.5 } else { 0.0 };
    let kind_bonus = if e.kind.is_container_like() { 1.0 } else { 0.0 };
    // Depth discounts: depth-1 anchors are the natural concept grain.
    let depth_penalty = f64::from(e.depth - 1) * 0.75;
    subtree.ln_1p() + fanout.ln_1p() * 0.5 + doc_bonus + kind_bonus - depth_penalty
}

/// Automatically summarize `schema` into at most `k` concepts.
///
/// The `k` most important container elements become concept anchors; every
/// element is assigned to its nearest anchor ancestor (elements with no
/// anchor ancestor stay unassigned, mirroring the paper's partial mapping).
pub fn auto_summarize(schema: &Schema, k: usize) -> Summary {
    let mut ranked: Vec<(ElementId, f64)> = schema
        .ids()
        .filter(|&id| {
            let e = schema.element(id);
            e.kind.is_container_like() || !e.children.is_empty()
        })
        .map(|id| (id, importance(schema, id)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    // Prefer anchors that are not descendants of already-chosen anchors, so
    // concepts tile the schema rather than nesting.
    let mut anchors: Vec<ElementId> = Vec::with_capacity(k);
    for (id, _) in ranked {
        if anchors.len() >= k {
            break;
        }
        if anchors.iter().any(|&a| schema.is_in_subtree(id, a)) {
            continue;
        }
        anchors.push(id);
    }

    let mut builder = Summary::builder();
    for &a in &anchors {
        builder = builder.concept_subtree(schema, schema.element(a).name.clone(), a);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::DataType;

    fn schema() -> Schema {
        let mut s = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let ev = s.add_root("All_Event_Vitals", ElementKind::Table, DataType::None);
        for c in ["event_id", "begin_date", "end_date", "event_type"] {
            s.add_child(ev, c, ElementKind::Column, DataType::text())
                .unwrap();
        }
        let p = s.add_root("Person", ElementKind::Table, DataType::None);
        for c in ["person_id", "last_name"] {
            s.add_child(p, c, ElementKind::Column, DataType::text())
                .unwrap();
        }
        let misc = s.add_root("zz_audit_log", ElementKind::Table, DataType::None);
        s.add_child(misc, "entry", ElementKind::Column, DataType::text())
            .unwrap();
        s
    }

    #[test]
    fn manual_summary_maps_subtrees() {
        let s = schema();
        let ev = s.find_by_name("All_Event_Vitals").unwrap();
        let p = s.find_by_name("Person").unwrap();
        let summary = Summary::builder()
            .concept_subtree(&s, "Event", ev)
            .concept_subtree(&s, "Person", p)
            .build();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary.labels(), vec!["Event", "Person"]);
        let bd = s.find_by_name("begin_date").unwrap();
        assert_eq!(summary.concept_of(bd).unwrap().label, "Event");
        let entry = s.find_by_name("entry").unwrap();
        assert!(summary.concept_of(entry).is_none(), "unassigned remains");
        // Coverage: (1+4) + (1+2) of 10 elements.
        assert!((summary.coverage(&s) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn first_assignment_wins_on_overlap() {
        let s = schema();
        let ev = s.find_by_name("All_Event_Vitals").unwrap();
        let bd = s.find_by_name("begin_date").unwrap();
        let summary = Summary::builder()
            .concept_subtree(&s, "Event", ev)
            .concept_members("Dates", vec![bd])
            .build();
        // begin_date was already claimed by Event.
        assert_eq!(summary.concept_of(bd).unwrap().label, "Event");
        assert_eq!(summary.concepts[1].size(), 1, "members list still recorded");
    }

    #[test]
    fn summary_schema_is_matchable() {
        let s = schema();
        let ev = s.find_by_name("All_Event_Vitals").unwrap();
        let summary = Summary::builder().concept_subtree(&s, "Event", ev).build();
        let s_prime = summary.to_schema(SchemaId(100), "S_A'");
        assert_eq!(s_prime.len(), 1);
        assert_eq!(
            s_prime.element(s_prime.roots()[0]).kind,
            ElementKind::Concept
        );
        s_prime.validate().unwrap();
    }

    #[test]
    fn importance_favours_large_documented_containers() {
        let mut s = schema();
        let ev = s.find_by_name("All_Event_Vitals").unwrap();
        let misc = s.find_by_name("zz_audit_log").unwrap();
        assert!(importance(&s, ev) > importance(&s, misc));
        let col = s.find_by_name("begin_date").unwrap();
        assert!(importance(&s, ev) > importance(&s, col));
        // Documentation adds importance.
        let before = importance(&s, misc);
        s.set_doc(misc, sm_schema::Documentation::embedded("audit trail"))
            .unwrap();
        assert!(importance(&s, misc) > before);
    }

    #[test]
    fn auto_summarize_picks_top_tables() {
        let s = schema();
        let summary = auto_summarize(&s, 2);
        assert_eq!(summary.len(), 2);
        let labels = summary.labels();
        assert!(labels.contains(&"All_Event_Vitals"));
        assert!(labels.contains(&"Person"));
        // All members of chosen subtrees are assigned.
        let bd = s.find_by_name("begin_date").unwrap();
        assert!(summary.concept_of(bd).is_some());
    }

    #[test]
    fn auto_summarize_k_larger_than_schema() {
        let s = schema();
        let summary = auto_summarize(&s, 50);
        // Anchors don't nest, so at most the number of roots here.
        assert_eq!(summary.len(), 3);
        assert!((summary.coverage(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_summarize_empty_schema() {
        let s = Schema::new(SchemaId(9), "e", SchemaFormat::Generic);
        let summary = auto_summarize(&s, 5);
        assert!(summary.is_empty());
        assert_eq!(summary.coverage(&s), 0.0);
    }

    #[test]
    fn anchors_do_not_nest() {
        // A deep schema: one root with a big child subtree. Auto summarize
        // with k=2 must not pick both the root and its child.
        let mut s = Schema::new(SchemaId(1), "x", SchemaFormat::Xml);
        let root = s.add_root("Mission", ElementKind::ComplexType, DataType::None);
        let sub = s
            .add_child(root, "Tasking", ElementKind::ComplexType, DataType::None)
            .unwrap();
        for i in 0..6 {
            s.add_child(
                sub,
                format!("t{i}"),
                ElementKind::XmlElement,
                DataType::text(),
            )
            .unwrap();
        }
        let summary = auto_summarize(&s, 2);
        assert_eq!(summary.len(), 1, "nested anchor suppressed");
        assert_eq!(summary.concepts[0].label, "Mission");
    }
}
