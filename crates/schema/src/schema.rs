//! The arena-based schema tree.

use crate::datatype::DataType;
use crate::doc::Documentation;
use crate::element::{Element, ElementId, ElementKind};
use crate::error::SchemaError;
use crate::path::SchemaPath;
use std::collections::HashMap;
use std::fmt;

/// Stable identifier of a schema within a registry or matching effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaId(pub u32);

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The serialization format a schema originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaFormat {
    /// Relational DDL (the paper's S_A, 1378 elements).
    Relational,
    /// XML Schema (the paper's S_B, 784 elements).
    Xml,
    /// Format-agnostic (summaries, mediated schemata, vocabularies).
    Generic,
}

impl fmt::Display for SchemaFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchemaFormat::Relational => "relational",
            SchemaFormat::Xml => "xml",
            SchemaFormat::Generic => "generic",
        };
        f.write_str(s)
    }
}

/// A schema: a named forest of [`Element`]s held in a dense arena.
///
/// # Model
///
/// * Elements are stored in insertion order; [`ElementId`]s are dense indices
///   into that arena. This makes per-pair score matrices flat arrays.
/// * Roots have depth 1; each child is one deeper. The paper's depth filter
///   ("relations appear at a depth of one and attributes at a depth of two")
///   maps directly onto [`Element::depth`].
/// * An element *count* in the paper's sense (S_A "contains 1378 elements")
///   is simply [`Schema::len`].
#[derive(Debug, Clone)]
pub struct Schema {
    /// Registry identifier.
    pub id: SchemaId,
    /// Human-readable schema name (e.g. `"S_A"`).
    pub name: String,
    /// Originating format.
    pub format: SchemaFormat,
    elements: Vec<Element>,
    roots: Vec<ElementId>,
}

impl Schema {
    /// Create an empty schema.
    pub fn new(id: SchemaId, name: impl Into<String>, format: SchemaFormat) -> Self {
        Schema {
            id,
            name: name.into(),
            format,
            elements: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Number of elements (the paper's "schema size").
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the schema has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Root elements in insertion order.
    pub fn roots(&self) -> &[ElementId] {
        &self.roots
    }

    /// Add a root element (depth 1). Returns its id.
    pub fn add_root(
        &mut self,
        name: impl Into<String>,
        kind: ElementKind,
        datatype: DataType,
    ) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element {
            id,
            name: name.into(),
            kind,
            datatype,
            doc: None,
            parent: None,
            children: Vec::new(),
            depth: 1,
        });
        self.roots.push(id);
        id
    }

    /// Add a child of `parent`. Returns the new element's id, or an error if
    /// `parent` is not an element of this schema.
    pub fn add_child(
        &mut self,
        parent: ElementId,
        name: impl Into<String>,
        kind: ElementKind,
        datatype: DataType,
    ) -> Result<ElementId, SchemaError> {
        let parent_depth = self
            .elements
            .get(parent.index())
            .map(|e| e.depth)
            .ok_or(SchemaError::UnknownElement(parent.index()))?;
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element {
            id,
            name: name.into(),
            kind,
            datatype,
            doc: None,
            parent: Some(parent),
            children: Vec::new(),
            depth: parent_depth + 1,
        });
        self.elements[parent.index()].children.push(id);
        Ok(id)
    }

    /// Attach documentation to an element.
    pub fn set_doc(&mut self, id: ElementId, doc: Documentation) -> Result<(), SchemaError> {
        self.elements
            .get_mut(id.index())
            .ok_or(SchemaError::UnknownElement(id.index()))?
            .doc = Some(doc);
        Ok(())
    }

    /// Borrow an element.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.index()]
    }

    /// Borrow an element, returning `None` for foreign ids.
    pub fn get(&self, id: ElementId) -> Option<&Element> {
        self.elements.get(id.index())
    }

    /// All elements in arena (insertion) order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Ids of all elements, `0..len`.
    pub fn ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.elements.len() as u32).map(ElementId)
    }

    /// Pre-order depth-first traversal over the whole forest.
    pub fn preorder(&self) -> Preorder<'_> {
        let mut stack: Vec<ElementId> = self.roots.iter().rev().copied().collect();
        stack.reserve(16);
        Preorder {
            schema: self,
            stack,
        }
    }

    /// Pre-order traversal of the subtree rooted at `root` (inclusive).
    pub fn subtree(&self, root: ElementId) -> Preorder<'_> {
        Preorder {
            schema: self,
            stack: vec![root],
        }
    }

    /// Ids of the subtree rooted at `root`, in pre-order.
    pub fn subtree_ids(&self, root: ElementId) -> Vec<ElementId> {
        self.subtree(root).map(|e| e.id).collect()
    }

    /// Number of elements in the subtree rooted at `root` (inclusive).
    pub fn subtree_size(&self, root: ElementId) -> usize {
        self.subtree(root).count()
    }

    /// The root of the subtree containing `id` (i.e. its depth-1 ancestor).
    pub fn root_of(&self, id: ElementId) -> ElementId {
        let mut cur = id;
        while let Some(p) = self.elements[cur.index()].parent {
            cur = p;
        }
        cur
    }

    /// Chain of ancestors from `id`'s parent up to (and including) its root.
    pub fn ancestors(&self, id: ElementId) -> Vec<ElementId> {
        let mut out = Vec::new();
        let mut cur = self.elements[id.index()].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.elements[p.index()].parent;
        }
        out
    }

    /// True when `ancestor` lies on the path from `id` to its root, or is
    /// `id` itself.
    pub fn is_in_subtree(&self, id: ElementId, ancestor: ElementId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.elements[c.index()].parent;
        }
        false
    }

    /// Slash-separated path from root to `id`.
    pub fn path(&self, id: ElementId) -> SchemaPath {
        let mut names: Vec<&str> = vec![self.elements[id.index()].name.as_str()];
        let mut cur = self.elements[id.index()].parent;
        while let Some(p) = cur {
            names.push(self.elements[p.index()].name.as_str());
            cur = self.elements[p.index()].parent;
        }
        names.reverse();
        SchemaPath::from_segments(&names)
    }

    /// Find the first element with the given name (case-insensitive).
    pub fn find_by_name(&self, name: &str) -> Option<ElementId> {
        self.elements
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
            .map(|e| e.id)
    }

    /// Find an element by its full path.
    pub fn find_by_path(&self, path: &SchemaPath) -> Option<ElementId> {
        let segs = path.segments();
        if segs.is_empty() {
            return None;
        }
        let mut candidates: Vec<ElementId> = self
            .roots
            .iter()
            .copied()
            .filter(|&r| self.elements[r.index()].name == segs[0])
            .collect();
        for seg in &segs[1..] {
            let mut next = Vec::new();
            for c in candidates {
                for &ch in &self.elements[c.index()].children {
                    if self.elements[ch.index()].name == *seg {
                        next.push(ch);
                    }
                }
            }
            candidates = next;
            if candidates.is_empty() {
                return None;
            }
        }
        candidates.first().copied()
    }

    /// Build a name → ids multimap (lowercased names) for fast joins.
    pub fn name_index(&self) -> HashMap<String, Vec<ElementId>> {
        let mut map: HashMap<String, Vec<ElementId>> = HashMap::with_capacity(self.len());
        for e in &self.elements {
            map.entry(e.name.to_ascii_lowercase())
                .or_default()
                .push(e.id);
        }
        map
    }

    /// Maximum depth of any element (0 for an empty schema).
    pub fn max_depth(&self) -> u16 {
        self.elements.iter().map(|e| e.depth).max().unwrap_or(0)
    }

    /// Ids of all elements at exactly the given depth.
    pub fn at_depth(&self, depth: u16) -> Vec<ElementId> {
        self.elements
            .iter()
            .filter(|e| e.depth == depth)
            .map(|e| e.id)
            .collect()
    }

    /// Fraction of elements carrying non-empty documentation, in `[0,1]`.
    pub fn doc_coverage(&self) -> f64 {
        if self.elements.is_empty() {
            return 0.0;
        }
        let documented = self.elements.iter().filter(|e| e.has_doc()).count();
        documented as f64 / self.elements.len() as f64
    }

    /// Validate structural invariants; used by tests and after parsing.
    ///
    /// Checks: parent/child mutual consistency, depth correctness, all roots
    /// have no parent, every non-root is reachable from a root.
    pub fn validate(&self) -> Result<(), SchemaError> {
        for e in &self.elements {
            match e.parent {
                None => {
                    if e.depth != 1 {
                        return Err(SchemaError::InvalidStructure(format!(
                            "root {} has depth {}",
                            e.name, e.depth
                        )));
                    }
                    if !self.roots.contains(&e.id) {
                        return Err(SchemaError::InvalidStructure(format!(
                            "parentless element {} not registered as root",
                            e.name
                        )));
                    }
                }
                Some(p) => {
                    let pe = self
                        .elements
                        .get(p.index())
                        .ok_or(SchemaError::UnknownElement(p.index()))?;
                    if pe.depth + 1 != e.depth {
                        return Err(SchemaError::InvalidStructure(format!(
                            "element {} depth {} but parent depth {}",
                            e.name, e.depth, pe.depth
                        )));
                    }
                    if !pe.children.contains(&e.id) {
                        return Err(SchemaError::InvalidStructure(format!(
                            "parent of {} does not list it as child",
                            e.name
                        )));
                    }
                }
            }
            for &c in &e.children {
                let ce = self
                    .elements
                    .get(c.index())
                    .ok_or(SchemaError::UnknownElement(c.index()))?;
                if ce.parent != Some(e.id) {
                    return Err(SchemaError::InvalidStructure(format!(
                        "child {} of {} has wrong parent",
                        ce.name, e.name
                    )));
                }
            }
        }
        let reachable: usize = self.roots.iter().map(|&r| self.subtree_size(r)).sum();
        if reachable != self.elements.len() {
            return Err(SchemaError::InvalidStructure(format!(
                "{} elements but only {} reachable from roots",
                self.elements.len(),
                reachable
            )));
        }
        Ok(())
    }
}

/// Pre-order DFS iterator over a schema (or subtree). See [`Schema::preorder`].
pub struct Preorder<'a> {
    schema: &'a Schema,
    stack: Vec<ElementId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let e = &self.schema.elements[id.index()];
        // Push children reversed so the leftmost child pops first.
        self.stack.extend(e.children.iter().rev());
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tables with columns — the shape of a miniature S_A.
    fn tiny_relational() -> Schema {
        let mut s = Schema::new(SchemaId(0), "S_A", SchemaFormat::Relational);
        let person = s.add_root("Person", ElementKind::Table, DataType::None);
        s.add_child(person, "person_id", ElementKind::Column, DataType::Integer)
            .unwrap();
        s.add_child(
            person,
            "last_name",
            ElementKind::Column,
            DataType::varchar(40),
        )
        .unwrap();
        let vehicle = s.add_root("Vehicle", ElementKind::Table, DataType::None);
        s.add_child(vehicle, "vin", ElementKind::Column, DataType::varchar(17))
            .unwrap();
        s
    }

    #[test]
    fn counts_and_depths_follow_paper_convention() {
        let s = tiny_relational();
        assert_eq!(s.len(), 5);
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.at_depth(1).len(), 2, "tables at depth 1");
        assert_eq!(s.at_depth(2).len(), 3, "columns at depth 2");
        s.validate().unwrap();
    }

    #[test]
    fn preorder_visits_parent_before_children_left_to_right() {
        let s = tiny_relational();
        let names: Vec<&str> = s.preorder().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Person", "person_id", "last_name", "Vehicle", "vin"]
        );
    }

    #[test]
    fn subtree_iterates_only_descendants() {
        let s = tiny_relational();
        let person = s.find_by_name("Person").unwrap();
        let names: Vec<&str> = s.subtree(person).map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["Person", "person_id", "last_name"]);
        assert_eq!(s.subtree_size(person), 3);
    }

    #[test]
    fn root_of_and_ancestors() {
        let s = tiny_relational();
        let vin = s.find_by_name("vin").unwrap();
        let vehicle = s.find_by_name("Vehicle").unwrap();
        assert_eq!(s.root_of(vin), vehicle);
        assert_eq!(s.root_of(vehicle), vehicle);
        assert_eq!(s.ancestors(vin), vec![vehicle]);
        assert!(s.ancestors(vehicle).is_empty());
    }

    #[test]
    fn subtree_membership() {
        let s = tiny_relational();
        let vin = s.find_by_name("vin").unwrap();
        let vehicle = s.find_by_name("Vehicle").unwrap();
        let person = s.find_by_name("Person").unwrap();
        assert!(s.is_in_subtree(vin, vehicle));
        assert!(s.is_in_subtree(vehicle, vehicle));
        assert!(!s.is_in_subtree(vin, person));
    }

    #[test]
    fn paths_round_trip() {
        let s = tiny_relational();
        let vin = s.find_by_name("vin").unwrap();
        let p = s.path(vin);
        assert_eq!(p.to_string(), "Vehicle/vin");
        assert_eq!(s.find_by_path(&p), Some(vin));
        assert_eq!(s.find_by_path(&SchemaPath::parse("Vehicle/nope")), None);
    }

    #[test]
    fn name_lookup_is_case_insensitive() {
        let s = tiny_relational();
        assert!(s.find_by_name("PERSON").is_some());
        assert!(s.find_by_name("missing").is_none());
    }

    #[test]
    fn name_index_groups_duplicates() {
        let mut s = tiny_relational();
        let v = s.find_by_name("Vehicle").unwrap();
        s.add_child(v, "last_name", ElementKind::Column, DataType::text())
            .unwrap();
        let idx = s.name_index();
        assert_eq!(idx["last_name"].len(), 2);
    }

    #[test]
    fn doc_coverage_fraction() {
        let mut s = tiny_relational();
        assert_eq!(s.doc_coverage(), 0.0);
        let vin = s.find_by_name("vin").unwrap();
        s.set_doc(
            vin,
            Documentation::embedded("vehicle identification number"),
        )
        .unwrap();
        assert!((s.doc_coverage() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn add_child_rejects_foreign_parent() {
        let mut s = tiny_relational();
        let err = s
            .add_child(ElementId(999), "x", ElementKind::Column, DataType::text())
            .unwrap_err();
        assert_eq!(err, SchemaError::UnknownElement(999));
    }

    #[test]
    fn empty_schema_is_valid() {
        let s = Schema::new(SchemaId(9), "empty", SchemaFormat::Generic);
        assert!(s.is_empty());
        assert_eq!(s.max_depth(), 0);
        s.validate().unwrap();
        assert_eq!(s.doc_coverage(), 0.0);
    }
}
