//! Schema elements: the nodes of a schema tree.

use crate::datatype::DataType;
use crate::doc::Documentation;
use std::fmt;

/// Index of an element within its [`crate::Schema`]'s arena.
///
/// Ids are dense (`0..schema.len()`) and stable for the lifetime of the
/// schema, which lets the match engine store scores in flat matrices indexed
/// by `(source id, target id)` — essential for the paper's 1378×784 ≈ 10^6
/// pair workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

impl ElementId {
    /// The arena index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What kind of schema construct an element represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Relational table (depth 1 in the paper's model).
    Table,
    /// Relational view.
    View,
    /// Relational column (depth 2).
    Column,
    /// XML complex type.
    ComplexType,
    /// XML element declaration.
    XmlElement,
    /// XML attribute.
    Attribute,
    /// Grouping node with no format-specific meaning.
    Group,
    /// A concept node in a schema summary (see `harmony-core::summarize`).
    Concept,
}

impl ElementKind {
    /// True for nodes that normally carry a value type (leaves).
    pub fn is_leaf_like(self) -> bool {
        matches!(
            self,
            ElementKind::Column | ElementKind::Attribute | ElementKind::XmlElement
        )
    }

    /// True for nodes that normally contain other nodes.
    pub fn is_container_like(self) -> bool {
        matches!(
            self,
            ElementKind::Table
                | ElementKind::View
                | ElementKind::ComplexType
                | ElementKind::Group
                | ElementKind::Concept
        )
    }

    /// Rough cross-format equivalence used by structural voters: a `Table`
    /// plays the same role as a `ComplexType`, a `Column` the same role as an
    /// `Attribute` or leaf `XmlElement`.
    pub fn role_compatible(self, other: ElementKind) -> bool {
        self.is_container_like() == other.is_container_like()
    }
}

impl fmt::Display for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ElementKind::Table => "table",
            ElementKind::View => "view",
            ElementKind::Column => "column",
            ElementKind::ComplexType => "complexType",
            ElementKind::XmlElement => "element",
            ElementKind::Attribute => "attribute",
            ElementKind::Group => "group",
            ElementKind::Concept => "concept",
        };
        f.write_str(s)
    }
}

/// A node of a schema tree.
///
/// Elements are created through [`crate::Schema`]'s builder methods; the
/// fields are public for read access but structural invariants (parent/child
/// consistency, depth correctness) are maintained by the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// This element's id in the owning schema's arena.
    pub id: ElementId,
    /// Name as it appears in the schema definition (e.g. `DATE_BEGIN_156`).
    pub name: String,
    /// The construct this node represents.
    pub kind: ElementKind,
    /// Normalized value type ([`DataType::None`] for containers).
    pub datatype: DataType,
    /// Attached documentation, if any.
    pub doc: Option<Documentation>,
    /// Parent element, `None` for roots.
    pub parent: Option<ElementId>,
    /// Children in definition order.
    pub children: Vec<ElementId>,
    /// Depth in the tree: roots (tables, top-level types) have depth 1,
    /// matching the paper's depth-filter convention ("relations appear at a
    /// depth of one and attributes at a depth of two").
    pub depth: u16,
}

impl Element {
    /// True when the element has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Documentation text, or `""` when absent.
    pub fn doc_text(&self) -> &str {
        self.doc
            .as_ref()
            .map(|d| d.description.as_str())
            .unwrap_or("")
    }

    /// Whether any non-empty documentation is attached.
    pub fn has_doc(&self) -> bool {
        self.doc.as_ref().is_some_and(|d| !d.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: ElementKind) -> Element {
        Element {
            id: ElementId(0),
            name: "X".into(),
            kind,
            datatype: DataType::Unknown,
            doc: None,
            parent: None,
            children: vec![],
            depth: 1,
        }
    }

    #[test]
    fn leaf_and_container_kinds_are_disjoint() {
        for k in [
            ElementKind::Table,
            ElementKind::View,
            ElementKind::Column,
            ElementKind::ComplexType,
            ElementKind::XmlElement,
            ElementKind::Attribute,
            ElementKind::Group,
            ElementKind::Concept,
        ] {
            // XmlElement is deliberately both: it can nest or carry a value.
            if k == ElementKind::XmlElement {
                assert!(k.is_leaf_like() && !k.is_container_like());
            } else {
                assert!(k.is_leaf_like() != k.is_container_like(), "{k}");
            }
        }
    }

    #[test]
    fn role_compatibility_crosses_formats() {
        assert!(ElementKind::Table.role_compatible(ElementKind::ComplexType));
        assert!(ElementKind::Column.role_compatible(ElementKind::Attribute));
        assert!(ElementKind::Column.role_compatible(ElementKind::XmlElement));
        assert!(!ElementKind::Table.role_compatible(ElementKind::Column));
    }

    #[test]
    fn doc_text_defaults_to_empty() {
        let mut e = sample(ElementKind::Column);
        assert_eq!(e.doc_text(), "");
        assert!(!e.has_doc());
        e.doc = Some(Documentation::embedded("the begin date"));
        assert_eq!(e.doc_text(), "the begin date");
        assert!(e.has_doc());
    }

    #[test]
    fn element_id_display_and_index() {
        assert_eq!(ElementId(17).to_string(), "e17");
        assert_eq!(ElementId(17).index(), 17);
    }
}
