//! Slash-separated stable element paths.
//!
//! Paths identify elements across serialization boundaries (spreadsheets,
//! repositories, provenance records) where arena ids would be meaningless.

use std::fmt;

/// A `/`-separated path of element names from a root to an element, e.g.
/// `All_Event_Vitals/DATE_BEGIN_156`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaPath {
    segments: Vec<String>,
}

impl SchemaPath {
    /// Build from borrowed segments.
    pub fn from_segments<S: AsRef<str>>(segments: &[S]) -> Self {
        SchemaPath {
            segments: segments.iter().map(|s| s.as_ref().to_string()).collect(),
        }
    }

    /// Parse a `/`-separated string. Empty segments are dropped, so
    /// `"/A//B/"` parses as `A/B`.
    pub fn parse(s: &str) -> Self {
        SchemaPath {
            segments: s
                .split('/')
                .filter(|seg| !seg.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// Borrow the path's segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Number of segments; equals the element's depth.
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Last segment: the element's own name. `None` for the empty path.
    pub fn leaf(&self) -> Option<&str> {
        self.segments.last().map(String::as_str)
    }

    /// First segment: the root (table / top-level type) name.
    pub fn root(&self) -> Option<&str> {
        self.segments.first().map(String::as_str)
    }

    /// Path of this element's parent (empty path for roots).
    pub fn parent(&self) -> SchemaPath {
        let n = self.segments.len().saturating_sub(1);
        SchemaPath {
            segments: self.segments[..n].to_vec(),
        }
    }

    /// Extend with one more segment.
    pub fn child(&self, name: impl Into<String>) -> SchemaPath {
        let mut segments = self.segments.clone();
        segments.push(name.into());
        SchemaPath { segments }
    }

    /// True when `self` is a prefix of `other` (or equal to it).
    pub fn is_prefix_of(&self, other: &SchemaPath) -> bool {
        other.segments.len() >= self.segments.len()
            && other.segments[..self.segments.len()] == self.segments[..]
    }

    /// True for the zero-segment path.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

impl fmt::Display for SchemaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.segments.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let p = SchemaPath::parse("Vehicle/Wheel/size");
        assert_eq!(p.to_string(), "Vehicle/Wheel/size");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.leaf(), Some("size"));
        assert_eq!(p.root(), Some("Vehicle"));
    }

    #[test]
    fn parse_drops_empty_segments() {
        assert_eq!(SchemaPath::parse("/A//B/"), SchemaPath::parse("A/B"));
        assert!(SchemaPath::parse("").is_empty());
        assert_eq!(SchemaPath::parse("").leaf(), None);
    }

    #[test]
    fn parent_and_child_are_inverse() {
        let p = SchemaPath::parse("A/B");
        assert_eq!(p.child("C").parent(), p);
        assert!(SchemaPath::parse("A").parent().is_empty());
        assert!(SchemaPath::parse("").parent().is_empty());
    }

    #[test]
    fn prefix_semantics() {
        let a = SchemaPath::parse("A/B");
        let ab = SchemaPath::parse("A/B/C");
        assert!(a.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&a));
        assert!(!ab.is_prefix_of(&a));
        assert!(
            SchemaPath::parse("").is_prefix_of(&a),
            "empty path prefixes all"
        );
        assert!(!SchemaPath::parse("A/X").is_prefix_of(&ab));
    }

    #[test]
    fn ordering_is_lexicographic_by_segment() {
        let mut v = [
            SchemaPath::parse("B"),
            SchemaPath::parse("A/Z"),
            SchemaPath::parse("A"),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
            vec!["A", "A/Z", "B"]
        );
    }
}
