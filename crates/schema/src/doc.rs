//! Element documentation.
//!
//! The paper is explicit that Harmony "relies heavily on textual documentation
//! to identify candidate correspondences instead of data instances because …
//! schema documentation is easier to obtain than data" (§3.2). Documentation
//! is therefore a structured, first-class artifact rather than a bare string.

/// Provenance of a piece of documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocSource {
    /// Comment embedded in the schema definition (DDL comment, xs:annotation).
    Embedded,
    /// External data dictionary or registry entry.
    DataDictionary,
    /// Added by an integration engineer during a matching effort.
    Engineer,
    /// Generated (e.g. by the synthetic workload generator).
    Generated,
}

/// Textual documentation attached to a schema element.
#[derive(Debug, Clone, PartialEq)]
pub struct Documentation {
    /// Free-text description of the element's meaning.
    pub description: String,
    /// Where the description came from.
    pub source: DocSource,
}

impl Documentation {
    /// Documentation embedded in the schema definition itself.
    pub fn embedded(description: impl Into<String>) -> Self {
        Documentation {
            description: description.into(),
            source: DocSource::Embedded,
        }
    }

    /// Documentation from an external data dictionary.
    pub fn dictionary(description: impl Into<String>) -> Self {
        Documentation {
            description: description.into(),
            source: DocSource::DataDictionary,
        }
    }

    /// Documentation produced by a generator.
    pub fn generated(description: impl Into<String>) -> Self {
        Documentation {
            description: description.into(),
            source: DocSource::Generated,
        }
    }

    /// True when the description carries no usable text.
    pub fn is_empty(&self) -> bool {
        self.description.trim().is_empty()
    }

    /// Number of whitespace-separated tokens — the raw "amount of evidence"
    /// this documentation contributes to a documentation voter.
    pub fn token_count(&self) -> usize {
        self.description.split_whitespace().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_source() {
        assert_eq!(Documentation::embedded("x").source, DocSource::Embedded);
        assert_eq!(
            Documentation::dictionary("x").source,
            DocSource::DataDictionary
        );
        assert_eq!(Documentation::generated("x").source, DocSource::Generated);
    }

    #[test]
    fn emptiness_ignores_whitespace() {
        assert!(Documentation::embedded("   \t ").is_empty());
        assert!(!Documentation::embedded("a date").is_empty());
    }

    #[test]
    fn token_count_counts_words() {
        let d = Documentation::embedded("the date the event began");
        assert_eq!(d.token_count(), 5);
        assert_eq!(Documentation::embedded("").token_count(), 0);
    }
}
