//! Schema statistics.
//!
//! Summaries of a schema's shape used by the automatic summarizer (element
//! importance), schema search (size features), and the experiment harness
//! (the paper reports sizes like "1378 elements" and depth structure).

use crate::element::ElementKind;
use crate::schema::Schema;
use std::collections::BTreeMap;

/// Aggregate statistics of one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaStats {
    /// Total number of elements.
    pub element_count: usize,
    /// Number of depth-1 roots (tables / top-level types).
    pub root_count: usize,
    /// Number of leaves.
    pub leaf_count: usize,
    /// Maximum depth.
    pub max_depth: u16,
    /// Elements per depth level (depth → count).
    pub depth_histogram: BTreeMap<u16, usize>,
    /// Elements per kind.
    pub kind_histogram: BTreeMap<String, usize>,
    /// Mean number of children over container (non-leaf) nodes.
    pub mean_fanout: f64,
    /// Largest subtree size over roots.
    pub max_subtree: usize,
    /// Fraction of elements with non-empty documentation.
    pub doc_coverage: f64,
    /// Mean element-name length in characters.
    pub mean_name_len: f64,
}

impl SchemaStats {
    /// Compute statistics for `schema`.
    pub fn compute(schema: &Schema) -> Self {
        let mut depth_histogram: BTreeMap<u16, usize> = BTreeMap::new();
        let mut kind_histogram: BTreeMap<String, usize> = BTreeMap::new();
        let mut leaf_count = 0usize;
        let mut fanout_sum = 0usize;
        let mut container_count = 0usize;
        let mut name_len_sum = 0usize;

        for e in schema.elements() {
            *depth_histogram.entry(e.depth).or_insert(0) += 1;
            *kind_histogram.entry(e.kind.to_string()).or_insert(0) += 1;
            if e.is_leaf() {
                leaf_count += 1;
            } else {
                fanout_sum += e.children.len();
                container_count += 1;
            }
            name_len_sum += e.name.chars().count();
        }

        let max_subtree = schema
            .roots()
            .iter()
            .map(|&r| schema.subtree_size(r))
            .max()
            .unwrap_or(0);

        let n = schema.len();
        SchemaStats {
            element_count: n,
            root_count: schema.roots().len(),
            leaf_count,
            max_depth: schema.max_depth(),
            depth_histogram,
            kind_histogram,
            mean_fanout: if container_count == 0 {
                0.0
            } else {
                fanout_sum as f64 / container_count as f64
            },
            max_subtree,
            doc_coverage: schema.doc_coverage(),
            mean_name_len: if n == 0 {
                0.0
            } else {
                name_len_sum as f64 / n as f64
            },
        }
    }

    /// Count of elements of a given kind.
    pub fn kind_count(&self, kind: ElementKind) -> usize {
        self.kind_histogram
            .get(&kind.to_string())
            .copied()
            .unwrap_or(0)
    }

    /// A compact fixed-length numeric feature vector used by schema search
    /// and clustering as a cheap pre-filter (log-scaled sizes, shape ratios).
    pub fn feature_vector(&self) -> [f64; 6] {
        let n = self.element_count.max(1) as f64;
        [
            (self.element_count as f64 + 1.0).ln(),
            (self.root_count as f64 + 1.0).ln(),
            self.leaf_count as f64 / n,
            f64::from(self.max_depth),
            self.mean_fanout,
            self.doc_coverage,
        ]
    }
}

/// Euclidean distance between two stats feature vectors.
pub fn feature_distance(a: &SchemaStats, b: &SchemaStats) -> f64 {
    let fa = a.feature_vector();
    let fb = b.feature_vector();
    fa.iter()
        .zip(fb.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::doc::Documentation;
    use crate::schema::{SchemaFormat, SchemaId};

    fn sample() -> Schema {
        let mut s = Schema::new(SchemaId(1), "x", SchemaFormat::Relational);
        let t = s.add_root("Person", ElementKind::Table, DataType::None);
        for name in ["a", "bb", "ccc"] {
            s.add_child(t, name, ElementKind::Column, DataType::Integer)
                .unwrap();
        }
        let u = s.add_root("Unit", ElementKind::Table, DataType::None);
        let c = s
            .add_child(u, "name", ElementKind::Column, DataType::text())
            .unwrap();
        s.set_doc(c, Documentation::embedded("unit name")).unwrap();
        s
    }

    #[test]
    fn counts_are_correct() {
        let st = SchemaStats::compute(&sample());
        assert_eq!(st.element_count, 6);
        assert_eq!(st.root_count, 2);
        assert_eq!(st.leaf_count, 4);
        assert_eq!(st.max_depth, 2);
        assert_eq!(st.depth_histogram[&1], 2);
        assert_eq!(st.depth_histogram[&2], 4);
        assert_eq!(st.kind_count(ElementKind::Table), 2);
        assert_eq!(st.kind_count(ElementKind::Column), 4);
        assert_eq!(st.kind_count(ElementKind::Attribute), 0);
        assert_eq!(st.max_subtree, 4);
    }

    #[test]
    fn fanout_and_name_length() {
        let st = SchemaStats::compute(&sample());
        assert!((st.mean_fanout - 2.0).abs() < 1e-12, "mean of 3 and 1");
        // person(6)+a(1)+bb(2)+ccc(3)+unit(4)+name(4) = 20 / 6
        assert!((st.mean_name_len - 20.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn doc_coverage_propagates() {
        let st = SchemaStats::compute(&sample());
        assert!((st.doc_coverage - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schema_stats_are_zero() {
        let s = Schema::new(SchemaId(1), "e", SchemaFormat::Generic);
        let st = SchemaStats::compute(&s);
        assert_eq!(st.element_count, 0);
        assert_eq!(st.mean_fanout, 0.0);
        assert_eq!(st.mean_name_len, 0.0);
        assert_eq!(st.max_subtree, 0);
    }

    #[test]
    fn identical_schemata_have_zero_feature_distance() {
        let a = SchemaStats::compute(&sample());
        let b = SchemaStats::compute(&sample());
        assert_eq!(feature_distance(&a, &b), 0.0);
    }

    #[test]
    fn feature_distance_grows_with_size_difference() {
        let small = SchemaStats::compute(&sample());
        let mut big_schema = sample();
        for i in 0..50 {
            let t = big_schema.add_root(format!("T{i}"), ElementKind::Table, DataType::None);
            for j in 0..10 {
                big_schema
                    .add_child(t, format!("c{j}"), ElementKind::Column, DataType::Integer)
                    .unwrap();
            }
        }
        let big = SchemaStats::compute(&big_schema);
        assert!(feature_distance(&small, &big) > 1.0);
    }
}
