//! The latent domain ontology: the semantic space schemata are drawn from.
//!
//! Concepts ("Person", "Vehicle", "MaintenanceEvent", …) carry attributes
//! ("person id", "begin date", …). A generated schema *realizes* a subset of
//! concepts and attributes; two schemata overlap exactly where they realize
//! the same atoms. The base vocabulary is military/enterprise flavoured to
//! mirror the paper's domain (persons, vehicles, military units, events).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sm_schema::DataType;

/// Identifies one semantic atom of the ontology: a concept or one of its
/// attributes. Two schema elements correspond iff they realize the same atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SemanticId {
    /// The concept itself (realized as a table / complex type).
    Concept(u32),
    /// Attribute `attr` of concept `concept`.
    Attribute {
        /// Concept index.
        concept: u32,
        /// Attribute index within the concept.
        attr: u32,
    },
}

/// One attribute of a concept.
#[derive(Debug, Clone)]
pub struct AttributeSpec {
    /// Canonical name tokens, lowercase (e.g. `["begin", "date"]`).
    pub tokens: Vec<String>,
    /// Value type.
    pub datatype: DataType,
    /// Canonical documentation sentence.
    pub doc: String,
}

/// One concept of the ontology.
#[derive(Debug, Clone)]
pub struct ConceptSpec {
    /// Canonical name tokens, lowercase (e.g. `["maintenance", "event"]`).
    pub tokens: Vec<String>,
    /// The concept's attributes.
    pub attributes: Vec<AttributeSpec>,
    /// Canonical documentation sentence.
    pub doc: String,
}

impl ConceptSpec {
    /// Number of elements a full realization produces (1 + attributes).
    pub fn size(&self) -> usize {
        1 + self.attributes.len()
    }
}

/// A generated domain ontology.
#[derive(Debug, Clone)]
pub struct Ontology {
    /// All concepts.
    pub concepts: Vec<ConceptSpec>,
}

/// Base nouns for concept construction (military/enterprise flavour, after
/// the paper's "persons, vehicles, and military units" and the emergency-
/// response / health examples of §2).
const BASE_CONCEPTS: &[&str] = &[
    "person",
    "vehicle",
    "unit",
    "event",
    "location",
    "weapon",
    "mission",
    "organization",
    "facility",
    "equipment",
    "supply",
    "order",
    "report",
    "track",
    "sensor",
    "aircraft",
    "vessel",
    "convoy",
    "casualty",
    "patient",
    "incident",
    "shipment",
    "contract",
    "asset",
    "route",
    "position",
    "message",
    "observation",
    "target",
    "exercise",
    "deployment",
    "inventory",
    "munition",
    "personnel",
    "agency",
    "operation",
];

/// Modifier nouns used to derive compound concepts (`vehicle maintenance`,
/// `unit readiness`, …).
const MODIFIERS: &[&str] = &[
    "maintenance",
    "status",
    "history",
    "assignment",
    "readiness",
    "schedule",
    "summary",
    "detail",
    "contact",
    "capability",
    "category",
    "authorization",
    "allocation",
    "qualification",
    "movement",
    "support",
];

/// Attribute nouns combined into attribute names.
const ATTR_NOUNS: &[&str] = &[
    "identifier",
    "name",
    "type",
    "status",
    "code",
    "category",
    "description",
    "priority",
    "quantity",
    "count",
    "level",
    "grade",
    "rank",
    "weight",
    "height",
    "width",
    "length",
    "speed",
    "heading",
    "latitude",
    "longitude",
    "altitude",
    "address",
    "city",
    "country",
    "region",
    "phone",
    "frequency",
    "source",
    "remarks",
    "version",
    "comment",
];

/// Attribute qualifiers (prefix position).
const ATTR_QUALIFIERS: &[&str] = &[
    "begin",
    "end",
    "first",
    "last",
    "primary",
    "secondary",
    "current",
    "previous",
    "planned",
    "actual",
    "estimated",
    "reported",
    "effective",
    "expiration",
    "creation",
    "update",
    "review",
];

/// Date-ish attribute nouns (get temporal types).
const DATE_NOUNS: &[&str] = &["date", "time", "datetime"];

impl Ontology {
    /// Generate an ontology with `concept_count` concepts whose attribute
    /// counts are drawn from `[min_attrs, max_attrs]`, deterministically from
    /// `seed`.
    ///
    /// Concepts are unique: base nouns first, then base×modifier compounds,
    /// then base×modifier×modifier (enough for thousands of concepts).
    pub fn generate(seed: u64, concept_count: usize, min_attrs: usize, max_attrs: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let min_attrs = min_attrs.max(1);
        let max_attrs = max_attrs.max(min_attrs);
        let names = concept_name_pool(concept_count, &mut rng);
        let concepts = names
            .into_iter()
            .enumerate()
            .map(|(ci, tokens)| {
                let n_attrs = rng.gen_range(min_attrs..=max_attrs);
                let attributes = make_attributes(&tokens, n_attrs, &mut rng);
                let doc = concept_doc(&tokens, ci);
                ConceptSpec {
                    tokens,
                    attributes,
                    doc,
                }
            })
            .collect();
        Ontology { concepts }
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True when the ontology has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Total number of semantic atoms (concepts + attributes).
    pub fn atom_count(&self) -> usize {
        self.concepts.iter().map(ConceptSpec::size).sum()
    }

    /// Look up the spec data behind a [`SemanticId`].
    pub fn tokens_of(&self, id: SemanticId) -> &[String] {
        match id {
            SemanticId::Concept(c) => &self.concepts[c as usize].tokens,
            SemanticId::Attribute { concept, attr } => {
                &self.concepts[concept as usize].attributes[attr as usize].tokens
            }
        }
    }

    /// Documentation sentence of an atom.
    pub fn doc_of(&self, id: SemanticId) -> &str {
        match id {
            SemanticId::Concept(c) => &self.concepts[c as usize].doc,
            SemanticId::Attribute { concept, attr } => {
                &self.concepts[concept as usize].attributes[attr as usize].doc
            }
        }
    }
}

/// Build `count` distinct concept-name token sequences.
fn concept_name_pool(count: usize, rng: &mut SmallRng) -> Vec<Vec<String>> {
    let mut names: Vec<Vec<String>> = Vec::with_capacity(count);
    // Tier 1: base nouns, shuffled for variety across seeds.
    let mut bases: Vec<&str> = BASE_CONCEPTS.to_vec();
    bases.shuffle(rng);
    for b in &bases {
        if names.len() >= count {
            return names;
        }
        names.push(vec![b.to_string()]);
    }
    // Tier 2: base × modifier.
    let mut pairs: Vec<(usize, usize)> = (0..bases.len())
        .flat_map(|i| (0..MODIFIERS.len()).map(move |j| (i, j)))
        .collect();
    pairs.shuffle(rng);
    for (i, j) in pairs {
        if names.len() >= count {
            return names;
        }
        names.push(vec![bases[i].to_string(), MODIFIERS[j].to_string()]);
    }
    // Tier 3: base × modifier × modifier (distinct modifiers).
    'tier3: for base in &bases {
        for (j, m1) in MODIFIERS.iter().enumerate() {
            for (k, m2) in MODIFIERS.iter().enumerate() {
                if j == k {
                    continue;
                }
                if names.len() >= count {
                    break 'tier3;
                }
                names.push(vec![base.to_string(), m1.to_string(), m2.to_string()]);
            }
        }
    }
    // Tier 4: base × three distinct modifiers — registry-scale populations
    // (10⁴+ schemata) need more unique concepts than tier 3's ~9k.
    'tier4: for base in &bases {
        for (j, m1) in MODIFIERS.iter().enumerate() {
            for (k, m2) in MODIFIERS.iter().enumerate() {
                if j == k {
                    continue;
                }
                for (l, m3) in MODIFIERS.iter().enumerate() {
                    if l == j || l == k {
                        continue;
                    }
                    if names.len() >= count {
                        break 'tier4;
                    }
                    names.push(vec![
                        base.to_string(),
                        m1.to_string(),
                        m2.to_string(),
                        m3.to_string(),
                    ]);
                }
            }
        }
    }
    names.truncate(count);
    names
}

/// Build `n` distinct attributes for a concept.
fn make_attributes(concept: &[String], n: usize, rng: &mut SmallRng) -> Vec<AttributeSpec> {
    let mut out: Vec<AttributeSpec> = Vec::with_capacity(n);
    let mut used: std::collections::HashSet<Vec<String>> = std::collections::HashSet::new();

    // Every concept gets an identifier and a name first — like real tables.
    let staples: [(&[&str], DataType); 2] = [
        (&["identifier"], DataType::Integer),
        (&["name"], DataType::Text { max_len: Some(80) }),
    ];
    for (toks, dt) in staples {
        if out.len() >= n {
            break;
        }
        let tokens: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
        used.insert(tokens.clone());
        out.push(AttributeSpec {
            doc: attr_doc(concept, &tokens),
            tokens,
            datatype: dt,
        });
    }

    let mut attempts = 0;
    while out.len() < n && attempts < n * 30 {
        attempts += 1;
        let tokens: Vec<String> = if rng.gen_bool(0.25) {
            // Temporal attribute: qualifier + date noun.
            let q = ATTR_QUALIFIERS[rng.gen_range(0..ATTR_QUALIFIERS.len())];
            let d = DATE_NOUNS[rng.gen_range(0..DATE_NOUNS.len())];
            vec![q.to_string(), d.to_string()]
        } else if rng.gen_bool(0.4) {
            // Qualified noun: qualifier + noun.
            let q = ATTR_QUALIFIERS[rng.gen_range(0..ATTR_QUALIFIERS.len())];
            let a = ATTR_NOUNS[rng.gen_range(0..ATTR_NOUNS.len())];
            vec![q.to_string(), a.to_string()]
        } else {
            // Plain noun.
            let a = ATTR_NOUNS[rng.gen_range(0..ATTR_NOUNS.len())];
            vec![a.to_string()]
        };
        if !used.insert(tokens.clone()) {
            continue;
        }
        let datatype = attr_type(&tokens, rng);
        out.push(AttributeSpec {
            doc: attr_doc(concept, &tokens),
            tokens,
            datatype,
        });
    }
    out
}

/// Pick a plausible data type from the attribute's trailing noun.
fn attr_type(tokens: &[String], rng: &mut SmallRng) -> DataType {
    match tokens.last().map(String::as_str) {
        Some("date") => DataType::Date,
        Some("time") => DataType::Time,
        Some("datetime") => DataType::DateTime,
        Some("identifier") | Some("count") | Some("quantity") => DataType::Integer,
        Some("latitude") | Some("longitude") | Some("altitude") | Some("speed")
        | Some("weight") | Some("height") | Some("width") | Some("length") | Some("heading")
        | Some("frequency") => DataType::Float,
        Some("code") | Some("type") | Some("category") | Some("status") | Some("grade")
        | Some("rank") | Some("priority") | Some("level") => DataType::Enum {
            variants: rng.gen_range(3..40),
        },
        _ => DataType::Text {
            max_len: Some(rng.gen_range(20..255)),
        },
    }
}

fn concept_doc(tokens: &[String], idx: usize) -> String {
    format!(
        "Information describing a {} tracked by the enterprise (entity class {}).",
        tokens.join(" "),
        idx
    )
}

fn attr_doc(concept: &[String], tokens: &[String]) -> String {
    format!("The {} of the {}.", tokens.join(" "), concept.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Ontology::generate(7, 50, 5, 12);
        let b = Ontology::generate(7, 50, 5, 12);
        assert_eq!(a.len(), b.len());
        for (ca, cb) in a.concepts.iter().zip(&b.concepts) {
            assert_eq!(ca.tokens, cb.tokens);
            assert_eq!(ca.attributes.len(), cb.attributes.len());
        }
        let c = Ontology::generate(8, 50, 5, 12);
        let same = a
            .concepts
            .iter()
            .zip(&c.concepts)
            .all(|(x, y)| x.tokens == y.tokens && x.attributes.len() == y.attributes.len());
        assert!(!same, "different seeds should differ somewhere");
    }

    #[test]
    fn concept_names_are_unique() {
        let o = Ontology::generate(1, 400, 3, 6);
        assert_eq!(o.len(), 400);
        let set: std::collections::HashSet<&Vec<String>> =
            o.concepts.iter().map(|c| &c.tokens).collect();
        assert_eq!(set.len(), 400);
    }

    #[test]
    fn attributes_unique_within_concept_and_bounded() {
        let o = Ontology::generate(3, 60, 4, 9);
        for c in &o.concepts {
            assert!(
                c.attributes.len() >= 4 && c.attributes.len() <= 9,
                "{}",
                c.attributes.len()
            );
            let set: std::collections::HashSet<&Vec<String>> =
                c.attributes.iter().map(|a| &a.tokens).collect();
            assert_eq!(set.len(), c.attributes.len());
        }
    }

    #[test]
    fn atoms_counted() {
        let o = Ontology::generate(5, 10, 3, 3);
        assert_eq!(o.atom_count(), 10 * 4);
    }

    #[test]
    fn lookups_by_semantic_id() {
        let o = Ontology::generate(5, 10, 3, 5);
        let c0 = SemanticId::Concept(0);
        assert!(!o.tokens_of(c0).is_empty());
        assert!(o.doc_of(c0).contains("entity class 0"));
        let a00 = SemanticId::Attribute {
            concept: 0,
            attr: 0,
        };
        assert_eq!(o.tokens_of(a00), ["identifier"]);
        assert!(o.doc_of(a00).starts_with("The identifier of the "));
    }

    #[test]
    fn staple_attributes_present() {
        let o = Ontology::generate(11, 30, 5, 10);
        for c in &o.concepts {
            assert_eq!(c.attributes[0].tokens, ["identifier"]);
            assert_eq!(c.attributes[1].tokens, ["name"]);
            assert_eq!(c.attributes[0].datatype, DataType::Integer);
        }
    }

    #[test]
    fn large_ontology_supports_paper_scale() {
        // 1378 elements at ~10 attrs/concept needs ~125 concepts; make sure
        // we can go well beyond.
        let o = Ontology::generate(2, 600, 8, 14);
        assert_eq!(o.len(), 600);
        assert!(o.atom_count() > 1378 * 2);
    }

    #[test]
    fn temporal_attributes_get_temporal_types() {
        let o = Ontology::generate(13, 100, 6, 12);
        let mut saw_temporal = false;
        for c in &o.concepts {
            for a in &c.attributes {
                if matches!(
                    a.tokens.last().map(String::as_str),
                    Some("date") | Some("time") | Some("datetime")
                ) {
                    assert!(
                        a.datatype.is_temporal(),
                        "{:?} has {:?}",
                        a.tokens,
                        a.datatype
                    );
                    saw_temporal = true;
                }
            }
        }
        assert!(saw_temporal);
    }
}
