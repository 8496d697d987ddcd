//! Naming-convention noise.
//!
//! Two independently developed systems never spell the same concept the same
//! way. This module renders canonical token sequences into schema-element
//! names under a per-schema [`NamingStyle`], applying the noise processes
//! visible in the paper's own example (`DATE_BEGIN_156 ⇔
//! DATETIME_FIRST_INFO`): abbreviation, synonym substitution, token
//! reordering, case conventions, and numeric suffixes.

use rand::rngs::SmallRng;
use rand::Rng;
use sm_text::abbrev::AbbrevDict;
use std::collections::HashMap;

/// Identifier case conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// `begin_date`
    Snake,
    /// `BEGIN_DATE`
    UpperSnake,
    /// `BeginDate`
    Pascal,
    /// `beginDate`
    Camel,
}

impl Case {
    /// Render tokens under this convention.
    pub fn render(self, tokens: &[String]) -> String {
        match self {
            Case::Snake => tokens.join("_"),
            Case::UpperSnake => tokens
                .iter()
                .map(|t| t.to_uppercase())
                .collect::<Vec<_>>()
                .join("_"),
            Case::Pascal => tokens.iter().map(|t| capitalize(t)).collect(),
            Case::Camel => {
                let mut out = String::new();
                for (i, t) in tokens.iter().enumerate() {
                    if i == 0 {
                        out.push_str(t);
                    } else {
                        out.push_str(&capitalize(t));
                    }
                }
                out
            }
        }
    }
}

fn capitalize(t: &str) -> String {
    let mut chars = t.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Synonym classes: members are interchangeable spellings of one meaning.
/// The matcher does NOT know this table — that is the point: synonym noise
/// is what makes the task hard and recall < 1.
const SYNONYM_CLASSES: &[&[&str]] = &[
    &["begin", "start", "initial"],
    &["end", "finish", "final", "termination"],
    &["name", "designation", "title"],
    &["type", "kind", "class"],
    &["identifier", "key"],
    &["description", "narrative", "details"],
    &["remarks", "notes", "comment"],
    &["status", "state", "condition"],
    &["quantity", "amount"],
    &["location", "place", "site"],
    &["priority", "precedence"],
    &["speed", "velocity"],
    &["organization", "organisation"],
    &["update", "revision"],
    &["report", "account"],
];

/// A per-schema naming convention.
#[derive(Debug, Clone)]
pub struct NamingStyle {
    /// Case convention.
    pub case: Case,
    /// Probability of replacing a token with a known abbreviation.
    pub abbrev_prob: f64,
    /// Probability of replacing a token with a synonym from its class.
    pub synonym_prob: f64,
    /// Probability of appending a numeric suffix (`_156`).
    pub numeric_suffix_prob: f64,
    /// Optional fixed prefix token (`tbl`, `t`).
    pub prefix: Option<String>,
    /// Probability of dropping a middle token from 3+-token names
    /// (enterprise names truncate: `vehicle maintenance status` →
    /// `vehicle status`).
    pub drop_token_prob: f64,
}

impl NamingStyle {
    /// A clean relational style: lower snake, moderate abbreviation.
    pub fn relational() -> Self {
        NamingStyle {
            case: Case::Snake,
            abbrev_prob: 0.35,
            synonym_prob: 0.15,
            numeric_suffix_prob: 0.05,
            prefix: None,
            drop_token_prob: 0.1,
        }
    }

    /// A legacy style: upper snake, heavy abbreviation and suffixes — the
    /// flavour of the paper's `DATE_BEGIN_156`.
    pub fn legacy() -> Self {
        NamingStyle {
            case: Case::UpperSnake,
            abbrev_prob: 0.55,
            synonym_prob: 0.2,
            numeric_suffix_prob: 0.25,
            prefix: None,
            drop_token_prob: 0.15,
        }
    }

    /// A modern XML style: Pascal case, few abbreviations.
    pub fn xml() -> Self {
        NamingStyle {
            case: Case::Pascal,
            abbrev_prob: 0.1,
            synonym_prob: 0.15,
            numeric_suffix_prob: 0.0,
            prefix: None,
            drop_token_prob: 0.05,
        }
    }

    /// Noise-free rendering (for debugging and ablation baselines).
    pub fn clean(case: Case) -> Self {
        NamingStyle {
            case,
            abbrev_prob: 0.0,
            synonym_prob: 0.0,
            numeric_suffix_prob: 0.0,
            prefix: None,
            drop_token_prob: 0.0,
        }
    }
}

/// Stateful renderer applying a [`NamingStyle`] with a shared RNG.
pub struct NameRenderer {
    style: NamingStyle,
    reverse_abbrev: HashMap<String, String>,
    synonyms: HashMap<String, Vec<String>>,
}

impl NameRenderer {
    /// Build a renderer for one style. The abbreviating map is derived from
    /// the same [`AbbrevDict`] the matcher expands with (single-word
    /// expansions only), keeping generator and matcher vocabularies honest.
    pub fn new(style: NamingStyle) -> Self {
        let dict = AbbrevDict::builtin();
        let mut reverse_abbrev: HashMap<String, String> = HashMap::new();
        for (abbr, expansion) in dict.entries() {
            if expansion.len() == 1 {
                // Prefer the shortest abbreviation for a word; break length
                // ties lexicographically so the map is deterministic
                // regardless of HashMap iteration order.
                let e = reverse_abbrev
                    .entry(expansion[0].clone())
                    .or_insert_with(|| abbr.to_string());
                if abbr.len() < e.len() || (abbr.len() == e.len() && abbr < e.as_str()) {
                    *e = abbr.to_string();
                }
            }
        }
        let mut synonyms: HashMap<String, Vec<String>> = HashMap::new();
        for class in SYNONYM_CLASSES {
            for &w in *class {
                synonyms.insert(
                    w.to_string(),
                    class
                        .iter()
                        .filter(|&&x| x != w)
                        .map(|&x| x.to_string())
                        .collect(),
                );
            }
        }
        NameRenderer {
            style,
            reverse_abbrev,
            synonyms,
        }
    }

    /// Render canonical tokens into a noisy element name.
    pub fn render(&self, tokens: &[String], rng: &mut SmallRng) -> String {
        let mut toks: Vec<String> = tokens.to_vec();
        // Drop a middle token from long names.
        if toks.len() >= 3 && rng.gen_bool(self.style.drop_token_prob) {
            let i = rng.gen_range(1..toks.len() - 1);
            toks.remove(i);
        }
        // Synonym substitution (semantic noise, invisible to the matcher).
        for t in &mut toks {
            if rng.gen_bool(self.style.synonym_prob) {
                if let Some(alts) = self.synonyms.get(t.as_str()) {
                    if !alts.is_empty() {
                        *t = alts[rng.gen_range(0..alts.len())].clone();
                    }
                }
            }
        }
        // Abbreviation (surface noise, recoverable by the matcher's dict).
        for t in &mut toks {
            if rng.gen_bool(self.style.abbrev_prob) {
                if let Some(a) = self.reverse_abbrev.get(t.as_str()) {
                    *t = a.clone();
                }
            }
        }
        if let Some(p) = &self.style.prefix {
            toks.insert(0, p.clone());
        }
        let mut name = self.style.case.render(&toks);
        if rng.gen_bool(self.style.numeric_suffix_prob) {
            let n: u32 = rng.gen_range(1..999);
            name = match self.style.case {
                Case::Snake | Case::UpperSnake => format!("{name}_{n}"),
                _ => format!("{name}{n}"),
            };
        }
        name
    }

    /// The style in use.
    pub fn style(&self) -> &NamingStyle {
        &self.style
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toks(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn case_conventions_render() {
        let t = toks(&["begin", "date"]);
        assert_eq!(Case::Snake.render(&t), "begin_date");
        assert_eq!(Case::UpperSnake.render(&t), "BEGIN_DATE");
        assert_eq!(Case::Pascal.render(&t), "BeginDate");
        assert_eq!(Case::Camel.render(&t), "beginDate");
    }

    #[test]
    fn clean_style_is_deterministic_identity() {
        let r = NameRenderer::new(NamingStyle::clean(Case::Snake));
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(r.render(&toks(&["begin", "date"]), &mut rng), "begin_date");
        assert_eq!(r.render(&toks(&["begin", "date"]), &mut rng), "begin_date");
    }

    #[test]
    fn legacy_style_abbreviates_and_suffixes_sometimes() {
        let r = NameRenderer::new(NamingStyle::legacy());
        let mut rng = SmallRng::seed_from_u64(42);
        let mut abbreviated = 0;
        let mut suffixed = 0;
        for _ in 0..200 {
            let name = r.render(&toks(&["quantity", "date"]), &mut rng);
            if name.contains("QTY") || name.contains("DT") {
                abbreviated += 1;
            }
            if name.chars().last().is_some_and(|c| c.is_ascii_digit()) {
                suffixed += 1;
            }
            assert_eq!(name, name.to_uppercase(), "upper-snake style");
        }
        assert!(abbreviated > 40, "abbreviation rate too low: {abbreviated}");
        assert!(suffixed > 20, "suffix rate too low: {suffixed}");
    }

    #[test]
    fn synonym_substitution_happens() {
        let style = NamingStyle {
            synonym_prob: 1.0,
            ..NamingStyle::clean(Case::Snake)
        };
        let r = NameRenderer::new(style);
        let mut rng = SmallRng::seed_from_u64(3);
        let name = r.render(&toks(&["begin"]), &mut rng);
        assert!(
            name == "start" || name == "initial",
            "begin should be replaced, got {name}"
        );
    }

    #[test]
    fn prefix_applied() {
        let style = NamingStyle {
            prefix: Some("tbl".to_string()),
            ..NamingStyle::clean(Case::Snake)
        };
        let r = NameRenderer::new(style);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(r.render(&toks(&["person"]), &mut rng), "tbl_person");
    }

    #[test]
    fn token_dropping_shortens_long_names() {
        let style = NamingStyle {
            drop_token_prob: 1.0,
            ..NamingStyle::clean(Case::Snake)
        };
        let r = NameRenderer::new(style);
        let mut rng = SmallRng::seed_from_u64(3);
        let name = r.render(&toks(&["vehicle", "maintenance", "status"]), &mut rng);
        assert_eq!(name, "vehicle_status");
        // Two-token names never drop.
        let short = r.render(&toks(&["begin", "date"]), &mut rng);
        assert_eq!(short, "begin_date");
    }

    #[test]
    fn reverse_abbreviation_round_trips_through_matcher_dict() {
        // Whatever the renderer abbreviates, the matcher's dictionary must
        // expand back to the original word.
        let style = NamingStyle {
            abbrev_prob: 1.0,
            ..NamingStyle::clean(Case::Snake)
        };
        let r = NameRenderer::new(style);
        let dict = AbbrevDict::builtin();
        let mut rng = SmallRng::seed_from_u64(9);
        for word in ["quantity", "organization", "vehicle", "location", "weapon"] {
            let rendered = r.render(&toks(&[word]), &mut rng);
            let expanded = dict.expand(&rendered);
            assert_eq!(expanded, vec![word.to_string()], "{word} → {rendered}");
        }
    }
}
