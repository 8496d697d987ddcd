//! Integration tests spanning every crate: parse → match → workflow →
//! partition → export, plus repository round trips.

use harmony_core::prelude::*;
use harmony_core::workflow::NoisyOracle;
use schema_match_suite::consolidation_study;
use sm_enterprise::{MatchContextTag, MetadataRepository, SchemaSearch};
use sm_export::{csv::parse_csv, MatchReport, ReportSort, Workbook};
use sm_schema::{ddl::parse_ddl, xsd::parse_xsd, SchemaId};
use sm_synth::{GeneratorConfig, SchemaPair};

const DDL: &str = r#"
-- people tracked by the system
CREATE TABLE Person (
    person_id INT PRIMARY KEY,  -- unique person identifier
    last_name VARCHAR(40),
    birth_dt DATE               -- date of birth
);
CREATE TABLE Vehicle (
    vin VARCHAR(17) PRIMARY KEY, -- vehicle identification number
    owner_id INT REFERENCES Person(person_id)
);
"#;

const XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="PersonType">
    <xs:sequence>
      <xs:element name="PersonIdentifier" type="xs:integer">
        <xs:annotation><xs:documentation>unique identifier of a person</xs:documentation></xs:annotation>
      </xs:element>
      <xs:element name="LastName" type="xs:string"/>
      <xs:element name="BirthDate" type="xs:date"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="FacilityType">
    <xs:sequence>
      <xs:element name="FacilityName" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>
"#;

#[test]
fn parse_match_partition_export_pipeline() {
    let source = parse_ddl(SchemaId(1), "S_A", DDL).unwrap();
    let target = parse_xsd(SchemaId(2), "S_B", XSD).unwrap();

    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&source, &target);
    assert_eq!(result.pairs_considered, source.len() * target.len());

    // The obvious true pairs must clear a moderate threshold.
    let candidates = Selection::OneToOne {
        min: Confidence::new(0.2),
    }
    .apply(&result.matrix);
    let has = |s: &str, t: &str| {
        candidates
            .all()
            .iter()
            .any(|c| source.element(c.source).name == s && target.element(c.target).name == t)
    };
    assert!(has("person_id", "PersonIdentifier"));
    assert!(has("last_name", "LastName"));
    assert!(has("birth_dt", "BirthDate"));

    // Partition the validated view.
    let mut validated = MatchSet::new();
    for c in candidates.all() {
        validated.push(c.clone().validate("it", MatchAnnotation::Equivalent));
    }
    let partition = BinaryPartition::compute(&source, &target, &validated);
    let (only_s, only_t, shared_t) = partition.cardinalities();
    assert_eq!(only_t + shared_t, target.len());
    assert!(only_s < source.len());

    // Export a match-centric report and parse it back.
    let mut report = MatchReport::build(&source, &target, &validated);
    report.sort(ReportSort::ScoreDescending);
    let rows = parse_csv(&report.to_csv());
    assert_eq!(rows.len(), 1 + validated.len());
}

#[test]
fn consolidation_study_matches_paper_shape_at_scale() {
    // A mid-size instance keeps CI time modest while preserving the shape.
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(42, 0.25));
    let engine = MatchEngine::new();
    let mut reviewer = NoisyOracle::new(pair.truth.pairs().clone(), 0.05, 7);
    let outcome = consolidation_study(
        &engine,
        &pair.source,
        &pair.target,
        pair.source_anchors.len(),
        Confidence::new(0.30),
        &mut reviewer,
    );
    // Overlap estimate within 10 points of the planted 34%.
    let measured = outcome.partition.target_matched_fraction();
    assert!(
        (measured - 0.34).abs() < 0.10,
        "measured overlap {measured} too far from planted 0.34"
    );
    // Quality respectable even with a 5%-error reviewer.
    let eval = pair.truth.evaluate_validated(&outcome.matches);
    assert!(eval.precision > 0.75, "precision {}", eval.precision);
    assert!(eval.recall > 0.6, "recall {}", eval.recall);
    // Spreadsheet accounting invariant (paper: 191 − 24 = 167).
    let (concepts, matches, rows) = outcome.workbook.concept_accounting();
    assert_eq!(concepts - matches, rows);
    // Every target element appears in sheet 2 (matched targets may appear in
    // several matched rows under one-to-many matches, unmatched ones exactly
    // once as target-only rows).
    let distinct_targets: std::collections::HashSet<&str> = outcome
        .workbook
        .element_sheet
        .iter()
        .filter(|r| !r.target_element.is_empty())
        .map(|r| r.target_element.as_str())
        .collect();
    assert_eq!(distinct_targets.len(), pair.target.len());
}

#[test]
fn repository_stores_and_searches_the_case_study() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(9, 0.1));
    let mut repo = MetadataRepository::new();
    repo.register_schema(pair.source.clone());
    repo.register_schema(pair.target.clone());

    // Record an automatic match with provenance, then query it.
    let matches = sm_bench_like_match(&pair);
    let idx = repo
        .record_match(
            pair.source.id,
            pair.target.id,
            matches.clone(),
            MatchContextTag::Planning,
            "engine-run-1",
            "automatic pass",
        )
        .unwrap();
    assert_eq!(idx, 0);
    let first = matches.validated().next().expect("some validated match");
    let prov = repo.who_said(pair.source.id, first.source, pair.target.id, first.target);
    assert!(!prov.is_empty());
    assert_eq!(prov[0].context, MatchContextTag::Planning);

    // Search: the target schema should find the source schema (they overlap).
    let search = SchemaSearch::build(&repo);
    let hits = search.query(&pair.target, 5);
    assert!(!hits.is_empty());
    assert_eq!(hits[0].schema_id, pair.source.id);
}

fn sm_bench_like_match(pair: &SchemaPair) -> MatchSet {
    let engine = MatchEngine::new().with_threads(1);
    let result = engine.run(&pair.source, &pair.target);
    let selected = Selection::OneToOne {
        min: Confidence::new(0.35),
    }
    .apply(&result.matrix);
    let mut validated = MatchSet::new();
    for c in selected.all() {
        validated.push(c.clone().validate("engine", MatchAnnotation::Equivalent));
    }
    validated
}

#[test]
fn nway_vocabulary_from_real_matches_partitions_elements() {
    // Three schemata from one domain; pairwise engine matches; vocabulary
    // must partition every element exactly once and stay within 2^3−1 cells.
    let population = sm_synth::SyntheticRepository::generate(&sm_synth::RepositoryConfig {
        seed: 5,
        domains: 1,
        schemas_per_domain: 3,
        concepts_per_domain: 12,
        concept_coverage: 0.6,
        attrs_per_concept: (3, 6),
        ..Default::default()
    });
    let schemas: Vec<&sm_schema::Schema> = population.schemas.iter().collect();
    let engine = MatchEngine::new().with_threads(1);
    let mut nway = NWayMatch::new(schemas.clone());
    for i in 0..3 {
        for j in (i + 1)..3 {
            let result = engine.run(schemas[i], schemas[j]);
            let selected = Selection::OneToOne {
                min: Confidence::new(0.35),
            }
            .apply(&result.matrix);
            let mut validated = MatchSet::new();
            for c in selected.all() {
                validated.push(c.clone().validate("e", MatchAnnotation::Equivalent));
            }
            nway.add_pairwise(i, j, &validated);
        }
    }
    let vocab = nway.vocabulary();
    let total_elements: usize = schemas.iter().map(|s| s.len()).sum();
    let member_total: usize = vocab.terms.iter().map(|t| t.members.len()).sum();
    assert_eq!(member_total, total_elements);
    let sizes = vocab.cell_sizes();
    assert!(sizes.len() <= 7);
    assert!(sizes.keys().all(|&m| (1..=7).contains(&m)));
    // Same-domain schemata must share *something*.
    assert!(vocab.overlap_fraction(0, 1) > 0.0);
}

#[test]
fn instance_evidence_improves_hostile_name_matching() {
    use harmony_core::voter::voters_with_instances;
    use sm_synth::{generate_instances, InstanceConfig};
    // Hostile naming: heavy synonyms defeat the dictionary, so names alone
    // under-perform; instance samples must close the gap.
    let mut cfg = sm_synth::GeneratorConfig::paper_case_study(77, 0.12);
    let hostile = |mut s: sm_synth::NamingStyle| {
        s.synonym_prob = 0.6;
        s.drop_token_prob = 0.3;
        s
    };
    cfg.source_style = hostile(cfg.source_style);
    cfg.target_style = hostile(cfg.target_style);
    cfg.source_doc = sm_synth::docgen::DocStyle::none();
    cfg.target_doc = sm_synth::docgen::DocStyle::none();
    let pair = SchemaPair::generate(&cfg);
    let icfg = InstanceConfig {
        seed: 3,
        rows_per_element: 24,
        coverage: 1.0,
    };
    let src = generate_instances(&pair.source, &pair.truth.source_semantics, &icfg);
    let tgt = generate_instances(&pair.target, &pair.truth.target_semantics, &icfg);

    let eval_at = |result: &harmony_core::engine::BlockedMatchResult| {
        let mut best = 0.0f64;
        for i in 0..20 {
            let th = i as f64 * 0.04;
            let sel = Selection::OneToOne {
                min: Confidence::new(th),
            }
            .apply(&result.matrix);
            let predicted: Vec<_> = sel.all().iter().map(|c| (c.source, c.target)).collect();
            best = best.max(pair.truth.evaluate_pairs(predicted.iter()).f1);
        }
        best
    };
    let names_only = MatchEngine::new().with_threads(1);
    let f1_names = eval_at(&names_only.run(&pair.source, &pair.target));
    let with_instances = MatchEngine::new()
        .with_voters(voters_with_instances())
        .with_threads(1);
    let f1_inst =
        eval_at(&with_instances.run_with_instances(&pair.source, &pair.target, &src, &tgt));
    assert!(
        f1_inst > f1_names,
        "instances should help under hostile naming: {f1_inst} vs {f1_names}"
    );
}

#[test]
fn workbook_and_viz_agree_on_match_counts() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(3, 0.08));
    let validated = sm_bench_like_match(&pair);
    let summary_s = auto_summarize(&pair.source, 50);
    let summary_t = auto_summarize(&pair.target, 50);
    let wb = Workbook::build(
        &pair.source,
        &pair.target,
        &summary_s,
        &summary_t,
        &[],
        &validated,
    );
    let matched_rows = wb
        .element_sheet
        .iter()
        .filter(|r| r.kind == sm_export::RowKind::Matched)
        .count();
    let pairs: Vec<_> = validated
        .validated()
        .map(|c| (c.source, c.target))
        .collect();
    let stats = sm_export::ScreenModel::default().render(
        &pair.source,
        &pair.target,
        &pairs,
        &NodeFilter::All,
        &NodeFilter::All,
    );
    assert_eq!(matched_rows, pairs.len());
    assert_eq!(stats.total_lines, pairs.len());
}
