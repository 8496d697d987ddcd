//! Pin: the flat CSR blocking index (`harmony_core::index`) is an
//! *execution* change, never a semantics change. The retained map-based
//! implementation (`harmony_core::index::reference`) is the oracle: the CSR
//! path — inline or fanned out across executor lanes — must produce
//! byte-identical `CandidateSet`s across seeds × policies × thread counts,
//! and the CSR store must round-trip every posting list and every IDF
//! weight bit the reference index knows.

use harmony_core::exec::Executor;
use harmony_core::index::{
    generate_candidates, generate_candidates_governed, reference, BlockingPolicy,
    ElementTokenIndex, GovernedExec,
};
use harmony_core::prelude::*;
use proptest::prelude::*;
use sm_schema::{DataType, ElementId, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::Normalizer;
use std::sync::Arc;

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere.
    MatchEngine::new().with_normalizer(Normalizer::new())
}

fn policies() -> Vec<BlockingPolicy> {
    vec![
        BlockingPolicy::default(),
        BlockingPolicy::TopK {
            k: 3,
            min_weight: 4.0,
        },
        BlockingPolicy::TopK {
            k: 1,
            min_weight: f64::INFINITY,
        },
        BlockingPolicy::WeightedThreshold { min_weight: 2.5 },
        BlockingPolicy::WeightedThreshold { min_weight: 8.0 },
        BlockingPolicy::Exhaustive,
    ]
}

/// A deterministic pseudo-word: `i` spelled in a 12-syllable alphabet, so
/// distinct indices give distinct tokens that survive normalization.
fn word(mut i: usize) -> String {
    const SYLLABLES: [&str; 12] = [
        "ka", "lo", "mi", "nu", "pe", "ra", "so", "ti", "vu", "we", "xo", "zy",
    ];
    let mut w = String::new();
    loop {
        w.push_str(SYLLABLES[i % SYLLABLES.len()]);
        i /= SYLLABLES.len();
        if i == 0 {
            break w;
        }
    }
}

/// A deeply nested pair (tree depth 11). Each side is six chains of ten
/// nested containers; the container at chain `c`, level `l` carries a rare
/// token shared with exactly its counterpart on the other side, so
/// container pairs overlap strongly enough to seed the child rescue at
/// every level. Each container also holds two leaves named from a small
/// shared vocabulary drawn by an LCG, so leaf pairs collide across chains
/// and levels and the parent closure has to climb many levels to add
/// container pairs no probe produced.
fn deep_pair() -> (Schema, Schema) {
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: usize| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((lcg >> 33) as usize) % n
    };
    let mut sides = Vec::new();
    for (id, format) in [(1u32, SchemaFormat::Relational), (2, SchemaFormat::Xml)] {
        let mut schema = Schema::new(SchemaId(id), format!("deep{id}"), format);
        for chain in 0..6 {
            let mut parent: Option<ElementId> = None;
            for level in 0..10 {
                let rare = word(1000 + chain * 10 + level);
                let name = if id == 1 {
                    format!("{rare}_group")
                } else {
                    format!("{}Group", rare.to_uppercase())
                };
                let container = match parent {
                    None => schema.add_root(name, ElementKind::Table, DataType::None),
                    Some(p) => schema
                        .add_child(p, name, ElementKind::ComplexType, DataType::None)
                        .unwrap(),
                };
                for _ in 0..2 {
                    let leaf = format!("{}_{}", word(draw(40)), word(100 + draw(20)));
                    schema
                        .add_child(container, leaf, ElementKind::Column, DataType::text())
                        .unwrap();
                }
                parent = Some(container);
            }
        }
        sides.push(schema);
    }
    let target = sides.pop().unwrap();
    let source = sides.pop().unwrap();
    (source, target)
}

/// The pinned inputs: three small case-study pairs, one full-scale
/// 1378×784 case-study pair, and the deep-nesting pair.
fn pinned_pairs() -> Vec<(String, Schema, Schema)> {
    let mut pairs: Vec<(String, Schema, Schema)> =
        [(1u64, 0.06), (29, 0.06), (404, 0.06), (5, 1.0)]
            .into_iter()
            .map(|(seed, scale)| {
                let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, scale));
                (
                    format!("seed {seed} at scale {scale}"),
                    pair.source,
                    pair.target,
                )
            })
            .collect();
    let (source, target) = deep_pair();
    assert!(source.max_depth() >= 8 && target.max_depth() >= 8);
    pairs.push(("deep nesting".to_string(), source, target));
    pairs
}

/// CSR candidate sets are byte-identical to the map-based reference across
/// inputs × policies × executor widths (1, 2, 8 — plus the inline
/// no-executor path).
#[test]
fn csr_candidates_pin_to_reference_across_seeds_policies_threads() {
    for (label, source, target) in pinned_pairs() {
        let engine = engine();
        let ps = engine.prepare(&source);
        let pt = engine.prepare(&target);
        for policy in policies() {
            let expect = reference::generate_candidates(&source, &target, &ps, &pt, &policy);
            let inline = generate_candidates(&source, &target, &ps, &pt, &policy);
            assert_eq!(inline, expect, "inline CSR diverged ({label}, {policy:?})");
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                let parallel = generate_candidates_governed(
                    &source,
                    &target,
                    &ps,
                    &pt,
                    None,
                    &policy,
                    &exec,
                    threads,
                    GovernedExec::default(),
                );
                assert_eq!(
                    parallel, expect,
                    "CSR diverged at {threads} lanes ({label}, {policy:?})"
                );
            }
        }
    }
}

/// The full blocked pipeline carries the pinned candidate sets: the
/// `BlockedRun` scores exactly the reference's candidates at every pool
/// width, so blocked matrices stay byte-identical across thread counts.
#[test]
fn blocked_pipeline_candidates_pin_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(7, 0.06));
    let policy = BlockingPolicy::default();
    let serial = engine().with_threads(1);
    let ps = serial.prepare(&pair.source);
    let pt = serial.prepare(&pair.target);
    let expect = reference::generate_candidates(&pair.source, &pair.target, &ps, &pt, &policy);
    let baseline = serial.run_blocked(&pair.source, &pair.target, &policy);
    assert_eq!(baseline.candidates, expect);
    for threads in [2usize, 8] {
        let engine = engine()
            .with_executor(Arc::new(Executor::new(threads)))
            .with_threads(threads);
        let run = engine.run_blocked(&pair.source, &pair.target, &policy);
        assert_eq!(
            run.candidates, expect,
            "pipeline candidates diverged at {threads} threads"
        );
        assert_eq!(
            run.matrix.as_slice(),
            baseline.matrix.as_slice(),
            "blocked matrix diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CSR store round-trips every feature the reference index knows:
    /// same posting list, bit-identical IDF weight, same distinct-feature
    /// count (no phantom features), and the flattened exact-name table
    /// answers every element's name key identically.
    #[test]
    fn csr_store_round_trips_reference_postings_and_weights(
        seed in 0u64..10_000,
        scale_pct in 2u32..8,
    ) {
        let config = GeneratorConfig::paper_case_study(seed, f64::from(scale_pct) / 100.0);
        let pair = SchemaPair::generate(&config);
        let engine = engine();
        for schema in [&pair.source, &pair.target] {
            let prepared = engine.prepare(schema);
            let csr = ElementTokenIndex::build(&prepared);
            let mapped = reference::ReferenceTokenIndex::build(&prepared);
            prop_assert_eq!(csr.len(), mapped.len());
            let mut features = 0usize;
            for feat in mapped.feature_ids() {
                prop_assert_eq!(csr.postings_by_id(feat), mapped.postings_by_id(feat));
                prop_assert_eq!(
                    csr.weight_by_id(feat).to_bits(),
                    mapped.weight_by_id(feat).to_bits(),
                    "weight bits diverged for feature {:?}", feat
                );
                features += 1;
            }
            prop_assert_eq!(csr.feature_count(), features, "phantom or lost features");
            for idx in 0..prepared.len() {
                let ids = prepared.element(idx).name_ids.as_slice();
                prop_assert_eq!(csr.name_postings(ids), mapped.name_postings(ids));
            }
        }
    }
}
