//! Cross-crate contract of the `PreparedSchema` refactor: the shared feature
//! cache must be a pure optimization. Cached runs are byte-identical to cold
//! runs, and every consumer built from the cache agrees with one built from
//! scratch.

use harmony_core::prelude::*;
use harmony_core::prepare::{
    FeatureCache, PrepareLanes, PreparedSchema, PARALLEL_PREPARE_MIN_ELEMENTS,
};
use sm_enterprise::cluster::DistanceMatrix;
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::Schema;
use sm_synth::{GeneratorConfig, RepositoryConfig, SchemaPair, SyntheticRepository};
use sm_text::intern::{TokenArena, TokenId};
use sm_text::normalize::Normalizer;
use std::sync::Arc;
use std::time::Duration;

fn case_pair() -> SchemaPair {
    SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.08))
}

fn population() -> SyntheticRepository {
    SyntheticRepository::generate(&RepositoryConfig {
        seed: 77,
        domains: 2,
        schemas_per_domain: 3,
        concepts_per_domain: 12,
        concept_coverage: 0.6,
        attrs_per_concept: (3, 6),
        ..Default::default()
    })
}

/// A second `engine.run` against cached schemata reproduces the cold run
/// bit for bit, while preparing nothing.
#[test]
fn cached_run_is_byte_identical_to_cold_run() {
    let pair = case_pair();
    // Private cache so concurrent tests' global-cache traffic is invisible.
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(4);

    let cold = engine.run(&pair.source, &pair.target);
    let stats_cold = engine.feature_cache().stats();
    assert_eq!(stats_cold.misses, 2, "cold run prepares both schemata");

    let cached = engine.run(&pair.source, &pair.target);
    let stats_cached = engine.feature_cache().stats();
    assert_eq!(stats_cached.misses, 2, "cached run prepares nothing new");
    assert!(stats_cached.hits >= stats_cold.hits + 2);

    assert_eq!(
        cold.matrix.as_slice(),
        cached.matrix.as_slice(),
        "feature cache must not change a single bit of the match matrix"
    );
}

/// Engines sharing one cache see each other's preparations.
#[test]
fn engines_share_an_explicit_cache() {
    let pair = case_pair();
    let cache = std::sync::Arc::new(FeatureCache::new(Normalizer::new()));
    let first = MatchEngine::new().with_feature_cache(std::sync::Arc::clone(&cache));
    let second = MatchEngine::new().with_feature_cache(std::sync::Arc::clone(&cache));

    let r1 = first.run(&pair.source, &pair.target);
    let misses_after_first = cache.stats().misses;
    let r2 = second.run(&pair.source, &pair.target);
    assert_eq!(
        cache.stats().misses,
        misses_after_first,
        "second engine re-prepares nothing"
    );
    assert_eq!(r1.matrix.as_slice(), r2.matrix.as_slice());
}

/// `SchemaSearch` built through the shared cache ranks exactly like one built
/// from preparations computed from scratch.
#[test]
fn schema_search_from_cache_agrees_with_scratch_preparation() {
    let pop = population();
    let mut repo = MetadataRepository::new();
    for s in &pop.schemas {
        repo.register_schema(s.clone());
    }
    let via_cache = SchemaSearch::build(&repo);

    // The ad-hoc path: a private cache, preparations built from scratch.
    let private = std::sync::Arc::new(FeatureCache::new(Normalizer::new()));
    let scratch = SchemaSearch::from_prepared(
        repo.schemas()
            .map(|s| private.prepare(s))
            .collect::<Vec<_>>(),
        std::sync::Arc::clone(&private),
    );

    assert_eq!(via_cache.len(), scratch.len());
    for query in repo.schemas() {
        let a = via_cache.query(query, 10);
        let b = scratch.query(query, 10);
        assert_eq!(a, b, "rankings diverged for query {}", query.name);
    }
}

/// N-way vocabulary driven through the cached pipeline equals the historical
/// ad-hoc loop (engine.run + one-to-one selection + validation) exactly.
#[test]
fn nway_from_cache_agrees_with_adhoc_loop() {
    let pop = population();
    let schemas: Vec<&Schema> = pop.schemas.iter().take(4).collect();
    let threshold = Confidence::new(0.35);

    let engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let mut cached = NWayMatch::new(schemas.clone());
    let outcomes = cached.populate_pairwise(&engine, threshold, "engine");
    assert_eq!(outcomes.len(), 4 * 3 / 2, "every unordered pair ran");
    let vocab_cached = cached.vocabulary();

    // Ad-hoc path: a fresh engine (fresh private cache) and the manual loop.
    let adhoc_engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let mut adhoc = NWayMatch::new(schemas.clone());
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let result = adhoc_engine.run(schemas[i], schemas[j]);
            let selected = Selection::OneToOne { min: threshold }.apply(&result.matrix);
            let mut validated = MatchSet::new();
            for c in selected.all() {
                validated.push(c.clone().validate("engine", MatchAnnotation::Equivalent));
            }
            adhoc.add_pairwise(i, j, &validated);
        }
    }
    let vocab_adhoc = adhoc.vocabulary();

    assert_eq!(vocab_cached.len(), vocab_adhoc.len());
    for (a, b) in vocab_cached.terms.iter().zip(&vocab_adhoc.terms) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.members, b.members);
    }
}

/// Clustering distances from the cache equal distances from scratch
/// preparations.
#[test]
fn distance_matrix_from_cache_agrees_with_scratch() {
    let pop = population();
    let refs: Vec<&Schema> = pop.schemas.iter().collect();
    let via_cache = DistanceMatrix::from_schemas(&refs);

    let normalizer = Normalizer::new();
    let prepared: Vec<std::sync::Arc<PreparedSchema>> = refs
        .iter()
        .map(|s| std::sync::Arc::new(PreparedSchema::build(s, &normalizer)))
        .collect();
    let scratch = DistanceMatrix::from_prepared(&prepared);

    assert_eq!(via_cache.ids(), scratch.ids());
    for i in 0..via_cache.len() {
        for j in 0..via_cache.len() {
            assert!(
                (via_cache.get(i, j) - scratch.get(i, j)).abs() < 1e-15,
                "distance ({i},{j}) diverged"
            );
        }
    }
}

/// The incremental workflow rides the same cache: a session after a full
/// match re-prepares nothing and still validates the same pairs.
#[test]
fn incremental_session_reuses_engine_cache() {
    let pair = case_pair();
    let engine = MatchEngine::new().with_normalizer(Normalizer::new());
    let _warm = engine.run(&pair.source, &pair.target);
    let misses_after_run = engine.feature_cache().stats().misses;

    let summary = auto_summarize(&pair.source, 10);
    let mut oracle = NoisyOracle::perfect(pair.truth.pairs().clone());
    let mut session =
        IncrementalSession::new(&engine, &pair.source, &pair.target, Confidence::new(0.25));
    session.concept_at_a_time(&summary, &mut oracle);
    assert_eq!(
        engine.feature_cache().stats().misses,
        misses_after_run,
        "session construction must not re-run linguistic preprocessing"
    );
    assert!(!session.validated().is_empty());
}

/// A case-study pair whose source is above the chunked-prepare threshold.
fn large_pair() -> SchemaPair {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.45));
    assert!(pair.source.len() >= PARALLEL_PREPARE_MIN_ELEMENTS);
    pair
}

fn lanes(exec: &Executor, width: usize) -> Option<PrepareLanes<'_>> {
    Some(PrepareLanes {
        exec,
        parallelism: width,
        budget: None,
    })
}

/// Every feature of `got` resolves to the same strings as `want`'s, each
/// through its own arena: sequences in the same order, id-sorted sets as
/// the same sets.
fn assert_same_strings(want: &PreparedSchema, got: &PreparedSchema, what: &str) {
    let (wa, ga) = (want.arena(), got.arena());
    let set = |arena: &TokenArena, ids: &[TokenId]| {
        let mut strings = arena.resolve_all(ids);
        strings.sort();
        strings
    };
    assert_eq!(want.len(), got.len(), "{what}: element count");
    assert_eq!(
        wa.resolve_all(want.signature_ids()),
        ga.resolve_all(got.signature_ids()),
        "{what}: signature"
    );
    for (i, (w, g)) in want.elements().iter().zip(got.elements()).enumerate() {
        assert_eq!(w.name_bag, g.name_bag, "{what}: element {i} name bag");
        assert_eq!(w.raw_name, g.raw_name, "{what}: element {i} raw name");
        assert_eq!(w.doc_bag, g.doc_bag, "{what}: element {i} doc bag");
        assert_eq!(w.parent_bag, g.parent_bag, "{what}: element {i} parent bag");
        assert_eq!(
            w.children_bag, g.children_bag,
            "{what}: element {i} children"
        );
        assert_eq!(
            w.corpus_tokens, g.corpus_tokens,
            "{what}: element {i} corpus"
        );
        assert_eq!(wa.resolve_all(&w.name_ids), ga.resolve_all(&g.name_ids));
        assert_eq!(wa.resolve_all(&w.corpus_ids), ga.resolve_all(&g.corpus_ids));
        assert_eq!(set(wa, &w.name_set), set(ga, &g.name_set));
        assert_eq!(set(wa, &w.parent_set), set(ga, &g.parent_set));
        assert_eq!(set(wa, &w.children_set), set(ga, &g.children_set));
        assert_eq!(wa.resolve(w.raw_name_id), ga.resolve(g.raw_name_id));
        assert_eq!(wa.resolve(w.acronym_id), ga.resolve(g.acronym_id));
        assert_eq!(
            wa.resolve_all(&w.block_features),
            ga.resolve_all(&g.block_features),
            "{what}: element {i} blocking features"
        );
        assert_eq!(
            wa.resolve_all(want.block_features_of(i)),
            ga.resolve_all(got.block_features_of(i))
        );
        assert_eq!(w.raw_chars, g.raw_chars);
        assert_eq!(w.raw_soundex, g.raw_soundex);
        assert_eq!(w.raw_profile, g.raw_profile);
        assert_eq!(w.name_token_stats, g.name_token_stats);
    }
}

/// Above the threshold, the chunked build at executor widths 1, 2 and 8
/// prepares the same features as the inline build: the same strings on a
/// fresh private arena (where concurrent chunks may assign ids in another
/// order), and the very same ids and signatures on the inline build's warm
/// arena.
#[test]
fn chunked_prepare_matches_inline_build_at_every_width() {
    let pair = large_pair();
    let normalizer = Normalizer::new();
    let inline =
        PreparedSchema::build_with_arena(&pair.source, &normalizer, Arc::new(TokenArena::new()));
    for width in [1usize, 2, 8] {
        let exec = Executor::new(width);
        let cold = PreparedSchema::build_on(
            &pair.source,
            &normalizer,
            Arc::new(TokenArena::new()),
            lanes(&exec, width),
        );
        assert_same_strings(&inline, &cold, &format!("cold arena, {width} lanes"));

        let warm = PreparedSchema::build_on(
            &pair.source,
            &normalizer,
            Arc::clone(inline.arena()),
            lanes(&exec, width),
        );
        assert_same_strings(&inline, &warm, &format!("warm arena, {width} lanes"));
        assert_eq!(warm.signature_ids(), inline.signature_ids());
        for (w, g) in inline.elements().iter().zip(warm.elements()) {
            assert_eq!(
                (&w.name_ids, &w.name_set, &w.parent_set, &w.children_set),
                (&g.name_ids, &g.name_set, &g.parent_set, &g.children_set),
            );
            assert_eq!(
                (
                    &w.corpus_ids,
                    &w.block_features,
                    w.raw_name_id,
                    w.acronym_id
                ),
                (
                    &g.corpus_ids,
                    &g.block_features,
                    g.raw_name_id,
                    g.acronym_id
                ),
            );
            assert_eq!(
                (w.name_sig, w.children_sig, w.corpus_sig),
                (g.name_sig, g.children_sig, g.corpus_sig),
            );
        }
    }
}

/// Blocked selections over chunk-prepared schemata, each width on its own
/// fresh arena, equal the selections over inline-prepared ones.
#[test]
fn chunked_prepare_keeps_blocked_selections() {
    let pair = large_pair();
    let normalizer = Normalizer::new();
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_score_floor(Some(0.3));
    let selection = Selection::OneToOne {
        min: Confidence::new(0.3),
    };
    let select = |width: Option<usize>| {
        let arena = Arc::new(TokenArena::new());
        let exec = Executor::new(width.unwrap_or(1));
        let par = width.and_then(|w| lanes(&exec, w));
        let ps = PreparedSchema::build_on(&pair.source, &normalizer, Arc::clone(&arena), par);
        let pt = PreparedSchema::build_on(&pair.target, &normalizer, arena, par);
        let run = engine.pipeline().run_blocked_prepared(
            &pair.source,
            &pair.target,
            &Arc::new(ps),
            &Arc::new(pt),
            None,
            &BlockingPolicy::default(),
        );
        selection.apply(&run.matrix)
    };
    let want = select(None);
    assert!(!want.all().is_empty());
    for width in [1usize, 2, 8] {
        assert_eq!(
            select(Some(width)).all(),
            want.all(),
            "selections diverged at {width} prepare lanes"
        );
    }
}

/// A chunked build and racing `get_or_prepare` callers share one 2-wide
/// pool: the engine's build fans its chunks out onto the pool while the
/// waiters, some of them running as pool lanes, block on the in-flight
/// slot. The builder's own lane completes the claim loop, so nothing
/// deadlocks and the schema is still prepared exactly once.
#[test]
fn chunked_build_and_racing_waiter_share_a_two_wide_pool() {
    let pair = large_pair();
    let exec = Arc::new(Executor::new(2));
    let cache = Arc::new(FeatureCache::new(Normalizer::new()));
    let engine = Arc::new(
        MatchEngine::new()
            .with_feature_cache(Arc::clone(&cache))
            .with_executor(Arc::clone(&exec))
            .with_threads(2),
    );
    let source = Arc::new(pair.source);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut handles = Vec::new();
    {
        let (engine, source, tx) = (Arc::clone(&engine), Arc::clone(&source), tx.clone());
        handles.push(std::thread::spawn(move || {
            tx.send(engine.prepare(&source)).unwrap();
        }));
    }
    for _ in 0..2 {
        let (exec, cache, source, tx) = (
            Arc::clone(&exec),
            Arc::clone(&cache),
            Arc::clone(&source),
            tx.clone(),
        );
        handles.push(std::thread::spawn(move || {
            for prepared in exec.run_map(2, &[(), ()], |_, _| cache.get_or_prepare(&source)) {
                tx.send(prepared).unwrap();
            }
        }));
    }
    let got: Vec<Arc<PreparedSchema>> = (0..5)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(120))
                .expect("chunked build and waiters deadlocked")
        })
        .collect();
    for h in handles {
        h.join().expect("prepare thread panicked");
    }
    for p in &got[1..] {
        assert!(
            Arc::ptr_eq(&got[0], p),
            "callers must share one preparation"
        );
    }
    assert_eq!(cache.stats().misses, 1, "the schema was prepared once");
}
