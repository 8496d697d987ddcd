//! Contract of the score cascade (`harmony_core`'s tier-1 bound prefilter
//! plus SoA tier-2 batch scoring): the cascade is a *work skipper*, never a
//! semantics change.
//!
//! * With a score floor set, the cascade-on blocked run must be
//!   byte-identical to the cascade-off reference (full voter panel on every
//!   candidate, floor applied at merge) — matrices and selections alike,
//!   across seeds, blocking policies, executor widths, and floors.
//! * The floored full match (exhaustive policy, cascade on) must reproduce
//!   the per-pair oracle in `tests/common` byte for byte.
//! * The signature popcount bound that powers tier 1 must dominate the true
//!   token Jaccard for arbitrary id sets (property-tested).

mod common;

use harmony_core::index::BlockingPolicy;
use harmony_core::prelude::*;
use harmony_core::select::Selection;
use proptest::prelude::*;
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::bounds::{id_signature, signature_intersection_bound, signature_jaccard_bound};
use sm_text::intern::{sorted_ids_jaccard, TokenId};
use sm_text::normalize::Normalizer;

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere.
    MatchEngine::new().with_normalizer(Normalizer::new())
}

/// Pin: across seeds × policies × thread counts, the cascade changes no
/// byte of the merged matrix and no selected correspondence. Also checks
/// the cascade actually skips work somewhere (the skip-rate floor the CI
/// gate enforces at paper scale).
#[test]
fn cascade_blocked_run_is_byte_identical_to_reference() {
    let mut total_pruned = 0u64;
    for seed in [3u64, 17, 42] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.08));
        for policy in [BlockingPolicy::default(), BlockingPolicy::Exhaustive] {
            for threads in [1usize, 4] {
                let cascade = engine().with_threads(threads).with_score_floor(Some(0.0));
                let reference = engine()
                    .with_threads(threads)
                    .with_score_floor(Some(0.0))
                    .with_cascade(false);
                assert!(cascade.cascade_active());
                assert!(!reference.cascade_active());

                let got = cascade
                    .pipeline()
                    .run_blocked(&pair.source, &pair.target, &policy);
                let want = reference
                    .pipeline()
                    .run_blocked(&pair.source, &pair.target, &policy);
                assert_eq!(
                    got.matrix.as_slice(),
                    want.matrix.as_slice(),
                    "cascade diverged (seed {seed}, {policy:?}, {threads} threads)"
                );

                let selection = Selection::OneToOne {
                    min: Confidence::new(0.30),
                };
                let sel_got = selection.apply(&got.matrix);
                let sel_want = selection.apply(&want.matrix);
                assert_eq!(
                    sel_got.all(),
                    sel_want.all(),
                    "selections diverged (seed {seed}, {policy:?}, {threads} threads)"
                );

                // Counter bookkeeping: the two tiers partition the scored
                // pairs and the Score stage time.
                assert_eq!(
                    got.timings.pairs_pruned + got.timings.pairs_full,
                    got.pairs_scored as u64
                );
                assert_eq!(
                    got.timings.score,
                    got.timings.score_tier1 + got.timings.score_tier2
                );
                assert_eq!(want.timings.pairs_pruned, 0, "reference must not prune");
                total_pruned += got.timings.pairs_pruned;
            }
        }
    }
    assert!(
        total_pruned > 0,
        "cascade never pruned a pair across the whole matrix of runs"
    );
}

/// Pin: a *positive* floor (the general branch of the merged-score bound,
/// not the sign-only zero-floor specialization) is lossless too.
#[test]
fn cascade_with_positive_floor_is_byte_identical_to_reference() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(7, 0.08));
    for floor in [0.05, 0.30] {
        let cascade = engine().with_threads(2).with_score_floor(Some(floor));
        let reference = engine()
            .with_threads(2)
            .with_score_floor(Some(floor))
            .with_cascade(false);
        let got =
            cascade
                .pipeline()
                .run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
        let want = reference.pipeline().run_blocked(
            &pair.source,
            &pair.target,
            &BlockingPolicy::default(),
        );
        assert_eq!(
            got.matrix.as_slice(),
            want.matrix.as_slice(),
            "cascade diverged at floor {floor}"
        );
    }
}

/// Pin: the floored full match (the exhaustive blocked pipeline, cascade
/// on) reproduces the per-pair oracle byte for byte — the strongest
/// cross-path check, since the two share nothing past the voter kernels.
#[test]
fn cascade_exhaustive_matches_floored_dense_run() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.08));
    for floor in [0.0, 0.30] {
        for threads in [1usize, 3] {
            let engine = engine()
                .with_threads(threads)
                .with_score_floor(Some(floor))
                .with_propagation(0.3);
            assert!(engine.cascade_active());
            let want =
                common::per_pair_matrix(&engine, &pair.source, &pair.target, Some(floor), 0.3);
            let got = engine.run(&pair.source, &pair.target);
            assert!(got.timings.pairs_pruned > 0, "the cascade skipped nothing");
            assert_eq!(
                got.matrix.as_slice(),
                want.as_slice(),
                "floored full match diverged from the per-pair oracle \
                 (floor {floor}, {threads} threads)"
            );
        }
    }
}

/// A non-default voter panel deactivates the cascade (its bounds are
/// derived from the default panel's formulas) but keeps the floor.
#[test]
fn non_default_panel_keeps_floor_but_not_cascade() {
    let with_panel = MatchEngine::new()
        .with_voters(harmony_core::voter::default_voters())
        .with_score_floor(Some(0.0));
    assert!(!with_panel.cascade_active());
}

fn sorted_set(ids: Vec<u32>) -> Vec<TokenId> {
    let mut ids: Vec<TokenId> = ids.into_iter().map(TokenId).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 128-bit signature bounds dominate the exact set statistics for
    /// arbitrary id sets: intersection bound ≥ true intersection size,
    /// Jaccard bound ≥ true Jaccard.
    #[test]
    fn signature_bounds_dominate_exact_overlap(
        a in proptest::collection::vec(0u32..5_000, 0..40),
        b in proptest::collection::vec(0u32..5_000, 0..40),
    ) {
        let a = sorted_set(a);
        let b = sorted_set(b);
        let (sa, sb) = (id_signature(&a), id_signature(&b));

        let truth = a.iter().filter(|id| b.binary_search(id).is_ok()).count();
        let inter_bound = signature_intersection_bound(sa, a.len(), sb, b.len());
        prop_assert!(
            inter_bound >= truth,
            "intersection bound {inter_bound} < true {truth}"
        );

        if !a.is_empty() && !b.is_empty() {
            let jacc_bound = signature_jaccard_bound(sa, a.len(), sb, b.len());
            let jacc = sorted_ids_jaccard(&a, &b);
            prop_assert!(
                jacc_bound >= jacc,
                "jaccard bound {jacc_bound} < true {jacc}"
            );
        }
    }
}
