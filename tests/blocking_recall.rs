//! Contract of the token-blocking index subsystem (`harmony_core::index`):
//! blocking is a *candidate pruner*, never a semantics change.
//!
//! * Under the default [`BlockingPolicy`], every pair a dense run scores
//!   above the operating threshold must survive blocking (be a candidate) —
//!   checked property-style over synthetic workloads with planted ground
//!   truth, across seeds, scales, and overlap rates.
//! * Under [`BlockingPolicy::Exhaustive`] — the full match `run` —
//!   `run_blocked` reproduces the per-pair oracle (`tests/common`) bit for
//!   bit: the sparse Score/Merge/Propagate machinery loses nothing when
//!   nothing is pruned.

mod common;

use harmony_core::index::{generate_candidates, BlockingPolicy};
use harmony_core::prelude::*;
use proptest::prelude::*;
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::Normalizer;

/// The operating threshold used across experiments (candidates below it are
/// not shown to reviewers).
const THRESHOLD: f64 = 0.30;

fn engine() -> MatchEngine {
    // Private cache so other tests' global-cache traffic can't interfere.
    MatchEngine::new().with_normalizer(Normalizer::new())
}

/// Dense pairs at or above the operating threshold.
fn dense_above(pair: &SchemaPair, engine: &MatchEngine) -> Vec<(usize, usize)> {
    let dense = engine.run(&pair.source, &pair.target);
    dense
        .matrix
        .iter_above(Confidence::new(THRESHOLD))
        .map(|(s, t, _)| (s.index(), t.index()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every dense above-threshold pair survives blocking under the default
    /// policy, on generated workloads with planted ground truth.
    #[test]
    fn dense_above_threshold_pairs_survive_default_blocking(
        seed in 0u64..1_000,
        scale_pct in 4u32..10,
        overlap_pct in 20u32..60,
    ) {
        let mut config =
            GeneratorConfig::paper_case_study(seed, f64::from(scale_pct) / 100.0);
        config.overlap_of_target = f64::from(overlap_pct) / 100.0;
        let pair = SchemaPair::generate(&config);
        let engine = engine();

        let survivors = dense_above(&pair, &engine);
        let prepared_source = engine.prepare(&pair.source);
        let prepared_target = engine.prepare(&pair.target);
        let candidates = generate_candidates(
            &pair.source,
            &pair.target,
            &prepared_source,
            &prepared_target,
            &BlockingPolicy::default(),
        );
        prop_assert!(
            candidates.len() < pair.source.len() * pair.target.len(),
            "default policy must actually prune"
        );
        for &(s, t) in &survivors {
            prop_assert!(
                candidates.contains(s, t),
                "dense above-threshold pair ({s},{t}) lost by blocking \
                 (seed {seed}, scale {scale_pct}%, overlap {overlap_pct}%)"
            );
        }
    }
}

/// The planted ground truth found by a dense run at the operating threshold
/// is found by the blocked run too (recall through the full blocked
/// pipeline, not just candidate membership).
#[test]
fn blocked_run_keeps_ground_truth_recall() {
    for seed in [3u64, 17, 42] {
        let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 0.08));
        let engine = engine();
        let dense = engine.run(&pair.source, &pair.target);
        let blocked = engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
        let th = Confidence::new(THRESHOLD);
        let dense_truth = pair
            .truth
            .pairs()
            .iter()
            .filter(|&&(s, t)| dense.matrix.get(s, t).value() >= th.value())
            .count();
        let blocked_truth = pair
            .truth
            .pairs()
            .iter()
            .filter(|&&(s, t)| blocked.matrix.get(s, t).value() >= th.value())
            .count();
        assert!(
            blocked_truth >= dense_truth,
            "seed {seed}: blocked found {blocked_truth} of {dense_truth} \
             dense-found true pairs"
        );
        assert!(
            blocked.pairs_scored < blocked.pairs_considered,
            "seed {seed}: blocking did not prune"
        );
    }
}

/// Pin: the full match — `run`, which is `run_blocked` under the
/// exhaustive policy — reproduces the per-pair oracle byte for byte,
/// floored and unfloored, across thread counts.
#[test]
fn exhaustive_run_blocked_is_byte_identical_to_run() {
    let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(11, 0.08));
    for floor in [None, Some(0.0)] {
        for threads in [1usize, 3] {
            let engine = engine()
                .with_threads(threads)
                .with_score_floor(floor)
                .with_propagation(0.3);
            let want = common::per_pair_matrix(&engine, &pair.source, &pair.target, floor, 0.3);
            let full = engine.run(&pair.source, &pair.target);
            let blocked =
                engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::Exhaustive);
            assert_eq!(blocked.pairs_scored, full.pairs_considered);
            for (label, got) in [("run", &full), ("run_blocked", &blocked)] {
                assert_eq!(
                    got.matrix.as_slice(),
                    want.as_slice(),
                    "exhaustive {label} diverged from the per-pair oracle \
                     (floor {floor:?}, {threads} threads)"
                );
            }
        }
    }
}
