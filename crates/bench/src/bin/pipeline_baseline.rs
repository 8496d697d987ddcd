//! Regenerate `BENCH_pipeline.json`: the staged-pipeline baseline at the
//! paper's 1378×784 scale (§3.3's "10.2 seconds" datum).
//!
//! Measures the cold vs. cached Prepare stage (the `PreparedSchema` feature
//! cache's payoff), the per-stage breakdown of full cached runs — dense and
//! token-blocked, single-threaded and multi-threaded — and the feature
//! cache's hit/miss/eviction counters over the whole workload, then writes
//! the numbers as JSON to the workspace root so regressions are diffable in
//! review. The blocked runs enable the score cascade with the floor at the
//! 0.30 operating threshold (`CASCADE_FLOOR`), and a cascade-off reference
//! at the same floor rides in the same interleaved rounds, so the JSON
//! reports the tier-1 skip rate and the Score-stage speedup side by side.
//!
//! Thread counts come from `harmony_core::engine::detect_threads` (the
//! `SM_THREADS` env var overrides; `available_parallelism` and
//! `/proc/cpuinfo` are the fallbacks). The multi-threaded run is labeled
//! with the *requested* engine width (min 2); the executor caps actual
//! lanes at its pool width — caller + pool-width−1 helpers — so on a host
//! with fewer cores than the request the run degrades to the serial path
//! instead of oversubscribing (requesting more workers is never slower
//! than requesting fewer; see `harmony_core::exec`). The block-stage
//! scaling section reports the blocked Block stage at 1, 2, and max
//! threads, median of N reps each.
//!
//! The bench also measures the observability recorder's own cost: the same
//! blocked cascade engine runs with recording enabled and runtime-disabled
//! in interleaved rounds, and the JSON reports the ratio (`obs_overhead`);
//! `ci.sh` gates it at ≤ 1.05.
//!
//! Run with: `cargo run --release -p sm-bench --bin pipeline_baseline`
//! Trace one instrumented run instead: `... --bin pipeline_baseline -- --trace`
//! (see `--help` for the artifact layout).

use harmony_core::context::MatchContext;
use harmony_core::index::BlockingPolicy;
use harmony_core::obs;
use harmony_core::prelude::*;
use harmony_core::prepare::PreparedSchema;
use sm_bench::{case_study, header};
use sm_text::normalize::Normalizer;
use std::time::Instant;

/// Score floor for the cascade runs: the 0.30 accept/propagation threshold
/// the experiments select at. Losslessness is relative to a full-panel
/// reference at the *same* floor (pinned byte-identical in
/// `tests/cascade_pin.rs`); the selections-equality gates in the n-way
/// bench keep running floor-off engines.
const CASCADE_FLOOR: f64 = 0.30;

fn median_secs(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Slot visit order for one interleaved measurement round: forward on even
/// rounds, reversed on odd ones, so no slot is always the one running on a
/// freshly-idle (or freshly-warmed) core.
fn round_order(round: usize, slots: usize) -> Vec<usize> {
    if round % 2 == 0 {
        (0..slots).collect()
    } else {
        (0..slots).rev().collect()
    }
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median_secs(&mut samples)
}

/// Median full dense run (by total) with its stage breakdown, per engine.
/// Rounds interleave the engines (one run each per round) so slow drift —
/// CPU frequency wander, cache warmth — lands on every engine equally; a
/// sequential block per engine would bias whichever ran in a fast minute,
/// which is exactly the artifact an ST-vs-MT comparison must not carry.
fn timed_runs_interleaved(
    engines: &[&MatchEngine],
    pair: &sm_synth::SchemaPair,
    reps: usize,
) -> Vec<(f64, StageTimings)> {
    let mut samples: Vec<Vec<(f64, StageTimings)>> = vec![Vec::with_capacity(reps); engines.len()];
    for round in 0..reps {
        // Alternate the within-round order too: the slot that runs second
        // consistently sees a slightly warmer (slower) core.
        for slot in round_order(round, engines.len()) {
            let r = engines[slot].run(&pair.source, &pair.target);
            samples[slot].push((r.elapsed.as_secs_f64(), r.timings));
        }
    }
    samples
        .into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            runs[runs.len() / 2]
        })
        .collect()
}

/// [`timed_runs_interleaved`] for blocked runs, also reporting the scored
/// candidate count (identical across engines — blocking is deterministic).
fn timed_blocked_runs_interleaved(
    engines: &[&MatchEngine],
    pair: &sm_synth::SchemaPair,
    policy: &BlockingPolicy,
    reps: usize,
) -> Vec<(f64, StageTimings, usize)> {
    let mut samples: Vec<Vec<(f64, StageTimings, usize)>> =
        vec![Vec::with_capacity(reps); engines.len()];
    for round in 0..reps {
        for slot in round_order(round, engines.len()) {
            let r = engines[slot].run_blocked(&pair.source, &pair.target, policy);
            samples[slot].push((r.elapsed.as_secs_f64(), r.timings, r.pairs_scored));
        }
    }
    samples
        .into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            runs[runs.len() / 2]
        })
        .collect()
}

fn stage_json(label: &str, threads: usize, total: f64, stages: &StageTimings) -> String {
    format!(
        "\"{label}\": {{\n    \"threads\": {threads},\n    \"total\": {total:.6},\n    \
         \"stage_sum\": {stage_sum:.6},\n    \
         \"prepare\": {prepare:.6},\n    \"block\": {block:.6},\n    \"score\": {score:.6},\n    \
         \"score_tier1\": {tier1:.6},\n    \"score_tier2\": {tier2:.6},\n    \
         \"merge\": {merge:.6},\n    \"propagate\": {propagate:.6},\n    \
         \"pairs_pruned\": {pruned},\n    \"pairs_full\": {full}\n  }}",
        stage_sum = stages.total().as_secs_f64(),
        prepare = stages.prepare.as_secs_f64(),
        block = stages.block.as_secs_f64(),
        score = stages.score.as_secs_f64(),
        tier1 = stages.score_tier1.as_secs_f64(),
        tier2 = stages.score_tier2.as_secs_f64(),
        merge = stages.merge.as_secs_f64(),
        propagate = stages.propagate.as_secs_f64(),
        pruned = stages.pairs_pruned,
        full = stages.pairs_full,
    )
}

fn print_stages(label: &str, stages: &StageTimings) {
    println!(
        "  {label} stages: prepare {:.4}s  block {:.4}s  score {:.4}s  \
         (tier1 {:.4}s + tier2 {:.4}s)  merge {:.4}s  propagate {:.4}s",
        stages.prepare.as_secs_f64(),
        stages.block.as_secs_f64(),
        stages.score.as_secs_f64(),
        stages.score_tier1.as_secs_f64(),
        stages.score_tier2.as_secs_f64(),
        stages.merge.as_secs_f64(),
        stages.propagate.as_secs_f64(),
    );
}

/// `--trace` mode: one instrumented blocked cascade run at the paper scale,
/// plus the one-to-one selection at the operating threshold, exported as
/// chrome-trace + report JSON. A private ≥2-wide executor guarantees the
/// trace has per-lane worker rows even on a single-core host.
fn run_trace(req: &sm_bench::TraceRequest) {
    header(
        "pipeline_baseline --trace",
        "one instrumented blocked cascade run + selection at 1378×784",
    );
    let pair = case_study(1.0);
    let threads = detect_threads().max(2);
    let engine = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::new(
            harmony_core::prepare::FeatureCache::new(Normalizer::new()),
        ))
        .with_threads(threads)
        .with_score_floor(Some(CASCADE_FLOOR))
        .with_executor(std::sync::Arc::new(Executor::new(threads)));
    obs::reset();
    obs::ObsConfig::default().apply();
    let result = engine.run_blocked(&pair.source, &pair.target, &BlockingPolicy::default());
    let selected = Selection::OneToOne {
        min: Confidence::new(CASCADE_FLOOR),
    }
    .apply(&result.matrix);
    println!(
        "blocked run ({threads} thr): {} pairs scored, {} selected, {:.4}s wall",
        result.pairs_scored,
        selected.len(),
        result.elapsed.as_secs_f64(),
    );
    sm_bench::write_trace(req);
}

fn main() {
    if let Some(req) = sm_bench::trace_request(
        "pipeline_baseline",
        "one blocked cascade match + selection at 1378×784",
    ) {
        run_trace(&req);
        return;
    }
    header(
        "pipeline_baseline",
        "cold vs cached Prepare and stage breakdown at 1378×784 (paper §3.3: 10.2 s fully automated)",
    );
    let pair = case_study(1.0);
    let rows = pair.source.len();
    let cols = pair.target.len();
    println!(
        "schema pair: {rows}×{cols} = {} candidate pairs\n",
        rows * cols
    );

    const REPS: usize = 5;
    let normalizer = Normalizer::new();

    // Cold per-schema features (what every layer re-paid before the cache).
    let cold_features = time(REPS, || {
        let ps = PreparedSchema::build(&pair.source, &normalizer);
        let pt = PreparedSchema::build(&pair.target, &normalizer);
        (ps.len(), pt.len())
    });

    // Cold full context (features + joint TF-IDF corpus).
    let cold_context = time(REPS, || {
        MatchContext::build(&pair.source, &pair.target, &normalizer)
    });

    // Cached context against a warm feature cache. The single- and multi-
    // threaded engines share it, so it is warmed exactly once.
    let cache = std::sync::Arc::new(harmony_core::prepare::FeatureCache::new(Normalizer::new()));
    let engine_st = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::clone(&cache))
        .with_threads(1);
    let _warm = engine_st.build_context(&pair.source, &pair.target);
    let cached_context = time(REPS, || engine_st.build_context(&pair.source, &pair.target));

    // Full cached runs with stage breakdown: single-threaded and multi-
    // threaded. `detect_threads` honors SM_THREADS and cgroup-aware
    // parallelism; the floor of 2 keeps the multi-threaded configuration a
    // genuinely different code path (scoped workers + work-stealing queue)
    // even on a single-core host, and `threads_mt` records what actually ran.
    let threads_mt = detect_threads().max(2);
    let engine_mt = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::clone(&cache))
        .with_threads(threads_mt);
    let dense = timed_runs_interleaved(&[&engine_st, &engine_mt], &pair, REPS);
    let ((st_total, st_stages), (mt_total, mt_stages)) = (dense[0], dense[1]);

    // Blocked runs at both thread counts: the sparse Score stage fans out
    // across the same work-stealing workers as the dense one. The blocked
    // engines run the score cascade with the floor at the 0.30 operating
    // threshold the experiments select at — cells the Harmony merge scores
    // below it are floored to the matrix's neutral 0.0 before propagation,
    // which tier 1 exploits losslessly (the matrix is byte-identical to
    // the same-floor full-panel reference; tests/cascade_pin.rs pins
    // this). A cascade-off reference engine rides along in the same
    // interleaved rounds so the cascade's Score-stage speedup is measured
    // under identical drift.
    let engine_bst = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::clone(&cache))
        .with_threads(1)
        .with_score_floor(Some(CASCADE_FLOOR));
    let engine_bmt = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::clone(&cache))
        .with_threads(threads_mt)
        .with_score_floor(Some(CASCADE_FLOOR));
    let engine_bref = MatchEngine::new()
        .with_feature_cache(std::sync::Arc::clone(&cache))
        .with_threads(1)
        .with_score_floor(Some(CASCADE_FLOOR))
        .with_cascade(false);
    let policy = BlockingPolicy::default();
    let blocked = timed_blocked_runs_interleaved(
        &[&engine_bst, &engine_bmt, &engine_bref],
        &pair,
        &policy,
        REPS,
    );
    let ((bst_total, bst_stages, pairs_scored), (bmt_total, bmt_stages, _)) =
        (blocked[0], blocked[1]);
    let (bref_total, bref_stages, _) = blocked[2];

    // Block-stage thread scaling at 1, 2, and max threads (median of REPS
    // each): the parallel candidate generation must never make 2 workers
    // slower than 1, and should scale where the host has the cores. Rounds
    // interleave the thread points so slow drift (CPU frequency wander)
    // lands on every point equally instead of biasing one.
    let mut scaling_threads: Vec<usize> = vec![1, 2, threads_mt];
    scaling_threads.dedup();
    let scaling_engines: Vec<MatchEngine> = scaling_threads
        .iter()
        .map(|&n| {
            MatchEngine::new()
                .with_feature_cache(std::sync::Arc::clone(&cache))
                .with_threads(n)
        })
        .collect();
    let mut block_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); scaling_threads.len()];
    for round in 0..REPS {
        for point in round_order(round, scaling_engines.len()) {
            let r = scaling_engines[point].run_blocked(&pair.source, &pair.target, &policy);
            block_samples[point].push(r.timings.block.as_secs_f64());
        }
    }
    let block_scaling: Vec<(usize, f64)> = scaling_threads
        .iter()
        .zip(&mut block_samples)
        .map(|(&n, samples)| (n, median_secs(samples)))
        .collect();

    // Observability overhead: the same single-threaded blocked cascade
    // engine with the obs recorder enabled vs runtime-disabled, in
    // interleaved rounds so drift lands on both sides equally. ci.sh gates
    // the ratio at ≤ 1.05 (the recorder's ring writes are a handful of
    // relaxed stores per span; the compile-time `obs-off` feature removes
    // even those). More reps than the timing sections because the gate is
    // a ratio of two small numbers.
    const OBS_REPS: usize = 9;
    let mut obs_samples: Vec<Vec<f64>> = (0..2).map(|_| Vec::with_capacity(OBS_REPS)).collect();
    for round in 0..OBS_REPS {
        for slot in round_order(round, 2) {
            obs::set_enabled(slot == 0);
            let t0 = Instant::now();
            std::hint::black_box(engine_bst.run_blocked(&pair.source, &pair.target, &policy));
            obs_samples[slot].push(t0.elapsed().as_secs_f64());
        }
    }
    obs::set_enabled(true);
    let obs_on_secs = median_secs(&mut obs_samples[0]);
    let obs_off_secs = median_secs(&mut obs_samples[1]);
    let obs_ratio = obs_on_secs / obs_off_secs.max(1e-12);

    let speedup = cold_context / cached_context.max(1e-12);
    let stats = cache.stats();
    println!("cold features        {:>10.4} s", cold_features);
    println!("cold context         {:>10.4} s", cold_context);
    println!(
        "cached context       {:>10.4} s   ({speedup:.1}× vs cold)",
        cached_context
    );
    println!("dense run   (1 thr)  {:>10.4} s", st_total);
    println!("dense run   ({threads_mt} thr)  {:>10.4} s", mt_total);
    println!(
        "blocked run (1 thr)  {:>10.4} s   ({pairs_scored} pairs scored, {:.1}% of cross product)",
        bst_total,
        100.0 * pairs_scored as f64 / (rows * cols) as f64
    );
    println!("blocked run ({threads_mt} thr)  {:>10.4} s", bmt_total);
    println!("blocked run (1 thr, cascade off)  {:>10.4} s", bref_total);
    for (label, stages) in [
        ("dense 1-thread", &st_stages),
        ("dense mt", &mt_stages),
        ("blocked 1-thread", &bst_stages),
        ("blocked mt", &bmt_stages),
        ("blocked reference", &bref_stages),
    ] {
        print_stages(label, stages);
    }
    let skip_rate = bst_stages.pairs_pruned as f64
        / (bst_stages.pairs_pruned + bst_stages.pairs_full).max(1) as f64;
    let score_speedup = bref_stages.score.as_secs_f64() / bst_stages.score.as_secs_f64().max(1e-12);
    println!(
        "score cascade: {} of {} candidate pairs pruned by tier 1 ({:.1}%), \
         score stage {:.4}s vs {:.4}s reference ({score_speedup:.2}×)",
        bst_stages.pairs_pruned,
        pairs_scored,
        100.0 * skip_rate,
        bst_stages.score.as_secs_f64(),
        bref_stages.score.as_secs_f64(),
    );
    println!(
        "obs overhead: blocked run {obs_on_secs:.4}s instrumented vs {obs_off_secs:.4}s \
         disabled ({obs_ratio:.3}× , median of {OBS_REPS} interleaved)"
    );
    let memo = sm_text::intern::pair_memo_stats();
    println!(
        "edit-distance pair memo: {} misses / {} flushes (process-wide, cap {})",
        memo.misses,
        memo.flushes,
        sm_text::intern::PairMemo::CAPACITY
    );
    println!(
        "feature cache: {} hits / {} misses / {} evictions / {} resident",
        stats.hits, stats.misses, stats.evictions, stats.entries
    );
    println!("block-stage scaling (median of {REPS}):");
    for (n, secs) in &block_scaling {
        println!("  {n} thread(s): block {secs:.4}s");
    }

    // Hand-rolled JSON (the workspace has no serialization dependency).
    let json = format!(
        "{{\n  \"scale\": {{\"rows\": {rows}, \"cols\": {cols}, \"pairs\": {pairs}}},\n  \
         \"prepare_secs\": {{\n    \"cold_features\": {cold_features:.6},\n    \
         \"cold_context\": {cold_context:.6},\n    \
         \"cached_context\": {cached_context:.6},\n    \
         \"cached_speedup\": {speedup:.2}\n  }},\n  \
         {single},\n  {multi},\n  {bsingle},\n  {bmulti},\n  {bref},\n  \
         \"blocked_pairs_scored\": {pairs_scored},\n  \
         \"score_cascade\": {{\n    \"floor\": {CASCADE_FLOOR},\n    \
         \"pairs_pruned\": {pruned},\n    \"pairs_full\": {full},\n    \
         \"tier1_skip_rate\": {skip_rate:.6},\n    \
         \"cascade_score_secs\": {cascade_score:.6},\n    \
         \"reference_score_secs\": {reference_score:.6},\n    \
         \"score_speedup\": {score_speedup:.2}\n  }},\n  \
         \"obs_overhead\": {{\n    \"instrumented_secs\": {obs_on_secs:.6},\n    \
         \"disabled_secs\": {obs_off_secs:.6},\n    \"ratio\": {obs_ratio:.4}\n  }},\n  \
         \"edit_memo\": {{\"misses\": {memo_misses}, \"flushes\": {memo_flushes}, \
         \"capacity\": {memo_capacity}}},\n  \
         \"block_stage_scaling\": [\n{scaling}\n  ],\n  \
         \"feature_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
         \"evictions\": {evictions}, \"entries\": {entries}}},\n  \
         \"paper_reference_secs\": 10.2\n}}\n",
        bref = stage_json("blocked_run_reference_secs", 1, bref_total, &bref_stages),
        pruned = bst_stages.pairs_pruned,
        full = bst_stages.pairs_full,
        cascade_score = bst_stages.score.as_secs_f64(),
        reference_score = bref_stages.score.as_secs_f64(),
        memo_misses = memo.misses,
        memo_flushes = memo.flushes,
        memo_capacity = sm_text::intern::PairMemo::CAPACITY,
        pairs = rows * cols,
        scaling = block_scaling
            .iter()
            .map(|(n, secs)| format!("    {{\"threads\": {n}, \"block_stage_secs\": {secs:.6}}}"))
            .collect::<Vec<_>>()
            .join(",\n"),
        single = stage_json("full_run_secs", 1, st_total, &st_stages),
        multi = stage_json("full_run_mt_secs", threads_mt, mt_total, &mt_stages),
        bsingle = stage_json("blocked_run_secs", 1, bst_total, &bst_stages),
        bmulti = stage_json("blocked_run_mt_secs", threads_mt, bmt_total, &bmt_stages),
        hits = stats.hits,
        misses = stats.misses,
        evictions = stats.evictions,
        entries = stats.entries,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("\nwrote {out}");
}
