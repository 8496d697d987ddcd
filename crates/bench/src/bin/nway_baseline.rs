//! Regenerate `BENCH_nway.json`: sequential-dense vs batch-blocked N-way
//! pairwise population, at the paper's 5-schema vocabulary arity and at a
//! 12-schema consolidation arity.
//!
//! The sequential-dense side reproduces the pre-batch `populate_pairwise`
//! loop verbatim: one dense `run_select` per unordered pair, each run
//! spawning its own Score/Merge workers and paying the full cross product.
//! The batch-blocked side is the production path: one `BatchPlanner` plan
//! (every schema prepared and token-indexed once), candidates from the
//! shared index under the default blocking policy, and all pairs executed
//! concurrently on the persistent executor. Both sides select one-to-one
//! correspondences at the same threshold; the bench asserts the *selected
//! pair sets are identical* (the blocking-recall property at work), so the
//! wall-clock ratio is measured at equal recall by construction.
//!
//! `ci.sh` gates on the 12-schema ratio: batch-blocked must finish in at
//! most 50% of the sequential-dense wall clock.
//!
//! The equal-selections gate deliberately runs with the score cascade's
//! floor *off* (matching the historical dense loop exactly). A third,
//! reporting-only configuration per arity runs the batch with the cascade
//! enabled at the 0.30 floor and records its tier-1 skip rate and
//! tier-split Score timings in the JSON; its losslessness relative to a
//! same-floor full panel is pinned separately in `tests/cascade_pin.rs`.
//!
//! Run with: `cargo run --release -p sm-bench --bin nway_baseline`

use harmony_core::prelude::*;
use sm_bench::header;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::time::Instant;

/// The operating threshold used across experiments.
const THRESHOLD: f64 = 0.35;
/// Operating threshold of the N=100 planning tier. Higher than the small
/// arities' 0.35: at registry scale the acceptance bar is "worth an
/// engineer's review", and the scoped clustered corpus is built so that
/// cross-domain pairs never clear it (which is what makes overlap pruning
/// lossless there).
const N100_THRESHOLD: f64 = 0.6;
/// Overlap-bound cut of the N=100 `OverlapThreshold` plan. Tuned on the
/// scoped clustered corpus (seed 2031): cross-domain pairs share only
/// generic staple tokens (`identifier`, `name`, …, IDF ≈ 1 each at df ≈ N)
/// while same-domain pairs share concept names and concept-scoped
/// attributes at far higher IDF mass. The bench reports achieved recall
/// against the exhaustive reference, and ci.sh gates it at exactly 1.0 —
/// the cut is validated on every regeneration, not trusted.
const N100_MIN_WEIGHT: f64 = 45.0;
/// Score floor for the reporting-only cascade configuration (the same
/// 0.30 operating floor `pipeline_baseline` benches the cascade at).
const CASCADE_FLOOR: f64 = 0.30;
const REPS: usize = 3;

/// One unordered pair's selected correspondences, as comparable tuples.
type SelectedPairs = Vec<(u32, u32)>;

fn selected_tuples(set: &MatchSet) -> SelectedPairs {
    let mut pairs: SelectedPairs = set.all().iter().map(|c| (c.source.0, c.target.0)).collect();
    pairs.sort_unstable();
    pairs
}

/// The pre-batch behavior, verbatim: a sequential loop of dense
/// `run_select` calls over every unordered pair.
fn sequential_dense(
    engine: &MatchEngine,
    schemas: &[&Schema],
    selection: &Selection,
) -> (f64, Vec<SelectedPairs>) {
    let t0 = Instant::now();
    let mut selections = Vec::new();
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let (_, selected) = engine
                .pipeline()
                .run_select(schemas[i], schemas[j], selection);
            selections.push(selected_tuples(&selected));
        }
    }
    (t0.elapsed().as_secs_f64(), selections)
}

struct BatchMeasurement {
    total_secs: f64,
    plan_secs: f64,
    pairs_scored: usize,
    cross_product: usize,
    selections: Vec<SelectedPairs>,
}

/// The production path: one plan, one shared index, all pairs concurrent,
/// selection-only execution (matrices drop inside the jobs).
fn batch_blocked(
    engine: &MatchEngine,
    schemas: &[&Schema],
    selection: &Selection,
) -> BatchMeasurement {
    let t0 = Instant::now();
    let batch = engine.batch().plan_all_pairs(schemas);
    let result = batch.run_select_only(selection);
    let total_secs = t0.elapsed().as_secs_f64();
    BatchMeasurement {
        total_secs,
        plan_secs: batch.plan_time().as_secs_f64(),
        pairs_scored: result.pairs_scored(),
        cross_product: result.pairs_considered(),
        selections: result
            .pairs
            .iter()
            .map(|p| selected_tuples(&p.selected))
            .collect(),
    }
}

/// Reporting-only numbers from the cascade-enabled batch configuration.
struct CascadeReport {
    score_secs: f64,
    tier1_secs: f64,
    tier2_secs: f64,
    pairs_pruned: u64,
    pairs_full: u64,
    /// Whether the floored cascade run selected the very same pairs the
    /// floor-off dense loop did (informational — flooring below the
    /// selection threshold can in principle shift propagation blends; see
    /// DESIGN.md "Why floored N-way selections may diverge").
    selections_match_unfloored: bool,
    /// How many of the unordered pairs diverged from the floor-off dense
    /// loop. Zero when `selections_match_unfloored` — otherwise a measure
    /// of how borderline the divergence is.
    diverging_pairs: usize,
}

/// Median-by-score cascade batch run; selections compared against the
/// dense loop's for the informational flag.
fn cascade_blocked(
    engine: &MatchEngine,
    schemas: &[&Schema],
    selection: &Selection,
    dense_selections: &[SelectedPairs],
) -> CascadeReport {
    let mut runs: Vec<_> = (0..REPS)
        .map(|_| {
            engine
                .batch()
                .plan_all_pairs(schemas)
                .run_select_only(selection)
        })
        .collect();
    runs.sort_by(|a, b| {
        a.timings
            .score
            .partial_cmp(&b.timings.score)
            .expect("total order")
    });
    let run = runs.swap_remove(REPS / 2);
    let selections: Vec<SelectedPairs> = run
        .pairs
        .iter()
        .map(|p| selected_tuples(&p.selected))
        .collect();
    let diverging_pairs = selections
        .iter()
        .zip(dense_selections)
        .filter(|(a, b)| a != b)
        .count();
    CascadeReport {
        score_secs: run.timings.score.as_secs_f64(),
        tier1_secs: run.timings.score_tier1.as_secs_f64(),
        tier2_secs: run.timings.score_tier2.as_secs_f64(),
        pairs_pruned: run.timings.pairs_pruned,
        pairs_full: run.timings.pairs_full,
        selections_match_unfloored: selections == dense_selections,
        diverging_pairs,
    }
}

struct ArityPoint {
    label: &'static str,
    schemas: usize,
    pairs: usize,
    elements: usize,
    cross_product: usize,
    pairs_scored: usize,
    dense_secs: f64,
    batch_secs: f64,
    plan_secs: f64,
    equal_selections: bool,
    cascade: CascadeReport,
}

fn measure(
    label: &'static str,
    n: usize,
    seed: u64,
    engine: &MatchEngine,
    cascade_engine: &MatchEngine,
) -> ArityPoint {
    let population = SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 1,
        schemas_per_domain: n,
        concepts_per_domain: 48,
        concept_coverage: 0.7,
        attrs_per_concept: (5, 9),
        ..Default::default()
    });
    let schemas: Vec<&Schema> = population.schemas.iter().collect();
    let elements: usize = schemas.iter().map(|s| s.len()).sum();
    let selection = Selection::OneToOne {
        min: Confidence::new(THRESHOLD),
    };

    // Warm the feature cache once so both sides measure execution, not
    // first-touch preparation (both amortize it identically in steady
    // state; the batch additionally amortizes the index builds, which stay
    // in the measurement as part of its Plan stage).
    for s in &schemas {
        let _ = engine.prepare(s);
    }

    let mut dense_runs: Vec<(f64, Vec<SelectedPairs>)> = (0..REPS)
        .map(|_| sequential_dense(engine, &schemas, &selection))
        .collect();
    dense_runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let (dense_secs, dense_selections) = dense_runs.swap_remove(REPS / 2);

    let mut batch_runs: Vec<BatchMeasurement> = (0..REPS)
        .map(|_| batch_blocked(engine, &schemas, &selection))
        .collect();
    batch_runs.sort_by(|a, b| a.total_secs.partial_cmp(&b.total_secs).expect("finite"));
    let batch = batch_runs.swap_remove(REPS / 2);

    // Reporting-only: the cascade engine re-prepares inside its own plan
    // (its cache is distinct), but the Score-stage timings and tier
    // counters it emits are unaffected by that.
    let cascade = cascade_blocked(cascade_engine, &schemas, &selection, &dense_selections);

    let equal_selections = dense_selections == batch.selections;
    ArityPoint {
        label,
        schemas: n,
        pairs: n * (n - 1) / 2,
        elements,
        cross_product: batch.cross_product,
        pairs_scored: batch.pairs_scored,
        dense_secs,
        batch_secs: batch.total_secs,
        plan_secs: batch.plan_secs,
        equal_selections,
        cascade,
    }
}

fn point_json(p: &ArityPoint) -> String {
    format!(
        "\"{label}\": {{\n    \"schemas\": {schemas},\n    \"pairs\": {pairs},\n    \
         \"elements\": {elements},\n    \"cross_product\": {cross},\n    \
         \"pairs_scored\": {scored},\n    \"scored_fraction\": {fraction:.6},\n    \
         \"sequential_dense_secs\": {dense:.6},\n    \"batch_blocked_secs\": {batch:.6},\n    \
         \"batch_plan_secs\": {plan:.6},\n    \"ratio\": {ratio:.6},\n    \
         \"equal_selections\": {equal},\n    \
         \"cascade\": {{\n      \"floor\": {CASCADE_FLOOR},\n      \
         \"score_secs\": {cscore:.6},\n      \"score_tier1_secs\": {ct1:.6},\n      \
         \"score_tier2_secs\": {ct2:.6},\n      \"pairs_pruned\": {cpruned},\n      \
         \"pairs_full\": {cfull},\n      \"tier1_skip_rate\": {cskip:.6},\n      \
         \"selections_match_unfloored\": {cmatch},\n      \
         \"diverging_pairs\": {cdiverge}\n    }}\n  }}",
        label = p.label,
        schemas = p.schemas,
        pairs = p.pairs,
        elements = p.elements,
        cross = p.cross_product,
        scored = p.pairs_scored,
        fraction = p.pairs_scored as f64 / p.cross_product.max(1) as f64,
        dense = p.dense_secs,
        batch = p.batch_secs,
        plan = p.plan_secs,
        ratio = p.batch_secs / p.dense_secs.max(1e-12),
        equal = p.equal_selections,
        cscore = p.cascade.score_secs,
        ct1 = p.cascade.tier1_secs,
        ct2 = p.cascade.tier2_secs,
        cpruned = p.cascade.pairs_pruned,
        cfull = p.cascade.pairs_full,
        cskip = p.cascade.pairs_pruned as f64
            / (p.cascade.pairs_pruned + p.cascade.pairs_full).max(1) as f64,
        cmatch = p.cascade.selections_match_unfloored,
        cdiverge = p.cascade.diverging_pairs,
    )
}

/// The N=100 planning tier.
struct N100Point {
    schemas: usize,
    pairs: usize,
    elements: usize,
    planned_pairs: usize,
    pruned_pairs: usize,
    planned_fraction: f64,
    exhaustive_secs: f64,
    pruned_secs: f64,
    ratio_vs_exhaustive: f64,
    exhaustive_selected: usize,
    recall: f64,
    plan_estimate_secs: f64,
    plan_schedule_secs: f64,
    addone_secs: f64,
    full_replan_secs: f64,
    addone_over_replan: f64,
}

/// The scoped clustered registry corpus: 10 latent domains × 10 schemata.
/// `scoped_attributes` prefixes every attribute with its concept's head
/// token and drops generated prose, so cross-domain pairs share only the
/// ubiquitous staple vocabulary — the regime where plan-stage overlap
/// pruning can be lossless at an enterprise acceptance threshold.
fn n100_corpus() -> SyntheticRepository {
    SyntheticRepository::generate(&RepositoryConfig {
        seed: 2031,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    })
}

/// Non-empty selections of a batch run, keyed by schema-slot pair.
fn keyed_selections(
    result: &harmony_core::batch::BatchSelectResult,
) -> std::collections::HashMap<(usize, usize), SelectedPairs> {
    result
        .pairs
        .iter()
        .map(|p| ((p.left, p.right), selected_tuples(&p.selected)))
        .filter(|(_, sel)| !sel.is_empty())
        .collect()
}

/// Exhaustive-plan vs `OverlapThreshold`-plan batch population at N=100,
/// interleaved in the same run (the PR 5/6 drift convention), plus the
/// incremental add-one consolidation against a full replan.
fn measure_n100(engine: &MatchEngine) -> N100Point {
    let population = n100_corpus();
    let schemas: Vec<&Schema> = population.schemas.iter().collect();
    let n = schemas.len();
    let elements: usize = schemas.iter().map(|s| s.len()).sum();
    let selection = Selection::OneToOne {
        min: Confidence::new(N100_THRESHOLD),
    };
    let policy = PlanPolicy::OverlapThreshold {
        min_weight: N100_MIN_WEIGHT,
    };
    for s in &schemas {
        let _ = engine.prepare(s);
    }

    // Interleaved reps: each round runs the exhaustive plan and the pruned
    // plan back to back, so the wall-clock ratio is immune to host drift.
    let mut ex_secs = Vec::with_capacity(REPS);
    let mut pr_secs = Vec::with_capacity(REPS);
    let mut ex_map = std::collections::HashMap::new();
    let mut pr_map = std::collections::HashMap::new();
    let mut planned_pairs = 0usize;
    let mut pruned_pairs = 0usize;
    let mut plan_estimate_secs = 0.0f64;
    let mut plan_schedule_secs = 0.0f64;
    for rep in 0..REPS {
        let t = Instant::now();
        let ex = engine
            .batch()
            .plan_all_pairs(&schemas)
            .run_select_only(&selection);
        ex_secs.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let batch = engine
            .batch()
            .with_plan_policy(policy)
            .plan_all_pairs(&schemas);
        let breakdown = batch.plan_breakdown();
        let planned = batch.requests().len();
        let pruned = batch.pruned().len();
        let pr = batch.run_select_only(&selection);
        pr_secs.push(t.elapsed().as_secs_f64());

        if rep == 0 {
            // Selections and the plan are deterministic across reps; only
            // wall clocks vary.
            ex_map = keyed_selections(&ex);
            pr_map = keyed_selections(&pr);
            planned_pairs = planned;
            pruned_pairs = pruned;
            plan_estimate_secs = breakdown.estimate.as_secs_f64();
            plan_schedule_secs = breakdown.schedule.as_secs_f64();
        }
    }
    ex_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    pr_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let exhaustive_secs = ex_secs[REPS / 2];
    let pruned_secs = pr_secs[REPS / 2];

    // Selection recall of the pruned plan against the exhaustive reference:
    // every exhaustively selected correspondence must reappear.
    let exhaustive_selected: usize = ex_map.values().map(Vec::len).sum();
    let found: usize = ex_map
        .iter()
        .map(|(k, sel)| match pr_map.get(k) {
            Some(kept) => sel.iter().filter(|t| kept.contains(t)).count(),
            None => 0,
        })
        .sum();
    let recall = if exhaustive_selected == 0 {
        1.0
    } else {
        found as f64 / exhaustive_selected as f64
    };

    // Incremental add-one vs a full replan, both under the same pruned
    // policy, interleaved like the batch sides above.
    let blocking = BlockingPolicy::default();
    let threshold = Confidence::new(N100_THRESHOLD);
    let mut replan_secs = Vec::with_capacity(REPS);
    let mut addone_secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut full = NWayMatch::new(schemas.clone());
        let t = Instant::now();
        let _ = full.populate_planned(engine, &blocking, policy, threshold, "bench");
        replan_secs.push(t.elapsed().as_secs_f64());

        let mut standing = NWayMatch::new(schemas[..n - 1].to_vec());
        let _ = standing.populate_planned(engine, &blocking, policy, threshold, "bench");
        let t = Instant::now();
        standing.add_schema(schemas[n - 1]);
        let _ = standing.populate_incremental(engine, "bench");
        addone_secs.push(t.elapsed().as_secs_f64());
    }
    replan_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    addone_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let full_replan_secs = replan_secs[REPS / 2];
    let addone = addone_secs[REPS / 2];

    let pairs = n * (n - 1) / 2;
    N100Point {
        schemas: n,
        pairs,
        elements,
        planned_pairs,
        pruned_pairs,
        planned_fraction: planned_pairs as f64 / pairs.max(1) as f64,
        exhaustive_secs,
        pruned_secs,
        ratio_vs_exhaustive: pruned_secs / exhaustive_secs.max(1e-12),
        exhaustive_selected,
        recall,
        plan_estimate_secs,
        plan_schedule_secs,
        addone_secs: addone,
        full_replan_secs,
        addone_over_replan: addone / full_replan_secs.max(1e-12),
    }
}

fn n100_json(p: &N100Point) -> String {
    format!(
        "\"n100\": {{\n    \"schemas\": {schemas},\n    \"pairs\": {pairs},\n    \
         \"elements\": {elements},\n    \"threshold\": {N100_THRESHOLD},\n    \
         \"min_weight\": {N100_MIN_WEIGHT},\n    \
         \"planned_pairs\": {planned},\n    \"pruned_pairs\": {pruned},\n    \
         \"planned_fraction\": {fraction:.6},\n    \
         \"exhaustive_secs\": {ex:.6},\n    \"pruned_secs\": {pr:.6},\n    \
         \"ratio_vs_exhaustive\": {ratio:.6},\n    \
         \"exhaustive_selected\": {selected},\n    \"recall\": {recall:.6},\n    \
         \"plan_estimate_secs\": {pest:.6},\n    \"plan_schedule_secs\": {psch:.6},\n    \
         \"addone_secs\": {addone:.6},\n    \"full_replan_secs\": {replan:.6},\n    \
         \"addone_over_replan\": {aratio:.6}\n  }}",
        schemas = p.schemas,
        pairs = p.pairs,
        elements = p.elements,
        planned = p.planned_pairs,
        pruned = p.pruned_pairs,
        fraction = p.planned_fraction,
        ex = p.exhaustive_secs,
        pr = p.pruned_secs,
        ratio = p.ratio_vs_exhaustive,
        selected = p.exhaustive_selected,
        recall = p.recall,
        pest = p.plan_estimate_secs,
        psch = p.plan_schedule_secs,
        addone = p.addone_secs,
        replan = p.full_replan_secs,
        aratio = p.addone_over_replan,
    )
}

/// `--trace` mode: one instrumented cascade batch population at the
/// 5-schema arity (all 10 unordered pairs on a private ≥2-wide executor),
/// exported as chrome-trace + report JSON — the per-pair-job view that
/// complements `pipeline_baseline --trace`'s per-stage view.
fn run_trace(req: &sm_bench::TraceRequest) {
    header(
        "nway_baseline --trace",
        "one instrumented 5-schema batch-blocked population",
    );
    let population = SyntheticRepository::generate(&RepositoryConfig {
        seed: 2010,
        domains: 1,
        schemas_per_domain: 5,
        concepts_per_domain: 48,
        concept_coverage: 0.7,
        attrs_per_concept: (5, 9),
        ..Default::default()
    });
    let schemas: Vec<&Schema> = population.schemas.iter().collect();
    let threads = detect_threads().max(2);
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(threads)
        .with_score_floor(Some(CASCADE_FLOOR))
        .with_executor(std::sync::Arc::new(Executor::new(threads)));
    let selection = Selection::OneToOne {
        min: Confidence::new(THRESHOLD),
    };
    harmony_core::obs::reset();
    harmony_core::obs::ObsConfig::default().apply();
    let result = engine
        .batch()
        .plan_all_pairs(&schemas)
        .run_select_only(&selection);
    println!(
        "batch ({threads} thr): {} pair jobs, {} candidate pairs scored",
        result.pairs.len(),
        result.pairs_scored(),
    );
    sm_bench::write_trace(req);
}

fn main() {
    if let Some(req) = sm_bench::trace_request(
        "nway_baseline",
        "one 5-schema batch-blocked population, all pairs concurrent",
    ) {
        run_trace(&req);
        return;
    }
    header(
        "nway_baseline",
        "sequential-dense vs batch-blocked pairwise population at 5-schema and 12-schema arity",
    );
    let threads = detect_threads();
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(threads);
    let cascade_engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(threads)
        .with_score_floor(Some(CASCADE_FLOOR));
    println!(
        "threads: {threads}, threshold: {THRESHOLD}, reps: {REPS} (median), \
         cascade floor (reporting run): {CASCADE_FLOOR}\n"
    );

    let points = [
        measure("five_schema", 5, 2010, &engine, &cascade_engine),
        measure("twelve_schema", 12, 2021, &engine, &cascade_engine),
    ];
    for p in &points {
        println!(
            "{:<14} {} schemata / {} pairs / {} elements: dense {:>8.3}s  batch {:>8.3}s \
             (plan {:.3}s)  ratio {:.3}  scored {:.1}%  equal selections: {}",
            p.label,
            p.schemas,
            p.pairs,
            p.elements,
            p.dense_secs,
            p.batch_secs,
            p.plan_secs,
            p.batch_secs / p.dense_secs.max(1e-12),
            100.0 * p.pairs_scored as f64 / p.cross_product.max(1) as f64,
            p.equal_selections,
        );
        println!(
            "{:<14} cascade (floor {CASCADE_FLOOR}): score {:.4}s (tier1 {:.4}s + tier2 {:.4}s), \
             {} of {} pairs pruned ({:.1}%), selections match unfloored: {}",
            "",
            p.cascade.score_secs,
            p.cascade.tier1_secs,
            p.cascade.tier2_secs,
            p.cascade.pairs_pruned,
            p.cascade.pairs_pruned + p.cascade.pairs_full,
            100.0 * p.cascade.pairs_pruned as f64
                / (p.cascade.pairs_pruned + p.cascade.pairs_full).max(1) as f64,
            p.cascade.selections_match_unfloored,
        );
        assert!(
            p.equal_selections,
            "{}: batch-blocked selections diverged from the dense loop",
            p.label
        );
    }

    let n100 = measure_n100(&engine);
    println!(
        "{:<14} {} schemata / {} pairs: exhaustive {:>8.3}s  pruned {:>8.3}s  \
         ratio {:.3}  planned {}/{} ({:.1}%)  recall {:.4} over {} selected",
        "n100",
        n100.schemas,
        n100.pairs,
        n100.exhaustive_secs,
        n100.pruned_secs,
        n100.ratio_vs_exhaustive,
        n100.planned_pairs,
        n100.pairs,
        100.0 * n100.planned_fraction,
        n100.recall,
        n100.exhaustive_selected,
    );
    println!(
        "{:<14} plan split: estimate {:.4}s schedule {:.4}s; incremental add-one {:.3}s \
         vs full replan {:.3}s (ratio {:.3})",
        "",
        n100.plan_estimate_secs,
        n100.plan_schedule_secs,
        n100.addone_secs,
        n100.full_replan_secs,
        n100.addone_over_replan,
    );

    // Hand-rolled JSON (the workspace has no serialization dependency).
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"threshold\": {THRESHOLD},\n  \"reps\": {REPS},\n  \
         {five},\n  {twelve},\n  {n100_block}\n}}\n",
        five = point_json(&points[0]),
        twelve = point_json(&points[1]),
        n100_block = n100_json(&n100),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nway.json");
    std::fs::write(out, &json).expect("write BENCH_nway.json");
    println!("\nwrote {out}");
}
