//! `nway_consolidation`: N = 100 schemata of the clustered registry corpus
//! (10 domains × 10 schemata, concept-scoped attributes), consolidated by
//! one `engine.batch()` over all 4,950 pairs at score floor 0.30 with
//! one-to-one selection at 0.30. The feature cache is primed in set-up, so
//! the cost sits in planning, the shared batch index and per-pair job
//! overhead rather than in one large Block/Score.

use crate::report::{self, median, ms, ratio, Report, Tracer};
use crate::rng;
use crate::Args;
use harmony_core::batch::BatchSelectResult;
use harmony_core::prelude::*;
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const FLOOR: f64 = 0.30;
/// Set-ups per run, back to back before timing; `setup_s` is their median.
/// One set-up, about 30 ms, generates the corpus and primes a fresh cache.
/// Each is dropped before the next, so none raises the peak resident set.
const SETUPS: usize = 21;

fn corpus(seed: u64) -> Vec<Schema> {
    SyntheticRepository::generate(&RepositoryConfig {
        seed,
        domains: 10,
        schemas_per_domain: 10,
        concepts_per_domain: 12,
        concept_coverage: 0.65,
        attrs_per_concept: (3, 6),
        scoped_attributes: true,
    })
    .schemas
}

fn selection() -> Selection {
    Selection::OneToOne {
        min: Confidence::new(FLOOR),
    }
}

/// Each executed pair's selections as sorted (source id, target id), keyed
/// by its (left, right) request. A pair the plan pruned has no entry and
/// counts as selecting nothing, so answers of different plan policies
/// compare pair by pair.
type Selections = BTreeMap<(usize, usize), Vec<(u32, u32)>>;

fn selections(result: &BatchSelectResult) -> Selections {
    result
        .pairs
        .iter()
        .map(|p| {
            let mut ids: Vec<(u32, u32)> = p
                .selected
                .all()
                .iter()
                .map(|c| (c.source.0, c.target.0))
                .collect();
            ids.sort_unstable();
            ((p.left, p.right), ids)
        })
        .collect()
}

/// Pairs one consolidation asks for: every unordered pair of schemata,
/// whether or not the plan policy executes it.
fn requested(schemas: &[&Schema]) -> usize {
    schemas.len() * (schemas.len() - 1) / 2
}

struct Setup {
    schemas: Vec<Schema>,
    cache: Arc<FeatureCache>,
}

fn setup(seed: u64) -> Setup {
    let schemas = corpus(rng::derive(seed, 0));
    let cache = Arc::new(FeatureCache::new(Normalizer::new()));
    for s in &schemas {
        cache.prepare(s);
    }
    Setup { schemas, cache }
}

fn engine(cache: &Arc<FeatureCache>) -> MatchEngine {
    MatchEngine::new()
        .with_feature_cache(Arc::clone(cache))
        .with_score_floor(Some(FLOOR))
}

/// One consolidation: plan every pair, execute and select.
fn operation(
    engine: &MatchEngine,
    schemas: &[&Schema],
    tracer: Option<&mut Tracer>,
    op: u64,
) -> (BatchSelectResult, usize, f64) {
    let mut t = tracer;
    let root = report::begin(&mut t, "nway", op, None);
    let span = report::begin(&mut t, "plan", op, root);
    let batch = engine.batch().plan_all_pairs(schemas);
    report::end(&mut t, span);
    let planned = batch.requests().len();
    let plan_ms = ms(batch.plan_time());
    let span = report::begin(&mut t, "execute", op, root);
    let result = batch.run_select_only(&selection());
    report::end(&mut t, span);
    report::end(&mut t, root);
    (result, planned, plan_ms)
}

pub fn run(args: &Args, report: &mut Report) {
    let (set, setup_s) = report::timed_setup(SETUPS, || setup(args.seed));
    let schemas: Vec<&Schema> = set.schemas.iter().collect();
    let elements: usize = schemas.iter().map(|s| s.len()).sum();
    println!(
        "set-up: {} schemata ({elements} elements, {} requested pairs) generated, cache primed, \
         median {setup_s:.4} s of {SETUPS}",
        schemas.len(),
        requested(&schemas)
    );
    let engine = engine(&set.cache);

    // The timed configuration's answer, computed untimed once.
    let answer = selections(&operation(&engine, &schemas, None, 0).0);
    let mut check = |report: &mut Report, result: &BatchSelectResult| -> bool {
        report.attempted += 1;
        if selections(result) == answer {
            true
        } else {
            report.wrong_answer("consolidation selections differ from the untimed run".into());
            false
        }
    };

    if args.trace {
        traced(args, report, &engine, &schemas, &mut check);
        agreement(&set.cache, &schemas, &answer);
        return;
    }

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut op = 0u64;
    while Instant::now() < deadline {
        op += 1;
        let t0 = Instant::now();
        let (result, _, _) = operation(&engine, &schemas, None, op);
        let elapsed = ms(t0.elapsed());
        if check(report, &result) {
            latencies.push(elapsed);
        }
    }
    // Requested pairs, not executed ones: a plan that prunes pairs does the
    // same consolidation, so it must not be credited with less work. The
    // median consolidation time keeps a slow spell of the host out.
    let pairs_per_s = ratio(1e3 * requested(&schemas) as f64, median(&latencies));
    let wall = started.elapsed().as_secs_f64();
    let peak_rss_mib = report::peak_rss_mib();
    let nway_agreement = agreement(&set.cache, &schemas, &answer);

    println!(
        "end-to-end ({} operations over {wall:.2} s):",
        report.attempted
    );
    report::print_percentile("nway_p50_ms", &latencies, 0.50, "ms");
    report::print_percentile("nway_p75_ms", &latencies, 0.75, "ms");
    println!("  nway_agreement               {nway_agreement:>12.6} ratio");
    println!(
        "  fail_frac                    {:>12.6} ratio ({} of {})",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", peak_rss_mib, "MiB");
    report.put("pairs_per_s", pairs_per_s, "1/s");
    report.put("agreement", nway_agreement, "ratio");
}

/// Share of the floor-off exhaustive-plan selections that `answer`
/// reproduces, compared pair by pair. Runs after the measurement, untimed.
fn agreement(cache: &Arc<FeatureCache>, schemas: &[&Schema], answer: &Selections) -> f64 {
    let reference = selections(
        &MatchEngine::new()
            .with_feature_cache(Arc::clone(cache))
            .batch()
            .with_plan_policy(PlanPolicy::Exhaustive)
            .plan_all_pairs(schemas)
            .run_select_only(&selection()),
    );
    let none = Vec::new();
    let answered = |pair| answer.get(pair).unwrap_or(&none);
    let total: usize = reference.values().map(Vec::len).sum();
    let kept: usize = reference
        .iter()
        .map(|(pair, r)| {
            let a: HashSet<&(u32, u32)> = answered(pair).iter().collect();
            r.iter().filter(|p| a.contains(p)).count()
        })
        .sum();
    let diverging = reference
        .iter()
        .filter(|(pair, r)| answered(pair) != *r)
        .count();
    let agreement = ratio(kept as f64, total as f64);
    println!(
        "answers: nway_agreement {agreement:.6} ({kept} of {total} floor-off selections reproduced; \
         {diverging} of {} pairs diverge)",
        reference.len()
    );
    agreement
}

/// The traced run: rounds alternate an untraced and a traced consolidation.
/// Sub-stage times are the program's per-pair `StageTimings` summed over
/// all pair jobs (CPU-time-like across concurrent jobs, not wall time).
fn traced(
    args: &Args,
    report: &mut Report,
    engine: &MatchEngine,
    schemas: &[&Schema],
    check: &mut impl FnMut(&mut Report, &BatchSelectResult) -> bool,
) {
    let mut tracer = Tracer::new();
    let exec = engine.executor();
    let mut untraced = Vec::new();
    let mut traced_ms = Vec::new();
    let mut sums = StageTimings::default();
    let (mut planned, mut plan_ms, mut exec_ms, mut scored, mut considered) =
        (0usize, 0.0, 0.0, 0usize, 0usize);
    let (mut hits, mut misses, mut evictions) = (0usize, 0usize, 0usize);
    let mut exec_delta = [0u64; 4];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        for slot in if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        } {
            let op = round * 2 + slot;
            if slot == 0 {
                let t0 = Instant::now();
                let (result, _, _) = operation(engine, schemas, None, op);
                let elapsed = ms(t0.elapsed());
                if check(report, &result) {
                    untraced.push(elapsed);
                }
                continue;
            }
            let before = exec.stats();
            let root = tracer.spans.len();
            let (result, p, plan) = operation(engine, schemas, Some(&mut tracer), op);
            let after = exec.stats();
            if check(report, &result) {
                traced_ms.push(tracer.duration_ms(root));
                sums.accumulate(&result.timings);
                planned += p;
                plan_ms += plan;
                exec_ms += ms(result.elapsed);
                scored += result.pairs.iter().map(|x| x.pairs_scored).sum::<usize>();
                considered += result
                    .pairs
                    .iter()
                    .map(|x| x.pairs_considered)
                    .sum::<usize>();
                hits += result.cache.hits;
                misses += result.cache.misses;
                evictions += result.cache.evictions;
                exec_delta[0] += after.enqueued - before.enqueued;
                exec_delta[1] += after.stolen - before.stolen;
                exec_delta[2] += after.inline_runs - before.inline_runs;
                exec_delta[3] += after.parked - before.parked;
            }
        }
        round += 1;
    }
    let n = traced_ms.len().max(1) as f64;
    let per_op = |d: std::time::Duration| ms(d) / n;
    report.put("prepare.ms", per_op(sums.prepare), "ms");
    report.put(
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.put("cache.evictions", evictions as f64 / n, "count");
    report.put(
        "cache.resident_mib",
        engine.feature_cache().stats().resident_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    report.put("block.ms", per_op(sums.block), "ms");
    report.put("block.candidates", scored as f64 / n, "count");
    report.put(
        "block.candidate_frac",
        ratio(scored as f64, considered as f64),
        "ratio",
    );
    report.put("score.tier1_ms", per_op(sums.score_tier1), "ms");
    report.put("score.tier2_ms", per_op(sums.score_tier2), "ms");
    report.put(
        "score.skip_rate",
        ratio(
            sums.pairs_pruned as f64,
            (sums.pairs_pruned + sums.pairs_full) as f64,
        ),
        "ratio",
    );
    report.put("merge.ms", per_op(sums.merge), "ms");
    report.put("propagate.ms", per_op(sums.propagate), "ms");
    report.put("select.ms", per_op(sums.select), "ms");
    for (name, delta) in [
        "exec.enqueued",
        "exec.stolen",
        "exec.inline_runs",
        "exec.parked",
    ]
    .into_iter()
    .zip(exec_delta)
    {
        report.put(name, delta as f64 / n, "count");
    }
    report.put("plan.ms", plan_ms / n, "ms");
    report.put("plan.pairs_planned", planned as f64 / n, "count");
    report.put("batch.exec_ms", exec_ms / n, "ms");
    report.put("batch.pair_us", ratio(exec_ms * 1e3, planned as f64), "us");
    report.put("batch.pairs_scored", scored as f64 / n, "count");
    report.put(
        "trace.overhead_frac",
        ratio(median(&traced_ms), median(&untraced)) - 1.0,
        "ratio",
    );
    println!(
        "traced run: {round} rounds; {} untraced, {} traced; per-stage times are program-reported \
         sums over pair jobs, per consolidation",
        untraced.len(),
        traced_ms.len()
    );
    let path = std::path::Path::new("perfbench/out/spans_nway_consolidation.jsonl");
    match tracer.write(path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
}
