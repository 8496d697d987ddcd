//! `paper_pair`: the paper's §3 case study as one user operation, from
//! schema text to exported workbook.
//!
//! Inputs are `GeneratorConfig::paper_case_study(seed, 1.0)` pairs
//! (1378×784), rendered to mini-DDL (relational source) and mini-XSD (XML
//! target). One operation parses both texts, prepares them through a fresh
//! feature cache (cold Prepare), runs the blocked match at score floor
//! 0.30, selects one-to-one at 0.30, summarizes both schemata and builds
//! the two-sheet workbook with both CSVs. Parse, cold Prepare, Block and
//! tier 1 do nearly all the work; cache reuse, admission, search and
//! planning do none.

use crate::report::{self, median, ms, ratio, Report, Tracer};
use crate::rng;
use crate::Args;
use harmony_core::correspondence::MatchAnnotation;
use harmony_core::pipeline::StageTimings;
use harmony_core::prelude::*;
use sm_export::{RowKind, Workbook};
use sm_schema::ddl::{parse_ddl, to_ddl};
use sm_schema::xsd::{parse_xsd, to_xsd};
use sm_schema::{Schema, SchemaError, SchemaId};
use sm_synth::{GeneratorConfig, SchemaPair};
use sm_text::normalize::Normalizer;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Score floor and one-to-one selection threshold of the timed operation.
const FLOOR: f64 = 0.30;
/// Distinct schema pairs per run, derived from the seed. Operations cycle
/// through them, so each run's figures average over several pairs.
const INPUTS: usize = 8;
/// Concepts the summaries keep: the paper's 140 source and 51 target
/// concept elements.
const SOURCE_CONCEPTS: usize = 140;
const TARGET_CONCEPTS: usize = 51;
/// Set-ups per run; `setup_s` is their median. Set-up generates the pairs
/// and renders them to text, so `setup_s` tracks `sm_synth` and the
/// `to_ddl` / `to_xsd` renderers, none of which the timed operation runs.
/// One set-up takes about 50 ms; back to back, a run's set-ups all land in
/// the same second of host noise, so all but the first are spread evenly
/// between the timed operations.
const SETUPS: usize = 21;

struct Input {
    seed: u64,
    ddl: String,
    xsd: String,
    generated_elements: usize,
    /// Planted correspondences as (source path, target path).
    truth: HashSet<(String, String)>,
}

fn make_inputs(seed: u64) -> Vec<Input> {
    (0..INPUTS as u64)
        .map(|k| {
            let seed = rng::derive(seed, k);
            let pair = SchemaPair::generate(&GeneratorConfig::paper_case_study(seed, 1.0));
            let truth = pair
                .truth
                .pairs()
                .iter()
                .map(|&(s, t)| {
                    (
                        pair.source.path(s).to_string(),
                        pair.target.path(t).to_string(),
                    )
                })
                .collect();
            Input {
                seed,
                ddl: to_ddl(&pair.source),
                xsd: to_xsd(&pair.target),
                generated_elements: pair.source.len() + pair.target.len(),
                truth,
            }
        })
        .collect()
}

/// Selected correspondences as sorted (source id, target id).
type Selected = Vec<(u32, u32)>;

fn selected_ids(set: &MatchSet) -> Selected {
    let mut ids: Selected = set.all().iter().map(|c| (c.source.0, c.target.0)).collect();
    ids.sort_unstable();
    ids
}

/// What one operation returns, for answer checks and layer counters.
struct Outcome {
    selected: Selected,
    matched_rows: usize,
    pairs_scored: usize,
    pairs_considered: usize,
    timings: StageTimings,
    cache: harmony_core::prepare::CacheStats,
}

fn engine(lanes: usize) -> MatchEngine {
    MatchEngine::new()
        .with_feature_cache(Arc::new(FeatureCache::new(Normalizer::new())))
        .with_score_floor(Some(FLOOR))
        .with_threads(lanes)
}

/// A source concept matches the target concept that receives the
/// plurality (at least two) of its members' validated matches.
fn concept_matches(source: &Summary, target: &Summary, matches: &MatchSet) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (si, concept) in source.concepts.iter().enumerate() {
        let mut votes: BTreeMap<usize, usize> = BTreeMap::new();
        for c in matches.validated() {
            if concept.members.contains(&c.source) {
                if let Some(ti) = target.concept_index_of(c.target) {
                    *votes.entry(ti).or_insert(0) += 1;
                }
            }
        }
        let best = votes
            .iter()
            .max_by_key(|&(&ti, &n)| (n, std::cmp::Reverse(ti)));
        if let Some((&ti, &n)) = best {
            if n >= 2 {
                out.push((si, ti));
            }
        }
    }
    out
}

/// One pair match from text to workbook. With a tracer, each public layer
/// call is wrapped in a span; without one, the spans cost nothing.
fn operation(
    input: &Input,
    lanes: usize,
    mut tracer: Option<&mut Tracer>,
    op: u64,
) -> Result<Outcome, SchemaError> {
    let t = &mut tracer;
    let root = report::begin(t, "pair", op, None);
    let span = report::begin(t, "parse.ddl", op, root);
    let source = parse_ddl(SchemaId(1), "source", &input.ddl);
    report::end(t, span);
    let span = report::begin(t, "parse.xsd", op, root);
    let target = source.and_then(|s| Ok((s, parse_xsd(SchemaId(2), "target", &input.xsd)?)));
    report::end(t, span);
    let (source, target) = match target {
        Ok(parsed) => parsed,
        Err(e) => {
            report::end(t, root);
            return Err(e);
        }
    };

    // What `run_blocked` does, spelled out so the traced run can hang the
    // program-reported sub-stages under the match span.
    let engine = engine(lanes);
    let span = report::begin(t, "prepare", op, root);
    let started = Instant::now();
    let prepared_source = engine.prepare(&source);
    let prepared_target = engine.prepare(&target);
    let prepare = started.elapsed();
    report::end(t, span);
    let span = report::begin(t, "match", op, root);
    let mut run = engine.pipeline().run_blocked_prepared(
        &source,
        &target,
        &prepared_source,
        &prepared_target,
        None,
        &BlockingPolicy::default(),
    );
    report::end(t, span);
    if let (Some(tr), Some(span)) = (t.as_mut(), span) {
        let mut at = tr.spans[span].start_ns;
        let tm = &run.timings;
        for (name, len) in [
            ("prepare.context", tm.prepare),
            ("block", tm.block),
            ("score.tier1", tm.score_tier1),
            ("score.tier2", tm.score_tier2),
            ("merge", tm.merge),
            ("propagate", tm.propagate),
        ] {
            at = tr.reported(name, op, span, at, len);
        }
    }
    run.timings.prepare += prepare;
    let cache = engine.feature_cache().stats();

    let span = report::begin(t, "select", op, root);
    let selected = Selection::OneToOne {
        min: Confidence::new(FLOOR),
    }
    .apply(&run.matrix);
    report::end(t, span);

    let span = report::begin(t, "summarize", op, root);
    let source_summary = auto_summarize(&source, SOURCE_CONCEPTS);
    let target_summary = auto_summarize(&target, TARGET_CONCEPTS);
    report::end(t, span);

    let span = report::begin(t, "export", op, root);
    let validated = MatchSet::validated_from(&selected, "perfbench", MatchAnnotation::Equivalent);
    let concepts = concept_matches(&source_summary, &target_summary, &validated);
    let workbook = Workbook::build(
        &source,
        &target,
        &source_summary,
        &target_summary,
        &concepts,
        &validated,
    );
    std::hint::black_box((workbook.concept_csv(), workbook.element_csv()));
    report::end(t, span);
    report::end(t, root);

    Ok(Outcome {
        selected: selected_ids(&selected),
        matched_rows: workbook
            .element_sheet
            .iter()
            .filter(|r| r.kind == RowKind::Matched)
            .count(),
        pairs_scored: run.pairs_scored,
        pairs_considered: run.pairs_considered,
        timings: run.timings,
        cache,
    })
}

/// Per-input answer of the timed configuration, computed untimed before
/// measuring; `None` when the input's text does not parse.
type Answer = Option<(Selected, Schema, Schema)>;

/// Quality of the timed configuration over the parsed inputs, plus the
/// parse defects the inputs expose.
#[derive(Default)]
struct Quality {
    parse_errors: usize,
    elements_lost: usize,
    truth: usize,
    truth_found: usize,
    reference: usize,
    reference_kept: usize,
}

/// Runs each input once untimed at `lanes` and compares its selections with
/// the planted truth, mapped by element path because parsed element ids
/// differ from generated ones.
fn answers(inputs: &[Input], lanes: usize, q: &mut Quality) -> Vec<Answer> {
    inputs
        .iter()
        .map(|input| {
            let parsed = parse_ddl(SchemaId(1), "source", &input.ddl)
                .and_then(|s| Ok((s, parse_xsd(SchemaId(2), "target", &input.xsd)?)));
            let (source, target) = match parsed {
                Ok(parsed) => parsed,
                Err(e) => {
                    println!("  input seed {}: schema text rejected: {e}", input.seed);
                    q.parse_errors += 1;
                    return None;
                }
            };
            let lost = input
                .generated_elements
                .saturating_sub(source.len() + target.len());
            q.elements_lost += lost;
            let selected = operation(input, lanes, None, 0).expect("parsed above").selected;
            let paths: HashSet<(String, String)> = selected
                .iter()
                .map(|&(s, t)| {
                    (
                        source.path(sm_schema::ElementId(s)).to_string(),
                        target.path(sm_schema::ElementId(t)).to_string(),
                    )
                })
                .collect();
            let found = input.truth.iter().filter(|p| paths.contains(*p)).count();
            q.truth += input.truth.len();
            q.truth_found += found;
            println!(
                "  input seed {}: {}x{} parsed ({lost} elements lost), planted truth found {found}/{}",
                input.seed,
                source.len(),
                target.len(),
                input.truth.len(),
            );
            Some((selected, source, target))
        })
        .collect()
}

/// Compares each answer with the floor-off `MatchEngine::run` selections.
/// Runs after the measurement, so the dense reference runs touch neither
/// the timings nor the peak resident set.
fn agreement(answers: &[Answer], lanes: usize, q: &mut Quality) {
    for (selected, source, target) in answers.iter().flatten() {
        let engine = MatchEngine::new()
            .with_feature_cache(Arc::new(FeatureCache::new(Normalizer::new())))
            .with_threads(lanes);
        let reference = selected_ids(
            &Selection::OneToOne {
                min: Confidence::new(FLOOR),
            }
            .apply(&engine.run(source, target).matrix),
        );
        let timed: HashSet<&(u32, u32)> = selected.iter().collect();
        q.reference += reference.len();
        q.reference_kept += reference.iter().filter(|p| timed.contains(p)).count();
    }
    println!(
        "answers: parse.errors {} of {INPUTS} inputs, parse.elements_lost {}, pair_recall {:.6} ({}/{}), \
         pair_agreement {:.6} ({}/{} floor-off selections reproduced)",
        q.parse_errors,
        q.elements_lost,
        ratio(q.truth_found as f64, q.truth as f64),
        q.truth_found,
        q.truth,
        ratio(q.reference_kept as f64, q.reference as f64),
        q.reference_kept,
        q.reference
    );
}

/// Checks one timed outcome against the input's answer. Only inputs whose
/// text parsed untimed are timed, so every answer here is `Some`.
fn check(
    report: &mut Report,
    input: &Input,
    answer: &Answer,
    outcome: &Result<Outcome, SchemaError>,
) -> bool {
    let expected = &answer.as_ref().expect("only parsed inputs are timed").0;
    match outcome {
        Ok(o) if o.selected == *expected && o.matched_rows == expected.len() => true,
        Ok(o) => {
            report.wrong_answer(format!(
                "input seed {}: {} selections, {} matched rows, differing from the untimed run",
                input.seed,
                o.selected.len(),
                o.matched_rows
            ));
            false
        }
        Err(e) => {
            report.wrong_answer(format!(
                "input seed {}: parsed untimed but now {e}",
                input.seed
            ));
            false
        }
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let lanes = detect_threads();
    let t0 = Instant::now();
    let inputs = make_inputs(args.seed);
    let mut setup_secs = vec![t0.elapsed().as_secs_f64()];
    println!(
        "set-up: {INPUTS} pairs generated and rendered to text, {:.4} s",
        setup_secs[0]
    );
    let mut q = Quality::default();
    let answers = answers(&inputs, lanes, &mut q);
    // An input whose text the parsers reject (a program defect, see
    // README.md) is reported once as `parse.errors` and left out of the
    // timed operations: it would fail the same way every time, and the
    // number of such failures would follow the run's operation count.
    let parsed: Vec<usize> = (0..INPUTS).filter(|&k| answers[k].is_some()).collect();
    if parsed.is_empty() {
        eprintln!("perfbench: no input of this seed parses; nothing to time");
        std::process::exit(1);
    }
    println!(
        "timed inputs: {} of {INPUTS}; {} rejected by the parsers (parse.errors), not timed",
        parsed.len(),
        q.parse_errors
    );
    if args.trace {
        traced(args, report, &inputs, &answers, &parsed, &mut q, lanes);
        return;
    }

    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(args.seconds);
    let setup_every = std::time::Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut latencies = Vec::new();
    // Pair matches per second of operation time, per full cycle through
    // the parsed inputs; `pairs_per_s` is their median, which keeps a slow
    // spell of the host out. A failed operation's time counts, the
    // operation not.
    let mut cycle_rates = Vec::new();
    let (mut cycle_ok, mut cycle_s) = (0usize, 0.0);
    let mut busy = 0.0;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let k = parsed[i % parsed.len()];
        let t0 = Instant::now();
        let outcome = operation(&inputs[k], lanes, None, i as u64);
        let elapsed = t0.elapsed();
        busy += elapsed.as_secs_f64();
        cycle_s += elapsed.as_secs_f64();
        report.attempted += 1;
        if check(report, &inputs[k], &answers[k], &outcome) {
            latencies.push(ms(elapsed));
            cycle_ok += 1;
        }
        if i % parsed.len() == parsed.len() - 1 {
            cycle_rates.push(cycle_ok as f64 / cycle_s);
            (cycle_ok, cycle_s) = (0, 0.0);
        }
        i += 1;
        if setup_secs.len() < SETUPS && started.elapsed() >= setup_every * setup_secs.len() as u32 {
            let t0 = Instant::now();
            drop(make_inputs(args.seed));
            setup_secs.push(t0.elapsed().as_secs_f64());
        }
    }
    while setup_secs.len() < SETUPS {
        let t0 = Instant::now();
        drop(make_inputs(args.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_secs);
    println!("set-up: median {setup_s:.4} s of {SETUPS}, spread over the run");
    let peak_rss_mib = report::peak_rss_mib();
    agreement(&answers, lanes, &mut q);
    let pair_recall = ratio(q.truth_found as f64, q.truth as f64);
    let pair_agreement = ratio(q.reference_kept as f64, q.reference as f64);

    println!(
        "end-to-end ({} operations, {busy:.2} s of operation time, {} full cycles through the parsed inputs):",
        report.attempted,
        cycle_rates.len()
    );
    report::print_percentile("pair_p50_ms", &latencies, 0.50, "ms");
    report::print_percentile("pair_p90_ms", &latencies, 0.90, "ms");
    println!("  pair_recall                  {pair_recall:>12.6} ratio");
    println!("  pair_agreement               {pair_agreement:>12.6} ratio");
    println!(
        "  fail_frac                    {:>12.6} ratio ({} of {})",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", peak_rss_mib, "MiB");
    if cycle_rates.is_empty() {
        cycle_rates.push(latencies.len() as f64 / busy);
    }
    report.put("pairs_per_s", median(&cycle_rates), "1/s");
    report.put("agreement", pair_agreement, "ratio");
}

/// Per-operation layer times of a traced operation, in ms.
#[derive(Clone, Copy, Default)]
struct Layers {
    parse_ddl: f64,
    parse_xsd: f64,
    prepare: f64,
    block: f64,
    tier1: f64,
    tier2: f64,
    merge: f64,
    propagate: f64,
    select: f64,
    summarize: f64,
    export: f64,
    op: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.parse_ddl
            + self.parse_xsd
            + self.prepare
            + self.block
            + self.tier1
            + self.tier2
            + self.merge
            + self.propagate
            + self.select
            + self.summarize
            + self.export
    }

    /// The layers of the operation whose root span is `root`.
    fn of(tr: &Tracer, root: usize) -> Layers {
        let mut l = Layers {
            op: tr.duration_ms(root),
            ..Layers::default()
        };
        for (i, s) in tr.spans.iter().enumerate().skip(root + 1) {
            let d = tr.duration_ms(i);
            match s.name {
                "parse.ddl" => l.parse_ddl += d,
                "parse.xsd" => l.parse_xsd += d,
                "prepare" | "prepare.context" => l.prepare += d,
                "block" => l.block += d,
                "score.tier1" => l.tier1 += d,
                "score.tier2" => l.tier2 += d,
                "merge" => l.merge += d,
                "propagate" => l.propagate += d,
                "select" => l.select += d,
                "summarize" => l.summarize += d,
                "export" => l.export += d,
                _ => {}
            }
        }
        l
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// The traced run: interleaved rounds of an untraced operation, a traced
/// one at full width and a traced one at one lane, on the same input.
fn traced(
    args: &Args,
    report: &mut Report,
    inputs: &[Input],
    answers: &[Answer],
    parsed: &[usize],
    q: &mut Quality,
    lanes: usize,
) {
    let mut tracer = Tracer::new();
    let exec = Executor::global();
    let mut untraced = Vec::new();
    let mut wide: Vec<Layers> = Vec::new();
    let mut narrow: Vec<Layers> = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut exec_delta = [0u64; 4];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut round = 0usize;
    while Instant::now() < deadline {
        let k = parsed[round % parsed.len()];
        let mut slots = [0, 1, 2];
        if round % 2 == 1 {
            slots.reverse();
        }
        for slot in slots {
            let op = (round * 3 + slot) as u64;
            report.attempted += 1;
            match slot {
                0 => {
                    let t0 = Instant::now();
                    let outcome = operation(&inputs[k], lanes, None, op);
                    let elapsed = ms(t0.elapsed());
                    if check(report, &inputs[k], &answers[k], &outcome) {
                        untraced.push(elapsed);
                    }
                }
                _ => {
                    let width = if slot == 1 { lanes } else { 1 };
                    let before = exec.stats();
                    let root = tracer.spans.len();
                    let outcome = operation(&inputs[k], width, Some(&mut tracer), op);
                    let after = exec.stats();
                    if check(report, &inputs[k], &answers[k], &outcome) {
                        let layers = Layers::of(&tracer, root);
                        if slot == 1 {
                            wide.push(layers);
                            outcomes.push(outcome.expect("checked"));
                            exec_delta[0] += after.enqueued - before.enqueued;
                            exec_delta[1] += after.stolen - before.stolen;
                            exec_delta[2] += after.inline_runs - before.inline_runs;
                            exec_delta[3] += after.parked - before.parked;
                        } else {
                            narrow.push(layers);
                        }
                    }
                }
            }
        }
        round += 1;
    }

    agreement(answers, lanes, q);
    let n = wide.len().max(1) as f64;
    let m = |f: fn(&Layers) -> f64| mean(wide.iter().map(f));
    let traced_ms = m(|l| l.op);
    let residual = m(|l| l.op - l.sum());
    report.put("parse.ddl_ms", m(|l| l.parse_ddl), "ms");
    report.put("parse.xsd_ms", m(|l| l.parse_xsd), "ms");
    report.put("parse.errors", q.parse_errors as f64, "count");
    report.put("parse.elements_lost", q.elements_lost as f64, "count");
    report.put("prepare.ms", m(|l| l.prepare), "ms");
    let hits: usize = outcomes.iter().map(|o| o.cache.hits).sum();
    let misses: usize = outcomes.iter().map(|o| o.cache.misses).sum();
    report.put(
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.put(
        "cache.evictions",
        outcomes.iter().map(|o| o.cache.evictions).sum::<usize>() as f64 / n,
        "count",
    );
    report.put(
        "cache.resident_mib",
        mean(outcomes.iter().map(|o| o.cache.resident_bytes as f64)) / (1024.0 * 1024.0),
        "MiB",
    );
    report.put("block.ms", m(|l| l.block), "ms");
    report.put(
        "block.candidates",
        mean(outcomes.iter().map(|o| o.pairs_scored as f64)),
        "count",
    );
    report.put(
        "block.candidate_frac",
        ratio(
            outcomes.iter().map(|o| o.pairs_scored as f64).sum(),
            outcomes.iter().map(|o| o.pairs_considered as f64).sum(),
        ),
        "ratio",
    );
    report.put("score.tier1_ms", m(|l| l.tier1), "ms");
    report.put("score.tier2_ms", m(|l| l.tier2), "ms");
    let pruned: u64 = outcomes.iter().map(|o| o.timings.pairs_pruned).sum();
    let full: u64 = outcomes.iter().map(|o| o.timings.pairs_full).sum();
    report.put(
        "score.skip_rate",
        ratio(pruned as f64, (pruned + full) as f64),
        "ratio",
    );
    report.put("merge.ms", m(|l| l.merge), "ms");
    report.put("propagate.ms", m(|l| l.propagate), "ms");
    report.put("select.ms", m(|l| l.select), "ms");
    report.put("summarize.ms", m(|l| l.summarize), "ms");
    report.put("export.ms", m(|l| l.export), "ms");
    report.put("pair.traced_ms", traced_ms, "ms");
    report.put("pair.residual_ms", residual, "ms");

    let speedup = |f: fn(&Layers) -> f64| {
        let one: Vec<f64> = narrow.iter().map(f).collect();
        let all: Vec<f64> = wide.iter().map(f).collect();
        ratio(median(&one), median(&all))
    };
    report.put("prepare.lane_speedup", speedup(|l| l.prepare), "ratio");
    report.put("block.lane_speedup", speedup(|l| l.block), "ratio");
    report.put(
        "score.lane_speedup",
        speedup(|l| l.tier1 + l.tier2),
        "ratio",
    );
    report.put("propagate.lane_speedup", speedup(|l| l.propagate), "ratio");
    report.put("pair.lane_speedup", speedup(|l| l.op), "ratio");
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
    let traced_p50 = median(&wide.iter().map(|l| l.op).collect::<Vec<_>>());
    report.put(
        "trace.overhead_frac",
        ratio(traced_p50, median(&untraced)) - 1.0,
        "ratio",
    );

    println!(
        "traced run: {} rounds; {} untraced, {} traced at {lanes} lane(s), {} traced at 1 lane",
        round,
        untraced.len(),
        wide.len(),
        narrow.len()
    );
    println!(
        "residual accounting (means over traced ops at {lanes} lane(s)): \
         sum of layers {:.4} ms + pair.residual_ms {residual:.4} ms = {:.4} ms = pair.traced_ms {traced_ms:.4} ms",
        m(Layers::sum),
        m(Layers::sum) + residual
    );
    println!("lane scaling (median ms at 1 lane -> {lanes} lane(s)):");
    for (name, f) in [
        ("prepare", (|l: &Layers| l.prepare) as fn(&Layers) -> f64),
        ("block", |l| l.block),
        ("score", |l| l.tier1 + l.tier2),
        ("propagate", |l| l.propagate),
        ("pair", |l| l.op),
    ] {
        let one: Vec<f64> = narrow.iter().map(f).collect();
        let all: Vec<f64> = wide.iter().map(f).collect();
        println!(
            "  {name:<10} {:>10.4} -> {:>10.4}  x{:.3}",
            median(&one),
            median(&all),
            speedup(f)
        );
    }
    println!(
        "program-reported sub-stages (inside MatchPipeline::run_blocked_prepared): \
         prepare.context, block, score.tier1, score.tier2, merge, propagate"
    );
    let path = std::path::Path::new("perfbench/out/spans_paper_pair.jsonl");
    match tracer.write(path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
}
