//! `served_mix`: one `AdmissionController` over a registry of 2,048
//! schemata, four times `FeatureCache::DEFAULT_CAPACITY`. The engine runs
//! at library defaults (no score floor, so tier 1 is bypassed).
//!
//! Two generator threads drive it:
//! * an **open loop** of seeded Poisson arrivals at fixed offered rates:
//!   point matches between registry members with hot-set popularity (so
//!   the cache hit rate sits strictly between 0 and 1), query-by-schema
//!   searches, and registrations of held-out schemata, each refreshing
//!   `token_index()` and publishing a new `SchemaSearch`. Every request is
//!   timed from its due time, so a stall counts against the requests it
//!   delays;
//! * a **closed loop** of `Batch`-class jobs of 12 pairs each, as in
//!   `serving_baseline`: back to back, paced 10 ms by the controller.
//!
//! This is the only workload that exercises admission, cache hits and
//! evictions, the sharded search index and index writes; a point-latency
//! gain that takes CPU from the batch jobs shows as lower `pairs_per_s`.
//!
//! The open-loop traffic is assumed, not taken from a recorded trace: no
//! trace of registry use exists. `serving_baseline` runs closed-loop
//! clients, which offer no fixed rate and cannot time a request from its
//! due time, so its mix gives the batch client but not the rates. Each
//! assumed value and what it was chosen for is documented where it is
//! defined below.

use crate::report::{self, median, ms, percentile, ratio, Report};
use crate::rng::{self, Popularity, SplitMix64};
use crate::Args;
use harmony_core::prelude::*;
use harmony_core::serve::{AdmissionController, CancelReason, JobClass, ServeConfig, ServeError};
use sm_enterprise::{MetadataRepository, SchemaSearch, SearchHit};
use sm_schema::Schema;
use sm_synth::{RepositoryConfig, SyntheticRepository};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// 2,048 members, four times the cache's default capacity, so point
/// matches evict.
const DOMAINS: usize = 32;
const MEMBERS_PER_DOMAIN: usize = 64;
/// Offered load of the nominal phase, requests per second. The 2 : 1
/// point-to-search mix is that of `serving_baseline`'s 4-client loaded
/// phase (2 point clients, 1 search client); the absolute rate is assumed.
/// At about 2 ms of service per point match it keeps the nominal phase far
/// below the ladder's knee, so nominal latency is service rather than
/// queueing; the ladder measures the knee.
const POINT_RPS: f64 = 60.0;
const SEARCH_RPS: f64 = 30.0;
/// Registrations per second, in every phase (assumed): about 50 writes a
/// run, each publishing a new search snapshot, beside 45 reads per write.
const WRITE_RPS: f64 = 2.0;
/// Share of the run spent at the nominal rate; the rest climbs the ladder.
const NOMINAL_SHARE: f64 = 0.8;
/// Offered point + search rates of the ladder, requests per second, at the
/// nominal point:search mix.
const LADDER_RPS: [f64; 5] = [75.0, 150.0, 300.0, 600.0, 1200.0];
/// A rung holds when its point p99 and its last-quarter generator lateness
/// stay within this limit and no request fails.
const LIMIT_MS: f64 = 50.0;
/// The batch client of `serving_baseline`: 12-pair jobs submitted back to
/// back, duty-cycled by the controller's own `Batch` pacing of 10 ms
/// rather than by client think time, so most of each cycle is the job.
const BATCH_PAIRS: usize = 12;
const BATCH_PACING: Duration = Duration::from_millis(10);
const SEARCH_LIMIT: usize = 10;
/// Popularity (assumed): this share of draws picks uniformly among a hot
/// set of registry members that fits the feature cache, the rest among the
/// cold remainder. The cache hit rate then sits near 0.87, strictly
/// between 0 and 1: the median request hits the cache and the 90th
/// percentile falls among requests that miss once. Zipf popularity was
/// tried and left every served figure swinging with the seed.
const HOT_MEMBERS: usize = 384;
const HOT_SHARE: f64 = 0.9;
/// Share of point and search results re-run untimed against the same
/// registry snapshot.
const CHECK_SHARE: f64 = 0.125;
/// Set-ups per run; `setup_s` is their median. Only the first is used. The
/// others run after the peak-RSS reading, so their garbage cannot raise it.
const SETUPS: usize = 5;
const WARMUP_SECONDS: f64 = 2.0;
const FLOOR: f64 = 0.30;

fn selection() -> Selection {
    Selection::OneToOne {
        min: Confidence::new(FLOOR),
    }
}

struct Setup {
    members: Vec<Schema>,
    held_out: Vec<Schema>,
    repo: MetadataRepository,
    search: Arc<SchemaSearch>,
}

/// Builds the registry from an empty global cache, so every set-up of a
/// run does the same cold work.
fn setup(seed: u64, writes: usize) -> Setup {
    FeatureCache::global().clear();
    let held_per_domain = writes.div_ceil(DOMAINS) + 1;
    let per_domain = MEMBERS_PER_DOMAIN + held_per_domain;
    let corpus = SyntheticRepository::generate(&RepositoryConfig {
        seed: rng::derive(seed, 0),
        domains: DOMAINS,
        schemas_per_domain: per_domain,
        // About 115 elements a member (assumed, above the generator's
        // default), so a point match's service time of about 2 ms stands
        // clear of the generator's wake-up jitter.
        concepts_per_domain: 30,
        concept_coverage: 0.6,
        ..Default::default()
    });
    let mut members = Vec::with_capacity(DOMAINS * MEMBERS_PER_DOMAIN);
    let mut held_out = Vec::new();
    for (i, s) in corpus.schemas.into_iter().enumerate() {
        if i % per_domain < MEMBERS_PER_DOMAIN {
            members.push(s);
        } else {
            held_out.push(s);
        }
    }
    let mut repo = MetadataRepository::new();
    for s in &members {
        repo.register_schema(s.clone());
    }
    let search = Arc::new(SchemaSearch::build(&repo));
    Setup {
        members,
        held_out,
        repo,
        search,
    }
}

type Selected = Vec<(u32, u32)>;

fn point_match(
    engine: &MatchEngine,
    a: &Schema,
    b: &Schema,
) -> (Selected, StageTimings, usize, usize, f64) {
    let run = engine.run_blocked(a, b, &BlockingPolicy::default());
    let t0 = Instant::now();
    let set = selection().apply(&run.matrix);
    let select_ms = ms(t0.elapsed());
    let mut ids: Selected = set.all().iter().map(|c| (c.source.0, c.target.0)).collect();
    ids.sort_unstable();
    (
        ids,
        run.timings,
        run.pairs_scored,
        run.pairs_considered,
        select_ms,
    )
}

/// A sampled search: the snapshot it ran on, the query member and its hits.
type SearchCheck = (Arc<SchemaSearch>, usize, Vec<(u32, u64)>);

fn hit_key(hits: &[SearchHit]) -> Vec<(u32, u64)> {
    hits.iter()
        .map(|h| (h.schema_id.0, h.score.to_bits()))
        .collect()
}

/// Offered rates of one phase.
#[derive(Clone, Copy)]
struct Rates {
    point: f64,
    search: f64,
    write: f64,
}

/// One traced point request, in ms from its due time.
struct PointTrace {
    latency: f64,
    late: f64,
    wait: f64,
    service: f64,
    timings: StageTimings,
    scored: usize,
    considered: usize,
    select: f64,
}

#[derive(Default)]
struct PhaseStats {
    sent: u64,
    ok: u64,
    failed: u64,
    rejected: u64,
    shed: u64,
    timeouts: u64,
    point_ms: Vec<f64>,
    search_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// (due offset in s, lateness in ms) of every request.
    late_at: Vec<(f64, f64)>,
    untraced_point_ms: Vec<f64>,
    points: Vec<PointTrace>,
    search_service_ms: Vec<f64>,
    write_ms: Vec<f64>,
    point_checks: Vec<(usize, usize, Selected)>,
    search_checks: Vec<SearchCheck>,
}

impl PhaseStats {
    fn refused(&mut self, e: ServeError) {
        self.failed += 1;
        match e {
            ServeError::Overloaded { .. } => self.rejected += 1,
            ServeError::Cancelled { reason, .. } => self.stopped(reason),
        }
    }

    fn stopped(&mut self, reason: CancelReason) {
        match reason {
            CancelReason::Shed => self.shed += 1,
            _ => self.timeouts += 1,
        }
    }
}

/// The open-loop generator state shared across phases.
struct Generator<'a> {
    ctl: &'a AdmissionController,
    members: &'a [Schema],
    held_out: std::slice::Iter<'a, Schema>,
    repo: MetadataRepository,
    search: Arc<SchemaSearch>,
    popularity: Popularity,
    rng: SplitMix64,
}

impl Generator<'_> {
    /// Offers `rates` for `seconds`; with `trace`, every other point request
    /// is decomposed into lateness, admission wait and service.
    fn phase(&mut self, rates: Rates, seconds: f64, trace: bool) -> PhaseStats {
        let mut st = PhaseStats::default();
        let total = rates.point + rates.search + rates.write;
        let start = Instant::now();
        let mut due = 0.0;
        loop {
            due += self.rng.exp(1.0 / total);
            if due >= seconds {
                break;
            }
            let x = self.rng.unit() * total;
            let check = self.rng.unit() < CHECK_SHARE;
            let due_at = start + Duration::from_secs_f64(due);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let began = Instant::now();
            let late = ms(began.saturating_duration_since(due_at));
            st.late_ms.push(late);
            st.late_at.push((due, late));
            st.sent += 1;
            if x < rates.point {
                let (a, b) = self.popularity.draw_pair(&mut self.rng);
                let traced = trace && st.sent % 2 == 0;
                let members = self.members;
                let outcome = self.ctl.submit(JobClass::PointMatch, 5, |grant| {
                    let entered = traced.then(Instant::now);
                    let engine = grant.bind(MatchEngine::new());
                    let out = point_match(&engine, &members[a], &members[b]);
                    (entered, traced.then(Instant::now), out)
                });
                let done = Instant::now();
                match outcome {
                    Ok((entered, left, (ids, timings, scored, considered, select))) => {
                        st.ok += 1;
                        let latency = ms(done.duration_since(due_at));
                        st.point_ms.push(latency);
                        if let (Some(entered), Some(left)) = (entered, left) {
                            st.points.push(PointTrace {
                                latency,
                                late,
                                wait: ms(entered.duration_since(began)),
                                service: ms(left.duration_since(entered)),
                                timings,
                                scored,
                                considered,
                                select,
                            });
                        } else {
                            st.untraced_point_ms.push(latency);
                        }
                        if check {
                            st.point_checks.push((a, b, ids));
                        }
                    }
                    Err(e) => st.refused(e),
                }
            } else if x < rates.point + rates.search {
                let q = self.popularity.draw(&mut self.rng);
                let snapshot = Arc::clone(&self.search);
                let query = &self.members[q];
                let outcome = self.ctl.submit(JobClass::Search, 5, |grant| {
                    let entered = trace.then(Instant::now);
                    let hits = snapshot.query_cancellable(query, SEARCH_LIMIT, Some(grant.token()));
                    (entered, hits)
                });
                let done = Instant::now();
                match outcome {
                    Ok((entered, Ok(hits))) => {
                        st.ok += 1;
                        st.search_ms.push(ms(done.duration_since(due_at)));
                        if let Some(entered) = entered {
                            st.search_service_ms.push(ms(done.duration_since(entered)));
                        }
                        if check {
                            st.search_checks.push((snapshot, q, hit_key(&hits)));
                        }
                    }
                    Ok((_, Err(reason))) => {
                        st.failed += 1;
                        st.stopped(reason);
                    }
                    Err(e) => st.refused(e),
                }
            } else if let Some(schema) = self.held_out.next() {
                let t0 = Instant::now();
                self.repo.register_schema(schema.clone());
                self.repo.token_index();
                self.search = Arc::new(SchemaSearch::build(&self.repo));
                st.write_ms.push(ms(t0.elapsed()));
                st.ok += 1;
            } else {
                // The held-out pool is sized for the run; running dry is a
                // benchmark sizing fault, not a program failure.
                st.sent -= 1;
                st.late_ms.pop();
                st.late_at.pop();
            }
        }
        st
    }
}

/// One completed batch job.
struct BatchJob {
    /// Completion, in s from the start of the load.
    at: f64,
    pairs: usize,
    /// Submit to return, pacing wait included.
    latency_ms: f64,
    /// Inside the job closure: planning, execution and selection.
    service_ms: f64,
}

/// What the closed-loop batch thread observed.
#[derive(Default)]
struct BatchStats {
    done: Vec<BatchJob>,
    plan_ms: Vec<f64>,
    planned: usize,
    exec_ms: f64,
    scored: usize,
    degraded: u64,
    failed: u64,
}

fn batch_loop(
    ctl: &AdmissionController,
    members: &[Schema],
    popularity: &Popularity,
    seed: u64,
    origin: Instant,
    stop: &AtomicBool,
) -> BatchStats {
    let mut rng = SplitMix64::new(seed);
    let mut st = BatchStats::default();
    while !stop.load(Ordering::Acquire) {
        let mut slots: Vec<usize> = Vec::new();
        let mut requests = Vec::with_capacity(BATCH_PAIRS);
        for _ in 0..BATCH_PAIRS {
            let (a, b) = popularity.draw_pair(&mut rng);
            let mut slot = |x: usize| match slots.iter().position(|&s| s == x) {
                Some(at) => at,
                None => {
                    slots.push(x);
                    slots.len() - 1
                }
            };
            requests.push((slot(a), slot(b)));
        }
        let refs: Vec<&Schema> = slots.iter().map(|&i| &members[i]).collect();
        let submitted = Instant::now();
        let outcome = ctl.submit(JobClass::Batch, 1, |grant| {
            let entered = Instant::now();
            let engine = grant.bind(MatchEngine::new());
            let batch = engine.batch().plan(&refs, requests.iter().copied());
            let result = batch.run_select_only(&selection());
            (
                ms(entered.elapsed()),
                grant.degraded(),
                ms(batch.plan_time()),
                ms(result.elapsed),
                result.pairs.len(),
                result.pairs.iter().map(|p| p.pairs_scored).sum::<usize>(),
            )
        });
        match outcome {
            Ok((service_ms, degraded, plan, exec, pairs, scored)) => {
                st.done.push(BatchJob {
                    at: origin.elapsed().as_secs_f64(),
                    pairs,
                    latency_ms: ms(submitted.elapsed()),
                    service_ms,
                });
                st.plan_ms.push(plan);
                st.planned += pairs;
                st.exec_ms += exec;
                st.scored += scored;
                st.degraded += u64::from(degraded);
            }
            Err(_) => st.failed += 1,
        }
    }
    st
}

/// Re-runs the sampled results untimed; returns (checked, mismatched).
fn check_answers(
    report: &mut Report,
    members: &[Schema],
    phases: &[&PhaseStats],
) -> (usize, usize) {
    let engine = MatchEngine::new();
    let (mut checked, mut wrong) = (0, 0);
    for st in phases {
        for (a, b, ids) in &st.point_checks {
            checked += 1;
            if point_match(&engine, &members[*a], &members[*b]).0 != *ids {
                wrong += 1;
                report.wrong_answer(format!(
                    "point match {a}-{b} differs from its untimed re-run"
                ));
            }
        }
        for (snapshot, q, key) in &st.search_checks {
            checked += 1;
            if hit_key(&snapshot.query(&members[*q], SEARCH_LIMIT)) != *key {
                wrong += 1;
                report.wrong_answer(format!("search {q} differs from its untimed re-run"));
            }
        }
    }
    (checked, wrong)
}

fn print_phase(label: &str, st: &PhaseStats) {
    println!(
        "  {label}: sent {} ok {} failed {} (rejected {} shed {} timeouts {}), \
         point p99 {:.3} ms (n = {}), gen lateness p50 {:.3} / p99 {:.3} ms",
        st.sent,
        st.ok,
        st.failed,
        st.rejected,
        st.shed,
        st.timeouts,
        percentile(&st.point_ms, 0.99),
        st.point_ms.len(),
        median(&st.late_ms),
        percentile(&st.late_ms, 0.99),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let lanes = detect_threads();
    let writes = (WRITE_RPS * args.seconds * 1.5).ceil() as usize + 8;
    let t0 = Instant::now();
    let set = setup(args.seed, writes);
    let mut setup_secs = vec![t0.elapsed().as_secs_f64()];
    println!(
        "set-up: {} registry members, {} held out for registration, {:.4} s",
        set.members.len(),
        set.held_out.len(),
        setup_secs[0]
    );
    let mut config = ServeConfig::for_pool(lanes);
    config.policy_mut(JobClass::Batch).pacing = Some(BATCH_PACING);
    let ctl = AdmissionController::new(
        Arc::clone(Executor::global()),
        Arc::clone(FeatureCache::global()),
        config,
    );
    // The open loop and the batch loop draw from one popularity order.
    let popularity = || {
        Popularity::new(
            set.members.len(),
            HOT_MEMBERS,
            HOT_SHARE,
            &mut SplitMix64::new(rng::derive(args.seed, 1)),
        )
    };
    let batch_popularity = popularity();
    let mut gen = Generator {
        ctl: &ctl,
        members: &set.members,
        held_out: set.held_out.iter(),
        repo: set.repo,
        search: set.search,
        popularity: popularity(),
        rng: SplitMix64::new(rng::derive(args.seed, 3)),
    };
    let nominal = Rates {
        point: POINT_RPS,
        search: SEARCH_RPS,
        write: WRITE_RPS,
    };
    let nominal_seconds = if args.trace {
        args.seconds
    } else {
        args.seconds * NOMINAL_SHARE
    };

    let stop = AtomicBool::new(false);
    let cache = FeatureCache::global();
    let exec = Executor::global();
    let batch_seed = rng::derive(args.seed, 2);
    let batch_stats = Mutex::new(BatchStats::default());
    let (nominal_stats, ladder, cache_delta, exec_delta, window) = std::thread::scope(|scope| {
        let origin = Instant::now();
        let (stop, ctl, batch_stats, members) = (&stop, &ctl, &batch_stats, &set.members);
        let batch = scope.spawn(move || {
            let st = batch_loop(ctl, members, &batch_popularity, batch_seed, origin, stop);
            *batch_stats.lock().expect("batch stats") = st;
        });
        // Warm-up at the nominal rate, discarded: the first requests meet a
        // cache the set-up sweep left cold and a batch loop just starting.
        gen.phase(nominal, WARMUP_SECONDS, false);
        let cache_before = cache.stats();
        let exec_before = exec.stats();
        let t0 = origin.elapsed().as_secs_f64();
        let nominal_stats = gen.phase(nominal, nominal_seconds, args.trace);
        let t1 = origin.elapsed().as_secs_f64();
        let cache_after = cache.stats();
        let exec_after = exec.stats();
        let mut ladder = Vec::new();
        if !args.trace {
            let rung_seconds = args.seconds * (1.0 - NOMINAL_SHARE) / LADDER_RPS.len() as f64;
            for rps in LADDER_RPS {
                let share = POINT_RPS / (POINT_RPS + SEARCH_RPS);
                let rates = Rates {
                    point: rps * share,
                    search: rps * (1.0 - share),
                    write: WRITE_RPS,
                };
                let st = gen.phase(rates, rung_seconds, false);
                let tail: Vec<f64> = st
                    .late_at
                    .iter()
                    .filter(|(due, _)| *due >= rung_seconds * 0.75)
                    .map(|&(_, late)| late)
                    .collect();
                let holds = st.failed == 0
                    && percentile(&st.point_ms, 0.99) <= LIMIT_MS
                    && tail.iter().all(|&l| l <= LIMIT_MS);
                ladder.push((rps, holds, st));
                if !holds {
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
        batch.join().expect("batch thread");
        (
            nominal_stats,
            ladder,
            (cache_before, cache_after),
            (exec_before, exec_after),
            (t0, t1),
        )
    });
    let batch = batch_stats.into_inner().expect("batch stats");

    let peak_rss_mib = report::peak_rss_mib();
    let mut phases: Vec<&PhaseStats> = vec![&nominal_stats];
    phases.extend(ladder.iter().map(|(_, _, st)| st));
    let (checked, wrong) = check_answers(report, &set.members, &phases);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let again = setup(args.seed, writes);
        setup_secs.push(t0.elapsed().as_secs_f64());
        drop(again);
    }
    let setup_s = median(&setup_secs);
    println!("set-up repeated after the measurement: median {setup_s:.4} s of {SETUPS}");
    for st in &phases {
        report.attempted += st.sent;
        report.failed += st.failed;
    }
    report.attempted += batch.done.len() as u64 + batch.failed;
    report.failed += batch.failed;
    let agreement = ratio((checked - wrong) as f64, checked as f64);
    let in_window: Vec<&BatchJob> = batch
        .done
        .iter()
        .filter(|j| j.at >= window.0 && j.at <= window.1)
        .collect();
    let window_pairs: usize = in_window.iter().map(|j| j.pairs).sum();
    let batch_ms: Vec<f64> = in_window.iter().map(|j| j.latency_ms).collect();
    // Requested pairs over the median batch job time, not over wall time:
    // the pacing gaps between jobs are the controller's policy, so a batch
    // job that takes twice as long halves the figure. CPU taken by point
    // and search work still shows, because it stretches the jobs it
    // preempts; the median keeps a slow spell of the host out.
    let service_ms: Vec<f64> = in_window.iter().map(|j| j.service_ms).collect();
    let batch_pairs_per_s = ratio(1e3 * BATCH_PAIRS as f64, median(&service_ms));
    let job_s = service_ms.iter().sum::<f64>() / 1e3;
    let wall_pairs_per_s = window_pairs as f64 / (window.1 - window.0);
    println!(
        "answers: {checked} sampled results re-run untimed against the same snapshot, {wrong} differ"
    );

    if args.trace {
        traced_metrics(report, &nominal_stats, &batch, cache_delta, exec_delta);
        return;
    }
    let max_rps = ladder
        .iter()
        .filter(|(_, holds, _)| *holds)
        .map(|&(rps, _, _)| rps)
        .fold(0.0, f64::max);
    println!("end-to-end at the nominal rate ({POINT_RPS} point + {SEARCH_RPS} search + {WRITE_RPS} write per s, {nominal_seconds:.1} s):");
    print_phase("nominal", &nominal_stats);
    report::print_percentile("point_p50_ms", &nominal_stats.point_ms, 0.50, "ms");
    report::print_percentile("point_p90_ms", &nominal_stats.point_ms, 0.90, "ms");
    report::print_percentile("point_p75_ms", &nominal_stats.point_ms, 0.75, "ms");
    report::print_percentile("point_p99_ms", &nominal_stats.point_ms, 0.99, "ms");
    report::print_percentile("search_p50_ms", &nominal_stats.search_ms, 0.50, "ms");
    report::print_percentile("search_p99_ms", &nominal_stats.search_ms, 0.99, "ms");
    report::print_percentile("batch_p50_ms", &batch_ms, 0.50, "ms");
    report::print_percentile("batch_p90_ms", &batch_ms, 0.90, "ms");
    println!(
        "  batch_pairs_per_s            {batch_pairs_per_s:>12.4} 1/s    ({BATCH_PAIRS} pairs over the \
         median of {} jobs)",
        batch_ms.len()
    );
    println!(
        "  batch_wall_pairs_per_s       {wall_pairs_per_s:>12.4} 1/s    (jobs ran {:.1}% of the \
         {:.1} s window, pacing and admission the rest)",
        100.0 * job_s / (window.1 - window.0),
        window.1 - window.0
    );
    println!("rate ladder (point p99 limit {LIMIT_MS} ms, no growing backlog, no failures):");
    for (rps, holds, st) in &ladder {
        print_phase(
            &format!("{rps:>6} rps {}", if *holds { "holds" } else { "fails" }),
            st,
        );
    }
    println!("  served_max_rps               {max_rps:>12.1} 1/s");
    println!(
        "  fail_frac                    {:>12.6} ratio ({} of {})",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", peak_rss_mib, "MiB");
    report.put("pairs_per_s", batch_pairs_per_s, "1/s");
    report.put("agreement", agreement, "ratio");
}

fn traced_metrics(
    report: &mut Report,
    st: &PhaseStats,
    batch: &BatchStats,
    cache: (
        harmony_core::prepare::CacheStats,
        harmony_core::prepare::CacheStats,
    ),
    exec: (ExecStats, ExecStats),
) {
    let pts = &st.points;
    let n = pts.len().max(1) as f64;
    let mean = |f: &dyn Fn(&PointTrace) -> f64| pts.iter().map(f).sum::<f64>() / n;
    let col = |f: &dyn Fn(&PointTrace) -> f64| pts.iter().map(f).collect::<Vec<f64>>();
    let (before, after) = cache;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    report.put(
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.put(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    report.put(
        "cache.resident_mib",
        after.resident_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    report.put("prepare.ms", mean(&|p| ms(p.timings.prepare)), "ms");
    report.put("block.ms", mean(&|p| ms(p.timings.block)), "ms");
    report.put("block.candidates", mean(&|p| p.scored as f64), "count");
    report.put(
        "block.candidate_frac",
        ratio(
            pts.iter().map(|p| p.scored as f64).sum(),
            pts.iter().map(|p| p.considered as f64).sum(),
        ),
        "ratio",
    );
    report.put("score.tier1_ms", mean(&|p| ms(p.timings.score_tier1)), "ms");
    report.put("score.tier2_ms", mean(&|p| ms(p.timings.score_tier2)), "ms");
    let pruned: u64 = pts.iter().map(|p| p.timings.pairs_pruned).sum();
    let full: u64 = pts.iter().map(|p| p.timings.pairs_full).sum();
    report.put(
        "score.skip_rate",
        ratio(pruned as f64, (pruned + full) as f64),
        "ratio",
    );
    report.put("merge.ms", mean(&|p| ms(p.timings.merge)), "ms");
    report.put("propagate.ms", mean(&|p| ms(p.timings.propagate)), "ms");
    report.put("select.ms", mean(&|p| p.select), "ms");
    let (eb, ea) = exec;
    report.put("exec.enqueued", (ea.enqueued - eb.enqueued) as f64, "count");
    report.put("exec.stolen", (ea.stolen - eb.stolen) as f64, "count");
    report.put(
        "exec.inline_runs",
        (ea.inline_runs - eb.inline_runs) as f64,
        "count",
    );
    report.put("exec.parked", (ea.parked - eb.parked) as f64, "count");
    report.put("plan.ms", median(&batch.plan_ms), "ms");
    report.put(
        "plan.pairs_planned",
        ratio(batch.planned as f64, batch.done.len() as f64),
        "count",
    );
    report.put(
        "batch.exec_ms",
        ratio(batch.exec_ms, batch.done.len() as f64),
        "ms",
    );
    report.put(
        "batch.pair_us",
        ratio(batch.exec_ms * 1e3, batch.planned as f64),
        "us",
    );
    report.put(
        "batch.pairs_scored",
        ratio(batch.scored as f64, batch.done.len() as f64),
        "count",
    );
    report.put(
        "serve.point_wait_p99_ms",
        percentile(&col(&|p| p.wait), 0.99),
        "ms",
    );
    report.put(
        "serve.point_service_p50_ms",
        median(&col(&|p| p.service)),
        "ms",
    );
    report.put(
        "serve.search_service_p50_ms",
        median(&st.search_service_ms),
        "ms",
    );
    let service: Vec<f64> = batch.done.iter().map(|j| j.service_ms).collect();
    report.put("serve.batch_service_ms", median(&service), "ms");
    report.put("serve.rejected", st.rejected as f64, "count");
    report.put("serve.shed", st.shed as f64, "count");
    report.put("serve.timeouts", st.timeouts as f64, "count");
    report.put("serve.degraded", batch.degraded as f64, "count");
    report.put("gen.late_p99_ms", percentile(&st.late_ms, 0.99), "ms");
    let latency = mean(&|p| p.latency);
    let late = mean(&|p| p.late);
    let wait = mean(&|p| p.wait);
    let service = mean(&|p| p.service);
    let residual = mean(&|p| p.latency - p.late - p.wait - p.service);
    report.put("serve.point_latency_mean_ms", latency, "ms");
    report.put("gen.late_mean_ms", late, "ms");
    report.put("serve.point_wait_mean_ms", wait, "ms");
    report.put("serve.point_service_mean_ms", service, "ms");
    report.put("serve.point_residual_ms", residual, "ms");
    report.put(
        "search.query_ms",
        st.search_service_ms.iter().sum::<f64>() / st.search_service_ms.len().max(1) as f64,
        "ms",
    );
    report.put("registry.write_ms", median(&st.write_ms), "ms");
    let traced_p50 = median(&col(&|p| p.latency));
    report.put(
        "trace.overhead_frac",
        ratio(traced_p50, median(&st.untraced_point_ms)) - 1.0,
        "ratio",
    );
    println!(
        "residual accounting (means over {} traced point requests): lateness {late:.4} + admission wait \
         {wait:.4} + service {service:.4} + residual {residual:.4} = {:.4} ms = point latency {latency:.4} ms",
        pts.len(),
        late + wait + service + residual
    );
    print_phase("nominal (traced)", st);
}
