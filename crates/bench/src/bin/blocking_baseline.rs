//! Regenerate `BENCH_blocking.json`: dense vs blocked matching at the
//! paper's 1378×784 scale, and repository search latency at registry scale.
//!
//! Part A times the full `MatchEngine::run` (the exhaustive policy, called
//! "dense" in the report) against the blocked
//! `MatchEngine::run_blocked` (default [`BlockingPolicy`]) at equal thread
//! count and reports stage timings, the scored-pair fraction, and recall of
//! the blocked run against the dense run's above-threshold pairs and the
//! workload's planted ground truth.
//!
//! Part B registers synthetic repositories of growing size (up to the
//! paper's "thousands of schemata" registry scale) and compares the
//! historical linear scan (per-query IDF table + per-schema signature
//! intersection) against retrieval over the repository token index, showing
//! sub-linear latency growth in repository size plus p50/p99 tails.
//!
//! Part C measures incremental index maintenance at the 10⁴ tier: delta
//! insert/remove refresh vs a structure-only full rebuild, shard
//! compaction, and warm-start load vs cold re-preparation. It *executes
//! first* (see the comment in `main`): cold/warm start model a restarted
//! process, so they must run against a pristine heap, not the allocator
//! state Parts A/B leave behind.
//!
//! Run with: `cargo run --release -p sm-bench --bin blocking_baseline`

use harmony_core::index::BlockingPolicy;
use harmony_core::prelude::*;
use sm_bench::{case_study, header};
use sm_enterprise::{MetadataRepository, SchemaSearch};
use sm_schema::{Schema, SchemaId};
use sm_synth::{RepositoryConfig, SyntheticRepository};
use sm_text::normalize::Normalizer;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The operating threshold used across experiments.
const THRESHOLD: f64 = 0.30;

/// The historical linear scan: rebuild the IDF weight table per query and
/// intersect the query signature with *every* registered schema. Kept here
/// as the measured baseline the token index replaces.
struct LinearScan {
    signatures: Vec<(SchemaId, HashSet<String>)>,
    schema_freq: HashMap<String, usize>,
}

impl LinearScan {
    fn build(repo: &MetadataRepository) -> Self {
        let mut signatures = Vec::new();
        let mut schema_freq: HashMap<String, usize> = HashMap::new();
        for p in repo.prepare_all() {
            let sig: HashSet<String> = p.signature().iter().map(|t| t.to_string()).collect();
            for t in &sig {
                *schema_freq.entry(t.clone()).or_insert(0) += 1;
            }
            signatures.push((p.schema_id, sig));
        }
        LinearScan {
            signatures,
            schema_freq,
        }
    }

    fn query(
        &self,
        query_sig: &HashSet<String>,
        query_id: SchemaId,
        limit: usize,
    ) -> Vec<SchemaId> {
        let n = self.signatures.len().max(1) as f64;
        // Per-query weight table over the whole repository vocabulary —
        // the work SchemaSearch used to redo on every call.
        let weights: HashMap<&str, f64> = self
            .schema_freq
            .iter()
            .map(|(t, &df)| (t.as_str(), ((n + 1.0) / (df as f64 + 1.0)).ln() + 1.0))
            .collect();
        let weight = |t: &str| weights.get(t).copied().unwrap_or((n + 1.0).ln() + 1.0);
        let sum = |sig: &HashSet<String>| -> f64 {
            let mut ts: Vec<&str> = sig.iter().map(String::as_str).collect();
            ts.sort_unstable();
            ts.into_iter().map(weight).sum()
        };
        let q_weight = sum(query_sig);
        let mut hits: Vec<(SchemaId, f64)> = self
            .signatures
            .iter()
            .filter(|(id, _)| *id != query_id)
            .filter_map(|(id, sig)| {
                let mut shared: Vec<&str> =
                    query_sig.intersection(sig).map(String::as_str).collect();
                if shared.is_empty() {
                    return None;
                }
                shared.sort_unstable();
                let shared_weight: f64 = shared.into_iter().map(weight).sum();
                let total = sum(sig);
                Some((*id, shared_weight / (q_weight + total - shared_weight)))
            })
            .collect();
        hits.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        hits.truncate(limit);
        hits.into_iter().map(|(id, _)| id).collect()
    }
}

struct SearchPoint {
    schemas: usize,
    build_secs: f64,
    /// `None` at registry scale: the historical scan is quadratic-ish in
    /// repository size and exists only as a small-tier reference.
    linear_ms: Option<f64>,
    indexed_ms: f64,
    indexed_p50_ms: f64,
    indexed_p99_ms: f64,
}

fn population(size: usize) -> SyntheticRepository {
    assert!(size % 8 == 0);
    SyntheticRepository::generate(&RepositoryConfig {
        seed: 1234 + size as u64,
        domains: size / 8,
        schemas_per_domain: 8,
        concepts_per_domain: 20,
        concept_coverage: 0.5,
        attrs_per_concept: (4, 9),
        ..Default::default()
    })
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn repo_search_point(size: usize) -> SearchPoint {
    let population = population(size);
    let mut repo = MetadataRepository::new();
    for s in &population.schemas {
        repo.register_schema(s.clone());
    }

    let t0 = Instant::now();
    let _index = repo.token_index();
    let build_secs = t0.elapsed().as_secs_f64();

    let queries: Vec<&Schema> = population.schemas.iter().step_by(8).collect();
    let search = SchemaSearch::build(&repo);

    // The linear reference (and its agreement check) only at small tiers —
    // every query visits every schema, so at 10⁴ it is the scenario the
    // index exists to avoid.
    let linear_ms = (size <= 512).then(|| {
        let linear = LinearScan::build(&repo);
        let query_sigs: Vec<(SchemaId, HashSet<String>)> = queries
            .iter()
            .map(|q| {
                (
                    q.id,
                    harmony_core::prepare::FeatureCache::global()
                        .prepare(q)
                        .signature()
                        .iter()
                        .map(|t| t.to_string())
                        .collect(),
                )
            })
            .collect();

        // Agreement check (outside the timed loops): identical rankings.
        for ((id, sig), q) in query_sigs.iter().zip(&queries) {
            let lin: Vec<SchemaId> = linear.query(sig, *id, 5);
            let idx: Vec<SchemaId> = search
                .query(q, 5)
                .into_iter()
                .map(|h| h.schema_id)
                .collect();
            assert_eq!(lin, idx, "index retrieval diverged from the linear scan");
        }

        let t0 = Instant::now();
        for (id, sig) in &query_sigs {
            std::hint::black_box(linear.query(sig, *id, 10));
        }
        t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
    });

    // Per-query latencies for the tail percentiles the satellite dashboards
    // track (mean alone hides slow outlier queries).
    let mut per_query_ms: Vec<f64> = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    for q in &queries {
        let q0 = Instant::now();
        std::hint::black_box(search.query(q, 10));
        per_query_ms.push(q0.elapsed().as_secs_f64() * 1e3);
    }
    let indexed_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
    per_query_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    SearchPoint {
        schemas: size,
        build_secs,
        linear_ms,
        indexed_ms,
        indexed_p50_ms: percentile(&per_query_ms, 0.50),
        indexed_p99_ms: percentile(&per_query_ms, 0.99),
    }
}

/// Incremental-maintenance + warm-start timings at registry scale (10⁴
/// schemata): the delta write path, compaction, and persistence against
/// their full-rebuild / cold-start equivalents — all same-run ratios, so
/// host drift cancels in the ci.sh gates.
struct IncrementalPoint {
    schemas: usize,
    cold_start_secs: f64,
    full_rebuild_secs: f64,
    insert_refresh_secs: f64,
    remove_refresh_secs: f64,
    compact_secs: f64,
    save_secs: f64,
    warm_start_secs: f64,
}

fn repo_incremental_point(size: usize) -> IncrementalPoint {
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    let population = population(size);
    let mut repo = MetadataRepository::new();
    for s in &population.schemas {
        repo.register_schema(s.clone());
    }

    // Cold start: linguistic preparation of the whole registry plus the
    // sharded build (what a restarted process without an image pays).
    let t0 = Instant::now();
    let index = repo.token_index();
    let cold_start_secs = t0.elapsed().as_secs_f64();

    // Structure-only full rebuild over already-prepared schemata — the
    // strictest honest baseline for the incremental write path (a rebuild
    // that also re-prepared would flatter the delta path).
    let prepared: Vec<_> = index
        .live_slots()
        .into_iter()
        .map(|s| std::sync::Arc::clone(index.prepared(s).expect("live")))
        .collect();
    let exec = harmony_core::exec::Executor::global();
    let t0 = Instant::now();
    let rebuilt = sm_enterprise::ShardedRepositoryIndex::build_parallel(
        &prepared,
        exec,
        exec.threads(),
        repo.shard_config(),
    );
    let full_rebuild_secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(rebuilt.len());
    drop(rebuilt);
    drop(prepared);
    drop(index);

    // Insert: one new schema, then the incremental refresh (prepare one
    // schema + delta append + snapshot publish — never a rebuild).
    let mut extra = Schema::new(
        SchemaId(size as u32 + 1),
        "bench_orders_extra",
        SchemaFormat::Relational,
    );
    let root = extra.add_root("PurchaseOrderLine", ElementKind::Table, DataType::None);
    for col in ["order_id", "line_no", "sku", "quantity", "unit_price"] {
        extra
            .add_child(root, col, ElementKind::Column, DataType::text())
            .expect("root exists");
    }
    repo.register_schema(extra);
    let t0 = Instant::now();
    let after_insert = repo.token_index();
    let insert_refresh_secs = t0.elapsed().as_secs_f64();
    assert_eq!(after_insert.len(), size + 1);
    drop(after_insert);

    // Remove: tombstone + df bookkeeping, again via refresh.
    repo.remove_schema(population.schemas[3].id);
    let t0 = Instant::now();
    let after_remove = repo.token_index();
    let remove_refresh_secs = t0.elapsed().as_secs_f64();
    assert_eq!(after_remove.len(), size);

    // Compaction: fold every shard's delta/tombstones into fresh base CSRs.
    let mut compactable = after_remove.begin_update();
    let t0 = Instant::now();
    compactable.compact_all();
    let compact_secs = t0.elapsed().as_secs_f64();
    assert_eq!(compactable.pending_ops(), 0);
    drop(compactable);
    drop(after_remove);

    // Warm start: persist the prepared registry, then load it into a fresh
    // repository registered with the same schemata.
    let image = std::env::temp_dir().join(format!("sm_bench_warm_{}.bin", std::process::id()));
    let t0 = Instant::now();
    repo.save_registry(&image).expect("save warm-start image");
    let save_secs = t0.elapsed().as_secs_f64();
    let mut warm_repo = MetadataRepository::new();
    for s in repo.schemas() {
        warm_repo.register_schema(s.clone());
    }
    let t0 = Instant::now();
    let reused = warm_repo.warm_start(&image).expect("warm start");
    let warm_start_secs = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&image).ok();
    assert_eq!(
        reused,
        warm_repo.schema_count(),
        "every preparation must be reused"
    );

    IncrementalPoint {
        schemas: size,
        cold_start_secs,
        full_rebuild_secs,
        insert_refresh_secs,
        remove_refresh_secs,
        compact_secs,
        save_secs,
        warm_start_secs,
    }
}

/// One point of the block-stage thread-scaling curve.
struct ScalePoint {
    threads: usize,
    block_secs: f64,
    total_secs: f64,
}

fn main() {
    header(
        "blocking_baseline",
        "dense vs token-blocked matching at 1378×784 + sub-linear repository search",
    );

    // -------- Part C: incremental maintenance + warm start at 10⁴. --------
    // Runs FIRST, in a pristine process: the warm-start claim is about a
    // *restarted* service, so cold start must pay true first-touch costs
    // and the image load must not run in whatever allocator state hours of
    // unrelated matching left behind. (Measured: running this section after
    // Parts A/B inflates the load's millions of small allocations ~5×
    // purely from free-list fragmentation, while leaving cold start — whose
    // transient allocations recycle LIFO — almost untouched, turning a
    // genuine 5× warm-start win into an apparent regression.) The gate
    // ratios below stay same-run either way.
    println!("repository incremental maintenance (10⁴ tier):");
    let inc = repo_incremental_point(10240);
    let insert_over_rebuild = inc.insert_refresh_secs / inc.full_rebuild_secs.max(1e-12);
    let warm_over_cold = inc.warm_start_secs / inc.cold_start_secs.max(1e-12);
    println!(
        "  cold start (prepare + build) {:>8.3}s   structure-only rebuild {:>8.4}s",
        inc.cold_start_secs, inc.full_rebuild_secs
    );
    println!(
        "  insert refresh {:>8.5}s ({:.1}% of rebuild)   remove refresh {:>8.5}s   compact {:>8.5}s",
        inc.insert_refresh_secs,
        100.0 * insert_over_rebuild,
        inc.remove_refresh_secs,
        inc.compact_secs
    );
    println!(
        "  save {:>8.4}s   warm start {:>8.4}s ({:.1}% of cold start)",
        inc.save_secs,
        inc.warm_start_secs,
        100.0 * warm_over_cold
    );

    // -------- Part A: dense vs blocked at paper scale, equal threads. -----
    println!();
    let pair = case_study(1.0);
    let rows = pair.source.len();
    let cols = pair.target.len();
    let threads = 1usize;
    let engine = MatchEngine::new()
        .with_normalizer(Normalizer::new())
        .with_threads(threads);
    let policy = BlockingPolicy::default();

    const REPS: usize = 5;
    let mut dense_runs: Vec<BlockedMatchResult> = (0..REPS)
        .map(|_| engine.run(&pair.source, &pair.target))
        .collect();
    dense_runs.sort_by_key(|r| r.elapsed);
    let dense = &dense_runs[REPS / 2];

    let mut blocked_runs: Vec<BlockedMatchResult> = (0..REPS)
        .map(|_| engine.run_blocked(&pair.source, &pair.target, &policy))
        .collect();
    blocked_runs.sort_by_key(|r| r.elapsed);
    let blocked = &blocked_runs[REPS / 2];

    // Block-stage thread-scaling curve: 1, 2, and max threads (median of
    // REPS each, keyed by the block stage itself so probe noise in other
    // stages cannot reorder the curve). Engines share the global executor;
    // lanes are capped at pool width − 1 helpers + the caller, so a host
    // with fewer cores than the requested thread count degrades to the
    // serial path instead of oversubscribing (see `harmony_core::exec`).
    let mut thread_points: Vec<usize> = vec![1, 2, detect_threads().max(2)];
    thread_points.dedup();
    // One pre-warmed engine per thread point; rounds interleave the points
    // (1, 2, …, max, then again) so slow drift — CPU frequency wander,
    // cache warmth — lands on every point equally instead of biasing
    // whichever point happened to run in a fast minute. Medians are taken
    // per point across rounds, keyed by the block stage itself.
    let engines: Vec<MatchEngine> = thread_points
        .iter()
        .map(|&n| {
            let engine = MatchEngine::new()
                .with_normalizer(Normalizer::new())
                .with_threads(n);
            // Warm the engine's private feature cache outside the timings.
            let _ = engine.prepare(&pair.source);
            let _ = engine.prepare(&pair.target);
            engine
        })
        .collect();
    let mut samples: Vec<Vec<(std::time::Duration, std::time::Duration)>> =
        vec![Vec::with_capacity(REPS); thread_points.len()];
    for round in 0..REPS {
        // Forward on even rounds, reversed on odd: no point always runs on
        // the freshly-idle (or freshly-warmed) core.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..engines.len()).collect()
        } else {
            (0..engines.len()).rev().collect()
        };
        for point in order {
            let run = engines[point].run_blocked(&pair.source, &pair.target, &policy);
            samples[point].push((run.timings.block, run.elapsed));
        }
    }
    let scaling: Vec<ScalePoint> = thread_points
        .iter()
        .zip(&mut samples)
        .map(|(&n, samples)| {
            samples.sort_by_key(|&(block, _)| block);
            let (block, total) = samples[samples.len() / 2];
            ScalePoint {
                threads: n,
                block_secs: block.as_secs_f64(),
                total_secs: total.as_secs_f64(),
            }
        })
        .collect();

    let dense_secs = dense.elapsed.as_secs_f64();
    let blocked_secs = blocked.elapsed.as_secs_f64();
    let th = Confidence::new(THRESHOLD);

    // Recall of dense above-threshold pairs.
    let dense_above: Vec<(sm_schema::ElementId, sm_schema::ElementId)> = dense
        .matrix
        .iter_above(th)
        .map(|(s, t, _)| (s, t))
        .collect();
    let cand_kept = dense_above
        .iter()
        .filter(|(s, t)| blocked.candidates.contains(s.index(), t.index()))
        .count();
    let score_kept = dense_above
        .iter()
        .filter(|&&(s, t)| blocked.matrix.get(s, t).value() >= th.value())
        .count();
    let candidate_recall = cand_kept as f64 / dense_above.len().max(1) as f64;
    let score_recall = score_kept as f64 / dense_above.len().max(1) as f64;

    // Planted ground-truth recall of the above-threshold sets.
    let truth_total = pair.truth.len().max(1);
    let truth_dense = pair
        .truth
        .pairs()
        .iter()
        .filter(|&&(s, t)| dense.matrix.get(s, t).value() >= th.value())
        .count();
    let truth_blocked = pair
        .truth
        .pairs()
        .iter()
        .filter(|&&(s, t)| blocked.matrix.get(s, t).value() >= th.value())
        .count();

    println!("match scale {rows}×{cols}, {threads} thread(s), threshold {THRESHOLD}");
    println!(
        "dense    {dense_secs:>8.3} s   ({} pairs)",
        dense.pairs_considered
    );
    println!(
        "blocked  {blocked_secs:>8.3} s   ({} pairs scored, {:.1}% of cross product, block stage {:.3}s)",
        blocked.pairs_scored,
        100.0 * blocked.pairs_scored as f64 / blocked.pairs_considered as f64,
        blocked.timings.block.as_secs_f64(),
    );
    println!(
        "speedup  {:>8.1}×   candidate recall {candidate_recall:.4}, score recall {score_recall:.4} over {} dense above-threshold pairs",
        dense_secs / blocked_secs.max(1e-12),
        dense_above.len(),
    );
    println!(
        "ground truth @{THRESHOLD}: dense {truth_dense}/{truth_total}, blocked {truth_blocked}/{truth_total}"
    );
    println!("block-stage thread scaling (median of {REPS}):");
    for p in &scaling {
        println!(
            "  {} thread(s): block {:.4}s  blocked total {:.4}s",
            p.threads, p.block_secs, p.total_secs
        );
    }

    // -------- Part B: repository search latency scaling. ------------------
    println!("\nrepository search (linear scan vs token index):");
    let points: Vec<SearchPoint> = [128usize, 256, 512, 2048, 10240]
        .into_iter()
        .map(repo_search_point)
        .collect();
    for p in &points {
        let linear = p
            .linear_ms
            .map(|ms| format!("{ms:>8.3} ms/query"))
            .unwrap_or_else(|| "   (skipped)   ".to_string());
        println!(
            "  {:>5} schemata: build {:>7.4}s  linear {linear}  indexed {:>8.4} ms/query  p50 {:>7.4}  p99 {:>7.4}",
            p.schemas, p.build_secs, p.indexed_ms, p.indexed_p50_ms, p.indexed_p99_ms
        );
    }
    let size_ratio = points[points.len() - 1].schemas as f64 / points[0].schemas as f64;
    let latency_ratio = points[points.len() - 1].indexed_ms / points[0].indexed_ms.max(1e-12);
    println!(
        "  scaling: repository ×{size_ratio:.1} → indexed query latency ×{latency_ratio:.2} (sub-linear: {})",
        latency_ratio < size_ratio
    );

    // Hand-rolled JSON (the workspace has no serialization dependency).
    let search_json: Vec<String> = points
        .iter()
        .map(|p| {
            let linear = p
                .linear_ms
                .map(|ms| format!("{ms:.4}"))
                .unwrap_or_else(|| "null".to_string());
            format!(
                "    {{\"schemas\": {}, \"index_build_secs\": {:.6}, \
                 \"linear_ms_per_query\": {linear}, \"indexed_ms_per_query\": {:.4}, \
                 \"indexed_p50_ms\": {:.4}, \"indexed_p99_ms\": {:.4}}}",
                p.schemas, p.build_secs, p.indexed_ms, p.indexed_p50_ms, p.indexed_p99_ms
            )
        })
        .collect();
    let incremental_json = format!(
        "{{\n    \"schemas\": {}, \"cold_start_secs\": {:.6}, \
         \"full_rebuild_secs\": {:.6},\n    \"insert_refresh_secs\": {:.6}, \
         \"remove_refresh_secs\": {:.6}, \"compact_secs\": {:.6},\n    \
         \"save_secs\": {:.6}, \"warm_start_secs\": {:.6},\n    \
         \"insert_over_rebuild\": {insert_over_rebuild:.6}, \
         \"warm_over_cold\": {warm_over_cold:.6}\n  }}",
        inc.schemas,
        inc.cold_start_secs,
        inc.full_rebuild_secs,
        inc.insert_refresh_secs,
        inc.remove_refresh_secs,
        inc.compact_secs,
        inc.save_secs,
        inc.warm_start_secs,
    );
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"block_stage_secs\": {:.6}, \
                 \"blocked_total_secs\": {:.6}}}",
                p.threads, p.block_secs, p.total_secs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": {{\"rows\": {rows}, \"cols\": {cols}, \"pairs\": {pairs}}},\n  \
         \"threads\": {threads},\n  \"threshold\": {THRESHOLD},\n  \"reps\": {REPS},\n  \
         \"dense_secs\": {dense_secs:.6},\n  \"blocked_secs\": {blocked_secs:.6},\n  \
         \"blocked_over_dense\": {ratio:.4},\n  \
         \"block_stage_secs\": {block:.6},\n  \
         \"block_scaling\": [\n{scaling}\n  ],\n  \
         \"pairs_scored\": {scored},\n  \"candidate_fraction\": {fraction:.6},\n  \
         \"dense_above_threshold\": {above},\n  \
         \"candidate_recall\": {candidate_recall:.6},\n  \
         \"score_recall\": {score_recall:.6},\n  \
         \"ground_truth\": {{\"planted\": {truth_total}, \"dense_found\": {truth_dense}, \
         \"blocked_found\": {truth_blocked}}},\n  \
         \"repo_search\": [\n{search}\n  ],\n  \
         \"repo_incremental\": {incremental_json},\n  \
         \"repo_scaling\": {{\"size_ratio\": {size_ratio:.2}, \
         \"indexed_latency_ratio\": {latency_ratio:.4}, \
         \"sublinear\": {sublinear}}}\n}}\n",
        pairs = rows * cols,
        ratio = blocked_secs / dense_secs.max(1e-12),
        block = scaling[0].block_secs,
        scaling = scaling_json.join(",\n"),
        scored = blocked.pairs_scored,
        fraction = blocked.pairs_scored as f64 / blocked.pairs_considered.max(1) as f64,
        above = dense_above.len(),
        search = search_json.join(",\n"),
        sublinear = latency_ratio < size_ratio,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_blocking.json");
    std::fs::write(out, &json).expect("write BENCH_blocking.json");
    println!("\nwrote {out}");
}
