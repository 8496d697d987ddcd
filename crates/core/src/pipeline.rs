//! The staged match pipeline:
//! `Prepare → Block → Score → Merge → Propagate → Select`.
//!
//! Every full match runs on this one scoring path. The fully automated
//! `MATCH(S1, S2)` ([`MatchPipeline::run`], [`MatchEngine::run`]) is the
//! blocked pipeline under [`BlockingPolicy::Exhaustive`], whose candidate
//! set is the whole cross product; the other policies prune that set first.
//!
//! 1. **Prepare** — fetch both schemata's [`crate::prepare::PreparedSchema`]
//!    from the engine's feature cache (linguistic preprocessing runs only on
//!    a cache miss) and assemble the pairwise [`MatchContext`] (joint TF-IDF
//!    corpus).
//! 2. **Block** — the token-blocking index prunes the cross product to a
//!    [`CandidateSet`] under the run's [`BlockingPolicy`] (see
//!    [`crate::index`]). The exhaustive policy keeps every pair and builds
//!    no index.
//! 3. **Score** — every voter scores every candidate pair. Candidate-bearing
//!    rows are sharded across the persistent [`crate::exec::Executor`] with
//!    chunked work-stealing: lanes repeatedly claim the next block of rows
//!    from a shared queue, so a straggler block cannot idle the other cores,
//!    and the pool is shared with every concurrent pair of a batch. When the
//!    engine's score cascade is active ([`MatchEngine::cascade_active`]),
//!    scoring runs in two tiers (see `crate::cascade`): tier 1 prunes
//!    candidate pairs whose provable upper bound on the merged score falls
//!    below the engine's floor, tier 2 runs the remaining voter lanes
//!    SoA-style over the survivors. Otherwise the full panel runs on every
//!    candidate — the cascade's pinned reference
//!    ([`MatchEngine::with_cascade`]`(false)`).
//! 4. **Merge** — the engine's [`crate::merger::MergeStrategy`] collapses
//!    each pair's votes into one score. Score and Merge execute as one fused
//!    parallel pass over block-sized scratch (never a full
//!    `rows × cols × voters` tensor). Each worker measures its tier-1,
//!    tier-2, and merge phases directly; the fused pass's wall-clock is then
//!    split across `score_tier1`/`score_tier2`/`merge` proportionally to
//!    those measured CPU nanoseconds (`score` is the sum of the two tiers).
//! 5. **Propagate** — one structural pass blends every parented cell of
//!    every candidate-bearing row with its parents' merged score (the
//!    engine's `propagation_alpha`).
//! 6. **Select** — an optional [`Selection`] turns the matrix into candidate
//!    correspondences.
//!
//! Every scored cell equals the per-pair definition: the votes are merged
//! in `f64` exactly as [`MatchEngine::score_pair`] does, floored
//! (`merged < floor → 0.0`) when the engine has a score floor, narrowed to
//! the matrix's `f32`, and then blended `(1−α)·own + α·parent`. The pin
//! tests check the pipeline against exactly that per-pair oracle.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::correspondence::MatchSet;
use crate::engine::MatchEngine;
use crate::index::{generate_candidates_governed, BlockingPolicy, CandidateSet, ElementTokenIndex};
use crate::matrix::MatchMatrix;
use crate::obs;
use crate::obs::SpanKind;
use crate::prepare::PreparedSchema;
use crate::select::Selection;
use sm_schema::{ElementId, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Batch planning: bulk preparation of all schemata plus the shared
    /// multi-schema token index build (zero on single-pair runs, whose
    /// per-pair preparation is reported under `prepare`). See
    /// [`crate::batch`].
    pub plan: Duration,
    /// Feature-cache lookup / linguistic preprocessing + corpus assembly.
    pub prepare: Duration,
    /// Candidate generation over the token-blocking index (under the
    /// exhaustive policy, just laying out the full cross product).
    pub block: Duration,
    /// Voter panel over all candidate pairs. Always the sum of
    /// `score_tier1` and `score_tier2`.
    pub score: Duration,
    /// Cascade tier 1: signature/profile bound computation and pruning.
    /// Zero when the cascade is off (non-default panels, no score floor,
    /// or [`MatchEngine::with_cascade`]`(false)`). A sub-component of `score`, not an extra stage.
    pub score_tier1: Duration,
    /// Cascade tier 2 (full voter panel over surviving pairs), or the
    /// whole Score stage when the cascade is off. A sub-component of
    /// `score`, not an extra stage.
    pub score_tier2: Duration,
    /// Vote merging.
    pub merge: Duration,
    /// Structural propagation.
    pub propagate: Duration,
    /// Candidate selection (zero unless a selection ran).
    pub select: Duration,
    /// Candidate pairs the cascade's tier-1 bound pruned (their expensive
    /// voters never ran; the merged matrix is provably unchanged).
    pub pairs_pruned: u64,
    /// Candidate pairs scored by the full voter panel (tier-2 survivors,
    /// or every scored pair when the cascade is off).
    pub pairs_full: u64,
}

impl StageTimings {
    /// Total time across all stages. The tier sub-components are already
    /// counted inside `score` and must not be added again.
    pub fn total(&self) -> Duration {
        self.plan
            + self.prepare
            + self.block
            + self.score
            + self.merge
            + self.propagate
            + self.select
    }

    /// Accumulate another run's stage times into this one (batch
    /// aggregation).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.plan += other.plan;
        self.prepare += other.prepare;
        self.block += other.block;
        self.score += other.score;
        self.score_tier1 += other.score_tier1;
        self.score_tier2 += other.score_tier2;
        self.merge += other.merge;
        self.propagate += other.propagate;
        self.select += other.select;
        self.pairs_pruned += other.pairs_pruned;
        self.pairs_full += other.pairs_full;
    }
}

/// Output of one pipeline execution (Prepare → Block → Score → Merge →
/// Propagate).
#[derive(Debug)]
pub struct BlockedRun {
    /// The merged, propagated score matrix. Pairs pruned by blocking hold
    /// the neutral score `0.0` (their true score was never computed).
    pub matrix: MatchMatrix,
    /// Size of the full cross product (`|S1| · |S2|`).
    pub pairs_considered: usize,
    /// Candidate pairs actually scored by the voter panel.
    pub pairs_scored: usize,
    /// The candidate set the run scored (kept for recall accounting).
    pub candidates: CandidateSet,
    /// Per-stage wall-clock timings (including the Block stage).
    pub timings: StageTimings,
}

/// Per-worker CPU-nanosecond totals and prune counter from the fused
/// Score/Merge pass, used for the proportional wall-clock split. On the
/// reference (non-cascade) path all score time lands in `tier2_ns`.
struct FusedStats {
    tier1_ns: u64,
    tier2_ns: u64,
    merge_ns: u64,
    pruned: u64,
}

/// Emit the `stage.score` / `stage.merge` spans for one fused Score+Merge
/// window. The fused pass has no wall-clock boundary between the two
/// stages, so the spans carry the same proportional split `StageTimings`
/// reports: Score from the window start, Merge immediately after.
fn record_fused_stage_spans(fused_start_ns: u64, timings: &StageTimings) {
    let score_ns = timings.score.as_nanos() as u64;
    obs::record_span(
        SpanKind::StageScore,
        timings.pairs_full + timings.pairs_pruned,
        fused_start_ns,
        score_ns,
    );
    obs::record_span(
        SpanKind::StageMerge,
        0,
        fused_start_ns + score_ns,
        timings.merge.as_nanos() as u64,
    );
}

/// A staged execution of the engine's match configuration.
///
/// Obtained from [`MatchEngine::pipeline`]; borrows the engine's voter panel,
/// merger, feature cache, and threading configuration.
pub struct MatchPipeline<'e> {
    engine: &'e MatchEngine,
}

impl<'e> MatchPipeline<'e> {
    pub(crate) fn new(engine: &'e MatchEngine) -> Self {
        MatchPipeline { engine }
    }

    /// The full automated match: stages 1–5 over every pair of the cross
    /// product (the exhaustive blocking policy; no selection).
    pub fn run(&self, source: &Schema, target: &Schema) -> BlockedRun {
        self.run_blocked(source, target, &BlockingPolicy::Exhaustive)
    }

    /// Run stages 1–6, applying `selection` to the final matrix.
    pub fn run_select(
        &self,
        source: &Schema,
        target: &Schema,
        selection: &Selection,
    ) -> (BlockedRun, MatchSet) {
        let mut run = self.run(source, target);
        let started = Instant::now();
        let selected = selection.apply(&run.matrix);
        run.timings.select = started.elapsed();
        (run, selected)
    }

    /// Run the blocked pipeline: Prepare → Block → sparse Score/Merge →
    /// sparse Propagate.
    ///
    /// The Block stage lets `policy` prune the cross product to a
    /// [`CandidateSet`]; only candidates are scored. Propagation densifies
    /// exactly the rows that have candidates: every cell of such a row with
    /// a parented target is blended with its parents' base score (the
    /// parent pair is itself a candidate by construction, so the base read
    /// is always a *scored* value). [`BlockingPolicy::Exhaustive`] scores
    /// every pair — that is [`Self::run`].
    pub fn run_blocked(
        &self,
        source: &Schema,
        target: &Schema,
        policy: &BlockingPolicy,
    ) -> BlockedRun {
        // Per-schema preparation belongs to this run's Prepare stage (on a
        // cold cache it dominates); the batch planner instead reports it
        // under its Plan stage.
        let started = Instant::now();
        let prepared_source = self.engine.prepare(source);
        let prepared_target = self.engine.prepare(target);
        let prepare = started.elapsed();
        let mut run = self.run_blocked_prepared(
            source,
            target,
            &prepared_source,
            &prepared_target,
            None,
            policy,
        );
        run.timings.prepare += prepare;
        run
    }

    /// The blocked pipeline against already-prepared schemata and (optionally)
    /// pre-built token indices — the batch planner's per-pair entry point.
    ///
    /// `prepared_*` must be the preparations of exactly these schemata (the
    /// batch fetches them from the engine's content-fingerprint-keyed cache,
    /// which guarantees it); when `indices` is `Some((source_index,
    /// target_index))` they must be built over the same preparations.
    /// Output is byte-identical to [`Self::run_blocked`] — index reuse only
    /// removes the per-pair index builds from the Block stage.
    pub fn run_blocked_prepared(
        &self,
        source: &Schema,
        target: &Schema,
        prepared_source: &Arc<PreparedSchema>,
        prepared_target: &Arc<PreparedSchema>,
        indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
        policy: &BlockingPolicy,
    ) -> BlockedRun {
        // Stage 1: Prepare (the per-schema half is the caller's cache hit;
        // only the joint TF-IDF corpus is assembled here).
        let (ctx, prepare_ns) = obs::timed(SpanKind::StagePrepare, 0, || {
            MatchContext::from_prepared_trusted(
                source,
                target,
                prepared_source,
                prepared_target,
                &sm_schema::InstanceData::empty(),
                &sm_schema::InstanceData::empty(),
            )
        });
        self.run_context(
            &ctx,
            prepared_source,
            prepared_target,
            indices,
            policy,
            Duration::from_nanos(prepare_ns),
        )
    }

    /// Stages 2–5 against an assembled context: the body every entry point
    /// shares. `prepared_*` must be the preparations `ctx` was built from;
    /// `prepare` is the caller's Prepare-stage time, carried through.
    pub(crate) fn run_context(
        &self,
        ctx: &MatchContext<'_>,
        prepared_source: &PreparedSchema,
        prepared_target: &PreparedSchema,
        indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
        policy: &BlockingPolicy,
        prepare: Duration,
    ) -> BlockedRun {
        let mut timings = StageTimings {
            prepare,
            ..StageTimings::default()
        };

        // Stage 2: Block. With pre-built indices the stage is pure probing;
        // otherwise the per-pair index builds land here. Both probe
        // directions (and the per-pair builds) fan out across the engine's
        // executor lanes.
        let started = Instant::now();
        let block_start = obs::now_ns();
        let candidates = generate_candidates_governed(
            ctx.source,
            ctx.target,
            prepared_source,
            prepared_target,
            indices,
            policy,
            self.engine.executor(),
            self.engine.threads,
            crate::index::GovernedExec {
                budget: self.engine.lane_budget.as_deref(),
                token: self.engine.job_token.as_ref(),
            },
        );
        timings.block = started.elapsed();
        obs::record_span(
            SpanKind::StageBlock,
            candidates.len() as u64,
            block_start,
            timings.block.as_nanos() as u64,
        );
        // Stage boundary: a token tripped during Block stops before Score
        // allocates the matrix.
        self.engine.checkpoint();

        let rows = ctx.source.len();
        let cols = ctx.target.len();
        let mut matrix = MatchMatrix::new(rows, cols);
        if rows == 0 || cols == 0 || candidates.is_empty() {
            return BlockedRun {
                matrix,
                pairs_considered: rows * cols,
                pairs_scored: 0,
                candidates,
                timings,
            };
        }

        // Stages 3+4: sparse Score and Merge over the candidates. The
        // workers time their tier-1/tier-2/merge phases directly; the
        // fused wall-clock is split in proportion to those measurements.
        let started = Instant::now();
        let fused_start = obs::now_ns();
        let stats = self.score_and_merge_blocked(ctx, &mut matrix, &candidates);
        let fused = started.elapsed();
        let total_ns = (stats.tier1_ns + stats.tier2_ns + stats.merge_ns).max(1);
        timings.score_tier1 = fused.mul_f64(stats.tier1_ns as f64 / total_ns as f64);
        timings.score_tier2 = fused.mul_f64(stats.tier2_ns as f64 / total_ns as f64);
        timings.score = timings.score_tier1 + timings.score_tier2;
        timings.merge = fused.saturating_sub(timings.score);
        timings.pairs_pruned = stats.pruned;
        timings.pairs_full = candidates.len() as u64 - stats.pruned;
        record_fused_stage_spans(fused_start, &timings);
        obs::add(obs::Counter::CascadePairsPruned, timings.pairs_pruned);
        if self.engine.cascade_active() {
            obs::add(obs::Counter::CascadePairsFull, timings.pairs_full);
        }

        // Stage 5: sparse Propagate.
        let started = Instant::now();
        let prop_start = obs::now_ns();
        if self.engine.propagation_alpha > 0.0 {
            self.propagate(ctx.source, ctx.target, &mut matrix, &candidates);
        }
        timings.propagate = started.elapsed();
        obs::record_span(
            SpanKind::StagePropagate,
            0,
            prop_start,
            timings.propagate.as_nanos() as u64,
        );

        BlockedRun {
            matrix,
            pairs_considered: rows * cols,
            pairs_scored: candidates.len(),
            candidates,
            timings,
        }
    }

    /// Rows per work-stealing block: small enough that every worker claims
    /// several blocks (smoothing out uneven row costs), large enough that
    /// queue traffic is noise.
    fn block_rows(&self, rows: usize, threads: usize) -> usize {
        (rows / (threads * 4)).clamp(1, 64)
    }

    /// Stages 3+4, fused: score and merge only the candidate pairs. The
    /// per-pair arithmetic is exactly [`MatchEngine::score_pair`]'s (same
    /// voter order, `f64` votes, same merge), followed by the floor and the
    /// `f32` narrowing; non-candidates are left at the matrix's neutral
    /// `0.0`. Work-stealing operates on blocks of
    /// *candidate-bearing rows* — rows blocking emptied cost nothing — and
    /// the lanes come from the engine's persistent executor.
    ///
    /// With [`MatchEngine::cascade_active`] the pass dispatches to the
    /// two-tier cascade kernels in [`crate::cascade`] instead of the
    /// reference full-panel loop; pruned pairs are written as `0.0`, which
    /// the floor would have written anyway (that is the cascade's
    /// losslessness invariant, pinned by `tests/cascade_pin.rs`).
    fn score_and_merge_blocked(
        &self,
        ctx: &MatchContext<'_>,
        matrix: &mut MatchMatrix,
        candidates: &CandidateSet,
    ) -> FusedStats {
        let voters = &self.engine.voters;
        let merger = &self.engine.merger;
        // No floor is a floor of -∞: `merged < floor` is never true and
        // every merged value is written verbatim. The comparison runs on
        // the f64 merged value before the f32 narrowing, so floored and
        // unfloored runs agree bit-for-bit on every surviving cell.
        let floor = self.engine.score_floor.unwrap_or(f64::NEG_INFINITY);
        let nv = voters.len();
        let cols = ctx.target.len();

        // Candidate-bearing rows, paired with their mutable matrix rows.
        let work: Vec<(usize, &mut [f32], &[u32])> = matrix
            .as_mut_slice()
            .chunks_mut(cols.max(1))
            .enumerate()
            .filter_map(|(r, slice)| {
                let cand = candidates.row(r);
                (!cand.is_empty()).then_some((r, slice, cand))
            })
            .collect();
        let threads = self.engine.threads.min(work.len()).max(1);
        let block_rows = self.block_rows(work.len(), threads);

        if self.engine.cascade_active() {
            debug_assert_eq!(nv, crate::cascade::LANES);
            let floor = self
                .engine
                .score_floor
                .expect("cascade_active implies a floor");

            struct Worker {
                row: crate::cascade::CascadeScratch,
                tier1_ns: u64,
                tier2_ns: u64,
                merge_ns: u64,
                pruned: u64,
            }

            // Each phase runs under `obs::timed`, which both feeds the
            // per-worker nanosecond totals (the proportional stage split —
            // same arithmetic as the old hand-rolled timestamps) and, when
            // recording is on, emits one span per row and phase.
            let process_block = |block: &mut [(usize, &mut [f32], &[u32])], w: &mut Worker| {
                for (r, slice, cand) in block.iter_mut() {
                    let s = ElementId(*r as u32);
                    let row = &mut w.row;
                    let (pruned, t1_ns) = obs::timed(SpanKind::ScoreTier1, *r as u64, || {
                        crate::cascade::tier1_row(ctx, s, cand, floor, slice, row)
                    });
                    let ((), t2_ns) = obs::timed(SpanKind::ScoreTier2, *r as u64, || {
                        crate::cascade::tier2_row(ctx, s, row)
                    });
                    let ((), merge_ns) = obs::timed(SpanKind::MergeRow, *r as u64, || {
                        crate::cascade::merge_row(merger, floor, row, slice)
                    });
                    w.pruned += pruned;
                    w.tier1_ns += t1_ns;
                    w.tier2_ns += t2_ns;
                    w.merge_ns += merge_ns;
                }
            };

            let mut work = work;
            let tier1_total = AtomicU64::new(0);
            let tier2_total = AtomicU64::new(0);
            let merge_total = AtomicU64::new(0);
            let pruned_total = AtomicU64::new(0);
            let queue = Mutex::new(work.chunks_mut(block_rows));
            self.engine.run_lanes(threads, |_| {
                let mut w = Worker {
                    row: crate::cascade::CascadeScratch::default(),
                    tier1_ns: 0,
                    tier2_ns: 0,
                    merge_ns: 0,
                    pruned: 0,
                };
                loop {
                    let claimed = queue.lock().expect("pipeline queue poisoned").next();
                    let Some(block) = claimed else { break };
                    // Cancellation point (lock released, block untouched).
                    self.engine.checkpoint();
                    let _chunk = obs::span(SpanKind::ScoreChunk, block.len() as u64);
                    process_block(block, &mut w);
                }
                tier1_total.fetch_add(w.tier1_ns, Ordering::Relaxed);
                tier2_total.fetch_add(w.tier2_ns, Ordering::Relaxed);
                merge_total.fetch_add(w.merge_ns, Ordering::Relaxed);
                pruned_total.fetch_add(w.pruned, Ordering::Relaxed);
            });
            return FusedStats {
                tier1_ns: tier1_total.load(Ordering::Relaxed),
                tier2_ns: tier2_total.load(Ordering::Relaxed),
                merge_ns: merge_total.load(Ordering::Relaxed),
                pruned: pruned_total.load(Ordering::Relaxed),
            };
        }

        struct Worker {
            votes: Vec<f64>,
            scratch: Vec<Confidence>,
            score_ns: u64,
            merge_ns: u64,
        }

        let process_block = |block: &mut [(usize, &mut [f32], &[u32])], w: &mut Worker| {
            let pairs: usize = block.iter().map(|(_, _, cand)| cand.len()).sum();
            let t0 = Instant::now();
            w.votes.clear();
            w.votes.resize(pairs * nv, 0.0);
            let mut cursor = 0usize;
            for (r, _, cand) in block.iter() {
                let s = ElementId(*r as u32);
                for &t in cand.iter() {
                    let cell = &mut w.votes[cursor..cursor + nv];
                    for (slot, voter) in cell.iter_mut().zip(voters) {
                        *slot = voter.vote(ctx, s, ElementId(t)).value();
                    }
                    cursor += nv;
                }
            }
            w.score_ns += t0.elapsed().as_nanos() as u64;

            let t1 = Instant::now();
            let mut votes = w.votes.chunks(nv);
            for (_, slice, cand) in block.iter_mut() {
                for &t in cand.iter() {
                    let pair_votes = votes.next().expect("one vote chunk per pair");
                    w.scratch.clear();
                    w.scratch
                        .extend(pair_votes.iter().map(|&v| Confidence::new(v)));
                    let merged = merger.merge(&w.scratch).value();
                    slice[t as usize] = if merged < floor { 0.0 } else { merged as f32 };
                }
            }
            w.merge_ns += t1.elapsed().as_nanos() as u64;
        };

        let new_worker = || Worker {
            votes: Vec::new(),
            scratch: Vec::with_capacity(nv),
            score_ns: 0,
            merge_ns: 0,
        };

        let mut work = work;
        let score_total = AtomicU64::new(0);
        let merge_total = AtomicU64::new(0);
        let queue = Mutex::new(work.chunks_mut(block_rows));
        self.engine.run_lanes(threads, |_| {
            let mut w = new_worker();
            loop {
                let claimed = queue.lock().expect("pipeline queue poisoned").next();
                let Some(block) = claimed else { break };
                // Cancellation point (lock released, block untouched).
                self.engine.checkpoint();
                let _chunk = obs::span(SpanKind::ScoreChunk, block.len() as u64);
                process_block(block, &mut w);
            }
            score_total.fetch_add(w.score_ns, Ordering::Relaxed);
            merge_total.fetch_add(w.merge_ns, Ordering::Relaxed);
        });
        FusedStats {
            tier1_ns: 0,
            tier2_ns: score_total.load(Ordering::Relaxed),
            merge_ns: merge_total.load(Ordering::Relaxed),
            pruned: 0,
        }
    }

    /// Stage 5: blend every parented cell of every *active* source row —
    /// one with any candidate — with its parents' *base* merged score
    /// (order-independent single pass). Within an active row every parented
    /// cell is blended (non-candidate cells blend their stored neutral `0.0`
    /// with the parents' scored base — densifying children of strong
    /// container pairs for free). Under the exhaustive policy every row is
    /// active.
    ///
    /// Only the base rows some active row reads — its parent's — are
    /// snapshotted before the blend, not the whole matrix: at paper scale
    /// that is the container rows, a small fraction of the sources.
    fn propagate(
        &self,
        source: &Schema,
        target: &Schema,
        matrix: &mut MatchMatrix,
        candidates: &CandidateSet,
    ) {
        let alpha = self.engine.propagation_alpha;
        let cols = matrix.cols();
        let active = |s: ElementId| !candidates.row(s.index()).is_empty();
        // Parented target columns as `(column, parent column)`.
        let parented: Vec<(usize, usize)> = target
            .elements()
            .iter()
            .enumerate()
            .filter_map(|(j, e)| e.parent.map(|pt| (j, pt.index())))
            .collect();
        // Snapshot slot of each parent row read, in first-read order.
        let mut slot = vec![u32::MAX; matrix.rows()];
        let mut slots = 0u32;
        let mut base: Vec<f64> = Vec::new();
        for s in source.ids().filter(|&s| active(s)) {
            let Some(ps) = source.element(s).parent else {
                continue;
            };
            if slot[ps.index()] == u32::MAX {
                slot[ps.index()] = slots;
                slots += 1;
                let row = &matrix.as_slice()[ps.index() * cols..(ps.index() + 1) * cols];
                base.extend(row.iter().map(|&v| Confidence::new(f64::from(v)).value()));
            }
        }
        for s in source.ids().filter(|&s| active(s)) {
            let Some(ps) = source.element(s).parent else {
                continue;
            };
            let at = slot[ps.index()] as usize * cols;
            let parent_row = &base[at..at + cols];
            let row = matrix.row_mut(s);
            for &(j, pt) in &parented {
                let own = f64::from(row[j]);
                row[j] = ((1.0 - alpha) * own + alpha * parent_row[pt]) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, Documentation, ElementKind, SchemaFormat, SchemaId};

    fn fixture() -> (Schema, Schema) {
        let mut a = Schema::new(SchemaId(1), "S_A", SchemaFormat::Relational);
        let p = a.add_root("Person", ElementKind::Table, DataType::None);
        let pid = a
            .add_child(p, "person_id", ElementKind::Column, DataType::Integer)
            .unwrap();
        a.set_doc(pid, Documentation::embedded("unique person identifier"))
            .unwrap();
        a.add_child(p, "last_name", ElementKind::Column, DataType::varchar(40))
            .unwrap();

        let mut b = Schema::new(SchemaId(2), "S_B", SchemaFormat::Xml);
        let p2 = b.add_root("PersonType", ElementKind::ComplexType, DataType::None);
        b.add_child(
            p2,
            "PersonIdentifier",
            ElementKind::XmlElement,
            DataType::Integer,
        )
        .unwrap();
        b.add_child(p2, "LastName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    /// Independent reference: every cell computed through the public
    /// per-pair path — `score_pair`, the floor, the `f32` narrowing, then
    /// the documented propagation blend — sharing nothing with the
    /// pipeline past the voter kernels. Row-major.
    fn per_pair_reference(
        engine: &MatchEngine,
        a: &Schema,
        b: &Schema,
        floor: Option<f64>,
        alpha: f64,
    ) -> Vec<f32> {
        let ctx = engine.build_context(a, b);
        let floor = floor.unwrap_or(f64::NEG_INFINITY);
        let base: Vec<f32> = a
            .ids()
            .flat_map(|s| b.ids().map(move |t| (s, t)))
            .map(|(s, t)| {
                let merged = engine.score_pair(&ctx, s, t).value();
                if merged < floor {
                    0.0
                } else {
                    merged as f32
                }
            })
            .collect();
        let mut expected = Vec::with_capacity(base.len());
        for s in a.ids() {
            for t in b.ids() {
                let own = f64::from(base[s.index() * b.len() + t.index()]);
                expected.push(match (a.element(s).parent, b.element(t).parent) {
                    (Some(ps), Some(pt)) => {
                        let par = f64::from(base[ps.index() * b.len() + pt.index()]);
                        ((1.0 - alpha) * own + alpha * par) as f32
                    }
                    _ => own as f32,
                });
            }
        }
        expected
    }

    #[test]
    fn timings_cover_all_stages() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(2);
        let (run, selected) = engine.pipeline().run_select(
            &a,
            &b,
            &Selection::OneToOne {
                min: Confidence::new(0.1),
            },
        );
        assert!(run.timings.total() >= run.timings.score);
        assert!(!selected.is_empty(), "fixture has obvious matches");
    }

    #[test]
    fn empty_sides_short_circuit() {
        let (a, _) = fixture();
        let empty = Schema::new(SchemaId(9), "E", SchemaFormat::Generic);
        let engine = MatchEngine::new();
        let run = engine.pipeline().run(&a, &empty);
        assert_eq!(run.pairs_considered, 0);
        assert!(run.matrix.is_empty());
    }

    /// The full match reproduces the per-pair reference exactly, floored
    /// and unfloored, at any lane count — the guard against block-indexing
    /// or scratch-reuse bugs in the fused Score/Merge pass. ("Dense" is the
    /// reference: every pair scored on its own.)
    #[test]
    fn exhaustive_blocked_run_is_byte_identical_to_dense() {
        let (a, b) = fixture();
        for floor in [None, Some(0.0)] {
            for threads in [1, 3] {
                let engine = MatchEngine::new()
                    .with_threads(threads)
                    .with_score_floor(floor)
                    .with_propagation(0.3);
                let blocked = engine
                    .pipeline()
                    .run_blocked(&a, &b, &BlockingPolicy::Exhaustive);
                assert_eq!(blocked.pairs_considered, a.len() * b.len());
                assert_eq!(blocked.pairs_scored, blocked.pairs_considered);
                assert_eq!(
                    blocked.matrix.as_slice(),
                    per_pair_reference(&engine, &a, &b, floor, 0.3).as_slice(),
                    "exhaustive blocking diverged from the per-pair reference \
                     (floor {floor:?}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn default_policy_scores_candidates_identically_to_dense_base() {
        let (a, b) = fixture();
        // α = 0 isolates Score/Merge: every candidate cell must carry the
        // exact dense score, every pruned cell the neutral zero.
        let engine = MatchEngine::new().with_threads(2).with_propagation(0.0);
        let dense = engine.pipeline().run(&a, &b);
        let blocked = engine
            .pipeline()
            .run_blocked(&a, &b, &BlockingPolicy::default());
        for s in a.ids() {
            for t in b.ids() {
                let got = blocked.matrix.get(s, t).value();
                if blocked.candidates.contains(s.index(), t.index()) {
                    assert_eq!(got, dense.matrix.get(s, t).value());
                } else {
                    assert_eq!(got, 0.0, "pruned pair must stay neutral");
                }
            }
        }
    }

    #[test]
    fn blocked_timings_report_the_block_stage() {
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(1);
        let run = engine
            .pipeline()
            .run_blocked(&a, &b, &BlockingPolicy::default());
        assert!(run.timings.block > Duration::ZERO);
        assert!(run.timings.total() >= run.timings.block);
        assert!(run.pairs_scored <= run.pairs_considered);
    }

    #[test]
    fn work_stealing_blocks_cover_all_rows() {
        // Thread counts far above the row count must still fill every cell.
        let (a, b) = fixture();
        let engine = MatchEngine::new().with_threads(64);
        let run = engine.pipeline().run(&a, &b);
        let serial = MatchEngine::new().with_threads(1).pipeline().run(&a, &b);
        for s in a.ids() {
            for t in b.ids() {
                assert_eq!(
                    run.matrix.get(s, t).value(),
                    serial.matrix.get(s, t).value()
                );
            }
        }
    }
}
