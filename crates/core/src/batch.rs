//! Batch match planning: one shared index and one worker pool for a whole
//! many-pair workload.
//!
//! The paper's enterprise scenarios are inherently *many-pair*: the
//! five-schema comprehensive vocabulary (§3.4) needs all 10 unordered pairs,
//! clustering for consolidation compares every registry schema with every
//! other, COI agreement matches each member against each member. Executing
//! those as a loop of independent two-schema runs repays per-pair costs that
//! are really per-*schema*: linguistic preparation (already cached by
//! [`FeatureCache`]) and — before this module — the token-blocking index,
//! which `generate_candidates` rebuilt twice per pair (once per probe
//! direction), i.e. `N·(N−1)` builds for an N-way effort that needs exactly
//! `N`.
//!
//! [`BatchPlanner::plan`] front-loads all shared work into a **Plan** stage
//! (reported as [`StageTimings::plan`]): every schema is prepared through
//! the engine's cache (concurrently, on the executor, with
//! [`FeatureCache::get_or_prepare`] coalescing racing preparations of the
//! same content) and indexed exactly once into a [`BatchIndex`] — the
//! multi-schema token index, partitioned per schema so each pair's IDF
//! weights are bit-for-bit those of a standalone run. [`MatchBatch::run`]
//! then executes all requested pairs concurrently on the persistent
//! [`Executor`]: pairs are job-level lanes claiming from the batch's
//! request queue, and each pair's Score/Merge stage fans its row chunks out
//! to the *same* pool, so an idle worker steals chunk work from the
//! straggler pair instead of idling at the tail (two-level scheduling; see
//! [`crate::exec`]).
//!
//! The contract mirrors the blocking index's: batching is an *execution*
//! change, never a semantics change. Per-pair results are byte-identical to
//! a sequential `run_blocked` loop over the same requests — pinned in
//! `tests/batch_pin.rs` across seeds, pair counts, and pool widths.

use crate::correspondence::MatchSet;
use crate::engine::{BlockedMatchResult, MatchEngine};
use crate::exec::Executor;
use crate::index::{idf_weight, BlockingPolicy, ElementTokenIndex};
use crate::pipeline::StageTimings;
use crate::prepare::{CacheStats, FeatureCache, PreparedSchema};
use crate::select::Selection;
use sm_schema::Schema;
use sm_text::intern::TokenId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One requested pairwise match: indices into the batch's schema list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRequest {
    /// Source-side schema slot.
    pub left: usize,
    /// Target-side schema slot.
    pub right: usize,
}

impl From<(usize, usize)> for PairRequest {
    fn from((left, right): (usize, usize)) -> Self {
        PairRequest { left, right }
    }
}

/// How the planner decides *which* requested pairs to execute — the
/// overlap-aware tier in front of per-pair blocking. Orthogonal to
/// [`BlockingPolicy`], which governs candidate generation *within* a pair:
/// the plan policy prunes whole pairs before any pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlanPolicy {
    /// Execute every requested pair — today's behavior, retained as the
    /// recall reference for the pruning policies.
    #[default]
    Exhaustive,
    /// Prune pairs whose IDF-weighted vocabulary-overlap upper bound (see
    /// [`OverlapEstimates`]) falls below `min_weight`. At
    /// [`PlanPolicy::provable`]'s threshold this drops exactly the
    /// zero-overlap pairs, whose selections are provably empty — the
    /// surviving plan reproduces the exhaustive selections byte for byte.
    OverlapThreshold {
        /// Minimum overlap bound a pair must reach to stay planned.
        min_weight: f64,
    },
    /// Cluster the schemata by overlap distance (single-linkage connected
    /// components at the cut) and match densely only *within* clusters;
    /// across clusters, only the per-cluster hub schemata meet. A lossy,
    /// much sparser plan for registry-scale N — the [`ClusterPlan`] is
    /// exposed on the batch for inspection.
    ClusterFirst {
        /// Merge schemata into one cluster while their overlap distance
        /// ([`OverlapEstimates::distance`]) is at most this cut.
        max_distance: f64,
    },
}

impl PlanPolicy {
    /// The provably lossless pruning threshold: keep every pair sharing at
    /// least one blocking token. Each shared token weighs at least 1.0
    /// ([`idf_weight`] at `df == n`), so any positive threshold at or below
    /// 1.0 prunes exactly the bound-zero pairs — and a pair with *no*
    /// shared blocking feature has an empty candidate set (token blocking,
    /// exact-name rescue, and child rescue all join on shared features), an
    /// all-zero matrix, and therefore empty selections.
    pub fn provable() -> Self {
        PlanPolicy::OverlapThreshold {
            min_weight: f64::MIN_POSITIVE,
        }
    }
}

/// IDF-weighted vocabulary-overlap upper bounds for all `n²` schema pairs,
/// computed in **one walk** over the schema-level token postings — no
/// per-pair probes. Entry `(i, j)` bounds the total IDF weight of blocking
/// tokens schemata `i` and `j` share: exactly that weight when built
/// uncapped, an upper bound when frequent tokens are capped into the
/// shared `ubiquitous` mass ([`OverlapEstimates::from_prepared_capped`]).
///
/// The walk reuses the same per-schema blocking vocabulary the shared
/// [`BatchIndex`] is built from (each schema's distinct
/// [`PreparedSchema::block_features_of`] union), weighted by the same
/// smoothed IDF shape ([`idf_weight`]) at schema granularity — so a zero
/// bound means *zero shared blocking tokens*, the condition under which a
/// pair's candidate set is provably empty.
#[derive(Debug, Clone)]
pub struct OverlapEstimates {
    n: usize,
    /// Row-major `n × n`; the diagonal holds each schema's total distinct
    /// blocking-token weight (its self-overlap).
    bounds: Vec<f64>,
    /// Weight mass of tokens more frequent than the df cap, charged to
    /// every off-diagonal bound instead of walked pair-by-pair.
    ubiquitous: f64,
}

impl OverlapEstimates {
    /// Exact overlap weights from prepared schemata (no df cap).
    ///
    /// # Panics
    /// Panics when the preparations do not share one token arena (ids
    /// would not be comparable across schemata).
    pub fn from_prepared(prepared: &[Arc<PreparedSchema>]) -> Self {
        Self::from_prepared_capped(prepared, usize::MAX)
    }

    /// Like [`Self::from_prepared`], but tokens appearing in more than
    /// `df_cap` schemata are not walked pair-by-pair: their weight joins a
    /// shared `ubiquitous` mass added to every off-diagonal bound. Bounds
    /// stay upper bounds (they can only grow); the walk drops from
    /// `O(df²)` to `O(df)` for the frequent tail.
    pub fn from_prepared_capped(prepared: &[Arc<PreparedSchema>], df_cap: usize) -> Self {
        let n = prepared.len();
        if let Some(first) = prepared.first() {
            for p in prepared {
                assert!(
                    Arc::ptr_eq(p.arena(), first.arena()),
                    "overlap estimation requires one shared token arena"
                );
            }
        }
        // Distinct blocking tokens per schema, then one global sort: the
        // posting list of every token is a contiguous run of (token, slot)
        // pairs, walked exactly once.
        let mut postings: Vec<(TokenId, u32)> = Vec::new();
        for (slot, p) in prepared.iter().enumerate() {
            let mut ids: Vec<TokenId> = (0..p.len())
                .flat_map(|e| p.block_features_of(e).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            postings.extend(ids.into_iter().map(|t| (t, slot as u32)));
        }
        postings.sort_unstable();

        // CSR over the sorted pairs: one contiguous slot run per distinct
        // token, no per-token allocation.
        let slots: Vec<u32> = postings.iter().map(|&(_, s)| s).collect();
        let mut offsets: Vec<usize> = vec![0];
        for i in 1..postings.len() {
            if postings[i].0 != postings[i - 1].0 {
                offsets.push(i);
            }
        }
        offsets.push(postings.len());

        let nf = n as f64;
        Self::from_token_postings(
            n,
            offsets.windows(2).map(|w| {
                let run = &slots[w[0]..w[1]];
                (idf_weight(nf, run.len() as f64), run)
            }),
            df_cap,
        )
    }

    /// Build bounds from arbitrary weighted token postings — `(weight,
    /// ascending slots holding the token)` per distinct token. This is the
    /// generic walk the enterprise repository index reuses with its own
    /// live-document IDF weights.
    pub fn from_token_postings<S>(
        n: usize,
        postings: impl IntoIterator<Item = (f64, S)>,
        df_cap: usize,
    ) -> Self
    where
        S: AsRef<[u32]>,
    {
        let mut bounds = vec![0.0f64; n * n];
        let mut ubiquitous = 0.0f64;
        for (w, slots) in postings {
            let slots = slots.as_ref();
            let df = slots.len();
            if df == 0 {
                continue;
            }
            if df > df_cap {
                // Too frequent to walk quadratically: charge the weight to
                // the shared mass (every off-diagonal bound) and to the
                // self-weight of the slots that actually hold it.
                ubiquitous += w;
                for &s in slots {
                    bounds[(s as usize) * n + s as usize] += w;
                }
                continue;
            }
            for (k, &a) in slots.iter().enumerate() {
                let ai = a as usize;
                bounds[ai * n + ai] += w;
                for &b in &slots[k + 1..] {
                    let bi = b as usize;
                    bounds[ai * n + bi] += w;
                    bounds[bi * n + ai] += w;
                }
            }
        }
        OverlapEstimates {
            n,
            bounds,
            ubiquitous,
        }
    }

    /// Number of schemata covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no schemata were estimated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// A schema's total distinct blocking-token weight (its self-overlap
    /// bound — the maximum any pair involving it can reach exactly).
    pub fn self_weight(&self, i: usize) -> f64 {
        self.bounds[i * self.n + i]
    }

    /// Upper bound on the shared blocking-vocabulary weight of pair
    /// `(i, j)`. Exact when built uncapped; `bound == 0` always means the
    /// pair shares no blocking token at all.
    pub fn bound(&self, i: usize, j: usize) -> f64 {
        if i == j {
            self.self_weight(i)
        } else {
            self.bounds[i * self.n + j] + self.ubiquitous
        }
    }

    /// Overlap distance in `[0, 1]`: `1 − bound/min(self_i, self_j)` —
    /// zero when the smaller vocabulary is fully covered by the shared
    /// bound, one when nothing is shared (or a side is empty).
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let denom = self.self_weight(i).min(self.self_weight(j));
        if denom <= 0.0 {
            return 1.0;
        }
        (1.0 - self.bound(i, j) / denom).clamp(0.0, 1.0)
    }
}

/// The clustering a [`PlanPolicy::ClusterFirst`] plan committed to:
/// single-linkage connected components of the overlap-distance graph at
/// the policy's cut, plus one elected hub per component.
///
/// Single-linkage at a max-distance cut is exactly connected components of
/// the "distance ≤ cut" graph, so the planner computes it with a
/// union-find instead of a full agglomerative merge — the enterprise
/// layer's `DistanceMatrix` agglomerative path produces the identical
/// partition (pinned in its tests).
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Component id of each schema slot (components numbered by first
    /// member in slot order).
    pub component_of: Vec<usize>,
    /// Hub slot of each component: the member with the greatest total
    /// within-component overlap bound (ties to the lowest slot). Hubs are
    /// the only schemata matched *across* components.
    pub hubs: Vec<usize>,
}

impl ClusterPlan {
    /// Cluster by overlap distance at `max_distance` and elect hubs.
    pub fn from_overlap(overlap: &OverlapEstimates, max_distance: f64) -> Self {
        let n = overlap.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if overlap.distance(i, j) <= max_distance {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri.max(rj)] = ri.min(rj);
                    }
                }
            }
        }
        // Number components by first-seen slot order.
        let mut component_of = vec![usize::MAX; n];
        let mut roots: Vec<usize> = Vec::new();
        for (i, slot) in component_of.iter_mut().enumerate() {
            let r = find(&mut parent, i);
            let c = match roots.iter().position(|&x| x == r) {
                Some(c) => c,
                None => {
                    roots.push(r);
                    roots.len() - 1
                }
            };
            *slot = c;
        }
        // Hub election: maximize total within-component bound, ties to the
        // lowest slot (the iteration order guarantees that).
        let mut hubs = vec![usize::MAX; roots.len()];
        let mut hub_score = vec![f64::NEG_INFINITY; roots.len()];
        for i in 0..n {
            let c = component_of[i];
            let score: f64 = (0..n)
                .filter(|&j| j != i && component_of[j] == c)
                .map(|j| overlap.bound(i, j))
                .sum();
            if score > hub_score[c] {
                hub_score[c] = score;
                hubs[c] = i;
            }
        }
        ClusterPlan { component_of, hubs }
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.hubs.len()
    }

    /// Whether the plan keeps pair `(left, right)`: same component, or
    /// both slots are their components' hubs.
    pub fn keeps(&self, left: usize, right: usize) -> bool {
        let (cl, cr) = (self.component_of[left], self.component_of[right]);
        cl == cr || (self.hubs[cl] == left && self.hubs[cr] == right)
    }
}

/// Wall-clock split of the Plan stage's overlap-aware work — the
/// estimate/cluster/schedule sub-components of [`StageTimings::plan`]
/// (all zero under [`PlanPolicy::Exhaustive`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanBreakdown {
    /// Building the [`OverlapEstimates`] (the one posting walk).
    pub estimate: Duration,
    /// Clustering the estimates and electing hubs (`ClusterFirst` only).
    pub cluster: Duration,
    /// Filtering the request list through the plan policy.
    pub schedule: Duration,
}

/// Plans batches over one engine's configuration (obtained from
/// [`MatchEngine::batch`]).
pub struct BatchPlanner<'e> {
    engine: &'e MatchEngine,
    policy: BlockingPolicy,
    plan_policy: PlanPolicy,
}

impl<'e> BatchPlanner<'e> {
    pub(crate) fn new(engine: &'e MatchEngine) -> Self {
        BatchPlanner {
            engine,
            policy: BlockingPolicy::default(),
            plan_policy: PlanPolicy::default(),
        }
    }

    /// Use a specific blocking policy for every pair of the batch
    /// ([`BlockingPolicy::Exhaustive`] reproduces [`MatchEngine::run`] byte
    /// for byte).
    pub fn with_policy(mut self, policy: BlockingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a specific [`PlanPolicy`] for pair scheduling
    /// ([`PlanPolicy::Exhaustive`] keeps every requested pair).
    pub fn with_plan_policy(mut self, plan_policy: PlanPolicy) -> Self {
        self.plan_policy = plan_policy;
        self
    }

    /// Plan a batch: prepare all `schemas` and build the shared
    /// [`BatchIndex`] up front (the Plan stage), recording the requested
    /// pairs for [`MatchBatch::run`].
    ///
    /// # Panics
    /// Panics when a request indexes outside `schemas`.
    pub fn plan<'s>(
        &self,
        schemas: &[&'s Schema],
        requests: impl IntoIterator<Item = impl Into<PairRequest>>,
    ) -> MatchBatch<'e, 's> {
        let requests: Vec<PairRequest> = requests.into_iter().map(Into::into).collect();
        for r in &requests {
            assert!(
                r.left < schemas.len() && r.right < schemas.len(),
                "pair request ({}, {}) outside the {}-schema batch",
                r.left,
                r.right,
                schemas.len()
            );
        }

        let cache = self.engine.feature_cache();
        let exec = self.engine.executor();
        let started = Instant::now();
        let stats_before = cache.stats();
        // The engine's thread cap bounds planning lanes exactly like the
        // execute phase's job lanes. An exhaustive batch never probes an
        // index (candidate generation short-circuits to the full cross
        // product), so building one would be dead work.
        let prepared = prepare_schemas(cache, exec, self.engine.threads, schemas);
        let index = if matches!(self.policy, BlockingPolicy::Exhaustive) {
            BatchIndex::empty()
        } else {
            BatchIndex::build(exec, self.engine.threads, &prepared)
        };
        let stats_after = cache.stats();

        // Overlap-aware scheduling: estimate all-pairs overlap bounds in
        // one posting walk, optionally cluster, then filter the request
        // list — all still inside the Plan stage's wall clock, with the
        // sub-stages split out in the breakdown.
        let mut breakdown = PlanBreakdown::default();
        let mut overlap = None;
        let mut clusters = None;
        let mut pruned: Vec<PairRequest> = Vec::new();
        let mut requests = requests;
        if self.plan_policy != PlanPolicy::Exhaustive {
            let t = Instant::now();
            let estimates = OverlapEstimates::from_prepared(&prepared);
            breakdown.estimate = t.elapsed();
            match self.plan_policy {
                PlanPolicy::Exhaustive => unreachable!(),
                PlanPolicy::OverlapThreshold { min_weight } => {
                    let t = Instant::now();
                    let (keep, drop) = requests
                        .into_iter()
                        .partition(|r| estimates.bound(r.left, r.right) >= min_weight);
                    (requests, pruned) = (keep, drop);
                    breakdown.schedule = t.elapsed();
                }
                PlanPolicy::ClusterFirst { max_distance } => {
                    let t = Instant::now();
                    let plan = ClusterPlan::from_overlap(&estimates, max_distance);
                    breakdown.cluster = t.elapsed();
                    let t = Instant::now();
                    let (keep, drop) = requests
                        .into_iter()
                        .partition(|r| plan.keeps(r.left, r.right));
                    (requests, pruned) = (keep, drop);
                    breakdown.schedule = t.elapsed();
                    clusters = Some(plan);
                }
            }
            overlap = Some(estimates);
        }
        let plan = started.elapsed();

        MatchBatch {
            engine: self.engine,
            policy: self.policy,
            schemas: schemas.to_vec(),
            prepared,
            index,
            requests,
            pruned,
            plan,
            breakdown,
            overlap,
            clusters,
            cache: delta_stats(stats_before, stats_after),
        }
    }

    /// Plan every unordered pair `(i, j)` with `i < j` — the N-way shape.
    pub fn plan_all_pairs<'s>(&self, schemas: &[&'s Schema]) -> MatchBatch<'e, 's> {
        let n = schemas.len();
        let requests =
            (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| PairRequest { left: i, right: j }));
        self.plan(schemas, requests)
    }
}

/// Counter movement of the feature cache across one batch phase.
/// `hits`/`misses`/`evictions` are after−before deltas; `entries` and
/// `resident_bytes` are the absolute occupancy at the end of the phase (a
/// gauge has no meaningful delta).
fn delta_stats(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        evictions: after.evictions.saturating_sub(before.evictions),
        entries: after.entries,
        resident_bytes: after.resident_bytes,
    }
}

/// Prepare many schemata through one cache, concurrently on the executor
/// (at most `parallelism` lanes — callers bound by an engine pass its
/// thread cap; standalone bulk consumers pass `exec.threads()`).
///
/// Lanes claim schema slots from a shared queue;
/// [`FeatureCache::get_or_prepare`] guarantees a fingerprint is built at
/// most once even when two lanes (or two batches) race on equal content.
/// Exposed for the enterprise layer's bulk operations (clustering,
/// feasibility, repository warming), whose per-schema loops this replaces.
pub fn prepare_schemas(
    cache: &FeatureCache,
    exec: &Executor,
    parallelism: usize,
    schemas: &[&Schema],
) -> Vec<Arc<PreparedSchema>> {
    exec.run_map(parallelism, schemas, |_, schema| {
        cache.get_or_prepare(schema)
    })
}

/// [`prepare_schemas`] against the process-wide cache and executor at full
/// pool width — the standalone bulk-prepare the enterprise operators
/// (clustering, feasibility, repository warming) share.
pub fn prepare_schemas_global(schemas: &[&Schema]) -> Vec<Arc<PreparedSchema>> {
    let exec = Executor::global();
    prepare_schemas(FeatureCache::global(), exec, exec.threads(), schemas)
}

/// The batch's shared multi-schema token index: every schema of the batch
/// indexed exactly once, partitioned per schema.
///
/// Partitioning is what keeps batching invisible to results: blocking
/// weights are IDF-smoothed per opposing schema (`ln((n+1)/(df+1))+1` with
/// that schema's `n` and `df`), so candidate generation for a pair reads
/// only that pair's two partitions and reproduces the standalone
/// [`ElementTokenIndex`] probe bit for bit — while an N-way batch performs
/// `N` index builds instead of the sequential loop's `N·(N−1)`.
#[derive(Debug)]
pub struct BatchIndex {
    per_schema: Vec<ElementTokenIndex>,
}

impl BatchIndex {
    /// Index every prepared schema, concurrently on the executor (at most
    /// `parallelism` lanes). Each schema's build further fans its element
    /// chunks out to the same pool ([`ElementTokenIndex::build_parallel`]),
    /// so a small batch of large schemata still fills every lane.
    pub fn build(exec: &Executor, parallelism: usize, prepared: &[Arc<PreparedSchema>]) -> Self {
        BatchIndex {
            per_schema: exec.run_map(parallelism, prepared, |_, prepared| {
                ElementTokenIndex::build_parallel(prepared, exec, parallelism)
            }),
        }
    }

    /// An index over no schemata — what an exhaustive batch carries, since
    /// its candidate generation never probes one.
    pub fn empty() -> Self {
        BatchIndex {
            per_schema: Vec::new(),
        }
    }

    /// Number of indexed schemata.
    pub fn len(&self) -> usize {
        self.per_schema.len()
    }

    /// True when the batch holds no schemata.
    pub fn is_empty(&self) -> bool {
        self.per_schema.is_empty()
    }

    /// The partition of one schema slot.
    pub fn schema(&self, slot: usize) -> &ElementTokenIndex {
        &self.per_schema[slot]
    }

    /// Surrender the per-schema partitions (for callers that keep standing
    /// index state across executions, like the incremental N-way path).
    pub fn into_per_schema(self) -> Vec<ElementTokenIndex> {
        self.per_schema
    }

    /// Append one more schema's partition (the incremental N-way path
    /// indexes schema N+1 against the standing batch artifacts).
    pub fn push(&mut self, index: ElementTokenIndex) {
        self.per_schema.push(index);
    }
}

/// A planned batch: prepared schemata, the shared index, and the request
/// list, ready to execute (possibly several times).
pub struct MatchBatch<'e, 's> {
    engine: &'e MatchEngine,
    policy: BlockingPolicy,
    schemas: Vec<&'s Schema>,
    prepared: Vec<Arc<PreparedSchema>>,
    index: BatchIndex,
    requests: Vec<PairRequest>,
    pruned: Vec<PairRequest>,
    plan: Duration,
    breakdown: PlanBreakdown,
    overlap: Option<OverlapEstimates>,
    clusters: Option<ClusterPlan>,
    cache: CacheStats,
}

impl MatchBatch<'_, '_> {
    /// The planned pair requests, in execution-result order (after any
    /// plan-policy pruning — see [`Self::pruned`] for what was dropped).
    pub fn requests(&self) -> &[PairRequest] {
        &self.requests
    }

    /// Requests the plan policy pruned, in original request order (empty
    /// under [`PlanPolicy::Exhaustive`]).
    pub fn pruned(&self) -> &[PairRequest] {
        &self.pruned
    }

    /// The Plan stage's estimate/cluster/schedule wall-clock split (all
    /// zero under [`PlanPolicy::Exhaustive`]).
    pub fn plan_breakdown(&self) -> PlanBreakdown {
        self.breakdown
    }

    /// The overlap bounds the plan policy consulted (`None` under
    /// [`PlanPolicy::Exhaustive`], which never estimates).
    pub fn overlap(&self) -> Option<&OverlapEstimates> {
        self.overlap.as_ref()
    }

    /// The committed clustering (`Some` only under
    /// [`PlanPolicy::ClusterFirst`]).
    pub fn clusters(&self) -> Option<&ClusterPlan> {
        self.clusters.as_ref()
    }

    /// Surrender the planned artifacts — prepared schemata and the shared
    /// index — for callers that keep standing state across executions
    /// (the incremental N-way consolidation path).
    pub fn into_plan_parts(self) -> (Vec<Arc<PreparedSchema>>, BatchIndex) {
        (self.prepared, self.index)
    }

    /// The prepared schemata, in schema-list order.
    pub fn prepared(&self) -> &[Arc<PreparedSchema>] {
        &self.prepared
    }

    /// The shared multi-schema token index ([`BatchIndex::empty`] for an
    /// exhaustive batch, which never probes one).
    pub fn index(&self) -> &BatchIndex {
        &self.index
    }

    /// Wall-clock time of the Plan stage (bulk prepare + index build).
    pub fn plan_time(&self) -> Duration {
        self.plan
    }

    /// Execute every requested pair concurrently on the engine's executor.
    pub fn run(&self) -> BatchResult {
        self.execute(None)
    }

    /// [`Self::run`], additionally applying `selection` to every pair's
    /// matrix (the Select stage, timed per pair).
    pub fn run_select(&self, selection: &Selection) -> BatchResult {
        self.execute(Some(selection))
    }

    /// Selection-only execution: apply `selection` to every pair and keep
    /// just the selected correspondences plus lightweight stats — each
    /// pair's matrix and candidate set drop inside the job, right after
    /// selection. This is the memory-bounded path for bulk consumers that
    /// never read scores (n-way population, repository bulk recording, COI
    /// evidence): a [`Self::run_select`] over P pairs retains P full
    /// matrices until its result drops, where this holds at most
    /// one-per-lane transiently.
    pub fn run_select_only(&self, selection: &Selection) -> BatchSelectResult {
        let started = Instant::now();
        let pairs: Vec<BatchSelection> = self.engine.run_map(
            self.engine.threads,
            &self.requests,
            |_, &PairRequest { left, right }| {
                let mut run = self.run_pair(left, right);
                let select_started = Instant::now();
                let selected = selection.apply(&run.matrix);
                run.timings.select = select_started.elapsed();
                BatchSelection {
                    left,
                    right,
                    selected,
                    pairs_considered: run.pairs_considered,
                    pairs_scored: run.pairs_scored,
                    timings: run.timings,
                }
            },
        );
        let mut timings = StageTimings {
            plan: self.plan,
            ..StageTimings::default()
        };
        for p in &pairs {
            timings.accumulate(&p.timings);
        }
        BatchSelectResult {
            pairs,
            timings,
            cache: self.cache,
            elapsed: started.elapsed(),
        }
    }

    /// One pair's blocked run against the batch's shared preparation and
    /// index (exhaustive batches carry no index — candidate generation
    /// short-circuits before probing).
    fn run_pair(&self, left: usize, right: usize) -> crate::pipeline::BlockedRun {
        // Pair-job cancellation point: a tripped token stops between pairs
        // before this pair touches the cache or allocates a matrix.
        self.engine.checkpoint();
        crate::obs::add(crate::obs::Counter::PairJobs, 1);
        let _job = crate::obs::span(
            crate::obs::SpanKind::PairJob,
            ((left as u64) << 32) | right as u64,
        );
        let indices = (!matches!(self.policy, BlockingPolicy::Exhaustive))
            .then(|| (self.index.schema(left), self.index.schema(right)));
        self.engine.pipeline().run_blocked_prepared(
            self.schemas[left],
            self.schemas[right],
            &self.prepared[left],
            &self.prepared[right],
            indices,
            &self.policy,
        )
    }

    fn execute(&self, selection: Option<&Selection>) -> BatchResult {
        let started = Instant::now();

        // Job-level lanes claim whole pairs; each pair's Score/Merge fans
        // chunk lanes out to the same pool (see the module docs).
        let pairs: Vec<BatchPairResult> = self.engine.run_map(
            self.engine.threads,
            &self.requests,
            |_, &PairRequest { left, right }| {
                let pair_started = Instant::now();
                let mut run = self.run_pair(left, right);
                let selected = selection.map(|sel| {
                    let select_started = Instant::now();
                    let set = sel.apply(&run.matrix);
                    run.timings.select = select_started.elapsed();
                    set
                });
                BatchPairResult {
                    left,
                    right,
                    selected,
                    result: BlockedMatchResult::from_run(run, pair_started),
                }
            },
        );
        let mut timings = StageTimings {
            plan: self.plan,
            ..StageTimings::default()
        };
        for p in &pairs {
            timings.accumulate(&p.result.timings);
        }
        BatchResult {
            pairs,
            timings,
            cache: self.cache,
            elapsed: started.elapsed(),
        }
    }
}

/// One pair's outcome within a batch.
#[derive(Debug)]
pub struct BatchPairResult {
    /// Source-side schema slot of the request.
    pub left: usize,
    /// Target-side schema slot of the request.
    pub right: usize,
    /// The pair's match result — byte-identical to a standalone
    /// [`MatchEngine::run_blocked`] under the batch's policy.
    pub result: BlockedMatchResult,
    /// Selected correspondences when the batch ran with a selection.
    pub selected: Option<MatchSet>,
}

/// Outcome of one batch execution.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-pair results, in request order.
    pub pairs: Vec<BatchPairResult>,
    /// Aggregated stage timings: the batch's Plan stage plus the sum of
    /// every pair's per-stage times (CPU-time-like across concurrent pairs,
    /// so stages remain comparable with sequential runs).
    pub timings: StageTimings,
    /// Feature-cache counter movement during planning — how much of the
    /// preparation was amortized (`hits`) versus newly built (`misses`),
    /// and whether planning displaced resident entries (`evictions`).
    ///
    /// `hits`/`misses`/`evictions` are before/after deltas of the engine's
    /// cache counters; `entries` is the absolute resident count after
    /// planning (occupancy, not movement). On a *shared* cache (the global
    /// default) traffic from other engines planning concurrently is
    /// attributed to this batch too — treat the deltas as exact only for a
    /// private cache or an otherwise-idle process, and as an upper bound
    /// under concurrency.
    pub cache: CacheStats,
    /// Wall-clock time of the execution phase (planning is
    /// [`MatchBatch::plan_time`]).
    pub elapsed: Duration,
}

impl BatchResult {
    /// Total candidate pairs scored across the batch.
    pub fn pairs_scored(&self) -> usize {
        self.pairs.iter().map(|p| p.result.pairs_scored).sum()
    }

    /// Total cross-product size across the batch.
    pub fn pairs_considered(&self) -> usize {
        self.pairs.iter().map(|p| p.result.pairs_considered).sum()
    }
}

/// One pair's selection-only outcome within a batch
/// ([`MatchBatch::run_select_only`]).
#[derive(Debug)]
pub struct BatchSelection {
    /// Source-side schema slot of the request.
    pub left: usize,
    /// Target-side schema slot of the request.
    pub right: usize,
    /// The selected correspondences — identical to applying the selection
    /// to the pair's [`MatchEngine::run_blocked`] matrix.
    pub selected: MatchSet,
    /// Size of the pair's full cross product.
    pub pairs_considered: usize,
    /// Candidate pairs the voter panel actually scored.
    pub pairs_scored: usize,
    /// Per-stage wall-clock timings of the pair.
    pub timings: StageTimings,
}

/// Outcome of one selection-only batch execution (matrices were dropped
/// per pair; see [`MatchBatch::run_select_only`]).
#[derive(Debug)]
pub struct BatchSelectResult {
    /// Per-pair selections, in request order.
    pub pairs: Vec<BatchSelection>,
    /// Aggregated stage timings (Plan plus per-pair sums, as in
    /// [`BatchResult::timings`]).
    pub timings: StageTimings,
    /// Feature-cache counter movement during planning (same semantics and
    /// caveats as [`BatchResult::cache`]).
    pub cache: CacheStats,
    /// Wall-clock time of the execution phase.
    pub elapsed: Duration,
}

impl BatchSelectResult {
    /// Total candidate pairs scored across the batch.
    pub fn pairs_scored(&self) -> usize {
        self.pairs.iter().map(|p| p.pairs_scored).sum()
    }

    /// Total cross-product size across the batch.
    pub fn pairs_considered(&self) -> usize {
        self.pairs.iter().map(|p| p.pairs_considered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use sm_schema::{DataType, ElementKind, SchemaFormat, SchemaId};
    use sm_text::normalize::Normalizer;

    fn schema(id: u32, words: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root("Record", ElementKind::Group, DataType::None);
        for w in words {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    fn trio() -> Vec<Schema> {
        vec![
            schema(1, &["begin_date", "location_name", "remarks"]),
            schema(2, &["BeginDate", "LocationName", "priority"]),
            schema(3, &["start_date", "site_name", "severity"]),
        ]
    }

    fn engine() -> MatchEngine {
        MatchEngine::new().with_normalizer(Normalizer::new())
    }

    #[test]
    fn batch_matches_sequential_run_blocked_loop() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine().with_threads(2);
        let batch = engine.batch().plan_all_pairs(&refs);
        let result = batch.run();
        assert_eq!(result.pairs.len(), 3);
        for p in &result.pairs {
            let standalone =
                engine.run_blocked(refs[p.left], refs[p.right], &BlockingPolicy::default());
            assert_eq!(
                p.result.matrix.as_slice(),
                standalone.matrix.as_slice(),
                "batched pair ({}, {}) diverged from the standalone run",
                p.left,
                p.right
            );
            assert_eq!(p.result.pairs_scored, standalone.pairs_scored);
        }
        assert!(result.timings.plan > Duration::ZERO);
        assert!(result.timings.total() >= result.timings.plan);
    }

    /// The batch planner's per-pair runs go through `run_blocked_prepared`,
    /// so a floored engine's cascade applies to every pair of the batch and
    /// the aggregated timings carry the tier counters.
    #[test]
    fn batch_inherits_cascade_and_aggregates_tier_counters() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let cascade = engine().with_threads(2).with_score_floor(Some(0.0));
        let reference = engine()
            .with_threads(2)
            .with_score_floor(Some(0.0))
            .with_cascade(false);
        let got = cascade.batch().plan_all_pairs(&refs).run();
        let want = reference.batch().plan_all_pairs(&refs).run();
        for (g, w) in got.pairs.iter().zip(&want.pairs) {
            assert_eq!(
                g.result.matrix.as_slice(),
                w.result.matrix.as_slice(),
                "cascade diverged on batched pair ({}, {})",
                g.left,
                g.right
            );
        }
        assert_eq!(
            got.timings.pairs_pruned + got.timings.pairs_full,
            got.pairs_scored() as u64,
            "aggregated tier counters must partition the scored pairs"
        );
        assert_eq!(want.timings.pairs_pruned, 0);
    }

    #[test]
    fn plan_amortizes_preparation() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        assert_eq!(batch.prepared().len(), 3);
        assert_eq!(batch.index().len(), 3);
        assert_eq!(batch.requests().len(), 3);
        // Cold plan: every schema prepared exactly once, no re-preparation
        // per pair.
        assert_eq!(batch.cache.misses, 3);
        // A second plan over the same schemata is all hits.
        let batch2 = engine.batch().plan_all_pairs(&refs);
        assert_eq!(batch2.cache.misses, 0);
        assert_eq!(batch2.cache.hits, 3);
    }

    #[test]
    fn run_select_attaches_selections() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let result = engine.batch().plan_all_pairs(&refs).run_select(&selection);
        for p in &result.pairs {
            let expected = selection.apply(&p.result.matrix);
            let got = p.selected.as_ref().expect("selection ran");
            assert_eq!(got.len(), expected.len());
        }
    }

    #[test]
    fn run_select_only_matches_run_select() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let batch = engine.batch().plan_all_pairs(&refs);
        let full = batch.run_select(&selection);
        let lean = batch.run_select_only(&selection);
        assert_eq!(full.pairs.len(), lean.pairs.len());
        for (f, l) in full.pairs.iter().zip(&lean.pairs) {
            assert_eq!((f.left, f.right), (l.left, l.right));
            assert_eq!(f.result.pairs_scored, l.pairs_scored);
            let f_sel = f.selected.as_ref().expect("selection ran");
            assert_eq!(f_sel.len(), l.selected.len());
            for (a, b) in f_sel.all().iter().zip(l.selected.all()) {
                assert_eq!((a.source, a.target), (b.source, b.target));
            }
        }
    }

    #[test]
    fn explicit_requests_execute_in_order() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let result = engine.batch().plan(&refs, [(2usize, 0usize), (0, 1)]).run();
        assert_eq!(result.pairs.len(), 2);
        assert_eq!((result.pairs[0].left, result.pairs[0].right), (2, 0));
        assert_eq!((result.pairs[1].left, result.pairs[1].right), (0, 1));
        assert_eq!(result.pairs_considered(), 2 * 4 * 4);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = engine();
        let result = engine
            .batch()
            .plan(&[] as &[&Schema], Vec::<PairRequest>::new())
            .run();
        assert!(result.pairs.is_empty());
        assert_eq!(result.pairs_scored(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_request_rejected() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let _ = engine().batch().plan(&refs, [(0usize, 7usize)]);
    }

    /// Two disjoint-vocabulary islands plus the trio: zero-bound pairs are
    /// exactly the cross-island ones. The islands' root element must not be
    /// the trio's shared "Record" — roots block like any other element.
    fn two_islands() -> Vec<Schema> {
        fn island(id: u32, words: &[&str]) -> Schema {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root("Starship", ElementKind::Group, DataType::None);
            for w in words {
                s.add_child(r, *w, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        }
        let mut schemas = trio();
        schemas.push(island(7, &["flux_capacitor", "warp_coil", "plasma_vent"]));
        schemas.push(island(8, &["FluxCapacitor", "WarpCoil", "dilithium"]));
        schemas
    }

    #[test]
    fn overlap_bounds_are_exact_when_uncapped() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        let est = batch.overlap().expect("policy estimates");
        let prepared = batch.prepared();
        let n = prepared.len() as f64;
        // Recompute every pair's true shared-vocabulary weight from the
        // prepared block features by brute force.
        let vocab: Vec<Vec<TokenId>> = prepared
            .iter()
            .map(|p| {
                let mut ids: Vec<TokenId> = (0..p.len())
                    .flat_map(|e| p.block_features_of(e).iter().copied())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let df_of = |t: TokenId| vocab.iter().filter(|v| v.binary_search(&t).is_ok()).count();
        for i in 0..prepared.len() {
            for j in (i + 1)..prepared.len() {
                let shared: f64 = vocab[i]
                    .iter()
                    .filter(|t| vocab[j].binary_search(t).is_ok())
                    .map(|&t| idf_weight(n, df_of(t) as f64))
                    .sum();
                let bound = est.bound(i, j);
                assert!(
                    (bound - shared).abs() < 1e-9,
                    "uncapped bound({i}, {j}) = {bound} must equal true shared weight {shared}"
                );
            }
        }
        // Cross-island pairs share nothing.
        assert_eq!(est.bound(0, 3), 0.0);
        assert_eq!(est.bound(2, 4), 0.0);
        assert!(est.bound(3, 4) > 0.0, "islands share flux/warp vocabulary");
    }

    #[test]
    fn capped_bounds_dominate_exact_bounds() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        let exact = OverlapEstimates::from_prepared(batch.prepared());
        let capped = OverlapEstimates::from_prepared_capped(batch.prepared(), 1);
        for i in 0..refs.len() {
            for j in 0..refs.len() {
                assert!(
                    capped.bound(i, j) >= exact.bound(i, j) - 1e-12,
                    "capped bound({i}, {j}) must dominate the exact bound"
                );
            }
            assert!(
                (capped.self_weight(i) - exact.self_weight(i)).abs() < 1e-9,
                "self weights are never capped away"
            );
        }
    }

    #[test]
    fn provable_prune_drops_only_empty_pairs_and_keeps_selections() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine().with_threads(2);
        let selection = Selection::OneToOne {
            min: Confidence::new(0.2),
        };
        let exhaustive = engine.batch().plan_all_pairs(&refs);
        let pruned = engine
            .batch()
            .with_plan_policy(PlanPolicy::provable())
            .plan_all_pairs(&refs);
        // Trio×island pairs (6 of them) share no blocking token.
        assert_eq!(exhaustive.requests().len(), 10);
        assert_eq!(pruned.requests().len(), 4);
        assert_eq!(pruned.pruned().len(), 6);
        let full: Vec<BatchSelection> = exhaustive.run_select_only(&selection).pairs;
        let lean = pruned.run_select_only(&selection).pairs;
        // Every pruned pair selected nothing in the exhaustive reference...
        for p in pruned.pruned() {
            let reference = full
                .iter()
                .find(|f| (f.left, f.right) == (p.left, p.right))
                .expect("pruned pair was requested exhaustively");
            assert_eq!(
                reference.selected.len(),
                0,
                "pruned pair ({}, {}) had selections",
                p.left,
                p.right
            );
        }
        // ...and every surviving pair selects identically.
        for l in &lean {
            let reference = full
                .iter()
                .find(|f| (f.left, f.right) == (l.left, l.right))
                .expect("planned pair was requested exhaustively");
            assert_eq!(reference.selected.len(), l.selected.len());
            for (a, b) in reference.selected.all().iter().zip(l.selected.all()) {
                assert_eq!((a.source, a.target), (b.source, b.target));
                assert_eq!(a.score, b.score);
            }
        }
        let breakdown = pruned.plan_breakdown();
        assert!(breakdown.estimate > Duration::ZERO);
        assert_eq!(breakdown.cluster, Duration::ZERO);
        assert!(pruned.plan_time() >= breakdown.estimate + breakdown.schedule);
    }

    #[test]
    fn cluster_first_matches_within_and_hubs_across() {
        let schemas = two_islands();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine
            .batch()
            .with_plan_policy(PlanPolicy::ClusterFirst { max_distance: 0.9 })
            .plan_all_pairs(&refs);
        let plan = batch.clusters().expect("cluster-first commits a plan");
        // Trio {0,1,2} and island {3,4} are separate components.
        assert_eq!(plan.component_of[0], plan.component_of[1]);
        assert_eq!(plan.component_of[0], plan.component_of[2]);
        assert_eq!(plan.component_of[3], plan.component_of[4]);
        assert_ne!(plan.component_of[0], plan.component_of[3]);
        assert_eq!(plan.components(), 2);
        // Within-component pairs all planned; across only hub×hub.
        for r in batch.requests() {
            assert!(plan.keeps(r.left, r.right));
        }
        let cross_planned = batch
            .requests()
            .iter()
            .filter(|r| plan.component_of[r.left] != plan.component_of[r.right])
            .count();
        assert_eq!(cross_planned, 1, "exactly one hub×hub bridge pair");
        assert!(batch.plan_breakdown().cluster > Duration::ZERO);
    }

    #[test]
    fn exhaustive_plan_policy_estimates_nothing() {
        let schemas = trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = engine();
        let batch = engine.batch().plan_all_pairs(&refs);
        assert!(batch.overlap().is_none());
        assert!(batch.pruned().is_empty());
        assert_eq!(batch.plan_breakdown(), PlanBreakdown::default());
    }
}
