//! N-way matching and the comprehensive vocabulary — Lesson #4.
//!
//! §4.5: *"given N schemata there are 2^N − 1 such sets partitioning their
//! N-way match; each of which supplies a potentially valuable piece of
//! knowledge."* And §3.4 describes the deliverable: "for any non-empty subset
//! of {S_A, S_C, S_D, S_E, S_F}, the customer wanted to know the terms those
//! schemata (and no others in that group) held in common" — a *comprehensive
//! vocabulary*.
//!
//! Construction: pairwise validated correspondences between the N schemata
//! are closed transitively with a union-find over (schema, element) nodes.
//! Each resulting cluster is one vocabulary *term*; the set of schemata it
//! touches is the term's *signature*; grouping terms by signature yields the
//! 2^N − 1 partition cells.

use crate::batch::{prepare_schemas, PlanBreakdown, PlanPolicy};
use crate::confidence::Confidence;
use crate::correspondence::{MatchAnnotation, MatchSet};
use crate::engine::MatchEngine;
use crate::index::{idf_weight, BlockingPolicy, ElementTokenIndex};
use crate::pipeline::StageTimings;
use crate::prepare::PreparedSchema;
use crate::select::Selection;
use sm_schema::{ElementId, Schema, SchemaId};
use sm_text::intern::TokenId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A node in the N-way union-find: element `element` of schema index
/// `schema_idx` (index into the [`NWayMatch`]'s schema list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalElement {
    /// Index of the owning schema within the N-way match.
    pub schema_idx: usize,
    /// Element within that schema.
    pub element: ElementId,
}

/// One term of the comprehensive vocabulary: a transitively-closed cluster of
/// corresponding elements across schemata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabularyTerm {
    /// Canonical display name (the most common element name in the cluster).
    pub name: String,
    /// All member elements.
    pub members: Vec<GlobalElement>,
    /// Bitmask over schema indices: bit `i` set ⇔ schema `i` contributes.
    pub signature: u32,
}

impl VocabularyTerm {
    /// Number of distinct schemata the term spans.
    pub fn schema_count(&self) -> usize {
        self.signature.count_ones() as usize
    }

    /// Does schema `idx` contribute to this term?
    pub fn involves(&self, idx: usize) -> bool {
        self.signature & (1 << idx) != 0
    }
}

/// An N-way match. Consolidation (the union-find over elements) works at
/// any N; the *comprehensive vocabulary* ([`Self::vocabulary`]) supports up
/// to 32 schemata (its signature bitmask is a `u32` — the paper's
/// vocabulary scenarios involve single-digit N, while registry-scale
/// consolidation runs at N in the hundreds).
pub struct NWayMatch<'a> {
    schemas: Vec<&'a Schema>,
    /// Union-find parent pointers over dense node ids.
    parent: Vec<usize>,
    /// Offsets of each schema's elements in the dense node space.
    offsets: Vec<usize>,
    /// How many leading schemata have been consolidated by a planned
    /// population ([`Self::populate_planned`] /
    /// [`Self::populate_incremental`]).
    populated: usize,
    /// Standing planning artifacts carried between planned populations.
    standing: Option<Standing>,
}

/// Standing artifacts of a planned population: everything an incremental
/// add-one consolidation probes instead of replanning all pairs — the
/// prepared schemata, the per-schema blocking indexes, and the schema-level
/// token postings behind the overlap estimates.
struct Standing {
    blocking: BlockingPolicy,
    plan_policy: PlanPolicy,
    threshold: Confidence,
    prepared: Vec<Arc<PreparedSchema>>,
    /// Per-schema blocking indexes, aligned with `prepared` (empty under
    /// [`BlockingPolicy::Exhaustive`], which never probes one).
    indexes: Vec<ElementTokenIndex>,
    /// Schema-level posting list of every blocking token: ascending slots
    /// whose distinct blocking vocabulary holds it.
    postings: HashMap<TokenId, Vec<u32>>,
    /// Each slot's distinct blocking vocabulary (sorted).
    vocab: Vec<Vec<TokenId>>,
    /// Each slot's total distinct-token IDF weight at the current N.
    self_weights: Vec<f64>,
}

impl Standing {
    /// The sorted distinct blocking vocabulary of one preparation — the
    /// same per-schema token set [`crate::batch::OverlapEstimates`] walks.
    fn vocab_of(prepared: &PreparedSchema) -> Vec<TokenId> {
        let mut ids: Vec<TokenId> = (0..prepared.len())
            .flat_map(|e| prepared.block_features_of(e).iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Recompute every slot's self weight under the current postings
    /// (weights shift with N, so they are refreshed whenever slots join).
    fn refresh_self_weights(&mut self) {
        let n = self.vocab.len() as f64;
        self.self_weights = self
            .vocab
            .iter()
            .map(|v| {
                v.iter()
                    .map(|t| idf_weight(n, self.postings[t].len() as f64))
                    .sum()
            })
            .collect();
    }
}

impl<'a> NWayMatch<'a> {
    /// Start an N-way match over the given schemata.
    pub fn new(schemas: Vec<&'a Schema>) -> Self {
        let mut offsets = Vec::with_capacity(schemas.len());
        let mut total = 0usize;
        for s in &schemas {
            offsets.push(total);
            total += s.len();
        }
        NWayMatch {
            schemas,
            parent: (0..total).collect(),
            offsets,
            populated: 0,
            standing: None,
        }
    }

    /// Number of schemata.
    pub fn n(&self) -> usize {
        self.schemas.len()
    }

    /// Append schema N+1 to the match, returning its index. Its elements
    /// join the union-find as singletons; consolidate them with
    /// [`Self::populate_incremental`] (after a planned population) or
    /// explicit [`Self::add_pairwise`] calls.
    pub fn add_schema(&mut self, schema: &'a Schema) -> usize {
        let idx = self.schemas.len();
        let total = self.parent.len();
        self.offsets.push(total);
        self.parent.extend(total..total + schema.len());
        self.schemas.push(schema);
        idx
    }

    /// Number of non-empty partition cells possible: 2^N − 1.
    ///
    /// # Panics
    /// Panics beyond 32 schemata, the vocabulary's signature-bitmask cap.
    pub fn max_cells(&self) -> usize {
        assert!(
            self.schemas.len() <= 32,
            "the comprehensive vocabulary supports at most 32 schemata"
        );
        (1usize << self.schemas.len()) - 1
    }

    /// Index of a schema by its [`SchemaId`].
    pub fn schema_index(&self, id: SchemaId) -> Option<usize> {
        self.schemas.iter().position(|s| s.id == id)
    }

    fn node(&self, g: GlobalElement) -> usize {
        self.offsets[g.schema_idx] + g.element.index()
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
    }

    /// Record the validated correspondences of a pairwise match between the
    /// schemata at indices `left` and `right`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_pairwise(&mut self, left: usize, right: usize, matches: &MatchSet) {
        assert!(left < self.schemas.len() && right < self.schemas.len());
        let pairs: Vec<(ElementId, ElementId)> =
            matches.validated().map(|c| (c.source, c.target)).collect();
        for (s, t) in pairs {
            let a = self.node(GlobalElement {
                schema_idx: left,
                element: s,
            });
            let b = self.node(GlobalElement {
                schema_idx: right,
                element: t,
            });
            self.union(a, b);
        }
    }

    /// Drive every unordered pairwise match through `engine` as one planned
    /// **batch** (see [`crate::batch`]), select candidates above `threshold`
    /// one-to-one, auto-validate them as `asserted_by`, and record the
    /// correspondences.
    ///
    /// This replaces the historical ad-hoc loop every n-way caller wrote by
    /// hand — and since the batch planner landed, the sequential dense loop
    /// this method itself used to run. Each of the N schemata is prepared
    /// **and token-indexed** once rather than once per pairing, candidates
    /// come from the shared index under [`BlockingPolicy::default`], and
    /// all pairs execute concurrently on the engine's persistent executor.
    ///
    /// Scores of scored pairs are byte-identical to the dense loop's;
    /// *which* pairs are scored is the default blocking policy's recall
    /// property — every dense above-threshold pair survives on the pinned
    /// workloads (`tests/blocking_recall.rs`, `tests/batch_pin.rs`,
    /// including exact-name pairs via the rescue closure), making
    /// vocabulary results empirically unchanged from the historical dense
    /// loop. A correspondence whose only evidence is fuzzy (shared *no*
    /// token, Soundex, or acronym feature, scored purely by edit distance)
    /// can in principle be pruned; callers that must reproduce the dense
    /// loop exactly use [`Self::populate_pairwise_with_policy`] with
    /// [`BlockingPolicy::Exhaustive`].
    ///
    /// Returns one [`PairwiseOutcome`] per pair, in `(i, j)` order.
    pub fn populate_pairwise(
        &mut self,
        engine: &MatchEngine,
        threshold: Confidence,
        asserted_by: &str,
    ) -> Vec<PairwiseOutcome> {
        self.populate_pairwise_with_policy(
            engine,
            &BlockingPolicy::default(),
            threshold,
            asserted_by,
        )
    }

    /// [`Self::populate_pairwise`] under an explicit blocking policy.
    /// [`BlockingPolicy::Exhaustive`] reproduces the historical sequential
    /// dense loop byte for byte (same scores, same selections, same
    /// vocabulary).
    pub fn populate_pairwise_with_policy(
        &mut self,
        engine: &MatchEngine,
        policy: &BlockingPolicy,
        threshold: Confidence,
        asserted_by: &str,
    ) -> Vec<PairwiseOutcome> {
        let selection = Selection::OneToOne { min: threshold };
        let batch = engine
            .batch()
            .with_policy(*policy)
            .plan_all_pairs(&self.schemas);
        // Selection-only execution: vocabulary building never reads scores,
        // so per-pair matrices drop inside the batch jobs.
        let result = batch.run_select_only(&selection);
        let mut outcomes = Vec::with_capacity(result.pairs.len());
        for pair in result.pairs {
            let validated =
                MatchSet::validated_from(&pair.selected, asserted_by, MatchAnnotation::Equivalent);
            self.add_pairwise(pair.left, pair.right, &validated);
            outcomes.push(PairwiseOutcome {
                left: pair.left,
                right: pair.right,
                pairs_considered: pair.pairs_considered,
                pairs_scored: pair.pairs_scored,
                validated: validated.len(),
            });
        }
        outcomes
    }

    /// Populate pairwise matches through the overlap-aware batch planner
    /// ([`PlanPolicy`]) and keep the planned artifacts **standing** so later
    /// schemata join incrementally ([`Self::populate_incremental`]) instead
    /// of replanning all N·(N−1)/2 pairs.
    ///
    /// Under [`PlanPolicy::provable`] the consolidation equals
    /// [`Self::populate_pairwise_with_policy`] exactly: the pruned pairs
    /// provably select nothing. Higher thresholds and
    /// [`PlanPolicy::ClusterFirst`] trade recall for plan size.
    pub fn populate_planned(
        &mut self,
        engine: &MatchEngine,
        blocking: &BlockingPolicy,
        plan_policy: PlanPolicy,
        threshold: Confidence,
        asserted_by: &str,
    ) -> NWayPopulation {
        let selection = Selection::OneToOne { min: threshold };
        let batch = engine
            .batch()
            .with_policy(*blocking)
            .with_plan_policy(plan_policy)
            .plan_all_pairs(&self.schemas);
        let pruned = batch.pruned().len();
        let plan_breakdown = batch.plan_breakdown();
        let result = batch.run_select_only(&selection);
        let mut outcomes = Vec::with_capacity(result.pairs.len());
        for pair in result.pairs {
            let validated =
                MatchSet::validated_from(&pair.selected, asserted_by, MatchAnnotation::Equivalent);
            self.add_pairwise(pair.left, pair.right, &validated);
            outcomes.push(PairwiseOutcome {
                left: pair.left,
                right: pair.right,
                pairs_considered: pair.pairs_considered,
                pairs_scored: pair.pairs_scored,
                validated: validated.len(),
            });
        }

        // Keep the plan standing: prepared schemata, blocking indexes, and
        // the schema-level postings the incremental path probes.
        let (prepared, index) = batch.into_plan_parts();
        let vocab: Vec<Vec<TokenId>> = prepared.iter().map(|p| Standing::vocab_of(p)).collect();
        let mut postings: HashMap<TokenId, Vec<u32>> = HashMap::new();
        for (slot, v) in vocab.iter().enumerate() {
            for &t in v {
                postings.entry(t).or_default().push(slot as u32);
            }
        }
        let mut standing = Standing {
            blocking: *blocking,
            plan_policy,
            threshold,
            prepared,
            indexes: index.into_per_schema(),
            postings,
            vocab,
            self_weights: Vec::new(),
        };
        standing.refresh_self_weights();
        self.standing = Some(standing);
        self.populated = self.schemas.len();

        NWayPopulation {
            outcomes,
            pruned,
            timings: result.timings,
            plan_breakdown,
        }
    }

    /// Consolidate the schemata appended since the last planned population
    /// (via [`Self::add_schema`]) **incrementally**: probe the standing
    /// schema-level postings for the new rows' overlap bounds in one walk,
    /// prune per the standing [`PlanPolicy`], and execute only the
    /// surviving `(old, new)` and `(new, new)` pairs — the existing N-way
    /// union-find is reused, never replayed.
    ///
    /// Bounds for the new rows are exactly those a full replan at the new N
    /// would compute, so under [`PlanPolicy::provable`] the resulting
    /// consolidation is byte-identical to a full
    /// [`Self::populate_planned`] over all N+k schemata. For
    /// [`PlanPolicy::ClusterFirst`] the incremental path prunes new pairs
    /// by the distance cut alone (no re-clustering or hub re-election —
    /// standing pairs are already committed), which plans a superset of the
    /// within-cluster pairs a full replan would.
    ///
    /// # Panics
    /// Panics without a prior [`Self::populate_planned`], or when `engine`
    /// does not share the standing plan's token arena (use the same engine
    /// for the whole consolidation).
    pub fn populate_incremental(
        &mut self,
        engine: &MatchEngine,
        asserted_by: &str,
    ) -> NWayPopulation {
        let standing = self
            .standing
            .as_mut()
            .expect("populate_planned must precede incremental consolidation");
        let base = self.populated;
        let n_new = self.schemas.len();
        if n_new == base {
            return NWayPopulation {
                outcomes: Vec::new(),
                pruned: 0,
                timings: StageTimings::default(),
                plan_breakdown: PlanBreakdown::default(),
            };
        }

        let plan_started = Instant::now();
        // Prepare (and, under a probing blocking policy, index) only the
        // new schemata; the standing slots are reused as-is.
        let cache = engine.feature_cache();
        let exec = engine.executor();
        let new_refs: Vec<&Schema> = self.schemas[base..].to_vec();
        let newly = prepare_schemas(cache, exec, engine.threads, &new_refs);
        if let (Some(old), Some(new)) = (standing.prepared.first(), newly.first()) {
            assert!(
                Arc::ptr_eq(old.arena(), new.arena()),
                "incremental consolidation requires the standing token arena"
            );
        }
        if !matches!(standing.blocking, BlockingPolicy::Exhaustive) {
            for p in &newly {
                standing
                    .indexes
                    .push(ElementTokenIndex::build_parallel(p, exec, engine.threads));
            }
        }
        standing.prepared.extend(newly.iter().cloned());

        // Estimate: extend the standing postings with the new slots, then
        // one walk over the new slots' vocabularies scores every (·, new)
        // pair — old×old rows are never revisited.
        let estimate_started = Instant::now();
        for (k, p) in newly.iter().enumerate() {
            let slot = (base + k) as u32;
            let v = Standing::vocab_of(p);
            for &t in &v {
                standing.postings.entry(t).or_default().push(slot);
            }
            standing.vocab.push(v);
        }
        standing.refresh_self_weights();
        let added = n_new - base;
        let nf = n_new as f64;
        // Row-major bounds of the new columns: bounds[k * n_new + s] is the
        // exact shared weight of pair (s, base + k), s < base + k.
        let mut bounds = vec![0.0f64; added * n_new];
        for k in 0..added {
            let j = base + k;
            for t in &standing.vocab[j] {
                let posting = &standing.postings[t];
                let w = idf_weight(nf, posting.len() as f64);
                for &s in posting {
                    if (s as usize) < j {
                        bounds[k * n_new + s as usize] += w;
                    }
                }
            }
        }
        let plan_estimate = estimate_started.elapsed();

        // Schedule: every pair involving a new slot, filtered by the
        // standing plan policy.
        let schedule_started = Instant::now();
        let mut kept: Vec<(usize, usize)> = Vec::new();
        let mut pruned = 0usize;
        for k in 0..added {
            let j = base + k;
            for s in 0..j {
                let bound = bounds[k * n_new + s];
                let keep = match standing.plan_policy {
                    PlanPolicy::Exhaustive => true,
                    PlanPolicy::OverlapThreshold { min_weight } => bound >= min_weight,
                    PlanPolicy::ClusterFirst { max_distance } => {
                        let denom = standing.self_weights[s].min(standing.self_weights[j]);
                        let distance = if denom <= 0.0 {
                            1.0
                        } else {
                            (1.0 - bound / denom).clamp(0.0, 1.0)
                        };
                        distance <= max_distance
                    }
                };
                if keep {
                    kept.push((s, j));
                } else {
                    pruned += 1;
                }
            }
        }
        let plan_schedule = schedule_started.elapsed();
        let plan = plan_started.elapsed();

        // Execute the surviving pairs exactly as the batch executor does
        // (same pair jobs, counters, and spans), against the standing
        // preparation and indexes.
        let selection = Selection::OneToOne {
            min: standing.threshold,
        };
        let standing = &*standing;
        let schemas = &self.schemas;
        let selected: Vec<(
            usize,
            usize,
            crate::pipeline::StageTimings,
            usize,
            usize,
            MatchSet,
        )> = exec.run_map(engine.threads, &kept, |_, &(left, right)| {
            crate::obs::add(crate::obs::Counter::PairJobs, 1);
            let _job = crate::obs::span(
                crate::obs::SpanKind::PairJob,
                ((left as u64) << 32) | right as u64,
            );
            let indices = (!matches!(standing.blocking, BlockingPolicy::Exhaustive))
                .then(|| (&standing.indexes[left], &standing.indexes[right]));
            let mut run = engine.pipeline().run_blocked_prepared(
                schemas[left],
                schemas[right],
                &standing.prepared[left],
                &standing.prepared[right],
                indices,
                &standing.blocking,
            );
            let select_started = Instant::now();
            let set = selection.apply(&run.matrix);
            run.timings.select = select_started.elapsed();
            (
                left,
                right,
                run.timings,
                run.pairs_considered,
                run.pairs_scored,
                set,
            )
        });

        let mut timings = StageTimings {
            plan,
            ..StageTimings::default()
        };
        let mut outcomes = Vec::with_capacity(selected.len());
        for (left, right, pair_timings, pairs_considered, pairs_scored, set) in selected {
            timings.accumulate(&pair_timings);
            let validated =
                MatchSet::validated_from(&set, asserted_by, MatchAnnotation::Equivalent);
            self.add_pairwise(left, right, &validated);
            outcomes.push(PairwiseOutcome {
                left,
                right,
                pairs_considered,
                pairs_scored,
                validated: validated.len(),
            });
        }
        self.populated = n_new;

        NWayPopulation {
            outcomes,
            pruned,
            timings,
            plan_breakdown: PlanBreakdown {
                estimate: plan_estimate,
                cluster: std::time::Duration::ZERO,
                schedule: plan_schedule,
            },
        }
    }

    /// Close the match and build the comprehensive vocabulary.
    ///
    /// # Panics
    /// Panics beyond 32 schemata — the term signature is a `u32` bitmask.
    /// Registry-scale consolidations (N in the hundreds) read the
    /// union-find through [`Self::add_pairwise`]-driven clustering instead
    /// of the vocabulary view.
    pub fn vocabulary(mut self) -> Vocabulary {
        assert!(
            self.schemas.len() <= 32,
            "the comprehensive vocabulary supports at most 32 schemata"
        );
        let mut clusters: HashMap<usize, Vec<GlobalElement>> = HashMap::new();
        for (schema_idx, schema) in self.schemas.iter().enumerate() {
            for element in schema.ids() {
                let g = GlobalElement {
                    schema_idx,
                    element,
                };
                let node = self.offsets[schema_idx] + element.index();
                let root = {
                    // Inline find to appease the borrow checker.
                    let mut x = node;
                    while self.parent[x] != x {
                        self.parent[x] = self.parent[self.parent[x]];
                        x = self.parent[x];
                    }
                    x
                };
                clusters.entry(root).or_default().push(g);
            }
        }
        let mut terms: Vec<VocabularyTerm> = clusters
            .into_values()
            .map(|members| {
                let mut signature = 0u32;
                let mut name_votes: HashMap<&str, usize> = HashMap::new();
                for g in &members {
                    signature |= 1 << g.schema_idx;
                    let name = self.schemas[g.schema_idx].element(g.element).name.as_str();
                    *name_votes.entry(name).or_insert(0) += 1;
                }
                let name = name_votes
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
                    .map(|(n, _)| n.to_string())
                    .unwrap_or_default();
                VocabularyTerm {
                    name,
                    members,
                    signature,
                }
            })
            .collect();
        // Full tie-break: distinct same-named singleton terms in one schema
        // tie on (name, signature), and cluster order comes from a HashMap —
        // the first member pins a deterministic order.
        terms.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then(a.signature.cmp(&b.signature))
                .then_with(|| {
                    let ka = a.members.first().map(|g| (g.schema_idx, g.element));
                    let kb = b.members.first().map(|g| (g.schema_idx, g.element));
                    ka.cmp(&kb)
                })
        });
        Vocabulary {
            n: self.schemas.len(),
            schema_ids: self.schemas.iter().map(|s| s.id).collect(),
            schema_names: self.schemas.iter().map(|s| s.name.clone()).collect(),
            terms,
        }
    }
}

/// Outcome of a planned (or incremental) N-way population.
#[derive(Debug, Clone)]
pub struct NWayPopulation {
    /// Per executed pair, in plan order (pruned pairs have no outcome).
    pub outcomes: Vec<PairwiseOutcome>,
    /// Pairs the plan policy pruned before execution.
    pub pruned: usize,
    /// Aggregated stage timings.
    pub timings: StageTimings,
    /// The estimate/cluster/schedule split of `timings.plan`.
    pub plan_breakdown: PlanBreakdown,
}

impl NWayPopulation {
    /// Pairs actually executed.
    pub fn planned(&self) -> usize {
        self.outcomes.len()
    }

    /// Total correspondences validated and recorded.
    pub fn validated(&self) -> usize {
        self.outcomes.iter().map(|o| o.validated).sum()
    }
}

/// Statistics of one pairwise match inside [`NWayMatch::populate_pairwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseOutcome {
    /// Index of the left schema.
    pub left: usize,
    /// Index of the right schema.
    pub right: usize,
    /// Size of the pair's full cross product.
    pub pairs_considered: usize,
    /// Candidate pairs the voter panel actually scored (equal to
    /// `pairs_considered` under the exhaustive policy).
    pub pairs_scored: usize,
    /// Correspondences selected and recorded.
    pub validated: usize,
}

/// The comprehensive vocabulary of an N-way match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    /// Number of schemata.
    pub n: usize,
    /// Schema ids, in index order.
    pub schema_ids: Vec<SchemaId>,
    /// Schema names, in index order.
    pub schema_names: Vec<String>,
    /// All terms.
    pub terms: Vec<VocabularyTerm>,
}

impl Vocabulary {
    /// Terms whose signature is *exactly* `mask` — the partition cell for one
    /// non-empty subset of schemata ("the terms those schemata, and no others
    /// in that group, held in common").
    pub fn cell(&self, mask: u32) -> Vec<&VocabularyTerm> {
        self.terms.iter().filter(|t| t.signature == mask).collect()
    }

    /// Sizes of every one of the 2^N − 1 cells, indexed by mask.
    pub fn cell_sizes(&self) -> HashMap<u32, usize> {
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for t in &self.terms {
            *sizes.entry(t.signature).or_insert(0) += 1;
        }
        sizes
    }

    /// Terms shared by *at least* the schemata in `mask` (superset match).
    pub fn shared_by_at_least(&self, mask: u32) -> Vec<&VocabularyTerm> {
        self.terms
            .iter()
            .filter(|t| t.signature & mask == mask)
            .collect()
    }

    /// Terms involving exactly one schema (that schema's distinct elements).
    pub fn unique_to(&self, idx: usize) -> Vec<&VocabularyTerm> {
        self.cell(1 << idx)
    }

    /// Total number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vocabulary has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Pairwise overlap fraction between schemata `i` and `j`: shared terms /
    /// terms touching either — a numeric overlap characterization suitable as
    /// a clustering distance (§5, "Schema clustering and overlap analysis").
    pub fn overlap_fraction(&self, i: usize, j: usize) -> f64 {
        let mi = 1u32 << i;
        let mj = 1u32 << j;
        let mut shared = 0usize;
        let mut either = 0usize;
        for t in &self.terms {
            let in_i = t.signature & mi != 0;
            let in_j = t.signature & mj != 0;
            if in_i || in_j {
                either += 1;
                if in_i && in_j {
                    shared += 1;
                }
            }
        }
        if either == 0 {
            0.0
        } else {
            shared as f64 / either as f64
        }
    }

    /// Distill a minimal **mediated (exchange) schema** — the §2 emergency-
    /// response scenario: *"throw their data models into a giant beaker and
    /// distill out a minimal mediated schema that will serve as the basis
    /// for their collaboration"*.
    ///
    /// Terms appearing in at least `min_schemas` schemata qualify.
    /// Qualifying *container* terms (any member is a depth-1 element) become
    /// roots of the mediated schema; qualifying *leaf* terms attach under
    /// the container term that owns the majority of their members' parents,
    /// or under a `Common` root when their container did not qualify.
    ///
    /// `schemas` must be the same schemata, in the same order, this
    /// vocabulary was built over.
    pub fn mediated_schema(
        &self,
        schemas: &[&Schema],
        id: SchemaId,
        name: impl Into<String>,
        min_schemas: usize,
    ) -> Schema {
        use sm_schema::{DataType, ElementKind};
        assert_eq!(self.n, schemas.len(), "schema list must match arity");
        let min_schemas = min_schemas.max(1);

        // element → term index, for parent lookups.
        let mut term_of: HashMap<(usize, ElementId), usize> = HashMap::new();
        for (ti, term) in self.terms.iter().enumerate() {
            for g in &term.members {
                term_of.insert((g.schema_idx, g.element), ti);
            }
        }

        let qualifies: Vec<bool> = self
            .terms
            .iter()
            .map(|t| t.schema_count() >= min_schemas)
            .collect();
        let is_container: Vec<bool> = self
            .terms
            .iter()
            .map(|t| {
                t.members
                    .iter()
                    .any(|g| schemas[g.schema_idx].element(g.element).depth == 1)
            })
            .collect();

        let mut out = Schema::new(id, name, sm_schema::SchemaFormat::Generic);
        // Container terms first, as roots.
        let mut root_of_term: HashMap<usize, ElementId> = HashMap::new();
        for (ti, term) in self.terms.iter().enumerate() {
            if qualifies[ti] && is_container[ti] {
                let root = out.add_root(&term.name, ElementKind::Group, DataType::None);
                root_of_term.insert(ti, root);
            }
        }
        // Leaf terms attach under their majority parent term.
        let mut common_root: Option<ElementId> = None;
        for (ti, term) in self.terms.iter().enumerate() {
            if !qualifies[ti] || is_container[ti] {
                continue;
            }
            let mut votes: HashMap<usize, usize> = HashMap::new();
            let mut datatype = DataType::Unknown;
            for g in &term.members {
                let e = schemas[g.schema_idx].element(g.element);
                if datatype == DataType::Unknown {
                    datatype = e.datatype;
                }
                if let Some(p) = e.parent {
                    if let Some(&pt) = term_of.get(&(g.schema_idx, p)) {
                        *votes.entry(pt).or_insert(0) += 1;
                    }
                }
            }
            let parent_root = votes
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .and_then(|(pt, _)| root_of_term.get(&pt).copied());
            let parent = match parent_root {
                Some(p) => p,
                None => *common_root.get_or_insert_with(|| {
                    out.add_root("Common", ElementKind::Group, DataType::None)
                }),
            };
            out.add_child(parent, &term.name, ElementKind::Column, datatype)
                .expect("parent was just created");
        }
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Human-readable subset name for a mask, e.g. `{S_A, S_C}`.
    pub fn mask_name(&self, mask: u32) -> String {
        let names: Vec<&str> = (0..self.n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| self.schema_names[i].as_str())
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use crate::correspondence::{Correspondence, MatchAnnotation};
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    fn schema(id: u32, names: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        for n in names {
            s.add_root(*n, ElementKind::Group, DataType::text());
        }
        s
    }

    fn validated(s: ElementId, t: ElementId) -> Correspondence {
        Correspondence::candidate(s, t, Confidence::new(0.9))
            .validate("x", MatchAnnotation::Equivalent)
    }

    /// Three schemata: "date" in all three, "name" in 0 and 1, the rest
    /// unique.
    fn three_way() -> Vocabulary {
        let a = schema(1, &["date", "name", "alpha"]);
        let b = schema(2, &["dt", "name", "beta"]);
        let c = schema(3, &["event_date", "gamma"]);
        let mut nway = NWayMatch::new(vec![&a, &b, &c]);
        // a.date ↔ b.dt ; b.dt ↔ c.event_date ; a.name ↔ b.name
        let mut ab = MatchSet::new();
        ab.push(validated(ElementId(0), ElementId(0)));
        ab.push(validated(ElementId(1), ElementId(1)));
        nway.add_pairwise(0, 1, &ab);
        let mut bc = MatchSet::new();
        bc.push(validated(ElementId(0), ElementId(0)));
        nway.add_pairwise(1, 2, &bc);
        nway.vocabulary()
    }

    #[test]
    fn transitive_closure_merges_chains() {
        let v = three_way();
        // Terms: {date,dt,event_date} mask 111; {name,name} mask 011;
        // alpha 001; beta 010; gamma 100.
        assert_eq!(v.len(), 5);
        let all_three = v.cell(0b111);
        assert_eq!(all_three.len(), 1);
        assert_eq!(all_three[0].members.len(), 3);
        assert_eq!(all_three[0].schema_count(), 3);
    }

    #[test]
    fn cells_partition_terms() {
        let v = three_way();
        let sizes = v.cell_sizes();
        let total: usize = sizes.values().sum();
        assert_eq!(total, v.len());
        assert_eq!(sizes[&0b011], 1, "name shared by S1,S2 only");
        assert_eq!(sizes[&0b001], 1, "alpha unique to S1");
        assert!(sizes.len() <= v.terms.len());
        assert!(sizes.keys().all(|&m| m > 0 && m < 8));
    }

    #[test]
    fn max_cells_is_2n_minus_1() {
        let a = schema(1, &["x"]);
        let b = schema(2, &["y"]);
        let nway = NWayMatch::new(vec![&a, &b]);
        assert_eq!(nway.max_cells(), 3);
        let c = schema(3, &["z"]);
        let d = schema(4, &["w"]);
        let e = schema(5, &["v"]);
        let five = NWayMatch::new(vec![&a, &b, &c, &d, &e]);
        assert_eq!(five.max_cells(), 31, "the paper's 5-schema scenario");
    }

    #[test]
    fn canonical_name_is_majority_name() {
        let v = three_way();
        let shared_name = v.cell(0b011);
        assert_eq!(shared_name[0].name, "name");
    }

    #[test]
    fn unique_to_and_superset_queries() {
        let v = three_way();
        assert_eq!(v.unique_to(2).len(), 1);
        assert_eq!(v.unique_to(2)[0].name, "gamma");
        // Terms involving at least S1 and S2: date-cluster and name-cluster.
        assert_eq!(v.shared_by_at_least(0b011).len(), 2);
    }

    #[test]
    fn overlap_fraction_reflects_sharing() {
        let v = three_way();
        // S1,S2 share 2 of 5 terms touching either (date, name, alpha, beta).
        let f01 = v.overlap_fraction(0, 1);
        assert!((f01 - 2.0 / 4.0).abs() < 1e-12, "{f01}");
        let f02 = v.overlap_fraction(0, 2);
        assert!((f02 - 1.0 / 4.0).abs() < 1e-12, "{f02}");
        assert!(f01 > f02);
    }

    #[test]
    fn vocabulary_covers_every_element_exactly_once() {
        let v = three_way();
        let member_total: usize = v.terms.iter().map(|t| t.members.len()).sum();
        assert_eq!(member_total, 3 + 3 + 2);
    }

    #[test]
    fn no_matches_means_all_singletons() {
        let a = schema(1, &["x", "y"]);
        let b = schema(2, &["z"]);
        let v = NWayMatch::new(vec![&a, &b]).vocabulary();
        assert_eq!(v.len(), 3);
        assert!(v.terms.iter().all(|t| t.schema_count() == 1));
        assert_eq!(v.overlap_fraction(0, 1), 0.0);
    }

    #[test]
    fn mask_name_formats_subset() {
        let v = three_way();
        assert_eq!(v.mask_name(0b101), "{S1, S3}");
    }

    /// Fixture for mediated-schema tests: two schemata sharing an Event
    /// concept with a shared date attribute, plus unique leaves.
    fn mediated_fixture() -> (Schema, Schema, Vocabulary) {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, sm_schema::DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, sm_schema::DataType::Date)
                    .unwrap();
            }
            s
        };
        let a = mk(1, "Event", &["begin_date", "alpha_only"]);
        let b = mk(2, "EventType", &["start_dt", "beta_only"]);
        let mut nway = NWayMatch::new(vec![&a, &b]);
        let mut m = MatchSet::new();
        // Event ↔ EventType, begin_date ↔ start_dt.
        m.push(validated(ElementId(0), ElementId(0)));
        m.push(validated(ElementId(1), ElementId(1)));
        nway.add_pairwise(0, 1, &m);
        let v = nway.vocabulary();
        (a, b, v)
    }

    #[test]
    fn mediated_schema_distills_shared_terms() {
        let (a, b, v) = mediated_fixture();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(50), "Exchange", 2);
        // Only the shared container + shared leaf qualify.
        assert_eq!(mediated.len(), 2);
        let root = mediated.roots()[0];
        assert_eq!(mediated.element(root).name, "Event");
        let leaf = mediated.element(root).children[0];
        assert_eq!(mediated.element(leaf).name, "begin_date");
        assert_eq!(mediated.element(leaf).datatype, sm_schema::DataType::Date);
        mediated.validate().unwrap();
    }

    #[test]
    fn mediated_schema_min_one_includes_everything() {
        let (a, b, v) = mediated_fixture();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(50), "Everything", 1);
        // 4 terms: Event-cluster (container) + date-cluster, alpha_only,
        // beta_only (leaves under it).
        assert_eq!(mediated.len(), 4);
        assert!(mediated.find_by_name("alpha_only").is_some());
        mediated.validate().unwrap();
    }

    #[test]
    fn orphan_leaves_fall_under_common() {
        // A leaf shared by both schemata whose containers do NOT correspond.
        let mk = |id: u32, root: &str| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, sm_schema::DataType::None);
            s.add_child(
                r,
                "remarks",
                ElementKind::Column,
                sm_schema::DataType::text(),
            )
            .unwrap();
            s
        };
        let a = mk(1, "Vehicle");
        let b = mk(2, "Patient");
        let mut nway = NWayMatch::new(vec![&a, &b]);
        let mut m = MatchSet::new();
        m.push(validated(ElementId(1), ElementId(1))); // remarks ↔ remarks
        nway.add_pairwise(0, 1, &m);
        let v = nway.vocabulary();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(51), "Exchange", 2);
        let common = mediated.find_by_name("Common").expect("orphan holder");
        assert_eq!(mediated.element(common).children.len(), 1);
        let leaf = mediated.element(common).children[0];
        assert_eq!(mediated.element(leaf).name, "remarks");
    }

    #[test]
    fn empty_vocabulary_mediates_to_empty_schema() {
        let a = schema(1, &[]);
        let b = schema(2, &[]);
        let v = NWayMatch::new(vec![&a, &b]).vocabulary();
        let mediated = v.mediated_schema(&[&a, &b], SchemaId(52), "Empty", 2);
        assert!(mediated.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn vocabulary_beyond_32_schemata_rejected() {
        let schemas: Vec<Schema> = (0..33).map(|i| schema(i, &["x"])).collect();
        let refs: Vec<&Schema> = schemas.iter().collect();
        // Consolidation itself works at any N; only the u32-signature
        // vocabulary view is capped.
        let nway = NWayMatch::new(refs);
        assert_eq!(nway.n(), 33);
        let _ = nway.vocabulary();
    }

    /// Three structured schemata with genuine lexical overlap, for the
    /// batch-vs-legacy-loop equivalence pins.
    fn overlapping_trio() -> Vec<Schema> {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        };
        vec![
            mk(1, "Event", &["begin_date", "location_name", "remarks"]),
            mk(2, "EventType", &["BeginDate", "LocationName", "priority"]),
            mk(3, "Incident", &["start_date", "site_name", "severity"]),
        ]
    }

    /// The pre-batch behavior of `populate_pairwise`, reproduced verbatim:
    /// a sequential loop of dense `run_select` calls.
    fn legacy_dense_vocabulary(
        schemas: &[&Schema],
        engine: &MatchEngine,
        threshold: Confidence,
    ) -> Vocabulary {
        let selection = crate::select::Selection::OneToOne { min: threshold };
        let mut nway = NWayMatch::new(schemas.to_vec());
        for i in 0..schemas.len() {
            for j in (i + 1)..schemas.len() {
                let (_, selected) = engine
                    .pipeline()
                    .run_select(schemas[i], schemas[j], &selection);
                let mut validated = MatchSet::new();
                for c in selected.all() {
                    validated.push(c.clone().validate("x", MatchAnnotation::Equivalent));
                }
                nway.add_pairwise(i, j, &validated);
            }
        }
        nway.vocabulary()
    }

    /// Five schemata: the overlapping trio, a fourth sharing its
    /// vocabulary, and a fifth on a disjoint island.
    fn five_mixed() -> Vec<Schema> {
        let mk = |id: u32, root: &str, leaves: &[&str]| {
            let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
            let r = s.add_root(root, ElementKind::Group, DataType::None);
            for l in leaves {
                s.add_child(r, *l, ElementKind::Column, DataType::text())
                    .unwrap();
            }
            s
        };
        let mut schemas = overlapping_trio();
        schemas.push(mk(4, "Occurrence", &["begin_date", "site_name", "status"]));
        schemas.push(mk(5, "Starship", &["flux_capacitor", "warp_coil"]));
        schemas
    }

    /// Pin: adding schemata incrementally under the provable plan policy
    /// reproduces a full planned population over all N — same vocabulary,
    /// and the add-one step executes only the new rows' surviving pairs.
    #[test]
    fn incremental_add_one_matches_full_replan() {
        let schemas = five_mixed();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);

        let mut full = NWayMatch::new(refs.clone());
        let full_pop = full.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );

        let mut incr = NWayMatch::new(refs[..4].to_vec());
        let base_pop = incr.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );
        assert_eq!(incr.add_schema(refs[4]), 4);
        let add_pop = incr.populate_incremental(&engine, "x");

        // The add-one step plans only the 4 new pairs (minus pruned ones),
        // and its plan/prune split is consistent.
        assert_eq!(add_pop.planned() + add_pop.pruned, 4);
        assert_eq!(
            base_pop.planned() + base_pop.pruned + add_pop.planned() + add_pop.pruned,
            10,
            "incremental population covers exactly the full pair set"
        );
        assert!(add_pop.plan_breakdown.estimate > std::time::Duration::ZERO);
        assert!(add_pop.timings.plan >= add_pop.plan_breakdown.estimate);

        // Same pruning decisions as the full plan (bounds are exact at the
        // final N), and the same consolidation.
        assert_eq!(base_pop.pruned + add_pop.pruned, full_pop.pruned);
        assert_eq!(
            base_pop.validated() + add_pop.validated(),
            full_pop.validated()
        );
        assert_eq!(incr.vocabulary(), full.vocabulary());
    }

    /// `populate_planned` under the provable policy equals the unplanned
    /// batch population: pruned pairs select nothing.
    #[test]
    fn planned_population_matches_unplanned_under_provable_policy() {
        let schemas = five_mixed();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);

        let mut unplanned = NWayMatch::new(refs.clone());
        let outcomes = unplanned.populate_pairwise(&engine, threshold, "x");
        assert_eq!(outcomes.len(), 10);

        let mut planned = NWayMatch::new(refs.clone());
        let pop = planned.populate_planned(
            &engine,
            &BlockingPolicy::default(),
            PlanPolicy::provable(),
            threshold,
            "x",
        );
        assert!(pop.pruned > 0, "the island pairs must be pruned");
        assert_eq!(planned.vocabulary(), unplanned.vocabulary());
    }

    #[test]
    #[should_panic(expected = "populate_planned must precede")]
    fn incremental_without_standing_plan_rejected() {
        let schemas = overlapping_trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let mut nway = NWayMatch::new(refs);
        let _ = nway.populate_incremental(&engine, "x");
    }

    /// Pin: the batched `populate_pairwise` leaves vocabulary results
    /// unchanged from the historical sequential dense loop — exactly, under
    /// the exhaustive policy, and equally under the default blocking policy
    /// (whose recall property keeps every dense above-threshold pair).
    #[test]
    fn populate_pairwise_matches_legacy_dense_loop() {
        let schemas = overlapping_trio();
        let refs: Vec<&Schema> = schemas.iter().collect();
        let engine = MatchEngine::new().with_threads(2);
        let threshold = Confidence::new(0.3);
        let legacy = legacy_dense_vocabulary(&refs, &engine, threshold);
        assert!(
            legacy.terms.iter().any(|t| t.schema_count() > 1),
            "fixture must actually produce cross-schema terms"
        );

        let mut exhaustive = NWayMatch::new(refs.clone());
        let outcomes = exhaustive.populate_pairwise_with_policy(
            &engine,
            &BlockingPolicy::Exhaustive,
            threshold,
            "x",
        );
        assert!(outcomes
            .iter()
            .all(|o| o.pairs_scored == o.pairs_considered));
        assert_eq!(exhaustive.vocabulary(), legacy);

        let mut blocked = NWayMatch::new(refs.clone());
        let outcomes = blocked.populate_pairwise(&engine, threshold, "x");
        assert!(
            outcomes.iter().any(|o| o.pairs_scored < o.pairs_considered),
            "default policy must actually prune"
        );
        assert_eq!(blocked.vocabulary(), legacy);
    }
}
