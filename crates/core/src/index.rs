//! Token-blocking index: sparse candidate generation for the match pipeline.
//!
//! The full match scores every `|S1| × |S2|` pair — ~10^6 voter-panel
//! invocations at the paper's 1378×784 scale, 98%+ of the hot path's wall
//! clock. But true correspondences almost always share *some* cheap lexical
//! evidence: a normalized name token, a documentation token, a phonetic
//! (Soundex) key, or an acronym. This module exploits that with the standard
//! blocking technique of the schema/entity-matching literature the paper
//! builds on:
//!
//! 1. build an [`ElementTokenIndex`] — an inverted index from features of
//!    one schema's [`PreparedSchema`] (name + documentation tokens, Soundex
//!    keys of name tokens, acronym keys) to posting lists of element
//!    indices, IDF-weighted so rare features count for more;
//! 2. probe it with the other schema's elements, accumulating per-pair
//!    feature-overlap weights over the posting lists;
//! 3. let a [`BlockingPolicy`] turn the weights into a [`CandidateSet`] — a
//!    sparse row-major (CSR) pair set the pipeline then scores instead of
//!    the full cross product.
//!
//! # Layout: flat CSR, weights precomputed
//!
//! The index is a *flat* compressed-sparse-row store: one sorted feature-id
//! table, one contiguous postings arena sliced by CSR offsets, and one
//! parallel `f64` table of **IDF weights computed once at build** — a probe
//! does a binary search over contiguous `u32`s and reads its weight next to
//! the posting slice, instead of hashing a `TokenId` into a
//! `HashMap<TokenId, Vec<u32>>` and recomputing `ln((n+1)/(df+1))+1` per
//! feature per probing element. The exact-name table is flattened the same
//! way (sorted distinct name-token sequences + CSR postings). Weights are
//! per-feature functions of `(n, df)` only, so precomputation changes no
//! bit of any accumulated overlap: each probe row still adds the exact same
//! `f64` values in the exact same feature order as the historical map-keyed
//! implementation (retained, verbatim, in [`mod@reference`] and pinned against
//! this module in `tests/csr_index_pin.rs`).
//!
//! # Parallelism
//!
//! Index build and probing both run on the persistent
//! [`crate::exec::Executor`] ([`generate_candidates_governed`] /
//! [`ElementTokenIndex::build_parallel`]; the serial
//! [`generate_candidates`] and [`ElementTokenIndex::build`] run the same
//! code inline). Build fans element
//! chunks out to lanes and merges their `(feature, element)` pair lists in
//! deterministic chunk order; probing fans chunks of *both* directions out
//! through one shared claim queue, so the source→target and target→source
//! probes execute as concurrent lanes and each lane reuses one
//! accumulator/scratch block across every element it claims. Results are
//! assembled in element order, so the candidate set is bit-identical at
//! every lane count.
//!
//! Candidate generation runs in both directions (source→target and
//! target→source) and the results are unioned, so an element with an
//! unusually generic vocabulary on one side can still be rescued by the
//! other side's view of it. Finally the set is closed under parenthood:
//! **parents of a candidate pair are candidates themselves**, which keeps
//! the Propagate stage semantics-preserving (a candidate's structural blend
//! reads its parents' *scored* base value, never an unscored zero) and
//! implicitly recovers container pairs whose own names disagree but whose
//! children overlap — exactly the pairs the `StructureVoter` exists for.
//! The union, rescue, and parent-closure passes build the candidate set row
//! by row with no global sort: the backward probe is transposed into
//! per-source rows by one counting pass, each row merges its sorted inputs
//! and deduplicates the rest against a per-target stamp, and one pass in
//! descending row order (children before parents) pulls every finished
//! child row's parent pairs into its parent row.

use crate::exec::Executor;
use crate::prepare::PreparedSchema;
use sm_schema::Schema;
use sm_text::intern::{TokenArena, TokenId};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Smoothed IDF weight of a feature present in `df` of `n` documents — the
/// same shape the repository search index uses, so "rare ⇒ discriminating"
/// means the same thing at both element and schema granularity. Public so
/// the batch planner's overlap estimator (and the enterprise repository
/// index) weigh schema-level tokens with the identical formula; note
/// `idf_weight(n, df) >= 1.0` whenever `df <= n`, which is what lets a
/// zero overlap bound mean "zero shared tokens" exactly.
pub fn idf_weight(n: f64, df: f64) -> f64 {
    ((n + 1.0) / (df + 1.0)).ln() + 1.0
}

/// Flat CSR posting arrays assembled from *sorted* packed
/// `(key << 32) | slot` pairs: distinct keys ascending, `offsets[k]..[k+1]`
/// slicing `postings` (slots ascending per key), and
/// `weights[k] = ln((n_docs+1)/(df+1)) + 1` — the one smoothed-IDF formula
/// shared by the element-level blocking index and the repository index, so
/// precomputed weight bits are identical wherever the layout is used.
pub fn csr_from_sorted_pairs(pairs: &[u64], n_docs: f64) -> CsrPostings {
    debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "pairs sorted");
    let mut keys: Vec<u32> = Vec::new();
    let mut offsets: Vec<u32> = vec![0];
    let mut postings: Vec<u32> = Vec::with_capacity(pairs.len());
    let mut weights: Vec<f64> = Vec::new();
    let mut i = 0usize;
    while i < pairs.len() {
        let key = (pairs[i] >> 32) as u32;
        let start = i;
        while i < pairs.len() && (pairs[i] >> 32) as u32 == key {
            postings.push((pairs[i] & 0xffff_ffff) as u32);
            i += 1;
        }
        keys.push(key);
        offsets.push(postings.len() as u32);
        weights.push(idf_weight(n_docs, (i - start) as f64));
    }
    CsrPostings {
        keys,
        offsets,
        postings,
        weights,
    }
}

/// Output of [`csr_from_sorted_pairs`]: one flat CSR posting store with its
/// precomputed per-key IDF weights.
#[derive(Debug)]
pub struct CsrPostings {
    /// Distinct keys, ascending.
    pub keys: Vec<u32>,
    /// `offsets[k]..offsets[k+1]` slices `postings` for `keys[k]`.
    pub offsets: Vec<u32>,
    /// Contiguous posting arena: ascending slots per key.
    pub postings: Vec<u32>,
    /// Precomputed smoothed IDF weight per key.
    pub weights: Vec<f64>,
}

/// How aggressively to prune the candidate space. All policies operate on
/// the IDF-weighted feature-overlap accumulated over the inverted index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockingPolicy {
    /// Keep, for every element, its `k` best-overlapping opposites (both
    /// directions, unioned), plus *every* pair whose overlap weight reaches
    /// `min_weight` — so dense neighborhoods are capped at `k` while pairs
    /// with strong shared evidence are never dropped by the cap.
    TopK {
        /// Candidates kept per element (per direction).
        k: usize,
        /// Overlap weight at which a pair is kept even beyond `k`.
        min_weight: f64,
    },
    /// Keep every pair whose accumulated overlap weight reaches
    /// `min_weight`, with no per-element cap.
    WeightedThreshold {
        /// Minimum overlap weight for a pair to become a candidate.
        min_weight: f64,
    },
    /// Every pair is a candidate: the full match,
    /// [`crate::engine::MatchEngine::run`].
    Exhaustive,
}

impl Default for BlockingPolicy {
    /// The default operating point: top-24 per element, with pairs kept
    /// beyond the cap only on a genuinely rare feature collision (smoothed
    /// IDF weight 6 ≈ one feature shared by < 1% of elements; ubiquitous
    /// boilerplate tokens weigh ≈ 1 each and never add up to it). Tuned on
    /// the synthetic paper-scale workload: 100% of full-match above-threshold
    /// pairs survive while a few percent of the cross product is scored.
    fn default() -> Self {
        BlockingPolicy::TopK {
            k: 24,
            min_weight: 6.0,
        }
    }
}

/// A sparse set of candidate `(source element, target element)` pairs in
/// CSR (row-major) layout: for each source row, a sorted slice of target
/// column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    rows: usize,
    cols: usize,
    /// `offsets[r]..offsets[r+1]` indexes `targets` for row `r`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CandidateSet {
    /// Build from per-row candidate lists (each list must be sorted and
    /// deduplicated). Used by the [`mod@reference`] implementation and tests;
    /// the CSR path writes its rows straight into the flat layout instead.
    pub(crate) fn from_rows(rows_lists: Vec<Vec<u32>>, cols: usize) -> Self {
        let rows = rows_lists.len();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets = Vec::with_capacity(rows_lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in rows_lists {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            targets.extend(list);
            offsets.push(targets.len());
        }
        CandidateSet {
            rows,
            cols,
            offsets,
            targets,
        }
    }

    /// A set with no candidates at all.
    fn empty(rows: usize, cols: usize) -> Self {
        CandidateSet {
            rows,
            cols,
            offsets: vec![0; rows + 1],
            targets: Vec::new(),
        }
    }

    /// The complete cross product (every pair a candidate).
    pub fn exhaustive(rows: usize, cols: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut targets = Vec::with_capacity(rows * cols);
        offsets.push(0);
        for _ in 0..rows {
            targets.extend(0..cols as u32);
            offsets.push(targets.len());
        }
        CandidateSet {
            rows,
            cols,
            offsets,
            targets,
        }
    }

    /// Number of source rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of candidate pairs.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no pair survived blocking.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Candidate target columns of one source row (sorted ascending).
    ///
    /// This slice is the unit of work for the sparse Score stage: the
    /// pipeline hands it to the score cascade's tier-1 row kernel (or the
    /// reference per-pair loop) together with the row's matrix slice, so
    /// the CSR layout is consumed directly with no per-pair indirection.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.targets[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Is `(r, c)` a candidate pair?
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.rows && self.row(r).binary_search(&(c as u32)).is_ok()
    }

    /// Fraction of the cross product that survived blocking (1.0 for the
    /// exhaustive policy; 0.0 for a degenerate empty problem).
    pub fn density(&self) -> f64 {
        let full = self.rows * self.cols;
        if full == 0 {
            0.0
        } else {
            self.len() as f64 / full as f64
        }
    }
}

/// Elements per build/probe chunk: small enough that lanes load-balance,
/// large enough that per-chunk bookkeeping (one queue claim, one result
/// push) is noise next to the posting walks inside.
const CHUNK_ELEMENTS: usize = 64;

/// Run `f` over `chunk`-sized ranges of `0..n`, returning the chunk outputs
/// in chunk order. With `Some((exec, parallelism))` and more than one chunk,
/// ranges are claimed as [`Executor::run_map`] items; otherwise the loop
/// runs inline on the caller (no executor required — tests and the plain
/// entry points take this path). Shared with the repository-level index
/// (`sm_enterprise::index`), whose parallel build has the same
/// deterministic chunk-merge shape.
pub fn run_chunked<T: Send>(
    par: Option<(&Executor, usize)>,
    n: usize,
    chunk: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    run_chunked_budgeted(par, None, n, chunk, f)
}

/// [`run_chunked`] with helper lanes drawn from `budget` (see
/// [`crate::exec::LaneBudget`]); `None` is unbudgeted.
pub fn run_chunked_budgeted<T: Send>(
    par: Option<(&Executor, usize)>,
    budget: Option<&crate::exec::LaneBudget>,
    n: usize,
    chunk: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let ranges: Vec<Range<usize>> = (0..n)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(n))
        .collect();
    match par {
        Some((exec, parallelism)) if parallelism > 1 && ranges.len() > 1 => {
            exec.run_map_budgeted(parallelism, budget, &ranges, |index, range| {
                f(index, range.clone())
            })
        }
        _ => ranges
            .into_iter()
            .enumerate()
            .map(|(index, range)| f(index, range))
            .collect(),
    }
}

/// Serving-layer execution controls threaded through candidate generation:
/// an optional helper-lane budget (class fair share) and an optional job
/// token (cooperative cancellation at chunk boundaries). The default —
/// both `None` — is exactly the historical unbudgeted, uncancellable
/// behavior.
#[derive(Clone, Copy, Default)]
pub struct GovernedExec<'a> {
    /// Helper lanes are claimed against this budget when set.
    pub budget: Option<&'a crate::exec::LaneBudget>,
    /// Checked at probe-chunk boundaries when set.
    pub token: Option<&'a crate::serve::JobToken>,
}

/// Inverted index from lexical features to posting lists of element indices,
/// built over one side's [`PreparedSchema`] — flat CSR layout with the IDF
/// weight table precomputed at build (see the module docs).
///
/// Features per element are the preparation's interned
/// [`crate::prepare::PreparedElement::block_features`] (building the index
/// re-tokenizes nothing and allocates no strings):
/// * distinct normalized name + documentation tokens (`corpus_ids`);
/// * `s:`-prefixed Soundex keys of the name tokens, so misspellings and
///   convention drift (`organisation`/`organization`) still collide;
/// * `a:`-prefixed acronym keys: every short raw name, and the acronym of
///   every multi-token name (`coi` ↔ `community_of_interest`).
#[derive(Debug)]
pub struct ElementTokenIndex {
    /// Distinct feature ids, ascending — the binary-search probe table.
    features: Vec<TokenId>,
    /// `offsets[f]..offsets[f+1]` slices `postings` for `features[f]`.
    offsets: Vec<u32>,
    /// Contiguous posting arena: ascending element indices per feature.
    postings: Vec<u32>,
    /// Precomputed IDF weight of `features[f]` (`idf_weight(len, df)`,
    /// computed once here instead of per probe per feature).
    weights: Vec<f64>,
    /// Flattened exact-name table: `name_key_offsets[k]..[k+1]` slices
    /// `name_tokens` into the `k`-th distinct normalized-name token
    /// sequence; keys ascend in `TokenId`-lexicographic sequence order.
    name_key_offsets: Vec<u32>,
    name_tokens: Vec<TokenId>,
    /// `name_post_offsets[k]..[k+1]` slices `name_posts`: ascending element
    /// indices bearing the `k`-th name key. Backs the exact-name rescue;
    /// building it here means a batch pays it once per schema.
    name_post_offsets: Vec<u32>,
    name_posts: Vec<u32>,
    /// The arena the feature ids point into (string-keyed lookups intern
    /// through it).
    arena: Arc<TokenArena>,
    /// Number of indexed elements.
    len: usize,
}

impl ElementTokenIndex {
    /// Index every element of a prepared schema by its interned blocking
    /// features, inline on the calling thread.
    pub fn build(prepared: &PreparedSchema) -> Self {
        Self::build_opt(prepared, None)
    }

    /// [`Self::build`] with element chunks fanned out across up to
    /// `parallelism` executor lanes. The per-chunk `(feature, element)`
    /// pair lists are merged in chunk order before the sort that lays out
    /// the CSR arena, so the result is bit-identical to the inline build at
    /// every lane count.
    pub fn build_parallel(prepared: &PreparedSchema, exec: &Executor, parallelism: usize) -> Self {
        Self::build_opt(prepared, Some((exec, parallelism)))
    }

    fn build_opt(prepared: &PreparedSchema, par: Option<(&Executor, usize)>) -> Self {
        let n = prepared.len();
        let _span = crate::obs::span(crate::obs::SpanKind::IndexBuild, n as u64);

        // Phase 1 (parallel): per element chunk, emit packed
        // `(feature << 32) | element` pairs. Chunks merge in chunk order,
        // i.e. element order — deterministic at any lane count.
        let chunk_pairs = run_chunked(par, n, CHUNK_ELEMENTS, |_, range| {
            let mut out: Vec<u64> = Vec::new();
            for idx in range {
                for &feat in prepared.block_features_of(idx) {
                    out.push((u64::from(feat.0) << 32) | idx as u64);
                }
            }
            out
        });
        let mut pairs: Vec<u64> = Vec::with_capacity(chunk_pairs.iter().map(Vec::len).sum());
        for c in chunk_pairs {
            pairs.extend(c);
        }
        // Feature-major, element-ascending: exactly the CSR layout order.
        // Features are distinct per element, so there are no duplicates.
        pairs.sort_unstable();
        let csr = csr_from_sorted_pairs(&pairs, n as f64);
        let features: Vec<TokenId> = csr.keys.into_iter().map(TokenId).collect();
        let (offsets, postings, weights) = (csr.offsets, csr.postings, csr.weights);

        // Phase 2 (serial; cheap next to the postings sort): the flattened
        // exact-name table. Elements sort by (name sequence, element), so
        // groups are contiguous and each group's postings ascend.
        let mut named: Vec<u32> = (0..n as u32)
            .filter(|&idx| !prepared.element(idx as usize).name_ids.is_empty())
            .collect();
        named.sort_unstable_by(|&a, &b| {
            prepared
                .element(a as usize)
                .name_ids
                .cmp(&prepared.element(b as usize).name_ids)
                .then(a.cmp(&b))
        });
        let mut name_key_offsets: Vec<u32> = vec![0];
        let mut name_tokens: Vec<TokenId> = Vec::new();
        let mut name_post_offsets: Vec<u32> = vec![0];
        let mut name_posts: Vec<u32> = Vec::with_capacity(named.len());
        let mut j = 0usize;
        while j < named.len() {
            let key = prepared.element(named[j] as usize).name_ids.as_slice();
            name_tokens.extend_from_slice(key);
            name_key_offsets.push(name_tokens.len() as u32);
            while j < named.len() && prepared.element(named[j] as usize).name_ids == key {
                name_posts.push(named[j]);
                j += 1;
            }
            name_post_offsets.push(name_posts.len() as u32);
        }

        ElementTokenIndex {
            features,
            offsets,
            postings,
            weights,
            name_key_offsets,
            name_tokens,
            name_post_offsets,
            name_posts,
            arena: Arc::clone(prepared.arena()),
            len: n,
        }
    }

    /// Slot of a feature in the sorted table, if indexed.
    #[inline]
    fn feature_slot(&self, feature: TokenId) -> Option<usize> {
        self.features.binary_search(&feature).ok()
    }

    /// Posting slice and precomputed IDF weight of a feature — the probe
    /// loop's single lookup (`None` when the feature is absent).
    #[inline]
    pub fn probe_feature(&self, feature: TokenId) -> Option<(&[u32], f64)> {
        let slot = self.feature_slot(feature)?;
        let range = self.offsets[slot] as usize..self.offsets[slot + 1] as usize;
        Some((&self.postings[range], self.weights[slot]))
    }

    /// The `k`-th distinct name key (sorted ascending by token sequence).
    #[inline]
    fn name_key(&self, k: usize) -> &[TokenId] {
        &self.name_tokens[self.name_key_offsets[k] as usize..self.name_key_offsets[k + 1] as usize]
    }

    /// Number of distinct name keys.
    #[inline]
    fn name_key_count(&self) -> usize {
        self.name_key_offsets.len() - 1
    }

    /// Elements bearing the `k`-th name key, ascending.
    #[inline]
    fn name_posting(&self, k: usize) -> &[u32] {
        &self.name_posts[self.name_post_offsets[k] as usize..self.name_post_offsets[k + 1] as usize]
    }

    /// Elements whose full normalized name equals `name_ids` (empty when
    /// none, or when `name_ids` is empty).
    pub fn name_postings(&self, name_ids: &[TokenId]) -> &[u32] {
        if name_ids.is_empty() {
            return &[];
        }
        let n_keys = self.name_key_count();
        let (mut lo, mut hi) = (0usize, n_keys);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.name_key(mid) < name_ids {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < n_keys && self.name_key(lo) == name_ids {
            self.name_posting(lo)
        } else {
            &[]
        }
    }

    /// For every element of `self`, the slot of its name key in `other`'s
    /// name table (`u32::MAX` when no element of `other` bears that name)
    /// — one merge join of the two sorted key tables instead of a binary
    /// search per element. Both indices must intern through one arena.
    fn name_slots_in(&self, other: &ElementTokenIndex) -> Vec<u32> {
        let mut slots = vec![u32::MAX; self.len];
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.name_key_count() && j < other.name_key_count() {
            match self.name_key(i).cmp(other.name_key(j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    for &e in self.name_posting(i) {
                        slots[e as usize] = j as u32;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        slots
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Posting list of an interned feature (empty when absent).
    pub fn postings_by_id(&self, feature: TokenId) -> &[u32] {
        self.probe_feature(feature)
            .map_or(&[], |(posting, _)| posting)
    }

    /// Posting list of a feature string (empty when absent). Convenience
    /// for inspection and tests; the probe loop uses ids.
    pub fn postings(&self, feature: &str) -> &[u32] {
        self.arena
            .lookup(feature)
            .map_or(&[], |id| self.postings_by_id(id))
    }

    /// IDF weight of an interned feature under this index's document
    /// frequency — the precomputed table entry, or the `df = 0` weight for
    /// features absent from every indexed element.
    pub fn weight_by_id(&self, feature: TokenId) -> f64 {
        self.feature_slot(feature).map_or_else(
            || idf_weight(self.len as f64, 0.0),
            |slot| self.weights[slot],
        )
    }

    /// IDF weight of a feature under this index's document frequency.
    pub fn weight(&self, feature: &str) -> f64 {
        self.arena.lookup(feature).map_or_else(
            || idf_weight(self.len as f64, 0.0),
            |id| self.weight_by_id(id),
        )
    }

    /// Probe one element's features under `policy`, returning its kept
    /// `(candidate, overlap weight)` list — the per-row kernel of candidate
    /// generation, exposed for probe micro-benches and custom drivers. The
    /// result lives in `scratch` and is overwritten by the next call;
    /// `scratch` must have been sized for at least [`Self::len`] candidates.
    pub fn probe_row<'s>(
        &self,
        feats: &[TokenId],
        policy: &BlockingPolicy,
        scratch: &'s mut ProbeScratch,
    ) -> &'s [(u32, f64)] {
        assert!(scratch.acc.len() >= self.len, "scratch smaller than index");
        probe_element(feats, self, policy, scratch);
        &scratch.kept
    }
}

/// One side's probe output in CSR form: per probing element, its kept
/// candidates, ascending. Weights are consumed inside the probe (the
/// child-rescue filter), so only the columns travel to the union pass.
struct ProbeRows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl ProbeRows {
    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// Lane-owned probe scratch, reused across every element the lane claims —
/// no per-pair (or per-element) allocation churn. Public so callers (and
/// the probe micro-benches) can drive [`ElementTokenIndex::probe_row`]
/// without paying an allocation per row.
#[derive(Debug)]
pub struct ProbeScratch {
    /// Per-candidate accumulated overlap weight (reset via `touched`).
    acc: Vec<f64>,
    /// Candidates touched by the current element, in first-touch order.
    touched: Vec<u32>,
    /// Ranking buffer for the top-k policy.
    ranked: Vec<u32>,
    /// The current element's kept candidates before they join the chunk
    /// output.
    kept: Vec<(u32, f64)>,
    /// Rows probed through this scratch since the last flush — accumulated
    /// locally so the posting hot loop never touches a process-wide atomic.
    rows_probed: u64,
    /// Posting-list entries walked since the last flush.
    postings_touched: u64,
}

impl ProbeScratch {
    /// Scratch able to probe any index of at most `max_candidates` elements.
    pub fn new(max_candidates: usize) -> Self {
        ProbeScratch {
            acc: vec![0.0; max_candidates],
            touched: Vec::new(),
            ranked: Vec::new(),
            kept: Vec::new(),
            rows_probed: 0,
            postings_touched: 0,
        }
    }

    /// Flush the locally accumulated probe counters into the process-wide
    /// [`crate::obs`] registry (`probe.rows` / `probe.postings`) and zero
    /// them. Called once per lane by the pipeline's probe pass; custom
    /// `probe_row` drivers may call it at whatever granularity they like.
    pub fn flush_probe_counters(&mut self) {
        crate::obs::add(crate::obs::Counter::ProbeRows, self.rows_probed);
        crate::obs::add(crate::obs::Counter::ProbePostings, self.postings_touched);
        self.rows_probed = 0;
        self.postings_touched = 0;
    }
}

/// Probe one element's features against `index`, applying `policy` into
/// `scratch.kept`. The accumulation order (features in prepared order,
/// postings ascending) and every policy decision are exactly the historical
/// [`mod@reference`] implementation's; only the per-feature weight lookup moved
/// from a recomputed `ln` to the precomputed table.
fn probe_element(
    feats: &[TokenId],
    index: &ElementTokenIndex,
    policy: &BlockingPolicy,
    scratch: &mut ProbeScratch,
) {
    scratch.rows_probed += 1;
    let acc = &mut scratch.acc;
    let touched = &mut scratch.touched;
    touched.clear();
    for &feat in feats {
        let Some((posting, w)) = index.probe_feature(feat) else {
            continue;
        };
        scratch.postings_touched += posting.len() as u64;
        for &t in posting {
            if acc[t as usize] == 0.0 {
                touched.push(t);
            }
            acc[t as usize] += w;
        }
    }
    let kept = &mut scratch.kept;
    kept.clear();
    match *policy {
        BlockingPolicy::Exhaustive => {
            kept.extend((0..index.len() as u32).map(|t| (t, acc[t as usize])));
        }
        BlockingPolicy::WeightedThreshold { min_weight } => {
            kept.extend(
                touched
                    .iter()
                    .filter(|&&t| acc[t as usize] >= min_weight)
                    .map(|&t| (t, acc[t as usize])),
            );
            kept.sort_unstable_by_key(|&(t, _)| t);
        }
        BlockingPolicy::TopK { k, min_weight } => {
            let ranked = &mut scratch.ranked;
            ranked.clear();
            ranked.extend_from_slice(touched);
            // Deterministic rank order: weight desc, column asc. The
            // reference sorts the whole buffer; selecting the k-th pivot
            // partitions the identical total order, so the kept *set* —
            // ranks below k, plus everything at or above `min_weight` — is
            // unchanged while the cost drops from O(m log m) to O(m).
            let by_rank = |&a: &u32, &b: &u32| {
                acc[b as usize]
                    .partial_cmp(&acc[a as usize])
                    .expect("finite overlap weight")
                    .then(a.cmp(&b))
            };
            if ranked.len() > k {
                if k > 0 {
                    ranked.select_nth_unstable_by(k - 1, by_rank);
                }
                kept.extend(ranked[..k].iter().map(|&t| (t, acc[t as usize])));
                kept.extend(
                    ranked[k..]
                        .iter()
                        .filter(|&&t| acc[t as usize] >= min_weight)
                        .map(|&t| (t, acc[t as usize])),
                );
            } else {
                kept.extend(ranked.iter().map(|&t| (t, acc[t as usize])));
            }
            kept.sort_unstable_by_key(|&(t, _)| t);
        }
    }
    for &t in touched.iter() {
        acc[t as usize] = 0.0;
    }
}

/// Both probe directions — source elements against `target_index` and
/// target elements against `source_index` — as chunks fed through one
/// shared claim queue, so the directions run as concurrent executor lanes
/// and a lane finishing one direction's chunks immediately steals the
/// other's. Each lane owns one [`ProbeScratch`], reused across all its
/// claims. Outputs are stitched per direction in element order:
/// bit-identical at any lane count.
///
/// The chunks also collect the child-rescue seeds: every kept
/// `(source, target, weight)` of either direction whose weight reaches
/// [`CHILD_RESCUE_WEIGHT`] and whose elements both have children. Only
/// such pairs can ever fan out, and the rescue orders its seeds by a total
/// order, so collecting them per chunk (in any chunk order) changes
/// nothing while keeping the weights out of the serial union pass.
#[allow(clippy::too_many_arguments)]
fn probe_sides(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    source_index: &ElementTokenIndex,
    target_index: &ElementTokenIndex,
    policy: &BlockingPolicy,
    exec: &Executor,
    parallelism: usize,
    gov: GovernedExec<'_>,
) -> (ProbeRows, ProbeRows, Vec<(u32, u32, f64)>) {
    let rows = prepared_source.len();
    let cols = prepared_target.len();
    struct ChunkDesc {
        /// 0 = forward (source→target index), 1 = backward.
        dir: usize,
        range: Range<usize>,
    }
    struct ChunkOut {
        counts: Vec<u32>,
        targets: Vec<u32>,
        /// Child-rescue seeds as `(source, target, weight)`.
        strong: Vec<(u32, u32, f64)>,
    }
    let mut descs: Vec<ChunkDesc> = Vec::new();
    for start in (0..rows).step_by(CHUNK_ELEMENTS) {
        descs.push(ChunkDesc {
            dir: 0,
            range: start..(start + CHUNK_ELEMENTS).min(rows),
        });
    }
    for start in (0..cols).step_by(CHUNK_ELEMENTS) {
        descs.push(ChunkDesc {
            dir: 1,
            range: start..(start + CHUNK_ELEMENTS).min(cols),
        });
    }

    let run_chunk = |desc: &ChunkDesc, scratch: &mut ProbeScratch| -> ChunkOut {
        let _chunk = crate::obs::span(crate::obs::SpanKind::ProbeChunk, desc.range.len() as u64);
        let (from, index, from_schema, to_schema) = if desc.dir == 0 {
            (prepared_source, target_index, source, target)
        } else {
            (prepared_target, source_index, target, source)
        };
        let mut out = ChunkOut {
            counts: Vec::with_capacity(desc.range.len()),
            targets: Vec::new(),
            strong: Vec::new(),
        };
        for idx in desc.range.clone() {
            probe_element(from.block_features_of(idx), index, policy, scratch);
            out.counts.push(scratch.kept.len() as u32);
            let container = !from_schema.elements()[idx].children.is_empty();
            for &(t, w) in &scratch.kept {
                out.targets.push(t);
                if container
                    && w >= CHILD_RESCUE_WEIGHT
                    && !to_schema.elements()[t as usize].children.is_empty()
                {
                    let (s, t) = if desc.dir == 0 {
                        (idx as u32, t)
                    } else {
                        (t, idx as u32)
                    };
                    out.strong.push((s, t, w));
                }
            }
        }
        out
    };

    let outs: Vec<ChunkOut> = if parallelism > 1 && descs.len() > 1 {
        let done: Mutex<Vec<(usize, ChunkOut)>> = Mutex::new(Vec::with_capacity(descs.len()));
        let queue = Mutex::new(descs.iter().enumerate());
        exec.run_lanes_budgeted(parallelism.min(descs.len()), gov.budget, |_| {
            let mut scratch = ProbeScratch::new(rows.max(cols));
            loop {
                let claimed = queue.lock().expect("probe queue poisoned").next();
                let Some((index, desc)) = claimed else { break };
                // Cancellation point (queue lock released, chunk not
                // yet probed).
                if let Some(token) = gov.token {
                    token.checkpoint();
                }
                let out = run_chunk(desc, &mut scratch);
                done.lock()
                    .expect("probe results poisoned")
                    .push((index, out));
            }
            scratch.flush_probe_counters();
        });
        let mut done = done.into_inner().expect("probe results poisoned");
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, out)| out).collect()
    } else {
        let mut scratch = ProbeScratch::new(rows.max(cols));
        let mut outs = Vec::with_capacity(descs.len());
        for desc in &descs {
            if let Some(token) = gov.token {
                token.checkpoint();
            }
            outs.push(run_chunk(desc, &mut scratch));
        }
        scratch.flush_probe_counters();
        outs
    };

    // Stitch per direction, in chunk (= element) order.
    let stitch = |dir: usize, n: usize| -> ProbeRows {
        let mut probe = ProbeRows {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::new(),
        };
        probe.offsets.push(0);
        for (desc, out) in descs.iter().zip(&outs) {
            if desc.dir != dir {
                continue;
            }
            probe.targets.extend_from_slice(&out.targets);
            let mut at = *probe.offsets.last().expect("non-empty offsets");
            for &c in &out.counts {
                at += c;
                probe.offsets.push(at);
            }
        }
        probe
    };
    let strong = outs
        .iter()
        .flat_map(|out| out.strong.iter().copied())
        .collect();
    (stitch(0, rows), stitch(1, cols), strong)
}

/// Overlap weight at which a candidate *container* pair also enqueues its
/// children's cross product. Structural propagation can lift a child pair
/// above the operating threshold on its parents' strength alone, so a child
/// whose own vocabulary shares nothing must still be scored when its
/// parents collide hard (`organization.width` ↔ `ORGANIZATION/WEIGHT`). The
/// bound keeps the rescue from exploding: only strongly-overlapping
/// container pairs (a rare-token name collision, not generic-vocabulary
/// noise) fan out to their children.
const CHILD_RESCUE_WEIGHT: f64 = 5.0;

/// Per container, at most this many strongest partners fan out to children.
/// A container has essentially one true counterpart; rescuing its few best
/// collisions covers propagation lift while keeping the fan-out linear in
/// the number of containers instead of quadratic.
const CHILD_RESCUE_PARTNERS: usize = 3;

/// Append the sorted union of two ascending slices to `out` (an entry in
/// both is written once).
fn union_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Generate the candidate pair set for matching `source` against `target`
/// under `policy`, inline on the calling thread (index builds included).
///
/// Both directions are probed and unioned, then the set is closed
/// structurally:
/// * **exact-name rescue** — two elements whose normalized name token
///   sequences are equal (the `exact-name` voter's own equality test, so
///   `NM`/`name` and `Id`/`identifier` collide after abbreviation
///   expansion) are always candidates. Exact name equality is the
///   strongest single voter signal, but a ubiquitous name (`identifier`,
///   `name`) carries so little IDF weight that the top-k cap can drop the
///   true counterpart in a dense neighborhood of look-alikes; a sorted-key
///   join on the interned token sequences recovers exactly those pairs at
///   `O((rows + cols) log keys + collisions)` cost;
/// * **child rescue** — a candidate pair of containers whose overlap weight
///   reaches `CHILD_RESCUE_WEIGHT` adds its children's cross product, so
///   pairs that only clear the operating threshold through their parents'
///   propagation blend are still scored;
/// * **parent closure** (transitive) — for every candidate `(s, t)` whose
///   elements both have parents, `(parent(s), parent(t))` is added, up to
///   the roots, keeping the Propagate stage's base reads scored.
pub fn generate_candidates(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    policy: &BlockingPolicy,
) -> CandidateSet {
    // One lane never touches the pool: every stage takes its inline path.
    generate_candidates_governed(
        source,
        target,
        prepared_source,
        prepared_target,
        None,
        policy,
        Executor::global(),
        1,
        GovernedExec::default(),
    )
}

/// [`generate_candidates`] with index builds and probes fanned out across
/// up to `parallelism` lanes of `exec` — the pipeline's entry point.
///
/// `indices` are pre-built per-schema token indices, as the batch planner
/// passes them (it indexes each of a batch's N schemata once instead of
/// once per pair per direction); they must be built over exactly
/// `prepared_source` / `prepared_target`. With `None` both indices are
/// built here. Index construction is deterministic per schema, so the
/// result is bit-for-bit the same either way, at every lane count.
///
/// `gov` applies serving-layer controls: helper lanes drawn from
/// `gov.budget`, cancellation checked at chunk boundaries against
/// `gov.token`. [`GovernedExec::default`] is the unbudgeted,
/// uncancellable run; no control changes the result.
#[allow(clippy::too_many_arguments)]
pub fn generate_candidates_governed(
    source: &Schema,
    target: &Schema,
    prepared_source: &PreparedSchema,
    prepared_target: &PreparedSchema,
    indices: Option<(&ElementTokenIndex, &ElementTokenIndex)>,
    policy: &BlockingPolicy,
    exec: &Executor,
    parallelism: usize,
    gov: GovernedExec<'_>,
) -> CandidateSet {
    let rows = prepared_source.len();
    let cols = prepared_target.len();
    debug_assert_eq!(rows, source.len());
    debug_assert_eq!(cols, target.len());
    if let Some((source_index, target_index)) = indices {
        // Hard checks (cheap next to the probe): a stale or swapped index
        // would otherwise produce a plausible-but-wrong candidate set in
        // release.
        assert_eq!(
            source_index.len(),
            rows,
            "source index does not match the prepared source schema"
        );
        assert_eq!(
            target_index.len(),
            cols,
            "target index does not match the prepared target schema"
        );
    }
    if rows == 0 || cols == 0 {
        return CandidateSet::empty(rows, cols);
    }
    if matches!(policy, BlockingPolicy::Exhaustive) {
        return CandidateSet::exhaustive(rows, cols);
    }
    let built;
    let (source_index, target_index) = match indices {
        Some(indices) => indices,
        None => {
            if let Some(token) = gov.token {
                token.checkpoint();
            }
            built = (
                ElementTokenIndex::build_parallel(prepared_source, exec, parallelism),
                ElementTokenIndex::build_parallel(prepared_target, exec, parallelism),
            );
            (&built.0, &built.1)
        }
    };

    // Both probe directions (concurrent lanes under an executor). Features
    // come pre-interned from the preparations, so probing allocates no
    // strings.
    let (fwd, bwd, mut strong) = probe_sides(
        source,
        target,
        prepared_source,
        prepared_target,
        source_index,
        target_index,
        policy,
        exec,
        parallelism,
        gov,
    );

    let _closure = crate::obs::span(crate::obs::SpanKind::BlockClosure, rows as u64);
    let src = source.elements();
    let tgt = target.elements();

    // Child rescue for strongly-overlapping container pairs, capped at each
    // container's strongest partners (both directions): keep each pair's
    // best weight, then walk pairs by (weight desc, pair asc).
    // Weights are finite sums of positive IDF weights, on which `total_cmp`
    // is the reference's `partial_cmp` order.
    strong.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
    strong.dedup_by_key(|&mut (s, t, _)| (s, t));
    strong.sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    let mut source_fanout = vec![0usize; rows];
    let mut target_fanout = vec![0usize; cols];
    // Rescued container pairs, sorted by source so a child row finds its
    // parent's partners by binary search.
    let mut rescued: Vec<(u32, u32)> = Vec::new();
    for (s, t, _) in strong {
        let (si, ti) = (s as usize, t as usize);
        if source_fanout[si] >= CHILD_RESCUE_PARTNERS || target_fanout[ti] >= CHILD_RESCUE_PARTNERS
        {
            continue;
        }
        source_fanout[si] += 1;
        target_fanout[ti] += 1;
        rescued.push((s, t));
    }
    rescued.sort_unstable();

    // Transpose the backward probe into per-source rows with one counting
    // pass; visiting `t` ascending keeps every transposed row sorted.
    let mut tr_offsets = vec![0u32; rows + 1];
    for &s in &bwd.targets {
        tr_offsets[s as usize + 1] += 1;
    }
    for r in 0..rows {
        tr_offsets[r + 1] += tr_offsets[r];
    }
    let mut tr_next: Vec<u32> = tr_offsets[..rows].to_vec();
    let mut tr_targets = vec![0u32; bwd.targets.len()];
    for t in 0..cols {
        for &s in bwd.row(t) {
            tr_targets[tr_next[s as usize] as usize] = t as u32;
            tr_next[s as usize] += 1;
        }
    }
    let name_slot = source_index.name_slots_in(target_index);
    let target_parent: Vec<u32> = tgt
        .iter()
        .map(|e| e.parent.map_or(u32::MAX, |p| p.0))
        .collect();

    // One pass over source rows, children before parents. Ids are assigned
    // parent-first (`Schema::add_child` takes an existing parent), so
    // descending id order is a topological order of the forest: when row
    // `s` is built, every child row is already final and its parent pairs
    // `(s, parent(t))` can be pulled in — the transitive parent closure in
    // a single pass, with no depth computation and no recursion.
    //
    // Row `s` is the union of its forward probe row, its transposed
    // backward row, its exact-name rescue, the children of its parent's
    // rescued partners, and the parent pairs of its children's rows.
    // `stamp[t] == s` marks `t` as already in row `s`. Finished rows are
    // appended to `done` in descending row order: row `s` is
    // `done[ends[s + 1]..ends[s]]`.
    let mut stamp = vec![u32::MAX; cols];
    let mut done: Vec<u32> = Vec::with_capacity(fwd.targets.len() + bwd.targets.len() + rows);
    let mut ends = vec![0usize; rows + 1];
    let mut row: Vec<u32> = Vec::new();
    let mut extra: Vec<u32> = Vec::new();
    for s in (0..rows).rev() {
        let s32 = s as u32;
        row.clear();
        union_sorted(
            fwd.row(s),
            &tr_targets[tr_offsets[s] as usize..tr_offsets[s + 1] as usize],
            &mut row,
        );
        for &t in &row {
            stamp[t as usize] = s32;
        }
        extra.clear();
        let mut add = |t: u32| {
            if stamp[t as usize] != s32 {
                stamp[t as usize] = s32;
                extra.push(t);
            }
        };
        // Exact-name rescue: equal normalized name-token sequences (the
        // exact-name voter's equality test) are always candidates. Empty
        // bags excepted — the voter is neutral on those (and no name table
        // holds them). The tables live on the prebuilt indices, so a batch
        // pays them once per schema.
        if name_slot[s] != u32::MAX {
            for &t in target_index.name_posting(name_slot[s] as usize) {
                add(t);
            }
        }
        if let Some(p) = src[s].parent {
            let lo = rescued.partition_point(|&(rs, _)| rs < p.0);
            let hi = rescued.partition_point(|&(rs, _)| rs <= p.0);
            for &(_, t) in &rescued[lo..hi] {
                for ct in &tgt[t as usize].children {
                    add(ct.0);
                }
            }
        }
        for c in &src[s].children {
            debug_assert!(c.index() > s, "child ids follow their parent's");
            for &t in &done[ends[c.index() + 1]..ends[c.index()]] {
                let pt = target_parent[t as usize];
                if pt != u32::MAX {
                    add(pt);
                }
            }
        }
        if extra.is_empty() {
            done.extend_from_slice(&row);
        } else {
            extra.sort_unstable();
            union_sorted(&row, &extra, &mut done);
        }
        ends[s] = done.len();
    }

    // Lay the rows out in ascending order.
    let mut offsets = Vec::with_capacity(rows + 1);
    let mut targets = Vec::with_capacity(done.len());
    offsets.push(0);
    for s in 0..rows {
        targets.extend_from_slice(&done[ends[s + 1]..ends[s]]);
        offsets.push(targets.len());
    }
    CandidateSet {
        rows,
        cols,
        offsets,
        targets,
    }
}

pub mod reference {
    //! The retained map-based reference implementation of the blocking
    //! index — the exact pre-CSR code path, kept as the oracle for the pin
    //! tests (`tests/csr_index_pin.rs`) and the CSR-vs-map micro-benches.
    //! Semantics documentation lives on the production items; this module
    //! only mirrors them.

    use super::{
        idf_weight, BlockingPolicy, CandidateSet, CHILD_RESCUE_PARTNERS, CHILD_RESCUE_WEIGHT,
    };
    use crate::prepare::PreparedSchema;
    use sm_schema::Schema;
    use sm_text::intern::{TokenArena, TokenId};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// The historical map-keyed inverted index: `HashMap` postings, IDF
    /// weights recomputed on every probe.
    #[derive(Debug)]
    pub struct ReferenceTokenIndex {
        postings: HashMap<TokenId, Vec<u32>>,
        name_postings: HashMap<Vec<TokenId>, Vec<u32>>,
        arena: Arc<TokenArena>,
        len: usize,
    }

    impl ReferenceTokenIndex {
        /// Index every element of a prepared schema (single-threaded map
        /// inserts, exactly as before the CSR rebuild).
        pub fn build(prepared: &PreparedSchema) -> Self {
            let mut postings: HashMap<TokenId, Vec<u32>> = HashMap::new();
            let mut name_postings: HashMap<Vec<TokenId>, Vec<u32>> = HashMap::new();
            for idx in 0..prepared.len() {
                let element = prepared.element(idx);
                for &feat in &element.block_features {
                    postings.entry(feat).or_default().push(idx as u32);
                }
                if !element.name_ids.is_empty() {
                    match name_postings.get_mut(element.name_ids.as_slice()) {
                        Some(list) => list.push(idx as u32),
                        None => {
                            name_postings.insert(element.name_ids.clone(), vec![idx as u32]);
                        }
                    }
                }
            }
            ReferenceTokenIndex {
                postings,
                name_postings,
                arena: Arc::clone(prepared.arena()),
                len: prepared.len(),
            }
        }

        /// Elements whose full normalized name equals `name_ids`.
        pub fn name_postings(&self, name_ids: &[TokenId]) -> &[u32] {
            self.name_postings.get(name_ids).map_or(&[], Vec::as_slice)
        }

        /// Number of indexed elements.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True when no elements are indexed.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Every indexed feature id (arbitrary map order).
        pub fn feature_ids(&self) -> impl Iterator<Item = TokenId> + '_ {
            self.postings.keys().copied()
        }

        /// Posting list of an interned feature (empty when absent).
        pub fn postings_by_id(&self, feature: TokenId) -> &[u32] {
            self.postings.get(&feature).map_or(&[], Vec::as_slice)
        }

        /// Posting list of a feature string (empty when absent).
        pub fn postings(&self, feature: &str) -> &[u32] {
            self.arena
                .lookup(feature)
                .map_or(&[], |id| self.postings_by_id(id))
        }

        /// IDF weight, recomputed from the document frequency per call —
        /// the historical per-probe cost the CSR table eliminates.
        pub fn weight_by_id(&self, feature: TokenId) -> f64 {
            idf_weight(self.len as f64, self.postings_by_id(feature).len() as f64)
        }

        /// String-keyed [`Self::weight_by_id`].
        pub fn weight(&self, feature: &str) -> f64 {
            idf_weight(self.len as f64, self.postings(feature).len() as f64)
        }
    }

    /// One direction of candidate generation over the map index, verbatim
    /// from the pre-CSR implementation.
    fn probe_side(
        from: &PreparedSchema,
        index: &ReferenceTokenIndex,
        policy: &BlockingPolicy,
    ) -> Vec<Vec<(u32, f64)>> {
        let n_to = index.len();
        let mut acc: Vec<f64> = vec![0.0; n_to];
        let mut touched: Vec<u32> = Vec::new();
        let mut out: Vec<Vec<(u32, f64)>> = Vec::with_capacity(from.len());
        for idx in 0..from.len() {
            let feats = &from.element(idx).block_features;
            touched.clear();
            for &feat in feats {
                let posting = index.postings_by_id(feat);
                if posting.is_empty() {
                    continue;
                }
                let w = idf_weight(n_to as f64, posting.len() as f64);
                for &t in posting {
                    if acc[t as usize] == 0.0 {
                        touched.push(t);
                    }
                    acc[t as usize] += w;
                }
            }
            let mut kept: Vec<(u32, f64)> = match *policy {
                BlockingPolicy::Exhaustive => {
                    (0..n_to as u32).map(|t| (t, acc[t as usize])).collect()
                }
                BlockingPolicy::WeightedThreshold { min_weight } => {
                    let mut kept: Vec<(u32, f64)> = touched
                        .iter()
                        .filter(|&&t| acc[t as usize] >= min_weight)
                        .map(|&t| (t, acc[t as usize]))
                        .collect();
                    kept.sort_unstable_by_key(|&(t, _)| t);
                    kept
                }
                BlockingPolicy::TopK { k, min_weight } => {
                    let mut ranked: Vec<u32> = touched.clone();
                    ranked.sort_unstable_by(|&a, &b| {
                        acc[b as usize]
                            .partial_cmp(&acc[a as usize])
                            .expect("finite overlap weight")
                            .then(a.cmp(&b))
                    });
                    let mut kept: Vec<(u32, f64)> = ranked
                        .iter()
                        .enumerate()
                        .filter(|&(rank, &t)| rank < k || acc[t as usize] >= min_weight)
                        .map(|(_, &t)| (t, acc[t as usize]))
                        .collect();
                    kept.sort_unstable_by_key(|&(t, _)| t);
                    kept
                }
            };
            kept.dedup_by_key(|&mut (t, _)| t);
            for &t in &touched {
                acc[t as usize] = 0.0;
            }
            out.push(kept);
        }
        out
    }

    /// The pre-CSR candidate generation: map-keyed indices, per-row
    /// `Vec<Vec<u32>>` union buffers, stack-based parent closure. The CSR
    /// path must reproduce its output byte for byte under every policy.
    pub fn generate_candidates(
        source: &Schema,
        target: &Schema,
        prepared_source: &PreparedSchema,
        prepared_target: &PreparedSchema,
        policy: &BlockingPolicy,
    ) -> CandidateSet {
        let rows = prepared_source.len();
        let cols = prepared_target.len();
        if rows == 0 || cols == 0 {
            return CandidateSet::from_rows(vec![Vec::new(); rows], cols);
        }
        if matches!(policy, BlockingPolicy::Exhaustive) {
            return CandidateSet::exhaustive(rows, cols);
        }
        let source_index = ReferenceTokenIndex::build(prepared_source);
        let target_index = ReferenceTokenIndex::build(prepared_target);

        let weighted = probe_side(prepared_source, &target_index, policy);
        let mut per_row: Vec<Vec<u32>> = weighted
            .iter()
            .map(|list| list.iter().map(|&(t, _)| t).collect())
            .collect();
        let mut strong: Vec<(u32, u32, f64)> = weighted
            .iter()
            .enumerate()
            .flat_map(|(s, list)| {
                list.iter()
                    .filter(|&&(_, w)| w >= CHILD_RESCUE_WEIGHT)
                    .map(move |&(t, w)| (s as u32, t, w))
            })
            .collect();

        for (t, sources) in probe_side(prepared_target, &source_index, policy)
            .into_iter()
            .enumerate()
        {
            for (s, w) in sources {
                per_row[s as usize].push(t as u32);
                if w >= CHILD_RESCUE_WEIGHT {
                    strong.push((s, t as u32, w));
                }
            }
        }

        for (s, list) in per_row.iter_mut().enumerate() {
            let ids = prepared_source.element(s).name_ids.as_slice();
            if !ids.is_empty() {
                list.extend(target_index.name_postings(ids).iter().copied());
            }
        }

        strong.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(b.2.partial_cmp(&a.2).expect("finite"))
        });
        strong.dedup_by_key(|&mut (s, t, _)| (s, t));
        strong.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite")
                .then((a.0, a.1).cmp(&(b.0, b.1)))
        });
        let mut source_fanout = vec![0usize; rows];
        let mut target_fanout = vec![0usize; cols];
        for (s, t, _) in strong {
            let (s, t) = (s as usize, t as usize);
            if source_fanout[s] >= CHILD_RESCUE_PARTNERS
                || target_fanout[t] >= CHILD_RESCUE_PARTNERS
            {
                continue;
            }
            let sc = &source.elements()[s].children;
            let tc = &target.elements()[t].children;
            if sc.is_empty() || tc.is_empty() {
                continue;
            }
            source_fanout[s] += 1;
            target_fanout[t] += 1;
            for &cs in sc {
                let list = &mut per_row[cs.index()];
                list.extend(tc.iter().map(|ct| ct.0));
            }
        }

        let source_parents: Vec<Option<u32>> = source
            .elements()
            .iter()
            .map(|e| e.parent.map(|p| p.0))
            .collect();
        let target_parents: Vec<Option<u32>> = target
            .elements()
            .iter()
            .map(|e| e.parent.map(|p| p.0))
            .collect();
        for list in &mut per_row {
            list.sort_unstable();
            list.dedup();
        }
        let mut frontier: Vec<(u32, u32)> = Vec::new();
        for (s, list) in per_row.iter().enumerate() {
            for &t in list {
                if let (Some(ps), Some(pt)) = (source_parents[s], target_parents[t as usize]) {
                    frontier.push((ps, pt));
                }
            }
        }
        while let Some((s, t)) = frontier.pop() {
            let list = &mut per_row[s as usize];
            if !list.contains(&t) {
                list.push(t);
                if let (Some(ps), Some(pt)) =
                    (source_parents[s as usize], target_parents[t as usize])
                {
                    frontier.push((ps, pt));
                }
            }
        }

        for list in &mut per_row {
            list.sort_unstable();
            list.dedup();
        }
        CandidateSet::from_rows(per_row, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::default_normalizer;
    use sm_schema::{DataType, Documentation, ElementKind, SchemaFormat, SchemaId};
    use sm_text::soundex::soundex;

    fn prepared(s: &Schema) -> PreparedSchema {
        PreparedSchema::build(s, default_normalizer())
    }

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
        let c = a.add_root("COI", ElementKind::Table, DataType::None);
        a.add_child(c, "member", ElementKind::Column, DataType::text())
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
        let c2 = b.add_root(
            "CommunityOfInterest",
            ElementKind::ComplexType,
            DataType::None,
        );
        b.add_child(c2, "MemberName", ElementKind::XmlElement, DataType::text())
            .unwrap();
        (a, b)
    }

    #[test]
    fn index_posts_name_doc_soundex_and_acronym_features() {
        let (a, _) = fixture();
        let pa = prepared(&a);
        let index = ElementTokenIndex::build(&pa);
        assert_eq!(index.len(), a.len());
        let person = a.find_by_name("person_id").unwrap();
        // Name token posting.
        assert!(index.postings("person").contains(&(person.0)));
        // Doc token posting ("unique" survives prose normalization).
        assert!(index.postings("uniqu").contains(&(person.0)));
        // Soundex key of a name token.
        assert!(!index
            .postings(&format!("s:{}", soundex("person")))
            .is_empty());
        // Short raw name indexed as an acronym key.
        let coi = a.find_by_name("COI").unwrap();
        assert!(index.postings("a:coi").contains(&(coi.0)));
    }

    #[test]
    fn csr_index_mirrors_reference_postings_and_weights() {
        let (a, b) = fixture();
        for s in [&a, &b] {
            let p = prepared(s);
            let csr = ElementTokenIndex::build(&p);
            let reference = reference::ReferenceTokenIndex::build(&p);
            let mut seen = 0usize;
            for feat in reference.feature_ids() {
                assert_eq!(csr.postings_by_id(feat), reference.postings_by_id(feat));
                assert_eq!(
                    csr.weight_by_id(feat).to_bits(),
                    reference.weight_by_id(feat).to_bits()
                );
                seen += 1;
            }
            assert_eq!(csr.feature_count(), seen);
            // Name table round-trips every element's name key.
            for idx in 0..p.len() {
                let ids = p.element(idx).name_ids.as_slice();
                assert_eq!(csr.name_postings(ids), reference.name_postings(ids));
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_inline_build() {
        let (a, _) = fixture();
        let pa = prepared(&a);
        let exec = Executor::new(4);
        let inline = ElementTokenIndex::build(&pa);
        let parallel = ElementTokenIndex::build_parallel(&pa, &exec, 4);
        assert_eq!(inline.features, parallel.features);
        assert_eq!(inline.offsets, parallel.offsets);
        assert_eq!(inline.postings, parallel.postings);
        assert_eq!(
            inline
                .weights
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            parallel
                .weights
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(inline.name_posts, parallel.name_posts);
        assert_eq!(inline.name_tokens, parallel.name_tokens);
    }

    #[test]
    fn rare_features_outweigh_common_ones() {
        let (a, _) = fixture();
        let index = ElementTokenIndex::build(&prepared(&a));
        // "person" appears in two elements, "member" in one.
        assert!(index.weight("member") > index.weight("person"));
        assert!(index.weight("absent-token") > index.weight("member"));
    }

    #[test]
    fn default_policy_finds_true_pairs_and_prunes() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = generate_candidates(&a, &b, &pa, &pb, &BlockingPolicy::default());
        let pid = a.find_by_name("person_id").unwrap();
        let pid2 = b.find_by_name("PersonIdentifier").unwrap();
        assert!(cands.contains(pid.index(), pid2.index()));
        let ln = a.find_by_name("last_name").unwrap();
        let ln2 = b.find_by_name("LastName").unwrap();
        assert!(cands.contains(ln.index(), ln2.index()));
        assert!(cands.len() <= a.len() * b.len());
    }

    #[test]
    fn acronym_key_blocks_coi_to_community_of_interest() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        // A tight threshold policy: only strong shared evidence survives;
        // the acronym key must be enough to rescue COI.
        let cands = generate_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::TopK {
                k: 1,
                min_weight: f64::INFINITY,
            },
        );
        let coi = a.find_by_name("COI").unwrap();
        let full = b.find_by_name("CommunityOfInterest").unwrap();
        assert!(cands.contains(coi.index(), full.index()));
    }

    #[test]
    fn exact_name_pairs_survive_any_cap() {
        // Dozens of elements all sharing the ubiquitous "identifier" token:
        // the IDF weight of the collision is tiny and the top-k cap is 1,
        // but the one *exactly equal* name must still be a candidate.
        let mut a = Schema::new(SchemaId(1), "A", SchemaFormat::Generic);
        let ra = a.add_root("Root", ElementKind::Group, DataType::None);
        a.add_child(ra, "identifier", ElementKind::Column, DataType::Integer)
            .unwrap();
        for i in 0..30 {
            a.add_child(
                ra,
                format!("thing_{i}_identifier"),
                ElementKind::Column,
                DataType::Integer,
            )
            .unwrap();
        }
        let mut b = Schema::new(SchemaId(2), "B", SchemaFormat::Generic);
        let rb = b.add_root("Base", ElementKind::Group, DataType::None);
        let target = b
            .add_child(rb, "identifier", ElementKind::Column, DataType::Integer)
            .unwrap();
        for i in 0..30 {
            b.add_child(
                rb,
                format!("item_{i}_identifier"),
                ElementKind::Column,
                DataType::Integer,
            )
            .unwrap();
        }
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = generate_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::TopK {
                k: 1,
                min_weight: f64::INFINITY,
            },
        );
        let source = a.find_by_name("identifier").unwrap();
        assert!(
            cands.contains(source.index(), target.index()),
            "exact-name pair must survive the cap"
        );
    }

    #[test]
    fn parents_of_candidates_are_candidates() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = generate_candidates(&a, &b, &pa, &pb, &BlockingPolicy::default());
        for s in 0..cands.rows() {
            for &t in cands.row(s) {
                let ps = a.elements()[s].parent;
                let pt = b.elements()[t as usize].parent;
                if let (Some(ps), Some(pt)) = (ps, pt) {
                    assert!(
                        cands.contains(ps.index(), pt.index()),
                        "parent of candidate ({s},{t}) missing"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_policy_is_the_full_cross_product() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = generate_candidates(&a, &b, &pa, &pb, &BlockingPolicy::Exhaustive);
        assert_eq!(cands.len(), a.len() * b.len());
        assert!((cands.density() - 1.0).abs() < 1e-12);
        for s in 0..a.len() {
            assert_eq!(cands.row(s).len(), b.len());
        }
    }

    #[test]
    fn weighted_threshold_at_infinity_keeps_exactly_the_name_rescue_closure() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let cands = generate_candidates(
            &a,
            &b,
            &pa,
            &pb,
            &BlockingPolicy::WeightedThreshold {
                min_weight: f64::INFINITY,
            },
        );
        // Probing keeps nothing at infinite weight; the candidate set is
        // exactly the exact-name rescue (equal normalized name tokens, e.g.
        // "last_name" ≡ "LastName") closed under parenthood.
        let mut expected: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for s in 0..a.len() {
            for t in 0..b.len() {
                if !pa.element(s).name_ids.is_empty()
                    && pa.element(s).name_ids == pb.element(t).name_ids
                {
                    let (mut sp, mut tp) = (Some(s), Some(t));
                    while let (Some(cs), Some(ct)) = (sp, tp) {
                        expected.insert((cs, ct));
                        sp = a.elements()[cs].parent.map(|p| p.index());
                        tp = b.elements()[ct].parent.map(|p| p.index());
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(usize, usize)> = (0..cands.rows())
            .flat_map(|s| cands.row(s).iter().map(move |&t| (s, t as usize)))
            .collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "fixture has exact-name pairs");
        assert!(cands.density() < 1.0, "still prunes almost everything");
    }

    #[test]
    fn csr_generation_matches_reference_on_fixture() {
        let (a, b) = fixture();
        let (pa, pb) = (prepared(&a), prepared(&b));
        let exec = Executor::new(3);
        for policy in [
            BlockingPolicy::default(),
            BlockingPolicy::TopK {
                k: 2,
                min_weight: 3.0,
            },
            BlockingPolicy::WeightedThreshold { min_weight: 2.0 },
            BlockingPolicy::Exhaustive,
        ] {
            let expect = reference::generate_candidates(&a, &b, &pa, &pb, &policy);
            let inline = generate_candidates(&a, &b, &pa, &pb, &policy);
            assert_eq!(inline, expect, "inline CSR diverged under {policy:?}");
            let parallel = generate_candidates_governed(
                &a,
                &b,
                &pa,
                &pb,
                None,
                &policy,
                &exec,
                3,
                GovernedExec::default(),
            );
            assert_eq!(parallel, expect, "parallel CSR diverged under {policy:?}");
        }
    }

    #[test]
    fn empty_sides_are_safe() {
        let (a, _) = fixture();
        let empty = Schema::new(SchemaId(9), "E", SchemaFormat::Generic);
        let (pa, pe) = (prepared(&a), prepared(&empty));
        let cands = generate_candidates(&a, &empty, &pa, &pe, &BlockingPolicy::default());
        assert!(cands.is_empty());
        assert_eq!(cands.rows(), a.len());
        assert_eq!(cands.cols(), 0);
    }
}
