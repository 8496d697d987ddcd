//! The per-pair oracle that full-match pins compare the pipeline against.
//!
//! It computes every cell of `MATCH(source, target)` one pair at a time
//! from the documented definition, so it shares nothing with the pipeline
//! past the voter kernels and the merger: no candidate set, no blocked
//! score loop, no cascade, no propagation pass.

use harmony_core::prelude::*;
use sm_schema::Schema;

/// The full match matrix, row-major, computed per pair:
/// [`MatchEngine::score_pair`], then the floor (`merged < floor → 0.0`),
/// then the `f32` narrowing, then — for a pair whose elements both have
/// parents — the blend `(1−α)·own + α·parent` over the parents' narrowed
/// score, narrowed again. `floor` and `alpha` must be the engine's.
pub fn per_pair_matrix(
    engine: &MatchEngine,
    source: &Schema,
    target: &Schema,
    floor: Option<f64>,
    alpha: f64,
) -> Vec<f32> {
    let ctx = engine.build_context(source, target);
    let floor = floor.unwrap_or(f64::NEG_INFINITY);
    let cols = target.len();
    let pairs = || source.ids().flat_map(|s| target.ids().map(move |t| (s, t)));
    let base: Vec<f32> = pairs()
        .map(|(s, t)| {
            let merged = engine.score_pair(&ctx, s, t).value();
            if merged < floor {
                0.0
            } else {
                merged as f32
            }
        })
        .collect();
    pairs()
        .map(|(s, t)| {
            let own = f64::from(base[s.index() * cols + t.index()]);
            match (source.element(s).parent, target.element(t).parent) {
                (Some(ps), Some(pt)) if alpha > 0.0 => {
                    let parent = f64::from(base[ps.index() * cols + pt.index()]);
                    ((1.0 - alpha) * own + alpha * parent) as f32
                }
                _ => own as f32,
            }
        })
        .collect()
}
