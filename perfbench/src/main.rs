//! The repository benchmark: three seeded workloads driven through the
//! public APIs of `sm_schema`, `harmony_core`, `sm_enterprise` and
//! `sm_export`.
//!
//! ```text
//! perfbench --workload <paper_pair|nway_consolidation|served_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run times whole user operations from outside and
//! prints the end-to-end metrics; with `--trace 1` it wraps each public
//! layer call in a benchmark-side span and prints the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md for
//! what each workload isolates and which metric each layer should move.

mod nway;
mod paper_pair;
mod report;
mod rng;
mod served;

use report::Report;

/// Every end-to-end metric, reported by every workload under `--trace 0`.
/// Latency percentiles are printed, not listed: on a small shared host they
/// move between runs by more than any usable bound, so work per second
/// carries the speed of each workload instead. For `served_mix` that is
/// batch throughput; its point and search latencies are not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pairs_per_s", "1/s"),
    ("agreement", "ratio"),
];

/// Every per-layer metric, reported by every workload under `--trace 1`.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.ddl_ms", "ms"),
    ("parse.xsd_ms", "ms"),
    ("parse.errors", "count"),
    ("parse.elements_lost", "count"),
    ("prepare.ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_mib", "MiB"),
    ("block.ms", "ms"),
    ("block.candidates", "count"),
    ("block.candidate_frac", "ratio"),
    ("score.tier1_ms", "ms"),
    ("score.tier2_ms", "ms"),
    ("score.skip_rate", "ratio"),
    ("merge.ms", "ms"),
    ("propagate.ms", "ms"),
    ("select.ms", "ms"),
    ("summarize.ms", "ms"),
    ("export.ms", "ms"),
    ("pair.traced_ms", "ms"),
    ("pair.residual_ms", "ms"),
    ("prepare.lane_speedup", "ratio"),
    ("block.lane_speedup", "ratio"),
    ("score.lane_speedup", "ratio"),
    ("propagate.lane_speedup", "ratio"),
    ("pair.lane_speedup", "ratio"),
    ("exec.enqueued", "count"),
    ("exec.stolen", "count"),
    ("exec.inline_runs", "count"),
    ("exec.parked", "count"),
    ("plan.ms", "ms"),
    ("plan.pairs_planned", "count"),
    ("batch.exec_ms", "ms"),
    ("batch.pair_us", "us"),
    ("batch.pairs_scored", "count"),
    ("serve.point_wait_p99_ms", "ms"),
    ("serve.point_service_p50_ms", "ms"),
    ("serve.search_service_p50_ms", "ms"),
    ("serve.batch_service_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.degraded", "count"),
    ("gen.late_p99_ms", "ms"),
    ("serve.point_latency_mean_ms", "ms"),
    ("gen.late_mean_ms", "ms"),
    ("serve.point_wait_mean_ms", "ms"),
    ("serve.point_service_mean_ms", "ms"),
    ("serve.point_residual_ms", "ms"),
    ("search.query_ms", "ms"),
    ("registry.write_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let lanes = harmony_core::engine::detect_threads();
    println!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}, {lanes} lane(s) (available_parallelism)",
        args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    match workload.as_str() {
        "paper_pair" => paper_pair::run(&args, &mut report),
        "nway_consolidation" => nway::run(&args, &mut report),
        "served_mix" => served::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    report.finish(names);
}
