//! Shared measurement machinery: percentiles, the metric list a run
//! prints, and the benchmark-side span recorder of traced runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Prints a percentile with the sample count it rests on and how many
/// samples lie beyond it.
pub fn print_percentile(label: &str, samples: &[f64], q: f64, unit: &str) {
    let beyond = samples.len()
        - ((samples.len() as f64) * q)
            .ceil()
            .min(samples.len() as f64) as usize;
    println!(
        "  {label:<28} {:>12.4} {unit:<6} (n = {}, {beyond} beyond)",
        percentile(samples, q),
        samples.len()
    );
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// The peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    harmony_core::serve::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// The metrics of one run, in print order, and its answer bookkeeping.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of wrong answers; any entry makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn wrong_answer(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 8 {
            eprintln!("wrong answer: {what}");
        }
        self.wrong.push(what);
    }

    /// Prints every metric by name with its unit, then the result line,
    /// whose metrics are exactly `names`. A name this run did not measure
    /// is a layer the workload does not exercise and reads 0.
    pub fn finish(&self, names: &[(&str, &str)]) {
        println!("metrics:");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>14.6} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, measured_unit)) => {
                    assert_eq!(measured_unit, *unit, "unit of {name}");
                    value
                }
                None => {
                    println!("  {name:<32} {:>14} {unit} (layer not exercised)", 0);
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// One recorded interval of a traced run.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True when the interval was measured by the program (a field of its
    /// returned `StageTimings`) rather than around a public call here.
    pub program_reported: bool,
}

/// In-memory span recorder for traced runs. Untraced runs pass no tracer,
/// so their operations record nothing.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            program_reported: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a program-reported interval laid end to end after `at_ns`;
    /// returns where it ends.
    pub fn reported(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        at_ns: u64,
        len: Duration,
    ) -> u64 {
        let end_ns = at_ns + len.as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns: at_ns,
            end_ns,
            program_reported: true,
        });
        end_ns
    }

    pub fn duration_ms(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Writes every span as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"program_reported\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.program_reported
            )
            .expect("write to string");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Optional-tracer helpers, so one operation body serves traced and
/// untraced runs.
pub fn begin(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
) -> Option<usize> {
    t.as_mut().map(|t| t.begin(name, op, parent))
}

pub fn end(t: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(s)) = (t.as_mut(), span) {
        t.end(s);
    }
}
