//! End-to-end and per-layer benchmark of ETSB-RNN error detection.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path etsbbench/Cargo.toml -- \
//!     --workload stream_distinct --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run from the repository root. Each run writes its seeded inputs under
//! `.bench_work/`, times set-up and the workload, checks every output,
//! prints a run record line and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics ([`END_TO_END`]); `--trace 1` replays the
//! workload stage by stage through the same public functions and
//! reports the per-layer metrics ([`PER_LAYER`]). Every workload reports
//! every metric of its mode; what else it measures goes to stderr. See
//! README.md in this directory.

mod inputs;
mod record;
mod serve;
mod stats;
mod stream;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

/// Worker threads the program may use, pinned for every workload so
/// the benchmark harness plus the program stay within a two-core host.
pub const WORKERS: usize = 1;

/// The end-to-end metrics of `BENCHMARK.json` with their units: the
/// metrics of an untraced run's result line, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cells_per_s_fast", "cells/s"),
    ("peak_rss_bytes", "B"),
    ("ok_share", "ratio"),
];

/// The per-layer metrics of `BENCHMARK.json`: the metrics of a traced
/// run's result line, on every workload. Each names a role a stage plays
/// in every workload; README.md maps it to the layer calls it times.
pub const PER_LAYER: [(&str, &str); 8] = [
    ("stage.read_s", "s"),
    ("stage.encode_s", "s"),
    ("stage.compute_s", "s"),
    ("stage.compute_fast_s", "s"),
    ("stage.write_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.compute_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line plus the run's scratch directory.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Inputs and outputs of this run; removed when the run ends.
    pub work: PathBuf,
    /// Where traced runs write their spans; kept after the run.
    pub trace_dir: PathBuf,
}

/// What a workload returns: operations attempted and failed, metrics, and
/// the most threads the process had at once. An operation is a scored
/// cell on the stream workloads, a request on `serve_closed`, and a
/// scored cell or other checked step on `train_hospital`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub threads_peak: u64,
}

impl Report {
    /// Count one checked operation; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.check_many(1, u64::from(!ok), what)
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record the current thread count if it is the highest seen.
    pub fn sample_threads(&mut self) {
        self.threads_peak = self.threads_peak.max(record::thread_count());
    }

    /// Count `attempted` operations checked together, `failed` of which
    /// failed; a failure is explained on stderr.
    pub fn check_many(
        &mut self,
        attempted: u64,
        failed: u64,
        what: impl FnOnce() -> String,
    ) -> bool {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if failed > 0 {
            eprintln!("check failed: {}", what());
        }
        failed == 0
    }

    /// `ok_share`: operations answered ok over operations attempted.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Add `ok_share` and the process high-water RSS, which every
    /// workload reports.
    pub fn finish_common(&mut self) {
        let share = self.ok_share();
        self.metric("ok_share", share, "ratio");
        if let Some(rss) = record::peak_rss_bytes() {
            self.metric("peak_rss_bytes", rss, "B");
        }
    }
}

/// Times the repeated set-ups of one run. Set-up is a millisecond-scale
/// phase on most workloads, so one timing says little; and a burst of
/// repetitions at the start of a run samples only that moment of a
/// shared host. So a run times one set-up up front and then keeps timing
/// more between its measured steps while they cost under
/// [`SetupClock::SHARE`] of the time so far, which spreads the samples
/// over the whole run; `setup_s` is the median.
#[derive(Debug)]
pub struct SetupClock {
    start: std::time::Instant,
    samples: Vec<f64>,
    spent: f64,
}

impl SetupClock {
    /// Share of the run's time later set-ups may take.
    pub const SHARE: f64 = 0.1;

    pub fn begin() -> SetupClock {
        SetupClock {
            start: std::time::Instant::now(),
            samples: Vec::new(),
            spent: 0.0,
        }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = std::time::Instant::now();
        let out = setup()?;
        let secs = start.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.spent += secs;
        Ok(out)
    }

    /// Whether another set-up fits the budget now.
    pub fn wants_more(&self) -> bool {
        self.spent < Self::SHARE * self.start.elapsed().as_secs_f64()
    }

    /// The median set-up time; the samples' quartiles go to stderr.
    pub fn median(&self) -> f64 {
        if self.samples.len() >= 2 {
            let (q1, q2, q3) = stats::quartiles(&self.samples);
            eprintln!(
                "set-up: {} samples, quartiles {q1:.6} {q2:.6} {q3:.6} s",
                self.samples.len()
            );
        }
        stats::median(&self.samples)
    }
}

const WORKLOADS: [&str; 4] = [
    "stream_distinct",
    "stream_repeat",
    "train_hospital",
    "serve_closed",
];

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let root = PathBuf::from(".bench_work");
    Ok(Ctx {
        work: root.join(format!("{workload}-{seed}-{}", std::process::id())),
        trace_dir: root.join("trace"),
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: exactly the `wanted` metrics, each in its unit. The
/// workload's other metrics are printed to stderr.
fn result_line(report: &Report, wanted: &[(&str, &str)]) -> Result<String, String> {
    for (name, value, unit) in &report.metrics {
        if !wanted.iter().any(|(w, _)| w == name) {
            eprintln!("detail {name} = {value} {unit}");
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let Some(&(_, value, got)) = report.metrics.iter().find(|(n, _, _)| *n == name) else {
            return Err(format!("metric {name} was not measured"));
        };
        if got != unit {
            return Err(format!("metric {name} is in {got}, not {unit}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("create {:?}: {e}", ctx.work))?;
    if ctx.trace {
        std::fs::create_dir_all(&ctx.trace_dir)
            .map_err(|e| format!("create {:?}: {e}", ctx.trace_dir))?;
    }
    etsb_nn::parallel::set_worker_override(WORKERS);
    let result = match ctx.workload.as_str() {
        "stream_distinct" => stream::run(stream::Shape::Distinct, ctx),
        "stream_repeat" => stream::run(stream::Shape::Repeat, ctx),
        "train_hospital" => train::run(ctx),
        _ => serve::run(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("etsb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&ctx) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("etsb-perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&report, wanted) {
        Ok(line) => {
            println!(
                "{}",
                record::run_record(
                    &ctx.workload,
                    ctx.seed,
                    ctx.trace,
                    WORKERS,
                    report.threads_peak
                )
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("etsb-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, name: &str| {
            let from = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[from..from + entry[from..].find('"').expect("value closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let json = include_str!("../../BENCHMARK.json");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(section(json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn a_missing_or_mis_unit_metric_fails_the_result_line() {
        let mut report = Report::default();
        report.metric("setup_s", 0.5, "s");
        report.metric("extra", 1.0, "count");
        assert_eq!(
            result_line(&report, &[("setup_s", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&report, &[("setup_s", "ms")]).is_err());
        assert!(result_line(&report, &[("latency_ms", "ms")]).is_err());
    }
}
