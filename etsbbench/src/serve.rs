//! `serve_closed`: a closed loop of seeded JSONL requests against a
//! resident `DetectService`, each request passed through `parse_request`
//! → `submit` → `ResponseHandle` → `Response::to_json_line`. One harness
//! thread keeps [`WINDOW`] requests in flight, so the service always has
//! a full batch queued and the loop measures how many cells it answers
//! per second. Each round starts a fresh service, alternating the Exact
//! and FastMath kernel policies, and sends the same [`ROUND_REQUESTS`]
//! requests, so every round does the same work from a cold cache.

use crate::inputs;
use crate::stats::{median, percentile_with_tail};
use crate::trace::Tracer;
use crate::{Ctx, Report, SetupClock};
use etsb_core::persist::{load_detector, LoadedDetector};
use etsb_core::{EncodedDataset, KernelPolicy};
use etsb_serve::engine::DetectService;
use etsb_serve::protocol::{parse_request, Request, Status};
use etsb_serve::ServeConfig;
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

/// Requests per round: about 0.7 s of service time on a two-core
/// 2.1 GHz Xeon, long enough that the cold-cache start is a small share.
const ROUND_REQUESTS: usize = 2000;
/// Requests kept in flight: two of the service's 256-cell batches at
/// four cells a request, well inside its 4 096-cell admission queue.
const WINDOW: usize = 128;
/// Cells per request (one per attribute).
const CELLS_PER_REQUEST: usize = inputs::COLUMNS.len();
/// Requests scored together by the direct-scoring check.
const CHECK_REQUESTS: usize = 64;

/// FNV-1a over each result's echoed identity and probability bits: an
/// answer in one word, compared with direct scoring.
fn digest<'a>(results: impl Iterator<Item = (u64, &'a str, f32)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (tuple_id, attribute, prob) in results {
        let bytes = tuple_id
            .to_le_bytes()
            .into_iter()
            .chain(attribute.bytes())
            .chain([0xff])
            .chain(prob.to_bits().to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A request line encoded alone, as direct scoring sees it. `None` when
/// the line is not a request the detector can score.
fn encode_request(det: &LoadedDetector, line: &str) -> Option<(Request, EncodedDataset)> {
    let request = parse_request(line).ok()?;
    let pairs: Vec<(usize, &str)> = request
        .cells
        .iter()
        .map(|c| {
            det.attr_index
                .index_of(&c.attribute)
                .map(|a| (a, c.value.as_str()))
        })
        .collect::<Option<_>>()?;
    let encoded =
        EncodedDataset::from_request_cells(&pairs, &det.char_index, &det.attr_index).ok()?;
    Some((request, encoded))
}

/// The digest each request's answer must have under `policy`: its cells
/// encoded alone and scored by `predict_probs_with`, [`CHECK_REQUESTS`]
/// requests per call (eval-mode scoring is row-independent, so batching
/// does not change a bit). `None` for a line that is not a scorable
/// request, which no answer can match.
fn direct_digests(
    det: &LoadedDetector,
    lines: &[String],
    policy: KernelPolicy,
) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(lines.len());
    for group in lines.chunks(CHECK_REQUESTS) {
        let encoded: Vec<Option<(Request, EncodedDataset)>> =
            group.iter().map(|l| encode_request(det, l)).collect();
        let mut merged =
            EncodedDataset::empty_with_dicts(det.char_index.clone(), det.attr_index.clone());
        for (_, e) in encoded.iter().flatten() {
            merged.sequences.extend(e.sequences.iter().cloned());
            merged.attr_ids.extend(&e.attr_ids);
            merged.length_norms.extend(&e.length_norms);
            merged.labels.extend(&e.labels);
        }
        merged.n_tuples = merged.sequences.len();
        let all: Vec<usize> = (0..merged.n_cells()).collect();
        let mut probs = det
            .model
            .predict_probs_with(&merged, &all, policy)
            .into_iter();
        for e in &encoded {
            out.push(e.as_ref().map(|(request, _)| {
                digest(
                    request
                        .cells
                        .iter()
                        .zip(probs.by_ref())
                        .map(|(c, p)| (c.tuple_id, c.attribute.as_str(), p)),
                )
            }));
        }
    }
    out
}

/// What one round keeps: its wall time from the first send to the last
/// answer, the median and p99 of its requests' latencies from their
/// sends, and how many answers were ok and equal to direct scoring.
struct Round {
    secs: f64,
    p50_ms: f64,
    p99_ms: Option<f64>,
    correct: usize,
}

/// Send every line with at most [`WINDOW`] unanswered, waiting on the
/// oldest, and compare each answer with its expected digest.
fn round(
    service: &DetectService,
    lines: &[String],
    expected: &[Option<u64>],
    tracer: &mut Tracer,
) -> Round {
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut latencies_ms = Vec::with_capacity(lines.len());
    let mut correct = 0;
    let mut next = 0;
    let start = Instant::now();
    while latencies_ms.len() < lines.len() {
        while next < lines.len() && in_flight.len() < WINDOW {
            let id = next as u64;
            let sent = Instant::now();
            let parsed = tracer.time("serve.parse", id, || parse_request(&lines[next]));
            let handle = parsed
                .ok()
                .map(|request| tracer.time("serve.submit", id, || service.submit(request)));
            in_flight.push_back((next, sent, handle));
            next += 1;
        }
        let Some((i, sent, handle)) = in_flight.pop_front() else {
            break;
        };
        // An unparsable request has no handle: answered at once, not ok.
        let response = handle.map(|h| tracer.time("serve.wait", i as u64, || h.wait()));
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if let Some(response) = response {
            let rendered = tracer.time("serve.render", i as u64, || response.to_json_line());
            std::hint::black_box(&rendered);
            let answer = (response.status == Status::Ok).then(|| {
                digest(
                    response
                        .results
                        .iter()
                        .map(|r| (r.tuple_id, r.attribute.as_str(), r.prob)),
                )
            });
            correct += usize::from(answer.is_some() && answer == expected[i]);
        }
    }
    Round {
        secs: start.elapsed().as_secs_f64(),
        p50_ms: median(&latencies_ms),
        p99_ms: percentile_with_tail(&latencies_ms, 99.0),
        correct,
    }
}

/// The set-up a user pays to serve: load the detector, start the service.
fn start(detector: &Path, policy: KernelPolicy) -> Result<DetectService, String> {
    let bytes = std::fs::read(detector).map_err(|e| format!("read detector: {e}"))?;
    let det = load_detector(&bytes).map_err(|e| format!("load detector: {e}"))?;
    let cfg = ServeConfig {
        fast_math: policy == KernelPolicy::FastMath,
        ..ServeConfig::default()
    };
    Ok(DetectService::start(det, cfg))
}

/// The service's own counters and histograms after one traced round.
struct Inside {
    batch_s: f64,
    batches: u64,
    batch_cells_mean: f64,
    batch_latency_p50_ms: f64,
    detect_latency_p50_ms: f64,
    cache_hit_ratio: f64,
    refused: u64,
    timeouts: u64,
}

fn inside(service: &DetectService) -> Inside {
    let snap = service.registry().snapshot();
    let metrics = service.metrics();
    let batch = snap.histogram("etsb_serve_batch_latency_ns");
    let detect = snap.histogram("etsb_serve_detect_latency_ns");
    let batches = snap.counter("etsb_serve_batches_total").unwrap_or(0);
    Inside {
        batch_s: batch.map_or(0.0, |h| h.sum as f64 * 1e-9),
        batches,
        batch_cells_mean: snap.counter("etsb_serve_admitted_cells_total").unwrap_or(0) as f64
            / batches.max(1) as f64,
        batch_latency_p50_ms: batch.map_or(0.0, |h| h.p50() as f64 * 1e-6),
        detect_latency_p50_ms: detect.map_or(0.0, |h| h.p50() as f64 * 1e-6),
        cache_hit_ratio: metrics.cache.hits as f64
            / (metrics.cache.hits + metrics.cache.misses).max(1) as f64,
        refused: metrics.overloaded + metrics.bad_requests,
        timeouts: metrics.timeouts,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let detector = ctx.work.join("detector.bin");
    let requests = ctx.work.join("requests.jsonl");
    std::fs::write(&detector, inputs::detector_bytes(ctx.seed))
        .map_err(|e| format!("write detector: {e}"))?;
    inputs::write_requests(&requests, ROUND_REQUESTS, ctx.seed)
        .map_err(|e| format!("write requests: {e}"))?;
    // One round's request lines, about 0.5 MB, read once: every round
    // replays them.
    let lines: Vec<String> = std::io::BufReader::new(
        std::fs::File::open(&requests).map_err(|e| format!("open requests: {e}"))?,
    )
    .lines()
    .collect::<Result<_, _>>()
    .map_err(|e| format!("read requests: {e}"))?;
    let det = load_detector(&std::fs::read(&detector).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let policies = [KernelPolicy::Exact, KernelPolicy::FastMath];
    let expected = policies.map(|p| direct_digests(&det, &lines, p));

    let mut report = Report::default();
    let mut clock = SetupClock::begin();
    let mut rates = [Vec::new(), Vec::new()];
    let mut round_secs = Vec::new();
    let mut p50_ms = Vec::new();
    let mut p99_ms = Vec::new();
    let mut tracers = [Tracer::new(), Tracer::new()];
    let mut traced_wall = [Vec::new(), Vec::new()];
    let mut inside_traced = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    while rates[0].len() < 2 || Instant::now() < deadline {
        for (arm, policy) in policies.into_iter().enumerate() {
            // Every round's service start is one set-up sample.
            let mut service = clock.time(|| start(&detector, policy))?;
            let r = round(&service, &lines, &expected[arm], &mut Tracer::off());
            report.sample_threads();
            service.shutdown();
            let n = lines.len();
            report.check_many(n as u64, (n - r.correct) as u64, || {
                format!(
                    "{} round: {} of {n} answers ok and equal to direct scoring",
                    policy.name(),
                    r.correct
                )
            });
            rates[arm].push((n * CELLS_PER_REQUEST) as f64 / r.secs);
            if arm == 0 {
                round_secs.push(r.secs);
                p50_ms.push(r.p50_ms);
                p99_ms.extend(r.p99_ms);
            }
            if ctx.trace {
                let mut service = start(&detector, policy)?;
                let r = round(&service, &lines, &expected[arm], &mut tracers[arm]);
                inside_traced[arm].push(inside(&service));
                service.shutdown();
                report.check_many(n as u64, (n - r.correct) as u64, || {
                    format!(
                        "traced {} round: {} of {n} correct",
                        policy.name(),
                        r.correct
                    )
                });
                traced_wall[arm].push(r.secs);
            }
        }
    }
    let fastest = |rates: &[f64]| rates.iter().copied().fold(0.0, f64::max);
    for (arm, rates) in ["exact", "fast-math"].iter().zip(&rates) {
        eprintln!(
            "{arm}: {} rounds, fastest {:.0} cells/s, median {:.0}",
            rates.len(),
            fastest(rates),
            median(rates)
        );
    }
    if !ctx.trace {
        report.metric("setup_s", clock.median(), "s");
        // The fastest round, as for the stream passes: every round does
        // the same work from a fresh service, so other tenants can only
        // slow it.
        report.metric("cells_per_s", fastest(&rates[0]), "cells/s");
        report.metric("cells_per_s_fast", fastest(&rates[1]), "cells/s");
        // Exact rounds' median latency and p99, each the median over
        // the rounds.
        report.metric("serve_p50_ms", median(&p50_ms), "ms");
        if !p99_ms.is_empty() {
            report.metric("serve_p99_ms", median(&p99_ms), "ms");
        }
        report.finish_common();
        return Ok(report);
    }

    let rounds = traced_wall[0].len() as f64;
    let stage = |name: &str| tracers[0].total_s(name) / rounds;
    let wall = traced_wall[0].iter().sum::<f64>() / rounds;
    let staged: f64 = ["serve.parse", "serve.submit", "serve.wait", "serve.render"]
        .iter()
        .map(|s| stage(s))
        .sum();
    let unaccounted = wall - staged;
    report.check(
        unaccounted.abs() <= crate::stream::STAGE_SUM_TOLERANCE * wall,
        || format!("stage sum {staged:.4}s vs traced wall {wall:.4}s"),
    );
    let mean = |arm: usize, f: &dyn Fn(&Inside) -> f64| {
        inside_traced[arm].iter().map(f).sum::<f64>() / inside_traced[arm].len() as f64
    };
    // The stage roles every workload reports: read = parse, encode =
    // submit (admission encodes each request), compute = the service's
    // coalesced batches (cache and forward pass, on its batcher thread),
    // write = render.
    let compute_s = mean(0, &|i| i.batch_s);
    report.metric("stage.read_s", stage("serve.parse"), "s");
    report.metric("stage.encode_s", stage("serve.submit"), "s");
    report.metric("stage.compute_s", compute_s, "s");
    report.metric("stage.compute_fast_s", mean(1, &|i| i.batch_s), "s");
    report.metric("stage.write_s", stage("serve.render"), "s");
    report.metric("trace.wall_s", wall, "s");
    report.metric("trace.compute_share", compute_s / wall, "ratio");
    report.metric(
        "trace.overhead_ratio",
        median(&traced_wall[0]) / median(&round_secs),
        "ratio",
    );
    report.metric("serve.wait_s", stage("serve.wait"), "s");
    report.metric("serve.unaccounted_s", unaccounted, "s");
    report.metric("serve.batches", mean(0, &|i| i.batches as f64), "count");
    report.metric(
        "serve.batch_cells_mean",
        mean(0, &|i| i.batch_cells_mean),
        "cells",
    );
    report.metric(
        "serve.cache_hit_ratio",
        mean(0, &|i| i.cache_hit_ratio),
        "ratio",
    );
    report.metric(
        "serve.batch_latency_p50_ms",
        mean(0, &|i| i.batch_latency_p50_ms),
        "ms",
    );
    report.metric(
        "serve.detect_latency_p50_ms",
        mean(0, &|i| i.detect_latency_p50_ms),
        "ms",
    );
    report.metric("serve.refused", mean(0, &|i| i.refused as f64), "count");
    report.metric("serve.timeouts", mean(0, &|i| i.timeouts as f64), "count");
    for (tracer, policy) in tracers.iter().zip(["exact", "fast"]) {
        let path = ctx
            .trace_dir
            .join(format!("{}-seed{}-{policy}.jsonl", ctx.workload, ctx.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against a live service, a round of 200 requests answers every
    /// request as direct scoring does, under both kernel policies; with
    /// one expected digest changed the round counts exactly that request
    /// as wrong.
    #[test]
    fn a_round_matches_direct_scoring_and_catches_a_wrong_answer() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("selftest-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let detector = dir.join("detector.bin");
        let requests = dir.join("requests.jsonl");
        std::fs::write(&detector, inputs::detector_bytes(7)).unwrap();
        inputs::write_requests(&requests, 200, 7).unwrap();
        let lines: Vec<String> = std::fs::read_to_string(&requests)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let det = load_detector(&std::fs::read(&detector).unwrap()).unwrap();
        for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
            let mut expected = direct_digests(&det, &lines, policy);
            let mut service = start(&detector, policy).unwrap();
            let r = round(&service, &lines, &expected, &mut Tracer::off());
            assert_eq!(r.correct, lines.len(), "{}", policy.name());
            expected[17] = expected[17].map(|d| d ^ 1);
            let r = round(&service, &lines, &expected, &mut Tracer::off());
            assert_eq!(r.correct, lines.len() - 1, "{}", policy.name());
            service.shutdown();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
