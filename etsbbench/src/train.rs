//! `train_hospital`: the paper's flow on the Hospital generator at paper
//! size — read the CSV pair, encode, pick 20 tuples with DiverSet, train
//! ETSB-RNN as `etsb detect` configures it, then score every cell of the
//! table under both kernel policies.

use crate::stats::median;
use crate::stream::FAST_MATH_EPS;
use crate::trace::Tracer;
use crate::{Ctx, Report, SetupClock};
use etsb_core::config::{ModelKind, SamplerKind, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::train::{accuracy, train_model};
use etsb_core::{sampling, EncodedDataset, KernelPolicy, Metrics};
use etsb_datasets::{Dataset, GenConfig};
use etsb_nn::{Optimizer, Rmsprop};
use etsb_table::{csv, CellFrame};
use etsb_tensor::init::seeded_rng;
use etsb_tensor::Matrix;
// The same `rand` the program links, so the replay draws the same
// permutations as `train_model`.
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Labelled tuples, as the paper and `etsb detect` use.
const LABEL_TUPLES: usize = 20;
/// Epochs per training run. `etsb detect` trains for 120; this is the one
/// setting lowered, so that several trainings fit one run.
pub const EPOCHS: usize = 40;
/// Training seeds per run; `f1` is their mean, as the paper reports F1
/// over repeated trainings.
const F1_SEEDS: usize = 2;

/// `etsb detect`'s training configuration with the epoch count lowered.
pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        eval_every: 20,
        ..TrainConfig::default()
    }
}

/// What set-up produces.
struct Prepared {
    data: EncodedDataset,
    sample: Vec<usize>,
}

/// Frame prep (read the CSV pair, merge), encode, and DiverSet sampling,
/// each inside a span.
fn setup(dirty: &Path, clean: &Path, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let frame = tracer
        .time("core.frame_prep", 0, || {
            let dirty = csv::read_file(dirty)?;
            let clean = csv::read_file(clean)?;
            CellFrame::merge(&dirty, &clean)
        })
        .map_err(|e| e.to_string())?;
    let data = tracer.time("core.encode_frame", 0, || {
        EncodedDataset::from_frame(&frame)
    });
    let sample = tracer.time("core.sample", 0, || {
        sampling::select(SamplerKind::DiverSet, &frame, LABEL_TUPLES, seed)
    });
    Ok(Prepared { data, sample })
}

fn state_bits(model: &AnyModel) -> Vec<u32> {
    model
        .clone_state()
        .iter()
        .flat_map(|m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

/// `train_model` replayed step by step through the same public functions,
/// each inside a span: batches (forward + backward), optimizer steps,
/// accuracy passes and checkpoints. Leaves the same final weights as
/// `train_model` with the same arguments.
fn replay_train(
    model: &mut AnyModel,
    data: &EncodedDataset,
    train_cells: &[usize],
    test_cells: &[usize],
    cfg: &TrainConfig,
    seed: u64,
    tracer: &mut Tracer,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Rmsprop::new(cfg.learning_rate);
    let batch_size = (train_cells.len() / cfg.batch_divisor.max(1)).max(1);
    let curve_cells: Vec<usize> =
        if cfg.curve_subsample > 0 && test_cells.len() > cfg.curve_subsample {
            let mut shuffled = test_cells.to_vec();
            shuffled.shuffle(&mut rng);
            shuffled.truncate(cfg.curve_subsample);
            shuffled
        } else {
            test_cells.to_vec()
        };
    let mut order = train_cells.to_vec();
    let mut best_loss = f32::INFINITY;
    let mut best_state = tracer.time("core.checkpoint", 0, || model.clone_state());
    let mut best_epoch = 0;
    let mut eval_epochs = Vec::new();
    let mut grads = model.grad_buffer();
    for epoch in 0..cfg.epochs {
        let id = epoch as u64;
        let epoch_span = tracer.begin("train.epoch", id);
        tracer.time("core.shuffle", id, || order.shuffle(&mut rng));
        let (mut epoch_loss, mut seen) = (0.0_f32, 0usize);
        for batch in order.chunks(batch_size) {
            let loss = tracer.time("core.train_batch", id, || {
                grads.zero();
                model.train_batch(data, batch, &mut grads)
            });
            epoch_loss += loss * batch.len() as f32;
            seen += batch.len();
            tracer.time("nn.optim_step", id, || {
                opt.step(&mut model.params_mut(), &grads)
            });
        }
        epoch_loss /= seen.max(1) as f32;
        if epoch_loss < best_loss {
            best_loss = epoch_loss;
            best_state = tracer.time("core.checkpoint", id, || model.clone_state());
            best_epoch = epoch;
        }
        if cfg.track_train_acc {
            tracer.time("core.train_eval", id, || accuracy(model, data, train_cells));
        }
        if epoch % cfg.eval_every.max(1) == 0 || epoch + 1 == cfg.epochs {
            let measured = tracer.time("core.train_eval", id, || {
                accuracy(model, data, &curve_cells)
            });
            if measured.is_some() {
                eval_epochs.push(epoch);
            }
        }
        tracer.end(epoch_span);
    }
    tracer.time("core.checkpoint", cfg.epochs as u64, || {
        model.load_state(&best_state)
    });
    if !eval_epochs.contains(&best_epoch) {
        tracer.time("core.train_eval", cfg.epochs as u64, || {
            accuracy(model, data, &curve_cells)
        });
    }
}

/// Every cell of the table scored under `policy`, as `etsb detect` does
/// after training, with the seconds it took.
fn score(model: &AnyModel, data: &EncodedDataset, policy: KernelPolicy) -> (Vec<f32>, f64) {
    let all: Vec<usize> = (0..data.n_cells()).collect();
    let start = Instant::now();
    let probs = model.predict_probs_with(data, &all, policy);
    (probs, start.elapsed().as_secs_f64())
}

/// Held-out F1 of the Exact scores (`probs` covers every cell).
fn f1_of(probs: &[f32], data: &EncodedDataset, test_cells: &[usize]) -> f64 {
    let preds: Vec<bool> = test_cells.iter().map(|&c| probs[c] >= 0.5).collect();
    Metrics::from_predictions(&preds, &data.labels_of(test_cells)).f1
}

/// Cells whose FastMath score flips the Exact prediction or drifts from
/// it by more than [`FAST_MATH_EPS`], and the largest drift.
fn fast_math_misses(exact: &[f32], fast: &[f32]) -> (usize, f32) {
    exact
        .iter()
        .zip(fast)
        .fold((0, 0.0f32), |(bad, max), (&e, &f)| {
            let off = (e >= 0.5) != (f >= 0.5) || (e - f).abs() > FAST_MATH_EPS;
            (bad + usize::from(off), max.max((e - f).abs()))
        })
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let dirty = ctx.work.join("dirty.csv");
    let clean = ctx.work.join("clean.csv");
    {
        let pair = Dataset::Hospital
            .generate(&GenConfig {
                scale: 1.0,
                seed: ctx.seed,
            })
            .map_err(|e| format!("generate hospital: {e}"))?;
        csv::write_file(&pair.dirty, &dirty).map_err(|e| e.to_string())?;
        csv::write_file(&pair.clean, &clean).map_err(|e| e.to_string())?;
    }
    let mut report = Report::default();
    let mut clock = SetupClock::begin();
    let mut prepared = clock.time(|| setup(&dirty, &clean, ctx.seed, &mut Tracer::off()))?;
    while clock.wants_more() {
        prepared = clock.time(|| setup(&dirty, &clean, ctx.seed, &mut Tracer::off()))?;
    }
    let Prepared { data, sample } = prepared;
    let (train_cells, test_cells) = data.split_by_tuples(&sample);
    report.check(
        sample.len() == LABEL_TUPLES && !test_cells.is_empty(),
        || format!("DiverSet picked {} tuples", sample.len()),
    );
    let cells = data.n_cells() as f64;
    let cfg = train_config();
    // Training seeds cycle through F1_SEEDS values: the first pass over
    // them gives the F1 mean, later repetitions must reproduce a seed's
    // weights and scores bit for bit.
    let train_seed = |k: usize| {
        ctx.seed
            .wrapping_mul(1_000_003)
            .wrapping_add((k % F1_SEEDS) as u64)
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut train_s = Vec::new();
    let mut rates = [Vec::new(), Vec::new()];
    let mut weights: Vec<Vec<u32>> = Vec::new();
    let mut scores: Vec<Vec<u32>> = Vec::new();
    let mut f1 = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut tracer = Tracer::new();
    while train_s.len() < F1_SEEDS || Instant::now() < deadline {
        let k = train_s.len();
        let seed = train_seed(k);
        let mut model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(seed));
        let start = Instant::now();
        train_model(&mut model, &data, &train_cells, &test_cells, &cfg, seed);
        let trained = start.elapsed().as_secs_f64();
        let (exact, exact_s) = score(&model, &data, KernelPolicy::Exact);
        let (fast, fast_s) = score(&model, &data, KernelPolicy::FastMath);
        train_s.push(trained);
        untraced_wall.push(trained + exact_s);
        rates[0].push(cells / (trained + exact_s));
        rates[1].push(cells / (trained + fast_s));
        report.sample_threads();
        let (off, max_diff) = fast_math_misses(&exact, &fast);
        report.check_many(exact.len() as u64, off as u64, || {
            format!("fast-math vs exact: {off} cells flip or drift beyond {FAST_MATH_EPS:e}, max |dp| {max_diff:e}")
        });
        if k < F1_SEEDS {
            let score = f1_of(&exact, &data, &test_cells);
            report.check(score > 0.0, || format!("held-out F1 is {score}"));
            f1.push(score);
            weights.push(state_bits(&model));
            scores.push(bits(&exact));
        } else {
            report.check(
                state_bits(&model) == weights[k % F1_SEEDS] && bits(&exact) == scores[k % F1_SEEDS],
                || format!("training seed {seed} did not reproduce its weights and scores"),
            );
        }
        // More set-ups between trainings, while the budget allows; each
        // must prepare exactly the same training input.
        while clock.wants_more() {
            let again = clock.time(|| setup(&dirty, &clean, ctx.seed, &mut Tracer::off()))?;
            report.check(
                again.sample == sample && again.data.n_cells() == data.n_cells(),
                || "set-up is not deterministic".into(),
            );
        }
        if ctx.trace {
            let mut replayed = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(seed));
            let all: Vec<usize> = (0..data.n_cells()).collect();
            let start = Instant::now();
            let span = tracer.begin("train.run", k as u64);
            replay_train(
                &mut replayed,
                &data,
                &train_cells,
                &test_cells,
                &cfg,
                seed,
                &mut tracer,
            );
            let exact = tracer.time("core.score", k as u64, || {
                replayed.predict_probs_with(&data, &all, KernelPolicy::Exact)
            });
            tracer.end(span);
            traced_wall.push(start.elapsed().as_secs_f64());
            tracer.time("core.score_fast", k as u64, || {
                replayed.predict_probs_with(&data, &all, KernelPolicy::FastMath)
            });
            report.check(
                state_bits(&replayed) == weights[k % F1_SEEDS]
                    && bits(&exact) == scores[k % F1_SEEDS],
                || "the replay ends on other weights or scores than train_model".into(),
            );
        }
    }

    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "trainings: {:?} s",
        train_s
            .iter()
            .map(|t| (t * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    if !ctx.trace {
        report.metric("setup_s", clock.median(), "s");
        // The fastest flow, as for the stream passes: every training of a
        // seed ends on the same weights and scores (checked above), so
        // the work is identical and other tenants can only slow it.
        let best = |rates: &[f64]| rates.iter().copied().fold(0.0, f64::max);
        report.metric("cells_per_s", best(&rates[0]), "cells/s");
        report.metric("cells_per_s_fast", best(&rates[1]), "cells/s");
        report.metric("train_s", fastest(&train_s), "s");
        report.metric("f1", f1.iter().sum::<f64>() / f1.len() as f64, "ratio");
        report.finish_common();
        return Ok(report);
    }

    let mut setup_tracer = Tracer::new();
    setup(&dirty, &clean, ctx.seed, &mut setup_tracer)?;
    let runs = traced_wall.len() as f64;
    let stage = |name: &str| tracer.total_s(name) / runs;
    let training = [
        "core.shuffle",
        "core.train_batch",
        "nn.optim_step",
        "core.train_eval",
    ];
    let wall = traced_wall.iter().sum::<f64>() / runs;
    let trained: f64 = training.iter().map(|s| stage(s)).sum();
    let staged = trained + stage("core.checkpoint") + stage("core.score");
    let unaccounted = wall - staged;
    report.check(
        unaccounted.abs() <= crate::stream::STAGE_SUM_TOLERANCE * wall,
        || format!("stage sum {staged:.4}s vs traced wall {wall:.4}s"),
    );
    // The stage roles every workload reports: read and encode are the
    // set-up's CSV read and encode + DiverSet sampling, compute is
    // training plus scoring every cell, write is checkpointing.
    report.metric("stage.read_s", setup_tracer.total_s("core.frame_prep"), "s");
    report.metric(
        "stage.encode_s",
        setup_tracer.total_s("core.encode_frame") + setup_tracer.total_s("core.sample"),
        "s",
    );
    let compute_s = trained + stage("core.score");
    report.metric("stage.compute_s", compute_s, "s");
    report.metric(
        "stage.compute_fast_s",
        trained + stage("core.score_fast"),
        "s",
    );
    report.metric("stage.write_s", stage("core.checkpoint"), "s");
    report.metric("trace.wall_s", wall, "s");
    report.metric("trace.compute_share", compute_s / wall, "ratio");
    report.metric(
        "trace.overhead_ratio",
        median(&traced_wall) / median(&untraced_wall),
        "ratio",
    );
    report.metric("core.sample_s", setup_tracer.total_s("core.sample"), "s");
    report.metric("core.train_batch_s", stage("core.train_batch"), "s");
    report.metric("nn.optim_step_s", stage("nn.optim_step"), "s");
    report.metric("core.train_eval_s", stage("core.train_eval"), "s");
    report.metric("core.score_s", stage("core.score"), "s");
    report.metric("core.score_fast_s", stage("core.score_fast"), "s");
    report.metric("core.unaccounted_s", unaccounted, "s");
    let path = ctx
        .trace_dir
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(report)
}
