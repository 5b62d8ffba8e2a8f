//! The serving workload: batched inference from an `i8` checkpoint.
//!
//! Inputs, all from the workload seed: a Purchase100-shaped ReLU MLP
//! (600→256→256→100) checkpointed as `DNCK` `i8`, a few input batches per
//! batch size, and a closed-loop schedule over them. One caller sends the
//! next batch only after the previous one returned.

use crate::trace::{median, quantile, Spans};
use crate::{median_setup, BoxError, Digest, Record, RunConfig, Size};
use dinar_nn::ckpt;
use dinar_nn::models::{self, Activation};
use dinar_nn::serve::ServingModel;
use dinar_nn::{Model, ModelParams};
use dinar_telemetry::Telemetry;
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::{alloc, profile, Dtype, Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

const ARCH: [usize; 4] = [600, 256, 256, 100];
/// Batch sizes of the request mix.
const SIZES: [usize; 4] = [1, 16, 64, 256];
/// Batches of each size in one pass of the schedule (512 in all): 25% b1,
/// 35% b16, 30% b64, 10% b256. The median then falls inside the b16 group
/// and the 99th percentile inside the b256 group, so neither sits on the
/// step between two sizes. Fixed counts make every seed the same work; the
/// seed sets the order and the inputs.
const MIX: [usize; 4] = [128, 180, 154, 50];
/// Distinct input tensors per batch size.
const VARIANTS: usize = 4;
/// Batches in one pass of the schedule. The timed loop cycles through it,
/// so every full pass is the same work and pass times compare directly.
const PASS: usize = 512;
/// Passes in each half of a traced run (fixed, so its counts repeat).
const TRACED_PASSES: usize = 3;

/// The seeded inputs of one run.
struct Inputs {
    /// f32 model the checkpoint was written from.
    model: Model,
    /// The `i8` checkpoint.
    ckpt: Vec<u8>,
    /// `VARIANTS` batches per size, size-major.
    batches: Vec<Tensor>,
    /// Indices into `batches`, in request order: one pass.
    schedule: Vec<usize>,
}

impl Inputs {
    fn generate(seed: u64) -> Result<Inputs, BoxError> {
        let mut rng = Rng::seed_from(seed);
        let model = models::mlp(&ARCH, Activation::ReLU, &mut rng)?;
        let ckpt = ckpt::encode_checkpoint(&model.params(), Dtype::I8)?;
        let mut batches = Vec::with_capacity(SIZES.len() * VARIANTS);
        for &rows in &SIZES {
            for _ in 0..VARIANTS {
                batches.push(rng.randn(&[rows, ARCH[0]]));
            }
        }
        let sizes: Vec<usize> = MIX
            .iter()
            .enumerate()
            .flat_map(|(size, &count)| std::iter::repeat_n(size, count))
            .collect();
        let schedule = rng
            .permutation(PASS)
            .into_iter()
            .map(|i| sizes[i] * VARIANTS + rng.below(VARIANTS))
            .collect();
        Ok(Inputs {
            model,
            ckpt,
            batches,
            schedule,
        })
    }

    fn size_index(&self, batch: usize) -> usize {
        batch / VARIANTS
    }

    fn rows(&self, batch: usize) -> usize {
        SIZES[self.size_index(batch)]
    }
}

fn load(bytes: &[u8], spans: Option<&mut Spans>) -> Result<ServingModel, BoxError> {
    match spans {
        None => Ok(ServingModel::from_checkpoint(ckpt::decode_checkpoint_raw(
            bytes,
        )?)?),
        Some(spans) => {
            let raw = spans.time("serve.ckpt_decode", None, |_| {
                ckpt::decode_checkpoint_raw(bytes)
            })?;
            Ok(spans.time("serve.load", None, |_| ServingModel::from_checkpoint(raw))?)
        }
    }
}

/// Digest of the serving logits of every input batch.
fn logits_digest(serving: &mut ServingModel, inputs: &Inputs) -> Result<Digest, BoxError> {
    let logits: Vec<Tensor> = inputs
        .batches
        .iter()
        .map(|x| serving.infer(x))
        .collect::<Result<_, _>>()?;
    Ok(Digest::of_slices(logits.iter().map(Tensor::as_slice)))
}

/// Drift of the serving logits against `Model::forward` over every input
/// batch.
struct Drift {
    /// Largest |serving logit − f32 logit|.
    max: f64,
    /// The bound `max` must stay within: each layer's `i8` weight and bias
    /// quantization error propagated through the f32 activations (ReLU does
    /// not widen an error), plus a margin for f32 rounding.
    bound: f64,
    /// Whether serving matched `Model::forward` over the dequantized
    /// weights bit for bit, as the serving module promises.
    dequantized_forward_identical: bool,
}

fn drift(inputs: &mut Inputs, serving: &mut ServingModel) -> Result<Drift, BoxError> {
    let exact = inputs.model.params();
    let quant: ModelParams = ckpt::decode_checkpoint(&inputs.ckpt)?;
    let abs = |t: &Tensor| t.map(f32::abs);
    let mut drift = 0.0f64;
    let mut bound = 0.0f64;
    let mut identical = true;
    for x in &inputs.batches {
        let served = serving.infer(x)?;
        inputs.model.set_params(&quant)?;
        let dequantized = inputs.model.forward(x, false)?;
        inputs.model.set_params(&exact)?;
        let reference = inputs.model.forward(x, false)?;
        identical &= dequantized
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(served.as_slice().iter().map(|v| v.to_bits()));
        for (a, b) in reference.as_slice().iter().zip(served.as_slice()) {
            drift = drift.max(f64::from((a - b).abs()));
        }
        let mut h = x.clone();
        let mut err = Tensor::zeros(x.shape());
        let last = exact.layers.len() - 1;
        for (l, (w, q)) in exact.layers.iter().zip(&quant.layers).enumerate() {
            let (w, b) = (&w.tensors[0], &w.tensors[1]);
            let (qw, qb) = (&q.tensors[0], &q.tensors[1]);
            err = err
                .matmul(&abs(qw))?
                .add(&abs(&h).matmul(&abs(&qw.sub(w)?))?)?
                .add_row_broadcast(&abs(&qb.sub(b)?))?;
            h = h.matmul(w)?.add_row_broadcast(b)?;
            if l != last {
                h = h.map(|v| v.max(0.0));
            }
        }
        bound = bound.max(f64::from(err.max()?));
    }
    Ok(Drift {
        max: drift,
        bound: bound * (1.0 + 1e-3) + 1e-4,
        dequantized_forward_identical: identical,
    })
}

pub(crate) fn run(config: &RunConfig, record: &mut Record) -> Result<(), BoxError> {
    let mut inputs = Inputs::generate(config.seed)?;
    if config.trace {
        run_traced(config, &mut inputs, record)
    } else {
        run_untraced(config, &mut inputs, record)
    }
}

/// Sends `count` batches from the schedule (or, with `count` = `None`,
/// batches until `seconds` have passed) and returns each batch's schedule
/// entry and latency in seconds.
fn closed_loop(
    serving: &mut ServingModel,
    inputs: &Inputs,
    count: Option<usize>,
    seconds: f64,
    record: &mut Record,
    span: Option<&'static str>,
) -> Result<Vec<(usize, f64)>, BoxError> {
    let mut done = Vec::new();
    let start = Instant::now();
    loop {
        let i = done.len();
        let finished = match count {
            Some(n) => i >= n,
            None => i > 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if finished {
            return Ok(done);
        }
        let batch = inputs.schedule[i % inputs.schedule.len()];
        let x = &inputs.batches[batch];
        record.ops.attempted += 1;
        let t = Instant::now();
        let result = match span {
            Some(name) => record
                .spans
                .time(name, Some(i as u64), |_| serving.infer(x)),
            None => serving.infer(x),
        };
        let dt = t.elapsed().as_secs_f64();
        match result {
            Ok(y) => {
                black_box(y);
                done.push((batch, dt));
            }
            Err(e) => {
                record.ops.failed += 1;
                return Err(e.into());
            }
        }
    }
}

fn run_untraced(
    config: &RunConfig,
    inputs: &mut Inputs,
    record: &mut Record,
) -> Result<(), BoxError> {
    let min_reps = if config.size == Size::Tiny { 1 } else { 5 };
    // Set-up is what a replica does before it takes traffic: decode the
    // checkpoint, build the model, and warm it with one request per
    // distinct input batch (the warm-up logits are the first digest).
    let (setup_s, (mut serving, warm_digest)) = median_setup(min_reps, 1.0, || {
        let mut serving = load(&inputs.ckpt, None)?;
        let digest = logits_digest(&mut serving, inputs)?;
        Ok((serving, digest))
    })?;
    record.set("setup_s", setup_s);

    let drift = drift(inputs, &mut serving)?;
    record.set("serve_logit_drift_max", drift.max);
    record.check(
        "logit_drift_within_i8_bound",
        drift.max <= drift.bound,
        format!(
            "max |i8 - f32| logit drift {:.6} vs bound {:.6}",
            drift.max, drift.bound
        ),
    );
    record.check(
        "serve_matches_dequantized_forward",
        drift.dequantized_forward_identical,
        "serving logits vs Model::forward over the dequantized weights, bit for bit".to_string(),
    );
    record.digests.push(("logits_warm_up".into(), warm_digest));

    let scope = MemoryScope::enter();
    let seconds = if config.size == Size::Tiny {
        0.0
    } else {
        config.seconds
    };
    let done = closed_loop(&mut serving, inputs, None, seconds, record, None)?;
    let scratch_peak = scope.peak_extra_bytes();
    record
        .digests
        .push(("logits_after".into(), logits_digest(&mut serving, inputs)?));

    let latencies: Vec<f64> = done.iter().map(|&(_, dt)| dt).collect();
    // Throughput is the median over full passes, so a burst of machine
    // noise moves one pass, not the figure; a run shorter than one pass
    // falls back to the whole run.
    let pass_rows_per_s: Vec<f64> = done
        .chunks(PASS)
        .filter(|pass| pass.len() == PASS || done.len() < PASS)
        .map(|pass| {
            let rows: usize = pass.iter().map(|&(b, _)| inputs.rows(b)).sum();
            rows as f64 / pass.iter().map(|&(_, dt)| dt).sum::<f64>()
        })
        .collect();
    let rows_per_s = median(&pass_rows_per_s);
    let resident = serving.resident_weight_bytes() as f64;
    record.set("step_ms_p50", median(&latencies) * 1e3);
    record.set("items_per_s", rows_per_s);
    record.set("peak_mem_bytes", resident + scratch_peak as f64);
    record.set("serve_rows_per_s", rows_per_s);
    record.set("serve_batch_ms_p50", median(&latencies) * 1e3);
    record.set("serve_batch_ms_p99", quantile(&latencies, 0.99) * 1e3);
    record.set("serve_resident_bytes", resident);
    let ops = record.ops;
    record.set(
        "failed_ops_pct",
        100.0 * ops.failed as f64 / ops.attempted.max(1) as f64,
    );
    Ok(())
}

fn run_traced(
    config: &RunConfig,
    inputs: &mut Inputs,
    record: &mut Record,
) -> Result<(), BoxError> {
    let count = if config.size == Size::Tiny {
        8
    } else {
        TRACED_PASSES * PASS
    };
    let mut untraced = load(&inputs.ckpt, Some(&mut record.spans))?;
    let mut traced = load(&inputs.ckpt, None)?;
    let telemetry = Telemetry::new();
    traced.set_telemetry(telemetry.clone());

    // One pass over every input batch warms both models' scratch pools and
    // records the digests the two must agree on.
    record
        .digests
        .push(("untraced".into(), logits_digest(&mut untraced, inputs)?));
    record
        .digests
        .push(("traced".into(), logits_digest(&mut traced, inputs)?));

    let t = Instant::now();
    closed_loop(
        &mut untraced,
        inputs,
        Some(count),
        0.0,
        record,
        Some("batch.untraced"),
    )?;
    let untraced_s = t.elapsed().as_secs_f64();
    let kernels_before = profile::snapshot();
    let hits_before = traced.pool_hits();
    let spans_before = telemetry.spans().len();
    let t = Instant::now();
    let done = closed_loop(
        &mut traced,
        inputs,
        Some(count),
        0.0,
        record,
        Some("batch.traced"),
    )?;
    let traced_s = t.elapsed().as_secs_f64();
    let kernels = profile::snapshot().delta_since(&kernels_before);
    let hits = traced.pool_hits() - hits_before;
    let spans_recorded = telemetry.spans().len() - spans_before;

    record.set(
        "serve.ckpt_decode_s",
        record.spans.total("serve.ckpt_decode"),
    );
    record.set("serve.load_s", record.spans.total("serve.load"));
    for (s, name) in [
        "serve.infer_ms_p50.b1",
        "serve.infer_ms_p50.b16",
        "serve.infer_ms_p50.b64",
        "serve.infer_ms_p50.b256",
    ]
    .into_iter()
    .enumerate()
    {
        let lat: Vec<f64> = done
            .iter()
            .filter(|&&(b, _)| inputs.size_index(b) == s)
            .map(|&(_, dt)| dt * 1e3)
            .collect();
        record.set(name, median(&lat));
    }
    // Every quantized layer acquires one scratch buffer per batch.
    let acquisitions = (done.len() * (ARCH.len() - 1)) as f64;
    record.set("serve.pool_hit_ratio", hits as f64 / acquisitions);
    record.set(
        "serve.matmul_gflop",
        kernels.matmul_flops as f64 * 1e-9 / done.len() as f64,
    );
    record.set("tensor.alloc_peak_bytes", alloc::peak_bytes() as f64);
    record.set("telemetry.overhead_ratio", traced_s / untraced_s);
    record.set("telemetry.spans_recorded", spans_recorded as f64);
    record.fill_unexercised_layers();
    Ok(())
}
