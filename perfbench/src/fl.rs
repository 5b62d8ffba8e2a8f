//! The three federated-learning workloads.
//!
//! Each timed repetition builds a fresh system from the prepared set-up and
//! trains a fixed number of rounds, so every repetition of a seed computes
//! the same final model; repetitions continue until the run's time is up
//! and every repetition's final-model digest must agree. The traced run
//! trains once untraced and once with a telemetry sink attached and checks
//! that both reach the same model bit for bit.

use crate::trace::{fl_span_totals, median, Spans};
use crate::{median_setup, BoxError, Digest, Record, RunConfig, Size, Workload};
use dinar::middleware::DinarMiddleware;
use dinar::DinarConfig;
use dinar_attacks::shadow::{ShadowAttack, ShadowConfig};
use dinar_bench::harness::{self, model_for, Environment, ExperimentSpec, TrainedRun};
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::partition_dataset;
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_defenses::{DpOptimizer, DpParams};
use dinar_fl::clock::ManualClock;
use dinar_fl::netsim::Codec;
use dinar_fl::{
    run_threaded_wire, ClientMiddleware, FlConfig, FlSystem, NetworkModel, RoundFaultStats,
    RoundPolicy, RoundReport, RoundWireStats, WireConfig,
};
use dinar_metrics::cost::CostSample;
use dinar_nn::optim::{self, Optimizer};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;
use dinar_tensor::{alloc, profile, Rng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Privacy budget of the DP-SGD clients, as in the harness's LDP column.
const LDP_EPSILON: f32 = 2.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `FlSystem::run_round`, clients fanned out on the tensor pool.
    InProcess,
    /// `run_threaded_wire`: one thread per client, `quant_i8` uplinks with
    /// error feedback over a simulated 5 ms / 1 MB/s network.
    Wire,
}

/// What one FL workload runs.
struct Plan {
    workload: Workload,
    spec: ExperimentSpec,
    engine: Engine,
    /// Rounds per timed repetition.
    rounds: usize,
}

impl Plan {
    fn new(workload: Workload, config: &RunConfig) -> Plan {
        let tiny = config.size == Size::Tiny;
        let (entry, engine, full_rounds) = match workload {
            // The fig6 cell trains the spec's own 15 rounds.
            Workload::Fig6Purchase100Dinar => {
                (catalog::purchase100(Profile::Mini), Engine::InProcess, 0)
            }
            Workload::Fig4CelebaVggDinar => (catalog::celeba(Profile::Mini), Engine::InProcess, 4),
            // `run_threaded_wire` runs a repetition's rounds in one call and
            // yields one round time per repetition, so short repetitions
            // give a run many samples.
            _ => (catalog::purchase100(Profile::Mini), Engine::Wire, 2),
        };
        let mut spec = ExperimentSpec::mini_default(entry);
        spec.seed = config.seed;
        if workload == Workload::WirePurchase100LdpI8 {
            spec.clients = 4;
            spec.local_epochs = 1;
        }
        if tiny {
            spec.rounds = 1;
            spec.local_epochs = 1;
        }
        let rounds = if tiny {
            1
        } else if full_rounds == 0 {
            spec.rounds
        } else {
            full_rounds
        };
        Plan {
            workload,
            spec,
            engine,
            rounds,
        }
    }

    fn is_fig6(&self) -> bool {
        self.workload == Workload::Fig6Purchase100Dinar
    }
}

/// Prepared inputs: client shards, plus the attack split, fitted attacker
/// and DINAR layer for the DINAR workloads.
struct Setup {
    shards: Vec<Dataset>,
    env: Option<Environment>,
}

impl Setup {
    fn from_env(env: Environment) -> Setup {
        Setup {
            shards: env.shards.clone(),
            env: Some(env),
        }
    }

    /// Training examples processed per round (every client, every epoch).
    fn samples_per_round(&self, spec: &ExperimentSpec) -> usize {
        let total: usize = self.shards.iter().map(Dataset::len).sum();
        total * spec.local_epochs
    }
}

/// The untraced set-up, through the harness's public entry points.
fn setup(plan: &Plan) -> Result<Setup, BoxError> {
    let spec = plan.spec.clone();
    Ok(match plan.workload {
        Workload::Fig6Purchase100Dinar => Setup::from_env(harness::prepare(spec)?),
        Workload::Fig4CelebaVggDinar => Setup::from_env(harness::prepare_training_only(spec)?),
        _ => {
            let mut rng = Rng::seed_from(spec.seed);
            let data = spec.entry.generate(&mut rng)?;
            let shards = partition_dataset(&data, spec.clients, spec.distribution, &mut rng)?;
            Setup { shards, env: None }
        }
    })
}

/// The set-up of [`setup`], step by step with a span around each stage.
/// It calls the same public functions in the same order, so it yields the
/// same inputs (the smoke tests compare the trained models).
fn setup_traced(plan: &Plan, spans: &mut Spans) -> Result<Setup, BoxError> {
    let spec = &plan.spec;
    let mut rng = Rng::seed_from(spec.seed);
    let dataset = spans.time("data.generate", None, |_| spec.entry.generate(&mut rng))?;
    if plan.workload == Workload::WirePurchase100LdpI8 {
        let shards = spans.time("data.partition", None, |_| {
            partition_dataset(&dataset, spec.clients, spec.distribution, &mut rng)
        })?;
        return Ok(Setup { shards, env: None });
    }
    let (split, shards) = spans.time("data.partition", None, |_| -> Result<_, BoxError> {
        let split = attack_split(&dataset, &mut rng)?;
        let shards = partition_dataset(&split.train, spec.clients, spec.distribution, &mut rng)?;
        Ok((split, shards))
    })?;
    let entry = spec.entry.clone();
    if !plan.is_fig6() {
        // prepare_training_only: an unfitted attacker and no probe.
        let attack = ShadowAttack::new(ShadowConfig {
            num_shadows: 1,
            shadow_epochs: 1,
            batch_size: spec.batch_size,
            lr: spec.baseline_opt.1,
            optimizer: spec.baseline_opt.0,
            attack_epochs: 1,
            seed: spec.seed ^ 0xA77A,
        });
        let dinar_layer = model_for(&entry, &mut rng)?
            .num_trainable_layers()
            .saturating_sub(2);
        return Ok(Setup::from_env(Environment {
            spec: spec.clone(),
            split,
            shards,
            attack,
            dinar_layer,
            sensitivity_argmax: dinar_layer,
        }));
    }
    let mut attack = ShadowAttack::new(ShadowConfig {
        num_shadows: 3,
        shadow_epochs: spec.rounds * spec.local_epochs,
        batch_size: spec.batch_size,
        lr: spec.baseline_opt.1,
        optimizer: spec.baseline_opt.0,
        attack_epochs: 80,
        seed: spec.seed ^ 0xA77A,
    });
    let shadow_entry = entry.clone();
    spans.time("attacks.shadow_fit", None, |_| {
        attack.fit(&split.attacker, move |rng| model_for(&shadow_entry, rng))
    })?;
    let mut init_rng = rng.split(0xD1AA);
    let (sensitivity_argmax, dinar_layer) =
        spans.time("core.sensitivity_probe", None, |_| -> Result<_, BoxError> {
            let mut probe_model = model_for(&entry, &mut init_rng)?;
            let argmax = dinar::init::client_proposal(
                &mut probe_model,
                &shards[0],
                &split.test,
                &dinar::init::InitConfig {
                    warmup_epochs: spec.rounds * spec.local_epochs / 2,
                    batch_size: spec.batch_size,
                    lr: spec.dinar_opt.1,
                    ..dinar::init::InitConfig::default()
                },
                &mut init_rng,
            )?;
            Ok((argmax, probe_model.num_trainable_layers().saturating_sub(2)))
        })?;
    Ok(Setup::from_env(Environment {
        spec: spec.clone(),
        split,
        shards,
        attack,
        dinar_layer,
        sensitivity_argmax,
    }))
}

/// A fresh system over the prepared shards: DINAR clients (as the harness
/// builds its DINAR column) or DP-SGD clients (as its LDP column).
fn build_system(plan: &Plan, setup: &Setup) -> Result<FlSystem, BoxError> {
    let spec = &plan.spec;
    let entry = spec.entry.clone();
    let seed = spec.seed;
    let config = FlConfig {
        local_epochs: spec.local_epochs,
        batch_size: spec.batch_size,
        seed,
    };
    let model_fn = move |rng: &mut Rng| model_for(&entry, rng);
    let Some(env) = &setup.env else {
        let system = FlSystem::builder(config)
            .clients_from_shards(
                setup.shards.clone(),
                model_fn,
                move |id| -> Box<dyn Optimizer> {
                    Box::new(
                        DpOptimizer::new(
                            optim::by_name("adam", 1e-3).expect("adam is a known optimizer"),
                            DpParams::paper_default().with_epsilon(LDP_EPSILON),
                            Rng::seed_from(seed ^ 0xD9 ^ ((id as u64) << 16)),
                        )
                        .with_amortization_over(2),
                    )
                },
            )?
            .build()?;
        return Ok(system);
    };
    let (opt_name, opt_lr) = spec.dinar_opt;
    let layers = vec![env.dinar_layer];
    let system = FlSystem::builder(config)
        .clients_from_shards(setup.shards.clone(), model_fn, move |_| {
            optim::by_name(opt_name, opt_lr).expect("spec optimizers are known")
        })?
        .with_client_middleware(move |id| {
            vec![Box::new(DinarMiddleware::multi(
                layers.clone(),
                DinarConfig::default(),
                seed ^ id as u64,
            )) as Box<dyn ClientMiddleware>]
        })
        .build()?;
    Ok(system)
}

/// One timed repetition's outputs.
struct Rep {
    system: FlSystem,
    reports: Vec<RoundReport>,
    /// Wall seconds per round: measured per round in process; the
    /// repetition's mean on the threaded engine, which runs its rounds in
    /// one call.
    step_s: Vec<f64>,
    /// Wall seconds of all rounds.
    total_s: f64,
    fault_stats: Vec<RoundFaultStats>,
    wire_stats: Vec<RoundWireStats>,
}

/// Trains `plan.rounds` rounds, counting every round and client update as
/// attempted, and failed ones (or the whole call, on an engine error) as
/// failed.
fn train(
    plan: &Plan,
    mut system: FlSystem,
    record: &mut Record,
    span: &'static str,
) -> Result<Rep, BoxError> {
    let ops_per_round = 1 + system.clients().len() as u64;
    match plan.engine {
        Engine::InProcess => {
            let mut reports = Vec::with_capacity(plan.rounds);
            let mut step_s = Vec::with_capacity(plan.rounds);
            for round in 1..=plan.rounds {
                record.ops.attempted += ops_per_round;
                let t = Instant::now();
                let result = record
                    .spans
                    .time(span, Some(round as u64), |_| system.run_round());
                let dt = t.elapsed().as_secs_f64();
                match result {
                    Ok(report) => {
                        reports.push(report);
                        step_s.push(dt);
                    }
                    Err(e) => {
                        record.ops.failed += ops_per_round;
                        return Err(e.into());
                    }
                }
            }
            let total_s = step_s.iter().sum();
            Ok(Rep {
                system,
                reports,
                step_s,
                total_s,
                fault_stats: Vec::new(),
                wire_stats: Vec::new(),
            })
        }
        Engine::Wire => {
            let rounds = plan.rounds as u64;
            record.ops.attempted += rounds * ops_per_round;
            let wire = WireConfig::lossless()
                .with_uplink(Codec::QuantI8)
                .with_network(NetworkModel::uniform(Duration::from_millis(5), 1_000_000));
            let t = Instant::now();
            let result = record.spans.time(span, Some(rounds), |_| {
                run_threaded_wire(
                    system,
                    plan.rounds,
                    Arc::new(ManualClock::new()),
                    RoundPolicy::strict(),
                    wire,
                )
            });
            let total_s = t.elapsed().as_secs_f64();
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    record.ops.failed += rounds * ops_per_round;
                    return Err(e.into());
                }
            };
            let completed = run.reports.len() as u64;
            let dropped: u64 = run
                .fault_stats
                .iter()
                .map(|s| s.clients_dropped as u64)
                .sum();
            record.ops.failed += rounds.saturating_sub(completed) * ops_per_round + dropped;
            Ok(Rep {
                system: run.system,
                reports: run.reports,
                step_s: vec![total_s / rounds.max(1) as f64],
                total_s,
                fault_stats: run.fault_stats,
                wire_stats: run.wire_stats,
            })
        }
    }
}

/// The harness's closing pass: every client downloads the final global
/// model, trains once more and uploads, leaving personalized client models
/// and the uploads the server-side attacker sees.
fn final_pass(system: &mut FlSystem) -> Result<Vec<ModelParams>, BoxError> {
    let global = system.global_params().share();
    let mut uploads = Vec::with_capacity(system.clients().len());
    for client in system.clients_mut() {
        client.receive_global(&global)?;
        client.train_local()?;
        uploads.push(client.produce_update()?.params);
    }
    Ok(uploads)
}

/// Accuracy and, on fig6, attack AUCs after training.
struct Eval {
    accuracy_pct: f64,
    /// Global and mean local attack AUC, in percent.
    auc_pct: Option<(f64, f64)>,
}

impl Eval {
    fn record(&self, record: &mut Record) {
        record.set("accuracy_pct", self.accuracy_pct);
        if let Some((global, local)) = self.auc_pct {
            record.set("mia_advantage_global_pct", (global - 50.0).abs());
            record.set("mia_advantage_local_pct", (local - 50.0).abs());
        }
    }
}

/// Runs the closing pass, then measures accuracy (and, on fig6, the
/// shadow-model attack through `harness::evaluate_run`). `None` for the
/// wire workload, which has no held-out split.
fn evaluate(plan: &Plan, setup: &mut Setup, rep: Rep) -> Result<Option<Eval>, BoxError> {
    let Some(env) = setup.env.as_mut() else {
        return Ok(None);
    };
    let mut system = rep.system;
    let uploads = final_pass(&mut system)?;
    if !plan.is_fig6() {
        let accuracy = system.mean_client_accuracy(&env.split.test)?;
        return Ok(Some(Eval {
            accuracy_pct: f64::from(accuracy) * 100.0,
            auc_pct: None,
        }));
    }
    let mut run = TrainedRun {
        system,
        uploads,
        cost: CostSample::default(),
    };
    let outcome = harness::evaluate_run(env, &mut run, "DINAR".to_string())?;
    Ok(Some(Eval {
        accuracy_pct: outcome.accuracy_pct,
        auc_pct: Some((outcome.global_auc_pct, outcome.local_auc_pct)),
    }))
}

fn final_loss(rep: &Rep) -> f64 {
    rep.reports
        .last()
        .map_or(f64::NAN, |r| f64::from(r.mean_train_loss))
}

fn check_loss(record: &mut Record, loss: f64) {
    record.check(
        "final_loss_finite",
        loss.is_finite(),
        format!("final mean train loss {loss}"),
    );
}

pub(crate) fn run(
    workload: Workload,
    config: &RunConfig,
    record: &mut Record,
) -> Result<(), BoxError> {
    let plan = Plan::new(workload, config);
    if config.trace {
        run_traced(&plan, record)
    } else {
        run_untraced(&plan, config, record)
    }
}

fn run_untraced(plan: &Plan, config: &RunConfig, record: &mut Record) -> Result<(), BoxError> {
    let min_reps = if config.size == Size::Tiny { 1 } else { 3 };
    let (setup_s, mut setup) = median_setup(min_reps, 1.0, || setup(plan))?;
    record.set("setup_s", setup_s);

    let samples_per_round = setup.samples_per_round(&plan.spec) as f64;
    let mut step_s = Vec::new();
    let mut rep_samples_per_s = Vec::new();
    let mut peak_mem = 0u64;
    let mut last: Option<Rep> = None;
    let start = Instant::now();
    let mut rep_id = 0;
    while rep_id == 0 || start.elapsed().as_secs_f64() < config.seconds {
        rep_id += 1;
        let system = build_system(plan, &setup)?;
        let rep = train(plan, system, record, "round")?;
        step_s.extend_from_slice(&rep.step_s);
        rep_samples_per_s.push(samples_per_round * rep.reports.len() as f64 / rep.total_s);
        peak_mem = rep
            .reports
            .iter()
            .map(|r| r.cost.client_peak_mem_bytes)
            .fold(peak_mem, u64::max);
        record.digests.push((
            format!("repetition_{rep_id}"),
            Digest::of_params(rep.system.global_params()),
        ));
        last = Some(rep);
    }
    let rep = last.expect("at least one repetition runs");

    // The median over repetitions, so a burst of machine noise moves one
    // repetition, not the figure.
    let samples_per_s = median(&rep_samples_per_s);
    record.set("step_ms_p50", median(&step_s) * 1e3);
    record.set("items_per_s", samples_per_s);
    record.set("peak_mem_bytes", peak_mem as f64);
    record.set("train_samples_per_s", samples_per_s);
    record.set("client_peak_mem_bytes", peak_mem as f64);
    let loss = final_loss(&rep);
    record.set("final_loss", loss);
    check_loss(record, loss);
    if plan.engine == Engine::InProcess {
        record.set("round_s_p50", median(&step_s));
    } else {
        let up: u64 = rep.wire_stats.iter().map(|s| s.bytes_up).sum();
        record.set(
            "uplink_bytes_per_round",
            up as f64 / rep.wire_stats.len().max(1) as f64,
        );
    }
    if let Some(eval) = evaluate(plan, &mut setup, rep)? {
        eval.record(record);
    }
    let ops = record.ops;
    record.set(
        "failed_ops_pct",
        100.0 * ops.failed as f64 / ops.attempted.max(1) as f64,
    );
    Ok(())
}

fn run_traced(plan: &Plan, record: &mut Record) -> Result<(), BoxError> {
    let mut setup = setup_traced(plan, &mut record.spans)?;

    let system = build_system(plan, &setup)?;
    let untraced = train(plan, system, record, "round.untraced")?;
    record.digests.push((
        "untraced".into(),
        Digest::of_params(untraced.system.global_params()),
    ));

    let telemetry = Telemetry::new();
    let mut system = build_system(plan, &setup)?;
    system.set_telemetry(telemetry.clone());
    let kernels_before = profile::snapshot();
    let copies_before = profile::param_snapshot();
    let traced = train(plan, system, record, "round.traced")?;
    let kernels = profile::snapshot().delta_since(&kernels_before);
    let copies = profile::param_snapshot().delta_since(&copies_before);
    record.digests.push((
        "traced".into(),
        Digest::of_params(traced.system.global_params()),
    ));
    check_loss(record, final_loss(&traced));

    let rounds = plan.rounds as f64;
    let spans = telemetry.spans();
    let totals = fl_span_totals(&spans);
    let layer = |key: &str| totals.layer_s.get(key).copied().unwrap_or(0.0) / rounds;
    let stage = |key: &str| totals.stage_s.get(key).copied().unwrap_or(0.0) / rounds;
    let layer_total = totals.layer_s.get("fwd").copied().unwrap_or(0.0)
        + totals.layer_s.get("bwd").copied().unwrap_or(0.0);
    let matmul_gflop = kernels.matmul_flops as f64 * 1e-9;
    for (name, key) in [
        ("nn.fwd_s", "fwd"),
        ("nn.bwd_s", "bwd"),
        ("nn.fwd_s.dense", "fwd.dense"),
        ("nn.bwd_s.dense", "bwd.dense"),
        ("nn.fwd_s.conv2d", "fwd.conv2d"),
        ("nn.bwd_s.conv2d", "bwd.conv2d"),
        ("nn.fwd_s.pool", "fwd.pool"),
        ("nn.fwd_s.act", "fwd.act"),
        ("nn.bwd_first_layer_s", "bwd_first"),
    ] {
        record.set(name, layer(key));
    }
    for (name, key) in [
        ("fl.download_s", "download"),
        ("fl.upload_s", "upload"),
        ("fl.aggregate_s", "aggregate"),
        ("fl.encode_s", "encode"),
        ("fl.broadcast_s", "broadcast"),
        ("fl.collect_s", "collect"),
        ("core.mw_download_s", "mw_download"),
        ("core.mw_upload_s", "mw_upload"),
    ] {
        record.set(name, stage(key));
    }
    record.set("fl.train_s", totals.train_s / rounds);
    record.set(
        "nn.train_unattributed_s",
        totals.train_unattributed_s / rounds,
    );
    record.set(
        "nn.span_coverage",
        if totals.train_s > 0.0 {
            1.0 - totals.train_unattributed_s / totals.train_s
        } else {
            0.0
        },
    );
    let skew = &totals.train_skew;
    record.set(
        "fl.client_train_skew",
        skew.iter().sum::<f64>() / skew.len().max(1) as f64,
    );
    record.set("tensor.matmul_gflop", matmul_gflop / rounds);
    record.set(
        "tensor.train_gflops_per_s",
        if layer_total > 0.0 {
            matmul_gflop / layer_total
        } else {
            0.0
        },
    );
    record.set("tensor.im2col_bytes", kernels.im2col_bytes as f64 / rounds);
    record.set("tensor.col2im_bytes", kernels.col2im_bytes as f64 / rounds);
    record.set("tensor.rng_samples", kernels.rng_samples as f64 / rounds);
    record.set("tensor.param_copy_bytes", copies.copy_bytes as f64 / rounds);
    record.set("tensor.alloc_peak_bytes", alloc::peak_bytes() as f64);

    let clients = setup.shards.len() as f64;
    if plan.engine == Engine::Wire {
        let sum = |f: fn(&RoundFaultStats) -> usize| {
            traced.fault_stats.iter().map(|s| f(s) as f64).sum::<f64>()
        };
        record.set("fl.updates_attempted", rounds * clients);
        record.set("fl.updates_dropped", sum(|s| s.clients_dropped));
        record.set("fl.retries", sum(|s| s.clients_retried));
        let wire_rounds = traced.wire_stats.len().max(1) as f64;
        let per_round = |f: fn(&RoundWireStats) -> f64| {
            traced.wire_stats.iter().map(f).sum::<f64>() / wire_rounds
        };
        record.set(
            "fl.wire.bytes_down_per_round",
            per_round(|s| s.bytes_down as f64),
        );
        record.set("fl.wire.frames_per_round", per_round(|s| s.frames as f64));
        record.set(
            "fl.wire.sim_makespan_ms",
            per_round(|s| s.sim_elapsed.as_secs_f64() * 1e3),
        );
    } else {
        record.set("fl.updates_attempted", rounds * clients);
        record.set("fl.updates_dropped", 0.0);
        record.set("fl.retries", 0.0);
    }
    record.set(
        "telemetry.overhead_ratio",
        traced.total_s / untraced.total_s,
    );
    record.set("telemetry.spans_recorded", spans.len() as f64);

    // Quality metrics come from the untraced run; here the evaluation is
    // only timed.
    record
        .spans
        .time("evaluate", None, |_| evaluate(plan, &mut setup, traced))?;
    if plan.is_fig6() {
        record.set("attacks.evaluate_s", record.spans.total("evaluate"));
    }
    for (name, span) in [
        ("data.generate_s", "data.generate"),
        ("data.partition_s", "data.partition"),
        ("attacks.shadow_fit_s", "attacks.shadow_fit"),
        ("core.sensitivity_probe_s", "core.sensitivity_probe"),
    ] {
        record.set(name, record.spans.total(span));
    }
    record.fill_unexercised_layers();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_bench::harness::Defense;

    fn tiny_plan(workload: Workload, seed: u64) -> Plan {
        let config = RunConfig {
            workload,
            seed,
            seconds: 0.0,
            trace: true,
            size: Size::Tiny,
        };
        let mut plan = Plan::new(workload, &config);
        // Four rounds give the sensitivity probe two warm-up epochs.
        plan.spec.rounds = 4;
        plan
    }

    fn traced_env(plan: &Plan) -> Environment {
        setup_traced(plan, &mut Spans::new())
            .expect("traced set-up")
            .env
            .expect("DINAR workloads keep an environment")
    }

    /// The traced set-up times the work `harness::prepare` does: the same
    /// probe result on every seed, and an attacker fitted to the same AUCs.
    #[test]
    fn traced_setup_matches_harness_prepare() {
        for seed in 1..=6 {
            let plan = tiny_plan(Workload::Fig6Purchase100Dinar, seed);
            let mut ours = traced_env(&plan);
            let mut theirs = harness::prepare(plan.spec.clone()).expect("harness prepare");
            assert_eq!(
                ours.sensitivity_argmax, theirs.sensitivity_argmax,
                "seed {seed}"
            );
            assert_eq!(ours.dinar_layer, theirs.dinar_layer, "seed {seed}");
            if seed > 1 {
                continue;
            }
            let outcome = |env: &mut Environment| {
                let mut run = harness::train_defense(env, &Defense::dinar(env.dinar_layer))
                    .expect("training");
                let o = harness::evaluate_run(env, &mut run, "DINAR".into()).expect("evaluate");
                (o.accuracy_pct, o.global_auc_pct, o.local_auc_pct)
            };
            assert_eq!(outcome(&mut ours), outcome(&mut theirs));
        }
    }

    #[test]
    fn traced_setup_matches_harness_prepare_training_only() {
        let plan = tiny_plan(Workload::Fig4CelebaVggDinar, 7);
        let ours = traced_env(&plan);
        let theirs = harness::prepare_training_only(plan.spec.clone()).expect("harness prepare");
        assert_eq!(ours.sensitivity_argmax, theirs.sensitivity_argmax);
        assert_eq!(ours.dinar_layer, theirs.dinar_layer);
    }
}
