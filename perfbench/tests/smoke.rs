//! Tiny-size smoke runs of every workload: each emits every metric of its
//! group with the unit and direction `BENCHMARK.json` declares, passes its
//! output checks, and reproduces the harness's own set-up and training;
//! the checks fire on a corrupted digest.

use dinar_bench::harness::{self, Defense, ExperimentSpec};
use dinar_data::catalog::{self, Profile};
use dinar_perfbench::catalog::{Group, METRICS};
use dinar_perfbench::{result_group, run, Digest, Record, RunConfig, Size, Workload};
use dinar_tensor::json::Json;
use std::sync::Mutex;

/// Runs share the process-wide kernel counters; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;

fn tiny(workload: Workload, trace: bool) -> Record {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let config = RunConfig {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    let mut record = Record::default();
    run(&config, &mut record).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    record
}

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric a `BENCHMARK.json` list declares.
fn declared(list: &str) -> Vec<(String, String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(group: Group) -> Vec<(String, String, String)> {
    METRICS
        .iter()
        .filter(|m| m.group == group)
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_catalogue_and_workloads() {
    assert_eq!(declared("end_to_end"), catalogue(Group::Gate));
    assert_eq!(declared("per_layer"), catalogue(Group::Layer));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads present")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

/// The result line carries exactly the declared metrics, each with its
/// unit; the report lines name every emitted metric with unit and direction.
fn assert_emits_group(record: &Record, trace: bool, workload: Workload) {
    let checks = record.all_checks(trace);
    for c in &checks {
        assert!(
            c.ok,
            "{}: check {} failed: {}",
            workload.name(),
            c.name,
            c.detail
        );
    }
    let line = Json::parse(&record.result_line(trace, true)).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(
        line.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    let list = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared(list);
    assert_eq!(metrics.len(), declared.len(), "{}", workload.name());
    for ((name, value), (want, unit, _)) in metrics.iter().zip(&declared) {
        assert_eq!(name, want);
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        let v = value
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite());
        if !trace {
            assert!(v > 0.0, "{}: end-to-end {name} is {v}", workload.name());
        }
    }
    let report = record.report_lines(&checks);
    for (name, _) in record.metrics.iter() {
        let m = METRICS
            .iter()
            .find(|m| m.name == *name)
            .expect("catalogued");
        let line = report
            .iter()
            .find(|l| l.split_whitespace().nth(1) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        assert!(line.contains(m.unit) && line.contains(&format!("better={}", m.better.as_str())));
    }
    assert_eq!(
        result_group(trace),
        if trace { Group::Layer } else { Group::Gate }
    );
}

fn assert_reports(record: &Record, names: &[&str]) {
    for name in names {
        assert!(record.metrics.contains_key(name), "missing {name}");
    }
}

fn assert_positive(record: &Record, names: &[&str]) {
    for name in names {
        let v = record.metrics[name];
        assert!(v > 0.0, "{name} should be exercised, got {v}");
    }
}

fn digest(record: &Record, label: &str) -> Digest {
    record
        .digests
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no digest {label}"))
        .1
}

fn tiny_spec(workload: Workload) -> ExperimentSpec {
    let entry = match workload {
        Workload::Fig4CelebaVggDinar => catalog::celeba(Profile::Mini),
        _ => catalog::purchase100(Profile::Mini),
    };
    let mut spec = ExperimentSpec::mini_default(entry);
    spec.seed = SEED;
    spec.rounds = 1;
    spec.local_epochs = 1;
    spec
}

/// Both modes of an FL workload; the traced run's step-by-step set-up must
/// reach the same model as the untraced run's harness set-up.
fn fl_workload(workload: Workload, report: &[&str], exercised: &[&str]) -> Record {
    let untraced = tiny(workload, false);
    assert_emits_group(&untraced, false, workload);
    assert_reports(&untraced, report);
    let traced = tiny(workload, true);
    assert_emits_group(&traced, true, workload);
    assert_positive(&traced, exercised);
    assert_eq!(
        digest(&untraced, "repetition_1"),
        digest(&traced, "untraced"),
        "{}: traced set-up diverged from the harness set-up",
        workload.name()
    );
    untraced
}

#[test]
fn fig6_emits_every_metric_and_matches_the_harness() {
    let w = Workload::Fig6Purchase100Dinar;
    let untraced = fl_workload(
        w,
        &[
            "round_s_p50",
            "train_samples_per_s",
            "final_loss",
            "accuracy_pct",
            "mia_advantage_global_pct",
            "mia_advantage_local_pct",
            "client_peak_mem_bytes",
            "failed_ops_pct",
        ],
        &[
            "nn.bwd_s.dense",
            "nn.bwd_first_layer_s",
            "tensor.matmul_gflop",
            "attacks.shadow_fit_s",
            "core.sensitivity_probe_s",
            "attacks.evaluate_s",
            "core.mw_upload_s",
            "telemetry.spans_recorded",
        ],
    );
    let mut env = harness::prepare(tiny_spec(w)).expect("harness prepare");
    let layer = env.dinar_layer;
    let mut run = harness::train_defense(&env, &Defense::dinar(layer)).expect("harness training");
    assert_eq!(
        Digest::of_params(run.system.global_params()),
        digest(&untraced, "repetition_1")
    );
    let outcome = harness::evaluate_run(&mut env, &mut run, "DINAR".into()).expect("evaluate");
    assert_eq!(outcome.accuracy_pct, untraced.metrics["accuracy_pct"]);
}

#[test]
fn fig4_emits_every_metric_and_matches_the_harness() {
    let w = Workload::Fig4CelebaVggDinar;
    let untraced = fl_workload(
        w,
        &[
            "round_s_p50",
            "train_samples_per_s",
            "final_loss",
            "accuracy_pct",
            "client_peak_mem_bytes",
            "failed_ops_pct",
        ],
        &[
            "nn.fwd_s.conv2d",
            "nn.bwd_s.conv2d",
            "nn.fwd_s.pool",
            "tensor.im2col_bytes",
            "tensor.col2im_bytes",
        ],
    );
    let env = harness::prepare_training_only(tiny_spec(w)).expect("harness prepare");
    let run = harness::train_defense(&env, &Defense::dinar(env.dinar_layer)).expect("training");
    assert_eq!(
        Digest::of_params(run.system.global_params()),
        digest(&untraced, "repetition_1")
    );
}

#[test]
fn wire_emits_every_metric() {
    fl_workload(
        Workload::WirePurchase100LdpI8,
        &[
            "train_samples_per_s",
            "final_loss",
            "client_peak_mem_bytes",
            "uplink_bytes_per_round",
            "failed_ops_pct",
        ],
        &[
            "tensor.rng_samples",
            "fl.wire.bytes_down_per_round",
            "fl.wire.frames_per_round",
            "fl.wire.sim_makespan_ms",
            "fl.updates_attempted",
            "nn.bwd_s.dense",
        ],
    );
}

#[test]
fn serve_emits_every_metric() {
    let w = Workload::ServeMlpI8;
    let untraced = tiny(w, false);
    assert_emits_group(&untraced, false, w);
    assert_reports(
        &untraced,
        &[
            "serve_rows_per_s",
            "serve_batch_ms_p50",
            "serve_batch_ms_p99",
            "serve_resident_bytes",
            "serve_logit_drift_max",
            "failed_ops_pct",
        ],
    );
    let traced = tiny(w, true);
    assert_emits_group(&traced, true, w);
    assert_positive(
        &traced,
        &[
            "serve.ckpt_decode_s",
            "serve.matmul_gflop",
            "serve.pool_hit_ratio",
            "telemetry.overhead_ratio",
            "telemetry.spans_recorded",
        ],
    );
    assert_eq!(
        traced.metrics["nn.bwd_s"], 0.0,
        "serving has no backward pass"
    );
}

#[test]
fn output_checks_fire_on_a_corrupted_digest() {
    let mut record = tiny(Workload::WirePurchase100LdpI8, true);
    assert!(record.all_checks(true).iter().all(|c| c.ok));
    let last = record.digests.last_mut().expect("a digest");
    last.1 = Digest(last.1 .0 ^ 1);
    let failed: Vec<String> = record
        .all_checks(true)
        .into_iter()
        .filter(|c| !c.ok)
        .map(|c| c.name)
        .collect();
    assert_eq!(failed, ["outputs_bit_identical"]);

    let line = Json::parse(&record.result_line(true, false)).expect("JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));

    record.digests.clear();
    assert!(record
        .all_checks(true)
        .iter()
        .any(|c| c.name == "outputs_bit_identical" && !c.ok));
}

#[test]
fn failed_ops_fail_the_run() {
    let mut record = tiny(Workload::ServeMlpI8, false);
    record.ops.failed = 1;
    assert!(record
        .all_checks(false)
        .iter()
        .any(|c| c.name == "no_failed_ops" && !c.ok));
}

#[test]
fn command_line_rejects_bad_arguments_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
