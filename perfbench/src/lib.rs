//! # dinar-perfbench
//!
//! One end-to-end and per-layer benchmark over four named DINAR workloads.
//! See `README.md` in this directory for the workloads, every metric's unit
//! and direction, and the layer → metric → workload map.
//!
//! A run executes one workload for a given seed. Untraced runs (telemetry
//! off) produce the end-to-end metrics; traced runs attach a telemetry sink
//! and produce the per-layer metrics. Every run checks its outputs and
//! records a digest of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod fl;
mod serve;
pub mod stamp;
pub mod trace;

use catalog::{Group, METRICS};
use dinar_nn::ModelParams;
use dinar_tensor::json::Json;
use std::collections::BTreeMap;
use trace::Spans;

/// Boxed error used across the workloads.
pub type BoxError = Box<dyn std::error::Error>;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cell of the paper's fig6 grid: Purchase100-mini, FCNN6, 10
    /// clients, DINAR, in-process engine, shadow-model MIA evaluation.
    Fig6Purchase100Dinar,
    /// CelebA-mini, VGG11-mini, 5 clients, DINAR, in-process engine.
    Fig4CelebaVggDinar,
    /// Purchase100-mini, FCNN6, 4 clients, DP-SGD, threaded engine with
    /// `quant_i8` uplinks over a simulated network.
    WirePurchase100LdpI8,
    /// Batched inference from an `i8` checkpoint of a Purchase100-shaped MLP.
    ServeMlpI8,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Purchase100Dinar,
        Workload::Fig4CelebaVggDinar,
        Workload::WirePurchase100LdpI8,
        Workload::ServeMlpI8,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Purchase100Dinar => "fig6_purchase100_dinar",
            Workload::Fig4CelebaVggDinar => "fig4_celeba_vgg_dinar",
            Workload::WirePurchase100LdpI8 => "wire_purchase100_ldp_i8",
            Workload::ServeMlpI8 => "serve_mlp_i8",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size. `Full` is what the command line runs; `Tiny` shrinks every
/// workload to a few seconds of debug-build work for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real workloads.
    Full,
    /// A smoke-test size: one round, one local epoch, few batches.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed phase measures, in seconds (at least one
    /// repetition always runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// Operations attempted and failed: rounds and client updates for FL
/// workloads, batches for serving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or were dropped.
    pub failed: u64,
}

/// The outcome of one output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

impl Check {
    fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// A 64-bit FNV-1a digest of a model's or a batch stream's exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    fn feed(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    fn feed_f32s(self, values: &[f32]) -> Digest {
        values
            .iter()
            .fold(self, |d, v| d.feed(&v.to_bits().to_le_bytes()))
    }

    /// Digest of every parameter's shape and bit pattern, layer by layer.
    pub fn of_params(params: &ModelParams) -> Digest {
        let mut d = Digest(Self::OFFSET);
        for layer in &params.layers {
            for t in &layer.tensors {
                for &dim in t.shape() {
                    d = d.feed(&(dim as u64).to_le_bytes());
                }
                d = d.feed_f32s(t.as_slice());
            }
        }
        d
    }

    /// Digest of a sequence of f32 slices (serving logits).
    pub fn of_slices<'a>(slices: impl IntoIterator<Item = &'a [f32]>) -> Digest {
        slices
            .into_iter()
            .fold(Digest(Self::OFFSET), |d, s| d.feed_f32s(s))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Record {
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific output checks.
    pub checks: Vec<Check>,
    /// Digests of outputs that must be bit-identical to each other (every
    /// repetition's final model, or the untraced and traced runs'), by label.
    pub digests: Vec<(String, Digest)>,
    /// The benchmark's own spans.
    pub spans: Spans,
    /// Attempted and failed operations.
    pub ops: Ops,
}

impl Record {
    /// Sets a metric; panics on a name missing from the catalogue, which is
    /// a bug in the benchmark.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::lookup(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Sets every per-layer metric the run did not exercise to 0.
    pub(crate) fn fill_unexercised_layers(&mut self) {
        for m in catalog::group(Group::Layer) {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }

    pub(crate) fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// The checks that hold for every run: recorded digests agree bit for
    /// bit, every emitted metric is finite, every metric of the run's group
    /// is present, and no operation failed (the strict policy tolerates
    /// none). Workload-specific checks come first.
    pub fn all_checks(&self, trace: bool) -> Vec<Check> {
        let mut checks = self.checks.clone();
        if let Some((first_label, first)) = self.digests.first() {
            let mismatched: Vec<String> = self
                .digests
                .iter()
                .filter(|(_, d)| d != first)
                .map(|(label, d)| format!("{label}={d}"))
                .collect();
            checks.push(Check::new(
                "outputs_bit_identical",
                mismatched.is_empty(),
                if mismatched.is_empty() {
                    format!("{} digests equal {first}", self.digests.len())
                } else {
                    format!("{first_label}={first} but {}", mismatched.join(", "))
                },
            ));
        } else {
            checks.push(Check::new(
                "outputs_bit_identical",
                false,
                "no output digest was recorded".to_string(),
            ));
        }
        let non_finite: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(k, _)| *k)
            .collect();
        checks.push(Check::new(
            "metrics_finite",
            non_finite.is_empty(),
            format!("non-finite: {non_finite:?}"),
        ));
        let missing: Vec<&str> = catalog::group(result_group(trace))
            .filter(|m| !self.metrics.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        checks.push(Check::new(
            "metrics_complete",
            missing.is_empty(),
            format!("missing: {missing:?}"),
        ));
        checks.push(Check::new(
            "no_failed_ops",
            self.ops.failed == 0 && self.ops.attempted > 0,
            format!(
                "{} failed of {} attempted",
                self.ops.failed, self.ops.attempted
            ),
        ));
        checks
    }

    /// The last line the benchmark prints: `correct`, `attempted`, `failed`
    /// and the metrics of the run's group (end-to-end gate metrics when
    /// untraced, per-layer metrics when traced), each with its unit.
    pub fn result_line(&self, trace: bool, correct: bool) -> String {
        let metrics: Vec<(String, Json)> = catalog::group(result_group(trace))
            .filter_map(|m| {
                let value = *self.metrics.get(m.name)?;
                let value = if value.is_finite() {
                    Json::Num(value)
                } else {
                    Json::Null
                };
                Some((
                    m.name.to_string(),
                    Json::obj([("value", value), ("unit", Json::Str(m.unit.to_string()))]),
                ))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .dump()
    }

    /// Human-readable lines: every emitted metric with unit and direction,
    /// then every check in `checks` and every digest.
    pub fn report_lines(&self, checks: &[Check]) -> Vec<String> {
        let mut lines = Vec::new();
        for m in METRICS {
            if let Some(v) = self.metrics.get(m.name) {
                let tag = if m.group == Group::Layer {
                    "layer"
                } else {
                    "e2e"
                };
                lines.push(format!(
                    "{tag:<5} {:<30} {:>18.6} {:<12} better={}",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                ));
            }
        }
        for c in checks {
            lines.push(format!(
                "check {:<30} {:<4} {}",
                c.name,
                if c.ok { "ok" } else { "FAIL" },
                c.detail
            ));
        }
        for (label, d) in &self.digests {
            lines.push(format!("digest {label:<29} {d}"));
        }
        lines
    }
}

/// The catalogue group a run's result line carries.
pub fn result_group(trace: bool) -> Group {
    if trace {
        Group::Layer
    } else {
        Group::Gate
    }
}

/// Runs one workload into `record`. On error the record keeps whatever the
/// run had measured and counted before failing, and the failing step is
/// counted as a failed operation.
///
/// # Errors
///
/// Propagates any error of the workload's data, training, attack or serving
/// calls.
pub fn run(config: &RunConfig, record: &mut Record) -> Result<(), BoxError> {
    let failed_before = record.ops.failed;
    let result = match config.workload {
        Workload::ServeMlpI8 => serve::run(config, record),
        fl => fl::run(fl, config, record),
    };
    count_uncounted_failure(record, failed_before, result)
}

/// A failing round, client update or batch counts itself. An error from any
/// other step (set-up, evaluation, a digest) counts here as one attempted
/// and one failed operation, so an errored run still reports its attempts.
fn count_uncounted_failure(
    record: &mut Record,
    failed_before: u64,
    result: Result<(), BoxError>,
) -> Result<(), BoxError> {
    if result.is_err() && record.ops.failed == failed_before {
        record.ops.attempted += 1;
        record.ops.failed += 1;
    }
    result
}

/// Runs `f` repeatedly (at least `min_reps` times and until `min_total_s`
/// seconds have passed, at most 50 times) and returns the median duration
/// in seconds together with the last result.
pub(crate) fn median_setup<T>(
    min_reps: usize,
    min_total_s: f64,
    mut f: impl FnMut() -> Result<T, BoxError>,
) -> Result<(f64, T), BoxError> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = f()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= min_reps && start.elapsed().as_secs_f64() >= min_total_s;
        if enough || times.len() >= 50 {
            return Ok((trace::median(&times), out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_outside_a_counted_operation_counts_as_one_failure() {
        let mut record = Record::default();
        assert!(count_uncounted_failure(&mut record, 0, Err("set-up failed".into())).is_err());
        assert_eq!(
            record.ops,
            Ops {
                attempted: 1,
                failed: 1
            }
        );
        let line = Json::parse(&record.result_line(false, false)).expect("JSON");
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn a_counted_failure_is_not_counted_twice() {
        let mut record = Record {
            ops: Ops {
                attempted: 11,
                failed: 11,
            },
            ..Record::default()
        };
        assert!(count_uncounted_failure(&mut record, 0, Err("round failed".into())).is_err());
        assert_eq!(record.ops.attempted, 11);
        assert_eq!(record.ops.failed, 11);

        let mut ok = Record::default();
        assert!(count_uncounted_failure(&mut ok, 0, Ok(())).is_ok());
        assert_eq!(ok.ops, Ops::default());
    }
}
