//! Every metric the benchmark emits: its name, unit, better direction and
//! the group it is reported in.
//!
//! `Gate` metrics are the cross-workload set listed under `end_to_end` in
//! `BENCHMARK.json`; every workload emits all of them in an untraced run.
//! `Report` metrics are the workload-specific end-to-end metrics, emitted
//! only where they apply. `Layer` metrics are listed under `per_layer` and
//! every workload emits all of them in a traced run, with 0 where the layer
//! is not exercised.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes, failures).
    Lower,
    /// Larger values are better (throughput, accuracy, coverage).
    Higher,
}

impl Better {
    /// The direction as written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// End-to-end, common to every workload, gated by `BENCHMARK.json`.
    Gate,
    /// End-to-end, specific to the workloads that exercise it.
    Report,
    /// Per-layer, from the traced run.
    Layer,
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Reporting group.
    pub group: Group,
}

const fn def(name: &'static str, unit: &'static str, better: Better, group: Group) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        group,
    }
}

use Better::{Higher, Lower};
use Group::{Gate, Layer, Report};

/// The full catalogue, in report order.
pub const METRICS: &[MetricDef] = &[
    // Gated end-to-end metrics (every workload).
    def("setup_s", "s", Lower, Gate),
    def("step_ms_p50", "ms", Lower, Gate),
    def("items_per_s", "1/s", Higher, Gate),
    def("peak_mem_bytes", "bytes", Lower, Gate),
    // Workload-specific end-to-end metrics.
    def("round_s_p50", "s", Lower, Report),
    def("train_samples_per_s", "1/s", Higher, Report),
    def("final_loss", "nats", Lower, Report),
    def("accuracy_pct", "%", Higher, Report),
    def("mia_advantage_global_pct", "pp", Lower, Report),
    def("mia_advantage_local_pct", "pp", Lower, Report),
    def("client_peak_mem_bytes", "bytes", Lower, Report),
    def("uplink_bytes_per_round", "bytes/round", Lower, Report),
    def("serve_rows_per_s", "1/s", Higher, Report),
    def("serve_batch_ms_p50", "ms", Lower, Report),
    def("serve_batch_ms_p99", "ms", Lower, Report),
    def("serve_resident_bytes", "bytes", Lower, Report),
    def("serve_logit_drift_max", "logit", Lower, Report),
    def("failed_ops_pct", "%", Lower, Report),
    // Per-layer metrics (traced run). FL figures are per traced round.
    def("nn.bwd_first_layer_s", "s/round", Lower, Layer),
    def("nn.bwd_s.dense", "s/round", Lower, Layer),
    def("nn.fwd_s.dense", "s/round", Lower, Layer),
    def("tensor.matmul_gflop", "GFLOP/round", Lower, Layer),
    def("tensor.train_gflops_per_s", "GFLOP/s", Higher, Layer),
    def("nn.fwd_s.conv2d", "s/round", Lower, Layer),
    def("nn.bwd_s.conv2d", "s/round", Lower, Layer),
    def("nn.fwd_s.pool", "s/round", Lower, Layer),
    def("tensor.im2col_bytes", "bytes/round", Lower, Layer),
    def("tensor.col2im_bytes", "bytes/round", Lower, Layer),
    def("nn.fwd_s", "s/round", Lower, Layer),
    def("nn.bwd_s", "s/round", Lower, Layer),
    def("nn.fwd_s.act", "s/round", Lower, Layer),
    def("nn.train_unattributed_s", "s/round", Lower, Layer),
    def("nn.span_coverage", "ratio", Higher, Layer),
    def("tensor.rng_samples", "count/round", Lower, Layer),
    def("fl.encode_s", "s/round", Lower, Layer),
    def("fl.broadcast_s", "s/round", Lower, Layer),
    def("fl.collect_s", "s/round", Lower, Layer),
    def("fl.updates_attempted", "count", Higher, Layer),
    def("fl.updates_dropped", "count", Lower, Layer),
    def("fl.retries", "count", Lower, Layer),
    def("fl.wire.bytes_down_per_round", "bytes/round", Lower, Layer),
    def("fl.wire.frames_per_round", "count/round", Lower, Layer),
    def("fl.wire.sim_makespan_ms", "ms/round", Lower, Layer),
    def("fl.download_s", "s/round", Lower, Layer),
    def("fl.train_s", "s/round", Lower, Layer),
    def("fl.upload_s", "s/round", Lower, Layer),
    def("fl.aggregate_s", "s/round", Lower, Layer),
    def("fl.client_train_skew", "ratio", Lower, Layer),
    def("core.mw_download_s", "s/round", Lower, Layer),
    def("core.mw_upload_s", "s/round", Lower, Layer),
    def("tensor.param_copy_bytes", "bytes/round", Lower, Layer),
    def("tensor.alloc_peak_bytes", "bytes", Lower, Layer),
    def("data.generate_s", "s", Lower, Layer),
    def("data.partition_s", "s", Lower, Layer),
    def("attacks.shadow_fit_s", "s", Lower, Layer),
    def("core.sensitivity_probe_s", "s", Lower, Layer),
    def("attacks.evaluate_s", "s", Lower, Layer),
    def("serve.ckpt_decode_s", "s", Lower, Layer),
    def("serve.load_s", "s", Lower, Layer),
    def("serve.infer_ms_p50.b1", "ms", Lower, Layer),
    def("serve.infer_ms_p50.b16", "ms", Lower, Layer),
    def("serve.infer_ms_p50.b64", "ms", Lower, Layer),
    def("serve.infer_ms_p50.b256", "ms", Lower, Layer),
    def("serve.pool_hit_ratio", "ratio", Higher, Layer),
    def("serve.matmul_gflop", "GFLOP/batch", Lower, Layer),
    def("telemetry.overhead_ratio", "ratio", Lower, Layer),
    def("telemetry.spans_recorded", "count", Lower, Layer),
];

/// Looks a metric up by name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics of one group, in catalogue order.
pub fn group(group: Group) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.group == group)
}
