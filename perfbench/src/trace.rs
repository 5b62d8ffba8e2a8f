//! The benchmark's own spans, and the per-layer figures derived from them
//! and from the program's existing telemetry spans.
//!
//! The benchmark opens spans only around its own calls into public
//! functions (set-up stages, each timed round or serve batch). Spans carry
//! a parent and, for rounds and batches, the step id they belong to. A
//! span's self time is its duration minus the part of it that its child
//! spans cover.

use dinar_telemetry::SpanRecord;
use std::collections::BTreeMap;
use std::time::Instant;

/// One span the benchmark opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSpan {
    /// Span name (a stage such as `data.generate` or a step such as `round`).
    pub name: &'static str,
    /// Index of the enclosing span in [`Spans::all`].
    pub parent: Option<usize>,
    /// Round or batch id, for step spans.
    pub step: Option<u64>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl BenchSpan {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one benchmark run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<BenchSpan>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// recorder it receives become children of this one.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        step: Option<u64>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            name,
            parent: self.open.last().copied(),
            step,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn all(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Total duration, in seconds, of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(BenchSpan::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Self time of span `index`, in seconds.
    pub fn self_time(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = covered_within(span.start_ns, span.end_ns, children);
        span.end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(covered) as f64
            * 1e-9
    }

    /// The spans as JSON lines: id, parent, name, step, start, end and self
    /// time.
    pub fn to_jsonl(&self) -> String {
        use dinar_tensor::json::Json;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("name", Json::Str(s.name.to_string())),
                ("step", opt(s.step)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num((self.self_time(id) * 1e9).round())),
            ]);
            out.push_str(&line.dump());
            out.push('\n');
        }
        out
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
pub fn covered_within(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation; 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-round layer figures derived from the telemetry spans of a traced FL
/// run (in-process or threaded engine). Only spans under a `round[N]` root
/// count, so evaluation passes outside the rounds are ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlSpanTotals {
    /// Seconds per layer-span category: `fwd`, `bwd`, `fwd.<kind>`,
    /// `bwd.<kind>`, `bwd_first`.
    pub layer_s: BTreeMap<String, f64>,
    /// Seconds in client `train` spans.
    pub train_s: f64,
    /// Seconds of `train` not covered by its layer spans.
    pub train_unattributed_s: f64,
    /// Seconds per stage span: `download`, `upload`, `mw_download`,
    /// `mw_upload`, `aggregate`, `encode`, `broadcast`, `collect`.
    pub stage_s: BTreeMap<&'static str, f64>,
    /// Per round: slowest client's train span over the median client's.
    pub train_skew: Vec<f64>,
}

/// The layer-kind family a `fwd`/`bwd` span belongs to.
fn kind_family(kind: &str) -> &str {
    match kind {
        "relu" | "tanh" => "act",
        "maxpool2d" | "maxpool1d" | "global_avg_pool" => "pool",
        other => other,
    }
}

/// Splits a `fwd[i:kind]` / `bwd[i:kind]` leaf into (direction, index, kind).
fn parse_layer_leaf(leaf: &str) -> Option<(&str, usize, &str)> {
    let (dir, rest) = leaf.split_once('[')?;
    if dir != "fwd" && dir != "bwd" {
        return None;
    }
    let (index, kind) = rest.strip_suffix(']')?.split_once(':')?;
    Some((dir, index.parse().ok()?, kind))
}

/// Aggregates the telemetry spans of a traced FL run.
pub fn fl_span_totals(spans: &[SpanRecord]) -> FlSpanTotals {
    let mut t = FlSpanTotals::default();
    // Children of each train span, keyed by (path, tid), for self time.
    let mut train_children: BTreeMap<(&str, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut train_spans: Vec<&SpanRecord> = Vec::new();
    let mut train_by_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let parts: Vec<&str> = s.path.split('/').collect();
        if !parts[0].starts_with("round[") {
            continue;
        }
        let secs = s.dur_us as f64 * 1e-6;
        let leaf = parts[parts.len() - 1];
        let parent = if parts.len() >= 2 {
            parts[parts.len() - 2]
        } else {
            ""
        };
        let depth = parts.len();
        if parent == "train" {
            if let Some((dir, index, kind)) = parse_layer_leaf(leaf) {
                *t.layer_s.entry(dir.to_string()).or_default() += secs;
                *t.layer_s
                    .entry(format!("{dir}.{}", kind_family(kind)))
                    .or_default() += secs;
                if dir == "bwd" && index == 0 {
                    *t.layer_s.entry("bwd_first".to_string()).or_default() += secs;
                }
            }
            let train_path = &s.path[..s.path.len() - leaf.len() - 1];
            train_children
                .entry((train_path, s.tid))
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
            continue;
        }
        let stage = match (leaf, parent) {
            ("train", p) if p.starts_with("client[") => {
                train_spans.push(s);
                train_by_round.entry(parts[0]).or_default().push(secs);
                t.train_s += secs;
                None
            }
            ("download", p) if p.starts_with("client[") => Some("download"),
            ("upload", p) if p.starts_with("client[") => Some("upload"),
            (mw, "download") if mw.starts_with("mw[") => Some("mw_download"),
            (mw, "upload") if mw.starts_with("mw[") => Some("mw_upload"),
            ("aggregate", _) if depth == 2 => Some("aggregate"),
            ("encode", _) if depth == 2 => Some("encode"),
            ("broadcast", _) if depth == 2 => Some("broadcast"),
            ("collect", _) if depth == 2 => Some("collect"),
            _ => None,
        };
        if let Some(stage) = stage {
            *t.stage_s.entry(stage).or_default() += secs;
        }
    }
    for s in train_spans {
        let children = train_children
            .remove(&(s.path.as_str(), s.tid))
            .unwrap_or_default();
        let covered = covered_within(s.start_us, s.start_us + s.dur_us, children);
        t.train_unattributed_s += s.dur_us.saturating_sub(covered) as f64 * 1e-6;
    }
    t.train_skew = train_by_round
        .values()
        .map(|durs| {
            let slowest = durs.iter().copied().fold(0.0, f64::max);
            let mid = median(durs);
            if mid > 0.0 {
                slowest / mid
            } else {
                1.0
            }
        })
        .collect();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            path: path.to_string(),
            start_us,
            dur_us,
            tid: 0,
        }
    }

    #[test]
    fn covered_within_merges_overlaps_and_clips() {
        assert_eq!(covered_within(10, 20, vec![(0, 12), (11, 14), (18, 30)]), 6);
        assert_eq!(covered_within(0, 10, Vec::new()), 0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn bench_span_self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.time("outer", None, |s| {
            s.time("inner", Some(1), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = &spans.all()[0];
        assert_eq!(spans.all()[1].parent, Some(0));
        assert!(spans.self_time(0) < outer.secs());
        assert!(spans.total("inner") >= 0.005);
    }

    #[test]
    fn fl_totals_split_layers_stages_and_unattributed_time() {
        let spans = vec![
            rec("round[1]", 0, 100),
            rec("round[1]/client[0]", 0, 90),
            rec("round[1]/client[0]/download", 0, 10),
            rec("round[1]/client[0]/download/mw[dinar]", 2, 5),
            rec("round[1]/client[0]/train", 10, 60),
            rec("round[1]/client[0]/train/fwd[0:dense]", 10, 10),
            rec("round[1]/client[0]/train/fwd[1:relu]", 20, 5),
            rec("round[1]/client[0]/train/bwd[0:dense]", 30, 20),
            rec("round[1]/client[0]/upload", 70, 20),
            rec("round[1]/aggregate", 90, 10),
            rec("download", 200, 50),
        ];
        let t = fl_span_totals(&spans);
        let us = 1e-6;
        assert!((t.layer_s["fwd"] - 15.0 * us).abs() < 1e-12);
        assert!((t.layer_s["fwd.act"] - 5.0 * us).abs() < 1e-12);
        assert!((t.layer_s["bwd_first"] - 20.0 * us).abs() < 1e-12);
        assert!((t.train_s - 60.0 * us).abs() < 1e-12);
        assert!((t.train_unattributed_s - 25.0 * us).abs() < 1e-12);
        assert!((t.stage_s["mw_download"] - 5.0 * us).abs() < 1e-12);
        assert!((t.stage_s["aggregate"] - 10.0 * us).abs() < 1e-12);
        assert!(!t.stage_s.contains_key("encode"));
        assert_eq!(t.train_skew, vec![1.0]);
    }
}
