//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and better direction, every output
//! check and digest, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. Writes the same, with the run's
//! stamp, to `.bench_results/` under the working directory (and, when
//! traced, the benchmark's spans as JSON lines). Exits 1 if a check fails
//! or the run errors, 2 on a usage error.

use dinar_perfbench::stamp::Stamp;
use dinar_perfbench::{catalog, result_group, run, Check, Record, RunConfig, Size, Workload};
use dinar_tensor::json::Json;
use std::path::Path;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// Writes the run's full record next to the working directory's results.
fn write_results(
    stamp: &Stamp,
    record: &Record,
    checks: &[Check],
    config: &RunConfig,
) -> std::io::Result<()> {
    let dir = Path::new(".bench_results");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    let metrics = catalog::METRICS
        .iter()
        .filter_map(|m| {
            let v = *record.metrics.get(m.name)?;
            Some(Json::obj([
                ("name", Json::Str(m.name.to_string())),
                (
                    "value",
                    if v.is_finite() {
                        Json::Num(v)
                    } else {
                        Json::Null
                    },
                ),
                ("unit", Json::Str(m.unit.to_string())),
                ("better", Json::Str(m.better.as_str().to_string())),
            ]))
        })
        .collect();
    let doc = Json::obj([
        ("stamp", stamp.to_json()),
        ("attempted", Json::Num(record.ops.attempted as f64)),
        ("failed", Json::Num(record.ops.failed as f64)),
        ("metrics", Json::Arr(metrics)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::Str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "digests",
            Json::Obj(
                record
                    .digests
                    .iter()
                    .map(|(label, d)| (label.clone(), Json::Str(d.to_string())))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), doc.dump_pretty())?;
    if config.trace {
        std::fs::write(
            dir.join(format!("{stem}-spans.jsonl")),
            record.spans.to_jsonl(),
        )?;
    }
    Ok(())
}

/// Compares the run's output digest with the one `perfbench/digests.json`
/// records for this workload and seed, if any. Informational only: a
/// change that alters arithmetic on purpose changes the digest.
fn recorded_digest_line(record: &Record, config: &RunConfig) -> Option<String> {
    let text = std::fs::read_to_string(Path::new("perfbench").join("digests.json")).ok()?;
    let recorded = Json::parse(&text)
        .ok()?
        .get(config.workload.name())?
        .get(&config.seed.to_string())?
        .as_str()?
        .to_string();
    let (_, ours) = record.digests.first()?;
    let verdict = if ours.to_string() == recorded {
        "same"
    } else {
        "differs"
    };
    Some(format!(
        "recorded digest {verdict} (recorded {recorded}, this run {ours})"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(problem) => return usage(&problem),
    };
    let stamp = Stamp::collect(config.workload.name(), config.seed, config.trace);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} group={:?}",
        stamp.workload,
        stamp.seed,
        config.seconds,
        u8::from(config.trace),
        result_group(config.trace)
    );
    println!(
        "# commit={} cpu=\"{}\" nproc={} dinar_threads={} rustc=\"{}\"",
        stamp.commit, stamp.cpu, stamp.nproc, stamp.dinar_threads, stamp.rustc
    );

    let mut record = Record::default();
    let outcome = run(&config, &mut record);
    let mut checks = record.all_checks(config.trace);
    if let Err(e) = &outcome {
        checks.push(Check {
            name: "run_completed".to_string(),
            ok: false,
            detail: e.to_string(),
        });
    }
    for line in record.report_lines(&checks) {
        println!("{line}");
    }
    if let Some(line) = recorded_digest_line(&record, &config) {
        println!("{line}");
    }
    if let Err(e) = write_results(&stamp, &record, &checks, &config) {
        eprintln!("perfbench: could not write .bench_results: {e}");
    }
    let correct = checks.iter().all(|c| c.ok);
    println!("{}", record.result_line(config.trace, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
