//! The provenance every result is stamped with: commit, CPU model, core
//! count, effective pool width, compiler version and workload seed.

use dinar_tensor::json::Json;
use std::process::Command;

/// Provenance of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Commit of the tree under test, or `unknown` outside a git checkout.
    pub commit: String,
    /// CPU brand string.
    pub cpu: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Effective `dinar-tensor` pool width (`DINAR_THREADS` or `nproc`).
    pub dinar_threads: usize,
    /// Version of the compiler that built the benchmark.
    pub rustc: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
}

impl Stamp {
    /// Collects the stamp for a run of `workload` with `seed`.
    pub fn collect(workload: &str, seed: u64, trace: bool) -> Stamp {
        Stamp {
            commit: commit(),
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            dinar_threads: dinar_tensor::par::threads(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            workload: workload.to_string(),
            seed,
            trace,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("commit", Json::Str(self.commit.clone())),
            ("cpu", Json::Str(self.cpu.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("dinar_threads", Json::Num(self.dinar_threads as f64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
        ])
    }
}

/// `HEAD` of the `.git` directory in the working directory only (never a
/// repository further up), or `unknown`.
fn commit() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU brand string from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand.trim_matches(char::from(0)).trim().to_string()
}

/// The CPU brand string (unavailable off x86-64).
#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}
