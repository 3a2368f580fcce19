//! The run record printed with every result, and process-level readings.

use std::path::Path;

/// A `key: value` field of `/proc/self/status` (Linux), in its own unit.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Process high-water resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> Option<f64> {
    proc_status_field("VmHWM:").map(|kib| (kib * 1024) as f64)
}

/// Threads of this process right now.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, read from `.git` without running git: `HEAD`,
/// then the ref it names as a loose file or a line of `packed-refs`. A
/// source tree without `.git` reports `unknown`.
fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let resolve = |head: String| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&git.join(name))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?.lines().find_map(|line| {
                    let (rev, r) = line.split_once(' ')?;
                    (r == name).then(|| rev.to_string())
                })
            }),
    };
    read(&git.join("HEAD"))
        .and_then(resolve)
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run record as one JSON object: host, kernel backend, pinned
/// workers, threads seen, seed and source revision.
pub fn run_record(workload: &str, seed: u64, trace: bool, workers: usize, threads: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = format!("{:?}", etsb_tensor::simd::active_backend());
    format!(
        "{{\"run_record\":{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"cpu\":{},\"nproc\":{nproc},\"simd_backend\":{},\"workers\":{workers},\"threads_peak\":{threads},\"git_rev\":{}}}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(&backend),
        json_str(&git_revision()),
    )
}
