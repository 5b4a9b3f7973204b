//! Host-side measurements: process CPU time, peak memory, host speed
//! calibration, and the facts every result records about the host and
//! the build.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread, exited threads
/// included) in seconds; 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14 and stime field 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the host offers this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// The commit of the source tree the benchmark was built from, read
/// when asked: the hash, with `-dirty` if tracked files have changes,
/// or "unknown" outside a git checkout. Only that tree's own `.git` is
/// read.
pub fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("--no-optional-locks")
            .arg(format!("--git-dir={root}/.git"))
            .arg(format!("--work-tree={root}"))
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_none_or(|changes| !changes.is_empty());
            if dirty {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
        _ => "unknown".into(),
    }
}

/// Time of one [`calibrate`] call on the reference host (2 vCPUs of
/// an Intel Xeon KVM guest, in a quiet period). Host-time metrics are
/// scaled to it.
pub const CALIBRATION_REFERENCE_S: f64 = 1.6e-3;

/// Runs a fixed slice of general-purpose code (B-tree inserts and
/// lookups, a sort, hash-map updates, float formatting) and returns its
/// wall seconds. Other tenants of a shared host (a busy sibling
/// hyperthread, cache and memory-bandwidth contention) slow it much as
/// they slow the simulator, so timing it beside the simulator lets host
/// time be scaled to a reference host speed. Small arithmetic or
/// pointer-chasing kernels do not track those slowdowns.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    let mut tree = BTreeMap::new();
    for _ in 0..6_000 {
        tree.insert(next() % 100_000, next());
    }
    let hits = (0..6_000)
        .filter_map(|_| tree.get(&(next() % 100_000)))
        .fold(0u64, |a, v| a ^ v);
    let mut sorted: Vec<u64> = (0..10_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let mut counts: HashMap<u64, f64> = HashMap::new();
    for _ in 0..6_000 {
        *counts.entry(next() % 4_096).or_insert(0.0) += 1.5;
    }
    let mut text = String::new();
    for i in 0..500 {
        text.push_str(&format!("{:.3},", i as f64 * 1.37));
    }
    std::hint::black_box((hits, &sorted, counts.len(), text.len()));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_and_calibration_are_positive() {
        assert!(calibrate() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
