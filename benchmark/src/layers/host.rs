//! Layer `host`: a fixed reference kernel and the machine's description,
//! so rows from different hosts can be compared and a noisy run shows.

use std::hint::black_box;
use std::time::Instant;

/// A fixed integer-hash pass followed by a dependent pointer walk over a
/// 32 MiB table (larger than the last-level cache share of a small
/// sandbox): about half a second, sensitive to both clock speed and
/// memory latency, and independent of the program under test.
pub fn ref_kernel_s() -> f64 {
    const SLOTS: usize = 1 << 22;
    const HASHES: u64 = 100_000_000;
    const STEPS: usize = 3_000_000;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..HASHES {
        x ^= i;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    // One cycle through every slot (odd stride, power-of-two table), so
    // the walk cannot settle into a cached loop.
    let table: Vec<u64> = (0..SLOTS as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B1).wrapping_add(12_345)) & (SLOTS as u64 - 1))
        .collect();
    let mut at = (x as usize) & (SLOTS - 1);
    for _ in 0..STEPS {
        at = table[at] as usize;
    }
    black_box(at);
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MB. 0 where procfs does
/// not say.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// `nproc`, CPU model, `rustc -V` and git commit on one line, each
/// "unknown" when the host will not say.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={}",
        git_commit()
    )
}

/// The checked-out commit, read from `.git` without running git (the
/// acceptance checkout is not a repository, so this is often unknown).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
