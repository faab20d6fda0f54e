//! Host-side readings: process CPU time, peak resident memory, and the
//! metadata every result file records about the machine it ran on.

use std::process::Command;

use crate::json::Json;

/// User + system CPU seconds consumed by this process (all threads), at
/// nanosecond resolution, or `None` where the clock is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes exactly one `timespec` through `tp`
    // and keeps no reference to it. `tp` points at a live, aligned local
    // whose layout (two 64-bit fields) is that of `struct timespec` on the
    // 64-bit Linux targets this function is compiled for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// No process CPU clock is wired up off 64-bit Linux; callers fall back
/// to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Option<f64> {
    None
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. The share of ticks stolen over a run says
/// whether a hypervisor neighbour slowed it: a number to read beside any
/// host metric measured on a shared VM.
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // The kernel's "kB" is 1024 bytes.
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// The short commit hash of the checkout the benchmark was built from,
/// `"unknown"` outside a git repository (the driver's checkouts).
pub fn git_commit() -> String {
    command_line(
        "git",
        &[
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    )
    .unwrap_or_else(|| "unknown".to_owned())
}

/// What a result row must say about the host it ran on.
pub fn metadata() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("logical_cores", Json::from(cores as u64)),
        ("cpu_model", Json::str(cpu_model)),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())),
        ),
        ("git_commit", Json::str(git_commit())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_sane_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let before = cpu_seconds().unwrap();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let after = cpu_seconds().unwrap();
        assert!(
            after > before,
            "the CPU clock advances under work: {before} -> {after}"
        );
        assert!(peak_rss_mb().unwrap() > 0.5);
        let (steal, total) = steal_and_total_ticks().unwrap();
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn metadata_names_the_host() {
        let meta = metadata();
        for key in ["logical_cores", "cpu_model", "rustc", "git_commit"] {
            assert!(meta.get(key).is_some(), "missing {key}");
        }
    }
}
