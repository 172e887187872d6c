//! Training-cost measurement: wall time, process CPU time, and peak RSS
//! (Table 2's three columns).

use std::sync::OnceLock;
use std::time::Instant;

/// Resource usage of a measured closure.
#[derive(Clone, Copy, Debug)]
pub struct ResourceUsage {
    /// Elapsed wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds consumed during the closure (user + system,
    /// summed over all threads). `None` when `/proc` is unavailable.
    pub cpu_s: Option<f64>,
    /// Peak resident set size in megabytes *at the end* of the closure.
    /// `None` when `/proc` is unavailable. Note: `VmHWM` is a process-level
    /// high-water mark, so earlier allocations in the same process can mask
    /// a smaller training footprint.
    pub peak_rss_mb: Option<f64>,
}

/// Run `f`, measuring wall time, CPU time, and peak RSS around it.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, ResourceUsage) {
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_after = process_cpu_seconds();
    let cpu_s = match (cpu_before, cpu_after) {
        (Some(a), Some(b)) => Some((b - a).max(0.0)),
        _ => None,
    };
    (
        out,
        ResourceUsage {
            wall_s,
            cpu_s,
            peak_rss_mb: peak_rss_mb(),
        },
    )
}

/// Process CPU seconds (utime + stime) from `/proc/self/stat`, Linux only.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; skip to after the closing paren.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After comm: field 0 is state; utime/stime are fields 11/12 here
    // (fields 14/15 of the full stat line, 1-indexed).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let hz = clock_ticks_per_second();
    Some((utime + stime) / hz)
}

/// Peak resident set size in MB from `/proc/self/status` (VmHWM), Linux
/// only.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

/// `_SC_CLK_TCK`, probed once at first use by running `getconf CLK_TCK`
/// (which avoids a libc dependency) and cached for the process lifetime.
/// Falls back to 100 — the value on every mainstream Linux configuration —
/// when the probe fails (no `getconf` binary, non-numeric output); CPU
/// seconds are then off by the ratio of the real tick rate to 100 on
/// exotically configured kernels.
fn clock_ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&v| v.is_finite() && v > 0.0)
            .unwrap_or(100.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_wall_time() {
        let (value, usage) = measure(|| {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(value > 0);
        assert!(usage.wall_s > 0.0);
        if let Some(cpu) = usage.cpu_s {
            assert!(cpu >= 0.0);
        }
    }

    #[test]
    fn clock_tick_rate_is_sane() {
        let hz = clock_ticks_per_second();
        assert!(hz.is_finite() && hz > 0.0, "tick rate {hz}");
        // Linux allows CONFIG_HZ from 24 to 1200 plus the userspace-visible
        // USER_HZ of 100; anything outside a generous range means the probe
        // parsed garbage.
        assert!((1.0..=100_000.0).contains(&hz), "tick rate {hz}");
        // Cached: repeated calls agree.
        assert_eq!(hz, clock_ticks_per_second());
    }

    #[test]
    fn proc_readers_work_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_seconds().is_some());
            let rss = peak_rss_mb().expect("VmHWM available on Linux");
            assert!(rss > 0.0);
        }
    }

    #[test]
    fn cpu_time_tracks_busy_loop() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let (_, usage) = measure(|| {
            let mut acc = 0u64;
            // Enough work to register at 100 Hz accounting granularity.
            for i in 0..80_000_000u64 {
                acc = acc.wrapping_add(i ^ (i >> 3));
            }
            std::hint::black_box(acc)
        });
        let cpu = usage.cpu_s.unwrap();
        assert!(cpu >= 0.0, "cpu {cpu}");
        // CPU time should be within an order of magnitude of wall time for a
        // single-threaded busy loop (scheduler noise allowed).
        assert!(cpu <= usage.wall_s * 4.0 + 0.1);
    }
}
