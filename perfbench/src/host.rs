//! Host fingerprint: cores, CPU model, compiler, peak memory, and the
//! time of a fixed reference kernel, so figures from different boxes can
//! be compared as ratios to that kernel.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Available parallelism (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median time in milliseconds of a fixed single-threaded kernel: a
/// xorshift stream folded into a float sum with a data-dependent branch,
/// 4 M steps; the median of seven repeats.
pub fn reference_kernel_ms() -> f64 {
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
            let mut acc = 0.0f64;
            for _ in 0..4_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 0 {
                    acc += (x >> 11) as f64 * 1e-16;
                } else {
                    acc -= (x >> 12) as f64 * 1e-16;
                }
            }
            black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
