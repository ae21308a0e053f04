//! Timing, sample statistics, process memory and the host fingerprint.

use std::time::Instant;

/// The benchmark's only clock read. Every measured interval starts here.
pub fn now() -> Instant {
    // lint:allow(R1) benchmark timer: measures real host work from outside the library
    Instant::now()
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, since(t0))
}

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// A metric's samples summarized as the record prints them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Highest whole percentile with at least ten samples above it, or the
    /// maximum when there are too few samples for any (`hi_pct == 100`).
    pub hi: f64,
    pub hi_pct: u32,
    pub n: usize,
}

/// Summarize samples: median, a high percentile and the count.
pub fn summarize(v: &[f64]) -> Summary {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Percentile P (nearest rank) sits at index ceil(P·n/100) − 1; it has
    // n − 1 − index samples above it.
    let hi_pct = (1..100u32)
        .rev()
        .find(|&p| {
            let idx = ((p as usize * n).div_ceil(100)).max(1) - 1;
            n >= 1 && n - 1 - idx >= 10
        })
        .unwrap_or(100);
    let hi = if n == 0 {
        f64::NAN
    } else if hi_pct == 100 {
        s[n - 1]
    } else {
        s[((hi_pct as usize * n).div_ceil(100)).max(1) - 1]
    };
    Summary {
        median: median(&s),
        hi,
        hi_pct,
        n,
    }
}

/// The process's resident high-water mark (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// SplitMix64: the benchmark's only source of generated values, seeded
/// from the `--seed` argument and a per-stream salt.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` values uniform in `[-1, 1)`.
    pub fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Output of a finished child process, or `"unknown"`.
fn command_line(prog: &str, args: &[&str]) -> String {
    std::process::Command::new(prog)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx: bool,
    pub profile: &'static str,
    pub rustc: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn host() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_max_when_samples_are_few() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.hi, s.hi_pct, s.n), (2.0, 3.0, 100, 3));
    }

    #[test]
    fn summary_high_percentile_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        let s = summarize(&v);
        assert_eq!(s.hi_pct, 75);
        assert_eq!(s.hi, 30.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        assert_eq!(Rng::new(7, 1).vec(5), Rng::new(7, 1).vec(5));
        assert_ne!(Rng::new(7, 1).vec(5), Rng::new(8, 1).vec(5));
        assert_ne!(Rng::new(7, 1).vec(5), Rng::new(7, 2).vec(5));
    }
}
