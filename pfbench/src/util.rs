//! Seeded randomness, order statistics and host facts shared by every
//! workload.

use pitchfork_service::Json;
use std::time::Duration;

/// SplitMix64: a small generator whose whole stream is fixed by its seed,
/// so one `--seed` always yields the same key order, images, arrivals and
/// fresh-key names.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
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

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// An independent stream derived from this one (one per client
    /// thread, trial or image).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// Poisson arrivals at `rate` per second, as offsets from the schedule's
/// start: exponential gaps drawn from a seeded stream.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    rate: f64,
    t: f64,
}

impl Arrivals {
    pub fn new(rng: Rng, rate: f64) -> Arrivals {
        Arrivals { rng, rate, t: 0.0 }
    }
}

impl Iterator for Arrivals {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        self.t += -(1.0 - self.rng.unit()).ln() / self.rate;
        Some(Duration::from_secs_f64(self.t))
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of an ascending slice; NaN
/// when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanosecond samples as ascending microseconds, ready for [`percentile`].
pub fn sorted_us(ns: &[u32]) -> Vec<f64> {
    let mut us: Vec<f64> = ns.iter().map(|&n| f64::from(n) / 1e3).collect();
    us.sort_unstable_by(f64::total_cmp);
    us
}

/// The median of a set of values (trials, set-up repetitions); the mean
/// of the middle two for an even count, NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Saturating nanoseconds of a duration, the unit of every latency sample.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Peak resident set (`VmHWM`) in MiB of this process or of `pid`.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or("/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Keep this process, and every thread and daemon it starts, on the
/// first CPU it may use. The host's cores slow down independently when
/// a neighbour shares them, so work that hops between cores cannot be
/// scaled by one core's calibration; and on one core the serving
/// workloads never wait for an idle virtual CPU to wake.
pub fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes naming a CPU the
    // process may already use; the call changes only this thread.
    unsafe {
        sched_setaffinity(0, size, one.as_ptr());
    }
}

/// Run metadata for result files: the commit, and a fingerprint of the
/// host the numbers were measured on.
pub fn run_meta() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    vec![
        ("git_sha".into(), Json::str(git_sha().unwrap_or_else(|| "unknown".into()))),
        ("nproc".into(), Json::Int(nproc as i128)),
        ("kernel".into(), Json::str(kernel)),
        ("rustc".into(), Json::str(rustc)),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (benchmark checkouts without git history report `unknown`).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(sorted_us(&[3000, 1000, 2000]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
        // One wild trial does not move the median.
        assert_eq!(median(&[10.0, 10.5, 9.5, 10.2, 1000.0]), 10.2);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..8).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(43), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut xs: Vec<usize> = (0..64).collect();
        Rng::new(1).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_has_its_rate() {
        let take = |seed| Arrivals::new(Rng::new(seed), 5000.0).take(20_000).collect::<Vec<_>>();
        let a = take(7);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        let rate = a.len() as f64 / a.last().unwrap().as_secs_f64();
        assert!((rate / 5000.0 - 1.0).abs() < 0.05, "achieved {rate:.0}/s");
    }
}
