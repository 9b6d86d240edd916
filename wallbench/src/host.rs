//! Host guard and summary statistics.
//!
//! The host this runs on is small and shared: other tenants' load shows up
//! as CPU steal, and engine workers plus client threads can outnumber the
//! cores. Both are recorded with every run so a slow run can be told apart
//! from a slow commit, and [`StealMonitor`] marks the stretches of a run
//! in which the hypervisor took CPU away, so samples from them can be set
//! aside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How often the steal monitor reads `/proc/stat`, whose counters move
/// in 10 ms steps. A finer tick marks shorter stolen stretches, so fewer
/// samples are set aside when steal comes in short bursts.
const STEAL_TICK: Duration = Duration::from_millis(10);

/// Seconds since the first call in this process: the clock every sample
/// and steal reading is stamped with.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A thread that reads the steal counter every [`STEAL_TICK`].
pub struct StealMonitor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<(f64, u64)>>,
}

impl StealMonitor {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut readings = Vec::new();
            loop {
                readings.push((now_s(), cpu_jiffies().0));
                if flag.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(STEAL_TICK);
            }
        });
        Self { stop, handle }
    }

    /// Stops the thread and returns the stolen stretches it saw.
    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        let readings = self.handle.join().expect("steal monitor thread panicked");
        let pad = STEAL_TICK.as_secs_f64();
        // Steal is accounted at tick granularity, after the fact: a rise
        // between two readings marks their interval and the one before.
        let stolen = readings
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[0].0 - pad, w[1].0))
            .collect();
        StealLog { stolen }
    }
}

/// The largest value `gauge` reads, polled every 100 µs while `on` holds.
pub fn sample_max(on: &AtomicBool, gauge: impl Fn() -> usize) -> usize {
    let mut max = 0;
    while on.load(Ordering::Relaxed) {
        max = max.max(gauge());
        std::thread::sleep(Duration::from_micros(100));
    }
    max
}

/// Stretches of a run, in [`now_s`] seconds, in which CPU was stolen.
pub struct StealLog {
    stolen: Vec<(f64, f64)>,
}

impl StealLog {
    /// Whether `[start, end]` overlaps no stolen stretch.
    pub fn clean(&self, start: f64, end: f64) -> bool {
        let i = self.stolen.partition_point(|&(_, e)| e < start);
        self.stolen.get(i).is_none_or(|&(s, _)| s > end)
    }
}

/// CPU time all threads of this process have run so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time a thread spent waiting for a core,
/// and time the hypervisor stole (the kernel accounts steal apart), is
/// not in it.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time the calling thread has run so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// Reads one of the kernel's CPU-time clocks by its Linux clock id.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and both callers pass a valid clock id.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative `(steal, total)` jiffies of the aggregate `cpu` line of
/// `/proc/stat`, or zeros where it cannot be read.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, total)
}

/// Share of CPU time stolen between two [`cpu_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_stretches_taint_overlapping_samples_only() {
        let log = StealLog {
            stolen: vec![(1.0, 1.1), (2.0, 2.1)],
        };
        assert!(log.clean(0.0, 0.9));
        assert!(!log.clean(0.9, 1.0));
        assert!(log.clean(1.2, 1.9));
        assert!(!log.clean(1.5, 2.5));
        assert!(log.clean(2.2, 9.0));
    }

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu_s() - t0 < 0.02);
        let until = Instant::now() + Duration::from_millis(30);
        let mut spins = 0u64;
        while Instant::now() < until {
            spins = std::hint::black_box(spins + 1);
        }
        let busy = thread_cpu_s() - t0;
        assert!(busy >= 0.01, "30 ms of spinning read as {busy} s");
        assert!(process_cpu_s() - p0 >= busy - 1e-3);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
