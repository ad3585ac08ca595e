//! Process counters read from outside the program under test: the
//! kernel's resource usage for the whole process, `/proc/self` status
//! and I/O accounting, a sampler for the live thread count, the CPU the
//! benchmark is pinned to, and the time the hypervisor steals from it.

use crate::hist::Timeline;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

/// Index of `ru_nvcsw` in [`Rusage::longs`]; `ru_nivcsw` follows it.
const NVCSW: usize = 12;

/// `_SC_CLK_TCK`: the unit of the times in `/proc/stat`.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// The CPU the process is pinned to, if [`pin_to_one_cpu`] succeeded.
static PINNED: OnceLock<Option<usize>> = OnceLock::new();

/// Pins the process, and every thread and child it starts later, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` (and
/// leaves the affinity alone) when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    *PINNED.get_or_init(|| {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..size * 8).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a valid CPU mask of `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    })
}

/// Seconds the hypervisor has so far stolen from the benchmark's CPU (the
/// `steal` column of `/proc/stat`): the time that CPU was runnable but
/// another guest ran. Without a pinned CPU, the mean over all CPUs; 0 on a
/// kernel that does not account steal.
pub fn stolen_secs() -> f64 {
    let pinned = PINNED.get().copied().flatten();
    let key = pinned.map_or_else(|| "cpu ".to_string(), |c| format!("cpu{c} "));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .find(|l| l.starts_with(&key))
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0);
    // SAFETY: sysconf only reads the configuration value it is asked for.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let cpus = if pinned.is_some() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    ticks / hz / cpus as f64
}

/// A stopwatch that leaves out the time stolen from the benchmark's CPU.
#[derive(Clone, Copy)]
pub struct HostClock {
    at: Instant,
    stolen: f64,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            at: Instant::now(),
            stolen: stolen_secs(),
        }
    }

    /// Seconds since `start`, less the seconds stolen in between.
    pub fn secs(&self) -> f64 {
        let stolen = stolen_secs() - self.stolen;
        (self.at.elapsed().as_secs_f64() - stolen).max(0.0)
    }
}

/// What the host gave the benchmark in each slice of a measured window.
#[derive(Debug, Clone, Default)]
pub struct SliceUsage {
    /// Seconds stolen from the benchmark's CPU.
    pub stolen: Vec<f64>,
    /// CPU time of the whole process, in µs.
    pub cpu_us: Vec<f64>,
}

/// Reads [`SliceUsage`] as a window's clock passes each slice's end.
pub struct SliceClock {
    width: f64,
    slices: usize,
    last: (f64, f64),
    usage: SliceUsage,
}

impl SliceClock {
    /// Starts at the beginning of the window `timeline` records, with one
    /// reading per slice of it.
    pub fn start(timeline: &Timeline) -> SliceClock {
        SliceClock {
            width: timeline.width(),
            slices: timeline.slices(),
            last: (stolen_secs(), Usage::now().cpu_us),
            usage: SliceUsage::default(),
        }
    }

    /// The window's clock reads `t` seconds: closes each slice that has
    /// ended.
    pub fn tick(&mut self, t: f64) {
        while self.usage.stolen.len() + 1 < self.slices {
            if t < self.width * (self.usage.stolen.len() + 1) as f64 {
                break;
            }
            self.close();
        }
    }

    fn close(&mut self) {
        let now = (stolen_secs(), Usage::now().cpu_us);
        self.usage.stolen.push(now.0 - self.last.0);
        self.usage.cpu_us.push(now.1 - self.last.1);
        self.last = now;
    }

    /// Closes the last slice at the window's end.
    pub fn finish(mut self) -> SliceUsage {
        while self.usage.stolen.len() < self.slices {
            self.close();
        }
        self.usage
    }
}

/// CPU time and context switches of the whole process so far, counting
/// threads that have already exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_us: f64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `Rusage` matches the C layout of `struct rusage` on
        // 64-bit Linux, and `getrusage` only writes into the struct it is
        // handed. RUSAGE_SELF (0) covers every thread of the process.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        Usage {
            cpu_us: us(&ru.utime) + us(&ru.stime),
            ctx_switches: (ru.longs[NVCSW] + ru.longs[NVCSW + 1]) as u64,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// Usage from `u0` to now, with a [`ThreadSampler`] that ran in between
    /// (if any) stopped first and its own context switches taken out.
    /// Returns that usage and the sampler's peak thread count.
    pub fn window(u0: Usage, sampler: Option<ThreadSampler>) -> (Usage, usize) {
        let (peak, own) = sampler.map_or((0, 0), ThreadSampler::finish);
        let mut usage = Usage::now().since(u0);
        usage.ctx_switches = usage.ctx_switches.saturating_sub(own);
        (usage, peak)
    }
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Bytes the process has passed to write calls so far (`wchar`).
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar").unwrap_or(0)
}

pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |d| {
        d.filter_map(|e| e.ok()?.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    })
}

/// Samples the live thread count every millisecond until finished.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(usize, u64)>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::sleep(Duration::from_millis(1));
            }
            let own = |key| proc_field("/proc/thread-self/status", key).unwrap_or(0);
            (peak, own("voluntary_ctxt_switches") + own("nonvoluntary_ctxt_switches"))
        });
        ThreadSampler { stop, handle }
    }

    /// Stops the sampler. Returns the peak thread count seen, not counting
    /// the sampler, and the context switches the sampler itself made, so a
    /// caller can take them out of the process-wide count.
    pub fn finish(self) -> (usize, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let (peak, switches) = self.handle.join().expect("thread sampler panicked");
        (peak.saturating_sub(1), switches)
    }
}
