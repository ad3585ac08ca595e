//! Latencies in constant memory. A window's samples go into fixed
//! log-scale histograms, one per slice of the window, so the bench's own
//! memory does not grow with the request rate.

use crate::sys::SliceUsage;

/// Target slice length in seconds: 25 ticks of the kernel's steal count
/// at the usual 100 Hz, so a slice's stolen time reads to about 4%.
const SLICE_S: f64 = 0.25;
/// Quantiles are taken over the slices the host disturbed least: at least
/// this share of the window.
const QUIET_SHARE: f64 = 0.25;
/// Buckets per doubling: a bucket spans about 2.2% of its lower edge.
const PER_OCTAVE: usize = 32;
/// The lowest bucket edge is 2^MIN_EXP µs; smaller values land in the
/// first bucket, values past the last edge (about 2^30 µs) in the last.
const MIN_EXP: f64 = -2.0;
const BUCKETS: usize = PER_OCTAVE * 32;

/// A histogram of latencies in µs; a failed request counts as +∞.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    finite: u64,
    failed: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            finite: 0,
            failed: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, us: f64) {
        if !us.is_finite() {
            self.failed += 1;
            return;
        }
        let octaves = us.max(f64::MIN_POSITIVE).log2() - MIN_EXP;
        let i = (octaves * PER_OCTAVE as f64).max(0.0) as usize;
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.finite += 1;
    }

    fn edge(i: usize) -> f64 {
        (MIN_EXP + i as f64 / PER_OCTAVE as f64).exp2()
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.finite += o.finite;
        self.failed += o.failed;
    }

    /// Finite samples recorded.
    pub fn count(&self) -> u64 {
        self.finite
    }

    /// Nearest-rank `q`-quantile (`q` in 0..=1), placed linearly inside
    /// its bucket by rank; +∞ when the rank falls among failed requests,
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.finite + self.failed;
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        if rank > self.finite {
            return f64::INFINITY;
        }
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let frac = (rank - below) as f64 / c as f64;
                return Hist::edge(i) + frac * (Hist::edge(i + 1) - Hist::edge(i));
            }
            below += c;
        }
        unreachable!("the rank lies within the finite samples")
    }
}

/// A window's latencies, one histogram per slice by completion time.
///
/// The host is shared: the hypervisor takes the benchmark's CPU away from
/// it for stretches of milliseconds, in bursts that differ from run to
/// run. Its estimators take what the host gave each slice
/// ([`SliceUsage`]) and leave stolen time out: a rate counts only the
/// seconds the CPU was there, and a quantile or CPU cost is read from the
/// least-stolen slices, chosen by the host's own count and never by how
/// fast the program was.
#[derive(Clone)]
pub struct Timeline {
    width: f64,
    slices: Vec<Hist>,
}

impl Timeline {
    /// A timeline for a window of `secs` seconds; a sample that completes
    /// after the window's end counts in its last slice.
    pub fn new(secs: f64) -> Timeline {
        let n = (secs / SLICE_S).ceil().max(1.0) as usize;
        Timeline {
            width: secs / n as f64,
            slices: vec![Hist::default(); n],
        }
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    pub fn width(&self) -> f64 {
        self.width
    }

    /// A sample completed `t` seconds into the window after `us` µs.
    pub fn record(&mut self, t: f64, us: f64) {
        let last = self.slices.len() - 1;
        let i = ((t / self.width).max(0.0) as usize).min(last);
        self.slices[i].record(us);
    }

    pub fn merge(&mut self, o: &Timeline) {
        for (a, b) in self.slices.iter_mut().zip(&o.slices) {
            a.merge(b);
        }
    }

    /// Finite samples recorded.
    pub fn count(&self) -> u64 {
        self.slices.iter().map(Hist::count).sum()
    }

    /// Finite samples per second of the window the CPU was not stolen.
    pub fn rate(&self, host: &SliceUsage) -> f64 {
        let window = self.width * self.slices.len() as f64;
        let ran = (window - host.stolen.iter().sum::<f64>()).max(self.width);
        self.count() as f64 / ran
    }

    /// The least-stolen slices: the `QUIET_SHARE` of the window with the
    /// least stolen time, and every slice that ties with the last of them.
    fn quiet(host: &SliceUsage) -> Vec<bool> {
        let mut order = host.stolen.clone();
        order.sort_by(f64::total_cmp);
        let at = ((order.len() as f64 * QUIET_SHARE).ceil() as usize).clamp(1, order.len());
        // Stolen seconds are differences of tick counts; allow for
        // rounding so equal counts tie.
        let cut = order[at - 1] + 1e-6;
        host.stolen.iter().map(|&s| s <= cut).collect()
    }

    /// The `q`-quantile over the least-stolen slices.
    pub fn quantile(&self, q: f64, host: &SliceUsage) -> f64 {
        let mut quiet = Hist::default();
        for (h, _) in self.slices.iter().zip(Timeline::quiet(host)).filter(|s| s.1) {
            quiet.merge(h);
        }
        quiet.quantile(q)
    }

    /// Process CPU µs per finite sample over the least-stolen slices.
    pub fn cpu_us_per_sample(&self, host: &SliceUsage) -> f64 {
        let (mut cpu, mut n) = (0.0, 0);
        let slices = self.slices.iter().zip(&host.cpu_us);
        for ((h, c), _) in slices.zip(Timeline::quiet(host)).filter(|s| s.1) {
            cpu += c;
            n += h.count();
        }
        cpu / n.max(1) as f64
    }

    /// Every slice in one histogram.
    pub fn whole(&self) -> Hist {
        let mut h = Hist::default();
        for s in &self.slices {
            h.merge(s);
        }
        h
    }
}
