//! `perfbench`: the repository's benchmark (see `README.md` beside this
//! crate). One invocation runs one seeded workload against the public API:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! It prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero, after printing, when any answer differs from its oracle or
//! the durability check fails.
//!
//! A served workload computes its oracle's answers in a child run of this
//! binary, `perfbench --workload NAME --seed N --oracle-out FILE`, so that
//! building the oracle's index never counts in the measured process's
//! peak memory.

mod churn;
mod hist;
mod report;
mod served;
mod sys;
mod trace;

use drtopk_obs::HistogramSnapshot;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs keep their stores and span files, relative to the directory
/// the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

/// Seed of the relation every workload indexes. `--seed` drives the
/// weights and the write mix but not the data, so runs with different
/// seeds measure the same index and differ only in the operations.
pub const DATA_SEED: u64 = 0x5EED_DA7A;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Write the oracle's answers for the workload's stream here, then
    /// exit, instead of running the workload.
    pub oracle_out: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        let mut oracle_out = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: cannot parse {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--oracle-out" => oracle_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            oracle_out,
        })
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Mean of the values a registry histogram recorded between two snapshots.
pub fn hist_mean(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let n = after.count() - before.count();
    if n == 0 {
        0.0
    } else {
        (after.sum - before.sum) as f64 / n as f64
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Some(out) = &args.oracle_out {
        let kind = served::Kind::parse(&args.workload);
        let written = kind.ok_or_else(|| format!("no oracle for {:?}", args.workload));
        return match written.and_then(|k| served::write_oracle(k, args.seed, out)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: oracle: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One CPU for the deployment and its load: on a shared two-vCPU host,
    // hand-offs between vCPUs the hypervisor schedules apart measure the
    // host, not the program.
    let cpu = sys::pin_to_one_cpu().map_or_else(|| "unpinned".to_string(), |c| format!("CPU {c}"));
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, host nproc {nproc}, {cpu}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = match served::Kind::parse(&args.workload) {
        Some(kind) => served::run(kind, &args, &run_dir),
        None if args.workload == "churn-durable" => churn::run(&args, &run_dir),
        None => Err(format!("unknown workload {:?}", args.workload)),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = Path::new(OUT_DIR)
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &report.spans) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", report.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    report.log();
    println!("{}", report.to_json(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: FAILED: an answer differed from its oracle or a write was lost");
        ExitCode::FAILURE
    }
}
