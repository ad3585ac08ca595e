//! Index-construction benchmark.
//!
//! Measures, for each `(dist, n, d)` cell:
//!
//! * wall-clock seconds of the reference build
//!   (`DualLayerIndex::build_reference` — the construction pipeline with
//!   the reference kernels: repeated whole-set peels, pairwise edge
//!   generation, no pruning);
//! * wall-clock seconds of the optimized build, with the per-phase
//!   breakdown from [`DualLayerIndex::build_with_profile`] (seconds *and*
//!   dominance-test counts, so pruning effectiveness is visible
//!   independently of machine speed);
//! * whether the optimized index is snapshot-identical to the reference
//!   (it must be — the run aborts otherwise).
//!
//! Results land in a JSON file (default `BENCH_build.json`), one object
//! per cell, plus host metadata.
//!
//! ```text
//! build [--n 100000[,N...]] [--d 2,3[,...]] [--dist ind[,ant,cor]]
//!       [--reference-max-n 100000] [--out FILE]
//! ```

use drtopk_bench::json::Value;
use drtopk_bench::{dataset, parse_list};
use drtopk_common::Distribution;
use drtopk_core::{BuildProfile, DlOptions, DualLayerIndex};
use std::time::Instant;

struct Config {
    ns: Vec<usize>,
    ds: Vec<usize>,
    dists: Vec<Distribution>,
    /// Cells with `n` above this skip the (slow, unpruned) reference
    /// timing; identity is still enforced by the differential test suite.
    reference_max_n: usize,
    out: String,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            ns: vec![100_000],
            ds: vec![2, 3],
            dists: vec![Distribution::Independent],
            reference_max_n: 100_000,
            out: "BENCH_build.json".to_string(),
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let val = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag {
                "--n" => cfg.ns = parse_list(val)?,
                "--d" => cfg.ds = parse_list(val)?,
                "--dist" => cfg.dists = parse_dists(val)?,
                "--reference-max-n" => cfg.reference_max_n = parse_list(val)?[0],
                "--out" => cfg.out = val.clone(),
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        Ok(cfg)
    }
}

fn parse_dists(s: &str) -> Result<Vec<Distribution>, String> {
    s.split(',')
        .map(|p| match p.trim() {
            "ind" => Ok(Distribution::Independent),
            "ant" => Ok(Distribution::AntiCorrelated),
            "cor" => Ok(Distribution::Correlated),
            other => Err(format!("--dist must be ind|ant|cor, got {other:?}")),
        })
        .collect()
}

fn phase_json(name: &str, seconds: f64, tests: u64) -> (String, Value) {
    (
        name.to_string(),
        Value::object([
            ("seconds", Value::float(seconds)),
            ("dominance_tests", Value::uint(tests as usize)),
        ]),
    )
}

fn profile_json(p: &BuildProfile) -> Value {
    let fields: Vec<(String, Value)> = vec![
        phase_json(
            "coarse_peel",
            p.coarse_peel.seconds,
            p.coarse_peel.dominance_tests,
        ),
        phase_json(
            "fine_split",
            p.fine_split.seconds,
            p.fine_split.dominance_tests,
        ),
        phase_json(
            "forall_edges",
            p.forall_edges.seconds,
            p.forall_edges.dominance_tests,
        ),
        phase_json(
            "exists_edges",
            p.exists_edges.seconds,
            p.exists_edges.dominance_tests,
        ),
        phase_json(
            "zero_layer",
            p.zero_layer.seconds,
            p.zero_layer.dominance_tests,
        ),
    ];
    Value::object(fields.iter().map(|(k, v)| (k.as_str(), v.clone())).chain([
        ("assemble_seconds", Value::float(p.assemble_seconds)),
        (
            "total_dominance_tests",
            Value::uint(p.dominance_tests() as usize),
        ),
    ]))
}

fn run_cell(dist: Distribution, n: usize, d: usize, cfg: &Config) -> Value {
    eprintln!("cell dist={} n={n} d={d}", dist.code());
    let rel = dataset(dist, d, n);

    // Reference build (sequential, unpruned) — the baseline the speedup
    // is measured against, and the ground truth for bit-identity.
    let reference = if n <= cfg.reference_max_n {
        let t0 = Instant::now();
        let idx = DualLayerIndex::build_reference(&rel, DlOptions::dl_plus());
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("  reference: {secs:.3}s");
        Some((idx.to_snapshot(), secs))
    } else {
        eprintln!("  reference: skipped (n > {})", cfg.reference_max_n);
        None
    };

    let (idx, profile) = DualLayerIndex::build_with_profile(&rel, DlOptions::dl_plus());
    let identical = reference
        .as_ref()
        .map(|(snap, _)| *snap == idx.to_snapshot());
    if identical == Some(false) {
        eprintln!("FATAL: optimized build diverged from reference");
        std::process::exit(1);
    }
    let speedup = reference
        .as_ref()
        .map(|(_, ref_secs)| ref_secs / profile.total_seconds);
    eprintln!(
        "  optimized: {:.3}s ({}), {} dominance tests",
        profile.total_seconds,
        speedup.map_or("no reference".to_string(), |s| format!("{s:.2}x")),
        profile.dominance_tests()
    );
    let mut row = vec![
        ("seconds", Value::float(profile.total_seconds)),
        ("phases", profile_json(&profile)),
        (
            "identical_to_reference",
            identical.map_or(Value::Null, Value::Bool),
        ),
    ];
    if let Some(s) = speedup {
        row.push(("speedup_vs_reference", Value::float(s)));
    }

    let stats = {
        let s = idx.stats();
        Value::object([
            ("coarse_layers", Value::uint(s.coarse_layers)),
            ("fine_layers", Value::uint(s.fine_layers)),
            ("forall_edges", Value::uint(s.forall_edges)),
            ("exists_edges", Value::uint(s.exists_edges)),
            ("pseudo_tuples", Value::uint(s.pseudo_tuples)),
        ])
    };

    let mut fields = vec![
        ("dist", Value::str(dist.code())),
        ("n", Value::uint(n)),
        ("d", Value::uint(d)),
        ("index", stats),
        ("optimized", Value::object(row)),
    ];
    if let Some((_, secs)) = &reference {
        fields.push(("reference_seconds", Value::float(*secs)));
    }
    Value::object(fields)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("build: {e}");
            eprintln!(
                "usage: build [--n N[,..]] [--d D[,..]] [--dist ind|ant|cor[,..]] \
                 [--reference-max-n N] [--out FILE]"
            );
            std::process::exit(2);
        }
    };

    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut cells = Vec::new();
    for &dist in &cfg.dists {
        for &n in &cfg.ns {
            for &d in &cfg.ds {
                cells.push(run_cell(dist, n, d, &cfg));
            }
        }
    }
    let doc = Value::object([
        (
            "host",
            Value::object([("available_parallelism", Value::uint(host_threads))]),
        ),
        (
            "note",
            Value::str(
                "every index builds on one thread; each optimized build is \
                 snapshot-identical to the reference build",
            ),
        ),
        ("cells", Value::Array(cells)),
    ]);
    std::fs::write(&cfg.out, doc.pretty()).expect("write results file");
    eprintln!("wrote {}", cfg.out);
}
