//! Implementation of the `drtopk` command-line tool.
//!
//! All command logic lives in this library so it is unit-testable; the
//! binary (`src/main.rs`) only forwards `std::env::args` and maps errors
//! to exit codes.
//!
//! ```text
//! drtopk generate --dist ant --dims 4 --n 20000 --seed 7 --out data.drt
//! drtopk import   --csv hotels.csv --columns 1:low,2:high,3:low --out data.drt
//! drtopk build    --data data.drt --out index.drt [--variant dl+|dl|dg|dg+] [--parallel] [--threads T] [--stats]
//! drtopk stats    --index index.drt
//! drtopk query    --index index.drt --weights 0.3,0.3,0.4 --k 10
//! drtopk batch    --index index.drt --weights-file queries.txt --k 10 [--threads T]
//! drtopk recover  --dir store/ [--variant dl+|dl|dg|dg+] [--checkpoint]
//! drtopk wal      --dir store/
//! drtopk serve    --index index.drt [--addr HOST:PORT] [--workers W] [--cache]
//! drtopk serve    --shard-dir store/ --shard-id 0 --addr HOST:PORT
//! drtopk serve    --topology cluster.topo --addr HOST:PORT
//! drtopk topology check cluster.topo
//! drtopk health   --connect HOST:PORT
//! drtopk query    --connect HOST:PORT --weights 0.3,0.3,0.4 --k 10
//! drtopk drain    --connect HOST:PORT
//! ```
//!
//! Query and batch accept `--deadline-ms` / `--max-cost` budgets; a
//! tripped budget exits with code 4 unless `--partial` accepts the
//! truncated answer prefix. Corrupt persisted data exits with code 3.
//! `serve` / `query --connect` speak the wire protocol documented in
//! `PROTOCOL.md`; operational guidance lives in `OPERATIONS.md`.

use drtopk_common::{
    relation_from_csv, ColumnSpec, Direction, Distribution, Weights, WorkloadSpec,
    ZipfWeightWorkload,
};
use drtopk_core::{BatchExecutor, DlOptions, DualLayerIndex, ZeroMode};
use drtopk_storage::{
    load_index, load_relation, read_wal, save_index, save_relation, DurableDynamicIndex,
    DurableOptions, WalRecord,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A CLI failure: message for stderr plus the process exit code.
///
/// Exit codes are part of the tool's contract (scripts branch on them):
/// `1` generic runtime failure, `2` usage error, `3` corrupt or
/// unreadable persisted data, `4` a query budget tripped and `--partial`
/// was not given.
#[derive(Debug)]
pub struct CliError {
    pub message: String,
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }

    fn corrupt(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 3,
        }
    }

    fn budget(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 4,
        }
    }
}

impl From<drtopk_common::Error> for CliError {
    fn from(e: drtopk_common::Error) -> Self {
        match e {
            drtopk_common::Error::Corrupt(_) => CliError::corrupt(e.to_string()),
            _ => CliError::runtime(e.to_string()),
        }
    }
}

impl From<drtopk_storage::FormatError> for CliError {
    fn from(e: drtopk_storage::FormatError) -> Self {
        CliError::from(drtopk_common::Error::from(e))
    }
}

/// Parsed `--flag value` arguments after the subcommand.
struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(CliError::usage(format!(
                    "unexpected positional argument {a:?}"
                )));
            };
            // Boolean switches take no value.
            if name == "parallel"
                || name == "stats"
                || name == "partial"
                || name == "checkpoint"
                || name == "cache"
            {
                switches.push(name.to_string());
                i += 1;
                continue;
            }
            const KNOWN: &[&str] = &[
                "dist",
                "dims",
                "n",
                "seed",
                "out",
                "csv",
                "columns",
                "data",
                "variant",
                "clusters",
                "index",
                "weights",
                "weights-file",
                "k",
                "threads",
                "format",
                "probe",
                "dir",
                "deadline-ms",
                "max-cost",
                "connect",
                "addr",
                "workers",
                "batch-max",
                "batch-window-us",
                "queue-depth",
                "duration-s",
                "shards",
                "shard-dir",
                "shard",
                "shard-id",
                "topology",
                "connect-retries",
                "connect-backoff-ms",
            ];
            if !KNOWN.contains(&name) {
                return Err(CliError::usage(format!("unknown flag --{name}")));
            }
            let Some(v) = args.get(i + 1) else {
                return Err(CliError::usage(format!("--{name} requires a value")));
            };
            values.insert(name.to_string(), v.clone());
            i += 2;
        }
        Ok(Flags { values, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::usage(format!("missing required --{name}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Entry point used by the binary and by tests. Returns the text that
/// should go to stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    if cmd == "topology" {
        // `topology check FILE` takes a positional file, unlike every
        // other command — validate before the flag parser rejects it.
        return cmd_topology(&args[1..]);
    }
    let flags = Flags::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "import" => cmd_import(&flags),
        "build" => cmd_build(&flags),
        "stats" => cmd_stats(&flags),
        "query" => cmd_query(&flags),
        "batch" => cmd_batch(&flags),
        "recover" => cmd_recover(&flags),
        "wal" => cmd_wal(&flags),
        "serve" => cmd_serve(&flags),
        "drain" => cmd_drain(&flags),
        "health" => cmd_health(&flags),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

fn usage() -> String {
    "\
drtopk — dual-resolution layer indexing for top-k queries

commands:
  generate  --dist ind|ant|cor --dims D --n N [--seed S] --out FILE
  import    --csv FILE --columns IDX:low|high[,...] --out FILE
  build     --data FILE --out FILE [--variant dl+|dl|dg|dg+] [--parallel]
            [--threads T] [--stats]
  stats     --index FILE [--format text|json|prom] [--probe N] [--seed S]
            [--cache]
  query     --index FILE --weights W1,W2,... [--k K]
            [--deadline-ms MS] [--max-cost C] [--partial]
  query     --connect HOST:PORT --weights W1,W2,... [--k K]
            [--deadline-ms MS] [--max-cost C] [--partial]
            [--connect-retries R] [--connect-backoff-ms MS]
  batch     --index FILE --weights-file FILE [--k K] [--threads T]
            [--deadline-ms MS] [--max-cost C] [--partial] [--cache]
  recover   --dir DIR [--shard N] [--variant dl+|dl|dg|dg+] [--checkpoint]
  wal       --dir DIR
  serve     --index FILE [--addr HOST:PORT] [--workers W] [--batch-max B]
            [--batch-window-us US] [--queue-depth Q] [--cache]
            [--duration-s S]
  serve     --shard-dir DIR [--shards P --data FILE] [--addr HOST:PORT]
            [--workers W] [--batch-max B] [--batch-window-us US]
            [--queue-depth Q] [--duration-s S]
  serve     --shard-dir DIR --shard-id N [--addr HOST:PORT] [...]
  serve     --topology FILE [--addr HOST:PORT] [...]
  topology  check FILE
  health    --connect HOST:PORT
  drain     --connect HOST:PORT
  help

serve listens on --addr (default 127.0.0.1:7071; port 0 picks a free
port) and answers the wire protocol in PROTOCOL.md plus HTTP GET
/metrics on the same port. With --shard-dir it serves a sharded durable
deployment (creating it from --data when the directory is empty); a
shard that fails recovery is served *around* with degraded coverage —
see OPERATIONS.md for the shard runbook. With --shard-dir --shard-id N
it serves exactly one shard's directory as a *shard node*; with
--topology FILE it is the *router node* of a multi-node deployment,
fanning out to the shard nodes the file names (OPERATIONS.md §10).
health summarizes a node's shard/endpoint health from its metrics and
exits non-zero when any shard is Down.

exit codes: 0 ok, 1 runtime error, 2 usage, 3 corrupt data,
            4 budget tripped or coverage degraded without --partial
"
    .to_string()
}

/// Builds the optional query budget from `--deadline-ms` / `--max-cost`.
/// `None` when neither flag was given (use the unguarded fast path).
fn parse_budget(f: &Flags) -> Result<Option<drtopk_core::QueryBudget>, CliError> {
    let deadline_ms: u64 = f.parse_num("deadline-ms", 0)?;
    let max_cost: u64 = f.parse_num("max-cost", 0)?;
    if f.get("deadline-ms").is_none() && f.get("max-cost").is_none() {
        return Ok(None);
    }
    if f.get("deadline-ms").is_some() && deadline_ms == 0 {
        return Err(CliError::usage("--deadline-ms must be > 0".to_string()));
    }
    if f.get("max-cost").is_some() && max_cost == 0 {
        return Err(CliError::usage("--max-cost must be > 0".to_string()));
    }
    let mut budget = drtopk_core::QueryBudget::unlimited();
    if deadline_ms > 0 {
        budget = budget.with_timeout(std::time::Duration::from_millis(deadline_ms));
    }
    if max_cost > 0 {
        budget = budget.with_max_cost(max_cost);
    }
    Ok(Some(budget))
}

fn cmd_generate(f: &Flags) -> Result<String, CliError> {
    let dist = match f.require("dist")? {
        "ind" => Distribution::Independent,
        "ant" => Distribution::AntiCorrelated,
        "cor" => Distribution::Correlated,
        other => {
            return Err(CliError::usage(format!(
                "--dist must be ind|ant|cor, got {other}"
            )))
        }
    };
    let dims: usize = f.parse_num("dims", 0)?;
    let n: usize = f.parse_num("n", 0)?;
    if dims < 2 || n == 0 {
        return Err(CliError::usage(
            "--dims (>= 2) and --n (> 0) are required".to_string(),
        ));
    }
    let seed: u64 = f.parse_num("seed", 42)?;
    let out = PathBuf::from(f.require("out")?);
    let rel = WorkloadSpec::new(dist, dims, n, seed).generate();
    save_relation(&rel, &out).map_err(|e| CliError::runtime(e.to_string()))?;
    Ok(format!(
        "wrote {} tuples (d={dims}, {}) to {}\n",
        rel.len(),
        dist.code(),
        out.display()
    ))
}

fn cmd_import(f: &Flags) -> Result<String, CliError> {
    let csv_path = PathBuf::from(f.require("csv")?);
    let columns = parse_columns(f.require("columns")?)?;
    let out = PathBuf::from(f.require("out")?);
    let file = std::fs::File::open(&csv_path)
        .map_err(|e| CliError::runtime(format!("{}: {e}", csv_path.display())))?;
    let (rel, _norm) = relation_from_csv(std::io::BufReader::new(file), &columns)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    save_relation(&rel, &out).map_err(|e| CliError::runtime(e.to_string()))?;
    Ok(format!(
        "imported {} tuples × {} attributes into {}\n",
        rel.len(),
        rel.dims(),
        out.display()
    ))
}

/// Parses `1:low,2:high,4:low` into column specs.
fn parse_columns(spec: &str) -> Result<Vec<ColumnSpec>, CliError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (col, dir) = part
            .split_once(':')
            .ok_or_else(|| CliError::usage(format!("column spec {part:?} must be IDX:low|high")))?;
        let column: usize = col
            .trim()
            .parse()
            .map_err(|_| CliError::usage(format!("bad column index {col:?}")))?;
        let direction = match dir.trim() {
            "low" => Direction::LowerIsBetter,
            "high" => Direction::HigherIsBetter,
            other => {
                return Err(CliError::usage(format!(
                    "direction must be low|high, got {other}"
                )))
            }
        };
        out.push(ColumnSpec { column, direction });
    }
    if out.is_empty() {
        return Err(CliError::usage(
            "--columns must select at least one column".to_string(),
        ));
    }
    Ok(out)
}

fn variant_options(name: &str) -> Result<DlOptions, CliError> {
    Ok(match name {
        "dl+" => DlOptions::dl_plus(),
        "dl" => DlOptions::dl(),
        "dg" => DlOptions::dg(),
        "dg+" => DlOptions::dg_plus(),
        other => {
            return Err(CliError::usage(format!(
                "--variant must be dl+|dl|dg|dg+, got {other}"
            )))
        }
    })
}

fn cmd_build(f: &Flags) -> Result<String, CliError> {
    let data = PathBuf::from(f.require("data")?);
    let out = PathBuf::from(f.require("out")?);
    let mut opts = variant_options(f.get("variant").unwrap_or("dl+"))?;
    opts.parallel = f.has("parallel");
    opts.build_threads = f.parse_num("threads", 0)?;
    if let Some(c) = f.get("clusters") {
        let clusters: usize = c
            .parse()
            .map_err(|_| CliError::usage(format!("--clusters: bad value {c:?}")))?;
        opts.zero = ZeroMode::Clustered { clusters };
    }
    let rel = load_relation(&data).map_err(CliError::from)?;
    let (idx, profile) = DualLayerIndex::build_with_profile(&rel, opts);
    save_index(&idx, &out).map_err(|e| CliError::runtime(e.to_string()))?;
    let s = idx.stats();
    let mut text = format!(
        "built in {:.2}s: {} coarse / {} fine layers, {} ∀-edges, {} ∃-edges, {} pseudo\nwrote {}\n",
        profile.total_seconds,
        s.coarse_layers,
        s.fine_layers,
        s.forall_edges,
        s.exists_edges,
        s.pseudo_tuples,
        out.display()
    );
    if f.has("stats") {
        let _ = writeln!(text, "{profile}");
    }
    Ok(text)
}

fn stats_text(idx: &DualLayerIndex, path: &Path) -> String {
    let s = idx.stats();
    let mut out = String::new();
    let _ = writeln!(out, "index {}", path.display());
    let _ = writeln!(out, "  tuples            {}", s.n);
    let _ = writeln!(out, "  dimensionality    {}", s.dims);
    let _ = writeln!(out, "  coarse layers     {}", s.coarse_layers);
    let _ = writeln!(out, "  fine sublayers    {}", s.fine_layers);
    let _ = writeln!(out, "  ∀-dominance edges {}", s.forall_edges);
    let _ = writeln!(out, "  ∃-dominance edges {}", s.exists_edges);
    let _ = writeln!(out, "  pseudo-tuples     {}", s.pseudo_tuples);
    let _ = writeln!(out, "  first layer |L1|  {}", s.first_layer_size);
    let _ = writeln!(out, "  first fine |L11|  {}", s.first_fine_size);
    let _ = writeln!(out, "  query seeds       {}", s.seeds);
    out
}

/// Drives `n` seeded top-k queries through `idx` so the metrics registry
/// has live data to export (an offline stand-in for scraping a serving
/// process). With a cache the probes draw from a small Zipf-skewed weight
/// pool — repeated traffic, the shape the cache exists for — so the cache
/// counters carry signal; without one they are independent random weights.
fn run_probes(idx: &DualLayerIndex, n: usize, seed: u64, cache: Option<&drtopk_core::ResultCache>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut scratch = drtopk_core::QueryScratch::for_index(idx);
    match cache {
        Some(c) => {
            let pool = 16.min(n.max(1));
            for w in ZipfWeightWorkload::new(idx.dims(), pool, n, 1.0, seed).generate() {
                c.topk_with_scratch(idx, &w, 10, &mut scratch);
            }
        }
        None => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..n {
                let w = Weights::random(idx.dims(), &mut rng);
                idx.topk_with_scratch(&w, 10, &mut scratch);
            }
        }
    }
}

fn stats_json(idx: &DualLayerIndex, snap: &drtopk_obs::MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"index\": {\n");
    let rows = idx.stats().gauge_rows();
    for (i, (name, _help, value)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    let _ = write!(
        out,
        "  }},\n  \"metrics\": {}\n}}\n",
        snap.to_json_indented(1)
    );
    out
}

fn stats_prometheus(idx: &DualLayerIndex, snap: &drtopk_obs::MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in idx.stats().gauge_rows() {
        drtopk_obs::snapshot::prom_gauge(
            &mut out,
            &format!("drtopk_index_{name}"),
            help,
            value as f64,
        );
    }
    out.push_str(&snap.to_prometheus());
    out
}

fn cmd_stats(f: &Flags) -> Result<String, CliError> {
    let path = PathBuf::from(f.require("index")?);
    let idx = load_index(&path).map_err(CliError::from)?;
    let probes: usize = f.parse_num("probe", 0)?;
    if probes > 0 {
        let cache = f.has("cache").then(drtopk_core::ResultCache::default);
        run_probes(&idx, probes, f.parse_num("seed", 42)?, cache.as_ref());
    }
    let snap = drtopk_obs::metrics().snapshot();
    match f.get("format").unwrap_or("text") {
        "text" => {
            let mut out = stats_text(&idx, &path);
            if snap.queries > 0 {
                let _ = writeln!(out, "query metrics (this process)");
                let _ = writeln!(out, "  queries           {}", snap.queries);
                let _ = writeln!(out, "  tuples evaluated  {}", snap.tuples_evaluated);
                let _ = writeln!(out, "  pseudo evaluated  {}", snap.pseudo_evaluated);
                let _ = writeln!(
                    out,
                    "  cost p50/p95/p99  {:.0} / {:.0} / {:.0}",
                    snap.query_cost.p50(),
                    snap.query_cost.p95(),
                    snap.query_cost.p99()
                );
                let _ = writeln!(
                    out,
                    "  latency p50/p99   {:.1} µs / {:.1} µs",
                    snap.query_latency_ns.p50() / 1e3,
                    snap.query_latency_ns.p99() / 1e3
                );
                if snap.scratch_touched.count() > 0 {
                    let _ = writeln!(
                        out,
                        "  scratch touched   p50 {:.0} / p99 {:.0} nodes per query",
                        snap.scratch_touched.p50(),
                        snap.scratch_touched.p99()
                    );
                }
                if snap.kernel_block_tuples.count() > 0 {
                    let _ = writeln!(
                        out,
                        "  kernel blocks     {} scored, mean {:.1} tuples each",
                        snap.kernel_block_tuples.count(),
                        snap.kernel_block_tuples.mean()
                    );
                }
            }
            let cache_lookups = snap.cache_hits + snap.cache_misses;
            if cache_lookups > 0 {
                let _ = writeln!(out, "result cache (this process)");
                let _ = writeln!(
                    out,
                    "  hits / misses     {} / {} ({:.1}% hit rate)",
                    snap.cache_hits,
                    snap.cache_misses,
                    100.0 * snap.cache_hits as f64 / cache_lookups as f64
                );
                let _ = writeln!(out, "  cert rejects      {}", snap.cache_cert_rejects);
                let _ = writeln!(out, "  invalidations     {}", snap.cache_invalidations);
            }
            Ok(out)
        }
        "json" => Ok(stats_json(&idx, &snap)),
        "prom" => Ok(stats_prometheus(&idx, &snap)),
        other => Err(CliError::usage(format!(
            "--format must be text|json|prom, got {other}"
        ))),
    }
}

fn cmd_query(f: &Flags) -> Result<String, CliError> {
    let raw: Vec<f64> = f
        .require("weights")?
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::usage("--weights must be comma-separated numbers".to_string()))?;
    let k: usize = f.parse_num("k", 10)?;
    if let Some(addr) = f.get("connect") {
        return query_over_network(f, addr, &raw, k);
    }
    let path = PathBuf::from(f.require("index")?);
    let idx = load_index(&path).map_err(CliError::from)?;
    let w = Weights::new(raw).map_err(|e| CliError::usage(e.to_string()))?;
    if w.dims() != idx.dims() {
        return Err(CliError::usage(format!(
            "index has {} attributes but {} weights were given",
            idx.dims(),
            w.dims()
        )));
    }
    let budget = parse_budget(f)?;
    let t0 = std::time::Instant::now();
    let (ids, cost, truncated) = match &budget {
        None => {
            let res = idx.topk(&w, k);
            (res.ids, res.cost, None)
        }
        Some(b) => {
            let res = idx.topk_guarded(&w, k, b);
            (res.ids, res.cost, res.truncated)
        }
    };
    let micros = t0.elapsed().as_micros();
    if let Some(reason) = truncated {
        if !f.has("partial") {
            return Err(CliError::budget(format!(
                "query stopped after {} of {k} answers: {reason} \
                 (pass --partial to accept the prefix)",
                ids.len()
            )));
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "rank  tuple        score  attributes");
    for (rank, &t) in ids.iter().enumerate() {
        let tv = idx.relation().tuple(t);
        let attrs: Vec<String> = tv.iter().map(|x| format!("{x:.4}")).collect();
        let _ = writeln!(
            out,
            "{:>4}  {:>6} {:>11.6}  [{}]",
            rank + 1,
            t,
            w.score(tv),
            attrs.join(", ")
        );
    }
    if let Some(reason) = truncated {
        let _ = writeln!(
            out,
            "TRUNCATED after {} of {k} answers: {reason}",
            ids.len()
        );
    }
    let _ = writeln!(
        out,
        "evaluated {} of {} tuples ({} pseudo) in {micros} µs",
        cost.total(),
        idx.len(),
        cost.pseudo_evaluated
    );
    Ok(out)
}

/// Maps a server-side failure onto the CLI exit-code contract: protocol
/// rejections (`BadRequest`) are usage errors (code 2), everything else
/// — overload, drain, transport loss — is a runtime failure (code 1).
fn client_error(e: drtopk_server::ClientError) -> CliError {
    match &e {
        drtopk_server::ClientError::Server { code, .. }
            if *code == drtopk_server::ErrorCode::BadRequest =>
        {
            CliError::usage(e.to_string())
        }
        _ => CliError::runtime(e.to_string()),
    }
}

/// Human-readable reason for a TOPK `truncated` flag (PROTOCOL.md §4.1).
fn truncation_reason(flag: u8) -> &'static str {
    match flag {
        1 => "deadline expired",
        2 => "cost budget exhausted",
        3 => "cancelled",
        _ => "truncated",
    }
}

/// Connects per the CLI's reconnect policy: `--connect-retries` bounded
/// re-attempts (default 3) after transient connect/hello failures, with
/// jittered exponential backoff from `--connect-backoff-ms` (default
/// 100). `--connect-retries 0` restores single-attempt behavior. The
/// exit-code contract is unchanged: a connection that never comes up is
/// still a runtime error (code 1).
fn connect_with_policy(f: &Flags, addr: &str) -> Result<drtopk_server::Client, CliError> {
    let retries: u32 = f.parse_num("connect-retries", 3)?;
    let backoff_ms: u64 = f.parse_num("connect-backoff-ms", 100)?;
    drtopk_server::Client::connect_with_retry(
        addr,
        retries,
        std::time::Duration::from_millis(backoff_ms),
    )
    .map_err(|e| CliError::runtime(format!("{addr}: {e}")))
}

/// `query --connect HOST:PORT`: ship the raw weight vector to a running
/// `drtopk serve` instance instead of loading an index locally. The
/// server normalises weights exactly as the in-process path does, so the
/// answer ids are bit-identical to `query --index` on the same data.
fn query_over_network(f: &Flags, addr: &str, raw: &[f64], k: usize) -> Result<String, CliError> {
    let deadline_ms: u64 = f.parse_num("deadline-ms", 0)?;
    let max_cost: u64 = f.parse_num("max-cost", 0)?;
    let deadline_ms = u32::try_from(deadline_ms)
        .map_err(|_| CliError::usage("--deadline-ms too large for the wire format"))?;
    let k32 = u32::try_from(k).map_err(|_| CliError::usage("--k too large for the wire format"))?;
    let mut client = connect_with_policy(f, addr)?;
    let t0 = std::time::Instant::now();
    let reply = client
        .query(raw, k32, deadline_ms, max_cost)
        .map_err(client_error)?;
    let micros = t0.elapsed().as_micros();
    if !reply.is_complete() && !f.has("partial") {
        return Err(CliError::budget(format!(
            "query stopped after {} of {k} answers: {} \
             (pass --partial to accept the prefix)",
            reply.ids.len(),
            truncation_reason(reply.truncated)
        )));
    }
    if let Some(cov) = &reply.coverage {
        // Degraded coverage is a partial answer in the shard dimension:
        // same contract as a truncated prefix — explicit opt-in.
        if !f.has("partial") {
            return Err(CliError::budget(format!(
                "answer covers {} of {} shards (skipped {:?}); \
                 pass --partial to accept degraded coverage",
                cov.shards as usize - cov.skipped().len(),
                cov.shards,
                cov.skipped()
            )));
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "rank  tuple");
    for (rank, t) in reply.ids.iter().enumerate() {
        let _ = writeln!(out, "{:>4}  {:>6}", rank + 1, t);
    }
    if !reply.is_complete() {
        let _ = writeln!(
            out,
            "TRUNCATED after {} of {k} answers: {}",
            reply.ids.len(),
            truncation_reason(reply.truncated)
        );
    }
    if let Some(cov) = &reply.coverage {
        let _ = writeln!(
            out,
            "DEGRADED coverage: {} of {} shards answered (skipped {:?})",
            cov.shards as usize - cov.skipped().len(),
            cov.shards,
            cov.skipped()
        );
    }
    let _ = writeln!(
        out,
        "evaluated {} tuples ({} pseudo) via {addr} in {micros} µs",
        reply.evaluated + reply.pseudo_evaluated,
        reply.pseudo_evaluated
    );
    Ok(out)
}

/// `serve --index FILE`: run the network index service until killed, or
/// for `--duration-s` seconds when given (used by smoke tests and timed
/// benchmarks). The bound address is announced on stderr immediately so
/// operators (and scripts) can connect before the command returns.
fn cmd_serve(f: &Flags) -> Result<String, CliError> {
    let addr = f.get("addr").unwrap_or("127.0.0.1:7071");
    let workers: usize = f.parse_num("workers", 2)?;
    let batch_max: usize = f.parse_num("batch-max", 32)?;
    let window_us: u64 = f.parse_num("batch-window-us", 200)?;
    let queue_depth: usize = f.parse_num("queue-depth", 1024)?;
    let duration_s: u64 = f.parse_num("duration-s", 0)?;
    let cfg = drtopk_server::ServerConfig::new()
        .addr(addr)
        .workers(workers)
        .batch_max(batch_max)
        .batch_window(std::time::Duration::from_micros(window_us))
        .queue_depth(queue_depth)
        .cache(f.has("cache"));
    let handle = if let Some(topo) = f.get("topology") {
        serve_router(Path::new(topo), cfg)?
    } else if let Some(root) = f.get("shard-dir") {
        if f.get("shard-id").is_some() {
            serve_shard_node(f, PathBuf::from(root), cfg)?
        } else {
            serve_sharded(f, PathBuf::from(root), cfg)?
        }
    } else {
        let path = PathBuf::from(f.require("index")?);
        let idx = std::sync::Arc::new(load_index(&path).map_err(CliError::from)?);
        drtopk_server::Server::start(idx, cfg)
            .map_err(|e| CliError::runtime(format!("serve: {e}")))?
    };
    let bound = handle.addr();
    eprintln!(
        "drtopk serving on {bound} ({workers} workers, batch <= {batch_max} \
         or {window_us} µs, queue depth {queue_depth}, cache {})",
        if f.has("cache") { "on" } else { "off" }
    );
    if duration_s > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration_s));
        handle.shutdown();
        Ok(format!("served on {bound} for {duration_s} s, drained\n"))
    } else {
        // Runs until a client sends a DRAIN frame (`drtopk drain`) or the
        // process is killed.
        handle.wait();
        Ok(format!("served on {bound}, drained\n"))
    }
}

/// The `serve --shard-dir` path: open an existing sharded deployment
/// (shard.0000, shard.0001, ... under `root`) or create one from
/// `--shards P --data FILE` when the directory holds none. A shard that
/// fails recovery is served *around*: it gets an unavailable slot, is
/// cordoned, and every answer that would have touched it carries the
/// degraded-coverage extension until `drtopk recover --shard N` repairs
/// its directory and the server is restarted (or the shard is replaced
/// in process by an embedding caller).
fn serve_sharded(
    f: &Flags,
    root: PathBuf,
    cfg: drtopk_server::ServerConfig,
) -> Result<drtopk_server::ServerHandle, CliError> {
    let opts = DurableOptions::default();
    let existing = if root.is_dir() {
        drtopk_storage::list_shard_dirs(&root).map_err(CliError::from)?
    } else {
        Vec::new()
    };
    let (shards, failed): (Vec<drtopk_server::ServedShard>, Vec<(usize, String)>) =
        if existing.is_empty() {
            let p: usize = f.parse_num("shards", 0)?;
            if p == 0 {
                return Err(CliError::usage(format!(
                    "{} holds no shards; pass --shards P --data FILE to create a deployment",
                    root.display()
                )));
            }
            let data = PathBuf::from(f.require("data")?);
            let rel = load_relation(&data).map_err(CliError::from)?;
            let stores =
                drtopk_storage::create_sharded(&root, &rel, p, &opts).map_err(CliError::from)?;
            (
                stores
                    .into_iter()
                    .enumerate()
                    .map(|(s, st)| drtopk_server::ServedShard::new(s, st))
                    .collect(),
                Vec::new(),
            )
        } else {
            // Open every shard independently; a failure quarantines to
            // that shard's slot instead of refusing the deployment.
            let mut opened = Vec::with_capacity(existing.len());
            for (s, dir) in existing.iter().enumerate() {
                opened.push((s, DurableDynamicIndex::open(dir, opts.clone())));
            }
            let dims = opened
                .iter()
                .find_map(|(_, r)| r.as_ref().ok().map(|(st, _)| st.index().dims()))
                .ok_or_else(|| {
                    CliError::corrupt(format!(
                        "{}: every shard failed recovery; repair at least one \
                         with `drtopk recover --dir {} --shard N`",
                        root.display(),
                        root.display()
                    ))
                })?;
            let mut shards = Vec::with_capacity(opened.len());
            let mut failed = Vec::new();
            for (s, r) in opened {
                match r {
                    Ok((st, report)) => {
                        if report.replayed > 0 || report.snapshots_skipped > 0 {
                            eprintln!(
                                "shard {s}: recovered (replayed {}, snapshots skipped {})",
                                report.replayed, report.snapshots_skipped
                            );
                        }
                        shards.push(drtopk_server::ServedShard::new(s, st));
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        shards.push(drtopk_server::ServedShard::unavailable(s, dims, &reason));
                        failed.push((s, reason));
                    }
                }
            }
            (shards, failed)
        };
    let shard_count = shards.len();
    let router = std::sync::Arc::new(
        drtopk_core::ShardRouter::new(shards, drtopk_core::RouterConfig::default())
            .map_err(|e| CliError::runtime(format!("serve: {e}")))?,
    );
    for (s, reason) in &failed {
        router.cordon(*s);
        eprintln!("shard {s}: UNAVAILABLE ({reason}); serving degraded around it");
    }
    eprintln!(
        "sharded deployment at {}: {} of {shard_count} shards up",
        root.display(),
        shard_count - failed.len()
    );
    drtopk_server::Server::start_sharded(router, cfg)
        .map_err(|e| CliError::runtime(format!("serve: {e}")))
}

/// The `serve --topology FILE` path: this process is the *router node*
/// of a multi-node deployment. Client QUERY frames fan out as
/// SHARD_QUERY probes to the shard-node endpoints the file names, with
/// replica failover per shard and a background health pinger feeding
/// the router's Up/Degraded/Down slots (OPERATIONS.md §10).
fn serve_router(
    path: &Path,
    cfg: drtopk_server::ServerConfig,
) -> Result<drtopk_server::ServerHandle, CliError> {
    let topo = drtopk_server::Topology::load(path).map_err(CliError::from)?;
    eprintln!("router node: {}", topo.summary().trim_end());
    let router = topo.build_router().map_err(CliError::from)?;
    drtopk_server::Server::start_router(router, Some(topo.pinger_config()), cfg)
        .map_err(|e| CliError::runtime(format!("serve: {e}")))
}

/// The `serve --shard-dir DIR --shard-id N` path: this process is one
/// *shard node* — it opens exactly `DIR/shard.NNNN` and answers
/// SHARD_QUERY probes (scores attached) from a router node, plus plain
/// QUERY for debugging. Unlike the in-process sharded path there is no
/// serving *around* a bad shard here: a directory that fails recovery
/// refuses to start (exit 3) so the operator repairs it with
/// `drtopk recover` while replicas carry the traffic.
fn serve_shard_node(
    f: &Flags,
    root: PathBuf,
    cfg: drtopk_server::ServerConfig,
) -> Result<drtopk_server::ServerHandle, CliError> {
    let s: usize = f.parse_num("shard-id", 0)?;
    let dir = drtopk_storage::shards::shard_dir(&root, s);
    let (store, report) =
        DurableDynamicIndex::open(&dir, DurableOptions::default()).map_err(|e| {
            let base = CliError::from(e);
            CliError {
                message: format!(
                    "shard {s} at {}: {}; repair with `drtopk recover --dir {} --shard {s}` \
                     and restart this node",
                    dir.display(),
                    base.message,
                    root.display()
                ),
                code: base.code,
            }
        })?;
    if report.replayed > 0 || report.snapshots_skipped > 0 {
        eprintln!(
            "shard {s}: recovered (replayed {}, snapshots skipped {})",
            report.replayed, report.snapshots_skipped
        );
    }
    eprintln!(
        "shard node {s}: {} tuples from {}",
        store.len(),
        dir.display()
    );
    let shard = std::sync::Arc::new(drtopk_server::ServedShard::new(s, store));
    drtopk_server::Server::start_shard_node(shard, cfg)
        .map_err(|e| CliError::runtime(format!("serve: {e}")))
}

/// `topology check FILE`: parse and validate a topology file without
/// serving anything; prints the parsed summary on success. The one
/// command with a positional argument, so it bypasses [`Flags::parse`].
fn cmd_topology(args: &[String]) -> Result<String, CliError> {
    match args {
        [sub, path] if sub == "check" => {
            let t = drtopk_server::Topology::load(path).map_err(CliError::from)?;
            Ok(format!("{path}: OK\n{}", t.summary()))
        }
        _ => Err(CliError::usage("usage: drtopk topology check FILE")),
    }
}

/// Value of label `key` inside a Prometheus label block
/// (`k1="v1",k2="v2",...`).
fn prom_label<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels.split(',').find_map(|kv| {
        let (k, v) = kv.split_once("=\"")?;
        (k == key).then(|| v.trim_end_matches('"'))
    })
}

/// `health --connect HOST:PORT`: fetch the node's metrics and print a
/// human-readable shard/endpoint health summary. Exits non-zero (code 1,
/// summary on stderr) when any shard is Down, so scripts and runbooks
/// can branch on it; a single-node server with no shard series is
/// healthy by definition.
fn cmd_health(f: &Flags) -> Result<String, CliError> {
    let addr = f.require("connect")?;
    let mut client = connect_with_policy(f, addr)?;
    let text = client.metrics_text().map_err(client_error)?;
    let mut out = String::new();
    let mut shards = 0usize;
    let mut down: Vec<String> = Vec::new();
    let mut endpoints = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("drtopk_shard_health{shard=\"") {
            let Some((id, v)) = rest.split_once("\"} ") else {
                continue;
            };
            shards += 1;
            let state = match v.trim() {
                "0" => "up",
                "1" => "DEGRADED",
                _ => "DOWN",
            };
            if state == "DOWN" {
                down.push(id.to_string());
            }
            let _ = writeln!(out, "  shard {id}: {state}");
        } else if let Some(rest) = line.strip_prefix("drtopk_endpoint_up{") {
            let Some((labels, v)) = rest.split_once("} ") else {
                continue;
            };
            let (Some(s), Some(r), Some(a)) = (
                prom_label(labels, "shard"),
                prom_label(labels, "replica"),
                prom_label(labels, "addr"),
            ) else {
                continue;
            };
            let state = if v.trim() == "1" { "up" } else { "down" };
            let _ = writeln!(endpoints, "  shard {s} replica {r} {a}: {state}");
        }
    }
    if shards == 0 {
        return Ok(format!("{addr}: single-node server, reachable\n"));
    }
    let mut report = format!(
        "{addr}: {} of {shards} shard(s) up\n{out}",
        shards - down.len()
    );
    if !endpoints.is_empty() {
        report.push_str("endpoints:\n");
        report.push_str(&endpoints);
    }
    if down.is_empty() {
        Ok(report)
    } else {
        Err(CliError::runtime(format!(
            "{report}shard(s) [{}] are DOWN",
            down.join(", ")
        )))
    }
}

/// `drain --connect HOST:PORT`: ask a running server to stop accepting
/// work, finish its queue, and exit (PROTOCOL.md §3.4).
fn cmd_drain(f: &Flags) -> Result<String, CliError> {
    let addr = f.require("connect")?;
    let mut client = connect_with_policy(f, addr)?;
    client.drain().map_err(client_error)?;
    Ok(format!("drain acknowledged by {addr}\n"))
}

/// Parses a weights file: one comma-separated weight vector per line;
/// blank lines and `#` comments are skipped.
fn parse_weights_file(text: &str, dims: usize) -> Result<Vec<Weights>, CliError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let raw: Vec<f64> = line
            .split(',')
            .map(|p| p.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| {
                CliError::usage(format!(
                    "weights file line {}: cannot parse {line:?}",
                    lineno + 1
                ))
            })?;
        let w = Weights::new(raw)
            .map_err(|e| CliError::usage(format!("weights file line {}: {e}", lineno + 1)))?;
        if w.dims() != dims {
            return Err(CliError::usage(format!(
                "weights file line {}: index has {dims} attributes but {} weights were given",
                lineno + 1,
                w.dims()
            )));
        }
        out.push(w);
    }
    if out.is_empty() {
        return Err(CliError::usage(
            "weights file contains no weight vectors".to_string(),
        ));
    }
    Ok(out)
}

fn cmd_batch(f: &Flags) -> Result<String, CliError> {
    let path = PathBuf::from(f.require("index")?);
    let weights_path = PathBuf::from(f.require("weights-file")?);
    let k: usize = f.parse_num("k", 10)?;
    let threads: usize = f.parse_num("threads", 0)?;
    let idx = load_index(&path).map_err(CliError::from)?;
    let text = std::fs::read_to_string(&weights_path)
        .map_err(|e| CliError::runtime(format!("{}: {e}", weights_path.display())))?;
    let queries = parse_weights_file(&text, idx.dims())?;
    let budget = parse_budget(f)?;
    let cache = f.has("cache").then(drtopk_core::ResultCache::default);
    let mut exec = BatchExecutor::with_threads(&idx, threads);
    if let Some(c) = &cache {
        exec = exec.with_cache(c);
    }
    let t0 = std::time::Instant::now();
    // The guarded path carries per-request outcomes; the plain path is
    // mapped into the same shape so one report loop serves both.
    let results: Vec<Result<drtopk_core::GuardedTopk, drtopk_core::RequestError>> = match &budget {
        None => exec
            .run_uniform(&queries, k)
            .into_iter()
            .map(|r| {
                Ok(drtopk_core::GuardedTopk {
                    ids: r.ids,
                    cost: r.cost,
                    truncated: None,
                })
            })
            .collect(),
        Some(b) => {
            let requests: Vec<(Weights, usize)> = queries.iter().map(|w| (w.clone(), k)).collect();
            exec.run_guarded(&requests, b)
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let mut out = String::new();
    let mut total_cost = 0u64;
    let mut answered = 0usize;
    let mut truncated = 0usize;
    let mut failed = 0usize;
    for (qi, r) in results.iter().enumerate() {
        match r {
            Ok(g) => {
                let ids: Vec<String> = g.ids.iter().map(|t| t.to_string()).collect();
                let marker = match g.truncated {
                    None => String::new(),
                    Some(reason) => {
                        truncated += 1;
                        format!(" TRUNCATED ({reason})")
                    }
                };
                let _ = writeln!(
                    out,
                    "query {qi}: cost {} top-{} [{}]{marker}",
                    g.cost.total(),
                    g.ids.len(),
                    ids.join(", ")
                );
                total_cost += g.cost.total();
                answered += 1;
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "query {qi}: FAILED ({e})");
            }
        }
    }
    if truncated > 0 && !f.has("partial") {
        return Err(CliError::budget(format!(
            "{truncated} of {} queries stopped early on the batch budget \
             (pass --partial to accept prefixes)",
            results.len()
        )));
    }
    let qps = if secs > 0.0 {
        results.len() as f64 / secs
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        out,
        "{} queries on {} threads in {:.3}s ({:.0} queries/s, mean cost {:.1})",
        results.len(),
        exec.effective_threads(queries.len()),
        secs,
        qps,
        total_cost as f64 / answered.max(1) as f64
    );
    if failed > 0 {
        let _ = writeln!(out, "{failed} queries failed; the rest are unaffected");
    }
    if let Some(c) = &cache {
        let s = c.stats();
        let lookups = s.hits + s.misses;
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} cert rejects",
            s.hits,
            s.misses,
            100.0 * s.hits as f64 / lookups.max(1) as f64,
            s.cert_rejects
        );
    }
    Ok(out)
}

/// `recover --dir DIR`: opens a durable dynamic store, replaying its WAL
/// over the newest loadable snapshot, and reports what recovery did.
fn cmd_recover(f: &Flags) -> Result<String, CliError> {
    let mut dir = PathBuf::from(f.require("dir")?);
    if f.get("shard").is_some() {
        // `--dir` names the deployment root; `--shard N` selects one
        // shard's own directory. Recovery stays single-shard: peers'
        // WALs and snapshots are never read, let alone written.
        let shard: usize = f.parse_num("shard", 0)?;
        dir = drtopk_storage::shard_dir(&dir, shard);
    }
    let opts = DurableOptions {
        opts: variant_options(f.get("variant").unwrap_or("dl+"))?,
        ..DurableOptions::default()
    };
    let (mut store, report) = DurableDynamicIndex::open(&dir, opts).map_err(CliError::from)?;
    let mut out = String::new();
    let _ = writeln!(out, "store {}", dir.display());
    let _ = writeln!(out, "  base generation    {}", report.generation);
    let _ = writeln!(out, "  current generation {}", store.generation());
    let _ = writeln!(out, "  records replayed   {}", report.replayed);
    let _ = writeln!(out, "  torn tail          {}", report.torn_tail);
    let _ = writeln!(out, "  snapshots skipped  {}", report.snapshots_skipped);
    let _ = writeln!(out, "  live tuples        {}", store.len());
    if f.has("checkpoint") {
        let generation = store.checkpoint().map_err(CliError::from)?;
        let _ = writeln!(out, "checkpointed to generation {generation}");
    }
    Ok(out)
}

/// `wal --dir DIR`: read-only inspection of every WAL file in a durable
/// store directory — record counts, torn tails, and valid prefix sizes.
fn cmd_wal(f: &Flags) -> Result<String, CliError> {
    let dir = PathBuf::from(f.require("dir")?);
    let mut files: Vec<(u64, PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| CliError::runtime(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| CliError::runtime(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("wal.")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            files.push((gen, entry.path()));
        }
    }
    if files.is_empty() {
        return Err(CliError::runtime(format!(
            "no WAL files found in {}",
            dir.display()
        )));
    }
    files.sort();
    let mut out = String::new();
    for (gen, path) in files {
        match read_wal(&path, gen) {
            Ok(replay) => {
                let inserts = replay
                    .records
                    .iter()
                    .filter(|r| matches!(r, WalRecord::Insert { .. }))
                    .count();
                let tail = if replay.torn { ", TORN TAIL" } else { "" };
                let _ = writeln!(
                    out,
                    "wal generation {gen}: {} records ({inserts} inserts, {} deletes), \
                     {} valid bytes{tail}",
                    replay.records.len(),
                    replay.records.len() - inserts,
                    replay.valid_bytes,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "wal generation {gen}: UNREADABLE ({e})");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("drtopk_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_pipeline() {
        let data = tmp("pipe.data.drt");
        let index = tmp("pipe.index.drt");
        let out = run(&argv(&[
            "generate",
            "--dist",
            "ant",
            "--dims",
            "3",
            "--n",
            "500",
            "--seed",
            "5",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("500 tuples"));

        let out = run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
            "--variant",
            "dl+",
            "--parallel",
            "--threads",
            "2",
            "--stats",
        ]))
        .unwrap();
        assert!(out.contains("coarse"));
        // --stats appends the per-phase profile table.
        assert!(out.contains("coarse peel"), "{out}");
        assert!(out.contains("dominance tests"), "{out}");

        let out = run(&argv(&["stats", "--index", index.to_str().unwrap()])).unwrap();
        assert!(out.contains("tuples            500"));

        let out = run(&argv(&[
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "0.2,0.5,0.3",
            "--k",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("rank"));
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            5
        );
    }

    #[test]
    fn stats_formats_and_probe() {
        let data = tmp("statsfmt.data.drt");
        let index = tmp("statsfmt.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ant",
            "--dims",
            "2",
            "--n",
            "400",
            "--seed",
            "11",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();

        let json = run(&argv(&[
            "stats",
            "--index",
            index.to_str().unwrap(),
            "--format",
            "json",
            "--probe",
            "5",
        ]))
        .unwrap();
        assert!(json.contains("\"tuples\": 400"), "{json}");
        assert!(json.contains("\"queries\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let prom = run(&argv(&[
            "stats",
            "--index",
            index.to_str().unwrap(),
            "--format",
            "prom",
            "--probe",
            "5",
        ]))
        .unwrap();
        assert!(prom.contains("drtopk_index_tuples 400"), "{prom}");
        assert!(
            prom.contains("# TYPE drtopk_queries_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE drtopk_query_latency_seconds histogram"),
            "{prom}"
        );
        if drtopk_obs::COMPILED {
            // The registry is process-global and other tests also run
            // queries, so assert a floor, not an exact count.
            let queries: u64 = prom
                .lines()
                .find(|l| l.starts_with("drtopk_queries_total "))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!(queries >= 5, "{prom}");
        }

        let text = run(&argv(&[
            "stats",
            "--index",
            index.to_str().unwrap(),
            "--probe",
            "5",
        ]))
        .unwrap();
        if drtopk_obs::COMPILED {
            assert!(text.contains("scratch touched"), "{text}");
            assert!(text.contains("kernel blocks"), "{text}");
        }

        let err = run(&argv(&[
            "stats",
            "--index",
            index.to_str().unwrap(),
            "--format",
            "yaml",
        ]))
        .unwrap_err();
        assert!(err.message.contains("text|json|prom"));
    }

    /// Audit of the Prometheus exposition: every sample family — including
    /// the new cache counters — must be preceded by both a HELP and a TYPE
    /// line, per the text-format contract scrapers rely on.
    #[test]
    fn prom_output_has_help_and_type_for_every_family() {
        let data = tmp("promaudit.data.drt");
        let index = tmp("promaudit.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ant",
            "--dims",
            "2",
            "--n",
            "300",
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = run(&argv(&[
            "stats",
            "--index",
            index.to_str().unwrap(),
            "--format",
            "prom",
            "--probe",
            "40",
            "--cache",
        ]))
        .unwrap();
        let mut helped: Vec<String> = Vec::new();
        let mut typed: Vec<String> = Vec::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.push(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            let sample = line.split([' ', '{']).next().unwrap();
            if sample.is_empty() {
                continue;
            }
            // Histogram samples belong to their base family name.
            let family = sample
                .strip_suffix("_bucket")
                .or_else(|| sample.strip_suffix("_sum"))
                .or_else(|| sample.strip_suffix("_count"))
                .unwrap_or(sample);
            assert!(
                helped.iter().any(|h| h == family),
                "sample {sample:?} has no preceding HELP: {prom}"
            );
            assert!(
                typed.iter().any(|t| t == family),
                "sample {sample:?} has no preceding TYPE: {prom}"
            );
        }
        for name in [
            "drtopk_cache_hits_total",
            "drtopk_cache_misses_total",
            "drtopk_cache_cert_rejects_total",
            "drtopk_cache_invalidations_total",
        ] {
            assert!(
                prom.contains(&format!("# TYPE {name} counter")),
                "{name} missing TYPE: {prom}"
            );
        }
        if drtopk_obs::COMPILED {
            // Zipf probes over a 16-weight pool must actually hit.
            let hits: u64 = prom
                .lines()
                .find(|l| l.starts_with("drtopk_cache_hits_total "))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!(hits > 0, "{prom}");
        }
    }

    #[test]
    fn batch_with_cache_matches_uncached_answers() {
        let data = tmp("cachebatch.data.drt");
        let index = tmp("cachebatch.index.drt");
        let wfile = tmp("cachebatch.weights.txt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "250",
            "--seed",
            "9",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        // Three distinct vectors, each repeated: repeats must hit.
        let mut lines = String::new();
        for _ in 0..5 {
            lines.push_str("0.3,0.7\n0.5,0.5\n0.8,0.2\n");
        }
        std::fs::write(&wfile, lines).unwrap();
        let base = argv(&[
            "batch",
            "--index",
            index.to_str().unwrap(),
            "--weights-file",
            wfile.to_str().unwrap(),
            "--k",
            "5",
            "--threads",
            "1",
        ]);
        let plain = run(&base).unwrap();
        let mut with_cache = base.clone();
        with_cache.push("--cache".into());
        let cached = run(&with_cache).unwrap();
        for (p, c) in plain.lines().zip(cached.lines()) {
            if p.starts_with("query ") {
                // Same answers; costs may differ (hit semantics).
                let strip = |l: &str| l.split('[').nth(1).map(|s| s.to_string());
                assert_eq!(strip(p), strip(c), "plain: {p}\ncached: {c}");
            }
        }
        let summary = cached
            .lines()
            .find(|l| l.starts_with("cache: "))
            .expect("cache summary line");
        let hits: u64 = summary
            .strip_prefix("cache: ")
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(hits >= 12, "repeated weights must hit: {summary}");
    }

    #[test]
    fn import_csv() {
        let csv = tmp("cat.csv");
        std::fs::write(&csv, "name,price,rating\na,10,4.5\nb,20,5.0\nc,5,1.0\n").unwrap();
        let data = tmp("cat.drt");
        let out = run(&argv(&[
            "import",
            "--csv",
            csv.to_str().unwrap(),
            "--columns",
            "1:low,2:high",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("3 tuples × 2 attributes"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&argv(&["unknown"])).is_err());
        assert!(run(&argv(&["generate", "--dist", "weird"])).is_err());
        assert!(
            run(&argv(&["build", "--data"])).is_err(),
            "flag without value"
        );
        assert!(run(&argv(&[
            "query",
            "--index",
            "/nonexistent",
            "--weights",
            "1,1"
        ]))
        .is_err());
        let e = run(&argv(&["generate", "--dist", "ind", "--out", "/tmp/x"])).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn weight_arity_checked() {
        let data = tmp("arity.data.drt");
        let index = tmp("arity.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "50",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&argv(&[
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "1,1,1",
        ]))
        .unwrap_err();
        assert!(err.message.contains("2 attributes"));
    }

    #[test]
    fn batch_subcommand_runs_weights_file() {
        let data = tmp("batch.data.drt");
        let index = tmp("batch.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "3",
            "--n",
            "300",
            "--seed",
            "9",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();

        let wf = tmp("batch.weights.txt");
        std::fs::write(
            &wf,
            "# one weight vector per line\n0.2, 0.5, 0.3\n\n0.6,0.2,0.2\n0.1,0.1,0.8\n",
        )
        .unwrap();
        let out = run(&argv(&[
            "batch",
            "--index",
            index.to_str().unwrap(),
            "--weights-file",
            wf.to_str().unwrap(),
            "--k",
            "5",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("query 0:"), "{out}");
        assert!(out.contains("query 2:"), "{out}");
        // Three queries are below the per-worker chunking threshold, so the
        // executor collapses them onto one worker regardless of the host's
        // core count.
        assert!(out.contains("3 queries on 1 threads"), "{out}");

        // Batch answers must match single-query answers.
        let single = run(&argv(&[
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "0.2,0.5,0.3",
            "--k",
            "5",
        ]))
        .unwrap();
        let first_id = single
            .lines()
            .nth(1)
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .to_string();
        assert!(out
            .lines()
            .next()
            .unwrap()
            .contains(&format!("[{first_id}")));
    }

    #[test]
    fn batch_rejects_bad_weights_files() {
        let data = tmp("batchbad.data.drt");
        let index = tmp("batchbad.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "60",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        for (name, content, want) in [
            ("empty.txt", "# only comments\n\n", "no weight vectors"),
            ("arity.txt", "0.3,0.3,0.4\n", "2 attributes"),
            ("garbage.txt", "0.5,banana\n", "cannot parse"),
        ] {
            let wf = tmp(name);
            std::fs::write(&wf, content).unwrap();
            let err = run(&argv(&[
                "batch",
                "--index",
                index.to_str().unwrap(),
                "--weights-file",
                wf.to_str().unwrap(),
            ]))
            .unwrap_err();
            assert!(err.message.contains(want), "{name}: {}", err.message);
        }
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&argv(&["help"])).unwrap().contains("commands:"));
        assert!(run(&[]).unwrap().contains("commands:"));
    }

    /// Builds a small index file and returns its path.
    fn build_index(stem: &str, dims: usize, n: usize) -> PathBuf {
        let data = tmp(&format!("{stem}.data.drt"));
        let index = tmp(&format!("{stem}.index.drt"));
        run(&argv(&[
            "generate",
            "--dist",
            "ant",
            "--dims",
            &dims.to_string(),
            "--n",
            &n.to_string(),
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        index
    }

    #[test]
    fn corrupt_index_exits_3() {
        let path = tmp("exit3.index.drt");
        std::fs::write(&path, b"not an index file at all").unwrap();
        let err = run(&argv(&[
            "query",
            "--index",
            path.to_str().unwrap(),
            "--weights",
            "0.5,0.5",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);

        // A bit-flipped but otherwise well-formed file is also code 3.
        let good = build_index("exit3b", 2, 80);
        let mut bytes = std::fs::read(&good).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&good, &bytes).unwrap();
        let err = run(&argv(&[
            "query",
            "--index",
            good.to_str().unwrap(),
            "--weights",
            "0.5,0.5",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);
    }

    #[test]
    fn tripped_budget_exits_4_unless_partial() {
        let index = build_index("budget", 3, 400);
        // A cost cap of 1 cannot answer k=20.
        let base = [
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "0.3,0.3,0.4",
            "--k",
            "20",
            "--max-cost",
            "1",
        ];
        let err = run(&argv(&base)).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
        assert!(err.message.contains("--partial"), "{}", err.message);

        let mut with_partial = base.to_vec();
        with_partial.push("--partial");
        let out = run(&argv(&with_partial)).unwrap();
        assert!(out.contains("TRUNCATED"), "{out}");
        assert!(out.contains("cost cap"), "{out}");

        // An ample budget answers fully through the guarded path.
        let out = run(&argv(&[
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "0.3,0.3,0.4",
            "--k",
            "5",
            "--max-cost",
            "100000",
            "--deadline-ms",
            "60000",
        ]))
        .unwrap();
        assert!(!out.contains("TRUNCATED"), "{out}");
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            5
        );
    }

    #[test]
    fn batch_budget_marks_truncated_queries() {
        let index = build_index("batchbudget", 2, 300);
        let wf = tmp("batchbudget.weights.txt");
        std::fs::write(&wf, "0.5,0.5\n0.9,0.1\n").unwrap();
        let base = [
            "batch",
            "--index",
            index.to_str().unwrap(),
            "--weights-file",
            wf.to_str().unwrap(),
            "--k",
            "30",
            "--max-cost",
            "1",
        ];
        let err = run(&argv(&base)).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);

        let mut with_partial = base.to_vec();
        with_partial.push("--partial");
        let out = run(&argv(&with_partial)).unwrap();
        assert!(out.contains("TRUNCATED"), "{out}");
        assert!(out.contains("2 queries on"), "{out}");
    }

    #[test]
    fn budget_flags_are_validated() {
        let index = build_index("budgetval", 2, 50);
        for bad in [["--deadline-ms", "0"], ["--max-cost", "0"]] {
            let err = run(&argv(&[
                "query",
                "--index",
                index.to_str().unwrap(),
                "--weights",
                "0.5,0.5",
                bad[0],
                bad[1],
            ]))
            .unwrap_err();
            assert_eq!(err.code, 2, "{}", err.message);
        }
    }

    /// Creates a durable dynamic store with a few logged mutations.
    fn make_store(stem: &str) -> PathBuf {
        let dir = tmp(&format!("{stem}.store"));
        let _ = std::fs::remove_dir_all(&dir);
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 40, 7).generate();
        let mut store = DurableDynamicIndex::create(
            &dir,
            &rel,
            DurableOptions {
                opts: DlOptions::dl_plus(),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        store.insert(&[0.3, 0.6]).unwrap();
        store.insert(&[0.7, 0.2]).unwrap();
        store.delete(5).unwrap();
        dir
    }

    #[test]
    fn recover_reports_replay_and_checkpoints() {
        let dir = make_store("recover");
        let out = run(&argv(&["recover", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("records replayed   3"), "{out}");
        assert!(out.contains("live tuples        41"), "{out}");
        assert!(out.contains("torn tail          false"), "{out}");

        let out = run(&argv(&[
            "recover",
            "--dir",
            dir.to_str().unwrap(),
            "--checkpoint",
        ]))
        .unwrap();
        assert!(out.contains("checkpointed to generation 1"), "{out}");
        // After the checkpoint the WAL backlog is folded into the snapshot.
        let out = run(&argv(&["recover", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("records replayed   0"), "{out}");

        // A store with a torn interior WAL under a committed snapshot is
        // acked-data loss: recover must exit 3.
        let wal0 = dir.join(format!("wal.{:016}.log", 0));
        if wal0.exists() {
            std::fs::remove_file(&wal0).unwrap();
        }
        let snap1 = dir.join(format!("snapshot.{:016}.drt", 1));
        let mut bytes = std::fs::read(&snap1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&snap1, &bytes).unwrap();
        // snapshot.1 corrupt -> fall back to snapshot.0; wal.1 intact so
        // recovery succeeds, but tearing wal.1's tail below snapshot.1's
        // commit marker... wal.1 IS >= the newest snapshot generation, so
        // a torn tail there is tolerated. Corrupting snapshot.0 as well
        // leaves nothing loadable: exit 3.
        let snap0 = dir.join(format!("snapshot.{:016}.drt", 0));
        let mut bytes = std::fs::read(&snap0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&snap0, &bytes).unwrap();
        let err = run(&argv(&["recover", "--dir", dir.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);
    }

    #[test]
    fn wal_inspector_reports_records_and_tears() {
        let dir = make_store("walcmd");
        let out = run(&argv(&["wal", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("wal generation 0: 3 records (2 inserts, 1 deletes)"),
            "{out}"
        );
        assert!(!out.contains("TORN"), "{out}");

        // Chop bytes off the tail: the inspector flags the tear.
        let wal0 = dir.join(format!("wal.{:016}.log", 0));
        let full = std::fs::read(&wal0).unwrap();
        std::fs::write(&wal0, &full[..full.len() - 3]).unwrap();
        let out = run(&argv(&["wal", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("TORN TAIL"), "{out}");
        assert!(out.contains("2 records"), "{out}");

        let err = run(&argv(&["wal", "--dir", "/nonexistent-dir"])).unwrap_err();
        assert_eq!(err.code, 1);
    }

    /// The `serve` / `query --connect` / `drain` loop end to end: the
    /// network answer carries the same tuple ids as the local path, the
    /// budget exit-code contract survives the wire, and a DRAIN frame
    /// stops the serve command.
    #[test]
    fn network_query_matches_local_and_drain_stops_the_server() {
        let data = tmp("serve.data.drt");
        let index = tmp("serve.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ant",
            "--dims",
            "2",
            "--n",
            "300",
            "--seed",
            "21",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();

        // Reserve an ephemeral port, release it, then serve on it from a
        // background thread (the tiny reuse window is fine for a test).
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let serve_args = argv(&[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--addr",
            &addr,
            "--workers",
            "1",
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        for _ in 0..200 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let local = run(&argv(&[
            "query",
            "--index",
            index.to_str().unwrap(),
            "--weights",
            "0.4,0.6",
            "--k",
            "7",
        ]))
        .unwrap();
        let remote = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.4,0.6",
            "--k",
            "7",
        ]))
        .unwrap();
        let ids = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            ids(&local),
            ids(&remote),
            "local: {local}\nremote: {remote}"
        );
        assert_eq!(ids(&remote).len(), 7);

        // A tripped budget without --partial is exit code 4, same as the
        // local path; with --partial the prefix is printed and flagged.
        let err = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.4,0.6",
            "--k",
            "7",
            "--max-cost",
            "2",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
        let partial = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.4,0.6",
            "--k",
            "7",
            "--max-cost",
            "2",
            "--partial",
        ]))
        .unwrap();
        assert!(partial.contains("TRUNCATED"), "{partial}");
        assert!(partial.contains("cost budget exhausted"), "{partial}");

        // Wrong arity is rejected server-side as BadRequest -> usage (2).
        let err = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.2,0.3,0.5",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);

        let out = run(&argv(&["drain", "--connect", &addr])).unwrap();
        assert!(out.contains("drain acknowledged"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("drained"), "{served}");

        // Draining an already-stopped server is a runtime error (1).
        let err = run(&argv(&["drain", "--connect", &addr])).unwrap_err();
        assert_eq!(err.code, 1);
        // drain without --connect is a usage error (2).
        assert_eq!(run(&argv(&["drain"])).unwrap_err().code, 2);
    }

    /// `--duration-s` bounds the serve command without an external drain
    /// — the shape CI smoke tests and timed benchmarks rely on.
    #[test]
    fn serve_duration_flag_drains_on_its_own() {
        let data = tmp("timed.data.drt");
        let index = tmp("timed.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "100",
            "--seed",
            "4",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&argv(&[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--duration-s",
            "1",
            "--cache",
        ]))
        .unwrap();
        assert!(out.contains("drained"), "{out}");
    }

    /// Sharded serving end to end through the CLI: create a deployment
    /// from `--data`, query it with full coverage, reopen it from disk,
    /// then corrupt one shard wholesale and verify the reopened server
    /// serves *around* it — degraded coverage is exit 4 without
    /// `--partial`, explicit with it, and never leaks tuples from the
    /// dead shard's residue class.
    #[test]
    fn sharded_serve_creates_reopens_and_degrades_around_a_dead_shard() {
        let data = tmp("shardcli.data.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "240",
            "--seed",
            "33",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        let root = tmp("shardcli.deploy");
        let _ = std::fs::remove_dir_all(&root);
        let ids = |s: &str| -> Vec<u64> {
            s.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
                .collect()
        };
        let reserve = || {
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .port();
            format!("127.0.0.1:{port}")
        };
        let wait_up = |addr: &str| {
            for _ in 0..200 {
                if std::net::TcpStream::connect(addr).is_ok() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            panic!("server on {addr} never came up");
        };

        // Phase 1: create the deployment from --data and serve it.
        let addr = reserve();
        let serve_args = argv(&[
            "serve",
            "--shard-dir",
            root.to_str().unwrap(),
            "--shards",
            "3",
            "--data",
            data.to_str().unwrap(),
            "--addr",
            &addr,
            "--workers",
            "1",
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        wait_up(&addr);
        let full = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.5,0.5",
            "--k",
            "9",
        ]))
        .unwrap();
        assert!(!full.contains("DEGRADED"), "{full}");
        let full_ids = ids(&full);
        assert_eq!(full_ids.len(), 9, "{full}");
        run(&argv(&["drain", "--connect", &addr])).unwrap();
        server.join().unwrap().unwrap();
        for s in 0..3 {
            assert!(root.join(format!("shard.{s:04}")).is_dir());
        }

        // Single-shard recovery names only that shard's directory.
        let out = run(&argv(&[
            "recover",
            "--dir",
            root.to_str().unwrap(),
            "--shard",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("shard.0002"), "{out}");

        // Phase 2: trash every file under shard 1, reopen the
        // deployment, and it serves degraded around the corpse.
        for entry in std::fs::read_dir(root.join("shard.0001")).unwrap() {
            std::fs::write(entry.unwrap().path(), b"not a drtopk file").unwrap();
        }
        let addr = reserve();
        let serve_args = argv(&[
            "serve",
            "--shard-dir",
            root.to_str().unwrap(),
            "--addr",
            &addr,
            "--workers",
            "1",
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        wait_up(&addr);
        let err = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.5,0.5",
            "--k",
            "9",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
        assert!(err.message.contains("degraded coverage"), "{}", err.message);
        let partial = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.5,0.5",
            "--k",
            "9",
            "--partial",
        ]))
        .unwrap();
        assert!(
            partial.contains("DEGRADED coverage: 2 of 3 shards answered (skipped [1])"),
            "{partial}"
        );
        let degraded_ids = ids(&partial);
        assert_eq!(degraded_ids.len(), 9, "{partial}");
        // Shard s holds handles with h % 3 == s; nothing from the dead
        // residue class may appear, and the answer must be exactly the
        // full answer with shard 1's tuples dropped and backfilled.
        assert!(degraded_ids.iter().all(|t| t % 3 != 1), "{partial}");
        let expected: Vec<u64> = full_ids.iter().copied().filter(|t| t % 3 != 1).collect();
        assert_eq!(&degraded_ids[..expected.len()], &expected[..], "{partial}");
        run(&argv(&["drain", "--connect", &addr])).unwrap();
        server.join().unwrap().unwrap();

        // An empty shard dir without --shards/--data is a usage error.
        let empty = tmp("shardcli.empty");
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&argv(&[
            "serve",
            "--shard-dir",
            empty.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
    }

    /// `--connect-retries` rides out a server that is still starting:
    /// the client backs off and reconnects instead of failing the first
    /// refused connection, and `--connect-retries 0` restores the old
    /// single-attempt contract (runtime error, exit 1).
    #[test]
    fn query_connect_retries_until_the_server_appears() {
        let data = tmp("retry.data.drt");
        let index = tmp("retry.index.drt");
        run(&argv(&[
            "generate",
            "--dist",
            "ind",
            "--dims",
            "2",
            "--n",
            "80",
            "--seed",
            "5",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");

        // No listener yet: zero retries fails immediately with exit 1.
        let err = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.5,0.5",
            "--connect-retries",
            "0",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);

        // Start the server late; the retrying client waits it out.
        let serve_args = argv(&[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--addr",
            &addr,
            "--workers",
            "1",
        ]);
        let server = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            run(&serve_args)
        });
        let out = run(&argv(&[
            "query",
            "--connect",
            &addr,
            "--weights",
            "0.5,0.5",
            "--k",
            "5",
            "--connect-retries",
            "10",
            "--connect-backoff-ms",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("rank  tuple"), "{out}");
        run(&argv(&["drain", "--connect", &addr])).unwrap();
        server.join().unwrap().unwrap();
    }
}
