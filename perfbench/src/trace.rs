//! Bench-side spans. In a traced run each sampled request is replayed
//! down the stack, one public call per layer; every call is a span that
//! carries the request's id (its index in the seeded stream). Spans stay
//! in memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    /// The layer whose call this one refines ("" for the client call).
    pub parent: &'static str,
    pub shard: Option<usize>,
    /// Outcome of the call where it has one ("hit" / "miss").
    pub tag: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Definition 9 cost the call reported, where it reports one.
    pub cost: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.dur_ns as f64 / 1e3
    }
}

/// One thread's span buffer; every recorder of a run shares the epoch.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a call that was timed elsewhere.
    pub fn push(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: &'static str,
        shard: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> &mut Span {
        self.spans.push(Span {
            req,
            layer,
            parent,
            shard,
            tag: "",
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            cost: 0,
        });
        self.last()
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: &'static str,
        shard: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let dur = start.elapsed();
        self.push(req, layer, parent, shard, start, dur);
        out
    }

    /// The span recorded last, to attach an outcome or a cost to it.
    pub fn last(&mut self) -> &mut Span {
        self.spans.last_mut().expect("a span was recorded")
    }
}

/// Spans grouped by request id.
pub struct Requests<'a>(BTreeMap<u64, Vec<&'a Span>>);

impl<'a> Requests<'a> {
    pub fn new(spans: &'a [Span]) -> Requests<'a> {
        let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans {
            by_req.entry(s.req).or_default().push(s);
        }
        Requests(by_req)
    }

    /// Mean of the values `f` derives from each request's spans.
    pub fn mean(&self, f: impl Fn(&[&'a Span]) -> Vec<f64>) -> f64 {
        let values: Vec<f64> = self.0.values().flat_map(|r| f(r.as_slice())).collect();
        crate::mean(&values)
    }
}

/// Duration in µs of one request's span for `layer` (and `shard`).
pub fn dur(req: &[&Span], layer: &str, shard: Option<usize>) -> Option<f64> {
    req.iter()
        .find(|s| s.layer == layer && s.shard == shard)
        .map(|s| s.us())
}

/// The slowest of one request's `layer` spans across shards, in µs.
pub fn slowest(req: &[&Span], layer: &str) -> Option<f64> {
    req.iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.us())
        .max_by(f64::total_cmp)
}

/// `a - b` when both exist, as a list of zero or one values.
pub fn diff(a: Option<f64>, b: Option<f64>) -> Vec<f64> {
    a.zip(b).map(|(a, b)| a - b).into_iter().collect()
}

/// Mean duration in µs of every `layer` span with the given tag ("" for
/// any).
pub fn mean_us(spans: &[Span], layer: &str, tag: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && (tag.is_empty() || s.tag == tag))
        .map(Span::us)
        .collect();
    crate::mean(&v)
}

/// Mean reported cost of every `layer` span.
pub fn mean_cost(spans: &[Span], layer: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.cost as f64)
        .collect();
    crate::mean(&v)
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let shard = s.shard.map_or("null".to_string(), |x| x.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"layer\":\"{}\",\"parent\":\"{}\",\"shard\":{shard},\"tag\":\"{}\",\
             \"start_ns\":{},\"dur_ns\":{},\"cost\":{}}}",
            s.req, s.layer, s.parent, s.tag, s.start_ns, s.dur_ns, s.cost
        )?;
    }
    out.flush()
}
