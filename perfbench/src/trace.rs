//! The benchmark's own span recorder, used only by the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! (`shard.execute`, `engine.plan_batch`, `persist.record`, ...): name,
//! start, end, parent span and batch id. Spans stay in memory and are
//! written out when the run ends. A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed throughout: these values publish no other data; the span list
// itself is behind a mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static BATCH: AtomicU64 = AtomicU64::new(0);
/// The span of the benchmark's open call into the program: the parent of
/// spans opened on pool workers, whose own span stack is empty.
static OUTER: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_batch(id: u64) {
    BATCH.store(id, Ordering::Relaxed);
}

/// An open span; recorded when dropped.
pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    outer_saved: Option<u64>,
}

/// Open a span named `name` (nothing when tracing is off).
pub fn span(name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| OUTER.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    Some(Span {
        name,
        id,
        parent,
        start_ns: now_ns(),
        outer_saved: None,
    })
}

/// Open a span around a call that fans work out to pool workers: spans the
/// workers open while it is open become its children.
pub fn outer_span(name: &'static str) -> Option<Span> {
    let mut span = span(name)?;
    span.outer_saved = Some(OUTER.swap(span.id, Ordering::Relaxed));
    Some(span)
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = now_ns();
        if let Some(saved) = self.outer_saved {
            OUTER.store(saved, Ordering::Relaxed);
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let rec = SpanRec {
            name: self.name,
            id: self.id,
            parent: self.parent,
            batch: BATCH.load(Ordering::Relaxed),
            start_ns: self.start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(rec);
    }
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span list poisoned by a panicking recorder"),
    )
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Self time per layer (the span-name prefix before the first `.`), in ns,
/// and the total duration of the root spans.
pub fn layer_self_ns(spans: &[SpanRec]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans {
        if s.parent == 0 {
            root_ns += s.duration_ns();
        }
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *layers.entry(layer).or_default() += s.duration_ns().saturating_sub(covered);
    }
    (layers, root_ns)
}

/// Length of the union of `intervals` clipped to `lo..hi` (children that run
/// concurrently on several workers count once).
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Write `spans` as CSV (`name,id,parent,batch,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,batch,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.batch, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
