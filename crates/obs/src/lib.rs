//! Zero-dependency, thread-safe metrics core for the `pdmsf` stack.
//!
//! Every serving layer (the worker pool, the batch engine, the sharded
//! service, the persistence layer) records into this crate, and everything
//! it records is scrapeable through one [`Registry::render_text`] call in
//! the Prometheus text exposition format. Nothing here allocates, locks or
//! syscalls on the record path:
//!
//! * [`Counter`] / [`Gauge`] — one relaxed atomic read-modify-write per
//!   update.
//! * [`Histogram`] — log2-bucketed fixed-size latency histogram: a record
//!   is a `leading_zeros` + three relaxed `fetch_add`s (bucket, count,
//!   sum). Count and sum are exact; quantiles are estimated from the
//!   buckets (see *Accuracy* below).
//! * [`trace::TSpan`] — the one phase guard: it times a phase into an
//!   optional histogram and spans it on the ambient trace, both from the
//!   same pair of clock readings. With neither a histogram nor a trace it
//!   never reads the clock: one branch at begin and one on drop.
//!
//! ## Overhead model
//!
//! The record path costs one clock-read pair per timed phase (~20-50ns
//! each) plus a handful of relaxed atomics (~1-5ns each, uncontended).
//! The engine times three phases per *batch* (hundreds to thousands of
//! ops), so instrumentation amortizes to well under 1ns/op —
//! the `obs_overhead` harness bench pins the end-to-end regression of an
//! instrumented engine under 2% of the uninstrumented median. Registration
//! (name lookup) takes a mutex, but happens once per metric at
//! enable-time: layers resolve `Arc` handles up front and the hot path
//! never touches the registry again.
//!
//! ## Accuracy
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket `i` holds
//! `[2^(i-1), 2^i)`, and the last bucket is unbounded. A quantile estimate
//! first finds the bucket containing the target rank — always the same
//! bucket as the exact sample quantile, since counts are exact — then
//! interpolates by rank position inside it, so the estimate is off by at
//! most one bucket width (a factor of 2 in the worst case, typically much
//! less). Count and sum are exact. Concurrent snapshots are weakly
//! consistent (a racing record may appear in `count` but not yet in its
//! bucket); quiesce recorders before asserting exact totals.
//!
//! ## Naming conventions
//!
//! Metric families are named `pdmsf_<layer>_<metric>`, with the layer one
//! of `pool`, `engine`, `shard`, `persist`. Counters end in `_total`,
//! duration histograms in `_ns` (nanosecond values), size histograms in
//! the unit they count (`_ops`, `_bytes`). Per-shard series carry a single
//! `shard="<index>"` label. The process-wide registry is [`global`];
//! layers register there so one `render_text` covers the whole stack.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub mod trace;

/// Number of histogram buckets: bucket 0 for the value 0, buckets
/// `1..=62` for `[2^(i-1), 2^i)`, bucket 63 unbounded above `2^62 - 1`.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: its bit length, capped at the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper edge of bucket `i` (`u64::MAX` for the unbounded last
/// bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower edge of bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A monotonically increasing counter. All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A free-standing counter (registry-managed ones come from
    /// [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge. All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (negative to decrement).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-size log2-bucketed histogram with exact count and sum.
/// Recording is lock-free (relaxed atomics); see the crate docs for the
/// accuracy and overhead model.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest observed value (`u64::MAX` while empty).
    min: AtomicU64,
    /// Largest observed value (0 while empty).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty free-standing histogram (registry-managed ones come from
    /// [`Registry::histogram`]).
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Capture the current bucket counts, count and sum. Weakly consistent
    /// under concurrent recording (see the crate docs).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            // Normalize the empty sentinel so snapshots are plain data.
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain integers, queryable for
/// quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations (exact).
    pub count: u64,
    /// Sum of all observed values (exact, wrapping).
    pub sum: u64,
    /// Smallest observed value (exact; 0 on an empty snapshot).
    pub min: u64,
    /// Largest observed value (exact; 0 on an empty snapshot).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`): find the bucket holding
    /// the target rank, then interpolate by rank position inside it. The
    /// estimate falls in the same bucket as the exact sample quantile.
    /// Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let within = rank - seen; // 1..=c
                let width = hi - lo;
                return lo + ((width as u128 * within as u128) / c as u128) as u64;
            }
            seen += c;
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// What kind of instrument a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    /// At most one `key="value"` label pair per series (all the stack
    /// needs: `shard="<i>"`).
    label: Option<(String, String)>,
    handle: Handle,
}

/// One histogram series as returned by [`Registry::histogram_snapshots`]:
/// family name, optional `(label_key, label_value)` pair, snapshot.
pub type HistogramEntry = (String, Option<(String, String)>, HistSnapshot);

struct Family {
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A registry of named metric families. Registration is get-or-create and
/// takes a mutex; the returned `Arc` handles are lock-free to update.
/// Families render sorted by name, series sorted by label, so the
/// exposition text is deterministic for deterministic values.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry. Layers normally share [`global`]; fresh
    /// registries are for tests.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
        kind: Kind,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric family {name} registered as {} and re-requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        let wanted = label.map(|(k, v)| (k.to_string(), v.to_string()));
        if let Some(s) = family.series.iter().find(|s| s.label == wanted) {
            return s.handle.clone();
        }
        let handle = make();
        family.series.push(Series {
            label: wanted,
            handle: handle.clone(),
        });
        handle
    }

    /// Get or register the unlabeled counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.series(name, help, None, Kind::Counter, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get or register the series of counter family `name` carrying the
    /// label `key="value"` (e.g. per-reason reject counters).
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str, help: &str) -> Arc<Counter> {
        match self.series(name, help, Some((key, value)), Kind::Counter, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get or register the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.series(name, help, None, Kind::Gauge, || {
            Handle::Gauge(Arc::new(Gauge::new()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get or register the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.series(name, help, None, Kind::Histogram, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get or register the series of histogram family `name` carrying the
    /// label `key="value"` (per-shard latency series).
    pub fn histogram_labeled(
        &self,
        name: &str,
        key: &str,
        value: &str,
        help: &str,
    ) -> Arc<Histogram> {
        match self.series(name, help, Some((key, value)), Kind::Histogram, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Snapshot every histogram series: `(family, label, snapshot)`, in
    /// render order. For latency tables (`examples/metrics_dump.rs`).
    pub fn histogram_snapshots(&self) -> Vec<HistogramEntry> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for (name, family) in inner.iter() {
            if family.kind != Kind::Histogram {
                continue;
            }
            let mut rows: Vec<&Series> = family.series.iter().collect();
            rows.sort_by(|a, b| a.label.cmp(&b.label));
            for s in rows {
                if let Handle::Histogram(h) = &s.handle {
                    out.push((name.clone(), s.label.clone(), h.snapshot()));
                }
            }
        }
        out
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, one line per
    /// sample, histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count`. Bucket lines stop at the highest non-empty bucket
    /// (plus `+Inf`), keeping the text proportional to the observed range.
    pub fn render_text(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in inner.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            let mut rows: Vec<&Series> = family.series.iter().collect();
            rows.sort_by(|a, b| a.label.cmp(&b.label));
            for s in rows {
                let label = |extra: Option<(&str, String)>| -> String {
                    let mut pairs = Vec::new();
                    if let Some((k, v)) = &s.label {
                        pairs.push(format!("{k}=\"{v}\""));
                    }
                    if let Some((k, v)) = extra {
                        pairs.push(format!("{k}=\"{v}\""));
                    }
                    if pairs.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", pairs.join(","))
                    }
                };
                match &s.handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!("{name}{} {}\n", label(None), c.get()));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&format!("{name}{} {}\n", label(None), g.get()));
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        let last = snap
                            .buckets
                            .iter()
                            .rposition(|&c| c != 0)
                            .map(|i| i.min(BUCKETS - 2));
                        let mut cum = 0u64;
                        if let Some(last) = last {
                            for i in 0..=last {
                                cum += snap.buckets[i];
                                out.push_str(&format!(
                                    "{name}_bucket{} {cum}\n",
                                    label(Some(("le", bucket_upper(i).to_string())))
                                ));
                            }
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            label(Some(("le", "+Inf".to_string()))),
                            snap.count
                        ));
                        out.push_str(&format!("{name}_sum{} {}\n", label(None), snap.sum));
                        out.push_str(&format!("{name}_count{} {}\n", label(None), snap.count));
                        out.push_str(&format!("{name}_min{} {}\n", label(None), snap.min));
                        out.push_str(&format!("{name}_max{} {}\n", label(None), snap.max));
                    }
                }
            }
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every `pdmsf` layer records into. One
/// [`Registry::render_text`] here is the scrape surface of the whole
/// stack.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Every bucket edge: lower is inside, lower-1 is in the previous.
        for i in 1..BUCKETS - 1 {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper edge of bucket {i}");
        }
        // The last bucket is unbounded.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_count_and_sum_are_exact() {
        let h = Histogram::new();
        let values = [0u64, 1, 1, 5, 17, 1023, 1024, 1 << 40];
        for &v in &values {
            h.record(v);
        }
        for _ in 0..3 {
            h.record(7);
        }
        let s = h.snapshot();
        assert_eq!(s.count, values.len() as u64 + 3);
        assert_eq!(s.sum, values.iter().sum::<u64>() + 21);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the ones
        assert_eq!(s.buckets[3], 4); // 5 and 7×3
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1 << 40);
    }

    #[test]
    fn min_max_are_exact_and_empty_safe() {
        let h = Histogram::new();
        let empty = h.snapshot();
        assert_eq!((empty.min, empty.max), (0, 0));
        h.record(17);
        let one = h.snapshot();
        assert_eq!((one.min, one.max), (17, 17));
        h.record(3);
        h.record(900);
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (3, 900));
    }

    /// Quantile estimates land in the same bucket as the exact sample
    /// quantile — within a factor of 2 (one bucket) of it.
    #[test]
    fn quantile_estimates_stay_within_one_bucket() {
        let mut values: Vec<u64> = (0..1000u64).map(|i| (i * i * 7919) % 100_000).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for &q in &[0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let exact =
                values[((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1];
            let est = snap.quantile(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(exact),
                "q={q}: estimate {est} not in the exact quantile's bucket ({exact})"
            );
            // One-bucket error bound, stated multiplicatively.
            if exact > 0 {
                let ratio = est.max(exact) as f64 / est.min(exact).max(1) as f64;
                assert!(ratio <= 2.0, "q={q}: {est} vs exact {exact}");
            }
        }
        assert_eq!(
            snap.quantile(0.5).max(1).ilog2(),
            values[499].max(1).ilog2()
        );
    }

    #[test]
    fn quantiles_of_empty_and_singleton() {
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        for &q in &[0.0, 0.5, 1.0] {
            assert_eq!(bucket_index(s.quantile(q)), bucket_index(42));
        }
    }

    /// Outside any trace scope a guard with a histogram still times its
    /// phase, whether ended or dropped; one without reads no clock.
    #[test]
    fn spans_record_and_none_spans_do_not() {
        use trace::{Phase, TSpan};
        let h = Histogram::new();
        let ns = TSpan::begin(Phase::Plan, Some(&h), 0, 0).end();
        {
            let _t = TSpan::begin(Phase::Apply, Some(&h), 0, 0);
        }
        assert_eq!(TSpan::begin(Phase::Plan, None, 0, 0).end(), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.sum >= ns);
    }

    #[test]
    fn registry_get_or_register_returns_the_same_instrument() {
        let r = Registry::new();
        let c1 = r.counter("pdmsf_test_total", "a test counter");
        let c2 = r.counter("pdmsf_test_total", "a test counter");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        let h1 = r.histogram_labeled("pdmsf_test_ns", "shard", "0", "h");
        let h2 = r.histogram_labeled("pdmsf_test_ns", "shard", "1", "h");
        let h1b = r.histogram_labeled("pdmsf_test_ns", "shard", "0", "h");
        h1.record(1);
        h1b.record(1);
        h2.record(1);
        let snaps = r.histogram_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].2.count, 2);
        assert_eq!(snaps[1].2.count, 1);
    }

    #[test]
    fn counter_labeled_series_are_independent_and_shared() {
        let r = Registry::new();
        let a = r.counter_labeled("pdmsf_test_rejects_total", "reason", "self_loop", "rejects");
        let b = r.counter_labeled("pdmsf_test_rejects_total", "reason", "dead_edge", "rejects");
        let a2 = r.counter_labeled("pdmsf_test_rejects_total", "reason", "self_loop", "rejects");
        a.add(2);
        a2.inc();
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 1);
        let text = r.render_text();
        assert!(text.contains("pdmsf_test_rejects_total{reason=\"self_loop\"} 3"));
        assert!(text.contains("pdmsf_test_rejects_total{reason=\"dead_edge\"} 1"));
        assert_eq!(
            text.matches("# TYPE pdmsf_test_rejects_total counter")
                .count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("pdmsf_test_total", "a counter");
        let _ = r.gauge("pdmsf_test_total", "now a gauge?");
    }

    /// The exposition format, pinned byte-for-byte on a deterministic
    /// registry: HELP/TYPE headers, label placement, cumulative buckets
    /// ending at `+Inf`, `_sum`/`_count`, families sorted by name.
    #[test]
    fn render_text_golden() {
        let r = Registry::new();
        r.counter("pdmsf_demo_ops_total", "operations processed")
            .add(7);
        r.gauge("pdmsf_demo_workers", "worker threads").set(3);
        let h = r.histogram("pdmsf_demo_latency_ns", "op latency");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(6);
        let s = r.histogram_labeled("pdmsf_demo_shard_ns", "shard", "2", "per-shard latency");
        s.record(3);
        let golden = "\
# HELP pdmsf_demo_latency_ns op latency
# TYPE pdmsf_demo_latency_ns histogram
pdmsf_demo_latency_ns_bucket{le=\"0\"} 1
pdmsf_demo_latency_ns_bucket{le=\"1\"} 2
pdmsf_demo_latency_ns_bucket{le=\"3\"} 2
pdmsf_demo_latency_ns_bucket{le=\"7\"} 4
pdmsf_demo_latency_ns_bucket{le=\"+Inf\"} 4
pdmsf_demo_latency_ns_sum 12
pdmsf_demo_latency_ns_count 4
pdmsf_demo_latency_ns_min 0
pdmsf_demo_latency_ns_max 6
# HELP pdmsf_demo_ops_total operations processed
# TYPE pdmsf_demo_ops_total counter
pdmsf_demo_ops_total 7
# HELP pdmsf_demo_shard_ns per-shard latency
# TYPE pdmsf_demo_shard_ns histogram
pdmsf_demo_shard_ns_bucket{shard=\"2\",le=\"0\"} 0
pdmsf_demo_shard_ns_bucket{shard=\"2\",le=\"1\"} 0
pdmsf_demo_shard_ns_bucket{shard=\"2\",le=\"3\"} 1
pdmsf_demo_shard_ns_bucket{shard=\"2\",le=\"+Inf\"} 1
pdmsf_demo_shard_ns_sum{shard=\"2\"} 3
pdmsf_demo_shard_ns_count{shard=\"2\"} 1
pdmsf_demo_shard_ns_min{shard=\"2\"} 3
pdmsf_demo_shard_ns_max{shard=\"2\"} 3
# HELP pdmsf_demo_workers worker threads
# TYPE pdmsf_demo_workers gauge
pdmsf_demo_workers 3
";
        assert_eq!(r.render_text(), golden);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("pdmsf_obs_selftest_total", "self test");
        let b = global().counter("pdmsf_obs_selftest_total", "self test");
        a.inc();
        assert_eq!(b.get(), a.get());
    }
}
