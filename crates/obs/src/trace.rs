//! Structured tracing & flight recorder for the `pdmsf` stack.
//!
//! Aggregate histograms (the rest of this crate) tell us *that* p95
//! degrades under load, but not *why*: one slow batch hides behind a
//! thousand fast ones. This module captures per-batch **timelines** —
//! finished [`Span`]s (start and end in monotonic nanoseconds, thread id,
//! a [`TraceId`] tying every span to its batch, a [`Phase`] tag and two
//! free `u64` args) written into a process-wide lock-free [`Ring`]
//! buffer — and keeps only the pathological ones.
//!
//! ## One phase guard
//!
//! Every timed phase of the stack goes through [`TSpan`]: it spans the
//! phase on the ambient trace and, when given a histogram, records the
//! phase's length there too. Both come from the same two clock readings,
//! so a histogram sample equals its span's `end_ns − start_ns` exactly.
//! The guard writes its span to the ring when the phase ends, in one
//! slot: a phase still running is not in the ring, and a ring wrap drops
//! whole spans, never half of one.
//!
//! ## Two-tier cost policy
//!
//! Tracing follows the same policy as the metrics core:
//!
//! * **Off (default):** a guard without a histogram pays exactly one
//!   relaxed atomic load plus a predictable branch at begin, and one
//!   branch on drop. No clock read, no TLS access, no ring write. The
//!   `obs_overhead` bench gates this path.
//! * **On:** two clock reads per span and, when it ends, one
//!   compare-exchange taking the slot and seven atomic stores into a
//!   pre-allocated ring slot. No locks, no allocation, no syscalls on the
//!   emit path.
//!
//! ## TraceId propagation
//!
//! A [`TraceId`] is allocated once per service/engine batch and travels
//! through an ambient thread-local "current trace" slot ([`scope`]):
//! the sharded service sets it on the submitting thread, the worker pool
//! snapshots it into each job at submission and re-establishes it around
//! every slot it runs (so a slot run on a worker thread still attributes
//! to the batch that submitted it), and the engine and WAL read it
//! ambiently from whatever thread they run on. Layers never pass the id
//! through function signatures — the pool is the only place that carries
//! it across threads, and it does so explicitly.
//!
//! ## Flight recorder
//!
//! The ring is a sliding window: old spans are overwritten. Tail-based
//! retention ([`offer_capture`]) promotes a finished batch's spans to a
//! pinned capture buffer when its end-to-end latency exceeds a configured
//! threshold ([`set_capture_threshold_ns`]) or when a caller armed
//! [`capture_next`]. The pinned buffer holds at most [`CAPTURE_SLOTS`]
//! traces and evicts the *fastest* one on overflow, so under sustained
//! overload it converges to the slowest batches seen — exactly the ones
//! worth exporting.
//!
//! ## Export
//!
//! [`chrome_trace_json`] renders spans as Chrome trace-event JSON
//! complete events (loadable in Perfetto / `about://tracing`);
//! [`text_timeline`] renders a compact indented text timeline for
//! terminals and logs.

use std::cell::Cell;
use std::cmp::Reverse;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::Histogram;

/// Ring capacity used by [`enable_default`]: 64Ki spans ≈ 3.5 MiB, several
/// thousand batches of window at typical span counts.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Maximum traces pinned by the flight recorder; overflow evicts the
/// fastest captured trace (tail-based retention keeps the slowest).
pub const CAPTURE_SLOTS: usize = 16;

/// Identifies one traced batch. `0` is the reserved "not tracing" id —
/// every emission helper is inert on it, so untraced paths stay branchy
/// but silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The inert id: emissions against it are dropped.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id refers to a real traced batch.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Which phase of the stack a span describes. The tag doubles as the
/// span name (`name`) and layer (`cat`) in the Chrome export.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Service-level end-to-end batch (shard layer).
    Batch = 0,
    /// Tenant routing + plan fan-out on the submitting thread.
    Route = 1,
    /// Engine batch planning (validation, cancellation, dedup).
    Plan = 2,
    /// Engine apply (mirror and structure, in arrival order).
    Apply = 3,
    /// Engine query answering, after the batch's updates.
    Snapshot = 4,
    /// WAL record append (persist layer).
    WalAppend = 5,
    /// WAL fsync (persist layer).
    WalFsync = 6,
    /// One slot of a pool job, run by whichever thread claimed it.
    PoolRange = 7,
    /// One checkpoint serialization (persist layer).
    Checkpoint = 8,
    /// One shard's sub-batch: engine apply plus tenant weight sweeps.
    ShardApply = 9,
}

impl Phase {
    /// Every phase, in tag order.
    const ALL: [Phase; 10] = [
        Phase::Batch,
        Phase::Route,
        Phase::Plan,
        Phase::Apply,
        Phase::Snapshot,
        Phase::WalAppend,
        Phase::WalFsync,
        Phase::PoolRange,
        Phase::Checkpoint,
        Phase::ShardApply,
    ];

    /// Span name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Batch => "service.batch",
            Phase::Route => "service.route",
            Phase::Plan => "engine.plan",
            Phase::Apply => "engine.apply",
            Phase::Snapshot => "engine.snapshot",
            Phase::WalAppend => "wal.append",
            Phase::WalFsync => "wal.fsync",
            Phase::PoolRange => "pool.range",
            Phase::Checkpoint => "persist.checkpoint",
            Phase::ShardApply => "shard.apply",
        }
    }

    /// Which serving layer emits this phase (the Chrome `cat` field).
    pub fn layer(self) -> &'static str {
        match self {
            Phase::Batch | Phase::Route | Phase::ShardApply => "shard",
            Phase::Plan | Phase::Apply | Phase::Snapshot => "engine",
            Phase::WalAppend | Phase::WalFsync | Phase::Checkpoint => "persist",
            Phase::PoolRange => "pool",
        }
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Phase::ALL.get(v as usize).copied()
    }
}

/// One finished span, as returned by [`Ring::snapshot`] / [`spans`].
/// Plain data: sortable, cloneable, exportable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Global write sequence number (1-based, total order of writes).
    pub seq: u64,
    /// Monotonic nanoseconds since the trace clock epoch ([`now_ns`]) when
    /// the phase began.
    pub start_ns: u64,
    /// The same clock when the phase ended.
    pub end_ns: u64,
    /// Stable per-thread id (small integers in emission-thread order).
    pub tid: u64,
    /// The batch this span belongs to (raw [`TraceId`]).
    pub trace: u64,
    /// Phase tag.
    pub phase: Phase,
    /// First free argument (phase-specific: op counts, shard ids, ...).
    pub arg0: u64,
    /// Second free argument.
    pub arg1: u64,
}

/// The order of [`Ring::snapshot`] and [`text_timeline`]: by start, each
/// span before the spans it encloses. On equal starts the later end goes
/// first, then the later write (an enclosing span ends, and is written,
/// after the spans inside it).
fn order_key(s: &Span) -> (u64, Reverse<u64>, Reverse<u64>) {
    (s.start_ns, Reverse(s.end_ns), Reverse(s.seq))
}

/// One ring slot: the span's fields as independent atomics plus a
/// sequence word — 0 while empty, [`BUSY`] while a writer owns the slot,
/// otherwise the published span's sequence number — validated around
/// reads, so a torn read across a ring lap is detected and discarded
/// rather than surfacing as a frankenspan.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    /// Packed `tid << 8 | phase`.
    meta: AtomicU64,
    trace: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
}

/// [`Slot::seq`] while a writer owns the slot.
const BUSY: u64 = u64::MAX;

/// A lock-free fixed-capacity ring buffer of finished [`Span`]s. Writers
/// claim a slot with one `fetch_add` and overwrite the oldest span once
/// the ring is full; readers snapshot without stopping writers (spans
/// overwritten mid-read are detected via the per-slot sequence word and
/// skipped). A writer that finds its slot owned by another writer, or
/// already holding a later span, drops its span instead of waiting.
pub struct Ring {
    slots: Box<[Slot]>,
    /// Total spans ever written; `head % capacity` is the next slot.
    head: AtomicU64,
}

impl Ring {
    /// A ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever written (wrapped ones included).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Write one finished span. Lock-free: one `fetch_add`, one
    /// compare-exchange that takes the slot, and seven stores (fenced
    /// against the sequence word so readers see whole spans or nothing).
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        start_ns: u64,
        end_ns: u64,
        tid: u64,
        trace: u64,
        phase: Phase,
        arg0: u64,
        arg1: u64,
    ) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // Take the slot before touching its fields. A writer lapped on
        // the same slot by a later one would otherwise interleave its
        // stores with the later span after that span was published,
        // which no reader could detect. Acquire on success pairs with the
        // previous owner's release store of its sequence number, so that
        // span's field stores come before ours.
        let mut cur = slot.seq.load(Ordering::Relaxed);
        loop {
            if cur == BUSY || cur > idx + 1 {
                return;
            }
            match slot
                .seq
                .compare_exchange_weak(cur, BUSY, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        // Pairs with the acquire fence in `snapshot`: a reader that loads
        // any field stored below then sees `BUSY`, or a later sequence
        // word, when it re-checks `seq`. The release store of `idx + 1`
        // pairs with the reader's acquire load of `s1`.
        fence(Ordering::Release);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns, Ordering::Relaxed);
        slot.meta
            .store((tid << 8) | phase as u64, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.arg0.store(arg0, Ordering::Relaxed);
        slot.arg1.store(arg1, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Decode every currently-valid span, sorted by start with each span
    /// before the spans it encloses. Weakly consistent under concurrent
    /// writing: spans overwritten while being read are detected (sequence
    /// mismatch) and skipped.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 == BUSY {
                continue;
            }
            let start_ns = slot.start.load(Ordering::Relaxed);
            let end_ns = slot.end.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let trace = slot.trace.load(Ordering::Relaxed);
            let arg0 = slot.arg0.load(Ordering::Relaxed);
            let arg1 = slot.arg1.load(Ordering::Relaxed);
            // Pairs with the release fence in `emit` (see there).
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten mid-read
            }
            let Some(phase) = Phase::from_u8((meta & 0xff) as u8) else {
                continue;
            };
            out.push(Span {
                seq: s1,
                start_ns,
                end_ns,
                tid: meta >> 8,
                trace,
                phase,
                arg0,
                arg1,
            });
        }
        out.sort_by_key(order_key);
        out
    }
}

// ---- global tracer state ----

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static CAPTURE_NEXT: AtomicBool = AtomicBool::new(false);
/// 0 = threshold capture disabled.
static CAPTURE_THRESHOLD_NS: AtomicU64 = AtomicU64::new(0);
static RING: OnceLock<Ring> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static CAPTURED: Mutex<Vec<CapturedTrace>> = Mutex::new(Vec::new());

thread_local! {
    /// The ambient trace id of this thread (0 = none). Set by [`scope`];
    /// read by emission sites in every layer.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Stable small per-thread id, assigned on first trace emission.
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Whether tracing is on. The single relaxed load every emission site
/// pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on for the rest of the process, allocating the global
/// ring of [`DEFAULT_RING_CAPACITY`] slots on first call. Idempotent.
pub fn enable_default() {
    RING.get_or_init(|| Ring::new(DEFAULT_RING_CAPACITY));
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Monotonic nanoseconds since the process trace epoch. All threads
/// share one epoch, so timestamps are comparable across threads.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Stable small id for the calling thread.
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Allocate a fresh batch id, or [`TraceId::NONE`] when tracing is off
/// (so callers hold a single value that makes every later emission
/// inert).
pub fn next_id() -> TraceId {
    if !enabled() {
        return TraceId::NONE;
    }
    TraceId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

/// The ambient trace id of the calling thread ([`TraceId::NONE`] when
/// tracing is off or no scope is active).
#[inline]
pub fn current() -> TraceId {
    if !enabled() {
        return TraceId::NONE;
    }
    TraceId(CURRENT.with(|c| c.get()))
}

/// Restores the previous ambient trace id on drop (see [`scope`]).
pub struct ScopeGuard {
    prev: u64,
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Make `id` the calling thread's ambient trace id until the returned
/// guard drops. A [`TraceId::NONE`] scope is inert (the ambient id is
/// left untouched), so untraced batches pay nothing but the branch.
pub fn scope(id: TraceId) -> ScopeGuard {
    if !id.is_some() {
        return ScopeGuard {
            prev: 0,
            active: false,
        };
    }
    let prev = CURRENT.with(|c| c.replace(id.0));
    ScopeGuard { prev, active: true }
}

/// The phase guard: spans one phase on the **ambient** trace id, from
/// [`TSpan::begin`] to [`TSpan::end`] or drop, and records the phase's
/// length into an optional histogram. The clock is read once at begin and
/// once at end, and only when the guard has a histogram or an ambient
/// trace; the two readings are the span's `start_ns` and `end_ns`, and
/// their difference is the histogram sample. The span reaches the ring,
/// in one slot, when it ends. With neither, `begin` is one relaxed load +
/// branch and drop is one branch — the zero-cost tier.
pub struct TSpan<'a> {
    id: TraceId,
    phase: Phase,
    hist: Option<&'a Histogram>,
    /// Clock reading at begin ([`now_ns`]); 0 while unclocked.
    start_ns: u64,
    arg0: u64,
    arg1: u64,
}

impl<'a> TSpan<'a> {
    /// Begin `phase` on the current trace (inert if none), timing it into
    /// `hist` if given. `arg0`/`arg1` ride on the span. Writes nothing to
    /// the ring.
    #[inline]
    pub fn begin(phase: Phase, hist: Option<&'a Histogram>, arg0: u64, arg1: u64) -> TSpan<'a> {
        let mut span = TSpan {
            id: current(),
            phase,
            hist,
            start_ns: 0,
            arg0,
            arg1,
        };
        if span.clocked() {
            span.start_ns = now_ns();
        }
        span
    }

    /// End now instead of at scope end; returns the phase's length in
    /// nanoseconds (0 when the guard never read the clock).
    pub fn end(mut self) -> u64 {
        self.finish()
    }

    #[inline]
    fn clocked(&self) -> bool {
        self.id.is_some() || self.hist.is_some()
    }

    /// Read the clock, write the span and record the sample, once.
    fn finish(&mut self) -> u64 {
        if !self.clocked() {
            return 0;
        }
        let end_ns = now_ns();
        if self.id.is_some() {
            if let Some(ring) = RING.get() {
                ring.emit(
                    self.start_ns,
                    end_ns,
                    thread_id(),
                    self.id.0,
                    self.phase,
                    self.arg0,
                    self.arg1,
                );
            }
        }
        let ns = end_ns.saturating_sub(self.start_ns);
        if let Some(hist) = self.hist.take() {
            hist.record(ns);
        }
        self.id = TraceId::NONE;
        ns
    }
}

impl Drop for TSpan<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Every currently-valid span in the global ring, in [`Ring::snapshot`]
/// order. Empty when tracing was never enabled.
pub fn spans() -> Vec<Span> {
    RING.get().map_or_else(Vec::new, Ring::snapshot)
}

// ---- flight recorder ----

/// One batch's spans, promoted out of the ring by the flight recorder.
#[derive(Clone, Debug)]
pub struct CapturedTrace {
    /// The batch's raw [`TraceId`].
    pub trace: u64,
    /// End-to-end batch latency reported by the promoting layer.
    pub total_ns: u64,
    /// The batch's spans, in [`Ring::snapshot`] order.
    pub spans: Vec<Span>,
}

/// Arm the flight recorder to capture the next batch offered via
/// [`offer_capture`] regardless of its latency.
pub fn capture_next() {
    CAPTURE_NEXT.store(true, Ordering::Relaxed);
}

/// Capture every offered batch slower than `ns` (0 disables threshold
/// capture). Retention keeps the slowest [`CAPTURE_SLOTS`] batches.
pub fn set_capture_threshold_ns(ns: u64) {
    CAPTURE_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

/// Offer a finished batch to the flight recorder: promotes its spans
/// out of the ring into the pinned capture buffer if `capture_next` was
/// armed or `total_ns` meets the threshold. Returns whether the batch
/// was pinned. Layers that know a batch's end-to-end latency (the
/// sharded service, the serve harness) call this once per traced batch,
/// after its spans have ended.
pub fn offer_capture(id: TraceId, total_ns: u64) -> bool {
    if !enabled() || !id.is_some() {
        return false;
    }
    let armed = CAPTURE_NEXT.swap(false, Ordering::Relaxed);
    if !armed {
        let thr = CAPTURE_THRESHOLD_NS.load(Ordering::Relaxed);
        if thr == 0 || total_ns < thr {
            return false;
        }
    }
    let spans: Vec<Span> = spans().into_iter().filter(|s| s.trace == id.0).collect();
    if spans.is_empty() {
        return false;
    }
    let capture = CapturedTrace {
        trace: id.0,
        total_ns,
        spans,
    };
    let mut pinned = CAPTURED.lock().unwrap_or_else(|e| e.into_inner());
    if pinned.len() < CAPTURE_SLOTS {
        pinned.push(capture);
        return true;
    }
    // Tail-based retention: evict the fastest pinned trace, keep the
    // slowest CAPTURE_SLOTS seen since the last drain.
    let (fastest, min_ns) = pinned
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.total_ns))
        .min_by_key(|&(_, ns)| ns)
        .expect("pinned buffer non-empty");
    if total_ns <= min_ns {
        return false;
    }
    pinned[fastest] = capture;
    true
}

/// Drain the pinned capture buffer (slowest-first).
pub fn take_captured() -> Vec<CapturedTrace> {
    let mut pinned = CAPTURED.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = std::mem::take(&mut *pinned);
    out.sort_by_key(|c| Reverse(c.total_ns));
    out
}

// ---- exporters ----

/// Render spans as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `about://tracing` load), one complete event
/// (`"ph":"X"`) per span. Timestamps and durations are exported in
/// microseconds with nanosecond precision; `pid` is fixed at 1 (one
/// process), `tid` is the stable per-thread id, `cat` the emitting
/// layer, and the trace id plus both args ride in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"arg0\":{},\"arg1\":{}}}}}{}\n",
            s.phase.name(),
            s.phase.layer(),
            s.tid,
            us(s.start_ns),
            us(s.end_ns.saturating_sub(s.start_ns)),
            s.trace,
            s.arg0,
            s.arg1,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render spans as a compact indented text timeline: one line per span
/// (`+start duration name`) in [`Ring::snapshot`] order, indented once
/// per span that encloses it on its thread.
pub fn text_timeline(spans: &[Span]) -> String {
    let us = |ns: u64| format!("{}.{:03}us", ns / 1_000, ns % 1_000);
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| order_key(s));
    let mut out = String::new();
    for (i, s) in sorted.iter().enumerate() {
        // In this order a span's enclosers are the earlier spans on its
        // thread that end no earlier than it does.
        let depth = sorted[..i]
            .iter()
            .filter(|o| o.tid == s.tid && o.end_ns >= s.end_ns)
            .count();
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "+{:>12} {:>12}  {} trace={} tid={} args=({}, {})\n",
            us(s.start_ns),
            us(s.end_ns.saturating_sub(s.start_ns)),
            s.phase.name(),
            s.trace,
            s.tid,
            s.arg0,
            s.arg1
        ));
    }
    out
}

/// Sum of span lengths per phase across `spans`, as `(phase, total_ns)`
/// pairs in phase order. This is thread-time: a phase running on `k`
/// workers concurrently counts `k×`, so its share of a batch can exceed
/// 1.0.
pub fn phase_durations(spans: &[Span]) -> Vec<(Phase, u64)> {
    let mut totals = [0u64; Phase::ALL.len()];
    for s in spans {
        totals[s.phase as usize] += s.end_ns.saturating_sub(s.start_ns);
    }
    Phase::ALL
        .into_iter()
        .zip(totals)
        .filter(|&(_, ns)| ns > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight-recorder state (pinned captures, arm flag, threshold)
    /// is process-global; tests touching it serialize on this lock so
    /// the parallel test harness can't interleave their capture cycles.
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    /// A span of trace 3.
    fn span(seq: u64, start: u64, end: u64, tid: u64, phase: Phase, a0: u64, a1: u64) -> Span {
        Span {
            seq,
            start_ns: start,
            end_ns: end,
            tid,
            trace: 3,
            phase,
            arg0: a0,
            arg1: a1,
        }
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_capacity_events() {
        let ring = Ring::new(8);
        for i in 0..20u64 {
            ring.emit(i * 10, i * 10 + 5, 1, 7, Phase::Apply, i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(ring.written(), 20);
        assert_eq!(snap.len(), 8);
        // Exactly the last 8 writes survive, in order.
        let seqs: Vec<u64> = snap.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<u64>>());
        for s in &snap {
            assert_eq!(s.arg0, s.seq - 1);
            assert_eq!(
                (s.start_ns, s.end_ns),
                ((s.seq - 1) * 10, (s.seq - 1) * 10 + 5)
            );
            assert_eq!((s.tid, s.trace, s.phase), (1, 7, Phase::Apply));
        }
    }

    #[test]
    fn ring_single_slot_and_empty_snapshot() {
        let ring = Ring::new(0); // clamped to 1
        assert_eq!(ring.capacity(), 1);
        assert!(ring.snapshot().is_empty());
        ring.emit(5, 9, 2, 3, Phase::Plan, 0, 0);
        ring.emit(10, 12, 2, 3, Phase::Apply, 0, 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(
            (snap[0].phase, snap[0].start_ns, snap[0].end_ns),
            (Phase::Apply, 10, 12)
        );
    }

    #[test]
    fn ring_concurrent_writers_never_yield_torn_events() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        let ring = Arc::new(Ring::new(64));
        let stop = Arc::new(AtomicBool::new(false));
        // Every field of a written span is a function of (trace, arg0):
        // a decoded span violating it is a torn read the seq check failed
        // to catch.
        let check = |s: &Span| {
            assert_eq!(
                s.arg1,
                s.arg0.wrapping_mul(2654435761).wrapping_add(s.trace),
                "torn span decoded: {s:?}"
            );
            assert_eq!(
                (s.start_ns, s.end_ns, s.tid),
                (s.arg0, s.arg0 + s.trace, s.trace),
                "torn span decoded: {s:?}"
            );
        };
        // The writers start only once the reader runs, and the reader
        // validates at least one span before it honours `stop` (the
        // quiesced ring holds 64 valid spans), so it always checks some.
        let started = Arc::new(Barrier::new(2));
        let reader = {
            let ring = ring.clone();
            let stop = stop.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                started.wait();
                let mut validated = 0usize;
                while !(stop.load(Ordering::Relaxed) && validated > 0) {
                    for s in ring.snapshot() {
                        check(&s);
                        validated += 1;
                    }
                }
                validated
            })
        };
        started.wait();
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        ring.emit(
                            i,
                            i + t + 1,
                            t + 1,
                            t + 1,
                            Phase::PoolRange,
                            i,
                            i.wrapping_mul(2654435761).wrapping_add(t + 1),
                        );
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        stop.store(true, Ordering::Relaxed);
        let validated = reader.join().expect("reader");
        assert!(validated > 0, "the reader never saw a valid span");
        // Quiesced: a final snapshot decodes a full, consistent ring.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(ring.written(), 4 * 5_000);
        snap.iter().for_each(check);
    }

    #[test]
    fn chrome_trace_json_golden() {
        let spans = [
            span(3, 0, 10_123, 1, Phase::Batch, 96, 0),
            span(1, 1_500, 2_750, 1, Phase::Plan, 0, 0),
            span(2, 3_000, 3_400, 2, Phase::WalFsync, 8, 0),
        ];
        let golden = "{\"traceEvents\":[\n\
{\"name\":\"service.batch\",\"cat\":\"shard\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":10.123,\"args\":{\"trace\":3,\"arg0\":96,\"arg1\":0}},\n\
{\"name\":\"engine.plan\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.500,\"dur\":1.250,\"args\":{\"trace\":3,\"arg0\":0,\"arg1\":0}},\n\
{\"name\":\"wal.fsync\",\"cat\":\"persist\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":3.000,\"dur\":0.400,\"args\":{\"trace\":3,\"arg0\":8,\"arg1\":0}}\n\
],\"displayTimeUnit\":\"ms\"}\n";
        assert_eq!(chrome_trace_json(&spans), golden);
    }

    #[test]
    fn text_timeline_indents_nested_spans() {
        // Out of order, as any caller may pass them. On an equal start the
        // later end goes first (the batch encloses the route span, though
        // numbered before it here), and on an equal interval the later
        // write (the append encloses the fsync written before it).
        let spans = [
            span(1, 0, 3_000, 1, Phase::Batch, 96, 0),
            span(2, 1_200, 1_700, 1, Phase::Snapshot, 4, 0),
            span(3, 2_500, 2_600, 2, Phase::WalFsync, 1, 0),
            span(4, 2_500, 2_600, 2, Phase::WalAppend, 1, 16),
            span(5, 1_000, 2_000, 1, Phase::Apply, 0, 0),
            span(6, 0, 800, 1, Phase::Route, 96, 0),
        ];
        let text = text_timeline(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with('+') && lines[0].contains("service.batch"));
        assert!(lines[0].contains("3.000us"));
        assert!(lines[1].starts_with("  +") && lines[1].contains("service.route"));
        assert!(lines[2].starts_with("  +") && lines[2].contains("engine.apply"));
        assert!(lines[3].starts_with("    +") && lines[3].contains("engine.snapshot"));
        assert!(lines[3].contains("0.500us"));
        assert!(lines[4].contains("wal.append") && lines[4].contains("args=(1, 16)"));
        assert!(lines[4].starts_with('+') && lines[4].contains("0.100us"));
        assert!(lines[5].starts_with("  +") && lines[5].contains("wal.fsync"));
    }

    #[test]
    fn phase_durations_sum_closed_spans() {
        let spans = [
            span(1, 0, 100, 1, Phase::Apply, 0, 0),
            span(2, 200, 500, 1, Phase::Apply, 0, 0),
            span(3, 600, 850, 2, Phase::WalFsync, 0, 0),
        ];
        let durs = phase_durations(&spans);
        assert_eq!(durs, vec![(Phase::Apply, 400), (Phase::WalFsync, 250)]);
    }

    #[test]
    fn phase_durations_sum_overlapping_spans_across_threads() {
        let spans = [
            // Two workers applying concurrently: [0,100] and [50,180]
            // overlap, and both count in full.
            span(1, 0, 100, 1, Phase::Apply, 0, 0),
            span(2, 50, 180, 2, Phase::Apply, 0, 0),
            // Disjoint second apply window on worker 1: [300,350].
            span(3, 300, 350, 1, Phase::Apply, 0, 0),
            // Single-threaded phase.
            span(4, 400, 650, 1, Phase::WalFsync, 0, 0),
        ];
        assert_eq!(
            phase_durations(&spans),
            vec![(Phase::Apply, 280), (Phase::WalFsync, 250)]
        );
    }

    /// The batch's one slot is written when it ends, after the spans
    /// inside it, so a ring too small for the batch's inner spans still
    /// keeps the batch whole.
    #[test]
    fn a_span_outliving_the_ring_window_is_kept_whole() {
        let ring = Ring::new(4);
        for i in 0..10u64 {
            ring.emit(100 * i + 10, 100 * i + 60, 1, 3, Phase::PoolRange, i, i + 1);
        }
        ring.emit(0, 1_000, 1, 3, Phase::Batch, 96, 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            (snap[0].phase, snap[0].start_ns, snap[0].end_ns),
            (Phase::Batch, 0, 1_000)
        );
        assert_eq!(
            phase_durations(&snap),
            vec![(Phase::Batch, 1_000), (Phase::PoolRange, 3 * 50)]
        );
        let text = text_timeline(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('+') && lines[0].contains("service.batch"));
        for line in &lines[1..] {
            assert!(
                line.starts_with("  +") && line.contains("pool.range"),
                "{line}"
            );
        }
    }

    #[test]
    fn global_tracer_roundtrip_and_flight_recorder() {
        // The global tracer is process-wide; this test shares it with any
        // other test that enables tracing, so it filters by its own ids.
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable_default();
        assert!(enabled());
        let id = next_id();
        assert!(id.is_some());
        {
            let _g = scope(id);
            assert_eq!(current(), id);
            let span = TSpan::begin(Phase::Batch, None, 11, 0);
            TSpan::begin(Phase::WalFsync, None, 1, 2).end();
            span.end();
        }
        assert_ne!(current(), id, "scope must restore on drop");
        let mine: Vec<Span> = spans().into_iter().filter(|s| s.trace == id.0).collect();
        let shape: Vec<Phase> = mine.iter().map(|s| s.phase).collect();
        assert_eq!(shape, [Phase::Batch, Phase::WalFsync]);
        assert!(mine[0].start_ns <= mine[1].start_ns && mine[1].end_ns <= mine[0].end_ns);
        assert_eq!((mine[0].arg0, mine[1].arg0, mine[1].arg1), (11, 1, 2));

        // Threshold capture: too fast → not pinned; armed → pinned.
        set_capture_threshold_ns(u64::MAX);
        assert!(!offer_capture(id, 1_000));
        capture_next();
        assert!(offer_capture(id, 1_000));
        set_capture_threshold_ns(0);
        let captured = take_captured();
        let mine: Vec<&CapturedTrace> = captured.iter().filter(|c| c.trace == id.0).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].total_ns, 1_000);
        assert_eq!(mine[0].spans.len(), 2);
    }

    /// A guard with a histogram under an ambient trace writes one span
    /// when it ends, and records exactly that span's `end_ns − start_ns`;
    /// a guard with neither reads no clock and writes nothing.
    #[test]
    fn a_guard_records_its_own_span_and_an_idle_guard_nothing() {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable_default();
        let hist = Histogram::new();
        let id = next_id();
        let ns = {
            let _g = scope(id);
            let guard = TSpan::begin(Phase::Snapshot, Some(&hist), 3, 1);
            assert!(
                spans().iter().all(|s| s.trace != id.0),
                "begin wrote to the ring"
            );
            guard.end()
        };
        let mine: Vec<Span> = spans().into_iter().filter(|s| s.trace == id.0).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(
            (mine[0].phase, mine[0].arg0, mine[0].arg1),
            (Phase::Snapshot, 3, 1)
        );
        let span_ns = mine[0].end_ns - mine[0].start_ns;
        let s = hist.snapshot();
        assert_eq!((s.count, s.sum, ns), (1, span_ns, span_ns));

        // No scope is active here, so these guards have neither.
        let before = spans();
        assert_eq!(TSpan::begin(Phase::Plan, None, 0, 0).end(), 0);
        {
            let _idle = TSpan::begin(Phase::Apply, None, 0, 0);
        }
        assert_eq!(spans(), before, "an idle guard wrote a span");
    }

    #[test]
    fn capture_retention_keeps_the_slowest() {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable_default();
        // Fill well past CAPTURE_SLOTS with ascending latencies; drain and
        // check only the slowest survived. Uses its own ids to coexist
        // with the other global-tracer test.
        let _ = take_captured(); // start from an empty pinned buffer
        let mut ids = Vec::new();
        for i in 0..(CAPTURE_SLOTS as u64 + 8) {
            let id = next_id();
            {
                let _g = scope(id);
                TSpan::begin(Phase::Batch, None, i, 0).end();
            }
            capture_next();
            assert!(offer_capture(id, 1_000 + i));
            ids.push((id.0, 1_000 + i));
        }
        let captured = take_captured();
        assert_eq!(captured.len(), CAPTURE_SLOTS);
        let slowest_kept: Vec<u64> = captured.iter().map(|c| c.total_ns).collect();
        let expected: Vec<u64> = ids
            .iter()
            .rev()
            .take(CAPTURE_SLOTS)
            .map(|&(_, ns)| ns)
            .collect();
        assert_eq!(slowest_kept, expected, "retention must keep the slowest");
    }
}
