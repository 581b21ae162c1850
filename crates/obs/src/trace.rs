//! Structured tracing & flight recorder for the `pdmsf` stack.
//!
//! Aggregate histograms (the rest of this crate) tell us *that* p95
//! degrades under load, but not *why*: one slow batch hides behind a
//! thousand fast ones. This module captures per-batch **timelines** —
//! structured [`TraceEvent`]s (begin/end/instant, monotonic nanoseconds,
//! thread id, a [`TraceId`] tying every event to its batch, a [`Phase`]
//! tag and two free `u64` args) written into a process-wide lock-free
//! [`Ring`] buffer — and keeps only the pathological ones.
//!
//! ## Two-tier cost policy
//!
//! Tracing follows the same policy as the metrics core:
//!
//! * **Off (default):** every emission site pays exactly one relaxed
//!   atomic load plus a predictable branch. No clock read, no TLS access,
//!   no ring write. The `obs_overhead` bench gates this path.
//! * **On:** one clock read, one compare-exchange taking the slot and six
//!   atomic stores per event into a pre-allocated ring slot. No locks, no
//!   allocation, no syscalls on the emit path.
//!
//! ## TraceId propagation
//!
//! A [`TraceId`] is allocated once per service/engine batch and travels
//! through an ambient thread-local "current trace" slot ([`scope`]):
//! the sharded service sets it on the submitting thread, the worker pool
//! snapshots it into each job at submission and re-establishes it around
//! every executed shard range (so **stolen** ranges still attribute to
//! the batch that submitted them), and the engine and WAL read it
//! ambiently from whatever thread they run on. Layers never pass the id
//! through function signatures — the pool is the only place that carries
//! it across threads, and it does so explicitly.
//!
//! ## Flight recorder
//!
//! The ring is a sliding window: old events are overwritten. Tail-based
//! retention ([`offer_capture`]) promotes a batch's events to a pinned
//! capture buffer when its end-to-end latency exceeds a configured
//! threshold ([`set_capture_threshold_ns`]) or when a caller armed
//! [`capture_next`]. The pinned buffer holds at most [`CAPTURE_SLOTS`]
//! traces and evicts the *fastest* one on overflow, so under sustained
//! overload it converges to the slowest batches seen — exactly the ones
//! worth exporting.
//!
//! ## Export
//!
//! [`chrome_trace_json`] renders events in the Chrome trace-event JSON
//! format (loadable in Perfetto / `about://tracing`); [`text_timeline`]
//! renders a compact indented text timeline for terminals and logs.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity used by [`enable_default`]: 64Ki events ≈ 3 MiB, several
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

/// Which phase of the stack an event describes. The tag doubles as the
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
    /// Conflict coloring / group formation for concurrent apply.
    Group = 3,
    /// Engine apply (serial or grouped concurrent).
    Apply = 4,
    /// Engine query snapshot point.
    Snapshot = 5,
    /// WAL record append (persist layer).
    WalAppend = 6,
    /// WAL fsync (persist layer).
    WalFsync = 7,
    /// One contiguous shard range executed by a pool executor.
    PoolRange = 8,
    /// Engine mirror pass (cross-shard edge mirrors).
    Mirror = 9,
}

impl Phase {
    /// Span name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Batch => "service.batch",
            Phase::Route => "service.route",
            Phase::Plan => "engine.plan",
            Phase::Group => "engine.group",
            Phase::Apply => "engine.apply",
            Phase::Snapshot => "engine.snapshot",
            Phase::WalAppend => "wal.append",
            Phase::WalFsync => "wal.fsync",
            Phase::PoolRange => "pool.range",
            Phase::Mirror => "engine.mirror",
        }
    }

    /// Which serving layer emits this phase (the Chrome `cat` field).
    pub fn layer(self) -> &'static str {
        match self {
            Phase::Batch | Phase::Route => "shard",
            Phase::Plan | Phase::Group | Phase::Apply | Phase::Snapshot | Phase::Mirror => "engine",
            Phase::WalAppend | Phase::WalFsync => "persist",
            Phase::PoolRange => "pool",
        }
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            0 => Phase::Batch,
            1 => Phase::Route,
            2 => Phase::Plan,
            3 => Phase::Group,
            4 => Phase::Apply,
            5 => Phase::Snapshot,
            6 => Phase::WalAppend,
            7 => Phase::WalFsync,
            8 => Phase::PoolRange,
            9 => Phase::Mirror,
            _ => return None,
        })
    }
}

/// Span boundary or point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Span start.
    Begin = 0,
    /// Span end (matches the most recent unmatched Begin of the same
    /// trace/thread/phase).
    End = 1,
    /// Point-in-time marker.
    Instant = 2,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Instant,
            _ => return None,
        })
    }
}

/// One decoded trace event, as returned by [`Ring::snapshot`] /
/// [`events`]. Plain data: sortable, cloneable, exportable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission sequence number (1-based, total order of writes).
    pub seq: u64,
    /// Monotonic nanoseconds since the trace clock epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// Stable per-thread id (small integers in emission-thread order).
    pub tid: u64,
    /// The batch this event belongs to (raw [`TraceId`]).
    pub trace: u64,
    /// Phase tag.
    pub phase: Phase,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// First free argument (phase-specific: op counts, shard ids, ...).
    pub arg0: u64,
    /// Second free argument.
    pub arg1: u64,
}

/// One ring slot: the event fields as independent atomics plus a
/// sequence word — 0 while empty, [`BUSY`] while a writer owns the slot,
/// otherwise the published event's sequence number — validated around
/// reads, so a torn read across a ring lap is detected and discarded
/// rather than surfacing as a frankenevent.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    /// Packed `tid << 16 | phase << 8 | kind`.
    meta: AtomicU64,
    trace: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
}

/// [`Slot::seq`] while a writer owns the slot.
const BUSY: u64 = u64::MAX;

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            arg0: AtomicU64::new(0),
            arg1: AtomicU64::new(0),
        }
    }
}

/// A lock-free fixed-capacity ring buffer of [`TraceEvent`]s. Writers
/// claim a slot with one `fetch_add` and overwrite the oldest event once
/// the ring is full; readers snapshot without stopping writers (events
/// overwritten mid-read are detected via the per-slot sequence word and
/// skipped). A writer that finds its slot owned by another writer, or
/// already holding a later event, drops its event instead of waiting.
pub struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever written; `head % capacity` is the next slot.
    head: AtomicU64,
}

impl Ring {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever written (wrapped ones included).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Write one event. Lock-free: one `fetch_add`, one compare-exchange
    /// that takes the slot, and six stores (fenced against the sequence
    /// word so readers see whole events or nothing).
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        ts_ns: u64,
        tid: u64,
        trace: u64,
        phase: Phase,
        kind: EventKind,
        arg0: u64,
        arg1: u64,
    ) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // Take the slot before touching its fields. A writer lapped on
        // the same slot by a later one would otherwise interleave its
        // stores with the later event after that event was published,
        // which no reader could detect. Acquire on success pairs with the
        // previous owner's release store of its sequence number, so that
        // event's field stores come before ours.
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
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.meta.store(
            (tid << 16) | ((phase as u64) << 8) | kind as u64,
            Ordering::Relaxed,
        );
        slot.trace.store(trace, Ordering::Relaxed);
        slot.arg0.store(arg0, Ordering::Relaxed);
        slot.arg1.store(arg1, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Decode every currently-valid event, sorted by `(ts_ns, seq)`.
    /// Weakly consistent under concurrent writing: events overwritten
    /// while being read are detected (sequence mismatch) and skipped.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 == BUSY {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
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
            let (Some(phase), Some(kind)) = (
                Phase::from_u8(((meta >> 8) & 0xff) as u8),
                EventKind::from_u8((meta & 0xff) as u8),
            ) else {
                continue;
            };
            out.push(TraceEvent {
                seq: s1,
                ts_ns: ts,
                tid: meta >> 16,
                trace,
                phase,
                kind,
                arg0,
                arg1,
            });
        }
        out.sort_by_key(|e| (e.ts_ns, e.seq));
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

/// Turn tracing on, allocating the global ring with `capacity` slots on
/// first call (the capacity is fixed by whoever enables first; later
/// calls just re-enable). Idempotent.
pub fn enable(capacity: usize) {
    RING.get_or_init(|| Ring::new(capacity));
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// [`enable`] with [`DEFAULT_RING_CAPACITY`].
pub fn enable_default() {
    enable(DEFAULT_RING_CAPACITY);
}

/// Turn tracing off. The ring and any pinned captures are retained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
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

/// Emit one event against `id`. Inert when tracing is off or `id` is
/// [`TraceId::NONE`].
#[inline]
pub fn emit(id: TraceId, phase: Phase, kind: EventKind, arg0: u64, arg1: u64) {
    if !enabled() || !id.is_some() {
        return;
    }
    emit_slow(id, phase, kind, arg0, arg1);
}

#[cold]
fn emit_slow(id: TraceId, phase: Phase, kind: EventKind, arg0: u64, arg1: u64) {
    let Some(ring) = RING.get() else { return };
    ring.emit(now_ns(), thread_id(), id.0, phase, kind, arg0, arg1);
}

/// Emit an [`EventKind::Instant`] against the ambient trace id.
#[inline]
pub fn instant(phase: Phase, arg0: u64, arg1: u64) {
    emit(current(), phase, EventKind::Instant, arg0, arg1);
}

/// A drop-guard span against the **ambient** trace id: emits Begin at
/// construction and End on drop. When tracing is off (or no scope is
/// active) construction is one relaxed load + branch and drop is one
/// branch — the zero-cost tier.
pub struct TSpan {
    id: TraceId,
    phase: Phase,
}

impl TSpan {
    /// Begin a span of `phase` on the current trace (inert if none).
    #[inline]
    pub fn start(phase: Phase, arg0: u64, arg1: u64) -> TSpan {
        let id = current();
        emit(id, phase, EventKind::Begin, arg0, arg1);
        TSpan { id, phase }
    }

    /// End now instead of at scope end.
    pub fn stop(self) {}
}

impl Drop for TSpan {
    fn drop(&mut self) {
        emit(self.id, self.phase, EventKind::End, 0, 0);
    }
}

/// Every currently-valid event in the global ring, sorted by time.
/// Empty when tracing was never enabled.
pub fn events() -> Vec<TraceEvent> {
    match RING.get() {
        Some(r) => r.snapshot(),
        None => Vec::new(),
    }
}

// ---- flight recorder ----

/// One batch's events, promoted out of the ring by the flight recorder.
#[derive(Clone, Debug)]
pub struct CapturedTrace {
    /// The batch's raw [`TraceId`].
    pub trace: u64,
    /// End-to-end batch latency reported by the promoting layer.
    pub total_ns: u64,
    /// The batch's events, time-sorted.
    pub events: Vec<TraceEvent>,
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

/// Offer a finished batch to the flight recorder: promotes its events
/// out of the ring into the pinned capture buffer if `capture_next` was
/// armed or `total_ns` meets the threshold. Returns whether the batch
/// was pinned. Layers that know a batch's end-to-end latency (the
/// sharded service, the serve harness) call this once per traced batch.
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
    let events: Vec<TraceEvent> = events().into_iter().filter(|e| e.trace == id.0).collect();
    if events.is_empty() {
        return false;
    }
    let capture = CapturedTrace {
        trace: id.0,
        total_ns,
        events,
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
    out.sort_by_key(|c| std::cmp::Reverse(c.total_ns));
    out
}

// ---- exporters ----

/// Render events as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `about://tracing` load). Timestamps are exported
/// in microseconds with nanosecond precision; `pid` is fixed at 1 (one
/// process), `tid` is the stable per-thread id, `cat` the emitting
/// layer, and the trace id plus both args ride in `args`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let scope = if e.kind == EventKind::Instant {
            ",\"s\":\"t\""
        } else {
            ""
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\"{},\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"args\":{{\"trace\":{},\"arg0\":{},\"arg1\":{}}}}}{}\n",
            e.phase.name(),
            e.phase.layer(),
            ph,
            scope,
            e.tid,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            e.trace,
            e.arg0,
            e.arg1,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render events as a compact indented text timeline: one line per
/// completed span (`+start duration name`), nested spans indented,
/// instants as points. Spans still open at the end of the event window
/// render with an unknown duration.
pub fn text_timeline(events: &[TraceEvent]) -> String {
    struct Line {
        start_ns: u64,
        seq: u64,
        depth: usize,
        text: String,
    }
    let us = |ns: u64| format!("{}.{:03}us", ns / 1_000, ns % 1_000);
    let mut lines: Vec<Line> = Vec::new();
    // Open Begin events per thread, matched LIFO by (trace, phase).
    let mut open: Vec<&TraceEvent> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => open.push(e),
            EventKind::End => {
                let found = open
                    .iter()
                    .rposition(|b| b.tid == e.tid && b.trace == e.trace && b.phase == e.phase);
                if let Some(i) = found {
                    let b = open.remove(i);
                    let depth = open
                        .iter()
                        .filter(|o| o.tid == b.tid && o.ts_ns <= b.ts_ns)
                        .count();
                    lines.push(Line {
                        start_ns: b.ts_ns,
                        seq: b.seq,
                        depth,
                        text: format!(
                            "+{:>12} {:>12}  {} trace={} tid={} args=({}, {})",
                            us(b.ts_ns),
                            us(e.ts_ns.saturating_sub(b.ts_ns)),
                            b.phase.name(),
                            b.trace,
                            b.tid,
                            b.arg0,
                            b.arg1
                        ),
                    });
                }
            }
            EventKind::Instant => {
                let depth = open.iter().filter(|o| o.tid == e.tid).count();
                lines.push(Line {
                    start_ns: e.ts_ns,
                    seq: e.seq,
                    depth,
                    text: format!(
                        "+{:>12} {:>12}  {} trace={} tid={} args=({}, {})",
                        us(e.ts_ns),
                        "·",
                        e.phase.name(),
                        e.trace,
                        e.tid,
                        e.arg0,
                        e.arg1
                    ),
                });
            }
        }
    }
    for b in open {
        lines.push(Line {
            start_ns: b.ts_ns,
            seq: b.seq,
            depth: 0,
            text: format!(
                "+{:>12} {:>12}  {} trace={} tid={} args=({}, {}) [unclosed]",
                us(b.ts_ns),
                "?",
                b.phase.name(),
                b.trace,
                b.tid,
                b.arg0,
                b.arg1
            ),
        });
    }
    lines.sort_by_key(|l| (l.start_ns, l.seq));
    let mut out = String::new();
    for l in lines {
        out.push_str(&"  ".repeat(l.depth));
        out.push_str(&l.text);
        out.push('\n');
    }
    out
}

/// Sum of closed-span durations per phase across `events`, as
/// `(phase, total_ns)` pairs in phase order. This is thread-time: a phase
/// running on `k` workers concurrently counts `k×`, so its share of a
/// batch can exceed 1.0.
pub fn phase_durations(events: &[TraceEvent]) -> Vec<(Phase, u64)> {
    let mut totals: [u64; 10] = [0; 10];
    let mut open: Vec<&TraceEvent> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => open.push(e),
            EventKind::End => {
                let found = open
                    .iter()
                    .rposition(|b| b.tid == e.tid && b.trace == e.trace && b.phase == e.phase);
                if let Some(i) = found {
                    let b = open.remove(i);
                    totals[b.phase as usize] += e.ts_ns.saturating_sub(b.ts_ns);
                }
            }
            EventKind::Instant => {}
        }
    }
    (0..totals.len())
        .filter_map(|i| Phase::from_u8(i as u8).map(|p| (p, totals[i])))
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

    #[allow(clippy::too_many_arguments)]
    fn ev(
        seq: u64,
        ts: u64,
        tid: u64,
        trace: u64,
        phase: Phase,
        kind: EventKind,
        a0: u64,
        a1: u64,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ns: ts,
            tid,
            trace,
            phase,
            kind,
            arg0: a0,
            arg1: a1,
        }
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_capacity_events() {
        let ring = Ring::new(8);
        for i in 0..20u64 {
            ring.emit(i * 10, 1, 7, Phase::Apply, EventKind::Instant, i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(ring.written(), 20);
        assert_eq!(snap.len(), 8);
        // Exactly the last 8 emissions survive, in order.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<u64>>());
        for e in &snap {
            assert_eq!(e.arg0, e.seq - 1);
            assert_eq!(e.ts_ns, (e.seq - 1) * 10);
            assert_eq!(e.trace, 7);
            assert_eq!(e.phase, Phase::Apply);
        }
    }

    #[test]
    fn ring_single_slot_and_empty_snapshot() {
        let ring = Ring::new(0); // clamped to 1
        assert_eq!(ring.capacity(), 1);
        assert!(ring.snapshot().is_empty());
        ring.emit(5, 2, 3, Phase::Plan, EventKind::Begin, 0, 0);
        ring.emit(9, 2, 3, Phase::Plan, EventKind::End, 0, 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, EventKind::End);
        assert_eq!(snap[0].ts_ns, 9);
    }

    #[test]
    fn ring_concurrent_writers_never_yield_torn_events() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        let ring = Arc::new(Ring::new(64));
        let stop = Arc::new(AtomicBool::new(false));
        // The writers start only once the reader runs, and the reader
        // validates at least one event before it honours `stop` (the
        // quiesced ring holds 64 valid events), so it always checks some.
        let started = Arc::new(Barrier::new(2));
        let reader = {
            let ring = ring.clone();
            let stop = stop.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                started.wait();
                let mut validated = 0usize;
                while !(stop.load(Ordering::Relaxed) && validated > 0) {
                    // arg1 is a deterministic function of (trace, arg0): any
                    // decoded event violating it is a torn read the seq
                    // check failed to catch.
                    for e in ring.snapshot() {
                        assert_eq!(
                            e.arg1,
                            e.arg0.wrapping_mul(2654435761).wrapping_add(e.trace),
                            "torn event decoded: {e:?}"
                        );
                        assert_eq!(e.tid, e.trace);
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
                            t + 1,
                            t + 1,
                            Phase::PoolRange,
                            EventKind::Instant,
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
        assert!(validated > 0, "the reader never saw a valid event");
        // Quiesced: a final snapshot decodes a full, consistent ring.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(ring.written(), 4 * 5_000);
        for e in snap {
            assert_eq!(
                e.arg1,
                e.arg0.wrapping_mul(2654435761).wrapping_add(e.trace)
            );
        }
    }

    #[test]
    fn chrome_trace_json_golden() {
        let events = [
            ev(1, 0, 1, 3, Phase::Batch, EventKind::Begin, 96, 0),
            ev(2, 1_500, 1, 3, Phase::Plan, EventKind::Begin, 0, 0),
            ev(3, 2_750, 1, 3, Phase::Plan, EventKind::End, 0, 0),
            ev(4, 3_000, 2, 3, Phase::WalFsync, EventKind::Instant, 8, 0),
            ev(5, 10_123, 1, 3, Phase::Batch, EventKind::End, 0, 0),
        ];
        let golden = "{\"traceEvents\":[\n\
{\"name\":\"service.batch\",\"cat\":\"shard\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"args\":{\"trace\":3,\"arg0\":96,\"arg1\":0}},\n\
{\"name\":\"engine.plan\",\"cat\":\"engine\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.500,\"args\":{\"trace\":3,\"arg0\":0,\"arg1\":0}},\n\
{\"name\":\"engine.plan\",\"cat\":\"engine\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2.750,\"args\":{\"trace\":3,\"arg0\":0,\"arg1\":0}},\n\
{\"name\":\"wal.fsync\",\"cat\":\"persist\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":2,\"ts\":3.000,\"args\":{\"trace\":3,\"arg0\":8,\"arg1\":0}},\n\
{\"name\":\"service.batch\",\"cat\":\"shard\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":10.123,\"args\":{\"trace\":3,\"arg0\":0,\"arg1\":0}}\n\
],\"displayTimeUnit\":\"ms\"}\n";
        assert_eq!(chrome_trace_json(&events), golden);
    }

    #[test]
    fn text_timeline_pairs_spans_and_indents_nesting() {
        let events = [
            ev(1, 0, 1, 3, Phase::Batch, EventKind::Begin, 96, 0),
            ev(2, 1_000, 1, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(3, 1_200, 1, 3, Phase::Group, EventKind::Begin, 4, 0),
            ev(4, 1_700, 1, 3, Phase::Group, EventKind::End, 0, 0),
            ev(5, 2_000, 1, 3, Phase::Apply, EventKind::End, 0, 0),
            ev(6, 2_500, 2, 3, Phase::WalAppend, EventKind::Instant, 1, 16),
            ev(7, 3_000, 1, 3, Phase::Batch, EventKind::End, 0, 0),
        ];
        let text = text_timeline(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("service.batch") && lines[0].contains("3.000us"));
        assert!(lines[1].starts_with("  ") && lines[1].contains("engine.apply"));
        assert!(lines[2].starts_with("    ") && lines[2].contains("engine.group"));
        assert!(lines[2].contains("0.500us"));
        assert!(lines[3].contains("wal.append") && lines[3].contains("args=(1, 16)"));
    }

    #[test]
    fn phase_durations_sum_closed_spans() {
        let events = [
            ev(1, 0, 1, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(2, 100, 1, 3, Phase::Apply, EventKind::End, 0, 0),
            ev(3, 200, 1, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(4, 500, 1, 3, Phase::Apply, EventKind::End, 0, 0),
            ev(5, 600, 2, 3, Phase::WalFsync, EventKind::Begin, 0, 0),
            ev(6, 850, 2, 3, Phase::WalFsync, EventKind::End, 0, 0),
            // Unclosed span contributes nothing.
            ev(7, 900, 1, 3, Phase::Plan, EventKind::Begin, 0, 0),
        ];
        let durs = phase_durations(&events);
        assert_eq!(durs, vec![(Phase::Apply, 400), (Phase::WalFsync, 250)]);
    }

    #[test]
    fn phase_durations_sum_overlapping_spans_across_threads() {
        let events = [
            // Two workers applying concurrently: [0,100] and [50,180]
            // overlap, and both count in full.
            ev(1, 0, 1, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(2, 50, 2, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(3, 100, 1, 3, Phase::Apply, EventKind::End, 0, 0),
            ev(4, 180, 2, 3, Phase::Apply, EventKind::End, 0, 0),
            // Disjoint second apply window on worker 1: [300,350].
            ev(5, 300, 1, 3, Phase::Apply, EventKind::Begin, 0, 0),
            ev(6, 350, 1, 3, Phase::Apply, EventKind::End, 0, 0),
            // Single-threaded phase.
            ev(7, 400, 1, 3, Phase::WalFsync, EventKind::Begin, 0, 0),
            ev(8, 650, 1, 3, Phase::WalFsync, EventKind::End, 0, 0),
            // Unclosed span contributes nothing.
            ev(9, 700, 1, 3, Phase::Plan, EventKind::Begin, 0, 0),
        ];
        assert_eq!(
            phase_durations(&events),
            vec![(Phase::Apply, 280), (Phase::WalFsync, 250)]
        );
    }

    #[test]
    fn global_tracer_roundtrip_and_flight_recorder() {
        // The global tracer is process-wide; this test shares it with any
        // other test that enables tracing, so it filters by its own ids.
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(1024);
        assert!(enabled());
        let id = next_id();
        assert!(id.is_some());
        {
            let _g = scope(id);
            assert_eq!(current(), id);
            let span = TSpan::start(Phase::Batch, 11, 0);
            instant(Phase::WalFsync, 1, 2);
            span.stop();
        }
        assert_ne!(current(), id, "scope must restore on drop");
        let mine: Vec<TraceEvent> = events().into_iter().filter(|e| e.trace == id.0).collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::Begin);
        assert_eq!(mine[0].arg0, 11);
        assert_eq!(mine[1].kind, EventKind::Instant);
        assert_eq!(mine[2].kind, EventKind::End);

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
        assert_eq!(mine[0].events.len(), 3);
    }

    #[test]
    fn capture_retention_keeps_the_slowest() {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(1024);
        // Fill well past CAPTURE_SLOTS with ascending latencies; drain and
        // check only the slowest survived. Uses its own ids to coexist
        // with the other global-tracer test.
        let _ = take_captured(); // start from an empty pinned buffer
        let mut ids = Vec::new();
        for i in 0..(CAPTURE_SLOTS as u64 + 8) {
            let id = next_id();
            {
                let _g = scope(id);
                instant(Phase::Batch, i, 0);
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
