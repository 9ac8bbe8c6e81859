//! # gsview-obs — zero-dependency observability
//!
//! One crate, three instruments, no external dependencies:
//!
//! 1. **Structured events and spans** — the [`event!`] and [`span!`]
//!    macros emit [`Event`]s to a process-global pluggable
//!    [`Collector`]. Spans nest through a thread-local stack, so an
//!    event fired inside `span!("warehouse.handle_report")` carries
//!    that span's id and the span carries its parent's — the whole
//!    causal chain (warehouse report → maintenance plan → store
//!    mutation) is reconstructible from the flat event stream.
//!    Timestamps are monotonic nanoseconds from one process-wide
//!    origin, so cross-thread ordering is meaningful.
//!
//! 2. **Metrics** ([`metrics`]) — a [`Registry`] of sharded atomic
//!    [`Counter`]s and log₂-bucketed [`Histogram`]s with *consistent*
//!    snapshots: multi-counter write sections bracket themselves with
//!    the same `gen`/`writers` seqlock discipline the warehouse
//!    `CostMeter` pioneered, and [`Registry::snapshot`] retries until
//!    it observes a quiet generation. Counters are always live (a
//!    relaxed add on a per-thread shard); they do not depend on a
//!    collector being installed.
//!
//! 3. **Flight recorder** ([`recorder`]) — a fixed-capacity lock-free
//!    ring of the most recent events. Installed as the collector, it
//!    costs one atomic ticket + one pointer swap per event; when an
//!    oracle or invariant check fails ([`failure`]), it dumps the ring
//!    as a human-readable table (and JSON-lines to `OBS_DUMP_PATH` if
//!    set), turning "proptest seed 0x…" into a causal trace.
//!
//! ## Cost model
//!
//! With no collector installed, `span!`/`event!` cost **one relaxed
//! atomic load and a branch** — fields are not even constructed.
//! Compiling with `--no-default-features` removes even that: the
//! macros expand around a `const false` and fold away. The E13/E14
//! smoke baselines gate this: instrumented hot paths must hit the same
//! access counts as before instrumentation.
//!
//! ## Attaching a collector
//!
//! ```
//! use std::sync::Arc;
//! let rec = Arc::new(gsview_obs::FlightRecorder::with_capacity(1024));
//! let _guard = gsview_obs::install(rec.clone());
//! {
//!     let _span = gsview_obs::span!("demo.outer", "size" = 3u64);
//!     gsview_obs::event!("demo.step", "i" = 1u64);
//! }
//! let events = rec.drain();
//! assert_eq!(events.len(), 3); // span start, event, span end
//! // drop the guard to detach
//! ```
//!
//! Installation is guarded by a process-wide mutex so concurrent tests
//! that each install a collector serialize instead of clobbering each
//! other; dropping the returned guard detaches the collector.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod telemetry;

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

pub use metrics::{registry, Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use profile::PhaseProfile;
pub use recorder::{FlightRecorder, RecordedEvent};
pub use telemetry::{
    CounterPoint, ExportQueue, HistogramPoint, MetricsDiffer, Resource, SpanExporter, SpanRecord,
    TailSampler, TelemetryBatch,
};

// ---------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------

/// A typed value attached to an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (borrowed when `'static`, owned otherwise).
    Str(Cow<'static, str>),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $conv) }
        }
    )*};
}

impl_field_from! {
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// One `key = value` pair on an event or span.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// The key (static: field names are code, not data).
    pub key: &'static str,
    /// The value.
    pub value: FieldValue,
}

impl Field {
    /// Build a field from anything convertible to a [`FieldValue`].
    pub fn new(key: &'static str, value: impl Into<FieldValue>) -> Field {
        Field {
            key,
            value: value.into(),
        }
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span` is its id, `parent` its enclosing span).
    SpanStart,
    /// A span closed (carries an `elapsed_ns` field).
    SpanEnd,
    /// An instant event inside span `span` (0 when outside any span).
    Instant,
}

impl EventKind {
    /// Stable short name (used by both exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "start",
            EventKind::SpanEnd => "end",
            EventKind::Instant => "event",
        }
    }
}

/// One structured record handed to the [`Collector`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic nanoseconds since the process-wide origin.
    pub ts_ns: u64,
    /// Small dense id of the emitting thread (first-use order).
    pub thread: u64,
    /// Start / end / instant.
    pub kind: EventKind,
    /// Event or span name (dotted, e.g. `warehouse.handle_report`).
    pub name: &'static str,
    /// The span this record belongs to: its own id for start/end, the
    /// innermost enclosing span for instants, 0 for none.
    pub span: u64,
    /// For [`EventKind::SpanStart`]: the enclosing span's id (0 at the
    /// root). 0 for other kinds.
    pub parent: u64,
    /// Trace id this record belongs to. A root span mints a fresh
    /// trace id (its own span id); children inherit it, and
    /// [`span_with_parent`] adopts one carried across a process
    /// boundary — so one warehouse resync over the wire renders as a
    /// single trace spanning client and server. 0 outside any span.
    pub trace: u64,
    /// Key/value payload.
    pub fields: Vec<Field>,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }
}

// ---------------------------------------------------------------------
// Collector plumbing
// ---------------------------------------------------------------------

/// A sink for structured events.
///
/// Implementations must be cheap and non-blocking: `record` runs
/// inline on maintenance and query hot paths whenever a collector is
/// installed.
pub trait Collector: Send + Sync {
    /// Receive one event.
    fn record(&self, event: Event);
    /// Called by [`failure`] when an oracle or invariant check fails,
    /// just before the caller panics. The flight recorder dumps its
    /// ring here; other collectors may ignore it.
    fn on_failure(&self, _context: &str) {}
}

/// Fast-path gate: true iff a collector is installed (and the crate
/// was built with the default `enabled` feature).
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn collector_slot() -> &'static RwLock<Option<Arc<dyn Collector>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Collector>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Keeps a collector installed; detaches it on drop. Also holds the
/// process-wide installation mutex, so concurrent installers (e.g.
/// parallel tests) serialize instead of clobbering each other.
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        if let Ok(mut slot) = collector_slot().write() {
            *slot = None;
        }
    }
}

/// Install `collector` as the process-global event sink. Blocks until
/// any previously installed collector's guard is dropped.
pub fn install(collector: Arc<dyn Collector>) -> InstallGuard {
    // A panic under a previous guard poisons the mutex but leaves the
    // slot correctly cleared (the guard's Drop ran during unwind), so
    // the poison carries no information — take the lock anyway.
    let lock = install_lock()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    *collector_slot().write().unwrap() = Some(collector);
    ACTIVE.store(true, Ordering::SeqCst);
    InstallGuard { _lock: lock }
}

/// True iff instrumentation should construct and emit events. One
/// relaxed load; `const false` when built without the `enabled`
/// feature, which folds every macro call site away.
#[cfg(feature = "enabled")]
#[inline(always)]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// True iff instrumentation should construct and emit events.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

fn with_collector(f: impl FnOnce(&dyn Collector)) {
    if !enabled() {
        return;
    }
    if let Ok(slot) = collector_slot().read() {
        if let Some(c) = slot.as_ref() {
            f(&**c);
        }
    }
}

// ---------------------------------------------------------------------
// Time and identity
// ---------------------------------------------------------------------

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide origin (first call).
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread (1, 2, … in first-use order).
/// Also used to pick a counter shard.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(span id, trace id)` of every open span on this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Position in a trace: the ids a caller stamps into an outgoing
/// request so the remote side can parent its spans under ours.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id (0 when no span is open).
    pub trace: u64,
    /// Innermost open span's id (0 when none).
    pub span: u64,
}

impl TraceContext {
    /// True when this context carries a live trace.
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

/// The calling thread's current trace position — what a client stamps
/// into a request frame. `(0, 0)` outside any span.
pub fn current_context() -> TraceContext {
    SPAN_STACK.with(|s| {
        s.borrow()
            .last()
            .map(|&(span, trace)| TraceContext { trace, span })
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------------
// Emission API (macros call these; use the macros)
// ---------------------------------------------------------------------

/// Emit an instant event. Prefer [`event!`], which skips field
/// construction when disabled.
pub fn emit_event(name: &'static str, fields: Vec<Field>) {
    with_collector(|c| {
        let ctx = current_context();
        c.record(Event {
            ts_ns: now_ns(),
            thread: thread_id(),
            kind: EventKind::Instant,
            name,
            span: ctx.span,
            parent: 0,
            trace: ctx.trace,
            fields,
        });
    });
}

/// Open a span. Prefer [`span!`], which skips field construction when
/// disabled.
pub fn span_with(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    open_span(name, None, fields)
}

/// Open a span whose parent lives on the *other side of a wire*: the
/// span adopts `ctx`'s trace id and parents under `ctx`'s span id
/// instead of the thread-local stack. This is how a reactor request
/// span joins the client's trace — the client stamps
/// [`current_context`] into the frame, the server opens its span with
/// this. Falls back to a plain root span when `ctx` is inactive.
pub fn span_with_parent(name: &'static str, ctx: TraceContext, fields: Vec<Field>) -> SpanGuard {
    if ctx.is_active() {
        open_span(name, Some(ctx), fields)
    } else {
        open_span(name, None, fields)
    }
}

fn open_span(name: &'static str, remote: Option<TraceContext>, fields: Vec<Field>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent, trace) = match remote {
            Some(ctx) => (ctx.span, ctx.trace),
            // A root span mints a fresh trace id (its own span id);
            // children inherit the enclosing trace.
            None => match stack.last() {
                Some(&(parent, trace)) => (parent, trace),
                None => (0, id),
            },
        };
        stack.push((id, trace));
        (parent, trace)
    });
    let start_ns = now_ns();
    with_collector(|c| {
        c.record(Event {
            ts_ns: start_ns,
            thread: thread_id(),
            kind: EventKind::SpanStart,
            name,
            span: id,
            parent,
            trace,
            fields,
        });
    });
    SpanGuard {
        id,
        trace,
        name,
        start_ns,
        active: true,
        _not_send: PhantomData,
    }
}

/// RAII handle for an open span: emits the `SpanEnd` event (with an
/// `elapsed_ns` field) and pops the thread-local stack on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
    active: bool,
    // Span stacks are thread-local; a guard crossing threads would
    // pop the wrong stack.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// An inert guard (what [`span!`] returns when disabled).
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            id: 0,
            trace: 0,
            name: "",
            start_ns: 0,
            active: false,
            _not_send: PhantomData,
        }
    }

    /// This span's id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This span's position in its trace (all-zero when disabled).
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.id,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop LIFO in straight-line code; search anyway so
            // an out-of-order drop cannot corrupt unrelated spans.
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == self.id) {
                stack.remove(pos);
            }
        });
        let end_ns = now_ns();
        with_collector(|c| {
            c.record(Event {
                ts_ns: end_ns,
                thread: thread_id(),
                kind: EventKind::SpanEnd,
                name: self.name,
                span: self.id,
                parent: 0,
                trace: self.trace,
                fields: vec![Field::new("elapsed_ns", end_ns.saturating_sub(self.start_ns))],
            });
        });
    }
}

/// Report an oracle / invariant failure to the installed collector
/// (the flight recorder dumps its ring), emitting a `failure` event
/// first so the dump records its own cause. Call this immediately
/// before panicking with the same context.
pub fn failure(context: &str) {
    if !enabled() {
        return;
    }
    emit_event("failure", vec![Field::new("context", context.to_string())]);
    with_collector(|c| c.on_failure(context));
}

/// Emit an instant event with optional `"key" = value` fields:
///
/// ```
/// gsview_obs::event!("store.apply", "kind" = "insert", "oid" = 42u64);
/// ```
///
/// When no collector is installed this is one relaxed load and a
/// branch; the field expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_event($name, ::std::vec![$($crate::Field::new($k, $v)),*]);
        }
    };
}

/// Open a span with optional `"key" = value` fields; returns a
/// [`SpanGuard`] that closes the span when dropped:
///
/// ```
/// let _span = gsview_obs::span!("maint.apply", "view" = "premium");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_with($name, ::std::vec![$($crate::Field::new($k, $v)),*])
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[derive(Default)]
    struct VecCollector {
        events: StdMutex<Vec<Event>>,
        failures: StdMutex<Vec<String>>,
    }

    impl Collector for VecCollector {
        fn record(&self, event: Event) {
            self.events.lock().unwrap().push(event);
        }
        fn on_failure(&self, context: &str) {
            self.failures.lock().unwrap().push(context.to_string());
        }
    }

    /// Hold the installation mutex without installing a collector, so
    /// the disabled path is what runs and nothing the test emits leaks
    /// into a collector a concurrent test installed.
    fn without_collector() -> MutexGuard<'static, ()> {
        let lock = install_lock()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        assert!(!enabled(), "a collector outlived its guard");
        lock
    }

    #[test]
    fn spans_nest_and_events_attach_to_innermost() {
        let c = Arc::new(VecCollector::default());
        let _g = install(c.clone());
        {
            let outer = span!("outer", "a" = 1u64);
            let outer_id = outer.id();
            {
                let inner = span!("inner");
                assert_ne!(inner.id(), outer_id);
                event!("leaf", "x" = true);
            }
            event!("mid");
        }
        drop(_g);
        let events = c.events.lock().unwrap();
        let names: Vec<_> = events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            names,
            vec![
                (EventKind::SpanStart, "outer"),
                (EventKind::SpanStart, "inner"),
                (EventKind::Instant, "leaf"),
                (EventKind::SpanEnd, "inner"),
                (EventKind::Instant, "mid"),
                (EventKind::SpanEnd, "outer"),
            ]
        );
        let outer_id = events[0].span;
        let inner_start = &events[1];
        assert_eq!(inner_start.parent, outer_id, "inner's parent is outer");
        assert_eq!(events[2].span, inner_start.span, "leaf inside inner");
        assert_eq!(events[4].span, outer_id, "mid inside outer");
        assert!(matches!(
            events[3].field("elapsed_ns"),
            Some(FieldValue::U64(_))
        ));
    }

    #[test]
    fn trace_ids_mint_inherit_and_adopt() {
        let c = Arc::new(VecCollector::default());
        let _g = install(c.clone());
        let remote_ctx;
        {
            // A root span mints trace = its own id; children inherit.
            let root = span!("client.request");
            assert_eq!(root.context().trace, root.id());
            {
                let child = span!("client.encode");
                assert_eq!(child.context().trace, root.context().trace);
                assert_eq!(current_context().span, child.id());
            }
            remote_ctx = root.context();
        }
        assert!(!current_context().is_active(), "stack empty again");
        {
            // The "server side": adopts the wire context instead of
            // minting a new trace.
            let served = span_with_parent("serve.request", remote_ctx, vec![]);
            assert_eq!(served.context().trace, remote_ctx.trace);
            event!("serve.step");
        }
        drop(_g);
        let events = c.events.lock().unwrap();
        let trace = events[0].trace;
        assert_ne!(trace, 0);
        assert!(
            events.iter().all(|e| e.trace == trace),
            "every event in the causal chain shares one trace id"
        );
        let served_start = events
            .iter()
            .find(|e| e.name == "serve.request" && e.kind == EventKind::SpanStart)
            .unwrap();
        assert_eq!(served_start.parent, remote_ctx.span, "parents under the wire span");
    }

    #[test]
    fn inactive_remote_context_falls_back_to_root() {
        let c = Arc::new(VecCollector::default());
        let _g = install(c.clone());
        {
            let s = span_with_parent("serve.request", TraceContext::default(), vec![]);
            assert_eq!(s.context().trace, s.id(), "minted a fresh trace");
        }
        drop(_g);
        assert_eq!(c.events.lock().unwrap()[0].parent, 0);
    }

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        // No collector installed: the field expression must not run.
        let _quiet = without_collector();
        let mut hit = false;
        event!("never", "x" = {
            hit = true;
            1u64
        });
        assert!(!hit);
    }

    #[test]
    fn failure_reaches_collector() {
        let c = Arc::new(VecCollector::default());
        let _g = install(c.clone());
        failure("oracle: something diverged");
        drop(_g);
        assert_eq!(
            c.failures.lock().unwrap().as_slice(),
            &["oracle: something diverged".to_string()]
        );
        // And the failure event itself was recorded first.
        let events = c.events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "failure");
    }

    #[test]
    fn disabled_event_overhead_is_bounded() {
        // Overhead gate (coarse): with no collector, a million event!
        // calls must be effectively free. The tight bound is the
        // E13/E14 smoke baselines; this catches only gross regressions
        // (e.g. fields constructed while disabled).
        let _quiet = without_collector();
        let start = Instant::now();
        for i in 0..1_000_000u64 {
            event!("hot.loop", "i" = i);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "disabled event! too slow: {:?}",
            start.elapsed()
        );
    }
}
