//! The benchmark's own spans: one per call into a layer's public
//! function, recorded from the benchmark side of the call.
//!
//! A span carries a name (`<layer>.<operation>`), start and end in
//! nanoseconds since the tracer's base instant, the index of its parent
//! span, and the id of the round it belongs to. Spans stay in memory on
//! the client thread and are written out once, when the run ends.
//!
//! Recording is off by default. While off, [`span`] costs one relaxed
//! atomic load before calling through, so the untraced phase measures
//! the program and not the tracer.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Marks a span with no parent (a round's root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`; the round's root span is `round`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's base instant.
    pub start: u64,
    /// Nanoseconds since the tracer's base instant.
    pub end: u64,
    /// Index of the enclosing span in the recorded list, or [`NO_PARENT`].
    pub parent: u32,
    /// The round this span belongs to.
    pub round: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        base: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        round: 0,
    });
}

/// Turn recording on or off for subsequent spans.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn open(name: &'static str) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start = t.base.elapsed().as_nanos() as u64;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let round = t.round;
        let idx = t.spans.len() as u32;
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            round,
        });
        t.stack.push(idx);
        idx
    })
}

fn close(idx: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.base.elapsed().as_nanos() as u64;
        t.spans[idx as usize].end = end;
        t.stack.pop();
    });
}

/// Run `f` inside a span named `name` (when recording is on).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let idx = open(name);
    let out = f();
    close(idx);
    out
}

/// Run one round under a root span `round` with id `id`; every span
/// opened inside carries the same id.
pub fn round<R>(id: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().round = id);
    span("round", f)
}

/// Take every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Write spans as tab-separated lines under a header:
/// `id round name start_ns end_ns parent` (`parent` is `-` for none).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tround\tname\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t",
            s.round, s.name, s.start, s.end
        )?;
        if s.parent == NO_PARENT {
            writeln!(out, "-")?;
        } else {
            writeln!(out, "{}", s.parent)?;
        }
    }
    out.flush()
}

/// The per-round attribution ledger over a traced phase.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Summed round durations, nanoseconds.
    pub round_ns: u64,
    /// Self time per layer, nanoseconds, summed over rounds.
    pub self_ns: Vec<(&'static str, u64)>,
    /// Round time not covered by any layer span, summed over rounds.
    pub unattributed_ns: u64,
}

/// Build the ledger: a span's self time is its duration minus the
/// durations of its direct children; a round's own self time is what
/// no layer span covers.
pub fn ledger(spans: &[Span]) -> Ledger {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    let mut ledger = Ledger::default();
    for (s, kids) in spans.iter().zip(&child_ns) {
        let own = s.dur().saturating_sub(*kids);
        if s.name == "round" {
            ledger.round_ns += s.dur();
            ledger.unattributed_ns += own;
            continue;
        }
        let layer = s.layer();
        match ledger.self_ns.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, ns)) => *ns += own,
            None => ledger.self_ns.push((layer, own)),
        }
    }
    ledger
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time() {
        set_enabled(true);
        round(1, || {
            span("warehouse.handle_report", || {
                span("serve.queryback", || std::hint::black_box(1));
            });
            span("gsdb.commit", || ());
        });
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "round");
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.round == 1));
        let l = ledger(&spans);
        let total: u64 = l.self_ns.iter().map(|(_, n)| n).sum::<u64>() + l.unattributed_ns;
        assert_eq!(total, l.round_ns);
    }
}
