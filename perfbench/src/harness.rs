//! The closed-loop runner shared by every workload: repeated set-up,
//! warm-up, the measured phase(s), output checks, and the metrics.
//!
//! One client thread issues a round, waits for it to finish, and only
//! then issues the next one; there is no offered rate, sleep or poll
//! timer anywhere in the timed path. Between rounds the client only
//! rotates durable media and times the machine-speed probe.

use crate::stats::{median, quantile, quantile_f, ratio};
use crate::{probe, trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Cumulative deterministic counters a workload exposes, by name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Raw timings of the rounds of one phase, in nanoseconds.
#[derive(Default)]
pub struct Samples {
    /// Whole round: the commit call until the read that checks it.
    pub round: Vec<u64>,
    /// The writer's call until the write is acknowledged.
    pub commit: Vec<u64>,
    /// The commit call until a read reflects the write.
    pub fresh: Vec<u64>,
    /// Each read of the round.
    pub read: Vec<u64>,
    /// Updates completed (visible, or acknowledged durable).
    pub updates: u64,
}

impl Samples {
    /// Room for this many samples per series is reserved up front:
    /// growing a series by reallocation would copy it, and the copy's
    /// transient memory would show in `rss_peak_mb`. Reserved pages
    /// count only once written.
    const RESERVE: usize = 1 << 20;

    fn reserved() -> Samples {
        Samples {
            round: Vec::with_capacity(Self::RESERVE),
            commit: Vec::with_capacity(Self::RESERVE),
            fresh: Vec::with_capacity(Self::RESERVE),
            read: Vec::with_capacity(Self::RESERVE),
            updates: 0,
        }
    }

    /// Record a round that started at `t0`, had its write acknowledged
    /// at `ack`, first read it back at `fresh` and ended at `end`.
    pub fn push_round(&mut self, t0: Instant, ack: Instant, fresh: Instant, end: Instant) {
        let ns = |t: Instant| (t - t0).as_nanos() as u64;
        self.round.push(ns(end));
        self.commit.push(ns(ack));
        self.fresh.push(ns(fresh));
    }
}

/// Nanoseconds from `a` to `b`.
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    (b - a).as_nanos() as u64
}

/// One benchmark workload, set up and ready to run rounds.
pub trait Workload {
    /// Updates issued per round.
    fn updates_per_round(&self) -> u64;
    /// Run round `id`: issue its updates, wait for them to land, read
    /// them back and check the read. Timings go into `s`; an `Err`
    /// names what failed.
    fn round(&mut self, id: u64, s: &mut Samples) -> Result<(), String>;
    /// Untimed housekeeping after round `id` (durable media rotation).
    fn between_rounds(&mut self, _id: u64) -> Result<(), String> {
        Ok(())
    }
    /// Cumulative counters so far.
    fn counters(&self) -> Counters;
    /// End-of-run output checks; one message per failed check.
    fn check(&mut self) -> Vec<String>;
    /// Facts about the set-up: store sizes, media, report level.
    fn provenance(&self) -> Vec<(&'static str, String)>;
}

/// Which end-to-end timing the tracing overhead is measured on.
#[derive(Clone, Copy)]
pub enum Primary {
    /// `fresh_p50_ms`.
    Fresh,
    /// `commit_p50_us`.
    Commit,
}

/// A workload's fixed plan.
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Rounds run and discarded before measuring.
    pub warmup: u64,
    /// Rounds every phase runs at least; the count metrics are taken
    /// over exactly the first `window` rounds of the measured phase,
    /// so they repeat at a fixed seed however fast the machine is.
    pub window: u64,
    /// The timing the tracing overhead is reported on.
    pub primary: Primary,
    /// Build the store, materialize views, spawn servers, connect.
    pub setup: fn(u64) -> Result<Box<dyn Workload>, String>,
}

/// Set-ups timed before the measured phase (the last one is measured).
pub const SETUPS_BEFORE: usize = 4;
/// Set-ups timed after the measured phase, once the measured instance
/// is dropped: with those before, `setup_s` samples both ends of a run.
pub const SETUPS_AFTER: usize = 5;

/// One named metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Updates attempted in the measured phase(s).
    pub attempted: u64,
    /// Updates whose round failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Provenance facts.
    pub provenance: Vec<(&'static str, String)>,
    /// Failure messages (first few).
    pub failures: Vec<String>,
    /// Spans of the traced phase.
    pub spans: Vec<trace::Span>,
}

struct Phase {
    /// Rounds run with tracing off: every round of an untraced run.
    plain: Samples,
    /// Rounds run with tracing on.
    traced: Samples,
    rounds: u64,
    /// Probe times taken between rounds, nanoseconds.
    probes: Vec<u64>,
    /// Window boundaries of the untraced rounds, in order.
    cuts: Vec<Cut>,
    /// Counter growth over the first `window` rounds.
    window: Counters,
    /// Counter growth over the whole phase.
    whole: Counters,
}

/// Lengths of the untraced series (and of the probes) at the end of a
/// window of the measured phase.
#[derive(Clone, Copy, Default)]
struct Cut {
    rounds: usize,
    reads: usize,
    probes: usize,
}

impl Cut {
    fn at(plain: &Samples, probes: &[u64]) -> Cut {
        Cut {
            rounds: plain.round.len(),
            reads: plain.read.len(),
            probes: probes.len(),
        }
    }
}

fn growth(now: &Counters, then: &Counters) -> Counters {
    now.iter()
        .map(|(k, v)| (*k, v - then.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Bookkeeping shared by the phases of one run.
struct Runner<'a> {
    w: &'a mut dyn Workload,
    next_id: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Runner<'_> {
    fn one(&mut self, s: &mut Samples) {
        let id = self.next_id;
        self.next_id += 1;
        let per = self.w.updates_per_round();
        let res = self.w.round(id, s).and_then(|()| self.w.between_rounds(id));
        self.attempted += per;
        match res {
            Ok(()) => s.updates += per,
            Err(e) => {
                self.failed += per;
                if self.failures.len() < 10 {
                    self.failures.push(format!("round {id}: {e}"));
                }
            }
        }
    }

    /// Run rounds for `secs` seconds and at least `window` rounds.
    /// With `alternate`, tracing switches on and off every
    /// [`TRACE_BLOCK_S`], so traced and untraced rounds share the
    /// machine's conditions and their difference is the tracing cost.
    fn phase(&mut self, secs: f64, window: u64, alternate: bool) -> Phase {
        let start = self.w.counters();
        let mut in_window = None;
        let (mut plain, mut traced) = (Samples::reserved(), Samples::reserved());
        let t = Instant::now();
        let mut block = t;
        let mut tracing = alternate;
        trace::set_enabled(tracing);
        let mut probes = Vec::new();
        let mut probed = t;
        let mut rounds = 0;
        let mut cuts = Vec::new();
        let mut cut_at = t;
        while rounds < window || t.elapsed().as_secs_f64() < secs {
            if alternate && block.elapsed().as_secs_f64() >= TRACE_BLOCK_S {
                tracing = !tracing;
                trace::set_enabled(tracing);
                block = Instant::now();
            }
            self.one(if tracing { &mut traced } else { &mut plain });
            if probed.elapsed().as_secs_f64() >= probe::EVERY_S {
                probes.push(probe::once());
                probed = Instant::now();
            }
            if cut_at.elapsed().as_secs_f64() >= WINDOW_S {
                cuts.push(Cut::at(&plain, &probes));
                cut_at = Instant::now();
            }
            rounds += 1;
            if rounds == window {
                in_window = Some(growth(&self.w.counters(), &start));
            }
        }
        trace::set_enabled(false);
        cuts.push(Cut::at(&plain, &probes));
        Phase {
            plain,
            traced,
            rounds,
            probes,
            cuts,
            window: in_window.unwrap_or_default(),
            whole: growth(&self.w.counters(), &start),
        }
    }
}

/// Peak resident set of this process, MiB.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 6] = ["gsdb", "durable", "warehouse", "core", "circuit", "serve"];

/// Length of one window of the measured phase, seconds: the span over
/// which the machine's speed is taken as constant (see [`probe`]).
const WINDOW_S: f64 = 1.0;

/// How long tracing stays on (then off) in a traced run, seconds.
const TRACE_BLOCK_S: f64 = 0.05;

/// Set up once; push the set-up time, scaled to the nominal machine by
/// probes taken right before and right after it, onto `times`.
fn timed_setup(spec: &Spec, seed: u64, times: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let mut probes: Vec<u64> = (0..probe::AROUND_SETUP).map(|_| probe::once()).collect();
    let t = Instant::now();
    let w = (spec.setup)(seed)?;
    let ns = t.elapsed().as_nanos() as f64;
    probes.extend((0..probe::AROUND_SETUP).map(|_| probe::once()));
    times.push(ns * probe::Scale::of(&probes).p50);
    Ok(w)
}

/// Run `spec` once: set up, warm up, measure, check, and set up again
/// (an untraced run times [`SETUPS_BEFORE`] + [`SETUPS_AFTER`] set-ups,
/// at both ends of the run, and reports their median). Times are scaled
/// to the nominal machine by probes (see [`probe`]): each set-up by the
/// probes around it, each measured sample by those of its window.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    // Set-up times, nominal nanoseconds.
    let mut setups = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        drop(timed_setup(spec, seed, &mut setups)?);
    }
    let mut w = timed_setup(spec, seed, &mut setups)?;
    let mut runner = Runner {
        w: w.as_mut(),
        next_id: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut warm = Samples::default();
    for _ in 0..spec.warmup {
        runner.one(&mut warm);
    }
    // Warm-up failures are failures too, but not attempts of the
    // measured phase.
    let warm_failed = runner.failed;
    runner.attempted = 0;
    runner.failed = 0;

    let handler = gsview_obs::registry().histogram("serve.request.micros");
    handler.reset();
    let phase = runner.phase(seconds, spec.window, traced);
    let handler_p50_us = handler.read().p50() as f64;
    let (attempted, failed) = (runner.attempted, runner.failed);
    // Read before the checks, whose recomputes and recovery allocate.
    let rss_mib = rss_peak_mib();
    let mut failures = runner.failures;
    failures.extend(w.check());
    let mut provenance = vec![
        ("workload", spec.name.to_string()),
        ("why", spec.why.to_string()),
        ("seed", seed.to_string()),
        ("traced", traced.to_string()),
        ("warmup_rounds_discarded", spec.warmup.to_string()),
        ("count_window_rounds", spec.window.to_string()),
        ("measured_rounds", phase.rounds.to_string()),
        ("updates_per_round", w.updates_per_round().to_string()),
    ];
    provenance.extend(w.provenance());
    let per_round = w.updates_per_round();
    drop(w);

    let scale = probe::Scale::of(&phase.probes);
    provenance.push(("probe_p50_ns", quantile(&phase.probes, 0.5).to_string()));
    provenance.push(("probe_p95_ns", quantile(&phase.probes, 0.95).to_string()));
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    if traced {
        spans = trace::take();
        let l = Layered {
            spec,
            phase: &phase,
            spans: &spans,
            handler_p50_us,
            per_round,
            scale: scale.p50,
        };
        l.metrics(&mut metrics);
    } else {
        for _ in 0..SETUPS_AFTER {
            drop(timed_setup(spec, seed, &mut setups)?);
        }
        provenance.push(("setups", setups.len().to_string()));
        provenance.push((
            "setup_ms_each",
            setups
                .iter()
                .map(|ns| format!("{:.1}", ns / 1e6))
                .collect::<Vec<_>>()
                .join(" "),
        ));
        end_to_end_metrics(&mut metrics, &phase, &setups, rss_mib, &scale);
    }
    Ok(Report {
        correct: failures.is_empty() && warm_failed == 0,
        attempted,
        failed,
        metrics,
        provenance,
        failures,
        spans,
    })
}

/// The untraced samples of a phase, each scaled to the nominal machine
/// by the probes of the window it ran in: p50 series and round time by
/// the window's probe median, p95 series by its probe p95. A window
/// with fewer than [`probe::MIN_PER_WINDOW`] probes uses the whole
/// phase's scale.
struct Scaled {
    p50: Series,
    p95: Series,
    /// Round time summed over the phase, nominal seconds.
    busy_s: f64,
    updates: u64,
}

#[derive(Default)]
struct Series {
    fresh: Vec<f64>,
    commit: Vec<f64>,
    read: Vec<f64>,
}

impl Series {
    fn extend(
        &mut self,
        s: &Samples,
        rounds: std::ops::Range<usize>,
        reads: std::ops::Range<usize>,
        f: f64,
    ) {
        self.fresh
            .extend(s.fresh[rounds.clone()].iter().map(|&x| x as f64 * f));
        self.commit
            .extend(s.commit[rounds].iter().map(|&x| x as f64 * f));
        self.read
            .extend(s.read[reads].iter().map(|&x| x as f64 * f));
    }
}

impl Scaled {
    fn of(phase: &Phase, whole: &probe::Scale) -> Scaled {
        let s = &phase.plain;
        let mut out = Scaled {
            p50: Series::default(),
            p95: Series::default(),
            busy_s: 0.0,
            updates: s.updates,
        };
        let mut from = Cut::default();
        for &to in &phase.cuts {
            let probes = &phase.probes[from.probes..to.probes];
            let scale = if probes.len() >= probe::MIN_PER_WINDOW {
                probe::Scale::of(probes)
            } else {
                *whole
            };
            let (rounds, reads) = (from.rounds..to.rounds, from.reads..to.reads);
            out.p50.extend(s, rounds.clone(), reads.clone(), scale.p50);
            out.p95.extend(s, rounds.clone(), reads, scale.p95);
            out.busy_s += s.round[rounds].iter().sum::<u64>() as f64 / 1e9 * scale.p50;
            from = to;
        }
        out
    }
}

fn end_to_end_metrics(
    out: &mut Vec<Metric>,
    phase: &Phase,
    setups: &[f64],
    rss_mib: f64,
    scale: &probe::Scale,
) {
    let s = Scaled::of(phase, scale);
    let mut put = |name, value, unit| out.push(Metric { name, value, unit });
    put("setup_s", quantile_f(setups, 0.5) / 1e9, "s");
    put("fresh_p50_ms", ms(quantile_f(&s.p50.fresh, 0.5)), "ms");
    put("fresh_p95_ms", ms(quantile_f(&s.p95.fresh, 0.95)), "ms");
    put("updates_per_s", ratio(s.updates as f64, s.busy_s), "1/s");
    put("commit_p50_us", us(quantile_f(&s.p50.commit, 0.5)), "us");
    put("read_p50_us", us(quantile_f(&s.p50.read, 0.5)), "us");
    put("read_p95_us", us(quantile_f(&s.p95.read, 0.95)), "us");
    put("rss_peak_mb", rss_mib, "MiB");
}

/// Inputs of the per-layer metrics.
struct Layered<'a> {
    spec: &'a Spec,
    phase: &'a Phase,
    spans: &'a [trace::Span],
    handler_p50_us: f64,
    per_round: u64,
    /// Probe scale for the medians.
    scale: f64,
}

impl Layered<'_> {
    fn metrics(&self, out: &mut Vec<Metric>) {
        let (phase, spans) = (self.phase, self.spans);
        let c = |k: &str| phase.window.get(k).copied().unwrap_or(0.0);
        let whole = |k: &str| phase.whole.get(k).copied().unwrap_or(0.0);
        let rounds = self.spec.window as f64;
        let updates = rounds * self.per_round as f64;
        let p50 = |name: &str| us(median(&trace::durations(spans, name))) * self.scale;
        let mut put = |name, value, unit| out.push(Metric { name, value, unit });

        put("circuit.union_step_us", p50("circuit.union_step"), "us");
        put(
            "circuit.aggregate_step_us",
            p50("circuit.aggregate_step"),
            "us",
        );
        put(
            "circuit.delta_weight_per_round",
            ratio(c("delta_weight"), rounds),
            "count",
        );
        put("circuit.rebuilds", whole("rebuilds"), "count");
        put(
            "core.changed_per_round",
            ratio(c("changed"), rounds),
            "count",
        );
        put(
            "core.relevant_ratio",
            ratio(c("relevant"), c("consolidated")),
            "ratio",
        );
        put("warehouse.flush_us", p50("warehouse.flush"), "us");
        put("warehouse.poll_us", p50("warehouse.poll"), "us");
        put(
            "warehouse.handle_report_us",
            p50("warehouse.handle_report"),
            "us",
        );
        put(
            "warehouse.messages_per_update",
            ratio(c("messages"), updates),
            "count",
        );
        put(
            "warehouse.bytes_per_update",
            ratio(c("bytes"), updates),
            "B",
        );
        put("warehouse.retries", whole("retries"), "count");
        put("warehouse.faults", whole("faults"), "count");
        put("serve.queryback_rtt_us", p50("serve.queryback"), "us");
        put("serve.queryback_count", c("querybacks"), "count");
        put("serve.query_rtt_us", p50("serve.query"), "us");
        put("serve.handler_us", self.handler_p50_us * self.scale, "us");
        put("gsdb.commit_us", p50("gsdb.commit"), "us");
        put("gsdb.cross_shard_commits", c("cross_shard"), "count");
        put("durable.persist_us", p50("durable.persist"), "us");
        put(
            "durable.segment_bytes_per_update",
            ratio(c("segment_bytes"), updates),
            "B",
        );
        put(
            "durable.log_bytes_per_update",
            ratio(c("log_bytes"), updates),
            "B",
        );
        put(
            "durable.chunk_reuse_ratio",
            ratio(
                c("chunks_reused"),
                c("chunks_reused") + c("chunks_appended"),
            ),
            "ratio",
        );
        put(
            "source_queries_per_update",
            ratio(c("source_queries"), updates),
            "count",
        );
        put(
            "durable_bytes_per_update",
            ratio(c("segment_bytes") + c("log_bytes"), updates),
            "B",
        );

        let ledger = trace::ledger(spans);
        let total = ledger.round_ns as f64;
        for (layer, name) in LAYERS.iter().zip([
            "gsdb.self_pct",
            "durable.self_pct",
            "warehouse.self_pct",
            "core.self_pct",
            "circuit.self_pct",
            "serve.self_pct",
        ]) {
            let ns = ledger
                .self_ns
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0, |(_, ns)| *ns);
            put(name, 100.0 * ratio(ns as f64, total), "%");
        }
        put(
            "bench.unattributed_pct",
            100.0 * ratio(ledger.unattributed_ns as f64, total),
            "%",
        );
        let primary = |s: &Samples| match self.spec.primary {
            Primary::Fresh => median(&s.fresh),
            Primary::Commit => median(&s.commit),
        };
        put(
            "bench.trace_overhead_pct",
            100.0 * (ratio(primary(&phase.traced), primary(&phase.plain)) - 1.0),
            "%",
        );
        put("bench.round_p50_us", p50("round"), "us");
    }
}
