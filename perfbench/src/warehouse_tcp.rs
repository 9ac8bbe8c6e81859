//! `warehouse-tcp`: the paper's §5 setting and the whole journey of one
//! update — commit, persist, report, wire, maintain, read.
//!
//! A source of about 10k objects reports at level L1 (`OidsOnly`) and
//! is served by `Server` + `SourceService`. A `Warehouse` reaches it
//! through a `FrameClient` (`connect_port`, `add_view`) and maintains
//! one single-path view. Each round runs one seeded update through
//! `Source::apply`, `Source::persist_now` on in-memory media,
//! `FrameClient::poll_reports` and `Warehouse::handle_report` (whose
//! query-backs cross TCP), then reads the view to check it landed.

use crate::durability::{self, Durability};
use crate::harness::{ns_between, Counters, Primary, Samples, Spec, Workload};
use crate::remote::{serve, Served, TimedPort};
use crate::shape::{flip_age, Professors, Stream, OBJECTS_PER_PROFESSOR, YOUNG_MAX};
use crate::trace;
use gsdb::{Oid, Path, Update};
use gsview_core::check_networked_equivalence;
use gsview_core::recompute::recompute;
use gsview_core::{LocalBase, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::protocol::{CostMeter, ReportLevel, SourceQuery};
use gsview_warehouse::{answer, QueryPort, ReportSource, Source, ViewOptions, Warehouse};
use std::sync::Arc;
use std::time::Instant;

/// Professors at the source (six objects each: ~10k objects).
pub const PROFESSORS: usize = 1_667;
const SOURCE: &str = "wh-src";

/// The workload's plan.
pub const SPEC: Spec = Spec {
    name: "warehouse-tcp",
    why: "One update per round crosses every layer of the networked journey, so per-message \
          costs (codec, reactor, client, protocol, metering) dominate and the circuit is bypassed.",
    warmup: 500,
    window: 4_000,
    primary: Primary::Fresh,
    setup,
};

fn view_def() -> SimpleViewDef {
    SimpleViewDef::new("WT_YOUNG", "ROOT", "professor")
        .with_cond("age", Pred::new(CmpOp::Le, YOUNG_MAX))
}

struct WarehouseTcp {
    src: Source,
    durable: Durability,
    served: Served,
    port: Arc<TimedPort>,
    wh: Warehouse,
    view: Oid,
    model: Professors,
    young: usize,
    stream: Stream,
    changed: u64,
    relevant: u64,
    consolidated: u64,
}

fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let src = Source::empty(SOURCE, Oid::new("ROOT"), ReportLevel::OidsOnly);
    let model = src
        .with_store(|s| {
            let m = Professors::build(s, PROFESSORS);
            s.drain_log();
            m
        })
        .map_err(|e| e.to_string())?;
    let durable = Durability::attach(&src)?;
    let served = serve(&src)?;
    let port = Arc::new(TimedPort::new(Arc::clone(&served.client)));
    let mut wh = Warehouse::new();
    wh.connect_port(
        SOURCE,
        Arc::clone(&port) as Arc<dyn QueryPort>,
        Arc::new(CostMeter::new()),
        served.client.checkpoint().1,
    );
    let view = wh
        .add_view(SOURCE, view_def(), ViewOptions::default())
        .map_err(|e| e.to_string())?;
    let young = (0..model.count()).filter(|&i| model.young(i)).count();
    Ok(Box::new(WarehouseTcp {
        src,
        durable,
        served,
        port,
        wh,
        view,
        model,
        young,
        stream: Stream::new(seed, 2),
        changed: 0,
        relevant: 0,
        consolidated: 0,
    }))
}

impl WarehouseTcp {
    /// The round's update, applied to the model; returns it with the
    /// professor it concerns.
    fn next_update(&mut self) -> (Update, usize) {
        let i = self.stream.below(self.model.count());
        let up = if self.stream.below(2) == 0 {
            let was = self.model.young(i);
            let age = flip_age(&mut self.stream, self.model.age_of[i]);
            self.model.age_of[i] = age;
            if was {
                self.young -= 1;
            } else {
                self.young += 1;
            }
            Update::modify(self.model.age[i], age)
        } else {
            let j = self.stream.below(2);
            let t = self.stream.between(0, 88);
            self.model.student_age_of[i][j] = t;
            Update::modify(self.model.student_age[i][j], t)
        };
        self.stream.end_round();
        (up, i)
    }

    fn read_check(&self, i: usize) -> Result<(), String> {
        let mv = self.wh.view(self.view).ok_or("the view is gone")?;
        let p = self.model.prof[i];
        if mv.contains_base(p) != self.model.young(i) || mv.len() != self.young {
            return Err(format!("the view does not reflect the update to {p}"));
        }
        Ok(())
    }

    /// The read mix the equivalence check replays: fetches, a label,
    /// a root path and an ancestor probe across the professors.
    fn check_queries(&self) -> Vec<SourceQuery> {
        let m = &self.model;
        (0..m.count())
            .step_by(m.count() / 40)
            .flat_map(|i| {
                [
                    SourceQuery::Fetch(m.prof[i]),
                    SourceQuery::Fetch(m.age[i]),
                    SourceQuery::LabelOf(m.student[i][0]),
                    SourceQuery::PathFromRoot {
                        root: Oid::new("ROOT"),
                        n: m.student_age[i][1],
                    },
                    SourceQuery::Ancestor {
                        n: m.age[i],
                        p: Path::parse("professor.age"),
                    },
                ]
            })
            .collect()
    }
}

impl Workload for WarehouseTcp {
    fn updates_per_round(&self) -> u64 {
        1
    }

    fn round(&mut self, id: u64, s: &mut Samples) -> Result<(), String> {
        let (up, i) = self.next_update();
        let t0 = Instant::now();
        let (t_commit, t_read, t_end, outcomes) = trace::round(id, || {
            trace::span("gsdb.commit", || self.src.apply(up))
                .map_err(|e| format!("commit: {e}"))?;
            self.durable.persist(&self.src)?;
            let t_commit = Instant::now();
            let reports = trace::span("warehouse.poll", || self.served.client.poll_reports());
            if reports.len() != 1 {
                return Err(format!("polled {} reports for one update", reports.len()));
            }
            let outcomes = trace::span("warehouse.handle_report", || {
                self.wh.handle_report(&reports[0])
            })
            .map_err(|e| format!("handle_report: {e}"))?;
            let t_read = Instant::now();
            trace::span("core.view_read", || self.read_check(i))?;
            Ok((t_commit, t_read, Instant::now(), outcomes))
        })?;
        for (_, o) in &outcomes {
            self.changed += (o.inserted.len() + o.deleted.len()) as u64;
            self.relevant += o.relevant as u64;
            self.consolidated += 1;
        }
        s.push_round(t0, t_commit, t_end, t_end);
        s.read.push(ns_between(t_read, t_end));
        Ok(())
    }

    fn between_rounds(&mut self, _id: u64) -> Result<(), String> {
        self.durable.maybe_rotate(&self.src)
    }

    fn counters(&self) -> Counters {
        let server = self.served.meter.snapshot();
        let mut c = Counters::from([
            ("changed", self.changed as f64),
            ("relevant", self.relevant as f64),
            ("consolidated", self.consolidated as f64),
            ("source_queries", server.queries as f64),
            ("messages", server.messages as f64),
            ("bytes", server.bytes as f64),
            ("querybacks", self.port.calls() as f64),
            ("faults", self.port.faults() as f64),
            (
                "retries",
                self.wh.meter(SOURCE).map_or(0, |m| m.retries()) as f64,
            ),
            (
                "cross_shard",
                gsview_obs::registry()
                    .counter("store.commit.cross_shard")
                    .get() as f64,
            ),
        ]);
        self.durable.counters(&mut c);
        c
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let snap = self.src.snapshot();
        match recompute(&view_def(), &mut LocalBase::new(&snap)) {
            Ok(want) => {
                let got = self.wh.view(self.view).map(|mv| mv.members_base());
                if got.as_ref() != Some(&want.members_base()) {
                    failures.push("warehouse view differs from the colocated recompute".into());
                }
            }
            Err(e) => failures.push(format!("recompute: {e}")),
        }
        let client = &self.served.client;
        failures.extend(check_networked_equivalence(
            &self.check_queries(),
            |q| client.query(q).ok(),
            |q| Some(answer(&snap, q)),
        ));
        if !self.wh.stale_views().is_empty() {
            failures.push(format!("stale views: {:?}", self.wh.stale_views()));
        }
        let stats = self.wh.view_stats(self.view).unwrap_or_default();
        if stats.gaps_detected != 0 || stats.duplicates_dropped != 0 {
            failures.push(format!(
                "sequence gaps {} / duplicates {}",
                stats.gaps_detected, stats.duplicates_dropped
            ));
        }
        let (_, next_seq) = client.checkpoint();
        if let Some(v) = self.wh.reconcile(SOURCE, next_seq) {
            failures.push(format!("tail gap at the checkpoint: {v:?}"));
        }
        if !self.wh.dead_letters().is_empty() {
            failures.push(format!("{} dead letters", self.wh.dead_letters().len()));
        }
        if self.port.faults() != 0 {
            failures.push(format!("{} query-backs failed", self.port.faults()));
        }
        failures.extend(self.durable.check_recovers(&self.src));
        failures
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "store_objects",
                (1 + PROFESSORS * OBJECTS_PER_PROFESSOR).to_string(),
            ),
            ("shards", "1".into()),
            ("report_level", "L1 (OidsOnly) over TCP".into()),
            ("media", durability::media_provenance()),
            (
                "views",
                "one single-path view, Algorithm 1 at the warehouse".into(),
            ),
            (
                "warehouse_meter_queries",
                self.wh.meter(SOURCE).map_or(0, |m| m.queries()).to_string(),
            ),
            (
                "server_meter_queries",
                self.served.meter.queries().to_string(),
            ),
            ("stream_digest", format!("{:016x}", self.stream.digest())),
        ]
    }
}
