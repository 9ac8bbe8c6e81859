//! `colocated-maint`: the paper's §4 setting, where maintenance runs
//! next to the base data and does most of the work.
//!
//! Each round commits 16 seeded updates with `Source::apply_batch`
//! (8 professors: their age across the threshold plus one student's
//! age), polls the monitor, flushes two Algorithm 1 views in
//! `ColocatedViews` (two threads), and steps a three-branch union and
//! an `Avg` aggregate on the backend `choose_backend` names — the delta
//! circuit, driven through `CircuitMaintainer` with the same delta and
//! snapshot. The round ends with a read of every view that checks the
//! round's updates landed. `serve` and `durable` are not on the path.

use crate::harness::{ns_between, Counters, Primary, Samples, Spec, Workload};
use crate::shape::{flip_age, Professors, Stream, OBJECTS_PER_PROFESSOR, YOUNG_MAX};
use crate::trace;
use gsdb::{DeltaBatch, Oid, Update};
use gsview_core::recompute::{recompute, recompute_members};
use gsview_core::{
    AggFn, AggregateView, AggregateViewDef, CircuitMaintainer, CircuitSource, CompoundViewDef,
    LocalBase, MaterializedView, SimpleViewDef,
};
use gsview_query::{CmpOp, MaintBackend, Pred};
use gsview_warehouse::protocol::ReportLevel;
use gsview_warehouse::{ColocatedViews, Monitor, Source};
use std::time::Instant;

/// Professors in the store (six objects each: ~30k objects).
pub const PROFESSORS: usize = 5_000;
/// Professors touched per round (two updates each).
pub const PROFESSORS_PER_ROUND: usize = 8;
/// Slab shards of the source store, so a batch commits across shards.
pub const SHARDS: usize = 4;
/// Maintenance threads for the Algorithm 1 portfolio.
pub const THREADS: usize = 2;
/// Students above this age are in the student views.
const ADULT_MIN: i64 = 20;
/// Professors above this age are in the union's third branch.
const SENIOR_MIN: i64 = 90;

/// The workload's plan.
pub const SPEC: Spec = Spec {
    name: "colocated-maint",
    why: "The store is about 2000x the delta, so maintenance terms that grow with view or \
          store size (the circuit's per-step sync) dominate the round here and nowhere else.",
    warmup: 50,
    window: 400,
    primary: Primary::Fresh,
    setup,
};

fn young_def() -> SimpleViewDef {
    SimpleViewDef::new("CM_YOUNG", "ROOT", "professor")
        .with_cond("age", Pred::new(CmpOp::Le, YOUNG_MAX))
}

fn adult_students_def() -> SimpleViewDef {
    SimpleViewDef::new("CM_ADULT", "ROOT", "professor.student")
        .with_cond("age", Pred::new(CmpOp::Gt, ADULT_MIN))
}

fn union_def() -> CompoundViewDef {
    CompoundViewDef::new(
        "CM_UNION",
        vec![
            SimpleViewDef::new("CM_UNION", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Le, YOUNG_MAX)),
            SimpleViewDef::new("CM_UNION", "ROOT", "professor.student")
                .with_cond("age", Pred::new(CmpOp::Gt, ADULT_MIN)),
            SimpleViewDef::new("CM_UNION", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Gt, SENIOR_MIN)),
        ],
    )
}

fn avg_def() -> AggregateViewDef {
    AggregateViewDef::new(
        SimpleViewDef::new("CM_AVG", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, YOUNG_MAX)),
        "student.age",
        AggFn::Avg,
    )
}

/// A circuit-backed view: the maintainer and the view it keeps.
struct CircuitView {
    maint: CircuitMaintainer,
    mv: MaterializedView,
}

impl CircuitView {
    fn build(source: CircuitSource, src: &Source) -> Result<CircuitView, String> {
        let (backend, why) = source.planned_backend();
        if backend != MaintBackend::Circuit {
            return Err(format!(
                "the planner now routes {} to {backend:?} ({why}); this workload drives it \
                 through CircuitMaintainer and must be updated",
                source.view()
            ));
        }
        let mut mv = MaterializedView::new(source.view());
        let maint = CircuitMaintainer::new(source);
        maint
            .initialize(&mut mv, &src.snapshot())
            .map_err(|e| e.to_string())?;
        Ok(CircuitView { maint, mv })
    }
}

struct Colocated {
    src: Source,
    monitor: Monitor,
    views: ColocatedViews,
    union: CircuitView,
    avg: CircuitView,
    model: Professors,
    stream: Stream,
    /// Algorithm 1 outcome totals: membership changes, relevant and
    /// consolidated deltas.
    changed: u64,
    relevant: u64,
    consolidated: u64,
}

fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let src = Source::empty_sharded("colocated", Oid::new("ROOT"), ReportLevel::OidsOnly, SHARDS);
    let model = src
        .with_store(|s| {
            let m = Professors::build(s, PROFESSORS);
            s.drain_log();
            m
        })
        .map_err(|e| e.to_string())?;
    let views = ColocatedViews::new(&src, vec![young_def(), adult_students_def()], THREADS)
        .map_err(|e| e.to_string())?;
    let union = CircuitView::build(CircuitSource::Compound(union_def()), &src)?;
    let avg = CircuitView::build(CircuitSource::Aggregate(avg_def()), &src)?;
    Ok(Box::new(Colocated {
        monitor: src.monitor(),
        src,
        views,
        union,
        avg,
        model,
        stream: Stream::new(seed, 1),
        changed: 0,
        relevant: 0,
        consolidated: 0,
    }))
}

/// Relative tolerance for aggregate values.
const AGG_TOL: f64 = 1e-9;

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= AGG_TOL * x.abs().max(y.abs()).max(1.0)
}

impl Colocated {
    /// The round's updates, applied to the model: (professor, student) pairs touched.
    fn next_updates(&mut self) -> (Vec<Update>, Vec<(usize, usize)>) {
        let mut touched: Vec<(usize, usize)> = Vec::with_capacity(PROFESSORS_PER_ROUND);
        while touched.len() < PROFESSORS_PER_ROUND {
            let i = self.stream.below(self.model.count());
            if touched.iter().all(|&(p, _)| p != i) {
                touched.push((i, self.stream.below(2)));
            }
        }
        let mut ups = Vec::with_capacity(2 * PROFESSORS_PER_ROUND);
        for &(i, j) in &touched {
            let age = flip_age(&mut self.stream, self.model.age_of[i]);
            self.model.age_of[i] = age;
            ups.push(Update::modify(self.model.age[i], age));
            let t = self.stream.between(0, 88);
            self.model.student_age_of[i][j] = t;
            ups.push(Update::modify(self.model.student_age[i][j], t));
        }
        self.stream.end_round();
        (ups, touched)
    }

    /// Read every view at the touched members and compare with the model.
    fn read_check(&self, touched: &[(usize, usize)]) -> Result<(), String> {
        let [young, adult] = self.views.views() else {
            return Err("portfolio lost a view".into());
        };
        let m = &self.model;
        for &(i, j) in touched {
            let p = m.prof[i];
            let is_young = m.young(i);
            let is_senior = m.age_of[i] > SENIOR_MIN;
            let s = m.student[i][j];
            let is_adult = m.student_age_of[i][j] > ADULT_MIN;
            if young.contains_base(p) != is_young
                || self.avg.mv.contains_base(p) != is_young
                || self.union.mv.contains_base(p) != (is_young || is_senior)
                || adult.contains_base(s) != is_adult
                || self.union.mv.contains_base(s) != is_adult
            {
                return Err(format!("a view does not reflect the update to {p} / {s}"));
            }
            if is_young {
                let [t0, t1] = m.student_age_of[i];
                let want = (t0 + t1) as f64 / 2.0;
                match self.avg.maint.aggregate_of(p) {
                    Some(got) if close(got, want) => {}
                    got => return Err(format!("avg of {p} is {got:?}, expected {want}")),
                }
            }
        }
        Ok(())
    }
}

impl Workload for Colocated {
    fn updates_per_round(&self) -> u64 {
        2 * PROFESSORS_PER_ROUND as u64
    }

    fn round(&mut self, id: u64, s: &mut Samples) -> Result<(), String> {
        let (ups, touched) = self.next_updates();
        let t0 = Instant::now();
        let (t_commit, t_read, t_end, outcomes) = trace::round(id, || {
            trace::span("gsdb.commit", || self.src.apply_batch(ups))
                .map_err(|e| format!("commit: {e}"))?;
            let t_commit = Instant::now();
            let reports = trace::span("warehouse.poll", || self.monitor.poll());
            trace::span("warehouse.absorb", || {
                for r in &reports {
                    self.views.absorb(r);
                }
            });
            let outcomes = trace::span("warehouse.flush", || self.views.flush(&self.src))
                .map_err(|e| format!("flush: {e}"))?;
            let snap = trace::span("gsdb.snapshot", || self.src.snapshot());
            let batch = DeltaBatch::from_ops(reports.into_iter().map(|r| r.update).collect());
            let CircuitView { maint, mv } = &mut self.union;
            trace::span("circuit.union_step", || {
                maint.apply_batch(mv, &snap, &batch)
            })
            .map_err(|e| format!("union step: {e}"))?;
            let CircuitView { maint, mv } = &mut self.avg;
            trace::span("circuit.aggregate_step", || {
                maint.apply_batch(mv, &snap, &batch)
            })
            .map_err(|e| format!("aggregate step: {e}"))?;
            let t_read = Instant::now();
            trace::span("core.view_read", || self.read_check(&touched))?;
            Ok::<_, String>((t_commit, t_read, Instant::now(), outcomes))
        })?;
        for o in &outcomes {
            self.changed += (o.inserted.len() + o.deleted.len()) as u64;
            self.relevant += o.relevant_deltas as u64;
            self.consolidated += o.consolidated_ops as u64;
        }
        s.push_round(t0, t_commit, t_end, t_end);
        s.read.push(ns_between(t_read, t_end));
        Ok(())
    }

    fn counters(&self) -> Counters {
        let reg = gsview_obs::registry();
        Counters::from([
            ("changed", self.changed as f64),
            ("relevant", self.relevant as f64),
            ("consolidated", self.consolidated as f64),
            (
                "rebuilds",
                (self.union.maint.rebuilds() + self.avg.maint.rebuilds()) as f64,
            ),
            (
                "delta_weight",
                reg.counter("maint.circuit.delta.weight").get() as f64,
            ),
            (
                "cross_shard",
                reg.counter("store.commit.cross_shard").get() as f64,
            ),
        ])
    }

    fn check(&mut self) -> Vec<String> {
        let snap = self.src.snapshot();
        let mut failures = Vec::new();
        for (def, mv) in [young_def(), adult_students_def()]
            .iter()
            .zip(self.views.views())
        {
            match recompute(def, &mut LocalBase::new(&snap)) {
                Ok(want) if want.members_base() == mv.members_base() => {}
                Ok(_) => failures.push(format!("view {} differs from recompute", def.view)),
                Err(e) => failures.push(format!("recompute {}: {e}", def.view)),
            }
        }
        let mut union: Vec<Oid> = union_def()
            .branches
            .iter()
            .flat_map(|b| recompute_members(b, &mut LocalBase::new(&snap)))
            .collect();
        union.sort_by_key(|o| o.name());
        union.dedup();
        if self.union.mv.members_base() != union || self.union.maint.members() != union {
            failures.push("union view differs from the union of its branches' recompute".into());
        }
        match AggregateView::materialize(avg_def(), &mut LocalBase::new(&snap)) {
            Ok(av) => {
                let mut want = av.members();
                want.sort_by_key(|o| o.name());
                if self.avg.mv.members_base() != want || self.avg.maint.members() != want {
                    failures.push("aggregate members differ from recompute".into());
                }
                for &m in &want {
                    let ok = match (av.aggregate_of(m), self.avg.maint.aggregate_of(m)) {
                        (None, None) => true,
                        (Some(x), Some(y)) => close(x, y),
                        _ => false,
                    };
                    if !ok {
                        failures.push(format!("aggregate of {m} differs from recompute"));
                        break;
                    }
                }
            }
            Err(e) => failures.push(format!("aggregate recompute: {e}")),
        }
        for (name, cv) in [("union", &self.union), ("aggregate", &self.avg)] {
            if cv.maint.rebuilds() != 1 {
                failures.push(format!(
                    "{name} circuit rebuilt {} times after its initial build",
                    cv.maint.rebuilds().saturating_sub(1)
                ));
            }
        }
        failures
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "store_objects",
                (1 + PROFESSORS * OBJECTS_PER_PROFESSOR).to_string(),
            ),
            ("shards", SHARDS.to_string()),
            ("report_level", "L1 (OidsOnly), colocated".into()),
            (
                "media",
                "none: durable is not on this workload's path".into(),
            ),
            (
                "views",
                "Algorithm 1 x2 in ColocatedViews (threads=2); circuit union (3 branches) and Avg"
                    .into(),
            ),
            ("stream_digest", format!("{:016x}", self.stream.digest())),
        ]
    }
}
