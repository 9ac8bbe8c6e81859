//! The delta-circuit maintenance backend (DBSP-style IVM).
//!
//! This module is the bridge between the view classes of this crate
//! and `gsview-circuit`: a [`CircuitSource`] names any maintainable
//! view definition (simple, compound, wildcard, aggregate) and lowers
//! it to the circuit IR; a [`CircuitMaintainer`] owns the compiled
//! circuit plus its arranged state and consumes the same consolidated
//! delta batches the Algorithm 1 maintainers do, keeping a
//! [`MaterializedView`] in sync in O(|Δ|) per commit: each step's
//! membership delta ([`StepOutput`]) is applied to the view directly,
//! and only a (re)build reconciles the whole view.
//!
//! The planner decides per view which backend runs
//! ([`choose_backend`]): Algorithm 1 already repairs constant
//! single-path views locally, so circuits are reserved for the shapes
//! where it escalates — multi-branch unions, wildcard expressions
//! (whose only Algorithm 1 rule is a centralized refresh), and
//! aggregates. Experiment E18 measures the head-to-head.
//!
//! ## Epoch consistency and warm restart
//!
//! Circuit state is valid only for the exact store version it was
//! stepped to. The maintainer records that version after every step;
//! if a batch arrives whose pre-state does not match (a recovery
//! replay, a fork, a missed epoch), it falls back to an
//! epoch-consistent rebuild — [`Circuit::init`] against the current
//! store — which is by construction equivalent to recomputation.
//!
//! After every incremental step the adapter checks, in O(1), that the
//! view holds as many members as the circuit. A view that drifted
//! from its circuit (edited behind the maintainer's back) fails that
//! check and is reconciled in full, counted in
//! `maint.circuit.view.fallbacks`; `maint.circuit.view.synced` counts
//! the members each call reconciles.

use crate::aggregate::{AggFn, AggregateViewDef};
use crate::maintain::BatchOutcome;
use crate::mview::MaterializedView;
use crate::viewdef::{CompoundViewDef, GeneralViewDef, SimpleViewDef};
use gsdb::{ConsolidatedDelta, DeltaBatch, Oid, Result, Store};
use gsview_circuit::{
    AggDef, AggKind, BranchDef, Circuit, CircuitDef, CondDef, StepOutput,
};
use gsview_obs::Counter;
use gsview_query::{choose_backend, MaintBackend, PathExpr};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Any view definition the circuit backend can maintain.
#[derive(Clone, Debug)]
pub enum CircuitSource {
    /// A §4.2 simple view (constant paths, one branch).
    Simple(SimpleViewDef),
    /// A union of simple branches.
    Compound(CompoundViewDef),
    /// A wildcard / general path-expression view.
    General(GeneralViewDef),
    /// An aggregate view (membership branch + per-member rollup).
    Aggregate(AggregateViewDef),
}

fn simple_branch(def: &SimpleViewDef) -> BranchDef {
    BranchDef {
        root: def.root,
        sel: PathExpr::from_path(&def.sel_path),
        cond: def.cond.as_ref().map(|c| CondDef {
            expr: PathExpr::from_path(&c.path),
            pred: c.pred.clone(),
        }),
    }
}

fn agg_kind(f: AggFn) -> AggKind {
    match f {
        AggFn::Count => AggKind::Count,
        AggFn::Sum => AggKind::Sum,
        AggFn::Min => AggKind::Min,
        AggFn::Max => AggKind::Max,
        AggFn::Avg => AggKind::Avg,
    }
}

impl CircuitSource {
    /// The view object's OID.
    pub fn view(&self) -> Oid {
        match self {
            CircuitSource::Simple(d) => d.view,
            CircuitSource::Compound(d) => d.view,
            CircuitSource::General(d) => d.view,
            CircuitSource::Aggregate(d) => d.members.view,
        }
    }

    /// Lower to the circuit IR.
    pub fn lower(&self) -> CircuitDef {
        match self {
            CircuitSource::Simple(d) => CircuitDef {
                branches: vec![simple_branch(d)],
                aggregate: None,
            },
            CircuitSource::Compound(d) => CircuitDef {
                branches: d.branches.iter().map(simple_branch).collect(),
                aggregate: None,
            },
            CircuitSource::General(d) => CircuitDef {
                branches: vec![BranchDef {
                    root: d.root,
                    sel: d.sel_expr.clone(),
                    cond: d.cond.as_ref().map(|c| CondDef {
                        expr: c.expr.clone(),
                        pred: c.pred.clone(),
                    }),
                }],
                aggregate: None,
            },
            CircuitSource::Aggregate(d) => CircuitDef {
                branches: vec![simple_branch(&d.members)],
                aggregate: Some(AggDef {
                    path: PathExpr::from_path(&d.agg_path),
                    f: agg_kind(d.f),
                }),
            },
        }
    }

    /// What the planner would pick for this shape, with the reason.
    pub fn planned_backend(&self) -> (MaintBackend, String) {
        match self {
            CircuitSource::Simple(d) => {
                choose_backend(&PathExpr::from_path(&d.sel_path), 1, false)
            }
            CircuitSource::Compound(d) => choose_backend(
                &PathExpr::from_path(
                    &d.branches.first().map(|b| b.sel_path.clone()).unwrap_or_default(),
                ),
                d.branches.len(),
                false,
            ),
            CircuitSource::General(d) => choose_backend(&d.sel_expr, 1, false),
            CircuitSource::Aggregate(d) => {
                choose_backend(&PathExpr::from_path(&d.members.sel_path), 1, true)
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    circuit: Circuit,
    /// Store version the circuit state is consistent with; `None`
    /// until the first (re)build.
    version: Option<u64>,
    rebuilds: u64,
    steps: u64,
}

/// A maintainer that keeps a view synchronized through a compiled
/// delta circuit instead of Algorithm 1.
///
/// The circuit state lives behind a mutex so the maintainer exposes
/// the same `&self` batch interface as [`GeneralMaintainer`]
/// (`crate::general::GeneralMaintainer`) and can ride in the parallel
/// commit pipeline's scoped threads.
#[derive(Debug)]
pub struct CircuitMaintainer {
    source: CircuitSource,
    inner: Mutex<Inner>,
}

impl Clone for CircuitMaintainer {
    fn clone(&self) -> Self {
        let inner = self.inner.lock().unwrap();
        CircuitMaintainer {
            source: self.source.clone(),
            inner: Mutex::new(Inner {
                circuit: inner.circuit.clone(),
                version: inner.version,
                rebuilds: inner.rebuilds,
                steps: inner.steps,
            }),
        }
    }
}

impl CircuitMaintainer {
    /// Compile a maintainer for `source`. No state is built until the
    /// first [`CircuitMaintainer::initialize`] or batch arrives.
    pub fn new(source: CircuitSource) -> Self {
        let circuit = Circuit::compile(source.lower());
        CircuitMaintainer {
            source,
            inner: Mutex::new(Inner {
                circuit,
                version: None,
                rebuilds: 0,
                steps: 0,
            }),
        }
    }

    /// The definition this maintainer serves.
    pub fn source(&self) -> &CircuitSource {
        &self.source
    }

    /// The view object's OID.
    pub fn view(&self) -> Oid {
        self.source.view()
    }

    /// How many epoch-consistent rebuilds have run (version mismatch,
    /// divergence fallback, or first build).
    pub fn rebuilds(&self) -> u64 {
        self.inner.lock().unwrap().rebuilds
    }

    /// How many incremental steps have run.
    pub fn steps(&self) -> u64 {
        self.inner.lock().unwrap().steps
    }

    /// Build (or rebuild) circuit state against `store` and fill `mv`
    /// to match. Equivalent to recomputation.
    pub fn initialize(&self, mv: &mut MaterializedView, store: &Store) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        Self::rebuild(&mut inner, store, self.source.view())?;
        full_sync(mv, store, &inner.circuit).map(|_| ())
    }

    fn rebuild(inner: &mut Inner, store: &Store, view: Oid) -> Result<()> {
        gsview_obs::event!(
            "maint.circuit.rebuild",
            "view" = view.name().to_string(),
        );
        inner
            .circuit
            .init(store)
            // A circuit only fails on divergence — cyclic base under a
            // wildcard, i.e. the store is not the tree/forest the view
            // classes assume.
            .map_err(|_| gsdb::GsdbError::NotATree(view))?;
        inner.version = Some(store.version());
        inner.rebuilds += 1;
        Ok(())
    }

    /// Step the circuit by one consolidated delta, with the store in
    /// its post-batch state, and say how: [`Advance::Stepped`] carries
    /// the step's membership delta.
    ///
    /// Falls back to an epoch-consistent rebuild when the recorded
    /// version does not match the batch's pre-state or when delta
    /// propagation diverges.
    fn advance(
        inner: &mut Inner,
        store: &Store,
        delta: &ConsolidatedDelta,
        view: Oid,
    ) -> Result<Advance> {
        let pre = store.version().saturating_sub(delta.input_ops as u64);
        if inner.version == Some(pre) {
            match inner.circuit.step(delta, store) {
                Ok(out) => {
                    inner.version = Some(store.version());
                    inner.steps += 1;
                    return Ok(Advance::Stepped(out));
                }
                Err(e) => {
                    gsview_obs::failure(&format!(
                        "maint.circuit.step diverged for {view}: {e}; rebuilding"
                    ));
                }
            }
        }
        Self::rebuild(inner, store, view)?;
        Ok(Advance::Rebuilt)
    }

    /// Process a batch of updates with the store in its final state —
    /// the circuit-backed counterpart of
    /// [`GeneralMaintainer::apply_batch`](crate::general::GeneralMaintainer::apply_batch).
    pub fn apply_batch(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        self.apply_consolidated(mv, store, &batch.consolidate())
    }

    /// [`CircuitMaintainer::apply_batch`] for an already-consolidated
    /// delta (the parallel pipeline consolidates once per commit).
    pub fn apply_consolidated(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        delta: &ConsolidatedDelta,
    ) -> Result<BatchOutcome> {
        let _span = gsview_obs::span!(
            "maint.circuit.apply",
            "view" = self.source.view().name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        let mut inner = self.inner.lock().unwrap();
        let (inserted, deleted) =
            match Self::advance(&mut inner, store, delta, self.source.view())? {
                Advance::Stepped(out) => {
                    let (mut inserted, mut deleted) = apply_step(mv, store, &out)?;
                    if mv.len() != inner.circuit.member_len() {
                        // The view was not in step with the circuit
                        // before this batch: reconcile it in full. The
                        // outcome lists both passes' edits.
                        view_metrics().fallbacks.incr();
                        let (ins, del) = full_sync(mv, store, &inner.circuit)?;
                        inserted.extend(ins);
                        deleted.extend(del);
                    }
                    (inserted, deleted)
                }
                Advance::Rebuilt => full_sync(mv, store, &inner.circuit)?,
            };
        drop(inner);
        // Content upkeep (§3.2): the circuit tracks membership and
        // aggregates; surviving members whose values changed still
        // need their stored copies refreshed.
        let fresh: HashSet<Oid> = inserted.iter().copied().collect();
        let mut refreshed = 0;
        for &o in &delta.touched {
            if mv.contains_base(o) && !fresh.contains(&o) {
                if let Some(obj) = store.get(o) {
                    let obj = obj.clone();
                    if mv.refresh_delegate(&obj)? {
                        refreshed += 1;
                    }
                }
            }
        }
        Ok(BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            // Every surviving delta flows through the circuit; nothing
            // is screened out up front (screening happens per product
            // state inside the operators).
            relevant_deltas: delta.len(),
            inserted,
            deleted,
            refreshed,
            ..BatchOutcome::default()
        })
    }

    /// Current members, sorted by name (aggregate sources included).
    pub fn members(&self) -> Vec<Oid> {
        let inner = self.inner.lock().unwrap();
        let mut v = inner.circuit.members();
        v.sort_by_key(|o| o.name());
        v
    }

    /// A member's aggregate value (aggregate sources only).
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.inner.lock().unwrap().circuit.aggregate_of(member)
    }

    /// The global rollup over all members (aggregate sources only).
    pub fn total(&self) -> Option<f64> {
        self.inner.lock().unwrap().circuit.total()
    }
}

/// How [`CircuitMaintainer::advance`] brought the circuit up to date.
enum Advance {
    /// One incremental step, with the membership delta it produced.
    Stepped(StepOutput),
    /// An epoch-consistent rebuild against the current store.
    Rebuilt,
}

/// Handles to the adapter's global-registry counters, resolved once.
struct ViewMetrics {
    /// Members reconciled: |inserted| + |deleted| on the step path,
    /// every view and circuit member scanned on a full sync.
    synced: Arc<Counter>,
    /// Steps whose view failed the size check and was fully synced.
    fallbacks: Arc<Counter>,
}

fn view_metrics() -> &'static ViewMetrics {
    static METRICS: OnceLock<ViewMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = gsview_obs::registry();
        ViewMetrics {
            synced: reg.counter("maint.circuit.view.synced"),
            fallbacks: reg.counter("maint.circuit.view.fallbacks"),
        }
    })
}

/// Apply one step's membership delta to `mv` in O(|Δ|); returns the
/// (inserted, deleted) members that changed `mv`, sorted by name.
fn apply_step(
    mv: &mut MaterializedView,
    store: &Store,
    out: &StepOutput,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    view_metrics()
        .synced
        .add((out.inserted.len() + out.deleted.len()) as u64);
    let mut deleted = Vec::with_capacity(out.deleted.len());
    for &y in &out.deleted {
        if mv.v_delete(y)? {
            deleted.push(y);
        }
    }
    let mut inserted = Vec::with_capacity(out.inserted.len());
    for &y in &out.inserted {
        if !mv.contains_base(y) {
            if let Some(obj) = store.get(y) {
                mv.v_insert(obj)?;
                inserted.push(y);
            }
        }
    }
    inserted.sort_by_key(|o| o.name());
    deleted.sort_by_key(|o| o.name());
    Ok((inserted, deleted))
}

/// Reconcile `mv` to exactly the circuit's members — O(|view|), for
/// after a (re)build or a failed size check; returns (inserted,
/// deleted) sorted by name.
fn full_sync(
    mv: &mut MaterializedView,
    store: &Store,
    circuit: &Circuit,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    let stale = mv.members_base();
    view_metrics()
        .synced
        .add((stale.len() + circuit.member_len()) as u64);
    let mut deleted = Vec::new();
    for y in stale {
        if !circuit.contains(y) && mv.v_delete(y)? {
            deleted.push(y);
        }
    }
    let mut inserted = Vec::new();
    for y in circuit.members() {
        if !mv.contains_base(y) {
            if let Some(obj) = store.get(y) {
                mv.v_insert(obj)?;
                inserted.push(y);
            }
        }
    }
    inserted.sort_by_key(|o| o.name());
    deleted.sort_by_key(|o| o.name());
    Ok((inserted, deleted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn simple_source_tracks_algorithm1() {
        let mut store = person_store();
        let def = SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let cm = CircuitMaintainer::new(CircuitSource::Simple(def));
        let mut mv = MaterializedView::new("YP");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);

        let mut batch = DeltaBatch::new();
        batch.push(
            store
                .apply(Update::Create {
                    object: gsdb::Object::atom("A2", "age", 40i64),
                })
                .unwrap(),
        );
        batch.push(store.insert_edge(oid("ROOT"), oid("A2")).unwrap());
        batch.push(store.delete_edge(oid("ROOT"), oid("A2")).unwrap());
        batch.push(store.insert_edge(oid("P2"), oid("A2")).unwrap());
        let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
        assert_eq!(cm.steps(), 1);
    }

    #[test]
    fn version_mismatch_triggers_epoch_consistent_rebuild() {
        let mut store = person_store();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let cm = CircuitMaintainer::new(CircuitSource::General(def));
        let mut mv = MaterializedView::new("MVJ");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(cm.rebuilds(), 1);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);

        // Apply updates the maintainer never sees...
        store.apply(Update::modify("N2", "John")).unwrap();
        // ...then hand it a batch with only the tail: versions no
        // longer line up, so it must rebuild rather than step.
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("N4", "John")).unwrap());
        cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!(cm.rebuilds(), 2);
        assert_eq!(cm.steps(), 0);
        assert_eq!(
            mv.members_base(),
            vec![oid("P1"), oid("P2"), oid("P3"), oid("P4")]
        );
    }

    #[test]
    fn aggregate_source_exposes_values() {
        let store = person_store();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("AGG", "ROOT", "professor"),
            "student.age",
            AggFn::Avg,
        );
        let cm = CircuitMaintainer::new(CircuitSource::Aggregate(def));
        let mut mv = MaterializedView::new("AGG");
        cm.initialize(&mut mv, &store).unwrap();
        for y in cm.members() {
            // Professors without students have an undefined average.
            let vals = gsdb::path::eval(&store, y, &gsdb::Path::parse("student.age"), &|_| true);
            assert_eq!(cm.aggregate_of(y).is_some(), !vals.is_empty(), "{y}");
        }
    }

    #[test]
    fn planner_routes_each_shape() {
        let simple = CircuitSource::Simple(SimpleViewDef::new("V", "ROOT", "professor"));
        assert_eq!(simple.planned_backend().0, MaintBackend::Algorithm1);
        // Wildcard shapes route to Algorithm 1 since the E18 routing
        // fix: scoped recomputation beat the circuit's product-state
        // at every measured size.
        let general = CircuitSource::General(GeneralViewDef::new(
            "V",
            "ROOT",
            PathExpr::parse("*.age").unwrap(),
        ));
        assert_eq!(general.planned_backend().0, MaintBackend::Algorithm1);
        let compound = CircuitSource::Compound(CompoundViewDef::new(
            "V",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor"),
                SimpleViewDef::new("_", "ROOT", "secretary"),
            ],
        ));
        assert_eq!(compound.planned_backend().0, MaintBackend::Circuit);
        let agg = CircuitSource::Aggregate(AggregateViewDef::new(
            SimpleViewDef::new("V", "ROOT", "professor"),
            "age",
            AggFn::Sum,
        ));
        assert_eq!(agg.planned_backend().0, MaintBackend::Circuit);
    }
}
