//! Compiling view definitions into delta circuits and stepping them.
//!
//! A [`CircuitDef`] is the backend-neutral IR a view definition lowers
//! to: one [`BranchDef`] per selection branch (root × path expression
//! × optional condition) plus an optional [`AggDef`]. [`Circuit`]
//! compiles the IR into a dataflow of flow operators over one shared
//! [`GraphArrangement`]:
//!
//! ```text
//!   ΔStore ──ingest──► edge/node/atom events
//!     ├─► ForwardFlow(sel)   per branch ─┐
//!     ├─► BackwardFlow(cond) per branch ─┼─► semijoin ─► distinct ─► ΔV
//!     └─► ForwardFlow(agg, per member) ◄─┘ (membership ±1 feeds back)
//!                └─► distinct pairs ─► weighted aggregate ─► Δagg
//! ```
//!
//! Initialization and incremental steps share one code path: loading
//! a store is just ingesting a delta that creates every object, so
//! the state reached incrementally is — by construction — the state a
//! from-scratch rebuild reaches. That is the invariant the four-way
//! differential oracle in core pins down.

use crate::arrange::{GraphArrangement, IngestEvents};
use crate::operator::{BackwardFlow, Diverged, ForwardFlow};
use crate::zset::{DistinctOp, ZSet};
use crate::CircuitError;
use gsdb::{ConsolidatedDelta, FastMap, FastSet, Oid, Store};
use gsview_obs::{Counter, Histogram};
use gsview_query::{PathExpr, Pred};
use std::sync::{Arc, OnceLock};

/// An existential condition on view members: some instance of `expr`
/// from the member must end in an atom satisfying `pred`.
#[derive(Clone, Debug)]
pub struct CondDef {
    /// Path expression below the member.
    pub expr: PathExpr,
    /// Predicate on the terminal atom.
    pub pred: Pred,
}

/// One selection branch: objects reached from `root` along `sel`,
/// optionally filtered by a condition.
#[derive(Clone, Debug)]
pub struct BranchDef {
    /// Branch root object.
    pub root: Oid,
    /// Selection path expression.
    pub sel: PathExpr,
    /// Optional membership condition.
    pub cond: Option<CondDef>,
}

/// The aggregate functions the circuit backend supports — mirrors
/// core's `AggFn` (the circuit crate sits below core and cannot
/// depend on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// Number of numeric atoms.
    Count,
    /// Sum of numeric atoms.
    Sum,
    /// Minimum (undefined on empty input).
    Min,
    /// Maximum (undefined on empty input).
    Max,
    /// Arithmetic mean (undefined on empty input).
    Avg,
}

impl AggKind {
    /// Compute over a slice of numeric values; `None` when undefined.
    pub fn compute(&self, values: &[f64]) -> Option<f64> {
        match self {
            AggKind::Count => Some(values.len() as f64),
            AggKind::Sum => Some(values.iter().sum()),
            AggKind::Min => values.iter().copied().reduce(f64::min),
            AggKind::Max => values.iter().copied().reduce(f64::max),
            AggKind::Avg => {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            }
        }
    }
}

/// Aggregation over each member's reachable numeric atoms.
#[derive(Clone, Debug)]
pub struct AggDef {
    /// Path from a member to the aggregated atoms.
    pub path: PathExpr,
    /// The aggregate function.
    pub f: AggKind,
}

/// The circuit IR one view definition lowers to.
#[derive(Clone, Debug)]
pub struct CircuitDef {
    /// Selection branches (membership is their union).
    pub branches: Vec<BranchDef>,
    /// Optional per-member aggregation.
    pub aggregate: Option<AggDef>,
}

/// Per-step work and state-size measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Total |Δin|: low-level events the batch reduced to.
    pub input_weight: u64,
    /// Worklist pops in selection flows.
    pub sel_pops: u64,
    /// Worklist pops in condition-witness flows.
    pub witness_pops: u64,
    /// Worklist pops in the aggregate flow.
    pub agg_pops: u64,
    /// Arranged records after the step.
    pub arranged_nodes: usize,
    /// Arranged live edges after the step.
    pub arranged_edges: usize,
    /// Live operator-state entries (all flows) after the step.
    pub state_entries: usize,
}

impl StepStats {
    /// Total worklist pops across all operators.
    pub fn pops(&self) -> u64 {
        self.sel_pops + self.witness_pops + self.agg_pops
    }
}

/// What one circuit step changed.
#[derive(Clone, Debug, Default)]
pub struct StepOutput {
    /// Objects that became view members (unordered).
    pub inserted: Vec<Oid>,
    /// Objects that stopped being view members (unordered).
    pub deleted: Vec<Oid>,
    /// Members whose aggregate value changed (unordered; aggregate
    /// circuits only).
    pub agg_changed: Vec<Oid>,
    /// Work/state measurements for this step.
    pub stats: StepStats,
}

#[derive(Clone, Debug)]
struct BranchState {
    sel: ForwardFlow<()>,
    witness: Option<BackwardFlow>,
}

#[derive(Clone, Debug)]
struct AggState {
    flow: ForwardFlow<Oid>,
    pairs: DistinctOp<(Oid, Oid)>,
    endpoints: FastMap<Oid, FastSet<Oid>>,
    holders: FastMap<Oid, FastSet<Oid>>,
    values: FastMap<Oid, Option<f64>>,
    f: AggKind,
}

/// A compiled, stateful delta circuit for one view.
///
/// Lifecycle: [`Circuit::compile`] → [`Circuit::init`] against a
/// store snapshot → [`Circuit::step`] per consolidated batch. After
/// any error the internal state is partial and the circuit must be
/// re-compiled and re-initialized (the maintainer layer treats every
/// error as "rebuild from the current store", which is always
/// correct).
#[derive(Clone, Debug)]
pub struct Circuit {
    def: CircuitDef,
    arr: GraphArrangement,
    branches: Vec<BranchState>,
    view: DistinctOp<Oid>,
    agg: Option<AggState>,
}

impl Circuit {
    /// Compile a definition into an empty circuit.
    pub fn compile(def: CircuitDef) -> Circuit {
        let _span = gsview_obs::span!(
            "maint.circuit.compile",
            "branches" = def.branches.len(),
            "aggregate" = def.aggregate.is_some(),
        );
        let branches = def
            .branches
            .iter()
            .map(|b| BranchState {
                sel: ForwardFlow::new(&b.sel),
                witness: b
                    .cond
                    .as_ref()
                    .map(|c| BackwardFlow::new(&c.expr, c.pred.clone())),
            })
            .collect();
        let agg = def.aggregate.as_ref().map(|a| AggState {
            flow: ForwardFlow::new(&a.path),
            pairs: DistinctOp::new(),
            endpoints: FastMap::default(),
            holders: FastMap::default(),
            values: FastMap::default(),
            f: a.f,
        });
        Circuit {
            def,
            arr: GraphArrangement::new(),
            branches,
            view: DistinctOp::new(),
            agg,
        }
    }

    /// Load a store snapshot into a freshly compiled circuit. Shares
    /// the event pipeline with [`Circuit::step`]: the whole store is
    /// one "everything created" delta.
    pub fn init(&mut self, store: &Store) -> Result<StepOutput, CircuitError> {
        let fresh = Circuit::compile(self.def.clone());
        *self = fresh;
        let events = self.arr.ingest_full(store);
        self.run(events, true)
    }

    /// Apply one consolidated delta (`store` is the post-batch
    /// store). Cost is proportional to the product states the delta
    /// actually touches, not to view or store size.
    pub fn step(
        &mut self,
        delta: &ConsolidatedDelta,
        store: &Store,
    ) -> Result<StepOutput, CircuitError> {
        let events = self.arr.ingest(delta, store);
        self.run(events, false)
    }

    /// Current members (unordered).
    pub fn members(&self) -> Vec<Oid> {
        self.view.keys().collect()
    }

    /// Is `oid` currently a member?
    pub fn contains(&self, oid: Oid) -> bool {
        self.view.contains(oid)
    }

    /// Number of members.
    pub fn member_len(&self) -> usize {
        self.view.len()
    }

    /// A member's aggregate value (aggregate circuits only; `None`
    /// for non-members or undefined aggregates).
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.agg.as_ref()?.values.get(&member).copied().flatten()
    }

    /// The global rollup over all members' aggregated atoms.
    pub fn total(&self) -> Option<f64> {
        let agg = self.agg.as_ref()?;
        let mut all = Vec::new();
        for y in self.view.keys() {
            self.collect_values(agg, y, &mut all);
        }
        agg.f.compute(&all)
    }

    fn collect_values(&self, agg: &AggState, member: Oid, out: &mut Vec<f64>) {
        if let Some(zs) = agg.endpoints.get(&member) {
            out.extend(
                zs.iter()
                    .filter_map(|&z| self.arr.atom(z).and_then(|a| a.as_f64())),
            );
        }
    }

    fn run(&mut self, events: IngestEvents, inject_roots: bool) -> Result<StepOutput, CircuitError> {
        let _span = gsview_obs::span!(
            "maint.circuit.step",
            "input" = events.total_abs_weight(),
            "init" = inject_roots,
        );
        let mut stats = StepStats {
            input_weight: events.total_abs_weight(),
            ..StepStats::default()
        };

        // Stage 1: translate events into per-operator pending deltas
        // against the *pre-propagation* counts. Every operator must
        // see the whole batch before any operator propagates — that
        // is what makes batch application equal to the sum of its
        // parts.
        let mut sel_pending: Vec<ZSet<((), Oid, u32)>> = Vec::with_capacity(self.branches.len());
        let mut wit_pending: Vec<ZSet<(Oid, u32)>> = Vec::with_capacity(self.branches.len());
        for (i, branch) in self.branches.iter_mut().enumerate() {
            let mut sp = ZSet::new();
            if inject_roots {
                branch.sel.seed(&mut sp, (), self.def.branches[i].root, 1);
            }
            let mut wp = ZSet::new();
            if let Some(w) = branch.witness.as_mut() {
                for &o in &events.created {
                    w.base_event(&mut wp, o, self.arr.atom(o), 1);
                }
                for (o, atom) in &events.removed {
                    w.base_event(&mut wp, *o, atom.as_ref(), -1);
                }
                for (o, old, new) in &events.atoms {
                    w.base_event(&mut wp, *o, old.as_ref(), -1);
                    w.base_event(&mut wp, *o, Some(new), 1);
                }
                for e in &events.edges {
                    w.edge_event(&mut wp, e.parent, e.child, e.child_label, e.w);
                }
            }
            for e in &events.edges {
                branch
                    .sel
                    .edge_event(&mut sp, e.parent, e.child, e.child_label, e.w);
            }
            sel_pending.push(sp);
            wit_pending.push(wp);
        }
        let mut agg_pending: ZSet<(Oid, Oid, u32)> = ZSet::new();
        if let Some(agg) = self.agg.as_mut() {
            for e in &events.edges {
                agg.flow
                    .edge_event(&mut agg_pending, e.parent, e.child, e.child_label, e.w);
            }
        }

        // Propagation budget: generous for legitimate deep fan-out
        // (scales with arrangement size), but finite — a cyclic base
        // under a `*` expression has infinitely many paths, and the
        // budget converts that into `Diverged` instead of a hang.
        let seed_entries: u64 = sel_pending.iter().map(|p| p.len() as u64).sum::<u64>()
            + wit_pending.iter().map(|p| p.len() as u64).sum::<u64>()
            + agg_pending.len() as u64;
        let mut budget: u64 = 10_000
            + 256 * seed_entries
            + 64 * (self.arr.len() as u64 + self.arr.edge_len() as u64);

        // Stage 2: propagate selection and witness flows to their
        // fixpoints, collecting membership candidates.
        let mut dirty_members: FastSet<Oid> = FastSet::default();
        dirty_members.extend(events.created.iter().copied());
        dirty_members.extend(events.removed.iter().map(|(o, _)| *o));
        let arr = &self.arr;
        for (i, branch) in self.branches.iter_mut().enumerate() {
            let mut sel_dirty: FastSet<((), Oid)> = FastSet::default();
            branch
                .sel
                .propagate(
                    arr,
                    std::mem::take(&mut sel_pending[i]),
                    &mut budget,
                    &mut stats.sel_pops,
                    &mut sel_dirty,
                )
                .map_err(|Diverged| CircuitError::Diverged)?;
            dirty_members.extend(sel_dirty.into_iter().map(|(_, y)| y));
            if let Some(w) = branch.witness.as_mut() {
                let mut wit_dirty: FastSet<Oid> = FastSet::default();
                w.propagate(
                    arr,
                    std::mem::take(&mut wit_pending[i]),
                    &mut budget,
                    &mut stats.witness_pops,
                    &mut wit_dirty,
                )
                .map_err(|Diverged| CircuitError::Diverged)?;
                dirty_members.extend(wit_dirty);
            }
        }

        // Stage 3: semijoin + distinct. A member needs a live record,
        // positive selection support on some branch, and (on that
        // branch) a positive condition witness.
        let view = &mut self.view;
        let branches = &self.branches;
        let member_deltas = view.sync(dirty_members.iter().copied(), |y| {
            if !arr.contains(y) {
                return 0;
            }
            let ok = branches.iter().any(|b| {
                b.sel.support((), y) > 0
                    && b.witness.as_ref().map(|w| w.witness(y) > 0).unwrap_or(true)
            });
            ok as i64
        });

        // Stage 4: aggregate flow. Membership deltas inject ±1 member
        // sources; the flow's distinct (member, endpoint) pairs drive
        // value recomputation, together with atom changes on held
        // endpoints.
        let mut agg_changed = Vec::new();
        if let Some(agg) = self.agg.as_mut() {
            for &(y, d) in &member_deltas {
                agg.flow.seed(&mut agg_pending, y, y, d);
            }
            let mut dirty_pairs: FastSet<(Oid, Oid)> = FastSet::default();
            agg.flow
                .propagate(
                    arr,
                    std::mem::take(&mut agg_pending),
                    &mut budget,
                    &mut stats.agg_pops,
                    &mut dirty_pairs,
                )
                .map_err(|Diverged| CircuitError::Diverged)?;
            let AggState {
                flow,
                pairs,
                endpoints,
                holders,
                values,
                f,
            } = agg;
            let pair_deltas = pairs.sync(dirty_pairs, |(y, z)| flow.support(y, z));
            let mut dirty_agg: FastSet<Oid> = FastSet::default();
            for ((y, z), d) in pair_deltas {
                if d > 0 {
                    endpoints.entry(y).or_default().insert(z);
                    holders.entry(z).or_default().insert(y);
                } else {
                    if let Some(s) = endpoints.get_mut(&y) {
                        s.remove(&z);
                        if s.is_empty() {
                            endpoints.remove(&y);
                        }
                    }
                    if let Some(s) = holders.get_mut(&z) {
                        s.remove(&y);
                        if s.is_empty() {
                            holders.remove(&z);
                        }
                    }
                }
                dirty_agg.insert(y);
            }
            // A held endpoint's value can change through a surviving
            // modify, or through a remove + re-create in one batch
            // (net-zero edge churn, so no pair delta) — both dirty
            // the holding members.
            for z in events
                .atoms
                .iter()
                .map(|(z, _, _)| *z)
                .chain(events.created.iter().copied())
                .chain(events.removed.iter().map(|(z, _)| *z))
            {
                if let Some(hs) = holders.get(&z) {
                    dirty_agg.extend(hs.iter().copied());
                }
            }
            dirty_agg.extend(member_deltas.iter().map(|&(y, _)| y));
            let view = &self.view;
            for y in dirty_agg {
                let new = if view.contains(y) {
                    let vals: Vec<f64> = endpoints
                        .get(&y)
                        .map(|zs| {
                            zs.iter()
                                .filter_map(|&z| arr.atom(z).and_then(|a| a.as_f64()))
                                .collect()
                        })
                        .unwrap_or_default();
                    Some(f.compute(&vals))
                } else {
                    None
                };
                let old = match new {
                    Some(v) => values.insert(y, v),
                    None => values.remove(&y),
                };
                if old != new {
                    agg_changed.push(y);
                }
            }
        }

        stats.arranged_nodes = self.arr.len();
        stats.arranged_edges = self.arr.edge_len();
        stats.state_entries = self.state_len();
        self.report(&stats);

        let mut out = StepOutput {
            agg_changed,
            stats,
            ..StepOutput::default()
        };
        for (y, d) in member_deltas {
            if d > 0 {
                out.inserted.push(y);
            } else {
                out.deleted.push(y);
            }
        }
        Ok(out)
    }

    /// Total live operator-state entries across all flows.
    pub fn state_len(&self) -> usize {
        self.branches
            .iter()
            .map(|b| {
                b.sel.state_len() + b.witness.as_ref().map(|w| w.state_len()).unwrap_or(0)
            })
            .sum::<usize>()
            + self.agg.as_ref().map(|a| a.flow.state_len()).unwrap_or(0)
    }

    /// Arranged nodes and edges (mirror size).
    pub fn arrangement_size(&self) -> (usize, usize) {
        (self.arr.len(), self.arr.edge_len())
    }

    fn report(&self, stats: &StepStats) {
        let m = step_metrics();
        m.steps.incr();
        m.delta_weight.add(stats.input_weight);
        m.expand_pops.add(stats.sel_pops);
        m.witness_pops.add(stats.witness_pops);
        m.aggregate_pops.add(stats.agg_pops);
        m.arranged_nodes.record(stats.arranged_nodes as u64);
        m.arranged_edges.record(stats.arranged_edges as u64);
        m.state_entries.record(stats.state_entries as u64);
    }
}

/// Handles to the global-registry metrics every step reports, resolved
/// once: a by-name lookup takes the registry mutex and scans its list.
/// [`gsview_obs::Registry::reset`] zeroes metrics in place, so the
/// handles stay valid across resets.
struct StepMetrics {
    steps: Arc<Counter>,
    delta_weight: Arc<Counter>,
    expand_pops: Arc<Counter>,
    witness_pops: Arc<Counter>,
    aggregate_pops: Arc<Counter>,
    arranged_nodes: Arc<Histogram>,
    arranged_edges: Arc<Histogram>,
    state_entries: Arc<Histogram>,
}

fn step_metrics() -> &'static StepMetrics {
    static METRICS: OnceLock<StepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = gsview_obs::registry();
        StepMetrics {
            steps: reg.counter("maint.circuit.steps"),
            delta_weight: reg.counter("maint.circuit.delta.weight"),
            expand_pops: reg.counter("maint.circuit.operator.expand.pops"),
            witness_pops: reg.counter("maint.circuit.operator.witness.pops"),
            aggregate_pops: reg.counter("maint.circuit.operator.aggregate.pops"),
            arranged_nodes: reg.histogram("maint.circuit.arrangement.nodes"),
            arranged_edges: reg.histogram("maint.circuit.arrangement.edges"),
            state_entries: reg.histogram("maint.circuit.state.entries"),
        }
    })
}
