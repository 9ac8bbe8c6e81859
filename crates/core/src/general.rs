//! Maintenance beyond the simple-view class — the extensions paper §6
//! sketches:
//!
//! * [`CompoundMaintainer`] — views with more than one select path or
//!   condition ("relaxing some of the restrictions ... is easy");
//! * [`GeneralMaintainer`] — wild-card path expressions, using the
//!   path-containment machinery ("the maintenance algorithm needs to
//!   be able to test path containment for general path expressions");
//! * [`DagMaintainer`] — DAG-structured bases ("now there may be more
//!   than one path between two objects").

use crate::base::{BaseAccess, LocalBase};
use crate::circuitview::{CircuitMaintainer, CircuitSource};
use crate::maintain::{BatchOutcome, MaintPlan, Maintainer, Outcome};
use crate::mview::MaterializedView;
use crate::sink::{MemberSet, ViewSink};
use crate::viewdef::{CompoundViewDef, GeneralViewDef, SimpleViewDef};
use gsdb::{AppliedUpdate, DeltaBatch, Oid, Path, Result, Store};
use gsview_query::{choose_backend, evaluate, MaintBackend};
use std::collections::HashSet;

// ----------------------------------------------------------------------
// Compound views (multiple select paths / conditions)
// ----------------------------------------------------------------------

/// Maintains a union of simple branches into one materialized view.
///
/// Each branch keeps a membership-only shadow ([`MemberSet`]); the
/// shared view holds a delegate iff *some* branch selects the object.
/// This prevents branch A's deletion from evicting a member branch B
/// still derives.
#[derive(Debug)]
pub struct CompoundMaintainer {
    branches: Vec<(Maintainer, MemberSet)>,
}

impl CompoundMaintainer {
    /// Build a maintainer; the shadows start empty — call
    /// [`CompoundMaintainer::initialize`] to populate shadows and view.
    pub fn new(def: &CompoundViewDef) -> Self {
        CompoundMaintainer {
            branches: def
                .branches
                .iter()
                .map(|b| (Maintainer::new(b.clone()), MemberSet::new()))
                .collect(),
        }
    }

    /// Recompute every branch shadow and synchronize the view.
    pub fn initialize(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
    ) -> Result<()> {
        for (m, shadow) in &mut self.branches {
            *shadow = MemberSet::new();
            for y in crate::recompute::recompute_members(m.def(), base) {
                if let Some(obj) = base.fetch(y) {
                    shadow.insert_member(&obj)?;
                }
            }
        }
        self.sync(mv, base)
    }

    /// Process one update: run Algorithm 1 per branch on its shadow,
    /// then reconcile the union into the shared view.
    pub fn apply(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let mut relevant = false;
        for (m, shadow) in &mut self.branches {
            let out = m.apply(shadow, base, update)?;
            relevant |= out.relevant;
        }
        let mut out = self.sync_outcome(mv, base)?;
        out.relevant = relevant;
        // Content upkeep on the shared view (§3.2): the branch
        // maintainers only touched membership shadows.
        crate::maintain::content_upkeep(mv, base, update)?;
        Ok(out)
    }

    /// Process a batch of updates: run the batched maintainer
    /// ([`MaintPlan`]) per branch on its shadow, then reconcile the
    /// union into the shared view once.
    pub fn apply_batch(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        let delta = batch.consolidate();
        let mut relevant = 0;
        for (m, shadow) in &mut self.branches {
            let plan = MaintPlan::new(m.def().clone());
            let out = plan.apply_consolidated(shadow, base, &delta)?;
            relevant = relevant.max(out.relevant_deltas);
        }
        let sync = self.sync_outcome(mv, base)?;
        // Content upkeep on the shared view, one pass per touched
        // member (the branch maintainers only touched shadows).
        for &o in &delta.touched {
            if mv.contains_base(o) && !sync.inserted.contains(&o) {
                if let Some(obj) = base.fetch(o) {
                    mv.refresh_delegate(&obj)?;
                }
            }
        }
        Ok(BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            relevant_deltas: relevant,
            inserted: sync.inserted,
            deleted: sync.deleted,
            ..BatchOutcome::default()
        })
    }

    /// Current union membership.
    pub fn union_members(&self) -> Vec<Oid> {
        let mut set: HashSet<Oid> = HashSet::new();
        for (_, shadow) in &self.branches {
            set.extend(shadow.members());
        }
        let mut v: Vec<Oid> = set.into_iter().collect();
        v.sort_by_key(|o| o.name());
        v
    }

    fn sync(&self, mv: &mut MaterializedView, base: &mut dyn BaseAccess) -> Result<()> {
        self.sync_outcome(mv, base).map(|_| ())
    }

    fn sync_outcome(
        &self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
    ) -> Result<Outcome> {
        let union: HashSet<Oid> = self.union_members().into_iter().collect();
        let mut out = Outcome::default();
        for stale in mv.members_base() {
            if !union.contains(&stale) && mv.v_delete(stale)? {
                out.deleted.push(stale);
            }
        }
        for &y in &union {
            if !mv.contains_base(y) {
                if let Some(obj) = base.fetch(y) {
                    mv.v_insert(&obj)?;
                    out.inserted.push(y);
                }
            }
        }
        out.inserted.sort_by_key(|o| o.name());
        out.deleted.sort_by_key(|o| o.name());
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Wild-card (general path expression) views
// ----------------------------------------------------------------------

/// Maintains a view whose paths are general path expressions.
///
/// Correctness comes from a *guarded refresh*: the maintainer decides
/// relevance with an NFA prefix-viability test — could any instance of
/// `sel_expr.cond_expr` pass through the updated edge? — and refreshes
/// the view only then. The guard is the §6 path-containment machinery;
/// irrelevant updates cost one root-path computation, exactly like the
/// simple-view screen. The refresh itself is centralized (evaluates the
/// defining query), which is why the paper calls wildcard views
/// substantially harder: there is no local repair rule. E6 measures
/// this cost gap.
#[derive(Clone, Debug)]
pub struct GeneralMaintainer {
    def: GeneralViewDef,
    backend: MaintBackend,
    circuit: Option<CircuitMaintainer>,
}

impl GeneralMaintainer {
    /// Build a maintainer on the guarded-refresh (Algorithm 1 family)
    /// backend.
    pub fn new(def: GeneralViewDef) -> Self {
        Self::with_backend(def, MaintBackend::Algorithm1)
    }

    /// Build a maintainer on the backend the planner picks for this
    /// shape ([`choose_backend`]): constant single paths and wildcard
    /// expressions stay on Algorithm 1 (E18 measured the circuit's
    /// product-state losing on wildcard shapes at every size).
    pub fn planned(def: GeneralViewDef) -> Self {
        let (backend, _why) = choose_backend(&def.sel_expr, 1, false);
        Self::with_backend(def, backend)
    }

    /// Build a maintainer on an explicit backend.
    pub fn with_backend(def: GeneralViewDef, backend: MaintBackend) -> Self {
        let circuit = match backend {
            MaintBackend::Algorithm1 => None,
            MaintBackend::Circuit => Some(CircuitMaintainer::new(CircuitSource::General(
                def.clone(),
            ))),
        };
        GeneralMaintainer {
            def,
            backend,
            circuit,
        }
    }

    /// Which backend batches run on.
    pub fn backend(&self) -> MaintBackend {
        self.backend
    }

    /// The definition.
    pub fn def(&self) -> &GeneralViewDef {
        &self.def
    }

    /// Materialize from scratch. On the circuit backend this builds
    /// the circuit's state too, so the next batch steps instead of
    /// rebuilding.
    pub fn recompute(&self, store: &Store) -> Result<MaterializedView> {
        let mut mv = MaterializedView::new(self.def.view);
        if let Some(circuit) = &self.circuit {
            circuit.initialize(&mut mv, store)?;
            return Ok(mv);
        }
        let ans = evaluate(store, &self.def.to_query()).map_err(|_| {
            gsdb::GsdbError::NoSuchObject(self.def.root)
        })?;
        for y in ans.oids {
            if let Some(obj) = store.get(y) {
                let obj = obj.clone();
                mv.v_insert(&obj)?;
            }
        }
        Ok(mv)
    }

    /// Could an update at edge `(n1, n2)` participate in any instance
    /// of `sel_expr.cond_expr`? Runs the NFA over
    /// `path(ROOT, n1).label(n2)` and checks liveness.
    pub fn edge_relevant(&self, store: &Store, n1: Oid, n2: Oid) -> bool {
        let Some(root_path) = gsdb::path::path_between(store, self.def.root, n1) else {
            return false;
        };
        let Some(l2) = store.label(n2) else {
            return false;
        };
        let nfa = self.def.full_expr().nfa();
        if let Some(d) = nfa.dense() {
            let mut mask = d.start_mask();
            for &l in root_path.labels() {
                mask = d.step_mask(mask, l);
                if mask == 0 {
                    return false;
                }
            }
            return d.step_mask(mask, l2) != 0;
        }
        let mut states = nfa.start();
        for &l in root_path.labels() {
            states = nfa.step(&states, l);
            if states.is_empty() {
                return false;
            }
        }
        states = nfa.step(&states, l2);
        !states.is_empty()
    }

    /// Process one update: guard, then refresh if relevant. Returns
    /// the outcome (with `relevant` reporting the guard's decision).
    pub fn apply(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let _span = gsview_obs::span!(
            "maint.general.apply",
            "view" = self.def.view.name().to_string(),
            "update" = crate::maintain::update_kind(update),
        );
        let relevant = match update {
            AppliedUpdate::Insert { parent, child } | AppliedUpdate::Delete { parent, child } => {
                self.edge_relevant(store, *parent, *child)
            }
            AppliedUpdate::Modify { oid, .. } => {
                // A modify matters only if the atom sits at a full
                // instance of sel.cond (and the view has a condition).
                self.def.cond.is_some()
                    && gsdb::path::path_between(store, self.def.root, *oid)
                        .map(|p| self.def.full_expr().matches(&p))
                        .unwrap_or(false)
            }
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => false,
        };
        // Content upkeep runs regardless of relevance: an off-path
        // edge into a member still changes that member's value, and a
        // modify of an atomic member changes its copied atom.
        let affected_member = match update {
            AppliedUpdate::Insert { parent, .. } | AppliedUpdate::Delete { parent, .. } => {
                Some(*parent)
            }
            AppliedUpdate::Modify { oid, .. } => Some(*oid),
            _ => None,
        };
        if let Some(a) = affected_member {
            if mv.contains_base(a) {
                if let Some(obj) = store.get(a) {
                    let obj = obj.clone();
                    mv.refresh_delegate(&obj)?;
                }
            }
        }
        if !relevant {
            return Ok(Outcome::default());
        }
        gsview_obs::event!("maint.general.refresh", "cause" = "single_update");
        let fresh = self.recompute(store)?;
        let fresh_members: HashSet<Oid> = fresh.members_base().into_iter().collect();
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        for stale in mv.members_base() {
            if !fresh_members.contains(&stale) && mv.v_delete(stale)? {
                out.deleted.push(stale);
            }
        }
        for y in fresh.members_base() {
            if let Some(obj) = store.get(y) {
                let obj = obj.clone();
                if mv.contains_base(y) {
                    mv.refresh_delegate(&obj)?;
                } else {
                    mv.v_insert(&obj)?;
                    out.inserted.push(y);
                }
            }
        }
        Ok(out)
    }

    /// Process a batch of updates with the store in its final state.
    ///
    /// Each consolidated delta is screened with the containment guard
    /// ([`GeneralMaintainer::edge_relevant`] / the full-expression
    /// match for modifies); the centralized refresh — the expensive
    /// part for wildcard views — runs **at most once per batch**
    /// instead of once per relevant update.
    pub fn apply_batch(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        if let Some(circuit) = &self.circuit {
            return circuit.apply_batch(mv, store, batch);
        }
        let delta = batch.consolidate();
        let _span = gsview_obs::span!(
            "maint.general.plan",
            "view" = self.def.view.name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        let mut out = BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            ..BatchOutcome::default()
        };
        let mut relevant = false;
        // For deletes the guard must not silently pass: the final
        // state only shows the parent's *current* position — the edge
        // may have been cut while the parent sat somewhere relevant
        // and was then re-attached where the guard rejects it. Any
        // surviving delete therefore forces the refresh; the guard
        // still screens insert-only batches.
        for e in &delta.edges {
            let guard_hit = self.edge_relevant(store, e.parent, e.child);
            if guard_hit {
                out.relevant_deltas += 1;
            }
            if guard_hit || e.op == gsdb::EdgeOp::Delete {
                relevant = true;
            }
        }
        for m in &delta.modifies {
            let hit = self.def.cond.is_some()
                && gsdb::path::path_between(store, self.def.root, m.oid)
                    .map(|p| self.def.full_expr().matches(&p))
                    .unwrap_or(false);
            if hit {
                out.relevant_deltas += 1;
                relevant = true;
            }
        }
        if relevant {
            gsview_obs::event!("maint.general.refresh", "cause" = "batch");
            let fresh = self.recompute(store)?;
            let fresh_members: HashSet<Oid> = fresh.members_base().into_iter().collect();
            for stale in mv.members_base() {
                if !fresh_members.contains(&stale) && mv.v_delete(stale)? {
                    out.deleted.push(stale);
                }
            }
            for y in fresh.members_base() {
                if let Some(obj) = store.get(y) {
                    let obj = obj.clone();
                    if mv.contains_base(y) {
                        if mv.refresh_delegate(&obj)? {
                            out.refreshed += 1;
                        }
                    } else {
                        mv.v_insert(&obj)?;
                        out.inserted.push(y);
                    }
                }
            }
        } else {
            // Irrelevant batch: content upkeep only.
            for &o in &delta.touched {
                if mv.contains_base(o) {
                    if let Some(obj) = store.get(o) {
                        let obj = obj.clone();
                        if mv.refresh_delegate(&obj)? {
                            out.refreshed += 1;
                        }
                    }
                }
            }
        }
        out.inserted.sort_by_key(|o| o.name());
        out.deleted.sort_by_key(|o| o.name());
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// DAG bases
// ----------------------------------------------------------------------

/// All label paths from `root` to `n` in a DAG (upward enumeration via
/// the parent index). Bounded by `limit` paths as a safety valve.
pub fn paths_from_root_all(store: &Store, root: Oid, n: Oid, limit: usize) -> Vec<Path> {
    const NO_PREV: usize = usize::MAX;
    let mut out = Vec::new();
    // Arena of (edge label, predecessor chain index); the stack carries
    // (current node, chain index). Label prefixes are reconstructed by
    // walking the chain instead of cloning a Vec per parent.
    let mut nodes: Vec<(gsdb::Label, usize)> = Vec::new();
    let mut stack: Vec<(Oid, usize)> = vec![(n, NO_PREV)];
    while let Some((cur, chain)) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        if cur == root {
            // The chain runs top-down from root's child to `n`.
            let mut ls = Vec::new();
            let mut j = chain;
            while j != NO_PREV {
                ls.push(nodes[j].0);
                j = nodes[j].1;
            }
            out.push(Path(ls));
            continue;
        }
        let Some(l) = store.label(cur) else { continue };
        let Some(parents) = store.parents(cur) else {
            continue;
        };
        for p in parents.iter() {
            nodes.push((l, chain));
            stack.push((p, nodes.len() - 1));
        }
    }
    out.sort_by_key(|p| p.to_string());
    out.dedup();
    out
}

/// Maintains a simple view definition over a DAG-structured base.
///
/// Membership is monotone in edges — inserting an edge can only add
/// derivations, deleting one can only remove them — so the maintainer
/// uses directional repair:
///
/// * **insert**: multi-path variant of Algorithm 1's insert case,
///   using all root paths of `N1` and all `ancestors_all(X,
///   cond_path)` candidates, verified by root-path membership;
/// * **delete**: every current member `Y` is re-verified (some root
///   path equals `sel_path`, and the condition still holds);
/// * **modify**: all `ancestors_all(N, cond_path)` candidates are
///   inserted or re-verified per the predicate on old/new values.
#[derive(Clone, Debug)]
pub struct DagMaintainer {
    def: SimpleViewDef,
    /// Cap on enumerated root paths per object.
    pub path_limit: usize,
}

impl DagMaintainer {
    /// Build a maintainer.
    pub fn new(def: SimpleViewDef) -> Self {
        DagMaintainer {
            def,
            path_limit: 10_000,
        }
    }

    /// The definition.
    pub fn def(&self) -> &SimpleViewDef {
        &self.def
    }

    fn selects(&self, store: &Store, y: Oid) -> bool {
        let on_sel_path =
            paths_from_root_all(store, self.def.root, y, self.path_limit).contains(&self.def.sel_path);
        if !on_sel_path {
            return false;
        }
        match &self.def.cond {
            None => true,
            Some(c) => {
                !gsdb::path::eval(store, y, &c.path, &|a| c.pred.eval(a)).is_empty()
            }
        }
    }

    /// Process one update.
    pub fn apply(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let out = match update {
            AppliedUpdate::Insert { parent, child } => self.on_insert(mv, store, *parent, *child)?,
            AppliedUpdate::Delete { parent, child } => self.on_delete(mv, store, *parent, *child)?,
            AppliedUpdate::Modify { oid, old, new } => self.on_modify(mv, store, *oid, old, new)?,
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => Outcome::default(),
        };
        // Content upkeep (§3.2), as in the tree maintainer: edges
        // change the parent's value; modifies change an atomic
        // member's own value.
        let affected_member = match update {
            AppliedUpdate::Insert { parent, .. } | AppliedUpdate::Delete { parent, .. } => {
                Some(*parent)
            }
            AppliedUpdate::Modify { oid, .. } => Some(*oid),
            _ => None,
        };
        if let Some(a) = affected_member {
            if mv.contains_base(a) {
                if let Some(obj) = store.get(a) {
                    let obj = obj.clone();
                    mv.refresh_delegate(&obj)?;
                }
            }
        }
        Ok(out)
    }

    fn locate_all(&self, store: &Store, n1: Oid, n2: Oid) -> Vec<Path> {
        let full = self.def.full_path();
        let Some(l2) = store.label(n2) else {
            return Vec::new();
        };
        let mut remainders = Vec::new();
        for rp in paths_from_root_all(store, self.def.root, n1, self.path_limit) {
            let mut prefix = rp;
            prefix.push(l2);
            if let Some(p) = full.strip_prefix(&prefix) {
                if !remainders.contains(&p) {
                    remainders.push(p);
                }
            }
        }
        remainders
    }

    fn on_insert(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        let remainders = self.locate_all(store, n1, n2);
        if remainders.is_empty() {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let cond_path = self.def.cond_path();
        let mut local = LocalBase::new(store);
        for p in remainders {
            let s = local.eval(n2, &p, self.def.cond.as_ref().map(|c| &c.pred));
            for x in s {
                for y in gsdb::path::ancestors_all(store, x, &cond_path) {
                    if mv.contains_base(y) || !self.selects(store, y) {
                        continue;
                    }
                    if let Some(obj) = store.get(y) {
                        let obj = obj.clone();
                        mv.v_insert(&obj)?;
                        out.inserted.push(y);
                    }
                }
            }
        }
        out.inserted.sort_by_key(|o| o.name());
        out.inserted.dedup();
        Ok(out)
    }

    fn on_delete(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        // Only members with a derivation through the deleted edge can
        // change, and deletion is anti-monotone (it can only evict).
        // Locate the edge against sel.cond as in Algorithm 1, per root
        // path of N1 (N1's root paths are unaffected by losing a
        // child edge).
        let remainders = self.locate_all(store, n1, n2);
        if remainders.is_empty() {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let cond_path = self.def.cond_path();
        let mut candidates: Vec<Oid> = Vec::new();
        for p in remainders {
            if p.ends_with(&cond_path) {
                // Y at or below N2: p = p1.cond_path; candidates are
                // the sel-level objects in the (possibly still
                // attached elsewhere) subtree under N2.
                let p1 = Path(p.labels()[..p.len() - cond_path.len()].to_vec());
                candidates.extend(gsdb::path::reach(store, n2, &p1));
            } else {
                // Y above N1: cond_path = q.label(N2).p.
                let q = Path(cond_path.labels()[..cond_path.len() - p.len() - 1].to_vec());
                if q.is_empty() {
                    candidates.push(n1);
                } else {
                    candidates.extend(gsdb::path::ancestors_all(store, n1, &q));
                }
            }
        }
        candidates.sort_by_key(|o| o.name());
        candidates.dedup();
        for y in candidates {
            if mv.contains_base(y) && !self.selects(store, y) && mv.v_delete(y)? {
                out.deleted.push(y);
            }
        }
        Ok(out)
    }

    fn on_modify(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n: Oid,
        old: &gsdb::Atom,
        new: &gsdb::Atom,
    ) -> Result<Outcome> {
        let Some(cond) = &self.def.cond else {
            return Ok(Outcome::default());
        };
        let full = self.def.full_path();
        let at_full_path =
            paths_from_root_all(store, self.def.root, n, self.path_limit).contains(&full);
        if !at_full_path {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let candidates = gsdb::path::ancestors_all(store, n, &cond.path);
        if cond.pred.eval(new) {
            for y in candidates {
                if !mv.contains_base(y) && self.selects(store, y) {
                    if let Some(obj) = store.get(y) {
                        let obj = obj.clone();
                        mv.v_insert(&obj)?;
                        out.inserted.push(y);
                    }
                }
            }
        } else if cond.pred.eval(old) {
            for y in candidates {
                if mv.contains_base(y) && !self.selects(store, y) && mv.v_delete(y)? {
                    out.deleted.push(y);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::recompute::recompute_members;
    use gsdb::builder::{atom, set};
    use gsdb::samples;
    use gsview_query::{CmpOp, Pred, PathExpr};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    // ---------------- Compound ----------------

    #[test]
    fn compound_union_of_professor_and_secretary() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = CompoundViewDef::new(
            "STAFF",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor"),
                SimpleViewDef::new("_", "ROOT", "secretary"),
            ],
        );
        let mut cm = CompoundMaintainer::new(&def);
        let mut mv = MaterializedView::new("STAFF");
        cm.initialize(&mut mv, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2"), oid("P4")]);

        // Delete P4 from ROOT: only the secretary branch loses it.
        let up = store.delete_edge(oid("ROOT"), oid("P4")).unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P4")]);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
    }

    #[test]
    fn compound_overlapping_branches_keep_shared_member() {
        // Branch A: professors with age ≤ 45; branch B: professors
        // named John. P1 satisfies both; losing one derivation must
        // not evict it.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = CompoundViewDef::new(
            "U",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("_", "ROOT", "professor")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            ],
        );
        let mut cm = CompoundMaintainer::new(&def);
        let mut mv = MaterializedView::new("U");
        cm.initialize(&mut mv, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);
        // Age goes to 80: branch A drops P1, branch B keeps it.
        let up = store.modify_atom(oid("A1"), 80i64).unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert!(out.deleted.is_empty());
        assert!(mv.contains_base(oid("P1")));
        // Rename too: now both derivations are gone.
        let up = store.modify_atom(oid("N1"), "Jon").unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P1")]);
    }

    // ---------------- Wildcard ----------------

    #[test]
    fn wildcard_view_mvj_is_maintained() {
        // MVJ: SELECT ROOT.* X WHERE X.name = 'John'.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);

        // Rename Sally to John: P2 joins.
        let up = store.modify_atom(oid("N2"), "John").unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("P2")]);

        // An age modification is *irrelevant* to a name view... but
        // under `SELECT ROOT.*`, full_expr = *.name, and age atoms sit
        // at paths not matching *.name, so the guard rejects it.
        let up = store.modify_atom(oid("A4"), 41i64).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(!out.relevant);
    }

    #[test]
    fn wildcard_insert_reaches_any_depth() {
        // Paper §6: with SELECT ROOT.*, "any insertion of a ROOT's
        // descendent node will cause delegate objects to be inserted".
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("ALL", "ROOT", PathExpr::parse("*").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        let before = mv.len();
        // Deep new object under P3.
        atom("HOB", "hobby", "chess").build(&mut store).unwrap();
        let up = store.insert_edge(oid("P3"), oid("HOB")).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("HOB")]);
        assert_eq!(mv.len(), before + 1);
    }

    #[test]
    fn wildcard_backends_agree_and_planner_picks_algorithm1() {
        let mut a1 = Store::new();
        samples::person_db(&mut a1).unwrap();
        let mut b1 = a1.clone();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let alg = GeneralMaintainer::new(def.clone());
        // Regression pin (E18 routing fix): `planned` must route
        // wildcard shapes to Algorithm 1, not the circuit.
        assert_eq!(
            GeneralMaintainer::planned(def.clone()).backend(),
            gsview_query::MaintBackend::Algorithm1
        );
        // Force the circuit leg explicitly so the parity check below
        // still exercises both backends.
        let cir = GeneralMaintainer::with_backend(def, gsview_query::MaintBackend::Circuit);
        assert_eq!(alg.backend(), gsview_query::MaintBackend::Algorithm1);
        assert_eq!(cir.backend(), gsview_query::MaintBackend::Circuit);
        let mut mv_a = alg.recompute(&a1).unwrap();
        let mut mv_c = cir.recompute(&b1).unwrap();

        for round in 0..3 {
            let mut batch_a = gsdb::DeltaBatch::new();
            let mut batch_b = gsdb::DeltaBatch::new();
            let ops = [
                gsdb::Update::modify("N2", "John"),
                gsdb::Update::modify("N2", "Sally"),
                gsdb::Update::modify("N4", "John"),
            ];
            for u in ops {
                batch_a.push(a1.apply(u.clone()).unwrap());
                batch_b.push(b1.apply(u).unwrap());
            }
            let out_a = alg.apply_batch(&mut mv_a, &a1, &batch_a).unwrap();
            let out_c = cir.apply_batch(&mut mv_c, &b1, &batch_b).unwrap();
            assert_eq!(mv_a.members_base(), mv_c.members_base(), "round {round}");
            assert_eq!(out_a.inserted, out_c.inserted, "round {round}");
            assert_eq!(out_a.deleted, out_c.deleted, "round {round}");
        }
        let circuit = cir.circuit.as_ref().unwrap();
        assert_eq!((circuit.rebuilds(), circuit.steps()), (1, 3), "batches step");
    }

    #[test]
    fn wildcard_guard_rejects_unreachable_edges() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        // A view rooted at P1 only.
        let def = GeneralViewDef::new("SUB", "P1", PathExpr::parse("*.age").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        // Update under P4 — not reachable from P1.
        atom("A4b", "age", 22i64).build(&mut store).unwrap();
        let up = store.insert_edge(oid("P4"), oid("A4b")).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(!out.relevant);
    }

    // ---------------- DAG ----------------

    fn dag_store() -> Store {
        // Two tuples share one age field; R holds both.
        let mut s = Store::new();
        set("REL", "relations")
            .child(
                set("R", "r")
                    .child(set("t1", "tuple").child(atom("shared", "age", 40i64)))
                    .child(set("t2", "tuple").reference("shared")),
            )
            .build(&mut s)
            .unwrap();
        s
    }

    #[test]
    fn paths_from_root_all_enumerates_dag_paths() {
        let s = dag_store();
        let paths = paths_from_root_all(&s, oid("REL"), oid("shared"), 100);
        assert_eq!(paths.len(), 1, "both derivations share the same label path");
        assert_eq!(paths[0], Path::parse("r.tuple.age"));
        let t_paths = paths_from_root_all(&s, oid("REL"), oid("t1"), 100);
        assert_eq!(t_paths, vec![Path::parse("r.tuple")]);
    }

    #[test]
    fn dag_insert_adds_all_sharing_ancestors() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        // Initialize via recompute (members: both tuples share age 40).
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        assert_eq!(mv.members_base(), vec![oid("t1"), oid("t2")]);

        // New tuple referencing the shared field.
        set("t3", "tuple").build(&mut s).unwrap();
        let up1 = s.insert_edge(oid("R"), oid("t3")).unwrap();
        dm.apply(&mut mv, &s, &up1).unwrap();
        let up2 = s.insert_edge(oid("t3"), oid("shared")).unwrap();
        let out = dm.apply(&mut mv, &s, &up2).unwrap();
        assert_eq!(out.inserted, vec![oid("t3")]);
    }

    #[test]
    fn dag_delete_only_evicts_members_without_remaining_derivation() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        // t2 loses its shared age: only t2 leaves.
        let up = s.delete_edge(oid("t2"), oid("shared")).unwrap();
        let out = dm.apply(&mut mv, &s, &up).unwrap();
        assert_eq!(out.deleted, vec![oid("t2")]);
        assert!(mv.contains_base(oid("t1")));
    }

    #[test]
    fn dag_maintenance_matches_recompute_under_stream() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        let updates = [
            gsdb::Update::modify("shared", 20i64),
            gsdb::Update::modify("shared", 35i64),
            gsdb::Update::delete("t1", "shared"),
            gsdb::Update::insert("t1", "shared"),
        ];
        for u in updates {
            let applied = s.apply(u).unwrap();
            dm.apply(&mut mv, &s, &applied).unwrap();
            let expected = recompute_members(&def, &mut LocalBase::new(&s));
            assert_eq!(mv.members_base(), expected, "after {applied}");
        }
    }
}
