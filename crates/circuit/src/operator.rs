//! The incremental operators circuits are assembled from.
//!
//! Both flow operators maintain *derivation counts* over the product
//! of the arranged graph and a path-expression NFA, updated by Z-set
//! delta propagation:
//!
//! * [`ForwardFlow`] — flat-map edge expansion from a set of source
//!   objects: `C[(src, n, s)]` counts the label-path derivations from
//!   `src` (in an NFA start state) to `n` in state `s`. The accepting
//!   row is the operator's output Z-set.
//! * [`BackwardFlow`] — the condition witness: `D[(n, s)]` counts the
//!   accepting suffixes below `n` starting in state `s`, where a
//!   suffix accepts iff it ends at an atom satisfying the predicate.
//!   The start-state row says which objects have a witness.
//!
//! Counts are linear in the edge multiset, so a batch of ±1 edge
//! events applied against the *pre-batch* counts, followed by a
//! worklist propagation through the *post-batch* arrangement, lands
//! exactly on the from-scratch counts (the semi-naïve residual rule:
//! `ΔC = closure(A_new) · ΔA · C_old`). Work is proportional to the
//! product states actually touched — O(|Δ|), not O(view).
//!
//! Cyclic bases make path counts infinite; propagation is therefore
//! budgeted and reports [`Diverged`](crate::CircuitError::Diverged)
//! instead of spinning, and the caller falls back to recomputation.

use crate::arrange::GraphArrangement;
use crate::zset::ZSet;
use gsdb::{Atom, FastMap, FastSet, Label, Oid};
use gsview_query::{Nfa, PathExpr, Pred};
use std::hash::Hash;

/// Marker for "propagation exceeded its budget".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Diverged;

/// Per-label transition tables for one NFA, built lazily: `fwd[s]` is
/// the eps-closed consuming step from `s`, `inv[s2]` the states that
/// can reach `s2` in one consuming step.
#[derive(Clone, Debug)]
struct LabelTable {
    fwd: Vec<Vec<u32>>,
    inv: Vec<Vec<u32>>,
}

fn build_table(nfa: &Nfa, nstates: u32, l: Label) -> LabelTable {
    let mut fwd: Vec<Vec<u32>> = Vec::with_capacity(nstates as usize);
    let mut inv: Vec<Vec<u32>> = vec![Vec::new(); nstates as usize];
    for s in 0..nstates {
        let next: Vec<u32> = nfa.step(&[s as usize], l).iter().map(|&t| t as u32).collect();
        for &t in &next {
            inv[t as usize].push(s);
        }
        fwd.push(next);
    }
    LabelTable { fwd, inv }
}

/// Shared NFA machinery of the two flow operators.
#[derive(Clone, Debug)]
struct NfaEngine {
    nfa: Nfa,
    nstates: u32,
    start: Vec<u32>,
    accept: u32,
    tables: FastMap<Label, LabelTable>,
}

impl NfaEngine {
    fn new(expr: &PathExpr) -> NfaEngine {
        let nfa = expr.nfa();
        let nstates = expr.len() as u32 + 1;
        let start = nfa.start().iter().map(|&s| s as u32).collect();
        let accept = (0..nstates)
            .find(|&s| nfa.any_accepting(&[s as usize]))
            .expect("every NFA has exactly one accepting state");
        NfaEngine {
            nfa,
            nstates,
            start,
            accept,
            tables: FastMap::default(),
        }
    }

    fn table(&mut self, l: Label) -> &LabelTable {
        if !self.tables.contains_key(&l) {
            let t = build_table(&self.nfa, self.nstates, l);
            self.tables.insert(l, t);
        }
        &self.tables[&l]
    }

    fn fwd(&mut self, s: u32, l: Label) -> Vec<u32> {
        self.table(l).fwd[s as usize].clone()
    }

    fn inv(&mut self, s2: u32, l: Label) -> Vec<u32> {
        self.table(l).inv[s2 as usize].clone()
    }
}

// ----------------------------------------------------------------------
// Forward flow
// ----------------------------------------------------------------------

/// Forward weighted NFA reachability from per-source injection points.
///
/// The source type `S` is `()` for a view branch (one flow from the
/// branch root) and the member OID for aggregate value collection
/// (one flow per member, sharing state and propagation).
#[derive(Clone, Debug)]
pub struct ForwardFlow<S: Eq + Hash + Copy> {
    engine: NfaEngine,
    counts: FastMap<(S, Oid, u32), i64>,
    by_node: FastMap<Oid, FastSet<(S, u32)>>,
    accept_support: ZSet<(S, Oid)>,
}

impl<S: Eq + Hash + Copy> ForwardFlow<S> {
    /// A flow for `expr` with no state.
    pub fn new(expr: &PathExpr) -> Self {
        ForwardFlow {
            engine: NfaEngine::new(expr),
            counts: FastMap::default(),
            by_node: FastMap::default(),
            accept_support: ZSet::new(),
        }
    }

    /// Inject `w` copies of source `src` at `node` (in every start
    /// state) into `pending`.
    pub fn seed(&self, pending: &mut ZSet<(S, Oid, u32)>, src: S, node: Oid, w: i64) {
        for &s in &self.engine.start {
            pending.add((src, node, s), w);
        }
    }

    /// Translate one ±1 edge event into count deltas against the
    /// **current** (pre-propagation) counts. Must be called for every
    /// event of a batch before [`ForwardFlow::propagate`].
    pub fn edge_event(
        &mut self,
        pending: &mut ZSet<(S, Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        let Some(keys) = self.by_node.get(&parent) else {
            return;
        };
        let keys: Vec<(S, u32)> = keys.iter().copied().collect();
        for (src, s) in keys {
            let cnt = self.counts.get(&(src, parent, s)).copied().unwrap_or(0);
            if cnt == 0 {
                continue;
            }
            for s2 in self.engine.fwd(s, child_label) {
                pending.add((src, child, s2), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` to a fixpoint through the post-batch
    /// arrangement. Every `(src, node)` whose accepting support
    /// changed is added to `dirty`. Decrements `budget` per worklist
    /// pop and fails with [`Diverged`] at zero (counts are then
    /// partial — the circuit must be rebuilt).
    pub fn propagate(
        &mut self,
        arr: &GraphArrangement,
        mut pending: ZSet<(S, Oid, u32)>,
        budget: &mut u64,
        pops: &mut u64,
        dirty: &mut FastSet<(S, Oid)>,
    ) -> Result<(), Diverged> {
        // Drained a wave at a time: popping single entries off a hash
        // map rescans its emptied prefix, quadratic in the worklist.
        // Counts are linear in the deltas, so the order is free.
        while !pending.is_empty() {
            for ((src, node, s), delta) in std::mem::take(&mut pending) {
                if *budget == 0 {
                    return Err(Diverged);
                }
                *budget -= 1;
                *pops += 1;
                self.bump(src, node, s, delta);
                if s == self.engine.accept {
                    self.accept_support.add((src, node), delta);
                    dirty.insert((src, node));
                }
                for &c in arr.children(node) {
                    let l = arr.label(c).expect("live edge child is arranged");
                    for s2 in self.engine.fwd(s, l) {
                        pending.add((src, c, s2), delta);
                    }
                }
            }
        }
        Ok(())
    }

    fn bump(&mut self, src: S, node: Oid, s: u32, delta: i64) {
        let key = (src, node, s);
        let entry = self.counts.entry(key).or_insert(0);
        *entry = entry.saturating_add(delta);
        if *entry == 0 {
            self.counts.remove(&key);
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&(src, s));
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        } else {
            self.by_node.entry(node).or_default().insert((src, s));
        }
    }

    /// Accepting support of `(src, node)` — the operator's output
    /// weight before the distinct clamp.
    pub fn support(&self, src: S, node: Oid) -> i64 {
        self.accept_support.weight((src, node))
    }

    /// Number of live product states (arranged index size).
    pub fn state_len(&self) -> usize {
        self.counts.len()
    }
}

// ----------------------------------------------------------------------
// Backward flow (condition witnesses)
// ----------------------------------------------------------------------

/// Backward witness counting for an existential condition
/// `cond(X.expr) pred`: `D[(n, s)]` counts derivations of an
/// accepting, predicate-satisfying suffix from state `s` at `n`.
///
/// `D[n][accept] = [atom(n) satisfies pred]`, and every other state
/// sums over live child edges; deltas propagate **upward** through
/// the parent index with the inverse transition table. The start-state
/// row is the witness Z-set: `witness(n) > 0` iff some instance of
/// `expr` from `n` ends in a satisfying atom.
#[derive(Clone, Debug)]
pub struct BackwardFlow {
    engine: NfaEngine,
    pred: Pred,
    counts: FastMap<(Oid, u32), i64>,
    by_node: FastMap<Oid, FastSet<u32>>,
    start_support: ZSet<Oid>,
}

impl BackwardFlow {
    /// A witness flow for `expr` filtered by `pred`, with no state.
    pub fn new(expr: &PathExpr, pred: Pred) -> Self {
        BackwardFlow {
            engine: NfaEngine::new(expr),
            pred,
            counts: FastMap::default(),
            by_node: FastMap::default(),
            start_support: ZSet::new(),
        }
    }

    fn pred_ok(&self, atom: Option<&Atom>) -> bool {
        atom.map(|a| self.pred.eval(a)).unwrap_or(false)
    }

    /// Base-term delta for an object whose record or atom changed:
    /// `w = +1` on creation, `-1` on removal, and for an atom change
    /// call once with `-1`/old and once with `+1`/new.
    pub fn base_event(&self, pending: &mut ZSet<(Oid, u32)>, node: Oid, atom: Option<&Atom>, w: i64) {
        if self.pred_ok(atom) {
            pending.add((node, self.engine.accept), w);
        }
    }

    /// Translate one ±1 edge event into witness deltas for the parent,
    /// against current (pre-propagation) counts.
    pub fn edge_event(
        &mut self,
        pending: &mut ZSet<(Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        let Some(states) = self.by_node.get(&child) else {
            return;
        };
        let states: Vec<u32> = states.iter().copied().collect();
        for s2 in states {
            let cnt = self.counts.get(&(child, s2)).copied().unwrap_or(0);
            if cnt == 0 {
                continue;
            }
            for s0 in self.engine.inv(s2, child_label) {
                pending.add((parent, s0), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` upward to a fixpoint. Objects whose start-state
    /// witness support changed are added to `dirty`.
    pub fn propagate(
        &mut self,
        arr: &GraphArrangement,
        mut pending: ZSet<(Oid, u32)>,
        budget: &mut u64,
        pops: &mut u64,
        dirty: &mut FastSet<Oid>,
    ) -> Result<(), Diverged> {
        // A wave at a time, as in `ForwardFlow::propagate`.
        while !pending.is_empty() {
            for ((node, s), delta) in std::mem::take(&mut pending) {
                if *budget == 0 {
                    return Err(Diverged);
                }
                *budget -= 1;
                *pops += 1;
                self.bump(node, s, delta);
                if self.engine.start.contains(&s) {
                    self.start_support.add(node, delta);
                    dirty.insert(node);
                }
                let parents = arr.parents(node);
                if !parents.is_empty() {
                    let l = arr.label(node).expect("live edge endpoint is arranged");
                    let inv = self.engine.inv(s, l);
                    for &p in parents {
                        for &s0 in &inv {
                            pending.add((p, s0), delta);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn bump(&mut self, node: Oid, s: u32, delta: i64) {
        let key = (node, s);
        let entry = self.counts.entry(key).or_insert(0);
        *entry = entry.saturating_add(delta);
        if *entry == 0 {
            self.counts.remove(&key);
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&s);
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        } else {
            self.by_node.entry(node).or_default().insert(s);
        }
    }

    /// Witness support of `node` (positive iff a satisfying instance
    /// of the condition expression exists below it).
    pub fn witness(&self, node: Oid) -> i64 {
        self.start_support.weight(node)
    }

    /// Number of live product states.
    pub fn state_len(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{Object, Store};
    use gsview_query::CmpOp;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn arr_of(store: &Store) -> (GraphArrangement, crate::arrange::IngestEvents) {
        let mut arr = GraphArrangement::new();
        let ev = arr.ingest_full(store);
        (arr, ev)
    }

    fn store3() -> Store {
        let mut s = Store::new();
        s.create(Object::atom("A1", "age", 50i64)).unwrap();
        s.create(Object::set("P1", "professor", &[oid("A1")])).unwrap();
        s.create(Object::set("ROOT", "root", &[oid("P1")])).unwrap();
        s
    }

    fn run_forward(expr: &str, store: &Store, root: &str) -> ForwardFlow<()> {
        let e = PathExpr::parse(expr).unwrap();
        let mut f = ForwardFlow::new(&e);
        let (arr, ev) = arr_of(store);
        let mut pending = ZSet::new();
        f.seed(&mut pending, (), oid(root), 1);
        for e in &ev.edges {
            f.edge_event(&mut pending, e.parent, e.child, e.child_label, e.w);
        }
        let (mut b, mut p) = (1_000_000, 0);
        let mut dirty = FastSet::default();
        f.propagate(&arr, pending, &mut b, &mut p, &mut dirty).unwrap();
        f
    }

    #[test]
    fn forward_counts_reach_accepting_members() {
        let s = store3();
        let f = run_forward("professor", &s, "ROOT");
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("A1")), 0);
        assert_eq!(f.support((), oid("ROOT")), 0);
    }

    #[test]
    fn wildcard_accepts_root_and_descendants() {
        let s = store3();
        let f = run_forward("*", &s, "ROOT");
        assert_eq!(f.support((), oid("ROOT")), 1);
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("A1")), 1);
    }

    #[test]
    fn backward_witness_finds_satisfying_atom() {
        let s = store3();
        let e = PathExpr::parse("age").unwrap();
        let mut w = BackwardFlow::new(&e, Pred::new(CmpOp::Gt, 40i64));
        let (arr, ev) = arr_of(&s);
        let mut pending = ZSet::new();
        for o in &ev.created {
            w.base_event(&mut pending, *o, arr.atom(*o), 1);
        }
        for e in &ev.edges {
            w.edge_event(&mut pending, e.parent, e.child, e.child_label, e.w);
        }
        let (mut b, mut p) = (1_000_000, 0);
        let mut dirty = FastSet::default();
        w.propagate(&arr, pending, &mut b, &mut p, &mut dirty).unwrap();
        assert!(w.witness(oid("P1")) > 0, "P1 has an age witness > 40");
        assert_eq!(w.witness(oid("ROOT")), 0);
    }

    #[test]
    fn budget_exhaustion_reports_divergence() {
        // A self-cycle under a `*` expression has infinitely many
        // paths; the budget must trip instead of spinning.
        let mut s = Store::new();
        s.create(Object::set("ROOT", "root", &[])).unwrap();
        s.create(Object::set("C", "c", &[])).unwrap();
        s.insert_edge(oid("ROOT"), oid("C")).unwrap();
        s.insert_edge(oid("C"), oid("C")).unwrap();
        let e = PathExpr::parse("*").unwrap();
        let mut f: ForwardFlow<()> = ForwardFlow::new(&e);
        let (arr, ev) = arr_of(&s);
        let mut pending = ZSet::new();
        f.seed(&mut pending, (), oid("ROOT"), 1);
        for e in &ev.edges {
            f.edge_event(&mut pending, e.parent, e.child, e.child_label, e.w);
        }
        let (mut b, mut p) = (10_000, 0);
        let mut dirty = FastSet::default();
        assert_eq!(
            f.propagate(&arr, pending, &mut b, &mut p, &mut dirty),
            Err(Diverged)
        );
    }
}
