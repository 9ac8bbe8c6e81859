//! The arranged graph mirror every operator's state is keyed against.
//!
//! Circuits cannot read derivation context back out of the base store:
//! a batched `Remove` leaves surviving children lists naming a
//! record-less OID, so by the time a consolidated delta arrives the
//! final store can no longer describe the edges a removed object used
//! to contribute. The [`GraphArrangement`] therefore mirrors exactly
//! the *live* part of the graph — records, labels, atoms, and the
//! edges whose **both** endpoints have records — and the ingestion
//! step ([`GraphArrangement::ingest`]) turns a [`ConsolidatedDelta`]
//! into low-level ±1 edge/node/atom events against that mirror:
//!
//! * a removed object synthesizes edge deletions for every arranged
//!   incident edge (the store can't name them anymore);
//! * a created object synthesizes the edge insertions that make its
//!   arranged neighborhood match the final store, including edges the
//!   store had kept dangling (a re-created OID resurrects them);
//! * explicit edge deltas are applied only while both endpoints are
//!   live, which keeps the mirror consistent with the traversal
//!   semantics of the query engine (dangling children contribute
//!   nothing).

use gsdb::{Atom, ConsolidatedDelta, FastMap, FastSet, Label, Oid, Store};

/// One arranged record: the object's label plus its atomic value.
#[derive(Clone, Debug)]
pub struct NodeRec {
    /// The object's label (fixed for the record's lifetime).
    pub label: Label,
    /// The atomic value, if the object is atomic.
    pub atom: Option<Atom>,
}

/// One ±1 live-edge event. The child's label is captured at event
/// time because a removed child's record is gone from the mirror by
/// the time operators process the event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Edge source.
    pub parent: Oid,
    /// Edge target.
    pub child: Oid,
    /// The child's label when the event fired.
    pub child_label: Label,
    /// `+1` for insertion, `-1` for deletion.
    pub w: i64,
}

/// Low-level events one consolidated delta reduces to, in application
/// order. Weights are per-edge-occurrence (children lists are
/// multisets).
#[derive(Clone, Debug, Default)]
pub struct IngestEvents {
    /// Live-edge insertions and deletions.
    pub edges: Vec<EdgeEvent>,
    /// Objects whose record appeared this batch.
    pub created: Vec<Oid>,
    /// Objects whose record vanished this batch, with the atom they
    /// held (for predicate retraction).
    pub removed: Vec<(Oid, Option<Atom>)>,
    /// `(oid, old, new)` atom changes of surviving objects.
    pub atoms: Vec<(Oid, Option<Atom>, Atom)>,
}

impl IngestEvents {
    /// Total absolute weight of the event stream — the |Δin| obs
    /// reports per step.
    pub fn total_abs_weight(&self) -> u64 {
        self.edges.len() as u64
            + self.created.len() as u64
            + self.removed.len() as u64
            + self.atoms.len() as u64
    }

    /// True iff the batch reduced to nothing.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
            && self.created.is_empty()
            && self.removed.is_empty()
            && self.atoms.is_empty()
    }
}

/// The live-graph mirror: records plus a multiset of live edges,
/// indexed both downward (children) and upward (parents).
#[derive(Clone, Debug, Default)]
pub struct GraphArrangement {
    recs: FastMap<Oid, NodeRec>,
    children: FastMap<Oid, Vec<Oid>>,
    parents: FastMap<Oid, Vec<Oid>>,
    edge_count: usize,
}

impl GraphArrangement {
    /// An empty arrangement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arranged records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True iff nothing is arranged.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Number of live edges (multiset cardinality).
    pub fn edge_len(&self) -> usize {
        self.edge_count
    }

    /// Is `oid` arranged (does it have a live record)?
    pub fn contains(&self, oid: Oid) -> bool {
        self.recs.contains_key(&oid)
    }

    /// The arranged label of `oid`.
    pub fn label(&self, oid: Oid) -> Option<Label> {
        self.recs.get(&oid).map(|r| r.label)
    }

    /// The arranged atom of `oid`.
    pub fn atom(&self, oid: Oid) -> Option<&Atom> {
        self.recs.get(&oid)?.atom.as_ref()
    }

    /// Live children of `oid` (with multiplicity).
    pub fn children(&self, oid: Oid) -> &[Oid] {
        self.children.get(&oid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Live parents of `oid` (with multiplicity).
    pub fn parents(&self, oid: Oid) -> &[Oid] {
        self.parents.get(&oid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Multiplicity of the live edge `(parent, child)`.
    pub fn edge_multiplicity(&self, parent: Oid, child: Oid) -> usize {
        self.children(parent).iter().filter(|&&c| c == child).count()
    }

    fn add_edge(&mut self, parent: Oid, child: Oid) {
        self.children.entry(parent).or_default().push(child);
        self.parents.entry(child).or_default().push(parent);
        self.edge_count += 1;
    }

    fn remove_edge(&mut self, parent: Oid, child: Oid) -> bool {
        let Some(cs) = self.children.get_mut(&parent) else {
            return false;
        };
        let Some(i) = cs.iter().position(|&c| c == child) else {
            return false;
        };
        cs.swap_remove(i);
        if cs.is_empty() {
            self.children.remove(&parent);
        }
        let ps = self.parents.get_mut(&child).expect("edge indexed both ways");
        let j = ps.iter().position(|&p| p == parent).expect("edge indexed both ways");
        ps.swap_remove(j);
        if ps.is_empty() {
            self.parents.remove(&child);
        }
        self.edge_count -= 1;
        true
    }

    /// Reduce one consolidated delta (against the **final** store) to
    /// low-level events, applying them to the mirror as it goes. The
    /// returned events are what the operators propagate.
    pub fn ingest(&mut self, delta: &ConsolidatedDelta, store: &Store) -> IngestEvents {
        let mut ev = IngestEvents::default();

        // 1. Removed records: synthesize deletions for every arranged
        //    incident edge, then drop the record. (`removed` and
        //    `created` never share an OID — net-zero record churn is
        //    cancelled during consolidation.)
        for &o in &delta.removed {
            let Some(rec) = self.recs.get(&o) else { continue };
            let atom = rec.atom.clone();
            let own_label = rec.label;
            for c in self.children(o).to_vec() {
                let child_label = self.label(c).expect("live edge child is arranged");
                self.remove_edge(o, c);
                ev.edges.push(EdgeEvent {
                    parent: o,
                    child: c,
                    child_label,
                    w: -1,
                });
            }
            for p in self.parents(o).to_vec() {
                self.remove_edge(p, o);
                ev.edges.push(EdgeEvent {
                    parent: p,
                    child: o,
                    child_label: own_label,
                    w: -1,
                });
            }
            self.recs.remove(&o);
            ev.removed.push((o, atom));
        }

        // 2. Created records, from the final store.
        for &o in &delta.created {
            let Some(obj) = store.get(o) else { continue };
            self.recs.insert(
                o,
                NodeRec {
                    label: obj.label,
                    atom: obj.atom_value().cloned(),
                },
            );
            ev.created.push(o);
        }
        let created: FastSet<Oid> = ev.created.iter().copied().collect();

        // 3. Explicit edge deltas, gated on liveness. A deletion of an
        //    edge the mirror never held (it was dangling) is a no-op;
        //    an insertion whose child has no record stays un-arranged
        //    until the child is created (step 4 of that later batch).
        for e in &delta.edges {
            match e.op {
                gsdb::EdgeOp::Insert => {
                    if self.contains(e.parent) && self.contains(e.child) {
                        self.add_edge(e.parent, e.child);
                        ev.edges.push(EdgeEvent {
                            parent: e.parent,
                            child: e.child,
                            child_label: self.label(e.child).expect("child just checked live"),
                            w: 1,
                        });
                    }
                }
                gsdb::EdgeOp::Delete => {
                    if self.remove_edge(e.parent, e.child) {
                        ev.edges.push(EdgeEvent {
                            parent: e.parent,
                            child: e.child,
                            child_label: self.label(e.child).expect("arranged edge child is live"),
                            w: -1,
                        });
                    }
                }
            }
        }

        // 4. Created-record reconciliation: top the arranged
        //    neighborhood of each created object up to the final
        //    store. This covers children embedded in the `Create`
        //    itself (they never appear as edge deltas) and dangling
        //    edges a re-created OID brings back to life.
        for &o in &ev.created {
            let mut per_child: FastMap<Oid, usize> = FastMap::default();
            for &c in store.children(o) {
                *per_child.entry(c).or_insert(0) += 1;
            }
            // Arranged multiplicities, counted once: scanning `o`'s
            // children per child would be quadratic in its fan-out.
            let mut have: FastMap<Oid, usize> = FastMap::default();
            for &c in self.children(o) {
                *have.entry(c).or_insert(0) += 1;
            }
            for (c, want) in per_child {
                let Some(child_label) = self.label(c) else {
                    continue;
                };
                for _ in have.get(&c).copied().unwrap_or(0)..want {
                    self.add_edge(o, c);
                    ev.edges.push(EdgeEvent {
                        parent: o,
                        child: c,
                        child_label,
                        w: 1,
                    });
                }
            }
            // Incoming edges, through the parent index when there is
            // one (the index-less fallback scans below).
            if let Some(ps) = store.parents(o) {
                let own_label = self.label(o).expect("created record just arranged");
                let mut seen: FastSet<Oid> = FastSet::default();
                for p in ps.iter() {
                    if !seen.insert(p) || created.contains(&p) || !self.contains(p) {
                        continue;
                    }
                    let want = store.children(p).iter().filter(|&&c| c == o).count();
                    // Counted on `o`'s side: `p` may have a large fan-out.
                    let have = self.parents(o).iter().filter(|&&q| q == p).count();
                    for _ in have..want {
                        self.add_edge(p, o);
                        ev.edges.push(EdgeEvent {
                            parent: p,
                            child: o,
                            child_label: own_label,
                            w: 1,
                        });
                    }
                }
            }
        }

        // 4b. Index-less incoming reconciliation: without a parent
        //     index the store cannot name a created object's parents,
        //     so scan every arranged parent's store children for
        //     edges into created records (covers dangling-edge
        //     resurrection). Linear in arranged edges, paid only by
        //     index-less stores with creates in the batch.
        if !created.is_empty() && !store.has_parent_index() {
            let parents: Vec<Oid> = self
                .recs
                .keys()
                .copied()
                .filter(|p| !created.contains(p))
                .collect();
            for p in parents {
                let mut per_child: FastMap<Oid, usize> = FastMap::default();
                for &c in store.children(p) {
                    if created.contains(&c) {
                        *per_child.entry(c).or_insert(0) += 1;
                    }
                }
                for (c, want) in per_child {
                    let Some(child_label) = self.label(c) else { continue };
                    for _ in self.edge_multiplicity(p, c)..want {
                        self.add_edge(p, c);
                        ev.edges.push(EdgeEvent {
                            parent: p,
                            child: c,
                            child_label,
                            w: 1,
                        });
                    }
                }
            }
        }

        // 5. Atom modifications of surviving records. Created records
        //    already carry their final-store atom, so the compare
        //    below is what makes re-application idempotent.
        for m in &delta.modifies {
            let Some(rec) = self.recs.get_mut(&m.oid) else {
                continue;
            };
            if rec.atom.as_ref() == Some(&m.new) {
                continue;
            }
            let old = rec.atom.replace(m.new.clone());
            ev.atoms.push((m.oid, old, m.new.clone()));
        }

        ev
    }

    /// Events that load an entire store into an empty circuit: every
    /// object is "created". Shares the reconciliation path with
    /// incremental ingestion, so initialization is the same code the
    /// oracle exercises per batch.
    pub fn ingest_full(&mut self, store: &Store) -> IngestEvents {
        let delta = ConsolidatedDelta {
            created: store.iter().map(|o| o.oid).collect(),
            ..ConsolidatedDelta::default()
        };
        self.ingest(&delta, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{DeltaBatch, Object, Update};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn has_edge(ev: &IngestEvents, parent: &str, child: &str, w: i64) -> bool {
        ev.edges
            .iter()
            .any(|e| e.parent == oid(parent) && e.child == oid(child) && e.w == w)
    }

    fn seed() -> Store {
        let mut s = Store::new();
        s.create(Object::atom("A", "age", 40i64)).unwrap();
        s.create(Object::set("P", "person", &[oid("A")])).unwrap();
        s.create(Object::set("R", "root", &[oid("P")])).unwrap();
        s
    }

    #[test]
    fn full_load_mirrors_store() {
        let s = seed();
        let mut arr = GraphArrangement::new();
        let ev = arr.ingest_full(&s);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr.edge_len(), 2);
        assert_eq!(ev.created.len(), 3);
        assert_eq!(ev.edges.len(), 2);
        assert_eq!(arr.children(oid("R")), &[oid("P")]);
        assert_eq!(arr.parents(oid("A")), &[oid("P")]);
        assert_eq!(arr.atom(oid("A")), Some(&Atom::from(40i64)));
    }

    #[test]
    fn remove_synthesizes_incident_edge_deletes() {
        let mut s = seed();
        let mut arr = GraphArrangement::new();
        arr.ingest_full(&s);

        let mut batch = DeltaBatch::new();
        batch.push(s.apply(Update::Remove { oid: oid("P") }).unwrap());
        let ev = arr.ingest(&batch.consolidate(), &s);
        // Both incident edges die even though the store still names P
        // in R's children list.
        assert_eq!(ev.edges.len(), 2);
        assert!(has_edge(&ev, "P", "A", -1));
        assert!(has_edge(&ev, "R", "P", -1));
        assert_eq!(arr.edge_len(), 0);
        assert!(!arr.contains(oid("P")));
        assert!(!s.children(oid("R")).is_empty(), "store edge dangles");
    }

    #[test]
    fn recreate_resurrects_dangling_edges() {
        let mut s = seed();
        let mut arr = GraphArrangement::new();
        arr.ingest_full(&s);

        let mut batch = DeltaBatch::new();
        batch.push(s.apply(Update::Remove { oid: oid("P") }).unwrap());
        arr.ingest(&batch.consolidate(), &s);

        let mut batch = DeltaBatch::new();
        batch.push(
            s.apply(Update::Create {
                object: Object::set("P", "person", &[oid("A")]),
            })
            .unwrap(),
        );
        let ev = arr.ingest(&batch.consolidate(), &s);
        // Outgoing edge comes from the embedded children; the dangling
        // R→P edge resurrects through the parent index.
        assert!(has_edge(&ev, "P", "A", 1));
        assert!(has_edge(&ev, "R", "P", 1));
        assert_eq!(arr.edge_len(), 2);
    }

    #[test]
    fn modify_is_idempotent_for_created_records() {
        let mut s = seed();
        let mut arr = GraphArrangement::new();
        arr.ingest_full(&s);
        let mut batch = DeltaBatch::new();
        batch.push(s.apply(Update::modify("A", 50i64)).unwrap());
        let ev = arr.ingest(&batch.consolidate(), &s);
        assert_eq!(ev.atoms.len(), 1);
        assert_eq!(arr.atom(oid("A")), Some(&Atom::from(50i64)));
        // Replaying the same consolidated delta produces no event.
        let mut batch2 = DeltaBatch::new();
        batch2.push(gsdb::AppliedUpdate::Modify {
            oid: oid("A"),
            old: Atom::from(40i64),
            new: Atom::from(50i64),
        });
        let ev = arr.ingest(&batch2.consolidate(), &s);
        assert!(ev.atoms.is_empty());
    }
}
