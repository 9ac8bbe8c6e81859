//! Regression gate: a circuit-backed view's per-step work is flat in
//! view size at fixed |Δ|.
//!
//! The same union and `Avg` views are built over stores of 1k, 10k and
//! 100k professors, and one identical delta is stepped through each.
//! The work is read from the `maint.circuit.view.synced` counter (the
//! members the adapter reconciles per call), not from wall time, so
//! the gate is deterministic. It also pins the two full-sync paths —
//! a forced version mismatch and a view edited behind the maintainer's
//! back — and that the view ends equal to the circuit's members.
//!
//! This binary holds a single test: the counters live in the process-
//! global registry, and a concurrent test would perturb them.

use gsdb::{DeltaBatch, Object, Oid, Store, Update};
use gsview_core::{
    AggFn, AggregateViewDef, BatchOutcome, CircuitMaintainer, CircuitSource, CompoundViewDef,
    MaterializedView, SimpleViewDef,
};
use gsview_query::{CmpOp, Pred};

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Members inserted, and members dropped by each of two deletion
/// kinds (condition fails, edge removed), per stepped delta.
const K: usize = 8;

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn synced() -> u64 {
    gsview_obs::registry()
        .counter("maint.circuit.view.synced")
        .get()
}

fn fallbacks() -> u64 {
    gsview_obs::registry()
        .counter("maint.circuit.view.fallbacks")
        .get()
}

/// `n` professors under `{pfx}ROOT`, each with an `age` atom of 30:
/// every professor is a member of both views.
fn build_store(pfx: &str, n: usize) -> Store {
    let mut s = Store::new();
    let root = format!("{pfx}ROOT");
    s.create(Object::empty_set(root.as_str(), "db")).unwrap();
    for i in 0..n {
        let (p, a) = (format!("{pfx}P{i}"), format!("{pfx}A{i}"));
        s.create(Object::atom(a.as_str(), "age", 30i64)).unwrap();
        s.create(Object::set(p.as_str(), "professor", &[oid(&a)]))
            .unwrap();
        s.insert_edge(oid(&root), oid(&p)).unwrap();
    }
    s
}

fn union_source(pfx: &str) -> CircuitSource {
    let (view, root) = (format!("{pfx}UNION"), format!("{pfx}ROOT"));
    CircuitSource::Compound(CompoundViewDef::new(
        view.as_str(),
        vec![
            SimpleViewDef::new(view.as_str(), root.as_str(), "professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            SimpleViewDef::new(view.as_str(), root.as_str(), "professor")
                .with_cond("age", Pred::new(CmpOp::Gt, 60i64)),
        ],
    ))
}

fn avg_source(pfx: &str) -> CircuitSource {
    let (view, root) = (format!("{pfx}AVG"), format!("{pfx}ROOT"));
    CircuitSource::Aggregate(AggregateViewDef::new(
        SimpleViewDef::new(view.as_str(), root.as_str(), "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
        "age",
        AggFn::Avg,
    ))
}

/// The fixed delta: `K` new member professors, `K` members aged out
/// of the condition, `K` members detached from the root, and `K`
/// members' ages changed without leaving the view.
fn fixed_delta(store: &mut Store, pfx: &str) -> DeltaBatch {
    let root = oid(&format!("{pfx}ROOT"));
    let mut batch = DeltaBatch::new();
    for j in 0..K {
        let (p, a) = (format!("{pfx}NP{j}"), format!("{pfx}NA{j}"));
        let age = Object::atom(a.as_str(), "age", 40i64);
        batch.push(store.apply(Update::Create { object: age }).unwrap());
        let prof = Object::set(p.as_str(), "professor", &[oid(&a)]);
        batch.push(store.apply(Update::Create { object: prof }).unwrap());
        batch.push(store.insert_edge(root, oid(&p)).unwrap());
        let aged = format!("{pfx}A{j}");
        batch.push(store.apply(Update::modify(aged.as_str(), 50i64)).unwrap());
        batch.push(
            store
                .delete_edge(root, oid(&format!("{pfx}P{}", K + j)))
                .unwrap(),
        );
        let kept = format!("{pfx}A{}", 2 * K + j);
        batch.push(store.apply(Update::modify(kept.as_str(), 31i64)).unwrap());
    }
    batch
}

/// The view equals the circuit's members, both sorted by name.
fn assert_in_step(cm: &CircuitMaintainer, mv: &MaterializedView) {
    assert_eq!(mv.members_base(), cm.members(), "view {}", cm.view());
}

/// Step the fixed delta through a freshly initialized maintainer and
/// return the reconciled-member count and the outcome.
fn step_once(source: CircuitSource, store: &mut Store, pfx: &str) -> (u64, BatchOutcome) {
    let cm = CircuitMaintainer::new(source);
    let mut mv = MaterializedView::new(cm.view());
    cm.initialize(&mut mv, store).unwrap();
    let batch = fixed_delta(store, pfx);
    let before = synced();
    let out = cm.apply_batch(&mut mv, store, &batch).unwrap();
    let work = synced() - before;
    assert_eq!(
        (cm.steps(), cm.rebuilds()),
        (1, 1),
        "view {} did not step",
        cm.view()
    );
    assert_in_step(&cm, &mv);
    (work, out)
}

/// A version mismatch rebuilds the circuit and reconciles every
/// member; a view edited behind the maintainer's back trips the size
/// check and is reconciled in full too.
fn full_sync_paths(pfx: &str, n: usize) {
    let mut store = build_store(pfx, n);
    let cm = CircuitMaintainer::new(union_source(pfx));
    let mut mv = MaterializedView::new(cm.view());
    cm.initialize(&mut mv, &store).unwrap();

    // An update the maintainer never sees, then a batch with only the
    // tail: the versions no longer line up.
    store
        .apply(Update::modify(format!("{pfx}A0").as_str(), 50i64))
        .unwrap();
    let mut batch = DeltaBatch::new();
    let a1 = format!("{pfx}A1");
    batch.push(store.apply(Update::modify(a1.as_str(), 50i64)).unwrap());
    let before = synced();
    let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
    assert_eq!(
        (cm.steps(), cm.rebuilds()),
        (0, 2),
        "a mismatch must rebuild"
    );
    assert_eq!(
        synced() - before,
        (n + n - 2) as u64,
        "a rebuild reconciles every view and circuit member"
    );
    assert_eq!(
        out.deleted,
        vec![oid(&format!("{pfx}P0")), oid(&format!("{pfx}P1"))]
    );
    assert_in_step(&cm, &mv);

    // Drop a member from the view directly; the next step's size check
    // must catch it and restore the member.
    let tampered = oid(&format!("{pfx}P5"));
    assert!(mv.v_delete(tampered).unwrap());
    let mut batch = DeltaBatch::new();
    let a2 = format!("{pfx}A2");
    batch.push(store.apply(Update::modify(a2.as_str(), 50i64)).unwrap());
    let (before, fell_back) = (synced(), fallbacks());
    let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
    assert_eq!(cm.steps(), 1, "the batch itself still steps");
    assert_eq!(fallbacks() - fell_back, 1, "the size check must trip");
    assert_eq!(
        synced() - before,
        (1 + (n - 4) + (n - 3)) as u64,
        "one delta member, then a full reconcile"
    );
    assert_eq!(out.inserted, vec![tampered]);
    assert_in_step(&cm, &mv);
}

#[test]
fn circuit_step_work_is_flat_in_view_size() {
    let mut union_work = Vec::new();
    let mut avg_work = Vec::new();
    for n in SIZES {
        for (pfx, source, work) in [
            (
                format!("U{n}_"),
                union_source as fn(&str) -> CircuitSource,
                &mut union_work,
            ),
            (format!("G{n}_"), avg_source, &mut avg_work),
        ] {
            let mut store = build_store(&pfx, n);
            let fell_back = fallbacks();
            let (synced, out) = step_once(source(&pfx), &mut store, &pfx);
            assert_eq!(fallbacks(), fell_back, "{pfx}: no fallback on a clean step");
            assert_eq!(out.inserted.len(), K, "{pfx}");
            assert_eq!(out.deleted.len(), 2 * K, "{pfx}");
            assert_eq!(
                synced,
                (out.inserted.len() + out.deleted.len()) as u64,
                "{pfx}: the step reconciled more than its membership delta"
            );
            work.push(synced);
        }
    }
    for work in [&union_work, &avg_work] {
        assert!(
            work.iter().all(|&w| w == work[0]),
            "step work grew with view size at fixed |Δ|: {work:?} at {SIZES:?}"
        );
    }
    full_sync_paths("M_", SIZES[0]);
}
