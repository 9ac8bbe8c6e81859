//! Path expressions: regular expressions over object labels (paper §2).
//!
//! "A path expression is a regular expression of paths. For example,
//! `*`, `professor.*` and `professor.?` are path expressions." A
//! constant path is also a path expression.
//!
//! Grammar (dot-separated elements):
//!
//! * a label `professor` — matches exactly that label;
//! * `?` — matches any single label;
//! * `*` — matches any sequence of zero or more labels;
//! * `(a|b|c)` — matches any one of the listed labels.
//!
//! Expressions compile to an NFA over the label alphabet. We provide:
//!
//! * [`PathExpr::matches`] — is a constant path an *instance* of the
//!   expression (paper §2: wild cards substituted by paths);
//! * [`PathExpr::contains`] — language containment `L(a) ⊆ L(b)`,
//!   the test paper §6 says wildcard-view maintenance needs
//!   ("the maintenance algorithm needs to be able to test path
//!   containment for general path expressions");
//! * [`reach_expr`] — `N.e`, the union of `N.p` over all instances
//!   `p` of `e` (paper §2), computed as a product BFS of the database
//!   graph and the NFA.

use gsdb::{FastMap, FastSet, Label, Oid, Path, Store};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;

/// One dot-separated element of a path expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Elem {
    /// A specific label.
    Label(Label),
    /// `?`: any single label.
    AnyOne,
    /// `*`: any sequence of zero or more labels.
    AnySeq,
    /// `(a|b)`: one label out of a set.
    Alt(Vec<Label>),
}

/// A path expression: a sequence of elements.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct PathExpr(pub Vec<Elem>);

impl PathExpr {
    /// The empty path expression (matches only the empty path).
    pub fn empty() -> Self {
        PathExpr(Vec::new())
    }

    /// A constant path as an expression.
    pub fn from_path(p: &Path) -> Self {
        PathExpr(p.labels().iter().map(|&l| Elem::Label(l)).collect())
    }

    /// Parse a dotted expression: `"professor.*.age"`, `"?"`,
    /// `"(a|b).x"`. Empty string parses to the empty expression.
    ///
    /// Returns `None` on malformed alternation syntax.
    pub fn parse(s: &str) -> Option<Self> {
        if s.is_empty() {
            return Some(PathExpr::empty());
        }
        let mut elems = Vec::new();
        for part in s.split('.') {
            let part = part.trim();
            let elem = match part {
                "?" => Elem::AnyOne,
                "*" => Elem::AnySeq,
                _ if part.starts_with('(') && part.ends_with(')') => {
                    let inner = &part[1..part.len() - 1];
                    let labels: Vec<Label> = inner
                        .split('|')
                        .map(str::trim)
                        .filter(|l| !l.is_empty())
                        .map(Label::new)
                        .collect();
                    if labels.is_empty() {
                        return None;
                    }
                    Elem::Alt(labels)
                }
                "" => return None,
                // A stray '(', ')' or '|' here means an alternation was
                // split apart by a dot (e.g. "(a|b.c)") or malformed —
                // reject instead of silently treating it as a label.
                _ if part.contains('(') || part.contains(')') || part.contains('|') => {
                    return None
                }
                _ => Elem::Label(Label::new(part)),
            };
            elems.push(elem);
        }
        Some(PathExpr(elems))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True iff this expression is a constant path (no wild cards) —
    /// the "simple view" precondition of paper §4.2.
    pub fn is_constant(&self) -> bool {
        self.0.iter().all(|e| matches!(e, Elem::Label(_)))
    }

    /// If constant, the corresponding path.
    pub fn as_path(&self) -> Option<Path> {
        let mut labels = Vec::with_capacity(self.0.len());
        for e in &self.0 {
            match e {
                Elem::Label(l) => labels.push(*l),
                _ => return None,
            }
        }
        Some(Path(labels))
    }

    /// Concatenate two expressions (`sel_path.cond_path`).
    pub fn concat(&self, other: &PathExpr) -> PathExpr {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        PathExpr(v)
    }

    /// Compile to an NFA.
    pub fn nfa(&self) -> Nfa {
        Nfa::compile(self)
    }

    /// Is `p` an instance of this expression (paper §2)?
    pub fn matches(&self, p: &Path) -> bool {
        self.nfa().accepts(p.labels())
    }

    /// Language containment: does every instance of `self` also
    /// instantiate `other`? Decided by determinizing both NFAs over
    /// the joint alphabet (plus a fresh "other label" symbol) and
    /// searching `L(self) ∩ ¬L(other)` for a witness.
    pub fn contains(other: &PathExpr, inner: &PathExpr) -> bool {
        // `inner ⊆ other`.
        let mut alphabet: BTreeSet<Label> = BTreeSet::new();
        for e in other.0.iter().chain(inner.0.iter()) {
            match e {
                Elem::Label(l) => {
                    alphabet.insert(*l);
                }
                Elem::Alt(ls) => alphabet.extend(ls.iter().copied()),
                _ => {}
            }
        }
        // A label distinct from all mentioned ones stands in for "any
        // other label" — sound because both NFAs treat all unmentioned
        // labels identically.
        let fresh = Label::new("\u{1}other\u{1}");
        alphabet.insert(fresh);
        let a = inner.nfa();
        let b = other.nfa();
        // Product BFS looking for a state where `a` accepts but `b`
        // does not. With the dense engine, product states are a pair
        // of u64 masks — no state-set vectors cloned per transition.
        if let (Some(da), Some(db)) = (a.dense(), b.dense()) {
            let start = (da.start_mask(), db.start_mask());
            let mut seen: FastSet<(u64, u64)> = FastSet::default();
            let mut q = VecDeque::new();
            seen.insert(start);
            q.push_back(start);
            while let Some((sa, sb)) = q.pop_front() {
                if da.is_accepting(sa) && !db.is_accepting(sb) {
                    return false; // witness: a path in inner but not other
                }
                for &l in &alphabet {
                    let na = da.step_mask(sa, l);
                    if na == 0 {
                        continue; // dead for inner ⇒ no counterexample there
                    }
                    let key = (na, db.step_mask(sb, l));
                    if seen.insert(key) {
                        q.push_back(key);
                    }
                }
            }
            return true;
        }
        let start = (a.eclose(&[0]), b.eclose(&[0]));
        let mut seen: HashSet<(Vec<usize>, Vec<usize>)> = HashSet::new();
        let mut q = VecDeque::new();
        seen.insert(start.clone());
        q.push_back(start);
        while let Some((sa, sb)) = q.pop_front() {
            if a.any_accepting(&sa) && !b.any_accepting(&sb) {
                return false; // witness: a path in inner but not other
            }
            for &l in &alphabet {
                let na = a.step(&sa, l);
                let nb = b.step(&sb, l);
                if na.is_empty() {
                    continue; // dead for inner ⇒ no counterexample there
                }
                let key = (na, nb);
                if seen.insert(key.clone()) {
                    q.push_back(key);
                }
            }
        }
        true
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            match e {
                Elem::Label(l) => write!(f, "{l}")?,
                Elem::AnyOne => write!(f, "?")?,
                Elem::AnySeq => write!(f, "*")?,
                Elem::Alt(ls) => {
                    write!(f, "(")?;
                    for (j, l) in ls.iter().enumerate() {
                        if j > 0 {
                            write!(f, "|")?;
                        }
                        write!(f, "{l}")?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        Ok(())
    }
}

impl From<&Path> for PathExpr {
    fn from(p: &Path) -> Self {
        PathExpr::from_path(p)
    }
}

// ----------------------------------------------------------------------
// NFA
// ----------------------------------------------------------------------

/// A transition predicate on one label step.
#[derive(Clone, Debug)]
enum Trans {
    /// Consume exactly this label.
    Label(Label),
    /// Consume any label.
    Any,
    /// Consume one of these labels.
    OneOf(Vec<Label>),
}

impl Trans {
    fn admits(&self, l: Label) -> bool {
        match self {
            Trans::Label(t) => *t == l,
            Trans::Any => true,
            Trans::OneOf(ts) => ts.contains(&l),
        }
    }
}

/// A compiled NFA for a path expression. State `i` means "the first
/// `i` elements are fully matched"; `*` elements add self-loops plus an
/// epsilon edge.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// consuming transitions: (from, trans, to)
    trans: Vec<(usize, Trans, usize)>,
    /// epsilon transitions: (from, to)
    eps: Vec<(usize, usize)>,
    accept: usize,
    /// Dense bitset engine, present whenever the automaton fits in a
    /// `u64` state-set (path expressions of ≤ 63 elements — i.e. all
    /// realistic ones). The sparse `Vec<usize>` API below stays as the
    /// fallback and as the reference realization.
    dense: Option<DenseNfa>,
}

/// The dense evaluation engine: state sets are `u64` bitmasks and the
/// transition function is a precomputed table over the expression's
/// mentioned labels plus one "any other label" column. Stepping a
/// state set is a few table lookups and ORs — no allocation, no
/// epsilon-closure recomputation, no `Vec` cloning per node.
#[derive(Clone, Debug)]
pub struct DenseNfa {
    /// mentioned label → column index; unmentioned labels use the
    /// extra `other` column.
    symbols: FastMap<Label, u32>,
    /// columns per state: one per mentioned label + 1 for "other".
    ncols: usize,
    /// `delta[state * ncols + col]` = eps-closed successor mask.
    delta: Vec<u64>,
    start: u64,
    accept_mask: u64,
}

impl DenseNfa {
    fn build(trans: &[(usize, Trans, usize)], eps: &[(usize, usize)], accept: usize) -> Option<DenseNfa> {
        let nstates = accept + 1;
        if nstates > 64 {
            return None;
        }
        // Borrow the sparse stepping machinery to fill the table.
        let sparse = Nfa {
            trans: trans.to_vec(),
            eps: eps.to_vec(),
            accept,
            dense: None,
        };
        let mut labels: Vec<Label> = Vec::new();
        for (_, tr, _) in trans {
            match tr {
                Trans::Label(l) => {
                    if !labels.contains(l) {
                        labels.push(*l);
                    }
                }
                Trans::OneOf(ls) => {
                    for l in ls {
                        if !labels.contains(l) {
                            labels.push(*l);
                        }
                    }
                }
                Trans::Any => {}
            }
        }
        let ncols = labels.len() + 1;
        let mut symbols = FastMap::default();
        for (i, &l) in labels.iter().enumerate() {
            symbols.insert(l, i as u32);
        }
        // A label no expression can mention (contains '\u{1}') stands
        // in for the whole unmentioned-alphabet column.
        let fresh = Label::new("\u{1}unmentioned\u{1}");
        let mask_of = |states: &[usize]| states.iter().fold(0u64, |m, &s| m | (1u64 << s));
        let mut delta = vec![0u64; nstates * ncols];
        for s in 0..nstates {
            for (i, &l) in labels.iter().enumerate() {
                delta[s * ncols + i] = mask_of(&sparse.step(&[s], l));
            }
            delta[s * ncols + ncols - 1] = mask_of(&sparse.step(&[s], fresh));
        }
        Some(DenseNfa {
            symbols,
            ncols,
            delta,
            start: mask_of(&sparse.start()),
            accept_mask: 1u64 << accept,
        })
    }

    /// The eps-closed start state set as a bitmask.
    #[inline]
    pub fn start_mask(&self) -> u64 {
        self.start
    }

    /// One consuming step on label `l` from an eps-closed mask; the
    /// result is eps-closed. `0` means the automaton is dead.
    #[inline]
    pub fn step_mask(&self, mask: u64, l: Label) -> u64 {
        let col = match self.symbols.get(&l) {
            Some(&c) => c as usize,
            None => self.ncols - 1,
        };
        let mut out = 0u64;
        let mut m = mask;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            out |= self.delta[s * self.ncols + col];
        }
        out
    }

    /// Does the mask contain the accepting state?
    #[inline]
    pub fn is_accepting(&self, mask: u64) -> bool {
        mask & self.accept_mask != 0
    }
}

impl Nfa {
    fn compile(e: &PathExpr) -> Nfa {
        let mut trans = Vec::new();
        let mut eps = Vec::new();
        for (i, elem) in e.0.iter().enumerate() {
            match elem {
                Elem::Label(l) => trans.push((i, Trans::Label(*l), i + 1)),
                Elem::AnyOne => trans.push((i, Trans::Any, i + 1)),
                Elem::AnySeq => {
                    eps.push((i, i + 1));
                    trans.push((i, Trans::Any, i));
                }
                Elem::Alt(ls) => trans.push((i, Trans::OneOf(ls.clone()), i + 1)),
            }
        }
        let accept = e.0.len();
        let dense = DenseNfa::build(&trans, &eps, accept);
        Nfa {
            trans,
            eps,
            accept,
            dense,
        }
    }

    /// The dense bitset engine, when the automaton fits in 64 states.
    pub fn dense(&self) -> Option<&DenseNfa> {
        self.dense.as_ref()
    }

    /// Epsilon closure of a state set; result sorted + deduped.
    pub fn eclose(&self, states: &[usize]) -> Vec<usize> {
        let mut out: BTreeSet<usize> = states.iter().copied().collect();
        let mut frontier: Vec<usize> = states.to_vec();
        while let Some(s) = frontier.pop() {
            for &(f, t) in &self.eps {
                if f == s && out.insert(t) {
                    frontier.push(t);
                }
            }
        }
        out.into_iter().collect()
    }

    /// One consuming step from a (closed) state set on label `l`;
    /// result is epsilon-closed.
    pub fn step(&self, states: &[usize], l: Label) -> Vec<usize> {
        let mut next = Vec::new();
        for &s in states {
            for (f, tr, t) in &self.trans {
                if *f == s && tr.admits(l) && !next.contains(t) {
                    next.push(*t);
                }
            }
        }
        self.eclose(&next)
    }

    /// The (epsilon-closed) start state set.
    pub fn start(&self) -> Vec<usize> {
        self.eclose(&[0])
    }

    /// Does any state in the set accept?
    pub fn any_accepting(&self, states: &[usize]) -> bool {
        states.contains(&self.accept)
    }

    /// Run the NFA over a label word.
    pub fn accepts(&self, word: &[Label]) -> bool {
        if let Some(d) = self.dense() {
            let mut cur = d.start_mask();
            for &l in word {
                cur = d.step_mask(cur, l);
                if cur == 0 {
                    return false;
                }
            }
            return d.is_accepting(cur);
        }
        let mut cur = self.start();
        for &l in word {
            cur = self.step(&cur, l);
            if cur.is_empty() {
                return false;
            }
        }
        self.any_accepting(&cur)
    }
}

// ----------------------------------------------------------------------
// N.e — reachability along a path expression
// ----------------------------------------------------------------------

/// Statistics from an expression traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Product states (object, NFA-state-set) visited.
    pub states_visited: usize,
}

/// `N.e`: the union of `N.p` over all instances `p` of `e`
/// (paper §2). `filter` restricts traversal to objects it admits —
/// used to implement the `WITHIN DB1` clause, under which OIDs outside
/// the database "are completely ignored by the query".
///
/// Result is sorted by OID name.
pub fn reach_expr(
    store: &Store,
    n: Oid,
    e: &PathExpr,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    let nfa = e.nfa();
    if let Some(d) = nfa.dense() {
        return reach_expr_dense(store, n, d, filter);
    }
    reach_expr_sparse(store, n, &nfa, filter)
}

/// Dense realization: product states are `(slot id, u64 mask)` pairs,
/// memoized in a fast-hash set — per-(slot, state-set) visitation is
/// computed at most once, and no state-set vectors are allocated.
/// Access counting matches the sparse realization exactly (one per
/// children fetch, one per child label read).
fn reach_expr_dense(
    store: &Store,
    n: Oid,
    d: &DenseNfa,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    let mut stats = TraversalStats::default();
    if !filter(n) {
        return (Vec::new(), stats);
    }
    let start = d.start_mask();
    let mut results: Vec<Oid> = Vec::new();
    let Some(nslot) = store.slot_of(n) else {
        // Starting object absent from the store: the traversal still
        // visits it once (with no children), as the sparse realization
        // does.
        stats.states_visited = 1;
        let _ = store.children(n);
        if d.is_accepting(start) {
            results.push(n);
        }
        return (results, stats);
    };
    let mut result_slots: FastSet<u32> = FastSet::default();
    let mut seen: FastSet<(u32, u64)> = FastSet::default();
    let mut q: VecDeque<(u32, u64)> = VecDeque::new();
    seen.insert((nslot, start));
    q.push_back((nslot, start));
    while let Some((slot, mask)) = q.pop_front() {
        stats.states_visited += 1;
        if d.is_accepting(mask) && result_slots.insert(slot) {
            results.push(store.oid_at(slot).expect("queued slot is live"));
        }
        for &c in store.children_at(slot) {
            if !filter(c) {
                continue;
            }
            let Some(cslot) = store.slot_of(c) else { continue };
            let Some(cl) = store.label_at(cslot) else { continue };
            let next = d.step_mask(mask, cl);
            if next == 0 {
                continue;
            }
            if seen.insert((cslot, next)) {
                q.push_back((cslot, next));
            }
        }
    }
    results.sort_by_key(|o| o.name());
    (results, stats)
}

/// Sparse fallback (state sets as sorted `Vec<usize>`) — also the seed
/// layout E13 benchmarks against.
fn reach_expr_sparse(
    store: &Store,
    n: Oid,
    nfa: &Nfa,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    let mut stats = TraversalStats::default();
    let mut results: Vec<Oid> = Vec::new();
    let mut result_set: HashSet<Oid> = HashSet::new();
    let start = nfa.start();
    if !filter(n) {
        return (Vec::new(), stats);
    }
    let mut seen: HashSet<(Oid, Vec<usize>)> = HashSet::new();
    let mut q: VecDeque<(Oid, Vec<usize>)> = VecDeque::new();
    seen.insert((n, start.clone()));
    q.push_back((n, start));
    while let Some((o, states)) = q.pop_front() {
        stats.states_visited += 1;
        if nfa.any_accepting(&states) && result_set.insert(o) {
            results.push(o);
        }
        for &c in store.children(o) {
            if !filter(c) || !store.contains(c) {
                continue;
            }
            let Some(cl) = store.label(c) else { continue };
            let next = nfa.step(&states, cl);
            if next.is_empty() {
                continue;
            }
            let key = (c, next.clone());
            if seen.insert(key) {
                q.push_back((c, next));
            }
        }
    }
    results.sort_by_key(|o| o.name());
    (results, stats)
}

/// Run [`reach_expr`] with the sparse engine regardless of expression
/// size, so tests can check the dense engine against it.
#[cfg(test)]
fn reach_expr_seed_layout(
    store: &Store,
    n: Oid,
    e: &PathExpr,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    reach_expr_sparse(store, n, &e.nfa(), filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::samples;

    fn pe(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn path(s: &str) -> Path {
        Path::parse(s)
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["professor", "professor.age", "*", "?", "professor.*", "(a|b).x"] {
            assert_eq!(pe(s).to_string(), s);
        }
        assert!(PathExpr::parse("a..b").is_none());
        assert!(PathExpr::parse("()").is_none());
        // Alternations cannot contain dots; malformed parens are
        // rejected, not lexed as labels.
        assert!(PathExpr::parse("(a|b.c)").is_none());
        assert!(PathExpr::parse("(a").is_none());
        assert!(PathExpr::parse("a|b").is_none());
        assert_eq!(PathExpr::parse(""), Some(PathExpr::empty()));
    }

    #[test]
    fn constant_detection() {
        assert!(pe("professor.age").is_constant());
        assert!(!pe("professor.*").is_constant());
        assert_eq!(pe("a.b").as_path(), Some(path("a.b")));
        assert_eq!(pe("a.?").as_path(), None);
    }

    #[test]
    fn matches_constant() {
        assert!(pe("professor.age").matches(&path("professor.age")));
        assert!(!pe("professor.age").matches(&path("professor")));
        assert!(pe("").matches(&Path::empty()));
        assert!(!pe("").matches(&path("x")));
    }

    #[test]
    fn matches_wildcards() {
        // ? = exactly one label.
        assert!(pe("professor.?").matches(&path("professor.age")));
        assert!(!pe("professor.?").matches(&path("professor")));
        assert!(!pe("professor.?").matches(&path("professor.student.age")));
        // * = any sequence, including empty (paper: any path p is
        // contained in path expression *).
        assert!(pe("*").matches(&Path::empty()));
        assert!(pe("*").matches(&path("a.b.c")));
        assert!(pe("professor.*").matches(&path("professor")));
        assert!(pe("professor.*").matches(&path("professor.student.age")));
        assert!(!pe("professor.*").matches(&path("secretary.age")));
        // * in the middle.
        assert!(pe("a.*.z").matches(&path("a.z")));
        assert!(pe("a.*.z").matches(&path("a.m.n.z")));
        assert!(!pe("a.*.z").matches(&path("a.m.n")));
        // Alternation.
        assert!(pe("(professor|student).age").matches(&path("student.age")));
        assert!(!pe("(professor|student).age").matches(&path("secretary.age")));
    }

    #[test]
    fn containment_basic() {
        // Any path is contained in * (paper §6's example).
        assert!(PathExpr::contains(&pe("*"), &pe("professor.age")));
        assert!(PathExpr::contains(&pe("*"), &pe("a.*.b")));
        // Reflexive.
        assert!(PathExpr::contains(&pe("a.*.b"), &pe("a.*.b")));
        // Constant vs constant.
        assert!(PathExpr::contains(&pe("a.b"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("a.b"), &pe("a.c")));
        // ? ⊆ * but not vice versa.
        assert!(PathExpr::contains(&pe("*"), &pe("?")));
        assert!(!PathExpr::contains(&pe("?"), &pe("*")));
        // a.* contains a but not b.
        assert!(PathExpr::contains(&pe("a.*"), &pe("a")));
        assert!(!PathExpr::contains(&pe("a.*"), &pe("b")));
        // Alternation containment.
        assert!(PathExpr::contains(&pe("(a|b).x"), &pe("a.x")));
        assert!(!PathExpr::contains(&pe("(a|b).x"), &pe("c.x")));
        // Unmentioned labels are handled by the fresh-symbol trick:
        // ?.x ⊆ *.x, even for labels neither side names.
        assert!(PathExpr::contains(&pe("*.x"), &pe("?.x")));
        assert!(!PathExpr::contains(&pe("?.x"), &pe("*.x")));
    }

    #[test]
    fn containment_empty_pattern() {
        // ε ⊆ ε, and ε is contained in anything that accepts the
        // empty path — but contains nothing besides ε itself.
        let eps = PathExpr::empty();
        assert!(PathExpr::contains(&eps, &eps));
        assert!(PathExpr::contains(&pe("*"), &eps));
        assert!(PathExpr::contains(&pe("*.*"), &eps));
        assert!(!PathExpr::contains(&eps, &pe("a")));
        assert!(!PathExpr::contains(&eps, &pe("?")));
        assert!(!PathExpr::contains(&eps, &pe("*"))); // * also matches "a"
        assert!(!PathExpr::contains(&pe("a"), &eps));
        assert!(!PathExpr::contains(&pe("?"), &eps));
    }

    #[test]
    fn containment_is_reflexive() {
        for s in ["", "a", "?", "*", "a.b.c", "a.*.b", "?.*.?", "(a|b).*.(b|c)"] {
            let e = pe(s);
            assert!(PathExpr::contains(&e, &e), "{s} ⊆ {s} must hold");
        }
    }

    #[test]
    fn containment_wildcard_vs_literal() {
        // ? covers every single literal, named or not.
        assert!(PathExpr::contains(&pe("?"), &pe("a")));
        assert!(PathExpr::contains(&pe("?"), &pe("(a|b)")));
        assert!(!PathExpr::contains(&pe("a"), &pe("?")));
        assert!(!PathExpr::contains(&pe("(a|b)"), &pe("?")));
        // Fixed-arity chains: ?.? covers any two-label path, never a
        // one- or three-label one.
        assert!(PathExpr::contains(&pe("?.?"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("?.?"), &pe("a")));
        assert!(!PathExpr::contains(&pe("?.?"), &pe("a.b.c")));
        assert!(PathExpr::contains(&pe("*"), &pe("?.?")));
        // Mixed: a.? vs a.b vs ?.b — pairwise incomparable except
        // where the literal agrees.
        assert!(PathExpr::contains(&pe("a.?"), &pe("a.b")));
        assert!(PathExpr::contains(&pe("?.b"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("a.?"), &pe("?.b")));
        assert!(!PathExpr::contains(&pe("?.b"), &pe("a.?")));
        // A literal written as a singleton alternation is the same
        // language.
        assert!(PathExpr::contains(&pe("(a)"), &pe("a")));
        assert!(PathExpr::contains(&pe("a"), &pe("(a)")));
    }

    #[test]
    fn containment_cyclic_alphabets() {
        // `*` makes the NFA cyclic; exercise containment where both
        // sides loop over the same small alphabet {a, b}.
        // Strings over {a,b} starting with a ⊆ strings starting with
        // a or b.
        assert!(PathExpr::contains(&pe("(a|b).*"), &pe("a.*")));
        assert!(!PathExpr::contains(&pe("a.*"), &pe("(a|b).*")));
        // Ending constraints: *.a ⊆ *.(a|b), not vice versa.
        assert!(PathExpr::contains(&pe("*.(a|b)"), &pe("*.a")));
        assert!(!PathExpr::contains(&pe("*.a"), &pe("*.(a|b)")));
        // Starts-and-ends-with-a ⊆ contains-an-a (cycle on both sides
        // of the anchor).
        assert!(PathExpr::contains(&pe("*.a.*"), &pe("a.*.a")));
        assert!(!PathExpr::contains(&pe("a.*.a"), &pe("*.a.*")));
        // Starts-and-ends-with-a ⊆ starts-with-a.
        assert!(PathExpr::contains(&pe("a.*"), &pe("a.*.a")));
        assert!(!PathExpr::contains(&pe("a.*.a"), &pe("a.*")));
        // Two anchors vs one: *.a.*.b.* (an a somewhere before a b)
        // is strictly inside *.b.* (a b somewhere).
        assert!(PathExpr::contains(&pe("*.b.*"), &pe("*.a.*.b.*")));
        assert!(!PathExpr::contains(&pe("*.a.*.b.*"), &pe("*.b.*")));
        // Same language, syntactically different loops: *.* ≡ *.
        assert!(PathExpr::contains(&pe("*"), &pe("*.*")));
        assert!(PathExpr::contains(&pe("*.*"), &pe("*")));
        // The fresh-symbol trick must keep ?-loops honest even when
        // the candidate path uses labels neither side mentions:
        // ?.*.? (length ≥ 2) vs *.a.* — incomparable.
        assert!(!PathExpr::contains(&pe("?.*.?"), &pe("*.a.*"))); // "a" alone
        assert!(!PathExpr::contains(&pe("*.a.*"), &pe("?.*.?"))); // "x.y"
    }

    #[test]
    fn reach_expr_on_person_db() {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        let root = Oid::new("ROOT");
        let all = |_: Oid| true;
        // ROOT.professor = {P1, P2}.
        let (profs, _) = reach_expr(&s, root, &pe("professor"), &all);
        assert_eq!(profs, vec![Oid::new("P1"), Oid::new("P2")]);
        // ROOT.* includes every descendant and ROOT itself (ε instance).
        let (star, _) = reach_expr(&s, root, &pe("*"), &all);
        assert_eq!(star.len(), 15); // all 15 objects reachable from ROOT
        // ROOT.*.age: ages at any depth.
        let (ages, _) = reach_expr(&s, root, &pe("*.age"), &all);
        assert_eq!(
            ages,
            vec![Oid::new("A1"), Oid::new("A3"), Oid::new("A4")]
        );
        // ROOT.professor.?: all direct children of professors.
        let (kids, _) = reach_expr(&s, root, &pe("professor.?"), &all);
        assert_eq!(kids.len(), 6); // N1,A1,S1,P3,N2,ADD2
    }

    #[test]
    fn reach_expr_respects_filter() {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        let root = Oid::new("ROOT");
        // Exclude P1: nothing under it is reachable through it.
        let not_p1 = |o: Oid| o != Oid::new("P1");
        let (ages, _) = reach_expr(&s, root, &pe("*.age"), &not_p1);
        // A1 is only under P1; A3 is under P3 which is also a direct
        // child of ROOT, so it remains reachable; A4 under P4.
        assert_eq!(ages, vec![Oid::new("A3"), Oid::new("A4")]);
    }

    #[test]
    fn dense_engine_agrees_with_sparse() {
        let mut s = Store::counting();
        samples::person_db(&mut s).unwrap();
        let root = Oid::new("ROOT");
        let all = |_: Oid| true;
        for expr in [
            "", "professor", "professor.age", "*", "*.age", "professor.?",
            "?.?", "(professor|student).*", "*.name", "professor.*.age",
        ] {
            let e = pe(expr);
            assert!(e.nfa().dense().is_some(), "{expr} should compile dense");
            s.reset_accesses();
            let (dense, dstats) = reach_expr(&s, root, &e, &all);
            let dense_cost = s.accesses();
            s.reset_accesses();
            let (sparse, sstats) = reach_expr_seed_layout(&s, root, &e, &all);
            let sparse_cost = s.accesses();
            assert_eq!(dense, sparse, "results differ for {expr}");
            assert_eq!(dstats, sstats, "stats differ for {expr}");
            assert_eq!(dense_cost, sparse_cost, "base accesses differ for {expr}");
        }
    }

    #[test]
    fn dense_engine_accepts_matches_sparse_on_words() {
        for expr in ["", "a", "?", "*", "a.*.b", "(a|b).?", "*.a.*"] {
            let e = pe(expr);
            let nfa = e.nfa();
            let d = nfa.dense().unwrap();
            for word in ["", "a", "b", "z", "a.b", "a.z.b", "x.y.z", "a.a.a.b"] {
                let p = path(word);
                // dense accepts == sparse stepping by hand
                let mut cur = nfa.start();
                for &l in p.labels() {
                    cur = nfa.step(&cur, l);
                }
                let sparse_ok = nfa.any_accepting(&cur);
                let mut m = d.start_mask();
                for &l in p.labels() {
                    m = d.step_mask(m, l);
                }
                assert_eq!(
                    d.is_accepting(m),
                    sparse_ok,
                    "{expr} on {word}"
                );
            }
        }
    }

    #[test]
    fn reach_expr_handles_cycles() {
        let mut s = Store::new();
        s.create_all([
            gsdb::Object::empty_set("a", "x"),
            gsdb::Object::empty_set("b", "x"),
        ])
        .unwrap();
        s.insert_edge(Oid::new("a"), Oid::new("b")).unwrap();
        s.insert_edge(Oid::new("b"), Oid::new("a")).unwrap();
        let (r, stats) = reach_expr(&s, Oid::new("a"), &pe("*"), &|_| true);
        assert_eq!(r.len(), 2);
        assert!(stats.states_visited <= 4, "product BFS must terminate");
    }
}
