//! E18's professor/student store, and the benchmark's model of it.
//!
//! `ROOT` holds `n` professors `P{i}`; each has an age atom `A{i}` and
//! two students `S{i}_{j}`, each with an age atom `T{i}_{j}` — six
//! objects per professor. Initial ages follow E18's formulas, so the
//! store is the same for every seed; only the update stream is seeded.

use gsdb::{Object, Oid, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Objects per professor.
pub const OBJECTS_PER_PROFESSOR: usize = 6;
/// A professor is "young" (in the conditioned views) at or below this age.
pub const YOUNG_MAX: i64 = 45;

/// Interned OIDs and the current ages, as the benchmark expects them.
pub struct Professors {
    /// `P{i}`.
    pub prof: Vec<Oid>,
    /// `A{i}`.
    pub age: Vec<Oid>,
    /// `S{i}_{j}`.
    pub student: Vec<[Oid; 2]>,
    /// `T{i}_{j}`.
    pub student_age: Vec<[Oid; 2]>,
    /// Current value of `A{i}`.
    pub age_of: Vec<i64>,
    /// Current values of `T{i}_{j}`.
    pub student_age_of: Vec<[i64; 2]>,
}

impl Professors {
    /// Build `n` professors under `ROOT` in `s` (which must be empty)
    /// and return the model.
    pub fn build(s: &mut Store, n: usize) -> gsdb::Result<Professors> {
        s.create(Object::empty_set("ROOT", "db"))?;
        let root = Oid::new("ROOT");
        let mut m = Professors {
            prof: Vec::with_capacity(n),
            age: Vec::with_capacity(n),
            student: Vec::with_capacity(n),
            student_age: Vec::with_capacity(n),
            age_of: Vec::with_capacity(n),
            student_age_of: Vec::with_capacity(n),
        };
        for i in 0..n {
            let p = Oid::new(&format!("P{i}"));
            s.create(Object::empty_set(p, "professor"))?;
            s.insert_edge(root, p)?;
            let a = Oid::new(&format!("A{i}"));
            let age = ((i * 37) % 97) as i64;
            s.create(Object::atom(a, "age", age))?;
            s.insert_edge(p, a)?;
            let mut st = [root; 2];
            let mut ta = [root; 2];
            let mut tv = [0i64; 2];
            for j in 0..2 {
                st[j] = Oid::new(&format!("S{i}_{j}"));
                s.create(Object::empty_set(st[j], "student"))?;
                s.insert_edge(p, st[j])?;
                ta[j] = Oid::new(&format!("T{i}_{j}"));
                tv[j] = ((i * 7 + j * 31) % 89) as i64;
                s.create(Object::atom(ta[j], "age", tv[j]))?;
                s.insert_edge(st[j], ta[j])?;
            }
            m.prof.push(p);
            m.age.push(a);
            m.student.push(st);
            m.student_age.push(ta);
            m.age_of.push(age);
            m.student_age_of.push(tv);
        }
        Ok(m)
    }

    /// Number of professors.
    pub fn count(&self) -> usize {
        self.prof.len()
    }

    /// Whether professor `i` is young.
    pub fn young(&self, i: usize) -> bool {
        self.age_of[i] <= YOUNG_MAX
    }
}

/// A seeded update stream plus a digest of its first rounds, so a run
/// can show which stream it measured.
pub struct Stream {
    rng: StdRng,
    digest: u64,
    rounds: u64,
}

/// Rounds folded into [`Stream::digest`].
pub const DIGEST_ROUNDS: u64 = 100;

impl Stream {
    /// A stream for `seed`; `salt` keeps workloads' streams apart.
    pub fn new(seed: u64, salt: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            digest: 0xcbf2_9ce4_8422_2325,
            rounds: 0,
        }
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        let x = self.rng.gen_range(0..n);
        self.fold(x as u64);
        x
    }

    /// A uniform draw from `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        let x = self.rng.gen_range(lo..=hi);
        self.fold(x as u64);
        x
    }

    /// Mark the end of a round's draws.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// FNV-1a over every draw of the first [`DIGEST_ROUNDS`] rounds.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn fold(&mut self, x: u64) {
        if self.rounds < DIGEST_ROUNDS {
            for b in x.to_le_bytes() {
                self.digest = (self.digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// A new age on the other side of [`YOUNG_MAX`] from `old`.
pub fn flip_age(stream: &mut Stream, old: i64) -> i64 {
    if old <= YOUNG_MAX {
        stream.between(YOUNG_MAX + 1, 99)
    } else {
        stream.between(0, YOUNG_MAX)
    }
}
