//! `write-read`: heavy writes beside remote reads, with no views.
//!
//! About 120k objects in 8 shards. Each step commits one single-object
//! `Source::apply`, acknowledges it with `Source::persist_now`, then
//! issues 4 remote reads through `FrameClient::query`: a fetch of the
//! object just written (read-your-write: the freshness probe) and three
//! reads from E19's Fetch/LabelOf/PathFromRoot/Ancestor mix. Every
//! reply is compared with `gsview_warehouse::answer` on the same epoch.

use crate::durability::{self, Durability};
use crate::harness::{ns_between, Counters, Primary, Samples, Spec, Workload};
use crate::remote::{serve, Served};
use crate::shape::Stream;
use crate::trace;
use gsdb::{Object, Oid, Path, Store, StoreConfig, Update};
use gsview_warehouse::protocol::{ReportLevel, SourceQuery, SourceReply};
use gsview_warehouse::{answer, QueryPort, Source};
use std::time::Instant;

/// Items at the source; each is a set with one age atom.
pub const ITEMS: usize = 60_000;
/// Slab shards of the source store.
pub const SHARDS: usize = 8;
/// Remote reads per step.
pub const READS: usize = 4;
const SOURCE: &str = "wr-src";

/// The workload's plan.
pub const SPEC: Spec = Spec {
    name: "write-read",
    why: "Durable single-object writes beside remote point reads with no views: it shows a \
          write-side gain that costs reads or the reverse, and persist's store-size term.",
    warmup: 500,
    window: 4_000,
    primary: Primary::Commit,
    setup,
};

struct WriteRead {
    src: Source,
    durable: Durability,
    served: Served,
    item: Vec<Oid>,
    age: Vec<Oid>,
    stream: Stream,
    step: u64,
}

fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut store = Store::with_config(StoreConfig {
        parent_index: true,
        label_index: true,
        log_updates: false,
        ..StoreConfig::default().with_shards(SHARDS)
    });
    let root = Oid::new("ROOT");
    let mut item = Vec::with_capacity(ITEMS);
    let mut age = Vec::with_capacity(ITEMS);
    let mut build = |s: &mut Store| -> gsdb::Result<()> {
        s.create(Object::empty_set(root, "db"))?;
        for i in 0..ITEMS {
            let it = Oid::new(&format!("it{i}"));
            let ag = Oid::new(&format!("ag{i}"));
            s.create(Object::empty_set(it, "item"))?;
            s.insert_edge(root, it)?;
            s.create(Object::atom(ag, "age", (i % 100) as i64))?;
            s.insert_edge(it, ag)?;
            item.push(it);
            age.push(ag);
        }
        Ok(())
    };
    build(&mut store).map_err(|e| e.to_string())?;
    let src = Source::new(SOURCE, root, store, ReportLevel::OidsOnly);
    let durable = Durability::attach(&src)?;
    let served = serve(&src)?;
    Ok(Box::new(WriteRead {
        src,
        durable,
        served,
        item,
        age,
        stream: Stream::new(seed, 3),
        step: 0,
    }))
}

impl WriteRead {
    /// The step's write and its reads: first a fetch of the written
    /// atom, then three from the E19 mix, rotating through its kinds.
    fn next_step(&mut self) -> (Update, [SourceQuery; READS]) {
        let k = self.stream.below(ITEMS);
        let v = self.stream.between(0, 99);
        let mut mix = |slot: u64| {
            let i = self.stream.below(ITEMS);
            match (self.step * 3 + slot) % 4 {
                0 => SourceQuery::Fetch(self.item[i]),
                1 => SourceQuery::LabelOf(self.item[i]),
                2 => SourceQuery::PathFromRoot {
                    root: Oid::new("ROOT"),
                    n: self.age[i],
                },
                _ => SourceQuery::Ancestor {
                    n: self.age[i],
                    p: Path::parse("item.age"),
                },
            }
        };
        let reads = [SourceQuery::Fetch(self.age[k]), mix(0), mix(1), mix(2)];
        self.stream.end_round();
        self.step += 1;
        (Update::modify(self.age[k], v), reads)
    }
}

impl Workload for WriteRead {
    fn updates_per_round(&self) -> u64 {
        1
    }

    fn round(&mut self, id: u64, s: &mut Samples) -> Result<(), String> {
        let (up, queries) = self.next_step();
        let client = &self.served.client;
        let t0 = Instant::now();
        let mut lat = [0u64; READS];
        let (t_ack, t_fresh, t_end, replies) = trace::round(id, || {
            trace::span("gsdb.commit", || self.src.apply(up))
                .map_err(|e| format!("commit: {e}"))?;
            self.durable.persist(&self.src)?;
            let t_ack = Instant::now();
            let mut replies: Vec<SourceReply> = Vec::with_capacity(READS);
            let mut t_fresh = t_ack;
            let mut last = t_ack;
            for (n, q) in queries.iter().enumerate() {
                let r = trace::span("serve.query", || client.query(q))
                    .map_err(|e| format!("read {q:?}: {e}"))?;
                let now = Instant::now();
                lat[n] = ns_between(last, now);
                if n == 0 {
                    t_fresh = now;
                }
                last = now;
                replies.push(r);
            }
            Ok::<_, String>((t_ack, t_fresh, last, replies))
        })?;
        // Untimed: every reply must equal the colocated answer at the
        // epoch it was read at (this thread is the only writer).
        let snap = self.src.snapshot();
        for (q, r) in queries.iter().zip(&replies) {
            if *r != answer(&snap, q) {
                return Err(format!(
                    "remote reply to {q:?} differs from the colocated answer"
                ));
            }
        }
        s.push_round(t0, t_ack, t_fresh, t_end);
        s.read.extend_from_slice(&lat);
        Ok(())
    }

    fn between_rounds(&mut self, _id: u64) -> Result<(), String> {
        self.durable.maybe_rotate(&self.src)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::from([(
            "cross_shard",
            gsview_obs::registry()
                .counter("store.commit.cross_shard")
                .get() as f64,
        )]);
        self.durable.counters(&mut c);
        c
    }

    fn check(&mut self) -> Vec<String> {
        self.durable.check_recovers(&self.src).into_iter().collect()
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            ("store_objects", (1 + 2 * ITEMS).to_string()),
            ("shards", SHARDS.to_string()),
            ("report_level", "none: no views, no monitor".into()),
            ("media", durability::media_provenance()),
            ("views", "none".into()),
            ("reads_per_step", READS.to_string()),
            ("stream_digest", format!("{:016x}", self.stream.digest())),
        ]
    }
}
