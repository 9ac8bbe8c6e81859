//! Persist-before-ack on in-memory media, with bounded memory.
//!
//! Every round persists the source's published epoch with
//! `Source::persist_now` before the write counts as acknowledged. The
//! media are in memory (`MemMedia`, as in `MediaSet::memory()`), so
//! they grow with every persist; every [`ROTATE_EVERY`] persists the
//! benchmark checkpoints onto fresh media (an untimed baseline persist,
//! like a log truncation) so a long run's memory stays bounded. Each
//! media's buffer is reserved up front, like a preallocated file, so it
//! never grows by reallocation: whether a rotation's last persists
//! crossed a doubling would otherwise move the peak resident memory by
//! megabytes from one seed to the next. Byte counts are read off the
//! media lengths and summed across rotations.

use crate::harness::Counters;
use crate::trace;
use gsview_durable::{DurableStore, MediaSet, MemMedia};
use gsview_warehouse::Source;
use std::sync::Arc;

/// Persists between media rotations.
pub const ROTATE_EVERY: u64 = 2_000;
/// Bytes reserved for each rotation's segment media: the largest
/// store's baseline plus [`ROTATE_EVERY`] persists fit with room to
/// spare. Untouched reserved pages are not resident.
const SEGMENT_RESERVE: usize = 128 << 20;
/// Bytes reserved for each rotation's epoch-log media.
const LOG_RESERVE: usize = 64 << 20;

/// How the workloads that persist keep their media, for provenance.
pub fn media_provenance() -> String {
    format!(
        "in-memory media (MemMedia, buffers reserved up front); every commit persisted \
         before the ack; fresh media every {ROTATE_EVERY} persists"
    )
}

fn reserved(bytes: usize) -> Arc<MemMedia> {
    Arc::new(MemMedia::from_bytes(Vec::with_capacity(bytes)))
}

/// The durable side of a source: current media, store and byte ledger.
pub struct Durability {
    media: Media,
    /// Bytes written to retired media after their baselines.
    retired: (u64, u64),
    since_rotation: u64,
    chunks_reused: u64,
    chunks_appended: u64,
}

/// Fresh media with `src`'s current epoch persisted as the baseline.
struct Media {
    set: MediaSet,
    store: Arc<DurableStore>,
    /// (segment, log) lengths right after the baseline persist.
    base: (u64, u64),
}

impl Media {
    fn baseline(src: &Source) -> Result<Media, String> {
        let set = MediaSet {
            segment: reserved(SEGMENT_RESERVE),
            log: reserved(LOG_RESERVE),
            root: Arc::new(MemMedia::new()),
        };
        let store = Arc::new(DurableStore::open(set.clone()).map_err(|e| e.to_string())?);
        src.persist_now(&store).map_err(|e| e.to_string())?;
        let base = (set.segment.len(), set.log.len());
        Ok(Media { set, store, base })
    }

    /// (segment, log) bytes written since the baseline.
    fn written(&self) -> (u64, u64) {
        (
            self.set.segment.len() - self.base.0,
            self.set.log.len() - self.base.1,
        )
    }
}

impl Durability {
    /// Open fresh in-memory media and persist `src`'s current epoch as
    /// the baseline.
    pub fn attach(src: &Source) -> Result<Durability, String> {
        Ok(Durability {
            media: Media::baseline(src)?,
            retired: (0, 0),
            since_rotation: 0,
            chunks_reused: 0,
            chunks_appended: 0,
        })
    }

    /// Persist the current epoch (the acknowledgement point), inside a
    /// `durable.persist` span.
    pub fn persist(&mut self, src: &Source) -> Result<(), String> {
        let receipt = trace::span("durable.persist", || src.persist_now(&self.media.store))
            .map_err(|e| format!("persist: {e}"))?;
        self.chunks_reused += receipt.chunks_reused;
        self.chunks_appended += receipt.chunks_appended;
        self.since_rotation += 1;
        Ok(())
    }

    /// Untimed: move onto fresh media once the current ones have taken
    /// [`ROTATE_EVERY`] persists.
    pub fn maybe_rotate(&mut self, src: &Source) -> Result<(), String> {
        if self.since_rotation < ROTATE_EVERY {
            return Ok(());
        }
        self.retired = self.written();
        self.media = Media::baseline(src)?;
        self.since_rotation = 0;
        Ok(())
    }

    /// (segment, log) bytes written by round persists so far.
    fn written(&self) -> (u64, u64) {
        let (seg, log) = self.media.written();
        (self.retired.0 + seg, self.retired.1 + log)
    }

    /// Add the durable counters to `c`.
    pub fn counters(&self, c: &mut Counters) {
        let (seg, log) = self.written();
        c.insert("segment_bytes", seg as f64);
        c.insert("log_bytes", log as f64);
        c.insert("chunks_reused", self.chunks_reused as f64);
        c.insert("chunks_appended", self.chunks_appended as f64);
    }

    /// Reopen the current media from their bytes alone and check that
    /// recovery rebuilds `src`'s final acknowledged snapshot exactly.
    pub fn check_recovers(&self, src: &Source) -> Option<String> {
        let name = src.name().to_owned();
        let reopened = match DurableStore::open(self.media.set.clone()) {
            Ok(d) => d,
            Err(e) => return Some(format!("reopen durable media: {e}")),
        };
        let rec = match reopened.recover(&name) {
            Ok(Some(rec)) => rec,
            Ok(None) => return Some("recovery found no durable epoch".into()),
            Err(e) => return Some(format!("recovery failed: {e}")),
        };
        let snap = src.snapshot();
        if rec.manifest.epoch != src.epoch() {
            return Some(format!(
                "recovered epoch {} but the last acknowledged epoch is {}",
                rec.manifest.epoch,
                src.epoch()
            ));
        }
        if rec.store.len() != snap.len() {
            return Some(format!(
                "recovered {} objects, acknowledged snapshot has {}",
                rec.store.len(),
                snap.len()
            ));
        }
        snap.oids_sorted()
            .into_iter()
            .find(|&o| rec.store.get(o) != snap.get(o))
            .map(|o| format!("recovered object {o} differs from the acknowledged snapshot"))
    }
}
