//! The gsview benchmark: three closed-loop workloads with end-to-end
//! metrics from an untraced run and per-layer attribution from a traced
//! one. See `README.md` next to this package for what each metric
//! should move, and `run.py` for the one command that builds and runs it.

pub mod colocated;
pub mod durability;
pub mod harness;
pub mod probe;
pub mod remote;
pub mod shape;
pub mod stats;
pub mod trace;
pub mod warehouse_tcp;
pub mod write_read;

use harness::Spec;

/// Every workload, in the order the benchmark lists them.
pub const WORKLOADS: [&Spec; 3] = [&colocated::SPEC, &warehouse_tcp::SPEC, &write_read::SPEC];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.into_iter().find(|s| s.name == name)
}
