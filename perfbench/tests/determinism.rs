//! Determinism self-test: the benchmark's count metrics repeat exactly
//! at a fixed seed, and the seed picks the update stream but not its
//! size. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use gsview_perfbench::{harness, WORKLOADS};

/// Count metrics that must repeat exactly at a fixed seed.
const COUNTS: [&str; 9] = [
    "source_queries_per_update",
    "durable_bytes_per_update",
    "circuit.delta_weight_per_round",
    "core.changed_per_round",
    "serve.queryback_count",
    "warehouse.messages_per_update",
    "durable.segment_bytes_per_update",
    "durable.log_bytes_per_update",
    "gsdb.cross_shard_commits",
];

#[derive(Debug, PartialEq)]
struct Run {
    counts: Vec<(&'static str, f64)>,
    digest: String,
    updates_per_round: String,
    window: String,
}

fn run(spec: &harness::Spec, seed: u64) -> Run {
    // A short traced run: every phase still covers the full count window.
    let r = harness::run(spec, seed, 0.2, true).expect("set-up");
    assert!(r.correct, "{}: {:?}", spec.name, r.failures);
    assert_eq!(r.failed, 0, "{}", spec.name);
    let prov = |k: &str| {
        r.provenance
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("{} has no provenance {k}", spec.name))
    };
    Run {
        counts: COUNTS
            .iter()
            .map(|&name| {
                let m = r.metrics.iter().find(|m| m.name == name);
                (name, m.unwrap_or_else(|| panic!("no metric {name}")).value)
            })
            .collect(),
        digest: prov("stream_digest"),
        updates_per_round: prov("updates_per_round"),
        window: prov("count_window_rounds"),
    }
}

// One test, so the workloads never share the process's global metrics
// registry concurrently.
#[test]
fn counts_repeat_at_a_seed_and_the_seed_picks_the_stream() {
    for spec in WORKLOADS {
        let a = run(spec, 11);
        let b = run(spec, 11);
        assert_eq!(a, b, "{}: counts moved between runs at one seed", spec.name);
        let c = run(spec, 12);
        assert_ne!(
            a.digest, c.digest,
            "{}: the seed did not change the stream",
            spec.name
        );
        assert_eq!(a.updates_per_round, c.updates_per_round, "{}", spec.name);
        assert_eq!(a.window, c.window, "{}", spec.name);
    }
}
