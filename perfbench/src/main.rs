//! Command line: run one workload once and print its result.
//!
//! ```text
//! gsview-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--trace-out <file.tsv>] [--rev <source revision>]
//!                  [--nproc <n>] [--pinned-cpu <cpu>]
//! ```
//!
//! Prints one provenance line, then the result as the last line of
//! standard output: a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the per-layer ones, and the spans go to
//! `--trace-out`. `--nproc` and `--pinned-cpu` are provenance from a
//! launcher that pinned this process to one CPU (`run.py` does).

use gsview_perfbench::{harness, trace, workload, WORKLOADS};
use std::process::ExitCode;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    rev: String,
    nproc: Option<usize>,
    pinned_cpu: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        rev: "unknown".into(),
        nproc: None,
        pinned_cpu: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => a.trace_out = Some(val()?),
            "--rev" => a.rev = val()?,
            "--nproc" => a.nproc = Some(val()?.parse().map_err(|e| format!("--nproc: {e}"))?),
            "--pinned-cpu" => {
                a.pinned_cpu = Some(val()?.parse().map_err(|e| format!("--pinned-cpu: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "error: unknown workload {:?}; known: {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = match harness::run(spec, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: set-up of {} failed: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_tsv(std::path::Path::new(path), &report.spans) {
            eprintln!("error: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }

    let nproc = args
        .nproc
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(0, |n| n.get()));
    let pinned = args
        .pinned_cpu
        .map_or_else(|| "null".to_string(), |c| c.to_string());
    let mut prov = vec![
        format!("\"nproc\": {nproc}"),
        format!("\"pinned_cpu\": {pinned}"),
        format!("\"rev\": {}", json_str(&args.rev)),
    ];
    prov.extend(
        report
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))),
    );
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
