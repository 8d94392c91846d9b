//! The repository's benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live|ingest|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the protocol conditions, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Exits 1 when any output disagrees with
//! its reference, 2 on a usage error. See `perfbench/README.md`.

mod common;
mod ingest;
mod live;
mod sweep;

use common::{available_parallelism, Outcome, Settings};
use std::path::PathBuf;

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("obs_per_s", "1/s"),
    ("decision_p50_ns", "ns"),
    ("decision_p95_ns", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run and their units. A workload that
/// does not exercise a layer reports 0 for it: the layer did no work.
const PER_LAYER: [(&str, &str); 39] = [
    ("sim.self_ns_per_txn", "ns"),
    ("model.cell_ns_per_txn.low_load", "ns"),
    ("model.cell_ns_per_txn.high_load", "ns"),
    ("exec.cells", "count"),
    ("exec.cell_ms_p50", "ms"),
    ("exec.cell_ms_max", "ms"),
    ("exec.busy_share", "ratio"),
    ("bridge.calls", "count"),
    ("bridge.call_p99_ns", "ns"),
    ("bridge.call_max_ns", "ns"),
    ("bridge.self_ns_per_call", "ns"),
    ("supervisor.sync_ns_per_obs", "ns"),
    ("event.bytes_per_obs", "B"),
    ("event.write_ns_per_obs", "ns"),
    ("event.encode_ns_per_event", "ns"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_ms_mean", "ms"),
    ("checkpoint.save_ms_max", "ms"),
    ("expo.scrapes", "count"),
    ("expo.render_us_mean", "us"),
    ("expo.body_bytes", "B"),
    ("queue.send_ns_per_obs", "ns"),
    ("queue.producer_waits", "count"),
    ("queue.roundtrip_ns_per_obs", "ns"),
    ("pool.parks", "count"),
    ("pool.steals", "count"),
    ("pool.drains", "count"),
    ("drain.ns_per_obs", "ns"),
    ("drain.busy_share", "ratio"),
    ("drain.residual_ns_per_obs", "ns"),
    ("detector.sraa.batch_ns_per_obs", "ns"),
    ("detector.saraa.batch_ns_per_obs", "ns"),
    ("detector.clta.batch_ns_per_obs", "ns"),
    ("detector.cusum.batch_ns_per_obs", "ns"),
    ("detector.sraa.scalar_ns_per_obs", "ns"),
    ("detector.sweep_ns_per_obs", "ns"),
    ("histogram.ns_per_obs", "ns"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "live" | "ingest" | "sweep") {
        return Err("--workload must be live, ingest or sweep".to_owned());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        work_dir,
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("live", false) => live::untraced(&settings),
        ("live", true) => live::traced(&settings),
        ("ingest", false) => ingest::untraced(&settings),
        ("ingest", true) => ingest::traced(&settings),
        ("sweep", false) => sweep::untraced(&settings),
        _ => sweep::traced(&settings),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    match report(&args, &outcome) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed > 0 {
                eprintln!(
                    "perfbench: {} of {} operations disagree with the reference",
                    outcome.failed, outcome.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the protocol conditions and returns the result line. Every
/// declared metric must be present (per-layer ones default to 0), with
/// its declared unit, and nothing undeclared may slip in.
fn report(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &outcome.metrics {
        match declared.iter().find(|(name, _)| *name == m.name) {
            None => return Err(format!("undeclared metric {}", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!("metric {} in {}, declared {unit}", m.name, m.unit))
            }
            Some(_) if !m.value.is_finite() => {
                return Err(format!("metric {} is not finite: {}", m.name, m.value))
            }
            Some(_) => {}
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value = match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }

    let mut conditions = vec![
        format!("\"workload\": {}", json_string(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"traced\": {}", args.trace),
        format!("\"available_parallelism\": {}", available_parallelism()),
        format!("\"threads\": {}", outcome.threads),
        format!(
            "\"oversubscribed\": {}",
            outcome.threads > available_parallelism()
        ),
        // Includes the reference checks and probes, unlike peak_rss_mb.
        format!(
            "\"process_peak_rss_mib\": {:.1}",
            common::peak_rss_mib().unwrap_or(0.0)
        ),
    ];
    for (key, value) in &outcome.conditions {
        conditions.push(format!("{}: {}", json_string(key), json_string(value)));
    }
    println!("{{\"conditions\": {{{}}}}}", conditions.join(", "));
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}
