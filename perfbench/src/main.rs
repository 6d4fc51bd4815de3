//! One benchmark for the serve and rank-simulation paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-hot|serve-cold|rankscale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! is a JSON object carrying every end-to-end metric; with `--trace 1`
//! it carries every per-layer metric, and the span trace is written to
//! `.bench_out/`. The outputs are checked on every run; a mismatch
//! prints `"correct": false` and exits 1. See `perfbench/README.md`.

mod catalog;
mod client;
mod keys;
mod rank;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;

use pvs_obs::span::TraceBuffer;
use pvs_report::json::{escape, number};

use catalog::{Values, END_TO_END};
use stats::{failed_ratio, LayerTime};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: pvs-perfbench --workload <serve-hot|serve-cold|rankscale> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?.to_string();
    if !["serve-hot", "serve-cold", "rankscale"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run produced.
pub struct Outcome {
    /// The first failed output check; `None` when every check passed.
    pub problem: Option<String>,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations that failed (non-ok answer, I/O error, timeout).
    pub failed: u64,
    /// Measured metric values by name.
    pub values: Values,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write the trace as JSONL under `.bench_out/` and render the per-layer
/// self-time table.
pub fn trace_report(
    buf: &TraceBuffer,
    layers: &BTreeMap<String, LayerTime>,
    workload: &str,
    seed: u64,
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let path = format!(".bench_out/trace-{workload}-{seed}.jsonl");
    std::fs::write(&path, buf.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    let mut notes = vec![
        format!("wrote {} spans to {path}", buf.events().len()),
        format!(
            "{:<34} {:>7} {:>12} {:>12} {:>10}",
            "layer", "spans", "total_ms", "self_ms", "self_us/op"
        ),
    ];
    for (layer, t) in layers {
        notes.push(format!(
            "{:<34} {:>7} {:>12.3} {:>12.3} {:>10.2}",
            layer,
            t.spans,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6,
            t.self_time as f64 / t.spans.max(1) as f64 / 1e3
        ));
    }
    Ok(notes)
}

fn result_line(outcome: &Outcome, metrics: &[(String, &str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(name),
                number(value),
                escape(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        outcome.problem.is_none(),
        outcome.attempted,
        outcome.failed
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A panic inside a simulation (the store catches it and answers
    // `internal`; the `serve-cold` partition probe catches and counts
    // it) is reported on one line: the default hook's backtrace capture
    // would cost memory and time that depend on whether a panic
    // happened to occur.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let outcome = match args.workload.as_str() {
        "serve-hot" => serve::run(serve::Kind::Hot, &args),
        "serve-cold" => serve::run(serve::Kind::Cold, &args),
        _ => rank::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics: Vec<(String, &str)> = if args.trace {
        catalog::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "workload {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    match failed_ratio(outcome.failed, outcome.attempted) {
        Some(r) => println!(
            "failed_ratio = {r} ({} of {} attempted)",
            outcome.failed, outcome.attempted
        ),
        None => println!("failed_ratio = n/a (nothing attempted)"),
    }
    for (name, unit) in &metrics {
        println!(
            "{name} = {} {unit}",
            outcome.values.get(name).copied().unwrap_or(0.0)
        );
    }
    if let Some(problem) = &outcome.problem {
        println!("output check FAILED: {problem}");
    } else {
        println!("output check ok");
    }
    println!("{}", result_line(&outcome, &metrics));
    if outcome.problem.is_some() || outcome.attempted == 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_accepts_the_documented_form_and_rejects_the_rest() {
        let a = parse_args(&argv(
            "--workload rankscale --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("rankscale", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload rankscale --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload rankscale --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload rankscale --seed -1 --seconds 10 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn result_line_reports_every_listed_metric() {
        let mut values = Values::new();
        values.insert("setup_s".into(), 0.125);
        let outcome = Outcome {
            problem: None,
            attempted: 3,
            failed: 1,
            values,
            notes: vec![],
        };
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let line = result_line(&outcome, &metrics);
        let doc = pvs_analyze::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.num("attempted"), Some(3.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").and_then(|v| v.num("value")), Some(0.125));
        for (name, unit) in END_TO_END {
            assert_eq!(m.get(name).and_then(|v| v.str("unit")), Some(unit));
        }
    }
}
