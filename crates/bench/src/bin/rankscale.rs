//! Weak-scale the four applications' communication kernels to 10⁵
//! virtual ranks on the event-driven mpisim runtime and write
//! `BENCH_mpisim.json`.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin rankscale               # full ladder
//! cargo run --release -p pvs-bench --bin rankscale -- --smoke    # CI subset
//! ```
//!
//! Flags: `--smoke` (every app at P = 64 plus LBMHD at P = 65536,
//! written under `target/`), `--threads N` (event-loop worker threads,
//! default honours `PVS_THREADS`), `--out PATH`.
//!
//! The smoke set is a strict subset of the full ladder, so CI gates
//! with the fresh smoke document as the `compare` baseline against the
//! committed full `BENCH_mpisim.json`: every fresh cell must exist in
//! the committed document with bit-identical model metrics.
//!
//! Before any cell runs, the identity gate replays every kernel in both
//! forms (closure `run_scale_v1`, program `run_scale_v2`) at small P and
//! requires bit-identical values and traffic;
//! a divergence exits 1 without writing anything.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 the identity gate failed, 2 malformed usage, 6 the output cannot
//! be written. The output path is probed before the sweep runs and
//! written atomically — no partial documents.

use pvs_bench::cli::{self, exit};
use pvs_bench::rankscale::{run_rankscale, smoke_cells, weak_scaling_cells};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let known = ["--smoke", "--threads", "--out"];
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        match a.as_str() {
            "--threads" | "--out" => skip_value = true,
            other if known.contains(&other) => {}
            other => {
                eprintln!("error: unrecognized argument {other:?}");
                eprintln!("usage: rankscale [--smoke] [--threads N] [--out PATH]");
                std::process::exit(exit::USAGE);
            }
        }
    }

    let threads = match value_of("--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --threads needs a positive integer, got {v:?}");
                std::process::exit(exit::USAGE);
            }
        },
        None => pvs_core::pool::default_threads(),
    };

    let smoke = flag("--smoke");
    let cells = if smoke { smoke_cells() } else { weak_scaling_cells() };
    let out_path = value_of("--out").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_mpisim_smoke.json".to_string()
        } else {
            "BENCH_mpisim.json".to_string()
        }
    });

    // Fail fast on an unwritable destination — before the whole sweep.
    if let Err(e) = cli::probe_writable(&out_path) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(exit::WRITE);
    }

    let max_p = cells.iter().map(|c| c.procs).max().unwrap_or(0);
    println!(
        "{} cells up to P={} on the event-driven runtime ({} threads)",
        cells.len(),
        max_p,
        threads
    );

    let out = match run_rankscale(&cells, threads) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("IDENTITY FAILURE: {e}");
            std::process::exit(exit::FAILURE);
        }
    };

    for c in &out.cells {
        println!(
            "{:<8} P={:<7} events={:<10} comm={:<9} checksum={:<17} host {:.3}s",
            c.cell.app,
            c.cell.procs,
            c.report.time_s,
            c.report.comm_s,
            c.report.gflops_per_p,
            c.host_secs.first().copied().unwrap_or(0.0)
        );
    }

    match cli::write_atomic(&out_path, &(out.to_json() + "\n")) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(exit::WRITE);
        }
    }
    println!("ok: v1/v2 identity gate held at P in {:?}", pvs_bench::rankscale::IDENTITY_P);
}
