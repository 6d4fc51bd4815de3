//! Regenerate EXPERIMENTS.md: every table and figure of the paper, model
//! vs published values, with the shape checks and fidelity summaries.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin experiments > EXPERIMENTS.md
//! cargo run --release -p pvs-bench --bin experiments -- --out EXPERIMENTS.md
//! ```
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 a live-regenerated section failed to build, 2 malformed usage,
//! 6 `--out` cannot be written (probed before any work; written
//! atomically, so a failed run never truncates the existing document).

use pvs_bench::cli::{self, exit};
use pvs_report::compare::geometric_mean_ratio;

fn section(title: &str, out: &pvs_bench::TableOutput) -> String {
    let mut s = format!("## {title}\n\n```text\n{}```\n\n", out.table.render());
    s.push_str("Paper-vs-model ratios (model / paper, Gflops per processor):\n\n```text\n");
    for c in &out.comparisons {
        s.push_str(&c.line());
        s.push('\n');
    }
    s.push_str(&format!(
        "```\n\nGeometric-mean ratio over {} published cells: **{:.2}x**\n\nShape checks:\n\n",
        out.comparisons.len(),
        geometric_mean_ratio(&out.comparisons)
    ));
    for c in &out.checks {
        s.push_str(&format!(
            "- **{}** {} — {}\n",
            if c.holds { "PASS" } else { "FAIL" },
            c.claim,
            c.detail
        ));
    }
    s.push('\n');
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    out_path = Some(p.clone());
                    i += 2;
                }
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(exit::USAGE);
                }
            },
            other => {
                eprintln!("error: unrecognized argument {other:?}");
                eprintln!("usage: experiments [--out PATH]");
                std::process::exit(exit::USAGE);
            }
        }
    }
    if let Some(p) = &out_path {
        if let Err(e) = cli::probe_writable(p) {
            eprintln!("error: cannot write {p}: {e}");
            std::process::exit(exit::WRITE);
        }
    }

    let mut doc = String::from(
        "# EXPERIMENTS — paper vs model, every table and figure\n\n\
         Regenerated by `cargo run --release -p pvs-bench --bin experiments`.\n\n\
         The reproduction criterion is *shape*: who wins, by roughly what factor,\n\
         and where scaling breaks — not absolute numbers (the machines are\n\
         simulated; see DESIGN.md for the substitution inventory). Each section\n\
         shows the model value next to the published value for every cell the\n\
         paper reports, the geometric-mean model/paper ratio, and the\n\
         qualitative checks encoding the paper's findings.\n\n\
         ## Table 1 — architectural highlights (static data)\n\n```text\n",
    );
    doc.push_str(&pvs_bench::table1_text());
    doc.push_str("```\n\n## Table 2 — application overview (static data)\n\n```text\n");
    doc.push_str(&pvs_bench::table2_text());
    doc.push_str("```\n\n");

    doc.push_str(&section("Table 3 — LBMHD", &pvs_bench::table3_model()));
    doc.push_str(&section("Table 4 — PARATEC", &pvs_bench::table4_model()));
    doc.push_str(&section("Table 5 — Cactus", &pvs_bench::table5_model()));
    doc.push_str(&section("Table 6 — GTC", &pvs_bench::table6_model()));
    doc.push_str(&section(
        "Table 7 — ES speedup summary",
        &pvs_bench::table7_model(),
    ));
    doc.push_str(&section(
        "Figure 9 — sustained fraction of peak at P=64",
        &pvs_bench::fig9_model(),
    ));

    // Headline aggregate numbers the paper calls out in its prose.
    {
        use pvs_cactus::perf::{CactusVariant, CactusWorkload};
        use pvs_core::engine::Engine;
        use pvs_core::platforms;
        use pvs_gtc::perf::{GtcVariant, GtcWorkload};
        use pvs_lbmhd::perf::LbmhdWorkload;
        use pvs_paratec::perf::ParatecWorkload;
        let es = platforms::earth_simulator;
        let agg = |g: f64, p: f64| g * p / 1000.0;
        let lbmhd = agg(
            Engine::new(es())
                .run(&LbmhdWorkload::new(8192, 1024).phases(), 1024)
                .gflops_per_p,
            1024.0,
        );
        let cactus = agg(
            Engine::new(es())
                .run(
                    &CactusWorkload::large(1024).phases(CactusVariant::EarthSimulator),
                    1024,
                )
                .gflops_per_p,
            1024.0,
        );
        let paratec = agg(
            Engine::new(es())
                .run(&ParatecWorkload::si686(1024).phases(), 1024)
                .gflops_per_p,
            1024.0,
        );
        let es64 = 64.0
            * Engine::new(es())
                .run(&GtcWorkload::new(100, 64).phases(GtcVariant::for_machine("ES")), 64)
                .gflops_per_p;
        let hybrid = GtcWorkload { procs: 1024, mpi_domains: 64, ..GtcWorkload::new(100, 1024) };
        let p3_1024 = 1024.0
            * Engine::new(platforms::power3())
                .run(&hybrid.phases(GtcVariant::hybrid(16)), 1024)
                .gflops_per_p;
        doc.push_str(&format!(
            "## Headline aggregates (paper prose vs model)\n\n\
             | Claim | Paper | Model |\n|---|---|---|\n\
             | LBMHD on 1024 ES processors | 3.3 Tflop/s | {lbmhd:.1} Tflop/s |\n\
             | Cactus on 1024 ES processors | 2.7 Tflop/s | {cactus:.1} Tflop/s |\n\
             | PARATEC (686 atoms) on 1024 ES processors | 2.6 Tflop/s | {paratec:.1} Tflop/s |\n\
             | GTC: 64 vector CPUs vs 1024 Power3 CPUs | \"up to 20% faster\" | ES {:.0} vs Power3 {:.0} Gflop/s ({:+.0}%) |\n\n",
            es64,
            p3_1024,
            100.0 * (es64 / p3_1024 - 1.0)
        ));
    }

    // The AMR future-work sweep (extension).
    {
        use pvs_amr::perf::{sweep_tile_sizes, AmrWorkload};
        use pvs_core::engine::Engine;
        use pvs_core::platforms;
        doc.push_str(
            "## Extension — the AMR vector-performance question (paper §7 future work)\n\n\
             Gflops/P for the same stencil work at shrinking AMR tile sizes\n\
             (`cargo run -p pvs-bench --bin amr_sweep`):\n\n\
             | tile | Power3 | Power4 | Altix | ES | X1 |\n|---|---|---|---|---|---|\n",
        );
        for tile in sweep_tile_sizes() {
            let w = AmrWorkload::new(1 << 20, tile);
            let row: Vec<String> = platforms::all()
                .into_iter()
                .map(|m| format!("{:.2}", Engine::new(m).run(&w.phases(), 1).gflops_per_p))
                .collect();
            doc.push_str(&format!(
                "| {tile} | {} | {} | {} | {} | {} |\n",
                row[0], row[1], row[2], row[3], row[4]
            ));
        }
        doc.push_str(
            "\nVector machines need tiles comparable to their vector length; the\n\
             superscalar machines barely notice — AMR's small-block irregularity is\n\
             the \"additional dimension of architectural balance\" the paper warns\n\
             about, quantified.\n\n",
        );
    }

    doc.push_str(
        "## Profiling a run (observability)\n\n\
         Attach a `pvs_obs::Registry` to any engine to get simulated counters\n\
         (`engine.loop.flops`, `memsim.bank.stall_cycles`, `netsim.link.bytes`, ...)\n\
         and a span tree (one `run` root, one child per phase, ticks in simulated\n\
         picoseconds) without changing the results — observed and unobserved runs\n\
         are bitwise identical. The profile binary runs the full 4-app x 5-machine\n\
         sweep under instrumentation and writes `BENCH_sweep.json`\n\
         (schema `pvs-bench/profile-v2`, pretty-printed):\n\n\
         ```bash\n\
         cargo run --release -p pvs-bench --bin profile                    # -> BENCH_sweep.json\n\
         cargo run --release -p pvs-bench --bin profile -- --smoke         # 6-cell CI subset\n\
         cargo run --release -p pvs-bench --bin profile -- --smoke --analyze  # + attribution below\n\
         cargo run --release -p pvs-bench --bin profile -- --trace target/traces  # Chrome traces\n\
         cargo run --release -p pvs-bench --bin profile -- --overhead      # instrumentation cost A/B\n\
         ```\n\n\
         `--overhead` interleaves bare/instrumented runs (fresh registry per run,\n\
         min over rounds) and typically lands within a few percent. `--trace`\n\
         writes one `<app>_<machine>_P<procs>.trace.json` per cell in Chrome\n\
         trace-event format (load in `chrome://tracing` or Perfetto; `ts`/`dur`\n\
         are simulated picoseconds, never host time).\n\n",
    );

    // The attribution walkthrough: run the smoke sweep live and let the
    // analysis layer classify it, so the table below can never drift
    // from what `profile --smoke --analyze` actually prints.
    {
        use pvs_analyze::{findings, profiledoc};
        use pvs_bench::profile::{run_profile, smoke_cells, ProfileOptions};
        let out = run_profile(
            smoke_cells(),
            ProfileOptions {
                host_samples: 1,
                ..ProfileOptions::default()
            },
        );
        let sweep = match profiledoc::load(&out.to_json()) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: smoke sweep document does not load: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        let table = findings::findings_table(&findings::analyze_doc(&sweep)).render();
        doc.push_str(&format!(
            "## Attribution walkthrough (pvs-analyze)\n\n\
             `--analyze` hands the recorded counters to `pvs-analyze`, which\n\
             classifies each cell's dominant bottleneck. The smoke subset covers\n\
             every class the layer distinguishes (this table is regenerated live\n\
             by the `experiments` binary):\n\n\
             ```text\n{table}```\n\n\
             The signal columns, all derived from counters in the profile\n\
             document — no host timing anywhere:\n\n\
             - **Comm** — communication fraction of modelled runtime\n\
               (`model.comm_s / model.time_s`).\n\
             - **Glob** — globality: analytic bisection crossing volume over\n\
               wire payload (`netsim.bisection_bytes / netsim.payload_bytes`).\n\
               Nearest-neighbour halos send only straddling-pair traffic\n\
               (<= 0.08 here); PARATEC's all-to-all transposes push ~1/4 of the\n\
               total volume through any cut and measure 1.33.\n\
             - **F/B** — arithmetic intensity (`engine.loop.flops /\n\
               engine.loop.bytes`), compared against the machine's balance\n\
               point (peak flops / peak bandwidth).\n\
             - **MemBW** — fraction of peak memory bandwidth the loop phases\n\
               sustain.\n\
             - **Scalar** — share of runtime the Amdahl decomposition assigns\n\
               to the scalar unit: the unvectorized remainder (1 - VOR) of\n\
               loop work, serialized at the platform penalty (8:1 on the ES,\n\
               32:1 per-SSP on the X1 in MSP mode, scaled by the measured\n\
               scalar-issue efficiency).\n\n\
             Why each paper finding falls out of the rules, applied in order\n\
             (scalar >20%; else bisection when glob >0.25 and comm >5%; else\n\
             membw >=50%; else compute):\n\n\
             - **LBMHD on Power3 is memory-bandwidth-bound**: 0.19 flops/byte\n\
               against a balance point of 2.14 leaves the prefetch engines\n\
               saturated at 75% of bandwidth — the paper's §4.1 starvation\n\
               story, with fully vectorized loops (Scalar = 0%).\n\
             - **PARATEC on the X1 is bisection-bound**: the only cell where\n\
               global traffic (Glob 1.33) coincides with a significant comm\n\
               share (7% on the 2D torus vs <= 4% for the same app on fatter\n\
               networks) — the §4.2 FFT-transpose pressure.\n\
             - **CACTUS on the X1 and GTC on the ES are\n\
               scalar-serialization-bound**: Cactus's 99.1% VOR still leaves\n\
               22% of runtime on the scalar unit at the X1's 32:1 penalty, and\n\
               GTC's 91.2% VOR costs 43% at the ES's 8:1 — the paper's §4.3/§4.4\n\
               \"a few percent unvectorized is fatal\" arithmetic, checked\n\
               against the closed-form Amdahl bound per cell.\n\n\
             The per-cell Amdahl decomposition, self-time rollups per span, and\n\
             the same table are printed by:\n\n\
             ```bash\n\
             cargo run --release -p pvs-bench --bin profile -- --smoke --analyze\n\
             ```\n\n\
             ### Regression sentinel\n\n\
             `compare` diffs two profile documents: model metrics\n\
             (`model.time_s`, `model.comm_s`, `model.gflops_per_p`) must match\n\
             exactly — the simulator is deterministic, so any growth is a real\n\
             regression — while host wall-clock medians are noise and only\n\
             checked against an explicit `--host-tol <pct>`:\n\n\
             ```bash\n\
             cargo run --release -p pvs-bench --bin compare -- BENCH_sweep.json target/BENCH_sweep.json\n\
             # exit 0 = clean (drift-only), 1 = regression, 2 = usage error,\n\
             # 3 = unreadable input, 4 = not JSON, 5 = unknown schema\n\
             ```\n\n\
             The committed `BENCH_sweep.json` is the baseline; tier-1 compares\n\
             it against itself as the sentinel's identity check, and\n\
             `tests/attribution.rs` pins that a synthetic 5% `model.time_s`\n\
             slowdown trips exit 1.\n\n",
        ));
    }

    // The chaos walkthrough: run the fault-injection smoke live so the
    // table below can never drift from what `chaos --smoke` actually does.
    {
        use pvs_bench::chaos::{covered_kinds, run_chaos, smoke_scenarios};
        use pvs_bench::profile::smoke_cells;
        let scenarios = smoke_scenarios();
        let kinds: Vec<&str> = covered_kinds(&scenarios).into_iter().collect();
        let out = match run_chaos(&smoke_cells(), &scenarios, 1) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: chaos smoke failed while regenerating docs: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        doc.push_str(&format!(
            "## Chaos walkthrough (pvs-fault)\n\n\
             The `chaos` binary replays the sweep under deterministic fault\n\
             plans (`pvs-fault`): every fault is scheduled in *simulated*\n\
             picoseconds and drawn from seeded hash chains, so a degraded run\n\
             is as reproducible as a healthy one — same seed, same wreckage,\n\
             at any `PVS_THREADS`. The smoke set covers every fault kind\n\
             ({}) in {} scenarios; this table is regenerated live by the\n\
             `experiments` binary:\n\n\
             | scenario | cells | engine damage | mpisim (delivered/drops/retries/delays/timeouts) |\n\
             |---|---|---|---|\n",
            kinds.join(", "),
            scenarios.len(),
        ));
        for s in &out.scenarios {
            doc.push_str(&format!(
                "| {} | {} | {} | {}/{}/{}/{}/{} |\n",
                s.name,
                s.cells,
                if s.engine_faulted { "yes" } else { "no" },
                s.mpisim.delivered,
                s.mpisim.drops,
                s.mpisim.retries,
                s.mpisim.delays,
                s.mpisim.timeouts,
            ));
        }
        doc.push_str(
            "\nEvery scenario is gated by machine-checked resilience invariants:\n\
             serial and pooled degraded sweeps fingerprint bit-identically; no\n\
             degraded cell ever gets *faster* than its healthy twin; scenarios\n\
             that damage the engine must slow at least one cell; message-fault\n\
             workloads complete twice with identical survivor values and retry\n\
             counters; and cutting X1 torus links pushes PARATEC/X1 deeper into\n\
             `bisection-bound` (strictly higher comm fraction) — the paper's\n\
             FFT-transpose pressure, now demonstrated by ablation.\n\n\
             ```bash\n\
             cargo run --release -p pvs-bench --bin chaos                       # -> BENCH_chaos.json\n\
             cargo run --release -p pvs-bench --bin chaos -- --smoke            # CI subset\n\
             cargo run --release -p pvs-bench --bin chaos -- --checkpoint-check # kill + resume, bit-identical\n\
             cargo run --release -p pvs-bench --bin compare -- BENCH_chaos.json BENCH_chaos.json\n\
             ```\n\n\
             `BENCH_chaos.json` reuses the `pvs-bench/profile-v2` schema with\n\
             the scenario folded into each cell's config (`...@x1-link-down`;\n\
             healthy rows are `@healthy`), so the `compare` sentinel diffs\n\
             degraded baselines natively. `--checkpoint-check` serializes a\n\
             degraded sweep mid-flight (`pvs-core/sweep-checkpoint-v1`),\n\
             simulates a process kill, resumes from the wire bytes, and\n\
             requires a bit-identical document.\n\n",
        );
    }

    // Serving walkthrough: a real in-process server on an ephemeral
    // port, driven over TCP. Only determinism-stable fields land in the
    // document (sources, counters, keys) — latencies are host noise and
    // live in BENCH_serve.json's host_wall instead.
    {
        use pvs_bench::serveload::{check_identity, fetch_stats, run_load, ArrivalMode, LoadOptions};
        use pvs_serve::{Request, Server, ServerOptions};
        let cells = vec![
            Request::cell("LBMHD", "4096x4096", "ES", 16),
            Request::cell("PARATEC", "432 atom", "X1", 16),
            Request::cell("CACTUS", "80x80x80", "Power3", 16),
            Request::cell("GTC", "10 part/cell", "Altix", 16),
        ];
        let server = match Server::start(ServerOptions::default()) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: serve walkthrough failed to bind: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        let addr = server.addr().to_string();
        // One connection asking twice per cell: the first pass is all
        // cold misses, the second all memory hits — deterministically.
        let options = LoadOptions {
            requests: 2 * cells.len(),
            mode: ArrivalMode::Closed { connections: 1 },
            seed: 0,
            ..LoadOptions::default()
        };
        let run = match run_load(&addr, &cells, &options) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: serve walkthrough load failed: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        if let Err(bad) = check_identity(&addr, &cells) {
            eprintln!("error: served bytes diverge from direct computation: {bad:?}");
            std::process::exit(exit::FAILURE);
        }
        doc.push_str(
            "## Serving walkthrough (pvs-serve)\n\n\
             The `serve` binary answers `(app, config, machine, procs, faults?)`\n\
             requests over newline-delimited JSON on TCP. Because every cell is\n\
             a pure function of its request, responses are *content-addressable*:\n\
             the request canonicalizes to a stable FNV-1a key, the key addresses\n\
             a sharded cache with an atomic disk spill, and concurrent misses on\n\
             one key coalesce onto a single simulation (single-flight batching).\n\
             Admission control answers `overloaded` instead of queuing without\n\
             bound. This table is regenerated live: a real server on an\n\
             ephemeral port, each cell asked twice over one connection:\n\n\
             | app | config | machine | P | key | first ask | second ask |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for (i, cell) in cells.iter().enumerate() {
            doc.push_str(&format!(
                "| {} | {} | {} | {} | `{}` | {} | {} |\n",
                cell.app,
                cell.config,
                cell.machine,
                cell.procs,
                cell.key_hash(),
                run.samples[i].source,
                run.samples[i + cells.len()].source,
            ));
        }
        let stats = fetch_stats(&addr).unwrap_or_default();
        let stat = |name: &str| {
            pvs_analyze::json::parse(&stats)
                .ok()
                .and_then(|doc| doc.get("counters").and_then(|c| c.num(name)))
                .unwrap_or(0.0) as u64
        };
        doc.push_str(&format!(
            "\n{} requests cost {} simulations (counters: `serve.cache.misses` {},\n\
             `serve.cache.hits` {} — including the identity check's re-fetches);\n\
             every served cell byte-matched a direct `run_sweep` + `perf_report`\n\
             rendering (`--check-identity`).\n\n\
             ```bash\n\
             cargo run --release -p pvs-bench --bin serve -- --addr 127.0.0.1:7411 &\n\
             printf '{{\"op\":\"cell\",\"app\":\"LBMHD\",\"config\":\"8192x8192\",\"machine\":\"ES\",\"procs\":64}}\\n' | nc 127.0.0.1 7411\n\
             cargo run --release -p pvs-bench --bin serve_load -- --inline --check-identity --out BENCH_serve.json\n\
             cargo run --release -p pvs-bench --bin compare -- BENCH_serve.json BENCH_serve.json\n\
             ```\n\n\
             `BENCH_serve.json` reuses the `pvs-bench/profile-v2` schema: model\n\
             metrics are the served bytes (gated exactly by `compare`), request\n\
             latency percentiles ride in `host_wall`/`load` (report-only unless\n\
             `--host-tol`). The load generator offers closed-loop (`--connections`)\n\
             and seeded open-loop Poisson (`--rate`) arrivals.\n\n",
            run.samples.len(),
            stat("serve.sim.runs"),
            stat("serve.cache.misses"),
            stat("serve.cache.hits"),
        ));
    }

    // Serve-chaos walkthrough: run the host-fault scenarios live so the
    // table below can never drift from what `servechaos` actually
    // asserts.
    {
        use pvs_bench::servechaos::run_servechaos;
        let out = match run_servechaos(pvs_core::pool::default_threads()) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: servechaos invariants failed while regenerating docs: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        doc.push_str(
            "## Serve-chaos walkthrough (host-fault resilience)\n\n\
             The chaos walkthrough above breaks the *simulated machines*; this\n\
             one breaks the *serving host* underneath them: spill files are\n\
             truncated, bit-flipped, and given garbage headers; restarts race\n\
             torn writes; clients dribble bytes, send 128 KiB frames, and pure\n\
             garbage; sim workers panic repeatedly on one key; budgets expire\n\
             at admission, in the queue, and mid-dispatch; and a full queue\n\
             sheds load into the seeded-backoff retry client. Every scenario\n\
             is seeded (`pvs_fault::HostFaultPlan`), every assertion exact:\n\
             zero unplanned panics, every successful body byte-identical to a\n\
             direct `Engine` computation, and pinned counter relations. This\n\
             table is regenerated live by the `experiments` binary:\n\n\
             | scenario | requests | byte-identical | what held |\n\
             |---|---|---|---|\n",
        );
        for s in &out.scenarios {
            doc.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.name, s.requests, s.identical, s.note
            ));
        }
        doc.push_str(
            "\n```bash\n\
             cargo run --release -p pvs-bench --bin servechaos                  # -> BENCH_servechaos.json\n\
             cargo run --release -p pvs-bench --bin servechaos -- --smoke       # doc under target/\n\
             cargo run --release -p pvs-bench --bin chaos -- --verify-checkpoint sweep.ck\n\
             cargo run --release -p pvs-bench --bin compare -- BENCH_servechaos.json target/BENCH_servechaos_smoke.json\n\
             ```\n\n\
             `BENCH_servechaos.json` reuses the `pvs-bench/profile-v2` schema\n\
             with the scenario folded into each cell's config\n\
             (`...@panic-storm`), and the scenario counters folded into the\n\
             harness snapshot (`servechaos.<scenario>.<counter>`), so the\n\
             `compare` sentinel gates resilience regressions exactly like\n\
             perf ones: a quarantine that stops firing, a supervisor that\n\
             poisons at the wrong count, or a retry client that gives up a\n\
             different number of times all move a gated-exact axis. The\n\
             quarantine/checksum story extends to campaign state:\n\
             `chaos --verify-checkpoint` integrity-checks a serialized run or\n\
             sweep checkpoint (FNV-1a seal + structural parse) before a\n\
             resume trusts it — exit 0 valid, 3 unreadable, 4 damaged.\n\n",
        );
    }

    // Rank-scaling walkthrough: run the event-driven runtime live at the
    // paper's largest configurations so the table below can never drift
    // from what `rankscale` actually produces.
    {
        use pvs_bench::rankscale::{run_rankscale, RankScaleCell, IDENTITY_P};
        let cells = [
            RankScaleCell { app: "LBMHD", procs: 64 },
            RankScaleCell { app: "LBMHD", procs: 8192 },
            RankScaleCell { app: "LBMHD", procs: 131072 },
            RankScaleCell { app: "GTC", procs: 8192 },
            RankScaleCell { app: "CACTUS", procs: 8192 },
            RankScaleCell { app: "PARATEC", procs: 1024 },
        ];
        let out = match run_rankscale(&cells, pvs_core::pool::default_threads()) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: rankscale identity gate failed while regenerating docs: {e}");
                std::process::exit(exit::FAILURE);
            }
        };
        doc.push_str(&format!(
            "## Rank-scaling walkthrough (event-driven mpisim)\n\n\
             mpisim's closure front end (`pvs_mpisim::run`) gives every rank\n\
             an OS thread, which tops out far below the paper's largest runs.\n\
             The same event-driven scheduler (`pvs_mpisim::event`) also runs\n\
             ranks as parked continuations over a small worker pool, with all\n\
             collectives completed centrally in canonical rank order — so the\n\
             LBMHD 8192^2 production configuration (P = 8192, one 91^2-site\n\
             subgrid per rank) and weak scaling past 10^5 ranks run on a\n\
             laptop-sized host. Before any cell runs, an identity gate replays\n\
             every app kernel in *both* forms at P in {IDENTITY_P:?} and\n\
             requires bit-identical values and per-rank traffic. This table is\n\
             regenerated live by the `experiments` binary:\n\n\
             | app | ranks | sim events | p2p msgs | collectives | peak parked | host |\n\
             |---|---|---|---|---|---|---|\n",
        ));
        for c in &out.cells {
            doc.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {:.2}s |\n",
                c.cell.app,
                c.cell.procs,
                c.report.time_s,
                c.snapshot.counter("mpisim.sim.messages").unwrap_or(0),
                c.snapshot.counter("mpisim.sim.collectives").unwrap_or(0),
                c.snapshot.gauge("mpisim.sim.peak_parked").unwrap_or(0),
                c.host_secs.first().copied().unwrap_or(0.0),
            ));
        }
        doc.push_str(
            "\nThe kernels are the apps' real communication skeletons: LBMHD's\n\
             four ghost ring shifts + diagnostics allreduce, GTC's data-dependent\n\
             particle-shift loop (rounds gated by a global max reduction),\n\
             Cactus's six-face exchange + constraint norm, PARATEC's\n\
             personalized all-to-all transpose + norm allgather + energy\n\
             allreduce. PARATEC's ladder is capped at P = 1024: its transpose\n\
             traffic grows as P^2 — the bisection-bandwidth wall of §5.\n\n\
             ```bash\n\
             cargo run --release -p pvs-bench --bin rankscale              # full ladder -> BENCH_mpisim.json\n\
             cargo run --release -p pvs-bench --bin rankscale -- --smoke   # CI subset -> target/\n\
             cargo run --release -p pvs-bench --bin compare -- target/BENCH_mpisim_smoke.json BENCH_mpisim.json\n\
             ```\n\n\
             `BENCH_mpisim.json` reuses the `pvs-bench/profile-v2` schema:\n\
             `model.time_s` counts simulator events, `model.comm_s` the\n\
             communication share, and `model.gflops_per_p` carries an FNV-1a\n\
             checksum of every rank's output bits — any behavioural drift in\n\
             either runtime moves a gated-exact axis. The smoke subset is a\n\
             strict subset of the committed full ladder, so `compare` (fresh\n\
             smoke as baseline) gates it bit-exactly.\n\n",
        );
    }

    doc.push_str(
        "## Figures 1-8 — application data\n\n\
         Figures 1-8 are illustrations/visualizations in the paper; their underlying\n\
         data is regenerated by running the *real* application codes:\n\n\
         | Figure | Content | Regenerate with |\n|---|---|---|\n\
         | Fig 1 | LBMHD current-density decay of crossed structures | `cargo run -p pvs-bench --bin fig1` |\n\
         | Fig 2 | Octagonal streaming lattice + interpolation weights | `cargo run -p pvs-bench --bin fig2` |\n\
         | Fig 3 | Plane-wave DFT charge density | `cargo run -p pvs-bench --bin fig3` |\n\
         | Fig 4 | Fourier/real-space parallel data layouts | `cargo run -p pvs-bench --bin fig4` |\n\
         | Fig 5 | Evolved gravitational-wave field | `cargo run -p pvs-bench --bin fig5` |\n\
         | Fig 6 | Ghost-zone exchange pattern | `cargo run -p pvs-bench --bin fig6` |\n\
         | Fig 7 | GTC electrostatic potential | `cargo run -p pvs-bench --bin fig7` |\n\
         | Fig 8 | Classic vs 4-point gyroaveraged deposition | `cargo run -p pvs-bench --bin fig8` |\n\n\
         ## Known deviations\n\n\
         - **Fixed-size scaling declines are milder than measured** for LBMHD at\n\
           P>=256 (model ES 4.5 vs paper 3.2-3.3 Gflops/P): the paper's high-P\n\
           overheads include system effects (OS jitter, barrier skew) our network\n\
           simulator does not model.\n\
         - **X1 Cactus** lands near 10% of peak vs the paper's 3-6%: the paper\n\
           itself calls the X1's production-Cactus slowdown unexplained (\"Cray\n\
           engineers continue to investigate\"); we reproduce the direction (X1 far\n\
           below ES) through register-spill and serialization mechanisms, but not\n\
           the full magnitude, so Table 7's CACTUS ES-vs-X1 speedup is ~1.5x vs\n\
           the paper's 4.0x.\n\
         - **Altix Cactus large case** is ~2x high: the Itanium2's software-prefetch\n\
           behaviour on many-array stencils is modelled optimistically.\n\
         - **GTC VOR** comes out ~92-96% vs the paper's 99%: our accounting charges\n\
           the scalar shift's integer bookkeeping as scalar operations.\n",
    );

    match out_path {
        Some(p) => match cli::write_atomic(&p, &doc) {
            Ok(()) => eprintln!("wrote {p}"),
            Err(e) => {
                eprintln!("error: cannot write {p}: {e}");
                std::process::exit(exit::WRITE);
            }
        },
        None => print!("{doc}"),
    }
}
