//! The `rankscale` workload: the per-app weak-scaling communication
//! kernels (`run_scale_v2`) on the event-driven mpisim runtime, at
//! `threads = nproc`. Only the mpisim scheduler and the thread pool do
//! work here; the serve layers do nothing.
//!
//! A run repeats whole passes over [`LADDER`] until `--seconds` of pass
//! time have gone by, so every run measures the same mix of cells, and
//! reports rates over each cell's median time. A timed set-up precedes
//! every pass, so `setup_s` is a median over set-ups spread across the
//! run. Every cell's output checksum is compared with [`CHECKSUMS`]
//! after it is timed.

use std::time::Instant;

use pvs_core::pool::default_threads;
use pvs_mpisim::event::{EventSim, Op, Reply, ScriptProgram, SimStats};
use pvs_mpisim::CommStats;

use crate::catalog::{ladder_procs, Values, APPS};
use crate::keys::Rng;
use crate::stats::{median, nearest_rank, per_rank_ratio, self_times, spread_pct};
use crate::trace::{maybe_time, merge, SpanLog};
use crate::{peak_rss_mb, Args, Outcome};

/// Untraced/traced pass pairs of a traced run.
const TRACE_PAIRS: usize = 3;

/// The cells of one pass: each app at its reference rank count and at
/// its largest one.
const LADDER: [(&str, usize); 8] = [
    ("LBMHD", 8192),
    ("LBMHD", 65536),
    ("GTC", 8192),
    ("GTC", 32768),
    ("CACTUS", 8192),
    ("CACTUS", 32768),
    ("PARATEC", 256),
    ("PARATEC", 1024),
];

/// Expected output checksum of every ladder cell: FNV-1a over every
/// rank's output bits in rank order, folded below 2⁵³ — the
/// `gflops_per_p` axis of the repository's `BENCH_mpisim.json`.
const CHECKSUMS: [(&str, usize, u64); 8] = [
    ("LBMHD", 8192, 5806577833108261),
    ("LBMHD", 65536, 7444626233369381),
    ("GTC", 8192, 3868869133837093),
    ("GTC", 32768, 4911308994781989),
    ("CACTUS", 8192, 4028712908163480),
    ("CACTUS", 32768, 6909826308398075),
    ("PARATEC", 256, 8046896038024072),
    ("PARATEC", 1024, 6180655576405690),
];

type Kernel = fn(usize, usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats);

fn kernel(app: &str) -> Kernel {
    match app {
        "LBMHD" => pvs_lbmhd::scale::run_scale_v2,
        "GTC" => pvs_gtc::scale::run_scale_v2,
        "CACTUS" => pvs_cactus::scale::run_scale_v2,
        _ => pvs_paratec::scale::run_scale_v2,
    }
}

/// FNV-1a over every rank's output bits in rank order, folded below 2⁵³.
fn output_checksum(per_rank: &[(Vec<f64>, CommStats)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (values, _) in per_rank {
        for x in values {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h % (1u64 << 53)
}

/// One timed cell.
#[derive(Debug, Clone, Copy)]
struct CellRun {
    app: &'static str,
    procs: usize,
    wall_s: f64,
    sim: SimStats,
    bytes_sent: u64,
    checksum: u64,
}

impl CellRun {
    fn events(&self) -> u64 {
        self.sim.resumes + self.sim.messages + self.sim.collectives
    }
}

/// Run one kernel; only the kernel call is timed.
fn run_cell(app: &'static str, procs: usize, threads: usize) -> CellRun {
    let started = Instant::now();
    let (per_rank, sim) = kernel(app)(procs, threads);
    let wall_s = started.elapsed().as_secs_f64();
    CellRun {
        app,
        procs,
        wall_s,
        sim,
        bytes_sent: per_rank.iter().map(|(_, s)| s.bytes_sent).sum(),
        checksum: output_checksum(&per_rank),
    }
}

fn check(cell: &CellRun) -> Result<(), String> {
    let expected = CHECKSUMS
        .iter()
        .find(|(a, p, _)| *a == cell.app && *p == cell.procs)
        .map(|&(_, _, c)| c);
    match expected {
        Some(c) if c == cell.checksum => Ok(()),
        _ => Err(format!(
            "{}@{}: output checksum {} does not match the expected {:?}",
            cell.app, cell.procs, cell.checksum, expected
        )),
    }
}

/// One pass over the ladder; `log` adds a span per cell.
fn pass(threads: usize, log: &mut Option<&mut SpanLog>, rid: &mut u64) -> Vec<CellRun> {
    LADDER
        .iter()
        .map(|&(app, procs)| {
            let name = format!("mpisim.{}.p{procs}#{rid}", app.to_lowercase());
            *rid += 1;
            maybe_time(log, name, None, || run_cell(app, procs, threads))
        })
        .collect()
}

/// One set-up: the identity gate plus a warm-up of every app at its
/// reference rank count, so lazy initialization and allocator growth
/// happen before the pass after it. Returns its time in seconds and the
/// check of the warm-up cells.
fn set_up(threads: usize) -> Result<(f64, Result<(), String>), String> {
    let t = Instant::now();
    pvs_bench::rankscale::verify_identity(threads).map_err(|e| format!("identity gate: {e}"))?;
    let checked = LADDER
        .iter()
        .step_by(2)
        .try_for_each(|&(app, procs)| check(&run_cell(app, procs, threads)));
    Ok((t.elapsed().as_secs_f64(), checked))
}

/// Run the rankscale workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let threads = default_threads();
    // One untimed set-up first, so lazy initialization is not in `setup_s`.
    let (_, warm_up) = set_up(threads)?;
    if args.trace {
        return traced(args, threads, warm_up);
    }
    let mut checked = warm_up;
    let mut setup = Vec::new();
    let mut cells = Vec::new();
    let mut peak_rss = None;
    let mut window_s = 0.0;
    let mut rid = 0;
    while window_s < args.seconds {
        let (s, ok) = set_up(threads)?;
        setup.push(s);
        checked = checked.and(ok);
        let started = Instant::now();
        cells.extend(pass(threads, &mut None, &mut rid));
        window_s += started.elapsed().as_secs_f64();
        // The memory one pass of the ladder needs; later passes only add
        // allocator fragmentation.
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let peak_rss = peak_rss.expect("a pass ran");
    let checked = checked.and(cells.iter().try_for_each(check));
    // Per ladder cell, the median of its runs: every run measures the
    // same mix, and one disturbed run of a cell cannot move the result.
    let medians: Vec<(CellRun, f64)> = LADDER
        .iter()
        .map(|&(app, procs)| {
            let runs: Vec<&CellRun> = cells
                .iter()
                .filter(|c| c.app == app && c.procs == procs)
                .collect();
            let wall: Vec<f64> = runs.iter().map(|c| c.wall_s).collect();
            (*runs[0], median(&wall).expect("every cell ran"))
        })
        .collect();
    let ladder_s: f64 = medians.iter().map(|(_, s)| s).sum();
    let events: u64 = medians.iter().map(|(c, _)| c.events()).sum();
    // Host cost per virtual rank of each whole pass: one pass sums all
    // eight cells, so its time moves with the scheduler, not with one cell.
    let ranks: usize = LADDER.iter().map(|(_, p)| p).sum();
    let mut us_per_rank: Vec<f64> = cells
        .chunks(LADDER.len())
        .map(|pass| pass.iter().map(|c| c.wall_s).sum::<f64>() * 1e6 / ranks as f64)
        .collect();
    us_per_rank.sort_by(f64::total_cmp);
    let mut values = Values::new();
    values.insert("throughput_rps".into(), LADDER.len() as f64 / ladder_s);
    values.insert(
        "latency_p50_us".into(),
        nearest_rank(&us_per_rank, 0.5).expect("a pass ran"),
    );
    values.insert(
        "latency_p90_us".into(),
        nearest_rank(&us_per_rank, 0.9).expect("a pass ran"),
    );
    values.insert("events_per_s".into(), events as f64 / ladder_s);
    values.insert("setup_s".into(), median(&setup).expect("setup ran"));
    values.insert("peak_rss_mb".into(), peak_rss);
    Ok(Outcome {
        problem: checked.err(),
        attempted: cells.len() as u64,
        failed: 0,
        values,
        notes: vec![
            format!(
                "{} cell runs ({} passes of {} cells, {events} simulator events per pass), {threads} pool threads; \
                 latency = host us per virtual rank of a pass ({ranks} ranks)",
                cells.len(),
                cells.len() / LADDER.len(),
                LADDER.len(),
            ),
            format!("setup_s = median of {} timed set-ups, one before each pass", setup.len()),
        ],
    })
}

/// Seeded payload of `len` doubles for `(rank, op)`.
fn payload(seed: u64, rank: usize, op: usize, len: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, ((rank as u64) << 16) | op as u64);
    (0..len).map(|_| rng.unit() - 0.5).collect()
}

/// Ops per rank in the sendrecv and allreduce micro-programs.
const MICRO_OPS: usize = 4;
/// Doubles per sendrecv / allreduce payload.
const MICRO_LEN: usize = 8;

/// The three scheduler micro-programs, checked: every rank must receive
/// exactly its partner's payload, allreduce results must be bit-equal on
/// every rank, and every all-to-all slot must hold its sender's value.
/// Returns the wall time of the simulation alone.
fn micro(
    kind: &str,
    procs: usize,
    threads: usize,
    seed: u64,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let ops = |rank: usize, size: usize| -> Vec<Op> {
        match kind {
            "sendrecv" => (0..MICRO_OPS)
                .map(|k| Op::Sendrecv {
                    partner: rank ^ 1,
                    tag: 1 + k as u64,
                    data: payload(seed, rank, k, MICRO_LEN),
                })
                .collect(),
            "allreduce" => (0..MICRO_OPS)
                .map(|k| Op::AllreduceSum {
                    data: payload(seed, rank, k, MICRO_LEN),
                })
                .collect(),
            _ => vec![Op::Alltoallv {
                sends: (0..size).map(|d| payload(seed, rank, d, 1)).collect(),
            }],
        }
    };
    let span = log.enter(format!("mpisim.micro.{kind}.p{procs}"), None);
    let started = Instant::now();
    let replies = EventSim::new(procs)
        .threads(threads)
        .run(move |rank, size| ScriptProgram::new(ops(rank, size)))
        .into_values();
    let wall_s = started.elapsed().as_secs_f64();
    log.exit(span);
    let first = format!("{:?}", replies[0]);
    for (rank, got) in replies.iter().enumerate() {
        let ok = match kind {
            "sendrecv" => got.iter().enumerate().all(|(k, r)| {
                matches!(r, Reply::Exchanged(Ok(v)) if *v == payload(seed, rank ^ 1, k, MICRO_LEN))
            }),
            "allreduce" => {
                got.len() == MICRO_OPS
                    && got.iter().all(|r| matches!(r, Reply::Reduced(Ok(_))))
                    && format!("{got:?}") == first
            }
            _ => matches!(got.as_slice(), [Reply::Alltoall(recv)]
                if recv.iter().enumerate().all(|(s, v)| *v == payload(seed, s, rank, 1))),
        };
        if !ok {
            return Err(format!(
                "micro-program {kind} at P={procs}: rank {rank} got a wrong reply"
            ));
        }
    }
    Ok(wall_s)
}

/// The traced run: untraced and traced passes in turn (the medians of
/// their event rates give the tracing overhead), the large cells again
/// on one thread (the pool speed-up), and the scheduler micro-programs.
fn traced(args: &Args, threads: usize, warm_up: Result<(), String>) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut rid = 0;
    let rate = |cs: &[CellRun]| {
        cs.iter().map(CellRun::events).sum::<u64>() as f64
            / cs.iter().map(|c| c.wall_s).sum::<f64>()
    };
    let (mut plain, mut cells) = (Vec::new(), Vec::new());
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        let untraced = pass(threads, &mut None, &mut rid);
        plain_rates.push(rate(&untraced));
        plain.extend(untraced);
        let traced = pass(threads, &mut Some(&mut log), &mut rid);
        traced_rates.push(rate(&traced));
        cells.extend(traced);
    }
    let mut checked = warm_up.and(plain.iter().chain(&cells).try_for_each(check));
    let traced_rate = median(&traced_rates).expect("passes ran");
    let mut values = Values::new();
    values.insert(
        "trace.overhead_pct".into(),
        (median(&plain_rates).expect("passes ran") / traced_rate - 1.0) * 100.0,
    );
    values.insert("trace.untraced_spread_pct".into(), spread_pct(&plain_rates));
    values.insert("mpisim.ns_per_event".into(), 1e9 / traced_rate);

    for app in APPS {
        let (reference, largest) = ladder_procs(app);
        // A cell's median over the traced passes.
        let find = |p: usize| {
            let runs: Vec<&CellRun> = cells
                .iter()
                .filter(|c| c.app.eq_ignore_ascii_case(app) && c.procs == p)
                .collect();
            let wall: Vec<f64> = runs.iter().map(|c| c.wall_s).collect();
            (*runs[0], median(&wall).expect("ladder cell"))
        };
        let ((_, small_s), (large, large_s)) = (find(reference), find(largest));
        let us_small = small_s * 1e6 / reference as f64;
        let us_large = large_s * 1e6 / largest as f64;
        values.insert(format!("mpisim.{app}.us_per_rank.p{reference}"), us_small);
        values.insert(format!("mpisim.{app}.us_per_rank.p{largest}"), us_large);
        values.insert(
            format!("mpisim.{app}.per_rank_ratio"),
            per_rank_ratio(us_large, us_small).unwrap_or(0.0),
        );
        let s = large.sim;
        for (name, v) in [
            ("resumes", s.resumes),
            ("batches", s.batches),
            ("messages", s.messages),
            ("parks", s.parks),
            ("wakeups", s.wakeups),
            ("collectives", s.collectives),
            ("peak_parked", s.peak_parked),
            ("bytes_sent", large.bytes_sent),
        ] {
            values.insert(format!("mpisim.{app}.{name}"), v as f64);
        }
        // The plain single-threaded baseline of the same cell.
        let serial = log.time(format!("pool.serial.{app}"), None, || {
            run_cell(large.app, largest, 1)
        });
        checked = checked.and(check(&serial));
        values.insert(format!("pool.speedup.{app}"), serial.wall_s / large_s);
    }

    for p in [1024, 32768] {
        for kind in ["sendrecv", "allreduce"] {
            let wall = micro(kind, p, threads, args.seed, &mut log)?;
            values.insert(
                format!("mpisim.{kind}_us_per_rank_op.p{p}"),
                wall * 1e6 / (p * MICRO_OPS) as f64,
            );
        }
    }
    for p in [256, 1024] {
        let wall = micro("alltoallv", p, threads, args.seed, &mut log)?;
        values.insert(
            format!("mpisim.alltoallv_us_per_pair.p{p}"),
            wall * 1e6 / (p * p) as f64,
        );
    }

    let buf = merge(vec![log]);
    let layers = self_times(buf.events());
    Ok(Outcome {
        problem: checked.err(),
        attempted: (plain.len() + cells.len()) as u64,
        failed: 0,
        values,
        notes: crate::trace_report(&buf, &layers, &args.workload, args.seed)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_analyze::json::{parse, Value};

    #[test]
    fn checksum_table_matches_the_committed_rank_scaling_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_mpisim.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCH_mpisim.json")).expect("json");
        let mut shared = 0;
        for cell in doc.get("cells").and_then(Value::as_array).expect("cells") {
            let app = cell.str("app").expect("app");
            let procs = cell.num("procs").expect("procs") as usize;
            let committed = cell
                .get("model")
                .and_then(|m| m.num("gflops_per_p"))
                .expect("checksum");
            if let Some(&(_, _, ours)) = CHECKSUMS.iter().find(|(a, p, _)| *a == app && *p == procs)
            {
                assert_eq!(ours as f64, committed, "{app}@{procs}");
                shared += 1;
            }
        }
        assert!(
            shared >= 4,
            "only {shared} cells shared with BENCH_mpisim.json"
        );
    }

    #[test]
    fn checksum_table_covers_the_ladder() {
        for (&(app, p), &(a, q, _)) in LADDER.iter().zip(CHECKSUMS.iter()) {
            assert_eq!((app, p), (a, q));
        }
    }

    #[test]
    fn micro_programs_pass_their_own_checks() {
        let mut log = SpanLog::new(Instant::now());
        for kind in ["sendrecv", "allreduce", "alltoallv"] {
            micro(kind, 16, 2, 5, &mut log).expect(kind);
        }
    }
}
