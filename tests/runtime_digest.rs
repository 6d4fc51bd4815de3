//! Frozen outputs of the message-passing runtime.
//!
//! `tests/runtime_digest.txt` holds one line per program × rank count:
//! an FNV-1a digest over every rank's value bits, `CommStats`,
//! `FaultStats` and simulated clock, plus a few readable totals. The
//! table was recorded from the thread-per-rank runtime that preceded the
//! event-scheduler front end, so it pins the closure API (`run`,
//! `run_faulty`, `CoArray`) to the exact bytes and counters the old
//! implementation produced. The table must reproduce at any pool size;
//! the test checks `PVS_THREADS=1` and `PVS_THREADS=8`.
//!
//! The test is the only one in its binary because it sets `PVS_THREADS`.

use pvs::core::hash::fnv1a;
use pvs::mpisim::caf::CoArray;
use pvs::mpisim::{run, run_faulty, CommStats, FaultSpec, FaultStats, FaultyComm, RankOutcome};
use std::fmt::Write as _;

const TABLE: &str = include_str!("runtime_digest.txt");

/// One rank's observable result, rendered canonically.
struct RankRecord {
    values: Vec<f64>,
    comm: CommStats,
    faults: FaultStats,
    clock_ps: u64,
    /// Error/`Result` text for the faulty programs (`Debug` of f64 is
    /// round-trip exact, so values inside it are pinned too).
    log: String,
}

impl RankRecord {
    fn healthy(values: Vec<f64>, comm: CommStats) -> Self {
        RankRecord {
            values,
            comm,
            faults: FaultStats::default(),
            clock_ps: 0,
            log: String::new(),
        }
    }

    fn render(&self, out: &mut String) {
        for v in &self.values {
            let _ = write!(out, "{:016x},", v.to_bits());
        }
        let f = &self.faults;
        let _ = writeln!(
            out,
            "|{} {}|{} {} {} {} {} {} {}|{}|{}",
            self.comm.messages_sent,
            self.comm.bytes_sent,
            f.delivered,
            f.drops,
            f.retries,
            f.delays,
            f.timeouts,
            f.backoff_ps,
            f.delay_ps,
            self.clock_ps,
            self.log
        );
    }
}

/// A program's per-rank records (`None` for a failed rank).
fn table_line(name: &str, p: usize, ranks: &[Option<RankRecord>]) -> String {
    let mut text = String::new();
    let (mut msgs, mut bytes, mut drops, mut clock_max) = (0u64, 0u64, 0u64, 0u64);
    for rank in ranks {
        match rank {
            None => text.push_str("failed\n"),
            Some(r) => {
                r.render(&mut text);
                msgs += r.comm.messages_sent;
                bytes += r.comm.bytes_sent;
                drops += r.faults.drops;
                clock_max = clock_max.max(r.clock_ps);
            }
        }
    }
    format!(
        "{name} P={p} {:016x} msgs={msgs} bytes={bytes} drops={drops} clock_max={clock_max}",
        fnv1a(text.as_bytes())
    )
}

fn healthy_line(name: &str, p: usize, per_rank: Vec<(Vec<f64>, CommStats)>) -> String {
    let ranks: Vec<Option<RankRecord>> = per_rank
        .into_iter()
        .map(|(v, s)| Some(RankRecord::healthy(v, s)))
        .collect();
    table_line(name, p, &ranks)
}

fn faulty_line(
    name: &str,
    p: usize,
    outcomes: Vec<RankOutcome<(String, CommStats, u64)>>,
) -> String {
    let ranks: Vec<Option<RankRecord>> = outcomes
        .into_iter()
        .map(|o| match o {
            RankOutcome::Failed => None,
            RankOutcome::Completed {
                value: (log, comm, clock_ps),
                faults,
            } => Some(RankRecord {
                values: Vec::new(),
                comm,
                faults,
                clock_ps,
                log,
            }),
        })
        .collect();
    table_line(name, p, &ranks)
}

/// Catastrophic-cancellation probe: canonical fold order is observable.
fn probe(rank: usize) -> f64 {
    [1e16, 1.0, -1e16][rank % 3]
}

/// Every healthy collective plus both point-to-point shapes.
fn healthy_program(n: usize) -> Vec<(Vec<f64>, CommStats)> {
    let root = n - 1;
    run(n, move |mut c| {
        let rank = c.rank();
        let r = rank as f64;
        let mut out = Vec::new();
        c.barrier();
        out.extend(c.allreduce_sum(&[probe(rank), 0.25 * r]));
        out.push(c.allreduce_max_scalar(probe(rank)));
        for row in c.allgather(&vec![r + 0.5; rank % 3 + 1]) {
            out.extend(row);
        }
        let root_data = if rank == root {
            vec![3.5, -1e16, probe(rank)]
        } else {
            Vec::new()
        };
        out.extend(c.broadcast(root, root_data));
        let sends = (0..n)
            .map(|d| vec![(rank * n + d) as f64; (rank + d) % 2 + 1])
            .collect();
        for row in c.alltoallv(sends) {
            out.extend(row);
        }
        let partner = if rank ^ 1 < n { rank ^ 1 } else { rank };
        out.extend(c.sendrecv(partner, 11, vec![r, r + 0.5]));
        if n > 1 {
            c.send((rank + 1) % n, 12, vec![r * 7.0]);
            let req = c.irecv((rank + n - 1) % n, 12);
            out.extend(c.wait(req));
        }
        (out, c.stats())
    })
}

/// Co-array creation, a one-sided put ring and a remote get.
fn caf_program(n: usize) -> Vec<(Vec<f64>, CommStats)> {
    run(n, move |mut c| {
        let rank = c.rank();
        let ca = CoArray::create(&mut c, 4);
        ca.put((rank + 1) % n, 1, &[rank as f64 + 0.5, probe(rank)]);
        c.barrier();
        let mut out = ca.local(|w| w.to_vec());
        out.extend(ca.get((rank + n - 1) % n, 0, 3));
        (out, c.stats())
    })
}

fn spec_with(seed: u64, drop: u32, max_attempts: u32, delay: u32) -> FaultSpec {
    let mut spec = FaultSpec::healthy()
        .with_seed(seed)
        .drop_per_mille(drop)
        .delay_per_mille(delay);
    spec.max_attempts = max_attempts;
    spec
}

fn finish(c: &FaultyComm, log: Vec<String>) -> (String, CommStats, u64) {
    (log.join(";"), c.comm_stats(), c.clock_ps())
}

/// Pairwise exchange then a one-way chain, under drops/delays/timeouts.
fn faulty_p2p(n: usize, spec: FaultSpec) -> Vec<RankOutcome<(String, CommStats, u64)>> {
    run_faulty(n, spec, |c| {
        let rank = c.rank();
        let mut log = vec![format!("{:?}", c.sendrecv(rank ^ 1, 5, vec![rank as f64]))];
        if rank + 1 < c.size() {
            log.push(format!("{:?}", c.send(rank + 1, 6, vec![2.5])));
        }
        if rank > 0 {
            log.push(format!("{:?}", c.recv(rank - 1, 6)));
        }
        finish(c, log)
    })
}

/// Survivor barrier and allreduce in regimes whose retries succeed.
fn faulty_collectives(n: usize, spec: FaultSpec) -> Vec<RankOutcome<(String, CommStats, u64)>> {
    run_faulty(n, spec, |c| {
        let log = vec![
            format!("{:?}", c.barrier()),
            format!("{:?}", c.allreduce_sum(&[probe(c.rank()), 0.5])),
            format!("{:?}", c.allreduce_sum_scalar(c.rank() as f64)),
        ];
        finish(c, log)
    })
}

/// Traffic toward a failed rank fails fast.
fn rank_failure(n: usize) -> Vec<RankOutcome<(String, CommStats, u64)>> {
    run_faulty(n, FaultSpec::healthy().fail_rank(2), |c| {
        let log = vec![
            format!("{:?}", c.send(2, 9, vec![1.0])),
            format!("{:?}", c.recv(2, 9)),
            format!("{:?}", c.alive_ranks()),
        ];
        finish(c, log)
    })
}

/// The real LBMHD solver over MPI and co-array exchanges, the
/// distributed 3D FFT and the Cactus halo exchange.
fn app_kernels() -> Vec<String> {
    use pvs::cactus::grid::NFIELDS;
    use pvs::fft::dist3d::DistFft3;
    use pvs::lbmhd::init::orszag_tang;
    use pvs::lbmhd::parallel::{run_distributed, ExchangeMode};
    use pvs::lbmhd::solver::SimulationConfig;
    use pvs::linalg::complex::Complex64;
    use pvs::mpisim::cart::Cart3d;

    let mut lines = Vec::new();
    let n = 12;
    let cfg = SimulationConfig::new(n, n);
    for (name, mode) in [
        ("lbmhd-mpi", ExchangeMode::Mpi),
        ("lbmhd-caf", ExchangeMode::Caf),
    ] {
        let parts = run_distributed(cfg, 2, 2, 2, mode, |x, y| orszag_tang(x, y, n, n, 0.05));
        let per_rank = parts
            .into_iter()
            .map(|(_, _, _, _, bx, by)| ([bx, by].concat(), CommStats::default()))
            .collect();
        lines.push(healthy_line(name, 4, per_rank));
    }
    let fft_n = 8;
    let cube: Vec<Complex64> = (0..fft_n * fft_n * fft_n)
        .map(|i| Complex64::new((i % 7) as f64 - 3.0, (i % 5) as f64 * 0.25))
        .collect();
    let planes = fft_n / 4;
    let per_rank = run(4, |mut comm| {
        let rank = comm.rank();
        let chunk = planes * fft_n * fft_n;
        let local = cube[rank * chunk..(rank + 1) * chunk].to_vec();
        let out = DistFft3::new(fft_n).forward(&mut comm, local);
        let values = out.iter().flat_map(|z| [z.re, z.im]).collect();
        (values, comm.stats())
    });
    lines.push(healthy_line("fft3d-forward", 4, per_rank));
    let init = |x: usize, y: usize, z: usize| -> [f64; NFIELDS] {
        std::array::from_fn(|f| ((x * 3 + y * 5 + z * 7 + f) % 11) as f64 * 0.01)
    };
    let parts = pvs::cactus::halo::run_distributed(8, Cart3d::new(2, 2, 1), 2, 0.25, init);
    let per_rank = parts
        .into_iter()
        .map(|(_, values)| (values, CommStats::default()))
        .collect();
    lines.push(healthy_line("cactus-halo", 4, per_rank));
    lines
}

/// Every line of the table, in table order.
fn digest() -> Vec<String> {
    let mut lines = Vec::new();
    for p in [1usize, 2, 3, 4, 6, 8, 16, 64] {
        lines.push(healthy_line(
            "scale-lbmhd",
            p,
            pvs::lbmhd::scale::run_scale_v1(p),
        ));
        lines.push(healthy_line(
            "scale-gtc",
            p,
            pvs::gtc::scale::run_scale_v1(p),
        ));
        lines.push(healthy_line(
            "scale-cactus",
            p,
            pvs::cactus::scale::run_scale_v1(p),
        ));
        lines.push(healthy_line(
            "scale-paratec",
            p,
            pvs::paratec::scale::run_scale_v1(p),
        ));
    }
    for p in [1usize, 2, 3, 4, 7, 16] {
        lines.push(healthy_line("healthy", p, healthy_program(p)));
        lines.push(healthy_line("caf", p, caf_program(p)));
    }
    for (name, spec) in [
        ("p2p-retry", spec_with(42, 350, 10, 400)),
        ("p2p-timeout", spec_with(7, 1000, 3, 0)),
        ("p2p-saturate", spec_with(21, 1000, 80, 0)),
    ] {
        for p in [2usize, 4] {
            lines.push(faulty_line(name, p, faulty_p2p(p, spec.clone())));
        }
    }
    for (name, p, spec) in [
        ("coll-retry", 4usize, spec_with(3, 300, 64, 0)),
        ("coll-retry-delay", 16, spec_with(11, 250, 64, 500)),
        (
            "coll-survivors",
            5,
            spec_with(9, 300, 64, 0).fail_rank(1).fail_rank(3),
        ),
        (
            "coll-healthy",
            1,
            FaultSpec::healthy().with_seed(3).drop_per_mille(1000),
        ),
    ] {
        lines.push(faulty_line(name, p, faulty_collectives(p, spec)));
    }
    lines.push(faulty_line("rank-failure", 4, rank_failure(4)));
    lines.extend(app_kernels());
    lines
}

#[test]
fn closure_runtime_reproduces_the_frozen_digest() {
    let frozen: Vec<&str> = TABLE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for threads in ["1", "8"] {
        std::env::set_var("PVS_THREADS", threads);
        let fresh = digest();
        let drift: Vec<String> = fresh
            .iter()
            .zip(
                frozen
                    .iter()
                    .copied()
                    .map(Some)
                    .chain(std::iter::repeat(None)),
            )
            .filter(|(f, t)| Some(f.as_str()) != *t)
            .map(|(f, t)| format!("  fresh:  {f}\n  frozen: {}", t.unwrap_or("<missing>")))
            .collect();
        assert!(
            drift.is_empty() && fresh.len() == frozen.len(),
            "PVS_THREADS={threads}: {} of {} lines drifted ({} frozen):\n{}\nfull fresh table:\n{}",
            drift.len(),
            fresh.len(),
            frozen.len(),
            drift.join("\n"),
            fresh.join("\n")
        );
    }
}
