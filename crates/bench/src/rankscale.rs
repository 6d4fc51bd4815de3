//! The `rankscale` binary's engine: weak-scaling the four applications'
//! communication kernels to 10⁵ virtual ranks on the event-driven
//! mpisim runtime.
//!
//! The closure front end (`pvs_mpisim::run`) spends an OS thread per
//! rank, so it tops out around the host's thread limit. The paper's
//! largest configurations (LBMHD 8192² on P = 8192, the Earth Simulator
//! weak-scaling studies) run instead as `RankProgram` continuations the
//! scheduler multiplexes over a small worker pool, so this sweep runs
//! the per-app scale kernels (`pvs_lbmhd::scale`, `pvs_gtc::scale`,
//! `pvs_cactus::scale`, `pvs_paratec::scale`) at rank counts up to
//! 131 072.
//!
//! **Identity gate:** before any cell runs, every app's kernel is
//! executed in *both* forms (closure `run_scale_v1`, program
//! `run_scale_v2`) at small P and compared bit-for-bit (values and
//! per-rank traffic). A mismatch hard-fails the whole run — scale
//! numbers from a program that diverged from the real kernel's closure
//! form are worthless.
//!
//! The output document reuses the `pvs-bench/profile-v2` schema so the
//! `compare` sentinel gates it exactly like `BENCH_sweep.json`. The
//! model axes are synthetic but deterministic:
//!
//! * `model.time_s`  — total simulator events (resumes + routed
//!   messages + completed collectives);
//! * `model.comm_s`  — the communication share (messages + collectives);
//! * `model.gflops_per_p` — an FNV-1a checksum of every rank's output
//!   bits in rank order, folded below 2⁵³ so it round-trips f64 JSON
//!   exactly. Any behavioural drift anywhere in the runtime moves it.

use crate::profile::{CellProfile, ProfileOptions, ProfileOutput, SweepCell};
use pvs_core::report::{PerfReport, PhaseBreakdown};
use pvs_mpisim::event::SimStats;
use pvs_mpisim::CommStats;
use pvs_obs::span::TraceBuffer;
use pvs_obs::Registry;

/// One rank-scaling cell: an application kernel at a rank count.
#[derive(Debug, Clone, Copy)]
pub struct RankScaleCell {
    /// Application name (`LBMHD`, `PARATEC`, `CACTUS`, `GTC`).
    pub app: &'static str,
    /// Virtual rank count.
    pub procs: usize,
}

type KernelV1 = fn(usize) -> Vec<(Vec<f64>, CommStats)>;
type KernelV2 = fn(usize, usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats);

/// The closure and program entry points for one application's kernel.
fn kernels(app: &str) -> (KernelV1, KernelV2) {
    match app {
        "LBMHD" => (pvs_lbmhd::scale::run_scale_v1, pvs_lbmhd::scale::run_scale_v2),
        "GTC" => (pvs_gtc::scale::run_scale_v1, pvs_gtc::scale::run_scale_v2),
        "CACTUS" => (pvs_cactus::scale::run_scale_v1, pvs_cactus::scale::run_scale_v2),
        "PARATEC" => (
            pvs_paratec::scale::run_scale_v1,
            pvs_paratec::scale::run_scale_v2,
        ),
        other => panic!("unknown rankscale app {other:?}"),
    }
}

/// The full weak-scaling ladder. PARATEC stops early: its kernel is a
/// dense personalized all-to-all, so traffic (and simulator memory)
/// grows as P², exactly the bisection-bandwidth wall §5 of the paper
/// attributes its scaling limit to.
pub fn weak_scaling_cells() -> Vec<RankScaleCell> {
    let mut cells = Vec::new();
    for procs in [64usize, 1024, 8192, 65536, 131072] {
        cells.push(RankScaleCell { app: "LBMHD", procs });
    }
    for procs in [64usize, 1024, 8192, 65536, 131072] {
        cells.push(RankScaleCell { app: "GTC", procs });
    }
    for procs in [64usize, 1024, 8192, 65536] {
        cells.push(RankScaleCell { app: "CACTUS", procs });
    }
    for procs in [64usize, 256, 1024] {
        cells.push(RankScaleCell { app: "PARATEC", procs });
    }
    cells
}

/// The CI subset: every app at P = 64 plus the headline LBMHD cell at
/// P = 65536 — the "more virtual ranks than the host could ever thread"
/// configuration the event-driven runtime exists for.
pub fn smoke_cells() -> Vec<RankScaleCell> {
    vec![
        RankScaleCell { app: "LBMHD", procs: 64 },
        RankScaleCell { app: "GTC", procs: 64 },
        RankScaleCell { app: "CACTUS", procs: 64 },
        RankScaleCell { app: "PARATEC", procs: 64 },
        RankScaleCell { app: "LBMHD", procs: 65536 },
    ]
}

/// Rank counts the identity gate replays in both forms.
pub const IDENTITY_P: [usize; 3] = [2, 4, 16];

/// Run every app's kernel in both forms at [`IDENTITY_P`] and demand
/// bit-identical values and traffic statistics.
pub fn verify_identity(threads: usize) -> Result<(), String> {
    for app in ["LBMHD", "GTC", "CACTUS", "PARATEC"] {
        let (v1_run, v2_run) = kernels(app);
        for p in IDENTITY_P {
            let v1 = v1_run(p);
            let (v2, _) = v2_run(p, threads);
            if v1.len() != v2.len() {
                return Err(format!(
                    "{app} P={p}: rank count diverged (v1 {} vs v2 {})",
                    v1.len(),
                    v2.len()
                ));
            }
            for (rank, ((a, sa), (b, sb))) in v1.iter().zip(&v2).enumerate() {
                let a_bits: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
                if a_bits != b_bits {
                    return Err(format!(
                        "{app} P={p} rank {rank}: values diverged (v1 {a:?} vs v2 {b:?})"
                    ));
                }
                if sa != sb {
                    return Err(format!(
                        "{app} P={p} rank {rank}: traffic diverged (v1 {sa:?} vs v2 {sb:?})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// FNV-1a over every rank's output bits in rank order, folded below 2⁵³
/// so the checksum survives the f64 JSON round-trip exactly.
fn output_checksum(per_rank: &[(Vec<f64>, CommStats)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (values, _) in per_rank {
        for x in values {
            for byte in x.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h % (1u64 << 53)
}

/// Run one cell on the event-driven runtime and render it as a
/// profile-v2 cell.
fn run_cell(cell: RankScaleCell, threads: usize) -> CellProfile {
    let (_, v2_run) = kernels(cell.app);
    let started = std::time::Instant::now();
    let (per_rank, sim) = v2_run(cell.procs, threads);
    let host_s = started.elapsed().as_secs_f64();

    let reg = Registry::new();
    sim.record_to(&reg);
    let total_bytes: u64 = per_rank.iter().map(|(_, s)| s.bytes_sent).sum();
    let events = sim.resumes + sim.messages + sim.collectives;
    let comm_events = sim.messages + sim.collectives;
    let report = PerfReport {
        machine: "mpisim-v2".to_string(),
        procs: sim.ranks as usize,
        time_s: events as f64,
        comm_s: comm_events as f64,
        flops_per_p: total_bytes as f64,
        gflops_per_p: output_checksum(&per_rank) as f64,
        pct_peak: 0.0,
        vector_metrics: None,
        phases: vec![
            PhaseBreakdown {
                name: "resume".to_string(),
                seconds: sim.resumes as f64,
                flops: 0.0,
                is_comm: false,
            },
            PhaseBreakdown {
                name: "p2p".to_string(),
                seconds: sim.messages as f64,
                flops: 0.0,
                is_comm: true,
            },
            PhaseBreakdown {
                name: "collectives".to_string(),
                seconds: sim.collectives as f64,
                flops: 0.0,
                is_comm: true,
            },
        ],
    };
    CellProfile {
        cell: SweepCell {
            app: cell.app,
            config: "weak-scaling",
            machine: "mpisim-v2",
            procs: cell.procs,
        },
        report,
        snapshot: reg.snapshot(),
        trace: TraceBuffer::new(),
        span_events: 0,
        host_secs: vec![host_s],
    }
}

/// Run the sweep: the identity gate first, then the cells serially (a
/// 10⁵-rank cell owns the worker pool; running cells concurrently would
/// multiply peak memory, not throughput).
pub fn run_rankscale(cells: &[RankScaleCell], threads: usize) -> Result<ProfileOutput, String> {
    verify_identity(threads)?;
    let profiles = cells.iter().map(|&c| run_cell(c, threads)).collect();
    Ok(ProfileOutput {
        cells: profiles,
        harness: Registry::new().snapshot(),
        options: ProfileOptions {
            observe: true,
            host_samples: 1,
            threads,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_set_includes_the_headline_cell() {
        let cells = smoke_cells();
        assert!(cells.iter().any(|c| c.app == "LBMHD" && c.procs == 65536));
        for app in ["LBMHD", "GTC", "CACTUS", "PARATEC"] {
            assert!(cells.iter().any(|c| c.app == app && c.procs == 64));
        }
    }

    #[test]
    fn ladder_reaches_past_1e5_ranks() {
        let cells = weak_scaling_cells();
        assert!(cells.iter().any(|c| c.procs > 100_000));
        // PARATEC's dense all-to-all is capped (P² traffic).
        let paratec_max = cells
            .iter()
            .filter(|c| c.app == "PARATEC")
            .map(|c| c.procs)
            .max()
            .unwrap();
        assert!(paratec_max <= 1024);
    }

    #[test]
    fn identity_gate_passes() {
        verify_identity(2).expect("v1 and v2 agree bit-for-bit");
    }

    #[test]
    fn cells_are_thread_count_independent() {
        let cell = RankScaleCell { app: "GTC", procs: 64 };
        let a = run_cell(cell, 1);
        let b = run_cell(cell, 4);
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!(a.report.time_s, b.report.time_s);
        assert_eq!(a.report.comm_s, b.report.comm_s);
        assert_eq!(a.report.gflops_per_p, b.report.gflops_per_p);
    }

    #[test]
    fn document_round_trips_through_the_sentinel_loader() {
        let out = run_rankscale(
            &[
                RankScaleCell { app: "LBMHD", procs: 64 },
                RankScaleCell { app: "PARATEC", procs: 64 },
            ],
            2,
        )
        .expect("identity gate passes");
        let json = out.to_json();
        assert!(json.contains("\"schema\": \"pvs-bench/profile-v2\""));
        assert!(json.contains("\"machine\": \"mpisim-v2\""));
        assert!(json.contains("\"mpisim.sim.ranks\""));
        let doc = pvs_analyze::profiledoc::load(&json).expect("loadable profile doc");
        assert_eq!(doc.cells.len(), 2);
    }

    #[test]
    fn checksum_moves_when_output_moves() {
        let a = vec![(vec![1.0, 2.0], CommStats::default())];
        let b = vec![(vec![1.0, 2.0000000001], CommStats::default())];
        assert_ne!(output_checksum(&a), output_checksum(&b));
        assert!(output_checksum(&a) < (1 << 53));
    }
}
