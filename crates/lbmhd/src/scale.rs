//! Weak-scaling communication kernel for LBMHD on both mpisim front ends.
//!
//! The distributed solver ([`crate::parallel`]) exchanges a one-cell
//! ghost ring over a 2D processor grid every step. This module distils
//! that pattern into a self-contained kernel — four ring shifts (east,
//! west, north, south) followed by the diagnostics allreduce — written
//! twice: as a closure over [`Comm`] and as a [`RankProgram`]
//! continuation. Both run on the same scheduler and are pinned
//! bit-identical at small P; the scale harness runs the program form at
//! the paper's largest configurations (8192² lattice on P = 8192, weak
//! scaling to 10⁵ ranks), where the closure form's thread per rank is
//! impossible.

use pvs_mpisim::cart::Cart2d;
use pvs_mpisim::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimStats, Step};
use pvs_mpisim::{Comm, CommStats};

/// Doubles per boundary strip (SITE_VALUES-sized ghost payload).
pub const STRIP: usize = 24;

const TAG_E: u64 = 0x10;
const TAG_W: u64 = 0x11;
const TAG_N: u64 = 0x12;
const TAG_S: u64 = 0x13;

/// The boundary strip rank `rank` ships in direction `dir` (0..4):
/// deterministic, with a cancellation probe so reduction order shows.
fn strip(rank: usize, dir: usize) -> Vec<f64> {
    (0..STRIP)
        .map(|i| {
            let base = ((rank * 131 + dir * 17 + i) % 997) as f64 * 1e-3;
            if i == 0 {
                base + [1e16, 1.0, -1e16][rank % 3]
            } else {
                base
            }
        })
        .collect()
}

/// Fold a received strip into the running diagnostic (position-weighted
/// so transposed deliveries cannot cancel out).
fn absorb(acc: f64, data: &[f64]) -> f64 {
    data.iter()
        .enumerate()
        .fold(acc, |a, (i, x)| a + x * (i % 7 + 1) as f64)
}

/// One full exchange + diagnostics pass over `comm` — the closure form.
fn exchange_v1(comm: &mut Comm, cart: &Cart2d) -> Vec<f64> {
    let rank = comm.rank();
    let [e, w, n, s] = cart.neighbors4(rank);
    let mut acc = 0.0;
    // Ring shifts: everyone sends the same direction, so each receive
    // is satisfied by the opposite neighbour's send.
    comm.send(e, TAG_E, strip(rank, 0));
    acc = absorb(acc, &comm.recv(w, TAG_E));
    comm.send(w, TAG_W, strip(rank, 1));
    acc = absorb(acc, &comm.recv(e, TAG_W));
    comm.send(n, TAG_N, strip(rank, 2));
    acc = absorb(acc, &comm.recv(s, TAG_N));
    comm.send(s, TAG_S, strip(rank, 3));
    acc = absorb(acc, &comm.recv(n, TAG_S));
    comm.allreduce_sum(&[acc, rank as f64 + 0.25])
}

/// The same kernel as a [`RankProgram`] continuation: each `resume`
/// turns the reply to the previous phase into the next exchange op.
pub struct HaloScaleProgram {
    rank: usize,
    cart: Cart2d,
    acc: f64,
    phase: u8,
}

impl HaloScaleProgram {
    /// The kernel for one rank of `cart`.
    pub fn new(rank: usize, cart: Cart2d) -> Self {
        HaloScaleProgram {
            rank,
            cart,
            acc: 0.0,
            phase: 0,
        }
    }
}

impl RankProgram for HaloScaleProgram {
    type Output = Vec<f64>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let [e, w, n, s] = self.cart.neighbors4(self.rank);
        if let Reply::Received(Ok(data)) = &reply {
            self.acc = absorb(self.acc, data);
        }
        let step = self.phase;
        self.phase += 1;
        match step {
            0 => Step::Op(Op::Send {
                dst: e,
                tag: TAG_E,
                data: strip(self.rank, 0),
            }),
            1 => Step::Op(Op::Recv { src: w, tag: TAG_E }),
            2 => Step::Op(Op::Send {
                dst: w,
                tag: TAG_W,
                data: strip(self.rank, 1),
            }),
            3 => Step::Op(Op::Recv { src: e, tag: TAG_W }),
            4 => Step::Op(Op::Send {
                dst: n,
                tag: TAG_N,
                data: strip(self.rank, 2),
            }),
            5 => Step::Op(Op::Recv { src: s, tag: TAG_N }),
            6 => Step::Op(Op::Send {
                dst: s,
                tag: TAG_S,
                data: strip(self.rank, 3),
            }),
            7 => Step::Op(Op::Recv { src: n, tag: TAG_S }),
            8 => Step::Op(Op::AllreduceSum {
                data: vec![self.acc, self.rank as f64 + 0.25],
            }),
            _ => match reply {
                Reply::Reduced(Ok(v)) => Step::Finish(v),
                other => panic!("unexpected reply in halo kernel: {other:?}"),
            },
        }
    }
}

/// Run the kernel through the closure front end ([`pvs_mpisim::run`],
/// one OS thread per rank).
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart2d::near_square(p);
    pvs_mpisim::run(cart.size(), move |mut comm| {
        let out = exchange_v1(&mut comm, &cart);
        (out, comm.stats())
    })
}

/// Run the kernel as [`RankProgram`]s (virtual ranks on `threads` pool
/// workers).
pub fn run_scale_v2(p: usize, threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart2d::near_square(p);
    let report = EventSim::new(cart.size())
        .threads(threads)
        .run(|rank, _| HaloScaleProgram::new(rank, cart));
    let sim = report.sim;
    let per_rank = report
        .outcomes
        .into_iter()
        .zip(report.comm_stats)
        .map(|(o, stats)| match o.value() {
            Some(v) => (v.clone(), stats.expect("healthy rank has stats")),
            None => unreachable!("healthy run"),
        })
        .collect();
    (per_rank, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_halo_kernel_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
            assert_eq!(v1.len(), v2.len());
            assert_eq!(sim.ranks as usize, v1.len());
            for (rank, ((a, sa), (b, sb))) in v1.iter().zip(&v2).enumerate() {
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "p={p} rank={rank}"
                );
                assert_eq!(sa, sb, "traffic p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn diagnostic_is_identical_on_every_rank() {
        let (v2, _) = run_scale_v2(8, 2);
        let first = &v2[0].0;
        for (rank, (v, _)) in v2.iter().enumerate() {
            assert_eq!(
                first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "rank {rank}"
            );
        }
    }
}
