//! Weak-scaling communication kernel for GTC on both mpisim front ends.
//!
//! GTC's dominant communication is the toroidal particle shift
//! ([`crate::shift`]): particles that crossed a domain boundary hop to
//! the next poloidal plane, possibly several planes over, and the loop
//! repeats until a global reduction reports every particle settled.
//! That makes the kernel *data-dependent* — the number of rounds is
//! known only at runtime — so the [`RankProgram`] form is a real
//! continuation, not a fixed script: each `resume` decides the next op
//! from the [`Reply::MaxReduced`] that closed the previous round.

use pvs_mpisim::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimStats, Step};
use pvs_mpisim::{Comm, CommStats};

/// A migrating marker particle: `(weight, hops_remaining)`.
type Particle = (f64, u32);

const TAG_SHIFT_BASE: u64 = 0x40;

/// The deterministic initial population of one rank: a few particles
/// with 0–3 hops left, weights carrying a cancellation probe.
fn seed_particles(rank: usize, size: usize) -> Vec<Particle> {
    let count = rank % 4 + 1;
    (0..count)
        .map(|i| {
            let w = [1e16, 1.0, -1e16, 0.5][(rank + i) % 4] + (rank * 13 + i) as f64 * 1e-2;
            let hops = ((rank + i) % 4) as u32 % ((size as u32).max(2));
            (w, hops)
        })
        .collect()
}

fn max_hops(particles: &[Particle]) -> f64 {
    particles.iter().map(|&(_, h)| h).max().unwrap_or(0) as f64
}

/// Split off the particles that still need to move, decrementing their
/// hop counts, and flatten them for the wire.
fn departures(particles: &mut Vec<Particle>) -> Vec<f64> {
    let mut flat = Vec::new();
    particles.retain(|&(w, h)| {
        if h > 0 {
            flat.push(w);
            flat.push((h - 1) as f64);
            false
        } else {
            true
        }
    });
    flat
}

fn arrivals(particles: &mut Vec<Particle>, flat: &[f64]) {
    for pair in flat.chunks_exact(2) {
        particles.push((pair[0], pair[1] as u32));
    }
}

/// Weight checksum folded in stable local order.
fn weight_sum(particles: &[Particle]) -> f64 {
    particles.iter().fold(0.0, |a, &(w, _)| a + w)
}

/// The closure form: shift rounds until the global max hop count is 0,
/// then reduce the settled weights.
fn shift_v1(comm: &mut Comm) -> Vec<f64> {
    let rank = comm.rank();
    let size = comm.size();
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    let mut particles = seed_particles(rank, size);
    let mut round = 0u64;
    while comm.allreduce_max_scalar(max_hops(&particles)) > 0.0 {
        let tag = TAG_SHIFT_BASE + round;
        comm.send(right, tag, departures(&mut particles));
        let incoming = comm.recv(left, tag);
        arrivals(&mut particles, &incoming);
        round += 1;
    }
    comm.allreduce_sum(&[weight_sum(&particles), particles.len() as f64])
}

/// The same loop as a [`RankProgram`] continuation.
pub struct ShiftScaleProgram {
    particles: Vec<Particle>,
    round: u64,
    state: ShiftState,
}

enum ShiftState {
    /// Waiting for the round-gate reduction.
    AwaitMax,
    /// Waiting for this round's send to complete.
    AwaitSent,
    /// Waiting for this round's arrivals.
    AwaitRecv,
    /// Waiting for the final weight reduction.
    AwaitSum,
}

impl ShiftScaleProgram {
    /// The kernel for `rank` of `size`.
    pub fn new(rank: usize, size: usize) -> Self {
        ShiftScaleProgram {
            particles: seed_particles(rank, size),
            round: 0,
            state: ShiftState::AwaitMax,
        }
    }

    fn gate(&mut self) -> Step<Vec<f64>> {
        self.state = ShiftState::AwaitMax;
        Step::Op(Op::AllreduceMaxScalar {
            x: max_hops(&self.particles),
        })
    }
}

impl RankProgram for ShiftScaleProgram {
    type Output = Vec<f64>;

    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let right = (ctx.rank + 1) % ctx.size;
        let left = (ctx.rank + ctx.size - 1) % ctx.size;
        match (&self.state, reply) {
            (_, Reply::Start) => self.gate(),
            (ShiftState::AwaitMax, Reply::MaxReduced(Ok(m))) => {
                if m > 0.0 {
                    self.state = ShiftState::AwaitSent;
                    Step::Op(Op::Send {
                        dst: right,
                        tag: TAG_SHIFT_BASE + self.round,
                        data: departures(&mut self.particles),
                    })
                } else {
                    self.state = ShiftState::AwaitSum;
                    Step::Op(Op::AllreduceSum {
                        data: vec![weight_sum(&self.particles), self.particles.len() as f64],
                    })
                }
            }
            (ShiftState::AwaitSent, Reply::Sent(Ok(()))) => {
                self.state = ShiftState::AwaitRecv;
                Step::Op(Op::Recv {
                    src: left,
                    tag: TAG_SHIFT_BASE + self.round,
                })
            }
            (ShiftState::AwaitRecv, Reply::Received(Ok(incoming))) => {
                arrivals(&mut self.particles, &incoming);
                self.round += 1;
                self.gate()
            }
            (ShiftState::AwaitSum, Reply::Reduced(Ok(v))) => Step::Finish(v),
            (_, other) => panic!("unexpected reply in shift kernel: {other:?}"),
        }
    }
}

/// Run the kernel through the closure front end ([`pvs_mpisim::run`]).
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    pvs_mpisim::run(p, |mut comm| {
        let out = shift_v1(&mut comm);
        (out, comm.stats())
    })
}

/// Run the kernel as [`RankProgram`]s on `threads` pool workers.
pub fn run_scale_v2(p: usize, threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let report = EventSim::new(p)
        .threads(threads)
        .run(ShiftScaleProgram::new);
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
    fn v2_shift_kernel_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, _) = run_scale_v2(p, 2);
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
    fn shift_conserves_particles_and_weight() {
        let (v2, _) = run_scale_v2(8, 2);
        // Settled-particle count survives the migration (weights cancel
        // by construction, so pin the count channel).
        let total: f64 = (0..8).map(|r| seed_particles(r, 8).len() as f64).sum();
        for (v, _) in &v2 {
            assert_eq!(v[1], total);
        }
    }
}
