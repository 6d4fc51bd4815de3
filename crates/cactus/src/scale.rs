//! Weak-scaling communication kernel for Cactus on both mpisim front ends.
//!
//! Cactus exchanges six ghost faces over a 3D processor grid each
//! evolution step ([`crate::halo`]) and closes the step with a global
//! constraint-norm reduction. The schedule is fixed — no op depends on
//! received data — so the program form reuses [`ScriptProgram`] directly:
//! the same op list a [`pvs_mpisim::Comm`] closure executes, replayed by the
//! event-driven scheduler. Received faces and the reduced norm are
//! folded into a checksum by shared helpers so both front ends produce
//! comparable values.

use pvs_mpisim::cart::Cart3d;
use pvs_mpisim::event::{EventSim, Op, Reply, ScriptProgram, SimStats};
use pvs_mpisim::CommStats;

/// Doubles per ghost face.
pub const FACE: usize = 16;

const TAG_FACE_BASE: u64 = 0x20;

/// The face rank `rank` ships in direction `dir` (0..6).
fn face(rank: usize, dir: usize) -> Vec<f64> {
    (0..FACE)
        .map(|i| {
            let base = ((rank * 167 + dir * 29 + i) % 1009) as f64 * 1e-3;
            if i == 0 {
                base + [1e16, 1.0, -1e16][rank % 3]
            } else {
                base
            }
        })
        .collect()
}

/// Local contribution to the constraint norm (data-independent).
fn residual(rank: usize) -> f64 {
    (rank % 5) as f64 * 0.125 + 1.0
}

/// Fold the six received faces and the reduced norm into the kernel's
/// output vector `[checksum, norm]` — shared by both front ends.
fn fold_output(received: &[Vec<f64>], norm: f64) -> Vec<f64> {
    let checksum = received.iter().fold(0.0, |acc, f| {
        f.iter()
            .enumerate()
            .fold(acc, |a, (i, x)| a + x * (i % 5 + 1) as f64)
    });
    vec![checksum, norm]
}

/// The fixed op schedule for one rank: for each axis, a ring shift in
/// the plus direction then the minus direction, then the norm reduce.
fn schedule(rank: usize, cart: &Cart3d) -> Vec<Op> {
    let nbrs = cart.neighbors6(rank); // [+x, -x, +y, -y, +z, -z]
    let mut ops = Vec::with_capacity(13);
    for axis in 0..3 {
        let plus = nbrs[2 * axis];
        let minus = nbrs[2 * axis + 1];
        let tag_p = TAG_FACE_BASE + 2 * axis as u64;
        let tag_m = TAG_FACE_BASE + 2 * axis as u64 + 1;
        // Shift in +axis: send to plus, receive from minus.
        ops.push(Op::Send {
            dst: plus,
            tag: tag_p,
            data: face(rank, 2 * axis),
        });
        ops.push(Op::Recv {
            src: minus,
            tag: tag_p,
        });
        // Shift in -axis.
        ops.push(Op::Send {
            dst: minus,
            tag: tag_m,
            data: face(rank, 2 * axis + 1),
        });
        ops.push(Op::Recv { src: plus, tag: tag_m });
    }
    ops.push(Op::AllreduceMaxScalar { x: residual(rank) });
    ops
}

/// Run the kernel through the closure front end ([`pvs_mpisim::run`]).
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart3d::near_cubic(p);
    pvs_mpisim::run(cart.size(), move |mut comm| {
        let rank = comm.rank();
        let mut received = Vec::with_capacity(6);
        // Execute exactly the ScriptProgram schedule through Comm.
        for op in schedule(rank, &cart) {
            match op {
                Op::Send { dst, tag, data } => comm.send(dst, tag, data),
                Op::Recv { src, tag } => received.push(comm.recv(src, tag)),
                Op::AllreduceMaxScalar { x } => {
                    let norm = comm.allreduce_max_scalar(x);
                    let out = fold_output(&received, norm);
                    return (out, comm.stats());
                }
                other => unreachable!("not in the Cactus schedule: {other:?}"),
            }
        }
        unreachable!("schedule always ends in the norm reduce")
    })
}

/// Run the kernel as [`ScriptProgram`]s on `threads` pool workers.
pub fn run_scale_v2(p: usize, threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart3d::near_cubic(p);
    let report = EventSim::new(cart.size())
        .threads(threads)
        .run(|rank, _| ScriptProgram::new(schedule(rank, &cart)));
    let sim = report.sim;
    let per_rank = report
        .outcomes
        .into_iter()
        .zip(report.comm_stats)
        .map(|(o, stats)| {
            let replies = o.value().expect("healthy run");
            let mut received = Vec::with_capacity(6);
            let mut norm = f64::NAN;
            for reply in replies {
                match reply {
                    Reply::Sent(Ok(())) => {}
                    Reply::Received(Ok(data)) => received.push(data.clone()),
                    Reply::MaxReduced(Ok(m)) => norm = *m,
                    other => unreachable!("not in the Cactus schedule: {other:?}"),
                }
            }
            (fold_output(&received, norm), stats.expect("healthy rank"))
        })
        .collect();
    (per_rank, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_face_exchange_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
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
    fn norm_is_global_max_of_residuals() {
        let (v2, _) = run_scale_v2(8, 2);
        let expected = (0..v2.len()).map(residual).fold(f64::MIN, f64::max);
        for (v, _) in &v2 {
            assert_eq!(v[1], expected);
        }
    }
}
