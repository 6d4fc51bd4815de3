//! The closure front end: ranks as blocking OS threads over the event
//! scheduler.
//!
//! Each rank closure runs on its own scoped thread and sees ordinary
//! blocking calls, but every method only posts an [`Op`] to the
//! [`EventSim`] scheduler and waits for the matching [`Reply`]. A
//! private [`RankProgram`] adapter hands each `(RankCtx, Reply)` to its
//! thread and returns the thread's next op, so matching, collective
//! folds, traffic charging and fault draws all live in
//! [`crate::event`]. Collectives return **canonical, rank-order
//! results**: every rank receives the bitwise identical value even for
//! non-associative floating-point sums.
//!
//! Because the scheduler resumes at most one op per rank at a time, the
//! threads run like coroutines: a rank thread executes only between
//! receiving a reply and posting its next op. A receive or collective
//! that no rank can complete ends in the scheduler's "deadlocked"
//! diagnosis, and a panicking rank re-raises its own payload from
//! [`run`].

use crate::event::{EventSim, Op, RankCtx, RankProgram, Reply, Step};
use crate::fault::RankOutcome;
use crate::tags::assert_user_tag;
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Communication statistics for one rank, used to calibrate the
/// performance model's communication phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub messages_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
}

/// A pending nonblocking receive (see [`Comm::irecv`]). Sends complete
/// immediately in this runtime, so only receives need request objects.
#[derive(Debug, Clone, Copy)]
#[must_use = "complete the request with Comm::wait"]
pub struct RecvRequest {
    src: usize,
    tag: u64,
}

/// Unwind payload of a rank thread whose scheduler went away, and of a
/// scheduler whose rank thread went away. Never reported as the cause
/// of a failed run: the panic that started the unwind is.
struct Unwound;

fn unwound() -> ! {
    resume_unwind(Box::new(Unwound))
}

/// A rank thread's connection to the scheduler: post one op, block for
/// its reply. `None` on `ops` reports that the closure returned.
pub(crate) struct Link {
    ops: Sender<Option<Op>>,
    replies: Receiver<(RankCtx, Reply)>,
    ctx: RankCtx,
}

impl Link {
    /// Wait for the scheduler's first resume, which carries the context.
    fn connect(ops: Sender<Option<Op>>, replies: Receiver<(RankCtx, Reply)>) -> Self {
        let Ok((ctx, _start)) = replies.recv() else {
            unwound()
        };
        Link { ops, replies, ctx }
    }

    /// This rank's context as of the last reply.
    pub(crate) fn ctx(&self) -> &RankCtx {
        &self.ctx
    }

    /// Perform `op` and block until the scheduler completes it.
    pub(crate) fn call(&mut self, op: Op) -> Reply {
        if self.ops.send(Some(op)).is_err() {
            unwound();
        }
        let Ok((ctx, reply)) = self.replies.recv() else {
            unwound()
        };
        self.ctx = ctx;
        reply
    }
}

/// Panic on a reply that does not answer the op just posted.
pub(crate) fn unexpected(reply: Reply) -> ! {
    unreachable!("the scheduler answered with {reply:?}")
}

/// The scheduler side of a [`Link`]: each resume forwards the reply to
/// the rank thread and returns the op it posts next.
struct ThreadRank {
    replies: Sender<(RankCtx, Reply)>,
    ops: Receiver<Option<Op>>,
}

impl RankProgram for ThreadRank {
    type Output = ();

    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<()> {
        // A send error means the thread is gone; `recv` reports it.
        let _ = self.replies.send((*ctx, reply));
        match self.ops.recv() {
            Ok(Some(op)) => Step::Op(op),
            Ok(None) => Step::Finish(()),
            // The rank panicked; its own payload is re-raised by `launch`.
            Err(_) => unwound(),
        }
    }
}

/// Run `body` on one scoped thread per rank the scheduler `sim` builds,
/// and collect each rank's value and fault accounting in rank order.
///
/// If a rank panics, its payload is re-raised (the lowest rank's, if
/// several did); otherwise a scheduler panic, such as a deadlock
/// diagnosis, is.
pub(crate) fn launch<T, F>(sim: EventSim, body: F) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: Fn(Link) -> T + Sync,
{
    let body = &body;
    std::thread::scope(|scope| {
        let handles = RefCell::new(Vec::new());
        let report = catch_unwind(AssertUnwindSafe(|| {
            sim.run(|_rank, _size| {
                let (ops, op_rx) = channel();
                let (reply_tx, replies) = channel();
                handles.borrow_mut().push(scope.spawn(move || {
                    let done = ops.clone();
                    let value = body(Link::connect(ops, replies));
                    let _ = done.send(None);
                    value
                }));
                ThreadRank {
                    replies: reply_tx,
                    ops: op_rx,
                }
            })
        }));
        // The scheduler and every `ThreadRank` are gone, so each thread
        // has returned or is unwinding with `Unwound`.
        let mut values = Vec::new();
        let mut rank_panic: Option<Box<dyn Any + Send>> = None;
        for handle in handles.into_inner() {
            match handle.join() {
                Ok(value) => values.push(value),
                Err(payload) if !payload.is::<Unwound>() => {
                    rank_panic.get_or_insert(payload);
                }
                Err(_) => {}
            }
        }
        if let Some(payload) = rank_panic {
            resume_unwind(payload);
        }
        let report = report.unwrap_or_else(|payload| resume_unwind(payload));
        let mut values = values.into_iter();
        report
            .outcomes
            .into_iter()
            .map(|o| match o {
                RankOutcome::Completed { faults, .. } => RankOutcome::Completed {
                    // INFALLIBLE: every completed rank's thread returned.
                    value: values.next().expect("one value per completed rank"),
                    faults,
                },
                RankOutcome::Failed => RankOutcome::Failed,
            })
            .collect()
    })
}

/// A rank's endpoint in the communicator (the `MPI_COMM_WORLD` analogue).
pub struct Comm {
    pub(crate) link: Link,
}

impl Comm {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.link.ctx().rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.link.ctx().size
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> CommStats {
        self.link.ctx().comm
    }

    /// Send `data` to rank `dst` with a matching `tag`. The tag must
    /// keep [`crate::tags::COLLECTIVE_BIT`] clear — the top bit is
    /// reserved for the runtime's collectives.
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        match self.link.call(Op::Send { dst, tag, data }) {
            Reply::Sent(Ok(())) => {}
            other => unexpected(other),
        }
    }

    /// Blocking receive of a message from `src` with `tag`. Messages from
    /// other sources/tags arriving first are buffered and matched later.
    /// Like [`Comm::send`], the tag must stay in user space.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        match self.link.call(Op::Recv { src, tag }) {
            Reply::Received(Ok(data)) => data,
            other => unexpected(other),
        }
    }

    /// Post a nonblocking receive for `(src, tag)`. The returned request is
    /// completed with [`Comm::wait`]; matching and buffering behave exactly
    /// like [`Comm::recv`] (the applications' real MPI counterparts post
    /// `irecv`s before computing on the interior).
    pub fn irecv(&mut self, src: usize, tag: u64) -> RecvRequest {
        assert_user_tag(tag);
        RecvRequest { src, tag }
    }

    /// Complete a nonblocking receive.
    pub fn wait(&mut self, req: RecvRequest) -> Vec<f64> {
        self.recv(req.src, req.tag)
    }

    /// Complete a batch of nonblocking receives (`MPI_Waitall`).
    pub fn wait_all(&mut self, reqs: Vec<RecvRequest>) -> Vec<Vec<f64>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Combined send + receive with the same partner (halo exchanges).
    pub fn sendrecv(&mut self, partner: usize, tag: u64, data: Vec<f64>) -> Vec<f64> {
        match self.link.call(Op::Sendrecv { partner, tag, data }) {
            Reply::Exchanged(Ok(data)) => data,
            other => unexpected(other),
        }
    }

    /// Synchronize all ranks (charged as a dissemination barrier).
    pub fn barrier(&mut self) {
        match self.link.call(Op::Barrier) {
            Reply::BarrierDone(Ok(())) => {}
            other => unexpected(other),
        }
    }

    /// Element-wise sum allreduce, folded in **canonical rank order**
    /// x₀ + x₁ + … + x_{P−1} (charged as a gather-to-all ring), so every
    /// rank returns the bitwise identical vector even though
    /// floating-point addition is not associative.
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        match self.link.call(Op::AllreduceSum {
            data: data.to_vec(),
        }) {
            Reply::Reduced(Ok(sum)) => sum,
            other => unexpected(other),
        }
    }

    /// Scalar sum allreduce.
    pub fn allreduce_sum_scalar(&mut self, x: f64) -> f64 {
        self.allreduce_sum(&[x])[0]
    }

    /// Max allreduce for a scalar, folded in canonical rank order like
    /// [`Comm::allreduce_sum`] (max is order-sensitive for NaN inputs).
    pub fn allreduce_max_scalar(&mut self, x: f64) -> f64 {
        match self.link.call(Op::AllreduceMaxScalar { x }) {
            Reply::MaxReduced(Ok(max)) => max,
            other => unexpected(other),
        }
    }

    /// Gather each rank's `data` on every rank (allgather): slot `i`
    /// holds exactly the bytes rank `i` contributed.
    pub fn allgather(&mut self, data: &[f64]) -> Vec<Vec<f64>> {
        match self.link.call(Op::Allgather {
            data: data.to_vec(),
        }) {
            Reply::Gathered(rows) => rows,
            other => unexpected(other),
        }
    }

    /// Broadcast `data` from `root` to all ranks (charged as a binomial
    /// tree: log₂(P) rounds, each rank sending once per child).
    pub fn broadcast(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        match self.link.call(Op::Broadcast { root, data }) {
            Reply::Broadcasted(data) => data,
            other => unexpected(other),
        }
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns what
    /// every rank sent to us, indexed by source.
    pub fn alltoallv(&mut self, sends: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        match self.link.call(Op::Alltoallv { sends }) {
            Reply::Alltoall(rows) => rows,
            other => unexpected(other),
        }
    }
}

/// Launch `nranks` threads, each running `f` with its own [`Comm`]
/// endpoint, and collect the per-rank return values in rank order.
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    launch(EventSim::new(nranks), |link| f(Comm { link }))
        .into_iter()
        .map(|o| match o {
            RankOutcome::Completed { value, .. } => value,
            // INFALLIBLE: a healthy simulation fails no rank.
            RankOutcome::Failed => unreachable!("failed rank in a healthy run"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = run(4, |mut c| {
            let to = (c.rank() + 1) % c.size();
            let from = (c.rank() + c.size() - 1) % c.size();
            c.send(to, 7, vec![c.rank() as f64]);
            c.recv(from, 7)[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_scalar_all_sizes() {
        for n in 1..=7 {
            let results = run(n, |mut c| c.allreduce_sum_scalar((c.rank() + 1) as f64));
            let expect = (n * (n + 1) / 2) as f64;
            assert!(results.iter().all(|&x| x == expect), "n={n}: {results:?}");
        }
    }

    #[test]
    fn allreduce_sum_vector() {
        let results = run(3, |mut c| c.allreduce_sum(&[c.rank() as f64, 1.0]));
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn allreduce_max() {
        let results = run(5, |mut c| c.allreduce_max_scalar(c.rank() as f64 * 1.5));
        assert!(results.iter().all(|&x| x == 6.0));
    }

    #[test]
    fn allgather_orders_by_rank() {
        let results = run(4, |mut c| c.allgather(&[c.rank() as f64 * 10.0]));
        for r in results {
            assert_eq!(r, vec![vec![0.0], vec![10.0], vec![20.0], vec![30.0]]);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let results = run(4, |mut c| {
            let data = if c.rank() == 2 {
                vec![42.0, 43.0]
            } else {
                Vec::new()
            };
            c.broadcast(2, data)
        });
        for r in results {
            assert_eq!(r, vec![42.0, 43.0]);
        }
    }

    #[test]
    fn alltoallv_full_exchange() {
        let results = run(3, |mut c| {
            let sends: Vec<Vec<f64>> = (0..3).map(|d| vec![(c.rank() * 10 + d) as f64]).collect();
            c.alltoallv(sends)
        });
        // Rank r receives from each src s the value s*10 + r.
        for (r, got) in results.iter().enumerate() {
            for (s, v) in got.iter().enumerate() {
                assert_eq!(v[0], (s * 10 + r) as f64, "rank {r} from {s}");
            }
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 was sent first.
                let b = c.recv(0, 2)[0];
                let a = c.recv(0, 1)[0];
                b * 10.0 + a
            }
        });
        assert_eq!(results[1], 21.0);
    }

    #[test]
    fn barrier_completes_for_odd_sizes() {
        for n in [1, 3, 5] {
            let results = run(n, |mut c| {
                c.barrier();
                c.rank()
            });
            assert_eq!(results.len(), n);
        }
    }

    #[test]
    fn nonblocking_receives_overlap_with_work() {
        // Post irecvs first, "compute", send late, then wait-all: the
        // requests must match regardless of arrival order.
        let results = run(3, |mut c| {
            let me = c.rank();
            let reqs: Vec<RecvRequest> = (0..3)
                .filter(|&s| s != me)
                .map(|s| c.irecv(s, 42))
                .collect();
            // "Interior compute" happens here; then send to everyone.
            for dst in 0..3 {
                if dst != me {
                    c.send(dst, 42, vec![me as f64]);
                }
            }
            let got = c.wait_all(reqs);
            got.iter().map(|v| v[0]).sum::<f64>()
        });
        // Each rank sums the other two ranks' ids.
        assert_eq!(results, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn sendrecv_swaps() {
        let results = run(2, |mut c| {
            let partner = 1 - c.rank();
            c.sendrecv(partner, 9, vec![c.rank() as f64])[0]
        });
        assert_eq!(results, vec![1.0, 0.0]);
    }

    #[test]
    fn stats_count_traffic() {
        let results = run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0.0; 100]);
            } else {
                let _ = c.recv(0, 0);
            }
            c.stats()
        });
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[0].bytes_sent, 800);
        assert_eq!(results[1].messages_sent, 0);
    }

    #[test]
    fn zero_length_collectives() {
        // Zero-byte payloads flow through every collective unharmed.
        let results = run(3, |mut c| {
            let summed = c.allreduce_sum(&[]);
            let cast = c.broadcast(1, Vec::new());
            let swapped = c.alltoallv(vec![Vec::new(); 3]);
            (summed.len(), cast.len(), swapped.iter().map(Vec::len).sum::<usize>())
        });
        for r in results {
            assert_eq!(r, (0, 0, 0));
        }
    }

    #[test]
    fn single_rank_collectives_are_identities() {
        let results = run(1, |mut c| {
            let gathered = c.allgather(&[7.0]);
            let swapped = c.alltoallv(vec![vec![1.5]]);
            let cast = c.broadcast(0, vec![2.0]);
            (gathered, swapped, cast)
        });
        assert_eq!(
            results[0],
            (vec![vec![7.0]], vec![vec![1.5]], vec![2.0])
        );
    }

    /// The non-associative probe: 1e16 + 1.0 − 1e16 is 0.0 summed left
    /// to right but 1.0 if the 1.0 survives a different grouping, so any
    /// rank folding in ring-arrival order instead of rank order shows up
    /// as a bitwise mismatch.
    fn probe(rank: usize) -> f64 {
        [1e16, 1.0, -1e16][rank % 3]
    }

    #[test]
    fn allreduce_sum_is_bit_identical_across_ranks() {
        for n in [2usize, 3, 7, 8] {
            let results = run(n, |mut c| c.allreduce_sum(&[probe(c.rank()), 0.1]));
            let canonical: f64 = (1..n).fold(probe(0), |acc, r| acc + probe(r));
            let canonical_tail: f64 = (1..n).fold(0.1, |acc, _| acc + 0.1);
            for r in &results {
                assert_eq!(
                    r[0].to_bits(),
                    canonical.to_bits(),
                    "n={n}: ranks must fold in canonical order 0..P"
                );
                assert_eq!(r[1].to_bits(), canonical_tail.to_bits());
            }
            let bits: Vec<Vec<u64>> = results
                .iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect();
            assert!(bits.windows(2).all(|w| w[0] == w[1]), "n={n}: {results:?}");
        }
    }

    #[test]
    fn allgather_is_bit_identical_across_ranks() {
        for n in [2usize, 3, 7, 8] {
            let results = run(n, |mut c| c.allgather(&[probe(c.rank())]));
            for r in &results {
                assert_eq!(r, &results[0], "n={n}: slot i holds rank i's bits");
            }
            for (i, slot) in results[0].iter().enumerate() {
                assert_eq!(slot[0].to_bits(), probe(i).to_bits());
            }
        }
    }

    #[test]
    fn user_tags_no_longer_collide_with_collectives() {
        // Regression: 0xB0AD_CA57 was the broadcast wire tag; an app
        // message carrying it mis-matched into a concurrent broadcast.
        // With the reserved namespace both flows coexist.
        let results = run(4, |mut c| {
            let me = c.rank();
            if me == 0 {
                c.send(1, 0xB0AD_CA57, vec![99.0]);
            }
            let cast = c.broadcast(0, if me == 0 { vec![7.0] } else { Vec::new() });
            let user = if me == 1 { c.recv(0, 0xB0AD_CA57)[0] } else { 0.0 };
            (cast, user)
        });
        for (r, (cast, user)) in results.iter().enumerate() {
            assert_eq!(cast, &vec![7.0], "rank {r}");
            if r == 1 {
                assert_eq!(*user, 99.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved collective bit")]
    fn reserved_tags_are_rejected_on_send() {
        run(1, |mut c| {
            c.send(0, crate::tags::COLLECTIVE_BIT | 5, vec![1.0])
        });
    }

    #[test]
    #[should_panic(expected = "reserved collective bit")]
    fn reserved_tags_are_rejected_on_irecv() {
        run(1, |mut c| {
            let _ = c.irecv(0, crate::tags::COLLECTIVE_BIT);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_rank_panic_is_re_raised_with_its_own_payload() {
        run(4, |mut c| {
            if c.rank() == 2 {
                panic!("boom");
            }
            // The survivors block in a collective rank 2 never enters.
            c.barrier();
        });
    }

    #[test]
    fn an_unmatched_recv_is_diagnosed_not_hung() {
        let err = std::panic::catch_unwind(|| {
            run(2, |mut c| {
                if c.rank() == 1 {
                    let _ = c.recv(0, 9);
                }
            })
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlocked"), "{msg}");
        assert!(
            msg.contains("rank 1 waiting on recv(src=0, tag=0x9)"),
            "{msg}"
        );
    }

    #[test]
    fn broadcast_uses_a_binomial_tree() {
        // Total messages stay at P−1, but no single rank sends them all:
        // the root's fan-out is log2(P), not P−1.
        let stats = run(8, |mut c| {
            c.broadcast(0, vec![1.0; 4]);
            c.stats()
        });
        let total: u64 = stats.iter().map(|s| s.messages_sent).sum();
        assert_eq!(total, 7);
        assert_eq!(stats[0].messages_sent, 3, "root sends log2(8) messages");
        assert_eq!(stats[0].bytes_sent, 3 * 32);
        // Interior nodes forward: rank 4 feeds ranks 5, 6.
        assert_eq!(stats[4].messages_sent, 2);
        assert_eq!(stats[7].messages_sent, 0, "leaves only receive");
    }

    #[test]
    fn single_rank_world() {
        let results = run(1, |mut c| {
            c.barrier();
            c.allreduce_sum_scalar(5.0)
        });
        assert_eq!(results, vec![5.0]);
    }
}
