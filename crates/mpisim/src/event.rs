//! The event-driven rank runtime: the one implementation of message
//! matching, collectives, traffic charging and fault draws.
//!
//! Virtual ranks are **continuation-style tasks** multiplexed over the
//! shared [`pvs_core::ThreadPool`], scheduled by the simulated-picosecond
//! event core ([`pvs_core::EventQueue`]) that also drives the fault
//! planner. A rank blocked in a receive or a collective *parks* — its
//! continuation is keyed on what it waits for and rescheduled when the
//! matching packet arrives or the collective completes — so P is bounded
//! by memory, not by thread count (the weak-scaling skeletons run 10⁵
//! ranks). The closure API ([`crate::run`], [`crate::run_faulty`]) is a
//! blocking front end on this scheduler: each closure thread is one
//! [`RankProgram`] that posts its ops and waits for the replies.
//!
//! ## Programming model
//!
//! Stable std Rust has no stackful coroutines, so a virtual rank is an
//! explicit state machine implementing [`RankProgram`]: the scheduler
//! calls [`RankProgram::resume`] with the [`Reply`] to the previously
//! requested [`Op`] ([`Reply::Start`] first), and the program answers
//! with its next op or [`Step::Finish`]. [`ScriptProgram`] covers the
//! common case of a fixed op sequence.
//!
//! ## Scheduling determinism rule
//!
//! Results are bit-identical at any host thread count because
//!
//! 1. every event carries `(at_ps, seq)` and drains in that order
//!    ([`EventQueue`] keeps FIFO among equal timestamps);
//! 2. one *batch* = every rank runnable at the earliest timestamp; the
//!    batch is resumed in parallel via [`ThreadPool::map`] (input-order
//!    results), but each rank touches only its own state and mailbox;
//! 3. all cross-rank effects (packet delivery, wakeups, collective
//!    completion) are applied **serially, in batch order**, after the
//!    parallel phase.
//!
//! ## Collectives
//!
//! Collectives are computed centrally when every participant has
//! entered: values are folded in **canonical rank order**, and each
//! rank's [`CommStats`] is charged arithmetically from a fixed message
//! schedule (dissemination barrier, gather-to-all ring allreduce and
//! allgather, binomial-tree broadcast, rotation all-to-all). Under fault
//! injection the barrier and sum allreduce replay that schedule message
//! by message, each drawing its own seeded drop/delay decisions (the
//! draw is a pure function of the message coordinates). A message that
//! exhausts its retries fails every participant with the first timeout
//! in schedule order.

use crate::caf::CoArray;
use crate::comm::CommStats;
use crate::fault::{
    attempt_lost, message_delayed, retry_backoff_ps, FaultError, FaultSpec, FaultStats,
    RankOutcome,
};
use crate::tags::assert_user_tag;
use pvs_core::{EventQueue, ThreadPool};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

/// One operation a rank program asks the scheduler to perform.
#[derive(Debug, Clone)]
pub enum Op {
    /// Send `data` to `dst` with a user-space `tag` (completes
    /// immediately; faulty mode may report drop-exhaustion).
    Send {
        /// Destination rank.
        dst: usize,
        /// User tag (top bit clear).
        tag: u64,
        /// Payload.
        data: Vec<f64>,
    },
    /// Receive from `src` with `tag`; parks until a match arrives.
    Recv {
        /// Source rank.
        src: usize,
        /// User tag (top bit clear).
        tag: u64,
    },
    /// Combined send + receive with one partner (halo exchange).
    Sendrecv {
        /// The partner rank (self is a no-op echo).
        partner: usize,
        /// User tag (top bit clear).
        tag: u64,
        /// Payload.
        data: Vec<f64>,
    },
    /// Dissemination-barrier synchronization.
    Barrier,
    /// Element-wise sum allreduce (canonical rank-order fold).
    AllreduceSum {
        /// This rank's contribution.
        data: Vec<f64>,
    },
    /// Scalar max allreduce (canonical rank-order fold).
    AllreduceMaxScalar {
        /// This rank's contribution.
        x: f64,
    },
    /// Allgather: every rank's contribution, indexed by rank.
    Allgather {
        /// This rank's contribution.
        data: Vec<f64>,
    },
    /// Broadcast from `root` (binomial-tree schedule).
    Broadcast {
        /// The broadcasting rank.
        root: usize,
        /// Payload (ignored on non-root ranks).
        data: Vec<f64>,
    },
    /// Personalized all-to-all: `sends[d]` goes to rank `d`.
    Alltoallv {
        /// Per-destination payloads (`sends.len() == size`).
        sends: Vec<Vec<f64>>,
    },
    /// Collectively create a [`CoArray`] window of `len` doubles.
    CoCreate {
        /// Elements per image.
        len: usize,
    },
}

/// The completion of the previously requested [`Op`], handed to
/// [`RankProgram::resume`]. In a healthy simulation every `Result` is
/// `Ok`; faulty simulations surface [`FaultError`]s.
#[derive(Debug, Clone)]
pub enum Reply {
    /// First resume of the program; no op has completed yet.
    Start,
    /// [`Op::Send`] completed (or timed out / hit a failed rank).
    Sent(Result<(), FaultError>),
    /// [`Op::Recv`] matched (or surfaced the sender's loss).
    Received(Result<Vec<f64>, FaultError>),
    /// [`Op::Sendrecv`] completed.
    Exchanged(Result<Vec<f64>, FaultError>),
    /// [`Op::Barrier`] completed.
    BarrierDone(Result<(), FaultError>),
    /// [`Op::AllreduceSum`] result, identical bits on every rank.
    Reduced(Result<Vec<f64>, FaultError>),
    /// [`Op::AllreduceMaxScalar`] result.
    MaxReduced(Result<f64, FaultError>),
    /// [`Op::Allgather`] result (healthy mode only).
    Gathered(Vec<Vec<f64>>),
    /// [`Op::Broadcast`] result (healthy mode only).
    Broadcasted(Vec<f64>),
    /// [`Op::Alltoallv`] result (healthy mode only).
    Alltoall(Vec<Vec<f64>>),
    /// [`Op::CoCreate`] result (healthy mode only).
    CoCreated(CoArray),
}

/// What a program does after a resume: request the next op or finish.
#[derive(Debug)]
pub enum Step<T> {
    /// Ask the scheduler to perform an operation.
    Op(Op),
    /// The rank is done; its value is collected in rank order.
    Finish(T),
}

/// Read-only per-rank context handed to every resume.
#[derive(Debug, Clone, Copy)]
pub struct RankCtx {
    /// This rank's id in `[0, size)`.
    pub rank: usize,
    /// Number of ranks, failed ones included.
    pub size: usize,
    /// Traffic statistics so far (delivered messages only).
    pub comm: CommStats,
    /// Fault accounting so far (all zero in healthy mode).
    pub faults: FaultStats,
    /// This rank's simulated clock: backoff + delay charged so far.
    pub clock_ps: u64,
}

/// A virtual rank: an explicit continuation resumed by the scheduler.
pub trait RankProgram: Send + 'static {
    /// The per-rank return value, collected in rank order.
    type Output: Send + 'static;

    /// Advance the rank. `reply` completes the previously requested op
    /// ([`Reply::Start`] on the first call).
    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Self::Output>;
}

/// A [`RankProgram`] that executes a fixed op sequence and returns every
/// reply it saw — the workhorse for conformance tests and scale probes
/// whose schedules do not depend on received data.
#[derive(Debug)]
pub struct ScriptProgram {
    ops: VecDeque<Op>,
    replies: Vec<Reply>,
}

impl ScriptProgram {
    /// A program that performs `ops` in order.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptProgram {
            ops: ops.into(),
            replies: Vec::new(),
        }
    }
}

impl RankProgram for ScriptProgram {
    type Output = Vec<Reply>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<Reply>> {
        if !matches!(reply, Reply::Start) {
            self.replies.push(reply);
        }
        match self.ops.pop_front() {
            Some(op) => Step::Op(op),
            None => Step::Finish(std::mem::take(&mut self.replies)),
        }
    }
}

/// Scheduler-level counters for one event-driven run, reported under
/// the `mpisim.sim.*` namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Virtual ranks simulated.
    pub ranks: u64,
    /// Program resumes (continuation invocations).
    pub resumes: u64,
    /// Scheduler batches dispatched to the pool.
    pub batches: u64,
    /// Point-to-point packets routed through the scheduler.
    pub messages: u64,
    /// Times a rank parked (blocked receive or collective entry).
    pub parks: u64,
    /// Times a parked rank was rescheduled by a matching packet.
    pub wakeups: u64,
    /// Collectives completed centrally.
    pub collectives: u64,
    /// High-water mark of simultaneously parked ranks.
    pub peak_parked: u64,
}

impl SimStats {
    /// Report into a [`pvs_obs::Recorder`] under `mpisim.sim.*`.
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.gauge_set("mpisim.sim.ranks", self.ranks);
        r.add("mpisim.sim.resumes", self.resumes);
        r.add("mpisim.sim.batches", self.batches);
        r.add("mpisim.sim.messages", self.messages);
        r.add("mpisim.sim.parks", self.parks);
        r.add("mpisim.sim.wakeups", self.wakeups);
        r.add("mpisim.sim.collectives", self.collectives);
        r.gauge_max("mpisim.sim.peak_parked", self.peak_parked);
    }
}

/// Everything one event-driven run produced.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank results in rank order ([`RankOutcome::Failed`] for ranks
    /// in the fault spec's failed set).
    pub outcomes: Vec<RankOutcome<T>>,
    /// Per-rank traffic statistics (`None` for failed ranks).
    pub comm_stats: Vec<Option<CommStats>>,
    /// Per-rank simulated clocks in picoseconds (0 for failed ranks).
    pub clocks_ps: Vec<u64>,
    /// Scheduler counters.
    pub sim: SimStats,
    /// Superstep batch-size distribution: `(ranks_in_batch, batches)`
    /// pairs, sorted by size. Counts sum to `sim.batches`. Kept off
    /// [`SimStats`] so that struct stays `Copy`.
    pub batch_sizes: Vec<(u64, u64)>,
}

impl<T> SimReport<T> {
    /// Report the scheduler counters *and* the superstep batch-size
    /// histogram (`mpisim.hist.batch_ranks`, in simulated ranks per
    /// batch) into a [`pvs_obs::Recorder`].
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        self.sim.record_to(r);
        if !self.batch_sizes.is_empty() {
            let entries: Vec<(&str, u64, u64)> = self
                .batch_sizes
                .iter()
                .map(|&(size, n)| ("mpisim.hist.batch_ranks", size, n))
                .collect();
            r.record_many(&entries);
        }
    }

    /// The per-rank values, panicking if any rank was failed — the
    /// healthy-mode convenience mirroring [`crate::comm::run`]'s shape.
    pub fn into_values(self) -> Vec<T> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                RankOutcome::Completed { value, .. } => value,
                // INFALLIBLE: healthy sims have no failed ranks; callers
                // of faulty sims read `outcomes` instead.
                RankOutcome::Failed => unreachable!("failed rank in into_values"),
            })
            .collect()
    }
}

/// Builder for an event-driven simulation.
#[derive(Debug, Clone)]
pub struct EventSim {
    nranks: usize,
    threads: usize,
    faults: Option<FaultSpec>,
}

impl EventSim {
    /// A healthy simulation of `nranks` virtual ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1);
        EventSim {
            nranks,
            threads: 0,
            faults: None,
        }
    }

    /// Use `threads` pool workers (default: [`pvs_core::pool::default_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Inject faults: every message makes its seeded drop/delay draws,
    /// and ranks in the failed set never execute. Only the collectives
    /// [`crate::FaultyComm`] offers (barrier, sum allreduce) are legal.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        assert!(spec.max_attempts >= 1, "at least one send attempt");
        self.faults = Some(spec);
        self
    }

    /// Run the simulation: `make(rank, size)` builds each surviving
    /// rank's program.
    pub fn run<P, F>(&self, make: F) -> SimReport<P::Output>
    where
        P: RankProgram,
        F: Fn(usize, usize) -> P,
    {
        let spec = self.faults.clone().unwrap_or_else(FaultSpec::healthy);
        let faulty_mode = self.faults.is_some();
        let alive: Vec<bool> = (0..self.nranks)
            .map(|r| !spec.failed_ranks.contains(&r))
            .collect();
        assert!(
            alive.iter().any(|&a| a),
            "at least one rank must survive"
        );
        let cfg = Arc::new(SimConfig {
            nranks: self.nranks,
            spec,
            faulty_mode,
            alive,
        });
        let mut sched = Scheduler {
            cfg: Arc::clone(&cfg),
            slots: (0..self.nranks)
                .map(|rank| {
                    cfg.alive[rank].then(|| RankSlot {
                        program: make(rank, self.nranks),
                        ctx: RankCtx {
                            rank,
                            size: self.nranks,
                            comm: CommStats::default(),
                            faults: FaultStats::default(),
                            clock_ps: 0,
                        },
                        mailbox: VecDeque::new(),
                        parked: None,
                        reply: Some(Reply::Start),
                        finished: None,
                        coll_seq: 0,
                    })
                })
                .collect(),
            queue: EventQueue::new(),
            groups: BTreeMap::new(),
            parked_count: 0,
            sim: SimStats {
                ranks: self.nranks as u64,
                ..SimStats::default()
            },
            batch_dist: BTreeMap::new(),
        };
        for rank in 0..self.nranks {
            if cfg.alive[rank] {
                sched.queue.push(0, rank);
            }
        }
        let threads = if self.threads == 0 {
            pvs_core::pool::default_threads()
        } else {
            self.threads
        };
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        sched.drive(pool.as_ref());
        sched.into_report()
    }
}

/// Run `nranks` virtual ranks through the event-driven scheduler and
/// collect their outputs in rank order — the [`RankProgram`] analogue
/// of [`crate::comm::run`].
pub fn run_events<P, F>(nranks: usize, make: F) -> Vec<P::Output>
where
    P: RankProgram,
    F: Fn(usize, usize) -> P,
{
    EventSim::new(nranks).run(make).into_values()
}

/// Shared, read-only configuration for the parallel resume phase.
struct SimConfig {
    nranks: usize,
    spec: FaultSpec,
    faulty_mode: bool,
    alive: Vec<bool>,
}

/// A packet in a virtual mailbox.
#[derive(Debug, Clone)]
struct SimPacket {
    src: usize,
    tag: u64,
    payload: SimPayload,
}

#[derive(Debug, Clone)]
enum SimPayload {
    Data(Vec<f64>),
    /// Loss tombstone: every send attempt dropped; carries the sender's
    /// simulated expiry clock (see `crate::fault`).
    Lost { expired_at_ps: u64 },
}

/// Why a rank's continuation is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parked {
    /// Blocked receive of `(src, tag)`; `exchange` selects the
    /// [`Reply::Exchanged`] shape (sendrecv) over [`Reply::Received`].
    Recv { src: usize, tag: u64, exchange: bool },
    /// Entered collective number `idx` (per-rank collective counter).
    Collective { idx: u64 },
}

/// One virtual rank's complete state.
struct RankSlot<P: RankProgram> {
    program: P,
    ctx: RankCtx,
    mailbox: VecDeque<SimPacket>,
    parked: Option<Parked>,
    /// The reply to hand to the next resume (set whenever runnable).
    reply: Option<Reply>,
    finished: Option<P::Output>,
    /// Collectives entered so far — the group key, so every rank's k-th
    /// collective joins the same group (MPI requires identical order).
    coll_seq: u64,
}

/// A collective in progress: participants that have entered, with their
/// contributions (the `Op` they entered with).
struct Group {
    entries: BTreeMap<usize, Op>,
}

/// What one rank's parallel resume slice produced.
struct LocalOutcome<P: RankProgram> {
    rank: usize,
    slot: RankSlot<P>,
    outbox: Vec<(usize, SimPacket)>,
    entered: Option<(u64, Op)>,
    resumes: u64,
    parked_now: bool,
}

struct Scheduler<P: RankProgram> {
    cfg: Arc<SimConfig>,
    slots: Vec<Option<RankSlot<P>>>,
    /// Runnable ranks keyed by their simulated clocks.
    queue: EventQueue<usize>,
    groups: BTreeMap<u64, Group>,
    parked_count: u64,
    sim: SimStats,
    /// Batches by rank count: `batch_dist[size]` batches resumed exactly
    /// `size` ranks. Sorted map so the exported distribution is
    /// deterministic.
    batch_dist: BTreeMap<u64, u64>,
}

impl<P: RankProgram> Scheduler<P> {
    fn drive(&mut self, pool: Option<&ThreadPool>) {
        while let Some(at_ps) = self.queue.peek_time() {
            // One batch: every rank runnable at the earliest timestamp.
            let mut batch: Vec<(usize, RankSlot<P>)> = Vec::new();
            while self.queue.peek_time() == Some(at_ps) {
                // INFALLIBLE: peek_time just returned Some.
                let rank = self.queue.pop().expect("peeked entry").payload;
                let slot = self.slots[rank]
                    .take()
                    // INFALLIBLE: a rank is scheduled at most once and
                    // its slot is returned before the next batch.
                    .expect("scheduled rank owns its slot");
                batch.push((rank, slot));
            }
            self.sim.batches += 1;
            *self.batch_dist.entry(batch.len() as u64).or_insert(0) += 1;

            // Parallel phase: resume each rank against only its own
            // state. Input order in == input order out (ThreadPool::map),
            // so the serial application below is batch-order
            // deterministic at any worker count.
            let cfg = Arc::clone(&self.cfg);
            let run_one = move |(rank, slot): (usize, RankSlot<P>)| run_local(&cfg, rank, slot);
            let outcomes: Vec<LocalOutcome<P>> = match pool {
                Some(pool) if batch.len() > 1 => pool.map(batch, run_one),
                _ => batch.into_iter().map(run_one).collect(),
            };

            // Serial phase, step 1: restore every slot and settle park
            // accounting BEFORE any delivery — a packet toward a rank
            // later in the same batch must find its mailbox (a missing
            // slot means a failed rank and would blackhole it).
            let mut effects = Vec::with_capacity(outcomes.len());
            for out in outcomes {
                self.sim.resumes += out.resumes;
                if out.parked_now {
                    self.parked_count += 1;
                    self.sim.parks += 1;
                }
                self.slots[out.rank] = Some(out.slot);
                effects.push((out.rank, out.outbox, out.entered));
            }
            self.sim.peak_parked = self.sim.peak_parked.max(self.parked_count);
            // Serial phase, step 2: cross-rank effects in batch order.
            for (rank, outbox, entered) in effects {
                for (dst, packet) in outbox {
                    self.deliver(dst, packet);
                }
                if let Some((idx, op)) = entered {
                    self.enter_collective(rank, idx, op);
                }
            }
        }
        self.check_quiescent();
    }

    /// Append `packet` to `dst`'s mailbox and wake `dst` if it parks on
    /// a matching receive. Packets toward failed ranks are blackholed
    /// (a dead node's NIC still sinks traffic); packets toward finished
    /// ranks are buffered and never read.
    fn deliver(&mut self, dst: usize, packet: SimPacket) {
        let Some(slot) = self.slots[dst].as_mut() else {
            return; // blackhole: dst is in the failed set
        };
        self.sim.messages += 1;
        slot.mailbox.push_back(packet);
        let Some(Parked::Recv { src, tag, exchange }) = slot.parked else {
            return;
        };
        if let Some(result) = match_mailbox(&mut slot.mailbox, src, tag, self.cfg.spec.max_attempts)
        {
            slot.parked = None;
            self.parked_count -= 1;
            self.sim.wakeups += 1;
            slot.reply = Some(if exchange {
                Reply::Exchanged(result)
            } else {
                Reply::Received(result)
            });
            self.queue.push(slot.ctx.clock_ps, dst);
        }
    }

    /// Register `rank`'s entry into its `idx`-th collective; complete
    /// the group centrally once every expected participant has entered.
    fn enter_collective(&mut self, rank: usize, idx: u64, op: Op) {
        let group = self.groups.entry(idx).or_insert_with(|| Group {
            entries: BTreeMap::new(),
        });
        if let Some((_, first)) = group.entries.iter().next() {
            assert_eq!(
                std::mem::discriminant(first),
                std::mem::discriminant(&op),
                "collective #{idx}: rank {rank} entered {op:?} while peers entered {first:?} \
                 — all ranks must issue collectives in the same order"
            );
        }
        group.entries.insert(rank, op);
        let expected = self.cfg.alive.iter().filter(|&&a| a).count();
        if group.entries.len() < expected {
            return;
        }
        // INFALLIBLE: the key was just inserted.
        let group = self.groups.remove(&idx).expect("complete group");
        self.sim.collectives += 1;
        let replies = complete_collective(&self.cfg, &group, &mut self.slots);
        for (rank, reply) in replies {
            // INFALLIBLE: participants are alive ranks with parked slots.
            let slot = self.slots[rank].as_mut().expect("participant slot");
            debug_assert_eq!(slot.parked, Some(Parked::Collective { idx }));
            slot.parked = None;
            self.parked_count -= 1;
            self.sim.wakeups += 1;
            slot.reply = Some(reply);
            self.queue.push(slot.ctx.clock_ps, rank);
        }
    }

    /// The queue drained: every surviving rank must have finished, or
    /// the program set deadlocked (a diagnosis instead of a silent hang).
    fn check_quiescent(&self) {
        let mut stuck = Vec::new();
        for (rank, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if slot.finished.is_some() {
                continue;
            }
            stuck.push(match slot.parked {
                Some(Parked::Recv { src, tag, .. }) => {
                    format!("rank {rank} waiting on recv(src={src}, tag={tag:#x})")
                }
                Some(Parked::Collective { idx }) => {
                    format!("rank {rank} inside collective #{idx}")
                }
                None => format!("rank {rank} runnable but unscheduled"),
            });
        }
        assert!(
            stuck.is_empty(),
            "event-driven run deadlocked with {} rank(s) parked: {}",
            stuck.len(),
            stuck.join("; ")
        );
    }

    fn into_report(mut self) -> SimReport<P::Output> {
        let mut outcomes = Vec::with_capacity(self.cfg.nranks);
        let mut comm_stats = Vec::with_capacity(self.cfg.nranks);
        let mut clocks_ps = Vec::with_capacity(self.cfg.nranks);
        for slot in self.slots.iter_mut() {
            match slot.take() {
                None => {
                    outcomes.push(RankOutcome::Failed);
                    comm_stats.push(None);
                    clocks_ps.push(0);
                }
                Some(mut s) => {
                    // INFALLIBLE: check_quiescent proved every survivor
                    // finished before the queue drained.
                    let value = s.finished.take().expect("rank finished");
                    outcomes.push(RankOutcome::Completed {
                        value,
                        faults: s.ctx.faults,
                    });
                    comm_stats.push(Some(s.ctx.comm));
                    clocks_ps.push(s.ctx.clock_ps);
                }
            }
        }
        SimReport {
            outcomes,
            comm_stats,
            clocks_ps,
            sim: self.sim,
            batch_sizes: self.batch_dist.iter().map(|(&s, &n)| (s, n)).collect(),
        }
    }
}

/// Resume one rank until it parks or finishes, touching only its own
/// state. Cross-rank effects accumulate in the outbox / collective
/// entry and are applied serially by the scheduler.
fn run_local<P: RankProgram>(cfg: &SimConfig, rank: usize, mut slot: RankSlot<P>) -> LocalOutcome<P> {
    let mut outbox: Vec<(usize, SimPacket)> = Vec::new();
    let mut entered = None;
    let mut resumes = 0u64;
    let mut parked_now = false;
    loop {
        // INFALLIBLE: a runnable rank always has its next reply staged
        // (Start at launch, op completion at every wake).
        let reply = slot.reply.take().expect("runnable rank has a reply");
        resumes += 1;
        match slot.program.resume(&slot.ctx, reply) {
            Step::Finish(out) => {
                slot.finished = Some(out);
                break;
            }
            Step::Op(op) => match op {
                Op::Send { dst, tag, data } => {
                    assert_user_tag(tag);
                    let result = local_send(cfg, &mut slot, &mut outbox, dst, tag, data);
                    slot.reply = Some(Reply::Sent(result));
                }
                Op::Recv { src, tag } => {
                    assert_user_tag(tag);
                    match local_recv(cfg, &mut slot, src, tag) {
                        Some(result) => slot.reply = Some(Reply::Received(result)),
                        None => {
                            slot.parked = Some(Parked::Recv {
                                src,
                                tag,
                                exchange: false,
                            });
                            parked_now = true;
                            break;
                        }
                    }
                }
                Op::Sendrecv { partner, tag, data } => {
                    assert_user_tag(tag);
                    if partner == rank {
                        slot.reply = Some(Reply::Exchanged(Ok(data)));
                        continue;
                    }
                    match local_send(cfg, &mut slot, &mut outbox, partner, tag, data) {
                        Err(e) => slot.reply = Some(Reply::Exchanged(Err(e))),
                        Ok(()) => match local_recv(cfg, &mut slot, partner, tag) {
                            Some(result) => slot.reply = Some(Reply::Exchanged(result)),
                            None => {
                                slot.parked = Some(Parked::Recv {
                                    src: partner,
                                    tag,
                                    exchange: true,
                                });
                                parked_now = true;
                                break;
                            }
                        },
                    }
                }
                collective => {
                    if cfg.faulty_mode {
                        assert!(
                            matches!(collective, Op::Barrier | Op::AllreduceSum { .. }),
                            "{collective:?} has no faulty mode \
                             (FaultyComm offers barrier and sum allreduce only)"
                        );
                    }
                    let idx = slot.coll_seq;
                    slot.coll_seq += 1;
                    slot.parked = Some(Parked::Collective { idx });
                    entered = Some((idx, collective));
                    parked_now = true;
                    break;
                }
            },
        }
    }
    LocalOutcome {
        rank,
        slot,
        outbox,
        entered,
        resumes,
        parked_now,
    }
}

/// The send path: charge the message (faulty mode draws its drops and
/// delays first), then emit the packet — or, when every attempt was
/// lost, a tombstone carrying the sender's expiry clock. Loopback packets
/// land directly in the rank's own mailbox.
fn local_send<P: RankProgram>(
    cfg: &SimConfig,
    slot: &mut RankSlot<P>,
    outbox: &mut Vec<(usize, SimPacket)>,
    dst: usize,
    tag: u64,
    data: Vec<f64>,
) -> Result<(), FaultError> {
    let rank = slot.ctx.rank;
    if !cfg.alive[dst] {
        return Err(FaultError::RankFailed { rank: dst });
    }
    let charged = charge_send(cfg, &mut slot.ctx, dst, tag, (data.len() * 8) as u64);
    let payload = match charged {
        Ok(()) => SimPayload::Data(data),
        Err(_) => SimPayload::Lost {
            expired_at_ps: slot.ctx.clock_ps,
        },
    };
    let packet = SimPacket {
        src: rank,
        tag,
        payload,
    };
    if dst == rank {
        slot.mailbox.push_back(packet);
    } else {
        outbox.push((dst, packet));
    }
    charged
}

/// Charge one message from `ctx.rank` to `dst` of `bytes` payload bytes.
/// In faulty mode each attempt first draws its seeded drop, backing off
/// exponentially on the sender's clock; a delivered message then draws
/// its delay. Loopback never drops. `Err` is the sender's timeout once
/// `max_attempts` attempts are lost; nothing is delivered then.
fn charge_send(
    cfg: &SimConfig,
    ctx: &mut RankCtx,
    dst: usize,
    tag: u64,
    bytes: u64,
) -> Result<(), FaultError> {
    if cfg.faulty_mode {
        let spec = &cfg.spec;
        if dst != ctx.rank {
            let mut attempt = 0u32;
            while attempt < spec.max_attempts && attempt_lost(spec, ctx.rank, dst, tag, attempt) {
                ctx.faults.drops += 1;
                let backoff = retry_backoff_ps(spec.base_backoff_ps, attempt);
                ctx.faults.backoff_ps = ctx.faults.backoff_ps.saturating_add(backoff);
                ctx.clock_ps = ctx.clock_ps.saturating_add(backoff);
                attempt += 1;
            }
            if attempt == spec.max_attempts {
                ctx.faults.timeouts += 1;
                return Err(FaultError::Timeout {
                    peer: dst,
                    tag,
                    attempts: attempt,
                    expired_at_ps: ctx.clock_ps,
                });
            }
            ctx.faults.retries += attempt as u64;
            if message_delayed(spec, ctx.rank, dst, tag) {
                ctx.faults.delays += 1;
                ctx.faults.delay_ps += spec.delay_ps;
                ctx.clock_ps += spec.delay_ps;
            }
        }
        ctx.faults.delivered += 1;
    }
    ctx.comm.messages_sent += 1;
    ctx.comm.bytes_sent += bytes;
    Ok(())
}

/// Try to complete a receive from the rank's own mailbox. `None` parks.
fn local_recv<P: RankProgram>(
    cfg: &SimConfig,
    slot: &mut RankSlot<P>,
    src: usize,
    tag: u64,
) -> Option<Result<Vec<f64>, FaultError>> {
    if !cfg.alive[src] {
        return Some(Err(FaultError::RankFailed { rank: src }));
    }
    match_mailbox(&mut slot.mailbox, src, tag, cfg.spec.max_attempts)
}

/// First-match extraction from a mailbox: the earliest-arrived packet
/// with matching `(src, tag)` wins; a loss tombstone surfaces as the
/// sender's timeout.
fn match_mailbox(
    mailbox: &mut VecDeque<SimPacket>,
    src: usize,
    tag: u64,
    max_attempts: u32,
) -> Option<Result<Vec<f64>, FaultError>> {
    let pos = mailbox
        .iter()
        .position(|p| p.src == src && p.tag == tag)?;
    // INFALLIBLE: position() just found the index.
    let packet = mailbox.remove(pos).expect("index valid");
    Some(match packet.payload {
        SimPayload::Data(d) => Ok(d),
        SimPayload::Lost { expired_at_ps } => Err(FaultError::Timeout {
            peer: src,
            tag,
            attempts: max_attempts,
            expired_at_ps,
        }),
    })
}

/// Complete a collective centrally: canonical rank-order values plus
/// per-rank stats charged from the collective's message schedule.
/// Returns `(rank, reply)` pairs in ascending rank order.
fn complete_collective<P: RankProgram>(
    cfg: &SimConfig,
    group: &Group,
    slots: &mut [Option<RankSlot<P>>],
) -> Vec<(usize, Reply)> {
    let participants: Vec<usize> = group.entries.keys().copied().collect();
    // INFALLIBLE: a group completes only after at least one entry.
    let first = group.entries.values().next().expect("non-empty group");
    match first {
        Op::Barrier => {
            if cfg.faulty_mode {
                faulty_dissemination(cfg, &participants, slots, None)
            } else {
                let rounds = dissemination_rounds(participants.len());
                charge_all(slots, &participants, rounds, 0);
                participants
                    .iter()
                    .map(|&r| (r, Reply::BarrierDone(Ok(()))))
                    .collect()
            }
        }
        Op::AllreduceSum { .. } => {
            let contribs: Vec<Vec<f64>> = group
                .entries
                .values()
                .map(|op| match op {
                    Op::AllreduceSum { data } => data.clone(),
                    // INFALLIBLE: enter_collective pinned the discriminant.
                    _ => unreachable!("mixed collective"),
                })
                .collect();
            let value = fold_sum_in_rank_order(&contribs);
            if cfg.faulty_mode {
                faulty_dissemination(cfg, &participants, slots, Some(&value))
            } else {
                let n = participants.len();
                let bytes = (contribs[0].len() * 8) as u64;
                charge_all(slots, &participants, (n - 1) as u64, (n - 1) as u64 * bytes);
                participants
                    .iter()
                    .map(|&r| (r, Reply::Reduced(Ok(value.clone()))))
                    .collect()
            }
        }
        Op::AllreduceMaxScalar { .. } => {
            let contribs: Vec<f64> = group
                .entries
                .values()
                .map(|op| match op {
                    Op::AllreduceMaxScalar { x } => *x,
                    _ => unreachable!("mixed collective"),
                })
                .collect();
            let value = contribs
                .iter()
                .skip(1)
                .fold(contribs[0], |acc, &x| acc.max(x));
            let n = participants.len();
            charge_all(slots, &participants, (n - 1) as u64, (n - 1) as u64 * 8);
            participants
                .iter()
                .map(|&r| (r, Reply::MaxReduced(Ok(value))))
                .collect()
        }
        Op::Allgather { .. } => {
            let rows: Vec<Vec<f64>> = group
                .entries
                .values()
                .map(|op| match op {
                    Op::Allgather { data } => data.clone(),
                    _ => unreachable!("mixed collective"),
                })
                .collect();
            let n = participants.len();
            // Ring allgather: at step s, rank r forwards the frame that
            // originated at rank (r − s) mod n — origin rank id plus
            // the origin's body.
            for (i, &r) in participants.iter().enumerate() {
                let mut bytes = 0u64;
                for s in 0..n.saturating_sub(1) {
                    let origin = (i + n - s) % n;
                    bytes += ((1 + rows[origin].len()) * 8) as u64;
                }
                charge(slots, r, n.saturating_sub(1) as u64, bytes);
            }
            participants
                .iter()
                .map(|&r| (r, Reply::Gathered(rows.clone())))
                .collect()
        }
        Op::Broadcast { root, .. } => {
            let n = participants.len();
            assert!(*root < n, "broadcast root {root} of {n}");
            let data = match group.entries.get(root) {
                Some(Op::Broadcast { data, .. }) => data.clone(),
                _ => unreachable!("root participates"),
            };
            // Binomial-tree schedule: each rank sends `data` once per
            // child.
            let bytes = (data.len() * 8) as u64;
            for &r in &participants {
                let children = binomial_children(r, *root, n);
                charge(slots, r, children, children * bytes);
            }
            participants
                .iter()
                .map(|&r| (r, Reply::Broadcasted(data.clone())))
                .collect()
        }
        Op::Alltoallv { .. } => {
            let n = participants.len();
            let all: BTreeMap<usize, &Vec<Vec<f64>>> = group
                .entries
                .iter()
                .map(|(&r, op)| match op {
                    Op::Alltoallv { sends } => {
                        assert_eq!(sends.len(), n, "rank {r}: sends.len() == size");
                        (r, sends)
                    }
                    _ => unreachable!("mixed collective"),
                })
                .collect();
            let mut replies = Vec::with_capacity(n);
            for &me in &participants {
                let out: Vec<Vec<f64>> = participants.iter().map(|&src| all[&src][me].clone()).collect();
                let bytes: u64 = all[&me]
                    .iter()
                    .enumerate()
                    .filter(|&(dst, _)| dst != me)
                    .map(|(_, v)| (v.len() * 8) as u64)
                    .sum();
                charge(slots, me, (n - 1) as u64, bytes);
                replies.push((me, Reply::Alltoall(out)));
            }
            replies
        }
        Op::CoCreate { len } => {
            let n = participants.len();
            for (&r, op) in &group.entries {
                match op {
                    Op::CoCreate { len: l } => assert_eq!(l, len, "rank {r}: window length"),
                    _ => unreachable!("mixed collective"),
                }
            }
            let windows: Vec<Arc<RwLock<Vec<f64>>>> = (0..n)
                .map(|_| Arc::new(RwLock::new(vec![0.0; *len])))
                .collect();
            // Charged as a ring circulating one origin-id frame per step.
            charge_all(slots, &participants, (n - 1) as u64, (n - 1) as u64 * 8);
            participants
                .iter()
                .map(|&r| {
                    (
                        r,
                        Reply::CoCreated(CoArray::from_windows(r, windows.clone())),
                    )
                })
                .collect()
        }
        Op::Send { .. } | Op::Recv { .. } | Op::Sendrecv { .. } => {
            unreachable!("point-to-point ops never enter a collective group")
        }
    }
}

/// Simulate the faulty dissemination/ring schedule for barrier
/// (`value: None`) or sum allreduce (`value: Some`): every scheduled
/// message makes its seeded draws in per-round, per-rank order, charging
/// drop/retry/backoff/delay to the sending rank. A rank stops sending at
/// its first failure; a message that exhausts retries fails *all*
/// participants deterministically.
fn faulty_dissemination<P: RankProgram>(
    cfg: &SimConfig,
    participants: &[usize],
    slots: &mut [Option<RankSlot<P>>],
    value: Option<&[f64]>,
) -> Vec<(usize, Reply)> {
    use crate::tags::{self, ctag};
    let n = participants.len();
    let bytes = value.map_or(0, |v| (v.len() * 8) as u64);
    // Per-participant error state (first failure wins, then it stops
    // sending).
    let mut errors: Vec<Option<FaultError>> = vec![None; n];
    let schedule: Vec<(u64, bool)> = match value {
        // Barrier: dissemination rounds at doubling distance.
        None => {
            let mut rounds = Vec::new();
            let mut dist = 1usize;
            let mut round = 0u64;
            while dist < n {
                rounds.push((round, false));
                dist *= 2;
                round += 1;
            }
            rounds
        }
        // Allreduce: ring steps at distance 1.
        Some(_) => (0..n.saturating_sub(1) as u64).map(|s| (s, true)).collect(),
    };
    for &(seq, ring) in &schedule {
        let tag = if ring {
            ctag(tags::NS_FAULTY_ALLREDUCE, seq)
        } else {
            ctag(tags::NS_FAULTY_BARRIER, seq)
        };
        let dist = if ring { 1usize } else { 1usize << seq };
        // Send wave: every still-healthy participant performs its send
        // for this round, charging its own draws.
        let mut sent_ok: Vec<bool> = vec![false; n];
        let mut expiry: Vec<u64> = vec![0; n];
        for (i, &me) in participants.iter().enumerate() {
            if errors[i].is_some() {
                continue;
            }
            let dst = participants[(i + dist) % n];
            // INFALLIBLE: participants are alive ranks with live slots.
            let ctx = &mut slots[me].as_mut().expect("participant slot").ctx;
            match charge_send(cfg, ctx, dst, tag, bytes) {
                Ok(()) => sent_ok[i] = true,
                Err(e) => {
                    errors[i] = Some(e);
                    expiry[i] = ctx.clock_ps;
                }
            }
        }
        // Receive wave: a still-healthy participant observes its
        // predecessor's outcome for this round.
        for (i, &_me) in participants.iter().enumerate() {
            if errors[i].is_some() {
                continue;
            }
            let from_idx = (i + n - dist) % n;
            if sent_ok[from_idx] || from_idx == i {
                continue;
            }
            let from = participants[from_idx];
            errors[i] = Some(FaultError::Timeout {
                peer: from,
                tag,
                attempts: cfg.spec.max_attempts,
                expired_at_ps: expiry[from_idx],
            });
        }
    }
    // The first failure in schedule order fails everyone still healthy.
    let first_error = errors.iter().flatten().next().copied();
    participants
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let result = match errors[i].or(first_error) {
                Some(e) => Err(e),
                None => Ok(()),
            };
            let reply = match value {
                None => Reply::BarrierDone(result),
                Some(v) => Reply::Reduced(result.map(|()| v.to_vec())),
            };
            (r, reply)
        })
        .collect()
}

/// Left-fold per-rank contributions as x₀ + x₁ + … + x_{P−1} — the
/// canonical reduction order every rank observes.
fn fold_sum_in_rank_order(contribs: &[Vec<f64>]) -> Vec<f64> {
    let mut acc = contribs[0].clone();
    for c in &contribs[1..] {
        for (a, b) in acc.iter_mut().zip(c) {
            *a += *b;
        }
    }
    acc
}

/// Messages each rank sends in an `n`-rank dissemination barrier.
fn dissemination_rounds(n: usize) -> u64 {
    let mut rounds = 0u64;
    let mut dist = 1usize;
    while dist < n {
        rounds += 1;
        dist *= 2;
    }
    rounds
}

/// Children of `rank` in the binomial broadcast tree rooted at `root`
/// (MPICH's relative-rank/mask schedule).
fn binomial_children(rank: usize, root: usize, n: usize) -> u64 {
    let relative = (rank + n - root) % n;
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    let mut children = 0u64;
    while mask > 0 {
        if relative + mask < n {
            children += 1;
        }
        mask >>= 1;
    }
    children
}

fn charge<P: RankProgram>(slots: &mut [Option<RankSlot<P>>], rank: usize, messages: u64, bytes: u64) {
    // INFALLIBLE: collectives charge only alive participants.
    let slot = slots[rank].as_mut().expect("participant slot");
    slot.ctx.comm.messages_sent += messages;
    slot.ctx.comm.bytes_sent += bytes;
}

fn charge_all<P: RankProgram>(
    slots: &mut [Option<RankSlot<P>>],
    participants: &[usize],
    messages: u64,
    bytes: u64,
) {
    for &r in participants {
        charge(slots, r, messages, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    fn probe(rank: usize) -> f64 {
        [1e16, 1.0, -1e16][rank % 3]
    }

    /// Script: ring shift (send right, recv left) then an allreduce.
    fn ring_script(rank: usize, size: usize) -> ScriptProgram {
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut ops = Vec::new();
        if size > 1 {
            ops.push(Op::Send {
                dst: right,
                tag: 7,
                data: vec![rank as f64],
            });
            ops.push(Op::Recv { src: left, tag: 7 });
        }
        ops.push(Op::AllreduceSum {
            data: vec![probe(rank)],
        });
        ScriptProgram::new(ops)
    }

    fn reduced(reply: &Reply) -> &[f64] {
        match reply {
            Reply::Reduced(Ok(v)) => v,
            other => panic!("expected Reduced, got {other:?}"),
        }
    }

    #[test]
    fn ring_and_allreduce_match_the_closure_front_end_bitwise() {
        for n in [1usize, 2, 3, 7, 8, 16] {
            let closure = run(n, |mut c| {
                if n > 1 {
                    c.send((c.rank() + 1) % n, 7, vec![c.rank() as f64]);
                    let _ = c.recv((c.rank() + n - 1) % n, 7);
                }
                c.allreduce_sum(&[probe(c.rank())])
            });
            let programs = run_events(n, ring_script);
            for (rank, (a, b)) in closure.iter().zip(&programs).enumerate() {
                let got = reduced(b.last().expect("allreduce reply"));
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "n={n} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn allreduce_is_bit_identical_across_ranks() {
        for n in [2usize, 3, 7, 8] {
            let results = run_events(n, |rank, _| {
                ScriptProgram::new(vec![Op::AllreduceSum {
                    data: vec![probe(rank), 0.1],
                }])
            });
            let first = reduced(results[0].last().expect("reply")).to_vec();
            for r in &results {
                let got = reduced(r.last().expect("reply"));
                assert_eq!(
                    first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn results_are_thread_count_independent() {
        let at = |threads: usize| {
            let report = EventSim::new(16).threads(threads).run(|r, s| ring_script(r, s));
            (
                report
                    .outcomes
                    .iter()
                    .map(|o| format!("{:?}", o.value()))
                    .collect::<Vec<_>>(),
                report.comm_stats.clone(),
                report.sim,
            )
        };
        let serial = at(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(at(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn sixty_five_thousand_ranks_without_rank_threads() {
        // P = 65536 virtual ranks on a 2-worker pool: the whole point of
        // the event-driven core. One ring shift + one allreduce each.
        let n = 65536usize;
        let report = EventSim::new(n).threads(2).run(|rank, size| {
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            ScriptProgram::new(vec![
                Op::Send {
                    dst: right,
                    tag: 1,
                    data: vec![rank as f64],
                },
                Op::Recv { src: left, tag: 1 },
                Op::AllreduceSum { data: vec![1.0] },
            ])
        });
        assert_eq!(report.sim.ranks, n as u64);
        assert_eq!(report.sim.collectives, 1);
        let canonical: f64 = (1..n).fold(1.0f64, |acc, _| acc + 1.0);
        for (rank, o) in report.outcomes.iter().enumerate() {
            let replies = o.value().expect("completed");
            match (&replies[1], &replies[2]) {
                (Reply::Received(Ok(v)), Reply::Reduced(Ok(sum))) => {
                    let left = (rank + n - 1) % n;
                    assert_eq!(v[0], left as f64);
                    assert_eq!(sum[0].to_bits(), canonical.to_bits());
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn deadlock_is_diagnosed_not_hung() {
        let err = std::panic::catch_unwind(|| {
            run_events(2, |rank, _| {
                // Rank 1 waits for a message nobody sends.
                if rank == 1 {
                    ScriptProgram::new(vec![Op::Recv { src: 0, tag: 9 }])
                } else {
                    ScriptProgram::new(vec![])
                }
            })
        })
        .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("deadlocked"), "{msg}");
        assert!(msg.contains("rank 1 waiting on recv(src=0, tag=0x9)"), "{msg}");
    }

    #[test]
    fn loopback_and_self_exchange() {
        let results = run_events(3, |rank, _| {
            ScriptProgram::new(vec![
                Op::Send {
                    dst: rank,
                    tag: 4,
                    data: vec![rank as f64 + 0.5],
                },
                Op::Recv { src: rank, tag: 4 },
                Op::Sendrecv {
                    partner: rank,
                    tag: 5,
                    data: vec![2.0],
                },
            ])
        });
        for (rank, replies) in results.iter().enumerate() {
            match (&replies[1], &replies[2]) {
                (Reply::Received(Ok(v)), Reply::Exchanged(Ok(e))) => {
                    assert_eq!(v[0], rank as f64 + 0.5);
                    assert_eq!(e, &vec![2.0]);
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_events(2, |rank, _| {
            if rank == 0 {
                ScriptProgram::new(vec![
                    Op::Send {
                        dst: 1,
                        tag: 1,
                        data: vec![1.0],
                    },
                    Op::Send {
                        dst: 1,
                        tag: 2,
                        data: vec![2.0],
                    },
                ])
            } else {
                ScriptProgram::new(vec![
                    Op::Recv { src: 0, tag: 2 },
                    Op::Recv { src: 0, tag: 1 },
                ])
            }
        });
        match (&results[1][0], &results[1][1]) {
            (Reply::Received(Ok(b)), Reply::Received(Ok(a))) => {
                assert_eq!((b[0], a[0]), (2.0, 1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sim_stats_report_to_obs() {
        let report = EventSim::new(4).run(|r, s| ring_script(r, s));
        let reg = pvs_obs::Registry::new();
        report.record_to(&reg);
        assert_eq!(reg.gauge("mpisim.sim.ranks"), 4);
        assert!(reg.counter("mpisim.sim.resumes") >= 4);
        assert!(reg.counter("mpisim.sim.collectives") == 1);
        assert!(reg.counter("mpisim.sim.parks") >= reg.counter("mpisim.sim.wakeups"));
        // The superstep histogram partitions the batch counter, and no
        // batch can resume more ranks than exist.
        let h = reg.hist("mpisim.hist.batch_ranks").unwrap();
        assert_eq!(h.count(), reg.counter("mpisim.sim.batches"));
        assert!(h.max() <= 4);
        assert_eq!(
            report.batch_sizes.iter().map(|&(_, n)| n).sum::<u64>(),
            report.sim.batches
        );
    }

    #[test]
    fn batch_size_distribution_is_thread_count_invariant() {
        let one = EventSim::new(8).threads(1).run(|r, s| ring_script(r, s));
        let many = EventSim::new(8).threads(8).run(|r, s| ring_script(r, s));
        assert_eq!(one.batch_sizes, many.batch_sizes);
        assert_eq!(one.sim, many.sim);
    }

    #[test]
    #[should_panic(expected = "same order")]
    fn mismatched_collectives_are_diagnosed() {
        run_events(2, |rank, _| {
            if rank == 0 {
                ScriptProgram::new(vec![Op::Barrier])
            } else {
                ScriptProgram::new(vec![Op::AllreduceSum { data: vec![1.0] }])
            }
        });
    }
}
