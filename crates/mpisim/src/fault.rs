//! Deterministic message-level fault injection for the runtime.
//!
//! The SC 2004 machines were shared production systems; runs routinely
//! saw degraded interconnects and node loss. This module lets the
//! reproduction rehearse those conditions *deterministically*: every
//! fault decision is a pure function of a [`FaultSpec`] seed and the
//! message coordinates `(src, dst, tag, attempt)`, and every cost is
//! charged in **simulated picoseconds** — no host clocks, so the
//! determinism lint (PVS003) holds and the same seed reproduces the same
//! degraded run bit-for-bit at any host thread count.
//!
//! Three fault kinds are modelled:
//!
//! * **Message drop** — a send attempt is lost with probability
//!   `drop_per_mille / 1000`. The sender retries with exponential
//!   backoff (`base_backoff_ps << attempt`); after `max_attempts` losses
//!   it gives up, charges the accumulated backoff to its simulated
//!   clock, and delivers a loss *tombstone* so the receiver observes
//!   [`FaultError::Timeout`] instead of deadlocking. A collective whose
//!   message times out fails every participant with the first timeout
//!   in schedule order.
//! * **Message delay** — a delivered message is late with probability
//!   `delay_per_mille / 1000`, charging `delay_ps` to the sender's
//!   simulated clock.
//! * **Rank failure** — ranks in `failed_ranks` never execute. Traffic
//!   toward them is blackholed, sends and receives naming them fail
//!   fast with [`FaultError::RankFailed`], and the survivor-only
//!   collectives ([`FaultyComm::allreduce_sum`], [`FaultyComm::barrier`])
//!   run over the remaining ranks.
//!
//! The draws and charges are made by the event scheduler
//! ([`crate::event`]); [`FaultyComm`] is the blocking closure front end
//! on it. Retry/drop/timeout counters accumulate in [`FaultStats`] per
//! rank and report into `pvs-obs` via [`FaultStats::record_to`].

use crate::comm::{launch, unexpected, CommStats, Link};
use crate::event::{EventSim, Op, Reply};
use pvs_core::SplitMix64;

/// Simulated backoff before retry `attempt` (0-based): `base << attempt`,
/// saturating at `u64::MAX` instead of overflowing — a large configured
/// `max_attempts` used to panic in debug and silently wrap in release.
pub fn retry_backoff_ps(base_backoff_ps: u64, attempt: u32) -> u64 {
    match 1u64.checked_shl(attempt) {
        Some(factor) => base_backoff_ps.saturating_mul(factor),
        None => {
            if base_backoff_ps == 0 {
                0
            } else {
                u64::MAX
            }
        }
    }
}

/// What to break, and how hard. Healthy by default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for every drop/delay decision. Two runs with equal specs make
    /// identical decisions for identical message coordinates.
    pub seed: u64,
    /// Probability (out of 1000) that one send attempt is lost.
    pub drop_per_mille: u32,
    /// Probability (out of 1000) that a delivered message is delayed.
    pub delay_per_mille: u32,
    /// Simulated picoseconds charged per delayed message.
    pub delay_ps: u64,
    /// Send attempts before the sender declares a timeout (>= 1).
    pub max_attempts: u32,
    /// Simulated backoff after the first lost attempt; doubles per retry.
    pub base_backoff_ps: u64,
    /// Ranks that have failed and never execute.
    pub failed_ranks: Vec<usize>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay_ps: 50_000_000, // 50 µs: one software-stack traversal
            max_attempts: 4,
            base_backoff_ps: 1_000_000_000, // 1 ms
            failed_ranks: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Nothing is broken.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Whether this spec injects anything at all.
    pub fn is_healthy(&self) -> bool {
        self.drop_per_mille == 0 && self.delay_per_mille == 0 && self.failed_ranks.is_empty()
    }

    /// Set the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lose each send attempt with probability `per_mille / 1000`.
    pub fn drop_per_mille(mut self, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "probability is out of 1000");
        self.drop_per_mille = per_mille;
        self
    }

    /// Delay each delivered message with probability `per_mille / 1000`.
    pub fn delay_per_mille(mut self, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "probability is out of 1000");
        self.delay_per_mille = per_mille;
        self
    }

    /// Mark a rank as failed.
    pub fn fail_rank(mut self, rank: usize) -> Self {
        if !self.failed_ranks.contains(&rank) {
            self.failed_ranks.push(rank);
        }
        self
    }
}

/// Per-rank fault accounting. Times are simulated picoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages actually delivered (successful attempts).
    pub delivered: u64,
    /// Send attempts lost to injected drops.
    pub drops: u64,
    /// Re-send attempts made after a loss.
    pub retries: u64,
    /// Delivered messages that were delayed.
    pub delays: u64,
    /// Sends abandoned after `max_attempts` losses.
    pub timeouts: u64,
    /// Total simulated backoff charged while retrying.
    pub backoff_ps: u64,
    /// Total simulated delay charged to late messages.
    pub delay_ps: u64,
}

impl FaultStats {
    /// Fold another rank's accounting into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.delivered += other.delivered;
        self.drops += other.drops;
        self.retries += other.retries;
        self.delays += other.delays;
        self.timeouts += other.timeouts;
        self.backoff_ps += other.backoff_ps;
        self.delay_ps += other.delay_ps;
    }

    /// Report the retry/drop/timeout counters into a [`pvs_obs::Recorder`]
    /// under the `mpisim.fault.*` namespace. Counters that are zero are
    /// omitted so healthy runs keep a fault-free snapshot.
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        for (name, value) in [
            ("mpisim.fault.delivered", self.delivered),
            ("mpisim.fault.drops", self.drops),
            ("mpisim.fault.retries", self.retries),
            ("mpisim.fault.delays", self.delays),
            ("mpisim.fault.timeouts", self.timeouts),
            ("mpisim.fault.backoff_ps", self.backoff_ps),
            ("mpisim.fault.delay_ps", self.delay_ps),
        ] {
            if value > 0 {
                r.add(name, value);
            }
        }
    }
}

/// Why a faulty-mode operation did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The peer is in the failed set; no traffic can reach it.
    RankFailed {
        /// The failed peer.
        rank: usize,
    },
    /// Every send attempt for one message was dropped.
    Timeout {
        /// The other end of the abandoned message.
        peer: usize,
        /// The message tag.
        tag: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// The sender's simulated clock when it gave up — deterministic,
        /// so timeout *ordering* is reproducible across runs.
        expired_at_ps: u64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::RankFailed { rank } => write!(f, "rank {rank} has failed"),
            FaultError::Timeout {
                peer,
                tag,
                attempts,
                expired_at_ps,
            } => write!(
                f,
                "message to/from rank {peer} tag {tag} timed out after \
                 {attempts} attempts at t={expired_at_ps} ps"
            ),
        }
    }
}

/// One deterministic per-mille draw for a message coordinate. Seeded
/// hashing via [`SplitMix64`] so the decision depends on every field but
/// on no global state — the same message makes the same decision in any
/// schedule and at any host thread count.
fn fault_draw(seed: u64, kind: u64, src: usize, dst: usize, tag: u64, attempt: u32) -> u32 {
    let mut h = SplitMix64::new(seed ^ kind).next_u64();
    for v in [src as u64, dst as u64, tag, attempt as u64] {
        h = SplitMix64::new(h ^ v).next_u64();
    }
    (h % 1000) as u32
}

/// Whether send attempt `attempt` of `(src, dst, tag)` is lost.
pub(crate) fn attempt_lost(spec: &FaultSpec, src: usize, dst: usize, tag: u64, attempt: u32) -> bool {
    spec.drop_per_mille > 0
        && fault_draw(spec.seed, 0xD209_D209, src, dst, tag, attempt) < spec.drop_per_mille
}

/// Whether the delivered message `(src, dst, tag)` is delayed.
pub(crate) fn message_delayed(spec: &FaultSpec, src: usize, dst: usize, tag: u64) -> bool {
    spec.delay_per_mille > 0
        && fault_draw(spec.seed, 0xDE1A_DE1A, src, dst, tag, 0) < spec.delay_per_mille
}

/// A rank endpoint with fault injection on every send: the faulty
/// counterpart of [`crate::Comm`], run by [`run_faulty`].
pub struct FaultyComm {
    link: Link,
    failed: Vec<usize>,
}

impl FaultyComm {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.link.ctx().rank
    }

    /// Number of ranks, failed ones included.
    pub fn size(&self) -> usize {
        self.link.ctx().size
    }

    /// Whether `rank` is still executing.
    pub fn alive(&self, rank: usize) -> bool {
        !self.failed.contains(&rank)
    }

    /// The surviving ranks, in rank order.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.size()).filter(|&r| self.alive(r)).collect()
    }

    /// Fault accounting so far for this rank.
    pub fn fault_stats(&self) -> FaultStats {
        self.link.ctx().faults
    }

    /// Healthy-layer traffic statistics (delivered messages only).
    pub fn comm_stats(&self) -> CommStats {
        self.link.ctx().comm
    }

    /// This rank's simulated clock: total backoff + delay charged so far.
    pub fn clock_ps(&self) -> u64 {
        self.link.ctx().clock_ps
    }

    /// Send `data` to rank `dst`, retrying dropped attempts with
    /// exponential backoff. On timeout a tombstone is delivered so the
    /// receiver unblocks with the same [`FaultError::Timeout`]. The tag
    /// must keep [`crate::tags::COLLECTIVE_BIT`] clear.
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) -> Result<(), FaultError> {
        match self.link.call(Op::Send { dst, tag, data }) {
            Reply::Sent(result) => result,
            other => unexpected(other),
        }
    }

    /// Receive from `src`. Fails fast if `src` is dead; surfaces the
    /// sender's timeout (with the sender's deterministic expiry time) if
    /// every attempt of the matching message was dropped.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, FaultError> {
        match self.link.call(Op::Recv { src, tag }) {
            Reply::Received(result) => result,
            other => unexpected(other),
        }
    }

    /// Combined send + receive with the same partner.
    pub fn sendrecv(
        &mut self,
        partner: usize,
        tag: u64,
        data: Vec<f64>,
    ) -> Result<Vec<f64>, FaultError> {
        match self.link.call(Op::Sendrecv { partner, tag, data }) {
            Reply::Exchanged(result) => result,
            other => unexpected(other),
        }
    }

    /// Barrier over the surviving ranks (a dissemination schedule whose
    /// every message draws its own faults).
    pub fn barrier(&mut self) -> Result<(), FaultError> {
        match self.link.call(Op::Barrier) {
            Reply::BarrierDone(result) => result,
            other => unexpected(other),
        }
    }

    /// Element-wise sum allreduce over the surviving ranks, folded in
    /// **canonical survivor order** so every survivor returns the bitwise
    /// identical result (a gather-to-all ring whose every message draws
    /// its own faults).
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Result<Vec<f64>, FaultError> {
        match self.link.call(Op::AllreduceSum {
            data: data.to_vec(),
        }) {
            Reply::Reduced(result) => result,
            other => unexpected(other),
        }
    }

    /// Scalar sum allreduce over the surviving ranks.
    pub fn allreduce_sum_scalar(&mut self, x: f64) -> Result<f64, FaultError> {
        Ok(self.allreduce_sum(&[x])?[0])
    }
}

/// What one rank produced under [`run_faulty`].
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome<T> {
    /// The rank ran to completion.
    Completed {
        /// The closure's return value.
        value: T,
        /// This rank's fault accounting.
        faults: FaultStats,
    },
    /// The rank was in the spec's failed set and never executed.
    Failed,
}

impl<T> RankOutcome<T> {
    /// The value, if the rank completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            RankOutcome::Completed { value, .. } => Some(value),
            RankOutcome::Failed => None,
        }
    }

    /// The fault accounting, if the rank completed.
    pub fn faults(&self) -> Option<FaultStats> {
        match self {
            RankOutcome::Completed { faults, .. } => Some(*faults),
            RankOutcome::Failed => None,
        }
    }

    /// Whether this rank was failed by the spec.
    pub fn is_failed(&self) -> bool {
        matches!(self, RankOutcome::Failed)
    }
}

/// Sum the fault accounting of every completed rank.
pub fn total_fault_stats<T>(outcomes: &[RankOutcome<T>]) -> FaultStats {
    let mut total = FaultStats::default();
    for o in outcomes {
        if let Some(s) = o.faults() {
            total.merge(&s);
        }
    }
    total
}

/// Launch `nranks` endpoints under fault injection. Surviving ranks run
/// `f` on their own thread; failed ranks never execute and traffic
/// toward them is blackholed. Results come back in rank order.
pub fn run_faulty<T, F>(nranks: usize, spec: FaultSpec, f: F) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: Fn(&mut FaultyComm) -> T + Send + Sync,
{
    let failed = spec.failed_ranks.clone();
    let sim = EventSim::new(nranks).faults(spec);
    launch(sim, |link| {
        f(&mut FaultyComm {
            link,
            failed: failed.clone(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultSpec {
        FaultSpec::healthy().with_seed(seed).drop_per_mille(300)
    }

    #[test]
    fn healthy_spec_matches_the_healthy_runtime() {
        let healthy = crate::comm::run(4, |mut c| c.allreduce_sum_scalar((c.rank() + 1) as f64));
        let faulty = run_faulty(4, FaultSpec::healthy(), |c| {
            c.allreduce_sum_scalar((c.rank() + 1) as f64).expect("healthy")
        });
        for (h, f) in healthy.iter().zip(&faulty) {
            assert_eq!(Some(h), f.value());
            let s = f.faults().expect("completed");
            assert_eq!(s.drops, 0);
            assert_eq!(s.retries, 0);
            assert_eq!(s.timeouts, 0);
        }
    }

    #[test]
    fn drops_retry_to_the_same_answer_deterministically() {
        let run_once = || {
            run_faulty(6, lossy(42), |c| {
                c.allreduce_sum_scalar((c.rank() + 1) as f64).expect("retries succeed")
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same seed, same decisions, same stats");
        for o in &a {
            assert_eq!(o.value(), Some(&21.0));
        }
        let total = total_fault_stats(&a);
        assert!(total.drops > 0, "30% loss over 30 sends must drop some");
        assert_eq!(total.retries, total.drops, "every drop was retried");
        assert_eq!(total.timeouts, 0);
        assert!(total.backoff_ps > 0);
    }

    #[test]
    fn different_seeds_make_different_decisions() {
        let a = total_fault_stats(&run_faulty(6, lossy(1), |c| {
            c.allreduce_sum_scalar(1.0).expect("ok")
        }));
        let b = total_fault_stats(&run_faulty(6, lossy(2), |c| {
            c.allreduce_sum_scalar(1.0).expect("ok")
        }));
        assert_ne!(a, b);
    }

    #[test]
    fn failed_ranks_are_excluded_from_collectives() {
        let spec = FaultSpec::healthy().fail_rank(1).fail_rank(3);
        let outcomes = run_faulty(5, spec, |c| {
            assert_eq!(c.alive_ranks(), vec![0, 2, 4]);
            c.allreduce_sum_scalar((c.rank() + 1) as f64).expect("survivors ok")
        });
        assert!(outcomes[1].is_failed());
        assert!(outcomes[3].is_failed());
        // Survivors sum only the surviving contributions: 1 + 3 + 5.
        for r in [0, 2, 4] {
            assert_eq!(outcomes[r].value(), Some(&9.0));
        }
    }

    #[test]
    fn sends_to_a_failed_rank_fail_fast() {
        let outcomes = run_faulty(3, FaultSpec::healthy().fail_rank(2), |c| {
            c.send(2, 7, vec![1.0])
        });
        for r in [0, 1] {
            assert_eq!(
                outcomes[r].value(),
                Some(&Err(FaultError::RankFailed { rank: 2 }))
            );
        }
    }

    #[test]
    fn zero_byte_messages_survive_the_faulty_path() {
        let outcomes = run_faulty(2, lossy(7), |c| {
            if c.rank() == 0 {
                c.send(1, 9, Vec::new()).expect("retries succeed");
                c.barrier().expect("barrier");
                0
            } else {
                let got = c.recv(0, 9).expect("delivered");
                c.barrier().expect("barrier");
                got.len()
            }
        });
        assert_eq!(outcomes[1].value(), Some(&0));
        // Zero-byte messages are still messages: they can drop and retry.
        let total = total_fault_stats(&outcomes);
        assert_eq!(total.timeouts, 0);
    }

    #[test]
    fn single_rank_world_never_drops() {
        // All traffic is loopback; even a 100% drop rate changes nothing.
        let spec = FaultSpec::healthy().with_seed(3).drop_per_mille(1000);
        let outcomes = run_faulty(1, spec, |c| {
            c.barrier().expect("no peers");
            let sum = c.allreduce_sum_scalar(5.0).expect("loopback");
            let echo = c.sendrecv(0, 1, vec![2.5]).expect("self");
            (sum, echo[0])
        });
        assert_eq!(outcomes[0].value(), Some(&(5.0, 2.5)));
        let s = outcomes[0].faults().expect("completed");
        assert_eq!(s.drops, 0);
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn total_loss_times_out_with_ordered_expiries() {
        // 100% drop: every send exhausts max_attempts and times out. The
        // expiry times are pure sums of exponential backoffs, so their
        // ordering is deterministic: the second message expires after the
        // first on the sender's simulated clock.
        let spec = FaultSpec::healthy().with_seed(11).drop_per_mille(1000);
        let per_message: u64 = (0..4).map(|a| 1_000_000_000u64 << a).sum();
        let run_once = || {
            run_faulty(2, spec.clone(), |c| {
                if c.rank() == 0 {
                    let e1 = c.send(1, 1, vec![1.0]).expect_err("all dropped");
                    let e2 = c.send(1, 2, vec![2.0]).expect_err("all dropped");
                    vec![e1, e2]
                } else {
                    vec![
                        c.recv(0, 1).expect_err("tombstone"),
                        c.recv(0, 2).expect_err("tombstone"),
                    ]
                }
            })
        };
        let outcomes = run_once();
        let sender = outcomes[0].value().expect("completed");
        let (e1, e2) = (&sender[0], &sender[1]);
        let expiry = |e: &FaultError| match *e {
            FaultError::Timeout { expired_at_ps, attempts, .. } => {
                assert_eq!(attempts, 4);
                expired_at_ps
            }
            ref other => panic!("expected timeout, got {other:?}"),
        };
        assert_eq!(expiry(e1), per_message);
        assert_eq!(expiry(e2), 2 * per_message, "expiries accumulate in order");
        // The receiver observes the sender's expiry times, in the same
        // order (its `peer` field names the source instead of the dest).
        let receiver = outcomes[1].value().expect("completed");
        assert_eq!(expiry(&receiver[0]), per_message);
        assert_eq!(expiry(&receiver[1]), 2 * per_message);
        // And the whole schedule reproduces.
        assert_eq!(outcomes, run_once());
    }

    #[test]
    fn delays_charge_simulated_time_without_changing_results() {
        let spec = FaultSpec::healthy().with_seed(5).delay_per_mille(500);
        let outcomes = run_faulty(4, spec, |c| {
            c.allreduce_sum_scalar((c.rank() + 1) as f64).expect("delivered")
        });
        for o in &outcomes {
            assert_eq!(o.value(), Some(&10.0));
        }
        let total = total_fault_stats(&outcomes);
        assert!(total.delays > 0, "50% delay over 12 sends must delay some");
        assert_eq!(total.delay_ps, total.delays * 50_000_000);
        assert_eq!(total.drops, 0);
    }

    #[test]
    fn fault_counters_report_to_obs() {
        let reg = pvs_obs::Registry::new();
        let outcomes = run_faulty(4, lossy(9), |c| {
            c.allreduce_sum_scalar(1.0).expect("ok")
        });
        total_fault_stats(&outcomes).record_to(&reg);
        assert!(reg.counter("mpisim.fault.retries") > 0);
        assert_eq!(
            reg.counter("mpisim.fault.retries"),
            reg.counter("mpisim.fault.drops")
        );
        assert_eq!(reg.counter("mpisim.fault.timeouts"), 0);
    }

    #[test]
    fn retry_backoff_saturates_at_the_shift_boundary() {
        // In range: plain doubling.
        assert_eq!(retry_backoff_ps(1_000, 0), 1_000);
        assert_eq!(retry_backoff_ps(1_000, 10), 1_024_000);
        // Attempt 63 is the last representable power of two; a base > 1
        // saturates the multiply instead of wrapping.
        assert_eq!(retry_backoff_ps(1, 63), 1u64 << 63);
        assert_eq!(retry_backoff_ps(3, 63), u64::MAX);
        // Attempt >= 64 used to be the overflow panic (debug) / silent
        // wrap to tiny values (release); now it pins at the ceiling.
        assert_eq!(retry_backoff_ps(1, 64), u64::MAX);
        assert_eq!(retry_backoff_ps(1_000_000_000, 200), u64::MAX);
        // Zero base backs off by nothing no matter the attempt count.
        assert_eq!(retry_backoff_ps(0, 64), 0);
        assert_eq!(retry_backoff_ps(0, 3), 0);
    }

    #[test]
    fn huge_max_attempts_saturates_instead_of_overflowing() {
        // 100% drop with max_attempts far past the shift width: before
        // the fix this panicked (debug) at attempt 64. Now the clock and
        // backoff accounting pin at u64::MAX and the timeout surfaces.
        let spec = FaultSpec {
            drop_per_mille: 1000,
            max_attempts: 80,
            ..FaultSpec::healthy().with_seed(21)
        };
        let outcomes = run_faulty(2, spec, |c| {
            if c.rank() == 0 {
                Some(c.send(1, 1, vec![1.0]).expect_err("all dropped"))
            } else {
                let _ = c.recv(0, 1).expect_err("tombstone");
                None
            }
        });
        let e = (*outcomes[0].value().expect("completed")).expect("sender err");
        match e {
            FaultError::Timeout { attempts, expired_at_ps, .. } => {
                assert_eq!(attempts, 80);
                assert_eq!(expired_at_ps, u64::MAX, "clock saturates");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        let s = outcomes[0].faults().expect("completed");
        assert_eq!(s.backoff_ps, u64::MAX, "accumulated backoff saturates");
    }

    #[test]
    fn survivor_allreduce_is_bit_identical_across_ranks() {
        // Non-associative contributions over survivors {0, 2, 3}: every
        // survivor must fold in canonical survivor order and return the
        // same bits.
        let contrib = |rank: usize| [1e16, 1.0, -1e16, 0.1][rank % 4];
        let spec = FaultSpec::healthy().fail_rank(1);
        let outcomes = run_faulty(4, spec, |c| {
            c.allreduce_sum(&[contrib(c.rank())]).expect("healthy links")
        });
        let canonical = ((1e16 + -1e16) + 0.1) as f64;
        for r in [0usize, 2, 3] {
            let v = outcomes[r].value().expect("survivor");
            assert_eq!(v[0].to_bits(), canonical.to_bits(), "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "reserved collective bit")]
    fn reserved_tags_are_rejected_in_faulty_mode() {
        run_faulty(1, FaultSpec::healthy(), |c| {
            let _ = c.send(0, crate::tags::COLLECTIVE_BIT | 1, vec![1.0]);
        });
    }

    #[test]
    fn total_loss_allreduce_fails_every_rank_instead_of_hanging() {
        // 100% drop: every ring message exhausts its retries. Every rank
        // gets a structured timeout instead of blocking on a predecessor
        // that stopped forwarding.
        let spec = FaultSpec::healthy().with_seed(2).drop_per_mille(1000);
        let outcomes = run_faulty(4, spec, |c| c.allreduce_sum(&[1.0]));
        for (r, o) in outcomes.iter().enumerate() {
            assert!(
                matches!(
                    o.value(),
                    Some(Err(FaultError::Timeout { attempts: 4, .. }))
                ),
                "rank {r}: {o:?}"
            );
        }
    }

    #[test]
    fn barrier_over_survivors_completes_for_odd_worlds() {
        for n in [2usize, 3, 5] {
            let spec = FaultSpec::healthy().fail_rank(0);
            let outcomes = run_faulty(n + 1, spec, |c| {
                c.barrier().expect("survivor barrier");
                c.rank()
            });
            assert_eq!(outcomes.iter().filter(|o| !o.is_failed()).count(), n);
        }
    }
}
