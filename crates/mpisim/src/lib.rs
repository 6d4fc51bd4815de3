//! # pvs-mpisim — a message-passing runtime for the PVS applications
//!
//! The four applications of the SC 2004 study are distributed-memory MPI
//! codes (LBMHD additionally has a Co-array Fortran port). This crate
//! provides the runtime they run on in this reproduction. One
//! event-driven scheduler implements message matching, collectives,
//! traffic charging and fault injection; ranks reach it through two
//! front ends:
//!
//! * closures ([`run`], [`run_faulty`]): each rank is ordinary blocking
//!   code on its own OS thread, and every call posts an [`Op`] and waits
//!   for its [`Reply`]. The real application kernels use this form;
//! * [`RankProgram`] continuations ([`EventSim`], [`run_events`]): each
//!   rank is an explicit state machine parked in a few hundred bytes,
//!   so 10⁵ ranks need no 10⁵ OS threads. The weak-scaling skeletons
//!   use this form.
//!
//! Both produce the same values, traffic and fault accounting.
//!
//! * [`comm`]: the closure front end — two-sided `send`/`recv` with
//!   tag matching and out-of-order buffering, collectives (barrier,
//!   allreduce, gather, broadcast, all-to-all), and the traffic
//!   statistics that calibrate the performance model's communication
//!   phases;
//! * [`caf`]: co-array style one-sided windows (`put`/`get` into remote
//!   rank memory) mirroring LBMHD's CAF port;
//! * [`cart`]: cartesian process-grid helpers (2D/3D decompositions and
//!   neighbour ranks) used by every grid application;
//! * [`fault`]: deterministic message-level fault injection — seeded
//!   drop/delay decisions, exponential backoff in simulated picoseconds,
//!   timeouts, rank failure with survivor-only collectives, and retry
//!   counters reported through `pvs-obs`;
//! * [`event`]: the scheduler — ranks multiplexed on the shared
//!   `pvs_core::ThreadPool` in deterministic supersteps ordered by the
//!   simulated-picosecond event core;
//! * [`tags`]: the reserved tag bit — application tags keep the top bit
//!   clear, so they can never collide with the runtime's own.
//!
//! The whole runtime is standard library only, so it builds with no
//! network access.
//!
//! ## Example
//!
//! ```
//! use pvs_mpisim::run;
//!
//! // Sum rank ids with an allreduce across 4 ranks.
//! let results = run(4, |mut comm| comm.allreduce_sum_scalar(comm.rank() as f64));
//! assert!(results.iter().all(|&x| x == 6.0));
//! ```

pub mod caf;
pub mod cart;
pub mod comm;
pub mod event;
pub mod fault;
pub mod tags;

pub use caf::CoArray;
pub use cart::{Cart2d, Cart3d};
pub use comm::{run, Comm, CommStats, RecvRequest};
pub use event::{
    run_events, EventSim, Op, RankCtx, RankProgram, Reply, ScriptProgram, SimReport, SimStats,
    Step,
};
pub use fault::{
    retry_backoff_ps, run_faulty, FaultError, FaultSpec, FaultStats, FaultyComm, RankOutcome,
};
pub use tags::{is_user_tag, COLLECTIVE_BIT};
