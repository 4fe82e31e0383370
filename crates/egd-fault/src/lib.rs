//! Deterministic fault injection and checkpoint stores for the simulated
//! cluster.
//!
//! The paper's target machines operate at rank counts where component failure
//! is an expected condition, not an exception. This crate supplies the three
//! ingredients the cluster layer needs to *test* that regime reproducibly:
//!
//! * [`FaultPlan`] — a seeded, serialisable schedule of faults (rank crashes
//!   at generation boundaries, message drops, message delays, slow-rank
//!   stalls). A plan is a schedule over the *run's history*, not per attempt:
//!   every event fires at most once, so a supervisor that replays from a
//!   checkpoint makes progress past the fault deterministically.
//! * the injection switch ([`arm`] / [`injection_armed`]) — off by default
//!   with a single-relaxed-load fast path, mirroring `egd-obs`'s tracing
//!   switch, so production transports pay one predictable branch.
//! * [`CheckpointStore`] — the byte-oriented snapshot store (in-memory and
//!   on-disk backends) behind generation-granular checkpoint/restart.
//!
//! The crate is deliberately transport-agnostic: it never sees a packet or a
//! rank task, only `(from, to)` message ordinals and `(rank, generation)`
//! boundaries that the cluster layer reports. That keeps it at the bottom of
//! the dependency graph, next to `egd-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod plan;
pub mod switch;

pub use checkpoint::{CheckpointStore, DirStore, MemoryStore};
pub use plan::{FaultEvent, FaultPlan};
pub use switch::{
    arm, crash_fault, injection_armed, injection_report, injection_report_in, message_fate,
    note_stale_rejected, slow_fault, FiredFault, InjectionReport, InjectionSession, MessageFate,
};
