//! # egd-parallel
//!
//! Shared-memory parallel execution engine for evolutionary game dynamics,
//! implementing the paper's *multi-level decomposition* (§IV–V) on threads:
//!
//! * SSets holding the same strategy share their pair payoffs (the paper's
//!   SSet abstraction), so [`ParallelEngine::compute_fitness`] evaluates
//!   one distinct-pair payoff matrix per generation instead of every SSet
//!   pair, and
//! * the matrix cells are spread over the threads of a [rayon] pool,
//!   mirroring the paper's OpenMP level. [`SSetPartition`] is the
//!   SSets-across-processors level that `egd-cluster` assigns to ranks.
//!
//! The engine produces *bit-identical* populations to the sequential
//! reference in `egd-core` for any thread count: all randomness is drawn from
//! per-`(pair, generation)` streams and reductions are performed in a fixed
//! order.
//!
//! The crate also contains the game-play [`kernel`] variants that make up the
//! optimisation ladder of the paper's Fig. 3 (naive linear state search →
//! indexed lookup → branch-free accumulation with cycle closing).
//!
//! Parallel sections execute on the `egd-sched` adaptive work-stealing
//! scheduler (see that crate's docs for the determinism contract);
//! [`ThreadConfig::with_policy`](thread_pool::ThreadConfig::with_policy)
//! switches back to the legacy static split for load-balance A/B studies,
//! and [`ParallelEngine::last_sched_stats`] /
//! [`simulation::ParallelReport::sched`] surface steal counts and per-worker
//! busy time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod grouping;
pub mod intern;
pub mod kernel;
pub mod partition;
pub mod simulation;
pub mod soa;
pub mod thread_pool;

pub use cache::ConcurrentPairEvaluator;
pub use engine::{GenerationTiming, ParallelEngine};
pub use grouping::StrategyGrouping;
pub use intern::{CompiledInterner, FingerprintBuildHasher, FingerprintMap};
pub use kernel::{calibrated_cost_model, GameKernel, KernelVariant};
pub use partition::SSetPartition;
pub use simulation::{ParallelReport, ParallelSimulation};
pub use soa::PopulationSoA;
pub use thread_pool::{SchedPolicy, ThreadConfig};

pub use egd_sched::{SchedStats, WorkerStats};
