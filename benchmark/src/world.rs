//! `world_m6`: memory-6 pure strategies on the simulated-MPI `SimWorld`
//! protocol under `SupervisedExecutor`, 63 worker ranks plus the Nature
//! rank multiplexed onto the host's threads, checkpointing every 10
//! generations with no fault plan armed.

use crate::harness::{setup_ns, timed, Budget, Ledger, Opts, PeakHeap, Report, Samples};
use crate::stats::ratio;
use crate::store::{StoreCounts, TimedStore};
use egd_cluster::{DistributedConfig, SupervisedExecutor, SupervisorConfig};
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::state::MemoryDepth;
use egd_core::Simulation;
use egd_fault::{CheckpointStore, MemoryStore};
use std::sync::Arc;
use std::time::Instant;

const SSETS: usize = 256;
const WORKER_RANKS: usize = 63;
const CHECKPOINT_INTERVAL: u64 = 10;
/// Generations per supervised run; every run starts from generation 0,
/// whose cold pair caches make it the one expensive generation.
const JOB_GENERATIONS: u64 = 100;

fn config(seed: u64) -> SimulationConfig {
    SimulationConfig {
        memory: MemoryDepth::SIX,
        num_ssets: SSETS,
        agents_per_sset: 2,
        noise: 0.0,
        generations: JOB_GENERATIONS,
        seed,
        ..SimulationConfig::default()
    }
}

fn executor(
    config: &SimulationConfig,
    traced: bool,
    threads: usize,
    store: Arc<dyn CheckpointStore>,
) -> EgdResult<SupervisedExecutor> {
    let dist = DistributedConfig::with_workers(WORKER_RANKS)
        .pool_threads(threads)
        .trace_interval(u64::from(traced));
    let supervisor = SupervisorConfig::default().checkpoint_interval(CHECKPOINT_INTERVAL);
    SupervisedExecutor::with_store(config.clone(), dist, supervisor, store)
}

/// Totals of the traced jobs beyond the ledger.
#[derive(Default)]
struct Counters {
    messages: u64,
    bytes: u64,
    comm_frac: f64,
    attempts: u64,
    store: Vec<StoreCounts>,
}

/// One supervised run from generation 0. Untraced jobs run on a plain
/// `MemoryStore`; traced ones on a timed store with the program's own
/// per-generation `RunTrace` on.
fn job(
    config: &SimulationConfig,
    opts: &Opts,
    traced: bool,
    samples: &mut Samples,
    ledger: &mut Ledger,
    counters: &mut Counters,
) -> EgdResult<egd_cluster::SupervisedRunSummary> {
    let timed_store = Arc::new(TimedStore::new(MemoryStore::new()));
    let store: Arc<dyn CheckpointStore> = if traced {
        timed_store.clone()
    } else {
        Arc::new(MemoryStore::new())
    };
    let start = Instant::now();
    let exec = executor(config, traced, opts.threads, store)?;
    let (summary, run_ns) = timed(|| exec.run());
    let wall_ns = start.elapsed().as_nanos() as u64;
    let summary = summary?;
    let gens = summary.summary.generations;
    // Per-generation latency is not visible from outside the run; its mean
    // over the job is.
    let mean_gen_ns = ratio(run_ns as f64, gens as f64);
    samples.push(wall_ns, run_ns, gens, &[mean_gen_ns]);
    if traced {
        let traffic = summary.summary.traffic;
        counters.messages +=
            traffic.p2p_messages + traffic.broadcasts + traffic.gathers + traffic.barriers;
        counters.bytes += traffic.p2p_bytes + traffic.broadcast_bytes + traffic.gather_bytes;
        counters.comm_frac += summary.summary.trace.comm_fraction();
        counters.attempts += u64::from(summary.recovery.attempts);
        let store = timed_store.counts();
        ledger.add_wall(run_ns);
        ledger.add("fault.checkpoint.save", store.save_ns, store.saves);
        ledger.add("fault.checkpoint.load", store.load_ns, store.loads);
        ledger.add(
            "cluster.supervised_run (self)",
            run_ns.saturating_sub(store.save_ns + store.load_ns),
            1,
        );
        counters.store.push(store);
    }
    Ok(summary)
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) -> EgdResult<()> {
    let config = config(opts.seed);
    let mut samples = Samples::default();
    // The sequential reference every job's final population must equal,
    // computed before the measured jobs.
    let mut reference = Simulation::new(config.clone())?;
    reference.run_for(JOB_GENERATIONS)?;
    let reference = reference.population().clone();

    let mut traced = Samples::default();
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    let mut budget = Budget::new(opts.seconds);
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let heap = PeakHeap::start();
    while budget.next_job() {
        for &mode in modes {
            let into = if mode { &mut traced } else { &mut samples };
            let summary = job(&config, opts, mode, into, &mut ledger, &mut counters)?;
            budget.job_took(into.last_wall_ns());
            report.ops(summary.summary.generations, 0);
            report.check(
                format!(
                    "seed {}: world population equals the sequential run",
                    opts.seed
                ),
                summary.summary.population == reference,
            );
            report.check(
                "fault-free run takes one attempt",
                summary.recovery.attempts == 1,
            );
        }
    }
    let peak = heap.bytes();
    samples.setup_ns =
        setup_ns(|| executor(&config, false, opts.threads, Arc::new(MemoryStore::new())))?;

    if opts.trace {
        let jobs = counters.store.len() as f64;
        let gens = traced.gens() as f64;
        report.metric(
            "cluster.mpi.messages",
            ratio(counters.messages as f64, gens),
        );
        report.metric("cluster.mpi.bytes", ratio(counters.bytes as f64, gens));
        report.metric(
            "cluster.executor.comm_frac",
            ratio(counters.comm_frac, jobs),
        );
        report.metric(
            "fault.supervisor.attempts",
            ratio(counters.attempts as f64, jobs),
        );
        crate::store::report(report, &counters.store);
        report.ledger(&ledger, traced.gens_per_s(), samples.gens_per_s());
    } else {
        samples.report(report, peak);
    }
    Ok(())
}
