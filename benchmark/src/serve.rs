//! `serve_tenants`: a fixed batch of 16 sessions submitted at once to one
//! `SessionManager` on the host's threads, admission-priced so some queue,
//! checkpointing every 50 generations, with one session suspended halfway
//! and resumed from its checkpoint.

use crate::harness::{setup_ns, timed, Budget, Ledger, Opts, PeakHeap, Report, Samples};
use crate::stats::ratio;
use crate::store::{StoreCounts, TimedStore};
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::state::MemoryDepth;
use egd_core::Simulation;
use egd_cost::CostModel;
use egd_fault::{CheckpointStore, MemoryStore};
use egd_serve::{
    AdmissionAction, EngineKind, ServeConfig, SessionConfig, SessionHandle, SessionManager,
    SessionStatus,
};
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 16;
const GENERATIONS: u64 = 400;
const CHECKPOINT_INTERVAL: u64 = 50;
/// The session suspended at `SUSPEND_AT` and resumed after the batch.
const SUSPENDED: usize = 5;
const SUSPEND_AT: u64 = 200;
/// Admission budget per group, in heaviest-session costs: the rest queue.
const SESSIONS_PER_GROUP: u64 = 4;

/// The tenants: 32 SSets × 4 agents, memory 1 and 2 alternating, noise
/// 0.02, every 4th on the shared-memory engine with one thread.
fn sessions(seed: u64) -> Vec<SessionConfig> {
    (0..SESSIONS)
        .map(|i| {
            let memory = if i % 2 == 0 {
                MemoryDepth::ONE
            } else {
                MemoryDepth::TWO
            };
            let simulation = SimulationConfig {
                memory,
                num_ssets: 32,
                agents_per_sset: 4,
                noise: 0.02,
                generations: GENERATIONS,
                seed: seed.wrapping_mul(SESSIONS as u64).wrapping_add(i as u64),
                ..SimulationConfig::default()
            };
            let engine = if i % 4 == 3 {
                EngineKind::Parallel { threads: 1 }
            } else {
                EngineKind::Sequential
            };
            SessionConfig::new(format!("tenant-{i}"), simulation).with_engine(engine)
        })
        .collect()
}

/// Pool shape: `threads` workers and cost groups, each group budgeted for
/// `SESSIONS_PER_GROUP` of the heaviest session, priced like the manager
/// prices admissions.
fn serve_config(sessions: &[SessionConfig], threads: usize) -> EgdResult<ServeConfig> {
    let model = CostModel::blue_gene_like();
    let mut heaviest = 0;
    for session in sessions {
        let game = session.simulation.game()?;
        let population = session.simulation.initial_population()?;
        let per_generation =
            egd_cost::predict::generation_weight_ns(&model, &game, population.strategies());
        heaviest = heaviest.max(per_generation.max(1) * GENERATIONS);
    }
    Ok(ServeConfig {
        pool_workers: threads,
        worker_groups: threads,
        capacity_ns_per_group: heaviest * SESSIONS_PER_GROUP,
        max_queued: SESSIONS,
        checkpoint_interval: CHECKPOINT_INTERVAL,
        ..ServeConfig::default()
    })
}

/// Builds the manager and submits the batch: the workload's set-up.
fn submit_all(
    cfg: &ServeConfig,
    sessions: Vec<SessionConfig>,
    store: Arc<dyn CheckpointStore>,
    ledger: &mut Ledger,
) -> EgdResult<(SessionManager, Vec<SessionHandle>)> {
    let mut manager = SessionManager::with_store(cfg.clone(), store)?;
    let mut handles = Vec::with_capacity(sessions.len());
    for session in sessions {
        let (handle, ns) = timed(|| manager.submit(session));
        ledger.add("serve.manager.submit", ns, 1);
        handles.push(handle?);
    }
    Ok((manager, handles))
}

/// What one batch produced.
struct Batch {
    /// Time inside the two `SessionManager::run` calls.
    run_calls_ns: u64,
    completed: usize,
    suspended_at: Option<u64>,
    resumed_state: Option<Vec<u8>>,
    queued: u64,
    rejected: u64,
    events: u64,
    dropped_events: u64,
}

/// One batch: submit, run until the suspension, resume, run to the end.
fn batch(
    cfg: &ServeConfig,
    configs: &[SessionConfig],
    store: Arc<dyn CheckpointStore>,
    samples: &mut Samples,
    ledger: &mut Ledger,
) -> EgdResult<Batch> {
    let sessions = configs.to_vec();
    let start = Instant::now();
    let (mut manager, handles) = submit_all(cfg, sessions, store, ledger)?;
    handles[SUSPENDED].suspend_at(SUSPEND_AT);
    let setup_ns = start.elapsed().as_nanos() as u64;

    let (first, first_ns) = timed(|| manager.run());
    first?;
    let suspended_at = match handles[SUSPENDED].status() {
        SessionStatus::Suspended { generation } => Some(generation),
        _ => None,
    };
    let (status, resume_ns) = timed(|| manager.resume(SUSPENDED));
    status?;
    ledger.add("serve.manager.resume", resume_ns, 1);
    let (report, rerun_ns) = timed(|| manager.run());
    let report = report?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    ledger.add_wall(wall_ns);
    let run_ns = wall_ns - setup_ns;
    let gens: u64 = report.outcomes.iter().map(|o| o.generations_done).sum();
    // Every tenant waits this long per generation of its session.
    samples.push(wall_ns, run_ns, gens, &[run_ns as f64 / GENERATIONS as f64]);

    let count = |action| {
        report
            .admission_log
            .iter()
            .filter(|record| record.action == action)
            .count() as u64
    };
    Ok(Batch {
        run_calls_ns: first_ns + rerun_ns,
        completed: report
            .outcomes
            .iter()
            .filter(|o| o.status == SessionStatus::Completed)
            .count(),
        suspended_at,
        resumed_state: handles[SUSPENDED].final_state_bytes(),
        queued: count(AdmissionAction::Queued),
        rejected: count(AdmissionAction::Rejected),
        events: handles.iter().map(|h| h.drain_events().len() as u64).sum(),
        dropped_events: report.outcomes.iter().map(|o| o.dropped_events).sum(),
    })
}

/// Totals of the traced batches beyond the ledger.
#[derive(Default)]
struct Counters {
    queued: u64,
    rejected: u64,
    events: u64,
    dropped_events: u64,
    store: Vec<StoreCounts>,
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) -> EgdResult<()> {
    let configs = sessions(opts.seed);
    let cfg = serve_config(&configs, opts.threads)?;
    let mut discard = Ledger::default();
    let mut samples = Samples::default();
    // The solo run the resumed session must equal, computed up front.
    let mut solo = Simulation::new(configs[SUSPENDED].simulation.clone())?;
    solo.run_for(GENERATIONS)?;
    let solo = solo.checkpoint().to_bytes()?;

    let mut traced = Samples::default();
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    let mut budget = Budget::new(opts.seconds);
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let heap = PeakHeap::start();
    while budget.next_job() {
        for &mode in modes {
            let timed_store = Arc::new(TimedStore::new(MemoryStore::new()));
            let (store, into, book): (Arc<dyn CheckpointStore>, _, _) = if mode {
                (timed_store.clone(), &mut traced, &mut ledger)
            } else {
                (Arc::new(MemoryStore::new()), &mut samples, &mut discard)
            };
            let out = batch(&cfg, &configs, store, into, book)?;
            budget.job_took(into.last_wall_ns());
            let failed = (SESSIONS - out.completed) as u64;
            report.ops(SESSIONS as u64, failed);
            report.check(
                format!("{} of {SESSIONS} sessions completed", out.completed),
                failed == 0,
            );
            report.check(
                format!("session {SUSPENDED} suspended at generation {SUSPEND_AT}"),
                out.suspended_at == Some(SUSPEND_AT),
            );
            report.check_same(
                format!("seed {}: resumed session equals its solo run", opts.seed),
                &solo,
                out.resumed_state.as_deref().unwrap_or_default(),
            );
            if mode {
                // Checkpoint calls run inside `run`; its row is self time.
                let store = timed_store.counts();
                let store_ns = store.save_ns + store.load_ns;
                ledger.add("serve.manager.run (self)", out.run_calls_ns - store_ns, 2);
                ledger.add("fault.checkpoint.save", store.save_ns, store.saves);
                ledger.add("fault.checkpoint.load", store.load_ns, store.loads);
                counters.store.push(store);
                counters.queued += out.queued;
                counters.rejected += out.rejected;
                counters.events += out.events;
                counters.dropped_events += out.dropped_events;
            }
        }
    }
    let peak = heap.bytes();
    samples.setup_ns = setup_ns(|| {
        submit_all(
            &cfg,
            configs.to_vec(),
            Arc::new(MemoryStore::new()),
            &mut discard,
        )
    })?;

    if opts.trace {
        let batches = counters.store.len() as f64;
        report.metric(
            "serve.manager.submit_us",
            ratio(
                ledger.ns("serve.manager.submit") / 1e3,
                ledger.calls("serve.manager.submit"),
            ),
        );
        report.metric(
            "serve.manager.resume_us",
            ratio(
                ledger.ns("serve.manager.resume") / 1e3,
                ledger.calls("serve.manager.resume"),
            ),
        );
        report.metric(
            "serve.admission.queued",
            ratio(counters.queued as f64, batches),
        );
        report.metric(
            "serve.admission.rejected",
            ratio(counters.rejected as f64, batches),
        );
        report.metric(
            "serve.session.events",
            ratio(counters.events as f64, batches),
        );
        report.metric(
            "serve.session.dropped_events",
            ratio(counters.dropped_events as f64, batches),
        );
        crate::store::report(report, &counters.store);
        report.ledger(&ledger, traced.gens_per_s(), samples.gens_per_s());
    } else {
        samples.report(report, peak);
    }
    Ok(())
}
