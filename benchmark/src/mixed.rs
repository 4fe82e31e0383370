//! `mixed_m2`: a skewed mixed memory-2 population on `ParallelSimulation`
//! at the host's thread count: cost-priced egd-sched partitions over ~16k
//! distinct-pair cells per generation, most of them re-simulated.

use crate::harness::{setup_ns, timed, Budget, Ledger, Opts, PeakHeap, Report, Samples};
use crate::stats::ratio;
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::population::Population;
use egd_core::rng::{stream, StreamKind};
use egd_core::simulation::FitnessMode;
use egd_core::state::MemoryDepth;
use egd_core::strategy::{
    space::StrategyFamily, MixedStrategy, PureStrategy, StrategyKind, StrategySpace,
};
use egd_core::SimulationState;
use egd_parallel::{ParallelEngine, ParallelSimulation, ThreadConfig};
use std::collections::HashSet;
use std::time::Instant;

/// SSets: the first `PURE` hold distinct pure strategies (cached after the
/// first generation), the rest distinct mixed ones (re-simulated every
/// generation).
const SSETS: usize = 128;
const PURE: usize = 32;
const ROUNDS: u32 = 200;
/// Generations per job; every job starts from the seeded population.
const JOB_GENERATIONS: u64 = 100;
/// Generations of the `--seed` byte-identity check.
const CHECK_GENERATIONS: u64 = 10;

/// The seeded configuration and skewed population.
fn inputs(seed: u64) -> (SimulationConfig, Population) {
    let memory = MemoryDepth::TWO;
    let config = SimulationConfig {
        memory,
        family: StrategyFamily::Mixed,
        num_ssets: SSETS,
        agents_per_sset: 2,
        rounds_per_game: ROUNDS,
        noise: 0.0,
        seed,
        ..SimulationConfig::default()
    };
    let mut rng = stream(seed, StreamKind::InitialStrategy, u64::from(u32::MAX));
    let mut seen = HashSet::new();
    let mut strategies = Vec::with_capacity(SSETS);
    while strategies.len() < SSETS {
        let candidate = if strategies.len() < PURE {
            StrategyKind::Pure(PureStrategy::random(memory, &mut rng))
        } else {
            StrategyKind::Mixed(MixedStrategy::random(memory, &mut rng))
        };
        if seen.insert(candidate.fingerprint()) {
            strategies.push(candidate);
        }
    }
    let population = Population::from_strategies(StrategySpace::mixed(memory), 2, strategies)
        .expect("distinct strategies build a population");
    (config, population)
}

fn build(
    config: &SimulationConfig,
    population: &Population,
    threads: usize,
) -> EgdResult<ParallelSimulation> {
    ParallelSimulation::with_population(
        config.clone(),
        population.clone(),
        ThreadConfig::with_threads(threads),
        FitnessMode::Simulated,
    )
}

/// One untraced job through `ParallelSimulation::step`; returns the final
/// state bytes.
fn job(
    config: &SimulationConfig,
    population: &Population,
    opts: &Opts,
    generations: u64,
    samples: &mut Samples,
    latencies: &mut Vec<f64>,
) -> EgdResult<Vec<u8>> {
    let start = Instant::now();
    let mut sim = build(config, population, opts.threads)?;
    let loop_start = Instant::now();
    latencies.clear();
    let mut changes = 0;
    for _ in 0..generations {
        let (decision, ns) = timed(|| sim.step());
        changes += u64::from(decision?.changes_population());
        latencies.push(ns as f64);
    }
    let run_ns = loop_start.elapsed().as_nanos() as u64;
    samples.push(
        start.elapsed().as_nanos() as u64,
        run_ns,
        generations,
        latencies,
    );
    SimulationState::capture(config.seed, generations, changes, sim.population()).to_bytes()
}

/// Totals of the traced jobs beyond the ledger.
#[derive(Default)]
struct Counters {
    cells: u64,
    changes: u64,
    busy_ns: f64,
    worker_fitness_ns: f64,
    imbalance: f64,
    steals: u64,
    cache_hits: u64,
    cache_lookups: u64,
    compiles: u64,
}

/// One traced job: `ParallelSimulation::step` rebuilt from
/// `ParallelEngine::compute_fitness` and `NatureAgent::evolve`, each timed.
fn traced_job(
    config: &SimulationConfig,
    population: &Population,
    opts: &Opts,
    ledger: &mut Ledger,
    counters: &mut Counters,
    samples: &mut Samples,
) -> EgdResult<Vec<u8>> {
    let mut population = population.clone();
    let engine = ParallelEngine::new(
        config,
        FitnessMode::Simulated,
        ThreadConfig::with_threads(opts.threads),
    )?;
    let nature = config.nature_agent()?;
    let start = Instant::now();
    let mut changes = 0;
    for generation in 0..JOB_GENERATIONS {
        let groups = population
            .strategies()
            .iter()
            .map(|s| s.fingerprint())
            .collect::<HashSet<u64>>()
            .len() as u64;
        let (fitness, ns) = timed(|| engine.compute_fitness(&population, generation));
        let fitness = fitness?;
        ledger.add("parallel.engine.compute_fitness", ns, 1);
        counters.cells += groups * groups;
        if let Some(stats) = engine.last_sched_stats() {
            counters.busy_ns += stats.workers.iter().map(|w| w.busy_ns as f64).sum::<f64>();
            counters.worker_fitness_ns += stats.num_workers() as f64 * ns as f64;
            counters.imbalance += stats.imbalance();
            counters.steals += stats.steals;
        }
        let (decision, ns) = timed(|| nature.evolve(generation, &fitness, &mut population));
        ledger.add("core.dynamics.evolve", ns, 1);
        changes += u64::from(decision?.changes_population());
    }
    let ns = start.elapsed().as_nanos() as u64;
    ledger.add_wall(ns);
    samples.push(ns, ns, JOB_GENERATIONS, &[]);
    counters.changes += changes;
    let metrics = engine.metrics("mixed_m2");
    let hits = metrics.counter("pair_cache_hits");
    counters.cache_hits += hits;
    counters.cache_lookups += hits + metrics.counter("pair_cache_misses");
    counters.compiles += metrics.counter("strategy_compiles");
    SimulationState::capture(config.seed, JOB_GENERATIONS, changes, &population).to_bytes()
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) -> EgdResult<()> {
    let (config, population) = inputs(opts.seed);
    let mut samples = Samples::default();
    let mut traced = Samples::default();
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    let mut budget = Budget::new(opts.seconds);
    let mut latencies = Vec::with_capacity(JOB_GENERATIONS as usize);
    let heap = PeakHeap::start();
    while budget.next_job() {
        let state = job(
            &config,
            &population,
            opts,
            JOB_GENERATIONS,
            &mut samples,
            &mut latencies,
        )?;
        budget.job_took(samples.last_wall_ns());
        report.ops(JOB_GENERATIONS, 0);
        if opts.trace {
            let (traced_state, ns) = timed(|| {
                traced_job(
                    &config,
                    &population,
                    opts,
                    &mut ledger,
                    &mut counters,
                    &mut traced,
                )
            });
            budget.job_took(ns);
            report.ops(JOB_GENERATIONS, 0);
            report.check_same(
                "traced job ends in the step() job's state",
                &state,
                &traced_state?,
            );
        }
    }
    let peak = heap.bytes();
    samples.setup_ns = setup_ns(|| build(&config, &population, opts.threads))?;
    identity_check(&config, &population, opts, report)?;

    if opts.trace {
        let gens = traced.gens() as f64;
        let fitness_ns = ledger.ns("parallel.engine.compute_fitness");
        report.metric("parallel.engine.fitness_us", ratio(fitness_ns / 1e3, gens));
        report.metric("parallel.engine.cells", ratio(counters.cells as f64, gens));
        report.metric(
            "parallel.engine.ns_per_cell",
            ratio(fitness_ns, counters.cells as f64),
        );
        report.metric(
            "parallel.cache.hit_frac",
            ratio(counters.cache_hits as f64, counters.cache_lookups as f64),
        );
        report.metric(
            "parallel.intern.compiles",
            ratio(counters.compiles as f64, gens),
        );
        report.metric(
            "sched.busy_frac",
            ratio(counters.busy_ns, counters.worker_fitness_ns),
        );
        report.metric("sched.imbalance", ratio(counters.imbalance, gens));
        report.metric("sched.steals", ratio(counters.steals as f64, gens));
        report.metric(
            "core.dynamics.evolve_us",
            ratio(ledger.ns("core.dynamics.evolve") / 1e3, gens),
        );
        report.metric(
            "core.dynamics.changed_frac",
            ratio(counters.changes as f64, gens),
        );
        report.ledger(&ledger, traced.gens_per_s(), samples.gens_per_s());
    } else {
        samples.report(report, peak);
    }
    Ok(())
}

/// The public-function loop and `ParallelSimulation::step` agree byte for
/// byte on a prefix of the `--seed` run.
fn identity_check(
    config: &SimulationConfig,
    population: &Population,
    opts: &Opts,
    report: &mut Report,
) -> EgdResult<()> {
    let mut discard = Samples::default();
    let mut latencies = Vec::new();
    let stepped = job(
        config,
        population,
        opts,
        CHECK_GENERATIONS,
        &mut discard,
        &mut latencies,
    )?;
    let engine = ParallelEngine::new(
        config,
        FitnessMode::Simulated,
        ThreadConfig::with_threads(opts.threads),
    )?;
    let nature = config.nature_agent()?;
    let mut traced = population.clone();
    let mut changes = 0;
    for generation in 0..CHECK_GENERATIONS {
        let fitness = engine.compute_fitness(&traced, generation)?;
        changes += u64::from(
            nature
                .evolve(generation, &fitness, &mut traced)?
                .changes_population(),
        );
    }
    let traced = SimulationState::capture(config.seed, CHECK_GENERATIONS, changes, &traced);
    report.check_same(
        format!(
            "seed {}: traced loop matches step() over {CHECK_GENERATIONS} generations",
            config.seed
        ),
        &stepped,
        &traced.to_bytes()?,
    );
    Ok(())
}
