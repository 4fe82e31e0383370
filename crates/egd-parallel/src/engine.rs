//! The parallel generation engine.
//!
//! [`ParallelEngine::compute_fitness`] computes the per-SSet fitness of one
//! generation on a rayon thread pool. Strategies are grouped (SSets holding
//! identical strategies share their pair payoffs, the paper's §IV SSet
//! abstraction) and the distinct-pair payoff matrix is evaluated in
//! parallel. This matches `egd_core::simulation::compute_generation_fitness`
//! bit-for-bit, so sequential and parallel runs are interchangeable.

use crate::cache::ConcurrentPairEvaluator;
use crate::soa::PopulationSoA;
use crate::thread_pool::ThreadConfig;
use egd_core::config::SimulationConfig;
use egd_core::error::EgdResult;
use egd_core::population::Population;
use egd_core::simulation::FitnessMode;
use egd_core::sset::OpponentPolicy;
use egd_obs::{MetricsSnapshot, SpanKind};
use egd_sched::SchedStats;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock breakdown of one generation, mirroring the paper's
/// computation/communication split (Fig. 5) for the shared-memory engine
/// (where "dynamics" plays the role of the global synchronisation).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GenerationTiming {
    /// Time spent playing games (the parallel section).
    pub game_play: Duration,
    /// Time spent in population dynamics and strategy-view updates
    /// (the serial / synchronisation section).
    pub dynamics: Duration,
}

impl GenerationTiming {
    /// Total wall-clock time of the generation.
    pub fn total(&self) -> Duration {
        self.game_play + self.dynamics
    }

    /// Adds another timing sample into this one.
    pub fn merge(&mut self, other: &GenerationTiming) {
        self.game_play += other.game_play;
        self.dynamics += other.dynamics;
    }
}

/// The parallel fitness engine.
#[derive(Debug)]
pub struct ParallelEngine {
    pool: Arc<rayon::ThreadPool>,
    evaluator: ConcurrentPairEvaluator,
    threads: ThreadConfig,
    /// Prices work items for the cost-guided initial partition (fixed
    /// Blue Gene-like constants: deterministic, machine-independent).
    cost_model: egd_cost::CostModel,
    /// Scheduler statistics of the most recent fitness computation.
    last_sched: Mutex<Option<SchedStats>>,
}

impl ParallelEngine {
    /// Creates an engine for a configuration.
    pub fn new(
        config: &SimulationConfig,
        mode: FitnessMode,
        threads: ThreadConfig,
    ) -> EgdResult<Self> {
        Ok(ParallelEngine {
            pool: threads.build_pool()?,
            evaluator: ConcurrentPairEvaluator::new(config, mode)?,
            threads,
            cost_model: egd_cost::CostModel::blue_gene_like(),
            last_sched: Mutex::new(None),
        })
    }

    /// The cost model pricing the engine's initial partitions.
    pub fn cost_model(&self) -> &egd_cost::CostModel {
        &self.cost_model
    }

    /// The thread configuration in use.
    pub fn thread_config(&self) -> ThreadConfig {
        self.threads
    }

    /// The underlying pair evaluator (cache statistics).
    pub fn evaluator(&self) -> &ConcurrentPairEvaluator {
        &self.evaluator
    }

    /// Scheduler statistics (steal counts, per-worker busy/CPU time) of the
    /// most recent fitness computation, merged over its parallel sections.
    pub fn last_sched_stats(&self) -> Option<SchedStats> {
        self.last_sched.lock().clone()
    }

    /// The engine's unified metrics snapshot: the scheduler worker table of
    /// the most recent fitness computation plus pair-cache and interner
    /// counters.
    pub fn metrics(&self, label: &str) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::labelled(label);
        snap.run.workers = self.threads.effective_threads() as u64;
        if let Some(stats) = self.last_sched_stats() {
            for row in stats.worker_metrics() {
                snap.record_worker(row);
            }
        }
        snap.add_counter("pair_cache_hits", self.evaluator.cache_hits());
        snap.add_counter("pair_cache_misses", self.evaluator.cache_misses());
        snap.add_counter("pair_cache_entries", self.evaluator.cached_pairs() as u64);
        snap.add_counter(
            "interned_strategies",
            self.evaluator.interned_strategies() as u64,
        );
        snap.add_counter("strategy_compiles", self.evaluator.strategy_compiles());
        snap
    }

    /// Runs `op` inside the engine's pool with the configured scheduling
    /// policy active, then banks the run's scheduler statistics.
    fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _ = egd_sched::take_last_run_stats();
        let result = self
            .pool
            .install(|| egd_sched::with_policy(self.threads.policy, op));
        if let Some(stats) = egd_sched::take_last_run_stats() {
            let mut slot = self.last_sched.lock();
            match slot.as_mut() {
                Some(total) => total.merge(&stats),
                None => *slot = Some(stats),
            }
        }
        result
    }

    /// Clears the banked scheduler statistics (start of a fitness call).
    fn reset_sched_stats(&self) {
        *self.last_sched.lock() = None;
    }

    /// Computes the fitness of every SSet for `generation` using strategy
    /// grouping (production path).
    pub fn compute_fitness(&self, population: &Population, generation: u64) -> EgdResult<Vec<f64>> {
        self.reset_sched_stats();
        let strategies = population.strategies();

        // Collapse the population into dense SoA lanes once per generation
        // (same first-occurrence group order as the sequential reference):
        // the cell loop streams the fingerprint lane, the reduction streams
        // group counts and the `group_of` scatter lane.
        let soa = PopulationSoA::of(strategies);
        let num_groups = soa.num_groups();

        // Hoist per-strategy work (fingerprints, determinism, compiled
        // tables) out of the cell loop: computed once per distinct strategy
        // per generation instead of once per matrix cell. The SoA lanes are
        // handed over instead of being re-derived per strategy.
        let ctx = self.evaluator.generation_context_precomputed(
            generation,
            strategies,
            &soa.group_rep,
            soa.fingerprints.clone(),
            soa.deterministic.clone(),
        );

        // Evaluate the distinct-pair payoff matrix in parallel. The initial
        // per-worker segments are seeded from the cost-proportional
        // partition (cached pairs priced as probes, stochastic pairs as full
        // games), so both the static and the adaptive policy start balanced
        // and stealing only corrects prediction error.
        let weights = egd_cost::predict::cell_weights(
            &self.cost_model,
            self.evaluator.game(),
            strategies,
            &soa.group_rep,
        );
        let evaluator = &self.evaluator;
        let ctx_ref = &ctx;
        let group_rep_ref = &soa.group_rep;
        let pay: Vec<f64> = self.install(|| {
            egd_obs::obs_span!(SpanKind::CellMatrix, (num_groups * num_groups) as u64, {
                egd_sched::map_indexed_weighted(self.threads.effective_threads(), &weights, |idx| {
                    let g = idx / num_groups;
                    let h = idx % num_groups;
                    egd_obs::obs_span!(SpanKind::Cell, idx as u64, {
                        evaluator
                            .cell_payoff(ctx_ref, strategies, group_rep_ref, g, h, generation)
                            .map(|(to_g, _)| to_g)
                    })
                })
                .into_iter()
                .collect::<EgdResult<Vec<f64>>>()
            })
        })?;

        let include_self = matches!(
            population.opponent_policy(),
            OpponentPolicy::AllIncludingSelf
        );
        // One O(G²) sweep into per-group fitness lanes, scattered to SSets
        // in O(N) — bit-identical f64 additions to the historical per-SSet
        // loop, each group's sum computed once instead of once per member.
        let lanes = soa.group_fitness(&pay, include_self);
        Ok(soa.scatter(&lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::simulation::{compute_generation_fitness, PairEvaluator};
    use egd_core::state::MemoryDepth;

    fn config(noise: f64, seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .memory(MemoryDepth::ONE)
            .num_ssets(24)
            .agents_per_sset(3)
            .rounds_per_game(40)
            .noise(noise)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        for noise in [0.0, 0.02] {
            let cfg = config(noise, 3);
            let population = cfg.initial_population().unwrap();
            let engine =
                ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                    .unwrap();
            let mut sequential = PairEvaluator::new(&cfg, FitnessMode::Simulated).unwrap();
            for generation in 0..3 {
                let par = engine.compute_fitness(&population, generation).unwrap();
                let seq =
                    compute_generation_fitness(&population, &mut sequential, generation).unwrap();
                assert_eq!(par, seq, "noise {noise} generation {generation}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = config(0.05, 9);
        let population = cfg.initial_population().unwrap();
        let single =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::sequential()).unwrap();
        let many = ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(8))
            .unwrap();
        for generation in 0..3 {
            assert_eq!(
                single.compute_fitness(&population, generation).unwrap(),
                many.compute_fitness(&population, generation).unwrap()
            );
        }
    }

    #[test]
    fn timing_merge_and_total() {
        let mut a = GenerationTiming {
            game_play: Duration::from_millis(10),
            dynamics: Duration::from_millis(2),
        };
        let b = GenerationTiming {
            game_play: Duration::from_millis(5),
            dynamics: Duration::from_millis(1),
        };
        a.merge(&b);
        assert_eq!(a.game_play, Duration::from_millis(15));
        assert_eq!(a.dynamics, Duration::from_millis(3));
        assert_eq!(a.total(), Duration::from_millis(18));
    }

    #[test]
    fn engine_banks_scheduler_stats_and_policies_agree() {
        use crate::thread_pool::SchedPolicy;
        let cfg = config(0.05, 19);
        let population = cfg.initial_population().unwrap();
        let adaptive =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(4))
                .unwrap();
        let fixed = ParallelEngine::new(
            &cfg,
            FitnessMode::Simulated,
            ThreadConfig::with_threads(4).with_policy(SchedPolicy::Static),
        )
        .unwrap();
        assert!(adaptive.last_sched_stats().is_none());
        let a = adaptive.compute_fitness(&population, 0).unwrap();
        let b = fixed.compute_fitness(&population, 0).unwrap();
        assert_eq!(a, b, "static and adaptive schedules must agree");
        let stats = adaptive.last_sched_stats().expect("stats banked");
        assert!(stats.items > 0);
        assert_eq!(fixed.last_sched_stats().unwrap().steals, 0);
        assert_eq!(
            fixed.last_sched_stats().unwrap().policy,
            SchedPolicy::Static
        );
    }

    #[test]
    fn tracing_records_cell_spans_and_measured_costs() {
        use crate::grouping::StrategyGrouping;
        let _guard = egd_obs::session_guard();
        let cfg = config(0.0, 21);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        egd_obs::enable_tracing();
        engine.compute_fitness(&population, 0).unwrap();
        egd_obs::disable_tracing();
        let log = egd_obs::collect();

        let num_groups = StrategyGrouping::of(population.strategies())
            .group_rep
            .len();
        let cells = log
            .events
            .iter()
            .filter(|e| e.kind == egd_obs::SpanKind::Cell)
            .count();
        assert_eq!(cells, num_groups * num_groups, "one span per matrix cell");
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == egd_obs::SpanKind::CellMatrix));
    }

    #[test]
    fn metrics_snapshot_carries_workers_and_counters() {
        let cfg = config(0.0, 23);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        engine.compute_fitness(&population, 0).unwrap();
        engine.compute_fitness(&population, 1).unwrap();
        let snap = engine.metrics("parallel");
        assert_eq!(snap.run.label, "parallel");
        assert_eq!(snap.run.workers, 2);
        assert!(!snap.workers.is_empty(), "worker table populated");
        assert!(snap.total_items() > 0);
        assert!(snap.counter("pair_cache_hits") > 0);
        assert_eq!(
            snap.counter("pair_cache_hits"),
            engine.evaluator().cache_hits()
        );
        assert!(snap.counter("pair_cache_entries") > 0);
    }

    #[test]
    fn engine_exposes_cache_stats() {
        let cfg = config(0.0, 17);
        let population = cfg.initial_population().unwrap();
        let engine =
            ParallelEngine::new(&cfg, FitnessMode::Simulated, ThreadConfig::with_threads(2))
                .unwrap();
        engine.compute_fitness(&population, 0).unwrap();
        engine.compute_fitness(&population, 1).unwrap();
        assert!(engine.evaluator().cache_hits() > 0);
        assert_eq!(engine.thread_config().effective_threads(), 2);
    }
}
