//! The benchmark's metric names and units: `BENCHMARK.json` lists the same
//! names, and a test keeps the two in step.

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gens_per_s", "1/s"),
    ("gen_ms_p50", "ms"),
    ("gen_ms_p95", "ms"),
    ("solution_s", "s"),
    ("peak_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not run through a call the benchmark times reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.simulation.fitness_us", "us"),
    ("core.game.games", "count"),
    ("core.game.ns_per_game", "ns"),
    ("core.dynamics.evolve_us", "us"),
    ("core.dynamics.changed_frac", "frac"),
    ("analysis.census.check_us", "us"),
    ("parallel.engine.fitness_us", "us"),
    ("parallel.engine.cells", "count"),
    ("parallel.engine.ns_per_cell", "ns"),
    ("parallel.cache.hit_frac", "frac"),
    ("parallel.intern.compiles", "count"),
    ("sched.busy_frac", "frac"),
    ("sched.imbalance", "ratio"),
    ("sched.steals", "count"),
    ("cluster.mpi.messages", "count"),
    ("cluster.mpi.bytes", "B"),
    ("cluster.executor.comm_frac", "frac"),
    ("fault.checkpoint.saves", "count"),
    ("fault.checkpoint.save_us", "us"),
    ("fault.checkpoint.mb", "MB"),
    ("fault.checkpoint.held_mb", "MB"),
    ("fault.checkpoint.loads", "count"),
    ("fault.checkpoint.load_us", "us"),
    ("fault.supervisor.attempts", "count"),
    ("serve.manager.submit_us", "us"),
    ("serve.manager.resume_us", "us"),
    ("serve.admission.queued", "count"),
    ("serve.admission.rejected", "count"),
    ("serve.session.events", "count"),
    ("serve.session.dropped_events", "count"),
    ("alloc.live_mb_end", "MB"),
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    }
}
