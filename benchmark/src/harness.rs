//! What every workload shares: options, timing, the per-layer ledger,
//! correctness checks and the result line.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, quartiles, ratio};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Batches of constructions `setup_s` is the median over.
const SETUP_REPS: usize = 25;
/// Shortest batch: set-up can take well under a microsecond, so one sample
/// times enough constructions to sit far above the clock's resolution.
const SETUP_BATCH: Duration = Duration::from_millis(4);

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Threads the load may use (the host's available parallelism).
    pub threads: usize,
}

/// Runs `f` and returns its result with the elapsed wall time in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

/// Median time of one `build()` call and the drop of its value, in ns,
/// over [`SETUP_REPS`] batches. Dropping each value at once keeps the heap
/// warm: holding a batch of them makes page faults, not construction, the
/// bulk of what is timed. Workloads call this after their jobs, on a
/// warmed-up process.
pub fn setup_ns<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<f64, E> {
    let mut batch = |n: usize| -> Result<Duration, E> {
        let start = Instant::now();
        for _ in 0..n {
            drop(build()?);
        }
        Ok(start.elapsed())
    };
    let mut n = 1;
    while batch(n)? < SETUP_BATCH && n < 1 << 16 {
        n *= 2;
    }
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        samples.push(batch(n)?.as_nanos() as f64 / n as f64);
    }
    Ok(median(&samples))
}

/// Heap high-water mark of a measured phase above what was live when the
/// phase began: the memory the jobs themselves needed.
pub struct PeakHeap(usize);

impl PeakHeap {
    /// Starts tracking from the current live heap.
    pub fn start() -> Self {
        crate::ALLOC.reset_peak();
        PeakHeap(crate::ALLOC.live())
    }

    /// Peak bytes above the starting live heap.
    pub fn bytes(&self) -> usize {
        crate::ALLOC.peak().saturating_sub(self.0)
    }
}

/// Closed-loop job scheduling against the measurement budget: the first
/// job always runs, a later one only if a job as long as the longest so far
/// still ends within the budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
    longest: Duration,
    started: bool,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            longest: Duration::ZERO,
            started: false,
        }
    }

    /// Whether to start another job.
    pub fn next_job(&mut self) -> bool {
        let first = !std::mem::replace(&mut self.started, true);
        first || (self.start.elapsed() + self.longest).as_secs_f64() <= self.seconds
    }

    /// Records the length of a finished job.
    pub fn job_took(&mut self, ns: u64) {
        self.longest = self.longest.max(Duration::from_nanos(ns));
    }
}

/// One row of the per-layer ledger: time inside calls into one layer.
#[derive(Debug)]
struct Row {
    name: &'static str,
    ns: u64,
    calls: u64,
}

/// Splits a traced run's wall time into the layer calls the benchmark
/// timed; the rest is the unattributed share.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: Vec<Row>,
    wall_ns: u64,
}

impl Ledger {
    /// Adds `ns` over `calls` calls to row `name` (created on first use).
    pub fn add(&mut self, name: &'static str, ns: u64, calls: u64) {
        match self.rows.iter_mut().find(|row| row.name == name) {
            Some(row) => {
                row.ns += ns;
                row.calls += calls;
            }
            None => self.rows.push(Row { name, ns, calls }),
        }
    }

    /// Adds traced wall time that the rows should explain.
    pub fn add_wall(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    /// Total ns in row `name` (0 when absent).
    pub fn ns(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|row| row.name == name)
            .map_or(0.0, |row| row.ns as f64)
    }

    /// Calls counted in row `name` (0 when absent).
    pub fn calls(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|row| row.name == name)
            .map_or(0.0, |row| row.calls as f64)
    }

    /// Share of the traced wall time no timed layer call covers.
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: u64 = self.rows.iter().map(|row| row.ns).sum();
        ratio(self.wall_ns as f64 - attributed as f64, self.wall_ns as f64)
    }

    /// The ledger as a text table, flagging an unattributed share above 5%.
    pub fn render(&self, trace_overhead_frac: f64) -> String {
        let wall = self.wall_ns as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>10} {:>12} {:>7}",
            "layer", "total_ms", "calls", "us/call", "share"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<34} {:>12.3} {:>10} {:>12.3} {:>6.1}%",
                row.name,
                row.ns as f64 / 1e6,
                row.calls,
                ratio(row.ns as f64 / 1e3, row.calls as f64),
                100.0 * ratio(row.ns as f64, wall)
            );
        }
        let unattributed = self.unattributed_frac();
        let flag = if unattributed > 0.05 {
            "  FLAG: above 5%"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<34} {:>12.3} {:>10} {:>12} {:>6.1}%{flag}",
            "unattributed",
            unattributed * wall / 1e6,
            "",
            "",
            100.0 * unattributed
        );
        let _ = writeln!(
            out,
            "{:<34} {:>12.3}   trace_overhead_frac {trace_overhead_frac:.4}",
            "traced wall",
            wall / 1e6
        );
        out
    }
}

/// One correctness check's outcome.
#[derive(Debug)]
struct Check {
    /// What was checked.
    name: String,
    /// Whether it held.
    passed: bool,
}

/// A workload's result: operations, checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness check; a failed check is a failed operation.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.ops(1, u64::from(!passed));
        self.checks.push(Check {
            name: name.into(),
            passed,
        });
    }

    /// Records a check that two outputs are byte-identical.
    pub fn check_same(&mut self, name: impl Into<String>, expected: &[u8], actual: &[u8]) {
        self.check(name, expected == actual);
    }

    /// Records a metric for the result line; `name` must be listed in
    /// [`crate::metrics`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not listed in BENCHMARK.json"
        );
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Adds a line of human-readable context printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Closes a traced run: the ledger's unattributed share, the tracing
    /// overhead against the untraced generations per second measured in the
    /// same run, and the ledger table itself.
    pub fn ledger(&mut self, ledger: &Ledger, traced_gens_per_s: f64, untraced_gens_per_s: f64) {
        let overhead = 1.0 - ratio(traced_gens_per_s, untraced_gens_per_s);
        self.metric("unattributed_frac", ledger.unattributed_frac());
        self.metric("trace_overhead_frac", overhead);
        self.note(ledger.render(overhead));
    }

    /// Whether no operation failed (a failed check is a failed operation).
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit code this report calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// Human-readable lines: notes, then one line per distinct check with
    /// the number of times it ran.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let mut seen: Vec<(&Check, usize)> = Vec::new();
        for check in &self.checks {
            match seen
                .iter_mut()
                .find(|(c, _)| c.name == check.name && c.passed == check.passed)
            {
                Some((_, count)) => *count += 1,
                None => seen.push((check, 1)),
            }
        }
        for (check, count) in seen {
            let verdict = if check.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} ×{count} {}", check.name);
        }
        out
    }

    /// The single-line JSON result: every end-to-end metric, or with
    /// `trace` every per-layer one. A per-layer metric the workload did not
    /// record is a layer it does not run, reported as 0.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = table(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Fails the run if a metric is not a finite number, or an end-to-end
    /// metric is missing.
    pub fn finish(&mut self, trace: bool) {
        let bad: Vec<&str> = table(trace)
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| match self.value(name) {
                Some(v) => !v.is_finite(),
                None => !trace,
            })
            .collect();
        if !bad.is_empty() {
            let name = format!("metrics present and finite (not: {})", bad.join(", "));
            self.check(name, false);
        }
    }
}

fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One closed-loop job.
#[derive(Debug, Default)]
struct Job {
    /// Wall time, the job's own construction included (ns).
    wall_ns: f64,
    /// Time running generations (ns).
    run_ns: f64,
    gens: u64,
    /// Median and 95th percentile of the job's per-generation latencies
    /// (ns), when the benchmark could observe them.
    p50_ns: Option<f64>,
    p95_ns: Option<f64>,
}

/// The jobs of a closed-loop run. Every per-run figure is a median over
/// jobs, so a burst of contention from outside the process moves at most
/// the jobs it overlaps.
#[derive(Debug, Default)]
pub struct Samples {
    /// Median construction time (ns), from [`setup_ns`].
    pub setup_ns: f64,
    jobs: Vec<Job>,
}

impl Samples {
    /// Records a job: its wall and generation time, generations, and the
    /// per-generation latencies observed in it.
    pub fn push(&mut self, wall_ns: u64, run_ns: u64, gens: u64, gen_ns: &[f64]) {
        self.jobs.push(Job {
            wall_ns: wall_ns as f64,
            run_ns: run_ns as f64,
            gens,
            p50_ns: quantile(gen_ns, 0.5),
            p95_ns: quantile(gen_ns, 0.95),
        });
    }

    /// Wall time of the latest job (ns).
    pub fn last_wall_ns(&self) -> u64 {
        self.jobs.last().map_or(0, |job| job.wall_ns as u64)
    }

    /// Generations over all jobs.
    pub fn gens(&self) -> u64 {
        self.jobs.iter().map(|job| job.gens).sum()
    }

    /// Median over jobs of generations per second of generation time.
    pub fn gens_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .jobs
            .iter()
            .map(|job| ratio(job.gens as f64 * 1e9, job.run_ns))
            .collect();
        median(&rates)
    }

    /// Median over jobs of a per-job latency quantile (ns).
    fn latency(&self, pick: fn(&Job) -> Option<f64>) -> f64 {
        let per_job: Vec<f64> = self.jobs.iter().filter_map(pick).collect();
        median(&per_job)
    }

    /// Writes the end-to-end metrics shared by every workload; `peak_bytes`
    /// is the jobs' heap high-water mark above what was live before them.
    pub fn report(&self, report: &mut Report, peak_bytes: usize) {
        let walls: Vec<f64> = self.jobs.iter().map(|job| job.wall_ns).collect();
        report.metric("setup_s", self.setup_ns / 1e9);
        report.metric("gens_per_s", self.gens_per_s());
        report.metric("gen_ms_p50", self.latency(|job| job.p50_ns) / 1e6);
        report.metric("gen_ms_p95", self.latency(|job| job.p95_ns) / 1e6);
        report.metric("solution_s", median(&walls) / 1e9);
        report.metric("peak_mb", peak_bytes as f64 / 1e6);
        let (q1, q3) = quartiles(&walls).unwrap_or((0.0, 0.0));
        report.note(format!(
            "samples: {} jobs (wall quartiles {:.4} s / {:.4} s), {} generations",
            self.jobs.len(),
            q1 / 1e9,
            q3 / 1e9,
            self.gens(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_fails_the_correctness_step() {
        let expected = b"{\"generation\":100,\"population\":[1,2,3]}".to_vec();
        let mut corrupted = expected.clone();
        corrupted[20] ^= 0x01;

        let mut good = Report::default();
        good.ops(10, 0);
        good.check_same("identical bytes", &expected, &expected.clone());
        assert!(good.correct());
        assert_eq!(good.exit_code(), 0);

        let mut bad = Report::default();
        bad.ops(10, 0);
        bad.check_same("identical bytes", &expected, &corrupted);
        assert!(!bad.correct());
        assert_eq!(bad.exit_code(), 1);
        assert!(bad
            .json(false)
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1"));
        assert!(bad.render().contains("check FAIL ×1 identical bytes"));
    }

    #[test]
    fn non_finite_or_missing_metrics_fail_the_run_and_stay_valid_json() {
        let mut report = Report::default();
        report.ops(1, 0);
        report.metric("gens_per_s", f64::NAN);
        report.finish(false);
        assert!(!report.correct());
        let json = report.json(false);
        assert!(json.contains("\"gens_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
        assert!(report.render().contains("not: setup_s, gens_per_s"));

        // Absent layers read 0 in a traced run and are not an error.
        let mut traced = Report::default();
        traced.ops(1, 0);
        traced.metric("sched.steals", 3.0);
        traced.finish(true);
        assert!(traced.correct());
        let json = traced.json(true);
        assert!(json.contains("\"sched.steals\": {\"value\": 3.0, \"unit\": \"count\"}"));
        assert!(json.contains("\"cluster.mpi.bytes\": {\"value\": 0.0, \"unit\": \"B\"}"));
    }

    #[test]
    fn ledger_reports_the_unattributed_share() {
        let mut ledger = Ledger::default();
        ledger.add_wall(1_000);
        ledger.add("a", 600, 3);
        ledger.add("b", 300, 1);
        ledger.add("a", 40, 1);
        assert!((ledger.unattributed_frac() - 0.06).abs() < 1e-12);
        let table = ledger.render(0.01);
        assert!(table.contains("FLAG: above 5%"));
        assert!(table.contains("a "));
    }

    #[test]
    fn budget_runs_one_job_then_stops_at_the_deadline() {
        let mut budget = Budget::new(0.0);
        assert!(budget.next_job());
        budget.job_took(1);
        assert!(!budget.next_job());

        let mut roomy = Budget::new(60.0);
        assert!(roomy.next_job());
        roomy.job_took(1_000);
        assert!(roomy.next_job());
    }
}
