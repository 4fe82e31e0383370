//! End-to-end and per-layer generation benchmark over the sequential,
//! shared-memory, SimWorld and serve engines.
//!
//! ```text
//! egd-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run drives one workload in a closed loop for `--seconds`, checks
//! the program's outputs, prints human-readable context and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics; traced runs (`--trace 1`) time calls into
//! each crate's public functions from outside the program and report the
//! per-layer metrics plus a ledger of where the wall time went. Exit code 0
//! means every correctness check passed, 1 that one failed, 2 a usage error.

mod alloc;
mod harness;
mod metrics;
mod mixed;
mod pin;
mod serve;
mod stats;
mod store;
mod world;
mod wsls;

use harness::{Opts, Report};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// A workload's entry point: runs it and records into the report.
type Workload = fn(&Opts, &mut Report) -> egd_core::error::EgdResult<()>;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("wsls_fig2", wsls::run),
    ("mixed_m2", mixed::run),
    ("world_m6", world::run),
    ("serve_tenants", serve::run),
];

const USAGE: &str =
    "usage: egd-e2e-bench --workload <wsls_fig2|mixed_m2|world_m6|serve_tenants> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--key value` pairs; every option is required and must parse.
fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key} {value}: not {what}");
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {key}")),
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok((
            workload,
            Opts {
                seed,
                seconds,
                trace,
                threads,
            },
        )),
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some((_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        std::process::exit(2);
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  threads {}",
        opts.seed, opts.seconds, opts.trace as u8, opts.threads
    );

    let mut report = Report::default();
    if let Err(err) = workload(&opts, &mut report) {
        report.check(format!("workload ran without error: {err}"), false);
    }
    if opts.trace {
        report.metric("alloc.live_mb_end", ALLOC.live() as f64 / 1e6);
    }
    report.finish(opts.trace);
    print!("{}", report.render());
    println!("{}", report.json(opts.trace));
    std::process::exit(report.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(String, Opts), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn parses_the_full_command_line() {
        let (name, opts) =
            parse_line("--workload mixed_m2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(name, "mixed_m2");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_missing_unknown_and_malformed_options() {
        assert!(parse_line("--workload mixed_m2").is_err());
        assert!(parse_line("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse_line("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse_line("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse_line("--workload x --seed 1 --seconds 1 --trace 0 --fast 1").is_err());
        assert!(parse_line("--workload x --seed 1 --seconds 1 --trace").is_err());
    }
}
