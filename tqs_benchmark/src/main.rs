//! `tqs_benchmark` — the repository's one benchmark (see README.md here).
//!
//! Two ways to call it:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON object as the last line of
//!   stdout: the end-to-end metrics with tracing off, the per-layer metrics
//!   with tracing on. This is the form `BENCHMARK.json` names.
//! * without `--trace`, every workload (or the one given) runs both ways in a
//!   child process of its own, so peak memory is per workload, and every
//!   metric is printed by name with its unit. `--selfcheck` does that twice
//!   and holds the second pass against the bounds in `BENCHMARK.json`.
//!
//! Exit code 0 only when every output checked was correct.

mod conn;
mod hunt;
mod pools;
mod pristine;
mod report;
mod spec;
mod suite;
mod trace;

use spec::{RunConfig, Sizes};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tqs_benchmark --seed <u64> [--workload <name>] [--seconds <s>] \
[--trace <0|1>] [--reps <n>] [--out <path>] [--selfcheck]";

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub reps: Option<usize>,
    pub out: Option<PathBuf>,
    pub selfcheck: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 16.0,
        trace: None,
        reps: None,
        out: None,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("{flag}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(bad(&format!(
                        "unknown workload `{name}` (one of {:?})",
                        spec::WORKLOADS
                    )));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|_| bad("not a count"))?;
                if n == 0 || n > 1000 {
                    return Err(bad("must be in 1..=1000"));
                }
                cli.reps = Some(n);
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => cli.selfcheck = true,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Everything the benchmark writes goes under `<target dir>/tqs_benchmark/`,
/// next to the binary: campaign directories, trace artifacts and — through
/// `TMPDIR` — the disk engine's page stores.
fn work_dir() -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|p| {
                    p.file_name()
                        .is_some_and(|n| n == "release" || n == "debug")
                })
                .and_then(|p| p.parent().map(PathBuf::from))
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("tqs_benchmark")
}

/// Run one workload in this process.
pub fn run_workload(cfg: &RunConfig) -> report::Outcome {
    if cfg.workload == spec::HUNT {
        hunt::run(cfg)
    } else {
        pristine::run(cfg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let (Some(workload), Some(trace)) = (cli.workload.clone(), cli.trace) else {
        return suite::run(&cli, &work);
    };

    // The disk engine creates its page stores under the system temp
    // directory; point that inside the work directory for this process.
    let tmp = work.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run_workload(&RunConfig {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        reps: cli.reps,
        sizes: Sizes::FULL,
        work_dir: work,
    });
    let _ = std::fs::remove_dir_all(&tmp);
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod smoke;
