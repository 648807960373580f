//! The form of the command people run: every workload, both ways, each in a
//! child process, every metric printed by name with its unit.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Cli;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use tqs_telemetry::Json;

/// One child run: the JSON object it printed last, and whether it exited 0.
struct ChildRun {
    result: Json,
    ok: bool,
}

fn child(cli: &Cli, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(reps) = cli.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("{workload} child printed no result ({e}): `{last}`"))?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildRun {
        result,
        ok: out.status.success() && correct,
    })
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One pass over the workloads: `(workload, untraced run, traced run)`.
type Pass = Vec<(String, ChildRun, ChildRun)>;

fn pass(cli: &Cli, workloads: &[&str]) -> Result<Pass, String> {
    let mut out = Vec::new();
    for w in workloads {
        eprintln!("== {w}: end to end");
        let plain = child(cli, w, false)?;
        eprintln!("== {w}: traced");
        let traced = child(cli, w, true)?;
        out.push((w.to_string(), plain, traced));
    }
    Ok(out)
}

fn print_pass(pass: &Pass) {
    for (workload, plain, traced) in pass {
        for (run, spec) in [(plain, &END_TO_END[..]), (traced, &PER_LAYER[..])] {
            for (name, unit, _) in spec {
                match metric(&run.result, name) {
                    Some(v) => println!("{workload:<13} {name:<34} {v:>16.6} {unit}"),
                    None => println!("{workload:<13} {name:<34} {:>16} {unit}", "missing"),
                }
            }
            let count = |k: &str| run.result.get(k).and_then(Json::as_usize).unwrap_or(0);
            println!(
                "{workload:<13} {:<34} {:>16}",
                "(attempted / failed / correct)",
                format!("{} / {} / {}", count("attempted"), count("failed"), run.ok)
            );
        }
    }
}

fn pass_json(pass: &Pass) -> Json {
    Json::Obj(
        pass.iter()
            .map(|(w, plain, traced)| {
                (
                    w.clone(),
                    Json::Obj(vec![
                        ("end_to_end".to_string(), plain.result.clone()),
                        ("per_layer".to_string(), traced.result.clone()),
                    ]),
                )
            })
            .collect(),
    )
}

/// `(metric, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--selfcheck reads BENCHMARK.json from the current directory: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// Is every end-to-end metric of `second` within its bound of `first`?
fn selfcheck(first: &Pass, second: &Pass) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!("\nselfcheck: pass 2 against pass 1");
    for ((workload, a, _), (_, b, _)) in first.iter().zip(second) {
        for (name, better, bound) in &bounds {
            let (Some(x), Some(y)) = (metric(&a.result, name), metric(&b.result, name)) else {
                println!("{workload:<13} {name:<20} missing");
                ok = false;
                continue;
            };
            let change = (y - x) / x;
            let worse = if better == "lower" { change } else { -change };
            let verdict = if worse > *bound { "OUT OF BOUND" } else { "ok" };
            ok &= worse <= *bound;
            println!(
                "{workload:<13} {name:<20} {x:>14.4} -> {y:>14.4}  spread {:>6.2} %  \
                 bound {:>5.1} %  {verdict}",
                100.0 * change.abs(),
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

pub fn run(cli: &Cli, work: &Path) -> ExitCode {
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut passes = Vec::new();
    for _ in 0..if cli.selfcheck { 2 } else { 1 } {
        match pass(cli, &workloads) {
            Ok(p) => passes.push(p),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut ok = passes
        .iter()
        .flatten()
        .all(|(_, plain, traced)| plain.ok && traced.ok);
    println!("seed {}  seconds {}", cli.seed, cli.seconds);
    for p in &passes {
        print_pass(p);
    }
    if let [first, second] = &passes[..] {
        match selfcheck(first, second) {
            Ok(within) => ok &= within,
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    let report = Json::Obj(vec![
        ("seed".to_string(), Json::str(cli.seed.to_string())),
        ("seconds".to_string(), Json::Num(cli.seconds)),
        (
            "passes".to_string(),
            Json::Arr(passes.iter().map(pass_json).collect()),
        ),
    ]);
    let out = cli.out.clone().unwrap_or_else(|| work.join("report.json"));
    let written = std::fs::create_dir_all(out.parent().unwrap_or(Path::new(".")))
        .and_then(|_| std::fs::write(&out, format!("{report}\n")));
    match written {
        Ok(()) => println!("report written to {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
