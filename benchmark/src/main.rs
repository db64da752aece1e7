//! The repo benchmark. `benchmark/run.sh` builds and runs this binary from
//! the repository root; `benchmark/README.md` says what it measures and why.
//!
//! ```text
//! bandana-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                   [--trace 0|1] [--aa]
//! ```
//!
//! Prints one `workload metric value unit` line per metric and, as the last
//! line of each workload, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when a request failed, a payload
//! mismatched or a host guard refused to report.

mod driver;
mod json;
mod probes;
mod run;
mod spans;
mod stats;
mod sys;
mod workloads;

use run::{Options, Outcome, END_TO_END, OUT_DIR, RUN_SECONDS};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Kind;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    /// The benchmark driver's contract passes `--seconds`; nothing else
    /// should: numbers compare only between runs of one length.
    seconds: f64,
    traced: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { kinds: Kind::ALL.to_vec(), seed: 7, seconds: RUN_SECONDS, traced: false, aa: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => args.kinds = vec![Kind::from_name(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => args.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The contract's result object for one workload.
fn result_json(outcome: &Outcome) -> String {
    let metrics = json::object(outcome.metrics.iter().map(|m| {
        let value = json::object([("value", json::number(m.value)), ("unit", json::quote(m.unit))]);
        (m.name, value)
    }));
    json::object([
        ("correct", outcome.correct().to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", metrics),
    ])
}

/// One workload, run to the end: what `results.json` keeps of it and what
/// `--aa` compares.
struct Finished {
    kind: Kind,
    correct: bool,
    wall_s: f64,
    /// The result object, as printed.
    result: String,
    /// `(metric, value)` of every printed metric line.
    values: Vec<(String, f64)>,
}

/// `results.json`: the stamp that says where the numbers came from, then
/// every workload's wall time and result object.
fn results_document(args: &Args, finished: &[Finished], wall_s: f64) -> String {
    let env = |key: &str| json::quote(&std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let stamp = json::object([
        ("commit", env("BENCH_COMMIT")),
        ("rustc", env("BENCH_RUSTC")),
        ("nproc", sys::nproc().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", json::number(args.seconds)),
        ("trace", u8::from(args.traced).to_string()),
        ("wall_s", json::number(wall_s)),
    ]);
    let workloads = json::object(finished.iter().map(|f| {
        let body = json::object([("wall_s", json::number(f.wall_s)), ("result", f.result.clone())]);
        (f.kind.name(), body)
    }));
    json::object([("stamp", stamp), ("workloads", workloads)])
}

fn write_results(args: &Args, finished: &[Finished], wall_s: f64) {
    std::fs::write(
        Path::new(OUT_DIR).join("results.json"),
        results_document(args, finished, wall_s),
    )
    .expect("the output directory is writable");
}

/// Runs one workload in this process, as the benchmark driver asks for it.
fn run_here(args: &Args, kind: Kind) -> Finished {
    let outcome = run::run_workload(&Options {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    });
    let name = kind.name();
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, json::number(m.value), m.unit);
    }
    for why in &outcome.refusals {
        eprintln!("{name}: REFUSED: {why}");
    }
    let result = result_json(&outcome);
    println!("{result}");
    Finished {
        kind,
        correct: outcome.correct(),
        wall_s: outcome.wall_s,
        result,
        values: outcome.metrics.iter().map(|m| (m.name.to_string(), m.value)).collect(),
    }
}

/// Runs one workload in a process of its own, as under the benchmark driver,
/// so that peak RSS and allocator state are that workload's alone, and reads
/// what the child printed. A child that ends without a result object (it
/// panicked, or could not start) fails the whole command.
fn run_child(args: &Args, kind: Kind) -> Result<Finished, String> {
    let name = kind.name();
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start: {e}"))?;
    let printed = String::from_utf8_lossy(&output.stdout);
    print!("{printed}");
    let result = printed
        .lines()
        .last()
        .filter(|line| line.starts_with('{'))
        .ok_or_else(|| format!("{name}: ended without a result ({})", output.status))?;
    let values = printed
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (workload, metric, value) = (fields.next()?, fields.next()?, fields.next()?);
            (workload == name).then_some((metric.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok(Finished {
        kind,
        correct: output.status.success(),
        wall_s: started.elapsed().as_secs_f64(),
        result: result.to_string(),
        values,
    })
}

fn run_set(args: &Args) -> Result<Vec<Finished>, String> {
    args.kinds.iter().map(|&kind| run_child(args, kind)).collect()
}

/// Two full sets of runs of the same build: every workload × end-to-end
/// metric must agree within its bound.
fn a_a(args: &Args) -> Result<bool, String> {
    let (first, second) = (run_set(args)?, run_set(args)?);
    write_results(args, &second, second.iter().map(|f| f.wall_s).sum());
    let mut agree = first.iter().chain(&second).all(|f| f.correct);
    println!("workload metric first second relative_difference bound");
    for (a, b) in first.iter().zip(&second) {
        let workload = a.kind.name();
        for &(name, _, bound) in END_TO_END {
            let value = |run: &Finished| {
                let found = run.values.iter().find(|(metric, _)| metric == name);
                found.map(|(_, v)| *v).ok_or_else(|| format!("{workload}: no value for {name}"))
            };
            let (x, y) = (value(a)?, value(b)?);
            let difference = (y - x).abs() / x.abs();
            let verdict = if difference <= bound { "" } else { " DISAGREE" };
            agree &= difference <= bound;
            println!("{workload} {name} {x} {y} {difference:.4} {bound}{verdict}");
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    if args.aa && args.traced {
        eprintln!("--aa compares end-to-end metrics: run it without --trace 1");
        return ExitCode::from(2);
    }
    std::fs::create_dir_all(OUT_DIR).expect("the output directory can be created");
    let good = if args.aa {
        a_a(&args)
    } else {
        let finished = match args.kinds[..] {
            [kind] => Ok(vec![run_here(&args, kind)]),
            _ => run_set(&args),
        };
        finished.map(|finished| {
            write_results(&args, &finished, started.elapsed().as_secs_f64());
            finished.iter().all(|f| f.correct)
        })
    };
    eprintln!("total wall time {:.1} s", started.elapsed().as_secs_f64());
    match good {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::{Metric, PER_LAYER};

    fn finished(kind: Kind, table: &[(&'static str, &'static str)]) -> Finished {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: table.iter().map(|&(name, unit)| Metric { name, value: 1.5, unit }).collect(),
            refusals: Vec::new(),
            wall_s: 1.0,
        };
        Finished {
            kind,
            correct: true,
            wall_s: 1.0,
            result: result_json(&outcome),
            values: Vec::new(),
        }
    }

    fn names(list: &json::Value) -> Vec<String> {
        list.as_array().iter().map(|m| m["name"].as_str().expect("a name").to_string()).collect()
    }

    /// `results.json` carries exactly the workload and metric names of
    /// `BENCHMARK.json`, units included, each name in the contract's
    /// alphabet; the run length and the bounds `--aa` checks are the
    /// contract's too.
    #[test]
    fn results_carry_exactly_the_names_of_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let contract = json::parse(&text).expect("BENCHMARK.json parses");
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names(&contract["workloads"]), kinds);
        assert_eq!(contract["run_seconds"], json::Value::Number(RUN_SECONDS));
        for (entry, &(name, _, bound)) in contract["end_to_end"].as_array().iter().zip(END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(name));
            assert_eq!(entry["bound"], json::Value::Number(bound), "{name}");
        }

        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect();
        for (key, table, traced) in
            [("end_to_end", &end_to_end[..], false), ("per_layer", PER_LAYER, true)]
        {
            let args = Args {
                kinds: Kind::ALL.to_vec(),
                seed: 7,
                seconds: RUN_SECONDS,
                traced,
                aa: false,
            };
            let all: Vec<Finished> = Kind::ALL.iter().map(|&k| finished(k, table)).collect();
            let results = json::parse(&results_document(&args, &all, 1.0)).expect("it parses");
            for kind in &kinds {
                let result = &results["workloads"][kind.as_str()]["result"];
                let json::Value::Object(metrics) = &result["metrics"] else {
                    panic!("{kind}: metrics is an object")
                };
                let mut reported: Vec<&String> = metrics.keys().collect();
                let declared = names(&contract[key]);
                let mut expected: Vec<&String> = declared.iter().collect();
                reported.sort();
                expected.sort();
                assert_eq!(reported, expected, "{kind} {key}");
                for entry in contract[key].as_array() {
                    let name = entry["name"].as_str().unwrap();
                    assert_eq!(metrics[name]["unit"], entry["unit"], "{name}");
                    assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                }
                assert_eq!(result["correct"], json::Value::Bool(true));
                assert_eq!(result["attempted"], json::Value::Number(10.0));
            }
        }
    }
}
