//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|full] <experiment>...
//! repro all                      # every experiment, paper order
//! repro list                     # available experiment ids
//! repro check-bench [current] [baseline]
//!                                # gate a serve sweep against the
//!                                # checked-in baseline (CI bench gate)
//! ```

use bandana_bench::experiments::{run_by_id, ALL_EXPERIMENTS};
use bandana_bench::Scale;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: repro [--scale quick|full] <experiment>...\n\
         \x20      repro check-bench [current.json] [baseline.json]\n\
         experiments: {}  (or `all`)",
        ALL_EXPERIMENTS.join(", ")
    )
}

/// The `check-bench` subcommand: compares `current` (default
/// `BENCH_serve.json`) against `baseline` (default
/// `BENCH_baseline_serve.json`) with the generous tolerance bands of
/// `bandana_bench::baseline`. To re-baseline after an intentional change:
/// `repro --scale quick serve serve-drift serve-restart serve-rebudget
/// serve-relayout && cp BENCH_serve.json BENCH_baseline_serve.json`.
fn check_bench(args: &[String]) -> ExitCode {
    let current_path = args.first().map(String::as_str).unwrap_or("BENCH_serve.json");
    let baseline_path = args.get(1).map(String::as_str).unwrap_or("BENCH_baseline_serve.json");
    let read = |path: &str| -> Result<bandana_bench::BenchDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        bandana_bench::parse_document(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let (current, baseline) = match (read(current_path), read(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("check-bench: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    match bandana_bench::check_serve(&current, &baseline) {
        Ok(report) => {
            for line in report {
                println!("ok: {line}");
            }
            println!("check-bench: {current_path} within tolerance of {baseline_path}");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for line in failures {
                eprintln!("FAIL: {line}");
            }
            eprintln!(
                "check-bench: {current_path} regressed against {baseline_path}\n\
                 (intentional change? re-baseline with:\n\
                 \x20 cargo run --release -p bandana-bench --bin repro -- --scale quick serve \
                 serve-drift serve-restart serve-rebudget serve-relayout\n\
                 \x20 cp BENCH_serve.json BENCH_baseline_serve.json)"
            );
            ExitCode::FAILURE
        }
    }
}

/// The actionable reorder recipe shown by every ordering error.
const MERGE_RECIPE: &str =
    "\x20 cargo run --release -p bandana-bench --bin repro -- --scale quick serve serve-drift \
     serve-restart serve-rebudget serve-relayout";

/// Rejects experiment orderings that would corrupt `BENCH_serve.json`.
///
/// `serve-drift` and `serve-restart` *merge* their rows into the sweep
/// document `serve` writes; `serve` rewrites that document from
/// scratch. Running a merging experiment first therefore either
/// produces a merge-only document (no sweep rows — `check-bench` fails
/// on every missing row with no hint why) or, with `serve` later in the
/// same invocation, has its rows silently clobbered. Both used to fail
/// long after the mistake; now the ordering is checked up front.
/// `sweep_on_disk` says whether an existing `BENCH_serve.json` already
/// carries sweep rows from a prior `serve` run, which makes a
/// merge-only invocation legitimate. (The merging experiments commute
/// with each other — each preserves the other's rows — so only their
/// order relative to `serve` matters.)
fn merge_ordering_error(ids: &[String], sweep_on_disk: bool, merge_id: &str) -> Option<String> {
    let merge = ids.iter().position(|id| id == merge_id)?;
    let serve = ids.iter().position(|id| id == "serve");
    match serve {
        Some(s) if s < merge => None,
        Some(_) => Some(format!(
            "{merge_id} is listed before serve: `serve` rewrites BENCH_serve.json from \
             scratch and would clobber the {merge_id} rows just merged into it.\n\
             Reorder the experiments so serve runs first, e.g.:\n{MERGE_RECIPE}"
        )),
        None if sweep_on_disk => None,
        None => Some(format!(
            "{merge_id} merges its rows into the serve sweep's BENCH_serve.json, but there \
             is no sweep document to merge into (BENCH_serve.json is missing, unparsable, or \
             has no sweep rows) — the result would be a merge-only document that `repro \
             check-bench` rejects as a shrunken sweep.\n\
             Run the sweep first in the same invocation:\n{MERGE_RECIPE}"
        )),
    }
}

/// Checks every merging experiment's ordering (first error wins).
fn ordering_error(ids: &[String], sweep_on_disk: bool) -> Option<String> {
    ["serve-drift", "serve-restart", "serve-rebudget", "serve-relayout"]
        .iter()
        .find_map(|merge_id| merge_ordering_error(ids, sweep_on_disk, merge_id))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("quick") => scale = Scale::Quick,
                    Some("full") => scale = Scale::Full,
                    other => {
                        eprintln!("bad --scale value {other:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "list" => {
                println!("{}", ALL_EXPERIMENTS.join("\n"));
                return ExitCode::SUCCESS;
            }
            "check-bench" => {
                return check_bench(&args[i + 1..]);
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!("unknown experiment {id:?}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    // Sweep rows are the ones carrying no merge marker: drift rows carry
    // `slo_on`, restart rows carry `restart`, rebudget rows `rebudget`,
    // relayout rows `relayout`.
    let sweep_on_disk = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|text| bandana_bench::parse_document(&text).ok())
        .is_some_and(|doc| {
            doc.rows.iter().any(|r| {
                !r.contains_key("slo_on")
                    && !r.contains_key("restart")
                    && !r.contains_key("rebudget")
                    && !r.contains_key("relayout")
            })
        });
    if let Some(message) = ordering_error(&ids, sweep_on_disk) {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    for id in &ids {
        let started = std::time::Instant::now();
        let artifact = run_by_id(id, scale);
        println!("=== {id} (scale: {scale}) ===");
        println!("{artifact}\n");
        // Timing goes to stderr so that stdout is byte-identical run to run.
        eprintln!("[{id} took {:.1}s]", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::ordering_error;

    fn ids(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn drift_ordering_is_validated() {
        // The healthy orders pass regardless of disk state.
        assert_eq!(ordering_error(&ids(&["serve", "serve-drift"]), false), None);
        assert_eq!(ordering_error(&ids(&["fig2", "serve", "fig3", "serve-drift"]), false), None);
        // No drift requested: nothing to check.
        assert_eq!(ordering_error(&ids(&["serve"]), false), None);
        // Drift before serve clobbers the merge — always an error.
        let msg = ordering_error(&ids(&["serve-drift", "serve"]), true)
            .expect("drift-before-serve must be rejected");
        assert!(msg.contains("serve-drift is listed before serve"), "{msg}");
        assert!(msg.contains("serve serve-drift"), "actionable recipe missing: {msg}");
        // Drift alone is fine only when a sweep document already exists.
        assert_eq!(ordering_error(&ids(&["serve-drift"]), true), None);
        let msg = ordering_error(&ids(&["serve-drift"]), false)
            .expect("drift without a sweep document must be rejected");
        assert!(msg.contains("no sweep document"), "{msg}");
        assert!(msg.contains("serve serve-drift"), "actionable recipe missing: {msg}");
    }

    #[test]
    fn restart_ordering_is_validated() {
        // The full healthy pipeline passes.
        assert_eq!(ordering_error(&ids(&["serve", "serve-drift", "serve-restart"]), false), None);
        // The merging experiments commute: restart before drift is fine
        // as long as serve leads.
        assert_eq!(ordering_error(&ids(&["serve", "serve-restart", "serve-drift"]), false), None);
        // Restart before serve clobbers the merge — always an error.
        let msg = ordering_error(&ids(&["serve-restart", "serve"]), true)
            .expect("restart-before-serve must be rejected");
        assert!(msg.contains("serve-restart is listed before serve"), "{msg}");
        assert!(msg.contains("serve serve-drift"), "actionable recipe missing: {msg}");
        assert!(msg.contains("serve-restart"), "recipe names the restart scenario: {msg}");
        // Restart alone is fine only when a sweep document already
        // exists on disk.
        assert_eq!(ordering_error(&ids(&["serve-restart"]), true), None);
        let msg = ordering_error(&ids(&["serve-restart"]), false)
            .expect("restart without a sweep document must be rejected");
        assert!(msg.contains("no sweep document"), "{msg}");
    }

    #[test]
    fn rebudget_ordering_is_validated() {
        // The full healthy pipeline passes, in any merge order.
        let all =
            ids(&["serve", "serve-drift", "serve-restart", "serve-rebudget", "serve-relayout"]);
        assert_eq!(ordering_error(&all, false), None);
        assert_eq!(ordering_error(&ids(&["serve", "serve-rebudget", "serve-drift"]), false), None);
        // Rebudget before serve clobbers the merge — always an error.
        let msg = ordering_error(&ids(&["serve-rebudget", "serve"]), true)
            .expect("rebudget-before-serve must be rejected");
        assert!(msg.contains("serve-rebudget is listed before serve"), "{msg}");
        assert!(msg.contains("serve-rebudget"), "recipe names the rebudget scenario: {msg}");
        // Rebudget alone is fine only when a sweep document already
        // exists on disk.
        assert_eq!(ordering_error(&ids(&["serve-rebudget"]), true), None);
        let msg = ordering_error(&ids(&["serve-rebudget"]), false)
            .expect("rebudget without a sweep document must be rejected");
        assert!(msg.contains("no sweep document"), "{msg}");
    }

    #[test]
    fn relayout_ordering_is_validated() {
        // Relayout merges like the others: serve must lead.
        assert_eq!(ordering_error(&ids(&["serve", "serve-relayout"]), false), None);
        let msg = ordering_error(&ids(&["serve-relayout", "serve"]), true)
            .expect("relayout-before-serve must be rejected");
        assert!(msg.contains("serve-relayout is listed before serve"), "{msg}");
        assert!(msg.contains("serve-relayout"), "recipe names the relayout scenario: {msg}");
        // Relayout alone is fine only when a sweep document already
        // exists on disk.
        assert_eq!(ordering_error(&ids(&["serve-relayout"]), true), None);
        let msg = ordering_error(&ids(&["serve-relayout"]), false)
            .expect("relayout without a sweep document must be rejected");
        assert!(msg.contains("no sweep document"), "{msg}");
    }
}
