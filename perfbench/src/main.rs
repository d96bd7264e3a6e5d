//! Wall-clock benchmark of the privacy-preserving DBSCAN system: whole
//! sessions over real sockets, end to end and layer by layer. See
//! `README.md` in this directory and `BENCHMARK.json` at the repository
//! root.

mod channels;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod sysinfo;
mod traced;
mod workloads;

use json::Json;
use run::{run, Options};
use std::io::Write as _;
use std::process::ExitCode;
use workloads::{Spec, WORKLOADS};

const USAGE: &str = "\
usage: ppds-perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
       ppds-perfbench --smoke
       ppds-perfbench --compare <a.jsonl> <b.jsonl>
       ppds-perfbench --list

One run measures one workload and prints, as its last line of standard output,
{\"correct\", \"attempted\", \"failed\", \"metrics\"}: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. --out appends that object and the
environment stamp to <file> as one JSON line, the input of --compare.";

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Every workload at smoke size, both passes, one timed session each.
fn smoke() -> ExitCode {
    let mut all_correct = true;
    for spec in WORKLOADS.map(Spec::smoke) {
        for trace in [false, true] {
            let finished = run(
                &spec,
                Options {
                    seed: 1,
                    seconds: 0.0,
                    trace,
                },
            );
            print!(
                "== {} (smoke, trace {}) ==\n{}",
                spec.name,
                u8::from(trace),
                finished.report
            );
            all_correct &= finished.correct();
        }
    }
    println!(
        "smoke: {}",
        if all_correct { "all correct" } else { "FAILED" }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_runs(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(set_a), Ok(set_b)) => {
            let (table, breached) = compare::compare(&set_a, &set_b);
            print!("A = {a}\nB = {b}\n{table}");
            if breached {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => fail(&e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in WORKLOADS {
            println!("{:<34} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare_files(a, b),
            _ => fail("--compare takes two files"),
        };
    }

    let Some(spec) = value_of(&args, "--workload").and_then(workloads::find) else {
        return fail("--workload must name one of the workloads (--list)");
    };
    let Some(seed) = value_of(&args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return fail("--seed must be an unsigned integer");
    };
    let seconds = match value_of(&args, "--seconds").map(str::parse::<f64>) {
        Some(Ok(s)) if (0.0..=600.0).contains(&s) => s,
        _ => return fail("--seconds must be a number from 0 to 600"),
    };
    let trace = match value_of(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return fail("--trace must be 0 or 1"),
    };

    let finished = run(
        &spec,
        Options {
            seed,
            seconds,
            trace,
        },
    );
    if let Some(path) = value_of(&args, "--out") {
        let line = Json::obj([
            ("stamp", finished.stamp.clone()),
            ("result", finished.result.clone()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{}", line.render()));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", finished.report);
    println!("{}", finished.result.render());
    ExitCode::SUCCESS
}
