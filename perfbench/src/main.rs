//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload against an in-process `classic_server`, checks
//! every answer, prints a human-readable summary and, as the last line
//! of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones. Run it from the repository root: tenant data goes under
//! `.perfbench-work/` (removed on exit) and traces under
//! `.perfbench-out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use classic_perfbench::run::{self, Params, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args() -> Result<(Workload, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) if secs > 0.0 => Ok((w, s, secs, t)),
        _ => Err("--workload, --seed, --seconds (> 0) and --trace are required".into()),
    }
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let work =
        root.join(".perfbench-work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        work: work.clone(),
        out: root.join(".perfbench-out"),
    };
    let result = run::run(&params);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".perfbench-work"));
    match result {
        Ok(report) => {
            print!("{}", report.text);
            for e in &report.check_errors {
                println!("CHECK FAILED: {e}");
            }
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
