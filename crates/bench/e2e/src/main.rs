//! `tfhe-e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! tfhe-e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! tfhe-e2e --seed <u64> [--trace 1] [--out <dir>]                       every workload, one child process each
//! tfhe-e2e --seed <u64> --check-repeat                                  the whole benchmark twice, compared
//! ```
//!
//! See `README.md` in this directory for the workload and metric glossary.

mod catalog;
mod emit;
mod eval;
mod paper;
mod probes;
mod run;
mod span;
mod speed;
mod stats;
mod suite;
mod svc;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tfhe-e2e [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--out <dir>] [--check-repeat]";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    check_repeat: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        check_repeat: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !catalog::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("tfhe-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let suite = suite::Suite {
        seed: cli.seed,
        seconds: cli.seconds,
        out_dir: cli.out_dir.clone(),
    };
    match cli.workload {
        Some(workload) => run::run_workload(&run::Args {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            out_dir: cli.out_dir,
        }),
        None if cli.check_repeat => suite.check_repeat(),
        None => suite.run(cli.trace),
    }
}
