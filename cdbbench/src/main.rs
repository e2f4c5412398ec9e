//! End-to-end and per-layer benchmark of CQA/CDB on the paper's workloads.
//!
//! ```text
//! cargo run --release --manifest-path cdbbench/Cargo.toml -- \
//!     --workload hurricane|index_mixed|spatial|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: it generates the seeded inputs, sets
//! up several times (median = `setup_s`), runs the operations three
//! times untraced (each operation's best pass gives the end-to-end
//! metrics), runs them again traced (the per-layer metrics), replays a
//! seeded sample on the reference path, and checks every output hash
//! against the traced run's. The last line of standard
//! output is one JSON object; `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--workload all` runs every workload
//! in its own process, both ways, and prints everything. See README.md.

mod metrics;
mod run;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.clamp(1, 60),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_none() && !all {
        return Err("--workload is required (hurricane, index_mixed, spatial or all)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cdbbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => run::one(w, args.seed, args.seconds, args.trace),
        None => run::all(args.seed, args.seconds),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cdbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
