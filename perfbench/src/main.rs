//! `perfbench` — run one benchmark workload and print its result line.
//!
//! ```text
//! perfbench --workload repro|fleet|serve --seed N --seconds S --trace 0|1 [--server PATH]
//! perfbench --print-digests
//! ```
//!
//! `perfbench/run.sh` builds the release `dpm-serve` and this binary and
//! passes `--server`. A human-readable summary goes to stderr; the last
//! line of stdout is the JSON result. Exit codes: 0 ran (even when checks
//! failed — the result says so), 1 the workload could not run, 2 usage.

use perfbench::reference::{self, References};
use perfbench::registry::{self, WORKLOADS};
use perfbench::{fleet, repro, serve, RunConfig, Size};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload repro|fleet|serve --seed N --seconds S --trace 0|1 \
                     [--server PATH]\n       perfbench --print-digests";

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::from(1)
}

/// Parsed command line.
struct Args {
    workload: String,
    cfg: RunConfig,
    server: Option<PathBuf>,
}

fn parse(args: Vec<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut secs = None;
    let mut trace = None;
    let mut server = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => secs = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(&format!("{other} (expected 0 or 1)"))),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if registry::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = secs.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            size: Size::Full,
        },
        server,
    })
}

/// Every committed digest, recomputed from the program.
fn print_digests() -> Result<(), String> {
    let mut rows = Vec::new();
    for size in [Size::Full, Size::Tiny] {
        for w in WORKLOADS {
            let digest = match w.name {
                "repro" => repro::reference_digest(size).map_err(|e| e.to_string())?,
                "fleet" => {
                    fleet::reference_digest(size, w.reference_seed).map_err(|e| e.to_string())?
                }
                _ => serve::reference_digest(size, w.reference_seed),
            };
            rows.push((w.name, size, w.reference_seed, digest));
        }
    }
    print!("{}", reference::render(&rows));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-digests") {
        return match print_digests() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let refs = match References::committed() {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let cfg = &args.cfg;
    let outcome = match args.workload.as_str() {
        "repro" => repro::run(cfg, &refs).map_err(|e| e.to_string()),
        "fleet" => fleet::run(cfg, &refs).map_err(|e| e.to_string()),
        _ => match &args.server {
            Some(bin) => serve::run(cfg, &refs, bin),
            None => Err("the serve workload needs --server PATH".into()),
        },
    };
    match outcome {
        Ok(report) => {
            eprint!("{}", report.render(&args.workload, cfg.trace));
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{} failed: {e}", args.workload)),
    }
}
