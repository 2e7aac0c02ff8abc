//! `dpm-serve` — live session service and its load-generator client.
//!
//! ```text
//! dpm-serve serve   --addr 127.0.0.1:0 [--audit] [--trace PATH]
//! dpm-serve stdio   [--audit] [--trace PATH]
//! dpm-serve loadgen --addr HOST:PORT [--sessions N] [--scenario NAME]
//!                   [--governor ARM] [--periods N] [--seed N]
//!                   [--chunk N] [--corrupt-session I] [--metrics PATH]
//!                   [--shutdown]
//! ```
//!
//! Exit codes: 0 success, 1 failure (a session killed by the auditor in
//! stdio mode; a failed or expectedly-corrupted run in loadgen mode),
//! 2 usage error — and loadgen's special case: 2 when corruption was
//! requested but never detected.

use dpm_serve::loadgen::{self, LoadgenConfig};
use dpm_serve::server::{Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dpm-serve serve   --addr HOST:PORT [--audit] [--trace PATH]
  dpm-serve stdio   [--audit] [--trace PATH]
  dpm-serve loadgen --addr HOST:PORT [--sessions N] [--scenario NAME]
                    [--governor ARM] [--periods N] [--seed N]
                    [--chunk N] [--corrupt-session I] [--metrics PATH]
                    [--shutdown]

Sessions host one governed simulation each, driven by NDJSON requests
(one JSON document per line); `--audit` streams every session through
an incremental auditor that kills sessions on illegal telemetry.
`--trace PATH` writes the aggregate trace (census counters plus every
retired session) at exit; without it the server keeps no retired
sessions, so its memory follows the sessions open at once.
`--addr 127.0.0.1:0` picks an ephemeral port and prints it.
loadgen's `--metrics PATH` scrapes the server's Prometheus-style
metrics snapshot after the run, validates the exposition grammar and
counters, and writes the text to PATH (`-` for stdout).";

fn usage_exit(msg: &str) -> ExitCode {
    eprintln!("dpm-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Pull the value after a `--flag`; `None` (with a message) when
/// missing.
fn take_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The server for a `serve` or `stdio` run: only a run that will write
/// the aggregate trace (`--trace PATH`) keeps retired sessions in memory.
fn build_server(audit: bool, trace_path: Option<&str>) -> Server {
    let config = ServerConfig { audit };
    match trace_path {
        Some(_) => Server::archiving(config),
        None => Server::new(config),
    }
}

fn write_trace(path: &str, server: &Server) -> Result<(), String> {
    std::fs::write(path, server.trace_jsonl())
        .map_err(|e| format!("cannot write trace to {path}: {e}"))
}

fn run_serve(args: Vec<String>) -> ExitCode {
    let mut addr = String::from("127.0.0.1:7070");
    let mut audit = false;
    let mut trace_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match take_value(&mut it, "--addr") {
                Ok(v) => addr = v,
                Err(e) => return usage_exit(&e),
            },
            "--audit" => audit = true,
            "--trace" => match take_value(&mut it, "--trace") {
                Ok(v) => trace_path = Some(v),
                Err(e) => return usage_exit(&e),
            },
            other => return usage_exit(&format!("unknown serve flag {other}")),
        }
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dpm-serve: cannot bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(_) => addr.clone(),
    };
    // CI and scripts parse this line to learn the ephemeral port.
    println!("dpm-serve: listening on {local}");
    let _ = std::io::stdout().flush();

    let server = build_server(audit, trace_path.as_deref());
    if let Err(e) = server.serve_tcp(listener) {
        eprintln!("dpm-serve: {e}");
        return ExitCode::from(1);
    }
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(&path, &server) {
            eprintln!("dpm-serve: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn run_stdio(args: Vec<String>) -> ExitCode {
    let mut audit = false;
    let mut trace_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--audit" => audit = true,
            "--trace" => match take_value(&mut it, "--trace") {
                Ok(v) => trace_path = Some(v),
                Err(e) => return usage_exit(&e),
            },
            other => return usage_exit(&format!("unknown stdio flag {other}")),
        }
    }
    let server = build_server(audit, trace_path.as_deref());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let code = server.run_stdio(BufReader::new(stdin.lock()), stdout.lock());
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(&path, &server) {
            eprintln!("dpm-serve: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::from(code.clamp(0, u8::MAX as i32) as u8)
}

fn run_loadgen(args: Vec<String>) -> ExitCode {
    let mut cfg = LoadgenConfig::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--shutdown" => {
                cfg.shutdown = true;
                continue;
            }
            "--addr" | "--sessions" | "--scenario" | "--governor" | "--periods" | "--seed"
            | "--chunk" | "--corrupt-session" | "--metrics" => {}
            other => return usage_exit(&format!("unknown loadgen flag {other}")),
        }
        let value = match take_value(&mut it, flag) {
            Ok(v) => v,
            Err(e) => return usage_exit(&e),
        };
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag {
            "--addr" => cfg.addr = value,
            "--scenario" => cfg.scenario = value,
            "--governor" => cfg.governor = value,
            "--sessions" => match value.parse() {
                Ok(v) => cfg.sessions = v,
                Err(e) => return usage_exit(&bad(&e)),
            },
            "--periods" => match value.parse() {
                Ok(v) => cfg.periods = v,
                Err(e) => return usage_exit(&bad(&e)),
            },
            "--seed" => match value.parse() {
                Ok(v) => cfg.seed = v,
                Err(e) => return usage_exit(&bad(&e)),
            },
            "--chunk" => match value.parse() {
                Ok(v) => cfg.chunk = v,
                Err(e) => return usage_exit(&bad(&e)),
            },
            "--corrupt-session" => match value.parse() {
                Ok(v) => cfg.corrupt_session = Some(v),
                Err(e) => return usage_exit(&bad(&e)),
            },
            "--metrics" => cfg.metrics = Some(value),
            _ => {}
        }
    }
    match loadgen::run(&cfg) {
        Ok(code) => ExitCode::from(code.clamp(0, u8::MAX as i32) as u8),
        Err(e) => {
            eprintln!("dpm-serve: loadgen failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage_exit("a subcommand is required");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => run_serve(args),
        "stdio" => run_stdio(args),
        "loadgen" => run_loadgen(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_exit(&format!("unknown subcommand {other}")),
    }
}
