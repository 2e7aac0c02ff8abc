//! A client-side load generator: replay a `dpm-workloads` fleet
//! population against a running server as N concurrent sessions.
//!
//! Each session is one board of the fleet sampler — jittered initial
//! charge, a phase-rotated rate schedule, and a seeded fault plan — so
//! a loadgen run exercises the server with the same population the
//! batch fleet campaigns simulate. One session can optionally inject a
//! corrupt trace line mid-run to prove the online auditor kills it.
//!
//! Exit-code contract (consumed by CI):
//! - `0` — every session closed with a green audit;
//! - `1` — the requested corruption was detected (the expected outcome
//!   of a `--corrupt-session` run), or any clean session failed its
//!   audit or errored;
//! - `2` — corruption was requested but **not** detected: the
//!   unexpected outcome that must fail loudly.

use dpm_core::units::seconds;
use dpm_workloads::{board_spec, scenarios, FleetScenarioConfig};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use crate::error::ServeError;
use crate::protocol::{write_line, QueryKind, Request, Response, SessionSpec};

/// What one loadgen run should do.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent sessions to drive.
    pub sessions: usize,
    /// Workload scenario name.
    pub scenario: String,
    /// Governor arm for every session.
    pub governor: String,
    /// Charging periods per session.
    pub periods: usize,
    /// Master seed for the fleet population.
    pub seed: u64,
    /// Slots per advance request.
    pub chunk: u64,
    /// Inject a corrupt trace line into this session index mid-run.
    pub corrupt_session: Option<usize>,
    /// After the sessions finish (and before any shutdown), scrape the
    /// metrics plane, validate the exposition grammar and the session
    /// counters against this run's outcomes, and write the text here
    /// (`-` for stdout).
    pub metrics: Option<String>,
    /// Send `Shutdown` once every session completed.
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".to_string(),
            sessions: 3,
            scenario: "scenario-1".to_string(),
            governor: "proposed+safe".to_string(),
            periods: 1,
            seed: 42,
            chunk: 4,
            corrupt_session: None,
            metrics: None,
            shutdown: false,
        }
    }
}

/// How one driven session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// Closed normally; payload is the canonical audit verdict.
    Clean {
        /// Whether the end-of-stream audit was green.
        audit_ok: bool,
    },
    /// Killed by the online auditor.
    Killed,
}

/// A trace line guaranteed to break sequence monotonicity once any
/// event has been recorded in the session scope (the `serve.open`
/// marker takes seq 0 at open).
const CORRUPT_LINE: &str = "{\"Event\":{\"seq\":0,\"scope\":\"\",\
    \"name\":\"inject.corrupt\",\"slot\":null,\"time\":0.0,\
    \"fields\":[],\"detail\":null}}";

/// Open a connection to the server: the write half with `TCP_NODELAY`
/// set, and a buffered read half.
fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One NDJSON round trip: the request line in one write, then the reply
/// line.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<Response, ServeError> {
    let line = serde_json::to_string(req).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    write_line(writer, line)?;
    let mut resp = String::new();
    if reader.read_line(&mut resp)? == 0 {
        return Err(ServeError::Io("server closed the connection".to_string()));
    }
    serde_json::from_str(&resp).map_err(|e| ServeError::BadRequest(format!("response: {e}")))
}

/// Drive one session to completion over its own connection.
fn drive_session(
    cfg: &LoadgenConfig,
    name: &str,
    spec: &SessionSpec,
    corrupt: bool,
) -> Result<Outcome, ServeError> {
    let (mut writer, mut reader) = connect(&cfg.addr)?;
    let session = name.to_string();

    let opened = exchange(
        &mut writer,
        &mut reader,
        &Request::Open {
            session: session.clone(),
            spec: spec.clone(),
        },
    )?;
    let total_slots = match opened {
        Response::Opened { total_slots, .. } => total_slots,
        Response::Error { message } => return Err(ServeError::Io(message)),
        other => return Err(ServeError::Io(format!("unexpected open reply: {other:?}"))),
    };

    let mut done = false;
    let mut injected = false;
    let mut slot = 0u64;
    while !done {
        if corrupt && !injected && slot >= total_slots / 2 {
            injected = true;
            let resp = exchange(
                &mut writer,
                &mut reader,
                &Request::InjectLine {
                    session: session.clone(),
                    line: CORRUPT_LINE.to_string(),
                },
            )?;
            match resp {
                Response::Killed { .. } => return Ok(Outcome::Killed),
                Response::Injected { .. } => {}
                other => {
                    return Err(ServeError::Io(format!(
                        "unexpected inject reply: {other:?}"
                    )))
                }
            }
        }
        let resp = exchange(
            &mut writer,
            &mut reader,
            &Request::Advance {
                session: session.clone(),
                slots: cfg.chunk.max(1),
            },
        )?;
        match resp {
            Response::Advanced {
                slot: s, done: d, ..
            } => {
                slot = s;
                done = d;
            }
            Response::Killed { .. } => return Ok(Outcome::Killed),
            other => {
                return Err(ServeError::Io(format!(
                    "unexpected advance reply: {other:?}"
                )))
            }
        }
    }

    for what in [QueryKind::Plan, QueryKind::Battery, QueryKind::Degradation] {
        let resp = exchange(
            &mut writer,
            &mut reader,
            &Request::Query {
                session: session.clone(),
                what,
            },
        )?;
        if let Response::Error { message } = resp {
            return Err(ServeError::Io(format!("query failed: {message}")));
        }
    }

    let resp = exchange(&mut writer, &mut reader, &Request::Close { session })?;
    match resp {
        Response::Closed { audit_ok, .. } => Ok(Outcome::Clean { audit_ok }),
        Response::Killed { .. } => Ok(Outcome::Killed),
        other => Err(ServeError::Io(format!("unexpected close reply: {other:?}"))),
    }
}

/// The fleet population as session specs: board `i` of the sampler.
fn population(cfg: &LoadgenConfig) -> Result<Vec<SessionSpec>, ServeError> {
    let scenario = scenarios::all()
        .into_iter()
        .find(|s| s.name == cfg.scenario)
        .ok_or_else(|| ServeError::UnknownScenario(cfg.scenario.clone()))?;
    let slots = scenario.charging.len();
    let tau = scenario.charging.slot_width();
    let horizon = seconds(cfg.periods as f64 * slots as f64 * tau.value());
    let fleet_cfg = FleetScenarioConfig::standard(horizon);
    Ok((0..cfg.sessions)
        .map(|i| {
            let board = board_spec(&scenario, cfg.seed, i, &fleet_cfg);
            SessionSpec {
                scenario: cfg.scenario.clone(),
                governor: cfg.governor.clone(),
                periods: cfg.periods,
                initial_charge_j: Some(board.initial_charge.value()),
                phase_slots: board.phase_slots,
                faults: board.faults.iter().map(|(t, d)| (t.value(), *d)).collect(),
            }
        })
        .collect())
}

/// Scrape the metrics plane and cross-check the server's session
/// counters against this run's outcomes. The checks are lower bounds —
/// the counters are cumulative over the server's lifetime, and other
/// clients may have contributed — so a clean run against a fresh server
/// matches exactly while a shared server still validates.
fn scrape_metrics(
    cfg: &LoadgenConfig,
    results: &[Result<Outcome, ServeError>],
) -> Result<String, ServeError> {
    let (mut writer, mut reader) = connect(&cfg.addr)?;
    let text = match exchange(&mut writer, &mut reader, &Request::Metrics)? {
        Response::Metrics { text } => text,
        other => {
            return Err(ServeError::Io(format!(
                "unexpected metrics reply: {other:?}"
            )))
        }
    };
    crate::metrics::validate(&text).map_err(|e| ServeError::Io(format!("bad exposition: {e}")))?;
    let closed = results
        .iter()
        .filter(|r| matches!(r, Ok(Outcome::Clean { .. })))
        .count() as f64;
    let killed = results
        .iter()
        .filter(|r| matches!(r, Ok(Outcome::Killed)))
        .count() as f64;
    let floors = [
        ("dpm_serve_sessions_opened_total", closed + killed),
        ("dpm_serve_sessions_closed_total", closed),
        ("dpm_serve_sessions_killed_total", killed),
    ];
    for (metric, floor) in floors {
        let value = crate::metrics::sample(&text, metric, &[])
            .ok_or_else(|| ServeError::Io(format!("scrape is missing {metric}")))?;
        if value < floor {
            return Err(ServeError::Io(format!(
                "{metric} is {value} but this run alone contributed {floor}"
            )));
        }
    }
    Ok(text)
}

/// Run the whole population concurrently and fold the outcomes into
/// the exit-code contract described in the module docs.
///
/// # Errors
/// Only configuration errors (unknown scenario) are `Err`; per-session
/// transport failures are folded into the exit code.
pub fn run(cfg: &LoadgenConfig) -> Result<i32, ServeError> {
    let specs = population(cfg)?;
    let results = crossbeam::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let corrupt = cfg.corrupt_session == Some(i);
                let name = format!("load-{i}");
                scope.spawn(move |_| drive_session(cfg, &name, spec, corrupt))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(ServeError::Io("session thread panicked".to_string())))
            })
            .collect::<Vec<_>>()
    })
    .map_err(|_| ServeError::Io("loadgen scope panicked".to_string()))?;

    // Scrape before any shutdown so the server is still answering.
    let mut metrics_failure: Option<String> = None;
    if let Some(path) = &cfg.metrics {
        match scrape_metrics(cfg, &results) {
            Ok(text) if path == "-" => print!("{text}"),
            Ok(text) => {
                if let Err(e) = std::fs::write(path, &text) {
                    metrics_failure = Some(format!("cannot write {path}: {e}"));
                }
            }
            Err(e) => metrics_failure = Some(e.to_string()),
        }
    }

    if cfg.shutdown {
        match connect(&cfg.addr) {
            Ok((mut writer, mut reader)) => {
                let _ = exchange(&mut writer, &mut reader, &Request::Shutdown);
            }
            Err(e) => eprintln!("loadgen: shutdown connect failed: {e}"),
        }
    }

    let mut code = 0;
    if let Some(msg) = metrics_failure {
        eprintln!("loadgen: metrics scrape failed: {msg}");
        code = 1;
    }
    let corrupt_detected = cfg
        .corrupt_session
        .and_then(|i| results.get(i))
        .map(|r| matches!(r, Ok(Outcome::Killed)));
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(Outcome::Clean { audit_ok: true }) => {}
            Ok(Outcome::Clean { audit_ok: false }) => {
                eprintln!("loadgen: session {i} closed with a failing audit");
                code = code.max(1);
            }
            Ok(Outcome::Killed) => {
                if cfg.corrupt_session == Some(i) {
                    eprintln!("loadgen: session {i} killed by the auditor (expected)");
                    code = code.max(1);
                } else {
                    eprintln!("loadgen: session {i} killed by the auditor (unexpected)");
                    code = code.max(1);
                }
            }
            Err(e) => {
                eprintln!("loadgen: session {i} failed: {e}");
                code = code.max(1);
            }
        }
    }
    if let Some(false) = corrupt_detected {
        eprintln!("loadgen: corruption was requested but never detected");
        return Ok(2);
    }
    Ok(code)
}
