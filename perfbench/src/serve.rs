//! The `serve` workload: the release `dpm-serve serve --audit` binary on
//! loopback, driven by this crate's closed-loop client.
//!
//! The client keeps two connections (`TCP_NODELAY`, one `write` per
//! request line). Each opens sessions back to back from the seeded fleet
//! population — the `board_spec` specs `loadgen` uses, arm
//! `proposed+safe`, 1 to 4 charging periods drawn from the seed — and
//! runs each as Open, one-slot Advances to the horizon with a Query after
//! every 4th Advance (Plan, Battery, Degradation in turn), then Close.
//! When time is up the session in flight is closed early.
//!
//! Checks: every reply must equal, byte for byte, the in-process replay
//! of the same request through `Server::handle` (the TCP == stdio
//! contract), no reply may be `Error` or `Killed`, every Close must audit
//! green, a final `Metrics` scrape must count exactly the requests sent
//! plus itself, and the replies to the first sessions at the reference
//! seed must digest to the committed value.

use crate::layers::{fill_unentered, report_replans, timed_step, LineReplay, Tally, Timed};
use crate::reference::References;
use crate::stats::{digest, mean, median, peak_rss_mib, percentile, since, timed, Report};
use crate::{RunConfig, Size};
use dpm_core::alloc::InitialAllocator;
use dpm_core::params::ParetoTable;
use dpm_core::platform::Platform;
use dpm_core::runtime::{DpmController, SafetyConfig, SafetyGovernor};
use dpm_core::series::PowerSeries;
use dpm_core::units::{joules, seconds};
use dpm_serve::protocol::{decode_request, encode_response};
use dpm_serve::{QueryKind, Request, Response, Server, ServerConfig, SessionSpec};
use dpm_sim::prelude::{Recorder, ScheduleGenerator, SimConfig, Simulation, TraceSource};
use dpm_telemetry::{SpanNodeLine, TraceLine};
use dpm_workloads::{board_seed, board_spec, scenarios, FleetScenarioConfig, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections.
const CONNECTIONS: usize = 2;
/// Server spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// A Query follows every this many Advances.
const QUERY_EVERY: u64 = 4;
/// Governor arm of every session.
const ARM: &str = "proposed+safe";
/// How long a server may take to start listening or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);
/// The request verbs, in report order.
const VERBS: [&str; 4] = ["open", "advance", "query", "close"];

/// Sessions replayed in-process for the committed digest.
fn digest_sessions(size: Size) -> usize {
    match size {
        Size::Full => 4,
        Size::Tiny => 2,
    }
}

/// A request's verb index into [`VERBS`] (`None` for other requests).
fn verb(req: &Request) -> Option<usize> {
    match req {
        Request::Open { .. } => Some(0),
        Request::Advance { .. } => Some(1),
        Request::Query { .. } => Some(2),
        Request::Close { .. } => Some(3),
        _ => None,
    }
}

/// splitmix64 finaliser: spreads a seed-derived word over all bits.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One session's full request script.
#[derive(Debug, Clone)]
struct Script {
    /// The session's Open spec.
    spec: SessionSpec,
    /// Every request, Open first and Close last.
    requests: Vec<Request>,
}

/// The script of population member `index` under `seed`. Returns it with
/// the seconds `board_spec` took.
fn script(seed: u64, index: usize) -> (Script, f64) {
    let scenario = scenarios::scenario_one();
    let periods = 1 + (mix(board_seed(seed ^ 0x5E55_1015, index as u64)) % 4) as usize;
    let slots = (periods * scenario.charging.len()) as u64;
    let horizon = seconds(slots as f64 * scenario.charging.slot_width().value());
    let population = FleetScenarioConfig::standard(horizon);
    let (board, spec_s) = timed(|| board_spec(&scenario, seed, index, &population));
    let spec = SessionSpec {
        scenario: scenario.name.clone(),
        governor: ARM.to_string(),
        periods,
        initial_charge_j: Some(board.initial_charge.value()),
        phase_slots: board.phase_slots,
        faults: board.faults.iter().map(|(t, d)| (t.value(), *d)).collect(),
    };
    let session = format!("s{index}");
    let mut requests = vec![Request::Open {
        session: session.clone(),
        spec: spec.clone(),
    }];
    let kinds = [QueryKind::Plan, QueryKind::Battery, QueryKind::Degradation];
    for k in 1..=slots {
        requests.push(Request::Advance {
            session: session.clone(),
            slots: 1,
        });
        if k % QUERY_EVERY == 0 {
            requests.push(Request::Query {
                session: session.clone(),
                what: kinds[((k / QUERY_EVERY - 1) % 3) as usize],
            });
        }
    }
    requests.push(Request::Close { session });
    (Script { spec, requests }, spec_s)
}

/// One session as the client drove it.
#[derive(Debug, Clone)]
struct Driven {
    spec: SessionSpec,
    requests: Vec<Request>,
    /// Reply lines, newline stripped.
    replies: Vec<String>,
}

/// What one connection did.
#[derive(Debug, Default)]
struct Connection {
    sessions: Vec<Driven>,
    /// Client latency per verb (ms).
    latency: [Vec<f64>; 4],
    /// Seconds `board_spec` took while scripting sessions.
    board_spec: Tally,
    errors: Vec<String>,
}

/// One NDJSON round trip: the request line in a single write, then the
/// full reply line. Returns the reply (newline stripped) and its latency.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<(String, f64), String> {
    let mut line = serde_json::to_string(req).map_err(|e| e.to_string())?;
    line.push('\n');
    let mut reply = String::new();
    let start = Instant::now();
    stream
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let n = reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    let latency = since(start);
    if n == 0 {
        return Err("server closed the connection".into());
    }
    let trimmed = reply.trim_end_matches(['\n', '\r']).len();
    reply.truncate(trimmed);
    Ok((reply, latency))
}

/// Open a client connection.
fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Drive sessions `conn`, `conn + CONNECTIONS`, … back to back until
/// `deadline`, closing the session in flight early when time is up.
fn drive(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    seed: u64,
    conn: usize,
    deadline: Instant,
) -> Connection {
    let mut out = Connection::default();
    let mut index = conn;
    while Instant::now() < deadline {
        let (script, spec_s) = script(seed, index);
        out.board_spec.add(spec_s);
        let mut driven = Driven {
            spec: script.spec,
            requests: Vec::with_capacity(script.requests.len()),
            replies: Vec::with_capacity(script.requests.len()),
        };
        for req in script.requests {
            let closing = matches!(req, Request::Close { .. });
            if !closing && !driven.requests.is_empty() && Instant::now() >= deadline {
                continue;
            }
            match exchange(stream, reader, &req) {
                Ok((reply, latency)) => {
                    if let Some(v) = verb(&req) {
                        out.latency[v].push(latency * 1e3);
                    }
                    driven.requests.push(req);
                    driven.replies.push(reply);
                }
                Err(e) => {
                    out.errors.push(format!("connection {conn}: {e}"));
                    out.sessions.push(driven);
                    return out;
                }
            }
        }
        out.sessions.push(driven);
        index += CONNECTIONS;
    }
    out
}

/// A spawned server process: killed and reaped if dropped while running.
struct Spawned {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Spawned {
    /// Wait for the process to exit on its own, killing it after the
    /// timeout. Returns whether it exited cleanly in time.
    fn wait_exit(&mut self) -> bool {
        let start = Instant::now();
        while start.elapsed() < PROCESS_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => return false,
            }
        }
        false
    }
}

/// Spawn `dpm-serve serve --audit` on an ephemeral loopback port and time
/// it until it accepts a connection. Returns the server, the accepted
/// connection and the seconds taken.
fn spawn(bin: &Path) -> Result<(Spawned, TcpStream, f64), String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--audit"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("server stdout was not captured".into());
    };
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line
        .trim()
        .strip_prefix("dpm-serve: listening on ")
        .and_then(|a| a.parse::<SocketAddr>().ok());
    let Some(addr) = addr.filter(|_| read.is_ok()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("server did not announce its address: {line:?}"));
    };
    let server = Spawned {
        child,
        addr,
        _stdout: stdout,
    };
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(_) if start.elapsed() < PROCESS_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("server never accepted: {e}")),
        }
    };
    Ok((server, stream, since(start)))
}

/// Run the workload against the server binary at `bin`.
///
/// # Errors
/// When the server cannot be started.
pub fn run(cfg: &RunConfig, refs: &References, bin: &Path) -> Result<Report, String> {
    // Half the set-up spawns come before the measured phase and half after
    // it, so that one slow phase of a shared host does not set the median.
    // Each half takes milliseconds, so whether its fastest spawn caught an
    // undisturbed moment is luck; the median is steadier here.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    respawn(bin, SETUP_REPS / 2, &mut setup)?;
    let (mut server, first, s) = spawn(bin)?;
    setup.push(s);
    drop(first);
    let pid = server.child.id();
    let mut report = measure(cfg, refs, server.addr, Some(pid))?;
    report.check(server.wait_exit(), || {
        "server did not exit cleanly after Shutdown".into()
    });
    respawn(bin, SETUP_REPS / 2, &mut setup)?;
    let setup_s = ("setup_s", median(&setup), "s", setup.len() as u64);
    report.end_to_end(cfg.trace, &[setup_s]);
    Ok(report)
}

/// Spawn, time and shut down `n` servers, adding each set-up time to
/// `setup`.
fn respawn(bin: &Path, n: usize, setup: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let (mut server, mut stream, s) = spawn(bin)?;
        setup.push(s);
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        exchange(&mut stream, &mut reader, &Request::Shutdown)?;
        drop((stream, reader));
        if !server.wait_exit() {
            return Err("a set-up server did not shut down".into());
        }
    }
    Ok(())
}

/// The measured phase against a listening server at `addr`, then the
/// scrape, the shutdown and every check; every end-to-end metric but
/// `setup_s`. `pid` names the server process for `peak_rss_mb` (`None`:
/// this process hosts it).
///
/// # Errors
/// When the client cannot connect.
pub fn measure(
    cfg: &RunConfig,
    refs: &References,
    addr: SocketAddr,
    pid: Option<u32>,
) -> Result<Report, String> {
    let mut links = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let connections: Vec<Connection> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(conn, (stream, reader))| {
                scope.spawn(move || drive(stream, reader, cfg.seed, conn, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Connection {
                    errors: vec!["client thread panicked".into()],
                    ..Connection::default()
                })
            })
            .collect()
    });
    let window = since(start);

    let mut report = Report::default();
    let sent: u64 = connections
        .iter()
        .flat_map(|c| &c.sessions)
        .map(|d| d.requests.len() as u64)
        .sum();
    let (mut stream, mut reader) = links.swap_remove(0);
    drop(links);
    let scraped = exchange(&mut stream, &mut reader, &Request::Metrics).and_then(|(line, _)| {
        match serde_json::from_str::<Response>(&line) {
            Ok(Response::Metrics { text }) => {
                dpm_serve::metrics::sample(&text, "dpm_serve_requests_total", &[])
                    .ok_or_else(|| "scrape lacks dpm_serve_requests_total".to_string())
            }
            _ => Err(format!("unexpected Metrics reply: {line}")),
        }
    });
    report.check(scraped == Ok((sent + 1) as f64), || {
        format!("requests_total {scraped:?}, sent {sent} + 1")
    });
    let rss = peak_rss_mib(pid);
    let shut = exchange(&mut stream, &mut reader, &Request::Shutdown);
    report.check(
        matches!(&shut, Ok((line, _)) if line == "\"ShuttingDown\""),
        || format!("Shutdown reply {shut:?}"),
    );
    drop((stream, reader));

    let mut latency: [Vec<f64>; 4] = Default::default();
    let mut board_spec = Tally::default();
    for c in &connections {
        for (v, samples) in c.latency.iter().enumerate() {
            latency[v].extend_from_slice(samples);
        }
        board_spec.add_many(c.board_spec.calls, c.board_spec.total_s);
        for e in &c.errors {
            report.check(false, || e.clone());
        }
    }
    let sessions: Vec<&Driven> = connections.iter().flat_map(|c| &c.sessions).collect();
    let replay = replay(&sessions, cfg.trace, &mut report);
    check_digest(cfg, refs, &mut report);

    let advanced = latency[1].len() as u64;
    report.end_to_end(
        cfg.trace,
        &[
            (
                "slots_per_s",
                replay.slots as f64 / window,
                "slots/s",
                replay.slots,
            ),
            (
                "advance_p50_ms",
                percentile(&latency[1], 0.50),
                "ms",
                advanced,
            ),
            (
                "advance_p99_ms",
                percentile(&latency[1], 0.99),
                "ms",
                advanced,
            ),
            ("peak_rss_mb", rss.unwrap_or(0.0), "MiB", 1),
        ],
    );
    report.note("requests_per_s", sent as f64 / window, "req/s", sent);
    for (v, name) in VERBS.iter().enumerate() {
        let n = latency[v].len() as u64;
        report.note(&format!("{name}_p50_ms"), median(&latency[v]), "ms", n);
    }
    if cfg.trace {
        for (v, name) in VERBS.iter().enumerate() {
            let handle_ms = median(&replay.handle_us[v]) / 1e3;
            let n = latency[v].len() as u64;
            let transport = median(&latency[v]) - handle_ms;
            report.set(&format!("serve.transport_ms.{name}"), transport, "ms", n);
            let n = replay.handle_us[v].len() as u64;
            report.set(
                &format!("serve.handle_us.{name}"),
                median(&replay.handle_us[v]),
                "us",
                n,
            );
            report.set(
                &format!("serve.codec_us.{name}"),
                median(&replay.codec_us[v]),
                "us",
                n,
            );
            let bytes = replay.bytes[v].iter().sum::<f64>() / replay.bytes[v].len().max(1) as f64;
            report.set(&format!("serve.response_bytes.{name}"), bytes, "bytes", n);
        }
        let lines_per_slot = replay.lines as f64 / replay.slots.max(1) as f64;
        report.set(
            "serve.lines_per_slot",
            lines_per_slot,
            "lines",
            replay.slots,
        );
        board_spec.report(&mut report, "workloads.board_spec_us", "us", 1e6);
        replay.trace.report(&mut report);
        replicas(&sessions, &mut report);
        fill_unentered(&mut report);
    }
    Ok(report)
}

/// What the in-process replay measured.
#[derive(Debug, Default)]
struct Replayed {
    /// Slots stepped by Advance replies.
    slots: u64,
    /// Telemetry lines those replies streamed.
    lines: u64,
    handle_us: [Vec<f64>; 4],
    codec_us: [Vec<f64>; 4],
    bytes: [Vec<f64>; 4],
    trace: LineReplay,
}

/// Replay every driven request through a fresh in-process server — decode,
/// `Server::handle`, encode, as a connection does — and check each TCP
/// reply against it. Traced, also replay each Close trace through a fresh
/// auditor and rollup.
fn replay(sessions: &[&Driven], traced: bool, report: &mut Report) -> Replayed {
    let server = Server::new(ServerConfig { audit: true });
    let mut out = Replayed::default();
    for driven in sessions {
        for (req, tcp) in driven.requests.iter().zip(&driven.replies) {
            let line = serde_json::to_string(req).unwrap_or_default();
            let (decoded, decode_s) = timed(|| decode_request(&line));
            let (resp, handle_s) = match decoded {
                Ok(req) => timed(|| server.handle(&req)),
                Err(e) => (Response::error(&e), 0.0),
            };
            let (encoded, encode_s) = timed(|| encode_response(&resp));
            let mut ok = encoded == *tcp;
            match &resp {
                Response::Advanced { telemetry, .. } => {
                    // Every scripted Advance steps exactly one slot.
                    out.slots += 1;
                    out.lines += telemetry.len() as u64;
                }
                Response::Closed {
                    audit_ok, trace, ..
                } => {
                    ok &= *audit_ok;
                    if traced {
                        let lines: Vec<TraceLine> = trace
                            .iter()
                            .filter_map(|l| serde_json::from_str(l).ok())
                            .collect();
                        ok &= lines.len() == trace.len();
                        ok &= out.trace.replay(&lines, 12) == *audit_ok;
                    }
                }
                Response::Error { .. } | Response::Killed { .. } => ok = false,
                _ => {}
            }
            report.check(ok, || format!("reply to {line} differs or failed: {tcp}"));
            if let Some(v) = verb(req) {
                out.handle_us[v].push(handle_s * 1e6);
                out.codec_us[v].push((decode_s + encode_s) * 1e6);
                out.bytes[v].push((encoded.len() + 1) as f64);
            }
        }
    }
    out
}

/// Replay the first scripts of the reference seed in-process and compare
/// the digest of every reply with the committed one.
fn check_digest(cfg: &RunConfig, refs: &References, report: &mut Report) {
    let Some((seed, expected)) = refs.get("serve", cfg.size) else {
        report.check(false, || "no committed serve digest".into());
        return;
    };
    let actual = reference_digest(cfg.size, seed);
    report.check(actual == expected, || {
        format!("serve digest {actual} != committed {expected}")
    });
}

/// Digest of every reply to the first reference scripts at `seed`.
pub fn reference_digest(size: Size, seed: u64) -> String {
    let server = Server::new(ServerConfig { audit: true });
    let mut replies = String::new();
    for index in 0..digest_sessions(size) {
        for req in script(seed, index).0.requests {
            replies.push_str(&encode_response(&server.handle(&req)));
            replies.push('\n');
        }
    }
    digest(replies.as_bytes())
}

/// Per-layer times inside the sessions' governed runs, which no public
/// seam of the server exposes: rebuild each driven session as
/// `Session::open` builds it and step it as far as the client advanced it.
#[derive(Debug, Default)]
struct Replica {
    alloc: Tally,
    iterations: Vec<f64>,
    pareto: Tally,
    step: Tally,
    decide: Tally,
    spans: Vec<SpanNodeLine>,
}

fn replicas(sessions: &[&Driven], report: &mut Report) {
    let mut acc = Replica::default();
    for driven in sessions {
        let advances = driven
            .requests
            .iter()
            .filter(|r| matches!(r, Request::Advance { .. }))
            .count() as u64;
        if let Err(e) = replica(&driven.spec, advances, &mut acc) {
            report.check(false, || format!("session replica failed: {e}"));
        }
    }
    acc.step.report(report, "sim.step_us", "us", 1e6);
    acc.decide
        .report(report, "core.decide_us.proposed", "us", 1e6);
    report_replans(report, &acc.spans);
    acc.alloc.report(report, "alloc.compute_us", "us", 1e6);
    report.set(
        "alloc.iterations",
        mean(&acc.iterations),
        "count",
        acc.iterations.len() as u64,
    );
    acc.pareto
        .report(report, "params.pareto_build_us", "us", 1e6);
}

/// The session's event-rate schedule rotated left by its phase, as the
/// server rotates it.
fn rotated_rates(
    scenario: &Scenario,
    platform: &Platform,
    phase: usize,
) -> Result<PowerSeries, String> {
    let base = scenario.event_rates(platform);
    let values = base.values();
    let n = values.len();
    let rotated = (0..n).map(|i| values[(i + phase) % n]).collect();
    PowerSeries::new(platform.tau, rotated).map_err(|e| e.to_string())
}

fn replica(spec: &SessionSpec, advances: u64, acc: &mut Replica) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let scenario = scenarios::all()
        .into_iter()
        .find(|s| s.name == spec.scenario)
        .ok_or("unknown scenario")?;
    let platform = Arc::new(Platform::pama());
    let period_slots = scenario.charging.len();
    let capacity = spec.periods * period_slots * 8 + 64;
    let telemetry = Recorder::with_capacity("serve", capacity);
    let rates = rotated_rates(&scenario, &platform, spec.phase_slots)?;
    let initial = spec
        .initial_charge_j
        .map_or(scenario.initial_charge, joules);
    let mut sim = Simulation::new(
        Arc::clone(&platform),
        Box::new(TraceSource::new(scenario.charging.clone())),
        Box::new(ScheduleGenerator::new(rates)),
        initial,
        SimConfig {
            periods: spec.periods,
            slots_per_period: period_slots,
            substeps: 8,
            trace: true,
        },
    )
    .map_err(|e| err(&e))?;
    for (at_s, disturbance) in &spec.faults {
        sim.schedule(seconds(*at_s), *disturbance);
    }
    let sim = sim.with_telemetry(telemetry.clone());

    let problem = scenario.allocation_problem(&platform);
    let (alloc, s) = timed(|| InitialAllocator::new(problem).and_then(|a| a.compute()));
    let alloc = alloc.map_err(|e| err(&e))?;
    acc.alloc.add(s);
    acc.iterations.push(alloc.iterations.len() as f64);
    let (pareto, s) = timed(|| ParetoTable::build(&platform));
    let pareto = Arc::new(pareto.map_err(|e| err(&e))?);
    acc.pareto.add(s);
    let inner = DpmController::with_table(
        Arc::clone(&platform),
        &alloc,
        scenario.charging.clone(),
        Arc::clone(&pareto),
    )
    .map_err(|e| err(&e))?
    .without_trace()
    .with_telemetry(telemetry.clone());
    let mut governor = SafetyGovernor::with_table(
        inner,
        &platform,
        SafetyConfig::default_for(&platform),
        pareto,
    )
    .map_err(|e| err(&e))?
    .with_telemetry(telemetry.clone());

    let mut run = sim.begin();
    let mut timed_governor = Timed::new(&mut governor);
    for _ in 0..advances {
        if run.is_done() {
            break;
        }
        timed_step(&mut run, &mut timed_governor, &mut acc.step).map_err(|e| err(&e))?;
    }
    let decides = timed_governor.decides;
    acc.decide.add_many(decides.calls, decides.total_s);
    acc.spans.extend(telemetry.span_node_lines());
    Ok(())
}
