//! Self-tests of the benchmark: legal metric names and units in step with
//! `BENCHMARK.json`, every workload passing its checks at a tiny size in
//! both modes, and a perturbed reference digest counting as a failure.

use dpm_serve::{Server, ServerConfig};
use perfbench::reference::{References, COMMITTED};
use perfbench::registry::{self, END_TO_END, LAYERS, WORKLOADS};
use perfbench::stats::{timed, Report};
use perfbench::{fleet, repro, serve, RunConfig, Size};
use std::collections::BTreeSet;
use std::net::TcpListener;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny(trace: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
    }
}

/// The committed table with every digest's last digit changed.
fn perturbed() -> References {
    let text: String = COMMITTED
        .lines()
        .map(|line| {
            if line.starts_with('#') {
                return format!("{line}\n");
            }
            let mut chars: Vec<char> = line.chars().collect();
            if let Some(last) = chars.last_mut() {
                *last = if *last == '0' { '1' } else { '0' };
            }
            format!("{}\n", chars.into_iter().collect::<String>())
        })
        .collect();
    References::parse(&text).expect("perturbed table parses")
}

fn committed() -> References {
    References::committed().expect("committed table parses")
}

/// Run the serve workload's measured phase against an in-process server,
/// whose set-up is binding the listener.
fn serve_in_process(cfg: &RunConfig, refs: &References) -> Report {
    let (listener, setup) = timed(|| TcpListener::bind("127.0.0.1:0").expect("bind loopback"));
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(ServerConfig { audit: true });
    std::thread::scope(|scope| {
        let host = scope.spawn(|| server.serve_tcp(listener));
        let mut report = serve::measure(cfg, refs, addr, None).expect("client ran");
        host.join()
            .expect("server thread")
            .expect("server exited cleanly");
        report.end_to_end(cfg.trace, &[("setup_s", setup, "s", 1)]);
        report
    })
}

/// No failures, and exactly the metric set of the mode, each with its
/// registered unit.
fn assert_complete(report: &Report, traced: bool) {
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{:?}", report.problems);
    let expected: BTreeSet<(&str, &str)> = if traced {
        LAYERS.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let emitted: BTreeSet<(&str, &str)> = report
        .metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m.unit))
        .collect();
    assert_eq!(emitted, expected);
    let line = report.to_json();
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
}

#[test]
fn metric_names_and_units_are_legal_unique_and_match_benchmark_json() {
    let mut names = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
    {
        assert!(registry::valid_name(name), "bad name {name}");
        assert!(registry::valid_unit(unit), "bad unit {unit} for {name}");
        assert!(names.insert(name), "duplicate {name}");
    }
    for m in END_TO_END {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    for l in LAYERS {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", l.name, l.unit);
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    for w in WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    let listed = BENCHMARK_JSON.matches("\"name\":").count();
    assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + LAYERS.len());
}

#[test]
fn repro_runs_tiny_and_passes_its_checks() {
    for trace in [false, true] {
        let report = repro::run(&tiny(trace), &committed()).expect("repro ran");
        assert_complete(&report, trace);
    }
}

#[test]
fn fleet_runs_tiny_and_passes_its_checks() {
    for trace in [false, true] {
        let report = fleet::run(&tiny(trace), &committed()).expect("fleet ran");
        assert_complete(&report, trace);
    }
}

#[test]
fn serve_runs_tiny_and_passes_its_checks() {
    for trace in [false, true] {
        let report = serve_in_process(&tiny(trace), &committed());
        assert_complete(&report, trace);
    }
}

#[test]
fn a_perturbed_reference_digest_raises_the_failed_ratio() {
    let refs = perturbed();
    let reports = [
        repro::run(&tiny(false), &refs).expect("repro ran"),
        fleet::run(&tiny(false), &refs).expect("fleet ran"),
        serve_in_process(&tiny(false), &refs),
    ];
    for report in reports {
        assert_eq!(report.failed, 1, "{:?}", report.problems);
        assert!(report.failed_ratio() > 0.0);
        assert!(report.to_json().starts_with("{\"correct\": false, "));
    }
}
