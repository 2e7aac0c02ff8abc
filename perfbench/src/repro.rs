//! The `repro` workload: the paper's Table 1 matrix — six governors ×
//! scenarios I and II, built as `experiments::table1_jobs` builds them —
//! stepped over a long horizon on one worker with the recorder disabled.
//! The input is the paper's own, so the seed does not change it.

use crate::layers::{fill_unentered, report_replans, timed_step, LineReplay, Tally, Timed};
use crate::reference::References;
use crate::stats::{
    digest, fastest, mean, median, peak_rss_mib, percentile, since, timed, Best, Report,
};
use crate::{RunConfig, Size};
use dpm_bench::experiments::{self, AllocCache, GovernorSpec, Table1Row};
use dpm_core::alloc::InitialAllocator;
use dpm_core::governor::Governor;
use dpm_core::params::{ParameterScheduler, ParetoTable};
use dpm_core::platform::Platform;
use dpm_sim::prelude::{ActiveRun, SimError, SimReport};
use dpm_telemetry::Recorder;
use dpm_workloads::{scenarios, Scenario};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of each one-off set-up call in the traced run.
const LAYER_REPS: usize = 25;
/// Traced-vs-untraced matrix pairs behind `telemetry.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 3;
/// Rollup window: one charging period.
const WINDOW_SLOTS: u64 = 12;

/// Simulated horizon in charging periods. At the paper's 2 periods the
/// matrix takes milliseconds; 100 periods make each cell a few ms.
fn periods(size: Size) -> usize {
    match size {
        Size::Full => 100,
        Size::Tiny => 2,
    }
}

/// One matrix cell ready to step.
struct Cell {
    spec: GovernorSpec,
    governor: Box<dyn Governor>,
    run: ActiveRun,
}

/// Build every cell in `table1_jobs` order (governor-major), drawing
/// allocations and Pareto tables from `cache`.
fn build_cells(
    platform: &Platform,
    scenarios: &[Scenario],
    periods: usize,
    cache: &AllocCache,
) -> Result<Vec<Cell>, SimError> {
    let mut cells = Vec::with_capacity(GovernorSpec::ALL.len() * scenarios.len());
    for spec in GovernorSpec::ALL {
        for scenario in scenarios {
            cells.push(Cell {
                spec,
                governor: spec.build(platform, scenario, cache)?,
                run: experiments::simulation(platform, scenario, periods)?.begin(),
            });
        }
    }
    Ok(cells)
}

/// Table 1 at the workload's horizon through the program's own entry
/// point: the in-run reference every stepped matrix must equal.
fn reference_rows(
    platform: &Platform,
    scenarios: &[Scenario],
    periods: usize,
) -> Result<Vec<Table1Row>, SimError> {
    experiments::table1_jobs(platform, scenarios, periods, 1)
}

/// Digest of the Table 1 rows at `size`.
///
/// # Errors
/// Propagates a failing matrix.
pub fn reference_digest(size: Size) -> Result<String, SimError> {
    let rows = reference_rows(&Platform::pama(), &scenarios::all(), periods(size))?;
    Ok(digest(format!("{rows:?}").as_bytes()))
}

/// Whether one cell's report matches its Table 1 entry exactly.
fn matches_row(row: &Table1Row, scenario: usize, report: &SimReport) -> bool {
    row.wasted.get(scenario) == Some(&report.wasted)
        && row.undersupplied.get(scenario) == Some(&report.undersupplied)
        && row.jobs.get(scenario) == Some(&report.jobs_done)
        && row.utilization.get(scenario) == Some(&report.utilization())
}

/// Run the workload.
///
/// # Errors
/// A set-up failure (the matrix cannot be built); per-cell failures are
/// counted in the report instead.
pub fn run(cfg: &RunConfig, refs: &References) -> Result<Report, SimError> {
    let platform = Platform::pama();
    let scenarios = scenarios::all();
    let periods = periods(cfg.size);
    let mut report = Report::default();

    let reference = reference_rows(&platform, &scenarios, periods)?;
    let expected = refs.get("repro", cfg.size).map(|(_, d)| d.to_string());
    let actual = digest(format!("{reference:?}").as_bytes());
    report.check(expected.as_deref() == Some(actual.as_str()), || {
        format!("Table 1 digest {actual} != committed {expected:?}")
    });

    // Measured phase: build (with a cold cache, timed as set-up) and step
    // whole matrices until time is up. Every matrix repeats the same work,
    // so each cell and each step within the matrix is charged its best time.
    let mut setup = Vec::new();
    let mut cell_best = Best::default();
    let mut step_best = Best::default();
    let mut matrix_slots = 0u64;
    let mut step = Tally::default();
    let mut decides: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let start = Instant::now();
    while setup.is_empty() || since(start) < cfg.seconds {
        let (cells, s) = timed(|| build_cells(&platform, &scenarios, periods, &AllocCache::new()));
        setup.push(s);
        matrix_slots = 0;
        let mut n = 0;
        for (i, mut cell) in cells?.into_iter().enumerate() {
            let began = Instant::now();
            let mut outcome = Ok(true);
            if cfg.trace {
                let mut governor = Timed::new(cell.governor.as_mut());
                while matches!(outcome, Ok(true)) {
                    outcome = timed_step(&mut cell.run, &mut governor, &mut step);
                }
                let tally = decides.entry(cell.spec.label()).or_default();
                tally.add_many(governor.decides.calls, governor.decides.total_s);
            } else {
                while matches!(outcome, Ok(true)) {
                    let t = Instant::now();
                    outcome = cell.run.step(cell.governor.as_mut());
                    step_best.record(n, since(t));
                    n += 1;
                }
            }
            cell_best.record(i, since(began));
            matrix_slots += cell.run.slot();
            let name = cell.governor.name().to_string();
            let sim = cell.run.finish(&name);
            let (row, scenario) = (i / scenarios.len(), i % scenarios.len());
            report.check(
                outcome.is_ok() && matches_row(&reference[row], scenario, &sim),
                || {
                    format!(
                        "cell {} / scenario {scenario}: {outcome:?}",
                        cell.spec.label()
                    )
                },
            );
        }
    }

    let lat: Vec<f64> = step_best.times().iter().map(|s| s * 1e3).collect();
    report.end_to_end(
        cfg.trace,
        &[
            ("setup_s", fastest(&setup), "s", setup.len() as u64),
            (
                "slots_per_s",
                matrix_slots as f64 / cell_best.total(),
                "slots/s",
                cell_best.samples(),
            ),
            (
                "advance_p50_ms",
                percentile(&lat, 0.50),
                "ms",
                step_best.samples(),
            ),
            (
                "advance_p99_ms",
                percentile(&lat, 0.99),
                "ms",
                step_best.samples(),
            ),
            ("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0), "MiB", 1),
        ],
    );
    if cfg.trace {
        step.report(&mut report, "sim.step_us", "us", 1e6);
        for (label, tally) in &decides {
            tally.report(&mut report, &format!("core.decide_us.{label}"), "us", 1e6);
        }
        trace_layers(&platform, &scenarios, periods, &reference, &mut report)?;
        fill_unentered(&mut report);
    }
    Ok(report)
}

/// The traced run's one-off layers: the set-up calls one by one, the
/// program's own traced matrix (span tree, trace lines, overhead ratio).
fn trace_layers(
    platform: &Platform,
    scenarios: &[Scenario],
    periods: usize,
    reference: &[Table1Row],
    report: &mut Report,
) -> Result<(), SimError> {
    let mut alloc = Tally::default();
    let mut iterations = Vec::new();
    let mut pareto = Tally::default();
    let mut plan = Tally::default();
    for _ in 0..LAYER_REPS {
        let (table, s) = timed(|| ParetoTable::build(platform));
        std::hint::black_box(table?);
        pareto.add(s);
        for scenario in scenarios {
            let problem = scenario.allocation_problem(platform);
            let (computed, s) = timed(|| InitialAllocator::new(problem).and_then(|a| a.compute()));
            let computed = computed?;
            alloc.add(s);
            iterations.push(computed.iterations.len() as f64);
            // The oracle cell's §4.2 plan: a scheduler (which rates its
            // own Pareto table) and one plan over the allocation.
            let (scheduler, s) = timed(|| ParameterScheduler::new(platform.clone()));
            let scheduler = scheduler?;
            pareto.add(s);
            let (schedule, s) = timed(|| {
                scheduler.plan(
                    &computed.allocation,
                    &scenario.charging,
                    scenario.initial_charge,
                )
            });
            std::hint::black_box(schedule?);
            plan.add(s);
        }
    }
    alloc.report(report, "alloc.compute_us", "us", 1e6);
    report.set(
        "alloc.iterations",
        mean(&iterations),
        "count",
        iterations.len() as u64,
    );
    pareto.report(report, "params.pareto_build_us", "us", 1e6);
    plan.report(report, "params.plan_us", "us", 1e6);

    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut recorder = Recorder::disabled();
    for _ in 0..OVERHEAD_PAIRS {
        let (plain, untraced) = timed(|| reference_rows(platform, scenarios, periods));
        recorder = Recorder::enabled("perfbench");
        let (rows, traced) =
            timed(|| experiments::table1_jobs_with(platform, scenarios, periods, 1, &recorder));
        let same =
            plain.as_deref().ok() == Some(reference) && rows.as_deref().ok() == Some(reference);
        report.check(same, || {
            "traced Table 1 differs from the untraced one".into()
        });
        ratios.push(traced / untraced);
    }
    report.set(
        "telemetry.overhead_ratio",
        median(&ratios),
        "ratio",
        ratios.len() as u64,
    );
    report_replans(report, &recorder.span_node_lines());
    let mut replay = LineReplay::default();
    replay.replay(&recorder.snapshot(), WINDOW_SLOTS);
    replay.report(report);
    Ok(())
}
