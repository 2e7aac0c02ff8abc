//! The `fleet` workload: the open-loop struct-of-arrays campaign behind
//! `campaign --fleet`, at 5×10^4 boards on one worker. Each campaign computes
//! the §4.1 allocation and §4.2 plan once; then, shard by shard as
//! `dpm_bench::fleet::run` does, it draws `SHARD_BOARDS` board specs from
//! the seeded `dpm-workloads` population, builds one `FleetState` and steps
//! it. Preparation and stepping are timed apart.

use crate::layers::{fill_unentered, LineReplay, Tally};
use crate::reference::References;
use crate::stats::{
    digest, fastest, mean, median, peak_rss_mib, percentile, since, timed, Best, Report,
};
use crate::{RunConfig, Size};
use dpm_bench::experiments::initial_allocation;
use dpm_bench::fleet::{self as campaign, SHARD_BOARDS};
use dpm_core::params::{OperatingPoint, ParameterScheduler};
use dpm_core::platform::Platform;
use dpm_core::units::seconds;
use dpm_sim::fleet::{FleetConfig, FleetReport, FleetState, ShedGuard};
use dpm_sim::prelude::SimError;
use dpm_telemetry::Recorder;
use dpm_workloads::{fleet_specs, scenarios, FleetScenarioConfig, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// Charging periods per board.
const PERIODS: usize = 1;
/// Traced-vs-untraced campaign pairs behind `telemetry.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 3;
/// Rollup window: one charging period.
const WINDOW_SLOTS: u64 = 12;

/// Boards in the measured fleet. Each shard is stepped once per campaign
/// and charged its best time, so a campaign of about a second gives every
/// shard a few dozen chances at an undisturbed run within one measured
/// phase, where 10^5 boards would give it a dozen: too few to get past the
/// host's slow phases.
fn boards(size: Size) -> usize {
    match size {
        Size::Full => 50_000,
        Size::Tiny => 512,
    }
}

/// Boards in the fleet whose CSV is digested at the reference seed, and in
/// the traced-vs-untraced overhead pairs.
fn small_boards(size: Size) -> usize {
    match size {
        Size::Full => 8 * SHARD_BOARDS,
        Size::Tiny => 2 * SHARD_BOARDS,
    }
}

/// Wall time charged to each layer the campaigns call into.
#[derive(Debug, Default)]
struct Layers {
    alloc: Tally,
    iterations: Vec<f64>,
    pareto: Tally,
    plan: Tally,
    board_spec: Tally,
    state_new: Tally,
    run: Tally,
}

/// What every shard of a campaign shares.
struct Campaign {
    scenario: Scenario,
    config: FleetConfig,
    population: FleetScenarioConfig,
}

/// The campaign's one-off preparation, as `dpm_bench::fleet::run` does it:
/// allocation, plan, shed guard and population.
fn prepare(layers: &mut Layers) -> Result<Campaign, SimError> {
    let platform = Arc::new(Platform::pama());
    let scenario = scenarios::scenario_one();
    let slots = scenario.charging.len();
    let horizon = seconds(PERIODS as f64 * slots as f64 * platform.tau.value());

    let (alloc, s) = timed(|| initial_allocation(&platform, &scenario));
    let alloc = alloc?;
    layers.alloc.add(s);
    layers.iterations.push(alloc.iterations.len() as f64);
    let (scheduler, s) = timed(|| ParameterScheduler::new(platform.as_ref().clone()));
    let scheduler = scheduler?;
    layers.pareto.add(s);
    let (schedule, s) = timed(|| {
        scheduler.plan(
            &alloc.allocation,
            &scenario.charging,
            scenario.initial_charge,
        )
    });
    let schedule = schedule?;
    layers.plan.add(s);
    let allocation: Vec<OperatingPoint> = schedule.slots.iter().map(|s| s.point).collect();

    let limits = platform.battery;
    let mut config = FleetConfig::new(
        Arc::clone(&platform),
        scenario.charging.clone(),
        scenario.event_rates(&platform),
        allocation,
    );
    config.periods = PERIODS;
    config.slots_per_period = slots;
    config.substeps = 8;
    config.guard = Some(ShedGuard {
        shed_below: limits.c_min + limits.window() * 0.15,
        recover_above: limits.c_min + limits.window() * 0.30,
        max_degradation: platform.workers() as u32,
    });
    config.trace = false;
    Ok(Campaign {
        scenario,
        config,
        population: FleetScenarioConfig::standard(horizon),
    })
}

/// Campaign totals folded shard by shard in `dpm_bench::fleet::run`'s
/// order, rendered as its CSV `total` row.
#[derive(Debug, Default)]
struct Totals {
    boards: usize,
    survived: usize,
    sheds: u64,
    jobs_done: u64,
    dropped: u64,
    undersupplied: f64,
}

impl Totals {
    fn add(&mut self, r: &FleetReport) {
        self.boards += r.boards;
        self.survived += r.survived_count();
        self.sheds += r.total_sheds();
        self.jobs_done += r.jobs_done.iter().sum::<u64>();
        self.dropped += r.dropped.iter().sum::<u64>();
        self.undersupplied += r.undersupplied.iter().sum::<f64>();
    }

    fn row(&self) -> String {
        format!(
            "total,{},{},{},{},{},{:.4},,",
            self.boards,
            self.survived,
            self.sheds,
            self.jobs_done,
            self.dropped,
            self.undersupplied
        )
    }
}

/// Digest of the campaign CSV for the small fleet at `seed`.
///
/// # Errors
/// Propagates a failing campaign.
pub fn reference_digest(size: Size, seed: u64) -> Result<String, SimError> {
    let outcome = campaign::run(small_boards(size), 1, PERIODS, seed)?;
    Ok(digest(outcome.csv.as_bytes()))
}

/// Run the workload.
///
/// # Errors
/// A failing reference campaign; per-shard failures and mismatches are
/// counted in the report.
pub fn run(cfg: &RunConfig, refs: &References) -> Result<Report, SimError> {
    let boards = boards(cfg.size);
    let mut report = Report::default();
    let mut layers = Layers::default();

    let outcome = campaign::run(boards, 1, PERIODS, cfg.seed)?;
    let expected_total = outcome.csv.lines().last().unwrap_or("").to_string();
    report.check(outcome.failures == 0, || {
        "reference campaign had failing shards".into()
    });
    match refs.get("fleet", cfg.size) {
        Some((seed, expected)) => {
            let actual = reference_digest(cfg.size, seed)?;
            report.check(actual == expected, || {
                format!("fleet digest {actual} != committed {expected}")
            });
        }
        None => report.check(false, || "no committed fleet digest".into()),
    }

    // Measured phase: whole campaigns until time is up. Once one campaign
    // has completed (and been checked), the last one may stop mid-way.
    // Every campaign repeats the same shards, so each shard and each of its
    // slots is charged its best time.
    let mut setup = Vec::new();
    let mut shard_best = Best::default();
    let mut slot_best = Best::default();
    let mut board_slots = Vec::new();
    let start = Instant::now();
    while setup.is_empty() || since(start) < cfg.seconds {
        let (prepared, mut preparing) = timed(|| prepare(&mut layers));
        let prepared = prepared?;
        let mut totals = Totals::default();
        let mut complete = true;
        for (shard_index, first) in (0..boards).step_by(SHARD_BOARDS).enumerate() {
            if !setup.is_empty() && since(start) >= cfg.seconds {
                complete = false;
                break;
            }
            let range = first..boards.min(first + SHARD_BOARDS);
            let n = range.len() as u64;
            let (specs, s) =
                timed(|| fleet_specs(&prepared.scenario, cfg.seed, range, &prepared.population));
            layers.board_spec.add_many(n, s);
            preparing += s;
            let (state, s) = timed(|| FleetState::new(prepared.config.clone(), &specs));
            layers.state_new.add(s);
            preparing += s;
            let mut state = match state {
                Ok(state) => state,
                Err(e) => {
                    report.check(false, || format!("shard at board {first}: {e}"));
                    continue;
                }
            };
            let began = Instant::now();
            let shard = if cfg.trace {
                state.run()
            } else {
                let slots = state.total_slots();
                while state.slots_done() < slots {
                    let t = Instant::now();
                    state.step_slot();
                    slot_best.record(shard_index * slots + state.slots_done() - 1, since(t));
                }
                state.into_report()
            };
            let s = since(began);
            shard_best.record(shard_index, s);
            layers.run.add_many(shard.board_slots, s);
            if board_slots.len() <= shard_index {
                board_slots.resize(shard_index + 1, 0);
            }
            board_slots[shard_index] = shard.board_slots;
            totals.add(&shard);
            report.check(true, String::new);
        }
        if complete {
            setup.push(preparing);
            let row = totals.row();
            report.check(row == expected_total, || {
                format!("{row} != {expected_total}")
            });
        }
    }

    let lat: Vec<f64> = slot_best.times().iter().map(|s| s * 1e3).collect();
    let rate = board_slots.iter().sum::<u64>() as f64 / shard_best.total();
    report.end_to_end(
        cfg.trace,
        &[
            ("setup_s", fastest(&setup), "s", setup.len() as u64),
            ("slots_per_s", rate, "slots/s", shard_best.samples()),
            (
                "advance_p50_ms",
                percentile(&lat, 0.50),
                "ms",
                slot_best.samples(),
            ),
            (
                "advance_p99_ms",
                percentile(&lat, 0.99),
                "ms",
                slot_best.samples(),
            ),
            ("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0), "MiB", 1),
        ],
    );
    report.note(
        "board_slots_per_s",
        rate,
        "board-slots/s",
        shard_best.samples(),
    );
    report.note(
        "board_periods_per_s",
        rate / 12.0,
        "board-periods/s",
        shard_best.samples(),
    );
    if cfg.trace {
        layers
            .alloc
            .report(&mut report, "alloc.compute_us", "us", 1e6);
        report.set(
            "alloc.iterations",
            mean(&layers.iterations),
            "count",
            layers.iterations.len() as u64,
        );
        layers
            .pareto
            .report(&mut report, "params.pareto_build_us", "us", 1e6);
        layers.plan.report(&mut report, "params.plan_us", "us", 1e6);
        layers
            .board_spec
            .report(&mut report, "workloads.board_spec_us", "us", 1e6);
        layers
            .state_new
            .report(&mut report, "fleet.state_new_us", "us", 1e6);
        layers
            .run
            .report(&mut report, "fleet.run_ns_per_board_slot", "ns", 1e9);
        overhead(cfg, &mut report)?;
        fill_unentered(&mut report);
    }
    Ok(report)
}

/// `telemetry.overhead_ratio` from the program's own traced and untraced
/// campaigns on the small fleet, and the trace layers replayed over the
/// traced campaign's lines.
fn overhead(cfg: &RunConfig, report: &mut Report) -> Result<(), SimError> {
    let boards = small_boards(cfg.size);
    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut recorder = Recorder::disabled();
    for _ in 0..OVERHEAD_PAIRS {
        let (plain, untraced) = timed(|| campaign::run(boards, 1, PERIODS, cfg.seed));
        recorder = Recorder::enabled("perfbench");
        let (traced_out, traced) =
            timed(|| campaign::run_with(boards, 1, PERIODS, cfg.seed, &recorder));
        let same = plain?.csv == traced_out?.csv;
        report.check(same, || {
            "traced fleet CSV differs from the untraced one".into()
        });
        ratios.push(traced / untraced);
    }
    report.set(
        "telemetry.overhead_ratio",
        median(&ratios),
        "ratio",
        ratios.len() as u64,
    );
    let mut replay = LineReplay::default();
    replay.replay(&recorder.snapshot(), WINDOW_SLOTS);
    replay.report(report);
    Ok(())
}
