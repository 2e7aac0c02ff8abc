//! The benchmark's catalogue: its workloads (why each exists and its
//! reference seed), its end-to-end metrics, and its per-layer metrics with
//! the predictions later changes are judged against — which end-to-end
//! metric on which workload a faster layer should move, and the workloads
//! on which it should change nothing. `BENCHMARK.json` repeats the
//! workload reasons and the end-to-end metrics; a self-test keeps the two
//! in step.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// The seed its committed reference digest was taken at.
    pub reference_seed: u64,
}

/// The three workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "repro",
        why: "the paper's Table 1 matrix at 100 periods (fixed input, seed unused): the scalar slot engine and the six governors' decide calls do nearly all the work",
        reference_seed: 0,
    },
    Workload {
        name: "fleet",
        why: "the open-loop SoA fleet campaign at 5x10^4 boards (seed = population): the only user of dpm-sim::fleet, bypassing Simulation, the governors and the service",
        reference_seed: 1,
    },
    Workload {
        name: "serve",
        why: "dpm-serve on loopback under a 2-connection closed-loop client (seed = sessions): the only path through transport, codec, session streaming and online audit",
        reference_seed: 1,
    },
];

/// One end-to-end metric (untraced runs).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What it means on each workload.
    pub definition: &'static str,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        definition: "preparation time: repro = fastest build of one matrix with a cold cache \
                     (allocations, Pareto table, plans, governors, Simulations); fleet = fastest \
                     preparation of one campaign (allocation, plan, board specs, FleetStates); \
                     serve = median of 41 server spawns until each accepts a connection, half \
                     before and half after the measured phase",
    },
    EndToEnd {
        name: "slots_per_s",
        unit: "slots/s",
        definition: "simulated board-slots per second of stepping: governed slots (repro), \
                     SoA board-slots (fleet; board-periods/s = this / 12), each matrix cell or \
                     shard at its best time over the run's repetitions; slots advanced through \
                     the service over the measured phase (serve)",
    },
    EndToEnd {
        name: "advance_p50_ms",
        unit: "ms",
        definition: "median latency of advancing one slot: ActiveRun::step (repro) and \
                     FleetState::step_slot over one shard (fleet), each step at its best over \
                     the run's repetitions; a one-slot Advance request from send to full reply \
                     (serve)",
    },
    EndToEnd {
        name: "advance_p99_ms",
        unit: "ms",
        definition: "99th percentile of the same (serve: at least 1,000 Advances per run)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        definition: "peak resident memory (VmHWM) of the process doing the work: the benchmark \
                     process (repro, fleet), the server process (serve)",
    },
];

/// One per-layer metric (traced runs).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The module it charges time to.
    pub module: &'static str,
    /// The end-to-end metrics (at workloads) a faster layer should move.
    pub moves: &'static str,
    /// Workloads where a change to this layer should move nothing.
    pub unchanged_on: &'static str,
}

const SERVE_VERBS: &str = "{verb}_p50_ms and slots_per_s @ serve";

/// The per-layer metrics every traced run reports. A layer a workload
/// never enters reports 0 with 0 samples.
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "sim.step_us",
        unit: "us",
        module: "dpm-sim::sim",
        moves:
            "slots_per_s, advance_p50_ms @ repro; advance_p50_ms @ serve once transport is small",
        unchanged_on: "fleet",
    },
    Layer {
        name: "core.decide_us.proposed",
        unit: "us",
        module: "dpm-core::runtime",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet",
    },
    Layer {
        name: "core.decide_us.static",
        unit: "us",
        module: "dpm-baselines",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet, serve",
    },
    Layer {
        name: "core.decide_us.timeout",
        unit: "us",
        module: "dpm-baselines",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet, serve",
    },
    Layer {
        name: "core.decide_us.greedy",
        unit: "us",
        module: "dpm-baselines",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet, serve",
    },
    Layer {
        name: "core.decide_us.analytic",
        unit: "us",
        module: "dpm-baselines",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet, serve",
    },
    Layer {
        name: "core.decide_us.oracle",
        unit: "us",
        module: "dpm-baselines",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet, serve",
    },
    Layer {
        name: "core.replan_us",
        unit: "us",
        module: "dpm-core::runtime",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet",
    },
    Layer {
        name: "core.replans_per_decide",
        unit: "ratio",
        module: "dpm-core::runtime",
        moves: "slots_per_s @ repro",
        unchanged_on: "fleet",
    },
    Layer {
        name: "alloc.compute_us",
        unit: "us",
        module: "dpm-core::alloc",
        moves: "setup_s @ repro, fleet; open_p50_ms @ serve",
        unchanged_on: "slots_per_s and advance_* on every workload",
    },
    Layer {
        name: "alloc.iterations",
        unit: "count",
        module: "dpm-core::alloc",
        moves: "setup_s @ repro, fleet; open_p50_ms @ serve",
        unchanged_on: "slots_per_s and advance_* on every workload",
    },
    Layer {
        name: "params.pareto_build_us",
        unit: "us",
        module: "dpm-core::params",
        moves: "setup_s @ repro, fleet; open_p50_ms @ serve",
        unchanged_on: "slots_per_s and advance_* on every workload",
    },
    Layer {
        name: "params.plan_us",
        unit: "us",
        module: "dpm-core::params",
        moves: "setup_s @ repro, fleet",
        unchanged_on: "slots_per_s and advance_* on every workload; serve",
    },
    Layer {
        name: "workloads.board_spec_us",
        unit: "us",
        module: "dpm-workloads",
        moves: "setup_s @ fleet",
        unchanged_on: "repro",
    },
    Layer {
        name: "fleet.state_new_us",
        unit: "us",
        module: "dpm-sim::fleet",
        moves: "setup_s @ fleet",
        unchanged_on: "repro, serve",
    },
    Layer {
        name: "fleet.run_ns_per_board_slot",
        unit: "ns",
        module: "dpm-sim::fleet",
        moves: "slots_per_s, advance_p50_ms @ fleet",
        unchanged_on: "repro, serve",
    },
    Layer {
        name: "serve.transport_ms.open",
        unit: "ms",
        module: "dpm-serve::server",
        moves: SERVE_VERBS,
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.transport_ms.advance",
        unit: "ms",
        module: "dpm-serve::server",
        moves: SERVE_VERBS,
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.transport_ms.query",
        unit: "ms",
        module: "dpm-serve::server",
        moves: SERVE_VERBS,
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.transport_ms.close",
        unit: "ms",
        module: "dpm-serve::server",
        moves: SERVE_VERBS,
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.response_bytes.open",
        unit: "bytes",
        module: "dpm-serve::server",
        moves: "open_p50_ms @ serve; peak_rss_mb @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.response_bytes.advance",
        unit: "bytes",
        module: "dpm-serve::server",
        moves: "advance_p50_ms @ serve; peak_rss_mb @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.response_bytes.query",
        unit: "bytes",
        module: "dpm-serve::server",
        moves: "query_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.response_bytes.close",
        unit: "bytes",
        module: "dpm-serve::server",
        moves: "close_p50_ms @ serve; peak_rss_mb @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.codec_us.open",
        unit: "us",
        module: "dpm-serve::protocol",
        moves: "open_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.codec_us.advance",
        unit: "us",
        module: "dpm-serve::protocol",
        moves: "advance_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.codec_us.query",
        unit: "us",
        module: "dpm-serve::protocol",
        moves: "query_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.codec_us.close",
        unit: "us",
        module: "dpm-serve::protocol",
        moves: "close_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.handle_us.open",
        unit: "us",
        module: "dpm-serve::session",
        moves: "open_p50_ms, slots_per_s @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.handle_us.advance",
        unit: "us",
        module: "dpm-serve::session",
        moves: "advance_p50_ms, slots_per_s @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.handle_us.query",
        unit: "us",
        module: "dpm-serve::session",
        moves: "query_p50_ms, slots_per_s @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.handle_us.close",
        unit: "us",
        module: "dpm-serve::session",
        moves: "close_p50_ms, slots_per_s @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "serve.lines_per_slot",
        unit: "lines",
        module: "dpm-serve::session",
        moves: "advance_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "trace.audit_push_ns_per_line",
        unit: "ns",
        module: "dpm-trace",
        moves: "advance_p50_ms, close_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "trace.rollup_push_ns_per_line",
        unit: "ns",
        module: "dpm-trace",
        moves: "advance_p50_ms, close_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "trace.audit_finish_us",
        unit: "us",
        module: "dpm-trace",
        moves: "close_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "telemetry.encode_ns_per_line",
        unit: "ns",
        module: "dpm-telemetry",
        moves: "advance_p50_ms, close_p50_ms @ serve",
        unchanged_on: "repro, fleet",
    },
    Layer {
        name: "telemetry.overhead_ratio",
        unit: "ratio",
        module: "dpm-telemetry",
        moves: "nothing: it qualifies every traced share (traced / untraced wall time)",
        unchanged_on: "-",
    },
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
