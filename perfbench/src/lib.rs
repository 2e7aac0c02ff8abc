//! # perfbench
//!
//! The repository's benchmark: three workloads over the system's user
//! surfaces, each run untraced for the end-to-end metrics or traced for a
//! per-layer breakdown.
//!
//! - `repro` — the paper's Table 1 matrix (six governors × scenarios I and
//!   II) over a long horizon, one worker, recorder disabled;
//! - `fleet` — the open-loop struct-of-arrays fleet campaign at 5×10^4
//!   boards, one worker;
//! - `serve` — the release `dpm-serve serve --audit` binary on loopback,
//!   driven by a closed-loop client over two connections.
//!
//! The traced run times, from this crate, the calls into each module's
//! public functions (a [`layers::Timed`] governor wrapper, direct calls into
//! the allocator, scheduler, fleet stepper, codec, server and auditor). The
//! one layer without a public seam, `core.replan` inside
//! `DpmController::decide`, is read from the recorder's span tree.
//!
//! Every run checks its outputs against an in-run reference computed by the
//! program's own entry points and against committed digests
//! ([`reference`]); a mismatch counts as a failed operation.

pub mod fleet;
pub mod layers;
pub mod reference;
pub mod registry;
pub mod repro;
pub mod serve;
pub mod stats;

/// How large a run's inputs are: the benchmark's own size, or a tiny one
/// for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures at.
    Full,
    /// A size small enough for the self-tests.
    Tiny,
}

impl Size {
    /// The label used in the reference-digest table.
    pub fn label(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Tiny => "tiny",
        }
    }
}

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed (the population seed for `fleet` and `serve`).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}
