//! # dpm-serve
//!
//! A long-running session service over the slot-stepped simulator: each
//! session is one governed [`dpm_sim::sim::ActiveRun`] (any of the four
//! campaign arms — the proposed controller and the full-power static
//! baseline, bare or wrapped in the safety governor), driven one request
//! at a time over an NDJSON protocol (see [`protocol`]). Clients can
//! push event-rate updates, inject mid-flight disturbances, advance the
//! clock N slots, and query the live plan, battery forecast, and
//! degradation state — the operator-console half of the paper's runtime
//! story that the batch harness cannot express.
//!
//! Every session streams schema-v1 telemetry incrementally: the config
//! gauges at open, the event tail after each advance, and the complete
//! batch document (meta line first) at close, so a live stream pipes
//! straight into the `dpm-trace` tooling. With auditing enabled the
//! server feeds each session's stream through an incremental
//! [`dpm_trace::AuditState`] and **kills** any session whose stream
//! breaks an invariant, within one slot of the offending line.
//!
//! The same stream also feeds a per-session [`dpm_trace::Rollup`], and
//! the `Metrics` verb snapshots the whole server as Prometheus-style
//! text exposition (see [`metrics`]): server-wide open/close/kill
//! counters plus per-session step counts, audit violations, replan
//! latency, and battery-slack quantiles — all deterministic in
//! sim-time.
//!
//! ## Determinism
//!
//! Traces carry simulated time only (wall clock never enters a trace),
//! so a fixed request script through `--stdio` produces a byte-identical
//! telemetry stream across runs — and a session driven over TCP produces
//! the same per-session trace as the identical script over stdio,
//! regardless of how many other connections the server is juggling:
//! each session records into its own [`dpm_telemetry::Recorder`], which
//! an archiving server (the binary's `--trace PATH`) absorbs into the
//! root scope at close and any other server drops.
//!
//! Transport is deliberately boring: [`std::net::TcpListener`] with a
//! thread per connection under a `crossbeam` scope, plus the `--stdio`
//! single-connection mode for deterministic tests. No async runtime.
//! Every NDJSON line leaves in one `write` ([`protocol::write_line`]).
//!
//! Like the telemetry and trace layers, non-test code here is panic-free
//! (enforced by `ci/forbid_panics.sh`); every failure is a typed
//! [`ServeError`] or a structured `error` response on the wire.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;

pub use error::ServeError;
pub use metrics::{ServerMetrics, SessionMetrics};
pub use protocol::{QueryKind, Request, Response, SessionSpec};
pub use server::{Server, ServerConfig};
pub use session::Session;
