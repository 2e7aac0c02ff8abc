//! Per-layer timing seams shared by the workloads: a governor wrapper that
//! times `decide`, a stepping helper that charges `ActiveRun::step` net of
//! the decide inside it, the replay of trace lines through the auditor,
//! the rollup and the encoder, and the reader of the recorder's span tree.

use crate::stats::{timed, Report};
use dpm_core::error::DpmError;
use dpm_core::governor::{Governor, SlotObservation};
use dpm_core::params::OperatingPoint;
use dpm_sim::prelude::{ActiveRun, SimError};
use dpm_telemetry::{SpanNodeLine, TraceLine};
use dpm_trace::{AuditConfig, AuditState, Rollup};
use std::collections::BTreeMap;
use std::time::Instant;

/// Running sum of wall-clock time over a number of calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Calls timed.
    pub calls: u64,
    /// Seconds across all calls.
    pub total_s: f64,
}

impl Tally {
    /// Add one call.
    pub fn add(&mut self, seconds: f64) {
        self.calls += 1;
        self.total_s += seconds;
    }

    /// Add `calls` calls that took `seconds` together.
    pub fn add_many(&mut self, calls: u64, seconds: f64) {
        self.calls += calls;
        self.total_s += seconds;
    }

    /// Mean per call in `scale` units per second (1e6 = µs), 0 when empty.
    pub fn mean(&self, scale: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s / self.calls as f64 * scale
        }
    }

    /// Record the mean into `report` as `name`, in `unit` at `scale`.
    pub fn report(&self, report: &mut Report, name: &str, unit: &'static str, scale: f64) {
        report.set(name, self.mean(scale), unit, self.calls);
    }
}

/// Times every `decide` of the governor it wraps; everything else
/// delegates.
pub struct Timed<'a> {
    inner: &'a mut dyn Governor,
    /// All decides so far.
    pub decides: Tally,
    /// Seconds the most recent decide took.
    pub last_s: f64,
}

impl<'a> Timed<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Governor) -> Self {
        Self {
            inner,
            decides: Tally::default(),
            last_s: 0.0,
        }
    }
}

impl Governor for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &SlotObservation) -> Result<OperatingPoint, DpmError> {
        let start = Instant::now();
        let out = self.inner.decide(obs);
        self.last_s = start.elapsed().as_secs_f64();
        self.decides.add(self.last_s);
        out
    }

    fn uses_surplus_energy(&self) -> bool {
        self.inner.uses_surplus_energy()
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Step `run` once under `governor`, charging the step net of its decide
/// to `step` and the decide to the wrapper's own tally.
///
/// # Errors
/// Propagates the step's [`SimError`].
pub fn timed_step(
    run: &mut ActiveRun,
    governor: &mut Timed<'_>,
    step: &mut Tally,
) -> Result<bool, SimError> {
    governor.last_s = 0.0;
    let (more, wall) = timed(|| run.step(governor));
    step.add((wall - governor.last_s).max(0.0));
    more
}

/// Wall time charged to the trace layers while replaying lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineReplay {
    /// `AuditState::push`, per line.
    pub audit_push: Tally,
    /// `Rollup::push`, per line.
    pub rollup_push: Tally,
    /// `AuditState::finish`, per document.
    pub audit_finish: Tally,
    /// serde encode of one `TraceLine`, per line.
    pub encode: Tally,
}

impl LineReplay {
    /// Replay one trace document through a fresh auditor, a fresh rollup
    /// windowed at `window_slots`, and the line encoder. Returns whether
    /// the audit came back clean.
    pub fn replay(&mut self, lines: &[TraceLine], window_slots: u64) -> bool {
        let n = lines.len() as u64;
        let mut audit = AuditState::new(AuditConfig::default());
        let ((), s) = timed(|| {
            for line in lines {
                let _ = audit.push(line);
            }
        });
        self.audit_push.add_many(n, s);
        let (verdict, s) = timed(|| audit.finish());
        self.audit_finish.add(s);
        let mut rollup = Rollup::new(window_slots.max(1));
        let ((), s) = timed(|| {
            for line in lines {
                rollup.push(line);
            }
        });
        self.rollup_push.add_many(n, s);
        let (bytes, s) = timed(|| {
            lines
                .iter()
                .map(|l| serde_json::to_string(l).map_or(0, |t| t.len()))
                .sum::<usize>()
        });
        std::hint::black_box(bytes);
        self.encode.add_many(n, s);
        verdict.ok()
    }

    /// Record the four trace-layer metrics.
    pub fn report(&self, report: &mut Report) {
        self.audit_push
            .report(report, "trace.audit_push_ns_per_line", "ns", 1e9);
        self.rollup_push
            .report(report, "trace.rollup_push_ns_per_line", "ns", 1e9);
        self.audit_finish
            .report(report, "trace.audit_finish_us", "us", 1e6);
        self.encode
            .report(report, "telemetry.encode_ns_per_line", "ns", 1e9);
    }
}

/// `core.decide` and `core.replan` as the controller's own spans recorded
/// them: executions and seconds of every span-tree node whose innermost
/// frame is that span (absorbed scopes prefix the root frame, so match the
/// last `/`-separated name of the last `;` frame).
fn controller_spans(nodes: &[SpanNodeLine]) -> BTreeMap<&'static str, Tally> {
    let mut out = BTreeMap::new();
    for node in nodes {
        let frame = node.path.rsplit(';').next().unwrap_or("");
        let name = frame.rsplit('/').next().unwrap_or("");
        for wanted in ["core.decide", "core.replan"] {
            if name == wanted {
                out.entry(wanted)
                    .or_insert_with(Tally::default)
                    .add_many(node.count, node.total_s);
            }
        }
    }
    out
}

/// Record `core.replan_us` and `core.replans_per_decide` from a span tree.
pub fn report_replans(report: &mut Report, nodes: &[SpanNodeLine]) {
    let spans = controller_spans(nodes);
    let replan = spans.get("core.replan").copied().unwrap_or_default();
    let decide = spans.get("core.decide").copied().unwrap_or_default();
    replan.report(report, "core.replan_us", "us", 1e6);
    let ratio = if decide.calls == 0 {
        0.0
    } else {
        replan.calls as f64 / decide.calls as f64
    };
    report.set("core.replans_per_decide", ratio, "ratio", decide.calls);
}

/// Report every per-layer metric the workload did not enter as 0 with 0
/// samples, so each traced run carries the full set.
pub fn fill_unentered(report: &mut Report) {
    for layer in crate::registry::LAYERS {
        if !report.metrics.contains_key(layer.name) {
            report.set(layer.name, 0.0, layer.unit, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_nodes_match_on_their_innermost_frame() {
        let node = |path: &str, count, total_s| SpanNodeLine {
            path: path.to_string(),
            count,
            total_s,
            max_s: total_s,
        };
        let nodes = [
            node("table1/proposed/0/core.decide", 10, 1.0),
            node("table1/proposed/0/core.decide;core.replan", 4, 0.5),
            node("sim.run", 1, 3.0),
        ];
        let spans = controller_spans(&nodes);
        assert_eq!(spans["core.decide"].calls, 10);
        assert_eq!(spans["core.replan"].calls, 4);
        let mut report = Report::default();
        report_replans(&mut report, &nodes);
        assert_eq!(report.metrics["core.replans_per_decide"].value, 0.4);
        assert_eq!(report.metrics["core.replan_us"].value, 0.5 / 4.0 * 1e6);
    }
}
