//! Sample statistics, the run report and its two renderings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time one call; returns its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, since(start))
}

/// Nearest-rank percentile `q` in `[0, 1]` of the samples (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of the samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of the samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Smallest of the timings of one piece of work repeated identically (0
/// when empty); see [`Best`] for why.
pub fn fastest(samples: &[f64]) -> f64 {
    percentile(samples, 0.0)
}

/// The fastest time seen for each of a fixed set of work items that a run
/// repeats identically (a matrix cell, a shard, one slot of either).
///
/// Other tenants of a shared host slow a run down in phases lasting
/// seconds to minutes, and they only ever add time. The median over a run
/// therefore depends on how much of it fell in a slow phase, while the
/// minimum over repetitions of identical work estimates the program's own
/// cost.
#[derive(Debug, Clone, Default)]
pub struct Best {
    seconds: Vec<f64>,
    samples: u64,
}

impl Best {
    /// Record one timing of `item`.
    pub fn record(&mut self, item: usize, seconds: f64) {
        if item >= self.seconds.len() {
            self.seconds.resize(item + 1, f64::INFINITY);
        }
        self.seconds[item] = self.seconds[item].min(seconds);
        self.samples += 1;
    }

    /// Timings recorded, over all items and repetitions.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The best time of every item timed at least once.
    pub fn times(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect()
    }

    /// Sum of the best times.
    pub fn total(&self) -> f64 {
        self.times().iter().sum()
    }
}

/// FNV-1a 64-bit digest as 16 hex digits: stable across platforms and
/// toolchains, which the committed reference digests rely on.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Peak resident memory (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One measured value with its unit and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarises (0 = the layer was not entered).
    pub samples: u64,
}

/// The outcome of one run: operations attempted and failed, the metrics
/// of the result line, and further figures printed for people only.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (cells, shards, requests, and output checks).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// Metrics reported in the result line.
    pub metrics: BTreeMap<String, Metric>,
    /// Figures shown in the human-readable summary only.
    pub extra: BTreeMap<String, Metric>,
    /// Why operations failed, for the human-readable summary.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a result-line metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a figure for the human-readable summary only.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.extra.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record the end-to-end rows `(name, value, unit, samples)`: result
    /// metrics of an untraced run, summary-only figures of a traced one
    /// (where rows without samples are left out).
    pub fn end_to_end(&mut self, traced: bool, rows: &[(&str, f64, &'static str, u64)]) {
        for &(name, value, unit, n) in rows {
            if !traced {
                self.set(name, value, unit, n);
            } else if n > 0 {
                self.note(name, value, unit, n);
            }
        }
    }

    /// Count one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Every output was checked and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The human-readable summary: every metric with its unit and sample
    /// count.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let kind = if traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "perfbench: {workload} ({kind})");
        let rows = self
            .metrics
            .iter()
            .chain(&self.extra)
            .map(|(name, m)| (name.as_str(), *m))
            .chain(std::iter::once((
                "failed_ratio",
                Metric {
                    value: self.failed_ratio(),
                    unit: "fraction",
                    samples: self.attempted,
                },
            )));
        for (name, m) in rows {
            let _ = writeln!(
                out,
                "  {name:<34} {:>16.6} {:<10} n={}",
                m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "  failure: {p}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(fastest(&xs), 1.0);
    }

    #[test]
    fn best_keeps_the_minimum_per_item_and_skips_untimed_items() {
        let mut b = Best::default();
        b.record(0, 3.0);
        b.record(0, 1.0);
        b.record(0, 2.0);
        b.record(2, 5.0);
        assert_eq!(b.times(), vec![1.0, 5.0]);
        assert_eq!(b.total(), 6.0);
        assert_eq!(b.samples(), 4);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("setup_s", 0.5, "s", 3);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
