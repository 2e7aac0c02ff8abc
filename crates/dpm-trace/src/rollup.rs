//! Streaming rollup engine: fold a schema-v1 line stream into windowed
//! time-series, **deterministic in sim-time**.
//!
//! A [`Rollup`] consumes [`TraceLine`]s one at a time (the same shape a
//! live `dpm-serve` session streams) and maintains, per N-slot window:
//!
//! - **counter rates** — how often each event name fired in the window
//!   ([`RollupWindow::count`] / [`Rollup::rate`]);
//! - **gauge last-values** — the most recent value of every numeric
//!   event field, keyed `"<event>.<field>"` ([`RollupWindow::last`]);
//! - **histogram quantiles** — a fixed-bucket [`Histogram`] per field
//!   key, queryable through [`crate::summary::quantile`] via
//!   [`RollupWindow::histogram`].
//!
//! Events without a slot stamp, and the whole-stream aggregate, land in
//! [`Rollup::totals`]. Gauge and counter lines (the deterministic tail
//! of a batch document) are kept as plain last-value maps. Everything is
//! `BTreeMap`-backed and driven only by sim-time fields, so two
//! identical streams produce byte-identical rollup state — the property
//! the `dpm-serve` metrics snapshot's determinism rests on.

use dpm_telemetry::{Event, Histogram, HistogramLine, TraceLine};
use std::collections::BTreeMap;

/// Accumulated state for one window (or the whole stream).
#[derive(Debug, Clone, Default)]
pub struct RollupWindow {
    events: u64,
    counts: BTreeMap<String, u64>,
    fields: BTreeMap<String, FieldStats>,
}

/// One field key's state in a window: its newest value and its
/// distribution.
#[derive(Debug, Clone)]
struct FieldStats {
    last: f64,
    hist: Histogram,
}

impl RollupWindow {
    /// Events folded into this window.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// How often event `name` fired in this window.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Event names seen in this window, with their counts, sorted.
    pub fn counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Last value of field key `"<event>.<field>"` in this window.
    pub fn last(&self, key: &str) -> Option<f64> {
        self.fields.get(key).map(|f| f.last)
    }

    /// Snapshot the distribution of field key `"<event>.<field>"` as a
    /// [`HistogramLine`] — feed it to [`crate::summary::quantile`].
    pub fn histogram(&self, key: &str) -> Option<HistogramLine> {
        self.fields.get(key).map(|f| HistogramLine {
            name: key.to_string(),
            bounds: f.hist.bounds().to_vec(),
            counts: f.hist.counts().to_vec(),
            count: f.hist.count(),
            sum: f.hist.sum(),
            min: f.hist.min(),
            max: f.hist.max(),
        })
    }

    /// Count one event named `name`. Keys are looked up by `&str`; a
    /// name is copied only the first time this window sees it.
    fn count_event(&mut self, name: &str) {
        self.events += 1;
        match self.counts.get_mut(name) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(name.to_string(), 1);
            }
        }
    }

    /// Record `value` under field key `key`, copying the key only the
    /// first time this window sees it.
    fn record(&mut self, key: &str, value: f64) {
        match self.fields.get_mut(key) {
            Some(f) => {
                f.last = value;
                f.hist.record(value);
            }
            None => {
                let mut hist = Histogram::with_default_bounds();
                hist.record(value);
                self.fields
                    .insert(key.to_string(), FieldStats { last: value, hist });
            }
        }
    }
}

/// The streaming rollup state; see the module docs.
#[derive(Debug, Clone)]
pub struct Rollup {
    window_slots: u64,
    gauges: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
    totals: RollupWindow,
    windows: BTreeMap<u64, RollupWindow>,
    /// Scratch for the `"<event>.<field>"` key being folded, reused so a
    /// key already seen costs no allocation.
    key: String,
}

impl Rollup {
    /// A rollup that groups slots into windows of `window_slots`
    /// (clamped to at least 1 — a zero width would fold everything into
    /// window 0 anyway, just with a division hazard).
    pub fn new(window_slots: u64) -> Self {
        Self {
            window_slots: window_slots.max(1),
            gauges: BTreeMap::new(),
            counters: BTreeMap::new(),
            totals: RollupWindow::default(),
            windows: BTreeMap::new(),
            key: String::new(),
        }
    }

    /// The configured window width in slots.
    pub fn window_slots(&self) -> u64 {
        self.window_slots
    }

    /// Fold one trace line. Events land in their slot's window (and the
    /// totals); gauge and counter lines update the last-value maps; meta,
    /// histogram, and span lines are end-of-run artifacts with no
    /// time-series content and are ignored.
    pub fn push(&mut self, line: &TraceLine) {
        match line {
            TraceLine::Event(e) => self.push_event(e),
            TraceLine::Gauge(g) => {
                self.gauges.insert(g.name.clone(), g.value);
            }
            TraceLine::Counter(c) => {
                self.counters.insert(c.name.clone(), c.value);
            }
            TraceLine::Meta(_) | TraceLine::Histogram(_) | TraceLine::Span(_) => {}
        }
    }

    /// Fold one event (the live-stream fast path) into the totals and,
    /// when it carries a slot, that slot's window. Allocates only for a
    /// window, event name or field key seen for the first time.
    pub fn push_event(&mut self, event: &Event) {
        let mut window = event
            .slot
            .map(|slot| self.windows.entry(slot / self.window_slots).or_default());
        self.totals.count_event(&event.name);
        if let Some(w) = window.as_deref_mut() {
            w.count_event(&event.name);
        }
        for (field, value) in &event.fields {
            self.key.clear();
            self.key.push_str(&event.name);
            self.key.push('.');
            self.key.push_str(field);
            self.totals.record(&self.key, *value);
            if let Some(w) = window.as_deref_mut() {
                w.record(&self.key, *value);
            }
        }
    }

    /// The whole-stream aggregate (slotless events included).
    pub fn totals(&self) -> &RollupWindow {
        &self.totals
    }

    /// Windows in index order (`window i` covers slots
    /// `[i·window_slots, (i+1)·window_slots)`).
    pub fn windows(&self) -> impl Iterator<Item = (u64, &RollupWindow)> {
        self.windows.iter().map(|(&i, w)| (i, w))
    }

    /// The window at `index`, when any of its slots emitted events.
    pub fn window(&self, index: u64) -> Option<&RollupWindow> {
        self.windows.get(&index)
    }

    /// The most recent populated window.
    pub fn latest(&self) -> Option<(u64, &RollupWindow)> {
        self.windows.iter().next_back().map(|(&i, w)| (i, w))
    }

    /// Event rate (events/s) of `name` in window `index`, given the slot
    /// width `tau_s`. Zero for an absent window or a non-positive tau.
    pub fn rate(&self, index: u64, name: &str, tau_s: f64) -> f64 {
        let span = self.window_slots as f64 * tau_s;
        if span <= 0.0 {
            return 0.0;
        }
        self.window(index).map_or(0.0, |w| w.count(name) as f64) / span
    }

    /// Last value of gauge `name` (from `Gauge` lines, not events).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Final value of counter `name` (from `Counter` lines).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Per-window counts of event `name`, in window order — the
    /// windowed time-series a dashboard plots.
    pub fn series(&self, name: &str) -> Vec<(u64, u64)> {
        self.windows
            .iter()
            .map(|(&i, w)| (i, w.count(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::quantile;
    use dpm_telemetry::{CounterLine, GaugeLine, Recorder};

    fn slot_event(slot: u64, battery: f64) -> Event {
        Event {
            seq: slot,
            scope: String::new(),
            name: "sim.slot".into(),
            slot: Some(slot),
            time: slot as f64 * 4.8,
            fields: vec![("battery_j".into(), battery)],
            detail: None,
        }
    }

    #[test]
    fn events_fold_into_slot_windows() {
        let mut r = Rollup::new(4);
        for slot in 0..10 {
            r.push_event(&slot_event(slot, slot as f64));
        }
        let indices: Vec<u64> = r.windows().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        assert_eq!(r.window(0).map(|w| w.count("sim.slot")), Some(4));
        assert_eq!(r.window(2).map(|w| w.count("sim.slot")), Some(2));
        assert_eq!(r.series("sim.slot"), vec![(0, 4), (1, 4), (2, 2)]);
        assert_eq!(r.totals().count("sim.slot"), 10);
        // Last-value per window tracks the newest field value.
        assert_eq!(
            r.window(1).and_then(|w| w.last("sim.slot.battery_j")),
            Some(7.0)
        );
        assert_eq!(r.latest().map(|(i, _)| i), Some(2));
        // Rate: 4 events over a 4-slot window of 4.8 s slots.
        let rate = r.rate(0, "sim.slot", 4.8);
        assert!((rate - 4.0 / (4.0 * 4.8)).abs() < 1e-12, "{rate}");
        assert_eq!(r.rate(9, "sim.slot", 4.8), 0.0);
    }

    #[test]
    fn slotless_events_land_in_totals_only() {
        let mut r = Rollup::new(4);
        r.push_event(&Event {
            slot: None,
            ..slot_event(0, 1.0)
        });
        assert_eq!(r.windows().count(), 0);
        assert_eq!(r.totals().events(), 1);
        assert_eq!(r.totals().last("sim.slot.battery_j"), Some(1.0));
    }

    #[test]
    fn window_histograms_answer_quantiles() {
        let mut r = Rollup::new(8);
        for slot in 0..8 {
            r.push_event(&slot_event(slot, (slot % 4) as f64));
        }
        let h = r
            .window(0)
            .and_then(|w| w.histogram("sim.slot.battery_j"))
            .expect("histogram");
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 3.0);
        let p50 = quantile(&h, 0.5);
        assert!((0.0..=2.0).contains(&p50), "{p50}");
        assert!(r
            .window(0)
            .is_some_and(|w| w.histogram("no.such").is_none()));
    }

    #[test]
    fn gauge_and_counter_lines_keep_last_values() {
        let mut r = Rollup::new(4);
        r.push(&TraceLine::Gauge(GaugeLine {
            name: "sim.c_min_j".into(),
            value: 1.25,
        }));
        r.push(&TraceLine::Gauge(GaugeLine {
            name: "sim.c_min_j".into(),
            value: 2.5,
        }));
        r.push(&TraceLine::Counter(CounterLine {
            name: "serve.slots_stepped".into(),
            value: 24,
        }));
        assert_eq!(r.gauge("sim.c_min_j"), Some(2.5));
        assert_eq!(r.counter("serve.slots_stepped"), Some(24));
        assert_eq!(r.gauge("absent"), None);
        assert_eq!(r.counter("absent"), None);
    }

    #[test]
    fn identical_streams_produce_identical_rollups() {
        let build = || {
            let rec = Recorder::enabled("t");
            rec.gauge("sim.c_min_j", 0.5);
            for slot in 0..12 {
                rec.event(
                    "sim.slot",
                    Some(slot),
                    slot as f64,
                    &[("battery_j", (slot % 5) as f64)],
                );
            }
            let mut r = Rollup::new(6);
            for line in rec.snapshot() {
                r.push(&line);
            }
            r
        };
        let (a, b) = (build(), build());
        assert_eq!(a.series("sim.slot"), b.series("sim.slot"));
        let qa = a
            .window(0)
            .and_then(|w| w.histogram("sim.slot.battery_j"))
            .map(|h| quantile(&h, 0.9));
        let qb = b
            .window(0)
            .and_then(|w| w.histogram("sim.slot.battery_j"))
            .map(|h| quantile(&h, 0.9));
        assert_eq!(qa, qb);
    }

    #[test]
    fn zero_window_width_is_clamped() {
        let r = Rollup::new(0);
        assert_eq!(r.window_slots(), 1);
    }

    /// The fold written as plainly as possible: a formatted key per
    /// field, every update through `entry`.
    #[derive(Default)]
    struct ReferenceWindow {
        events: u64,
        counts: BTreeMap<String, u64>,
        last: BTreeMap<String, f64>,
        hists: BTreeMap<String, Histogram>,
    }

    impl ReferenceWindow {
        fn fold(&mut self, event: &Event) {
            self.events += 1;
            *self.counts.entry(event.name.clone()).or_insert(0) += 1;
            for (field, value) in &event.fields {
                let key = format!("{}.{}", event.name, field);
                self.last.insert(key.clone(), *value);
                self.hists
                    .entry(key)
                    .or_insert_with(Histogram::with_default_bounds)
                    .record(*value);
            }
        }

        fn assert_matches(&self, w: &RollupWindow) {
            assert_eq!(w.events(), self.events);
            let counts: Vec<(&str, u64)> =
                self.counts.iter().map(|(k, &v)| (k.as_str(), v)).collect();
            assert_eq!(w.counts().collect::<Vec<_>>(), counts);
            assert_eq!(
                w.fields.keys().collect::<Vec<_>>(),
                self.last.keys().collect::<Vec<_>>()
            );
            for (key, last) in &self.last {
                assert_eq!(w.last(key), Some(*last), "{key}");
                let h = w.histogram(key).expect("field histogram");
                let expected = &self.hists[key];
                assert_eq!(h.count, expected.count(), "{key}");
                assert_eq!(h.sum, expected.sum(), "{key}");
                assert_eq!(h.min, expected.min(), "{key}");
                assert_eq!(h.max, expected.max(), "{key}");
                assert_eq!(h.counts, expected.counts(), "{key}");
            }
        }
    }

    // Names and fields are drawn from small pools so keys repeat, within
    // an event too; `"a" + "b.c"` and `"a.b" + "c"` share the key `a.b.c`.
    const NAMES: [&str; 4] = ["sim.slot", "core.replan", "a", "a.b"];
    const FIELDS: [&str; 4] = ["battery_j", "horizon_slots", "c", "b.c"];

    proptest::proptest! {
        #[test]
        fn the_fold_equals_a_plain_reference_fold(
            draws in proptest::collection::vec(
                (
                    0usize..4,
                    (proptest::any::<bool>(), 0u64..40),
                    proptest::collection::vec((0usize..4, -50.0f64..600.0), 0..4),
                ),
                0..80,
            ),
            width in 1u64..9,
        ) {
            let mut rollup = Rollup::new(width);
            let mut totals = ReferenceWindow::default();
            let mut windows: BTreeMap<u64, ReferenceWindow> = BTreeMap::new();
            for (seq, (name, (slotted, slot), fields)) in draws.into_iter().enumerate() {
                let event = Event {
                    seq: seq as u64,
                    scope: String::new(),
                    name: NAMES[name].to_string(),
                    slot: slotted.then_some(slot),
                    time: slot as f64,
                    fields: fields
                        .into_iter()
                        .map(|(f, v)| (FIELDS[f].to_string(), v))
                        .collect(),
                    detail: None,
                };
                rollup.push_event(&event);
                totals.fold(&event);
                if let Some(slot) = event.slot {
                    windows.entry(slot / width).or_default().fold(&event);
                }
            }
            totals.assert_matches(rollup.totals());
            proptest::prop_assert_eq!(
                rollup.windows().map(|(i, _)| i).collect::<Vec<_>>(),
                windows.keys().copied().collect::<Vec<_>>()
            );
            for (index, reference) in &windows {
                reference.assert_matches(rollup.window(*index).expect("window"));
            }
        }
    }
}
