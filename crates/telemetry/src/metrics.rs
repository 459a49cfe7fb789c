//! The metrics registry: monotonic counters, gauges and fixed-bucket
//! histograms.
//!
//! Registration (name lookup, allocation) happens once behind a mutex;
//! the returned handles are `Arc`-shared atomics, so the *sampling* path
//! — `Counter::add`, `Gauge::set`, `Histogram::observe` — is lock-free
//! and allocation-free. Mirroring an upstream cumulative counter (the
//! device model's own `u64` tallies) uses `Counter::store`, which keeps
//! the exported value monotonic as long as the source is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the counter with an upstream cumulative total (for
    /// mirroring a source that already counts monotonically).
    pub fn store(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: an instantaneous `f64` value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative) to the gauge atomically, so
    /// concurrent holders can count something up and down.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bucket bounds (inclusive), strictly increasing; an implicit
    /// `+Inf` bucket follows the last bound.
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle. Bucket bounds are set at registration
/// so observation never allocates.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Histogram {
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (0–1): the inclusive upper bound of the
    /// bucket holding the `q`-th observation.
    ///
    /// Defined for every input: an empty histogram returns 0 (for any `q`,
    /// including NaN, which is treated as 0); a quantile landing in the
    /// overflow bucket returns the larger of the last finite bound and the
    /// integer mean (the mean can exceed the last bound there, and is the
    /// only per-value information the overflow bucket retains); a histogram
    /// registered with no bounds at all — a single overflow bucket — returns
    /// the integer mean rather than a garbage 0.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mean = self.sum() / total;
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return match self.0.bounds.get(i) {
                    Some(&bound) => bound,
                    None => self.0.bounds.last().map_or(mean, |&last| last.max(mean)),
                };
            }
        }
        self.0.bounds.last().map_or(mean, |&last| last.max(mean))
    }
}

#[derive(Clone, Debug)]
enum MetricHandle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricHandle {
    fn kind(&self) -> &'static str {
        match self {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: MetricHandle,
}

/// A point-in-time value of one registered metric.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name (Prometheus conventions, e.g.
    /// `mcds_bus_grants_total`).
    pub name: String,
    /// One-line meaning.
    pub help: String,
    /// Static label pairs attached at registration (e.g. `master="m0"`).
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// A sampled metric value, by kind.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Inclusive upper bounds, one per finite bucket.
        bounds: Vec<u64>,
        /// Cumulative-free per-bucket counts; one extra overflow bucket.
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

/// A full telemetry snapshot: every metric, span aggregates included —
/// the document both exporters render.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All registered metrics in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl TelemetrySnapshot {
    /// The value of the counter series `name{labels}`, if it was
    /// registered (e.g. `telemetry_spans_total{subsystem="farm"}`).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m.value {
            MetricValue::Counter(v) if m.name == name && labels_match(&m.labels, labels) => Some(v),
            _ => None,
        })
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len() && have.iter().zip(want).all(|(h, w)| h.0 == w.0 && h.1 == w.1)
}

/// The metric registry. See the module docs for the locking contract.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && labels_match(&e.labels, labels))
        {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with static labels.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as a different kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || {
            MetricHandle::Counter(Counter::default())
        }) {
            MetricHandle::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with static labels.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as a different kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, labels, || MetricHandle::Gauge(Gauge::default())) {
            MetricHandle::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabelled fixed-bucket histogram.
    ///
    /// # Panics
    ///
    /// Panics if the same name was registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Registers (or retrieves) a histogram with fixed bucket `bounds`
    /// (inclusive upper bounds, strictly increasing; a `+Inf` overflow
    /// bucket is implicit).
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as a different kind.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        match self.get_or_insert(name, help, labels, || {
            MetricHandle::Histogram(Histogram::with_bounds(bounds))
        }) {
            MetricHandle::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Samples every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let metrics = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                    MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                    MetricHandle::Histogram(h) => MetricValue::Histogram {
                        bounds: h.0.bounds.clone(),
                        buckets: h
                            .0
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                },
            })
            .collect();
        TelemetrySnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_mirror() {
        let reg = Registry::new();
        let c = reg.counter("x_total", "x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same handle.
        let again = reg.counter("x_total", "x");
        again.store(100);
        assert_eq!(c.get(), 100);
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    fn labels_distinguish_series() {
        let reg = Registry::new();
        let a = reg.counter_with("grants_total", "grants", &[("master", "m0")]);
        let b = reg.counter_with("grants_total", "grants", &[("master", "m1")]);
        a.add(2);
        b.add(7);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(2));
        assert_eq!(snap.metrics[1].value, MetricValue::Counter(7));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat", "latency", &[], &[10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000, 50_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 5 + 50 + 500 + 5000 + 50_000);
        let MetricValue::Histogram { buckets, .. } = &reg.snapshot().metrics[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(buckets, &vec![2, 1, 1, 2], "two land past the last bound");
    }

    #[test]
    fn approx_quantile_empty_is_zero_for_any_q() {
        let reg = Registry::new();
        let h = reg.histogram("q_empty", "q", &[10, 100]);
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(h.approx_quantile(q), 0);
        }
    }

    #[test]
    fn approx_quantile_no_bounds_returns_mean() {
        // A histogram registered with zero bounds is a single overflow
        // bucket; the old implementation returned 0 for it regardless of
        // the data. The mean is the only defined summary it can offer.
        let reg = Registry::new();
        let h = reg.histogram("q_nobounds", "q", &[]);
        h.observe(100);
        h.observe(300);
        assert_eq!(h.approx_quantile(0.5), 200);
        assert_eq!(h.approx_quantile(1.0), 200);
    }

    #[test]
    fn approx_quantile_single_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("q_single", "q", &[50]);
        h.observe(7);
        assert_eq!(h.approx_quantile(0.0), 50);
        assert_eq!(h.approx_quantile(0.5), 50);
        assert_eq!(h.approx_quantile(1.0), 50);
    }

    #[test]
    fn approx_quantile_overflow_uses_mean_when_larger() {
        let reg = Registry::new();
        let h = reg.histogram("q_over", "q", &[10, 100]);
        h.observe(5);
        h.observe(1_000_000);
        // p50 lands in the first bucket, p100 in the overflow bucket where
        // the mean (500_002) dominates the last finite bound (100).
        assert_eq!(h.approx_quantile(0.5), 10);
        assert_eq!(h.approx_quantile(1.0), (5 + 1_000_000) / 2);
    }

    #[test]
    fn approx_quantile_monotone_in_q_and_clamped() {
        let reg = Registry::new();
        let h = reg.histogram("q_mono", "q", &[10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000] {
            h.observe(v);
        }
        let mut prev = 0;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = h.approx_quantile(q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
        // Out-of-range q clamps to the endpoints; NaN maps to q=0.
        assert_eq!(h.approx_quantile(-1.0), h.approx_quantile(0.0));
        assert_eq!(h.approx_quantile(2.0), h.approx_quantile(1.0));
        assert_eq!(h.approx_quantile(f64::NAN), h.approx_quantile(0.0));
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("fill", "fill");
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.add(2.0);
        g.add(-1.0);
        assert_eq!(g.get(), 1.25);
    }

    #[test]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("mixed", "x");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("mixed", "x");
        }));
        assert!(result.is_err());
    }
}
