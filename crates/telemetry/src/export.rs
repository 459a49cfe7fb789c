//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both render a [`TelemetrySnapshot`], so a snapshot taken once can be
//! exported twice consistently. Span aggregates need no special case:
//! they are ordinary labelled counters (`telemetry_spans_total`,
//! `telemetry_span_sim_cycles_total`, `telemetry_span_wall_ns_total`).

use std::fmt::Write as _;

use crate::metrics::{MetricValue, TelemetrySnapshot};

/// Renders the snapshot as a JSON document (the `*_telemetry.json` bench
/// artifact). Parse it back with
/// `serde_json::from_str::<TelemetrySnapshot>`.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn labels_plus(labels: &[(String, String)], extra: (&str, &str)) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((extra.0.to_string(), extra.1.to_string()));
    render_labels(&all)
}

/// Renders the snapshot in Prometheus text exposition format
/// (`# HELP` / `# TYPE` preambles, one sample per line). Each family is
/// emitted once, in first-registration order, with all its labelled
/// series grouped under one preamble.
pub fn to_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family = "";
    let first_seen = |name: &str| snapshot.metrics.iter().position(|m| m.name == name);
    let mut grouped: Vec<_> = snapshot.metrics.iter().collect();
    grouped.sort_by_cached_key(|m| first_seen(&m.name));
    for m in grouped {
        let kind = match &m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        if m.name != last_family {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {kind}", m.name);
            last_family = &m.name;
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", m.name, render_labels(&m.labels));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {v}", m.name, render_labels(&m.labels));
            }
            MetricValue::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                let mut cumulative = 0u64;
                for (i, n) in buckets.iter().enumerate() {
                    cumulative += n;
                    let le = bounds
                        .get(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "+Inf".to_string());
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        m.name,
                        labels_plus(&m.labels, ("le", &le))
                    );
                }
                let _ = writeln!(out, "{}_sum{} {sum}", m.name, render_labels(&m.labels));
                let _ = writeln!(out, "{}_count{} {count}", m.name, render_labels(&m.labels));
            }
        }
    }
    out
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Lightweight validator for Prometheus text exposition output.
///
/// Checks that every non-comment line is `name[{labels}] value`, that
/// names are legal, that every sample's family was announced by exactly
/// one `# TYPE` line, and that values parse as numbers (`+Inf` allowed
/// in `le` labels, not as values). Returns the number of samples.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or(format!("line {lineno}: bare TYPE"))?;
                let kind = parts
                    .next()
                    .ok_or(format!("line {lineno}: TYPE without kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric kind {kind}"));
                }
                if typed.iter().any(|t| t == name) {
                    return Err(format!("line {lineno}: second TYPE line for {name}"));
                }
                typed.push(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: malformed comment"));
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: no value"))?;
        let name = series
            .split(['{', ' '])
            .next()
            .ok_or(format!("line {lineno}: no metric name"))?;
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.iter().any(|t| t == f))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == family) {
            return Err(format!("line {lineno}: sample {name} has no TYPE line"));
        }
        if let Some(open) = series.find('{') {
            if !series.ends_with('}') {
                return Err(format!("line {lineno}: unterminated label set"));
            }
            let body = &series[open + 1..series.len() - 1];
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or(format!("line {lineno}: label without '='"))?;
                    if !valid_name(k) {
                        return Err(format!("line {lineno}: bad label name {k:?}"));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {lineno}: unquoted label value {v:?}"));
                    }
                }
            }
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: value {value:?} is not a number"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = Registry::new();
        reg.counter_with("grants_total", "bus grants", &[("master", "m0")])
            .add(12);
        reg.gauge("fill", "fifo fill").set(0.25);
        reg.histogram_with("xact_cycles", "debug xact cost", &[], &[10, 100])
            .observe(42);
        reg.snapshot()
    }

    #[test]
    fn prometheus_renders_all_kinds_and_validates() {
        let prom = to_prometheus(&sample_snapshot());
        assert!(prom.contains("# TYPE grants_total counter"));
        assert!(prom.contains("grants_total{master=\"m0\"} 12"));
        assert!(prom.contains("fill 0.25"));
        assert!(prom.contains("xact_cycles_bucket{le=\"100\"} 1"));
        assert!(prom.contains("xact_cycles_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("xact_cycles_sum 42"));
        assert!(prom.contains("xact_cycles_count 1"));
        let n = validate_prometheus(&prom).expect("valid exposition");
        // 2 plain samples + 3 buckets + sum + count.
        assert_eq!(n, 7);
    }

    #[test]
    fn validator_rejects_untyped_and_garbage() {
        assert!(validate_prometheus("orphan_total 3").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx notanumber").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx{bad} 1").is_err());
        assert!(validate_prometheus("# TYPE x wat\nx 1").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx 1\n# TYPE x counter\nx 2").is_err());
    }

    #[test]
    fn interleaved_registration_exports_each_family_once() {
        let tel = crate::Telemetry::new();
        tel.span(crate::Subsystem::FifoDrain, 0, 4, 10);
        tel.span(crate::Subsystem::TraceDecode, 0, 8, 20);
        let reg = tel.registry();
        reg.counter_with("m_total", "m", &[("k", "a")]).add(1);
        reg.counter("other_total", "other").add(2);
        reg.counter_with("m_total", "m", &[("k", "b")]).add(3);
        let prom = tel.to_prometheus();
        for family in [
            "telemetry_spans_total",
            "telemetry_span_sim_cycles_total",
            "telemetry_span_wall_ns_total",
            "m_total",
            "other_total",
        ] {
            let preamble = format!("# TYPE {family} counter");
            assert_eq!(prom.matches(&preamble).count(), 1, "{family}:\n{prom}");
        }
        // Each family's series sit together, families in first-registration order.
        let lines: Vec<&str> = prom.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            lines[..4],
            [
                "telemetry_spans_total{subsystem=\"fifo_drain\"} 1",
                "telemetry_spans_total{subsystem=\"trace_decode\"} 1",
                "telemetry_span_sim_cycles_total{subsystem=\"fifo_drain\"} 4",
                "telemetry_span_sim_cycles_total{subsystem=\"trace_decode\"} 8",
            ]
        );
        assert_eq!(
            lines[6..],
            ["m_total{k=\"a\"} 1", "m_total{k=\"b\"} 3", "other_total 2"]
        );
        assert_eq!(validate_prometheus(&prom), Ok(9));
    }

    #[test]
    fn json_roundtrip_preserves_snapshot() {
        let snap = sample_snapshot();
        let back: TelemetrySnapshot = serde_json::from_str(&to_json(&snap)).expect("parses back");
        assert_eq!(back, snap);
    }
}
