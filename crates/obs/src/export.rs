//! Exporters: JSONL, Chrome trace-event JSON, Prometheus text.
//!
//! All three render a [`Telemetry`] bundle deterministically: the
//! output is a pure function of the bundle's contents and order, with
//! no timestamps, hostnames or process ids. Numbers use the shortest
//! round-trip `f64` formatting (same convention as emc-bench figures),
//! so equal values always print as equal bytes.

use crate::energy::LedgerEntry;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::Span;
use crate::Telemetry;
use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, including the quotes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-trip JSON number; integral values keep a `.0` so the
/// value parses back as a float, non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

fn jsonl_counter(out: &mut String, c: &Counter) {
    let _ = writeln!(
        out,
        "{{\"type\":\"counter\",\"id\":{},\"value\":{}}}",
        json_string(&c.id),
        c.value
    );
}

fn jsonl_gauge(out: &mut String, g: &Gauge) {
    if let Some(v) = g.value {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"id\":{},\"value\":{}}}",
            json_string(&g.id),
            json_number(v)
        );
    }
}

fn jsonl_histogram(out: &mut String, h: &Histogram) {
    let bounds: Vec<String> = h.bounds.iter().map(|b| json_number(*b)).collect();
    let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
    let _ = writeln!(
        out,
        "{{\"type\":\"histogram\",\"id\":{},\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{}}}",
        json_string(&h.id),
        bounds.join(","),
        buckets.join(","),
        h.count,
        json_number(h.sum)
    );
}

fn jsonl_ledger(out: &mut String, e: &LedgerEntry) {
    let _ = writeln!(
        out,
        "{{\"type\":\"energy\",\"account\":{},\"kind\":{},\"joules\":{}}}",
        json_string(&e.account),
        json_string(e.kind.label()),
        json_number(e.joules)
    );
}

fn jsonl_span(out: &mut String, s: &Span) {
    let _ = writeln!(
        out,
        "{{\"type\":\"span\",\"name\":{},\"cat\":{},\"track\":{},\"start_s\":{},\"end_s\":{}}}",
        json_string(&s.name),
        json_string(&s.cat),
        s.track,
        json_number(s.start),
        json_number(s.end)
    );
}

/// Renders the bundle as JSON Lines: one object per counter, set
/// gauge, histogram, ledger entry and span, in registration/record
/// order. Unset gauges are omitted.
pub fn to_jsonl(t: &Telemetry) -> String {
    let mut out = String::new();
    for c in t.metrics.counters() {
        jsonl_counter(&mut out, c);
    }
    for g in t.metrics.gauges() {
        jsonl_gauge(&mut out, g);
    }
    for h in t.metrics.histograms() {
        jsonl_histogram(&mut out, h);
    }
    for e in t.energy.entries() {
        jsonl_ledger(&mut out, e);
    }
    for s in t.spans.spans() {
        jsonl_span(&mut out, s);
    }
    out
}

/// Renders the span log as Chrome trace-event JSON (`chrome://tracing`
/// / Perfetto "complete" events). Sim-time seconds map to trace
/// microseconds; `track` becomes the `tid`, and ledger totals ride
/// along as process metadata counters.
pub fn to_chrome_trace(t: &Telemetry) -> String {
    let mut events = Vec::new();
    for s in t.spans.spans() {
        events.push(format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
            json_string(&s.name),
            json_string(&s.cat),
            json_number(s.start * 1e6),
            json_number((s.end - s.start) * 1e6),
            s.track
        ));
    }
    for e in t.energy.entries() {
        events.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":0.0,\"pid\":0,\"args\":{{{}:{}}}}}",
            json_string(&format!("{} [{}]", e.account, e.kind.label())),
            json_string("joules"),
            json_number(e.joules)
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",")
    )
}

/// Sanitises a metric id into a Prometheus metric name: the portion
/// before any `{` has `.`, `/` and other non-alphanumerics mapped to
/// `_`, and the whole name gains an `emc_` prefix. A `{label="v"}`
/// suffix is preserved verbatim.
fn prom_name(id: &str) -> String {
    let (base, labels) = match id.find('{') {
        Some(i) => (&id[..i], &id[i..]),
        None => (id, ""),
    };
    let mut name = String::with_capacity(base.len() + 4);
    name.push_str("emc_");
    for ch in base.chars() {
        if ch.is_ascii_alphanumeric() {
            name.push(ch);
        } else {
            name.push('_');
        }
    }
    name.push_str(labels);
    name
}

/// Merges extra labels into a Prometheus name that may already carry a
/// `{...}` suffix.
fn prom_with_labels(name: &str, extra: &str) -> String {
    if extra.is_empty() {
        return name.to_string();
    }
    match name.find('{') {
        Some(i) => format!("{}{{{},{}", &name[..i], extra, &name[i + 1..]),
        None => format!("{name}{{{extra}}}"),
    }
}

/// Renders the bundle in Prometheus text exposition format. Histograms
/// expose cumulative `_bucket` series with `le` labels plus `_sum` and
/// `_count`; ledger entries become an `emc_energy_joules` family with
/// `account` and `kind` labels. Spans are not exported here (Prometheus
/// has no span type) — use [`to_chrome_trace`] or [`to_jsonl`].
pub fn to_prometheus(t: &Telemetry) -> String {
    let mut out = String::new();
    for c in t.metrics.counters() {
        let name = prom_name(&c.id);
        let _ = writeln!(out, "# TYPE {} counter", strip_labels(&name));
        let _ = writeln!(out, "{} {}", name, c.value);
    }
    for g in t.metrics.gauges() {
        if let Some(v) = g.value {
            let name = prom_name(&g.id);
            let _ = writeln!(out, "# TYPE {} gauge", strip_labels(&name));
            let _ = writeln!(out, "{} {}", name, json_number(v));
        }
    }
    for h in t.metrics.histograms() {
        let name = prom_name(&h.id);
        let base = strip_labels(&name);
        let _ = writeln!(out, "# TYPE {base} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.buckets) {
            cumulative += count;
            let series = prom_with_labels(
                &format!("{base}_bucket"),
                &format!("le=\"{}\"", json_number(*bound)),
            );
            let _ = writeln!(out, "{series} {cumulative}");
        }
        let series = prom_with_labels(&format!("{base}_bucket"), "le=\"+Inf\"");
        let _ = writeln!(out, "{series} {}", h.count);
        let _ = writeln!(out, "{base}_sum {}", json_number(h.sum));
        let _ = writeln!(out, "{base}_count {}", h.count);
    }
    if !t.energy.is_empty() {
        let _ = writeln!(out, "# TYPE emc_energy_joules gauge");
        for e in t.energy.entries() {
            let _ = writeln!(
                out,
                "emc_energy_joules{{account=\"{}\",kind=\"{}\"}} {}",
                e.account,
                e.kind.label(),
                json_number(e.joules)
            );
        }
    }
    out
}

fn strip_labels(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyKind;

    fn sample() -> Telemetry {
        let mut t = Telemetry::new();
        let c = t.metrics.counter("sim.events_fired");
        t.metrics.inc(c, 42);
        let g = t.metrics.gauge("sim.queue.high_water");
        t.metrics.set_gauge(g, 8.0);
        let h = t.metrics.histogram("sim.queue.depth", &[1.0, 2.0, 4.0]);
        t.metrics.observe(h, 1.0);
        t.metrics.observe(h, 3.0);
        t.metrics.observe(h, 100.0);
        t.energy.add("domain/vdd", EnergyKind::Dissipated, 1.25e-12);
        t.spans.record("read@0", "sram", 0, 1e-9, 3e-9);
        t
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = to_jsonl(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"sim.events_fired\""));
        assert!(lines[0].contains("\"value\":42"));
        assert!(lines[2].contains("\"buckets\":[1,0,1]"));
        assert!(lines[3].contains("\"kind\":\"dissipated\""));
        assert!(lines[4].contains("\"start_s\":"));
        // Every line parses as a standalone JSON object shape.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(to_jsonl(&sample()), to_jsonl(&sample()));
    }

    #[test]
    fn chrome_trace_shape() {
        let out = to_chrome_trace(&sample());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ts\":0.001")); // 1 ns -> 0.001 µs
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.ends_with("\"displayTimeUnit\":\"ns\"}\n"));
    }

    #[test]
    fn prometheus_names_and_buckets() {
        let out = to_prometheus(&sample());
        assert!(out.contains("emc_sim_events_fired 42"));
        assert!(out.contains("# TYPE emc_sim_queue_depth histogram"));
        assert!(out.contains("emc_sim_queue_depth_bucket{le=\"2.0\"} 1"));
        assert!(out.contains("emc_sim_queue_depth_bucket{le=\"4.0\"} 2"));
        assert!(out.contains("emc_sim_queue_depth_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("emc_sim_queue_depth_count 3"));
        assert!(out.contains("emc_energy_joules{account=\"domain/vdd\",kind=\"dissipated\"}"));
    }

    #[test]
    fn prometheus_preserves_label_suffix() {
        let mut t = Telemetry::new();
        let c = t.metrics.counter("sim.energy.switching_j{domain=\"vdd\"}");
        t.metrics.inc(c, 1);
        let out = to_prometheus(&t);
        assert!(out.contains("emc_sim_energy_switching_j{domain=\"vdd\"} 1"));
        assert!(out.contains("# TYPE emc_sim_energy_switching_j counter"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn json_number_forms() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        // Rust's `{}` float formatting never uses scientific notation.
        assert_eq!(json_number(1e-12), "0.000000000001");
    }
}
