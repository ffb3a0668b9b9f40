//! The run context every workload writes into: output checks, run
//! facts, per-layer metrics and the span recorder, plus the JSON the
//! benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::Tracer;

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("oracle_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by a traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.build_s", "s"),
    ("netlist.freeze_s", "s"),
    ("netlist.partition_s", "s"),
    ("netlist.gates", "count"),
    ("netlist.crossing_nets", "count"),
    ("netlist.rss_mb", "MB"),
    ("sim.new_s", "s"),
    ("sim.advance_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.trace_digest_s", "s"),
    ("sim.hazards", "count"),
    ("sim.windows_progressed", "count"),
    ("sim.stale_events_dropped", "count"),
    ("sim.queue.high_water", "count"),
    ("pdes.new_s", "s"),
    ("pdes.advance_s", "s"),
    ("pdes.sync_rounds", "count"),
    ("pdes.crossing_events", "count"),
    ("pdes.stalled_epochs", "count"),
    ("pdes.trace_merge_s", "s"),
    ("pdes.events_per_round", "ratio"),
    ("pdes.stall_ratio", "ratio"),
    ("pdes.cpu_per_wall", "ratio"),
    ("pdes.speedup", "ratio"),
    ("driver.s", "s"),
    ("driver.share", "ratio"),
    ("gen.build_s", "s"),
    ("verify.full.states", "count"),
    ("verify.full.states_per_s", "1/s"),
    ("verify.full.transitions", "count"),
    ("verify.reduced.states", "count"),
    ("verify.reduced.states_per_s", "1/s"),
    ("verify.reduced.transitions", "count"),
    ("verify.reduce.skipped_transitions", "count"),
    ("verify.reduce.proviso_expansions", "count"),
    ("verify.reduce.state_ratio", "ratio"),
    ("verify.reduce.cost_ratio", "ratio"),
    ("verify.frontier.high_water", "count"),
    ("verify.arena.states", "count"),
    ("verify.builtin.full_s", "s"),
    ("verify.builtin.reduced_s", "s"),
    ("verify.array2x3.full_s", "s"),
    ("verify.array2x3.reduced_s", "s"),
    ("verify.array1x7.full_s", "s"),
    ("verify.array1x7.reduced_s", "s"),
    ("fleet.calibrate_s", "s"),
    ("fleet.topology_s", "s"),
    ("fleet.wakes", "count"),
    ("fleet.deliveries", "count"),
    ("fleet.inflight", "count"),
    ("fleet.tasks.completed", "count"),
    ("fleet.tasks.refused", "count"),
    ("fleet.refusal_ratio", "ratio"),
    ("fleet.msgs.sent", "count"),
    ("fleet.msgs.dropped", "count"),
    ("fleet.node_epochs_per_s", "1/s"),
    ("fleet.speedup", "ratio"),
    ("fleet.cpu_per_wall", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One timed pass of a workload.
#[derive(Debug)]
pub struct Times {
    /// Every set-up measured in this pass (cheap set-ups repeat).
    pub setup: Vec<f64>,
    pub oracle: f64,
    pub fast: f64,
}

/// Shared state of one benchmark process.
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    /// Worker threads of every fast path.
    pub threads: usize,
    pub tracer: Tracer,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    facts: BTreeMap<String, String>,
    layers: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(seed: u64, smoke: bool, threads: usize) -> Self {
        Self {
            seed,
            smoke,
            threads,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            facts: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Counts one output check; a failed one is recorded, not fatal.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what.to_string());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Records a numeric run fact (work counter, size). A fact that
    /// differs between passes of one process is a failed check: the
    /// program must do the same work every time.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.put_fact(key, value.to_string());
    }

    /// Records a string run fact (digest, name, profile).
    pub fn fact_str(&mut self, key: &str, value: &str) {
        self.put_fact(key, format!("\"{value}\""));
    }

    fn put_fact(&mut self, key: &str, json: String) {
        if let Some(prev) = self.facts.get(key) {
            let same = *prev == json;
            self.check(&format!("fact {key} repeats across passes"), same);
        }
        self.facts.insert(key.to_string(), json);
    }

    /// Sets a per-layer metric (the last pass wins — in a traced run
    /// that is the traced pass).
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a programming
    /// error, caught by the unit tests.
    pub fn layer(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.layers.insert(key, value);
    }

    /// Sets a per-layer metric unless an earlier pass already did.
    pub fn layer_first(&mut self, name: &str, value: f64) {
        if !self.layers.contains_key(name) {
            self.layer(name, value);
        }
    }

    /// The facts line: every recorded fact as one flat JSON object.
    pub fn facts_json(&self) -> String {
        let mut s = String::from("{\"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        s.push_str("}}");
        s
    }

    /// Per-layer metrics as `(name, value, unit)`, 0 where unset.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(ctx: &Ctx, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ctx.failed() == 0 && ctx.attempted() > 0,
        ctx.attempted().max(1),
        ctx.failed(),
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value),
        );
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with all its digits (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn a_changed_fact_is_a_failed_check() {
        let mut c = Ctx::new(1, true, 2);
        c.fact("events", 10);
        c.fact("events", 10);
        assert_eq!((c.attempted(), c.failed()), (1, 0));
        c.fact("events", 11);
        assert_eq!((c.attempted(), c.failed()), (2, 1));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut c = Ctx::new(1, true, 2);
        c.check("ok", true);
        let line = result_json(&c, &[("run_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
