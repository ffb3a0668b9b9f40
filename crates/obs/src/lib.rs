//! Deterministic observability for the energy-modulated stack.
//!
//! The paper's thesis is that energy flow is a first-class, *measurable*
//! driver of computation — so the simulator, verifier, campaign engine
//! and device models need a measurement layer whose output is as
//! reproducible as the experiments themselves. This crate provides that
//! layer, with one hard guarantee shared by every part:
//!
//! > Telemetry is a pure function of the workload and its seed. No
//! > wall-clock, no thread ids, no allocation addresses — the exported
//! > bytes are identical at any worker-thread count.
//!
//! Four pieces:
//!
//! * [`Metrics`] — a registry of counters, gauges and fixed-bucket
//!   histograms with stable string IDs (`sim.events_fired`,
//!   `verify.frontier_depth`, …). Registration returns a dense integer
//!   handle so the hot-path record is an array add.
//! * [`SpanLog`] — completed spans keyed on **simulation time**, not
//!   wall-clock: `[t0, t1]` in simulated seconds, with a small integer
//!   `track` for lane grouping (domain, run index, …).
//! * [`EnergyLedger`] — joules attributed to accounts
//!   (`domain/vdd`, `group/cnt`, `op/read`) by [`EnergyKind`]
//!   (dissipated, leaked, harvested, stored).
//! * [`export`] — [`Telemetry`] bundles rendered as JSONL, Chrome
//!   trace-event JSON, or Prometheus text exposition, built on the
//!   workspace's one JSON string/number writer ([`json_string`],
//!   [`json_number`]).
//!
//! Alongside them, [`digest`] holds the 64-bit FNV-1a fold every pinned
//! digest in the workspace is built from.
//!
//! Instrumented components own an `Option<Telemetry>`-shaped handle and
//! check it once per event (a single predictable branch when disabled —
//! the near-zero-overhead contract the tier-1 perf gate pins).
//! Campaigns merge per-run bundles **in submission-index order** via
//! [`Telemetry::merge_from`], which is what makes the aggregate
//! thread-count-invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod energy;
pub mod export;
pub mod metrics;
pub mod span;

pub use energy::{EnergyKind, EnergyLedger};
pub use export::{json_number, json_string, to_chrome_trace, to_jsonl, to_prometheus};
pub use metrics::{CounterId, GaugeId, HistogramId, Metrics};
pub use span::{Span, SpanLog};

/// One component's (or one run's) full telemetry: metrics, spans and
/// the energy ledger, merged and exported together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Counters, gauges and histograms.
    pub metrics: Metrics,
    /// Completed sim-time spans.
    pub spans: SpanLog,
    /// Energy accounts.
    pub energy: EnergyLedger,
}

impl Telemetry {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self`: counters and histograms add, gauges
    /// take `other`'s value when it has one, spans append, ledger
    /// accounts add. Call in a fixed order (submission index) and the
    /// result is independent of which thread produced which bundle.
    pub fn merge_from(&mut self, other: &Telemetry) {
        self.metrics.merge_from(&other.metrics);
        self.spans.merge_from(&other.spans);
        self.energy.merge_from(&other.energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_order_deterministic() {
        let mut a = Telemetry::new();
        let c = a.metrics.counter("x.count");
        a.metrics.inc(c, 3);
        a.energy.add("domain/vdd", EnergyKind::Dissipated, 1e-12);
        a.spans.record("run", "campaign", 0, 0.0, 1e-9);

        let mut b = Telemetry::new();
        let c2 = b.metrics.counter("x.count");
        b.metrics.inc(c2, 4);
        b.energy.add("domain/vdd", EnergyKind::Leaked, 2e-12);

        let mut merged1 = Telemetry::new();
        merged1.merge_from(&a);
        merged1.merge_from(&b);
        let mut merged2 = Telemetry::new();
        merged2.merge_from(&a);
        merged2.merge_from(&b);
        assert_eq!(merged1, merged2);
        assert_eq!(merged1.metrics.counter_value("x.count"), Some(7));
        assert_eq!(merged1.spans.len(), 1);
    }
}
