//! The event-driven simulation engine.

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use emc_device::DeviceModel;
use emc_netlist::{GateId, GateKind, NetId, Netlist};
use emc_obs::{EnergyKind, Telemetry};
use emc_units::{Farads, Joules, Seconds, Volts, Watts};

use crate::delay::{completion_time, Completion};
use crate::domain::{DomainId, PowerDomain, SupplyKind};
use crate::obs::SimObs;
use crate::trace::Trace;

/// A transition the simulator has committed to the circuit state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredEvent {
    /// Absolute time of the transition.
    pub time: Seconds,
    /// The gate whose output switched.
    pub gate: GateId,
    /// The gate's output net.
    pub net: NetId,
    /// The new output value.
    pub value: bool,
}

/// A speed-independence (persistence) violation: a gate's pending output
/// transition was disabled by a later input change.
///
/// A correctly designed speed-independent circuit never produces these,
/// at any combination of gate delays; a bundled-data circuit driven
/// outside its timing assumptions does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hazard {
    /// The gate whose pending transition was disabled.
    pub gate: GateId,
    /// When the disabling input change happened.
    pub time: Seconds,
    /// The output value the cancelled transition would have produced.
    pub cancelled_value: bool,
}

/// One row of [`Simulator::activity_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityRecord {
    /// The gate.
    pub gate: GateId,
    /// Output transitions fired.
    pub transitions: u64,
    /// Switching energy drawn by this gate's rising output edges.
    pub energy: Joules,
}

/// Summary of a [`Simulator::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of transitions fired during the run.
    pub fired: u64,
    /// Number of hazards recorded during the run.
    pub hazards: u64,
}

#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    gate: usize,
    value: bool,
    epoch: u64,
    /// Work already accumulated when this (continuation) entry was queued;
    /// 0 for freshly scheduled transitions, in `(0, 1)` for transitions
    /// that hit the integration window while stalled.
    progress: f64,
    /// `false` if this entry only marks an integration-window boundary and
    /// the transition must be re-integrated from `time`.
    complete: bool,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Natural ascending (time, seq) order; the queue wraps entries
        // in `Reverse` so the max-heap pops the minimum first.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
enum StepOutcome {
    /// A transition was committed.
    Fired(FiredEvent),
    /// Internal progress only (an integration window was crossed).
    Progressed,
    /// Nothing left at or before the bound.
    Exhausted,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    value: bool,
    /// `true` if the transition sits in a capacitor-backed domain whose
    /// rail is below the operating floor: no queue entry exists and the
    /// transition waits for [`Simulator::recharge_domain`].
    stalled: bool,
}

/// A committed transition on an exported (partition-crossing) gate,
/// queued for delivery to the consuming partitions by the PDES driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdesEmission {
    /// Index into the export table registered with
    /// [`Simulator::pdes_set_exports`].
    pub export: u32,
    /// Absolute time of the transition.
    pub time: Seconds,
    /// The new output value.
    pub value: bool,
}

/// Conservative-PDES support state, present only when this simulator is
/// one partition of a [`crate::pdes::PdesSimulator`]. The sequential
/// event loop pays one `Option` check per event when this is `None`.
#[derive(Debug, Clone)]
struct PdesHooks {
    /// Per-gate export-table index; `u32::MAX` for non-exported gates.
    export_of: Vec<u32>,
    /// Dense list of exporting gate indices (for the lookahead scan).
    export_gates: Vec<usize>,
    /// Min-heap of `(time bits, gate, seq)` for queued events on
    /// exporting gates. Entries are invalidated lazily: one is live iff
    /// `pending_seq[gate]` still equals its seq.
    export_heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Seq of each gate's live queue entry (0 = none). Only consulted
    /// for exporting gates, but maintained for all so the pop path
    /// stays branch-cheap.
    pending_seq: Vec<u64>,
    /// Exported transitions committed since the last
    /// [`Simulator::pdes_take_outbox`], in commit order.
    outbox: Vec<PdesEmission>,
}

/// The discrete-event simulator. See the [crate documentation](crate) for
/// the modelling rules.
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    device: DeviceModel,
    domains: Vec<PowerDomain>,
    gate_domain: Vec<Option<DomainId>>,
    values: Vec<bool>,
    pending: Vec<Option<Pending>>,
    epochs: Vec<u64>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    now: Seconds,
    started: bool,
    hazards: Vec<Hazard>,
    extra_load: Vec<Farads>,
    delay_scale: Vec<f64>,
    watched: Vec<bool>,
    trace: Trace,
    transitions: Vec<u64>,
    gate_energy: Vec<Joules>,
    stuck: Vec<Option<bool>>,
    /// Number of integration-resolution steps per stall-continuation
    /// window.
    window_steps: f64,
    /// Per-gate `(voltage bits, delay seconds)` memo for
    /// [`Simulator::delay_at_voltage`]: the device delay law runs `exp`
    /// per evaluation, and on a constant rail every event re-asks the
    /// same question. Keyed on exact `f64` bits so the memo can never
    /// change a result; invalidated by the per-gate knobs
    /// ([`Simulator::set_extra_load`] / [`Simulator::set_delay_scale`]).
    delay_memo: Vec<Cell<(u64, f64)>>,
    /// `(voltage bits, watts)` memo for the device leakage law (also an
    /// `exp`), shared by all domains — the key is the voltage alone.
    leak_memo: Cell<(u64, f64)>,
    /// Per-gate fanout-load override in [`GateKind::input_load_factor`]
    /// units; NaN = use the frozen CSR value. Set by the PDES driver on
    /// exporting gates so a partition slice computes bit-identical
    /// delays and switching energy to the whole-netlist simulation even
    /// though foreign consumers are absent from the slice.
    fanout_units_override: Vec<f64>,
    /// Live observability state; `None` (the default) keeps the event
    /// loop's only obs cost at one pointer-is-null branch per event.
    obs: Option<Box<SimObs>>,
    /// Conservative-PDES partition hooks; `None` outside PDES runs.
    pdes: Option<Box<PdesHooks>>,
}

/// Memo key that no rail voltage produces: a quiet-NaN bit pattern. A
/// NaN voltage would already have poisoned the simulation arithmetic, so
/// colliding with it cannot change an outcome that mattered.
const MEMO_INVALID: u64 = f64::NAN.to_bits();

impl Simulator {
    /// Creates a simulator over `netlist` with the given device model.
    ///
    /// All nets start at logic 0 except constant-1 sources. Assign every
    /// gate to a power domain ([`Simulator::add_domain`] /
    /// [`Simulator::assign_all`]) before calling [`Simulator::start`].
    pub fn new(mut netlist: Netlist, device: DeviceModel) -> Self {
        // The simulator owns the netlist and never mutates it: freeze the
        // CSR fanout + load cache once, up front, for the event loop.
        netlist.freeze();
        let gates = netlist.gate_count();
        let nets = netlist.net_count();
        let mut values = vec![false; nets];
        for (_, g) in netlist.iter_gates() {
            if g.kind() == GateKind::Const1 {
                values[g.output().index()] = true;
            }
        }
        Self {
            netlist,
            device,
            domains: Vec::new(),
            gate_domain: vec![None; gates],
            values,
            pending: vec![None; gates],
            epochs: vec![0; gates],
            queue: BinaryHeap::new(),
            seq: 0,
            now: Seconds(0.0),
            started: false,
            hazards: Vec::new(),
            extra_load: vec![Farads(0.0); gates],
            delay_scale: vec![1.0; gates],
            watched: vec![false; nets],
            trace: Trace::new(),
            transitions: vec![0; gates],
            gate_energy: vec![Joules(0.0); gates],
            stuck: vec![None; gates],
            window_steps: 4096.0,
            delay_memo: vec![Cell::new((MEMO_INVALID, 0.0)); gates],
            leak_memo: Cell::new((MEMO_INVALID, 0.0)),
            fanout_units_override: vec![f64::NAN; gates],
            obs: None,
            pdes: None,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Registers a power domain and returns its id.
    pub fn add_domain(&mut self, name: &str, kind: SupplyKind) -> DomainId {
        let id = DomainId(self.domains.len());
        self.domains.push(PowerDomain::new(name, kind));
        id
    }

    /// Assigns one gate to a domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain id is foreign or the simulation has started.
    pub fn assign_domain(&mut self, gate: GateId, domain: DomainId) {
        assert!(!self.started, "cannot reassign domains after start");
        assert!(domain.0 < self.domains.len(), "unknown domain");
        if let Some(old) = self.gate_domain[gate.index()] {
            let units = self.netlist.gate_ref(gate).kind().input_load_factor();
            self.domains[old.0].add_leak_units(-units);
        }
        self.gate_domain[gate.index()] = Some(domain);
        let units = self.netlist.gate_ref(gate).kind().input_load_factor();
        self.domains[domain.0].add_leak_units(units);
    }

    /// Assigns every gate to `domain`.
    pub fn assign_all(&mut self, domain: DomainId) {
        for i in 0..self.netlist.gate_count() {
            self.assign_domain(self.netlist.gate_id(i), domain);
        }
    }

    /// Extra capacitive load on a gate's output net (wire, bit line, pad).
    ///
    /// # Panics
    ///
    /// Panics if the load is negative.
    pub fn set_extra_load(&mut self, gate: GateId, load: Farads) {
        assert!(load.0 >= 0.0, "negative extra load");
        self.extra_load[gate.index()] = load;
        self.delay_memo[gate.index()].set((MEMO_INVALID, 0.0));
    }

    /// Multiplies one gate's delay by `scale` — the hook used for process
    /// variation and for adversarial delay scaling in speed-independence
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn set_delay_scale(&mut self, gate: GateId, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "delay scale must be positive"
        );
        self.delay_scale[gate.index()] = scale;
        self.delay_memo[gate.index()].set((MEMO_INVALID, 0.0));
    }

    /// The current delay scale of a gate (1.0 unless overridden) — lets
    /// callers stack a temporary slowdown on top of injected variation
    /// and restore it afterwards.
    pub fn delay_scale(&self, gate: GateId) -> f64 {
        self.delay_scale[gate.index()]
    }

    /// Sets a net's value before the simulation starts (initialising
    /// C-element state, pre-charged lines, …).
    ///
    /// # Panics
    ///
    /// Panics after [`Simulator::start`].
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        assert!(!self.started, "cannot set initial values after start");
        self.values[net.index()] = value;
    }

    /// Schedules an external input transition.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not driven by an [`GateKind::Input`] gate or
    /// `time` is in the simulated past.
    pub fn schedule_input(&mut self, net: NetId, time: Seconds, value: bool) {
        let gate = self.netlist.driver_of(net).expect("net has no driver");
        assert_eq!(
            self.netlist.gate_ref(gate).kind(),
            GateKind::Input,
            "schedule_input on a non-input net"
        );
        assert!(time >= self.now, "input scheduled in the past");
        let seq = self.next_seq();
        self.push_event(QueuedEvent {
            time: time.0,
            seq,
            gate: gate.index(),
            value,
            epoch: self.epochs[gate.index()],
            progress: 0.0,
            complete: true,
        });
    }

    /// Begins the simulation: every gate whose inputs already contradict
    /// its output gets an initial transition scheduled.
    ///
    /// # Panics
    ///
    /// Panics if any gate lacks a power domain, or on a second call.
    pub fn start(&mut self) {
        assert!(!self.started, "start called twice");
        for (i, d) in self.gate_domain.iter().enumerate() {
            assert!(
                d.is_some()
                    || self.netlist.gate_ref(self.netlist.gate_id(i)).kind() == GateKind::Input,
                "gate {} has no power domain",
                self.netlist.gate_id(i)
            );
        }
        self.started = true;
        for idx in 0..self.netlist.gate_count() {
            let gate = self.netlist.gate_id(idx);
            let kind = self.netlist.gate_ref(gate).kind();
            if kind.is_source() {
                continue;
            }
            let target = self.eval_gate(gate);
            if target != self.values[self.netlist.gate_ref(gate).output().index()] {
                self.schedule_transition(gate, target, self.now);
            }
        }
    }

    /// Marks a net for trace recording.
    pub fn watch(&mut self, net: NetId) {
        self.watched[net.index()] = true;
    }

    /// The recorded trace of watched nets.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Current logic value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Rail voltage of a domain at the current simulation time.
    pub fn domain_voltage(&self, domain: DomainId) -> Volts {
        self.domains[domain.0].voltage(self.now)
    }

    /// Read access to a domain's bookkeeping.
    pub fn domain(&self, domain: DomainId) -> &PowerDomain {
        &self.domains[domain.0]
    }

    /// Number of registered power domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Recovers the [`DomainId`] at dense `index` (ids are issued densely
    /// from zero in [`Simulator::add_domain`] order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.domain_count()`.
    pub fn domain_id(&self, index: usize) -> DomainId {
        assert!(index < self.domains.len(), "domain index out of range");
        DomainId(index)
    }

    /// Total energy (switching + leakage) drawn from a domain so far.
    pub fn energy_drawn(&self, domain: DomainId) -> Joules {
        self.domains[domain.0].total_energy()
    }

    /// Transition count of one gate.
    pub fn transition_count(&self, gate: GateId) -> u64 {
        self.transitions[gate.index()]
    }

    /// Total transitions fired so far.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.iter().sum()
    }

    /// Switching energy attributed to one gate's output so far.
    pub fn gate_energy(&self, gate: GateId) -> Joules {
        self.gate_energy[gate.index()]
    }

    /// The switching-activity report: per-gate transition counts and
    /// attributed switching energy, sorted by energy descending — the
    /// "where do my joules go" view a power-conscious designer starts
    /// from.
    pub fn activity_report(&self) -> Vec<ActivityRecord> {
        let mut rows: Vec<ActivityRecord> = (0..self.netlist.gate_count())
            .map(|i| ActivityRecord {
                gate: self.netlist.gate_id(i),
                transitions: self.transitions[i],
                energy: self.gate_energy[i],
            })
            .collect();
        rows.sort_by(|a, b| b.energy.0.total_cmp(&a.energy.0));
        rows
    }

    /// All hazards recorded so far.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Turns on live observability: event counts, queue-depth
    /// distribution, stale-drop counts and recharge energy are recorded
    /// from here on. Idempotent; leaves the event loop untouched when
    /// never called.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(SimObs::new()));
        }
    }

    /// `true` once [`Simulator::enable_obs`] has been called.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Snapshots this simulator's telemetry: the live hot-path metrics
    /// (when enabled) plus everything derivable from the simulator's
    /// own bookkeeping — totals, per-domain energy split and rail
    /// voltages, and switching energy attributed per gate group (the
    /// output-net name up to the first `.`).
    ///
    /// Works with observability disabled too; the live counters are
    /// simply absent then.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = match &self.obs {
            Some(o) => o.telemetry.clone(),
            None => Telemetry::new(),
        };
        let c = t.metrics.counter("sim.transitions_total");
        t.metrics.inc(c, self.total_transitions());
        let c = t.metrics.counter("sim.hazards");
        t.metrics.inc(c, self.hazards.len() as u64);
        for d in &self.domains {
            let g = t
                .metrics
                .gauge(format!("sim.domain.voltage_v{{domain=\"{}\"}}", d.name()));
            t.metrics.set_gauge(g, d.voltage(self.now).0);
            let account = format!("domain/{}", d.name());
            t.energy.add(
                account.clone(),
                EnergyKind::Dissipated,
                d.switching_energy().0,
            );
            t.energy
                .add(account.clone(), EnergyKind::Leaked, d.leakage_energy().0);
            if let SupplyKind::Capacitor { capacitance, .. } = d.kind() {
                let stored = capacitance.stored_energy(d.voltage(self.now));
                t.energy.add(account, EnergyKind::Stored, stored.0);
            }
        }
        for i in 0..self.netlist.gate_count() {
            let e = self.gate_energy[i].0;
            if e <= 0.0 {
                continue;
            }
            let gate = self.netlist.gate_id(i);
            let name = self.netlist.net_name(self.netlist.gate_ref(gate).output());
            let prefix = name.split('.').next().unwrap_or(name);
            t.energy
                .add(format!("group/{prefix}"), EnergyKind::Dissipated, e);
        }
        t
    }

    /// Injects a stuck-at fault: `gate`'s output is forced to `value`
    /// from the current simulation time on and never switches again.
    ///
    /// If the output currently differs, one final (fault-driven)
    /// transition to the forced value is committed immediately, so
    /// downstream logic reacts to the fault; any pending transition is
    /// cancelled. Use this for the dependability experiments: a
    /// speed-independent circuit must **deadlock rather than deliver
    /// wrong data** under a stuck-at, while a bundled design corrupts
    /// silently.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulator::start`] or on a source gate.
    pub fn inject_stuck_at(&mut self, gate: GateId, value: bool) {
        assert!(self.started, "inject after start()");
        let kind = self.netlist.gate_ref(gate).kind();
        assert!(!kind.is_source(), "cannot stick a source gate");
        self.stuck[gate.index()] = Some(value);
        // Cancel anything in flight.
        self.epochs[gate.index()] += 1;
        self.pending[gate.index()] = None;
        let net = self.netlist.gate_ref(gate).output();
        if self.values[net.index()] != value {
            let now = self.now;
            let _ = self.commit(gate, net, value, now);
        }
    }

    /// The stuck-at value injected on `gate`, if any.
    pub fn stuck_at(&self, gate: GateId) -> Option<bool> {
        self.stuck[gate.index()]
    }

    /// Restores a capacitor-backed domain to `v` and releases any gates
    /// whose transitions had stalled on its depleted rail.
    ///
    /// # Panics
    ///
    /// Panics if the domain is ideal.
    pub fn recharge_domain(&mut self, domain: DomainId, v: Volts) {
        if self.obs.is_some() {
            let d = &self.domains[domain.0];
            if let SupplyKind::Capacitor { capacitance, .. } = d.kind() {
                let delta =
                    capacitance.stored_energy(v) - capacitance.stored_energy(d.voltage(self.now));
                let name = d.name().to_owned();
                self.obs
                    .as_deref_mut()
                    .expect("obs just checked")
                    .record_recharge(&name, delta.0);
            }
        }
        self.domains[domain.0].recharge(v);
        for idx in 0..self.netlist.gate_count() {
            if self.gate_domain[idx] != Some(domain) {
                continue;
            }
            if let Some(p) = self.pending[idx] {
                if p.stalled {
                    self.pending[idx] = None;
                    self.schedule_transition(self.netlist.gate_id(idx), p.value, self.now);
                }
            }
        }
    }

    fn step_outcome(&mut self, bound: Option<f64>) -> StepOutcome {
        self.step_outcome_admit(|t| bound.is_none_or(|b| t <= b))
    }

    fn step_outcome_admit(&mut self, admit: impl Fn(f64) -> bool) -> StepOutcome {
        loop {
            let Some(Reverse(head)) = self.queue.peek() else {
                return StepOutcome::Exhausted;
            };
            if !admit(head.time) {
                return StepOutcome::Exhausted;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked entry vanished");
            if let Some(h) = self.pdes.as_deref_mut() {
                // The popped entry is no longer the gate's live event.
                if h.pending_seq[ev.gate] == ev.seq {
                    h.pending_seq[ev.gate] = 0;
                }
            }
            let gate = self.netlist.gate_id(ev.gate);
            let kind = self.netlist.gate_ref(gate).kind();
            // Stale (cancelled or superseded) entries are dropped.
            if kind != GateKind::Input && ev.epoch != self.epochs[ev.gate] {
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.telemetry.metrics.inc(obs.stale_drops, 1);
                }
                continue;
            }
            self.now = Seconds(self.now.0.max(ev.time));
            if !ev.complete {
                // Integration-window boundary: resume the work integral.
                self.pending[ev.gate] = None;
                self.schedule_transition_with_progress(gate, ev.value, self.now, ev.progress);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.telemetry.metrics.inc(obs.windows, 1);
                }
                return StepOutcome::Progressed;
            }
            let out_net = self.netlist.gate_ref(gate).output();
            if kind == GateKind::Input {
                if self.values[out_net.index()] == ev.value {
                    continue; // redundant input level
                }
            } else {
                self.pending[ev.gate] = None;
            }
            if self.obs.is_some() {
                let depth = self.queue.len() as f64;
                let obs = self.obs.as_deref_mut().expect("obs just checked");
                obs.telemetry.metrics.inc(obs.events_fired, 1);
                obs.telemetry.metrics.observe(obs.queue_depth, depth);
                obs.telemetry
                    .metrics
                    .raise_gauge(obs.queue_high_water, depth);
            }
            if let Some(h) = self.pdes.as_deref_mut() {
                let ex = h.export_of[ev.gate];
                if ex != u32::MAX {
                    h.outbox.push(PdesEmission {
                        export: ex,
                        time: Seconds(ev.time),
                        value: ev.value,
                    });
                }
            }
            return StepOutcome::Fired(self.commit(gate, out_net, ev.value, Seconds(ev.time)));
        }
    }

    /// Fires the next event, if any. Returns `None` when the queue is
    /// exhausted (the circuit is quiescent or fully stalled).
    ///
    /// A circuit whose supply never recovers above the operating floor can
    /// make this spin through integration windows without ever firing; use
    /// [`Simulator::run_until`] for a time-bounded run.
    pub fn step(&mut self) -> Option<FiredEvent> {
        loop {
            match self.step_outcome(None) {
                StepOutcome::Fired(e) => return Some(e),
                StepOutcome::Progressed => continue,
                StepOutcome::Exhausted => return None,
            }
        }
    }

    /// Runs until the queue is empty or the next event lies beyond
    /// `t_end`; advances time (and leakage) to `t_end`.
    pub fn run_until(&mut self, t_end: Seconds) -> RunStats {
        let mut stats = RunStats::default();
        let hazards_before = self.hazards.len();
        loop {
            match self.step_outcome(Some(t_end.0)) {
                StepOutcome::Fired(_) => stats.fired += 1,
                StepOutcome::Progressed => {}
                StepOutcome::Exhausted => break,
            }
        }
        self.now = Seconds(self.now.0.max(t_end.0));
        self.advance_domains(self.now);
        stats.hazards = (self.hazards.len() - hazards_before) as u64;
        stats
    }

    /// Runs until quiescence (empty queue) or until `max_events` fired,
    /// whichever comes first. Returns the number of events fired.
    ///
    /// Integration-window progress on stalled supplies is bounded too
    /// (at 1024 windows per allowed event), so this always terminates.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut fired = 0;
        let mut spins = 0u64;
        while fired < max_events && spins < max_events.saturating_mul(1024) {
            match self.step_outcome(None) {
                StepOutcome::Fired(_) => fired += 1,
                StepOutcome::Progressed => spins += 1,
                StepOutcome::Exhausted => break,
            }
        }
        self.advance_domains(self.now);
        fired
    }

    // ----- PDES driver hooks ----------------------------------------
    //
    // These methods exist for `crate::pdes::PdesSimulator`, which runs
    // one `Simulator` per Vdd-domain slice and needs (a) conservative
    // export-time floors for the synchronization protocol and (b) the
    // cross-domain emissions each window produced. They are harmless
    // (and cheap: one `Option` check) when unused.

    /// Overrides the fanout load units used in [`Simulator::output_load`]
    /// for one gate. The PDES driver sets this on domain-crossing
    /// (exporting) gates so a partition slice — whose local CSR is
    /// missing the foreign fanout — computes bit-identical delays and
    /// switching energy to the global netlist.
    ///
    /// # Panics
    ///
    /// Panics unless `units` is finite and non-negative.
    pub fn set_fanout_units_override(&mut self, gate: GateId, units: f64) {
        assert!(
            units.is_finite() && units >= 0.0,
            "fanout override must be finite and non-negative"
        );
        self.fanout_units_override[gate.index()] = units;
        self.delay_memo[gate.index()].set((MEMO_INVALID, 0.0));
    }

    /// Installs the PDES hooks. `export_of[g]` names the export slot a
    /// firing of gate `g` must be reported on (`u32::MAX` = not
    /// exporting). Must be called before [`Simulator::start`] so every
    /// queued event is tracked by the export heap.
    ///
    /// # Panics
    ///
    /// Panics after `start`, or if `export_of` is the wrong length.
    pub fn pdes_set_exports(&mut self, export_of: Vec<u32>) {
        assert!(!self.started, "pdes_set_exports after start");
        assert_eq!(export_of.len(), self.netlist.gate_count());
        let export_gates: Vec<usize> = export_of
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e != u32::MAX)
            .map(|(i, _)| i)
            .collect();
        self.pdes = Some(Box::new(PdesHooks {
            export_of,
            export_gates,
            export_heap: BinaryHeap::new(),
            pending_seq: vec![0; self.netlist.gate_count()],
            outbox: Vec::new(),
        }));
    }

    /// Time of the earliest queued event, if any.
    pub fn pdes_head_time(&self) -> Option<f64> {
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Conservative lower bound on the time of this partition's next
    /// *export* (domain-crossing) firing, given the global minimum head
    /// time `m`: `min(export_head, m + dmin)` where `dmin` is the
    /// smallest delay any exporting gate can exhibit at the highest rail
    /// voltage it may still see (ideal-constant rails are exact;
    /// capacitor rails only sag within a run, so "now" is the maximum).
    /// A non-constant ideal waveform defeats lookahead, and the floor
    /// degrades to `m` (lockstep — correct, just slow).
    ///
    /// # Panics
    ///
    /// Panics if [`Simulator::pdes_set_exports`] was never called.
    pub fn pdes_export_floor(&mut self, m: f64) -> f64 {
        let mut hooks = self.pdes.take().expect("pdes hooks not installed");
        // Drop export-heap entries superseded by a reschedule or already
        // popped (lazy deletion keyed on the live queue seq).
        while let Some(&Reverse((_, g, s))) = hooks.export_heap.peek() {
            if hooks.pending_seq[g] == s {
                break;
            }
            hooks.export_heap.pop();
        }
        let export_head = hooks
            .export_heap
            .peek()
            .map_or(f64::INFINITY, |&Reverse((t, _, _))| f64::from_bits(t));
        let mut dmin = f64::INFINITY;
        let mut zero_lookahead = false;
        for &g in &hooks.export_gates {
            let gate = self.netlist.gate_id(g);
            let domain_id = self.gate_domain[g].expect("export gate without domain");
            let domain = &self.domains[domain_id.0];
            let v = match domain.kind() {
                SupplyKind::Capacitor { .. } => domain.voltage(self.now),
                SupplyKind::Ideal { waveform, .. } => match waveform.as_constant() {
                    Some(v) => Volts(v),
                    None => {
                        zero_lookahead = true;
                        break;
                    }
                },
            };
            let td = self.delay_at_voltage(gate, v);
            if td.0.is_finite() {
                dmin = dmin.min(td.0);
            }
        }
        self.pdes = Some(hooks);
        if zero_lookahead {
            return export_head.min(m);
        }
        export_head.min(m + dmin)
    }

    /// Takes the cross-domain emissions accumulated since the last call,
    /// in firing order. Empty (not a panic) when hooks are not installed.
    pub fn pdes_take_outbox(&mut self) -> Vec<PdesEmission> {
        match self.pdes.as_deref_mut() {
            Some(h) => std::mem::take(&mut h.outbox),
            None => Vec::new(),
        }
    }

    /// Runs one conservative PDES window: pops events while their time
    /// is strictly below `bound` (and within `t_end`), or exactly equal
    /// to the global minimum head `m` (the m-rule that guarantees
    /// progress when every floor collapses onto the minimum). Returns
    /// `(fired, spins)` where spins counts integration-window
    /// progressions, so the driver can bound stalled supplies.
    pub fn pdes_step_window(&mut self, bound: f64, m: f64, t_end: f64) -> (u64, u64) {
        let mut fired = 0u64;
        let mut spins = 0u64;
        loop {
            match self.step_outcome_admit(|t| (t < bound && t <= t_end) || t == m) {
                StepOutcome::Fired(_) => fired += 1,
                StepOutcome::Progressed => spins += 1,
                StepOutcome::Exhausted => break,
            }
        }
        (fired, spins)
    }

    // ----- internals ------------------------------------------------

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_event(&mut self, ev: QueuedEvent) {
        self.queue.push(Reverse(ev));
    }

    fn eval_gate(&self, gate: GateId) -> bool {
        let g = self.netlist.gate_ref(gate);
        g.kind().eval_map(
            g.inputs(),
            |n| self.values[n.index()],
            self.values[g.output().index()],
        )
    }

    /// The memoised device leakage law (see the `leak_memo` field).
    fn leakage_memo(device: &DeviceModel, memo: &Cell<(u64, f64)>, v: Volts) -> Watts {
        let bits = v.0.to_bits();
        let (key, watts) = memo.get();
        if key == bits {
            return Watts(watts);
        }
        let p = device.leakage_power(v);
        memo.set((bits, p.0));
        p
    }

    /// Output load of a gate: its own drain parasitic (scaled by drive),
    /// the gate capacitance of its fanout, and any extra (wire) load.
    fn output_load(&self, gate: GateId) -> Farads {
        let g = self.netlist.gate_ref(gate);
        let p = self.device.params();
        let over = self.fanout_units_override[gate.index()];
        let fanout_units = if over.is_nan() {
            self.netlist.fanout_load_units(g.output())
        } else {
            over
        };
        Farads(
            p.drain_cap.0 * g.drive()
                + p.gate_cap.0 * fanout_units
                + self.extra_load[gate.index()].0,
        )
    }

    /// Constant-supply delay of `gate` at rail voltage `v`, memoised on
    /// the exact voltage bits (see the `delay_memo` field).
    fn delay_at_voltage(&self, gate: GateId, v: Volts) -> Seconds {
        let bits = v.0.to_bits();
        let memo = &self.delay_memo[gate.index()];
        let (key, delay) = memo.get();
        if key == bits {
            return Seconds(delay);
        }
        let g = self.netlist.gate_ref(gate);
        let base = self.device.gate_delay(v, self.output_load(gate), g.drive());
        let td = base * g.kind().delay_factor() * self.delay_scale[gate.index()];
        memo.set((bits, td.0));
        td
    }

    fn schedule_transition(&mut self, gate: GateId, value: bool, from: Seconds) {
        self.schedule_transition_with_progress(gate, value, from, 0.0);
    }

    fn schedule_transition_with_progress(
        &mut self,
        gate: GateId,
        value: bool,
        from: Seconds,
        progress: f64,
    ) {
        debug_assert!(self.pending[gate.index()].is_none());
        let domain_id = self.gate_domain[gate.index()].expect("gate without domain");
        let remaining = 1.0 - progress;

        /// What phase 1 decided, carried across the borrow boundary:
        /// everything below is computed under immutable borrows of the
        /// domain (and its waveform, in place — no clone), then the
        /// mutations happen with those borrows released.
        enum Plan {
            /// Depleted capacitor rail: wait for an explicit recharge.
            Stall,
            /// Fires at the given absolute time.
            FireAt(f64),
            /// Permanently stalled ideal rail: park the continuation far
            /// in the future so it never spins.
            Park,
            /// Integration window crossed while stalled: continue at
            /// `time` with `progress` of the work already done.
            Window { time: f64, progress: f64 },
        }

        let plan = {
            let domain = &self.domains[domain_id.0];
            match domain.kind() {
                SupplyKind::Capacitor { .. } => {
                    // Capacitor rails are piecewise constant between
                    // events: a single-step exact solution, or a stall if
                    // depleted.
                    let v = domain.voltage(from);
                    let td = self.delay_at_voltage(gate, v);
                    if td.0.is_infinite() {
                        Plan::Stall
                    } else {
                        Plan::FireAt(from.0 + td.0 * remaining)
                    }
                }
                SupplyKind::Ideal {
                    waveform,
                    resolution,
                } => {
                    // Constant rails need no numerical integration: the
                    // remaining work completes in one exact step.
                    // (Without this, a millisecond-scale sub-threshold
                    // delay would be ground through at nanosecond
                    // resolution.)
                    if let Some(v) = waveform.as_constant() {
                        let td = self.delay_at_voltage(gate, Volts(v));
                        if td.0.is_finite() {
                            Plan::FireAt(from.0 + td.0 * remaining)
                        } else {
                            Plan::Park
                        }
                    } else {
                        let horizon = Seconds(from.0 + resolution.0 * self.window_steps);
                        // Scaling every delay by the remaining work makes
                        // the solver's work target of 1 equal `remaining`
                        // of the original transition.
                        let td_at = |t: Seconds| {
                            let v = Volts(waveform.value_at(t));
                            self.delay_at_voltage(gate, v) * remaining
                        };
                        match completion_time(from, td_at, *resolution, horizon) {
                            Completion::At(t) => Plan::FireAt(t.0),
                            Completion::StalledUntilHorizon { progress: p } => Plan::Window {
                                time: horizon.0,
                                // Convert chunk progress back to absolute
                                // progress.
                                progress: progress + p * remaining,
                            },
                        }
                    }
                }
            }
        };

        if let Plan::Stall = plan {
            self.pending[gate.index()] = Some(Pending {
                value,
                stalled: true,
            });
            if let Some(h) = self.pdes.as_deref_mut() {
                h.pending_seq[gate.index()] = 0;
            }
            return;
        }
        self.pending[gate.index()] = Some(Pending {
            value,
            stalled: false,
        });
        let (time, progress, complete) = match plan {
            Plan::FireAt(t) => (t, 0.0, true),
            Plan::Park => (f64::MAX / 2.0, progress, false),
            Plan::Window { time, progress } => (time, progress, false),
            Plan::Stall => unreachable!(),
        };
        let ev = QueuedEvent {
            time,
            seq: self.next_seq(),
            gate: gate.index(),
            value,
            epoch: self.epochs[gate.index()],
            progress,
            complete,
        };
        if let Some(h) = self.pdes.as_deref_mut() {
            h.pending_seq[gate.index()] = ev.seq;
            if h.export_of[gate.index()] != u32::MAX {
                h.export_heap
                    .push(Reverse((ev.time.to_bits(), gate.index(), ev.seq)));
            }
        }
        self.push_event(ev);
    }

    fn commit(&mut self, gate: GateId, net: NetId, value: bool, time: Seconds) -> FiredEvent {
        // Leakage catch-up for the firing gate's domain (inputs are
        // domain-less and draw nothing).
        if let Some(d) = self.gate_domain[gate.index()] {
            let device = &self.device;
            let memo = &self.leak_memo;
            self.domains[d.0].advance(time, |v| Self::leakage_memo(device, memo, v));
            if value {
                let load = self.output_load(gate);
                let before = self.domains[d.0].switching_energy();
                self.domains[d.0].draw_switching(load, time);
                self.gate_energy[gate.index()] += self.domains[d.0].switching_energy() - before;
            }
        }
        self.values[net.index()] = value;
        self.transitions[gate.index()] += 1;
        if self.watched[net.index()] {
            self.trace.record(time, net, value);
        }
        // Propagate to fanout. Indexed loop: `fanout()` is a borrow of
        // the netlist (two array reads on the frozen CSR), and the loop
        // body needs `&mut self` to schedule.
        for fi in 0..self.netlist.fanout(net).len() {
            let f = self.netlist.fanout(net)[fi];
            let fk = self.netlist.gate_ref(f).kind();
            if fk.is_source() {
                continue;
            }
            if self.stuck[f.index()].is_some() {
                continue; // a stuck gate never reacts
            }
            let g = self.netlist.gate_ref(f);
            let current = self.values[g.output().index()];
            let target = {
                let pos = g.inputs().iter().position(|&n| n == net);
                fk.eval_map_with_edge(
                    g.inputs(),
                    |n| self.values[n.index()],
                    current,
                    pos.map(|p| (p, value)),
                )
            };
            match self.pending[f.index()] {
                None => {
                    if target != current {
                        self.schedule_transition(f, target, time);
                    }
                }
                Some(p) => {
                    if target == p.value {
                        // Pending transition still enabled: inertial keep.
                    } else {
                        // target == current: the pending transition was
                        // disabled — a persistence violation.
                        self.epochs[f.index()] += 1;
                        self.pending[f.index()] = None;
                        self.hazards.push(Hazard {
                            gate: f,
                            time,
                            cancelled_value: p.value,
                        });
                    }
                }
            }
        }
        FiredEvent {
            time,
            gate,
            net,
            value,
        }
    }

    fn advance_domains(&mut self, t: Seconds) {
        let device = &self.device;
        let memo = &self.leak_memo;
        for d in &mut self.domains {
            d.advance(t, |v| Self::leakage_memo(device, memo, v));
        }
    }
}
