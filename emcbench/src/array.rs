//! `rows1m_const` and `stagecut_ac`: an array of independent 1-bit WCHB
//! pipeline rows, pumped by a 4-phase driver, simulated by the
//! sequential `Simulator` (oracle) and the Vdd-domain `PdesSimulator`
//! (fast path) on identical stimulus.
//!
//! The two workloads differ only in how gates are cut into domains:
//! by row (no net crosses a domain, so PDES synchronisation idles) or
//! by stage (every row crosses every domain boundary, one domain on an
//! AC rail, so synchronisation dominates).

use std::f64::consts::FRAC_PI_2;

use emc_async::DualRailPipeline;
use emc_device::DeviceModel;
use emc_netlist::{GateKind, NetId, Netlist, Partitioned};
use emc_obs::Telemetry;
use emc_prng::{RngCore, Xoshiro256pp};
use emc_sim::{PdesPartitionSpec, PdesSimulator, Simulator, SupplyKind};
use emc_units::{Hertz, Seconds, Waveform};

use crate::probe;
use crate::report::{Ctx, Times};
use crate::spans::Tracer;

/// Domain count of both cuts.
const PARTS: usize = 8;
/// Constant rail voltages, cycled over domains.
const VOLTS: [f64; 3] = [1.0, 0.8, 0.6];
/// The domain that runs on the AC rail in the stage cut.
const AC_PART: usize = 1;
/// The AC rail: a 100 Hz sine, 0.5 ± 0.45 V, at its peak at t = 0 and
/// at its 0.05 V minimum on driver ticks 5, 15, …, below the device's
/// 0.1 V operating floor. Tokens reaching the AC domain around that tick
/// stall until the rail recovers, so the work integral crosses
/// integration windows (4096 resolution steps each).
const AC_DC: f64 = 0.5;
const AC_AMPLITUDE: f64 = 0.45;
const AC_HZ: f64 = 100.0;
const AC_RESOLUTION: f64 = 100e-9;
/// Driver cadence: long enough for the deepest row at the lowest rail
/// to settle between ticks, so each tick advances every row one phase.
const STEP: f64 = 1e-3;

/// How the array's gates are cut into domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Row `r` → domain `r % 8`: no crossing nets.
    Rows,
    /// Stage `s` → domain `⌊8s/cols⌋`, row inputs and sinks in domain 0.
    Stages,
}

/// One array workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ArraySpec {
    pub rows: usize,
    pub cols: usize,
    pub ticks: usize,
    pub cut: Cut,
    /// Put domain [`AC_PART`] on a sine rail instead of a constant one.
    pub ac: bool,
}

impl ArraySpec {
    /// 512 rows × 500 stages (1,025,536 gates), row-cyclic constant rails.
    pub fn rows1m(smoke: bool) -> Self {
        let (rows, cols) = if smoke { (16, 20) } else { (512, 500) };
        Self {
            rows,
            cols,
            ticks: 6,
            cut: Cut::Rows,
            ac: false,
        }
    }

    /// 128 rows × 400 stages cut by stage, one domain on an AC rail.
    pub fn stagecut(smoke: bool) -> Self {
        let (rows, cols, ticks) = if smoke { (8, 16, 8) } else { (128, 400, 16) };
        Self {
            rows,
            cols,
            ticks,
            cut: Cut::Stages,
            ac: true,
        }
    }
}

/// The generated inputs: the netlist plus everything needed to drive
/// and split it.
struct Rig {
    rows: Vec<DualRailPipeline>,
    assignment: Vec<u32>,
    specs: Vec<PdesPartitionSpec>,
    /// Token rail per `(tick, row)`: `true` sends on the true rail.
    rails: Vec<bool>,
    watched: Vec<NetId>,
}

/// The stage index encoded in a WCHB gate's output name
/// (`<row>.s<stage>.…`), or `None` for row inputs and sinks.
fn stage_of(name: &str) -> Option<usize> {
    name.split('.')
        .find_map(|seg| seg.strip_prefix('s').and_then(|d| d.parse().ok()))
}

fn build(spec: &ArraySpec, seed: u64) -> (Netlist, Rig) {
    let mut netlist = Netlist::new();
    let mut rows = Vec::with_capacity(spec.rows);
    let mut assignment = Vec::new();
    for r in 0..spec.rows {
        rows.push(DualRailPipeline::build(
            &mut netlist,
            spec.cols,
            &format!("pd.r{r}"),
        ));
        // Gates are appended contiguously, so everything new belongs to
        // row r.
        assignment.resize(netlist.gate_count(), (r % PARTS) as u32);
    }
    if spec.cut == Cut::Stages {
        for (gid, g) in netlist.iter_gates() {
            let stage = stage_of(netlist.net_name(g.output()));
            assignment[gid.index()] = stage.map_or(0, |s| (PARTS * s / spec.cols) as u32);
        }
    }
    let specs = (0..PARTS)
        .map(|d| PdesPartitionSpec {
            name: format!("vdd{d}"),
            supply: if spec.ac && d == AC_PART {
                SupplyKind::ideal_with_resolution(
                    Waveform::sine(AC_DC, AC_AMPLITUDE, Hertz(AC_HZ), FRAC_PI_2),
                    Seconds(AC_RESOLUTION),
                )
            } else {
                SupplyKind::ideal(Waveform::constant(VOLTS[d % VOLTS.len()]))
            },
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let rails = (0..spec.ticks * spec.rows)
        .map(|_| rng.next_u64() >> 63 == 1)
        .collect();
    let watched = rows
        .iter()
        .flat_map(|p| {
            let o = p.outputs()[0];
            [o.t, o.f, p.sender_ack()]
        })
        .collect();
    let rig = Rig {
        rows,
        assignment,
        specs,
        rails,
        watched,
    };
    (netlist, rig)
}

fn sequential(netlist: Netlist, rig: &Rig, obs: bool) -> Simulator {
    let mut sim = Simulator::new(netlist, DeviceModel::umc90());
    let doms: Vec<_> = rig
        .specs
        .iter()
        .map(|s| sim.add_domain(&s.name, s.supply.clone()))
        .collect();
    let inputs: Vec<bool> = sim
        .netlist()
        .iter_gates()
        .map(|(_, g)| g.kind() == GateKind::Input)
        .collect();
    for (i, is_input) in inputs.into_iter().enumerate() {
        if !is_input {
            let gid = sim.netlist().gate_id(i);
            sim.assign_domain(gid, doms[rig.assignment[i] as usize]);
        }
    }
    for &net in &rig.watched {
        sim.watch(net);
    }
    if obs {
        sim.enable_obs();
    }
    sim.start();
    sim
}

fn parallel(netlist: Netlist, rig: &Rig, threads: usize, obs: bool) -> PdesSimulator {
    let mut sim = PdesSimulator::new(netlist, DeviceModel::umc90(), &rig.specs, &rig.assignment);
    sim.set_threads(threads);
    for &net in &rig.watched {
        sim.watch(net);
    }
    if obs {
        sim.enable_obs();
    }
    sim.start();
    sim
}

/// The engine surface the driver needs, shared by both simulators.
trait Engine {
    fn value(&self, net: NetId) -> bool;
    fn inject(&mut self, net: NetId, time: Seconds, value: bool);
    fn advance(&mut self, t: Seconds) -> u64;
    fn hazard_count(&self) -> usize;
}

impl Engine for Simulator {
    fn value(&self, net: NetId) -> bool {
        Simulator::value(self, net)
    }
    fn inject(&mut self, net: NetId, time: Seconds, value: bool) {
        self.schedule_input(net, time, value);
    }
    fn advance(&mut self, t: Seconds) -> u64 {
        self.run_until(t).fired
    }
    fn hazard_count(&self) -> usize {
        self.hazards().len()
    }
}

impl Engine for PdesSimulator {
    fn value(&self, net: NetId) -> bool {
        PdesSimulator::value(self, net)
    }
    fn inject(&mut self, net: NetId, time: Seconds, value: bool) {
        self.schedule_input(net, time, value);
    }
    fn advance(&mut self, t: Seconds) -> u64 {
        self.run_until(t).fired
    }
    fn hazard_count(&self) -> usize {
        self.hazards().len()
    }
}

struct Drive {
    fired: u64,
    advance_s: f64,
    driver_s: f64,
}

/// Pumps `ticks` rounds of the 4-phase protocol through every row: the
/// sender offers the next token on the rail the seed chose and returns
/// to spacer on acknowledge; the sink mirrors output validity.
fn drive(sim: &mut impl Engine, rig: &Rig, ticks: usize, tr: &mut Tracer, span: &str) -> Drive {
    let n = rig.rows.len();
    let mut out = Drive {
        fired: 0,
        advance_s: 0.0,
        driver_s: 0.0,
    };
    for k in 0..=ticks {
        let t = Seconds(STEP * (k + 1) as f64);
        let s = tr.enter(span);
        out.fired += sim.advance(t);
        out.advance_s += tr.exit(s);
        if k == ticks {
            break;
        }
        let s = tr.enter("driver");
        for (r, p) in rig.rows.iter().enumerate() {
            let rail = p.inputs()[0];
            let (in_t, in_f) = (sim.value(rail.t), sim.value(rail.f));
            let ack = sim.value(p.sender_ack());
            if !in_t && !in_f && !ack {
                let net = if rig.rails[k * n + r] { rail.t } else { rail.f };
                sim.inject(net, t, true);
            } else if (in_t || in_f) && ack {
                sim.inject(if in_t { rail.t } else { rail.f }, t, false);
            }
            let o = p.outputs()[0];
            let (ot, of) = (sim.value(o.t), sim.value(o.f));
            let sink = sim.value(p.sink_ack());
            if (ot ^ of) && !sink {
                sim.inject(p.sink_ack(), t, true);
            } else if !ot && !of && sink {
                sim.inject(p.sink_ack(), t, false);
            }
        }
        out.driver_s += tr.exit(s);
    }
    out
}

/// One pass: set up both engines, run the oracle, run the fast path,
/// check the outputs agree.
pub fn pass(spec: &ArraySpec, ctx: &mut Ctx) -> Times {
    let traced = ctx.tracer.recording();
    let tr = &mut ctx.tracer;

    let setup = tr.enter("setup");
    let rss0 = probe::rss_mb();
    let s = tr.enter("netlist.build");
    let (mut netlist, rig) = build(spec, ctx.seed);
    let build_s = tr.exit(s);
    let s = tr.enter("netlist.freeze");
    netlist.freeze();
    let freeze_s = tr.exit(s);
    let netlist_mb = probe::rss_mb() - rss0;
    let gates = netlist.gate_count();
    let s = tr.enter("sim.new");
    let mut seq = sequential(netlist.clone(), &rig, traced);
    let sim_new_s = tr.exit(s);
    let s = tr.enter("pdes.new");
    let mut par = parallel(netlist, &rig, ctx.threads, traced);
    let pdes_new_s = tr.exit(s);
    let setup_s = tr.exit(setup);

    let oracle = tr.enter("oracle");
    let o = drive(&mut seq, &rig, spec.ticks, tr, "sim.advance");
    let s = tr.enter("sim.trace_digest");
    let seq_digest = seq.trace().canonical_digest();
    let digest_s = tr.exit(s);
    let oracle_s = tr.exit(oracle);
    let seq_hazards = seq.hazard_count();
    // Live counters exist only with observability on; the snapshot also
    // walks every gate, so the untraced pass skips it.
    let seq_tel = if traced {
        seq.telemetry()
    } else {
        Telemetry::new()
    };
    drop(seq);

    let cpu0 = probe::cpu_s();
    let fast = tr.enter("fast");
    let f = drive(&mut par, &rig, spec.ticks, tr, "pdes.advance");
    let s = tr.enter("pdes.trace_merge");
    let par_digest = par.trace().digest();
    let merge_s = tr.exit(s);
    let run_s = tr.exit(fast);
    let cpu_per_wall = (probe::cpu_s() - cpu0) / run_s;
    let stats = par.stats();
    let par_hazards = par.hazard_count();
    let crossing_nets = par.crossing_nets();
    let partitions = par.partitions();
    drop(par);

    ctx.check("oracle fired events", o.fired > 0);
    ctx.check("fired counts equal", o.fired == f.fired);
    ctx.check("trace digests equal", seq_digest == par_digest);
    ctx.check("oracle hazard-free", seq_hazards == 0);
    ctx.check("fast path hazard-free", par_hazards == 0);
    match spec.cut {
        Cut::Rows => ctx.check("row cut has no crossings", stats.crossing_events == 0),
        Cut::Stages => ctx.check("stage cut crosses", stats.crossing_events > 0),
    }

    ctx.fact("rows", spec.rows);
    ctx.fact("cols", spec.cols);
    ctx.fact("ticks", spec.ticks);
    ctx.fact("partitions", partitions);
    ctx.fact("gates", gates);
    ctx.fact("events", o.fired);
    ctx.fact("sync_rounds", stats.sync_rounds);
    ctx.fact("crossing_nets", crossing_nets);
    ctx.fact("crossing_events", stats.crossing_events);
    ctx.fact("stalled_epochs", stats.stalled_epochs);
    ctx.fact_str("trace_digest", &format!("{seq_digest:016x}"));

    if traced {
        // Timed on its own, outside set-up: PdesSimulator::new already
        // builds the partition index once.
        let (mut nl, rig) = build(spec, ctx.seed);
        nl.freeze();
        let s = ctx.tracer.enter("netlist.partition");
        let index = Partitioned::build(&nl, &rig.assignment, PARTS);
        let partition_s = ctx.tracer.exit(s);
        ctx.layer("netlist.partition_s", partition_s);
        ctx.check(
            "partition index agrees on crossings",
            index.crossing_count() == crossing_nets,
        );
    }
    let metric = |name: &str| seq_tel.metrics.counter_value(name).unwrap_or(0) as f64;
    let rounds = stats.sync_rounds.max(1) as f64;
    ctx.layer("netlist.build_s", build_s);
    ctx.layer("netlist.freeze_s", freeze_s);
    ctx.layer("netlist.gates", gates as f64);
    ctx.layer("netlist.crossing_nets", crossing_nets as f64);
    // Later passes reuse the heap the first one freed, so only the first
    // pass's resident-set growth measures the netlist.
    ctx.layer_first("netlist.rss_mb", netlist_mb);
    ctx.layer("sim.new_s", sim_new_s);
    ctx.layer("sim.advance_s", o.advance_s);
    ctx.layer("sim.events", o.fired as f64);
    ctx.layer("sim.events_per_s", o.fired as f64 / o.advance_s);
    ctx.layer("sim.trace_digest_s", digest_s);
    ctx.layer("sim.hazards", seq_hazards as f64);
    ctx.layer("sim.windows_progressed", metric("sim.windows_progressed"));
    ctx.layer(
        "sim.stale_events_dropped",
        metric("sim.stale_events_dropped"),
    );
    ctx.layer(
        "sim.queue.high_water",
        seq_tel
            .metrics
            .gauge_value("sim.queue.high_water")
            .unwrap_or(0.0),
    );
    ctx.layer("pdes.new_s", pdes_new_s);
    ctx.layer("pdes.advance_s", f.advance_s);
    ctx.layer("pdes.sync_rounds", stats.sync_rounds as f64);
    ctx.layer("pdes.crossing_events", stats.crossing_events as f64);
    ctx.layer("pdes.stalled_epochs", stats.stalled_epochs as f64);
    ctx.layer("pdes.trace_merge_s", merge_s);
    ctx.layer("pdes.events_per_round", f.fired as f64 / rounds);
    ctx.layer(
        "pdes.stall_ratio",
        stats.stalled_epochs as f64 / (rounds * partitions as f64),
    );
    ctx.layer("pdes.cpu_per_wall", cpu_per_wall);
    ctx.layer("pdes.speedup", o.advance_s / f.advance_s);
    ctx.layer("driver.s", o.driver_s + f.driver_s);
    ctx.layer(
        "driver.share",
        (o.driver_s + f.driver_s) / (oracle_s + run_s),
    );

    Times {
        setup: vec![setup_s],
        oracle: oracle_s,
        fast: run_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_parse() {
        assert_eq!(stage_of("pd.r3.s17.b0.t"), Some(17));
        assert_eq!(stage_of("pd.r3.s0.nack"), Some(0));
        assert_eq!(stage_of("pd.r3.sink_ack"), None);
        assert_eq!(stage_of("pd.r12.in0.t"), None);
    }

    #[test]
    fn stage_cut_spans_every_domain() {
        let spec = ArraySpec::stagecut(true);
        let (_, rig) = build(&spec, 7);
        for d in 0..PARTS as u32 {
            assert!(rig.assignment.contains(&d), "domain {d} is empty");
        }
    }

    #[test]
    fn the_seed_chooses_the_token_rails() {
        let spec = ArraySpec::rows1m(true);
        let (_, a) = build(&spec, 1);
        let (_, b) = build(&spec, 1);
        let (_, c) = build(&spec, 2);
        assert_eq!(a.rails, b.rails);
        assert_ne!(a.rails, c.rails);
    }
}
