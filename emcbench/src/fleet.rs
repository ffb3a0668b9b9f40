//! `fleet_100k`: a 100,000-node harvester fleet over 50 epochs on the
//! clustered topology, with a harvest drought, run on one worker thread
//! (oracle) and on the fast path's worker count.

use emc_fleet::{
    CalibDepth, DroughtSpec, FleetConfig, IslandModel, SensorModel, Topology, TopologyKind,
};

use crate::probe;
use crate::report::{Ctx, Times};

/// Set-ups per pass: the calibrations and the topology take
/// milliseconds, so their median over repetitions is what is reported.
const SETUP_REPS: usize = 16;

fn config(smoke: bool, seed: u64) -> FleetConfig {
    let (nodes, epochs) = if smoke { (2_000, 12) } else { (100_000, 50) };
    FleetConfig {
        topology: TopologyKind::Clustered,
        calib: if smoke {
            CalibDepth::Smoke
        } else {
            CalibDepth::Full
        },
        drought: Some(DroughtSpec {
            from_epoch: epochs * 2 / 5,
            until_epoch: epochs * 18 / 25,
            factor: 0.05,
        }),
        ..FleetConfig::new(nodes, epochs, seed)
    }
}

/// One pass: repeated set-ups (the public calibration and topology
/// calls `run_fleet` repeats internally), then the fleet at one thread
/// and at the fast path's thread count, compared byte for byte.
pub fn pass(ctx: &mut Ctx) -> Times {
    let cfg = config(ctx.smoke, ctx.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let (mut calibrate_s, mut topology_s) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let s = ctx.tracer.enter("setup");
        let c = ctx.tracer.enter("fleet.calibrate");
        let island = IslandModel::calibrate(cfg.calib);
        let sensor = SensorModel::calibrate(cfg.calib);
        calibrate_s.push(ctx.tracer.exit(c));
        let t = ctx.tracer.enter("fleet.topology");
        let topo = Topology::build(cfg.topology, cfg.nodes, cfg.epoch, cfg.seed);
        topology_s.push(ctx.tracer.exit(t));
        std::hint::black_box((island, sensor, topo));
        setup.push(ctx.tracer.exit(s));
    }

    let s = ctx.tracer.enter("oracle");
    let oracle = emc_fleet::run_fleet(&cfg, 1);
    let oracle_s = ctx.tracer.exit(s);

    let cpu0 = probe::cpu_s();
    let s = ctx.tracer.enter("fast");
    let fast = emc_fleet::run_fleet(&cfg, ctx.threads);
    let run_s = ctx.tracer.exit(s);
    let cpu_per_wall = (probe::cpu_s() - cpu0) / run_s;

    let sm = &fast.summary;
    ctx.check("fleet digests equal", oracle.digest == fast.digest);
    ctx.check("fleet JSON bytes equal", oracle.to_json() == fast.to_json());
    ctx.check("fleet completed tasks", sm.completed > 0);
    ctx.check(
        "messages conserved",
        sm.sent == sm.received + sm.dropped + fast.inflight,
    );

    ctx.fact("nodes", cfg.nodes);
    ctx.fact("epochs", cfg.epochs);
    ctx.fact("shards", fast.shards);
    ctx.fact("wakes", fast.wakes);
    ctx.fact("deliveries", fast.deliveries);
    ctx.fact("inflight", fast.inflight);
    ctx.fact("tasks_completed", sm.completed);
    ctx.fact("tasks_refused", sm.refused);
    ctx.fact("msgs_sent", sm.sent);
    ctx.fact("msgs_dropped", sm.dropped);
    ctx.fact_str("fleet_digest", &format!("{:016x}", fast.digest));

    let attempts = (sm.completed + sm.refused).max(1) as f64;
    ctx.layer("fleet.calibrate_s", crate::report::median(&calibrate_s));
    ctx.layer("fleet.topology_s", crate::report::median(&topology_s));
    ctx.layer("fleet.wakes", fast.wakes as f64);
    ctx.layer("fleet.deliveries", fast.deliveries as f64);
    ctx.layer("fleet.inflight", fast.inflight as f64);
    ctx.layer("fleet.tasks.completed", sm.completed as f64);
    ctx.layer("fleet.tasks.refused", sm.refused as f64);
    ctx.layer("fleet.refusal_ratio", sm.refused as f64 / attempts);
    ctx.layer("fleet.msgs.sent", sm.sent as f64);
    ctx.layer("fleet.msgs.dropped", sm.dropped as f64);
    ctx.layer(
        "fleet.node_epochs_per_s",
        f64::from(cfg.nodes) * cfg.epochs as f64 / run_s,
    );
    ctx.layer("fleet.speedup", oracle_s / run_s);
    ctx.layer("fleet.cpu_per_wall", cpu_per_wall);

    Times {
        setup,
        oracle: oracle_s,
        fast: run_s,
    }
}
