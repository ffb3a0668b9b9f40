//! `verify_array`: exhaustive speed-independence verification of the
//! built-in suite and two `emc-gen` pipelined arrays, full exploration
//! (oracle) against partial-order + symmetry reduction (fast path).
//!
//! The circuits are fixed: nothing here depends on the seed.

use emc_verify::builtin::builtin_suite;
use emc_verify::{Circuit, ExploreOutcome, Explorer};

use crate::report::{Ctx, Times};

/// Visited-state cap; every pass must finish well below it.
const STATE_CAP: usize = 4_000_000;
/// Set-ups per pass: one set-up is under a millisecond, so its median
/// over many repetitions is what is reported.
const SETUP_REPS: usize = 64;

/// The circuits, each tagged with the group its timings report under.
fn circuits(smoke: bool) -> Vec<(&'static str, Circuit<'static>)> {
    let mut out: Vec<_> = builtin_suite(false)
        .into_iter()
        .map(|c| ("builtin", c))
        .collect();
    let (a, b) = if smoke {
        ((1, 3), (1, 4))
    } else {
        ((2, 3), (1, 7))
    };
    out.push((
        "array2x3",
        emc_gen::pipelined_array(a.0, a.1, "va").verify_circuit(),
    ));
    out.push((
        "array1x7",
        emc_gen::pipelined_array(b.0, b.1, "vc").verify_circuit(),
    ));
    for (_, c) in &mut out {
        c.netlist.freeze();
    }
    out
}

/// One circuit's engines: the full explorer and, where the circuit
/// declares an environment footprint, the reduced one.
struct Engines<'a> {
    full: Explorer<'a>,
    reduced: Option<Explorer<'a>>,
}

fn engines<'a>(cs: &'a [(&'static str, Circuit<'static>)]) -> Vec<Engines<'a>> {
    cs.iter()
        .map(|(_, c)| Engines {
            full: Explorer::new(&c.netlist, &c.env, &c.initial, STATE_CAP),
            reduced: c.footprint.as_ref().map(|fp| {
                Explorer::new(&c.netlist, &c.env, &c.initial, STATE_CAP).with_reduction(fp)
            }),
        })
        .collect()
}

/// Totals of one path over every circuit.
#[derive(Default)]
struct PathTotals {
    states: u64,
    transitions: f64,
    skipped: f64,
    provisos: f64,
    frontier_high: f64,
    arena: f64,
}

fn explore(ex: &Explorer<'_>, traced: bool, totals: &mut PathTotals) -> ExploreOutcome {
    if !traced {
        let o = ex.explore();
        totals.states += o.states as u64;
        return o;
    }
    let (o, t) = ex.explore_with_telemetry();
    let counter = |n: &str| t.metrics.counter_value(n).unwrap_or(0) as f64;
    let gauge = |n: &str| t.metrics.gauge_value(n).unwrap_or(0.0);
    totals.states += o.states as u64;
    totals.transitions += counter("verify.transitions_applied");
    totals.skipped += counter("verify.reduce.skipped_transitions");
    totals.provisos += counter("verify.reduce.proviso_expansions");
    totals.frontier_high = totals
        .frontier_high
        .max(gauge("verify.frontier.high_water"));
    totals.arena = totals.arena.max(gauge("verify.arena.states"));
    o
}

fn rules(o: &ExploreOutcome) -> Vec<&'static str> {
    let mut r: Vec<_> = o.diagnostics.iter().map(|d| d.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

/// One pass: repeated set-ups, then every circuit fully (oracle) and
/// reduced (fast path), with verdicts compared circuit by circuit.
pub fn pass(ctx: &mut Ctx) -> Times {
    let traced = ctx.tracer.recording();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let s = ctx.tracer.enter("setup");
        let cs = circuits(ctx.smoke);
        std::hint::black_box(engines(&cs));
        setup.push(ctx.tracer.exit(s));
    }
    let s = ctx.tracer.enter("setup");
    let g = ctx.tracer.enter("gen.build");
    let cs = circuits(ctx.smoke);
    let gen_s = ctx.tracer.exit(g);
    let ens = engines(&cs);
    setup.push(ctx.tracer.exit(s));

    let mut full_time = std::collections::BTreeMap::<&str, f64>::new();
    let mut red_time = std::collections::BTreeMap::<&str, f64>::new();
    let mut full = PathTotals::default();
    let mut red = PathTotals::default();

    let oracle = ctx.tracer.enter("oracle");
    let mut full_out = Vec::with_capacity(cs.len());
    for ((group, _), e) in cs.iter().zip(&ens) {
        let s = ctx.tracer.enter("verify.full");
        full_out.push(explore(&e.full, traced, &mut full));
        *full_time.entry(group).or_default() += ctx.tracer.exit(s);
    }
    let oracle_s = ctx.tracer.exit(oracle);

    let fast = ctx.tracer.enter("fast");
    let mut red_out = Vec::with_capacity(cs.len());
    for ((group, _), e) in cs.iter().zip(&ens) {
        let s = ctx.tracer.enter("verify.reduced");
        let ex = e.reduced.as_ref().unwrap_or(&e.full);
        red_out.push(explore(ex, traced, &mut red));
        *red_time.entry(group).or_default() += ctx.tracer.exit(s);
    }
    let run_s = ctx.tracer.exit(fast);

    for (((_, c), f), r) in cs.iter().zip(&full_out).zip(&red_out) {
        ctx.check(&format!("{}: full pass exhaustive", c.name), f.exhaustive);
        ctx.check(
            &format!("{}: reduced pass exhaustive", c.name),
            r.exhaustive,
        );
        ctx.check(
            &format!("{}: identical diagnostics", c.name),
            rules(f) == rules(r),
        );
        ctx.check(
            &format!("{}: reduced states within full", c.name),
            r.states <= f.states,
        );
        ctx.fact(&format!("states.full.{}", c.name), f.states);
        ctx.fact(&format!("states.reduced.{}", c.name), r.states);
    }
    ctx.fact("circuits", cs.len());
    ctx.fact("states_full", full.states);
    ctx.fact("states_reduced", red.states);

    ctx.layer("gen.build_s", gen_s);
    ctx.layer("verify.full.states", full.states as f64);
    ctx.layer("verify.full.states_per_s", full.states as f64 / oracle_s);
    ctx.layer("verify.full.transitions", full.transitions);
    ctx.layer("verify.reduced.states", red.states as f64);
    ctx.layer("verify.reduced.states_per_s", red.states as f64 / run_s);
    ctx.layer("verify.reduced.transitions", red.transitions);
    ctx.layer("verify.reduce.skipped_transitions", red.skipped);
    ctx.layer("verify.reduce.proviso_expansions", red.provisos);
    ctx.layer(
        "verify.reduce.state_ratio",
        full.states as f64 / red.states.max(1) as f64,
    );
    ctx.layer("verify.reduce.cost_ratio", run_s / oracle_s);
    ctx.layer(
        "verify.frontier.high_water",
        full.frontier_high.max(red.frontier_high),
    );
    ctx.layer("verify.arena.states", full.arena.max(red.arena));
    for (group, secs) in &full_time {
        ctx.layer(&format!("verify.{group}.full_s"), *secs);
    }
    for (group, secs) in &red_time {
        ctx.layer(&format!("verify.{group}.reduced_s"), *secs);
    }

    Times {
        setup,
        oracle: oracle_s,
        fast: run_s,
    }
}
