//! `emc-perf` — the hot-kernel throughput benchmark.
//!
//! Measures the three inner loops every experiment in this repository
//! leans on, and emits one flat JSON object so successive PRs can record
//! a perf trajectory (`BENCH_*.json`):
//!
//! * **events/sec** — the discrete-event simulator on a free-running
//!   self-timed counter, at a constant rail and under an AC supply
//!   (the Fig. 4 integration path);
//! * **states/sec** — the speed-independence explorer over the full
//!   built-in verification suite;
//! * **campaign wall-clock** — the deterministic fan-out engine at 1, 2
//!   and 8 worker threads, with the byte-identical-report invariant
//!   checked on every run;
//! * **fleet nodes/sec** — the `emc-fleet` sharded node simulation
//!   (node-epochs/s and fleet events/s on a single worker);
//! * **PDES events/sec** — the Vdd-domain-partitioned parallel
//!   simulator on a million-gate pipeline array, sequentially and at
//!   1/2/8 worker threads, with the canonical trace digest asserted
//!   bit-identical across every run.
//!
//! Flags: `--smoke` (tiny workloads, self-checking, for the tier-1
//! gate), `--seed N`, `--out PATH` (also write the JSON to a file),
//! `--baseline PATH` (read a previous run's JSON and record speedups),
//! `--guard PCT` (with `--baseline`: fail unless every guarded rate —
//! events/s, states/s, and the fleet, generated-netlist and PDES rates
//! when the baseline records them — stays within PCT percent of the
//! baseline; a breach names each regressed metric, its baseline and
//! current values, and the baseline file). Flag errors are panics,
//! like the other campaign binaries.

use std::time::Instant;

use emc_async::{MullerPipeline, SelfTimedOscillator, ToggleRippleCounter};
use emc_bench::{drive_array, pdes_array, pdes_parallel, pdes_sequential};
use emc_device::DeviceModel;
use emc_fleet::{CalibDepth, FleetConfig};
use emc_netlist::{GateKind, Netlist};
use emc_obs::{json_number, json_string};
use emc_prng::{Rng, StdRng};
use emc_sim::campaign::{run_campaign, CampaignConfig, RunContext, RunReport};
use emc_sim::{Simulator, SupplyKind};
use emc_units::{Hertz, Seconds, Waveform};
use emc_verify::builtin::builtin_suite;
use emc_verify::{Circuit, EnvAction, EnvView, Environment, Explorer};

/// Workload sizes for one measurement pass.
struct Sizes {
    const_events: u64,
    const_repeats: usize,
    ac_events: u64,
    ac_repeats: usize,
    verify_repeats: usize,
    verify_smoke_suite: bool,
    campaign_jobs: usize,
    gen_stages: usize,
    gen_width: usize,
    gen_rounds: usize,
    red_rows: usize,
    red_cols: usize,
    fleet_nodes: u32,
    fleet_epochs: u64,
    pdes_rows: usize,
    pdes_cols: usize,
    pdes_parts: usize,
    pdes_ticks: usize,
}

impl Sizes {
    fn full() -> Self {
        Self {
            const_events: 400_000,
            const_repeats: 4,
            ac_events: 60_000,
            ac_repeats: 3,
            verify_repeats: 3,
            verify_smoke_suite: false,
            campaign_jobs: 16,
            // 4000 stages × 64 bits of WCHB is 256 gates per stage plus
            // the input rank: 1,024,128 gates — the million-gate floor.
            gen_stages: 4000,
            gen_width: 64,
            gen_rounds: 192,
            red_rows: 2,
            red_cols: 2,
            fleet_nodes: 20_000,
            fleet_epochs: 25,
            // 512 rows × 500 WCHB stages ≈ 1.02M gates across 8 Vdd
            // domains — the parallel-simulation headline workload.
            pdes_rows: 512,
            pdes_cols: 500,
            pdes_parts: 8,
            pdes_ticks: 12,
        }
    }

    fn smoke() -> Self {
        Self {
            const_events: 2_000,
            const_repeats: 1,
            ac_events: 500,
            ac_repeats: 1,
            verify_repeats: 1,
            verify_smoke_suite: true,
            campaign_jobs: 4,
            gen_stages: 4,
            gen_width: 2,
            gen_rounds: 16,
            red_rows: 2,
            red_cols: 1,
            fleet_nodes: 500,
            fleet_epochs: 4,
            pdes_rows: 8,
            pdes_cols: 6,
            pdes_parts: 2,
            pdes_ticks: 7,
        }
    }
}

fn counting_rig(supply: SupplyKind) -> Simulator {
    let mut nl = Netlist::new();
    let osc = SelfTimedOscillator::build(&mut nl, "osc");
    let _cnt = ToggleRippleCounter::build(&mut nl, 8, osc.output(), "cnt");
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", supply);
    sim.assign_all(d);
    osc.prime(&mut sim);
    sim.start();
    sim
}

/// Best-of-`repeats` event throughput: `(events, best_secs, events/sec)`.
fn measure_sim(events: u64, repeats: usize, supply: impl Fn() -> SupplyKind) -> (u64, f64, f64) {
    let mut best = f64::INFINITY;
    let mut fired_once = 0;
    for _ in 0..repeats.max(1) {
        let mut sim = counting_rig(supply());
        let t0 = Instant::now();
        let fired = sim.run_to_quiescence(events);
        let secs = t0.elapsed().as_secs_f64();
        assert!(fired > 0, "simulator workload fired no events");
        fired_once = fired;
        best = best.min(secs);
    }
    (fired_once, best, fired_once as f64 / best)
}

/// A deep Muller-pipeline circuit (the builtin micropipeline's shape,
/// without its STG attachment) — the explorer's heavy workload: state
/// count grows with depth, so the measurement is not dominated by
/// per-pass setup.
fn deep_pipeline(stages: usize) -> Circuit<'static> {
    let mut nl = Netlist::new();
    let p = MullerPipeline::build(&mut nl, stages, "mp");
    let req = p.request();
    let c0 = p.stages()[0];
    let c_last = *p.stages().last().expect("non-empty pipeline");
    let tail_ack = p.tail_ack();
    Circuit::new(
        "deep_pipeline",
        nl,
        Environment {
            initial: 0,
            step: Box::new(move |_, v: &EnvView<'_>| {
                let mut acts = Vec::new();
                if v.value(c0) == v.value(req) {
                    acts.push(EnvAction {
                        net: req,
                        value: !v.value(req),
                        next: 0,
                    });
                }
                if v.value(tail_ack) != v.value(c_last) {
                    acts.push(EnvAction {
                        net: tail_ack,
                        value: v.value(c_last),
                        next: 0,
                    });
                }
                acts
            }),
        },
    )
}

/// Best-of-`repeats` explorer throughput over the built-in suite plus a
/// deep pipeline: `(states per pass, best_secs, states/sec)`.
fn measure_verify(repeats: usize, smoke_suite: bool) -> (usize, f64, f64) {
    let mut best = f64::INFINITY;
    let mut states_once = 0;
    let deep_stages = if smoke_suite { 4 } else { 10 };
    for _ in 0..repeats.max(1) {
        let mut suite = builtin_suite(smoke_suite);
        suite.push(deep_pipeline(deep_stages));
        let t0 = Instant::now();
        let mut states = 0;
        for circuit in &suite {
            let ex = Explorer::new(&circuit.netlist, &circuit.env, &circuit.initial, 500_000);
            let outcome = ex.explore();
            assert!(outcome.exhaustive, "{} exploration capped", circuit.name);
            states += outcome.states;
        }
        let secs = t0.elapsed().as_secs_f64();
        assert!(states > 0, "explorer visited no states");
        states_once = states;
        best = best.min(secs);
    }
    (states_once, best, states_once as f64 / best)
}

/// One campaign run: a ring oscillator at the job's Vdd with a
/// seed-derived burst of enable toggles (the same shape the determinism
/// test suite pins), so the engine's seed plumbing is genuinely on the
/// measured path.
fn campaign_worker(vdd: &f64, ctx: &RunContext) -> RunReport {
    let mut nl = Netlist::new();
    let en = nl.input("en");
    let g1 = nl.gate(GateKind::Nand, &[en, en], "g1");
    let g2 = nl.gate(GateKind::Inv, &[g1], "g2");
    let g3 = nl.gate(GateKind::Inv, &[g2], "g3");
    nl.connect_feedback(g1, g3);
    nl.mark_output(g3);
    let mut sim = Simulator::new(nl, DeviceModel::umc90());
    let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(*vdd)));
    sim.assign_all(d);
    sim.set_initial(g1, true);
    sim.set_initial(g3, true);
    sim.watch(g3);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut t = 0.0;
    let mut level = true;
    for _ in 0..8 {
        sim.schedule_input(en, Seconds(t), level);
        t += rng.gen_range(1e-9..10e-9);
        level = !level;
    }
    sim.schedule_input(en, Seconds(t), true);
    sim.start();
    let stats = sim.run_until(Seconds(t + 40e-9));
    RunReport::from_sim(&sim, ctx, stats, vec![*vdd, stats.fired as f64])
}

/// Campaign wall-clock at each thread count, with the determinism
/// invariant asserted: `[(threads, wall_ms)]`.
fn measure_campaign(jobs: usize, seed: u64) -> Vec<(usize, f64)> {
    let vdds: Vec<f64> = (0..jobs).map(|i| 0.4 + 0.05 * i as f64).collect();
    let mut rows = Vec::new();
    let mut reference: Option<u64> = None;
    for threads in [1usize, 2, 8] {
        let cfg = CampaignConfig::new(seed).threads(threads);
        let report = run_campaign(&vdds, &cfg, campaign_worker);
        let digest = report.digest();
        match reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(
                r, digest,
                "campaign digest diverged at {threads} threads — determinism broken"
            ),
        }
        rows.push((threads, report.wall_clock.as_secs_f64() * 1e3));
    }
    rows
}

/// Throughput of the event kernel on a *generated* workload: a wide
/// WCHB datapath from `emc-gen` (a million gates at full size), driven
/// by the same seeded quiescence-paced environment replay the
/// differential fuzzer uses. Returns `(gates, events, secs, events/s)`.
fn measure_generated(
    stages: usize,
    width: usize,
    rounds: usize,
    seed: u64,
) -> (usize, u64, f64, f64) {
    let gc = emc_gen::wchb_datapath(stages, width, "mg");
    let gates = gc.netlist.gate_count();
    let t0 = Instant::now();
    let diff = emc_gen::run_differential(&gc, emc_gen::Schedule::Nominal, seed, rounds, None);
    let secs = t0.elapsed().as_secs_f64();
    assert!(
        diff.violation.is_none(),
        "generated workload failed to settle: {:?}",
        diff.violation
    );
    assert!(diff.fired > 0, "generated workload fired no events");
    (gates, diff.fired, secs, diff.fired as f64 / secs)
}

/// One full-vs-reduced explorer comparison: `(name, full_states,
/// full_secs, reduced_states, reduced_secs)`. Both passes must be
/// exhaustive; the reduced pass uses the circuit's declared
/// environment footprint for partial-order + symmetry reduction.
fn measure_reduction_one(c: &Circuit<'_>, cap: usize) -> (String, usize, f64, usize, f64) {
    let fp = c
        .footprint
        .as_ref()
        .unwrap_or_else(|| panic!("{}: reduction workload lacks a footprint", c.name));
    let t0 = Instant::now();
    let full = Explorer::new(&c.netlist, &c.env, &c.initial, cap).explore();
    let full_secs = t0.elapsed().as_secs_f64();
    assert!(full.exhaustive, "{}: full exploration capped", c.name);
    let t0 = Instant::now();
    let red = Explorer::new(&c.netlist, &c.env, &c.initial, cap)
        .with_reduction(fp)
        .explore();
    let red_secs = t0.elapsed().as_secs_f64();
    assert!(red.exhaustive, "{}: reduced exploration capped", c.name);
    assert!(
        red.states <= full.states,
        "{}: reduction grew the state count",
        c.name
    );
    (c.name.clone(), full.states, full_secs, red.states, red_secs)
}

/// The POR/symmetry before-after measurement: the built-in SRAM
/// control loop and an `emc-gen` pipelined array (independent rows —
/// the workload where both reductions bite).
fn measure_reduction(
    smoke_suite: bool,
    rows: usize,
    cols: usize,
) -> Vec<(String, usize, f64, usize, f64)> {
    let mut out = Vec::new();
    let sram = builtin_suite(smoke_suite)
        .into_iter()
        .find(|c| c.name == "sram")
        .expect("builtin suite has the SRAM control circuit");
    out.push(measure_reduction_one(&sram, 500_000));
    let array = emc_gen::pipelined_array(rows, cols, "perf-array").verify_circuit();
    out.push(measure_reduction_one(&array, 2_000_000));
    out
}

/// The fleet-scale workload: one pass of `emc-fleet` on a single
/// worker thread. The measured wall is the whole run, calibration
/// included, matching what the report itself records. Returns
/// `(node_epochs, events, secs, node_epochs/s, events/s)`.
fn measure_fleet(nodes: u32, epochs: u64, smoke: bool, seed: u64) -> (u64, u64, f64, f64, f64) {
    let config = FleetConfig {
        calib: if smoke {
            CalibDepth::Smoke
        } else {
            CalibDepth::Full
        },
        ..FleetConfig::new(nodes, epochs, seed)
    };
    let report = emc_fleet::run_fleet(&config, 1);
    assert!(
        report.summary.completed > 0,
        "fleet workload completed no tasks"
    );
    let secs = report.wall.as_secs_f64().max(1e-9);
    let node_epochs = u64::from(nodes) * epochs;
    let events = report.events();
    (
        node_epochs,
        events,
        secs,
        node_epochs as f64 / secs,
        events as f64 / secs,
    )
}

/// One thread count's PDES measurement.
struct PdesRun {
    threads: usize,
    secs: f64,
    rate: f64,
}

/// The PDES measurement bundle: the same rig timed sequentially and at
/// each worker thread count, digest-checked against the oracle.
struct PdesMeasurement {
    gates: usize,
    parts: usize,
    events: u64,
    seq_secs: f64,
    seq_rate: f64,
    runs: Vec<PdesRun>,
    sync_rounds: u64,
    crossing_events: u64,
}

/// Times the Vdd-domain-partitioned simulator against its sequential
/// oracle on the shared pipeline-array rig. Every run must fire the
/// same event count and produce the same canonical trace digest — the
/// determinism contract the tier-1 smoke gate pins at 2 threads.
fn measure_pdes(rows: usize, cols: usize, parts: usize, ticks: usize) -> PdesMeasurement {
    let rig = pdes_array(rows, cols, parts);
    let gates = rig.netlist.gate_count();

    let mut seq = pdes_sequential(&rig);
    let t0 = Instant::now();
    let events = drive_array(&mut seq, &rig, ticks);
    let seq_secs = t0.elapsed().as_secs_f64();
    let digest = seq.trace().canonical_digest();
    drop(seq);

    let mut runs = Vec::new();
    let mut sync_rounds = 0;
    let mut crossing_events = 0;
    for threads in [1usize, 2, 8] {
        let mut par = pdes_parallel(&rig, threads, false);
        let t0 = Instant::now();
        let fired = drive_array(&mut par, &rig, ticks);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            events, fired,
            "PDES fired count diverged from sequential at {threads} threads"
        );
        assert_eq!(
            digest,
            par.trace().digest(),
            "PDES trace digest diverged from sequential at {threads} threads"
        );
        sync_rounds = par.stats().sync_rounds;
        crossing_events = par.stats().crossing_events;
        runs.push(PdesRun {
            threads,
            secs,
            rate: fired as f64 / secs,
        });
    }
    PdesMeasurement {
        gates,
        parts: rig.parts,
        events,
        seq_secs,
        seq_rate: events as f64 / seq_secs,
        runs,
        sync_rounds,
        crossing_events,
    }
}

/// Peak resident-set size of this process (`VmHWM`), in kilobytes.
/// Linux-specific and monotonic over the process lifetime; recorded as
/// an upper bound on the explorer's working set.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Extracts `"key": <number>` from a flat JSON object this binary wrote.
fn json_f64_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c == '\n')
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

struct Args {
    smoke: bool,
    seed: u64,
    out: Option<String>,
    baseline: Option<String>,
    guard: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        seed: 2011,
        out: None,
        baseline: None,
        guard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                args.seed = v.parse().expect("--seed must be a u64");
            }
            "--out" => args.out = Some(it.next().expect("--out needs a path")),
            "--baseline" => args.baseline = Some(it.next().expect("--baseline needs a path")),
            "--guard" => {
                let v = it.next().expect("--guard needs a percentage");
                args.guard = Some(v.parse().expect("--guard takes a percentage"));
            }
            other => {
                panic!("unknown flag {other} (try --smoke, --seed, --out, --baseline, --guard)")
            }
        }
    }
    assert!(
        args.guard.is_none() || args.baseline.is_some(),
        "--guard needs --baseline to compare against"
    );
    args
}

fn main() {
    let args = parse_args();
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };

    println!(
        "== emc-perf — hot-kernel throughput ({}) ==",
        if args.smoke { "smoke" } else { "full" }
    );

    let (const_events, const_secs, const_rate) =
        measure_sim(sizes.const_events, sizes.const_repeats, || {
            SupplyKind::ideal(Waveform::constant(1.0))
        });
    println!("  sim  const 1.0 V : {const_events} events in {const_secs:.4} s  ({const_rate:.0} events/s)");

    let (ac_events, ac_secs, ac_rate) = measure_sim(sizes.ac_events, sizes.ac_repeats, || {
        SupplyKind::ideal_with_resolution(
            Waveform::sine(0.4, 0.2, Hertz(1e6), 0.0).clamped(0.0, 2.0),
            Seconds(1e-6 / 64.0),
        )
    });
    println!("  sim  AC 0.4±0.2 V: {ac_events} events in {ac_secs:.4} s  ({ac_rate:.0} events/s)");

    let (states, verify_secs, state_rate) =
        measure_verify(sizes.verify_repeats, sizes.verify_smoke_suite);
    println!(
        "  verify explorer  : {states} states in {verify_secs:.4} s  ({state_rate:.0} states/s)"
    );

    let reduction = measure_reduction(sizes.verify_smoke_suite, sizes.red_rows, sizes.red_cols);
    for (name, fs, fsec, rs, rsec) in &reduction {
        println!(
            "  verify reduce {name:<12}: full {fs} states in {fsec:.4} s ({:.0}/s) | reduced {rs} states in {rsec:.4} s ({:.0}/s) | {:.2}x fewer states",
            *fs as f64 / fsec,
            *rs as f64 / rsec,
            *fs as f64 / (*rs).max(1) as f64,
        );
    }
    let rss_kb = peak_rss_kb();
    if let Some(kb) = rss_kb {
        println!("  peak RSS         : {kb} kB (VmHWM after reduction passes)");
    }

    let (gen_gates, gen_events, gen_secs, gen_rate) = measure_generated(
        sizes.gen_stages,
        sizes.gen_width,
        sizes.gen_rounds,
        args.seed,
    );
    println!(
        "  sim  generated   : {gen_gates} gates, {gen_events} events in {gen_secs:.4} s  ({gen_rate:.0} events/s)"
    );

    let campaign = measure_campaign(sizes.campaign_jobs, args.seed);
    for (threads, ms) in &campaign {
        println!("  campaign {threads}t      : {ms:.2} ms  (digest invariant held)");
    }

    let (fleet_node_epochs, fleet_events, fleet_secs, fleet_ne_rate, fleet_ev_rate) =
        measure_fleet(sizes.fleet_nodes, sizes.fleet_epochs, args.smoke, args.seed);
    println!(
        "  fleet {} nodes  : {fleet_node_epochs} node-epochs, {fleet_events} events in {fleet_secs:.4} s  ({fleet_ne_rate:.0} node-epochs/s, {fleet_ev_rate:.0} events/s)",
        sizes.fleet_nodes
    );

    let pdes = measure_pdes(
        sizes.pdes_rows,
        sizes.pdes_cols,
        sizes.pdes_parts,
        sizes.pdes_ticks,
    );
    println!(
        "  pdes sequential  : {} gates, {} events in {:.4} s  ({:.0} events/s)",
        pdes.gates, pdes.events, pdes.seq_secs, pdes.seq_rate
    );
    for run in &pdes.runs {
        println!(
            "  pdes {}t          : {:.4} s  ({:.0} events/s, {:.2}x vs sequential, digest invariant held)",
            run.threads,
            run.secs,
            run.rate,
            run.rate / pdes.seq_rate
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"id\": {},\n", json_string("emc-perf")));
    json.push_str(&format!("  \"smoke\": {},\n", args.smoke));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!(
        "  \"sim_workload\": {},\n",
        json_string("SelfTimedOscillator + 8-bit ToggleRippleCounter, run_to_quiescence")
    ));
    json.push_str(&format!(
        "  \"sim_const_events\": {},\n",
        json_number(const_events as f64)
    ));
    json.push_str(&format!(
        "  \"sim_const_secs\": {},\n",
        json_number(const_secs)
    ));
    json.push_str(&format!(
        "  \"events_per_sec\": {},\n",
        json_number(const_rate)
    ));
    json.push_str(&format!(
        "  \"sim_ac_events\": {},\n",
        json_number(ac_events as f64)
    ));
    json.push_str(&format!("  \"sim_ac_secs\": {},\n", json_number(ac_secs)));
    json.push_str(&format!(
        "  \"ac_events_per_sec\": {},\n",
        json_number(ac_rate)
    ));
    json.push_str(&format!(
        "  \"verify_workload\": {},\n",
        json_string("builtin_suite state-graph exploration (exhaustive)")
    ));
    json.push_str(&format!(
        "  \"verify_states\": {},\n",
        json_number(states as f64)
    ));
    json.push_str(&format!(
        "  \"verify_secs\": {},\n",
        json_number(verify_secs)
    ));
    json.push_str(&format!(
        "  \"states_per_sec\": {},\n",
        json_number(state_rate)
    ));
    json.push_str(&format!(
        "  \"reduction_workload\": {},\n",
        json_string(
            "full vs POR+symmetry-reduced exploration (sram builtin, emc-gen pipelined array)"
        )
    ));
    for (name, fs, fsec, rs, rsec) in &reduction {
        let tag = name.replace('-', "_");
        json.push_str(&format!(
            "  \"red_{tag}_full_states\": {},\n",
            json_number(*fs as f64)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_full_secs\": {},\n",
            json_number(*fsec)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_full_states_per_sec\": {},\n",
            json_number(*fs as f64 / fsec)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_reduced_states\": {},\n",
            json_number(*rs as f64)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_reduced_secs\": {},\n",
            json_number(*rsec)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_reduced_states_per_sec\": {},\n",
            json_number(*rs as f64 / rsec)
        ));
        json.push_str(&format!(
            "  \"red_{tag}_state_reduction_factor\": {},\n",
            json_number(*fs as f64 / (*rs).max(1) as f64)
        ));
    }
    if let Some(kb) = rss_kb {
        json.push_str(&format!("  \"peak_rss_kb\": {},\n", json_number(kb as f64)));
    }
    json.push_str(&format!(
        "  \"gen_workload\": {},\n",
        json_string("emc-gen wchb_datapath, seeded environment replay")
    ));
    json.push_str(&format!(
        "  \"gen_gates\": {},\n",
        json_number(gen_gates as f64)
    ));
    json.push_str(&format!(
        "  \"gen_events\": {},\n",
        json_number(gen_events as f64)
    ));
    json.push_str(&format!("  \"gen_secs\": {},\n", json_number(gen_secs)));
    json.push_str(&format!(
        "  \"gen_events_per_sec\": {},\n",
        json_number(gen_rate)
    ));
    json.push_str(&format!(
        "  \"fleet_workload\": {},\n",
        json_string("emc-fleet sharded node simulation, 1 worker thread")
    ));
    json.push_str(&format!(
        "  \"fleet_nodes\": {},\n",
        json_number(f64::from(sizes.fleet_nodes))
    ));
    json.push_str(&format!(
        "  \"fleet_epochs\": {},\n",
        json_number(sizes.fleet_epochs as f64)
    ));
    json.push_str(&format!(
        "  \"fleet_events\": {},\n",
        json_number(fleet_events as f64)
    ));
    json.push_str(&format!("  \"fleet_secs\": {},\n", json_number(fleet_secs)));
    json.push_str(&format!(
        "  \"fleet_node_epochs_per_sec\": {},\n",
        json_number(fleet_ne_rate)
    ));
    json.push_str(&format!(
        "  \"fleet_events_per_sec\": {},\n",
        json_number(fleet_ev_rate)
    ));
    json.push_str(&format!(
        "  \"pdes_workload\": {},\n",
        json_string("Vdd-domain-partitioned WCHB pipeline array, reactive 4-phase driver")
    ));
    json.push_str(&format!(
        "  \"pdes_gates\": {},\n",
        json_number(pdes.gates as f64)
    ));
    json.push_str(&format!(
        "  \"pdes_partitions\": {},\n",
        json_number(pdes.parts as f64)
    ));
    json.push_str(&format!(
        "  \"pdes_events\": {},\n",
        json_number(pdes.events as f64)
    ));
    json.push_str(&format!(
        "  \"pdes_sync_rounds\": {},\n",
        json_number(pdes.sync_rounds as f64)
    ));
    json.push_str(&format!(
        "  \"pdes_crossing_events\": {},\n",
        json_number(pdes.crossing_events as f64)
    ));
    json.push_str(&format!(
        "  \"pdes_seq_secs\": {},\n",
        json_number(pdes.seq_secs)
    ));
    json.push_str(&format!(
        "  \"pdes_seq_events_per_sec\": {},\n",
        json_number(pdes.seq_rate)
    ));
    for run in &pdes.runs {
        json.push_str(&format!(
            "  \"pdes_secs_{}t\": {},\n",
            run.threads,
            json_number(run.secs)
        ));
        json.push_str(&format!(
            "  \"pdes_events_per_sec_{}t\": {},\n",
            run.threads,
            json_number(run.rate)
        ));
    }
    json.push_str(&format!(
        "  \"pdes_threads_max\": {},\n",
        json_number(pdes.runs.iter().map(|r| r.threads).max().unwrap_or(1) as f64)
    ));
    json.push_str(&format!(
        "  \"host_threads\": {},\n",
        json_number(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1) as f64
        )
    ));
    json.push_str("  \"pdes_digests_equal\": true,\n");
    let pdes_8t = pdes.runs.last().map_or(0.0, |r| r.rate);
    json.push_str(&format!(
        "  \"pdes_speedup_vs_gen_8t\": {},\n",
        json_number(pdes_8t / gen_rate)
    ));
    json.push_str(&format!(
        "  \"campaign_runs\": {},\n",
        json_number(sizes.campaign_jobs as f64)
    ));
    for (threads, ms) in &campaign {
        json.push_str(&format!(
            "  \"campaign_wall_ms_{threads}t\": {},\n",
            json_number(*ms)
        ));
    }
    json.push_str("  \"campaign_digests_equal\": true");

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base_events =
            json_f64_field(&text, "events_per_sec").expect("baseline JSON lacks events_per_sec");
        let base_states =
            json_f64_field(&text, "states_per_sec").expect("baseline JSON lacks states_per_sec");
        // Older baselines predate some workloads; guard each rate only
        // when the baseline actually records it.
        let base_fleet = json_f64_field(&text, "fleet_events_per_sec");
        let base_gen = json_f64_field(&text, "gen_events_per_sec");
        let base_pdes_seq = json_f64_field(&text, "pdes_seq_events_per_sec");
        let base_pdes_8t = json_f64_field(&text, "pdes_events_per_sec_8t");
        let guarded: Vec<(&str, f64, f64)> = [
            ("events_per_sec", base_events, const_rate),
            ("states_per_sec", base_states, state_rate),
        ]
        .into_iter()
        .chain(base_fleet.map(|b| ("fleet_events_per_sec", b, fleet_ev_rate)))
        .chain(base_gen.map(|b| ("gen_events_per_sec", b, gen_rate)))
        .chain(base_pdes_seq.map(|b| ("pdes_seq_events_per_sec", b, pdes.seq_rate)))
        .chain(base_pdes_8t.map(|b| ("pdes_events_per_sec_8t", b, pdes_8t)))
        .collect();
        let sim_speedup = const_rate / base_events;
        let verify_speedup = state_rate / base_states;
        let fleet_speedup = base_fleet.map(|b| fleet_ev_rate / b);
        match fleet_speedup {
            Some(f) => println!(
                "  vs baseline      : sim {sim_speedup:.2}x, verify {verify_speedup:.2}x, fleet {f:.2}x"
            ),
            None => println!("  vs baseline      : sim {sim_speedup:.2}x, verify {verify_speedup:.2}x"),
        }
        if let Some(pct) = args.guard {
            // Rates vary with the machine: a baseline captured on a
            // different core count makes the floor comparison suspect,
            // so say so before any breach assertion fires.
            let host_threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1) as f64;
            if let Some(base_host) = json_f64_field(&text, "host_threads") {
                if base_host != host_threads {
                    println!(
                        "  WARNING: baseline host_threads {base_host:.0} != current \
                         {host_threads:.0}; guard floors compare rates across different \
                         machines"
                    );
                }
            }
            let floor = 1.0 - pct / 100.0;
            let breaches: Vec<String> = guarded
                .iter()
                .filter(|(_, base, now)| now / base < floor)
                .map(|(name, base, now)| {
                    format!(
                        "{name} regressed {:.1}%: baseline {base:.0}/s, now {now:.0}/s",
                        (1.0 - now / base) * 100.0
                    )
                })
                .collect();
            assert!(
                breaches.is_empty(),
                "perf guard: {} of {} metrics breached the {pct}% floor vs {path}:\n  {}",
                breaches.len(),
                guarded.len(),
                breaches.join("\n  ")
            );
            println!(
                "  perf guard       : {} metrics within {pct}% of {path}",
                guarded.len()
            );
        }
        json.push_str(",\n");
        json.push_str(&format!(
            "  \"baseline_events_per_sec\": {},\n",
            json_number(base_events)
        ));
        json.push_str(&format!(
            "  \"baseline_states_per_sec\": {},\n",
            json_number(base_states)
        ));
        json.push_str(&format!(
            "  \"sim_speedup\": {},\n",
            json_number(sim_speedup)
        ));
        if let (Some(base), Some(speedup)) = (base_fleet, fleet_speedup) {
            json.push_str(&format!(
                "  \"baseline_fleet_events_per_sec\": {},\n",
                json_number(base)
            ));
            json.push_str(&format!("  \"fleet_speedup\": {},\n", json_number(speedup)));
        }
        json.push_str(&format!(
            "  \"verify_speedup\": {}",
            json_number(verify_speedup)
        ));
    }
    json.push_str("\n}\n");

    if let Some(path) = &args.out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  [saved {path}]");
    } else {
        println!("{json}");
    }
}
