//! `emcbench`: the workspace benchmark.
//!
//! ```text
//! emcbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Each workload times two paths back to back in one process: the
//! oracle, whose output certifies correctness, and the fast path users
//! run. An untraced run repeats set-up + oracle + fast passes for
//! `--seconds` (at least four passes) and prints the end-to-end
//! metrics (medians over passes);
//! a traced run makes one untraced and one traced pass and prints the
//! per-layer metrics, writing the spans under `--out`. The last stdout
//! line is the result object; the line before it holds the run facts.
//! The process exits 1 if any output check failed, 2 on a usage error.

mod array;
mod fleet;
mod probe;
mod report;
mod spans;
mod verify;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, result_json, Ctx, Times, END_TO_END};

/// Worker threads of every fast path.
const THREADS: usize = 2;
/// Passes an untraced run makes even when they overrun `--seconds`, so
/// every reported median rests on at least four samples.
const MIN_PASSES: usize = 4;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["rows1m_const", "stagecut_ac", "verify_array", "fleet_100k"];

const USAGE: &str =
    "usage: emcbench --workload <rows1m_const|stagecut_ac|verify_array|fleet_100k> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/emcbench"),
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn pass(workload: &str, ctx: &mut Ctx) -> Times {
    match workload {
        "rows1m_const" => array::pass(&array::ArraySpec::rows1m(ctx.smoke), ctx),
        "stagecut_ac" => array::pass(&array::ArraySpec::stagecut(ctx.smoke), ctx),
        "verify_array" => verify::pass(ctx),
        "fleet_100k" => fleet::pass(ctx),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn total(t: &Times) -> f64 {
    t.setup.iter().sum::<f64>() + t.oracle + t.fast
}

/// Writes the spans as a Chrome trace and the per-layer metrics with
/// per-span self times as JSON.
fn write_trace(args: &Args, ctx: &Ctx) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    std::fs::write(stem.with_extension("trace.json"), ctx.tracer.chrome_trace())?;
    let mut s = String::from("{\n  \"metrics\": {");
    for (i, (name, value, unit)) in ctx.layer_metrics().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    \"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("\n  },\n  \"spans\": {");
    for (i, (name, (n, tot, own))) in ctx.tracer.self_times().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    \"{name}\": {{\"count\": {n}, \"total_s\": {tot:?}, \"self_s\": {own:?}}}"
        );
    }
    s.push_str("\n  }\n}\n");
    std::fs::write(stem.with_extension("layers.json"), s)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("emcbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.smoke, THREADS);
    ctx.fact("nproc", probe::nproc());
    ctx.fact("threads", THREADS);
    ctx.fact_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    ctx.fact("seed", args.seed);
    ctx.fact_str("workload", &args.workload);
    ctx.fact_str("size", if args.smoke { "smoke" } else { "full" });

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let untraced = pass(&args.workload, &mut ctx);
        ctx.tracer.set_recording(true);
        let traced = pass(&args.workload, &mut ctx);
        ctx.tracer.set_recording(false);
        ctx.layer("trace.overhead", total(&traced) / total(&untraced));
        if let Err(e) = write_trace(&args, &ctx) {
            eprintln!(
                "emcbench: cannot write the trace under {}: {e}",
                args.out.display()
            );
            ctx.check("trace files written", false);
        }
        ctx.layer_metrics()
    } else {
        let budget = Duration::from_secs_f64(args.seconds.max(0.0));
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let t = Instant::now();
            let p = pass(&args.workload, &mut ctx);
            eprintln!(
                "emcbench: pass {}: setup {:.4} s (median of {}), oracle {:.4} s, fast {:.4} s",
                passes.len() + 1,
                median(&p.setup),
                p.setup.len(),
                p.oracle,
                p.fast
            );
            passes.push(p);
            // Past the minimum, start another pass only if it should fit
            // the budget.
            let fits = start.elapsed() + t.elapsed() <= budget;
            if ctx.failed() > 0 || (passes.len() >= MIN_PASSES && !fits) {
                break;
            }
        }
        ctx.fact("passes", passes.len());
        let setups: Vec<f64> = passes.iter().flat_map(|p| p.setup.clone()).collect();
        let oracle: Vec<f64> = passes.iter().map(|p| p.oracle).collect();
        let fast: Vec<f64> = passes.iter().map(|p| p.fast).collect();
        let values = [
            median(&setups),
            median(&oracle),
            median(&fast),
            probe::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    for f in ctx.failures() {
        eprintln!("emcbench: check failed: {f}");
    }
    println!("{}", ctx.facts_json());
    println!("{}", result_json(&ctx, &metrics));
    if ctx.failed() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
