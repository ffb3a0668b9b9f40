//! End-to-end tests of the benchmark binary at smoke size: every
//! workload passes its output checks at two seeds, its printed metric
//! names match `BENCHMARK.json` in both directions, and a traced run
//! does the same work as an untraced one.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &["rows1m_const", "stagecut_ac", "verify_array", "fleet_100k"];

struct Run {
    facts: BTreeMap<String, String>,
    result: String,
}

/// Runs one smoke-size pass and returns its facts and result lines.
fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("emcbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_emcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., facts, result] = lines[..] else {
        panic!("{workload}: expected a facts line and a result line:\n{stdout}");
    };
    Run {
        facts: parse_facts(facts),
        result: result.to_string(),
    }
}

/// Splits the flat facts object `{"facts": {"k": v, ...}}`.
fn parse_facts(line: &str) -> BTreeMap<String, String> {
    let body = line
        .strip_prefix("{\"facts\": {")
        .and_then(|s| s.strip_suffix("}}"))
        .unwrap_or_else(|| panic!("malformed facts line {line}"));
    body.split(", \"")
        .map(|kv| {
            let (k, v) = kv.split_once("\": ").expect("key: value");
            (k.trim_start_matches('"').to_string(), v.to_string())
        })
        .collect()
}

/// Metric names and units printed in a result line.
fn printed_metrics(result: &str) -> BTreeMap<String, String> {
    let chunks: Vec<&str> = result.split(": {\"value\": ").collect();
    let mut out = BTreeMap::new();
    for (i, chunk) in chunks[..chunks.len() - 1].iter().enumerate() {
        let name = chunk.rsplit('"').nth(1).expect("quoted metric name");
        let unit = chunks[i + 1]
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("metric unit");
        out.insert(name.to_string(), unit.to_string());
    }
    out
}

/// `(name, unit)` of every entry in one `BENCHMARK.json` metric list.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"));
    let list = &text[start..];
    let list = &list[..list.find(']').expect("list end")];
    list.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .split(&format!("\"{key}\": \""))
                    .nth(1)
                    .and_then(|v| v.split('"').next())
                    .unwrap_or_else(|| panic!("{section} entry lacks {key}: {entry}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_two_seeds() {
    for w in WORKLOADS {
        for seed in [1, 2] {
            let r = run(w, seed, false);
            assert!(
                r.result.starts_with("{\"correct\": true, ") && r.result.contains("\"failed\": 0,"),
                "{w} seed {seed}: {}",
                r.result
            );
        }
    }
}

#[test]
fn the_seed_reaches_the_inputs_except_for_the_fixed_circuits() {
    for (w, digest) in [
        ("rows1m_const", "trace_digest"),
        ("stagecut_ac", "trace_digest"),
        ("fleet_100k", "fleet_digest"),
    ] {
        let (a, b) = (run(w, 1, false), run(w, 2, false));
        assert_ne!(a.facts[digest], b.facts[digest], "{w} ignores its seed");
    }
    // verify_array's circuits are fixed: the seed must not change them.
    let (a, b) = (run("verify_array", 1, false), run("verify_array", 2, false));
    assert_eq!(a.facts["states_full"], b.facts["states_full"]);
    assert_eq!(a.facts["states_reduced"], b.facts["states_reduced"]);
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let declared_workloads: Vec<String> = {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let list = &text[text.find("\"workloads\"").expect("workloads")..];
        let list = &list[..list.find(']').expect("list end")];
        list.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("name").to_string())
            .collect()
    };
    assert_eq!(declared_workloads, WORKLOADS);
    for w in WORKLOADS {
        assert_eq!(
            printed_metrics(&run(w, 1, false).result),
            end_to_end,
            "{w}: untraced metrics differ from end_to_end"
        );
        assert_eq!(
            printed_metrics(&run(w, 1, true).result),
            per_layer,
            "{w}: traced metrics differ from per_layer"
        );
    }
}

#[test]
fn a_traced_run_does_the_same_work() {
    for w in WORKLOADS {
        let mut plain = run(w, 5, false).facts;
        let traced = run(w, 5, true).facts;
        // The pass count depends on timing; everything else — sizes,
        // digests, work counters, host facts — must agree.
        assert!(plain.remove("passes").is_some(), "{w}: passes not recorded");
        assert_eq!(plain, traced, "{w}: tracing changed the work");
        for key in ["nproc", "threads", "profile", "seed"] {
            assert!(traced.contains_key(key), "{w}: fact {key} missing");
        }
    }
}
