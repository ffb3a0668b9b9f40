//! Golden digests for the alternative-logic-family figures: the JSON
//! emitted by `fig_altlogic_energy` and `ablation_razor_replay` must be
//! byte-identical at 1, 2 and 8 worker threads, and the smoke-mode
//! bytes are pinned so a model change that moves any curve fails here
//! even when the new numbers still look plausible.
//!
//! If a deliberate model change moves a constant, regenerate with
//! `cargo test -p emc-bench --test altlogic_golden -- --ignored --nocapture`
//! and update it alongside the change that justified it.

use std::path::PathBuf;
use std::process::Command;

use emc_obs::digest::{fold_bytes, FNV_OFFSET};

/// FNV-1a of `target/figures/fig_altlogic_energy.json` after a
/// `--smoke` run.
const FIG_ENERGY_DIGEST: u64 = 0x3b64_435e_d32c_df85;

/// FNV-1a of `target/figures/fig_altlogic_ramp.json` after a `--smoke`
/// run.
const FIG_RAMP_DIGEST: u64 = 0x2591_1c68_4288_d1d7;

/// FNV-1a of `target/figures/ablation_razor_replay.json` after a
/// `--smoke` run.
const ABLATION_REPLAY_DIGEST: u64 = 0xa396_c30f_5f1b_ddc6;

/// FNV-1a of `target/figures/ablation_razor_dvs.json` after a
/// `--smoke` run.
const ABLATION_DVS_DIGEST: u64 = 0x5937_deb8_b28a_c333;

fn figures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

/// Runs `bin` with `--smoke --threads N` and returns the bytes of every
/// requested series JSON it saved.
fn run_and_read(bin: &str, threads: usize, series: &[&str]) -> Vec<Vec<u8>> {
    let out = Command::new(bin)
        .args(["--smoke", "--threads", &threads.to_string()])
        .output()
        .expect("figure binary runs");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    series
        .iter()
        .map(|id| {
            std::fs::read(figures_dir().join(format!("{id}.json")))
                .unwrap_or_else(|e| panic!("read {id}.json: {e}"))
        })
        .collect()
}

fn assert_identical_and_pinned(bin: &str, series: &[&str], pins: &[u64]) {
    let reference = run_and_read(bin, 1, series);
    for (i, id) in series.iter().enumerate() {
        let got = fold_bytes(FNV_OFFSET, &reference[i]);
        assert_eq!(
            got, pins[i],
            "{id}.json bytes moved: got {got:#018x}. If a model change makes \
             this intentional, regenerate with `cargo test -p emc-bench --test \
             altlogic_golden -- --ignored --nocapture`."
        );
    }
    for threads in [2usize, 8] {
        let again = run_and_read(bin, threads, series);
        for (i, id) in series.iter().enumerate() {
            assert_eq!(
                again[i], reference[i],
                "{id}.json differs at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn fig_altlogic_energy_json_identical_across_threads_and_pinned() {
    assert_identical_and_pinned(
        env!("CARGO_BIN_EXE_fig_altlogic_energy"),
        &["fig_altlogic_energy", "fig_altlogic_ramp"],
        &[FIG_ENERGY_DIGEST, FIG_RAMP_DIGEST],
    );
}

#[test]
fn ablation_razor_replay_json_identical_across_threads_and_pinned() {
    assert_identical_and_pinned(
        env!("CARGO_BIN_EXE_ablation_razor_replay"),
        &["ablation_razor_replay", "ablation_razor_dvs"],
        &[ABLATION_REPLAY_DIGEST, ABLATION_DVS_DIGEST],
    );
}

/// Regeneration helper: prints every golden constant in this file.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_constants() {
    let fig = run_and_read(
        env!("CARGO_BIN_EXE_fig_altlogic_energy"),
        1,
        &["fig_altlogic_energy", "fig_altlogic_ramp"],
    );
    println!(
        "FIG_ENERGY_DIGEST: {:#018x}",
        fold_bytes(FNV_OFFSET, &fig[0])
    );
    println!("FIG_RAMP_DIGEST: {:#018x}", fold_bytes(FNV_OFFSET, &fig[1]));
    let abl = run_and_read(
        env!("CARGO_BIN_EXE_ablation_razor_replay"),
        1,
        &["ablation_razor_replay", "ablation_razor_dvs"],
    );
    println!(
        "ABLATION_REPLAY_DIGEST: {:#018x}",
        fold_bytes(FNV_OFFSET, &abl[0])
    );
    println!(
        "ABLATION_DVS_DIGEST: {:#018x}",
        fold_bytes(FNV_OFFSET, &abl[1])
    );
}
