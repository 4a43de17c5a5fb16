//! `bench_gate` — regression gate over the committed bench snapshots.
//!
//! ```text
//! bench_gate [--smoke]
//! ```
//!
//! Runs a fresh benchmark snapshot and diffs it against the committed
//! `BENCH_runner.json` / `BENCH_sampler.json` at the repository root,
//! failing (exit code 1) when any gated ratio regresses by more than 30%
//! or the cross-thread determinism invariant breaks.
//!
//! `--smoke` measures at the *gate profile*: reduced repetition so CI
//! finishes in seconds; the gated ratios are same-host ratios, so they
//! stay comparable to the committed ones. Without the flag the fresh run
//! uses the full committed-snapshot workload.
//!
//! Only host-independent ratios are gated; absolute throughputs are
//! printed for context but never compared (CI hosts vary wildly).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use levy_bench::gate::{gate_snapshots, Snapshots, TOLERANCE};
use levy_bench::snapshot::{runner_snapshot, sampler_snapshot, Profile};
use levy_sim::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn parse_args() -> Result<Profile, String> {
    let mut profile = Profile::full();
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--smoke" => profile = Profile::gate(),
            other => return Err(format!("unknown flag {other}\nusage: bench_gate [--smoke]")),
        }
    }
    Ok(profile)
}

fn main() -> ExitCode {
    let profile = match parse_args() {
        Ok(v) => v,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            return ExitCode::FAILURE;
        }
    };

    let root = repo_root();
    let committed = match (
        load(&root.join("BENCH_runner.json")),
        load(&root.join("BENCH_sampler.json")),
    ) {
        (Ok(runner), Ok(sampler)) => Snapshots { runner, sampler },
        (runner, sampler) => {
            for result in [runner, sampler] {
                if let Err(e) = result {
                    eprintln!("bench_gate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_gate: measuring fresh snapshot ({} profile, tolerance {:.0}%)",
        profile.name,
        TOLERANCE * 100.0
    );
    let fresh = Snapshots {
        runner: runner_snapshot(&profile),
        sampler: sampler_snapshot(&profile),
    };

    let report = gate_snapshots(&committed, &fresh);
    println!();
    print!("{}", report.render());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
