//! Bench snapshot pipeline: regenerates `BENCH_runner.json` and
//! `BENCH_sampler.json` at the repository root
//! (`scripts/bench_snapshot.sh` is the entry point).
//!
//! The measurements live in `levy_bench::snapshot` (shared with the
//! `bench_gate` regression gate); this binary picks the workload profile
//! and the output directory.
//!
//! `--smoke` shrinks every workload and writes
//! under the results directory (`LEVY_RESULTS_DIR`, default `results/`)
//! instead of the repository root, so CI can exercise the pipeline in
//! seconds without touching the committed snapshots.

use std::path::PathBuf;

use levy_bench::snapshot::{runner_snapshot, sampler_snapshot, Profile};
use levy_sim::write_json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile = if smoke {
        Profile::smoke()
    } else {
        Profile::full()
    };
    let out_dir = if smoke {
        // Honors LEVY_RESULTS_DIR like the exp_* binaries.
        levy_bench::results_dir()
    } else {
        repo_root()
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
    }
    println!("bench snapshot ({}) -> {}", profile.name, out_dir.display());

    let runner = runner_snapshot(&profile);
    let runner_path = out_dir.join("BENCH_runner.json");
    write_json(&runner, &runner_path).expect("write BENCH_runner.json");
    println!("[written {}]", runner_path.display());

    let sampler = sampler_snapshot(&profile);
    let sampler_path = out_dir.join("BENCH_sampler.json");
    write_json(&sampler, &sampler_path).expect("write BENCH_sampler.json");
    println!("[written {}]", sampler_path.display());
}
