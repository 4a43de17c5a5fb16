//! `sweep`: the E1 α-sweep plus k = 8 parallel cells, straight through
//! the library on two runner threads. No serving layer is involved, so
//! only sampler, phase engine and runner changes move it.
//!
//! One operation is one rep: every cell once, back to back (a closed
//! loop with one caller). Its latency is the rep's wall time.

use std::time::Instant;

use levy_obs::Registry;
use levy_rng::SeedStream;
use levy_sim::{measure_parallel_common, measure_single_walk, MeasurementConfig};

use crate::report::{rss_peak_mb, Outcome, RunConfig};
use crate::stats::{median, percentile, sorted};

/// Threads each measurement runs on.
const THREADS: usize = 2;
/// Reps the traced pass times for the modeled sampler share.
const LAYER_REPS: u64 = 10;

/// One sweep cell: a single walk (`k == 1`) or `k` walks sharing α.
#[derive(Debug, Clone, Copy)]
struct Cell {
    alpha: f64,
    ell: u64,
    k: usize,
    budget: u64,
    trials: u64,
}

/// α ∈ {2.2, 2.5, 2.8} × ℓ ∈ {16 … 256} single walks with budget
/// ⌈4ℓ^1.5⌉ and trials ∝ ℓ^(3−α) (the E1 scaling), plus k = 8, ℓ = 64
/// parallel cells. A rep takes about 50 ms on one 2-core host, so a run
/// times hundreds of reps and its p90 rests on more than ten beyond it.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for alpha in [2.2, 2.5, 2.8] {
        for ell in [16u64, 32, 64, 128, 256] {
            out.push(Cell {
                alpha,
                ell,
                k: 1,
                budget: (4.0 * (ell as f64).powf(1.5)).ceil() as u64,
                trials: (3.0 * (ell as f64).powf(3.0 - alpha)).round() as u64,
            });
        }
        out.push(Cell {
            alpha,
            ell: 64,
            k: 8,
            budget: 2048,
            trials: 9,
        });
    }
    out
}

/// The part of a cell's censored summary the correctness check compares.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    hits: u64,
    observed: Vec<f64>,
}

fn run_cell(cell: &Cell, seed: u64, threads: usize) -> Summary {
    let mut config = MeasurementConfig::new(cell.ell, cell.budget, cell.trials, seed);
    config.threads = threads;
    let summary = if cell.k == 1 {
        measure_single_walk(cell.alpha, &config)
    } else {
        measure_parallel_common(cell.alpha, cell.k, &config)
    };
    Summary {
        hits: summary.hits,
        observed: summary.observed,
    }
}

/// One rep: every cell once, with seeds from `rep`'s stream. Returns
/// each cell's call time (seconds) and result.
fn rep(cells: &[Cell], seeds: SeedStream, threads: usize) -> Vec<(f64, Summary)> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let start = Instant::now();
            let summary = run_cell(cell, seeds.child(i as u64).seed(), threads);
            (start.elapsed().as_secs_f64(), summary)
        })
        .collect()
}

fn counter(name: &str) -> f64 {
    Registry::global()
        .sample()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| v)
}

pub fn run(config: &RunConfig, out: &mut Outcome) {
    let cells = cells();
    let seeds = SeedStream::new(config.seed).child(0x5eed);

    // Set-up: one untimed warm-up rep (table builds, allocator, caches),
    // five times; the median is the reported set-up time.
    let mut setups = Vec::new();
    for i in 0..5 {
        let start = Instant::now();
        rep(&cells, seeds.child(1_000_000 + i), THREADS);
        setups.push(start.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups));

    if config.trace {
        return layers(&cells, seeds, out);
    }

    let start = Instant::now();
    let mut reps: Vec<Vec<(f64, Summary)>> = Vec::new();
    while start.elapsed().as_secs_f64() < config.seconds {
        reps.push(rep(&cells, seeds.child(reps.len() as u64), THREADS));
    }
    let elapsed = start.elapsed().as_secs_f64();
    out.metric("rss_peak_mb", rss_peak_mb());
    let rep_ms: Vec<f64> = reps
        .iter()
        .map(|r| r.iter().map(|(t, _)| t * 1e3).sum())
        .collect();
    out.attempted += reps.len() as u64;
    let rep_ms = sorted(&rep_ms);
    for (name, p) in [("p50_ms", 0.5), ("p90_ms", 0.9)] {
        if let Some(ms) = percentile(&rep_ms, p) {
            out.metric(name, ms);
        }
    }
    out.metric("capacity_rps", reps.len() as f64 / elapsed);
    let trials: u64 = cells.iter().map(|c| c.trials).sum();
    out.note(format!(
        "sweep: {} reps of {} cells ({trials} trials each), {:.0} trials/s",
        reps.len(),
        cells.len(),
        (reps.len() as u64 * trials) as f64 / elapsed
    ));

    // Correctness: a seeded rep re-run on one thread must produce the
    // same per-cell outcomes (the runner is thread-count independent).
    let chosen = (config.seed as usize) % reps.len();
    verify(&cells, seeds.child(chosen as u64), &reps[chosen], out);
}

fn verify(cells: &[Cell], seeds: SeedStream, timed: &[(f64, Summary)], out: &mut Outcome) {
    let reference = rep(cells, seeds, 1);
    for ((cell, (_, got)), (_, want)) in cells.iter().zip(timed).zip(&reference) {
        if got != want {
            out.fail(format!(
                "sweep cell alpha={} ell={} k={}: {} hits on {THREADS} threads vs {} on 1",
                cell.alpha, cell.ell, cell.k, got.hits, want.hits
            ));
        }
    }
}

/// Traced pass: a short sweep whose sampler share is modeled from the
/// draw counters and the measured per-draw costs.
fn layers(cells: &[Cell], seeds: SeedStream, out: &mut Outcome) {
    let table_before = counter("levy_rng_table_draws_total");
    let devroye_before = counter("levy_rng_devroye_draws_total");
    let start = Instant::now();
    let timed: Vec<_> = (0..LAYER_REPS)
        .map(|r| rep(cells, seeds.child(r), THREADS))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let table = counter("levy_rng_table_draws_total") - table_before;
    let devroye = counter("levy_rng_devroye_draws_total") - devroye_before;
    out.attempted += LAYER_REPS;
    verify(cells, seeds.child(0), &timed[0], out);

    let per_draw = |name| out.value(name).expect("layer calls are timed first");
    let sample_ns = per_draw("levy_rng.sample_ns");
    let untabled_ns = per_draw("levy_rng.untabled_sample_ns");
    let sampler = (table * sample_ns + devroye * untabled_ns) * 1e-9;
    let busy = wall * THREADS as f64;
    out.rank(
        "sweep (modeled: draws x per-draw cost vs thread time)",
        vec![
            ("levy_rng (sampler)".into(), sampler / busy),
            (
                "levy_walks + levy_sim (phase engine, runner)".into(),
                (busy - sampler).max(0.0) / busy,
            ),
        ],
    );
}
