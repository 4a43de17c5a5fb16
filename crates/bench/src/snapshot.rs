//! Benchmark snapshot measurements, shared by `bench_snapshot` (which
//! regenerates the committed `BENCH_*.json` files) and `bench_gate`
//! (which diffs a fresh measurement against them).
//!
//! Four hot paths are timed at fixed seeds:
//!
//! * **single-walk hitting** — the E1-style workload (α = 2.5, targets up
//!   to ℓ = 192, budget 4·ℓ^{α−1});
//! * **k-parallel hitting** — k = 8 common-exponent walks at ℓ = 192;
//! * **trial throughput** — the phase engine vs the step-level exact walk
//!   on an E1 α-sweep (α ∈ {2.2, 2.5, 2.8}, E1 per-cell trial weights);
//! * **raw sampling** — jump-length draws, hybrid table vs pure Devroye.
//!
//! Multi-thread scaling of the runner is not measured here; the
//! repository benchmark (`benchmark/`, `levy_sim.scaling_2t`) times it on
//! real threads.
//!
//! Workload sizes come from a [`Profile`]:
//!
//! * [`Profile::full`] — the committed-snapshot scale;
//! * [`Profile::gate`] — the regression-gate scale: small enough for CI;
//!   the gated quantities are same-host ratios, so they stay comparable
//!   to the committed scale;
//! * [`Profile::smoke`] — seconds-scale pipeline exercise; its absolute
//!   numbers are *not* comparable to the committed snapshots.

use std::hint::black_box;
use std::time::Instant;

use levy_grid::Point;
use levy_rng::{JumpLengthDistribution, SeedStream};
use levy_sim::{run_trials, Json};
use levy_walks::{
    levy_walk_hitting_time, levy_walk_hitting_time_exact, parallel_hitting_time_common,
};
use rand::rngs::SmallRng;

/// Workload sizing for one snapshot run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Label recorded in the emitted JSON (`profile` field).
    pub name: &'static str,
    /// Single-walk trials per ℓ cell in the runner workload.
    pub runner_per_ell: u64,
    /// k-parallel trials in the runner workload.
    pub runner_par_trials: u64,
    /// Base trials per (α, ℓ) cell in the trial-throughput sweep (cells
    /// are weighted `∝ ℓ^{3−α}` on top of this, as E1 weights them).
    pub throughput_base: u64,
    /// Jump-length draws per (α, law) cell.
    pub sampler_draws: u64,
    /// Best-of reps for sampler timings.
    pub sampler_reps: u32,
}

impl Profile {
    /// The committed-snapshot scale (minutes on a single core).
    pub fn full() -> Profile {
        Profile {
            name: "full",
            runner_per_ell: 192,
            runner_par_trials: 96,
            throughput_base: 48,
            sampler_draws: 8_000_000,
            sampler_reps: 3,
        }
    }

    /// The regression-gate scale (tens of seconds): reduced repetition,
    /// committed-scale per-unit work.
    pub fn gate() -> Profile {
        Profile {
            name: "gate",
            runner_per_ell: 96,
            runner_par_trials: 48,
            throughput_base: 24,
            sampler_draws: 2_000_000,
            sampler_reps: 3,
        }
    }

    /// The pipeline-exercise scale (seconds); numbers are not comparable
    /// to the committed snapshots.
    pub fn smoke() -> Profile {
        Profile {
            name: "smoke",
            runner_per_ell: 16,
            runner_par_trials: 8,
            throughput_base: 4,
            sampler_draws: 200_000,
            sampler_reps: 1,
        }
    }

    /// Whether this profile's workloads are reduced relative to the
    /// committed snapshots (recorded as the legacy `smoke` JSON field).
    pub fn reduced(&self) -> bool {
        self.name != "full"
    }
}

/// Times `f` once per rep, returning best-of-reps seconds (and the last
/// checksum, to keep the work observable).
fn best_of<F: FnMut() -> u64>(reps: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Runner snapshot: E1-style single-walk and k-parallel throughput, the
/// phase engine against the step-exact walk, and the cross-thread
/// determinism check.
pub fn runner_snapshot(profile: &Profile) -> Json {
    let alpha = 2.5;
    let jumps = JumpLengthDistribution::new(alpha).expect("valid alpha");
    let ells: [u64; 4] = [24, 48, 96, 192];
    let per_ell: u64 = profile.runner_per_ell;
    let trials = per_ell * ells.len() as u64;
    let seeds = SeedStream::new(0xE1_2021);
    let budget = |ell: u64| (4.0 * (ell as f64).powf(alpha - 1.0)).ceil() as u64;
    let trial_ell = |i: u64| ells[(i / per_ell) as usize % ells.len()];

    // Single-walk hitting, single-threaded at fixed seeds; trials are
    // grouped by ℓ exactly as a sweep enumerates them.
    let mut hits = 0u64;
    let wall = Instant::now();
    for i in 0..trials {
        let ell = trial_ell(i);
        let mut rng = seeds.child(i).rng();
        let hit = levy_walk_hitting_time(
            &jumps,
            Point::ORIGIN,
            Point::new(ell as i64, 0),
            budget(ell),
            &mut rng,
        );
        hits += u64::from(hit.is_some());
    }
    let single_walk_secs = wall.elapsed().as_secs_f64();

    // k-parallel hitting throughput at the heaviest cell.
    let k = 8usize;
    let par_trials: u64 = profile.runner_par_trials;
    let par_seeds = SeedStream::new(0xE6_2021);
    let par_secs = best_of(1, || {
        let outcomes = run_trials(par_trials, par_seeds, 1, |_i, rng| {
            parallel_hitting_time_common(
                k,
                &jumps,
                Point::ORIGIN,
                Point::new(192, 0),
                budget(192),
                rng,
            )
        });
        outcomes.iter().filter(|o| o.is_some()).count() as u64
    });

    // Engine-vs-scalar trial throughput on the E1 α-sweep (α ∈ {2.2, 2.5,
    // 2.8}, per-cell trials weighted ∝ ℓ^{3−α} as E1 weights them).
    // `scalar` is `levy_walk_hitting_time_exact`, the step-level walk the
    // phase engine is validated against for distribution equality;
    // `engine` is the phase engine (one draw plus an O(1) corridor check
    // per phase).
    let tp_alphas = [2.2f64, 2.5, 2.8];
    let tp_ells: [u64; 5] = [16, 32, 64, 128, 256];
    let tp_base = profile.throughput_base;
    let tp_laws: Vec<JumpLengthDistribution> = tp_alphas
        .iter()
        .map(|&a| JumpLengthDistribution::new(a).expect("valid alpha"))
        .collect();
    let tp_budget = |ell: u64| (4.0 * (ell as f64).powf(1.5)).ceil() as u64;
    let tp_trials_for = |alpha: f64, ell: u64| -> u64 {
        ((tp_base as f64 * (ell as f64).powf(3.0 - alpha) / 8.0).max(tp_base as f64)) as u64
    };
    let tp_seeds = SeedStream::new(0xBA7C_2021);
    type WalkFn = fn(&JumpLengthDistribution, Point, Point, u64, &mut SmallRng) -> Option<u64>;
    let sweep = |walk: WalkFn, out: &mut Vec<Option<u64>>| {
        out.clear();
        for (c, law) in tp_laws.iter().enumerate() {
            for (e, &ell) in tp_ells.iter().enumerate() {
                let cell_seeds = tp_seeds.child((c * tp_ells.len() + e) as u64);
                let target = Point::new(ell as i64, 0);
                let cell_budget = tp_budget(ell);
                for i in 0..tp_trials_for(law.alpha(), ell) {
                    let mut rng = cell_seeds.child(i).rng();
                    out.push(walk(law, Point::ORIGIN, target, cell_budget, &mut rng));
                }
            }
        }
    };
    let time_sweep = |walk: WalkFn, out: &mut Vec<Option<u64>>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..profile.sampler_reps.max(1) {
            let start = Instant::now();
            sweep(walk, out);
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let (mut scalar_hits, mut engine_hits) = (Vec::new(), Vec::new());
    let scalar_secs = time_sweep(levy_walk_hitting_time_exact, &mut scalar_hits);
    let engine_secs = time_sweep(levy_walk_hitting_time, &mut engine_hits);
    let tp_trials = engine_hits.len() as u64;
    let engine_speedup = scalar_secs / engine_secs.max(1e-12);

    // Determinism: identical results for 1/3/16 threads (timing differs;
    // bits must not).
    let run_with = |threads: usize| {
        run_trials(trials, seeds, threads, |i, rng| {
            let ell = trial_ell(i);
            levy_walk_hitting_time(
                &jumps,
                Point::ORIGIN,
                Point::new(ell as i64, 0),
                budget(ell),
                rng,
            )
        })
    };
    let r1 = run_with(1);
    let deterministic = [3usize, 16].into_iter().all(|t| run_with(t) == r1);

    println!("runner: {trials} trials (E1 sweep, alpha {alpha}), {hits} hits");
    println!("runner: deterministic across threads = {deterministic}");
    println!(
        "runner: trial throughput scalar {:.0}/s vs engine {:.0}/s over {tp_trials} trials -> {engine_speedup:.2}x",
        tp_trials as f64 / scalar_secs.max(1e-12),
        tp_trials as f64 / engine_secs.max(1e-12),
    );

    Json::obj([
        ("schema", Json::from("levy-bench/runner-v2")),
        ("profile", Json::from(profile.name)),
        ("workload", Json::obj([
            ("experiment_style", Json::from("E1 hit-probability sweep, batched as one trial queue")),
            ("alpha", Json::from(alpha)),
            ("ells", Json::arr(ells.iter().map(|&e| Json::from(e)))),
            ("trials_per_ell", Json::from(per_ell)),
            ("trials", Json::from(trials)),
            ("budget_rule", Json::from("ceil(4 * ell^(alpha-1))")),
            ("seed", Json::from("SeedStream::new(0x00E12021)")),
        ])),
        ("single_walk", Json::obj([
            ("trials", Json::from(trials)),
            ("hits", Json::from(hits)),
            ("secs_single_thread", Json::from(single_walk_secs)),
            ("trials_per_sec", Json::from(trials as f64 / single_walk_secs)),
        ])),
        ("parallel_walk", Json::obj([
            ("k", Json::from(k as u64)),
            ("ell", Json::from(192u64)),
            ("trials", Json::from(par_trials)),
            ("secs_single_thread", Json::from(par_secs)),
            ("trials_per_sec", Json::from(par_trials as f64 / par_secs)),
        ])),
        ("trial_throughput", Json::obj([
            ("workload", Json::from("E1 alpha-sweep, single thread: per-cell trials = max(base*ell^(3-alpha)/8, base)")),
            ("scalar", Json::from("levy_walk_hitting_time_exact (step-level walk)")),
            ("engine", Json::from("phase engine: per-phase draws, corridor early-rejection")),
            ("alphas", Json::arr(tp_alphas.iter().map(|&a| Json::from(a)))),
            ("ells", Json::arr(tp_ells.iter().map(|&e| Json::from(e)))),
            ("budget_rule", Json::from("ceil(4 * ell^1.5)")),
            ("base_trials_per_cell", Json::from(tp_base)),
            ("trials", Json::from(tp_trials)),
            ("reps_best_of", Json::from(profile.sampler_reps.max(1) as u64)),
            ("seed", Json::from("SeedStream::new(0xBA7C2021)")),
            ("scalar_secs", Json::from(scalar_secs)),
            ("engine_secs", Json::from(engine_secs)),
            ("scalar_trials_per_sec", Json::from(tp_trials as f64 / scalar_secs.max(1e-12))),
            ("engine_trials_per_sec", Json::from(tp_trials as f64 / engine_secs.max(1e-12))),
            ("speedup", Json::from(engine_speedup)),
        ])),
        ("deterministic_across_threads", Json::from(deterministic)),
        ("host_cores", Json::from(
            std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        )),
        ("smoke", Json::from(profile.reduced())),
    ])
}

/// Sampler snapshot: hybrid table vs pure Devroye draws per α.
pub fn sampler_snapshot(profile: &Profile) -> Json {
    let draws: u64 = profile.sampler_draws;
    let reps: u32 = profile.sampler_reps;
    let mut rows: Vec<Json> = Vec::new();
    let mut primary_speedup = 0.0;
    for alpha in [2.2f64, 2.5, 3.0] {
        let hybrid = JumpLengthDistribution::new(alpha).expect("valid");
        let devroye = JumpLengthDistribution::new_untabled(alpha).expect("valid");
        let time_draws = |law: &JumpLengthDistribution| {
            best_of(reps, || {
                let mut rng = SeedStream::new(0x5A_2021).child(0).rng();
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc = acc.wrapping_add(law.sample(&mut rng));
                }
                acc
            })
        };
        let hybrid_secs = time_draws(&hybrid);
        let devroye_secs = time_draws(&devroye);
        let speedup = devroye_secs / hybrid_secs.max(1e-12);
        if alpha == 2.5 {
            primary_speedup = speedup;
        }
        println!(
            "sampler alpha {alpha}: devroye {:.1} ns/draw, hybrid {:.1} ns/draw -> {speedup:.2}x",
            devroye_secs * 1e9 / draws as f64,
            hybrid_secs * 1e9 / draws as f64,
        );
        rows.push(Json::obj([
            ("alpha", Json::from(alpha)),
            ("table_cutoff", Json::from(hybrid.table_cutoff())),
            ("draws", Json::from(draws)),
            (
                "devroye_ns_per_draw",
                Json::from(devroye_secs * 1e9 / draws as f64),
            ),
            (
                "hybrid_ns_per_draw",
                Json::from(hybrid_secs * 1e9 / draws as f64),
            ),
            (
                "devroye_draws_per_sec",
                Json::from(draws as f64 / devroye_secs),
            ),
            (
                "hybrid_draws_per_sec",
                Json::from(draws as f64 / hybrid_secs),
            ),
            ("speedup", Json::from(speedup)),
        ]));
    }
    Json::obj([
        ("schema", Json::from("levy-bench/sampler-v1")),
        ("profile", Json::from(profile.name)),
        ("law", Json::from("Eq. (3): P(d=0)=1/2, P(d=i)=c_a/i^a")),
        ("seed", Json::from("SeedStream::new(0x005A2021).child(0)")),
        ("per_alpha", Json::Arr(rows)),
        ("primary_alpha", Json::from(2.5)),
        ("primary_speedup", Json::from(primary_speedup)),
        ("smoke", Json::from(profile.reduced())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_scale() {
        let (smoke, gate, full) = (Profile::smoke(), Profile::gate(), Profile::full());
        assert!(smoke.runner_per_ell < gate.runner_per_ell);
        assert!(gate.runner_per_ell <= full.runner_per_ell);
        assert!(smoke.sampler_draws < gate.sampler_draws);
        assert!(gate.sampler_draws <= full.sampler_draws);
        assert!(smoke.throughput_base < gate.throughput_base);
        assert!(gate.throughput_base <= full.throughput_base);
        assert!(smoke.reduced() && gate.reduced() && !full.reduced());
    }
}
