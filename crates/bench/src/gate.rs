//! Benchmark regression gate: diffs a fresh snapshot against the
//! committed `BENCH_*.json` files and reports per-check verdicts.
//!
//! The gate only compares quantities that are *host- and
//! scale-independent ratios* (engine-vs-scalar trial throughput, sampler
//! speedup per α) plus one hard invariant (cross-thread determinism).
//! Absolute throughputs (trials/sec, draws/sec) vary with the CI host and
//! are recorded in the snapshots but never gated on. Serving speed is
//! measured end to end, with bounds, by the repository benchmark
//! (`benchmark/`); the serving invariants (byte-identical cache replay,
//! one simulation per concurrent identical query, exact wire-to-JSON
//! transcode) are `levy-served` tests.
//!
//! The comparison itself is pure ([`gate_snapshots`]) so the failure
//! path is unit-testable without re-running any benchmark.

use std::fmt::Write as _;

use levy_sim::Json;

/// Relative regression allowed on ratio checks: a fresh ratio may be up
/// to 30% below the committed one before the gate fails.
pub const TOLERANCE: f64 = 0.30;

/// The two snapshot documents, committed or fresh.
pub struct Snapshots {
    /// `BENCH_runner.json`.
    pub runner: Json,
    /// `BENCH_sampler.json`.
    pub sampler: Json,
}

/// One gated comparison.
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Committed (baseline) value.
    pub committed: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Smallest acceptable `fresh / committed`.
    pub min_ratio: f64,
    /// Verdict.
    pub passed: bool,
}

impl Check {
    fn ratio(&self) -> f64 {
        if self.committed.abs() < 1e-12 {
            return if self.fresh.abs() < 1e-12 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.fresh / self.committed
    }
}

/// The gate's full verdict: ratio checks plus structural errors (missing
/// or malformed snapshot fields), which always fail the gate.
#[derive(Default)]
pub struct GateReport {
    /// Individual comparisons, in evaluation order.
    pub checks: Vec<Check>,
    /// Snapshot-shape problems (missing fields, wrong types).
    pub errors: Vec<String>,
}

impl GateReport {
    /// Whether every check passed and no structural error occurred.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_width = self
            .checks
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for check in &self.checks {
            let verdict = if check.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "{verdict}  {:<name_width$}  committed {:>9.3}  fresh {:>9.3}  ratio {:>6.2} (min {:.2})",
                check.name,
                check.committed,
                check.fresh,
                check.ratio(),
                check.min_ratio,
            );
        }
        for error in &self.errors {
            let _ = writeln!(out, "ERROR {error}");
        }
        let _ = writeln!(
            out,
            "bench gate: {}",
            if self.passed() {
                "PASS (no regression beyond tolerance)"
            } else {
                "FAIL"
            }
        );
        out
    }

    fn ratio_check(&mut self, name: &str, committed: f64, fresh: f64) {
        let min_ratio = 1.0 - TOLERANCE;
        let passed = committed.abs() < 1e-12 || fresh / committed >= min_ratio;
        self.checks.push(Check {
            name: name.to_owned(),
            committed,
            fresh,
            min_ratio,
            passed,
        });
    }

    fn invariant(&mut self, name: &str, holds: bool) {
        self.checks.push(Check {
            name: name.to_owned(),
            committed: 1.0,
            fresh: f64::from(u8::from(holds)),
            min_ratio: 1.0,
            passed: holds,
        });
    }
}

/// Walks a dotted path of object keys, returning the number at the end.
fn num(doc: &Json, path: &str, errors: &mut Vec<String>) -> Option<f64> {
    let mut node = doc;
    for key in path.split('.') {
        match node.get(key) {
            Some(next) => node = next,
            None => {
                errors.push(format!("missing snapshot field {path}"));
                return None;
            }
        }
    }
    match node.as_f64() {
        Some(v) => Some(v),
        None => {
            errors.push(format!("snapshot field {path} is not a number"));
            None
        }
    }
}

fn boolean(doc: &Json, path: &str, errors: &mut Vec<String>) -> Option<bool> {
    let mut node = doc;
    for key in path.split('.') {
        match node.get(key) {
            Some(next) => node = next,
            None => {
                errors.push(format!("missing snapshot field {path}"));
                return None;
            }
        }
    }
    match node.as_bool() {
        Some(v) => Some(v),
        None => {
            errors.push(format!("snapshot field {path} is not a bool"));
            None
        }
    }
}

/// Sampler speedup per α, as `(alpha, speedup)` rows.
fn sampler_speedups(doc: &Json, errors: &mut Vec<String>) -> Vec<(f64, f64)> {
    let Some(Json::Arr(rows)) = doc.get("per_alpha") else {
        errors.push("missing snapshot field per_alpha".to_owned());
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let alpha = row.get("alpha")?.as_f64()?;
            let speedup = row.get("speedup")?.as_f64()?;
            Some((alpha, speedup))
        })
        .collect()
}

/// Compares `fresh` against `committed`, allowing ratio checks to
/// regress by [`TOLERANCE`].
pub fn gate_snapshots(committed: &Snapshots, fresh: &Snapshots) -> GateReport {
    let mut report = GateReport::default();
    let mut errors = Vec::new();

    // Hard invariant on the fresh run: determinism.
    if let Some(det) = boolean(&fresh.runner, "deterministic_across_threads", &mut errors) {
        report.invariant("runner determinism across threads", det);
    }

    // Trial throughput: phase-engine-vs-step-exact speedup on the E1
    // α-sweep — a same-host ratio, so comparable across profiles.
    if let (Some(c), Some(f)) = (
        num(&committed.runner, "trial_throughput.speedup", &mut errors),
        num(&fresh.runner, "trial_throughput.speedup", &mut errors),
    ) {
        report.ratio_check("runner trial throughput speedup", c, f);
    }

    // Sampler: hybrid-vs-Devroye speedup per α.
    let committed_rows = sampler_speedups(&committed.sampler, &mut errors);
    let fresh_rows = sampler_speedups(&fresh.sampler, &mut errors);
    for (alpha, c) in &committed_rows {
        match fresh_rows.iter().find(|(a, _)| a == alpha) {
            Some((_, f)) => {
                report.ratio_check(&format!("sampler speedup alpha={alpha}"), *c, *f);
            }
            None => errors.push(format!("fresh sampler snapshot lacks alpha={alpha}")),
        }
    }

    report.errors = errors;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshots(speedup_22: f64, speedup_25: f64) -> Snapshots {
        let runner = Json::parse(
            r#"{"deterministic_across_threads": true,
                "trial_throughput": {"speedup": 2.0}}"#,
        )
        .unwrap();
        let sampler = Json::parse(&format!(
            r#"{{"per_alpha": [
                  {{"alpha": 2.2, "speedup": {speedup_22}}},
                  {{"alpha": 2.5, "speedup": {speedup_25}}}
                ]}}"#
        ))
        .unwrap();
        Snapshots { runner, sampler }
    }

    #[test]
    fn identical_snapshots_pass() {
        let committed = snapshots(9.0, 14.0);
        let fresh = snapshots(9.0, 14.0);
        let report = gate_snapshots(&committed, &fresh);
        assert!(report.passed(), "report:\n{}", report.render());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let committed = snapshots(9.0, 14.0);
        let fresh = snapshots(7.5, 10.5); // 17-25% down, under 30%
        assert!(gate_snapshots(&committed, &fresh).passed());
    }

    #[test]
    fn injected_synthetic_regression_fails() {
        let committed = snapshots(9.0, 14.0);
        let fresh = snapshots(9.0, 7.0); // alpha=2.5 sampler speedup halved
        let report = gate_snapshots(&committed, &fresh);
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("FAIL  sampler speedup alpha=2.5"),
            "report names the regressed check:\n{rendered}"
        );
        assert!(rendered.contains("PASS  sampler speedup alpha=2.2"));
        assert!(rendered.contains("bench gate: FAIL"));
    }

    #[test]
    fn improvements_never_fail() {
        let committed = snapshots(9.0, 14.0);
        let fresh = snapshots(20.0, 30.0);
        assert!(gate_snapshots(&committed, &fresh).passed());
    }

    #[test]
    fn broken_determinism_is_a_hard_failure() {
        let committed = snapshots(9.0, 14.0);
        let mut fresh = snapshots(9.0, 14.0);
        fresh.runner = Json::parse(
            r#"{"deterministic_across_threads": false,
                "trial_throughput": {"speedup": 99.0}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh);
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  runner determinism"));
    }

    #[test]
    fn trial_throughput_regression_fails() {
        let committed = snapshots(9.0, 14.0);
        let mut fresh = snapshots(9.0, 14.0);
        fresh.runner = Json::parse(
            r#"{"deterministic_across_threads": true,
                "trial_throughput": {"speedup": 0.5}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh);
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("FAIL  runner trial throughput speedup"));
    }

    #[test]
    fn missing_fields_are_structural_errors() {
        let committed = snapshots(9.0, 14.0);
        let mut fresh = snapshots(9.0, 14.0);
        fresh.runner = Json::parse(r#"{"deterministic_across_threads": true}"#).unwrap();
        fresh.sampler = Json::parse(r#"{"per_alpha": [{"alpha": 2.2, "speedup": 9.0}]}"#).unwrap();
        let report = gate_snapshots(&committed, &fresh);
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("missing snapshot field trial_throughput.speedup")));
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("fresh sampler snapshot lacks alpha=2.5")));
        assert!(report.render().contains("ERROR"));
    }
}
