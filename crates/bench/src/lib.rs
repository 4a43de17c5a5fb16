//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Each binary regenerates one experiment of DESIGN.md's index (F1–F2,
//! E1–E10, A1–A2): it prints a paper-style table to stdout and persists the
//! same rows as CSV under `results/`. Pass `--full` for the larger
//! parameterization recorded in EXPERIMENTS.md's "full" columns.

pub mod gate;
pub mod snapshot;

use std::path::PathBuf;
use std::time::Instant;

use levy_sim::TextTable;

/// Run-scale selection parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default: minutes-scale on a single core.
    Quick,
    /// `--full`: larger grids / trial counts.
    Full,
}

impl Scale {
    /// Parses the scale from `std::env::args`.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Selects between the quick and full value of a parameter.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Directory where experiment CSVs are written.
///
/// `LEVY_RESULTS_DIR` overrides the default `<workspace>/results`, so
/// experiment runs (local, CI, or driven by `levyd` deployments) can be
/// redirected without touching the checkout.
pub fn results_dir() -> PathBuf {
    match std::env::var_os("LEVY_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("results"),
    }
}

/// Prints the experiment banner.
pub fn banner(id: &str, paper_anchor: &str, claim: &str) {
    println!("=== {id} — {paper_anchor} ===");
    println!("{claim}");
    println!();
}

/// Prints a table and writes it as `results/<file>.csv`, reporting errors
/// to stderr without failing the run.
pub fn emit(table: &TextTable, file: &str) {
    print!("{}", table.render());
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    let path = dir.join(format!("{file}.csv"));
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[written {}]", path.display());
    }
    println!();
}

/// A coarse wall-clock stopwatch for experiment phases.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed seconds since start.
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// Formats a probability with its 95% Wilson interval.
pub fn fmt_prob_ci(p: f64, ci: (f64, f64)) -> String {
    format!("{:.4} [{:.4},{:.4}]", p, ci.0, ci.1)
}

/// Formats an optional value, rendering `None` as censored.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "censored".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    // One test for both behaviours: tests run in parallel threads, and
    // splitting this would race on the process-wide env var.
    #[test]
    fn results_dir_default_and_env_override() {
        std::env::remove_var("LEVY_RESULTS_DIR");
        assert!(results_dir().ends_with("results"));
        std::env::set_var("LEVY_RESULTS_DIR", "/tmp/levy-results-override");
        assert_eq!(results_dir(), PathBuf::from("/tmp/levy-results-override"));
        std::env::set_var("LEVY_RESULTS_DIR", "");
        assert!(
            results_dir().ends_with("results"),
            "empty value means default"
        );
        std::env::remove_var("LEVY_RESULTS_DIR");
    }

    #[test]
    fn formatters_render() {
        assert!(fmt_prob_ci(0.5, (0.4, 0.6)).contains("0.5000"));
        assert_eq!(fmt_opt(None), "censored");
        assert_eq!(fmt_opt(Some(3.25)), "3.2");
    }
}
