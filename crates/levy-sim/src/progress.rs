//! Progress/ETA reporting for long experiment runs.
//!
//! A [`ProgressReporter`] runs one background thread that periodically
//! samples the process-global [`levy_obs::Registry`] into a
//! [`levy_obs::Snapshot`] and diffs consecutive samples with
//! [`levy_obs::diff`] — the same machinery behind
//! `levyc metrics --watch`. From the
//! deltas of `levy_sim_trials_completed_total` and
//! `levy_sim_steal_blocks_total` it prints, to stderr:
//!
//! ```text
//! progress: 42000/120000 trials (35.0%)  1234.5 trials/s  12.3 blocks/s  eta 63s
//! ```
//!
//! Reporting is opt-in via the `LEVY_PROGRESS` environment variable (any
//! non-empty value other than `0`; a numeric value sets the interval in
//! seconds, default 5) so batch runs stay quiet by default. The reporter
//! only ever *reads* metrics — it cannot perturb results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use levy_obs::{diff, Registry, Snapshot};

const TRIALS_KEY: &str = "levy_sim_trials_completed_total";
const BLOCKS_KEY: &str = "levy_sim_steal_blocks_total";

fn sample_now() -> Snapshot {
    Snapshot {
        ts_us: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
        values: Registry::global().sample(),
    }
}

/// Reads the `LEVY_PROGRESS` opt-in: `None` when unset/`0`, otherwise the
/// report interval (a numeric value is an interval in seconds).
fn env_interval() -> Option<Duration> {
    match std::env::var("LEVY_PROGRESS") {
        Ok(v) if !v.is_empty() && v != "0" => {
            let secs = v.parse::<f64>().ok().filter(|s| *s > 0.0).unwrap_or(5.0);
            Some(Duration::from_secs_f64(secs))
        }
        _ => None,
    }
}

/// Background progress printer for a run expecting `total_trials` trials.
/// Disabled (a no-op handle) unless `LEVY_PROGRESS` is set.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressReporter {
    /// Starts reporting if `LEVY_PROGRESS` opts in; otherwise returns an
    /// inert handle.
    pub fn start(total_trials: u64) -> ProgressReporter {
        match env_interval() {
            Some(interval) => ProgressReporter::start_with(total_trials, interval),
            None => ProgressReporter {
                stop: Arc::new(AtomicBool::new(true)),
                handle: None,
            },
        }
    }

    /// Starts reporting unconditionally at the given interval.
    pub fn start_with(total_trials: u64, interval: Duration) -> ProgressReporter {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let baseline = sample_now();
        let handle = std::thread::Builder::new()
            .name("levy-progress".into())
            .spawn(move || {
                let start = baseline.get(TRIALS_KEY).unwrap_or(0.0);
                let mut prev = baseline;
                while !thread_stop.load(Ordering::Relaxed) {
                    // Sleep in short slices so finish() returns promptly.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !thread_stop.load(Ordering::Relaxed) {
                        let slice = Duration::from_millis(50).min(interval - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let next = sample_now();
                    eprintln!("{}", render_report(&prev, &next, start, total_trials));
                    prev = next;
                }
            })
            .expect("spawn progress reporter");
        ProgressReporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the reporter thread (if running) and waits for it.
    pub fn finish(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Renders one progress line from two consecutive snapshots. `start` is
/// the trials-completed reading when the run began (so concurrent history
/// in the global counter is excluded); separated from the thread loop for
/// testability.
fn render_report(prev: &Snapshot, next: &Snapshot, start: f64, total_trials: u64) -> String {
    let elapsed_s = (next.ts_us.saturating_sub(prev.ts_us)) as f64 / 1e6;
    let changes = diff(prev, next);
    let delta = |key: &str| {
        changes
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, before, after)| after - before)
            .unwrap_or(0.0)
    };
    let done = (next.get(TRIALS_KEY).unwrap_or(start) - start).max(0.0);
    let trial_rate = if elapsed_s > 0.0 {
        delta(TRIALS_KEY) / elapsed_s
    } else {
        0.0
    };
    let block_rate = if elapsed_s > 0.0 {
        delta(BLOCKS_KEY) / elapsed_s
    } else {
        0.0
    };
    let pct = if total_trials > 0 {
        100.0 * done / total_trials as f64
    } else {
        0.0
    };
    let remaining = (total_trials as f64 - done).max(0.0);
    let eta = if trial_rate > 0.0 && remaining > 0.0 {
        format!("eta {:.0}s", remaining / trial_rate)
    } else if remaining == 0.0 {
        "done".to_owned()
    } else {
        "eta --".to_owned()
    };
    format!(
        "progress: {done:.0}/{total_trials} trials ({pct:.1}%)  {trial_rate:.1} trials/s  {block_rate:.1} blocks/s  {eta}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ts_us: u64, trials: f64, blocks: f64) -> Snapshot {
        let mut values = vec![
            (BLOCKS_KEY.to_owned(), blocks),
            (TRIALS_KEY.to_owned(), trials),
        ];
        values.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { ts_us, values }
    }

    #[test]
    fn report_computes_rates_and_eta() {
        // 2 seconds apart, 1000 trials and 10 blocks in the window, run
        // started at 500 completed trials.
        let prev = snap(0, 1_500.0, 20.0);
        let next = snap(2_000_000, 2_500.0, 30.0);
        let line = render_report(&prev, &next, 500.0, 4_000);
        assert_eq!(
            line,
            "progress: 2000/4000 trials (50.0%)  500.0 trials/s  5.0 blocks/s  eta 4s"
        );
    }

    #[test]
    fn report_handles_stalls_and_completion() {
        let prev = snap(0, 100.0, 5.0);
        let stalled = render_report(&prev, &snap(1_000_000, 100.0, 5.0), 0.0, 200);
        assert!(stalled.contains("eta --"), "{stalled}");
        let finished = render_report(&prev, &snap(1_000_000, 200.0, 6.0), 0.0, 200);
        assert!(finished.ends_with("done"), "{finished}");
    }

    #[test]
    fn inert_without_env_and_clean_shutdown_with() {
        // start() without LEVY_PROGRESS must be inert.
        let inert = ProgressReporter::start(100);
        assert!(inert.handle.is_none());
        inert.finish();
        // An explicit reporter starts and stops cleanly.
        let reporter = ProgressReporter::start_with(100, Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(10));
        reporter.finish();
    }
}
