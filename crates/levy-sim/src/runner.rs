//! Multi-threaded trial execution with deterministic seeding.
//!
//! Experiments run many independent trials whose per-trial cost is itself
//! heavy-tailed: a hitting-time trial either finds the target early and
//! returns in microseconds or burns its full step budget. Static contiguous
//! chunking (one chunk per worker) therefore leaves most cores idle behind
//! whichever chunk drew the expensive trials. This runner instead uses
//! **work stealing over an atomic trial counter**: workers repeatedly claim
//! small blocks of trial indices (block size shrinks as the queue drains)
//! and write each result into its pre-assigned slot.
//!
//! Determinism is preserved exactly as before: each trial `i` derives its
//! RNG from `SeedStream::child(i)` and results are placed by trial index,
//! so output is bit-identical regardless of thread count or scheduling:
//! a trial's draws depend only on its own `child(i)` streams, never on
//! which worker ran it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use levy_rng::SeedStream;
use rand::rngs::SmallRng;

/// Cooperative cancellation handle for long-running trial batches.
///
/// A token is shared between the party that may abandon a computation
/// (e.g. an HTTP handler whose client timed out) and the workers running
/// it: workers poll [`is_cancelled`](CancelToken::is_cancelled) between
/// trial blocks and stop claiming work once it fires. Cancellation is
/// *cooperative* — a trial that is already running completes; the
/// granularity is one stolen block (at most [`MAX_BLOCK`] trials).
///
/// Cloning shares the underlying flag.
///
/// # Examples
///
/// ```
/// use levy_sim::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent and visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Number of worker threads to use by default: the `LEVY_THREADS`
/// environment variable if set to a positive integer (wired through
/// `scripts/run_all_experiments.sh --threads N`), otherwise the machine's
/// available parallelism, at least 1.
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var("LEVY_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper bound on a stolen block, keeping the tail of the trial queue
/// finely divisible even for huge runs.
const MAX_BLOCK: u64 = 1024;

/// Claims the next block of trial indices `[start, end)`, or `None` when
/// the queue is drained.
///
/// Guided self-scheduling: block size is `remaining / (4 · threads)`
/// clamped to `[1, MAX_BLOCK]`, so early blocks are large (low contention)
/// and late blocks shrink to single trials (no straggler serializes more
/// than one expensive trial behind it).
#[inline]
fn claim_block(next: &AtomicU64, trials: u64, threads: u64) -> Option<(u64, u64)> {
    loop {
        let cur = next.load(Ordering::Relaxed);
        if cur >= trials {
            return None;
        }
        let remaining = trials - cur;
        let block = (remaining / (4 * threads)).clamp(1, MAX_BLOCK);
        let end = cur + block;
        if next
            .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Some((cur, end));
        }
    }
}

/// Runs `trials` independent trials of `f`, in parallel, returning results
/// in trial order.
///
/// Each trial `i` receives its own RNG derived from `seeds.child(i)`; `f`
/// must be deterministic given `(i, rng)` for reproducibility. Workers
/// steal shrinking index blocks from a shared atomic counter, so
/// heavy-tailed per-trial costs spread across cores instead of serializing
/// behind the slowest contiguous chunk — while results remain bit-identical
/// for every thread count.
///
/// # Examples
///
/// ```
/// use levy_rng::SeedStream;
/// use levy_sim::run_trials;
/// use rand::Rng;
///
/// let results = run_trials(100, SeedStream::new(7), 4, |i, rng| {
///     let noise: f64 = rng.gen();
///     i as f64 + noise
/// });
/// assert_eq!(results.len(), 100);
/// // Deterministic across runs and thread counts:
/// let again = run_trials(100, SeedStream::new(7), 2, |i, rng| {
///     let noise: f64 = rng.gen();
///     i as f64 + noise
/// });
/// assert_eq!(results, again);
/// ```
pub fn run_trials<T, F>(trials: u64, seeds: SeedStream, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    run_trials_cancellable(trials, seeds, threads, &CancelToken::new(), f)
        .expect("uncancelled run completes")
}

/// [`run_trials`] with a cooperative [`CancelToken`]: returns `None` (and
/// discards any partial results) if `cancel` fires before the queue
/// drains. Workers poll the token once per stolen block, so cancellation
/// latency is bounded by the cost of one block of trials.
pub fn run_trials_cancellable<T, F>(
    trials: u64,
    seeds: SeedStream,
    threads: usize,
    cancel: &CancelToken,
    f: F,
) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    let metrics = crate::obs::runner_metrics();
    let threads = threads.max(1).min(trials.max(1) as usize);
    if threads == 1 {
        let mut out = Vec::with_capacity(trials as usize);
        for start in (0..trials).step_by(MAX_BLOCK as usize) {
            if cancel.is_cancelled() {
                metrics.runs_cancelled.inc();
                return None;
            }
            let end = (start + MAX_BLOCK).min(trials);
            metrics.trials_started.add(end - start);
            for i in start..end {
                let mut rng = seeds.child(i).rng();
                out.push(f(i, &mut rng));
            }
            metrics.trials_completed.add(end - start);
        }
        // This thread outlives the run, so its buffered sampler tallies
        // only reach the registry via an explicit flush.
        levy_rng::flush_draw_stats();
        return Some(out);
    }
    let next = AtomicU64::new(0);
    let mut buckets: Vec<Vec<(u64, T)>> = Vec::with_capacity(threads);
    let mut aborted = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(u64, T)> = Vec::new();
                while !cancel.is_cancelled() {
                    let Some((start, end)) = claim_block(next, trials, threads as u64) else {
                        return (out, false);
                    };
                    metrics.steal_blocks.inc();
                    metrics.trials_started.add(end - start);
                    out.reserve(end.saturating_sub(start) as usize);
                    for i in start..end {
                        let mut rng = seeds.child(i).rng();
                        out.push((i, f(i, &mut rng)));
                    }
                    metrics.trials_completed.add(end - start);
                }
                (out, true)
            }));
        }
        for h in handles {
            let (bucket, worker_aborted) = h.join().expect("trial worker panicked");
            aborted |= worker_aborted;
            buckets.push(bucket);
        }
    });
    if aborted {
        metrics.runs_cancelled.inc();
        return None;
    }
    // Place results into their pre-assigned slots, restoring trial order.
    let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    for bucket in buckets {
        for (i, value) in bucket {
            slots[i as usize] = Some(value);
        }
    }
    Some(
        slots
            .into_iter()
            .map(|slot| slot.expect("every trial index claimed exactly once"))
            .collect(),
    )
}

/// Counts, in parallel, the trials for which `predicate` holds.
///
/// Unlike [`run_trials`], no per-trial results are materialized: each
/// worker keeps a `u64` partial sum over the blocks it steals and the
/// partials are added at the end.
pub fn count_trials<F>(trials: u64, seeds: SeedStream, threads: usize, predicate: F) -> u64
where
    F: Fn(u64, &mut SmallRng) -> bool + Sync,
{
    count_trials_offset(trials, 0, seeds, threads, predicate)
}

/// Counts trials like [`count_trials`], but over the global trial indices
/// `[offset, offset + trials)`: trial `i` derives its RNG from
/// `seeds.child(offset + i)` and `predicate` receives `offset + i`.
///
/// This is the batched-extension primitive behind
/// [`estimate_probability`](crate::estimate_probability): an adaptive run
/// that consumes trials `0..n` and later `n..m` observes exactly the
/// trials a single non-adaptive run of `m` trials would.
pub fn count_trials_offset<F>(
    trials: u64,
    offset: u64,
    seeds: SeedStream,
    threads: usize,
    predicate: F,
) -> u64
where
    F: Fn(u64, &mut SmallRng) -> bool + Sync,
{
    count_trials_offset_cancellable(
        trials,
        offset,
        seeds,
        threads,
        &CancelToken::new(),
        predicate,
    )
    .expect("uncancelled count completes")
}

/// [`count_trials_offset`] with a cooperative [`CancelToken`]: returns
/// `None` if `cancel` fires before all `trials` are counted.
pub fn count_trials_offset_cancellable<F>(
    trials: u64,
    offset: u64,
    seeds: SeedStream,
    threads: usize,
    cancel: &CancelToken,
    predicate: F,
) -> Option<u64>
where
    F: Fn(u64, &mut SmallRng) -> bool + Sync,
{
    let metrics = crate::obs::runner_metrics();
    let threads = threads.max(1).min(trials.max(1) as usize);
    if threads == 1 {
        let mut hits: u64 = 0;
        for start in (0..trials).step_by(MAX_BLOCK as usize) {
            if cancel.is_cancelled() {
                metrics.runs_cancelled.inc();
                return None;
            }
            let end = (start + MAX_BLOCK).min(trials);
            metrics.trials_started.add(end - start);
            for i in start..end {
                let global = offset + i;
                let mut rng = seeds.child(global).rng();
                if predicate(global, &mut rng) {
                    hits += 1;
                }
            }
            metrics.trials_completed.add(end - start);
        }
        levy_rng::flush_draw_stats();
        return Some(hits);
    }
    let next = AtomicU64::new(0);
    let mut total: u64 = 0;
    let mut aborted = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let predicate = &predicate;
            handles.push(scope.spawn(move || {
                let mut hits: u64 = 0;
                while !cancel.is_cancelled() {
                    let Some((start, end)) = claim_block(next, trials, threads as u64) else {
                        return (hits, false);
                    };
                    metrics.steal_blocks.inc();
                    metrics.trials_started.add(end - start);
                    for i in start..end {
                        let global = offset + i;
                        let mut rng = seeds.child(global).rng();
                        if predicate(global, &mut rng) {
                            hits += 1;
                        }
                    }
                    metrics.trials_completed.add(end - start);
                }
                (hits, true)
            }));
        }
        for h in handles {
            let (hits, worker_aborted) = h.join().expect("trial worker panicked");
            aborted |= worker_aborted;
            total += hits;
        }
    });
    if aborted {
        metrics.runs_cancelled.inc();
        return None;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_preserve_trial_order() {
        let out = run_trials(1000, SeedStream::new(0), 8, |i, _| i);
        assert_eq!(out, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 { rng.gen::<u64>() ^ i };
        let a = run_trials(257, SeedStream::new(5), 1, f);
        let b = run_trials(257, SeedStream::new(5), 3, f);
        let c = run_trials(257, SeedStream::new(5), 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn deterministic_on_skewed_workloads() {
        // Trial 0 is ~1000x slower than the rest: the scheduler must not
        // let the skew leak into results (bit-identical across thread
        // counts, in order), only into timing.
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 {
            let spins = if i == 0 { 100_000 } else { 100 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            }
            acc ^ rng.gen::<u64>()
        };
        let a = run_trials(97, SeedStream::new(11), 1, f);
        let b = run_trials(97, SeedStream::new(11), 3, f);
        let c = run_trials(97, SeedStream::new(11), 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn zero_trials_yield_empty() {
        let out: Vec<u64> = run_trials(0, SeedStream::new(1), 4, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let f = |_: u64, rng: &mut rand::rngs::SmallRng| rng.gen::<u64>();
        let a = run_trials(10, SeedStream::new(1), 2, f);
        let b = run_trials(10, SeedStream::new(2), 2, f);
        assert_ne!(a, b);
    }

    #[test]
    fn count_trials_counts() {
        let n = count_trials(100, SeedStream::new(3), 4, |i, _| i % 4 == 0);
        assert_eq!(n, 25);
    }

    #[test]
    fn count_matches_run_then_filter() {
        let seeds = SeedStream::new(17);
        let predicate = |_: u64, rng: &mut rand::rngs::SmallRng| rng.gen::<f64>() < 0.37;
        let counted = count_trials(5_000, seeds, 8, predicate);
        let collected = run_trials(5_000, seeds, 8, predicate)
            .into_iter()
            .filter(|&b| b)
            .count() as u64;
        assert_eq!(counted, collected);
    }

    #[test]
    fn count_offset_extends_a_prefix_run() {
        // Counting [0, 300) must equal count([0, 100)) + count([100, 300)).
        let seeds = SeedStream::new(23);
        let predicate =
            |i: u64, rng: &mut rand::rngs::SmallRng| (rng.gen::<u64>() ^ i).is_multiple_of(3);
        let whole = count_trials(300, seeds, 4, predicate);
        let head = count_trials_offset(100, 0, seeds, 4, predicate);
        let tail = count_trials_offset(200, 100, seeds, 4, predicate);
        assert_eq!(whole, head + tail);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let out = run_trials(3, SeedStream::new(9), 64, |i, _| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 { rng.gen::<u64>() ^ i };
        let plain = run_trials(513, SeedStream::new(31), 4, f);
        let tokened =
            run_trials_cancellable(513, SeedStream::new(31), 4, &CancelToken::new(), f).unwrap();
        assert_eq!(plain, tokened);
        let counted = count_trials_offset_cancellable(
            513,
            0,
            SeedStream::new(31),
            4,
            &CancelToken::new(),
            |i, rng| f(i, rng) % 2 == 0,
        )
        .unwrap();
        assert_eq!(
            counted,
            count_trials(513, SeedStream::new(31), 4, |i, rng| f(i, rng) % 2 == 0)
        );
    }

    #[test]
    fn pre_cancelled_run_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        assert!(run_trials_cancellable(100, SeedStream::new(1), 1, &token, |i, _| i).is_none());
        assert!(run_trials_cancellable(5_000, SeedStream::new(1), 4, &token, |i, _| i).is_none());
        assert!(
            count_trials_offset_cancellable(100, 0, SeedStream::new(1), 1, &token, |_, _| true)
                .is_none()
        );
    }

    #[test]
    fn mid_run_cancellation_stops_workers() {
        // The token fires from inside a trial; the run must abort (None)
        // well before all trials execute. Executed-trial count is tracked
        // to show cancellation actually short-circuited the queue.
        use std::sync::atomic::AtomicU64 as Counter;
        let token = CancelToken::new();
        let executed = Counter::new(0);
        let trials: u64 = 1_000_000;
        let out = run_trials_cancellable(trials, SeedStream::new(2), 4, &token, |i, _| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 10 {
                token.cancel();
            }
            i
        });
        assert!(out.is_none());
        assert!(
            executed.load(Ordering::Relaxed) < trials,
            "cancellation should stop the queue early"
        );
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
