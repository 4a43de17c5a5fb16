//! Seeded load generation: Poisson arrival schedules, a Zipf key sampler,
//! the open-loop sender that times every request from its due time, and
//! the closed-loop capacity probe.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

/// Arrival offsets (seconds from phase start) of a Poisson process at
/// `rate` per second over `seconds`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut SmallRng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Zipf(`s`) over ranks `0..n` (rank 0 most popular), sampled by binary
/// search over the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law with weight `1 / (rank + 1)^s` on each of `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Time source of the open-loop sender; the tests drive a fake one.
pub trait Clock {
    /// Seconds since the phase started.
    fn now(&self) -> f64;
    /// Blocks until `now() >= t` (returns at once when already late).
    fn sleep_until(&self, t: f64);
}

/// The real clock, anchored at the phase start shared by all senders.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose zero is `start`.
    pub fn new(start: Instant) -> WallClock {
        WallClock { start }
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// One open-loop request as the sender saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Completion minus due time, in seconds: the latency a user who
    /// arrived on schedule saw, including any wait behind a stall.
    pub latency: f64,
    /// Send minus due time: how late the generator ran.
    pub late: f64,
}

/// Sends each `(index, due)` request in order, no earlier than its due
/// time, and times it from that due time. A request that overruns its
/// successors' due times makes them late, and that lateness is charged
/// to their latency rather than hidden (no coordinated omission).
pub fn open_loop<C: Clock>(
    clock: &C,
    requests: &[(usize, f64)],
    mut op: impl FnMut(usize),
) -> Vec<Timing> {
    requests
        .iter()
        .map(|&(index, due)| {
            clock.sleep_until(due);
            let sent = clock.now();
            op(index);
            let done = clock.now();
            Timing {
                latency: done - due,
                late: sent - due,
            }
        })
        .collect()
}

/// Runs `schedule` open loop across `senders` threads (request `i` goes
/// to sender `i % senders`, one connection each). Timings come back in
/// schedule order.
pub fn open_loop_senders(
    schedule: &[f64],
    senders: usize,
    op: impl Fn(usize) + Sync,
) -> Vec<Timing> {
    let clock = WallClock::new(Instant::now());
    let mut timings = vec![
        Timing {
            latency: 0.0,
            late: 0.0,
        };
        schedule.len()
    ];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|sender| {
                let requests: Vec<(usize, f64)> = schedule
                    .iter()
                    .enumerate()
                    .skip(sender)
                    .step_by(senders)
                    .map(|(i, &due)| (i, due))
                    .collect();
                let (clock, op) = (&clock, &op);
                scope.spawn(move || {
                    let timings = open_loop(clock, &requests, op);
                    requests
                        .into_iter()
                        .map(|(i, _)| i)
                        .zip(timings)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, timing) in handle.join().expect("open-loop sender panicked") {
                timings[i] = timing;
            }
        }
    });
    timings
}

/// Outcome of a closed-loop phase.
#[derive(Debug, Clone)]
pub struct Capacity {
    /// Operations that succeeded.
    pub ok: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time until the last sender's last operation completed.
    pub seconds: f64,
    /// Successes per second in each whole window of the phase; their
    /// interquartile mean is the capacity, so a stall on a shared host
    /// costs one window, not the phase.
    pub window_rates: Vec<f64>,
}

/// Closed loop: `senders` threads each issue `op(sender, n)` back to
/// back (the `n`-th operation of that sender) until `seconds` pass.
/// Successes are counted per `window` seconds by completion time.
pub fn closed_loop(
    senders: usize,
    seconds: f64,
    window: f64,
    op: impl Fn(usize, u64) -> bool + Sync,
) -> Capacity {
    let start = Instant::now();
    let windows = (seconds / window).floor().max(1.0) as usize;
    let mut total = Capacity {
        ok: 0,
        failed: 0,
        seconds: 0.0,
        window_rates: Vec::new(),
    };
    let mut per_window = vec![0u64; windows];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|sender| {
                let op = &op;
                scope.spawn(move || {
                    let mut counts = vec![0u64; windows];
                    let (mut ok, mut failed, mut n) = (0u64, 0u64, 0u64);
                    while start.elapsed().as_secs_f64() < seconds {
                        if op(sender, n) {
                            ok += 1;
                            let w = (start.elapsed().as_secs_f64() / window) as usize;
                            if let Some(count) = counts.get_mut(w) {
                                *count += 1;
                            }
                        } else {
                            failed += 1;
                        }
                        n += 1;
                    }
                    (ok, failed, counts)
                })
            })
            .collect();
        for handle in handles {
            let (ok, failed, counts) = handle.join().expect("closed-loop sender panicked");
            total.ok += ok;
            total.failed += failed;
            for (sum, count) in per_window.iter_mut().zip(counts) {
                *sum += count;
            }
        }
    });
    total.seconds = start.elapsed().as_secs_f64();
    total.window_rates = per_window.iter().map(|&c| c as f64 / window).collect();
    total
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use levy_rng::SeedStream;

    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(2000.0, 30.0, &mut SeedStream::new(9).rng());
        let b = poisson_schedule(2000.0, 30.0, &mut SeedStream::new(9).rng());
        let c = poisson_schedule(2000.0, 30.0, &mut SeedStream::new(10).rng());
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals increase");
        let mean_gap = a.last().unwrap() / a.len() as f64;
        let expected = 1.0 / 2000.0;
        assert!(
            ((mean_gap - expected) / expected).abs() < 0.02,
            "mean gap {mean_gap} vs 1/rate {expected}"
        );
    }

    #[test]
    fn zipf_rank_one_frequency_matches_the_law() {
        let n = 4096;
        let zipf = Zipf::new(n, 1.0);
        let mut rng = SeedStream::new(3).rng();
        let draws = 200_000;
        let top = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let expected = 1.0 / harmonic;
        let observed = top as f64 / draws as f64;
        assert!(
            ((observed - expected) / expected).abs() < 0.03,
            "rank-1 frequency {observed} vs {expected}"
        );
        assert!((0..1000).all(|_| zipf.sample(&mut rng) < n));
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(100, &mut SeedStream::new(1).rng());
        let mut seen = p.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(p, permutation(100, &mut SeedStream::new(1).rng()));
    }

    /// A clock that only moves when the operation under test says so.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stalled_sender_charges_its_lateness_to_later_requests() {
        let clock = FakeClock(Cell::new(0.0));
        let requests = [(0, 0.0), (1, 0.010), (2, 0.020), (3, 0.030), (4, 0.100)];
        // Request 0 stalls for 50 ms; the rest take 1 ms each.
        let timings = open_loop(&clock, &requests, |i| {
            let cost = if i == 0 { 0.050 } else { 0.001 };
            clock.0.set(clock.0.get() + cost);
        });
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(timings[0].latency, 0.050) && close(timings[0].late, 0.0));
        // Due at 10 ms, sent at 50 ms when the stall ended, done at 51 ms.
        assert!(close(timings[1].late, 0.040) && close(timings[1].latency, 0.041));
        assert!(close(timings[2].late, 0.031) && close(timings[2].latency, 0.032));
        assert!(close(timings[3].late, 0.022) && close(timings[3].latency, 0.023));
        // The backlog has drained by 100 ms: back on schedule.
        assert!(close(timings[4].late, 0.0) && close(timings[4].latency, 0.001));
    }
}
