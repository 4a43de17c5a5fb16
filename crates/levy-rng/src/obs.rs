//! Draw-path instrumentation for the jump samplers.
//!
//! The hybrid table path costs ~5 ns/draw, so a shared atomic increment per
//! draw would be a measurable fraction of the thing being measured. Draw
//! tallies therefore accumulate in plain thread-local `Cell`s and flush to
//! the process-global [`levy_obs::Registry`] counters every
//! [`FLUSH_EVERY`] draws, when a thread exits (TLS destructor), and on an
//! explicit [`flush_draw_stats`] call (the trial runner does this at the
//! end of single-threaded runs, since the calling thread never exits).
//!
//! Rare events (table builds, cache evictions) hit their atomics directly.
//!
//! None of this consumes RNG words or alters control flow: seeded draw
//! sequences are identical with or without anything scraping the registry.

use std::cell::Cell;
use std::sync::OnceLock;

use levy_obs::{Counter, Registry};

/// Thread-local draws accumulated before a flush to the global counters.
const FLUSH_EVERY: u64 = 1024;

struct Globals {
    table_draws: Counter,
    devroye_draws: Counter,
    table_builds: Counter,
    cache_evictions: Counter,
}

fn globals() -> &'static Globals {
    static GLOBALS: OnceLock<Globals> = OnceLock::new();
    GLOBALS.get_or_init(|| {
        let registry = Registry::global();
        Globals {
            table_draws: registry.counter(
                "levy_rng_table_draws_total",
                "Jump draws resolved by the alias-table fast path.",
            ),
            devroye_draws: registry.counter(
                "levy_rng_devroye_draws_total",
                "Jump draws resolved by Devroye rejection (untabled laws and table tail fallbacks).",
            ),
            table_builds: registry.counter(
                "levy_rng_table_builds_total",
                "Alias-table constructions (cache misses and direct builds).",
            ),
            cache_evictions: registry.counter(
                "levy_rng_table_cache_evictions_total",
                "Interned jump tables evicted from the bounded cache.",
            ),
        }
    })
}

#[derive(Default)]
struct Local {
    table: Cell<u64>,
    devroye: Cell<u64>,
    pending: Cell<u64>,
}

impl Local {
    fn flush(&self) {
        let globals = globals();
        globals.table_draws.add(self.table.take());
        globals.devroye_draws.add(self.devroye.take());
        self.pending.set(0);
    }

    #[inline]
    fn bump_pending(&self) {
        let pending = self.pending.get() + 1;
        if pending >= FLUSH_EVERY {
            self.flush();
        } else {
            self.pending.set(pending);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: Local = Local::default();
}

/// Tallies one alias-table draw.
#[inline]
pub(crate) fn record_table_draw() {
    // `try_with` so draws during thread teardown are dropped, not panicked.
    let _ = LOCAL.try_with(|local| {
        local.table.set(local.table.get() + 1);
        local.bump_pending();
    });
}

/// Tallies one Devroye-resolved draw.
#[inline]
pub(crate) fn record_devroye_draw() {
    let _ = LOCAL.try_with(|local| {
        local.devroye.set(local.devroye.get() + 1);
        local.bump_pending();
    });
}

/// Tallies `n` alias-table draws at once. [`crate::ScalarPhases`] flushes
/// a trial's tally with this instead of `n` thread-local bumps: one shared
/// atomic add per trial is cheaper than the per-draw TLS path.
pub(crate) fn record_table_draws(n: u64) {
    if n > 0 {
        globals().table_draws.add(n);
    }
}

/// Tallies `n` Devroye-resolved draws at once (per-trial flushes).
pub(crate) fn record_devroye_draws(n: u64) {
    if n > 0 {
        globals().devroye_draws.add(n);
    }
}

/// Tallies one alias-table construction.
pub(crate) fn record_table_build() {
    globals().table_builds.inc();
}

/// Tallies one cache eviction.
pub(crate) fn record_cache_eviction() {
    globals().cache_evictions.inc();
}

/// Flushes this thread's batched draw tallies to the global counters.
///
/// Worker threads flush automatically on exit; long-lived threads (the
/// single-threaded runner path, benchmark loops) call this so scrapes see
/// their draws.
pub fn flush_draw_stats() {
    let _ = LOCAL.try_with(Local::flush);
}

thread_local! {
    /// Per-α histogram handles, cached so the hot path never touches the
    /// registry mutex after the first draw at a given α on this thread.
    static JUMP_SPECTRA: std::cell::RefCell<std::collections::HashMap<i64, levy_obs::Histogram>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Records one drawn jump length into the per-α log₂ spectrum,
/// `levy_rng_jump_length{alpha="..."}`.
///
/// Gated behind [`levy_obs::observers_enabled`] (one relaxed load when
/// off). The histogram's base-2 buckets *are* the log₂ spectrum: bucket
/// `i` counts draws with `d in (2^(i-1), 2^i]`, so under the paper's law
/// `P(d = i) = c_α / i^α` (Definition 3.3) consecutive bucket counts
/// decay by `~2^{1-α}` — a straight line in log-log that makes truncation
/// artifacts (à la Levernier et al.) visible at a glance.
///
/// α is bucketed to one decimal to bound label cardinality. Recording
/// never consumes RNG words: seeded draw sequences are byte-identical
/// with observers on or off.
#[inline]
pub(crate) fn record_jump_length(alpha: f64, d: u64) {
    if !levy_obs::observers_enabled() {
        return;
    }
    record_jump_length_slow(alpha, d);
}

#[cold]
fn record_jump_length_slow(alpha: f64, d: u64) {
    let key = (alpha * 10.0).round() as i64;
    let _ = JUMP_SPECTRA.try_with(|spectra| {
        let mut spectra = spectra.borrow_mut();
        let histogram = spectra.entry(key).or_insert_with(|| {
            Registry::global().histogram_with(
                "levy_rng_jump_length",
                "Drawn jump lengths; base-2 buckets form the per-alpha log2 spectrum.",
                &[("alpha", &format!("{:.1}", key as f64 / 10.0))],
            )
        });
        histogram.record(d);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_flush_on_thread_exit_and_on_demand() {
        let before_table = globals().table_draws.get();
        let before_devroye = globals().devroye_draws.get();

        std::thread::spawn(|| {
            for _ in 0..10 {
                record_table_draw();
            }
            record_devroye_draw();
        })
        .join()
        .unwrap();
        assert!(
            globals().table_draws.get() >= before_table + 10,
            "TLS flushed on exit"
        );
        assert!(globals().devroye_draws.get() > before_devroye);

        let before = globals().table_draws.get();
        record_table_draw();
        flush_draw_stats();
        assert!(globals().table_draws.get() > before, "explicit flush");
    }

    #[test]
    fn jump_spectrum_gated_and_draw_preserving() {
        use crate::{JumpLengthDistribution, SeedStream};

        let law = JumpLengthDistribution::new_untabled(1.7).unwrap();
        let draw_n = |n: usize| {
            let mut rng = SeedStream::new(99).child(0).rng();
            (0..n).map(|_| law.sample(&mut rng)).collect::<Vec<u64>>()
        };

        levy_obs::set_observers_enabled(false);
        let spectrum = levy_obs::Registry::global().histogram_with(
            "levy_rng_jump_length",
            "Drawn jump lengths; base-2 buckets form the per-alpha log2 spectrum.",
            &[("alpha", "1.7")],
        );
        let off = draw_n(500);
        let count_off = spectrum.count();

        levy_obs::set_observers_enabled(true);
        let on = draw_n(500);
        levy_obs::set_observers_enabled(false);

        assert_eq!(off, on, "observers must not perturb the draw sequence");
        assert!(
            spectrum.count() >= count_off + 500,
            "enabled observers record every draw"
        );
    }

    #[test]
    fn threshold_flush_reaches_globals_without_explicit_flush() {
        let before = globals().table_draws.get();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..(FLUSH_EVERY * 2) {
                    record_table_draw();
                }
                // No explicit flush: the threshold flush plus the TLS
                // destructor must account for everything.
            });
        });
        assert!(globals().table_draws.get() >= before + FLUSH_EVERY * 2);
    }
}
