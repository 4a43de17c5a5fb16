//! Hybrid table/Devroye jump sampling.
//!
//! The Devroye rejection sampler ([`sample_zeta`](crate::sample_zeta)) is
//! exact for every `α > 1` but pays several `powf` calls per draw — the
//! innermost loop of every hitting-time experiment. This module removes
//! the transcendental ops from ~all draws without giving up exactness:
//!
//! * [`JumpTable`] — a Walker/Vose **alias table** over the full jump law
//!   `{0} ∪ {1, …, cutoff} ∪ {tail}`: a single uniform 64-bit word (high
//!   bits = slot, low bits = acceptance fraction) decides almost every
//!   draw in O(1) with no `powf`;
//! * the `tail` outcome (mass `P(d > cutoff)`, below `10⁻⁶` across the
//!   experimental `α` range and `≲ 3%` even at `α = 1.5`) falls back to
//!   [`sample_zeta_above`], an exact
//!   Devroye-style rejection sampler *conditioned on* `d > cutoff` — so
//!   the hybrid law is the jump law of Eq. (3) exactly (up to the same
//!   f64 rounding any sampler has);
//! * a bounded global cache interns tables by exponent bit pattern, so
//!   every `JumpLengthDistribution::new(α)` for a repeated `α` (fixed
//!   exponents, sweep grids) reuses one table with zero construction cost;
//!   when the cache is full the oldest entry is evicted and rebuilt on
//!   demand, so a request is *always* served — the RNG stream a tabled
//!   distribution consumes never depends on cache state.

use std::sync::{Arc, OnceLock, RwLock};

use rand::Rng;

use crate::power_law::MAX_JUMP;
use crate::zeta::{riemann_zeta, zeta_tail};

/// Hard cap on the number of tabled jump lengths, chosen so the slot count
/// (`cutoff` head slots + the zero slot + the tail sentinel, padded to a
/// power of two) never exceeds 4 Ki entries ≈ 64 KiB per table.
/// Deliberately cache-sized, not coverage-sized: alias draws address
/// uniformly random slots, so a table that spills out of L2 pays a cache
/// miss (tens of ns) on *every* draw, while routing the residual tail to
/// the exact Devroye fallback costs `tail_mass × ~60 ns` — below
/// 1.5 ns/draw even at `α = 1.5` and vanishing for `α ≥ 2`. A 16× larger
/// table was measured strictly slower on the trial hot path for exactly
/// this reason. The power-of-two slot count is load-bearing: it lets one
/// uniform 64-bit word drive the whole draw (high bits pick the slot, the
/// low 52 bits are the acceptance fraction) with no Lemire rejection step.
pub const MAX_TABLE_CUTOFF: u64 = (1 << 12) - 2;

/// Target residual tail mass: the cutoff is chosen so the table covers at
/// least `1 − 2⁻³²` of the jump law when that is achievable within
/// [`MAX_TABLE_CUTOFF`] entries (it is for `α ≳ 3.6`; for heavier tails
/// the cutoff caps out and the Devroye fallback absorbs the difference).
pub const TARGET_TAIL_MASS: f64 = 1.0 / (1u64 << 32) as f64;

/// Number of low bits of the draw word used as the acceptance fraction;
/// the bits above them select the slot. 52 fraction bits leave 12 slot
/// bits, matching the 4 Ki slot cap, and quantize each Vose acceptance
/// probability at 2⁻⁵² — finer than the f64 arithmetic that produced it.
const FRAC_BITS: u32 = 52;

/// Mask extracting the acceptance fraction from a draw word.
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;

/// One Vose slot: acceptance threshold and alias index interleaved so a
/// draw touches exactly one random cache line, not one per array.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Vose acceptance probability, fixed-point in units of 2⁻⁵² (so the
    /// accept test is an integer compare against the draw word's low bits;
    /// probability 1 is `1 << 52`, above every possible fraction).
    thresh: u64,
    /// Vose alias (slot index taken when the fraction meets the threshold).
    alias: u32,
}

/// Alias table over the full jump-length law of Eq. (3).
///
/// Outcome encoding: slot `0` is the zero-length jump (mass 1/2), slots
/// `1..=cutoff` are the tabled zeta head, slot `cutoff + 1` is the tail
/// sentinel resolved by [`sample_zeta_above`], and any remaining slots up
/// to the power-of-two count are zero-mass padding that always aliases
/// into the real outcomes.
///
/// # Examples
///
/// ```
/// use levy_rng::JumpTable;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let table = JumpTable::new(2.5, 1024);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let d = table.sample(&mut rng);
/// assert!(d <= levy_rng::MAX_JUMP);
/// ```
#[derive(Debug, Clone)]
pub struct JumpTable {
    alpha: f64,
    cutoff: u64,
    /// Residual tail mass `P(d > cutoff)` routed to the Devroye fallback.
    tail_mass: f64,
    /// Interleaved Vose slots (see [`Slot`]); the length is a power of two
    /// so one 64-bit word addresses a slot by shift-and-mask.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: right-shift distance taking a draw word
    /// to its slot index.
    slot_shift: u32,
}

impl JumpTable {
    /// Builds the alias table for exponent `alpha` with the head tabled up
    /// to `cutoff`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1`, `cutoff == 0`, or `cutoff` exceeds
    /// [`MAX_TABLE_CUTOFF`].
    pub fn new(alpha: f64, cutoff: u64) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1");
        assert!(
            (1..=MAX_TABLE_CUTOFF).contains(&cutoff),
            "cutoff must be in 1..={MAX_TABLE_CUTOFF}"
        );
        let zeta_alpha = riemann_zeta(alpha);
        let norm = 1.0 / (2.0 * zeta_alpha);
        // Outcomes: zero slot, the tabled head, the tail sentinel — then
        // zero-mass padding up to a power of two so a draw word addresses
        // a slot by shift alone. Padded slots always alias (threshold 0)
        // and are consumed first by the Vose pairing below, so they can
        // never surface as an outcome.
        let occupied = cutoff as usize + 2;
        let n = occupied.next_power_of_two();
        let mut masses = Vec::with_capacity(n);
        masses.push(0.5);
        for i in 1..=cutoff {
            masses.push(norm * (i as f64).powf(-alpha));
        }
        let tail_mass = norm * zeta_tail(alpha, cutoff + 1);
        masses.push(tail_mass);
        masses.resize(n, 0.0);

        // Walker/Vose alias construction over the (re-normalized) masses.
        // Each padded slot drains exactly one unit of large capacity; the
        // zero slot alone holds `n/2` units and the padding is at most
        // `n − occupied < n/2`, so the large pile outlives every zero-mass
        // slot and no padded slot is ever left aliasing itself.
        let total: f64 = masses.iter().sum();
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = masses.iter().map(|&m| m * scale).collect();
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (float residue) keep prob = 1.0: they alias to
        // themselves, which is exactly right at machine precision.

        crate::obs::record_table_build();
        let slots = prob
            .into_iter()
            .zip(alias)
            .map(|(prob, alias)| Slot {
                thresh: (prob * (1u64 << FRAC_BITS) as f64).round() as u64,
                alias,
            })
            .collect();
        JumpTable {
            alpha,
            cutoff,
            tail_mass,
            slots,
            slot_shift: 64 - n.trailing_zeros(),
        }
    }

    /// Builds a table whose cutoff is the smallest value leaving at most
    /// [`TARGET_TAIL_MASS`] to the fallback, capped at
    /// [`MAX_TABLE_CUTOFF`].
    pub fn with_target_tail(alpha: f64) -> Self {
        JumpTable::new(alpha, cutoff_for(alpha))
    }

    /// The exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Largest tabled jump length; draws beyond it use the exact Devroye
    /// tail sampler.
    pub fn cutoff(&self) -> u64 {
        self.cutoff
    }

    /// Residual mass `P(d > cutoff)` routed to the fallback.
    pub fn tail_mass(&self) -> f64 {
        self.tail_mass
    }

    /// Draws one jump length from the full law of Eq. (3).
    ///
    /// Cost: one uniform 64-bit word, one table lookup — plus, with
    /// probability [`Self::tail_mass`], an exact conditioned Devroye draw.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (d, via_table) = self.sample_raw(rng);
        if via_table {
            crate::obs::record_table_draw();
        } else {
            crate::obs::record_devroye_draw();
        }
        d
    }

    /// Draws one jump length without recording draw-path tallies; the flag
    /// says whether the alias table resolved it (`false` = the Devroye tail
    /// fallback did). Per-trial phase sources use this and tally in bulk;
    /// the RNG words consumed are identical to [`Self::sample`].
    #[inline]
    pub(crate) fn sample_raw<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, bool) {
        // One word does the whole draw: the top `log2(slots.len())` bits
        // select a slot (exact because the slot count is a power of two),
        // the low 52 bits are the Vose acceptance fraction compared as an
        // integer against the slot's fixed-point threshold. The bit ranges
        // never overlap: the slot field sits at bit `slot_shift ≥ 52`.
        let w = rng.gen::<u64>();
        let slot = (w >> self.slot_shift) as usize;
        let entry = self.slots[slot];
        let outcome = if (w & FRAC_MASK) < entry.thresh {
            slot
        } else {
            entry.alias as usize
        };
        if outcome as u64 <= self.cutoff {
            // Slot 0 is the zero jump; slots 1..=cutoff are literal lengths.
            (outcome as u64, true)
        } else {
            // Tail sentinel (index `cutoff + 1`; padded slots have
            // threshold 0 and never surface as outcomes).
            debug_assert_eq!(outcome as u64, self.cutoff + 1);
            (sample_zeta_above(self.alpha, self.cutoff, rng), false)
        }
    }
}

/// Smallest cutoff leaving at most [`TARGET_TAIL_MASS`] of the jump law
/// untabled, clamped to `[64, MAX_TABLE_CUTOFF]`.
pub fn cutoff_for(alpha: f64) -> u64 {
    assert!(alpha > 1.0);
    let zeta_alpha = riemann_zeta(alpha);
    let tail_at = |m: u64| zeta_tail(alpha, m + 1) / (2.0 * zeta_alpha);
    if tail_at(MAX_TABLE_CUTOFF) > TARGET_TAIL_MASS {
        return MAX_TABLE_CUTOFF;
    }
    let (mut lo, mut hi) = (64u64, MAX_TABLE_CUTOFF);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if tail_at(mid) <= TARGET_TAIL_MASS {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Draws from the zeta law `P(X = x) ∝ x^{-alpha}` **conditioned on
/// `x > m`**, exactly, via Devroye-style rejection with a shifted Pareto
/// proposal.
///
/// With `m = 0` this is the classic Devroye zeta sampler. The proposal is
/// `X = ⌊(m+1)·U^{-1/(α-1)}⌋ ≥ m+1`; the acceptance test uses the ratio
/// `r(x) = t/(x(t-1))`, `t = (1+1/x)^{α-1}`, which is non-increasing in
/// `x`, so the bound at `x = m+1` dominates (for `m = 0` this reduces to
/// the textbook constant `b = 2^{α-1}`).
///
/// Draws larger than [`MAX_JUMP`] saturate, as in
/// [`sample_zeta`](crate::sample_zeta).
///
/// # Panics
///
/// Panics in debug builds if `alpha <= 1`.
pub fn sample_zeta_above<R: Rng + ?Sized>(alpha: f64, m: u64, rng: &mut R) -> u64 {
    debug_assert!(alpha > 1.0);
    let am1 = alpha - 1.0;
    let base = (m + 1) as f64;
    let t_base = (1.0 + 1.0 / base).powf(am1);
    loop {
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        let x_real = base * u.powf(-1.0 / am1);
        if x_real.is_nan() || x_real >= MAX_JUMP as f64 {
            return MAX_JUMP;
        }
        let x = x_real.floor();
        let t = (1.0 + 1.0 / x).powf(am1);
        if v * x * (t - 1.0) / (base * (t_base - 1.0)) <= t / t_base {
            return x as u64;
        }
    }
}

/// Bound on interned tables: at ~64 KiB each this caps cache memory at
/// ~4 MiB, far beyond what any experiment sweep reaches in practice.
const CACHE_CAP: usize = 64;

type TableCache = RwLock<Vec<(u64, Arc<JumpTable>)>>;

static TABLE_CACHE: OnceLock<TableCache> = OnceLock::new();

/// Returns the interned table for `alpha`, building and caching it on
/// first use.
///
/// The cache is read-mostly: lookups take a shared lock, so concurrent
/// workers reusing interned exponents do not serialize on each other. When
/// more than [`CACHE_CAP`] distinct exponents have been interned, the
/// oldest entry is evicted (insertion order — true LRU would need a
/// recency write on every hit, defeating the shared-lock read path) and a
/// re-requested evicted exponent simply rebuilds its table. A request is
/// therefore *always* served, so a sweep over arbitrarily many exponents
/// never silently loses the table speedup, and the RNG words a tabled
/// distribution consumes are a function of the exponent alone — never of
/// cache admission order, thread scheduling, or which experiments ran
/// earlier in the process.
///
/// Workloads drawing a fresh continuous exponent per trial (e.g.
/// `ExponentStrategy::UniformSuperdiffusive`, a fresh α per walk) should
/// not intern at all — paying a table build for a distribution sampled a
/// handful of times is the wrong cost model and would thrash the cache.
/// They use `JumpLengthDistribution::new_untabled`, which never calls
/// this function.
pub(crate) fn cached_table(alpha: f64) -> Arc<JumpTable> {
    let bits = alpha.to_bits();
    let cache = TABLE_CACHE.get_or_init(|| RwLock::new(Vec::new()));
    {
        let guard = cache.read().expect("jump-table cache poisoned");
        if let Some((_, table)) = guard.iter().find(|(b, _)| *b == bits) {
            return Arc::clone(table);
        }
    }
    // Build outside the lock: construction is ~ms-scale for big tables.
    let table = Arc::new(JumpTable::with_target_tail(alpha));
    let mut guard = cache.write().expect("jump-table cache poisoned");
    if let Some((_, existing)) = guard.iter().find(|(b, _)| *b == bits) {
        return Arc::clone(existing);
    }
    if guard.len() >= CACHE_CAP {
        guard.remove(0);
        crate::obs::record_cache_eviction();
    }
    guard.push((bits, Arc::clone(&table)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_law::sample_zeta;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn acceptance_ratio_is_non_increasing() {
        // Correctness of the conditioned rejection sampler relies on
        // r(x) = t/(x(t-1)) being non-increasing; probe a wide grid.
        for alpha in [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0] {
            let am1 = alpha - 1.0;
            let r = |x: f64| {
                let t = (1.0 + 1.0 / x).powf(am1);
                t / (x * (t - 1.0))
            };
            let mut prev = f64::INFINITY;
            for x in (1..2000u64).chain([1 << 14, 1 << 20, 1 << 40]) {
                let val = r(x as f64);
                assert!(
                    val <= prev * (1.0 + 1e-12),
                    "alpha={alpha}, x={x}: r increased {prev} -> {val}"
                );
                prev = val;
            }
        }
    }

    #[test]
    fn tail_sampler_stays_above_threshold() {
        let mut rng = SmallRng::seed_from_u64(1);
        for m in [0u64, 1, 7, 100, 4096] {
            for _ in 0..2_000 {
                let x = sample_zeta_above(2.2, m, &mut rng);
                assert!(x > m, "m={m}: drew {x}");
            }
        }
    }

    #[test]
    fn tail_sampler_with_m_zero_matches_classic_devroye() {
        // Same conditional law as the unconditioned sampler: compare
        // small-value frequencies.
        let alpha = 2.0;
        let n = 200_000u64;
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts_above = [0u64; 6];
        let mut counts_classic = [0u64; 6];
        for _ in 0..n {
            let a = sample_zeta_above(alpha, 0, &mut rng);
            if a <= 5 {
                counts_above[a as usize] += 1;
            }
            let c = sample_zeta(alpha, &mut rng);
            if c <= 5 {
                counts_classic[c as usize] += 1;
            }
        }
        for i in 1..=5usize {
            let pa = counts_above[i] as f64 / n as f64;
            let pc = counts_classic[i] as f64 / n as f64;
            let sigma = (pa.max(pc) / n as f64).sqrt();
            assert!(
                (pa - pc).abs() < 6.0 * sigma + 1e-3,
                "i={i}: above {pa} vs classic {pc}"
            );
        }
    }

    #[test]
    fn tail_sampler_matches_conditional_pmf() {
        // P(X = m+1 | X > m) = (m+1)^{-α} / Σ_{j>m} j^{-α}.
        let alpha = 2.5;
        let m = 10u64;
        let n = 300_000u64;
        let mut rng = SmallRng::seed_from_u64(3);
        let mut first = 0u64;
        for _ in 0..n {
            if sample_zeta_above(alpha, m, &mut rng) == m + 1 {
                first += 1;
            }
        }
        let expected = ((m + 1) as f64).powf(-alpha) / zeta_tail(alpha, m + 1);
        let observed = first as f64 / n as f64;
        let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
        assert!(
            (observed - expected).abs() < 5.0 * sigma + 1e-3,
            "obs {observed} vs exp {expected}"
        );
    }

    #[test]
    fn table_masses_reflect_pmf() {
        let alpha = 2.5;
        let table = JumpTable::new(alpha, 256);
        let n = 400_000u64;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut zeros = 0u64;
        let mut ones = 0u64;
        for _ in 0..n {
            match table.sample(&mut rng) {
                0 => zeros += 1,
                1 => ones += 1,
                _ => {}
            }
        }
        let norm = 1.0 / (2.0 * riemann_zeta(alpha));
        let p0 = zeros as f64 / n as f64;
        let p1 = ones as f64 / n as f64;
        assert!((p0 - 0.5).abs() < 0.005, "P(0) = {p0}");
        assert!((p1 - norm).abs() < 0.005, "P(1) = {p1} vs {norm}");
    }

    #[test]
    fn table_tail_outcomes_exceed_cutoff() {
        // A tiny cutoff makes the tail branch frequent; every tail draw
        // must land strictly above the cutoff.
        let table = JumpTable::new(1.5, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut beyond = 0u64;
        for _ in 0..50_000 {
            let d = table.sample(&mut rng);
            if d > 4 {
                beyond += 1;
            }
        }
        let expected = table.tail_mass();
        let observed = beyond as f64 / 50_000.0;
        assert!(
            (observed - expected).abs() < 0.01,
            "tail freq {observed} vs mass {expected}"
        );
    }

    #[test]
    fn padded_slots_never_surface() {
        // cutoff 130 → 132 occupied outcomes padded to 256 slots: nearly
        // half the table is zero-mass padding. Every padded slot must have
        // threshold 0 (so strict `<` never accepts it) and alias into a
        // real outcome, and the high-bit slot addressing must be exact.
        let cutoff = 130u64;
        let table = JumpTable::new(2.0, cutoff);
        let n = table.slots.len();
        assert!(n.is_power_of_two());
        assert_eq!(n, 256);
        assert_eq!(u64::from(table.slot_shift), 64 - n.trailing_zeros() as u64);
        let occupied = cutoff as usize + 2;
        for (i, slot) in table.slots.iter().enumerate().skip(occupied) {
            assert_eq!(slot.thresh, 0, "padded slot {i} can self-select");
            assert!(
                (slot.alias as usize) < occupied,
                "padded slot {i} aliases to padding ({})",
                slot.alias
            );
        }
        // Empirically: no draw resolved by the table may exceed the cutoff.
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200_000 {
            let (d, via_table) = table.sample_raw(&mut rng);
            if via_table {
                assert!(d <= cutoff, "table produced out-of-range outcome {d}");
            } else {
                assert!(d > cutoff);
            }
        }
    }

    #[test]
    fn cutoff_for_meets_target_or_caps() {
        // Light tails reach the 2^-32 target well below the cap.
        let c5 = cutoff_for(5.0);
        assert!(c5 < MAX_TABLE_CUTOFF, "alpha=5.0 cutoff {c5}");
        let zeta = riemann_zeta(5.0);
        assert!(zeta_tail(5.0, c5 + 1) / (2.0 * zeta) <= TARGET_TAIL_MASS);
        // Heavy tails cap out at the cache-sized limit; the Devroye
        // fallback absorbs the (still small) residual mass exactly.
        assert_eq!(cutoff_for(1.5), MAX_TABLE_CUTOFF);
        assert_eq!(cutoff_for(2.5), MAX_TABLE_CUTOFF);
        assert!(
            JumpTable::with_target_tail(1.5).tail_mass() < 0.03,
            "even the heaviest experimental tail stays cheap to route"
        );
    }

    #[test]
    fn cached_tables_are_shared_and_cap_evicts_rather_than_refuses() {
        // One test (not two) so the flood below cannot race the ptr_eq
        // check through the process-global cache.
        let a = cached_table(2.875);
        let b = cached_table(2.875);
        assert!(Arc::ptr_eq(&a, &b));
        // Intern more distinct exponents than the cache holds: every
        // request must still be served (eviction, not refusal), so sweeps
        // past CACHE_CAP alphas keep the table path.
        for i in 0..(CACHE_CAP + 8) {
            let alpha = 4.0 + i as f64 * 0.015_625;
            let t = cached_table(alpha);
            assert_eq!(t.alpha(), alpha);
        }
        // An evicted exponent is rebuilt on demand with identical shape
        // (tables are pure functions of α, so eviction never changes draws).
        let c = cached_table(2.875);
        assert_eq!(c.alpha(), a.alpha());
        assert_eq!(c.cutoff(), a.cutoff());
        assert_eq!(c.tail_mass(), a.tail_mass());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn zero_cutoff_rejected() {
        let _ = JumpTable::new(2.0, 0);
    }
}
