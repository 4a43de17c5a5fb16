//! The paper's jump-length distribution (Eq. 3) and exact samplers for it.
//!
//! A jump of a Lévy flight/walk with exponent `α ∈ (1, ∞)` has length
//!
//! ```text
//! P(d = 0) = 1/2,      P(d = i) = c_α / i^α   for i >= 1,
//! ```
//!
//! with `c_α = 1 / (2 ζ(α))` so the law is a probability distribution. The
//! positive part is the zeta (discrete Pareto / Zipf) distribution; we sample
//! it **exactly** with Devroye's rejection method (expected O(1) per draw,
//! valid for every `α > 1`, no truncation bias), and cross-check against a
//! table-inversion sampler in tests.

use std::sync::Arc;

use rand::Rng;

use crate::hybrid::{cached_table, JumpTable};
use crate::zeta::{riemann_zeta, zeta_partial_sum, zeta_tail};

/// Smallest exponent accepted, mirroring the paper's standing assumption
/// `α >= 1 + ε` (Remark 3.5).
pub const MIN_EXPONENT: f64 = 1.000_001;

/// Jump lengths can in principle be astronomically large in the ballistic
/// regime; draws are saturated at this value (≈ 4.6·10^18) so conversions
/// stay exact. At every exponent and scale used in the experiments the
/// probability of reaching the cap is far below 2^-60.
pub const MAX_JUMP: u64 = 1 << 62;

/// The full jump-length law of Eq. (3): zero w.p. 1/2, else zeta-distributed.
///
/// # Examples
///
/// ```
/// use levy_rng::JumpLengthDistribution;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let jumps = JumpLengthDistribution::new(2.5).unwrap();
/// let mut rng = SmallRng::seed_from_u64(0);
/// let d = jumps.sample(&mut rng);
/// assert!(d <= levy_rng::MAX_JUMP);
/// // pmf(0) = 1/2 by definition.
/// assert!((jumps.pmf(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct JumpLengthDistribution {
    alpha: f64,
    /// `c_α = 1 / (2 ζ(α))`.
    norm: f64,
    /// Cached `ζ(α)`.
    zeta_alpha: f64,
    /// Shared alias table for the head of the law (`None` only when built
    /// via [`Self::new_untabled`]).
    table: Option<Arc<JumpTable>>,
}

impl PartialEq for JumpLengthDistribution {
    fn eq(&self, other: &Self) -> bool {
        // `norm`/`zeta_alpha` are functions of `alpha` and the table is an
        // interned accelerator, so the exponent alone identifies the law.
        self.alpha.to_bits() == other.alpha.to_bits()
    }
}

/// Which sampler resolved a raw draw (for bulk tallying in [`ScalarPhases`]).
///
/// Mirrors the tallying of [`JumpLengthDistribution::sample`]: table and
/// Devroye draws are counted, the untabled zero-coin outcome is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrawPath {
    /// The alias table resolved the draw (tabled laws, head or zero slot).
    Table,
    /// A Devroye rejection sampler resolved the draw.
    Devroye,
    /// The untabled coin yielded a zero-length jump (never tallied).
    ZeroCoin,
}

/// Error returned when a distribution is given an out-of-range exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidExponentError {
    /// What was supplied (bit pattern preserved via Debug formatting).
    requested_millis: i64,
}

impl core::fmt::Display for InvalidExponentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "exponent {} is outside the paper's admissible range (1, ∞)",
            self.requested_millis as f64 / 1000.0
        )
    }
}

impl std::error::Error for InvalidExponentError {}

impl JumpLengthDistribution {
    /// Creates the jump law for exponent `alpha`.
    ///
    /// The returned law always carries the interned alias-table accelerator
    /// (see [`crate::JumpTable`]): attachment is unconditional, so the RNG
    /// words [`Self::sample`] consumes are a function of the exponent alone
    /// — never of global cache state, thread scheduling, or process
    /// history. Reproducibility of seeded experiments relies on this.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidExponentError`] if `alpha` is not finite or is below
    /// `1 + ε` (Remark 3.5 of the paper assumes `α >= 1 + ε`).
    pub fn new(alpha: f64) -> Result<Self, InvalidExponentError> {
        let mut law = Self::new_untabled(alpha)?;
        law.table = Some(cached_table(alpha));
        Ok(law)
    }

    /// Creates the jump law without the alias-table accelerator: every
    /// positive draw goes through the Devroye rejection sampler.
    ///
    /// Use this for throwaway distributions that are sampled only a few
    /// times — in particular for workloads drawing a fresh continuous
    /// exponent per trial (strategy-drawn parallel walks), where a table
    /// build per handful of draws is wasted work — and as the baseline in
    /// sampler benchmarks. The sampled law is identical to
    /// [`JumpLengthDistribution::new`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidExponentError`] under the same conditions as
    /// [`JumpLengthDistribution::new`].
    pub fn new_untabled(alpha: f64) -> Result<Self, InvalidExponentError> {
        if !alpha.is_finite() || alpha < MIN_EXPONENT {
            return Err(InvalidExponentError {
                requested_millis: (alpha * 1000.0) as i64,
            });
        }
        let zeta_alpha = riemann_zeta(alpha);
        Ok(JumpLengthDistribution {
            alpha,
            norm: 1.0 / (2.0 * zeta_alpha),
            zeta_alpha,
            table: None,
        })
    }

    /// Largest jump length resolved by the alias table, or `None` when the
    /// distribution runs pure Devroye sampling.
    pub fn table_cutoff(&self) -> Option<u64> {
        self.table.as_ref().map(|t| t.cutoff())
    }

    /// The exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The normalizing constant `c_α = 1 / (2 ζ(α))`.
    #[inline]
    pub fn normalizing_constant(&self) -> f64 {
        self.norm
    }

    /// Probability mass `P(d = i)`.
    pub fn pmf(&self, i: u64) -> f64 {
        if i == 0 {
            0.5
        } else {
            self.norm * (i as f64).powf(-self.alpha)
        }
    }

    /// Tail probability `P(d >= i)` for `i >= 1` (Eq. 4 of the paper:
    /// `Θ(1 / i^{α-1})`).
    pub fn tail(&self, i: u64) -> f64 {
        if i == 0 {
            1.0
        } else {
            self.norm * zeta_tail(self.alpha, i)
        }
    }

    /// Cumulative probability `P(d <= i)`.
    pub fn cdf(&self, i: u64) -> f64 {
        0.5 + self.norm * zeta_partial_sum(self.alpha, i)
    }

    /// Mean jump length `E[d]`, or `None` if it is unbounded (`α <= 2`).
    ///
    /// For `α > 2`: `E[d] = ζ(α-1) / (2 ζ(α))`.
    pub fn mean(&self) -> Option<f64> {
        if self.alpha > 2.0 {
            Some(riemann_zeta(self.alpha - 1.0) / (2.0 * self.zeta_alpha))
        } else {
            None
        }
    }

    /// Second moment `E[d²]`, or `None` if unbounded (`α <= 3`).
    pub fn second_moment(&self) -> Option<f64> {
        if self.alpha > 3.0 {
            Some(riemann_zeta(self.alpha - 2.0) / (2.0 * self.zeta_alpha))
        } else {
            None
        }
    }

    /// Draws a jump length: 0 with probability 1/2, otherwise a zeta draw.
    ///
    /// Dispatches to the shared alias table when built via [`Self::new`]
    /// (see [`crate::JumpTable`]); uses the coin + Devroye path when built
    /// via [`Self::new_untabled`]. Both paths sample exactly the law of
    /// Eq. (3), but they consume the RNG differently, so switching
    /// constructors changes individual draws (not the distribution).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (d, path) = self.sample_raw(rng);
        match path {
            DrawPath::Table => crate::obs::record_table_draw(),
            DrawPath::Devroye => crate::obs::record_devroye_draw(),
            DrawPath::ZeroCoin => {}
        }
        crate::obs::record_jump_length(self.alpha, d);
        d
    }

    /// Draws one jump length without recording any observability tallies,
    /// reporting which sampler resolved it. Consumes exactly the RNG words
    /// [`Self::sample`] would; [`ScalarPhases`] uses it and tallies in bulk.
    #[inline]
    pub(crate) fn sample_raw<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, DrawPath) {
        match &self.table {
            Some(table) => {
                let (d, via_table) = table.sample_raw(rng);
                let path = if via_table {
                    DrawPath::Table
                } else {
                    DrawPath::Devroye
                };
                (d, path)
            }
            None => {
                if rng.gen::<bool>() {
                    (0, DrawPath::ZeroCoin)
                } else {
                    (sample_zeta(self.alpha, rng), DrawPath::Devroye)
                }
            }
        }
    }

    /// Draws a jump length conditioned on `d <= cap` (used for the
    /// truncated-jump ablation, mirroring event `E_t` of Lemma 4.5).
    ///
    /// Implemented by rejection, so it remains exact; `cap` must be at
    /// least 1 or only zero jumps would remain... zero jumps are always
    /// within any cap, so every `cap >= 0` is admissible.
    pub fn sample_truncated<R: Rng + ?Sized>(&self, rng: &mut R, cap: u64) -> u64 {
        loop {
            let d = self.sample(rng);
            if d <= cap {
                return d;
            }
        }
    }
}

/// Per-phase jump geometry for one trial: each phase's length and
/// destination ring index, drawn word for word as [`sample_truncated`]
/// (or [`sample`] when uncapped) followed by one bounded-uniform index.
///
/// Draw-path tallies accumulate locally and flush to the shared counters
/// when the source is dropped, once per trial instead of once per draw.
///
/// [`sample_truncated`]: JumpLengthDistribution::sample_truncated
/// [`sample`]: JumpLengthDistribution::sample
#[derive(Debug)]
pub struct ScalarPhases {
    /// Per-α spectrum gate, hoisted to construction (recording never
    /// consumes RNG words, so the hoist cannot shift the stream).
    spectrum_on: bool,
    table_draws: u64,
    devroye_draws: u64,
}

impl ScalarPhases {
    /// Creates a phase source for one trial.
    #[allow(clippy::new_without_default)] // a trial-scoped source, not a value type
    pub fn new() -> Self {
        ScalarPhases {
            spectrum_on: levy_obs::observers_enabled(),
            table_draws: 0,
            devroye_draws: 0,
        }
    }

    /// Draws the next phase's `(length, destination index)`: the
    /// truncated-length rejection loop, then one bounded-uniform index into
    /// the `4·d` nodes of the ring `R_d` for positive lengths (`0` for a
    /// zero-length phase).
    #[inline]
    pub fn next_phase<R: Rng + ?Sized>(
        &mut self,
        law: &JumpLengthDistribution,
        cap: Option<u64>,
        rng: &mut R,
    ) -> (u64, u64) {
        let cap = cap.unwrap_or(u64::MAX);
        let d = loop {
            let (d, path) = law.sample_raw(rng);
            match path {
                DrawPath::Table => self.table_draws += 1,
                DrawPath::Devroye => self.devroye_draws += 1,
                DrawPath::ZeroCoin => {}
            }
            if self.spectrum_on {
                crate::obs::record_jump_length(law.alpha(), d);
            }
            if d <= cap {
                break d;
            }
        };
        let dir = if d > 0 { rng.gen_range(0..4 * d) } else { 0 };
        (d, dir)
    }
}

impl Drop for ScalarPhases {
    fn drop(&mut self) {
        crate::obs::record_table_draws(self.table_draws);
        crate::obs::record_devroye_draws(self.devroye_draws);
    }
}

/// Draws from the zeta distribution `P(X = i) ∝ i^{-alpha}`, `i >= 1`,
/// using Devroye's rejection algorithm (exact; expected O(1) draws).
///
/// Draws larger than [`MAX_JUMP`] are saturated (probability < 2^-60 for all
/// `α >= 1.5`; see the module docs).
///
/// # Panics
///
/// Panics in debug builds if `alpha <= 1`.
pub fn sample_zeta<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> u64 {
    debug_assert!(alpha > 1.0);
    let am1 = alpha - 1.0;
    let b = 2f64.powf(am1);
    loop {
        let u: f64 = rng.gen::<f64>();
        let v: f64 = rng.gen::<f64>();
        // X = floor(U^{-1/(α-1)}) — the continuous-Pareto proposal.
        let x_real = u.powf(-1.0 / am1);
        if x_real.is_nan() || x_real >= MAX_JUMP as f64 {
            // Beyond the saturation point; accept the cap (astronomically
            // rare — see MAX_JUMP docs).
            return MAX_JUMP;
        }
        let x = x_real.floor();
        let t = (1.0 + 1.0 / x).powf(am1);
        if v * x * (t - 1.0) / (b - 1.0) <= t / b {
            return x as u64;
        }
    }
}

/// Truncated zeta distribution sampled by table inversion.
///
/// Supports the conditional law `P(X = i | X <= cap) ∝ i^{-α}` on
/// `1..=cap`. Used to cross-validate [`sample_zeta`] and to drive the
/// bounded-jump ablation efficiently when `cap` is small.
#[derive(Debug, Clone)]
pub struct ZetaTable {
    alpha: f64,
    /// Cumulative (unnormalized) sums of `i^{-α}` for `i = 1..=cap`.
    cumulative: Vec<f64>,
}

impl ZetaTable {
    /// Builds the inversion table for exponent `alpha` truncated at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1` or `cap == 0`.
    pub fn new(alpha: f64, cap: u64) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1");
        assert!(cap >= 1, "cap must be at least 1");
        let mut cumulative = Vec::with_capacity(cap as usize);
        let mut acc = 0.0;
        for i in 1..=cap {
            acc += (i as f64).powf(-alpha);
            cumulative.push(acc);
        }
        ZetaTable { alpha, cumulative }
    }

    /// The exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The truncation cap.
    pub fn cap(&self) -> u64 {
        self.cumulative.len() as u64
    }

    /// Draws from the truncated zeta law by binary-searching the table.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let total = *self.cumulative.last().expect("non-empty table");
        let u = rng.gen::<f64>() * total;
        // partition_point returns the count of entries < u, which is the
        // zero-based index of the first entry >= u; values are 1-based.
        let idx = self.cumulative.partition_point(|&c| c < u);
        (idx as u64 + 1).min(self.cap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_phases_consume_the_per_phase_sampling_words() {
        // The two-stream discipline rests on this: a phase is exactly the
        // truncated length draw plus one destination index, so the
        // geometry stream holds no other words.
        let tabled = JumpLengthDistribution::new(2.5).unwrap();
        let untabled = JumpLengthDistribution::new_untabled(2.2).unwrap();
        for (law, cap) in [
            (&tabled, None),
            (&tabled, Some(20)),
            (&untabled, None),
            (&untabled, Some(5)),
        ] {
            let mut reference_rng = SmallRng::seed_from_u64(42);
            let mut phases_rng = reference_rng.clone();
            let mut phases = ScalarPhases::new();
            for _ in 0..500 {
                let d = match cap {
                    Some(cap) => law.sample_truncated(&mut reference_rng, cap),
                    None => law.sample(&mut reference_rng),
                };
                let dir = if d > 0 {
                    reference_rng.gen_range(0..4 * d)
                } else {
                    0
                };
                assert_eq!(phases.next_phase(law, cap, &mut phases_rng), (d, dir));
            }
        }
    }

    #[test]
    fn rejects_invalid_exponents() {
        assert!(JumpLengthDistribution::new(1.0).is_err());
        assert!(JumpLengthDistribution::new(0.5).is_err());
        assert!(JumpLengthDistribution::new(f64::NAN).is_err());
        assert!(JumpLengthDistribution::new(f64::INFINITY).is_err());
        assert!(JumpLengthDistribution::new(2.0).is_ok());
        let err = JumpLengthDistribution::new(0.5).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn pmf_sums_to_one() {
        for alpha in [1.5, 2.0, 2.5, 3.0, 4.0] {
            let d = JumpLengthDistribution::new(alpha).unwrap();
            // 0.5 + Σ pmf(i) over a long range + analytic tail ≈ 1.
            let head: f64 = (1..=10_000u64).map(|i| d.pmf(i)).sum();
            let total = 0.5 + head + d.tail(10_001);
            assert!((total - 1.0).abs() < 1e-9, "alpha={alpha}: {total}");
        }
    }

    #[test]
    fn cdf_and_tail_are_complementary() {
        let d = JumpLengthDistribution::new(2.3).unwrap();
        for i in [1u64, 7, 100, 5000] {
            let total = d.cdf(i) + d.tail(i + 1);
            assert!((total - 1.0).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn mean_exists_iff_alpha_above_two() {
        assert!(JumpLengthDistribution::new(1.9).unwrap().mean().is_none());
        assert!(JumpLengthDistribution::new(2.0).unwrap().mean().is_none());
        let m = JumpLengthDistribution::new(3.0).unwrap().mean().unwrap();
        // E[d] = ζ(2)/(2ζ(3)) ≈ 1.6449/2.4041 ≈ 0.684.
        assert!((m - 0.684).abs() < 0.01, "mean = {m}");
    }

    #[test]
    fn second_moment_exists_iff_alpha_above_three() {
        assert!(JumpLengthDistribution::new(2.9)
            .unwrap()
            .second_moment()
            .is_none());
        assert!(JumpLengthDistribution::new(3.0)
            .unwrap()
            .second_moment()
            .is_none());
        assert!(JumpLengthDistribution::new(3.5)
            .unwrap()
            .second_moment()
            .is_some());
    }

    #[test]
    fn half_of_samples_are_zero() {
        let d = JumpLengthDistribution::new(2.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let n = 100_000;
        let zeros = (0..n).filter(|_| d.sample(&mut rng) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "zero fraction {frac}");
    }

    #[test]
    fn devroye_sampler_matches_pmf_on_small_values() {
        // Empirical frequencies of the zeta sampler vs analytic pmf.
        for alpha in [1.5, 2.2, 3.0] {
            let mut rng = SmallRng::seed_from_u64(77);
            let n = 200_000u64;
            let mut counts = [0u64; 9];
            for _ in 0..n {
                let x = sample_zeta(alpha, &mut rng);
                if x <= 8 {
                    counts[x as usize] += 1;
                }
            }
            let z = riemann_zeta(alpha);
            for i in 1..=8u64 {
                let expected = (i as f64).powf(-alpha) / z;
                let observed = counts[i as usize] as f64 / n as f64;
                let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
                assert!(
                    (observed - expected).abs() < 5.0 * sigma + 1e-4,
                    "alpha={alpha}, i={i}: obs {observed} vs exp {expected}"
                );
            }
        }
    }

    #[test]
    fn devroye_tail_matches_eq4_scaling() {
        // Eq. (4): P(d >= i) = Θ(1/i^{α-1}). Check the zeta part directly.
        let alpha = 2.5;
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 400_000u64;
        let mut over_100 = 0u64;
        for _ in 0..n {
            if sample_zeta(alpha, &mut rng) >= 100 {
                over_100 += 1;
            }
        }
        let expected = zeta_tail(alpha, 100) / riemann_zeta(alpha);
        let observed = over_100 as f64 / n as f64;
        let sigma = (expected / n as f64).sqrt();
        assert!(
            (observed - expected).abs() < 5.0 * sigma + 1e-5,
            "obs {observed} vs exp {expected}"
        );
    }

    #[test]
    fn table_sampler_agrees_with_devroye_conditionally() {
        // Conditioned on X <= cap both samplers follow the same law; compare
        // their frequencies on 1..=cap.
        let alpha = 2.0;
        let cap = 16u64;
        let table = ZetaTable::new(alpha, cap);
        let mut rng = SmallRng::seed_from_u64(21);
        let n = 150_000u64;
        let mut table_counts = vec![0u64; cap as usize + 1];
        let mut devroye_counts = vec![0u64; cap as usize + 1];
        let mut devroye_n = 0u64;
        for _ in 0..n {
            table_counts[table.sample(&mut rng) as usize] += 1;
        }
        while devroye_n < n {
            let x = sample_zeta(alpha, &mut rng);
            if x <= cap {
                devroye_counts[x as usize] += 1;
                devroye_n += 1;
            }
        }
        for i in 1..=cap as usize {
            let p_t = table_counts[i] as f64 / n as f64;
            let p_d = devroye_counts[i] as f64 / n as f64;
            let sigma = (p_t.max(p_d).max(1e-6) / n as f64).sqrt();
            assert!(
                (p_t - p_d).abs() < 6.0 * sigma + 2e-3,
                "i={i}: table {p_t} vs devroye {p_d}"
            );
        }
    }

    #[test]
    fn new_attaches_table_and_untabled_does_not() {
        let tabled = JumpLengthDistribution::new(2.5).unwrap();
        assert!(tabled.table_cutoff().is_some());
        let plain = JumpLengthDistribution::new_untabled(2.5).unwrap();
        assert!(plain.table_cutoff().is_none());
        // Same law regardless of the accelerator.
        assert_eq!(tabled, plain);
    }

    #[test]
    fn tabled_and_untabled_agree_on_small_value_frequencies() {
        let alpha = 2.5;
        let tabled = JumpLengthDistribution::new(alpha).unwrap();
        let plain = JumpLengthDistribution::new_untabled(alpha).unwrap();
        let n = 200_000u64;
        let mut rng = SmallRng::seed_from_u64(40);
        let mut freq = |d: &JumpLengthDistribution| {
            let mut counts = [0u64; 4];
            for _ in 0..n {
                let x = d.sample(&mut rng);
                if x <= 3 {
                    counts[x as usize] += 1;
                }
            }
            counts
        };
        let a = freq(&tabled);
        let b = freq(&plain);
        for i in 0..4 {
            let pa = a[i] as f64 / n as f64;
            let pb = b[i] as f64 / n as f64;
            assert!((pa - pb).abs() < 0.01, "i={i}: tabled {pa} vs plain {pb}");
        }
    }

    #[test]
    fn truncated_sampling_respects_cap() {
        let d = JumpLengthDistribution::new(1.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(d.sample_truncated(&mut rng, 50) <= 50);
        }
    }

    #[test]
    fn table_rejects_bad_arguments() {
        let result = std::panic::catch_unwind(|| ZetaTable::new(0.9, 10));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| ZetaTable::new(2.0, 0));
        assert!(result.is_err());
    }

    #[test]
    fn ballistic_exponent_produces_long_jumps() {
        // For α = 1.5 jumps beyond 10^4 must occur at plausible frequency
        // (tail ~ i^{-1/2}): among 100k draws expect ≈ 100k·Θ(0.01).
        let mut rng = SmallRng::seed_from_u64(6);
        let long = (0..100_000)
            .filter(|_| sample_zeta(1.5, &mut rng) > 10_000)
            .count();
        assert!(long > 200, "too few long jumps: {long}");
    }
}
