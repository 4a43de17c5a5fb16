//! The phase engine: one per-phase loop behind every hitting-time
//! simulation in this crate.
//!
//! A [`Walk`] holds one walk's state and [`Walk::advance`] runs its phases;
//! single-walk trials call it once for the whole budget, and the lanes of a
//! lockstep parallel trial call it once per time slice. Two optimizations
//! live here, both exactly distribution-preserving:
//!
//! 1. **Corridor early-rejection.** A direct path "closely follows" the
//!    real segment (Lemma 3.1): node `i` lies within L2 distance `1/√2` of
//!    the segment point `w_i`. [`levy_grid::direct_path_can_visit`] decides
//!    *exactly* whether a target is in the support of the marginal at `i`,
//!    so phases that provably cannot hit skip the marginal draw (and its
//!    tie-break word) entirely.
//! 2. **Lockstep `k`-walk advancement.** [`lockstep_parallel`] advances all
//!    `k` walks of a parallel trial in bounded time slices, so every lane
//!    stops within one slice of the earliest hit instead of simulating the
//!    full budget sequentially walk by walk.
//!
//! # Determinism: the two-stream discipline
//!
//! Each trial draws exactly **one** `u64` from the caller's RNG and splits
//! it into two hierarchical streams ([`levy_rng::SeedStream`]): a *geometry*
//! stream that feeds every jump-length and destination draw, and an
//! *auxiliary* stream that feeds the data-dependent tie-break draws of
//! [`levy_grid::direct_path_node_at`]. The geometry stream contains no
//! data-dependent draws, so skipping a tie-break draw on the auxiliary
//! stream never shifts a geometry word, and a future block sampler of the
//! geometry stream would consume exactly the words per-phase sampling
//! does. [`lockstep_parallel`] gives lane `j` the streams of
//! `master.child(j)`, so its result is independent of advancement order.

use levy_grid::{
    direct_path_can_enter_ball, direct_path_can_visit, direct_path_node_at, Point, Ring,
};
use levy_rng::{JumpLengthDistribution, ScalarPhases, SeedStream};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::observe::TrialObserver;

/// Time-slice length (in lattice steps) of the lockstep scheduler.
const SLICE: u64 = 512;

/// What a trial is searching for: membership plus an exact per-phase hit
/// check that consumes tie-break words from the auxiliary stream only.
pub(crate) trait Target: Copy {
    /// Whether `p` is inside the target (hit at time 0 when the start is).
    fn contains(&self, p: Point) -> bool;

    /// First time the phase `pos -> v` (length `d`, starting at time `t`)
    /// visits the target within `budget`, if it does.
    fn hit_in_phase(
        &self,
        pos: Point,
        v: Point,
        d: u64,
        t: u64,
        budget: u64,
        aux: &mut SmallRng,
    ) -> Option<u64>;
}

/// The unit target of Definition 3.7: a single node.
#[derive(Clone, Copy)]
pub(crate) struct PointTarget {
    pub(crate) target: Point,
}

impl Target for PointTarget {
    #[inline]
    fn contains(&self, p: Point) -> bool {
        p == self.target
    }

    /// The phase crosses ring `R_i(pos)` exactly once, so the target can
    /// only be met at path position `i = ||pos - target||_1`; the corridor
    /// predicate then rejects, without a draw, phases whose direct path
    /// cannot pass through the target at all (Lemma 3.1).
    #[inline]
    fn hit_in_phase(
        &self,
        pos: Point,
        v: Point,
        d: u64,
        t: u64,
        budget: u64,
        aux: &mut SmallRng,
    ) -> Option<u64> {
        let i = pos.l1_distance(self.target);
        if i > d {
            return None;
        }
        let hit = t.checked_add(i).filter(|&hit| hit <= budget)?;
        if direct_path_can_visit(pos, v, i, self.target)
            && direct_path_node_at(pos, v, i, aux) == self.target
        {
            Some(hit)
        } else {
            None
        }
    }
}

/// An extended target: the L1 ball `B_radius(center)`.
#[derive(Clone, Copy)]
pub(crate) struct BallTarget {
    pub(crate) center: Point,
    pub(crate) radius: u64,
}

impl Target for BallTarget {
    #[inline]
    fn contains(&self, p: Point) -> bool {
        p.l1_distance(self.center) <= self.radius
    }

    /// A phase of length `d` can first enter the ball only at positions
    /// `i ∈ [dist − r, min(d, dist + r)]` with `dist = ||pos − center||_1`;
    /// positions are checked in order (the hit is the FIRST entry), and the
    /// corridor predicate skips draws for positions whose entire marginal
    /// support lies outside the ball.
    #[inline]
    fn hit_in_phase(
        &self,
        pos: Point,
        v: Point,
        d: u64,
        t: u64,
        budget: u64,
        aux: &mut SmallRng,
    ) -> Option<u64> {
        let dist = pos.l1_distance(self.center);
        let first = dist.saturating_sub(self.radius).max(1);
        let last = dist.saturating_add(self.radius).min(d);
        for i in first..=last {
            let Some(hit) = t.checked_add(i).filter(|&hit| hit <= budget) else {
                break;
            };
            if !direct_path_can_enter_ball(pos, v, i, self.center, self.radius) {
                continue;
            }
            if direct_path_node_at(pos, v, i, aux).l1_distance(self.center) <= self.radius {
                return Some(hit);
            }
        }
        None
    }
}

/// One walk of a trial: its two RNG streams, position, clock, per-trial
/// draw tallies and observer.
struct Walk<'a, T: Target> {
    law: &'a JumpLengthDistribution,
    cap: Option<u64>,
    target: T,
    budget: u64,
    geom: SmallRng,
    aux: SmallRng,
    pos: Point,
    t: u64,
    phases: ScalarPhases,
    observer: Option<TrialObserver>,
}

impl<'a, T: Target> Walk<'a, T> {
    /// A walk at `start`, time 0, drawing geometry from `stream.child(0)`
    /// and tie-breaks from `stream.child(1)`.
    fn new(
        law: &'a JumpLengthDistribution,
        cap: Option<u64>,
        target: T,
        start: Point,
        budget: u64,
        stream: SeedStream,
    ) -> Self {
        Walk {
            law,
            cap,
            target,
            budget,
            geom: stream.child(0).rng(),
            aux: stream.child(1).rng(),
            pos: start,
            t: 0,
            phases: ScalarPhases::new(),
            observer: TrialObserver::begin(law.alpha(), start),
        }
    }

    /// Runs phases until the clock reaches `until` or the walk hits the
    /// target, returning the hit time.
    ///
    /// Every phase — including zero-length ones, which advance time by one
    /// step standing still — ends with an observer phase boundary. A phase
    /// that starts before `until` runs to its end, so the clock may pass
    /// `until`; the hit check always uses the trial's full budget.
    #[inline]
    fn advance(&mut self, until: u64) -> Option<u64> {
        while self.t < until {
            let (d, dir) = self.phases.next_phase(self.law, self.cap, &mut self.geom);
            if d == 0 {
                self.t += 1;
                self.phase_end();
                continue;
            }
            let v = Ring::new(self.pos, d).node_at(dir);
            if let Some(hit) =
                self.target
                    .hit_in_phase(self.pos, v, d, self.t, self.budget, &mut self.aux)
            {
                if let Some(observer) = &self.observer {
                    observer.on_hit(hit);
                }
                events::emit(events::Event::Hit(hit));
                return Some(hit);
            }
            self.t = self.t.saturating_add(d);
            self.pos = v;
            self.phase_end();
        }
        None
    }

    #[inline]
    fn phase_end(&mut self) {
        if let Some(observer) = &mut self.observer {
            observer.on_phase_end(self.t, self.pos);
        }
        events::emit(events::Event::PhaseEnd(self.t, self.pos));
    }
}

/// Runs one single-walk hitting trial: one word of the caller's RNG seeds
/// the trial's two streams, and the walk advances through the budget.
pub(crate) fn hitting_time_engine<R: Rng + ?Sized, T: Target>(
    law: &JumpLengthDistribution,
    cap: Option<u64>,
    target: T,
    start: Point,
    budget: u64,
    rng: &mut R,
) -> Option<u64> {
    if target.contains(start) {
        return Some(0);
    }
    let stream = SeedStream::new(rng.gen::<u64>());
    Walk::new(law, cap, target, start, budget, stream).advance(budget)
}

/// Advances `k` walks (lane `j` drawing from `laws[j]`) in lockstep time
/// slices of [`SLICE`] steps and returns the earliest hit `(time, lane)`.
///
/// Equivalent to taking the minimum of `k` independent single-walk trials
/// (ties broken towards the smallest lane index), but every lane stops
/// within one slice of the best hit found so far: a lane whose clock has
/// reached `min(budget, best)` can only hit strictly later than `best`
/// (its next phase ends at `t + d > best`), so retiring it is exact. Lanes
/// with an equal hit time are never retired early — their hit phase starts
/// strictly before `best` — so the smallest-index tie-break is exact too.
///
/// Determinism: one master word is drawn from `rng`; lane `j` uses the
/// geometry/auxiliary streams of `master.child(j)`, so results do not
/// depend on the interleaving of lane advancement.
pub(crate) fn lockstep_parallel<R: Rng + ?Sized>(
    laws: &[&JumpLengthDistribution],
    start: Point,
    target: Point,
    budget: u64,
    rng: &mut R,
) -> Option<(u64, usize)> {
    if laws.is_empty() {
        return None;
    }
    if start == target {
        return Some((0, 0));
    }
    let master = SeedStream::new(rng.gen::<u64>());
    let point = PointTarget { target };
    // `None` marks a retired lane (hit, or out of time before the cutoff).
    let mut lanes: Vec<Option<Walk<PointTarget>>> = laws
        .iter()
        .enumerate()
        .map(|(j, law)| {
            Some(Walk::new(
                law,
                None,
                point,
                start,
                budget,
                master.child(j as u64),
            ))
        })
        .collect();
    let mut best: Option<(u64, usize)> = None;
    let mut slice_end = SLICE.min(budget);
    loop {
        let mut all_retired = true;
        for (j, slot) in lanes.iter_mut().enumerate() {
            let Some(lane) = slot else {
                continue;
            };
            // `best` only changes when this lane hits, which ends its turn,
            // so the cutoff is fixed for the whole turn.
            let cutoff = best.map_or(budget, |(bt, _)| bt.min(budget));
            if let Some(hit) = lane.advance(slice_end.min(cutoff)) {
                if best.is_none_or(|(bt, bw)| hit < bt || (hit == bt && j < bw)) {
                    best = Some((hit, j));
                }
                *slot = None;
            } else if lane.t >= cutoff {
                *slot = None;
            } else {
                all_retired = false;
            }
        }
        if all_retired {
            return best;
        }
        let cutoff = best.map_or(budget, |(bt, _)| bt.min(budget));
        slice_end = slice_end.saturating_add(SLICE).min(cutoff);
    }
}

/// Test-only capture of the engine's observer-visible event stream, used
/// to pin the phase boundaries a trial reports.
#[cfg(test)]
pub(crate) mod events {
    use std::cell::RefCell;

    use levy_grid::Point;

    /// One observer-visible event of a trial.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Event {
        /// A phase ended: the walk is at the point after the given number
        /// of steps (zero-length phases advance the clock by one).
        PhaseEnd(u64, Point),
        /// The target was hit at the given time.
        Hit(u64),
    }

    thread_local! {
        static CAPTURE: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
    }

    /// Starts capturing events on this thread.
    pub fn start() {
        CAPTURE.with(|capture| *capture.borrow_mut() = Some(Vec::new()));
    }

    /// Stops capturing and returns the events recorded since [`start`].
    pub fn take() -> Vec<Event> {
        CAPTURE.with(|capture| capture.borrow_mut().take().unwrap_or_default())
    }

    #[inline]
    pub fn emit(event: Event) {
        CAPTURE.with(|capture| {
            if let Some(buffer) = capture.borrow_mut().as_mut() {
                buffer.push(event);
            }
        });
    }
}

/// Non-test stub: event emission compiles to nothing.
#[cfg(not(test))]
pub(crate) mod events {
    use levy_grid::Point;

    /// One observer-visible event of a trial (unused outside tests).
    #[derive(Debug, Clone, Copy)]
    #[allow(dead_code)] // fields are only read by the test-mode capture
    pub enum Event {
        /// A phase ended at the given time and position.
        PhaseEnd(u64, Point),
        /// The target was hit at the given time.
        Hit(u64),
    }

    #[inline(always)]
    pub fn emit(_event: Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting::levy_walk_hitting_time;
    use rand::SeedableRng;

    #[test]
    fn zero_length_phases_report_phase_boundaries() {
        // Zero-length phases are completed phases (one step standing
        // still): the event stream must show boundaries where the clock
        // advances by one and the position does not move.
        let jumps = JumpLengthDistribution::new(3.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        events::start();
        let _ = levy_walk_hitting_time(
            &jumps,
            Point::ORIGIN,
            Point::new(1_000_000, 0),
            64,
            &mut rng,
        );
        let events = events::take();
        let boundaries: Vec<(u64, Point)> = std::iter::once((0, Point::ORIGIN))
            .chain(events.iter().filter_map(|event| match event {
                events::Event::PhaseEnd(t, pos) => Some((*t, *pos)),
                events::Event::Hit(_) => None,
            }))
            .collect();
        assert!(boundaries.len() > 2, "expected several phases in 64 steps");
        for pair in boundaries.windows(2) {
            assert!(pair[1].0 > pair[0].0, "phase clock must strictly advance");
        }
        assert!(
            boundaries
                .windows(2)
                .any(|pair| pair[1].0 == pair[0].0 + 1 && pair[1].1 == pair[0].1),
            "a zero-length phase (P(d=0) = 1/2) must report a boundary"
        );
    }

    #[test]
    fn lockstep_is_deterministic() {
        let laws_owned: Vec<JumpLengthDistribution> = [2.1, 2.5, 2.9, 3.2]
            .iter()
            .map(|&alpha| JumpLengthDistribution::new(alpha).unwrap())
            .collect();
        let laws: Vec<&JumpLengthDistribution> = laws_owned.iter().collect();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50)
                .map(|_| {
                    lockstep_parallel(&laws, Point::ORIGIN, Point::new(8, 3), 20_000, &mut rng)
                })
                .collect::<Vec<_>>()
        };
        for seed in [1u64, 2, 3] {
            assert_eq!(run(seed), run(seed), "repeat determinism, seed {seed}");
        }
    }

    #[test]
    fn lockstep_equals_the_minimum_of_its_lanes_run_alone() {
        // Pathwise, not just in distribution: each lane run alone on its
        // own streams for the full budget, then the earliest hit (smallest
        // lane on ties), must be exactly what the sliced lockstep returns.
        // A far target spans many slices; a near one with many lanes makes
        // equal earliest hit times common, exercising the tie-break.
        let law_a = JumpLengthDistribution::new(2.2).unwrap();
        let law_b = JumpLengthDistribution::new(3.0).unwrap();
        let (far, near) = (Point::new(30, 11), Point::new(2, 1));
        for (laws, target, budget) in [
            (vec![&law_a, &law_b, &law_a], far, 6_000),
            (vec![&law_b; 16], near, 40),
        ] {
            let mut rng = SmallRng::seed_from_u64(0x10C5);
            let (mut hits, mut ties) = (0, 0);
            for _ in 0..200 {
                let mut replay = rng.clone();
                let master = SeedStream::new(replay.gen::<u64>());
                let alone: Vec<(u64, usize)> = laws
                    .iter()
                    .enumerate()
                    .filter_map(|(j, law)| {
                        let point = PointTarget { target };
                        Walk::new(
                            law,
                            None,
                            point,
                            Point::ORIGIN,
                            budget,
                            master.child(j as u64),
                        )
                        .advance(budget)
                        .map(|hit| (hit, j))
                    })
                    .collect();
                let best = alone.iter().min().copied();
                let lockstep = lockstep_parallel(&laws, Point::ORIGIN, target, budget, &mut rng);
                assert_eq!(lockstep, best, "target {target:?}");
                hits += usize::from(best.is_some());
                ties +=
                    usize::from(best.is_some_and(|(t, _)| {
                        alone.iter().filter(|(hit, _)| *hit == t).count() > 1
                    }));
            }
            assert!(hits > 0 && hits < 200, "a mix of hits and misses: {hits}");
            if target == near {
                assert!(ties > 0, "the near target must produce tied hits");
            }
        }
    }

    #[test]
    fn lockstep_handles_degenerate_inputs() {
        let law = JumpLengthDistribution::new(2.5).unwrap();
        let laws = [&law, &law];
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            lockstep_parallel(&[], Point::ORIGIN, Point::new(1, 0), 100, &mut rng),
            None,
            "no lanes, no hit"
        );
        assert_eq!(
            lockstep_parallel(&laws, Point::ORIGIN, Point::ORIGIN, 100, &mut rng),
            Some((0, 0)),
            "start on target"
        );
        assert_eq!(
            lockstep_parallel(&laws, Point::ORIGIN, Point::new(1, 0), 0, &mut rng),
            None,
            "zero budget"
        );
    }
}
