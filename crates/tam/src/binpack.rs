//! Rectangle bin-packing wrapper/TAM co-optimization.
//!
//! The co-optimization family this module reproduces (Islam/Karim et
//! al., arXiv 1008.3320 / 1008.4446 — the rectangle-packing line the
//! paper's ref 14 opened) models each core as a set of *rectangles*: one
//! per Pareto-optimal wrapper configuration, with the TAM width on one
//! axis and the resulting core test time on the other. SOC test
//! scheduling then becomes strip packing: place one rectangle per core
//! inside a strip of height `width` (the total TAM budget) so the strip
//! length — the SOC test time — is minimized.
//!
//! The heuristic implemented here is the *diagonal-length-first* packer
//! of arXiv 1008.4446:
//!
//! 1. **Pareto candidates** ([`pareto_candidates`]): sweep each core's
//!    wrapper design over `1..=width` and keep only the widths that
//!    strictly reduce test time. Wrapper design is best-fit-decreasing
//!    ([`design_wrapper`]), so wider never means slower and the kept set
//!    is a staircase of genuinely distinct rectangles.
//! 2. **Diagonal order**: cores are placed in decreasing diagonal length
//!    of their widest (fastest) rectangle — `time² + width²` compared in
//!    integer arithmetic — so the rectangles that dominate either axis
//!    land first. Ties break on ascending core index; the order (and
//!    everything downstream) is fully deterministic.
//! 3. **Best-fit width with idle-time backfill**: each core tries every
//!    candidate width at every schedule event point (time zero and each
//!    placed end), taking the earliest feasible start per width and the
//!    placement with the smallest end time overall; ties prefer the
//!    narrower rectangle (leaving wires free), then the earlier start.
//!    Because *every* event point is a candidate start, a small
//!    late-placed rectangle slides backwards into idle windows left
//!    between earlier placements instead of growing the strip.
//! 4. **Wire assignment**: placements are mapped onto concrete TAM wire
//!    indices afterwards (lowest-free-index first). Feasibility at every
//!    event point guarantees enough simultaneously-free wires exist —
//!    the interval-graph argument: a `w`-wire test is `w` unit tasks
//!    with identical intervals, and greedy coloring by start time needs
//!    no more colors than the maximum concurrent demand.
//!
//! The power-constrained variant lives in [`crate::constraints`]; it
//! funnels into the same packer with a concurrent-power feasibility
//! term. Packing is single-threaded per SOC and free of iteration-order
//! ambiguity, so results are byte-stable across runs and `--jobs`
//! values (the repo-wide determinism contract).

use modsoc_metrics::{Counter, MetricsSink};

use crate::error::TamError;
use crate::schedule;
use crate::wrapper::{design_wrapper, WrapperCore};

/// One Pareto-optimal wrapper configuration of a core: a rectangle of
/// `width` TAM wires by `time` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectCandidate {
    /// Wrapper chain count / TAM wires consumed.
    pub width: usize,
    /// Core test time at this width, in TAM cycles.
    pub time: u64,
}

/// The Pareto rectangle set of one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreRectangles {
    /// Index of the core in the input slice (the deterministic
    /// tie-break key).
    pub core: usize,
    /// Core name.
    pub name: String,
    /// Pareto candidates in ascending width order; the last entry is the
    /// widest and fastest rectangle.
    pub candidates: Vec<RectCandidate>,
}

impl CoreRectangles {
    /// Squared diagonal length of the widest rectangle — the placement
    /// priority of arXiv 1008.4446, kept in integer arithmetic so the
    /// ordering is exact.
    #[must_use]
    pub fn diagonal_sq(&self) -> u128 {
        self.candidates.last().map_or(0, |c| {
            (c.time as u128) * (c.time as u128) + (c.width as u128) * (c.width as u128)
        })
    }
}

/// Pareto-optimal wrapper configurations of `core` up to `max_width`
/// wires: the widths where the test time strictly improves.
#[must_use]
pub fn pareto_candidates(core: &WrapperCore, max_width: usize) -> Vec<RectCandidate> {
    let mut out = Vec::new();
    let mut best = u64::MAX;
    for width in 1..=max_width {
        let time = design_wrapper(core, width).test_time_self();
        if time < best {
            best = time;
            out.push(RectCandidate { width, time });
        }
    }
    out
}

/// One packed rectangle: a core's chosen wrapper configuration mapped to
/// a start time and a concrete set of TAM wires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Index of the core in the input slice.
    pub core: usize,
    /// Core name.
    pub name: String,
    /// Start time (cycles).
    pub start: u64,
    /// End time (cycles).
    pub end: u64,
    /// TAM wires consumed (the chosen rectangle width).
    pub width: usize,
    /// The concrete wire indices occupied over `[start, end)`.
    pub wires: Vec<usize>,
    /// Whether this placement fit entirely inside the strip as it
    /// already stood — an idle-time backfill that cost zero makespan.
    pub backfilled: bool,
}

/// A complete packed SOC test schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSchedule {
    /// Total TAM width budget of the strip.
    pub width: usize,
    /// Placements sorted by `(start, core)`.
    pub placements: Vec<Placement>,
}

impl PackedSchedule {
    /// Completion time: the latest placement end.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.placements.iter().map(|p| p.end).max().unwrap_or(0)
    }

    /// TAM utilization in `[0, 1]` (cf.
    /// [`Schedule::utilization`](schedule::Schedule::utilization)).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        schedule::utilization(
            self.placements.iter().map(|p| (p.start, p.end, p.width)),
            self.makespan(),
            self.width,
        )
    }

    /// Number of placements that backfilled idle windows.
    #[must_use]
    pub fn backfills(&self) -> usize {
        self.placements.iter().filter(|p| p.backfilled).count()
    }
}

/// Pack every core's best rectangle under a total TAM width budget,
/// with engine counters reported through `sink` (`tam_pack_cores`,
/// `tam_pack_candidates`, `tam_pack_backfills`).
///
/// # Errors
///
/// Returns [`TamError::ZeroWidth`] / [`TamError::NoCores`].
pub fn pack_metered(
    cores: &[WrapperCore],
    width: usize,
    sink: &dyn MetricsSink,
) -> Result<PackedSchedule, TamError> {
    pack_impl(cores, None, width, u64::MAX, sink)
}

/// How a candidate placement failed (drives the reject counters).
enum Fit {
    Ok,
    Wires,
    Power,
}

/// The shared packer behind [`pack_metered`] and
/// [`crate::constraints::pack_constrained_metered`]. `powers`, when present, is
/// one per-core power rating parallel to `cores`, and every instant of
/// the schedule keeps the concurrent power sum at or under `ceiling`.
pub(crate) fn pack_impl(
    cores: &[WrapperCore],
    powers: Option<&[u64]>,
    width: usize,
    ceiling: u64,
    sink: &dyn MetricsSink,
) -> Result<PackedSchedule, TamError> {
    if width == 0 {
        return Err(TamError::ZeroWidth);
    }
    if cores.is_empty() {
        return Err(TamError::NoCores);
    }

    // 1. Pareto rectangle sets.
    let rects: Vec<CoreRectangles> = cores
        .iter()
        .enumerate()
        .map(|(core, c)| CoreRectangles {
            core,
            name: c.name.clone(),
            candidates: pareto_candidates(c, width),
        })
        .collect();
    sink.add(Counter::TamPackCores, cores.len() as u64);
    sink.add(
        Counter::TamPackCandidates,
        rects.iter().map(|r| r.candidates.len() as u64).sum(),
    );

    // 2. Diagonal-length-first order, tie-broken on core index.
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by(|&a, &b| {
        rects[b]
            .diagonal_sq()
            .cmp(&rects[a].diagonal_sq())
            .then(a.cmp(&b))
    });

    // 3. Place each core: best-fit width over every event-point start.
    // `placed_power[k]` is the power rating of `placed[k]` (zero when
    // unconstrained), kept parallel so `fits` can sum concurrent power.
    let mut placed: Vec<Placement> = Vec::with_capacity(cores.len());
    let mut placed_power: Vec<u64> = Vec::with_capacity(cores.len());
    let mut power_rejects = 0u64;
    let mut backfills = 0u64;
    for &i in &order {
        let rect = &rects[i];
        let power = powers.map_or(0, |p| p[i]);
        let makespan_before = placed.iter().map(|p| p.end).max().unwrap_or(0);
        // Candidate starts: time zero plus every placed end, ascending,
        // so "earliest feasible start" per width is a forward scan. The
        // list includes the current makespan, where the strip is empty —
        // which is why only a power ceiling can make a core unplaceable.
        let mut starts: Vec<u64> = std::iter::once(0)
            .chain(placed.iter().map(|p| p.end))
            .collect();
        starts.sort_unstable();
        starts.dedup();
        // (end, width, start): minimize end, then prefer narrower
        // rectangles, then earlier starts.
        let mut best: Option<(u64, usize, u64)> = None;
        for cand in &rect.candidates {
            for &start in &starts {
                let end = start + cand.time;
                match fits(
                    &placed,
                    &placed_power,
                    start,
                    end,
                    cand.width,
                    power,
                    width,
                    ceiling,
                ) {
                    Fit::Ok => {
                        let key = (end, cand.width, start);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                        break; // earliest feasible start for this width
                    }
                    Fit::Wires => {}
                    Fit::Power => power_rejects += 1,
                }
            }
        }
        let Some((end, w, start)) = best else {
            return Err(TamError::Infeasible {
                core: rect.name.clone(),
                width,
                ceiling,
            });
        };
        let backfilled = !placed.is_empty() && end <= makespan_before;
        backfills += u64::from(backfilled);
        placed.push(Placement {
            core: i,
            name: rect.name.clone(),
            start,
            end,
            width: w,
            wires: Vec::new(),
            backfilled,
        });
        placed_power.push(power);
    }
    sink.add(Counter::TamPackBackfills, backfills);
    sink.add(Counter::TamPackPowerRejects, power_rejects);

    // 4. Concrete wire assignment: lowest free indices, by start time.
    placed.sort_by_key(|p| (p.start, p.core));
    let mut busy_until = vec![0u64; width];
    for p in &mut placed {
        let wires: Vec<usize> = (0..width)
            .filter(|&k| busy_until[k] <= p.start)
            .take(p.width)
            .collect();
        debug_assert_eq!(wires.len(), p.width, "event-point feasibility");
        if wires.len() < p.width {
            // Unreachable by construction (see the module doc's
            // interval-graph argument); fail loudly rather than emit an
            // oversubscribed schedule if the invariant is ever broken.
            return Err(TamError::Infeasible {
                core: p.name.clone(),
                width,
                ceiling,
            });
        }
        for &k in &wires {
            busy_until[k] = p.end;
        }
        p.wires = wires;
    }

    Ok(PackedSchedule {
        width,
        placements: placed,
    })
}

/// Check a candidate placement against the wire budget and power
/// ceiling at every event point inside `[start, end)`. Resource usage is
/// piecewise-constant and only rises at placement starts, so checking
/// `start` plus each placed start inside the interval is exhaustive.
/// `placed_power` is parallel to `placed`.
#[allow(clippy::too_many_arguments)] // internal; the tuple would obscure more
fn fits(
    placed: &[Placement],
    placed_power: &[u64],
    start: u64,
    end: u64,
    w: usize,
    power: u64,
    width: usize,
    ceiling: u64,
) -> Fit {
    let mut points: Vec<u64> = vec![start];
    for p in placed {
        if p.start > start && p.start < end {
            points.push(p.start);
        }
    }
    for &t in &points {
        let mut wires = w;
        let mut pw = power;
        for (p, &pp) in placed.iter().zip(placed_power) {
            if p.start <= t && t < p.end {
                wires += p.width;
                pw = pw.saturating_add(pp);
            }
        }
        if wires > width {
            return Fit::Wires;
        }
        if pw > ceiling {
            return Fit::Power;
        }
    }
    Fit::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::soc_test_time;
    use crate::arch::TamArchitecture;
    use crate::optimize::best_at_width;
    use modsoc_metrics::{NullSink, RecordingSink};

    fn cores() -> Vec<WrapperCore> {
        vec![
            WrapperCore::new("a", 8, 8, vec![64, 64]).with_patterns(100),
            WrapperCore::new("b", 4, 4, vec![32]).with_patterns(300),
            WrapperCore::new("c", 16, 2, vec![128, 16, 16]).with_patterns(50),
            WrapperCore::new("d", 2, 6, vec![48, 48]).with_patterns(80),
        ]
    }

    fn assert_wires_exclusive(s: &PackedSchedule) {
        for a in &s.placements {
            assert_eq!(a.wires.len(), a.width, "{}", a.name);
            assert!(a.wires.iter().all(|&w| w < s.width));
            for b in &s.placements {
                if a.core != b.core && a.start < b.end && b.start < a.end {
                    for w in &a.wires {
                        assert!(!b.wires.contains(w), "wire {w}: {} vs {}", a.name, b.name);
                    }
                }
            }
        }
    }

    #[test]
    fn pareto_set_is_a_strict_staircase() {
        let core = &cores()[0];
        let cands = pareto_candidates(core, 16);
        assert!(!cands.is_empty());
        assert_eq!(cands[0].width, 1, "width 1 is always kept");
        for pair in cands.windows(2) {
            assert!(pair[0].width < pair[1].width);
            assert!(pair[0].time > pair[1].time, "strict improvement only");
        }
    }

    #[test]
    fn pack_places_every_core_without_overlap() {
        let cs = cores();
        for width in [1usize, 3, 8, 16] {
            let s = pack_metered(&cs, width, &NullSink).unwrap();
            assert_eq!(s.placements.len(), cs.len(), "width {width}");
            assert_wires_exclusive(&s);
        }
    }

    #[test]
    fn pack_never_loses_to_serial() {
        let cs = cores();
        for width in [1usize, 4, 8, 16, 24] {
            let serial = soc_test_time(TamArchitecture::Multiplexing, &cs, width)
                .unwrap()
                .total_time;
            let s = pack_metered(&cs, width, &NullSink).unwrap();
            assert!(
                s.makespan() <= serial,
                "width {width}: {} > {serial}",
                s.makespan()
            );
        }
    }

    #[test]
    fn pack_is_competitive_with_the_architecture_sweep() {
        let cs = cores();
        let best = best_at_width(&cs, 8).unwrap();
        let s = pack_metered(&cs, 8, &NullSink).unwrap();
        // The diagonal packer must at least match the best rigid/greedy
        // configuration on this workload.
        assert!(
            s.makespan() <= best.time,
            "{} > {}",
            s.makespan(),
            best.time
        );
    }

    #[test]
    fn pack_is_deterministic_under_ties() {
        // Identical cores: every diagonal ties, so placement order (and
        // the full result) must come from the core-index tie-break.
        let twins: Vec<WrapperCore> = (0..6)
            .map(|i| WrapperCore::new(format!("t{i}"), 4, 4, vec![40, 40]).with_patterns(60))
            .collect();
        let a = pack_metered(&twins, 7, &NullSink).unwrap();
        let b = pack_metered(&twins, 7, &NullSink).unwrap();
        assert_eq!(a, b);
        // First-placed identical twin is the lowest core index.
        let first = a.placements.iter().min_by_key(|p| (p.start, p.core));
        assert_eq!(first.map(|p| p.core), Some(0));
    }

    #[test]
    fn backfill_fills_idle_windows() {
        // One dominating rectangle plus small ones: at least one small
        // core should land inside the window the big one leaves open.
        let cs = vec![
            WrapperCore::new("big", 8, 8, vec![256, 256]).with_patterns(400),
            WrapperCore::new("s1", 2, 2, vec![16]).with_patterns(20),
            WrapperCore::new("s2", 2, 2, vec![16]).with_patterns(20),
            WrapperCore::new("s3", 2, 2, vec![12]).with_patterns(15),
        ];
        let s = pack_metered(&cs, 6, &NullSink).unwrap();
        assert!(s.backfills() > 0, "no placement backfilled");
        let sink = RecordingSink::new();
        let metered = pack_metered(&cs, 6, &sink).unwrap();
        assert_eq!(metered, s, "metering must not change the packing");
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::TamPackCores), cs.len() as u64);
        assert_eq!(
            snap.counter(Counter::TamPackBackfills),
            s.backfills() as u64
        );
        assert!(snap.counter(Counter::TamPackCandidates) >= cs.len() as u64);
    }

    #[test]
    fn utilization_is_placed_wire_cycles_over_the_strip() {
        let s = pack_metered(&cores(), 8, &NullSink).unwrap();
        let mut placed: Vec<usize> = s.placements.iter().map(|p| p.core).collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..cores().len()).collect::<Vec<_>>());
        let busy: u64 = s
            .placements
            .iter()
            .map(|p| (p.end - p.start) * p.width as u64)
            .sum();
        assert_eq!(
            s.utilization(),
            busy as f64 / (s.makespan() * s.width as u64) as f64
        );
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(matches!(
            pack_metered(&[], 4, &NullSink),
            Err(TamError::NoCores)
        ));
        assert!(matches!(
            pack_metered(&cores(), 0, &NullSink),
            Err(TamError::ZeroWidth)
        ));
    }
}
