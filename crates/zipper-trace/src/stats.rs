//! Derived statistics: per-kind breakdowns, per-lane totals, and windowed
//! step counting — the quantitative reading of the paper's trace figures.

use crate::log::TraceLog;
use crate::span::{LaneId, Span, SpanKind};
use zipper_types::SimTime;

/// Time accumulated per [`SpanKind`].
#[derive(Clone, Debug, Default)]
pub struct KindBreakdown {
    totals: [u64; SpanKind::ALL.len()],
}

impl KindBreakdown {
    pub fn add(&mut self, kind: SpanKind, dur: SimTime) {
        self.totals[kind.index()] += dur.as_nanos();
    }

    pub fn get(&self, kind: SpanKind) -> SimTime {
        SimTime::from_nanos(self.totals[kind.index()])
    }

    /// Fold another breakdown into this one.
    pub fn merge(&mut self, other: &KindBreakdown) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
    }

    /// Sum over every kind.
    pub fn total(&self) -> SimTime {
        SimTime::from_nanos(self.totals.iter().sum())
    }

    /// Sum over overhead kinds (stall/lock/barrier/waitall/idle).
    pub fn overhead(&self) -> SimTime {
        SimTime::from_nanos(
            SpanKind::ALL
                .iter()
                .filter(|k| k.is_overhead())
                .map(|k| self.totals[k.index()])
                .sum(),
        )
    }

    /// Fraction of total time that is overhead; 0 when the lane is empty.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            0.0
        } else {
            self.overhead().as_nanos() as f64 / total as f64
        }
    }

    /// Kinds with non-zero time, largest first.
    pub fn ranked(&self) -> Vec<(SpanKind, SimTime)> {
        let mut v: Vec<(SpanKind, SimTime)> = SpanKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|(_, t)| *t > SimTime::ZERO)
            .collect();
        v.sort_by_key(|(_, t)| std::cmp::Reverse(*t));
        v
    }
}

/// Per-lane summary.
#[derive(Clone, Debug)]
pub struct LaneStats {
    pub lane: LaneId,
    pub label: String,
    pub breakdown: KindBreakdown,
    pub first: SimTime,
    pub last: SimTime,
}

impl LaneStats {
    /// Wall-clock span covered by this lane's activity.
    pub fn makespan(&self) -> SimTime {
        self.last.saturating_sub(self.first)
    }
}

/// Statistics of a time window `[a, b)` across a set of lanes — the
/// machine-readable version of "in the same 1.3 s snapshot Zipper runs
/// 3 steps and Decaf runs 2 with significant stall" (Fig. 17).
#[derive(Clone, Debug)]
pub struct WindowStats {
    pub a: SimTime,
    pub b: SimTime,
    /// Completed steps observed in the window, averaged over lanes:
    /// a step counts for a lane when a step-marked compute span finishes
    /// inside the window; partial steps count fractionally by overlap.
    pub steps_per_lane: f64,
    /// Window time spent in each kind, summed over lanes.
    pub breakdown: KindBreakdown,
    /// Number of lanes that had any activity in the window.
    pub active_lanes: usize,
}

/// Compute per-lane statistics for the whole trace. The first/last extents
/// need raw spans; with span storage disabled they degrade to
/// `[ZERO, ZERO]` while the breakdowns (totals-based) stay exact.
pub fn lane_stats(log: &TraceLog) -> Vec<LaneStats> {
    let mut out: Vec<LaneStats> = log
        .lanes()
        .map(|lane| LaneStats {
            lane,
            label: log.lane_label(lane).to_string(),
            breakdown: KindBreakdown::default(),
            first: SimTime::MAX,
            last: SimTime::ZERO,
        })
        .collect();
    for s in log.spans() {
        let st = &mut out[s.lane.idx()];
        st.first = st.first.min(s.t0);
        st.last = st.last.max(s.t1);
    }
    for (lane, st) in out.iter_mut().enumerate() {
        st.breakdown = log.lane_totals(LaneId(lane as u32)).clone();
        if st.first == SimTime::MAX {
            st.first = SimTime::ZERO;
        }
    }
    out
}

/// Aggregate breakdown over every lane in the trace (totals-based: exact
/// even with raw-span storage disabled).
pub fn total_breakdown(log: &TraceLog) -> KindBreakdown {
    let mut b = KindBreakdown::default();
    for lane in log.lanes() {
        b.merge(log.lane_totals(lane));
    }
    b
}

/// Total time of `kind` across lanes whose label passes `lane_filter`
/// (totals-based: exact even with raw-span storage disabled).
pub fn kind_time_filtered(
    log: &TraceLog,
    kind: SpanKind,
    lane_filter: impl Fn(&str) -> bool,
) -> SimTime {
    let mut total = SimTime::ZERO;
    for lane in log.lanes() {
        if lane_filter(log.lane_label(lane)) {
            total += log.lane_totals(lane).get(kind);
        }
    }
    total
}

/// Windowed statistics over `[a, b)`.
///
/// A "step" contributes to `steps_per_lane` proportionally to how much of
/// that step's step-marked spans overlap the window; a step fully inside the
/// window counts 1. This matches how one reads step counts off a trace
/// screenshot: partially visible steps at the window edges count partially.
pub fn window_stats(log: &TraceLog, a: SimTime, b: SimTime) -> WindowStats {
    assert!(b > a, "window must be non-empty");
    let mut breakdown = KindBreakdown::default();
    let mut active = vec![false; log.lane_count()];

    // Per (lane, step): time of step-marked spans inside window and total.
    use std::collections::HashMap;
    let mut step_in: HashMap<(LaneId, u64), (u64, u64)> = HashMap::new();

    for s in log.spans() {
        let ov = s.overlap(a, b);
        if ov > SimTime::ZERO {
            breakdown.add(s.kind, ov);
            active[s.lane.idx()] = true;
        }
        if s.step != Span::NO_STEP {
            let e = step_in.entry((s.lane, s.step)).or_insert((0, 0));
            e.0 += ov.as_nanos();
            e.1 += s.duration().as_nanos();
        }
    }

    let active_lanes = active.iter().filter(|&&x| x).count();
    let mut step_fraction_sum = 0.0;
    for (inside, total) in step_in.values() {
        if *total > 0 {
            step_fraction_sum += *inside as f64 / *total as f64;
        }
    }
    let steps_per_lane = if active_lanes == 0 {
        0.0
    } else {
        step_fraction_sum / active_lanes as f64
    };

    WindowStats {
        a,
        b,
        steps_per_lane,
        breakdown,
        active_lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn breakdown_accumulates_and_ranks() {
        let mut b = KindBreakdown::default();
        b.add(SpanKind::Compute, ms(10));
        b.add(SpanKind::Stall, ms(5));
        b.add(SpanKind::Compute, ms(2));
        assert_eq!(b.get(SpanKind::Compute), ms(12));
        assert_eq!(b.total(), ms(17));
        assert_eq!(b.overhead(), ms(5));
        assert!((b.overhead_fraction() - 5.0 / 17.0).abs() < 1e-12);
        let ranked = b.ranked();
        assert_eq!(ranked[0].0, SpanKind::Compute);
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn lane_stats_cover_extent() {
        let mut log = TraceLog::new();
        let l0 = log.lane("r0");
        let l1 = log.lane("r1");
        log.record_interval(l0, SpanKind::Compute, ms(1), ms(4));
        log.record_interval(l0, SpanKind::Stall, ms(4), ms(6));
        log.record_interval(l1, SpanKind::Analysis, ms(2), ms(3));
        let stats = lane_stats(&log);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].makespan(), ms(5));
        assert_eq!(stats[0].breakdown.get(SpanKind::Stall), ms(2));
        assert_eq!(stats[1].breakdown.get(SpanKind::Analysis), ms(1));
    }

    #[test]
    fn window_counts_fractional_steps() {
        let mut log = TraceLog::new();
        let l = log.lane("r0");
        // Step 0 fully inside [0, 10); step 1 half inside.
        log.record(Span::new(l, SpanKind::Compute, ms(0), ms(4)).with_step(0));
        log.record(Span::new(l, SpanKind::Compute, ms(8), ms(12)).with_step(1));
        let w = window_stats(&log, ms(0), ms(10));
        assert_eq!(w.active_lanes, 1);
        assert!(
            (w.steps_per_lane - 1.5).abs() < 1e-9,
            "{}",
            w.steps_per_lane
        );
        assert_eq!(w.breakdown.get(SpanKind::Compute), ms(6));
    }

    #[test]
    fn filtered_kind_time_selects_lanes() {
        let mut log = TraceLog::new();
        let sim = log.lane("sim/r0");
        let ana = log.lane("ana/r0");
        log.record_interval(sim, SpanKind::Sendrecv, ms(0), ms(3));
        log.record_interval(ana, SpanKind::Sendrecv, ms(0), ms(7));
        let t = kind_time_filtered(&log, SpanKind::Sendrecv, |l| l.starts_with("sim/"));
        assert_eq!(t, ms(3));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let log = TraceLog::new();
        let _ = window_stats(&log, ms(5), ms(5));
    }
}
