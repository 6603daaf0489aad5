//! ASCII timeline rendering — a terminal stand-in for the TAU/ITAC trace
//! screenshots in Figs. 4–6, 17, 19.
//!
//! Each lane becomes one text row of fixed width; each column is a time
//! bucket colored (by glyph) with the span kind that dominates the bucket.

use crate::causal::{CausalGraph, CriticalPath};
use crate::log::TraceLog;
use crate::span::{LaneId, SpanKind};
use zipper_types::SimTime;

/// Options for [`render_timeline`].
#[derive(Clone, Debug)]
pub struct RenderOptions {
    /// Number of character columns.
    pub width: usize,
    /// Window start (defaults to 0).
    pub from: SimTime,
    /// Window end (defaults to the trace horizon).
    pub to: Option<SimTime>,
    /// Only render lanes whose label passes this prefix filter, if set.
    pub lane_prefix: Option<String>,
    /// Render at most this many lanes (first N matching).
    pub max_lanes: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 100,
            from: SimTime::ZERO,
            to: None,
            lane_prefix: None,
            max_lanes: 12,
        }
    }
}

/// What a rendering of `log` under `opts` covers: the window end, the
/// time per column, the selected lanes (interning order) and the label
/// column width — or `None` for an empty window.
fn layout(log: &TraceLog, opts: &RenderOptions) -> Option<(SimTime, u64, Vec<LaneId>, usize)> {
    let to = opts.to.unwrap_or_else(|| log.horizon());
    if to <= opts.from {
        return None;
    }
    let bucket_ns = ((to - opts.from).as_nanos() / opts.width as u64).max(1);
    let lanes: Vec<LaneId> = log
        .lanes()
        .filter(|&l| match &opts.lane_prefix {
            Some(p) => log.lane_label(l).starts_with(p.as_str()),
            None => true,
        })
        .take(opts.max_lanes)
        .collect();
    let label_w = lanes
        .iter()
        .map(|&l| log.lane_label(l).len())
        .max()
        .unwrap_or(4)
        .max(4);
    Some((to, bucket_ns, lanes, label_w))
}

/// Render the trace as an ASCII timeline with a legend.
///
/// Bucket glyph = the kind with the largest accumulated overlap in that
/// bucket; empty buckets render as spaces.
pub fn render_timeline(log: &TraceLog, opts: &RenderOptions) -> String {
    assert!(opts.width >= 10, "need at least 10 columns");
    let Some((to, bucket_ns, lanes, label_w)) = layout(log, opts) else {
        return String::from("(empty trace window)\n");
    };

    let mut out = String::new();
    out.push_str(&format!(
        "timeline [{} .. {}]  ({} per column)\n",
        opts.from,
        to,
        SimTime::from_nanos(bucket_ns)
    ));

    // Accumulate per-lane per-bucket per-kind overlap. Zero-duration
    // policy decisions carry no overlap, so they get a marker overlay
    // instead: the bucket containing the decision's ordinal position
    // always shows the policy glyph, no matter what else fills it.
    let mut any_marker = false;
    for &lane in &lanes {
        let mut buckets = vec![[0u64; SpanKind::ALL.len()]; opts.width];
        let mut markers = vec![false; opts.width];
        for s in log.spans().iter().filter(|s| s.lane == lane) {
            if s.kind == SpanKind::Policy && s.t0 == s.t1 {
                if s.t0 >= opts.from && s.t0 < to {
                    let b = ((s.t0.as_nanos() - opts.from.as_nanos()) / bucket_ns) as usize;
                    markers[b.min(opts.width - 1)] = true;
                    any_marker = true;
                }
                continue;
            }
            if s.t1 <= opts.from || s.t0 >= to {
                continue;
            }
            let rel0 = s.t0.max(opts.from).as_nanos() - opts.from.as_nanos();
            let rel1 = (s.t1.min(to).as_nanos() - opts.from.as_nanos()).max(rel0);
            let b0 = (rel0 / bucket_ns) as usize;
            let b1 = (rel1.div_ceil(bucket_ns) as usize).min(opts.width);
            for (b, bucket) in buckets.iter_mut().enumerate().take(b1).skip(b0) {
                let lo = opts.from.as_nanos() + b as u64 * bucket_ns;
                let hi = lo + bucket_ns;
                let ov = s
                    .overlap(SimTime::from_nanos(lo), SimTime::from_nanos(hi))
                    .as_nanos();
                bucket[s.kind.index()] += ov;
            }
        }
        let row: String = buckets
            .iter()
            .zip(&markers)
            .map(|(b, &marked)| {
                if marked {
                    return SpanKind::Policy.glyph();
                }
                let (best, t) = b
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| t)
                    .map(|(i, &t)| (i, t))
                    .unwrap_or((0, 0));
                if t == 0 {
                    ' '
                } else {
                    SpanKind::ALL[best].glyph()
                }
            })
            .collect();
        out.push_str(&format!(
            "{:>width$} |{}|\n",
            log.lane_label(lane),
            row,
            width = label_w
        ));
    }

    // Legend for the kinds that actually appear in the window.
    let mut used = [false; SpanKind::ALL.len()];
    used[SpanKind::Policy.index()] = any_marker;
    for s in log.spans() {
        if s.t1 > opts.from && s.t0 < to && lanes.contains(&s.lane) {
            used[s.kind.index()] = true;
        }
    }
    let legend: Vec<String> = SpanKind::ALL
        .iter()
        .filter(|k| used[k.index()])
        .map(|k| format!("{}={}", k.glyph(), k))
        .collect();
    if !legend.is_empty() {
        out.push_str("legend: ");
        out.push_str(&legend.join("  "));
        out.push('\n');
    }
    out
}

/// [`render_timeline`] with the critical path highlighted: beneath every
/// lane row the path traverses, a marker row carets (`^`) the columns the
/// path occupies on that lane, and the footer prints the path's verdict,
/// bucket attribution, and structural signature — the Fig. 17 view with
/// "what actually gated completion" drawn on it.
pub fn render_timeline_critical(
    log: &TraceLog,
    graph: &CausalGraph,
    path: &CriticalPath,
    opts: &RenderOptions,
) -> String {
    let base = render_timeline(log, opts);
    // The same layout render_timeline drew.
    let Some((to, bucket_ns, lanes, label_w)) = layout(log, opts) else {
        return base;
    };

    let marker_row = |lane: LaneId| -> Option<String> {
        let g = graph.lane_by_label(log.lane_label(lane))?;
        let intervals = path.intervals_on(graph, g);
        if intervals.is_empty() {
            return None;
        }
        let mut cols = vec![' '; opts.width];
        let mut any = false;
        for (t0, t1) in intervals {
            if t1 <= opts.from || t0 >= to {
                continue;
            }
            let rel0 = t0.max(opts.from).as_nanos() - opts.from.as_nanos();
            let rel1 = (t1.min(to).as_nanos() - opts.from.as_nanos()).max(rel0);
            let b0 = (rel0 / bucket_ns) as usize;
            let b1 = ((rel1 / bucket_ns) as usize).min(opts.width - 1);
            for c in cols.iter_mut().take(b1 + 1).skip(b0) {
                *c = '^';
            }
            any = true;
        }
        any.then(|| {
            format!(
                "{:>width$} |{}|\n",
                "",
                cols.into_iter().collect::<String>(),
                width = label_w
            )
        })
    };

    // Splice marker rows under their lane rows: the base output is one
    // header line, then exactly one row per selected lane, then a legend.
    let mut out = String::with_capacity(base.len() * 2);
    for (i, line) in base.split_inclusive('\n').enumerate() {
        out.push_str(line);
        if i >= 1 && i <= lanes.len() {
            if let Some(row) = marker_row(lanes[i - 1]) {
                out.push_str(&row);
            }
        }
    }
    out.push_str(&format!(
        "critical path (verdict: {}):\n",
        path.attribution.verdict()
    ));
    out.push_str(&path.attribution.table());
    out.push_str("  ");
    out.push_str(&path.signature(graph).join(" -> "));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    #[test]
    fn renders_dominant_kind_per_bucket() {
        let mut log = TraceLog::new();
        let l = log.lane("sim/r0");
        log.record(Span::new(
            l,
            SpanKind::Compute,
            SimTime::ZERO,
            SimTime::from_millis(50),
        ));
        log.record(Span::new(
            l,
            SpanKind::Stall,
            SimTime::from_millis(50),
            SimTime::from_millis(100),
        ));
        let opts = RenderOptions {
            width: 10,
            ..Default::default()
        };
        let s = render_timeline(&log, &opts);
        assert!(s.contains("CCCCC!!!!!"), "got:\n{s}");
        assert!(s.contains("C=compute"));
        assert!(s.contains("!=stall"));
    }

    #[test]
    fn lane_prefix_filters_rows() {
        let mut log = TraceLog::new();
        let a = log.lane("sim/r0");
        let b = log.lane("ana/r0");
        log.record_interval(a, SpanKind::Compute, SimTime::ZERO, SimTime::from_millis(1));
        log.record_interval(
            b,
            SpanKind::Analysis,
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        let opts = RenderOptions {
            width: 10,
            lane_prefix: Some("ana/".into()),
            ..Default::default()
        };
        let s = render_timeline(&log, &opts);
        assert!(s.contains("ana/r0"));
        assert!(!s.contains("sim/r0"));
    }

    #[test]
    fn policy_markers_overlay_dominant_spans() {
        let mut log = TraceLog::new();
        let l = log.lane("policy/p0");
        // A long compute span would otherwise own every bucket.
        log.record(Span::new(
            l,
            SpanKind::Compute,
            SimTime::ZERO,
            SimTime::from_millis(100),
        ));
        // Zero-duration decision markers: one at the window start (which
        // the overlap path would drop entirely) and one mid-window.
        log.record(Span::new(l, SpanKind::Policy, SimTime::ZERO, SimTime::ZERO));
        log.record(Span::new(
            l,
            SpanKind::Policy,
            SimTime::from_millis(55),
            SimTime::from_millis(55),
        ));
        let opts = RenderOptions {
            width: 10,
            ..Default::default()
        };
        let s = render_timeline(&log, &opts);
        assert!(s.contains("pCCCCpCCCC"), "got:\n{s}");
        assert!(s.contains("p=policy"), "markers reach the legend:\n{s}");
    }

    #[test]
    fn critical_overlay_marks_path_lanes_and_prints_verdict() {
        use crate::causal::{CausalLog, CriticalPath, EdgeKind};
        let mut log = TraceLog::new();
        let p = log.lane("sim/p0/app");
        let s = log.lane("sim/p0/send");
        let c = log.lane("ana/q0/app");
        log.record_interval(
            p,
            SpanKind::Compute,
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        log.record_interval(
            s,
            SpanKind::Send,
            SimTime::from_millis(10),
            SimTime::from_millis(12),
        );
        log.record_interval(
            c,
            SpanKind::Analysis,
            SimTime::from_millis(12),
            SimTime::from_millis(20),
        );
        let mut causal = CausalLog::new();
        causal.queue_push("q/sim/p0", 7, "sim/p0/app", SimTime::from_millis(10));
        causal.queue_pop("q/sim/p0", 7, "sim/p0/send", SimTime::from_millis(10));
        causal.begin(EdgeKind::Wire, 7, "sim/p0/send", SimTime::from_millis(12));
        causal.end(EdgeKind::Wire, 7, "ana/q0/app", SimTime::from_millis(12));
        let graph = CausalGraph::build(&log, &causal);
        let path = CriticalPath::extract(&graph).unwrap();
        let opts = RenderOptions {
            width: 20,
            ..Default::default()
        };
        let out = render_timeline_critical(&log, &graph, &path, &opts);
        assert!(out.contains('^'), "path columns are caretted:\n{out}");
        assert!(out.contains("critical path (verdict: compute)"), "{out}");
        assert!(out.contains("wire:"), "signature in footer:\n{out}");
        // The marker rows splice cleanly: every lane row still renders.
        for lane in ["sim/p0/app", "sim/p0/send", "ana/q0/app"] {
            assert!(out.contains(lane), "{out}");
        }
    }

    #[test]
    fn empty_window_is_graceful() {
        let log = TraceLog::new();
        let s = render_timeline(&log, &RenderOptions::default());
        assert!(s.contains("empty"));
    }
}
