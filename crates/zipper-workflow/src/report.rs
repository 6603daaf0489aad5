//! The workflow run report: per-rank and aggregate metrics, plus the run's
//! merged trace.
//!
//! Every time-based number in here is a view over the span log: the rank
//! runtimes record spans through `zipper-trace` lanes, `join()` derives the
//! per-rank metrics from the lane totals, and the report additionally
//! carries the merged [`TraceLog`] itself — so the same run can be read as
//! aggregate numbers (Figs. 12–14), as a rendered timeline (Figs. 17/19),
//! or as windowed step statistics, all from one source of truth.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;
use zipper_core::{ConsumerMetrics, ProducerMetrics};
use zipper_policy::{DecisionTrace, PreflightReport};
use zipper_trace::render::{render_timeline, render_timeline_critical, RenderOptions};
use zipper_trace::{
    stats, CausalGraph, CausalLog, CriticalPath, KindBreakdown, MetricsSnapshot, SampleSeries,
    SpanKind, TraceLog, WindowStats,
};
use zipper_types::{RuntimeError, SimTime};

/// Everything measured in one coupled run.
#[derive(Clone, Debug)]
pub struct WorkflowReport {
    /// End-to-end wall-clock time (first rank started → last rank joined).
    pub wall: Duration,
    /// Per-producer-rank metrics, indexed by rank.
    pub producers: Vec<ProducerMetrics>,
    /// Per-consumer-rank metrics, indexed by rank.
    pub consumers: Vec<ConsumerMetrics>,
    /// Failures observed by the driver itself: application threads that
    /// panicked (caught, and their rank's runtime torn down through drop
    /// guards) or could not be spawned. Per-rank runtime errors live in
    /// the rank metrics; [`WorkflowReport::errors`] merges both.
    pub failures: Vec<RuntimeError>,
    /// Payload bytes that crossed the message channel.
    pub net_bytes: u64,
    /// Messages that crossed the message channel.
    pub net_messages: u64,
    /// Total time producer sender threads spent blocked on full consumer
    /// inboxes (recorded separately from bandwidth-throttle charges).
    pub net_backpressure: Duration,
    /// Sends re-attempted by the retrying transport layer
    /// ([`crate::NetworkOptions::with_retry`]); 0 when retry is off.
    pub net_retries: u64,
    /// Blocks resident on the PFS at the end of the run.
    pub pfs_blocks: usize,
    /// Total payload bytes ever written to the PFS.
    pub pfs_bytes_written: u64,
    /// Storage operations re-attempted by the retrying PFS layer
    /// ([`crate::StorageOptions::with_retry`]); 0 when retry is off.
    pub pfs_retries: u64,
    /// The merged span log of the run (lane totals always; raw spans when
    /// the run traced in full mode).
    pub trace: TraceLog,
    /// Cross-entity causal edges recorded alongside the spans (empty
    /// unless the run traced with [`crate::TraceOptions::causal`]).
    pub causal: CausalLog,
    /// Final counter/gauge/histogram totals from the telemetry registry
    /// (disabled snapshot when the run had telemetry off).
    pub metrics: MetricsSnapshot,
    /// Queue-depth and stall-time series sampled over the run by the
    /// wall-clock sampler thread (empty when telemetry was off).
    pub samples: SampleSeries,
    /// Every producer rank's recorded policy-kernel decisions, indexed by
    /// rank — the threaded counterpart of the DES's recorded build, whose
    /// [`DecisionTrace::canonical`] form is the conformance currency.
    /// Empty unless the run traced with [`crate::TraceOptions::policy`].
    pub producer_decisions: Vec<DecisionTrace>,
    /// Every consumer rank's recorded decisions, likewise.
    pub consumer_decisions: Vec<DecisionTrace>,
    /// The static verdict the run was admitted under (warnings and lints
    /// included); `None` unless [`crate::RunOptions::preflight_gate`] was
    /// set.
    pub preflight: Option<PreflightReport>,
}

impl WorkflowReport {
    /// Aggregate producer metrics over all ranks.
    pub fn producer_total(&self) -> ProducerMetrics {
        let mut total = ProducerMetrics::default();
        for m in &self.producers {
            total.merge(m);
        }
        total
    }

    /// Aggregate consumer metrics over all ranks.
    pub fn consumer_total(&self) -> ConsumerMetrics {
        let mut total = ConsumerMetrics::default();
        for m in &self.consumers {
            total.merge(m);
        }
        total
    }

    /// Mean per-producer stall time — the quantity Fig. 14 stacks on top
    /// of the simulation bars.
    pub fn mean_stall(&self) -> Duration {
        if self.producers.is_empty() {
            return Duration::ZERO;
        }
        self.producer_total().stall() / self.producers.len() as u32
    }

    /// Fraction of all produced blocks that took the file path
    /// (§6.2 reports 47–62.4 % for the O(n) application).
    pub fn steal_fraction(&self) -> f64 {
        self.producer_total().steal_fraction()
    }

    /// All runtime errors across producer and consumer ranks, plus the
    /// failures the driver observed directly (app panics, spawn failures).
    ///
    /// Repeated [`RuntimeError::Transport`] faults from the same wire
    /// (same rank, same detail) are deduplicated: a flapping link raises
    /// the identical fault once per frame, and a report listing one error
    /// hundreds of times buries everything else. Use
    /// [`WorkflowReport::error_counts`] when the multiplicity matters.
    pub fn errors(&self) -> Vec<RuntimeError> {
        self.error_counts().into_iter().map(|(e, _)| e).collect()
    }

    /// [`WorkflowReport::errors`] with multiplicities: repeated `Transport`
    /// faults fold into one entry carrying how often they fired, so fault
    /// accounting (e.g. "one typed error per corrupt wire") stays exact
    /// while the deduplicated view stays readable. Every other error kind
    /// keeps one entry per occurrence.
    pub fn error_counts(&self) -> Vec<(RuntimeError, usize)> {
        let mut out: Vec<(RuntimeError, usize)> = Vec::new();
        let mut seen_wires: HashMap<(u32, String), usize> = HashMap::new();
        let all = self
            .producers
            .iter()
            .flat_map(|p| p.errors.iter())
            .chain(self.consumers.iter().flat_map(|c| c.errors.iter()))
            .chain(self.failures.iter());
        for e in all {
            match e {
                RuntimeError::Transport { rank, detail } => {
                    match seen_wires.entry((rank.0, detail.clone())) {
                        Entry::Occupied(at) => out[*at.get()].1 += 1,
                        Entry::Vacant(slot) => {
                            slot.insert(out.len());
                            out.push((e.clone(), 1));
                        }
                    }
                }
                _ => out.push((e.clone(), 1)),
            }
        }
        out
    }

    /// Panics if any rank recorded an error or any block went missing
    /// (written ≠ delivered).
    pub fn assert_complete(&self) {
        let errs = self.errors();
        assert!(errs.is_empty(), "workflow errors: {errs:?}");
        let written = self.producer_total().blocks_written;
        let delivered = self.consumer_total().blocks_delivered;
        assert_eq!(
            written, delivered,
            "lost blocks: {written} written, {delivered} delivered"
        );
    }

    /// Aggregate per-kind time breakdown over every lane of the trace.
    pub fn breakdown(&self) -> KindBreakdown {
        stats::total_breakdown(&self.trace)
    }

    /// Windowed statistics over `[a, b)` of the trace — the
    /// steps-per-window reading of Figs. 17/19. Needs a full-mode trace
    /// (raw spans); in totals mode the window appears empty.
    pub fn window(&self, a: SimTime, b: SimTime) -> WindowStats {
        stats::window_stats(&self.trace, a, b)
    }

    /// Render the run's trace as an ASCII timeline (needs a full-mode
    /// trace; in totals mode the window is empty).
    pub fn timeline(&self, width: usize) -> String {
        let opts = RenderOptions {
            width,
            max_lanes: 64,
            ..Default::default()
        };
        render_timeline(&self.trace, &opts)
    }

    /// The happens-before graph of the run: recorded causal edges merged
    /// with the span log. Meaningful only when the run traced with
    /// [`crate::TraceOptions::causal`] (and full span mode for faithful
    /// bucket attribution).
    pub fn causal_graph(&self) -> CausalGraph {
        CausalGraph::build(&self.trace, &self.causal)
    }

    /// The run's critical path — the chain of events that actually gated
    /// completion. `None` when nothing was traced.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        CriticalPath::extract(&self.causal_graph())
    }

    /// [`WorkflowReport::timeline`] with the critical path caretted onto
    /// the lanes it traverses, plus the verdict/attribution footer. Falls
    /// back to the plain timeline when no path can be extracted.
    pub fn timeline_critical(&self, width: usize) -> String {
        let opts = RenderOptions {
            width,
            max_lanes: 64,
            ..Default::default()
        };
        let graph = self.causal_graph();
        match CriticalPath::extract(&graph) {
            Some(path) => render_timeline_critical(&self.trace, &graph, &path, &opts),
            None => render_timeline(&self.trace, &opts),
        }
    }

    /// Bottleneck verdict, critical-path attribution table, and the
    /// standard what-if sensitivity sweep (NIC 2×, PFS 2×, analysis 2×,
    /// compute 2×) as text.
    pub fn causal_summary(&self) -> String {
        let graph = self.causal_graph();
        let Some(path) = CriticalPath::extract(&graph) else {
            return String::from("causal: (no trace recorded)\n");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "causal: verdict {} over {} edges ({} dropped, {} unjoined)",
            path.attribution.verdict(),
            self.causal.len(),
            graph.dropped_edges,
            self.causal.unjoined(),
        );
        out.push_str(&path.attribution.table());
        out.push_str("what-if:\n");
        for o in graph.what_if_sweep() {
            let _ = writeln!(out, "  {o}");
        }
        out
    }

    /// A human-readable multi-line summary: counters plus the dominant
    /// per-kind times of the simulation and analysis sides.
    pub fn summary(&self) -> String {
        let p = self.producer_total();
        let c = self.consumer_total();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall {:?} | {} blocks written, {} sent, {} stolen ({:.1}% file path)",
            self.wall,
            p.blocks_written,
            p.blocks_sent,
            p.blocks_stolen,
            self.steal_fraction() * 100.0,
        );
        let _ = writeln!(
            out,
            "net {} msgs / {} B | pfs {} blocks / {} B",
            self.net_messages, self.net_bytes, self.pfs_blocks, self.pfs_bytes_written,
        );
        if self.net_retries > 0 || self.pfs_retries > 0 || !self.net_backpressure.is_zero() {
            let _ = writeln!(
                out,
                "fault: net-retries {}  pfs-retries {}  backpressure {:?}",
                self.net_retries, self.pfs_retries, self.net_backpressure,
            );
        }
        let errs = self.errors();
        if !errs.is_empty() {
            let _ = writeln!(out, "errors ({}):", errs.len());
            for e in errs.iter().take(8) {
                let _ = writeln!(out, "  - {e}");
            }
        }
        let _ = writeln!(
            out,
            "sim  : compute {:?}  stall {:?}  send {:?}  fs-write {:?}",
            p.compute(),
            p.stall(),
            p.send_busy(),
            p.fs_busy(),
        );
        let _ = writeln!(
            out,
            "ana  : analysis {:?}  read-wait {:?}  recv {:?}  fs-read {:?}",
            Duration::from_nanos(c.app.get(SpanKind::Analysis).as_nanos()),
            c.read_wait(),
            c.recv_busy(),
            c.disk_busy(),
        );
        let ranked = self.breakdown().ranked();
        if !ranked.is_empty() {
            let _ = write!(out, "trace:");
            for (kind, t) in ranked.iter().take(8) {
                let _ = write!(out, "  {kind}={t}");
            }
            out.push('\n');
        }
        if self.metrics.is_enabled() {
            out.push_str(&self.metrics.summary());
            if !self.samples.is_empty() {
                let _ = writeln!(
                    out,
                    "samples: {} points @ {:?} period",
                    self.samples.len(),
                    self.samples.period,
                );
            }
        }
        if !self.causal.is_empty() {
            out.push_str(&self.causal_summary());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::Rank;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn report() -> WorkflowReport {
        let mut p0 = ProducerMetrics {
            blocks_written: 10,
            blocks_sent: 7,
            blocks_stolen: 3,
            ..Default::default()
        };
        p0.app.add(SpanKind::Stall, ms(30));
        let mut p1 = ProducerMetrics {
            blocks_written: 10,
            blocks_sent: 10,
            ..Default::default()
        };
        p1.app.add(SpanKind::Stall, ms(10));
        let c0 = ConsumerMetrics {
            blocks_net: 17,
            blocks_disk: 3,
            blocks_delivered: 20,
            ..Default::default()
        };
        WorkflowReport {
            wall: Duration::from_millis(100),
            producers: vec![p0, p1],
            consumers: vec![c0],
            failures: vec![],
            net_bytes: 1000,
            net_messages: 17,
            net_backpressure: Duration::ZERO,
            net_retries: 0,
            pfs_blocks: 3,
            pfs_bytes_written: 300,
            pfs_retries: 0,
            trace: TraceLog::new(),
            causal: CausalLog::new(),
            metrics: MetricsSnapshot::default(),
            samples: SampleSeries::default(),
            producer_decisions: vec![],
            consumer_decisions: vec![],
            preflight: None,
        }
    }

    #[test]
    fn aggregates_fold_across_ranks() {
        let r = report();
        let p = r.producer_total();
        assert_eq!(p.blocks_written, 20);
        assert_eq!(p.blocks_stolen, 3);
        assert_eq!(r.consumer_total().blocks_in(), 20);
        assert_eq!(r.mean_stall(), Duration::from_millis(20));
        assert!((r.steal_fraction() - 0.15).abs() < 1e-12);
        r.assert_complete();
    }

    #[test]
    #[should_panic(expected = "lost blocks")]
    fn assert_complete_catches_losses() {
        let mut r = report();
        r.consumers[0].blocks_delivered = 19;
        r.assert_complete();
    }

    #[test]
    #[should_panic(expected = "workflow errors")]
    fn assert_complete_surfaces_errors() {
        let mut r = report();
        r.producers[0].errors.push(RuntimeError::WriterRetired {
            rank: Rank(0),
            detail: "pfs on fire".into(),
        });
        r.assert_complete();
    }

    #[test]
    fn driver_failures_merge_into_errors_and_summary() {
        let mut r = report();
        r.failures.push(RuntimeError::AppPanicked {
            rank: Rank(1),
            role: "consumer app",
            detail: "div by zero".into(),
        });
        let errs = r.errors();
        assert_eq!(errs.len(), 1);
        assert!(r.summary().contains("div by zero"), "{}", r.summary());
    }

    #[test]
    fn repeated_transport_faults_from_one_wire_are_deduplicated() {
        let mut r = report();
        // A flapping wire raises the identical fault once per frame…
        for _ in 0..5 {
            r.producers[0].errors.push(RuntimeError::Transport {
                rank: Rank(0),
                detail: "connection reset".into(),
            });
        }
        // …while distinct wires and distinct faults stay distinct.
        r.producers[1].errors.push(RuntimeError::Transport {
            rank: Rank(1),
            detail: "connection reset".into(),
        });
        r.producers[0].errors.push(RuntimeError::Transport {
            rank: Rank(0),
            detail: "corrupt frame".into(),
        });
        r.failures.push(RuntimeError::AppPanicked {
            rank: Rank(0),
            role: "producer app",
            detail: "boom".into(),
        });
        let errs = r.errors();
        assert_eq!(errs.len(), 4, "{errs:?}");
        let same_wire = errs
            .iter()
            .filter(|e| {
                matches!(e, RuntimeError::Transport { rank, detail }
                    if rank.0 == 0 && detail == "connection reset")
            })
            .count();
        assert_eq!(same_wire, 1);
        // The multiplicity survives in the counted view.
        let counts = r.error_counts();
        assert_eq!(counts.len(), 4);
        let folded = counts
            .iter()
            .find(|(e, _)| {
                matches!(e, RuntimeError::Transport { rank, detail }
                    if rank.0 == 0 && detail == "connection reset")
            })
            .expect("folded entry");
        assert_eq!(folded.1, 5, "five frames fold into one entry");
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), 8);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = WorkflowReport {
            wall: Duration::ZERO,
            producers: vec![],
            consumers: vec![],
            failures: vec![],
            net_bytes: 0,
            net_messages: 0,
            net_backpressure: Duration::ZERO,
            net_retries: 0,
            pfs_blocks: 0,
            pfs_bytes_written: 0,
            pfs_retries: 0,
            trace: TraceLog::new(),
            causal: CausalLog::new(),
            metrics: MetricsSnapshot::default(),
            samples: SampleSeries::default(),
            producer_decisions: vec![],
            consumer_decisions: vec![],
            preflight: None,
        };
        assert_eq!(r.mean_stall(), Duration::ZERO);
        assert_eq!(r.steal_fraction(), 0.0);
        r.assert_complete();
    }

    #[test]
    fn summary_and_timeline_render_from_the_trace() {
        let mut r = report();
        let lane = r.trace.lane("sim/p0/app");
        r.trace
            .record_interval(lane, SpanKind::Compute, ms(0), ms(60));
        r.trace
            .record_interval(lane, SpanKind::Stall, ms(60), ms(100));
        let s = r.summary();
        assert!(s.contains("20 blocks written"), "{s}");
        assert!(s.contains("compute=60.0ms"), "{s}");
        let t = r.timeline(20);
        assert!(t.contains("sim/p0/app"), "{t}");
        let w = r.window(ms(0), ms(50));
        assert_eq!(w.breakdown.get(SpanKind::Compute), ms(50));
    }
}
