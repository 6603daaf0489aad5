//! # zipper-trace
//!
//! A lightweight span tracer standing in for TAU / Intel Trace Analyzer in
//! the paper's methodology (§3). Both substrates record `(lane, kind, t0,
//! t1)` spans into a [`TraceLog`] through one substrate-agnostic layer:
//!
//! * the discrete-event simulator drives a [`clock::VirtualClock`] and
//!   records at virtual timestamps;
//! * the real threaded runtime opens a per-lane [`recorder::LaneRecorder`]
//!   from the run's [`recorder::TraceSink`] (wall-clock), accumulates
//!   lane-locally on the hot path, and merges at join — producer
//!   compute/stall/send/steal, consumer recv/disk-read/read-wait/deliver,
//!   and wire send/recv all land in the same log, and the runtime's
//!   metrics structs are derived views over it.
//!
//! The analysis module then derives the statistics the paper reads off its
//! trace screenshots:
//!
//! * time-per-kind breakdowns (how much of a lane is `MPI_Sendrecv`,
//!   stall, lock, …) — Figs. 4–6;
//! * steps completed within a time window — Figs. 17 & 19
//!   ("Zipper runs 3 steps while Decaf runs 2 in the same 1.3 s");
//! * ASCII timeline rendering for human inspection.

//!
//! PR 4 adds the flight-recorder layer on top: [`telemetry`] carries live
//! counters/gauges/histograms (the software analogue of the paper's
//! `XmitWait` fabric counters) with wall-clock and virtual-clock samplers,
//! and [`export`] renders the merged span log plus the sampled metric
//! series as Chrome-trace JSON or JSONL.
//!
//! The [`causal`] layer turns the merged log plus runtime-recorded
//! cross-entity edges into a happens-before graph, extracts the critical
//! path, attributes its time to comp/transfer/backpressure/steal/analysis
//! buckets, and answers what-if re-weighing questions — the machinery
//! behind the paper's `T_t2s = max(T_comp, T_transfer, T_analysis)` claim.

pub mod causal;
pub mod clock;
pub mod export;
pub mod log;
pub mod policy;
pub mod recorder;
pub mod render;
pub mod span;
pub mod stats;
pub mod telemetry;

pub use causal::{
    block_token, eos_token, Attribution, Bucket, CausalEdge, CausalGraph, CausalLog, CausalSink,
    CriticalPath, EdgeKind, Verdict, WhatIfOutcome,
};
pub use clock::{Clock, VirtualClock, WallClock};
pub use log::{SharedTraceLog, TraceLog};
pub use recorder::{LaneRecorder, TraceMode, TraceSink};
pub use span::{LaneId, Span, SpanKind};
pub use stats::{KindBreakdown, WindowStats};
pub use telemetry::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricShard, MetricsSnapshot, Probe,
    SamplePoint, SampleSeries, Sampler, Telemetry,
};
