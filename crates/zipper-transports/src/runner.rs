//! [`run_with_detail`], the single entry point of the DES substrate (see
//! the crate docs), and the [`TransportResult`] it fills.

use crate::spec::{sim_config, ClusterLayout, WorkflowSpec};
use crate::zipper::ZipperPolicies;
use crate::{dataspaces, decaf, dimes, flexpath, mpiio, zipper};
use hpcsim::{RunReport, Simulator};
use zipper_policy::DecisionTrace;
use zipper_trace::stats::kind_time_filtered;
use zipper_trace::{CausalLog, MetricsSnapshot, SampleSeries, SpanKind, TraceLog};
use zipper_types::SimTime;

/// Virtual-clock sampling period of the DES telemetry probe (detailed
/// runs only; totals-mode scaling runs skip sampling to stay
/// constant-memory).
const SAMPLE_PERIOD: SimTime = SimTime::from_millis(50);

/// The transport methods of Fig. 2, plus Zipper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TransportKind {
    MpiIo,
    DataSpacesNative,
    DataSpacesAdios,
    DimesNative,
    DimesAdios,
    Flexpath,
    Decaf,
    Zipper,
}

impl TransportKind {
    /// Every kind, in the paper's Fig. 2 presentation order.
    pub const ALL: [TransportKind; 8] = [
        TransportKind::MpiIo,
        TransportKind::DataSpacesAdios,
        TransportKind::DataSpacesNative,
        TransportKind::DimesAdios,
        TransportKind::DimesNative,
        TransportKind::Flexpath,
        TransportKind::Decaf,
        TransportKind::Zipper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TransportKind::MpiIo => "MPI-IO",
            TransportKind::DataSpacesNative => "DataSpaces (native)",
            TransportKind::DataSpacesAdios => "ADIOS/DataSpaces",
            TransportKind::DimesNative => "DIMES (native)",
            TransportKind::DimesAdios => "ADIOS/DIMES",
            TransportKind::Flexpath => "ADIOS/Flexpath",
            TransportKind::Decaf => "Decaf",
            TransportKind::Zipper => "Zipper",
        }
    }

    /// Number of extra (staging/link/agent) processes this transport
    /// places on dedicated staging nodes.
    fn extra_staging_procs(self, spec: &WorkflowSpec) -> usize {
        match self {
            TransportKind::MpiIo | TransportKind::Zipper | TransportKind::Flexpath => 0,
            TransportKind::DataSpacesNative | TransportKind::DataSpacesAdios => {
                spec.staging_servers
            }
            TransportKind::DimesNative | TransportKind::DimesAdios => spec.staging_servers,
            TransportKind::Decaf => spec.decaf_links.min(spec.sim_ranks),
        }
    }

    /// Spawn the model's processes; `recorded` turns on decision-trace
    /// recording in Zipper's policy kernels (the baselines have none).
    fn build(
        self,
        sim: &mut Simulator,
        spec: &WorkflowSpec,
        layout: &ClusterLayout,
        recorded: bool,
    ) -> ZipperPolicies {
        match self {
            TransportKind::MpiIo => mpiio::build(sim, spec, layout),
            TransportKind::DataSpacesNative => dataspaces::build(sim, spec, layout, false),
            TransportKind::DataSpacesAdios => dataspaces::build(sim, spec, layout, true),
            TransportKind::DimesNative => dimes::build(sim, spec, layout, false),
            TransportKind::DimesAdios => dimes::build(sim, spec, layout, true),
            TransportKind::Flexpath => flexpath::build(sim, spec, layout),
            TransportKind::Decaf => decaf::build(sim, spec, layout),
            TransportKind::Zipper => return zipper::build(sim, spec, layout, recorded),
        }
        ZipperPolicies::default()
    }
}

/// Everything measured in one simulated workflow run.
#[derive(Debug)]
pub struct TransportResult {
    pub name: &'static str,
    /// End-to-end time of the whole coupled workflow.
    pub end_to_end: SimTime,
    /// The fault, if the job crashed (Flexpath segfault, Decaf overflow).
    pub fault: Option<String>,
    /// Processes still blocked when the run ended (deadlock or crash
    /// fallout).
    pub deadlocked: Vec<String>,
    /// Events processed by the simulator.
    pub events: u64,
    /// Accumulated XmitWait on the simulation nodes (Fig. 15's counter),
    /// in nanoseconds of blocked-NIC time.
    pub xmit_wait_sim: u64,
    /// Producer-side stall time (buffer full / interlocked), summed.
    pub stall: SimTime,
    /// Application halo-exchange (`MPI_Sendrecv`) time, summed over
    /// simulation compute lanes.
    pub sendrecv: SimTime,
    /// `MPI_Waitall` time (Decaf's signature).
    pub waitall: SimTime,
    /// Lock/interlock wait time (DataSpaces/DIMES signature).
    pub lock: SimTime,
    /// Sender-thread transfer busy time on the simulation side.
    pub transfer_busy: SimTime,
    /// When the simulation application finished (last activity on any
    /// `sim/` lane) — Fig. 14's "simulation wall clock time". The
    /// workflow's `end_to_end` can be later when the analysis side is
    /// still draining.
    pub sim_finish: SimTime,
    /// PFS requests, bytes, and drain horizon (when the last OST went
    /// idle — the "store data" stage time of Fig. 13).
    pub pfs_requests: u64,
    pub pfs_bytes: u64,
    pub pfs_drain: SimTime,
    /// The full span trace, for figure-specific analysis.
    pub trace: TraceLog,
    /// Cross-entity causal edges on the virtual clock, recorded in the
    /// Zipper edge taxonomy (wire/EOS/steal/queue/gate/PFS) on detailed
    /// Zipper runs only; empty otherwise. Feed to `CausalGraph::build` with
    /// `trace` for critical-path extraction.
    pub causal: CausalLog,
    /// Every simulation rank's policy-kernel decisions, by rank — the DES
    /// half of the cross-substrate trace equality (the threaded half is
    /// `WorkflowReport::producer_decisions`). Recorded on detailed Zipper
    /// runs only; empty otherwise.
    pub producer_decisions: Vec<DecisionTrace>,
    /// Every analysis rank's decisions, likewise.
    pub consumer_decisions: Vec<DecisionTrace>,
    /// Final telemetry counter/gauge/histogram totals (disabled snapshot
    /// on totals-mode runs).
    pub metrics: MetricsSnapshot,
    /// Congestion time-series sampled on the virtual clock every
    /// `SAMPLE_PERIOD` (empty on totals-mode runs).
    pub samples: SampleSeries,
}

impl TransportResult {
    /// True when the run finished without crash or deadlock.
    pub fn is_clean(&self) -> bool {
        self.fault.is_none() && self.deadlocked.is_empty()
    }
}

fn finish(
    name: &'static str,
    report: RunReport,
    mut sim: Simulator,
    layout: &ClusterLayout,
    (producer_decisions, consumer_decisions): (Vec<DecisionTrace>, Vec<DecisionTrace>),
) -> TransportResult {
    let causal = sim.take_causal().unwrap_or_default();
    let samples = sim.finish_telemetry();
    let metrics = sim.telemetry().snapshot();
    let xmit_wait_sim = sim.network().xmit_wait_sum(layout.sim_node_range());
    let pfs_requests = sim.pfs().requests();
    let pfs_bytes = sim.pfs().bytes_moved();
    let pfs_drain = sim.pfs().drain_time();
    let trace = sim.into_trace();
    let on_sim = |l: &str| l.starts_with("sim/");
    let stall = kind_time_filtered(&trace, SpanKind::Stall, on_sim);
    let sendrecv = kind_time_filtered(&trace, SpanKind::Sendrecv, |l| l.contains("/comp"));
    let waitall = kind_time_filtered(&trace, SpanKind::Waitall, on_sim);
    let lock = kind_time_filtered(&trace, SpanKind::Lock, on_sim);
    let transfer_busy = {
        let send = kind_time_filtered(&trace, SpanKind::Send, on_sim);
        let put = kind_time_filtered(&trace, SpanKind::Put, on_sim);
        send + put
    };
    let sim_finish = trace
        .lanes()
        .filter(|&l| trace.lane_label(l).starts_with("sim/"))
        .map(|l| trace.lane_extent(l).1)
        .max()
        .unwrap_or(report.end);
    TransportResult {
        name,
        end_to_end: report.end,
        fault: report.faults.first().cloned(),
        deadlocked: report.deadlocked,
        events: report.events,
        xmit_wait_sim,
        stall,
        sendrecv,
        waitall,
        lock,
        transfer_busy,
        sim_finish,
        pfs_requests,
        pfs_bytes,
        pfs_drain,
        trace,
        causal,
        producer_decisions,
        consumer_decisions,
        metrics,
        samples,
    }
}

/// Run one coupled workflow under the given transport. `detail = true`
/// keeps raw spans, samples telemetry on the virtual clock and — for
/// Zipper — records causal edges and every rank's decision trace;
/// `detail = false` keeps only per-lane totals (constant memory), for the
/// 13,056-core-scale runs.
pub fn run_with_detail(kind: TransportKind, spec: &WorkflowSpec, detail: bool) -> TransportResult {
    spec.validate().expect("invalid spec");
    let layout = ClusterLayout::new(spec, kind.extra_staging_procs(spec));
    let mut sim = Simulator::new(sim_config(spec, &layout));
    sim.set_trace_detail(detail);
    if detail {
        sim.enable_telemetry(SAMPLE_PERIOD);
        // Messages become causal edges through the Zipper tag vocabulary;
        // the baselines have no classifier and record none.
        if kind == TransportKind::Zipper {
            sim.enable_causal(zipper::message_kind);
        }
    }
    let policies = kind.build(&mut sim, spec, &layout, detail);
    let report = sim.run();
    finish(kind.name(), report, sim, &layout, policies.decisions())
}

/// Run the simulation application alone (compute phases + halo exchange,
/// no output) — the paper's lower bound.
pub fn run_sim_only(spec: &WorkflowSpec, detail: bool) -> TransportResult {
    spec.validate().expect("invalid spec");
    let layout = ClusterLayout::new(spec, 0);
    let mut sim = Simulator::new(sim_config(spec, &layout));
    sim.set_trace_detail(detail);
    zipper::build_sim_only(&mut sim, spec, &layout);
    let report = sim.run();
    finish("Simulation-only", report, sim, &layout, Default::default())
}

/// Analytic analysis-only time: the slowest consumer's pure analysis
/// compute over all steps (Fig. 2's "Analysis" reference bar).
pub fn run_analysis_only(spec: &WorkflowSpec) -> SimTime {
    let per_step = (0..spec.ana_ranks)
        .map(|q| spec.cost.analysis_block_time(spec.ana_bytes_per_step(q)))
        .max()
        .unwrap_or(SimTime::ZERO);
    per_step * spec.steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfd() -> WorkflowSpec {
        let mut s = WorkflowSpec::cfd(4, 2, 3);
        s.ranks_per_node = 2;
        s.staging_servers = 2;
        s.decaf_links = 2;
        s
    }

    #[test]
    fn every_transport_runs_the_tiny_cfd_workflow() {
        let spec = tiny_cfd();
        let sim_only = run_sim_only(&spec, true);
        assert!(sim_only.is_clean());
        for kind in TransportKind::ALL {
            let r = run_with_detail(kind, &spec, true);
            assert!(r.is_clean(), "{}: {:?} {:?}", r.name, r.fault, r.deadlocked);
            assert!(
                r.end_to_end >= sim_only.end_to_end,
                "{} ({}) cannot beat simulation-only ({})",
                r.name,
                r.end_to_end,
                sim_only.end_to_end
            );
        }
    }

    #[test]
    fn zipper_is_the_fastest_transport_on_cfd() {
        let spec = tiny_cfd();
        let mut times: Vec<(SimTime, &'static str)> = TransportKind::ALL
            .iter()
            .map(|&k| {
                let r = run_with_detail(k, &spec, true);
                assert!(r.is_clean(), "{}: {:?}", r.name, r.fault);
                (r.end_to_end, r.name)
            })
            .collect();
        times.sort();
        assert_eq!(times[0].1, "Zipper", "ranking: {times:?}");
    }

    #[test]
    fn analysis_only_matches_cost_model() {
        let spec = tiny_cfd();
        let t = run_analysis_only(&spec);
        // 2 sources × 16 MiB × 14.4 ns/B × 3 steps ≈ 1.45 s.
        let expect = spec.cost.analysis_block_time(2 * spec.bytes_per_rank_step) * spec.steps;
        assert_eq!(t, expect);
    }

    #[test]
    fn determinism_across_runs() {
        let spec = tiny_cfd();
        let a = run_with_detail(TransportKind::Zipper, &spec, true);
        let b = run_with_detail(TransportKind::Zipper, &spec, true);
        assert_eq!(a.end_to_end, b.end_to_end);
        assert_eq!(a.events, b.events);
        assert_eq!(a.xmit_wait_sim, b.xmit_wait_sim);
        // The telemetry series is deterministic too: same timestamps,
        // same counter values.
        assert_eq!(a.samples.len(), b.samples.len());
        for (pa, pb) in a.samples.points.iter().zip(&b.samples.points) {
            assert_eq!(pa.t, pb.t);
            assert_eq!(
                pa.counter(zipper_trace::CounterId::NetBytes),
                pb.counter(zipper_trace::CounterId::NetBytes)
            );
        }
    }

    #[test]
    fn detailed_runs_carry_telemetry_and_samples() {
        use zipper_trace::CounterId;
        let spec = tiny_cfd();
        let r = run_with_detail(TransportKind::Zipper, &spec, true);
        assert!(r.is_clean());
        assert!(r.metrics.is_enabled());
        assert!(r.metrics.counter(CounterId::NetBytes) > 0);
        // The registry mirrors the fabric's whole-cluster XmitWait, which
        // bounds the simulation-node subset reported separately.
        assert!(r.metrics.counter(CounterId::XmitWaitNs) >= r.xmit_wait_sim);
        assert!(r.samples.is_monotone());
        assert!(!r.samples.is_empty());
        // Totals-mode scaling runs skip sampling.
        let t = run_with_detail(TransportKind::Zipper, &spec, false);
        assert!(!t.metrics.is_enabled());
        assert!(t.samples.is_empty());
    }
}
