//! Failure injection: the runtime must degrade gracefully — never hang,
//! never lose data on a *write*-side PFS failure (the writer thread pushes
//! the block back to the message path and retires), and surface read-side
//! failures in the consumer metrics.
//!
//! The matrix below drives every injectable fault through the full
//! workflow driver: PFS write/read failures (`FailingFs`, with and without
//! the retry layer), transport faults (a `ChaosPlan` of sender ordinals:
//! transient send failures, corrupt wires, swallowed EOS markers), and
//! asserts each run terminates with the failure *typed* in the
//! [`WorkflowReport`] — never a hang, never a panic, never silent loss.

use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;
use zipper_pfs::{FailingFs, MemFs};
use zipper_trace::SpanKind;
use zipper_types::{
    ByteSize, ChaosEntity, ChaosFault, ChaosPlan, GlobalPos, Rank, RetryPolicy, RuntimeError,
    StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow, run_workflow_with, NetworkOptions, RunOptions, StorageOptions, WorkflowReport,
};

fn cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig {
        producers: 2,
        consumers: 1,
        steps: 8,
        bytes_per_rank_step: ByteSize::kib(64),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(8);
    cfg.tuning.producer_slots = 4;
    cfg.tuning.high_water_mark = 1;
    cfg
}

fn produce(
    cfg: &WorkflowConfig,
) -> impl Fn(zipper_types::Rank, &zipper_core::ZipperWriter) + Send + Sync {
    let steps = cfg.steps;
    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    move |rank, writer| {
        for s in 0..steps {
            writer.write_slab(
                StepId(s),
                GlobalPos::default(),
                Bytes::from(vec![rank.0 as u8; slab]),
            );
        }
    }
}

fn count_blocks(_rank: Rank, reader: &zipper_core::ZipperReader) -> u64 {
    let mut n = 0u64;
    while reader.read().is_some() {
        n += 1;
    }
    n
}

/// Run `cfg` over `net` with `fault` scripted on every `period`-th wire
/// (data wires, then the EOS marker) of every producer's sender, up to a
/// producer's whole wire stream.
fn run_with_sender_faults(
    cfg: &WorkflowConfig,
    net: NetworkOptions,
    fault: ChaosFault,
    period: u64,
) -> (WorkflowReport, Vec<u64>) {
    let wires = cfg.steps * cfg.blocks_per_rank_step() + cfg.consumers as u64;
    let mut plan = ChaosPlan::new();
    for p in 0..cfg.producers {
        for ordinal in (period..=wires).step_by(period as usize) {
            plan = plan.with(ChaosEntity::Sender(Rank(p as u32)), ordinal, fault);
        }
    }
    let opts = RunOptions {
        net,
        chaos: Some(plan),
        ..Default::default()
    };
    run_workflow_with(cfg, opts, produce(cfg), count_blocks).expect("ungated")
}

/// A PFS whose very first write fails: the writer thread must retire
/// without losing its stolen block, and every block still arrives over
/// the message channel.
#[test]
fn pfs_write_failure_degrades_to_message_only_without_data_loss() {
    let cfg = cfg();
    let storage = Arc::new(FailingFs::new(MemFs::new(), 1)); // fail every op
    let (report, counts) = run_workflow(
        &cfg,
        // Slow channel so stealing definitely engages (and then fails).
        NetworkOptions::throttled(1, 2e6, Duration::ZERO),
        StorageOptions::Custom(storage),
        produce(&cfg),
        count_blocks,
    );
    // Every block was delivered despite the dead PFS.
    assert_eq!(counts.iter().sum::<u64>(), cfg.total_blocks());
    let pt = report.producer_total();
    assert_eq!(pt.blocks_stolen, 0, "no block may count as stolen");
    assert_eq!(pt.blocks_sent, cfg.total_blocks());
    // The degradation is reported, not silent.
    let errors = report.errors();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, RuntimeError::WriterRetired { .. })),
        "expected a writer retirement report, got {errors:?}"
    );
    // The typed error still renders the human-readable story.
    assert!(
        errors
            .iter()
            .any(|e| e.to_string().contains("writer thread retired")),
        "display form lost the retirement message: {errors:?}"
    );
}

/// With an intermittently failing PFS, write-side failures cost nothing
/// (blocks fall back to the message path); any lost blocks must be
/// attributable to *read*-side faults recorded in the consumer metrics.
#[test]
fn intermittent_pfs_faults_are_accounted_exactly() {
    let cfg = cfg();
    let storage = Arc::new(FailingFs::new(MemFs::new(), 7));
    let (report, counts) = run_workflow(
        &cfg,
        NetworkOptions::throttled(1, 2e6, Duration::ZERO),
        StorageOptions::Custom(storage),
        produce(&cfg),
        count_blocks,
    );
    let delivered: u64 = counts.iter().sum();
    let read_faults = report
        .consumer_total()
        .errors
        .iter()
        .filter(|e| matches!(e, RuntimeError::BlockFetchFailed { .. }))
        .count() as u64;
    assert_eq!(
        delivered + read_faults,
        cfg.total_blocks(),
        "every block is either delivered or explicitly accounted as a read fault"
    );
    // The run terminated (we are here) — no hang — and producers finished
    // their full output.
    assert_eq!(report.producer_total().blocks_written, cfg.total_blocks());
}

/// An intermittently failing PFS behind the retry layer loses nothing:
/// every failed `put`/`get` is re-attempted, the run completes clean, and
/// the recovery work is visible as `pfs_retries` plus `Retry` spans on the
/// `pfs/retry` trace lane.
#[test]
fn pfs_retry_layer_rides_over_intermittent_faults() {
    let cfg = cfg();
    let storage = Arc::new(FailingFs::new(MemFs::new(), 5)); // fail every 5th op
    let (report, counts) = run_workflow(
        &cfg,
        // Slow channel so the disk path (and thus the faulty PFS) engages.
        NetworkOptions::throttled(1, 2e6, Duration::ZERO),
        StorageOptions::Custom(storage).with_retry(RetryPolicy::new(
            4,
            Duration::from_micros(200),
            Duration::from_millis(2),
        )),
        produce(&cfg),
        count_blocks,
    );
    // Retries absorbed every fault: nothing lost, nothing degraded.
    report.assert_complete();
    assert_eq!(counts.iter().sum::<u64>(), cfg.total_blocks());
    assert!(
        report.producer_total().blocks_stolen > 0,
        "throttled channel must engage the disk path for this test to bite"
    );
    assert!(report.pfs_retries > 0, "the faulty PFS must have been hit");
    let retry_time = zipper_trace::stats::kind_time_filtered(&report.trace, SpanKind::Retry, |l| {
        l == "pfs/retry"
    });
    assert!(
        retry_time > zipper_types::SimTime::ZERO,
        "backoff must appear as Retry spans on the pfs/retry lane"
    );
}

/// Transient send failures under the retrying sender: every wire is
/// eventually delivered, the run completes clean, and the recovery is
/// visible as `net_retries` plus `Retry` spans on the per-producer retry
/// lanes.
#[test]
fn transient_send_failures_ride_over_net_retry() {
    let cfg = cfg();
    // A retry re-attempts the wire as the next (clean) ordinal.
    let (report, counts) = run_with_sender_faults(
        &cfg,
        NetworkOptions::unthrottled(4).with_retry(RetryPolicy::new(
            3,
            Duration::from_micros(200),
            Duration::from_millis(2),
        )),
        ChaosFault::FailSend,
        7,
    );
    report.assert_complete();
    assert_eq!(counts.iter().sum::<u64>(), cfg.total_blocks());
    assert!(report.net_retries > 0, "injected send failures must retry");
    let retry_time = zipper_trace::stats::kind_time_filtered(&report.trace, SpanKind::Retry, |l| {
        l.starts_with("net/") && l.ends_with("/retry")
    });
    assert!(
        retry_time > zipper_types::SimTime::ZERO,
        "backoff must appear as Retry spans on the net retry lanes"
    );
}

/// Corrupt wires — the workflow-level equivalent of a TCP reader hitting
/// an undecodable frame — surface as typed in-band `Transport` faults in
/// the consumer's metrics. The stream *survives*: every uncorrupted wire
/// still arrives, including EOS, so the run terminates normally.
#[test]
fn corrupt_wires_are_typed_errors_and_the_stream_survives() {
    let mut cfg = cfg();
    // Message channel only: each producer's wire stream is then exactly
    // its blocks followed by one EOS, making the fault schedule exact.
    cfg.tuning.concurrent_transfer = false;
    // 64 data wires + 1 EOS per producer; a period-4 schedule strikes only
    // data wires (65 is odd), so EOS always survives this test.
    let per_producer = cfg.steps * cfg.blocks_per_rank_step();
    let (report, counts) = run_with_sender_faults(
        &cfg,
        NetworkOptions::unthrottled(8),
        ChaosFault::CorruptWire,
        4,
    );
    let corrupted_per_producer = per_producer / 4;
    let expected_faults = corrupted_per_producer * cfg.producers as u64;
    let delivered: u64 = counts.iter().sum();
    assert_eq!(delivered, cfg.total_blocks() - expected_faults);
    // Exact fault accounting lives in the counted view: each corrupt wire
    // fired one typed fault. (Scripted faults name their wire ordinal, so
    // they stay distinct entries; the folding of *identical* faults is
    // `report::tests::repeated_transport_faults_from_one_wire_are_deduplicated`.)
    let transport_faults: u64 = report
        .error_counts()
        .iter()
        .filter(|(e, _)| matches!(e, RuntimeError::Transport { .. }))
        .map(|(_, n)| *n as u64)
        .sum();
    assert_eq!(
        transport_faults,
        expected_faults,
        "every corrupt wire is one typed Transport error: {:?}",
        report.error_counts()
    );
    // The stream survived past each fault: producers flushed everything.
    assert_eq!(report.producer_total().blocks_written, cfg.total_blocks());
}

/// Every EOS marker swallowed — the lost-EOS hang this PR's watchdog
/// exists for. All data arrives, the stream never terminates; the
/// consumer's EOS watchdog must fire, close the stream, and report a typed
/// `EosTimeout` instead of hanging `join()` forever.
#[test]
fn swallowed_eos_trips_the_watchdog_instead_of_hanging() {
    let mut cfg = cfg();
    cfg.tuning.eos_timeout = Some(Duration::from_millis(300));
    // `DropEos` on every ordinal: data wires pass untouched, whichever
    // ordinal the EOS marker lands on (stealing varies it) is swallowed.
    let (report, counts) =
        run_with_sender_faults(&cfg, NetworkOptions::unthrottled(8), ChaosFault::DropEos, 1);
    // All data made it; only the EOS markers were lost.
    assert_eq!(counts.iter().sum::<u64>(), cfg.total_blocks());
    let errors = report.errors();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, RuntimeError::EosTimeout { eos_seen: 0, .. })),
        "expected an EOS-watchdog report, got {errors:?}"
    );
}
