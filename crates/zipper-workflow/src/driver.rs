//! The rank-spawning driver.

use crate::report::WorkflowReport;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zipper_core::{
    ChannelMesh, ChaosSender, Consumer, Producer, RetryingSender, TracedSender, WireSender,
    ZipperReader, ZipperWriter,
};
use zipper_pfs::{ChaosFs, MemFs, RetryingFs, Storage, ThrottledFs};
use zipper_policy::{
    ConsumerPolicy, Preflight, PreflightInput, PreflightReport, ProducerPolicy, RankScript,
    ReadScript, Severity,
};
use zipper_trace::{SampleSeries, Sampler, Telemetry, TraceMode, TraceSink};
use zipper_types::{
    panic_detail, BackpressureScript, ChaosEntity, ChaosPlan, Rank, RetryPolicy, RuntimeError,
    WorkflowConfig,
};

/// Message-channel options for a run.
#[derive(Clone, Debug)]
pub struct NetworkOptions {
    /// Per-consumer inbox capacity in messages (backpressure depth).
    pub inbox_capacity: usize,
    /// Optional aggregate bandwidth (bytes/s) and per-message latency.
    pub throttle: Option<(f64, Duration)>,
    /// Optional transient-failure retry for every producer's sender: each
    /// failed send is re-attempted with exponential backoff, recorded as
    /// `Retry` spans on lane `net/p{rank}/retry` and counted in
    /// [`WorkflowReport::net_retries`].
    pub retry: Option<RetryPolicy>,
    /// Optional scripted backpressure: each producer is spawned with the
    /// script's windows for its rank, and holds its scripted data wires
    /// until their window opens (a fixed hold, or a cumulative
    /// writer-steal credit target). Held time is charged to
    /// `net.backpressure_ns`.
    pub backpressure: Option<BackpressureScript>,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        NetworkOptions {
            inbox_capacity: 64,
            throttle: None,
            retry: None,
            backpressure: None,
        }
    }
}

impl NetworkOptions {
    /// Unthrottled mesh with a given inbox depth.
    pub fn unthrottled(inbox_capacity: usize) -> Self {
        NetworkOptions {
            inbox_capacity,
            ..Default::default()
        }
    }

    /// Throttled mesh: shared aggregate bandwidth + per-message latency.
    pub fn throttled(inbox_capacity: usize, bytes_per_sec: f64, latency: Duration) -> Self {
        NetworkOptions {
            inbox_capacity,
            throttle: Some((bytes_per_sec, latency)),
            ..Default::default()
        }
    }

    /// Retry failed sends under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// Storage options for a run.
#[derive(Clone, Default)]
pub enum StorageOptions {
    /// Unthrottled in-memory store.
    #[default]
    Memory,
    /// In-memory store behind a shared aggregate bandwidth (bytes/s) and
    /// per-op latency — the laptop stand-in for a contended Lustre.
    ThrottledMemory(f64, Duration),
    /// Any caller-provided backend (real disk, fault injection, …).
    Custom(Arc<dyn Storage>),
    /// Any of the above behind a transient-failure retry layer: failed
    /// `put`/`get` operations are re-attempted with exponential backoff,
    /// recorded as `Retry` spans on lane `pfs/retry` and counted in
    /// [`WorkflowReport::pfs_retries`].
    Retrying(Box<StorageOptions>, RetryPolicy),
}

impl StorageOptions {
    /// Wrap this backend in a retry layer (see [`StorageOptions::Retrying`]).
    pub fn with_retry(self, policy: RetryPolicy) -> Self {
        StorageOptions::Retrying(Box::new(self), policy)
    }

    fn build(self, sink: &TraceSink) -> Arc<dyn Storage> {
        match self {
            StorageOptions::Memory => Arc::new(MemFs::new()),
            StorageOptions::ThrottledMemory(bw, lat) => Arc::new(
                ThrottledFs::new(MemFs::new(), bw, lat).with_telemetry(sink.telemetry().clone()),
            ),
            StorageOptions::Custom(storage) => storage,
            StorageOptions::Retrying(inner, policy) => {
                let inner = inner.build(sink);
                Arc::new(RetryingFs::traced(inner, policy, sink, "pfs/retry"))
            }
        }
    }
}

/// Trace fidelity of a run.
#[derive(Clone, Copy, Debug)]
pub struct TraceOptions {
    /// How much the shared sink records (default: per-lane totals, which
    /// is what the derived metrics need and costs O(lanes) memory). A mode
    /// that keeps spans also records the wire-level `net/p{rank}` lanes
    /// ([`TracedSender`]) — there is no separate switch for them.
    pub mode: TraceMode,
    /// Collect congestion metrics (channel and PFS stall counters,
    /// queue-depth gauges, size histograms) and sample them periodically
    /// into [`WorkflowReport::samples`]. The metrics work with span
    /// recording off, but time blocked on a queue or in a retry backoff
    /// is a lane span (`Stall`, `Idle`, `ReadWait`, `Retry`), so reading
    /// it needs a recording `mode` — the default `Totals` keeps it.
    pub telemetry: bool,
    /// Period of the background sampler thread when `telemetry` is on.
    pub sample_period: Duration,
    /// Record every rank's policy-kernel decisions and inject them as
    /// `policy/p{rank}` / `policy/q{rank}` lanes of zero-duration
    /// [`zipper_trace::SpanKind::Policy`] markers into
    /// [`WorkflowReport::trace`]. Independent of `mode`. The recorded
    /// decision traces themselves land in
    /// [`WorkflowReport::producer_decisions`] /
    /// [`WorkflowReport::consumer_decisions`].
    pub policy: bool,
    /// Record cross-entity causal edges (wire ship→receive, queue
    /// push→pop, steal announce, gate open, PFS fetch, EOS fan-out) into
    /// [`WorkflowReport::causal`], enabling
    /// [`WorkflowReport::critical_path`] and the what-if sensitivity
    /// sweep. Needs span recording on (`mode` enabled); inert otherwise.
    pub causal: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            mode: TraceMode::Totals,
            telemetry: false,
            sample_period: Duration::from_millis(10),
            policy: false,
            causal: false,
        }
    }
}

impl TraceOptions {
    /// No tracing at all: recorders are inert, metrics time fields are
    /// zero, counters still work.
    pub fn off() -> Self {
        TraceOptions {
            mode: TraceMode::Off,
            ..Default::default()
        }
    }

    /// Full-fidelity tracing: raw spans plus wire lanes — everything the
    /// timeline and window statistics need.
    pub fn full() -> Self {
        TraceOptions {
            mode: TraceMode::Full,
            ..Default::default()
        }
    }

    /// Turn on metric collection, sampled every `period`.
    pub fn with_telemetry(mut self, period: Duration) -> Self {
        self.telemetry = true;
        self.sample_period = period;
        self
    }

    /// Turn on policy-kernel decision recording (see
    /// [`TraceOptions::policy`]).
    pub fn with_policy(mut self) -> Self {
        self.policy = true;
        self
    }

    /// Turn on causal-edge recording (see [`TraceOptions::causal`]).
    pub fn with_causal(mut self) -> Self {
        self.causal = true;
        self
    }
}

/// Everything that shapes a run besides the workflow config and the two
/// application closures: the one argument of [`run_workflow_with`].
#[derive(Clone, Default)]
pub struct RunOptions {
    /// The message channel (inbox depth, throttle, retry, scripted
    /// backpressure).
    pub net: NetworkOptions,
    /// The storage backend.
    pub storage: StorageOptions,
    /// Trace fidelity.
    pub trace: TraceOptions,
    /// A scripted fault plan — the threaded half of the cross-substrate
    /// fault-conformance harness (the DES half interprets the identical
    /// plan in virtual time). An empty plan is the same as `None`. Per
    /// entity of the plan, the driver arranges:
    ///
    /// * `Sender(r)` — producer `r`'s mesh endpoint is wrapped innermost in
    ///   a [`ChaosSender`] striking the scripted wire ordinals; a
    ///   `DetachSender` event spawns that producer with its sender detached
    ///   from the data path (every block drains through the work-stealing
    ///   writer).
    /// * `Writer(r)` — producer `r`'s storage handle is wrapped in a
    ///   [`ChaosFs`] failing the scripted `put` ordinals; the writer thread
    ///   retires on the fault and the policy kernel may revive it per
    ///   `cfg.tuning.recovery`.
    /// * `Output(q)` — consumer `q`'s storage handle is wrapped likewise,
    ///   so scripted Preserve-store puts are lost.
    /// * `Analysis(q)` — scripted read ordinals panic inside consumer
    ///   `q`'s `read`. The rank runs under its restart supervisor
    ///   (`ConsumerRecovery::run`) whenever such an ordinal is scripted
    ///   *or* `cfg.tuning.recovery` grants a restart budget (so an organic
    ///   `consume` panic is healed too), as its [`ReadScript`] decides.
    ///   With the budget exhausted the rank is abandoned fail-soft and
    ///   reported in [`WorkflowReport::failures`]. Restart replay requires Preserve
    ///   mode to have made the backlog durable.
    pub chaos: Option<ChaosPlan>,
    /// Verify the plan statically first ([`RunOptions::preflight`]) and
    /// refuse to spawn a thread for one with any error-severity diagnostic
    /// — a provable deadlock, a dead chaos ordinal, an unhealable crash.
    /// Warnings and lints do not block; the verdict of an accepted plan
    /// rides back in [`WorkflowReport::preflight`].
    pub preflight_gate: bool,
}

impl RunOptions {
    /// Statically verify the plan a run of `cfg` under these options would
    /// interpret — the workflow config, the scripted backpressure riding in
    /// `net`, and the chaos plan — without spawning a thread: the same
    /// `PreflightInput` the DES builds its spec from
    /// (`WorkflowSpec::from_plan` in `zipper-transports`).
    pub fn preflight(&self, cfg: &WorkflowConfig) -> PreflightReport {
        Preflight::check(&self.plan(cfg))
    }

    /// The plan a run of `cfg` under these options interprets.
    fn plan(&self, cfg: &WorkflowConfig) -> PreflightInput {
        PreflightInput {
            workflow: cfg.clone(),
            chaos: self.chaos.clone(),
            backpressure: self.net.backpressure.clone(),
        }
    }
}

/// Run a coupled workflow with default options: totals-fidelity tracing,
/// no chaos, no preflight gate. See [`run_workflow_with`].
pub fn run_workflow<R, P, C>(
    cfg: &WorkflowConfig,
    net: NetworkOptions,
    storage_opts: StorageOptions,
    produce: P,
    consume: C,
) -> (WorkflowReport, Vec<R>)
where
    R: Send + 'static,
    P: Fn(Rank, &ZipperWriter) + Send + Sync + 'static,
    C: Fn(Rank, &ZipperReader) -> R + Send + Sync + 'static,
{
    run_workflow_traced(
        cfg,
        net,
        storage_opts,
        TraceOptions::default(),
        produce,
        consume,
    )
}

/// [`run_workflow`] with explicit trace fidelity. Kept as a positional
/// shorthand only because the benchmark adapter
/// (`perf_ledger/src/adapter.rs`) calls it; folding it into
/// [`run_workflow_with`] is left to a later `benchmark` issue (a one-file
/// port of that adapter).
pub fn run_workflow_traced<R, P, C>(
    cfg: &WorkflowConfig,
    net: NetworkOptions,
    storage_opts: StorageOptions,
    trace: TraceOptions,
    produce: P,
    consume: C,
) -> (WorkflowReport, Vec<R>)
where
    R: Send + 'static,
    P: Fn(Rank, &ZipperWriter) + Send + Sync + 'static,
    C: Fn(Rank, &ZipperReader) -> R + Send + Sync + 'static,
{
    let opts = RunOptions {
        net,
        storage: storage_opts,
        trace,
        ..Default::default()
    };
    run_workflow_with(cfg, opts, produce, consume).expect("an ungated run is never refused")
}

/// Run a coupled workflow: `cfg.producers` simulation ranks each driving
/// `produce(rank, &writer)`, and `cfg.consumers` analysis ranks each
/// driving `consume(rank, &reader)` to completion, every rank's runtime
/// lanes recording into one shared wall-clock [`TraceSink`] whose merged
/// log lands in [`WorkflowReport::trace`].
///
/// Contracts:
/// * `produce` must return only after its last `write`; the driver calls
///   `finish()` afterwards.
/// * `consume` must drain its reader (read until `None`) — the pipeline is
///   data-availability-driven, and an undrained reader would block the
///   runtime threads.
///
/// Returns the report plus the results of the consumers that completed,
/// in rank order. A producer or consumer app that panics does not abort
/// the run: the panic is caught, the rank's runtime is torn down through
/// its drop guards, and the failure lands in
/// [`WorkflowReport::failures`] (so a dead consumer contributes no result
/// but the rest of the workflow still drains and reports).
///
/// `Err` only when [`RunOptions::preflight_gate`] is set and the plan is
/// rejected — before any thread is spawned, carrying the verdict.
///
/// # Panics
///
/// Ungated, on a plan that breaks the structural rule every interpreter
/// applies ([`Preflight::check_shape`]: a zero count, a high-water mark
/// at capacity, a tag overflow, a malformed script, a `DetachSender`
/// without `concurrent_transfer`) — before any thread is spawned, with
/// the diagnostic's `ZV0xx` code in the message.
///
/// Each producer's sender is the stack `mesh → chaos → trace → retry`,
/// innermost first: fault injection sits at the wire (as a lossy network
/// would), tracing observes it, and retry rides over it. The backpressure
/// gate is not a layer: the sender thread holds a data wire where its
/// rank's kernel says before calling the stack, so a retried send is not
/// held twice, and held time is not the transport's.
pub fn run_workflow_with<R, P, C>(
    cfg: &WorkflowConfig,
    opts: RunOptions,
    produce: P,
    consume: C,
) -> Result<(WorkflowReport, Vec<R>), Box<PreflightReport>>
where
    R: Send + 'static,
    P: Fn(Rank, &ZipperWriter) + Send + Sync + 'static,
    C: Fn(Rank, &ZipperReader) -> R + Send + Sync + 'static,
{
    let plan = opts.plan(cfg);
    let preflight = match opts.preflight_gate.then(|| Preflight::check(&plan)) {
        Some(verdict) if verdict.is_rejected() => return Err(Box::new(verdict)),
        verdict => verdict,
    };
    let shape = Preflight::check_shape(&plan);
    if let Some(e) = shape.iter().find(|d| d.code.severity() == Severity::Error) {
        panic!("invalid workflow plan: {e}");
    }
    let RunOptions {
        net,
        storage: storage_opts,
        trace,
        chaos,
        preflight_gate: _,
    } = opts;
    let chaos = chaos.filter(|plan| !plan.is_empty());
    let chaos = chaos.as_ref();
    let telemetry = if trace.telemetry {
        Telemetry::on()
    } else {
        Telemetry::off()
    };
    let mut sink = TraceSink::wall(trace.mode).with_telemetry(telemetry.clone());
    if trace.causal {
        sink = sink.with_causal();
    }
    let storage = storage_opts.build(&sink);
    let mut mesh =
        ChannelMesh::new(cfg.consumers, net.inbox_capacity).with_telemetry(telemetry.clone());
    if let Some((bw, lat)) = net.throttle {
        mesh = mesh.with_throttle(bw, lat);
    }
    let sampler = trace
        .telemetry
        .then(|| Sampler::spawn(telemetry.clone(), sink.clock(), trace.sample_period));

    let produce = Arc::new(produce);
    let consume = Arc::new(consume);
    // Every rank's policy kernel, by rank: read back after the joins for
    // the decision traces.
    let mut producer_scripts = Vec::with_capacity(cfg.producers);
    let mut consumer_policies = Vec::with_capacity(cfg.consumers);
    // Failures observed by the driver itself (an app thread panicking, a
    // thread that could not be spawned) — merged into the report alongside
    // the per-rank runtime errors.
    let mut failures: Vec<RuntimeError> = Vec::new();
    // Wall-clock run timing for the report; the DES driver uses virtual time.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();

    // Spawn consumer runtimes + application threads first so inboxes exist
    // before any producer sends. Each app thread catches its own unwind:
    // the handle moves into the closure, so on a panic its drop guard
    // closes the rank's queue and the rest of the workflow keeps draining.
    let mut consumer_apps = Vec::with_capacity(cfg.consumers);
    let mut consumer_runtimes = Vec::with_capacity(cfg.consumers);
    for q in 0..cfg.consumers {
        let rank = Rank(q as u32);
        let rx = match mesh.take_receiver(rank) {
            Ok(rx) => rx,
            Err(_) => {
                // Unreachable with a driver-built mesh; recorded, not fatal.
                failures.push(RuntimeError::ChannelDisconnected {
                    rank,
                    context: "mesh receiver unavailable",
                });
                continue;
            }
        };
        let mut cp = ConsumerPolicy::new(rank, cfg.producers, cfg.consumers, &cfg.tuning);
        if trace.policy {
            cp = cp.recorded();
        }
        let policy = Arc::new(Mutex::new(cp));
        consumer_policies.push(policy.clone());
        // Chaos: scripted Preserve-store faults hit this rank's output
        // thread through a ChaosFs wrap of the shared store.
        let consumer_storage: Arc<dyn Storage> = match chaos {
            Some(plan) => Arc::new(ChaosFs::new(
                storage.clone(),
                Arc::new(plan.scope(ChaosEntity::Output(rank))),
            )),
            None => storage.clone(),
        };
        let mut c = Consumer::spawn_with(
            rank,
            cfg.tuning,
            cfg.producers,
            rx,
            consumer_storage,
            sink.clone(),
            Some(policy),
        );
        let consume = consume.clone();
        // This rank's application failing, as the typed failure the report carries.
        let app_failed = move |detail: String| RuntimeError::AppPanicked {
            rank,
            role: "consumer app",
            detail,
        };
        // The rank runs under the restart supervisor when it has a budget
        // to spend or a scripted crash to account; otherwise the plain
        // reader serves, with no script to lock or tick.
        let script = ReadScript::supervised(chaos, rank, &cfg.tuning.recovery);
        let app: Box<dyn FnOnce() -> Result<R, RuntimeError> + Send> = match script {
            None => {
                let reader = c.reader();
                Box::new(
                    move || match catch_unwind(AssertUnwindSafe(|| consume(rank, &reader))) {
                        Ok(r) => Ok(r),
                        Err(payload) => {
                            // Explicit for the reader: the drop guard closes
                            // the queue and records the abandoned stream.
                            drop(reader);
                            Err(app_failed(panic_detail(payload.as_ref())))
                        }
                    },
                )
            }
            Some(script) => {
                let recovery = c.recovery(script);
                Box::new(move || {
                    recovery
                        .run(|reader| consume(rank, reader))
                        .map_err(app_failed)
                })
            }
        };
        consumer_runtimes.push(c);
        let spawned = std::thread::Builder::new()
            .name(format!("ana-rank-{q}"))
            .spawn(app);
        match spawned {
            Ok(h) => consumer_apps.push((rank, h)),
            Err(e) => failures.push(app_failed(format!("could not spawn app thread: {e}"))),
        }
    }

    // Spawn producer runtimes + application threads.
    let mut producer_apps = Vec::with_capacity(cfg.producers);
    let mut producer_runtimes = Vec::with_capacity(cfg.producers);
    let mut retry_counters: Vec<Arc<AtomicU64>> = Vec::new();
    for p in 0..cfg.producers {
        let rank = Rank(p as u32);
        // The sender stack, innermost first (order rationale: see the
        // function docs).
        let sender_scope = chaos.map(|plan| Arc::new(plan.scope(ChaosEntity::Sender(rank))));
        let detach_sender = sender_scope.as_ref().is_some_and(|s| s.detached());
        let base: Box<dyn WireSender> = match sender_scope {
            Some(scope) => Box::new(ChaosSender::new(mesh.sender(), scope)),
            None => Box::new(mesh.sender()),
        };
        let traced: Box<dyn WireSender> = if trace.mode.keeps_spans() {
            Box::new(TracedSender::new(base, &sink, format!("net/p{p}")))
        } else {
            base
        };
        let retried: Box<dyn WireSender> = match net.retry {
            Some(policy) => {
                let r =
                    RetryingSender::new(traced, policy).traced(&sink, format!("net/p{p}/retry"));
                retry_counters.push(r.retry_counter());
                Box::new(r)
            }
            None => traced,
        };
        let mut pp = ProducerPolicy::from_tuning(rank, cfg.consumers, &cfg.tuning);
        if trace.policy {
            pp = pp.recorded();
        }
        let windows = net
            .backpressure
            .as_ref()
            .map(|s| s.windows_for(rank))
            .unwrap_or_default();
        let script = Arc::new(Mutex::new(RankScript::new(pp, windows)));
        producer_scripts.push(script.clone());
        // Chaos: scripted PFS faults hit this rank's writer thread through
        // a ChaosFs wrap of the shared store.
        let producer_storage: Arc<dyn Storage> = match chaos {
            Some(plan) => Arc::new(ChaosFs::new(
                storage.clone(),
                Arc::new(plan.scope(ChaosEntity::Writer(rank))),
            )),
            None => storage.clone(),
        };
        let mut prod = Producer::spawn_with(
            rank,
            cfg.tuning,
            retried,
            producer_storage,
            sink.clone(),
            Some(script),
            detach_sender,
        );
        let writer = prod.writer(cfg.tuning.block_size.as_u64() as usize);
        producer_runtimes.push(prod);
        let produce = produce.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("sim-rank-{p}"))
            .spawn(
                move || match catch_unwind(AssertUnwindSafe(|| produce(rank, &writer))) {
                    Ok(()) => {
                        writer.finish();
                        Ok(())
                    }
                    Err(payload) => {
                        // Drop guard closes the queue: the sender thread still
                        // flushes EOS, so consumers terminate normally.
                        drop(writer);
                        Err(RuntimeError::AppPanicked {
                            rank,
                            role: "producer app",
                            detail: panic_detail(payload.as_ref()),
                        })
                    }
                },
            );
        match spawned {
            Ok(h) => producer_apps.push((rank, h)),
            Err(e) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "producer app",
                detail: format!("could not spawn app thread: {e}"),
            }),
        }
    }

    // Join in dependency order: producer apps → producer runtimes (EOS
    // flows to consumers) → consumer apps → consumer runtimes. Every join
    // is absorbed into the failure list instead of propagating a panic —
    // the report is produced no matter which ranks died.
    for (rank, h) in producer_apps {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(e),
            Err(payload) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "producer app",
                detail: panic_detail(payload.as_ref()),
            }),
        }
    }
    let producers: Vec<_> = producer_runtimes.into_iter().map(|p| p.join()).collect();
    let mut results: Vec<R> = Vec::with_capacity(consumer_apps.len());
    for (rank, h) in consumer_apps {
        match h.join() {
            Ok(Ok(r)) => results.push(r),
            Ok(Err(e)) => failures.push(e),
            Err(payload) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "consumer app",
                detail: panic_detail(payload.as_ref()),
            }),
        }
    }
    let consumers: Vec<_> = consumer_runtimes.into_iter().map(|c| c.join()).collect();

    // Stop sampling before the snapshot so the final sample sees the fully
    // merged state of every rank.
    let samples = sampler
        .map(Sampler::stop)
        .unwrap_or_else(SampleSeries::default);

    // Read the storage totals, then release the driver's handle: every
    // rank's clone died at join, so this drop is what lets a retry
    // decorator flush its buffered `pfs/retry` lane into the sink before
    // the snapshot below.
    let pfs_blocks = storage.len();
    let pfs_bytes_written = storage.bytes_written();
    let pfs_retries = storage.retries();
    drop(storage);

    // Every runtime thread has joined, so the policy locks are free; take
    // each rank's decision sequence and lay it down as a policy lane.
    let mut trace_log = sink.snapshot();
    let mut producer_decisions = Vec::new();
    let mut consumer_decisions = Vec::new();
    if trace.policy {
        for (p, script) in producer_scripts.iter().enumerate() {
            let decisions = script.lock().policy().trace().clone();
            zipper_trace::policy::inject(&mut trace_log, &format!("p{p}"), &decisions);
            producer_decisions.push(decisions);
        }
        for (q, policy) in consumer_policies.iter().enumerate() {
            let decisions = policy.lock().trace().clone();
            zipper_trace::policy::inject(&mut trace_log, &format!("q{q}"), &decisions);
            consumer_decisions.push(decisions);
        }
    }

    let report = WorkflowReport {
        wall: t0.elapsed(),
        producers,
        consumers,
        failures,
        net_bytes: mesh.bytes_sent(),
        net_messages: mesh.messages_sent(),
        net_backpressure: mesh.backpressure(),
        net_retries: retry_counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum(),
        pfs_blocks,
        pfs_bytes_written,
        pfs_retries,
        trace: trace_log,
        causal: sink.causal().snapshot(),
        metrics: telemetry.snapshot(),
        samples,
        producer_decisions,
        consumer_decisions,
        preflight,
    };
    Ok((report, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use zipper_types::{ByteSize, GlobalPos, PreserveMode, StepId};

    fn cfg(producers: usize, consumers: usize, steps: u64) -> WorkflowConfig {
        let mut c = WorkflowConfig {
            producers,
            consumers,
            steps,
            bytes_per_rank_step: ByteSize::kib(64),
            ..Default::default()
        };
        c.tuning.block_size = ByteSize::kib(16);
        c.tuning.producer_slots = 8;
        c.tuning.high_water_mark = 4;
        c
    }

    /// A producer that emits `steps` slabs of the configured size.
    fn slab_producer(cfg: &WorkflowConfig) -> impl Fn(Rank, &ZipperWriter) + Send + Sync {
        let steps = cfg.steps;
        let slab_len = cfg.bytes_per_rank_step.as_u64() as usize;
        move |rank, writer| {
            for s in 0..steps {
                let payload = vec![(rank.0 as u8).wrapping_add(s as u8); slab_len];
                writer.write_slab(StepId(s), GlobalPos::default(), Bytes::from(payload));
            }
        }
    }

    fn count_blocks(_rank: Rank, reader: &ZipperReader) -> u64 {
        let mut n = 0u64;
        while reader.read().is_some() {
            n += 1;
        }
        n
    }

    /// Default options recording policy decisions under `plan`.
    fn chaos_opts(plan: ChaosPlan) -> RunOptions {
        RunOptions {
            trace: TraceOptions::default().with_policy(),
            chaos: Some(plan),
            ..Default::default()
        }
    }

    #[test]
    fn counts_blocks_end_to_end() {
        let c = cfg(3, 2, 4);
        let expected_blocks = c.total_blocks();
        let (report, counts) = run_workflow(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            slab_producer(&c),
            |_rank, reader| {
                let mut n = 0u64;
                while let Some(_b) = reader.read() {
                    n += 1;
                }
                n
            },
        );
        report.assert_complete();
        let delivered: u64 = counts.iter().sum();
        assert_eq!(delivered, expected_blocks);
        assert_eq!(report.producer_total().blocks_written, expected_blocks);
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn preserve_mode_lands_everything_on_storage() {
        let mut c = cfg(2, 1, 3);
        c.tuning.preserve = PreserveMode::Preserve;
        let (report, _) = run_workflow(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.pfs_blocks as u64, c.total_blocks());
    }

    #[test]
    fn throttled_network_engages_dual_channel() {
        let mut c = cfg(2, 1, 6);
        c.tuning.producer_slots = 4;
        c.tuning.high_water_mark = 1;
        let (report, _) = run_workflow(
            &c,
            NetworkOptions::throttled(1, 2e6, Duration::ZERO),
            StorageOptions::Memory,
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(
            report.steal_fraction() > 0.0,
            "slow network should trigger the writer thread"
        );
        let total = report.consumer_total();
        assert_eq!(
            total.blocks_net + total.blocks_disk,
            c.total_blocks(),
            "both channels together deliver everything"
        );
    }

    #[test]
    fn policy_recording_returns_decisions_and_injects_policy_lanes() {
        use zipper_trace::SpanKind;
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default().with_policy(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.producer_decisions.len(), 2);
        assert_eq!(report.consumer_decisions.len(), 2);
        // Every producer routed all of its blocks and announced EOS to
        // its one source-affine consumer on both channels.
        for p in &report.producer_decisions {
            let t = p.canonical();
            assert_eq!(t.routes.len() as u64, c.total_blocks() / 2);
            assert_eq!(t.eos_announced.len(), 2);
        }
        for q in &report.consumer_decisions {
            assert_eq!(q.canonical().completions, 1);
        }
        // The decision sequences also landed as policy lanes.
        for label in ["policy/p0", "policy/p1", "policy/q0", "policy/q1"] {
            let lane = report
                .trace
                .lane_by_label(label)
                .unwrap_or_else(|| panic!("missing lane {label}"));
            assert!(report
                .trace
                .lane_spans(lane)
                .iter()
                .all(|s| s.kind == SpanKind::Policy));
        }
    }

    #[test]
    fn full_trace_produces_a_renderable_timeline() {
        use zipper_trace::SpanKind;
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        // Every rank's lanes made it into the merged log, including the
        // wire lanes.
        let labels: Vec<String> = report
            .trace
            .lanes()
            .map(|l| report.trace.lane_label(l).to_string())
            .collect();
        for needed in [
            "sim/p0/app",
            "sim/p1/send",
            "net/p0",
            "ana/q0/recv",
            "ana/q1/app",
        ] {
            assert!(
                labels.iter().any(|l| l == needed),
                "missing lane {needed}: {labels:?}"
            );
        }
        // The metrics are views over the same log: aggregate compute time
        // in the trace equals the metrics' derived compute total.
        let p = report.producer_total();
        let trace_compute =
            zipper_trace::stats::kind_time_filtered(&report.trace, SpanKind::Compute, |l| {
                l.starts_with("sim/") && l.ends_with("/app")
            });
        assert_eq!(p.compute(), Duration::from_nanos(trace_compute.as_nanos()));
        // And the timeline renders with step-marked compute on it.
        let t = report.timeline(60);
        assert!(t.contains("sim/p0/app"), "{t}");
        assert!(
            report
                .window(zipper_types::SimTime::ZERO, report.trace.horizon())
                .steps_per_lane
                > 0.0
        );
    }

    #[test]
    fn causal_trace_extracts_a_critical_path() {
        use zipper_trace::{Bucket, CriticalPath};
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full().with_causal(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(!report.causal.is_empty(), "edges were recorded");
        let graph = report.causal_graph();
        let path = CriticalPath::extract(&graph).expect("path exists");
        // The path telescopes: bucket attribution sums to the makespan
        // within 1% (wall-clock jitter between lane clock reads).
        let total = path.attribution.total().as_nanos() as f64;
        let makespan = graph.makespan().as_nanos() as f64;
        assert!(
            (total - makespan).abs() / makespan < 0.01,
            "attribution {total} vs makespan {makespan}"
        );
        // It ends in analysis and crossed from simulation to get there: by
        // a block's wire or steal, or — when the last block lands before
        // the last end-of-stream mark, as it can under load — by that mark.
        let sig = path.signature(&graph);
        assert!(
            sig.iter()
                .any(|s| ["wire:", "steal:", "eos:"].iter().any(|k| s.starts_with(k))),
            "path crosses a substrate edge: {sig:?}"
        );
        // …ending on an analysis lane before the virtual-sink pad hop.
        assert_eq!(sig.last().map(String::as_str), Some("·"), "{sig:?}");
        assert_eq!(
            sig.get(sig.len().saturating_sub(2)).map(String::as_str),
            Some("ana/app"),
            "{sig:?}"
        );
        // The sensitivity sweep is sane: scaling a bucket by 1× is the
        // identity, and no 2× sweep predicts a speedup.
        for o in graph.what_if_sweep() {
            assert!(o.delta_ns() >= 0.0, "{o}");
        }
        assert_eq!(
            graph.what_if(Bucket::Comp, 1.0).predicted_ns,
            makespan,
            "identity reproduces the measured makespan"
        );
        // And the rendered artifacts carry the verdict.
        let t = report.timeline_critical(60);
        assert!(t.contains("critical path (verdict:"), "{t}");
        assert!(
            report.summary().contains("causal: verdict"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn causal_off_records_nothing() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(report.causal.is_empty());
        assert_eq!(report.causal.unjoined(), 0);
        assert!(
            !report.summary().contains("causal:"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn trace_off_still_counts_blocks() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::off(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.producer_total().blocks_written, c.total_blocks());
        assert_eq!(report.producer_total().compute(), Duration::ZERO);
        assert_eq!(report.trace.lane_count(), 0);
    }

    #[test]
    fn telemetry_populates_metrics_and_samples() {
        use zipper_trace::{CounterId, GaugeId, HistogramId};
        let c = cfg(2, 1, 4);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default().with_telemetry(Duration::from_micros(100)),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(report.metrics.is_enabled());
        assert!(report.metrics.counter(CounterId::NetBytes) > 0);
        assert!(report.metrics.counter(CounterId::NetMessages) > 0);
        let h = report.metrics.histogram(HistogramId::SendBytes);
        assert!(h.count > 0);
        assert!(report.samples.is_monotone());
        assert!(!report.samples.is_empty());
        // Every message was drained: the inbox-depth gauge closes at zero.
        let last = report.samples.points.last().unwrap();
        assert_eq!(last.gauge(GaugeId::InboxDepth), 0);
        assert!(
            report.summary().contains("net.bytes"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn telemetry_off_report_is_inert() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(!report.metrics.is_enabled());
        assert!(report.samples.is_empty());
    }

    #[test]
    // A wall-clock sleep is the slow consumer; this test decides nothing.
    #[allow(clippy::disallowed_methods)]
    fn pfs_write_sizes_are_observed_once_per_stolen_block() {
        use zipper_trace::HistogramId;
        // A slow consumer and a slow PFS: producers stall on a full buffer
        // and the writers steal. The writer observes each stolen block's
        // size; the throttled store underneath must not observe it again.
        let mut c = cfg(2, 1, 8);
        c.tuning.concurrent_transfer = true;
        c.tuning.consumer_slots = 2;
        let opts = RunOptions {
            net: NetworkOptions::unthrottled(2),
            storage: StorageOptions::ThrottledMemory(4e6, Duration::ZERO),
            trace: TraceOptions::default().with_telemetry(Duration::from_millis(1)),
            ..Default::default()
        };
        let (report, _) = run_workflow_with(&c, opts, slab_producer(&c), |_, reader| {
            while reader.read().is_some() {
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .unwrap();
        report.assert_complete();
        let p = report.producer_total();
        assert!(p.blocks_stolen > 0, "the writers stole");
        assert_eq!(
            report.metrics.histogram(HistogramId::PfsWriteBytes).count,
            p.blocks_stolen
        );
        assert!(p.stall() > Duration::ZERO, "producers stalled");
    }

    #[test]
    fn chaos_consumer_crash_recovers_via_preserve_replay() {
        use zipper_types::{ChaosFault, RecoveryPolicy};
        // Acceptance scenario: a consumer killed mid-stream recovers by
        // Preserve-store replay, and the final analysis output equals the
        // fault-free run's.
        let mut c = cfg(2, 2, 4);
        c.tuning.preserve = PreserveMode::Preserve;
        c.tuning.recovery = RecoveryPolicy {
            max_consumer_restarts: 1,
            ..Default::default()
        };
        let digest = |_rank: Rank, reader: &ZipperReader| {
            let mut ids: Vec<u64> = reader.iter().map(|b| b.id().as_u64()).collect();
            ids.sort_unstable();
            ids
        };
        let (clean_report, clean) = run_workflow(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            slab_producer(&c),
            digest,
        );
        clean_report.assert_complete();

        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp);
        let (report, got) =
            run_workflow_with(&c, chaos_opts(plan), slab_producer(&c), digest).unwrap();
        // The injected crash is reported (ReaderAbandoned on the replayed
        // rank) but recovered: no app-level failure, full output.
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(got, clean, "recovered output must equal the fault-free run");
        let t1 = report.consumer_decisions[1].canonical();
        assert!(t1.abandoned, "the crash was accounted");
        assert_eq!(t1.restarts, vec![2], "read #3 crashed with 2 delivered");
        assert_eq!(t1.completions, 1, "the restarted pass drained to EOS");
        let t0 = report.consumer_decisions[0].canonical();
        assert!(!t0.abandoned);
        assert_eq!(t0.restarts, Vec::<usize>::new());
    }

    #[test]
    fn organic_consumer_panic_is_restarted_without_a_chaos_plan() {
        use std::sync::atomic::AtomicBool;
        // The restart budget alone selects the supervisor: no chaos plan,
        // the closure itself panics once, after its second delivery.
        let mut c = cfg(2, 1, 4);
        c.tuning.preserve = PreserveMode::Preserve;
        c.tuning.recovery.max_consumer_restarts = 1;
        let crashed = AtomicBool::new(false);
        let consume = move |_rank: Rank, reader: &ZipperReader| {
            let mut ids = Vec::new();
            while let Some(b) = reader.read() {
                ids.push(b.id().as_u64());
                if ids.len() == 2 && !crashed.swap(true, Ordering::SeqCst) {
                    panic!("organic analysis bug");
                }
            }
            ids
        };
        let opts = RunOptions {
            trace: TraceOptions::default().with_policy(),
            ..Default::default()
        };
        let (report, mut got) = run_workflow_with(&c, opts, slab_producer(&c), consume).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let mut ids = got.pop().expect("the restarted pass returned");
        assert_eq!(ids.len() as u64, c.total_blocks(), "every block delivered");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, c.total_blocks(), "exactly once");
        let t = report.consumer_decisions[0].canonical();
        assert!(t.abandoned, "the panic was accounted");
        assert_eq!(t.restarts, vec![2], "one restart, replaying 2 deliveries");
        assert_eq!(t.completions, 1);
    }

    #[test]
    fn chaos_crash_without_budget_fails_soft() {
        use zipper_types::ChaosFault;
        let mut c = cfg(1, 2, 3);
        c.tuning.preserve = PreserveMode::Preserve;
        // Default recovery: zero restart budget.
        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp);
        let (report, counts) =
            run_workflow_with(&c, chaos_opts(plan), slab_producer(&c), count_blocks).unwrap();
        // The run terminates (no deadlock), the dead rank is reported, and
        // the surviving rank still drains its share.
        assert_eq!(counts.len(), 1);
        assert!(
            report
                .failures
                .iter()
                .any(|e| matches!(e, RuntimeError::AppPanicked { rank, .. } if *rank == Rank(0))),
            "unrecovered crash lands in failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn chaos_writer_fault_revives_and_detached_sender_drains_by_disk() {
        use zipper_types::{ChaosFault, RecoveryPolicy, RoutingPolicy};
        let mut c = cfg(2, 1, 4);
        c.tuning.preserve = PreserveMode::Preserve;
        c.tuning.high_water_mark = 0;
        c.tuning.routing = RoutingPolicy::RoundRobin;
        c.tuning.recovery = RecoveryPolicy {
            writer_cooldown: Duration::ZERO,
            max_writer_revivals: 1,
            max_consumer_restarts: 0,
        };
        let mut plan =
            ChaosPlan::new().with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail);
        for p in 0..2 {
            plan = plan.with(ChaosEntity::Sender(Rank(p)), 1, ChaosFault::DetachSender);
        }
        let expected = c.total_blocks();
        let (report, counts) =
            run_workflow_with(&c, chaos_opts(plan), slab_producer(&c), count_blocks).unwrap();
        // The injected PFS fault is reported (WriterRetired) but healed by
        // the revival: nothing app-level failed and nothing was lost.
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            report
                .errors()
                .iter()
                .any(|e| matches!(e, RuntimeError::WriterRetired { .. })),
            "the fault is still visible in the report: {:?}",
            report.errors()
        );
        assert_eq!(counts.iter().sum::<u64>(), expected, "no block lost");
        let t0 = report.producer_decisions[0].canonical();
        assert_eq!(t0.revivals, 1, "the faulted writer was revived");
        assert!(
            t0.retires.len() >= 2,
            "fault retire then drained retire: {:?}",
            t0.retires
        );
        assert_eq!(
            report.consumer_total().blocks_net,
            0,
            "detached senders carry no data"
        );
    }

    #[test]
    fn empty_chaos_plan_runs_like_none() {
        // Message-only: one sender, one take order — the decision sequence
        // is interleaving-independent, so the traces must be identical.
        let mut c = cfg(2, 2, 3);
        c.tuning.concurrent_transfer = false;
        let run = |chaos: Option<ChaosPlan>| {
            let opts = RunOptions {
                trace: TraceOptions::default().with_policy(),
                chaos,
                ..Default::default()
            };
            let (report, counts) =
                run_workflow_with(&c, opts, slab_producer(&c), count_blocks).unwrap();
            report.assert_complete();
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            assert_eq!(counts.iter().sum::<u64>(), c.total_blocks());
            let canon = |ts: &[zipper_policy::DecisionTrace]| {
                ts.iter().map(|t| t.canonical()).collect::<Vec<_>>()
            };
            (
                canon(&report.producer_decisions),
                canon(&report.consumer_decisions),
            )
        };
        assert_eq!(run(Some(ChaosPlan::new())), run(None));
    }

    /// A dead-ordinal plan (`ZV020`): the sender never reaches wire 99.
    fn dead_ordinal_opts(preflight_gate: bool) -> RunOptions {
        use zipper_types::ChaosFault;
        RunOptions {
            chaos: Some(ChaosPlan::new().with(
                ChaosEntity::Sender(Rank(0)),
                99,
                ChaosFault::DropWire,
            )),
            preflight_gate,
            ..Default::default()
        }
    }

    #[test]
    fn preflight_gate_refuses_a_rejected_plan_before_spawning() {
        use std::sync::atomic::AtomicBool;
        use zipper_policy::ZvCode;
        let c = cfg(2, 1, 2);
        let ran = Arc::new(AtomicBool::new(false));
        let (p_ran, c_ran) = (ran.clone(), ran.clone());
        let refused = run_workflow_with(
            &c,
            dead_ordinal_opts(true),
            move |_, _| p_ran.store(true, Ordering::SeqCst),
            move |_, reader| {
                c_ran.store(true, Ordering::SeqCst);
                while reader.read().is_some() {}
            },
        );
        let verdict = refused.expect_err("dead-ordinal plan must be refused");
        assert!(verdict.has(ZvCode::DeadOrdinal), "{}", verdict.render());
        assert!(!ran.load(Ordering::SeqCst), "no rank may have been spawned");
    }

    #[test]
    fn ungated_run_never_returns_err() {
        // The same rejected plan without the gate runs (the dead ordinal
        // simply never fires) and carries no verdict.
        let c = cfg(2, 1, 2);
        let (report, counts) = run_workflow_with(
            &c,
            dead_ordinal_opts(false),
            slab_producer(&c),
            count_blocks,
        )
        .expect("only a set preflight gate refuses a run");
        report.assert_complete();
        assert_eq!(counts.iter().sum::<u64>(), c.total_blocks());
        assert!(report.preflight.is_none());
    }

    #[test]
    fn message_only_mode_never_steals() {
        let mut c = cfg(2, 1, 4);
        c.tuning.concurrent_transfer = false;
        let (report, _) = run_workflow(
            &c,
            NetworkOptions::throttled(1, 2e6, Duration::ZERO),
            StorageOptions::Memory,
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.steal_fraction(), 0.0);
        assert_eq!(report.pfs_blocks, 0);
    }
}
