//! Every call into the repository's crates lives in this file, so a
//! change of the program's public surface (ROADMAP item 3's `RunOptions`
//! collapse, say) is a one-file port of the benchmark. The rest of the
//! benchmark sees plans, outcomes and `FnMut(u64)` micro-operations; it
//! never names a `zipper_*` or `hpcsim` item.
//!
//! Only public functions are used: `run_workflow`, the hand-assembled
//! `listen_consumers` + `TcpSender` + `Producer` / `Consumer` path,
//! `run_with_detail`, and the `Storage` / `WireSender` traits as wrapping
//! seams for the traced pass.

use crate::spans::{SpanBook, SpanName};
use bytes::Bytes;
use hpcsim::{Network, NetworkConfig, Op, ProcCtx, SimConfig, Simulator, Step};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use zipper_apps::analysis::MomentAccumulator;
use zipper_apps::lbm::Lbm;
use zipper_apps::md::LjMd;
use zipper_apps::synthetic::{decode_block, generate_block, Complexity};
use zipper_core::{
    decode_wire, encode_wire, listen_consumers, BlockQueue, ChannelMesh, Consumer, ConsumerMetrics,
    Producer, ProducerMetrics, TcpSender, Wire, WireSender, ZipperReader, ZipperWriter,
};
use zipper_pfs::{DiskFs, MemFs, OstModel, OstModelConfig, Storage, ThrottledFs};
use zipper_policy::{Channel, ConsumerPolicy, Preflight, PreflightInput, ProducerPolicy};
use zipper_trace::{
    CausalGraph, CausalLog, CounterId, EdgeKind, KindBreakdown, SpanKind, Telemetry, TraceLog,
    TraceMode, TraceSink,
};
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::block::deterministic_payload;
use zipper_types::{
    Block, BlockId, ByteSize, GlobalPos, MixedMessage, NodeId, ProcId, Rank, RuntimeError, SimTime,
    StepId, WorkflowConfig, ZipperTuning,
};
use zipper_workflow::{
    run_workflow, run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions,
};

/// The repo's JSON well-formedness checker, for the emitter tests.
#[cfg(test)]
pub use zipper_trace::export::validate_json;

// ---------------------------------------------------------------------
// Threaded substrate: plans, payloads, output checking
// ---------------------------------------------------------------------

/// Which message channel a threaded workload runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `run_workflow` over the in-process channel mesh.
    Mesh,
    /// Hand-assembled loopback TCP, as in `tests/tcp_transport.rs`.
    Tcp,
}

/// One threaded workload, fully sized.
#[derive(Clone, Debug)]
pub struct StreamPlan {
    pub transport: Transport,
    pub producers: usize,
    pub consumers: usize,
    pub block_bytes: usize,
    pub slab_bytes: usize,
    pub steps: u64,
    /// `(producer_slots, high_water_mark)`; `None` keeps default tuning.
    pub slots: Option<(usize, usize)>,
    pub concurrent_transfer: bool,
    /// Consumer inbox depth of the mesh, in messages.
    pub inbox: usize,
    /// Aggregate message-channel bandwidth; `None` is unthrottled.
    pub net_bytes_per_s: Option<f64>,
    /// Aggregate file-channel bandwidth; `None` is unthrottled `MemFs`.
    pub fs_bytes_per_s: Option<f64>,
}

impl StreamPlan {
    pub fn blocks_per_step(&self) -> u64 {
        self.slab_bytes.div_ceil(self.block_bytes) as u64
    }

    pub fn total_blocks(&self) -> u64 {
        self.blocks_per_step() * self.producers as u64 * self.steps
    }

    pub fn total_bytes(&self) -> u64 {
        self.slab_bytes as u64 * self.producers as u64 * self.steps
    }

    fn tuning(&self) -> ZipperTuning {
        let mut t = ZipperTuning {
            block_size: ByteSize(self.block_bytes as u64),
            concurrent_transfer: self.concurrent_transfer,
            ..Default::default()
        };
        if let Some((slots, high_water_mark)) = self.slots {
            t.producer_slots = slots;
            t.high_water_mark = high_water_mark;
        }
        t
    }

    fn config(&self) -> WorkflowConfig {
        WorkflowConfig {
            producers: self.producers,
            consumers: self.consumers,
            steps: self.steps,
            bytes_per_rank_step: ByteSize(self.slab_bytes as u64),
            tuning: self.tuning(),
        }
    }
}

/// What the blocks carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// One pre-built slab per rank, cloned as `Bytes` every step; each
    /// block starts with an 8-byte `(seed, rank, index)` stamp.
    Stamped { seed: u64 },
    /// `deterministic_payload(block id)` for every block, compared in
    /// full by the consumer (the untimed `--verify` pass).
    Deterministic,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The 8 bytes block `idx` of producer `rank` starts with under `seed`.
pub fn stamp(seed: u64, rank: u32, idx: u32) -> [u8; 8] {
    splitmix(seed ^ splitmix(((rank as u64) << 32) | idx as u64)).to_le_bytes()
}

/// One input slab per producer rank.
pub type Slabs = Vec<Bytes>;

/// Generate the workload's input from `seed`: one slab per producer rank,
/// seeded filler with a stamp at every block offset.
pub fn build_slabs(plan: &StreamPlan, seed: u64) -> Slabs {
    (0..plan.producers as u32)
        .map(|rank| {
            let mut s = splitmix(seed ^ ((rank as u64) << 17)) | 1;
            let mut slab = Vec::with_capacity(plan.slab_bytes);
            while slab.len() < plan.slab_bytes {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let word = s.to_le_bytes();
                let take = word.len().min(plan.slab_bytes - slab.len());
                slab.extend_from_slice(&word[..take]);
            }
            for idx in 0..plan.blocks_per_step() as usize {
                let lo = idx * plan.block_bytes;
                let hi = (lo + 8).min(plan.slab_bytes);
                slab[lo..hi].copy_from_slice(&stamp(seed, rank, idx as u32)[..hi - lo]);
            }
            Bytes::from(slab)
        })
        .collect()
}

/// What one consumer saw, checked block by block as it read.
#[derive(Clone, Debug, Default)]
pub struct Check {
    pub blocks: u64,
    pub bytes: u64,
    /// Blocks whose stamp (or full payload) or id was wrong.
    pub bad: u64,
    pub duplicates: u64,
    seen: Vec<u64>,
}

impl Check {
    fn new(plan: &StreamPlan) -> Check {
        Check {
            seen: vec![0; (plan.total_blocks() as usize).div_ceil(64)],
            ..Default::default()
        }
    }

    fn see(&mut self, plan: &StreamPlan, payload: Payload, b: &Block) {
        let id = b.id();
        self.blocks += 1;
        self.bytes += b.payload.len() as u64;
        let per_step = plan.blocks_per_step();
        if id.src.idx() >= plan.producers || id.step.0 >= plan.steps || id.idx as u64 >= per_step {
            self.bad += 1;
            return;
        }
        let bit =
            ((id.src.idx() as u64 * plan.steps + id.step.0) * per_step + id.idx as u64) as usize;
        if self.seen[bit / 64] & (1 << (bit % 64)) != 0 {
            self.duplicates += 1;
        }
        self.seen[bit / 64] |= 1 << (bit % 64);
        let intact = match payload {
            Payload::Stamped { seed } => {
                let want = stamp(seed, id.src.0, id.idx);
                let n = b.payload.len().min(8);
                b.payload[..n] == want[..n]
            }
            Payload::Deterministic => b.payload == deterministic_payload(id, b.payload.len()),
        };
        if !intact {
            self.bad += 1;
        }
    }

    fn merge(&mut self, other: &Check) {
        self.blocks += other.blocks;
        self.bytes += other.bytes;
        self.bad += other.bad;
        self.duplicates += other.duplicates;
        for (mine, theirs) in self.seen.iter_mut().zip(&other.seen) {
            self.duplicates += (*mine & *theirs).count_ones() as u64;
            *mine |= *theirs;
        }
    }

    /// Distinct block ids delivered.
    pub fn distinct(&self) -> u64 {
        self.seen.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// One runtime lane's recorded time, from the public rank metrics.
#[derive(Clone, Debug)]
pub struct Lane {
    pub label: String,
    pub busy_s: f64,
    pub wait_s: f64,
    /// Time covered by any recorded span kind.
    pub total_s: f64,
}

fn lane(label: String, b: &KindBreakdown, busy: SpanKind, wait: SpanKind) -> Lane {
    Lane {
        label,
        busy_s: b.get(busy).as_secs_f64(),
        wait_s: b.get(wait).as_secs_f64(),
        total_s: b.total().as_secs_f64(),
    }
}

/// Everything one threaded iteration produced.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    pub check: Check,
    /// `RuntimeError`s reported by any rank or by the driver.
    pub runtime_errors: u64,
    pub blocks_sent: u64,
    pub blocks_stolen: u64,
    pub net_backpressure_s: f64,
    pub lanes: Vec<Lane>,
}

impl StreamOutcome {
    fn new(
        plan: &StreamPlan,
        checks: &[Check],
        producers: &[ProducerMetrics],
        consumers: &[ConsumerMetrics],
        driver_failures: u64,
        net_backpressure: Duration,
    ) -> StreamOutcome {
        let mut check = Check::new(plan);
        for c in checks {
            check.merge(c);
        }
        let mut lanes = Vec::new();
        for (p, m) in producers.iter().enumerate() {
            lanes.push(lane(
                format!("sim/p{p}/app"),
                &m.app,
                SpanKind::Compute,
                SpanKind::Stall,
            ));
            lanes.push(lane(
                format!("sim/p{p}/send"),
                &m.sender,
                SpanKind::Send,
                SpanKind::Idle,
            ));
            if plan.concurrent_transfer {
                let l = lane(
                    format!("sim/p{p}/writer"),
                    &m.writer,
                    SpanKind::FsWrite,
                    SpanKind::Idle,
                );
                lanes.push(l);
            }
        }
        for (q, m) in consumers.iter().enumerate() {
            lanes.push(lane(
                format!("ana/q{q}/recv"),
                &m.recv,
                SpanKind::Recv,
                SpanKind::Stall,
            ));
            if plan.concurrent_transfer {
                lanes.push(lane(
                    format!("ana/q{q}/read"),
                    &m.disk,
                    SpanKind::FsRead,
                    SpanKind::Stall,
                ));
            }
            lanes.push(lane(
                format!("ana/q{q}/app"),
                &m.app,
                SpanKind::Analysis,
                SpanKind::ReadWait,
            ));
        }
        let rank_errors: usize = producers.iter().map(|m| m.errors.len()).sum::<usize>()
            + consumers.iter().map(|m| m.errors.len()).sum::<usize>();
        StreamOutcome {
            check,
            runtime_errors: rank_errors as u64 + driver_failures,
            blocks_sent: producers.iter().map(|m| m.blocks_sent).sum(),
            blocks_stolen: producers.iter().map(|m| m.blocks_stolen).sum(),
            net_backpressure_s: net_backpressure.as_secs_f64(),
            lanes,
        }
    }
}

/// The producer closure: a closed loop, the next slab is written when
/// `write_slab` returns. With a span book the call is timed (traced pass
/// only); without one no clock is read.
fn produce(
    writer: &ZipperWriter,
    plan: &StreamPlan,
    slab: &Bytes,
    payload: Payload,
    book: Option<&SpanBook>,
) {
    for s in 0..plan.steps {
        let slab = match payload {
            Payload::Stamped { .. } => slab.clone(),
            Payload::Deterministic => {
                let mut v = Vec::with_capacity(plan.slab_bytes);
                for idx in 0..plan.blocks_per_step() as u32 {
                    let len = plan.block_bytes.min(plan.slab_bytes - v.len());
                    let id = BlockId::new(writer.rank(), StepId(s), idx);
                    v.extend_from_slice(&deterministic_payload(id, len));
                }
                Bytes::from(v)
            }
        };
        match book {
            None => writer.write_slab(StepId(s), GlobalPos::default(), slab),
            Some(b) => b.time(SpanName::ProducerWrite, || {
                writer.write_slab(StepId(s), GlobalPos::default(), slab)
            }),
        };
    }
}

/// The consumer closure: drain the reader, checking every block.
fn consume(
    reader: &ZipperReader,
    plan: &StreamPlan,
    payload: Payload,
    book: Option<&SpanBook>,
) -> Check {
    let mut check = Check::new(plan);
    loop {
        let next = match book {
            None => reader.read(),
            Some(b) => b.time(SpanName::ConsumerRead, || reader.read()),
        };
        match next {
            Some(b) => check.see(plan, payload, &b),
            None => return check,
        }
    }
}

/// `Storage` seam of the traced pass: times `put` and `get`.
struct TimedFs {
    inner: Arc<dyn Storage>,
    book: Arc<SpanBook>,
}

impl Storage for TimedFs {
    fn put(&self, block: &Block) -> zipper_types::Result<()> {
        self.book
            .time(SpanName::StoragePut, || self.inner.put(block))
    }
    fn get(&self, id: BlockId) -> zipper_types::Result<Block> {
        self.book.time(SpanName::StorageGet, || self.inner.get(id))
    }
    fn contains(&self, id: BlockId) -> bool {
        self.inner.contains(id)
    }
    fn delete(&self, id: BlockId) -> zipper_types::Result<()> {
        self.inner.delete(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn retries(&self) -> u64 {
        self.inner.retries()
    }
}

/// `WireSender` seam of the traced pass: times `send` (and, through the
/// trait's default `send_eos`, the end-of-stream wires).
struct TimedSender<S: WireSender> {
    inner: S,
    book: Arc<SpanBook>,
}

impl<S: WireSender> WireSender for TimedSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> zipper_types::Result<()> {
        self.book
            .time(SpanName::SenderSend, || self.inner.send(to, wire))
    }
    fn consumers(&self) -> usize {
        self.inner.consumers()
    }
    fn send_fault(&self, to: Rank, fault: RuntimeError) -> zipper_types::Result<()> {
        self.inner.send_fault(to, fault)
    }
}

/// Run one iteration of a threaded workload. `book` turns the traced pass
/// on: closures are timed and the storage / sender seams are wrapped.
pub fn run_stream(
    plan: &StreamPlan,
    slabs: &[Bytes],
    payload: Payload,
    book: Option<&Arc<SpanBook>>,
) -> StreamOutcome {
    match plan.transport {
        Transport::Mesh => run_mesh(plan, slabs, payload, book),
        Transport::Tcp => run_tcp(plan, slabs, payload, book),
    }
}

fn storage_options(plan: &StreamPlan, book: Option<&Arc<SpanBook>>) -> StorageOptions {
    match (book, plan.fs_bytes_per_s) {
        (None, None) => StorageOptions::Memory,
        (None, Some(bw)) => StorageOptions::ThrottledMemory(bw, Duration::ZERO),
        (Some(book), fs) => {
            let inner: Arc<dyn Storage> = match fs {
                None => Arc::new(MemFs::new()),
                Some(bw) => Arc::new(ThrottledFs::new(MemFs::new(), bw, Duration::ZERO)),
            };
            StorageOptions::Custom(Arc::new(TimedFs {
                inner,
                book: book.clone(),
            }))
        }
    }
}

fn run_mesh(
    plan: &StreamPlan,
    slabs: &[Bytes],
    payload: Payload,
    book: Option<&Arc<SpanBook>>,
) -> StreamOutcome {
    let net = match plan.net_bytes_per_s {
        None => NetworkOptions::unthrottled(plan.inbox),
        Some(bw) => NetworkOptions::throttled(plan.inbox, bw, Duration::ZERO),
    };
    let (p_plan, p_slabs, p_book) = (plan.clone(), slabs.to_vec(), book.cloned());
    let (c_plan, c_book) = (plan.clone(), book.cloned());
    let (report, checks) = run_workflow(
        &plan.config(),
        net,
        storage_options(plan, book),
        move |rank, writer| {
            produce(
                writer,
                &p_plan,
                &p_slabs[rank.idx()],
                payload,
                p_book.as_deref(),
            )
        },
        move |_rank, reader| consume(reader, &c_plan, payload, c_book.as_deref()),
    );
    StreamOutcome::new(
        plan,
        &checks,
        &report.producers,
        &report.consumers,
        report.failures.len() as u64,
        report.net_backpressure,
    )
}

fn run_tcp(
    plan: &StreamPlan,
    slabs: &[Bytes],
    payload: Payload,
    book: Option<&Arc<SpanBook>>,
) -> StreamOutcome {
    let tuning = plan.tuning();
    let (addrs, receivers) =
        listen_consumers(plan.consumers, plan.producers).expect("bind loopback listeners");
    let storage: Arc<dyn Storage> = Arc::new(MemFs::new());

    let mut consumers = Vec::new();
    for (q, rx) in receivers.into_iter().enumerate() {
        let mut c = Consumer::spawn(Rank(q as u32), tuning, plan.producers, rx, storage.clone());
        let reader = c.reader();
        let (plan, book) = (plan.clone(), book.cloned());
        let app = std::thread::spawn(move || consume(&reader, &plan, payload, book.as_deref()));
        consumers.push((app, c));
    }
    let mut producers = Vec::new();
    for (p, slab) in slabs.iter().enumerate() {
        let sender = TcpSender::connect(&addrs).expect("connect to loopback listeners");
        let mut prod = match book {
            None => Producer::spawn(Rank(p as u32), tuning, sender, storage.clone()),
            Some(book) => {
                let timed = TimedSender {
                    inner: sender,
                    book: book.clone(),
                };
                Producer::spawn(Rank(p as u32), tuning, timed, storage.clone())
            }
        };
        let writer = prod.writer(plan.block_bytes);
        let (plan, slab, book) = (plan.clone(), slab.clone(), book.cloned());
        let app = std::thread::spawn(move || {
            produce(&writer, &plan, &slab, payload, book.as_deref());
            writer.finish();
        });
        producers.push((app, prod));
    }

    let mut app_panics = 0;
    let mut producer_metrics = Vec::new();
    for (app, prod) in producers {
        app_panics += u64::from(app.join().is_err());
        producer_metrics.push(prod.join());
    }
    let mut checks = Vec::new();
    let mut consumer_metrics = Vec::new();
    for (app, c) in consumers {
        match app.join() {
            Ok(check) => checks.push(check),
            Err(_) => app_panics += 1,
        }
        consumer_metrics.push(c.join());
    }
    StreamOutcome::new(
        plan,
        &checks,
        &producer_metrics,
        &consumer_metrics,
        app_panics,
        Duration::ZERO,
    )
}

// ---------------------------------------------------------------------
// DES substrate
// ---------------------------------------------------------------------

/// Transport model of the DES (`zipper_transports::TransportKind`).
pub type Kind = TransportKind;

/// The Zipper model.
pub const ZIPPER: Kind = TransportKind::Zipper;

/// Every non-Zipper transport model, in `TransportKind::ALL` order.
pub fn baseline_kinds() -> Vec<Kind> {
    TransportKind::ALL
        .into_iter()
        .filter(|&k| k != TransportKind::Zipper)
        .collect()
}

/// Short metric-name suffix of a kind.
pub fn kind_slug(kind: Kind) -> &'static str {
    match kind {
        TransportKind::MpiIo => "mpiio",
        TransportKind::DataSpacesAdios => "dataspaces_adios",
        TransportKind::DataSpacesNative => "dataspaces_native",
        TransportKind::DimesAdios => "dimes_adios",
        TransportKind::DimesNative => "dimes_native",
        TransportKind::Flexpath => "flexpath",
        TransportKind::Decaf => "decaf",
        TransportKind::Zipper => "zipper",
    }
}

/// A DES workflow spec.
#[derive(Clone)]
pub struct DesSpec(WorkflowSpec);

impl DesSpec {
    /// The Fig. 16 CFD weak-scaling spec at `cores` (copied from
    /// `crates/bench/src/figs/fig16_18.rs::spec_for`, so that file stays
    /// free to change): 2/3 simulation ranks, Stampede2 KNL nodes.
    pub fn fig16_cfd(cores: usize, steps: u64, seed: u64) -> DesSpec {
        let sim_ranks = cores * 2 / 3;
        let mut s = WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, steps);
        s.ranks_per_node = 68;
        s.cpu_slowdown = 2.0;
        s.leaf_uplinks = 16;
        s.seed = seed;
        DesSpec(s)
    }

    /// The Fig. 18 LAMMPS spec.
    pub fn lammps(sim_ranks: usize, ana_ranks: usize, steps: u64, seed: u64) -> DesSpec {
        let mut s = WorkflowSpec::lammps(sim_ranks, ana_ranks, steps);
        s.seed = seed;
        DesSpec(s)
    }

    pub fn cores(&self) -> usize {
        self.0.total_cores()
    }

    pub fn sim_ranks(&self) -> usize {
        self.0.sim_ranks
    }

    /// Fine-grain blocks the simulated workflow moves.
    pub fn total_blocks(&self) -> u64 {
        self.0.total_blocks()
    }

    /// Payload bytes the simulated workflow moves.
    pub fn payload_bytes(&self) -> u64 {
        self.0.bytes_per_rank_step * self.0.sim_ranks as u64 * self.0.steps
    }

    /// Whether the model of `kind` is specified to crash at this scale
    /// (Flexpath's segfault, Decaf's integer overflow; §6.3).
    pub fn expects_fault(&self, kind: Kind) -> bool {
        let limit = match kind {
            TransportKind::Flexpath => self.0.flexpath_crash_cores,
            TransportKind::Decaf => self.0.decaf_crash_cores,
            _ => None,
        };
        limit.is_some_and(|t| self.cores() >= t)
    }
}

/// What one simulated run reported.
#[derive(Clone, Debug)]
pub struct DesOutcome {
    pub events: u64,
    /// Simulated end-to-end seconds.
    pub end_to_end_s: f64,
    pub faulted: bool,
    pub deadlocked: usize,
    /// Simulated producer stall, summed over simulation ranks.
    pub stall_s: f64,
    /// Simulated `XmitWait` on the simulation nodes.
    pub xmit_wait_s: f64,
    pub pfs_requests: u64,
    /// Largest share of any lane's extent covered by no recorded span
    /// kind, with the lane's label (detail runs only).
    pub unattributed: Option<(String, f64)>,
}

fn unattributed(trace: &TraceLog) -> Option<(String, f64)> {
    trace
        .lanes()
        .filter_map(|l| {
            let (first, last) = trace.lane_extent(l);
            let extent = last.saturating_sub(first).as_secs_f64();
            let covered = trace.lane_totals(l).total().as_secs_f64();
            (extent > 0.0).then(|| {
                let frac = (1.0 - covered / extent).max(0.0);
                (trace.lane_label(l).to_string(), frac)
            })
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Run one transport model over `spec`. `detail` keeps raw spans, turns
/// on the virtual-clock telemetry probe and (for Zipper) causal edges.
pub fn run_des(kind: Kind, spec: &DesSpec, detail: bool) -> DesOutcome {
    let r = run_with_detail(kind, &spec.0, detail);
    DesOutcome {
        events: r.events,
        end_to_end_s: r.end_to_end.as_secs_f64(),
        faulted: r.fault.is_some(),
        deadlocked: r.deadlocked.len(),
        stall_s: r.stall.as_secs_f64(),
        xmit_wait_s: r.xmit_wait_sim as f64 * 1e-9,
        pfs_requests: r.pfs_requests,
        unattributed: detail.then(|| unattributed(&r.trace)).flatten(),
    }
}

// ---------------------------------------------------------------------
// Per-layer micro-operations. Each returns (or is) an `FnMut(u64)` that
// performs `n` operations of one layer; `layers.rs` owns the timing.
// ---------------------------------------------------------------------

const MICRO_BLOCK: usize = 64 << 10;

fn block_of(len: usize, step: u64, idx: u32) -> Block {
    let id = BlockId::new(Rank(0), StepId(step), idx);
    Block::from_payload(
        Rank(0),
        StepId(step),
        idx,
        64,
        GlobalPos::default(),
        deterministic_payload(id, len),
    )
}

/// `BlockQueue` push then pop, one thread.
pub fn queue_push_pop() -> impl FnMut(u64) {
    let q = BlockQueue::new(64);
    let b = block_of(4096, 0, 0);
    move |n| {
        for _ in 0..n {
            q.push(b.clone()).expect("queue stays open");
            black_box(q.pop().0);
        }
    }
}

/// `BlockQueue` with a pushing thread and a popping thread.
pub fn queue_push_pop_2t(n: u64) {
    let q = Arc::new(BlockQueue::new(64));
    let (q2, b) = (q.clone(), block_of(4096, 0, 0));
    let pusher = std::thread::spawn(move || {
        for _ in 0..n {
            q2.push(b.clone()).expect("queue stays open");
        }
        q2.close();
    });
    let mut got = 0;
    while let (Some(_), _) = q.pop() {
        got += 1;
    }
    pusher.join().expect("pusher thread");
    assert_eq!(got, n, "two-thread queue lost blocks");
}

/// `BlockQueue` push then high-water-mark steal (Algorithm 1's take).
pub fn queue_steal() -> impl FnMut(u64) {
    const THRESHOLD: usize = 4;
    let q = BlockQueue::new(64);
    let b = block_of(4096, 0, 0);
    for _ in 0..THRESHOLD {
        q.push(b.clone()).expect("queue stays open");
    }
    move |n| {
        for _ in 0..n {
            q.push(b.clone()).expect("queue stays open");
            black_box(q.steal(THRESHOLD).0);
        }
    }
}

/// One wire through the unthrottled `ChannelMesh`: send then receive.
pub fn mesh_send_recv() -> impl FnMut(u64) {
    let mesh = ChannelMesh::new(1, 64);
    let tx = mesh.sender();
    let rx = mesh.take_receiver(Rank(0)).expect("first take");
    let b = block_of(4096, 0, 0);
    move |n| {
        for _ in 0..n {
            tx.send(Rank(0), Wire::Msg(MixedMessage::data_only(b.clone())))
                .expect("receiver alive");
            black_box(rx.recv().expect("wire arrives"));
        }
    }
}

/// Producer policy kernel: `should_steal` + `route_net` per block.
pub fn producer_decision() -> impl FnMut(u64) {
    let mut policy = ProducerPolicy::from_tuning(Rank(0), 4, &ZipperTuning::default());
    let mut i = 0u64;
    move |n| {
        for _ in 0..n {
            i += 1;
            black_box(policy.should_steal((i % 64) as usize));
            black_box(policy.route_net(BlockId::new(Rank(0), StepId(i >> 6), (i & 63) as u32)));
        }
    }
}

/// Consumer policy kernel: `store_on_arrival` + `note_eos` per block.
pub fn consumer_decision() -> impl FnMut(u64) {
    let mut policy = ConsumerPolicy::from_tuning(Rank(0), 64, &ZipperTuning::default());
    let mut i = 0u64;
    move |n| {
        for _ in 0..n {
            i += 1;
            black_box(policy.store_on_arrival(BlockId::new(
                Rank(0),
                StepId(i >> 6),
                (i & 63) as u32,
            )));
            black_box(policy.note_eos(Rank((i % 63) as u32), Channel::Net));
        }
    }
}

/// 64 KiB blocks sharing one payload, their ids cycling over `steps`
/// steps of 64 blocks, so a store's population stays bounded.
struct BlockCycle {
    payload: Bytes,
    steps: u64,
    next: u64,
}

impl BlockCycle {
    fn new(steps: u64) -> BlockCycle {
        BlockCycle {
            payload: deterministic_payload(BlockId::new(Rank(0), StepId(0), 0), MICRO_BLOCK),
            steps,
            next: 0,
        }
    }

    fn next_id(&mut self) -> BlockId {
        let i = self.next;
        self.next += 1;
        BlockId::new(Rank(0), StepId((i >> 6) % self.steps), (i & 63) as u32)
    }

    fn next_block(&mut self) -> Block {
        let id = self.next_id();
        let pos = GlobalPos::default();
        Block::from_payload(id.src, id.step, id.idx, 64, pos, self.payload.clone())
    }
}

/// `MemFs::put` of 64 KiB blocks over 4,096 ids.
pub fn memfs_put() -> impl FnMut(u64) {
    let fs = MemFs::new();
    let mut blocks = BlockCycle::new(64);
    move |n| {
        for _ in 0..n {
            fs.put(&blocks.next_block()).expect("MemFs never fails");
        }
    }
}

/// `MemFs::get` over 4,096 resident 64 KiB blocks.
pub fn memfs_get() -> impl FnMut(u64) {
    let fs = MemFs::new();
    let mut blocks = BlockCycle::new(64);
    for _ in 0..4096 {
        fs.put(&blocks.next_block()).expect("MemFs never fails");
    }
    move |n| {
        for _ in 0..n {
            black_box(fs.get(blocks.next_id()).expect("block is resident"));
        }
    }
}

/// `DiskFs` put / get of 64 KiB blocks over 256 files under `root`
/// (removed on drop).
pub struct DiskBench {
    fs: DiskFs,
    root: PathBuf,
    blocks: BlockCycle,
}

impl DiskBench {
    pub fn new(root: PathBuf) -> std::io::Result<DiskBench> {
        let fs = DiskFs::new(&root).map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(DiskBench {
            fs,
            root,
            blocks: BlockCycle::new(4),
        })
    }

    pub fn put(&mut self, n: u64) {
        for _ in 0..n {
            let b = self.blocks.next_block();
            self.fs.put(&b).expect("scratch directory is writable");
        }
    }

    /// Reads blocks written by [`DiskBench::put`]; call `put(256)` first.
    pub fn get(&mut self, n: u64) {
        for _ in 0..n {
            let id = self.blocks.next_id();
            black_box(self.fs.get(id).expect("block was put"));
        }
    }
}

impl Drop for DiskBench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A one-block `run_workflow`: thread spawn, wiring and join cost.
pub fn driver_spawn_join() -> impl FnMut(u64) {
    let plan = StreamPlan {
        transport: Transport::Mesh,
        producers: 1,
        consumers: 1,
        block_bytes: 4096,
        slab_bytes: 4096,
        steps: 1,
        slots: None,
        concurrent_transfer: true,
        inbox: 64,
        net_bytes_per_s: None,
        fs_bytes_per_s: None,
    };
    let slabs = build_slabs(&plan, 1);
    move |n| {
        for _ in 0..n {
            let out = run_mesh(&plan, &slabs, Payload::Stamped { seed: 1 }, None);
            assert_eq!(out.check.blocks, 1);
        }
    }
}

fn data_wire(len: usize) -> Wire {
    Wire::Msg(MixedMessage::data_only(block_of(len, 0, 0)))
}

/// `encode_wire` of one data message with a `len`-byte payload.
pub fn wire_encode(len: usize) -> impl FnMut(u64) {
    let wire = data_wire(len);
    move |n| {
        for _ in 0..n {
            black_box(encode_wire(black_box(&wire)));
        }
    }
}

/// `decode_wire` of one data message with a `len`-byte payload.
pub fn wire_decode(len: usize) -> impl FnMut(u64) {
    let body = encode_wire(&data_wire(len));
    move |n| {
        for _ in 0..n {
            black_box(decode_wire(black_box(&body)).expect("well-formed frame"));
        }
    }
}

/// `n` 64 KiB data messages over one loopback connection: `TcpSender`
/// on this thread, the listener's receiver on another.
pub fn tcp_stream(n: u64) {
    let (addrs, mut receivers) = listen_consumers(1, 1).expect("bind loopback listener");
    let rx = receivers.pop().expect("one receiver");
    let drain = std::thread::spawn(move || {
        for _ in 0..n {
            black_box(rx.recv().expect("frame arrives"));
        }
    });
    let tx = TcpSender::connect(&addrs).expect("connect to loopback listener");
    let wire = data_wire(MICRO_BLOCK);
    for _ in 0..n {
        tx.send(Rank(0), wire.clone()).expect("receiver alive");
    }
    drain.join().expect("receiver thread");
}

/// Bytes of the payload [`tcp_stream`] sends per message.
pub const TCP_STREAM_PAYLOAD: usize = MICRO_BLOCK;

/// Two simulated processes on two nodes bouncing `n` messages; returns
/// the events the engine processed.
pub fn engine_pingpong(n: u64) -> u64 {
    let mut sim = Simulator::new(SimConfig::default());
    sim.set_trace_detail(false);
    let any_tag = |kind| Op::Recv {
        tag_min: 0,
        tag_max: u64::MAX,
        kind,
    };
    let send_to = |to| Op::Send {
        to: ProcId(to),
        bytes: 1024,
        tag: 1,
        kind: SpanKind::Send,
    };
    let mut left = n;
    sim.spawn(NodeId(0), "ping", move |_ctx: &mut ProcCtx<'_>| {
        if left == 0 {
            return Step::Done;
        }
        left -= 1;
        Step::Ops(vec![send_to(1), any_tag(SpanKind::Recv)])
    });
    let mut left = n;
    sim.spawn(NodeId(1), "pong", move |_ctx: &mut ProcCtx<'_>| {
        if left == 0 {
            return Step::Done;
        }
        left -= 1;
        Step::Ops(vec![any_tag(SpanKind::Recv), send_to(0)])
    });
    let report = sim.run();
    assert!(
        report.is_clean(),
        "ping-pong program must finish: {report:?}"
    );
    report.events
}

/// Two simulated processes handing `n` items through a bounded buffer;
/// returns the events the engine processed.
pub fn engine_buffer(n: u64) -> u64 {
    let mut sim = Simulator::new(SimConfig::default());
    sim.set_trace_detail(false);
    let buf = sim.add_buffer(8);
    let mut left = n;
    sim.spawn(NodeId(0), "put", move |_ctx: &mut ProcCtx<'_>| {
        if left == 0 {
            return Step::Done;
        }
        left -= 1;
        let mut ops = vec![Op::BufferPut {
            buf,
            bytes: 1 << 20,
            token: left,
        }];
        if left == 0 {
            ops.push(Op::BufferClose { buf });
        }
        Step::Ops(ops)
    });
    sim.spawn(NodeId(0), "take", move |ctx: &mut ProcCtx<'_>| {
        if ctx.last_take == Some(hpcsim::BufferTaken::Closed) {
            return Step::Done;
        }
        Step::Ops(vec![Op::BufferTake {
            buf,
            min_occupancy: 1,
            kind: SpanKind::Idle,
        }])
    });
    let report = sim.run();
    assert!(report.is_clean(), "buffer program must finish: {report:?}");
    report.events
}

/// `Network::transfer` across a 64-node fabric.
pub fn network_transfer() -> impl FnMut(u64) {
    let mut net = Network::new(NetworkConfig {
        compute_nodes: 64,
        ..Default::default()
    });
    let mut i = 0u64;
    move |n| {
        for _ in 0..n {
            i += 1;
            let (src, dst) = (NodeId((i % 64) as u32), NodeId(((i * 7 + 1) % 64) as u32));
            black_box(net.transfer(SimTime::from_micros(i), src, dst, 1 << 20, i));
        }
    }
}

/// `OstModel::submit` of 1 MiB writes.
pub fn ost_submit() -> impl FnMut(u64) {
    let mut ost = OstModel::new(OstModelConfig::default(), 42);
    let mut i = 0u64;
    move |n| {
        for _ in 0..n {
            i += 1;
            black_box(ost.submit(SimTime::from_micros(100 * i), 1 << 20, i));
        }
    }
}

/// `LaneRecorder::time` around an empty closure: inert when `full` is
/// false, raw-span capture when true (fresh sink per batch, so memory
/// stays bounded).
pub fn span_record(full: bool) -> impl FnMut(u64) {
    move |n| {
        let sink = if full {
            TraceSink::wall(TraceMode::Full)
        } else {
            TraceSink::off()
        };
        let mut rec = sink.recorder("bench/lane");
        for _ in 0..n {
            rec.time(SpanKind::Send, || black_box(()));
        }
    }
}

/// `Telemetry::add` on a disabled or live registry.
pub fn telemetry_add(on: bool) -> impl FnMut(u64) {
    let t = if on {
        Telemetry::on()
    } else {
        Telemetry::off()
    };
    move |n| {
        for i in 0..n {
            black_box(&t).add(CounterId::NetBytes, i);
        }
    }
}

/// One token-joined causal edge (`begin` + `end`) on a disabled or live
/// sink (fresh sink per batch, so memory stays bounded).
pub fn causal_edge(on: bool) -> impl FnMut(u64) {
    move |n| {
        let sink = if on {
            TraceSink::wall(TraceMode::Full).with_causal()
        } else {
            TraceSink::off()
        };
        let causal = sink.causal();
        for i in 0..n {
            black_box(causal).begin(EdgeKind::Wire, i, "sim/p0/send");
            black_box(causal).end(EdgeKind::Wire, i, "ana/q0/recv");
        }
    }
}

/// Tracing fidelity of [`run_mesh_traced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLevel {
    /// `run_workflow`: lane totals only, the driver's default.
    Default,
    /// `TraceOptions::full()`: raw spans and wire lanes.
    Full,
    /// Full, plus causal edges and the 1 ms telemetry sampler.
    FullCausalTelemetry,
}

/// One mesh iteration through `run_workflow_traced` at `level`; returns
/// the blocks delivered and, when recorded, the span and causal logs.
pub fn run_mesh_traced(
    plan: &StreamPlan,
    slabs: &[Bytes],
    level: TraceLevel,
) -> (u64, TraceLog, CausalLog) {
    let trace = match level {
        TraceLevel::Default => TraceOptions::default(),
        TraceLevel::Full => TraceOptions::full(),
        TraceLevel::FullCausalTelemetry => TraceOptions::full()
            .with_causal()
            .with_telemetry(Duration::from_millis(1)),
    };
    let (p_plan, p_slabs) = (plan.clone(), slabs.to_vec());
    let (report, delivered) = run_workflow_traced(
        &plan.config(),
        NetworkOptions::unthrottled(plan.inbox),
        StorageOptions::Memory,
        trace,
        move |rank, writer| {
            produce(
                writer,
                &p_plan,
                &p_slabs[rank.idx()],
                Payload::Stamped { seed: 0 },
                None,
            )
        },
        |_rank, reader| {
            let mut n = 0u64;
            while reader.read().is_some() {
                n += 1;
            }
            n
        },
    );
    (delivered.iter().sum(), report.trace, report.causal)
}

/// `CausalGraph::build` over recorded logs; returns the graph's edges.
pub fn causal_graph_build(trace: &TraceLog, causal: &CausalLog) -> usize {
    black_box(CausalGraph::build(trace, causal)).edge_count()
}

/// `Preflight::check` of a 2×1 plan with 64 steps of 64 blocks.
pub fn preflight_check() -> impl FnMut(u64) {
    let cfg = WorkflowConfig {
        producers: 2,
        consumers: 1,
        steps: 64,
        bytes_per_rank_step: ByteSize::mib(4),
        tuning: ZipperTuning {
            block_size: ByteSize::kib(64),
            ..Default::default()
        },
    };
    let input = PreflightInput::from_config(&cfg);
    move |n| {
        for _ in 0..n {
            let report = Preflight::check(black_box(&input));
            assert!(!report.is_rejected(), "benchmark plan must pass preflight");
        }
    }
}

/// One LBM step on a 16³ lattice; [`LBM_CELLS`] cells per step.
pub fn lbm_step() -> impl FnMut(u64) {
    let mut lbm = Lbm::new(16, 16, 16, 0.8, [1e-5, 0.0, 0.0]);
    move |n| {
        for _ in 0..n {
            lbm.step();
        }
        black_box(lbm.total_mass());
    }
}

pub const LBM_CELLS: u64 = 16 * 16 * 16;

/// One Lennard-Jones MD step of 500 atoms.
pub fn md_step() -> impl FnMut(u64) {
    let mut md = LjMd::fcc(5, 0.8, 0.5, 1);
    assert_eq!(md.atoms(), 500);
    move |n| {
        for _ in 0..n {
            md.step();
        }
        black_box(md.kinetic_energy());
    }
}

/// Bytes the analysis and generator micro-operations process per call.
pub const APP_BLOCK: usize = 1 << 20;

/// Fourth-moment accumulation over a 1 MiB block of samples.
pub fn moments4() -> impl FnMut(u64) {
    let samples = decode_block(&generate_block(Complexity::Linear, APP_BLOCK, 7));
    move |n| {
        for _ in 0..n {
            let mut acc = MomentAccumulator::new(4);
            acc.update(black_box(&samples));
            black_box(acc.moment(4));
        }
    }
}

/// The O(n) synthetic generator producing a 1 MiB block.
pub fn synthetic_generate() -> impl FnMut(u64) {
    let mut seed = 0u64;
    move |n| {
        for _ in 0..n {
            seed += 1;
            black_box(generate_block(Complexity::Linear, APP_BLOCK, seed));
        }
    }
}
