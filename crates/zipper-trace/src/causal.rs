//! Causal critical-path analysis over the merged trace.
//!
//! The flight recorder (PR 4) measures per-lane *totals*, but totals
//! cannot say which stall actually gated completion: a writer can
//! accumulate enormous `pfs.stall_ns` entirely off the critical path. This
//! module makes the paper's `T_t2s = max(T_comp, T_transfer, T_analysis)`
//! claim a first-class observability artifact:
//!
//! * runtimes record **cross-entity edges** ([`EdgeKind`]) next to their
//!   spans — wire send→receive, EOS fan-out, queue push→pop unblock,
//!   steal announce (writer put→consumer receive), gate open→sender
//!   resume, PFS fetch — into a [`CausalLog`] (threaded runtime: through
//!   the cloneable [`CausalSink`]; DES: directly, under the virtual
//!   clock);
//! * [`CausalGraph::build`] merges the edge log with the span
//!   [`TraceLog`] into a happens-before DAG whose intra-lane segments are
//!   weighted by span-kind overlap;
//! * [`CriticalPath::extract`] walks the longest weighted path from run
//!   start to the last analysis completion, bucketing every nanosecond of
//!   it into an [`Attribution`] (comp / net-transfer / net-backpressure /
//!   steal+PFS / analysis / retry / idle) whose [`Verdict`] is directly
//!   comparable with the model fit's argmax;
//! * [`CausalGraph::what_if`] re-weighs one bucket class at a time
//!   (NIC 2×, PFS 2×, analysis 2×, …) and reports the predicted `T_t2s`
//!   delta — a machine-checkable answer to "would the steal optimization
//!   help here?".
//!
//! Both substrates emit the same edge taxonomy, so conformance configs
//! yield structurally identical critical paths: compare them with
//! [`CriticalPath::signature`], which normalizes lane labels to
//! substrate-independent roles and collapses repeats.

use crate::clock::Clock;
use crate::log::TraceLog;
use crate::span::SpanKind;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use zipper_types::SimTime;

/// The cross-entity edge taxonomy. Every edge connects a source event
/// `(lane, t0)` to a destination event `(lane, t1)` on the run's shared
/// time axis; self-edges (same lane) mark semantically important segments
/// like a PFS fetch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// Data-block wire: sender ships → receiver ingests.
    Wire,
    /// End-of-stream fan-out: channel close → receiver's EOS bookkeeping.
    Eos,
    /// Bounded-queue handoff: a block's push (or requeue) unblocks its pop.
    Queue,
    /// Dual-channel steal: writer's PFS put → disk-id arrival at the
    /// consumer (the announce that makes the stolen block fetchable).
    Steal,
    /// Scripted/emergent backpressure: gate open → held sender resumes.
    Gate,
    /// PFS fetch bringing a stolen block back: issued → bytes delivered.
    Pfs,
}

impl EdgeKind {
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Wire => "wire",
            EdgeKind::Eos => "eos",
            EdgeKind::Queue => "queue",
            EdgeKind::Steal => "steal",
            EdgeKind::Gate => "gate",
            EdgeKind::Pfs => "pfs",
        }
    }

    /// The attribution bucket time spent on this edge class belongs to.
    pub fn bucket(self) -> Bucket {
        match self {
            EdgeKind::Wire | EdgeKind::Eos => Bucket::NetTransfer,
            EdgeKind::Queue => Bucket::Idle,
            EdgeKind::Steal | EdgeKind::Pfs => Bucket::StealPfs,
            EdgeKind::Gate => Bucket::NetBackpressure,
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Attribution buckets for critical-path time. The three paper stages
/// (compute, transfer, analysis) are refined so the transfer stage's
/// mechanisms — wire time, backpressure, the dual-channel steal detour —
/// are separately visible, plus retry (fail-soft backoff) and idle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Bucket {
    /// Producer computation (compute/collision/streaming/update).
    Comp,
    /// Wire movement: sends, receives, halo exchange, staging put/get.
    NetTransfer,
    /// Waiting for the network to accept data (stalls, gate holds).
    NetBackpressure,
    /// The steal detour: PFS writes/reads and steal/fetch edges.
    StealPfs,
    /// Consumer analysis computation.
    Analysis,
    /// Fail-soft retry backoff.
    Retry,
    /// Nothing attributable: queue waits, locks, barriers, gaps.
    Idle,
}

impl Bucket {
    pub const COUNT: usize = 7;
    pub const ALL: [Bucket; Bucket::COUNT] = [
        Bucket::Comp,
        Bucket::NetTransfer,
        Bucket::NetBackpressure,
        Bucket::StealPfs,
        Bucket::Analysis,
        Bucket::Retry,
        Bucket::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bucket::Comp => "comp",
            Bucket::NetTransfer => "net-transfer",
            Bucket::NetBackpressure => "net-backpressure",
            Bucket::StealPfs => "steal+pfs",
            Bucket::Analysis => "analysis",
            Bucket::Retry => "retry",
            Bucket::Idle => "idle",
        }
    }

    /// Dense index (declaration order) for per-bucket arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Bucket a span kind's time belongs to.
    pub fn of_kind(kind: SpanKind) -> Bucket {
        match kind {
            SpanKind::Compute | SpanKind::Collision | SpanKind::Streaming | SpanKind::Update => {
                Bucket::Comp
            }
            SpanKind::Send
            | SpanKind::Recv
            | SpanKind::Sendrecv
            | SpanKind::Put
            | SpanKind::Get => Bucket::NetTransfer,
            SpanKind::Stall => Bucket::NetBackpressure,
            SpanKind::FsWrite | SpanKind::FsRead => Bucket::StealPfs,
            SpanKind::Analysis => Bucket::Analysis,
            SpanKind::Retry => Bucket::Retry,
            SpanKind::ReadWait
            | SpanKind::Lock
            | SpanKind::Barrier
            | SpanKind::Waitall
            | SpanKind::Policy
            | SpanKind::Idle => Bucket::Idle,
        }
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved causal edge (labels borrowed from the log's intern table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEdge<'a> {
    pub kind: EdgeKind,
    pub src_lane: &'a str,
    pub src_t: SimTime,
    pub dst_lane: &'a str,
    pub dst_t: SimTime,
    /// Opaque join token (block id, EOS triple, message tag, …) kept for
    /// export and debugging.
    pub token: u64,
}

#[derive(Clone, Copy, Debug)]
struct RawEdge {
    kind: EdgeKind,
    src: u32,
    src_t: SimTime,
    dst: u32,
    dst_t: SimTime,
    token: u64,
}

/// A recorded half waiting for [`CausalLog::join`]. `key` pairs it: kind
/// and queue (interned label, 0 if none) in one word, token in the other.
#[derive(Clone, Copy, Debug)]
struct Half {
    kind: EdgeKind,
    key: (u64, u64),
    lane: u32,
    t: SimTime,
    is_src: bool,
}

/// Halves a threaded sink records between joins, so the map probes run
/// back to back on a warm cache, not one per record under a shared lock.
const JOIN_BATCH: usize = 1024;

/// The runtime edge log: interned lane labels plus completed edges and
/// the join state for in-flight ones.
///
/// An edge is recorded in one of two forms:
///
/// * **whole** — [`edge_at`], when the recorder knows both endpoints (the
///   DES receiver sees `sent_at` on every message, the DES engine sees
///   who put the item a take returns);
/// * **identity-joined halves** — [`begin`]/[`end`] (and, for a queue
///   handoff, [`queue_push`]/[`queue_pop`], which add the queue to the
///   key) pair on the block or mark that moved, never on arrival order:
///   threaded lanes race, so an `end` can land before its `begin`, and a
///   requeued block's second push pairs with its second pop. Only one
///   lane's own halves keep the order that lane stamped them in.
///
/// [`begin`]: CausalLog::begin
/// [`end`]: CausalLog::end
/// [`edge_at`]: CausalLog::edge_at
/// [`queue_push`]: CausalLog::queue_push
/// [`queue_pop`]: CausalLog::queue_pop
#[derive(Clone, Debug, Default)]
pub struct CausalLog {
    labels: Vec<String>,
    edges: Vec<RawEdge>,
    /// Halves recorded since the last join, in recording order.
    halves: Vec<Half>,
    /// Halves the join has seen but not yet paired, by key.
    pending_begin: HashMap<(u64, u64), (u32, SimTime)>,
    pending_end: HashMap<(u64, u64), (u32, SimTime)>,
}

impl CausalLog {
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, label: &str) -> u32 {
        // Lane populations are tiny (a handful per rank); linear scan
        // avoids allocating a lookup key per record.
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u32;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Record a complete edge with both endpoints known.
    pub fn edge_at(
        &mut self,
        kind: EdgeKind,
        src_lane: &str,
        src_t: SimTime,
        dst_lane: &str,
        dst_t: SimTime,
        token: u64,
    ) {
        let src = self.intern(src_lane);
        let dst = self.intern(dst_lane);
        self.edges.push(RawEdge {
            kind,
            src,
            src_t,
            dst,
            dst_t,
            token,
        });
    }

    /// Record one half; the threaded sink leaves the join to every
    /// [`JOIN_BATCH`] halves and [`CausalSink::snapshot`].
    fn record(
        &mut self,
        kind: EdgeKind,
        queue: Option<&str>,
        token: u64,
        lane: &str,
        t: SimTime,
        is_src: bool,
    ) {
        let queue = queue.map_or(0, |q| self.intern(q));
        let key = (((kind as u64) << 32) | u64::from(queue), token);
        let lane = self.intern(lane);
        self.halves.push(Half {
            kind,
            key,
            lane,
            t,
            is_src,
        });
        if self.halves.len() >= JOIN_BATCH {
            self.join();
        }
    }

    /// Pair every recorded half, in recording order, with its pending
    /// counterpart. Across lanes any order pairs, and a source stamped
    /// after its destination is wall-clock jitter (the pusher records after
    /// the handoff), clamped to the destination instant; [`CausalGraph::build`]
    /// keeps such equal-time edges like the DES's same-tick handoffs. One
    /// lane stamps in program order, so its later source is not its earlier
    /// destination's (a writer requeuing the block it took feeds the next pop).
    fn join(&mut self) {
        for h in self.halves.drain(..) {
            let me = (h.lane, h.t);
            let (mine, theirs) = if h.is_src {
                (&mut self.pending_begin, &mut self.pending_end)
            } else {
                (&mut self.pending_end, &mut self.pending_begin)
            };
            if let Entry::Occupied(pending) = theirs.entry(h.key) {
                let other = *pending.get();
                let ((src, src_t), (dst, dst_t)) = if h.is_src { (me, other) } else { (other, me) };
                if src != dst || src_t <= dst_t {
                    pending.remove();
                    self.edges.push(RawEdge {
                        kind: h.kind,
                        src,
                        src_t: src_t.min(dst_t),
                        dst,
                        dst_t,
                        token: h.key.1,
                    });
                    continue;
                }
            }
            mine.insert(h.key, me);
        }
    }

    /// Source half of a token-joined edge.
    pub fn begin(&mut self, kind: EdgeKind, token: u64, lane: &str, t: SimTime) {
        self.record(kind, None, token, lane, t, true);
        self.join();
    }

    /// Destination half of a token-joined edge.
    pub fn end(&mut self, kind: EdgeKind, token: u64, lane: &str, t: SimTime) {
        self.record(kind, None, token, lane, t, false);
        self.join();
    }

    /// Source half of a queue handoff: block `token` entered `queue`
    /// (pushed, or requeued at the front).
    pub fn queue_push(&mut self, queue: &str, token: u64, lane: &str, t: SimTime) {
        self.record(EdgeKind::Queue, Some(queue), token, lane, t, true);
        self.join();
    }

    /// Destination half of a queue handoff: block `token` left `queue`.
    pub fn queue_pop(&mut self, queue: &str, token: u64, lane: &str, t: SimTime) {
        self.record(EdgeKind::Queue, Some(queue), token, lane, t, false);
        self.join();
    }

    /// Completed edges (unjoined halves are not visible here).
    pub fn edges(&self) -> impl Iterator<Item = CausalEdge<'_>> {
        self.edges.iter().map(|e| CausalEdge {
            kind: e.kind,
            src_lane: &self.labels[e.src as usize],
            src_t: e.src_t,
            dst_lane: &self.labels[e.dst as usize],
            dst_t: e.dst_t,
            token: e.token,
        })
    }

    /// Number of completed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Recording halves still waiting for their counterpart (a drained
    /// run should be near zero; chaos-dropped wires legitimately leave
    /// orphans).
    pub fn unjoined(&self) -> usize {
        self.pending_begin.len() + self.pending_end.len()
    }
}

struct CausalShared {
    clock: Arc<dyn Clock>,
    log: Mutex<CausalLog>,
}

/// Cloneable handle for threaded edge recording. Carried inside the
/// `TraceSink` so every component that already receives the sink can
/// record edges with zero extra plumbing; when disabled, every method is
/// a single branch and the clock is never read (the inertness the
/// ledger row `zipper-trace.causal.edge_ns.off` pins down).
#[derive(Clone, Default)]
pub struct CausalSink {
    inner: Option<Arc<CausalShared>>,
}

impl CausalSink {
    /// An inert handle.
    pub fn off() -> Self {
        Self::default()
    }

    /// A live handle stamping edges with `clock` (the sink's span clock,
    /// so edges and spans share one time axis).
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        CausalSink {
            inner: Some(Arc::new(CausalShared {
                clock,
                log: Mutex::new(CausalLog::new()),
            })),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Source half of a token-joined edge, stamped "now".
    #[inline]
    pub fn begin(&self, kind: EdgeKind, token: u64, lane: &str) {
        if let Some(s) = &self.inner {
            let t = s.clock.now();
            s.log.lock().record(kind, None, token, lane, t, true);
        }
    }

    /// Destination half of a token-joined edge, stamped "now".
    #[inline]
    pub fn end(&self, kind: EdgeKind, token: u64, lane: &str) {
        if let Some(s) = &self.inner {
            let t = s.clock.now();
            s.log.lock().record(kind, None, token, lane, t, false);
        }
    }

    /// A complete edge with explicit endpoints (gate holds, fetch spans).
    #[inline]
    pub fn edge_at(
        &self,
        kind: EdgeKind,
        src_lane: &str,
        src_t: SimTime,
        dst_lane: &str,
        dst_t: SimTime,
        token: u64,
    ) {
        if let Some(s) = &self.inner {
            s.log
                .lock()
                .edge_at(kind, src_lane, src_t, dst_lane, dst_t, token);
        }
    }

    /// Block `token` entered `queue` (pushed or requeued), stamped "now".
    #[inline]
    pub fn queue_push(&self, queue: &str, token: u64, lane: &str) {
        if let Some(s) = &self.inner {
            let t = s.clock.now();
            s.log
                .lock()
                .record(EdgeKind::Queue, Some(queue), token, lane, t, true);
        }
    }

    /// Block `token` left `queue`, stamped "now".
    #[inline]
    pub fn queue_pop(&self, queue: &str, token: u64, lane: &str) {
        if let Some(s) = &self.inner {
            let t = s.clock.now();
            s.log
                .lock()
                .record(EdgeKind::Queue, Some(queue), token, lane, t, false);
        }
    }

    /// Current time on the edge clock (ZERO when off).
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(s) => s.clock.now(),
            None => SimTime::ZERO,
        }
    }

    /// Clone out the accumulated edge log.
    pub fn snapshot(&self) -> CausalLog {
        match &self.inner {
            Some(s) => {
                let mut log = s.log.lock();
                log.join();
                log.clone()
            }
            None => CausalLog::new(),
        }
    }
}

impl fmt::Debug for CausalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalSink")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Join token for one block's cross-entity edges (wire ship, steal
/// announce): source rank, step, and block index packed into one word.
/// Both substrates derive tokens through this function, so the same block
/// always joins — the field widths cover every configuration the tag
/// scheme itself admits (`WorkflowSpec::validate` rejects wider).
pub fn block_token(src: u32, step: u64, idx: u32) -> u64 {
    ((src as u64) << 48) | ((step & 0xFF_FFFF) << 24) | (idx as u64 & 0xFF_FFFF)
}

/// Join token for one end-of-stream mark: producer rank, channel code
/// (0 = message channel, 1 = file channel), destination consumer rank.
pub fn eos_token(producer: u32, channel: u8, consumer: u32) -> u64 {
    ((producer as u64) << 40) | ((channel as u64) << 32) | consumer as u64
}

/// Normalize a lane label to a substrate-independent role. The threaded
/// runtime names lanes `sim/p0/app`; the DES names the same role
/// `sim/r0/comp` — conformance compares roles, not labels.
pub fn lane_role(label: &str) -> String {
    let suffix = label.rsplit('/').next().unwrap_or(label);
    if label.starts_with("sim/") {
        match suffix {
            "app" | "comp" => "sim/comp".into(),
            "send" => "sim/send".into(),
            "fs" | "writer" => "sim/writer".into(),
            other => format!("sim/{other}"),
        }
    } else if label.starts_with("ana/") {
        match suffix {
            "recv" => "ana/recv".into(),
            "fs" | "read" => "ana/read".into(),
            "app" | "ana" => "ana/app".into(),
            "out" => "ana/out".into(),
            other => format!("ana/{other}"),
        }
    } else if label.starts_with("net/") {
        "net".into()
    } else if label.starts_with("policy/") {
        "policy".into()
    } else {
        label.to_string()
    }
}

/// One event in the happens-before graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// Lane index into [`CausalGraph::lane_label`], or `None` for the
    /// virtual source/sink.
    pub lane: Option<u32>,
    pub t: SimTime,
}

/// One weighted dependency. `kind == None` is an intra-lane segment whose
/// weight decomposes over buckets by span overlap; cross edges put their
/// whole weight in the edge class's bucket.
#[derive(Clone, Debug)]
pub struct GraphEdge {
    pub src: usize,
    pub dst: usize,
    pub kind: Option<EdgeKind>,
    pub buckets: [SimTime; Bucket::COUNT],
    /// False for the virtual source/sink pad edges: their weight keeps
    /// finish times telescoping but represents no re-weighable activity,
    /// so [`CausalGraph::what_if`] never scales it.
    pub scalable: bool,
}

impl GraphEdge {
    pub fn weight(&self) -> SimTime {
        self.buckets.iter().copied().sum()
    }
}

/// The happens-before DAG: recorded cross-entity edges plus derived
/// intra-lane segments between consecutive events of each lane, bracketed
/// by a virtual source (t = 0) and sink (t = makespan, fed by the
/// analysis lanes' final events).
pub struct CausalGraph {
    lanes: Vec<String>,
    nodes: Vec<Node>,
    edges: Vec<GraphEdge>,
    in_edges: Vec<Vec<usize>>,
    source: usize,
    sink: usize,
    makespan: SimTime,
    /// Recorded edges that could not enter the DAG (clock jitter made
    /// them point backward in time).
    pub dropped_edges: usize,
}

/// Stable topological sort of one same-instant node group. `group` holds
/// `(t, lane)` entries sharing one `t`; `cons` is the equal-time
/// cross-edge constraints `(src_lane, dst_lane)` at that instant (lanes
/// not in the group are ignored). Ties — and the members of a genuine
/// constraint cycle, which cannot all be satisfied — keep their incoming
/// order.
fn sort_group(group: &mut [(SimTime, u32)], cons: &[(u32, u32)]) {
    let pos: HashMap<u32, usize> = group
        .iter()
        .enumerate()
        .map(|(i, &(_, l))| (l, i))
        .collect();
    let n = group.len();
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, d) in cons {
        if let (Some(&si), Some(&di)) = (pos.get(&s), pos.get(&d)) {
            if si != di {
                out[si].push(di);
                indeg[di] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        // Smallest original index first keeps the sort stable.
        let k = (0..ready.len()).min_by_key(|&k| ready[k]).unwrap();
        let i = ready.swap_remove(k);
        order.push(i);
        for &d in &out[i] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                ready.push(d);
            }
        }
    }
    // Cycle fallback: append the rest in original order.
    for i in 0..n {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    let sorted: Vec<(SimTime, u32)> = order.iter().map(|&i| group[i]).collect();
    group.copy_from_slice(&sorted);
}

impl CausalGraph {
    /// Build the graph from the merged span log and the edge log.
    ///
    /// Works in `Totals` mode too (intra-lane segments then split their
    /// weight proportionally to the lane's kind totals instead of by
    /// exact span overlap), but `Full` mode gives faithful attribution.
    pub fn build(log: &TraceLog, causal: &CausalLog) -> CausalGraph {
        let mut lanes: Vec<String> = Vec::new();
        let mut lane_ix: HashMap<String, u32> = HashMap::new();
        let lane_of = |label: &str, lanes: &mut Vec<String>, lane_ix: &mut HashMap<String, u32>| {
            if let Some(&i) = lane_ix.get(label) {
                return i;
            }
            let i = lanes.len() as u32;
            lanes.push(label.to_string());
            lane_ix.insert(label.to_string(), i);
            i
        };

        // Every span lane and every edge endpoint lane participates.
        for l in log.lanes() {
            lane_of(log.lane_label(l), &mut lanes, &mut lane_ix);
        }
        for e in causal.edges() {
            lane_of(e.src_lane, &mut lanes, &mut lane_ix);
            lane_of(e.dst_lane, &mut lanes, &mut lane_ix);
        }

        // Event times per lane: edge endpoints plus the lane's recorded
        // extent (so a lane with no edges still spans its activity).
        let mut times: Vec<Vec<SimTime>> = vec![Vec::new(); lanes.len()];
        for (i, label) in lanes.iter().enumerate() {
            if let Some(l) = log.lane_by_label(label) {
                let (first, last) = log.lane_extent(l);
                if last > SimTime::ZERO || first > SimTime::ZERO {
                    times[i].push(first);
                    times[i].push(last);
                }
            }
        }
        for e in causal.edges() {
            times[lane_ix[e.src_lane] as usize].push(e.src_t);
            times[lane_ix[e.dst_lane] as usize].push(e.dst_t);
        }
        for t in &mut times {
            t.sort_unstable();
            t.dedup();
        }

        let makespan = times
            .iter()
            .flat_map(|v| v.iter().copied())
            .fold(log.horizon(), SimTime::max);

        // Nodes in time order. Within one instant, lanes are ordered
        // topologically by the equal-time cross edges between them —
        // a same-tick handoff (the DES norm; jitter-clamped joins on the
        // wall clock) must place its source node before its destination
        // node, which the raw lane-interning order cannot guarantee.
        // A genuine same-instant cycle (two handoffs crossing in
        // opposite directions) falls back to lane order and the edge
        // loop below drops the backward member.
        let mut nodes = vec![Node {
            lane: None,
            t: SimTime::ZERO,
        }];
        let mut node_ix: HashMap<(u32, SimTime), usize> = HashMap::new();
        let mut flat: Vec<(SimTime, u32)> = times
            .iter()
            .enumerate()
            .flat_map(|(lane, ts)| ts.iter().map(move |&t| (t, lane as u32)))
            .collect();
        flat.sort_unstable();
        // Equal-time cross-edge constraints, grouped by instant.
        let mut same_t: HashMap<SimTime, Vec<(u32, u32)>> = HashMap::new();
        for e in causal.edges() {
            if e.src_t == e.dst_t && e.src_lane != e.dst_lane {
                same_t
                    .entry(e.src_t)
                    .or_default()
                    .push((lane_ix[e.src_lane], lane_ix[e.dst_lane]));
            }
        }
        let mut group = 0;
        while group < flat.len() {
            let t = flat[group].0;
            let mut end = group + 1;
            while end < flat.len() && flat[end].0 == t {
                end += 1;
            }
            if end - group > 1 {
                if let Some(cons) = same_t.get(&t) {
                    sort_group(&mut flat[group..end], cons);
                }
            }
            group = end;
        }
        for (t, lane) in flat {
            node_ix.insert((lane, t), nodes.len());
            nodes.push(Node {
                lane: Some(lane),
                t,
            });
        }
        let source = 0usize;
        let sink = nodes.len();
        nodes.push(Node {
            lane: None,
            t: makespan,
        });

        let mut edges: Vec<GraphEdge> = Vec::new();
        let mut dropped = 0usize;

        // Intra-lane segments between consecutive events, weighted by
        // span-kind overlap (or totals proportions without raw spans).
        for (lane, ts) in times.iter().enumerate() {
            let label = &lanes[lane];
            let spans = log
                .lane_by_label(label)
                .map(|l| log.lane_spans(l))
                .unwrap_or_default();
            let totals = log.lane_by_label(label).map(|l| log.lane_totals(l));
            for w in ts.windows(2) {
                let (a, b) = (w[0], w[1]);
                let mut buckets = [SimTime::ZERO; Bucket::COUNT];
                let span_len = b - a;
                let mut covered = SimTime::ZERO;
                if !spans.is_empty() {
                    for s in &spans {
                        let o = s.overlap(a, b);
                        if o > SimTime::ZERO {
                            buckets[Bucket::of_kind(s.kind).index()] += o;
                            covered += o;
                        }
                    }
                } else if let Some(tot) = totals {
                    // Totals-only fallback: split proportionally.
                    let lane_total: SimTime = SpanKind::ALL.iter().map(|&k| tot.get(k)).sum();
                    if lane_total > SimTime::ZERO {
                        for &k in SpanKind::ALL.iter() {
                            let share = SimTime::from_nanos(
                                ((tot.get(k).as_nanos() as u128 * span_len.as_nanos() as u128)
                                    / lane_total.as_nanos() as u128)
                                    as u64,
                            );
                            buckets[Bucket::of_kind(k).index()] += share;
                            covered += share;
                        }
                    }
                }
                // Uncovered gap time (and any over-coverage is left as
                // recorded — lane spans are sequential in practice).
                if covered < span_len {
                    buckets[Bucket::Idle.index()] += span_len - covered;
                }
                edges.push(GraphEdge {
                    src: node_ix[&(lane as u32, a)],
                    dst: node_ix[&(lane as u32, b)],
                    kind: None,
                    buckets,
                    scalable: true,
                });
            }
        }

        // Recorded cross edges.
        for e in causal.edges() {
            if e.src_t > e.dst_t {
                dropped += 1;
                continue;
            }
            let src = node_ix[&(lane_ix[e.src_lane], e.src_t)];
            let dst = node_ix[&(lane_ix[e.dst_lane], e.dst_t)];
            if src >= dst {
                // Equal-time edge ordered against the node sort; keeping
                // it would break the topological order.
                if src != dst {
                    dropped += 1;
                }
                continue;
            }
            let mut buckets = [SimTime::ZERO; Bucket::COUNT];
            buckets[e.kind.bucket().index()] = e.dst_t - e.src_t;
            edges.push(GraphEdge {
                src,
                dst,
                kind: Some(e.kind),
                buckets,
                scalable: true,
            });
        }

        // Virtual source → each lane's first event.
        for (lane, ts) in times.iter().enumerate() {
            if let Some(&first) = ts.first() {
                let mut buckets = [SimTime::ZERO; Bucket::COUNT];
                buckets[Bucket::Idle.index()] = first;
                edges.push(GraphEdge {
                    src: source,
                    dst: node_ix[&(lane as u32, first)],
                    kind: None,
                    buckets,
                    scalable: false,
                });
            }
        }

        // Each analysis lane's last event → virtual sink. "Analysis lane"
        // is role-detected so both substrates agree; if nothing analyses
        // (degenerate traces), every lane feeds the sink.
        let mut fed_sink = false;
        for pass in 0..2 {
            for (lane, ts) in times.iter().enumerate() {
                let is_ana = lane_role(&lanes[lane]) == "ana/app"
                    || log
                        .lane_by_label(&lanes[lane])
                        .map(|l| log.lane_totals(l).get(SpanKind::Analysis) > SimTime::ZERO)
                        .unwrap_or(false);
                if pass == 0 && !is_ana {
                    continue;
                }
                if let Some(&last) = ts.last() {
                    let mut buckets = [SimTime::ZERO; Bucket::COUNT];
                    buckets[Bucket::Idle.index()] = makespan - last;
                    edges.push(GraphEdge {
                        src: node_ix[&(lane as u32, last)],
                        dst: sink,
                        kind: None,
                        buckets,
                        scalable: false,
                    });
                    fed_sink = true;
                }
            }
            if fed_sink {
                break;
            }
        }

        let mut in_edges = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            in_edges[e.dst].push(i);
        }

        CausalGraph {
            lanes,
            nodes,
            edges,
            in_edges,
            source,
            sink,
            makespan,
            dropped_edges: dropped,
        }
    }

    pub fn lane_label(&self, lane: u32) -> &str {
        &self.lanes[lane as usize]
    }

    /// Graph lane index for a label (the graph's lane space is the union
    /// of span lanes and edge endpoints, so it is not the log's).
    pub fn lane_by_label(&self, label: &str) -> Option<u32> {
        self.lanes.iter().position(|l| l == label).map(|i| i as u32)
    }

    pub fn node(&self, i: usize) -> Node {
        self.nodes[i]
    }

    pub fn edge(&self, i: usize) -> &GraphEdge {
        &self.edges[i]
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Sorted multiset of the graph's recorded cross edges, each rendered
    /// as the structural `kind:src-role=>dst-role` signature the critical
    /// path also uses (end-of-stream edges at `sim`/`ana` granularity).
    ///
    /// Unlike the critical path — whose route between two structurally
    /// identical graphs can legitimately differ when the substrates'
    /// clocks rank competing no-slack chains differently — the profile is
    /// decision-determined: two substrates driving the same policy kernel
    /// through the same schedule must record the same edges, so their
    /// profiles must be identical. This is the graph-level conformance
    /// check.
    pub fn edge_profile(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in &self.edges {
            let Some(k) = e.kind else { continue };
            *counts
                .entry(self.edge_signature(k, e.src, e.dst))
                .or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Role of node `n`'s lane ([`lane_role`]; `·` for the virtual
    /// source/sink), cut to the application (`sim`/`ana`) when `coarse`.
    fn role(&self, n: usize, coarse: bool) -> String {
        let Some(l) = self.nodes[n].lane else {
            return "·".into();
        };
        let role = lane_role(&self.lanes[l as usize]);
        match role.split_once('/') {
            Some((app, _)) if coarse => app.to_string(),
            _ => role,
        }
    }

    /// A cross edge as `kind:src-role=>dst-role`. End-of-stream edges
    /// compare at application granularity (`sim`/`ana` instead of thread
    /// roles): which producer-side thread announces a channel's mark is a
    /// substrate detail — the threaded runtime ships every wire through
    /// the sender thread, while the DES writer announces the file channel
    /// itself.
    fn edge_signature(&self, kind: EdgeKind, src: usize, dst: usize) -> String {
        let coarse = kind == EdgeKind::Eos;
        format!(
            "{}:{}=>{}",
            kind.name(),
            self.role(src, coarse),
            self.role(dst, coarse)
        )
    }

    /// Predicted makespan with one bucket's time re-weighed by `factor`
    /// everywhere in the graph (cross edges and intra-lane portions
    /// alike): a forward longest-path pass in fractional nanoseconds.
    /// `factor == 1.0` reproduces the measured makespan exactly.
    pub fn what_if(&self, bucket: Bucket, factor: f64) -> WhatIfOutcome {
        let mut finish = vec![f64::NEG_INFINITY; self.nodes.len()];
        finish[self.source] = 0.0;
        // Node indices are already topological (time-sorted, source
        // first, sink last; edges only point forward).
        for v in 0..self.nodes.len() {
            for &ei in &self.in_edges[v] {
                let e = &self.edges[ei];
                if finish[e.src] == f64::NEG_INFINITY {
                    continue;
                }
                let mut w = 0.0;
                for b in Bucket::ALL {
                    let ns = e.buckets[b.index()].as_nanos() as f64;
                    w += if e.scalable && b == bucket {
                        ns * factor
                    } else {
                        ns
                    };
                }
                finish[v] = finish[v].max(finish[e.src] + w);
            }
        }
        let predicted_ns = if finish[self.sink] == f64::NEG_INFINITY {
            0.0
        } else {
            finish[self.sink]
        };
        WhatIfOutcome {
            bucket,
            factor,
            baseline: self.makespan,
            predicted_ns,
        }
    }

    /// The standard sensitivity sweep: NIC 2× (net-transfer), PFS 2×
    /// (steal+pfs), analysis 2×, compute 2×.
    pub fn what_if_sweep(&self) -> Vec<WhatIfOutcome> {
        [
            Bucket::NetTransfer,
            Bucket::StealPfs,
            Bucket::Analysis,
            Bucket::Comp,
        ]
        .into_iter()
        .map(|b| self.what_if(b, 2.0))
        .collect()
    }
}

impl fmt::Debug for CausalGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalGraph")
            .field("lanes", &self.lanes.len())
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges.len())
            .field("makespan", &self.makespan)
            .field("dropped_edges", &self.dropped_edges)
            .finish()
    }
}

/// One what-if sensitivity outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIfOutcome {
    pub bucket: Bucket,
    pub factor: f64,
    /// Measured makespan.
    pub baseline: SimTime,
    /// Predicted makespan under the re-weighing, in fractional ns.
    pub predicted_ns: f64,
}

impl WhatIfOutcome {
    /// Predicted `T_t2s` change (positive = slower) in nanoseconds.
    pub fn delta_ns(&self) -> f64 {
        self.predicted_ns - self.baseline.as_nanos() as f64
    }

    /// Relative slowdown (`predicted / baseline − 1`).
    pub fn rel_delta(&self) -> f64 {
        let base = self.baseline.as_nanos() as f64;
        if base == 0.0 {
            0.0
        } else {
            self.delta_ns() / base
        }
    }
}

impl fmt::Display for WhatIfOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ×{:.1}: T_t2s {} -> {} ({:+.1}%)",
            self.bucket,
            self.factor,
            self.baseline,
            SimTime::from_nanos(self.predicted_ns.max(0.0).round() as u64),
            self.rel_delta() * 100.0
        )
    }
}

/// Which paper stage dominates the critical path — directly comparable
/// with the model fit's `max(T_comp, T_transfer, T_analysis)` argmax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Compute,
    Transfer,
    Analysis,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Compute => "compute",
            Verdict::Transfer => "transfer",
            Verdict::Analysis => "analysis",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Critical-path time per bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    pub buckets: [SimTime; Bucket::COUNT],
    pub makespan: SimTime,
}

impl Attribution {
    pub fn get(&self, b: Bucket) -> SimTime {
        self.buckets[b.index()]
    }

    /// Sum over all buckets — equals the path weight, which equals the
    /// makespan up to cross-substrate clock jitter (< 1% by test).
    pub fn total(&self) -> SimTime {
        self.buckets.iter().copied().sum()
    }

    /// Fold the seven buckets back onto the paper's three stages and take
    /// the argmax. The transfer stage owns everything the transfer
    /// pipeline caused: wire time, backpressure, and the steal detour.
    pub fn verdict(&self) -> Verdict {
        let comp = self.get(Bucket::Comp);
        let transfer = self.get(Bucket::NetTransfer)
            + self.get(Bucket::NetBackpressure)
            + self.get(Bucket::StealPfs);
        let analysis = self.get(Bucket::Analysis);
        if comp >= transfer && comp >= analysis {
            Verdict::Compute
        } else if transfer >= analysis {
            Verdict::Transfer
        } else {
            Verdict::Analysis
        }
    }

    /// Render the attribution table (one line per non-zero bucket).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let total = self.total();
        for b in Bucket::ALL {
            let t = self.get(b);
            if t == SimTime::ZERO {
                continue;
            }
            let pct = if total > SimTime::ZERO {
                t.as_nanos() as f64 / total.as_nanos() as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<16} {:>12}  {:>5.1}%\n",
                b.name(),
                t.to_string(),
                pct
            ));
        }
        out.push_str(&format!(
            "  {:<16} {:>12}  (makespan {})\n",
            "total",
            total.to_string(),
            self.makespan
        ));
        out
    }
}

/// One hop of the critical path (an edge index into the graph).
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    pub edge: usize,
    pub src: usize,
    pub dst: usize,
    pub kind: Option<EdgeKind>,
}

/// The longest weighted path from run start to the last analysis
/// completion. Because every edge weight is the real elapsed interval
/// between its endpoints, all complete source→sink chains tie at the
/// makespan; the extracted path is the canonical one that, at every
/// event, follows the **latest-finishing predecessor** — "what was this
/// event actually waiting on" — with deterministic tie-breaking (cross
/// edges over intra segments, then edge kind, then lane order).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Hops in forward (time) order, source to sink.
    pub hops: Vec<Hop>,
    pub attribution: Attribution,
}

impl CriticalPath {
    /// Walk the path. Returns `None` on an empty graph.
    pub fn extract(graph: &CausalGraph) -> Option<CriticalPath> {
        if graph.in_edges[graph.sink].is_empty() {
            return None;
        }
        let mut hops_rev: Vec<Hop> = Vec::new();
        let mut cur = graph.sink;
        while cur != graph.source {
            let best = graph.in_edges[cur]
                .iter()
                .copied()
                .filter(|&ei| graph.edges[ei].src < cur)
                .max_by(|&a, &b| {
                    let (ea, eb) = (&graph.edges[a], &graph.edges[b]);
                    let ta = graph.nodes[ea.src].t;
                    let tb = graph.nodes[eb.src].t;
                    // Latest predecessor wins; prefer recorded cross
                    // edges over derived intra segments; then stable
                    // kind (declaration order) and lane order, inverted
                    // so `max` picks the lowest.
                    ta.cmp(&tb)
                        .then_with(|| ea.kind.is_some().cmp(&eb.kind.is_some()))
                        .then_with(|| eb.kind.cmp(&ea.kind))
                        .then_with(|| eb.src.cmp(&ea.src))
                })?;
            let e = &graph.edges[best];
            hops_rev.push(Hop {
                edge: best,
                src: e.src,
                dst: e.dst,
                kind: e.kind,
            });
            cur = e.src;
        }
        hops_rev.reverse();

        let mut buckets = [SimTime::ZERO; Bucket::COUNT];
        for h in &hops_rev {
            let e = &graph.edges[h.edge];
            for b in Bucket::ALL {
                buckets[b.index()] += e.buckets[b.index()];
            }
        }
        Some(CriticalPath {
            hops: hops_rev,
            attribution: Attribution {
                buckets,
                makespan: graph.makespan,
            },
        })
    }

    /// Total path weight (= sum of all hop weights).
    pub fn weight(&self) -> SimTime {
        self.attribution.total()
    }

    /// The structural signature: cross edges render as
    /// `kind:src-role=>dst-role` bracketed by their endpoint roles, intra
    /// segments as the lane role, with consecutive duplicates collapsed.
    /// The roles come from the traversed *nodes*, not from derived intra
    /// segments, so a substrate whose handoffs land on the same clock
    /// tick (the DES routinely does) still names every lane the path
    /// passes through. Two substrates running the same configuration must
    /// produce identical signatures whenever their clocks select the same
    /// no-slack chain. Cross edges render as in
    /// [`CausalGraph::edge_profile`] (end-of-stream hops at application
    /// granularity).
    pub fn signature(&self, graph: &CausalGraph) -> Vec<String> {
        let mut sig: Vec<String> = Vec::new();
        let push = |sig: &mut Vec<String>, entry: String| {
            if sig.last() != Some(&entry) {
                sig.push(entry);
            }
        };
        for h in &self.hops {
            if let Some(k) = h.kind {
                push(&mut sig, graph.role(h.src, false));
                push(&mut sig, graph.edge_signature(k, h.src, h.dst));
            }
            push(&mut sig, graph.role(h.dst, false));
        }
        sig
    }

    /// Time intervals the path occupies on `lane` (for timeline
    /// highlighting): each hop whose destination sits on the lane
    /// contributes `[src.t, dst.t]` when the source is on the same lane,
    /// else the arrival instant.
    pub fn intervals_on(&self, graph: &CausalGraph, lane: u32) -> Vec<(SimTime, SimTime)> {
        let mut out = Vec::new();
        for h in &self.hops {
            if graph.nodes[h.dst].lane == Some(lane) {
                let t1 = graph.nodes[h.dst].t;
                let t0 = if graph.nodes[h.src].lane == Some(lane) {
                    graph.nodes[h.src].t
                } else {
                    t1
                };
                out.push((t0, t1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TraceLog;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    /// A miniature producer→consumer trace: compute 0–10, send 10–12,
    /// wire edge to the consumer, analysis 12–20.
    fn tiny() -> (TraceLog, CausalLog) {
        let mut log = TraceLog::new();
        let p = log.lane("sim/p0/app");
        let s = log.lane("sim/p0/send");
        let c = log.lane("ana/q0/app");
        log.record_interval(p, SpanKind::Compute, ms(0), ms(10));
        log.record_interval(s, SpanKind::Send, ms(10), ms(12));
        log.record_interval(c, SpanKind::Analysis, ms(12), ms(20));
        let mut causal = CausalLog::new();
        causal.queue_push("q/sim/p0", 7, "sim/p0/app", ms(10));
        causal.queue_pop("q/sim/p0", 7, "sim/p0/send", ms(10));
        causal.begin(EdgeKind::Wire, 7, "sim/p0/send", ms(12));
        causal.end(EdgeKind::Wire, 7, "ana/q0/app", ms(12));
        (log, causal)
    }

    #[test]
    fn token_join_is_order_independent() {
        let mut c = CausalLog::new();
        c.end(EdgeKind::Wire, 1, "b", ms(5));
        c.begin(EdgeKind::Wire, 1, "a", ms(3));
        assert_eq!(c.len(), 1);
        let e = c.edges().next().unwrap();
        assert_eq!((e.src_lane, e.dst_lane), ("a", "b"));
        assert_eq!((e.src_t, e.dst_t), (ms(3), ms(5)));
        assert_eq!(c.unjoined(), 0);
    }

    /// One queue half: (push?, block, lane, time).
    type QueueHalf = (bool, u64, &'static str, u64);

    /// The requeue history of one queue: the app pushes A and B, the
    /// writer takes A, its put faults and it requeues A at the *front*,
    /// the sender takes A, then B.
    const REQUEUE: [QueueHalf; 6] = [
        (true, 0xA, "app", 1),
        (true, 0xB, "app", 2),
        (false, 0xA, "writer", 3),
        (true, 0xA, "writer", 4),
        (false, 0xA, "send", 5),
        (false, 0xB, "send", 6),
    ];

    /// Queue edges of [`REQUEUE`] recorded in `order`, as sorted
    /// `(block, src lane, src t, dst lane, dst t)`.
    fn queue_edges(order: &[usize]) -> Vec<(u64, String, u64, String, u64)> {
        let mut c = CausalLog::new();
        for &i in order {
            let (push, block, lane, t) = REQUEUE[i];
            if push {
                c.queue_push("q", block, lane, ms(t));
            } else {
                c.queue_pop("q", block, lane, ms(t));
            }
        }
        assert_eq!(c.unjoined(), 0, "order {order:?}");
        let mut edges: Vec<_> = c
            .edges()
            .map(|e| {
                let t = |t: SimTime| t.as_nanos() / 1_000_000;
                (
                    e.token,
                    e.src_lane.into(),
                    t(e.src_t),
                    e.dst_lane.into(),
                    t(e.dst_t),
                )
            })
            .collect();
        edges.sort();
        edges
    }

    /// What [`REQUEUE`] must join to: each edge its own block's halves.
    fn requeue_edges() -> Vec<(u64, String, u64, String, u64)> {
        vec![
            (0xA, "app".into(), 1, "writer".into(), 3),
            (0xA, "writer".into(), 4, "send".into(), 5),
            (0xB, "app".into(), 2, "send".into(), 6),
        ]
    }

    #[test]
    fn queue_halves_pair_by_block_in_any_recording_order() {
        // Recording order as happened, then orders a thread's late record
        // produces (threads record after the operation; only one lane's
        // own records keep their order).
        for order in [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 2, 3, 5, 4],
            [0, 2, 1, 3, 4, 5],
            [1, 5, 0, 2, 3, 4],
            [0, 1, 2, 3, 5, 4],
            // The app records A's push only after the writer took A,
            // failed, and requeued it.
            [2, 3, 0, 1, 4, 5],
            [1, 2, 3, 4, 0, 5],
        ] {
            assert_eq!(queue_edges(&order), requeue_edges(), "order {order:?}");
        }
    }

    #[test]
    fn requeue_push_recorded_after_its_pop_still_pairs() {
        // The writer requeues A, the sender re-takes it and records its
        // pop before the writer got to record the requeue's push.
        assert_eq!(queue_edges(&[0, 1, 2, 4, 3, 5]), requeue_edges());
    }

    #[test]
    fn sink_halves_pair_across_batches_and_at_snapshot() {
        use crate::clock::VirtualClock;
        let clock = VirtualClock::new();
        let sink = CausalSink::new(Arc::new(clock.clone()));
        // Every destination first, so halves wait across batch joins.
        let n = 2 * JOIN_BATCH as u64 + 1;
        for i in 0..n {
            clock.set(ms(i));
            sink.end(EdgeKind::Wire, i, "b");
        }
        for i in 0..n {
            sink.begin(EdgeKind::Wire, i, "a");
        }
        let log = sink.snapshot();
        assert_eq!((log.len() as u64, log.unjoined()), (n, 0));
        assert!(log
            .edges()
            .all(|e| (e.src_lane, e.dst_lane, e.dst_t) == ("a", "b", ms(e.token))));
    }

    #[test]
    fn critical_path_spans_makespan_and_crosses_the_wire() {
        let (log, causal) = tiny();
        let g = CausalGraph::build(&log, &causal);
        assert_eq!(g.makespan(), ms(20));
        assert_eq!(g.dropped_edges, 0);
        let path = CriticalPath::extract(&g).unwrap();
        assert_eq!(path.weight(), ms(20), "buckets telescope to makespan");
        assert_eq!(path.attribution.get(Bucket::Analysis), ms(8));
        assert_eq!(path.attribution.get(Bucket::Comp), ms(10));
        let sig = path.signature(&g);
        assert!(
            sig.iter().any(|s| s.starts_with("wire:")),
            "path crosses the wire edge: {sig:?}"
        );
        assert_eq!(path.attribution.verdict(), Verdict::Compute);
    }

    #[test]
    fn path_is_time_monotone() {
        let (log, causal) = tiny();
        let g = CausalGraph::build(&log, &causal);
        let path = CriticalPath::extract(&g).unwrap();
        for h in &path.hops {
            assert!(h.src < h.dst, "topological order");
            assert!(g.node(h.src).t <= g.node(h.dst).t);
        }
    }

    #[test]
    fn what_if_identity_reproduces_makespan() {
        let (log, causal) = tiny();
        let g = CausalGraph::build(&log, &causal);
        for b in Bucket::ALL {
            let o = g.what_if(b, 1.0);
            assert_eq!(o.predicted_ns, g.makespan().as_nanos() as f64, "{b}");
        }
    }

    #[test]
    fn what_if_scales_the_dominant_class() {
        let (log, causal) = tiny();
        let g = CausalGraph::build(&log, &causal);
        // Compute dominates the producer side: doubling it must slow the
        // predicted makespan by its full path share (10 ms).
        let o = g.what_if(Bucket::Comp, 2.0);
        assert_eq!(o.delta_ns(), ms(10).as_nanos() as f64);
        // Analysis likewise (8 ms on the path tail).
        let o = g.what_if(Bucket::Analysis, 2.0);
        assert_eq!(o.delta_ns(), ms(8).as_nanos() as f64);
        // Idle never dominates here.
        let o = g.what_if(Bucket::Idle, 2.0);
        assert_eq!(o.delta_ns(), 0.0);
    }

    #[test]
    fn backward_edges_are_dropped_not_cyclic() {
        let (log, mut causal) = tiny();
        causal.edge_at(
            EdgeKind::Wire,
            "ana/q0/app",
            ms(15),
            "sim/p0/app",
            ms(3),
            99,
        );
        let g = CausalGraph::build(&log, &causal);
        assert!(g.dropped_edges >= 1);
        let path = CriticalPath::extract(&g).unwrap();
        for h in &path.hops {
            assert!(h.src < h.dst);
        }
    }

    #[test]
    fn roles_normalize_across_substrates() {
        assert_eq!(lane_role("sim/p0/app"), "sim/comp");
        assert_eq!(lane_role("sim/r3/comp"), "sim/comp");
        assert_eq!(lane_role("sim/p1/fs"), "sim/writer");
        assert_eq!(lane_role("sim/r1/writer"), "sim/writer");
        assert_eq!(lane_role("ana/q0/fs"), "ana/read");
        assert_eq!(lane_role("ana/q2/read"), "ana/read");
        assert_eq!(lane_role("ana/q0/app"), "ana/app");
        assert_eq!(lane_role("ana/q0/ana"), "ana/app");
        assert_eq!(lane_role("net/p0"), "net");
    }

    #[test]
    fn sink_is_fed_by_analysis_lanes_only_when_present() {
        let (log, causal) = tiny();
        let g = CausalGraph::build(&log, &causal);
        let path = CriticalPath::extract(&g).unwrap();
        // Last real hop before the sink must sit on the analysis lane.
        let pre_sink = path.hops[path.hops.len() - 1];
        let lane = g.node(pre_sink.src).lane.unwrap();
        assert_eq!(lane_role(g.lane_label(lane)), "ana/app");
    }

    #[test]
    fn inert_sink_records_nothing() {
        let sink = CausalSink::off();
        sink.begin(EdgeKind::Wire, 1, "a");
        sink.end(EdgeKind::Wire, 1, "b");
        sink.queue_push("q", 1, "a");
        sink.queue_pop("q", 1, "b");
        sink.edge_at(EdgeKind::Gate, "a", ms(0), "a", ms(1), 0);
        assert!(!sink.enabled());
        assert!(sink.snapshot().is_empty());
    }
}
