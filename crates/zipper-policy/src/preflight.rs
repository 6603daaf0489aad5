//! Static preflight verification: prove a plan safe before either
//! substrate runs it.
//!
//! The paper's §4.4 analytical model predicts workflow behavior *before*
//! execution; this module does the same for plan *safety*. Given a
//! [`PreflightInput`] — the [`WorkflowConfig`] (rank counts, block
//! schedule, tuning knobs, recovery budgets) plus the optional
//! [`ChaosPlan`] and [`BackpressureScript`] — [`Preflight::check`]
//! symbolically executes the policy kernel ([`ProducerPolicy`]'s shared
//! router rotation, Algorithm 1's high-water steal condition, the EOS
//! fan-out) over the abstract block schedule, without spawning a thread
//! or a virtual process, and emits typed `ZV0xx` diagnostics with
//! entity + ordinal provenance.
//!
//! ## What is proved vs heuristic
//!
//! The symbolic walk is **exact** ("pinned") whenever the decision
//! sequence is interleaving-independent, which covers three regimes:
//!
//! * message-only mode (`concurrent_transfer = false`) — one sender
//!   thread, one take order;
//! * a detached sender ([`ChaosFault::DetachSender`]) — every block
//!   drains through the writer in production order;
//! * `high_water_mark >= blocks_per_rank` — occupancy can never exceed
//!   the threshold, so Algorithm 1 never fires a *voluntary* steal and
//!   the only disk traffic is the scripted credit windows, which steal
//!   deterministically.
//!
//! Every conformance configuration in the differential test harness
//! falls into one of these regimes, which is what lets the verifier's
//! verdicts be conformance-tested against both substrates. Outside them
//! (concurrent transfer with a low high-water mark) the walk degrades to
//! *bounds*: ordinals beyond any possible schedule are still rejected
//! ([`ZvCode::DeadOrdinal`]), ordinals inside the feasible range produce
//! [`ZvCode::UnprovableOrdinal`] warnings, and EOS-threatening faults
//! without a watchdog are conservatively rejected (the "accepted ⇒ the
//! DES run completes" property is kept sound by construction).
//!
//! ## Diagnostics
//!
//! Every diagnostic carries a stable [`ZvCode`] (rendered as `ZV0xx`),
//! a severity, and — where it concerns one scripted event — the chaos
//! entity and ordinal it is about. Errors reject the plan
//! ([`PreflightReport::is_rejected`]); warnings flag proven degradations
//! (watchdog completions, fail-soft writer death); lints flag inert
//! configuration. The full table lives in `DESIGN.md` ("Static
//! preflight").

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::consumer::ConsumerPolicy;
use crate::gate::{WireGate, WriterGate};
use crate::producer::ProducerPolicy;
use crate::rank::{NetVerdict, PutVerdict, RankScript};
use crate::read::{ReadScript, ReadVerdict};
use crate::route::Router;
use zipper_types::{
    BackpressureScript, BlockId, ChaosEntity, ChaosFault, ChaosPlan, ConfigError, GateRule, Rank,
    StepId, WireFate, WorkflowConfig,
};

/// Widest step index the wire tag format can carry (32-bit step field;
/// the DES tag scheme, `zipper-transports::spec::tag`, is defined from
/// these two limits).
pub const TAG_STEP_LIMIT: u64 = (1 << 32) - 1;
/// Widest per-step block index the wire tag format can carry (24-bit
/// info field).
pub const TAG_BLOCK_LIMIT: u64 = (1 << 24) - 1;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan is rejected: running it would hang, crash unhealed, or
    /// exceed a protocol bound.
    Error,
    /// The plan runs to completion but through a proven degradation
    /// (watchdog timeout, fail-soft writer death, inert window).
    Warning,
    /// Inert or wasteful configuration worth knowing about.
    Lint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Lint => "lint",
        })
    }
}

/// Stable diagnostic codes. The numeric blocks group by subject:
/// `ZV00x` configuration, `ZV01x` backpressure scripts, `ZV02x` chaos
/// plans, `ZV03x` recovery, `ZV04x` termination/causality, `ZV05x`
/// lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZvCode {
    /// ZV001: a config scalar is zero or inconsistent.
    InvalidConfig,
    /// ZV002: `high_water_mark >= producer_slots` — the writer could
    /// never relieve a full buffer.
    HighWaterMark,
    /// ZV003: step count exceeds the 32-bit wire-tag step field.
    TagStepOverflow,
    /// ZV004: per-step block count exceeds the 24-bit wire-tag field.
    TagBlockOverflow,
    /// ZV010: structurally malformed backpressure script (0-ordinal
    /// wire, duplicate/unsorted windows, regressing targets).
    MalformedScript,
    /// ZV011: an `OpenAfterSteals` target is unreachable — statically
    /// (`wire + target > blocks_per_rank`) or dynamically (chaos kills
    /// enough wires that the armed window starves, or a detached sender
    /// can never arm it while the producer is wedged on a full buffer).
    UnsatisfiableWindow,
    /// ZV012: a gate window addresses a producer rank that does not
    /// exist.
    GateRankOutOfRange,
    /// ZV013: a credit window that can never arm (message-only mode,
    /// detached sender, or a wire ordinal past the last attempted wire);
    /// every interpreter fails open, so this is a warning.
    InertWindow,
    /// ZV020: a chaos ordinal beyond the operation count its entity will
    /// ever perform — the fault can never fire.
    DeadOrdinal,
    /// ZV021: the schedule is not pinned and the ordinal is inside the
    /// feasible range, but liveness cannot be proved.
    UnprovableOrdinal,
    /// ZV022: two faults scripted on the same (entity, ordinal) — only
    /// the first ever fires, and which is "first" is an accident of plan
    /// order.
    ConflictingFaults,
    /// ZV023: a chaos entity addresses a rank that does not exist.
    EntityOutOfRange,
    /// ZV024: `DetachSender` without `concurrent_transfer` — there is no
    /// writer to drain the detached rank's blocks.
    DetachWithoutWriter,
    /// ZV025: an `Output` entity scripted while Preserve mode is off —
    /// the output path does not exist.
    OutputWithoutPreserve,
    /// ZV026: a fault kind the addressed entity never interprets (for
    /// example `PfsWriteFail` on a sender); it fires as a silent no-op.
    InertFault,
    /// ZV030: `CrashApp` beyond the consumer restart budget — the rank
    /// halts and its deliveries are lost.
    UnhealedCrash,
    /// ZV031: `PfsWriteFail` beyond the writer revival budget — the
    /// writer dies and the rank degrades to message-only (fail-soft by
    /// construction, the sender covers the disk channel's EOS).
    WriterFailSoft,
    /// ZV032: a healed crash must replay a non-empty backlog, but
    /// Preserve mode is off so no backlog was ever stored.
    ReplayWithoutPreserve,
    /// ZV033: a detached rank's writer provably dies with blocks
    /// undrained — the detached sender takes nothing, so the producer
    /// wedges forever.
    DetachedWriterDeath,
    /// ZV040: a consumer provably (or, unpinned, possibly) misses EOS
    /// marks and has no watchdog — it blocks forever.
    EosStarvation,
    /// ZV041: a consumer misses EOS marks but completes through its
    /// watchdog timeout.
    WatchdogDegradation,
    /// ZV042: the statically derived causal skeleton has a cycle
    /// (internal invariant; decision-determined edges are a DAG by
    /// construction).
    SkeletonCycle,
    /// ZV050: a recovery budget no scripted fault can ever consume.
    UnusedRecoveryBudget,
    /// ZV051: a zero-duration `Hold` window — a no-op.
    ZeroHold,
}

impl ZvCode {
    /// The stable `ZV0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            ZvCode::InvalidConfig => "ZV001",
            ZvCode::HighWaterMark => "ZV002",
            ZvCode::TagStepOverflow => "ZV003",
            ZvCode::TagBlockOverflow => "ZV004",
            ZvCode::MalformedScript => "ZV010",
            ZvCode::UnsatisfiableWindow => "ZV011",
            ZvCode::GateRankOutOfRange => "ZV012",
            ZvCode::InertWindow => "ZV013",
            ZvCode::DeadOrdinal => "ZV020",
            ZvCode::UnprovableOrdinal => "ZV021",
            ZvCode::ConflictingFaults => "ZV022",
            ZvCode::EntityOutOfRange => "ZV023",
            ZvCode::DetachWithoutWriter => "ZV024",
            ZvCode::OutputWithoutPreserve => "ZV025",
            ZvCode::InertFault => "ZV026",
            ZvCode::UnhealedCrash => "ZV030",
            ZvCode::WriterFailSoft => "ZV031",
            ZvCode::ReplayWithoutPreserve => "ZV032",
            ZvCode::DetachedWriterDeath => "ZV033",
            ZvCode::EosStarvation => "ZV040",
            ZvCode::WatchdogDegradation => "ZV041",
            ZvCode::SkeletonCycle => "ZV042",
            ZvCode::UnusedRecoveryBudget => "ZV050",
            ZvCode::ZeroHold => "ZV051",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            ZvCode::InvalidConfig
            | ZvCode::HighWaterMark
            | ZvCode::TagStepOverflow
            | ZvCode::TagBlockOverflow
            | ZvCode::MalformedScript
            | ZvCode::UnsatisfiableWindow
            | ZvCode::GateRankOutOfRange
            | ZvCode::DeadOrdinal
            | ZvCode::ConflictingFaults
            | ZvCode::EntityOutOfRange
            | ZvCode::DetachWithoutWriter
            | ZvCode::OutputWithoutPreserve
            | ZvCode::UnhealedCrash
            | ZvCode::ReplayWithoutPreserve
            | ZvCode::DetachedWriterDeath
            | ZvCode::EosStarvation
            | ZvCode::SkeletonCycle => Severity::Error,
            ZvCode::InertWindow
            | ZvCode::UnprovableOrdinal
            | ZvCode::InertFault
            | ZvCode::WriterFailSoft
            | ZvCode::WatchdogDegradation => Severity::Warning,
            ZvCode::UnusedRecoveryBudget | ZvCode::ZeroHold => Severity::Lint,
        }
    }
}

/// One finding, with entity + ordinal provenance when it concerns a
/// single scripted event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: ZvCode,
    pub entity: Option<ChaosEntity>,
    pub ordinal: Option<u64>,
    pub message: String,
}

impl Diagnostic {
    fn plain(code: ZvCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            entity: None,
            ordinal: None,
            message: message.into(),
        }
    }

    fn at(code: ZvCode, entity: ChaosEntity, ordinal: u64, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            entity: Some(entity),
            ordinal: Some(ordinal),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code.code(), self.code.severity())?;
        if let Some(e) = self.entity {
            write!(f, " [{e:?}")?;
            if let Some(o) = self.ordinal {
                write!(f, " @ ordinal {o}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The statically derived causal-edge skeleton: the decision-determined
/// part of the runtime causal engine's edge multiset, as `"kind:src=>dst"`
/// role signatures with predicted counts (the same shape
/// `CausalGraph::edge_profile` renders at runtime, restricted to the
/// kinds whose counts the policy kernel alone determines — `wire`, `eos`,
/// `steal`, `pfs`; `queue` and `gate` edges depend on runtime buffering
/// and stay outside the skeleton).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalSkeleton {
    /// Predicted `"kind:src=>dst"` → count, zero-count entries omitted.
    pub edges: BTreeMap<String, u64>,
}

/// Edge kinds whose multiset is fully decision-determined.
const SKELETON_KINDS: [&str; 4] = ["wire", "eos", "steal", "pfs"];

impl CausalSkeleton {
    fn add(&mut self, sig: &str, n: u64) {
        if n > 0 {
            *self.edges.entry(sig.to_string()).or_insert(0) += n;
        }
    }

    /// Kahn's algorithm over the role graph (self-edges are intra-stage
    /// and skipped): true when the predicted edges form a DAG.
    pub fn is_acyclic(&self) -> bool {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        let mut arcs: BTreeSet<(&str, &str)> = BTreeSet::new();
        for sig in self.edges.keys() {
            let Some((_, pair)) = sig.split_once(':') else {
                continue;
            };
            let Some((src, dst)) = pair.split_once("=>") else {
                continue;
            };
            nodes.insert(src);
            nodes.insert(dst);
            if src != dst {
                arcs.insert((src, dst));
            }
        }
        let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        for &(_, dst) in &arcs {
            *indeg.get_mut(dst).expect("dst is a node") += 1;
        }
        let mut ready: Vec<&str> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut removed = 0;
        while let Some(n) = ready.pop() {
            removed += 1;
            for &(src, dst) in &arcs {
                if src == n {
                    let d = indeg.get_mut(dst).expect("dst is a node");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(dst);
                    }
                }
            }
        }
        removed == nodes.len()
    }

    /// Compare against a runtime `edge_profile`, ignoring profile entries
    /// outside the decision-determined kinds. `Err` carries a readable
    /// mismatch description.
    pub fn matches_profile(&self, profile: &BTreeMap<String, u64>) -> Result<(), String> {
        let runtime: BTreeMap<&String, u64> = profile
            .iter()
            .filter(|(sig, &n)| {
                n > 0
                    && sig
                        .split_once(':')
                        .is_some_and(|(k, _)| SKELETON_KINDS.contains(&k))
            })
            .map(|(sig, &n)| (sig, n))
            .collect();
        let predicted: BTreeMap<&String, u64> = self.edges.iter().map(|(s, &n)| (s, n)).collect();
        if runtime == predicted {
            return Ok(());
        }
        let mut msg = String::from("causal skeleton mismatch:");
        for (sig, &n) in &predicted {
            match runtime.get(sig) {
                Some(&m) if m == n => {}
                Some(&m) => msg.push_str(&format!("\n  {sig}: predicted {n}, runtime {m}")),
                None => msg.push_str(&format!("\n  {sig}: predicted {n}, runtime absent")),
            }
        }
        for (sig, &m) in &runtime {
            if !predicted.contains_key(sig) {
                msg.push_str(&format!("\n  {sig}: predicted absent, runtime {m}"));
            }
        }
        Err(msg)
    }
}

/// One plan, substrate-free: the workflow, plus the optional fault and
/// flow-control scripts. Every interpreter derives its input from this one
/// value — `Preflight::check` reads it directly, the threaded driver runs
/// `workflow` under `RunOptions { chaos, net.backpressure }`, and the DES
/// runs `WorkflowSpec::from_plan`. The named conformance plans live in
/// [`crate::conformance`].
#[derive(Clone, Debug, PartialEq)]
pub struct PreflightInput {
    pub workflow: WorkflowConfig,
    pub chaos: Option<ChaosPlan>,
    pub backpressure: Option<BackpressureScript>,
}

impl PreflightInput {
    /// A script-free plan; attach scripts with
    /// [`PreflightInput::with_chaos`] / [`PreflightInput::with_backpressure`].
    pub fn from_config(cfg: &WorkflowConfig) -> Self {
        PreflightInput {
            workflow: cfg.clone(),
            chaos: None,
            backpressure: None,
        }
    }

    /// Attach a chaos script (builder style).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Attach a backpressure script (builder style).
    pub fn with_backpressure(mut self, script: BackpressureScript) -> Self {
        self.backpressure = Some(script);
        self
    }

    /// Blocks per rank per step; 0 (a ZV001 finding, not a panic) for a
    /// zero block size.
    fn blocks_per_rank_step(&self) -> u64 {
        if self.workflow.tuning.block_size.as_u64() == 0 {
            return 0;
        }
        self.workflow.blocks_per_rank_step()
    }

    /// Blocks each producer rank emits over the whole run.
    fn blocks_per_rank(&self) -> u64 {
        self.workflow.steps * self.blocks_per_rank_step()
    }

    fn chaos_ref(&self) -> &[zipper_types::ChaosEvent] {
        self.chaos
            .as_ref()
            .map(|p| p.events.as_slice())
            .unwrap_or(&[])
    }

    /// Whether `rank`'s sender is structurally detached.
    fn detached(&self, rank: usize) -> bool {
        self.chaos_ref().iter().any(|ev| {
            ev.fault == ChaosFault::DetachSender
                && ev.entity == ChaosEntity::Sender(Rank(rank as u32))
        })
    }

    /// Exact-walk regime for `rank` (see the module docs).
    fn pinned(&self, rank: usize) -> bool {
        let tuning = &self.workflow.tuning;
        !tuning.concurrent_transfer
            || self.detached(rank)
            || tuning.high_water_mark as u64 >= self.blocks_per_rank()
    }

    /// The scripted faults for one entity, sorted by ordinal — the same
    /// view `ChaosPlan::scope` gives the runtimes, but borrowed.
    fn faults_for(&self, entity: ChaosEntity) -> Vec<(u64, ChaosFault)> {
        let mut v: Vec<(u64, ChaosFault)> = self
            .chaos_ref()
            .iter()
            .filter(|ev| ev.entity == entity && ev.fault != ChaosFault::DetachSender)
            .map(|ev| (ev.ordinal, ev.fault))
            .collect();
        v.sort_by_key(|&(o, _)| o);
        v
    }
}

/// The verifier's verdict: diagnostics, the causal skeleton (exact only
/// when the whole schedule is pinned), and whether the walk was exact.
#[derive(Clone, Debug, Default)]
pub struct PreflightReport {
    pub diagnostics: Vec<Diagnostic>,
    pub skeleton: CausalSkeleton,
    /// True when every rank's schedule was walked exactly; false when
    /// any rank degraded to bounds (the skeleton is then empty).
    pub pinned: bool,
}

impl PreflightReport {
    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Warning)
    }

    /// True when any error-severity diagnostic was emitted: the plan
    /// must not run.
    pub fn is_rejected(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether a given code was emitted.
    pub fn has(&self, code: ZvCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let lints = self.diagnostics.len() - errors - warnings;
        let verdict = if errors > 0 { "REJECTED" } else { "ACCEPTED" };
        let mode = if self.pinned {
            "pinned schedule"
        } else {
            "heuristic bounds"
        };
        let mut out = format!(
            "preflight: {verdict} ({errors} errors, {warnings} warnings, {lints} lints; {mode})"
        );
        for d in &self.diagnostics {
            out.push_str(&format!("\n  {d}"));
        }
        if self.pinned && !self.skeleton.edges.is_empty() {
            out.push_str("\n  causal skeleton:");
            for (sig, n) in &self.skeleton.edges {
                out.push_str(&format!("\n    {sig} x{n}"));
            }
        }
        out
    }
}

/// Outcome of one rank's exact symbolic walk.
#[derive(Clone, Debug, Default)]
struct RankWalk {
    /// Per consumer: DATA blocks delivered over the message channel
    /// (corrupted and dropped frames excluded).
    net_delivered: Vec<u64>,
    /// Per consumer: disk-id notifications delivered (one PFS fetch
    /// each).
    disk_delivered: Vec<u64>,
    /// Per consumer: EOS marks delivered from this rank (both channels).
    eos_delivered: Vec<u64>,
    /// Successful writer puts: the rank's cumulative steal credit.
    writer_puts: u64,
}

/// The verifier entry point.
pub struct Preflight;

impl Preflight {
    /// Statically verify `input`. Never runs either substrate.
    pub fn check(input: &PreflightInput) -> PreflightReport {
        let cfg = &input.workflow;
        let mut d = Preflight::check_shape(input);
        check_chaos_shape(input, &mut d);
        if d.iter()
            .any(|x: &Diagnostic| x.code.severity() == Severity::Error)
        {
            // Structural errors make the symbolic walk meaningless (a
            // rank out of range, a malformed script): report and stop.
            return PreflightReport {
                diagnostics: d,
                skeleton: CausalSkeleton::default(),
                pinned: false,
            };
        }

        let all_pinned = (0..cfg.producers).all(|r| input.pinned(r));
        let mut walks: Vec<RankWalk> = Vec::with_capacity(cfg.producers);
        for rank in 0..cfg.producers {
            if input.pinned(rank) {
                walks.push(walk_rank(input, rank, &mut d));
            } else {
                bound_rank(input, rank, &mut d);
                walks.push(RankWalk {
                    net_delivered: vec![0; cfg.consumers],
                    disk_delivered: vec![0; cfg.consumers],
                    eos_delivered: vec![0; cfg.consumers],
                    ..RankWalk::default()
                });
            }
        }

        if all_pinned {
            check_consumers(input, &walks, &mut d);
        } else {
            bound_consumers(input, &mut d);
        }
        check_recovery_lints(input, &mut d);

        let skeleton = if all_pinned {
            let s = build_skeleton(&walks);
            if !s.is_acyclic() {
                d.push(Diagnostic::plain(
                    ZvCode::SkeletonCycle,
                    "statically derived causal skeleton is cyclic",
                ));
            }
            s
        } else {
            CausalSkeleton::default()
        };

        d.sort_by_key(|x| {
            (
                x.code.severity(),
                x.code,
                x.entity.map(entity_sort_key),
                x.ordinal,
            )
        });
        PreflightReport {
            diagnostics: d,
            skeleton,
            pinned: all_pinned,
        }
    }

    /// The structural diagnostics of `input`: the one rule for which
    /// plans can run at all, applied by [`Preflight::check`], by
    /// `WorkflowSpec::validate` on the DES and by `run_workflow_with` on
    /// threads before any thread spawns. It covers the config scalars
    /// ([`WorkflowConfig::validate`]: ZV001, ZV002), the wire-tag fit
    /// (ZV003, ZV004), the backpressure script (ZV010–ZV012 and the ZV051
    /// lint: windows on existing ranks, wire ordinals 1-based and distinct
    /// per rank, `OpenAfterSteals` targets non-decreasing per rank and each
    /// statically satisfiable) and a detached sender's writer (ZV024).
    pub fn check_shape(input: &PreflightInput) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        check_config(input, &mut d);
        check_script_shape(input, &mut d);
        check_detach(input, &mut d);
        d
    }
}

fn entity_sort_key(e: ChaosEntity) -> (u8, u32) {
    match e {
        ChaosEntity::Sender(r) => (0, r.0),
        ChaosEntity::Writer(r) => (1, r.0),
        ChaosEntity::Output(r) => (2, r.0),
        ChaosEntity::Analysis(r) => (3, r.0),
    }
}

/// ZV001–ZV004: the config rule's first breach, and wire-tag bounds.
fn check_config(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let cfg = &input.workflow;
    if let Err(e) = cfg.validate() {
        let code = match e {
            ConfigError::Zero(_) => ZvCode::InvalidConfig,
            ConfigError::HighWaterMark { .. } => ZvCode::HighWaterMark,
        };
        d.push(Diagnostic::plain(code, e.to_string()));
    }
    if cfg.steps > TAG_STEP_LIMIT {
        d.push(Diagnostic::plain(
            ZvCode::TagStepOverflow,
            format!(
                "{} steps exceed the wire tag's 32-bit step field (max {TAG_STEP_LIMIT})",
                cfg.steps
            ),
        ));
    }
    if input.blocks_per_rank_step() > TAG_BLOCK_LIMIT {
        d.push(Diagnostic::plain(
            ZvCode::TagBlockOverflow,
            format!(
                "{} blocks per rank-step exceed the wire tag's 24-bit block field \
                 (max {TAG_BLOCK_LIMIT})",
                input.blocks_per_rank_step()
            ),
        ));
    }
}

/// ZV010–ZV012, ZV051: backpressure-script structure, before any walk
/// (see [`Preflight::check_shape`]).
fn check_script_shape(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let cfg = &input.workflow;
    let Some(script) = &input.backpressure else {
        return;
    };
    let n = input.blocks_per_rank();
    for &(rank, ref w) in &script.gates {
        if rank.idx() >= cfg.producers {
            d.push(Diagnostic::plain(
                ZvCode::GateRankOutOfRange,
                format!(
                    "gate window on producer rank {} but the workflow has {} producers",
                    rank.idx(),
                    cfg.producers
                ),
            ));
        }
        if w.wire == 0 {
            d.push(Diagnostic::plain(
                ZvCode::MalformedScript,
                format!(
                    "gate wire ordinals are 1-based; rank {} scripts wire 0",
                    rank.idx()
                ),
            ));
        }
        match w.rule {
            GateRule::OpenAfterSteals(target) => {
                if w.wire + target > n {
                    d.push(Diagnostic::plain(
                        ZvCode::UnsatisfiableWindow,
                        format!(
                            "rank {} wire {} needs {} cumulative steals but only {} blocks \
                             exist per rank: the window can never open",
                            rank.idx(),
                            w.wire,
                            target,
                            n
                        ),
                    ));
                }
            }
            GateRule::Hold(dur) => {
                if dur.is_zero() {
                    d.push(Diagnostic::plain(
                        ZvCode::ZeroHold,
                        format!(
                            "rank {} wire {} holds for zero time (no-op)",
                            rank.idx(),
                            w.wire
                        ),
                    ));
                }
            }
        }
    }
    // Per-rank ordering, and targets that never regress (they are
    // cumulative: equal targets and a zero target are fine).
    for rank in 0..cfg.producers {
        let windows = script.windows_for(Rank(rank as u32));
        let mut last_wire = 0u64;
        let mut last_target = 0u64;
        for w in &windows {
            if w.wire == last_wire && last_wire != 0 {
                d.push(Diagnostic::plain(
                    ZvCode::MalformedScript,
                    format!("rank {rank} scripts wire {} twice", w.wire),
                ));
            }
            last_wire = w.wire;
            if let GateRule::OpenAfterSteals(t) = w.rule {
                if t < last_target {
                    d.push(Diagnostic::plain(
                        ZvCode::MalformedScript,
                        format!(
                            "rank {rank} wire {}: cumulative steal target {} regresses \
                             below the previous window's {}",
                            w.wire, t, last_target
                        ),
                    ));
                }
                last_target = t;
            }
        }
    }
}

/// ZV024: `DetachSender` on an existing sender needs the writer thread.
fn check_detach(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    if input.workflow.tuning.concurrent_transfer {
        return;
    }
    for ev in input.chaos_ref() {
        let on_a_sender =
            matches!(ev.entity, ChaosEntity::Sender(r) if r.idx() < input.workflow.producers);
        if ev.fault == ChaosFault::DetachSender && on_a_sender {
            d.push(Diagnostic::at(
                ZvCode::DetachWithoutWriter,
                ev.entity,
                ev.ordinal,
                "DetachSender without concurrent_transfer: no writer exists to drain the \
                 detached rank's blocks",
            ));
        }
    }
}

/// ZV020–ZV026 (shape half): per-event checks that need no walk (ZV024
/// is [`Preflight::check_shape`]'s).
fn check_chaos_shape(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let (cfg, tuning) = (&input.workflow, &input.workflow.tuning);
    let events = input.chaos_ref();
    let mut seen: BTreeSet<((u8, u32), u64)> = BTreeSet::new();
    for ev in events {
        let (kind, rank) = entity_sort_key(ev.entity);
        let in_range = match ev.entity {
            ChaosEntity::Sender(r) | ChaosEntity::Writer(r) => r.idx() < cfg.producers,
            ChaosEntity::Output(r) | ChaosEntity::Analysis(r) => r.idx() < cfg.consumers,
        };
        if !in_range {
            d.push(Diagnostic::at(
                ZvCode::EntityOutOfRange,
                ev.entity,
                ev.ordinal,
                format!(
                    "{:?} does not exist ({} producers, {} consumers)",
                    ev.entity, cfg.producers, cfg.consumers
                ),
            ));
            continue;
        }
        if ev.fault == ChaosFault::DetachSender {
            if !matches!(ev.entity, ChaosEntity::Sender(_)) {
                d.push(Diagnostic::at(
                    ZvCode::InertFault,
                    ev.entity,
                    ev.ordinal,
                    "DetachSender only detaches senders; on this entity it is a no-op",
                ));
            }
            continue;
        }
        if ev.ordinal == 0 {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                ev.entity,
                ev.ordinal,
                "chaos ordinals are 1-based; ordinal 0 never fires".to_string(),
            ));
            continue;
        }
        if !seen.insert(((kind, rank), ev.ordinal)) {
            d.push(Diagnostic::at(
                ZvCode::ConflictingFaults,
                ev.entity,
                ev.ordinal,
                format!(
                    "two faults scripted on {:?} ordinal {}: only the first in plan \
                     order ever fires",
                    ev.entity, ev.ordinal
                ),
            ));
        }
        // Fault kinds the entity's interpreter never matches fire as
        // silent no-ops on both substrates.
        let inert = match ev.entity {
            ChaosEntity::Sender(_) => {
                matches!(ev.fault, ChaosFault::PfsWriteFail | ChaosFault::CrashApp)
            }
            ChaosEntity::Writer(_) | ChaosEntity::Output(_) => ev.fault != ChaosFault::PfsWriteFail,
            ChaosEntity::Analysis(_) => ev.fault != ChaosFault::CrashApp,
        };
        if inert {
            d.push(Diagnostic::at(
                ZvCode::InertFault,
                ev.entity,
                ev.ordinal,
                format!(
                    "{:?} never interprets {:?}: the fault fires as a silent no-op",
                    ev.entity, ev.fault
                ),
            ));
        }
        if let ChaosEntity::Output(_) = ev.entity {
            if !tuning.preserve.is_preserve() {
                d.push(Diagnostic::at(
                    ZvCode::OutputWithoutPreserve,
                    ev.entity,
                    ev.ordinal,
                    "Output entity scripted but Preserve mode is off: the output path \
                     does not exist"
                        .to_string(),
                ));
            }
        }
        if let ChaosEntity::Writer(_) = ev.entity {
            if !tuning.concurrent_transfer {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    ev.entity,
                    ev.ordinal,
                    "no writer thread exists in message-only mode: the fault can never \
                     fire"
                        .to_string(),
                ));
            }
        }
    }
}

/// Symbolically execute one pinned rank: its [`RankScript`] driven in the
/// sender/writer take order, with the rank's chaos scopes ticked exactly
/// where both substrates tick them.
fn walk_rank(input: &PreflightInput, rank: usize, d: &mut Vec<Diagnostic>) -> RankWalk {
    let (cfg, tuning) = (&input.workflow, &input.workflow.tuning);
    let q = cfg.consumers;
    let n = input.blocks_per_rank();
    let r = Rank(rank as u32);
    let (sender_entity, writer_entity) = (ChaosEntity::Sender(r), ChaosEntity::Writer(r));
    let plan = input.chaos.clone().unwrap_or_default();
    let (sender, writer) = (plan.scope(sender_entity), plan.scope(writer_entity));
    let windows = input
        .backpressure
        .as_ref()
        .map(|s| s.windows_for(r))
        .unwrap_or_default();
    let has_writer = tuning.concurrent_transfer;
    let mut script = RankScript::new(ProducerPolicy::from_tuning(r, q, tuning), windows);
    let detached = input.detached(rank);

    let mut w = RankWalk {
        net_delivered: vec![0; q],
        disk_delivered: vec![0; q],
        eos_delivered: vec![0; q],
        ..RankWalk::default()
    };

    // Blocks in production order: steps outer, per-step index inner.
    let mut pending: VecDeque<BlockId> = (0..cfg.steps)
        .flat_map(|s| {
            (0..input.blocks_per_rank_step()).map(move |i| BlockId::new(r, StepId(s), i as u32))
        })
        .collect();

    // One writer put attempt for the block at the front of the buffer. A
    // failed put sends it back to the front, where a revived writer
    // re-takes (and re-routes) it; false once the writer died.
    let steal = |script: &mut RankScript, w: &mut RankWalk, pending: &mut VecDeque<BlockId>| {
        let block = pending.pop_front().expect("a block to steal");
        let dest = script.take_disk(block);
        match script.put_result(writer.next() != Some(ChaosFault::PfsWriteFail)) {
            PutVerdict::Stored => {
                w.writer_puts += 1;
                w.disk_delivered[dest.idx()] += 1;
            }
            PutVerdict::Revive(_) | PutVerdict::Retire => pending.push_front(block),
        }
        !script.writer_dead()
    };

    if detached {
        // Every block drains through the writer in production order. A
        // scripted credit window can never arm (the sender passes no data
        // wires); whether that wedges the run depends on whether the
        // producer can finish filling the buffer (see ZV011/ZV013 below).
        let credit_windows: Vec<u64> = script
            .gate()
            .unreached()
            .iter()
            .filter(|w| matches!(w.rule, GateRule::OpenAfterSteals(_)))
            .map(|w| w.wire)
            .collect();
        if !credit_windows.is_empty() {
            if n > tuning.producer_slots as u64 {
                d.push(Diagnostic::plain(
                    ZvCode::UnsatisfiableWindow,
                    format!(
                        "rank {rank}: detached sender can never arm its credit window and \
                         the producer wedges on a full buffer ({n} blocks > {} slots) \
                         before the queue can close",
                        tuning.producer_slots
                    ),
                ));
            } else {
                for wire in credit_windows {
                    d.push(Diagnostic::plain(
                        ZvCode::InertWindow,
                        format!(
                            "rank {rank} wire {wire}: detached sender never arms this window; \
                             it fails open when the drained queue closes"
                        ),
                    ));
                }
            }
        }
        while !pending.is_empty() {
            if !steal(&mut script, &mut w, &mut pending) {
                let stranded = pending.len();
                d.push(Diagnostic::plain(
                    ZvCode::DetachedWriterDeath,
                    format!(
                        "rank {rank}: writer dies at put attempt {} past its revival \
                         budget with {stranded} blocks undrained; the detached sender \
                         takes nothing, so the producer wedges forever",
                        writer.ops()
                    ),
                ));
                break;
            }
        }
    } else {
        // Sender take order, with the writer's steals run inline wherever
        // the script arms a window.
        while let Some(b) = pending.pop_front() {
            let NetVerdict::Send { dest, gate, wire } = script.take_net(b) else {
                continue;
            };
            match gate {
                WireGate::Inert if !has_writer => d.push(Diagnostic::plain(
                    ZvCode::InertWindow,
                    format!(
                        "rank {rank} wire {wire}: no writer exists in message-only mode; the \
                         credit window fails open at spawn"
                    ),
                )),
                WireGate::Armed { target } => {
                    while script.writer_gate() == WriterGate::Steal {
                        if pending.is_empty() {
                            d.push(Diagnostic::plain(
                                ZvCode::UnsatisfiableWindow,
                                format!(
                                    "rank {rank} wire {wire}: the armed window needs {target} \
                                     cumulative steals but the buffer drains at {}",
                                    w.writer_puts
                                ),
                            ));
                            break;
                        }
                        steal(&mut script, &mut w, &mut pending);
                    }
                }
                _ => {}
            }
            // The held wire transmits: one chaos-counted send.
            match sender.wire_fate(false) {
                WireFate::Fail => script.send_failed(dest),
                WireFate::Drop | WireFate::Corrupt => {}
                WireFate::Deliver | WireFate::Delay(_) => w.net_delivered[dest.idx()] += 1,
            }
        }
    }
    let wires = script.gate().wires();

    // Queue closed. A live writer drains nothing more in a pinned
    // schedule (hwm >= n keeps Algorithm 1 quiet; detached already
    // drained everything) and retires Drained.
    script.writer_drained();

    // Inert windows past the last attempted wire (chaos can shrink the
    // wire count below a scripted ordinal): they fail open at close.
    if !detached && has_writer {
        for win in script.gate().unreached() {
            if matches!(win.rule, GateRule::OpenAfterSteals(_)) {
                d.push(Diagnostic::plain(
                    ZvCode::InertWindow,
                    format!(
                        "rank {rank} wire {}: only {wires} data wires are ever attempted; \
                         the window never arms and fails open at close",
                        win.wire
                    ),
                ));
            }
        }
    }

    // Net EOS fan-out: chaos-counted sends in consumer-rank order.
    for target in script.sender_drained() {
        if matches!(
            sender.wire_fate(true),
            WireFate::Deliver | WireFate::Delay(_)
        ) {
            w.eos_delivered[target.idx()] += 1;
        }
    }
    // Disk EOS fan-out (concurrent only): plain uncounted sends.
    for target in script.disk_eos() {
        w.eos_delivered[target.idx()] += 1;
    }

    if script.writer_dead() && !detached {
        d.push(Diagnostic::plain(
            ZvCode::WriterFailSoft,
            format!(
                "rank {rank}: writer dies at put attempt {} past its revival budget; the \
                 rank degrades to message-only and the sender covers the disk channel's \
                 EOS (fail-soft by construction)",
                writer.ops()
            ),
        ));
    }

    // Sender-entity ordinal liveness against the exact op count.
    let sender_ops = sender.ops();
    for &(ord, _) in &input.faults_for(sender_entity) {
        if ord > sender_ops {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                sender_entity,
                ord,
                format!(
                    "sender performs exactly {sender_ops} chaos-counted operations ({wires} \
                     data wires + {} EOS marks); ordinal {ord} never fires",
                    sender_ops - wires
                ),
            ));
        }
    }
    // Writer-entity ordinal liveness.
    if has_writer {
        for &(ord, _) in &input.faults_for(writer_entity) {
            if ord > writer.ops() {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    writer_entity,
                    ord,
                    format!(
                        "writer performs exactly {} put attempts; ordinal {ord} never fires",
                        writer.ops()
                    ),
                ));
            }
        }
    }

    w
}

/// Bounds-only verdicts for an unpinned rank (concurrent transfer with a
/// low high-water mark): reject what no schedule could reach, warn about
/// what cannot be proved.
fn bound_rank(input: &PreflightInput, rank: usize, d: &mut Vec<Diagnostic>) {
    let (cfg, tuning) = (&input.workflow, &input.workflow.tuning);
    let n = input.blocks_per_rank();
    let q = Router::new(tuning.routing, cfg.consumers)
        .reach(Rank(rank as u32))
        .len() as u64;
    let sender_entity = ChaosEntity::Sender(Rank(rank as u32));
    let writer_entity = ChaosEntity::Writer(Rank(rank as u32));
    let sender_max = n + q; // every block by wire, plus the Net EOS marks
    let writer_max = n + tuning.recovery.max_writer_revivals as u64;
    for &(ord, _) in &input.faults_for(sender_entity) {
        if ord > sender_max {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                sender_entity,
                ord,
                format!(
                    "no schedule gives the sender more than {sender_max} operations \
                     ({n} wires + {q} EOS marks); ordinal {ord} never fires"
                ),
            ));
        } else {
            d.push(Diagnostic::at(
                ZvCode::UnprovableOrdinal,
                sender_entity,
                ord,
                format!(
                    "schedule not pinned (concurrent transfer, high-water mark {} < {n} \
                     blocks): ordinal {ord} is within [1, {sender_max}] but its liveness \
                     depends on the steal interleaving",
                    tuning.high_water_mark
                ),
            ));
        }
    }
    for &(ord, _) in &input.faults_for(writer_entity) {
        if ord > writer_max {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                writer_entity,
                ord,
                format!(
                    "no schedule gives the writer more than {writer_max} put attempts; \
                     ordinal {ord} never fires"
                ),
            ));
        } else {
            d.push(Diagnostic::at(
                ZvCode::UnprovableOrdinal,
                writer_entity,
                ord,
                format!(
                    "schedule not pinned: writer ordinal {ord} is within [1, {writer_max}] \
                     but its liveness depends on the steal interleaving"
                ),
            ));
        }
    }
}

/// Consumer-side verdicts from the exact per-rank walks: EOS completion
/// classification, the analysis reads (the rank's `ReadScript`),
/// output-path liveness.
fn check_consumers(input: &PreflightInput, walks: &[RankWalk], d: &mut Vec<Diagnostic>) {
    let (cfg, tuning) = (&input.workflow, &input.workflow.tuning);
    let plan = input.chaos.clone().unwrap_or_default();
    for qr in 0..cfg.consumers {
        let mut policy = ConsumerPolicy::new(Rank(qr as u32), cfg.producers, cfg.consumers, tuning);
        let eos_expected = policy.eos_expected() as u64;
        let entity = ChaosEntity::Analysis(Rank(qr as u32));
        let output_entity = ChaosEntity::Output(Rank(qr as u32));
        let delivered: u64 = walks
            .iter()
            .map(|w| w.net_delivered[qr] + w.disk_delivered[qr])
            .sum();
        let net_stored: u64 = if tuning.preserve.is_preserve() {
            walks.iter().map(|w| w.net_delivered[qr]).sum()
        } else {
            0
        };
        let eos_seen: u64 = walks.iter().map(|w| w.eos_delivered[qr]).sum();

        // EOS classification: every interpreter path either completes by
        // protocol, completes by watchdog, or hangs.
        if eos_seen < eos_expected {
            if tuning.eos_timeout.is_some() {
                d.push(Diagnostic::plain(
                    ZvCode::WatchdogDegradation,
                    format!(
                        "consumer {qr} sees {eos_seen}/{eos_expected} EOS marks and \
                         completes through its watchdog timeout"
                    ),
                ));
            } else {
                d.push(Diagnostic::plain(
                    ZvCode::EosStarvation,
                    format!(
                        "consumer {qr} sees only {eos_seen}/{eos_expected} EOS marks and \
                         has no watchdog: it blocks forever"
                    ),
                ));
            }
        }

        // Analysis read walk: the rank's ReadScript over its deliveries,
        // each healed crash requeueing its backlog.
        let mut script = ReadScript::new(plan.scope(entity));
        let mut pending = delivered;
        let halted = loop {
            match script.read() {
                ReadVerdict::Take if pending == 0 => break false, // the Closed read
                ReadVerdict::Take => {
                    pending -= 1;
                    script.delivered(());
                }
                ReadVerdict::Crash => {
                    let ordinal = script.ops();
                    let Some(backlog) = script.crashed(&mut policy) else {
                        d.push(Diagnostic::at(
                            ZvCode::UnhealedCrash,
                            entity,
                            ordinal,
                            format!(
                                "consumer {qr} crashes at read {ordinal} with its restart \
                                 budget ({}) exhausted: the rank halts and {pending} \
                                 undelivered reads are lost",
                                tuning.recovery.max_consumer_restarts,
                            ),
                        ));
                        break true;
                    };
                    if !backlog.is_empty() && !tuning.preserve.is_preserve() {
                        d.push(Diagnostic::at(
                            ZvCode::ReplayWithoutPreserve,
                            entity,
                            ordinal,
                            format!(
                                "consumer {qr}'s healed crash at read {ordinal} must replay \
                                 a backlog of {}, but Preserve mode is off so no \
                                 backlog was stored",
                                backlog.len()
                            ),
                        ));
                    }
                    pending += backlog.len() as u64;
                }
            }
        };
        let total_reads = script.ops();
        for &(ord, fault) in &input.faults_for(entity) {
            if fault != ChaosFault::CrashApp {
                continue; // inert, flagged in the shape pass
            }
            if ord > total_reads && !halted {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    entity,
                    ord,
                    format!(
                        "consumer {qr}'s application performs exactly {total_reads} reads \
                         ({delivered} deliveries plus replays, struck reads and the \
                         final Closed read); ordinal {ord} never fires"
                    ),
                ));
            }
        }

        // Output-path ordinal liveness: one Preserve put attempt per
        // net-delivered block.
        for &(ord, fault) in &input.faults_for(output_entity) {
            if fault != ChaosFault::PfsWriteFail {
                continue; // inert, flagged in the shape pass
            }
            if !tuning.preserve.is_preserve() {
                continue; // ZV025 already emitted in the shape pass
            }
            if ord > net_stored {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    output_entity,
                    ord,
                    format!(
                        "consumer {qr}'s output path performs exactly {net_stored} \
                         Preserve put attempts; ordinal {ord} never fires"
                    ),
                ));
            }
        }
    }
}

/// Conservative consumer-side verdicts when any rank is unpinned: keep
/// the "accepted ⇒ the DES run completes" theorem sound.
fn bound_consumers(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let (cfg, tuning) = (&input.workflow, &input.workflow.tuning);
    let total = input.blocks_per_rank() * cfg.producers as u64;
    // A mark-killing sender fault could land on an EOS ordinal under some
    // interleaving; without a watchdog that is a possible hang — reject.
    if tuning.eos_timeout.is_none() {
        for ev in input.chaos_ref() {
            let mark_killing = matches!(
                ev.fault,
                ChaosFault::DropEos
                    | ChaosFault::FailSend
                    | ChaosFault::DropWire
                    | ChaosFault::CorruptWire
            );
            if matches!(ev.entity, ChaosEntity::Sender(_)) && mark_killing && ev.ordinal > 0 {
                d.push(Diagnostic::at(
                    ZvCode::EosStarvation,
                    ev.entity,
                    ev.ordinal,
                    format!(
                        "schedule not pinned: {:?} could land on an EOS mark under some \
                         interleaving and no watchdog exists — possible hang; add an EOS \
                         timeout or pin the schedule",
                        ev.fault
                    ),
                ));
            }
        }
    }
    for qr in 0..cfg.consumers {
        let entity = ChaosEntity::Analysis(Rank(qr as u32));
        let crashes: Vec<u64> = input
            .faults_for(entity)
            .iter()
            .filter(|&&(_, f)| f == ChaosFault::CrashApp)
            .map(|&(o, _)| o)
            .collect();
        // Each pass reads every block at most once, then is struck or
        // finds the stream closed; each scripted crash adds a pass.
        let max_reads = (total + 1) * (crashes.len() as u64 + 1);
        for &ord in &crashes {
            if ord > max_reads {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    entity,
                    ord,
                    format!("no schedule gives consumer {qr} more than {max_reads} reads"),
                ));
            } else if crashes.len() as u32 > tuning.recovery.max_consumer_restarts {
                d.push(Diagnostic::at(
                    ZvCode::UnhealedCrash,
                    entity,
                    ord,
                    format!(
                        "consumer {qr} scripts {} crashes against a restart budget of {}: \
                         under some interleaving the rank halts",
                        crashes.len(),
                        tuning.recovery.max_consumer_restarts
                    ),
                ));
            } else if !tuning.preserve.is_preserve() && ord > 1 {
                d.push(Diagnostic::at(
                    ZvCode::ReplayWithoutPreserve,
                    entity,
                    ord,
                    format!(
                        "consumer {qr}'s crash at read {ord} may need a backlog replay \
                         and Preserve mode is off"
                    ),
                ));
            } else {
                d.push(Diagnostic::at(
                    ZvCode::UnprovableOrdinal,
                    entity,
                    ord,
                    format!(
                        "schedule not pinned: consumer {qr}'s read count depends on the \
                         steal interleaving"
                    ),
                ));
            }
        }
    }
}

/// ZV050: budgets nothing can consume.
fn check_recovery_lints(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let tuning = &input.workflow.tuning;
    let events = input.chaos_ref();
    let writer_faults = events.iter().any(|ev| {
        matches!(ev.entity, ChaosEntity::Writer(_)) && ev.fault == ChaosFault::PfsWriteFail
    });
    if tuning.recovery.max_writer_revivals > 0 && !writer_faults {
        d.push(Diagnostic::plain(
            ZvCode::UnusedRecoveryBudget,
            format!(
                "writer revival budget of {} with no scripted PfsWriteFail to consume it",
                tuning.recovery.max_writer_revivals
            ),
        ));
    }
    let crashes = events.iter().any(|ev| {
        matches!(ev.entity, ChaosEntity::Analysis(_)) && ev.fault == ChaosFault::CrashApp
    });
    if tuning.recovery.max_consumer_restarts > 0 && !crashes {
        d.push(Diagnostic::plain(
            ZvCode::UnusedRecoveryBudget,
            format!(
                "consumer restart budget of {} with no scripted CrashApp to consume it",
                tuning.recovery.max_consumer_restarts
            ),
        ));
    }
}

/// Predict the decision-determined causal-edge multiset from the exact
/// walks. Signatures follow `CausalGraph::edge_profile`'s role grammar
/// (`"kind:seg0/segN(src)=>seg0/segN(dst)"`, EOS edges coarse-grained to
/// the first path segment).
fn build_skeleton(walks: &[RankWalk]) -> CausalSkeleton {
    let mut s = CausalSkeleton::default();
    let mut wire = 0u64;
    let mut eos = 0u64;
    let mut steal = 0u64;
    for w in walks {
        wire += w.net_delivered.iter().sum::<u64>();
        eos += w.eos_delivered.iter().sum::<u64>();
        steal += w.disk_delivered.iter().sum::<u64>();
    }
    s.add("wire:sim/send=>ana/recv", wire);
    s.add("eos:sim=>ana", eos);
    s.add("steal:sim/writer=>ana/recv", steal);
    // One PFS fetch per delivered disk-id notification; the causal engine
    // records each fetch as a read-lane self-edge.
    s.add("pfs:ana/read=>ana/read", steal);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{config_c, config_d, config_e};
    use std::time::Duration;
    use zipper_types::ByteSize;

    #[test]
    fn config_c_walk_reproduces_the_steal_schedule() {
        let input = config_c();
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.pinned);
        // Per rank: 4 stolen (blocks 2,3,4,7), 4 by wire.
        assert_eq!(report.skeleton.edges["wire:sim/send=>ana/recv"], 8);
        assert_eq!(report.skeleton.edges["steal:sim/writer=>ana/recv"], 8);
        assert_eq!(report.skeleton.edges["pfs:ana/read=>ana/read"], 8);
        // 2 producers x 2 consumers x 2 channels.
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 8);
        assert!(report.skeleton.is_acyclic());
    }

    /// Config D's exact degradation arithmetic (the documented
    /// conformance expectations: c0 sees 1 EOS mark and stores 4 blocks,
    /// c1 completes with 6 stores).
    #[test]
    fn config_d_walk_matches_documented_degradation() {
        let input = config_d();
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        // c0 misses p0's dropped Net mark: watchdog completion.
        assert!(
            report.has(ZvCode::WatchdogDegradation),
            "{}",
            report.render()
        );
        // Net deliveries: c0 = p0's wires 1,3,5,7 = 4; c1 = 2 (p0) + 4 (p1).
        assert_eq!(report.skeleton.edges["wire:sim/send=>ana/recv"], 10);
        // EOS marks: p0 drops c0's; p1's marks both arrive (one toward a
        // dead destination).
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 3);
        assert!(!report
            .skeleton
            .edges
            .contains_key("steal:sim/writer=>ana/recv"));
    }

    /// Config E's shape: detached senders, a healed writer fault (the
    /// double route), a healed consumer crash.
    #[test]
    fn config_e_walk_heals_everything() {
        let input = config_e();
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.pinned, "detached ranks are pinned");
        // All 16 blocks drain through the writers; rank 0's failed put
        // re-routes, so rank 0 records 9 routes but still 8 puts.
        assert_eq!(report.skeleton.edges["steal:sim/writer=>ana/recv"], 16);
        assert!(!report
            .skeleton
            .edges
            .contains_key("wire:sim/send=>ana/recv"));
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 8);
    }

    #[test]
    fn statically_unsatisfiable_window_is_rejected() {
        let mut input = config_c();
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(
            report.has(ZvCode::UnsatisfiableWindow),
            "{}",
            report.render()
        );
    }

    /// The script rule on Config C's shape (8 blocks per rank): zero,
    /// duplicate and regressing windows are malformed, an unsatisfiable
    /// target is ZV011, and equal or zero targets are fine.
    #[test]
    fn validate_rejects_bad_scripts() {
        let verdict = |script: BackpressureScript| {
            let mut input = config_c();
            input.backpressure = Some(script);
            Preflight::check_shape(&input)
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>()
        };
        let steals = |windows: &[(u64, u64)]| {
            windows
                .iter()
                .fold(BackpressureScript::new(), |s, &(wire, t)| {
                    s.with(Rank(0), wire, GateRule::OpenAfterSteals(t))
                })
        };
        let malformed = vec![ZvCode::MalformedScript];
        assert_eq!(verdict(steals(&[(0, 1)])), malformed, "zero wire");
        assert_eq!(verdict(steals(&[(3, 1), (3, 2)])), malformed, "duplicate");
        assert_eq!(verdict(steals(&[(2, 3), (5, 1)])), malformed, "regress");
        assert_eq!(
            verdict(steals(&[(4, 5)])),
            vec![ZvCode::UnsatisfiableWindow]
        );
        assert_eq!(verdict(steals(&[(1, 0), (2, 3), (4, 3)])), vec![]);
    }

    #[test]
    fn dead_sender_ordinal_is_rejected() {
        let mut input = config_c();
        input.backpressure = None;
        // 8 wires + 2 EOS marks = 10 sender ops; ordinal 11 is dead.
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 11, ChaosFault::DropWire));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::DeadOrdinal), "{}", report.render());
        // Ordinal 10 (the last EOS mark) is alive.
        input.chaos = Some(ChaosPlan::new().with(
            ChaosEntity::Sender(Rank(0)),
            10,
            ChaosFault::DelayWire(Duration::from_micros(1)),
        ));
        assert!(!Preflight::check(&input).is_rejected());
    }

    #[test]
    fn zero_budget_crash_is_rejected_with_unhealed_crash() {
        let mut input = config_c();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::UnhealedCrash), "{}", report.render());
    }

    #[test]
    fn tag_overflow_is_rejected() {
        let mut input = config_c();
        input.workflow.steps = TAG_STEP_LIMIT + 1;
        assert!(Preflight::check(&input).has(ZvCode::TagStepOverflow));
        let mut input = config_c();
        input.workflow.tuning.block_size = ByteSize::bytes(1);
        input.workflow.bytes_per_rank_step = ByteSize::bytes(TAG_BLOCK_LIMIT + 1);
        assert!(Preflight::check(&input).has(ZvCode::TagBlockOverflow));
    }

    #[test]
    fn conflicting_faults_on_one_ordinal_are_rejected() {
        let mut input = config_c();
        input.backpressure = None;
        input.chaos = Some(
            ChaosPlan::new()
                .with(ChaosEntity::Sender(Rank(0)), 3, ChaosFault::DropWire)
                .with(ChaosEntity::Sender(Rank(0)), 3, ChaosFault::FailSend),
        );
        let report = Preflight::check(&input);
        assert!(report.has(ZvCode::ConflictingFaults), "{}", report.render());
    }

    #[test]
    fn eos_starvation_without_watchdog_is_rejected() {
        let mut input = config_c();
        input.backpressure = None;
        input.workflow.tuning.eos_timeout = None;
        // Ordinal 9 is the first Net EOS mark (toward consumer 0).
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos));
        let report = Preflight::check(&input);
        assert!(report.has(ZvCode::EosStarvation), "{}", report.render());
        // The same plan with a watchdog degrades instead of hanging.
        input.workflow.tuning.eos_timeout = Some(Duration::from_secs(1));
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::WatchdogDegradation));
    }

    #[test]
    fn detached_writer_death_is_a_provable_hang() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let mut input = config_c();
        input.backpressure = None;
        input.chaos = Some(
            ChaosPlan::new()
                .with(Sender(Rank(0)), 0, DetachSender)
                .with(Writer(Rank(0)), 3, PfsWriteFail),
        );
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(
            report.has(ZvCode::DetachedWriterDeath),
            "{}",
            report.render()
        );
    }

    #[test]
    fn nondetached_writer_death_is_fail_soft() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let mut input = config_c();
        input.backpressure = None;
        // hwm >= n keeps the schedule pinned; without a scripted window
        // the writer never takes, so give it one steal to die on.
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 2, GateRule::OpenAfterSteals(1)));
        input.chaos = Some(ChaosPlan::new().with(Writer(Rank(0)), 1, PfsWriteFail));
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::WriterFailSoft), "{}", report.render());
    }

    #[test]
    fn entity_out_of_range_is_rejected() {
        let mut input = config_c();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(7)), 1, ChaosFault::CrashApp));
        assert!(Preflight::check(&input).has(ZvCode::EntityOutOfRange));
    }

    #[test]
    fn inert_fault_kinds_warn() {
        let mut input = config_c();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::PfsWriteFail));
        let report = Preflight::check(&input);
        assert!(!report.is_rejected());
        assert!(report.has(ZvCode::InertFault), "{}", report.render());
    }

    #[test]
    fn message_only_windows_are_inert_not_deadlocks() {
        let mut input = config_c();
        input.workflow.tuning.concurrent_transfer = false;
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::InertWindow));
    }

    #[test]
    fn unpinned_schedule_degrades_to_bounds() {
        let mut input = config_c();
        input.backpressure = None;
        input.workflow.tuning.high_water_mark = 2; // < 8 blocks, concurrent: unpinned
        input.chaos = Some(ChaosPlan::new().with(
            ChaosEntity::Sender(Rank(0)),
            5,
            ChaosFault::DelayWire(Duration::from_micros(1)),
        ));
        let report = Preflight::check(&input);
        assert!(!report.pinned);
        assert!(report.skeleton.edges.is_empty());
        assert!(report.has(ZvCode::UnprovableOrdinal), "{}", report.render());
        assert!(!report.is_rejected(), "{}", report.render());
        // An ordinal past any feasible schedule is still rejected.
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 99, ChaosFault::DropWire));
        assert!(Preflight::check(&input).has(ZvCode::DeadOrdinal));
    }

    #[test]
    fn unpinned_mark_killer_without_watchdog_is_conservatively_rejected() {
        let mut input = config_c();
        input.backpressure = None;
        input.workflow.tuning.high_water_mark = 2;
        input.workflow.tuning.eos_timeout = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 5, ChaosFault::DropEos));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::EosStarvation), "{}", report.render());
    }

    #[test]
    fn unused_recovery_budget_lints() {
        let mut input = config_c();
        input.backpressure = None;
        input.workflow.tuning.recovery.max_writer_revivals = 2;
        let report = Preflight::check(&input);
        assert!(!report.is_rejected());
        assert!(report.has(ZvCode::UnusedRecoveryBudget));
    }

    #[test]
    fn render_includes_codes_and_verdict() {
        let mut input = config_c();
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));
        let r = Preflight::check(&input).render();
        assert!(r.contains("REJECTED"), "{r}");
        assert!(r.contains("ZV011"), "{r}");
    }

    #[test]
    fn zero_ordinal_fault_is_dead() {
        let mut input = config_c();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 0, ChaosFault::DropWire));
        assert!(Preflight::check(&input).has(ZvCode::DeadOrdinal));
    }

    #[test]
    fn zero_config_scalars_are_rejected() {
        let mut input = config_c();
        input.workflow.consumers = 0;
        assert!(Preflight::check(&input).has(ZvCode::InvalidConfig));
        let mut input = config_c();
        input.workflow.tuning.consumer_slots = 0;
        assert!(Preflight::check(&input).has(ZvCode::InvalidConfig));
        let mut input = config_c();
        input.workflow.tuning.high_water_mark = input.workflow.tuning.producer_slots;
        assert!(Preflight::check(&input).has(ZvCode::HighWaterMark));
    }
}
