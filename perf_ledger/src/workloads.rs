//! The five workloads: their sizing, their inputs (generated from the
//! seed), one verified iteration of each, and the end-to-end run
//! (tracing off) that times iterations until the requested seconds are
//! spent.

use crate::adapter::{
    baseline_kinds, build_slabs, kind_slug, run_des, run_stream, DesOutcome, DesSpec, Kind,
    Payload, Slabs, StreamOutcome, StreamPlan, Transport, ZIPPER,
};
use crate::spans::SpanBook;
use crate::stats::{now, secs_since, Group, Row};
use std::sync::Arc;

/// The seed every pinned reference and the committed baseline use (it is
/// also `WorkflowSpec`'s own default).
pub const DEFAULT_SEED: u64 = 42;

/// Iterations timed per run at the very least, so a median exists.
const MIN_ITERATIONS: usize = 3;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MeshStream,
    DualChannelThrottled,
    TcpLoopback,
    DesZipper2352,
    DesBaselines13056,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MeshStream,
        Workload::DualChannelThrottled,
        Workload::TcpLoopback,
        Workload::DesZipper2352,
        Workload::DesBaselines13056,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshStream => "mesh_stream",
            Workload::DualChannelThrottled => "dual_channel_throttled",
            Workload::TcpLoopback => "tcp_loopback",
            Workload::DesZipper2352 => "des_zipper_2352",
            Workload::DesBaselines13056 => "des_baselines_13056",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::MeshStream => {
                "No channel limits and no byte is copied: pure per-block runtime overhead (queue and policy locks, per-block metrics, mesh, MemFs). Threaded-path lock work shows here."
            }
            Workload::DualChannelThrottled => {
                "Transfer-bound, the paper's regime: two 40 MB/s channels, time set by Algorithm 1's byte split. Bypass workload for CPU optimisations (prediction: no change); steal-policy changes show."
            }
            Workload::TcpLoopback => {
                "The only workload where bytes move: encode_wire's Vec + memcpy per frame, socket write, read_body's allocation, decode. Vectored writes and pooled buffers show here, not on mesh_stream."
            }
            Workload::DesZipper2352 => {
                "The DES hot loop under Zipper's event mix at 2,352 cores (Fig. 16 CFD, 10.2 M events, O(P*Q) EOS broadcast), where cost per event is 5x the 204-core cost. Engine work shows here."
            }
            Workload::DesBaselines13056 => {
                "The same engine driven by the seven baseline transports at 13,056 cores (locks, barriers, collective PFS writes). A queue tuned for Zipper's same-tick bursts that costs these shows here."
            }
        }
    }

    pub fn is_des(self) -> bool {
        matches!(self, Workload::DesZipper2352 | Workload::DesBaselines13056)
    }
}

/// Problem size: the benchmark's own, or ~1/100 of it for CI smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The threaded workloads' plans.
pub fn stream_plan(w: Workload, scale: Scale) -> StreamPlan {
    let full = scale == Scale::Full;
    let base = StreamPlan {
        transport: Transport::Mesh,
        producers: 2,
        consumers: 1,
        block_bytes: 64 << 10,
        slab_bytes: 4 << 20,
        steps: 0,
        slots: None,
        concurrent_transfer: true,
        inbox: 64,
        net_bytes_per_s: None,
        fs_bytes_per_s: None,
    };
    match w {
        Workload::MeshStream => StreamPlan {
            steps: if full { 2048 } else { 20 },
            ..base
        },
        Workload::DualChannelThrottled => StreamPlan {
            slab_bytes: if full { 2 << 20 } else { 320 << 10 },
            steps: if full { 16 } else { 1 },
            slots: Some((8, 4)),
            inbox: 2,
            net_bytes_per_s: Some(40e6),
            fs_bytes_per_s: Some(40e6),
            ..base
        },
        Workload::TcpLoopback => StreamPlan {
            transport: Transport::Tcp,
            steps: if full { 256 } else { 3 },
            concurrent_transfer: false,
            ..base
        },
        _ => panic!("{} is not a threaded workload", w.name()),
    }
}

/// Reference simulated end-to-end seconds of one DES run at full scale
/// and [`DEFAULT_SEED`], measured at the commit that added the benchmark.
struct Pin {
    kind_slug: &'static str,
    end_to_end_s: f64,
    /// MPI-IO's background-load jitter makes its simulated time depend on
    /// the seed; its pin is only checked at the default seed.
    seed_dependent: bool,
}

const ZIPPER_2352_PIN: Pin = Pin {
    kind_slug: "zipper",
    end_to_end_s: 8.283491232,
    seed_dependent: false,
};

const BASELINE_13056_PINS: [Pin; 7] = [
    Pin {
        kind_slug: "mpiio",
        end_to_end_s: 4184.945421598,
        seed_dependent: true,
    },
    Pin {
        kind_slug: "dataspaces_adios",
        end_to_end_s: 220.013740548,
        seed_dependent: false,
    },
    Pin {
        kind_slug: "dataspaces_native",
        end_to_end_s: 105.260368895,
        seed_dependent: false,
    },
    Pin {
        kind_slug: "dimes_adios",
        end_to_end_s: 71.467150665,
        seed_dependent: false,
    },
    Pin {
        kind_slug: "dimes_native",
        end_to_end_s: 66.861099876,
        seed_dependent: false,
    },
    // The modelled segfault: the job halts at 2.05 simulated seconds.
    Pin {
        kind_slug: "flexpath",
        end_to_end_s: 2.05,
        seed_dependent: false,
    },
    Pin {
        kind_slug: "decaf",
        end_to_end_s: 79.439429997,
        seed_dependent: false,
    },
];

/// One simulated run of a DES workload.
pub struct DesRun {
    pub kind: Kind,
    pub spec: DesSpec,
    pin: Option<&'static Pin>,
}

/// The DES workloads' runs: one Zipper run, or the seven baselines.
pub fn des_runs(w: Workload, scale: Scale, seed: u64) -> Vec<DesRun> {
    let full = scale == Scale::Full;
    match w {
        Workload::DesZipper2352 => vec![DesRun {
            kind: ZIPPER,
            spec: if full {
                DesSpec::fig16_cfd(2352, 20, seed)
            } else {
                DesSpec::fig16_cfd(204, 5, seed)
            },
            pin: full.then_some(&ZIPPER_2352_PIN),
        }],
        Workload::DesBaselines13056 => baseline_kinds()
            .into_iter()
            .map(|kind| DesRun {
                kind,
                spec: if full {
                    DesSpec::lammps(8704, 4352, 20, seed)
                } else {
                    DesSpec::lammps(136, 68, 5, seed)
                },
                pin: full
                    .then(|| {
                        BASELINE_13056_PINS
                            .iter()
                            .find(|p| p.kind_slug == kind_slug(kind))
                    })
                    .flatten(),
            })
            .collect(),
        _ => panic!("{} is not a DES workload", w.name()),
    }
}

/// A reduced copy of a DES workload: the warm-up, and the scale the traced
/// pass runs `detail = true` at (full detail is 9x slower and 0.5 GB at
/// 2,352 cores).
pub fn des_runs_reduced(w: Workload, scale: Scale, seed: u64) -> Vec<DesRun> {
    if scale == Scale::Smoke {
        return des_runs(w, scale, seed);
    }
    let mut runs = des_runs(w, scale, seed);
    for r in &mut runs {
        r.spec = match w {
            Workload::DesZipper2352 => DesSpec::fig16_cfd(408, 20, seed),
            _ => DesSpec::lammps(272, 136, 20, seed),
        };
        r.pin = None;
    }
    runs
}

/// A workload's input, generated from the seed.
pub enum Input {
    Stream {
        plan: StreamPlan,
        slabs: Slabs,
        payload: Payload,
    },
    Des {
        runs: Vec<DesRun>,
        seed: u64,
        /// `(end_to_end_s, events)` of each run's first execution in this
        /// process: a deterministic simulator must repeat them exactly.
        first: Vec<Option<(f64, u64)>>,
    },
}

impl Input {
    pub fn stream(plan: StreamPlan, seed: u64) -> Input {
        let slabs = build_slabs(&plan, seed);
        Input::Stream {
            plan,
            slabs,
            payload: Payload::Stamped { seed },
        }
    }

    pub fn des(runs: Vec<DesRun>, seed: u64) -> Input {
        let first = vec![None; runs.len()];
        Input::Des { runs, seed, first }
    }

    pub fn new(w: Workload, scale: Scale, seed: u64) -> Input {
        if w.is_des() {
            Input::des(des_runs(w, scale, seed), seed)
        } else {
            Input::stream(stream_plan(w, scale), seed)
        }
    }

    /// A quarter-size (threaded) or reduced-scale (DES) copy for warm-up.
    fn warm_up(w: Workload, scale: Scale, seed: u64) -> Input {
        if w.is_des() {
            Input::des(des_runs_reduced(w, scale, seed), seed)
        } else {
            let mut plan = stream_plan(w, scale);
            plan.steps = (plan.steps / 4).max(1);
            Input::stream(plan, seed)
        }
    }
}

/// One verified iteration.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Blocks delivered (threaded) or moved in simulation (DES).
    pub blocks: u64,
    pub payload_bytes: u64,
    /// Operations checked: blocks expected, or simulated runs.
    pub attempted: u64,
    /// Blocks missing, duplicated or failing their stamp, `RuntimeError`s,
    /// and simulated runs that were not as expected.
    pub failed: u64,
    /// What failed, for the reader.
    pub problems: Vec<String>,
    /// Simulated seconds and events (DES only).
    pub sim_s: f64,
    pub events: u64,
    pub stream: Option<StreamOutcome>,
    pub des: Vec<DesOutcome>,
}

fn check_stream(plan: &StreamPlan, out: &StreamOutcome) -> (u64, Vec<String>) {
    let c = &out.check;
    let missing = plan.total_blocks().saturating_sub(c.distinct());
    let mut problems = Vec::new();
    let mut note = |n: u64, what: &str| {
        if n > 0 {
            problems.push(format!("{n} {what}"));
        }
        n
    };
    let mut failed = note(missing, "blocks missing")
        + note(c.duplicates, "blocks duplicated")
        + note(c.bad, "blocks with a wrong stamp, payload or id")
        + note(out.runtime_errors, "runtime errors reported");
    if c.bytes != plan.total_bytes() && failed == 0 {
        failed += note(1, "byte count mismatch");
    }
    (failed, problems)
}

fn check_des(
    run: &DesRun,
    seed: u64,
    first: &mut Option<(f64, u64)>,
    out: &DesOutcome,
) -> Vec<String> {
    let mut problems = Vec::new();
    let slug = kind_slug(run.kind);
    if run.spec.expects_fault(run.kind) {
        if !out.faulted {
            problems.push(format!("{slug}: the modelled crash did not happen"));
        }
    } else if out.faulted || out.deadlocked > 0 {
        problems.push(format!(
            "{slug}: not clean (faulted {}, {} processes deadlocked)",
            out.faulted, out.deadlocked
        ));
    }
    if let Some(pin) = run.pin {
        let checked = !pin.seed_dependent || seed == DEFAULT_SEED;
        if checked && (out.end_to_end_s - pin.end_to_end_s).abs() > 0.01 * pin.end_to_end_s {
            problems.push(format!(
                "{slug}: simulated {} s is off its pinned {} s",
                out.end_to_end_s, pin.end_to_end_s
            ));
        }
    }
    let this = (out.end_to_end_s, out.events);
    if *first.get_or_insert(this) != this {
        problems.push(format!(
            "{slug}: simulation did not repeat: {first:?} then {this:?}"
        ));
    }
    problems
}

/// Run one iteration of `input` and check its outputs. `book` and
/// `detail` belong to the traced pass.
pub fn iterate(input: &mut Input, book: Option<&Arc<SpanBook>>, detail: bool) -> Iteration {
    match input {
        Input::Stream {
            plan,
            slabs,
            payload,
        } => {
            let out = run_stream(plan, slabs, *payload, book);
            let (failed, problems) = check_stream(plan, &out);
            Iteration {
                blocks: out.check.blocks,
                payload_bytes: out.check.bytes,
                attempted: plan.total_blocks(),
                failed,
                problems,
                stream: Some(out),
                ..Default::default()
            }
        }
        Input::Des { runs, seed, first } => {
            let mut it = Iteration::default();
            for (run, first) in runs.iter().zip(first.iter_mut()) {
                let out = run_des(run.kind, &run.spec, detail);
                let problems = check_des(run, *seed, first, &out);
                it.attempted += 1;
                it.failed += u64::from(!problems.is_empty());
                it.problems.extend(problems);
                it.sim_s += out.end_to_end_s;
                it.events += out.events;
                // A crashed job moved no data worth counting.
                if !out.faulted {
                    it.blocks += run.spec.total_blocks();
                    it.payload_bytes += run.spec.payload_bytes();
                }
                it.des.push(out);
            }
            it
        }
    }
}

/// A workload run's rows and its output-check tally.
#[derive(Debug, Default)]
pub struct RunResult {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        for p in &it.problems {
            if self.problems.len() < 8 {
                self.problems.push(p.clone());
            }
        }
    }
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .unwrap_or_else(|e| panic!("the benchmark needs Linux /proc/self/{file}: {e}"))
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = proc_self("status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// CPU seconds (user + system, every thread) this process has used; the
/// kernel reports them in 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    let stat = proc_self("stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .expect("comm field in /proc/self/stat")
        .1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .expect("cpu ticks")
    };
    (tick() + tick()) / 100.0
}

/// The body of the memory probe child: three verified iterations in this
/// (fresh) process, then its `VmHWM`. Three, because the resident set of
/// a threaded workload follows thread timing (on `tcp_loopback` the socket
/// readers decode into an unbounded channel) and the peak of three
/// repeats better than one.
pub fn rss_probe(w: Workload, seed: u64, scale: Scale) -> (RunResult, f64) {
    let mut input = Input::new(w, scale, seed);
    let mut result = RunResult::default();
    for _ in 0..3 {
        result.absorb(&iterate(&mut input, None, false));
    }
    (result, peak_rss_mib())
}

/// The end-to-end run of one workload, tracing off: set up
/// [`SETUP_REPEATS`] times (input generation plus a warm-up iteration),
/// then time verified iterations for `seconds`. `probe_rss_mib` supplies
/// `peak_rss_mib` (the binary asks a pinned-allocator child process).
pub fn run_end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    probe_rss_mib: impl FnOnce() -> f64,
) -> RunResult {
    let mut result = RunResult::default();
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = now();
        let ready = Input::new(w, scale, seed);
        let warm = iterate(&mut Input::warm_up(w, scale, seed), None, false);
        setup_s.push(secs_since(t0));
        result.absorb(&warm);
        input = Some(ready);
    }
    let mut input = input.expect("at least one set-up");

    let (mut t2s, mut blocks_per_s, mut mib_per_s, mut virt_per_wall) =
        (vec![], vec![], vec![], vec![]);
    let mut events = 0;
    let start = now();
    while t2s.len() < MIN_ITERATIONS || secs_since(start) < seconds {
        let t0 = now();
        let it = iterate(&mut input, None, false);
        let dt = secs_since(t0);
        result.absorb(&it);
        t2s.push(dt);
        blocks_per_s.push(it.blocks as f64 / dt);
        mib_per_s.push(it.payload_bytes as f64 / MIB / dt);
        virt_per_wall.push(it.sim_s / dt);
        events = it.events;
    }

    let e2e = Group::EndToEnd;
    result.rows = vec![
        Row::new("setup_s", "s", e2e, &setup_s),
        Row::new("t2s_s", "s", e2e, &t2s),
        Row::new("blocks_per_s", "1/s", e2e, &blocks_per_s),
        Row::new("payload_mib_per_s", "MiB/s", e2e, &mib_per_s),
        Row::new("peak_rss_mib", "MiB", e2e, &[probe_rss_mib()]),
        Row::new("process.vm_hwm_mib", "MiB", Group::Info, &[peak_rss_mib()])
            .note("this process, default allocator: grows with iterations"),
        Row::new(
            "failed_ops_frac",
            "ratio",
            Group::Info,
            &[result.failed as f64 / result.attempted.max(1) as f64],
        )
        .note("must be 0"),
    ];
    if let Input::Des { runs, .. } = &input {
        let cores = runs[0].spec.cores();
        let crate_name = if runs[0].kind == ZIPPER {
            "hpcsim"
        } else {
            "zipper-transports"
        };
        result.rows.push(Row::new(
            "virt_s_per_wall_s",
            "ratio",
            Group::Info,
            &virt_per_wall,
        ));
        result.rows.push(
            Row::new(
                &format!("{crate_name}.events.{cores}"),
                "count",
                Group::Info,
                &[events as f64],
            )
            .note("exact"),
        );
    }
    result
}

/// The untimed `--verify` pass: every threaded workload at smoke size
/// with `deterministic_payload` blocks compared in full by the consumer.
pub fn verify() -> RunResult {
    let mut result = RunResult::default();
    for w in Workload::ALL.into_iter().filter(|w| !w.is_des()) {
        let plan = stream_plan(w, Scale::Smoke);
        let mut input = Input::Stream {
            slabs: build_slabs(&plan, 0),
            plan,
            payload: Payload::Deterministic,
        };
        let it = iterate(&mut input, None, false);
        result.absorb(&it);
        result.rows.push(Row::new(
            &format!("verify.{}.blocks_compared", w.name()),
            "count",
            Group::Info,
            &[it.blocks as f64],
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_constants_are_the_sized_ones() {
        let blocks = |w| stream_plan(w, Scale::Full).total_blocks();
        assert_eq!(blocks(Workload::MeshStream), 262_144);
        assert_eq!(blocks(Workload::DualChannelThrottled), 1_024);
        assert_eq!(blocks(Workload::TcpLoopback), 32_768);
        assert_eq!(
            stream_plan(Workload::TcpLoopback, Scale::Full).total_bytes(),
            2 << 30
        );
        assert_eq!(
            stream_plan(Workload::DualChannelThrottled, Scale::Full).total_bytes(),
            64 << 20
        );
        let z = des_runs(Workload::DesZipper2352, Scale::Full, DEFAULT_SEED);
        assert_eq!(
            (z.len(), z[0].spec.cores(), z[0].spec.sim_ranks()),
            (1, 2352, 1568)
        );
        let b = des_runs(Workload::DesBaselines13056, Scale::Full, DEFAULT_SEED);
        assert_eq!((b.len(), b[0].spec.cores()), (7, 13_056));
        assert!(
            b.iter().all(|r| r.pin.is_some()),
            "every baseline kind has a pin"
        );
        let crashing: Vec<_> = b.iter().filter(|r| r.spec.expects_fault(r.kind)).collect();
        assert_eq!(
            crashing.len(),
            1,
            "only Flexpath is modelled to crash on LAMMPS at 13,056"
        );
        assert_eq!(kind_slug(crashing[0].kind), "flexpath");
    }

    #[test]
    fn workload_names_round_trip_and_whys_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_input_and_another_seed_another() {
        let plan = stream_plan(Workload::MeshStream, Scale::Smoke);
        assert_eq!(build_slabs(&plan, 7), build_slabs(&plan, 7));
        assert_ne!(build_slabs(&plan, 7), build_slabs(&plan, 8));
    }

    #[test]
    fn a_wrong_seed_fails_every_stamp() {
        let plan = stream_plan(Workload::MeshStream, Scale::Smoke);
        let mut input = Input::Stream {
            slabs: build_slabs(&plan, 1),
            payload: Payload::Stamped { seed: 2 },
            plan: plan.clone(),
        };
        let it = iterate(&mut input, None, false);
        assert_eq!(it.blocks, plan.total_blocks());
        assert_eq!(it.failed, plan.total_blocks(), "{:?}", it.problems);
    }

    #[test]
    fn verify_pass_compares_full_payloads() {
        let r = verify();
        assert_eq!(r.failed, 0, "{:?}", r.problems);
        assert_eq!(r.rows.len(), 3);
        assert!(r.attempted > 0);
    }

    #[test]
    fn smoke_scale_runs_every_workload_in_under_ten_seconds() {
        let t0 = now();
        for w in Workload::ALL {
            let r = run_end_to_end(w, DEFAULT_SEED, 0.05, Scale::Smoke, || {
                rss_probe(w, DEFAULT_SEED, Scale::Smoke).1
            });
            assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.problems);
            assert!(r.attempted > 0);
            let e2e: Vec<_> = r
                .rows
                .iter()
                .filter(|r| r.group == Group::EndToEnd)
                .collect();
            assert_eq!(e2e.len(), 5);
            assert!(e2e.iter().all(|r| r.value() > 0.0), "{}: {e2e:?}", w.name());
        }
        assert!(secs_since(t0) < 10.0, "smoke took {} s", secs_since(t0));
    }

    #[test]
    fn proc_readers_work() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
