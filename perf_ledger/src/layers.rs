//! Per-layer microbenchmarks, timed here around the adapter's
//! micro-operations. They are independent of the workload: every traced
//! run measures all of them, so each per-layer metric is a fresh
//! measurement in every run.

use crate::adapter::{self, DesSpec, TraceLevel, ZIPPER};
use crate::stats::{now, secs_since, summarize, Group, Row};
use crate::workloads::{stream_plan, Scale, Workload};
use std::path::Path;

/// Cores of the DES ladder points (Fig. 16 CFD spec, Zipper model).
const LADDER: [usize; 3] = [204, 816, 1632];

const GIB: f64 = (1u64 << 30) as f64;

/// How long each microbenchmark may sample.
struct Budget {
    per_layer_s: f64,
    min_batch_s: f64,
    min_samples: usize,
}

impl Budget {
    fn of(scale: Scale) -> Budget {
        match scale {
            Scale::Full => Budget {
                per_layer_s: 0.08,
                min_batch_s: 2e-3,
                min_samples: 5,
            },
            Scale::Smoke => Budget {
                per_layer_s: 2e-3,
                min_batch_s: 2e-4,
                min_samples: 3,
            },
        }
    }

    /// Nanoseconds per operation, one sample per batch: grow the batch
    /// until it lasts `min_batch_s`, then sample until the budget is spent.
    fn ns_per_op(&self, mut f: impl FnMut(u64)) -> Vec<f64> {
        let mut n = 1u64;
        loop {
            let t0 = now();
            f(n);
            let dt = secs_since(t0);
            if dt >= self.min_batch_s || n >= 1 << 32 {
                break;
            }
            n = if dt < self.min_batch_s / 20.0 {
                n * 10
            } else {
                (n as f64 * 1.25 * self.min_batch_s / dt).ceil() as u64
            };
        }
        let start = now();
        let mut samples = Vec::new();
        while samples.len() < self.min_samples
            || (secs_since(start) < self.per_layer_s && samples.len() < 256)
        {
            let t0 = now();
            f(n);
            samples.push(secs_since(t0) * 1e9 / n as f64);
        }
        samples
    }
}

/// The rows gathered so far, and the budget each microbenchmark gets.
struct Suite {
    budget: Budget,
    rows: Vec<Row>,
}

impl Suite {
    fn push(&mut self, name: &str, unit: &str, samples: &[f64]) -> &mut Row {
        self.rows
            .push(Row::new(name, unit, Group::PerLayer, samples));
        self.rows.last_mut().expect("just pushed")
    }

    /// Time `f` and record it under `name`; `to_unit` maps nanoseconds
    /// per operation to the row's unit.
    fn bench(
        &mut self,
        name: &str,
        unit: &str,
        f: impl FnMut(u64),
        to_unit: impl Fn(f64) -> f64,
    ) -> &mut Row {
        let samples: Vec<f64> = self.budget.ns_per_op(f).into_iter().map(to_unit).collect();
        self.push(name, unit, &samples)
    }

    fn ns(&mut self, name: &str, f: impl FnMut(u64)) {
        self.bench(name, "ns", f, |ns| ns);
    }

    fn us(&mut self, name: &str, f: impl FnMut(u64)) -> &mut Row {
        self.bench(name, "us", f, |ns| ns / 1e3)
    }

    /// Throughput of an operation that processes `bytes`.
    fn gib_s(&mut self, name: &str, bytes: usize, f: impl FnMut(u64)) -> &mut Row {
        self.bench(name, "GiB/s", f, |ns| bytes as f64 / ns * 1e9 / GIB)
    }

    /// One simulated run: host nanoseconds per event, and the event count.
    fn des(&mut self, name: &str, kind: adapter::Kind, spec: &DesSpec) -> u64 {
        let t0 = now();
        let events = adapter::run_des(kind, spec, false).events;
        self.push(name, "ns", &[secs_since(t0) * 1e9 / events as f64]);
        events
    }

    /// A two-process `Simulator` program: nanoseconds per event.
    fn engine(&mut self, name: &str, run: fn(u64) -> u64) {
        let mut events_per_op = 1.0;
        let per_op = self
            .budget
            .ns_per_op(|n| events_per_op = run(n) as f64 / n as f64);
        let per_event: Vec<f64> = per_op.iter().map(|ns| ns / events_per_op).collect();
        self.push(name, "ns", &per_event);
    }
}

const BASELINE_ONLY: &str = "baseline only";

/// Run every per-layer microbenchmark. `scratch` is a directory the disk
/// rows may create and remove files in.
pub fn run_layers(scale: Scale, seed: u64, scratch: &Path) -> Vec<Row> {
    let full = scale == Scale::Full;
    let mut s = Suite {
        budget: Budget::of(scale),
        rows: Vec::new(),
    };

    // zipper-core, zipper-policy, zipper-pfs, zipper-workflow: the
    // per-block costs that add up to `blocks_per_s` on `mesh_stream`.
    s.ns(
        "zipper-core.block_queue.push_pop_ns",
        adapter::queue_push_pop(),
    );
    s.ns(
        "zipper-core.block_queue.push_pop_2t_ns",
        adapter::queue_push_pop_2t,
    );
    s.ns("zipper-core.block_queue.steal_ns", adapter::queue_steal());
    s.ns("zipper-core.mesh.send_recv_ns", adapter::mesh_send_recv());
    s.ns(
        "zipper-policy.producer.decision_ns",
        adapter::producer_decision(),
    );
    s.ns(
        "zipper-policy.consumer.decision_ns",
        adapter::consumer_decision(),
    );
    s.ns("zipper-pfs.memfs.put_ns", adapter::memfs_put());
    s.ns("zipper-pfs.memfs.get_ns", adapter::memfs_get());
    s.us(
        "zipper-workflow.driver.spawn_join_us",
        adapter::driver_spawn_join(),
    );

    // The byte-moving path: `payload_mib_per_s` on `tcp_loopback`.
    for (suffix, len) in [("64k", 64usize << 10), ("1m", 1 << 20)] {
        let name = format!("zipper-core.wire.encode_gib_s.{suffix}");
        s.gib_s(&name, len, adapter::wire_encode(len));
        let name = format!("zipper-core.wire.decode_gib_s.{suffix}");
        s.gib_s(&name, len, adapter::wire_decode(len));
    }
    s.gib_s(
        "zipper-core.tcp.stream_gib_s.64k",
        adapter::TCP_STREAM_PAYLOAD,
        adapter::tcp_stream,
    );

    // hpcsim: `t2s_s` on `des_zipper_2352`.
    for cores in LADDER {
        let spec = if full {
            DesSpec::fig16_cfd(cores, 20, seed)
        } else {
            DesSpec::fig16_cfd(204, 2, seed)
        };
        let events = s.des(&format!("hpcsim.ns_per_event.{cores}"), ZIPPER, &spec);
        if cores == LADDER[2] {
            let name = format!("hpcsim.events.{cores}");
            s.push(&name, "count", &[events as f64]).note = "exact".into();
        }
    }
    s.engine(
        "hpcsim.engine.pingpong_ns_per_event",
        adapter::engine_pingpong,
    );
    s.engine("hpcsim.engine.buffer_ns_per_event", adapter::engine_buffer);

    // zipper-transports, hpcsim::Network, OstModel: `t2s_s` on
    // `des_baselines_13056`.
    let spec = if full {
        DesSpec::lammps(2176, 1088, 20, seed)
    } else {
        DesSpec::lammps(136, 68, 2, seed)
    };
    for kind in adapter::baseline_kinds() {
        let slug = adapter::kind_slug(kind);
        let events = s.des(
            &format!("zipper-transports.ns_per_event.{slug}"),
            kind,
            &spec,
        );
        let name = format!("zipper-transports.events.{slug}");
        // MPI-IO's event count follows its seeded PFS jitter.
        let note = if slug == "mpiio" {
            "exact per seed"
        } else {
            "exact"
        };
        s.push(&name, "count", &[events as f64]).note = note.into();
    }
    s.ns("hpcsim.network.transfer_ns", adapter::network_transfer());
    s.ns("zipper-pfs.ost_model.submit_ns", adapter::ost_submit());

    // zipper-trace and preflight: the `.off` rows ride on every block of
    // `mesh_stream`; the rest price instrumentation that is off there.
    s.ns(
        "zipper-trace.span.record_ns.off",
        adapter::span_record(false),
    );
    s.ns(
        "zipper-trace.span.record_ns.full",
        adapter::span_record(true),
    );
    s.ns(
        "zipper-trace.telemetry.counter_add_ns.off",
        adapter::telemetry_add(false),
    );
    s.ns(
        "zipper-trace.telemetry.counter_add_ns.on",
        adapter::telemetry_add(true),
    );
    s.ns(
        "zipper-trace.causal.edge_ns.off",
        adapter::causal_edge(false),
    );
    s.ns("zipper-trace.causal.edge_ns.on", adapter::causal_edge(true));
    traced_mesh_rows(&mut s, scale, seed);
    s.us(
        "zipper-policy.preflight.check_us",
        adapter::preflight_check(),
    );

    // Application kernels and the real disk: baselines only. The apps are
    // no-ops in every workload and the disk is too noisy to gate, so these
    // rows move no end-to-end metric here.
    let mlups = |ns: f64| adapter::LBM_CELLS as f64 / ns * 1e3;
    s.bench(
        "zipper-apps.lbm.mlups.16",
        "MLUPS",
        adapter::lbm_step(),
        mlups,
    )
    .note = BASELINE_ONLY.into();
    s.us("zipper-apps.md.step_us.500", adapter::md_step()).note = BASELINE_ONLY.into();
    let block = adapter::APP_BLOCK;
    s.gib_s(
        "zipper-apps.analysis.moments4_gib_s",
        block,
        adapter::moments4(),
    )
    .note = BASELINE_ONLY.into();
    let generate = adapter::synthetic_generate();
    s.gib_s(
        "zipper-apps.synthetic.generate_gib_s.linear",
        block,
        generate,
    )
    .note = BASELINE_ONLY.into();
    let mut disk = adapter::DiskBench::new(scratch.join(format!("diskfs-{}", std::process::id())))
        .expect("scratch directory for the DiskFs rows");
    disk.put(256);
    s.us("zipper-pfs.diskfs.put_us", |n| disk.put(n)).note = BASELINE_ONLY.into();
    s.us("zipper-pfs.diskfs.get_us", |n| disk.get(n)).note = BASELINE_ONLY.into();
    s.rows
}

/// The repo's own tracing priced end to end: a reduced `mesh_stream`
/// iteration (256 of its 2,048 steps) through `run_workflow_traced` over
/// an untraced one, and `CausalGraph::build` over the logs of a 16-step
/// run (the build is too slow to repeat on more).
fn traced_mesh_rows(s: &mut Suite, scale: Scale, seed: u64) {
    let mut plan = stream_plan(Workload::MeshStream, scale);
    plan.steps = plan.steps.min(256);
    let slabs = adapter::build_slabs(&plan, seed);
    let median_s = |level: TraceLevel| {
        let wall: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = now();
                let (delivered, ..) = adapter::run_mesh_traced(&plan, &slabs, level);
                assert_eq!(delivered, plan.total_blocks(), "traced run lost blocks");
                secs_since(t0)
            })
            .collect();
        summarize(&wall).median
    };
    let untraced = median_s(TraceLevel::Default);
    let full = median_s(TraceLevel::Full);
    let everything = median_s(TraceLevel::FullCausalTelemetry);
    s.push(
        "zipper-trace.overhead_ratio.full",
        "ratio",
        &[full / untraced],
    );
    let name = "zipper-trace.overhead_ratio.full_causal_telemetry";
    s.push(name, "ratio", &[everything / untraced]);

    plan.steps = plan.steps.min(16);
    let (_, trace, causal) =
        adapter::run_mesh_traced(&plan, &slabs, TraceLevel::FullCausalTelemetry);
    let edges = adapter::causal_graph_build(&trace, &causal) as f64;
    s.bench(
        "zipper-trace.causal.graph_build_edges_per_s",
        "1/s",
        |n| {
            for _ in 0..n {
                adapter::causal_graph_build(&trace, &causal);
            }
        },
        |ns| edges / ns * 1e9,
    );
}

/// Median of the row called `name`.
pub fn value_of(rows: &[Row], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no per-layer row named {name}"))
        .value()
}
