//! One Criterion bench per paper table/figure: each benchmark runs a
//! reduced-scale version of the experiment that regenerates that figure
//! (the full-scale tables come from `cargo run -p bench --bin experiments`).
//! Benchmarked quantity: wall-clock of the discrete-event replay, i.e. how
//! fast this reproduction regenerates the figure.
//!
//! Plus the few measurements no `perf_ledger` row covers: two analysis
//! kernels and the threaded runtime's block-size and buffer-depth
//! ablations. Everything a ledger row does cover (LBM, MD, synthetic
//! generation, moments, `BlockQueue`, the dual-channel ablation,
//! instrumentation overhead) is measured there, against a committed
//! baseline.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use zipper_apps::analysis::{block_variance, mean_squared_displacement};
use zipper_apps::md::LjMd;
use zipper_apps::synthetic::{decode_block, generate_block};
use zipper_apps::Complexity;
use zipper_model::{integrated_time, non_integrated_time};
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::{ByteSize, GlobalPos, SimTime, StepId, WorkflowConfig};
use zipper_workflow::{run_workflow, NetworkOptions, StorageOptions};

fn tiny_cfd() -> WorkflowSpec {
    let mut s = WorkflowSpec::cfd(16, 8, 4);
    s.ranks_per_node = 8;
    s.staging_servers = 2;
    s.decaf_links = 4;
    s
}

/// Fig. 2 / Tables 1-2: one bench per transport on the CFD workflow.
fn fig2_transports(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_transports");
    let spec = tiny_cfd();
    for kind in TransportKind::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let r = run_with_detail(kind, &spec, false);
                    assert!(r.is_clean());
                    std::hint::black_box(r.end_to_end)
                })
            },
        );
    }
    g.finish();
}

/// Figs. 3 & 11: the exact pipeline schedules.
fn fig3_11_pipeline(c: &mut Criterion) {
    let stages = [
        SimTime::from_millis(25),
        SimTime::from_millis(10),
        SimTime::from_millis(10),
        SimTime::from_millis(15),
    ];
    c.bench_function("fig11_pipeline_model_10k_blocks", |b| {
        b.iter(|| {
            let it = integrated_time(10_000, &stages);
            let ni = non_integrated_time(10_000, &stages);
            std::hint::black_box((it, ni))
        })
    });
}

/// Figs. 4-6 & 17/19: trace-figure replay (full span detail retained).
fn fig4_6_traces(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_6_traces");
    let spec = tiny_cfd();
    for kind in [
        TransportKind::DimesNative,
        TransportKind::Flexpath,
        TransportKind::Decaf,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let r = run_with_detail(kind, &spec, true);
                    assert!(r.is_clean());
                    std::hint::black_box(r.trace.spans().len())
                })
            },
        );
    }
    g.finish();
}

/// Figs. 12-13: synthetic breakdown per complexity (No-Preserve +
/// Preserve).
fn fig12_13_synthetics(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_13_synthetics");
    for cx in Complexity::ALL {
        for preserve in [false, true] {
            let name = format!("{}{}", cx.label(), if preserve { "+preserve" } else { "" });
            g.bench_function(BenchmarkId::from_parameter(name), |b| {
                let mut spec = WorkflowSpec::synthetic(cx, 8, 4, 32 << 20, 1 << 20);
                spec.preserve = preserve;
                b.iter(|| {
                    let r = run_with_detail(TransportKind::Zipper, &spec, false);
                    assert!(r.is_clean());
                    std::hint::black_box(r.end_to_end)
                })
            });
        }
    }
    g.finish();
}

/// Figs. 14-15: the dual-channel ablation (message-only vs concurrent).
fn fig14_15_dual_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_15_dual_channel");
    for concurrent in [false, true] {
        let name = if concurrent {
            "concurrent"
        } else {
            "message-only"
        };
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut spec = WorkflowSpec::synthetic(Complexity::Linear, 28, 14, 64 << 20, 1 << 20);
            spec.concurrent_transfer = concurrent;
            b.iter(|| {
                let r = run_with_detail(TransportKind::Zipper, &spec, false);
                assert!(r.is_clean());
                std::hint::black_box((r.sim_finish, r.xmit_wait_sim))
            })
        });
    }
    g.finish();
}

/// Figs. 16 & 18: one weak-scaling point per method per application.
fn fig16_18_scaling_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig16_18_scaling_point");
    g.sample_size(10);
    for (app, mk) in [
        (
            "cfd",
            WorkflowSpec::cfd as fn(usize, usize, u64) -> WorkflowSpec,
        ),
        (
            "lammps",
            WorkflowSpec::lammps as fn(usize, usize, u64) -> WorkflowSpec,
        ),
    ] {
        for kind in [
            TransportKind::MpiIo,
            TransportKind::Decaf,
            TransportKind::Zipper,
        ] {
            let name = format!("{app}/{}", kind.name());
            g.bench_function(BenchmarkId::from_parameter(name), |b| {
                let mut spec = mk(32, 16, 3);
                spec.ranks_per_node = 16;
                spec.decaf_links = 8;
                spec.staging_servers = 4;
                b.iter(|| {
                    let r = run_with_detail(kind, &spec, false);
                    assert!(r.is_clean());
                    std::hint::black_box(r.end_to_end)
                })
            });
        }
    }
    g.finish();
}

/// The analysis kernels without a ledger row.
fn analysis_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    let blk = generate_block(Complexity::Linear, 1 << 20, 7);
    let samples = decode_block(&blk);
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("variance_1MiB", |b| {
        b.iter(|| std::hint::black_box(block_variance(&samples)))
    });
    let md = LjMd::fcc(4, 0.8, 0.5, 1);
    let reference = md.positions().to_vec();
    g.bench_function("msd_256_atoms", |b| {
        b.iter(|| {
            std::hint::black_box(mean_squared_displacement(
                md.positions(),
                &reference,
                md.box_len(),
            ))
        })
    });
    g.finish();
}

/// One threaded workflow run: every producer writes its slabs, every
/// consumer drains.
fn run_once(cfg: &WorkflowConfig, net: NetworkOptions) {
    let steps = cfg.steps;
    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    let (report, _) = run_workflow(
        cfg,
        net,
        StorageOptions::Memory,
        move |rank, writer| {
            for s in 0..steps {
                writer.write_slab(
                    StepId(s),
                    GlobalPos::default(),
                    Bytes::from(vec![rank.0 as u8; slab]),
                );
            }
        },
        |_r, reader| while reader.read().is_some() {},
    );
    report.assert_complete();
}

/// Ablation 1: fine-grain block size sweep on the threaded runtime.
fn runtime_block_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_block_size");
    let total = ByteSize::mib(4);
    for block_kib in [16u64, 64, 256, 1024] {
        g.throughput(Throughput::Bytes(total.as_u64() * 2));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{block_kib}KiB")),
            &block_kib,
            |b, &kib| {
                let mut cfg = WorkflowConfig {
                    producers: 2,
                    consumers: 1,
                    steps: 4,
                    bytes_per_rank_step: ByteSize::mib(1),
                    ..Default::default()
                };
                cfg.tuning.block_size = ByteSize::kib(kib);
                b.iter(|| run_once(&cfg, NetworkOptions::default()));
            },
        );
    }
    g.finish();
}

/// Ablation 5: producer buffer depth.
fn runtime_buffer_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_buffer_depth");
    g.sample_size(10);
    for slots in [2usize, 8, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            let mut cfg = WorkflowConfig {
                producers: 2,
                consumers: 1,
                steps: 3,
                bytes_per_rank_step: ByteSize::kib(512),
                ..Default::default()
            };
            cfg.tuning.block_size = ByteSize::kib(64);
            cfg.tuning.producer_slots = slots;
            cfg.tuning.high_water_mark = (slots * 3 / 4).max(1).min(slots - 1);
            let net = NetworkOptions::throttled(2, 80e6, Duration::ZERO);
            b.iter(|| run_once(&cfg, net.clone()));
        });
    }
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(200));
    targets = fig2_transports, fig3_11_pipeline, fig4_6_traces, fig12_13_synthetics, fig14_15_dual_channel, fig16_18_scaling_point, analysis_kernels, runtime_block_size, runtime_buffer_depth
}
criterion_main!(figures);
