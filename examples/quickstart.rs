//! Quickstart: couple a toy simulation with a toy analysis through the
//! Zipper runtime in ~60 lines of application code.
//!
//! Four producer "ranks" generate synthetic data slabs; two consumer
//! "ranks" compute running statistics over every fine-grain block they
//! receive. The Zipper runtime handles buffering, the message channel, and
//! the work-stealing file channel underneath.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use std::time::{Duration, Instant};
use zipper_apps::analysis::VarianceAccumulator;
use zipper_apps::synthetic::{decode_block, generate_block, Complexity};
use zipper_model::ModelInput;
use zipper_trace::export::{chrome_trace_with_flows, jsonl_with_flows};
use zipper_trace::GaugeId;
use zipper_types::SimTime;
use zipper_types::{ByteSize, GlobalPos, StepId, WorkflowConfig};
use zipper_workflow::{run_workflow_with, RunOptions, TraceOptions};

fn main() {
    // 1. Describe the coupled workflow: P producers, Q consumers, how much
    //    data per step, and the fine-grain block size (§4's first pillar).
    let mut cfg = WorkflowConfig {
        producers: 4,
        consumers: 2,
        steps: 8,
        bytes_per_rank_step: ByteSize::mib(2),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(256);
    cfg.validate().expect("valid config");

    println!(
        "quickstart: {} producers x {} steps x {} per step -> {} blocks of {}",
        cfg.producers,
        cfg.steps,
        cfg.bytes_per_rank_step,
        cfg.total_blocks(),
        cfg.tuning.block_size,
    );

    // 2. Run it. The producer closure is your simulation loop: compute a
    //    step, hand the slab to Zipper. The consumer closure is your
    //    analysis loop: read blocks until the stream ends.
    //    Everything else about the run is a field of `RunOptions`: the
    //    message channel and storage (defaults: unthrottled mesh, MemFs),
    //    a scripted `ChaosPlan`, the preflight gate, and trace fidelity.
    let opts = RunOptions {
        // Full tracing: every runtime thread records spans into one shared
        // log, which the report renders below. `TraceOptions::default()`
        // keeps lane totals only; `off()` removes even that. The telemetry
        // flag additionally turns on the metric registry and a background
        // sampler that snapshots queue depths and stall counters; the
        // causal flag records cross-entity happens-before edges for the
        // critical-path engine below.
        trace: TraceOptions::full()
            .with_causal()
            .with_telemetry(Duration::from_millis(2)),
        ..Default::default()
    };
    let (report, results) = run_workflow_with(
        &cfg,
        opts,
        move |rank, writer| {
            for step in 0..8u64 {
                // "Simulate": generate this step's output slab.
                let slab: Bytes = generate_block(
                    Complexity::Linear,
                    ByteSize::mib(2).as_u64() as usize,
                    rank.0 as u64 * 1000 + step,
                );
                // Hand it to Zipper as fine-grain blocks. This call stalls
                // only if the producer buffer is full — and then the
                // work-stealing writer thread relieves it via the file
                // channel.
                writer.write_slab(StepId(step), GlobalPos::default(), slab);
            }
        },
        |rank, reader| {
            // "Analyze": fold every block into a running variance. Blocks
            // may arrive in any order, over either channel; the header
            // says what each one is.
            let mut acc = VarianceAccumulator::new();
            let mut blocks = 0u64;
            while let Some(block) = reader.read() {
                acc.update(&decode_block(&block.payload));
                blocks += 1;
            }
            (rank, blocks, acc)
        },
    )
    .expect("only a set preflight gate refuses a run");

    // 3. Inspect the outcome.
    report.assert_complete();
    for (rank, blocks, acc) in &results {
        println!(
            "consumer {rank}: {blocks} blocks, mean={:.4}, variance={:.4}",
            acc.mean().unwrap_or(0.0),
            acc.variance().unwrap_or(0.0),
        );
    }
    let totals = report.producer_total();
    println!(
        "done in {:?}: {} blocks written, {} sent by message, {} stolen to the file channel",
        report.wall, totals.blocks_written, totals.blocks_sent, totals.blocks_stolen,
    );

    // 4. The same run, read as a trace. Every number above is a view over
    //    this span log; the timeline is the paper's Fig. 17/19 reading of
    //    the run (one row per runtime lane, one glyph per span kind).
    println!("\n--- summary ---\n{}", report.summary());
    println!("--- timeline ---\n{}", report.timeline(100));
    let horizon = report.trace.horizon();
    if horizon > SimTime::ZERO {
        let half = SimTime::from_nanos(horizon.as_nanos() / 2);
        let w = report.window(SimTime::ZERO, half);
        println!(
            "first half of the run: {:.2} steps/lane across {} active lanes",
            w.steps_per_lane, w.active_lanes,
        );
    }

    // 5. Telemetry: the metric registry's totals and the sampled
    //    congestion time-series for the same run.
    println!("--- telemetry ---\n{}", report.metrics.summary());
    println!(
        "congestion samples: {} points, peak producer queue depth {}",
        report.samples.len(),
        report.samples.gauge_peak(GaugeId::ProducerQueueDepth),
    );

    // 6. Model fit: line the run up against the §4.4 analytical model.
    //    Per-block compute/analysis costs are probed once on this machine
    //    (wall-clock costs are not knowable a priori), then scaled by how
    //    oversubscribed the cores are — the model assumes P dedicated
    //    cores. The transfer cost assumes a memcpy-rate in-process
    //    channel. The rel-err column then shows how far that
    //    back-of-envelope is off, which is exactly how you would use the
    //    fit to find the surprising phase. (The DES examples fit tightly;
    //    see `cargo test --test telemetry`.)
    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    let blocks_per_slab = cfg
        .bytes_per_rank_step
        .as_u64()
        .div_ceil(cfg.tuning.block_size.as_u64());
    // Example calibrates real kernel cost on the host it runs on.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let probe = std::hint::black_box(generate_block(Complexity::Linear, slab, 42));
    let slab_gen = t0.elapsed();
    let decoded = decode_block(&probe);
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let mut acc = VarianceAccumulator::new();
    acc.update(&decoded);
    std::hint::black_box(&acc);
    let slab_ana = t0.elapsed();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversub = ((cfg.producers + cfg.consumers) as f64 / cores as f64).max(1.0);
    let per_block = |slab_time: Duration| {
        SimTime::from_nanos((slab_time.as_nanos() as f64 * oversub) as u64 / blocks_per_slab)
    };
    let input = ModelInput {
        p: cfg.producers as u64,
        q: cfg.consumers as u64,
        total_bytes: ByteSize::bytes(
            cfg.producers as u64 * cfg.steps * cfg.bytes_per_rank_step.as_u64(),
        ),
        block_size: cfg.tuning.block_size,
        tc: per_block(slab_gen),
        tm: SimTime::for_bytes(cfg.tuning.block_size.as_u64(), 8.0e9),
        ta: per_block(slab_ana),
        transfer_lanes: cfg.producers as u64,
    };
    let fit = report.model_fit(&input);
    println!(
        "--- model fit (back-of-envelope costs, {cores} core(s) for {} ranks) ---\n{}",
        cfg.producers + cfg.consumers,
        fit,
    );

    // 7. Causal critical path: the chain of events that actually gated
    //    the finish line, its per-bucket attribution, and the what-if
    //    sweep (what happens to the makespan if the NIC / PFS / analysis
    //    were 2x faster). The verdict is cross-checked against the
    //    analytical model's argmax: when the two name the same
    //    bottleneck, the back-of-envelope and the measured path agree on
    //    where optimization effort should go.
    println!("--- critical path ---\n{}", report.causal_summary());
    if let Some(path) = report.critical_path() {
        let verdict = path.attribution.verdict();
        println!(
            "engine verdict {} vs model argmax {}: {}",
            verdict,
            fit.verdict(),
            if fit.agrees_with(verdict) {
                "agree"
            } else {
                "disagree (wall-clock probe costs are approximate)"
            },
        );
    }

    // 8. Optional flight-recorder export: set ZIPPER_EXPORT_DIR to write
    //    the span log + samples as a Chrome trace (open in
    //    chrome://tracing or Perfetto) and as JSONL (one event per line).
    //    Causal edges ride along as flow events / edge records.
    if let Some(dir) = std::env::var_os("ZIPPER_EXPORT_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create export dir");
        let chrome =
            chrome_trace_with_flows(&report.trace, Some(&report.samples), Some(&report.causal));
        let lines = jsonl_with_flows(&report.trace, Some(&report.samples), Some(&report.causal));
        std::fs::write(dir.join("quickstart_trace.json"), chrome).expect("write chrome trace");
        std::fs::write(dir.join("quickstart_trace.jsonl"), lines).expect("write jsonl");
        println!("exported flight recording to {}", dir.display());
    }
}
