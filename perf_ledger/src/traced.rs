//! The traced run (`--trace 1`): the per-layer microbenchmarks, then one
//! traced pass of the workload — the benchmark's own spans around the
//! public calls, the counts of the public reports — and the two `model.*`
//! rows that show whether the layers add up to the measured cost of a
//! block. Nothing measured here enters the end-to-end numbers.
//!
//! Every traced run emits every per-layer metric. A span or count of a
//! layer that is not on the workload's path reads 0 and is noted `n/a`
//! (those rows are shares and counts, never times).

use crate::adapter::{DesOutcome, Lane, StreamOutcome, StreamPlan, Transport};
use crate::layers::{run_layers, value_of};
use crate::spans::{SpanBook, SpanName};
use crate::stats::{now, secs_since, summarize, Group, Row};
use crate::workloads::{
    des_runs_reduced, iterate, process_cpu_s, Input, Iteration, RunResult, Scale, Workload,
};
use std::path::Path;
use std::sync::Arc;

/// Untraced and traced iterations of the threaded traced pass.
const PASS_ITERATIONS: usize = 2;

/// Names and units of the traced-pass rows, in print order; every traced
/// run emits all of them.
pub const TRACED_ROWS: [(&str, &str); 24] = [
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("model.layer_sum_ns_per_block", "ns"),
    ("model.measured_ns_per_block", "ns"),
    ("span.producer_write_share", "ratio"),
    ("span.consumer_read_share", "ratio"),
    ("span.storage_put_share", "ratio"),
    ("span.storage_get_share", "ratio"),
    ("span.sender_send_share", "ratio"),
    ("storage.put_count", "count"),
    ("storage.get_count", "count"),
    ("sender.send_count", "count"),
    ("runtime.blocks_sent", "count"),
    ("runtime.blocks_stolen", "count"),
    ("runtime.steal_fraction", "ratio"),
    ("runtime.net_backpressure_share", "ratio"),
    ("runtime.producer_stall_share", "ratio"),
    ("runtime.sender_busy_share", "ratio"),
    ("runtime.writer_busy_share", "ratio"),
    ("runtime.receiver_busy_share", "ratio"),
    ("sim.stall_share", "ratio"),
    ("sim.xmit_wait_share", "ratio"),
    ("sim.pfs_requests", "count"),
    ("sim.events", "count"),
];

/// One traced-pass value: row name, value, note.
type Entry = (&'static str, f64, &'static str);

/// The traced-pass rows in [`TRACED_ROWS`] order; a row without an entry
/// is a layer off this workload's path: 0, noted `n/a`.
fn pass_rows(entries: &[Entry]) -> Vec<Row> {
    for (name, ..) in entries {
        assert!(
            TRACED_ROWS.iter().any(|(n, _)| n == name),
            "unknown traced row {name}"
        );
    }
    TRACED_ROWS
        .iter()
        .map(|&(name, unit)| match entries.iter().find(|e| e.0 == name) {
            Some(&(_, value, note)) => Row::new(name, unit, Group::PerLayer, &[value]).note(note),
            None => Row::new(name, unit, Group::PerLayer, &[0.0]).note("n/a"),
        })
        .collect()
}

/// Mean share of `wall` that the lanes labelled `{side}…{role}` spent
/// in what `pick` selects (busy or waiting time).
fn lane_share(lanes: &[Lane], side: &str, role: &str, wall: f64, pick: fn(&Lane) -> f64) -> f64 {
    let of_role: Vec<&Lane> = lanes
        .iter()
        .filter(|l| l.label.starts_with(side) && l.label.ends_with(role))
        .collect();
    if of_role.is_empty() || wall == 0.0 {
        return 0.0;
    }
    of_role.iter().map(|l| pick(l)).sum::<f64>() / (of_role.len() as f64 * wall)
}

/// Cost of one block through the layers, from this run's microbenchmarks:
/// the message path and the file path weighted by the steal fraction.
fn stream_layer_sum(plan: &StreamPlan, layers: &[Row], steal_fraction: f64) -> f64 {
    let v = |name: &str| value_of(layers, name);
    let push_pop = v("zipper-core.block_queue.push_pop_ns");
    let decisions =
        v("zipper-policy.producer.decision_ns") + v("zipper-policy.consumer.decision_ns");
    let wire = match plan.transport {
        Transport::Mesh => v("zipper-core.mesh.send_recv_ns"),
        // GiB/s of encode + socket + decode, as ns for one block.
        Transport::Tcp => {
            plan.block_bytes as f64 / (v("zipper-core.tcp.stream_gib_s.64k") * (1u64 << 30) as f64)
                * 1e9
        }
    };
    // Producer queue, wire, consumer queue.
    let net_path = push_pop + wire + push_pop;
    // Producer queue by steal, store, fetch, consumer queue.
    let file_path = v("zipper-core.block_queue.steal_ns")
        + v("zipper-pfs.memfs.put_ns")
        + v("zipper-pfs.memfs.get_ns")
        + push_pop;
    decisions + (1.0 - steal_fraction) * net_path + steal_fraction * file_path
}

fn stream_pass(
    plan: &StreamPlan,
    input: &mut Input,
    layers: &[Row],
    result: &mut RunResult,
) -> Vec<Row> {
    let mut timed = |book: Option<&Arc<SpanBook>>| {
        let cpu0 = process_cpu_s();
        let mut wall = Vec::new();
        let mut last = None;
        for _ in 0..PASS_ITERATIONS {
            let t0 = now();
            let it = iterate(input, book, false);
            wall.push(secs_since(t0));
            result.absorb(&it);
            last = Some(it);
        }
        let last = last.expect("at least one iteration");
        (wall, process_cpu_s() - cpu0, last)
    };
    let (untraced_wall, untraced_cpu, _) = timed(None);
    let book = Arc::new(SpanBook::default());
    let (traced_wall, _, last) = timed(Some(&book));
    let out: StreamOutcome = last.stream.expect("threaded iteration");

    let wall = summarize(&traced_wall).median;
    let iters = PASS_ITERATIONS as f64;
    // Thread-seconds one producer-side (consumer-side) lane had in total.
    let p_wall = plan.producers as f64 * traced_wall.iter().sum::<f64>();
    let c_wall = plan.consumers as f64 * traced_wall.iter().sum::<f64>();
    let busy = |name| book.busy_s(name);
    let per_iteration = |name| book.count(name) as f64 / iters;
    let written = (out.blocks_sent + out.blocks_stolen).max(1) as f64;
    let steal_fraction = out.blocks_stolen as f64 / written;
    let unattributed = out
        .lanes
        .iter()
        .map(|l| (1.0 - l.total_s / wall).max(0.0))
        .fold(0.0, f64::max);
    let layer_sum = stream_layer_sum(plan, layers, steal_fraction);
    let cpu_ns_per_block = untraced_cpu * 1e9 / (plan.total_blocks() as f64 * iters);
    let share = |side, role, pick| lane_share(&out.lanes, side, role, wall, pick);

    let mut entries: Vec<Entry> = vec![
        (
            "trace.overhead_ratio",
            wall / summarize(&untraced_wall).median,
            "",
        ),
        (
            "trace.unattributed_frac",
            unattributed,
            "report, do not gate",
        ),
        ("model.layer_sum_ns_per_block", layer_sum, ""),
        (
            "model.measured_ns_per_block",
            cpu_ns_per_block,
            "cpu time, 10 ms ticks",
        ),
        (
            "span.producer_write_share",
            busy(SpanName::ProducerWrite) / p_wall,
            "",
        ),
        (
            "span.consumer_read_share",
            busy(SpanName::ConsumerRead) / c_wall,
            "",
        ),
        ("runtime.blocks_sent", out.blocks_sent as f64, "not-exact"),
        (
            "runtime.blocks_stolen",
            out.blocks_stolen as f64,
            "not-exact",
        ),
        ("runtime.steal_fraction", steal_fraction, "not-exact"),
        (
            "runtime.producer_stall_share",
            share("sim/", "/app", |l| l.wait_s),
            "",
        ),
        (
            "runtime.sender_busy_share",
            share("sim/", "/send", |l| l.busy_s),
            "",
        ),
        (
            "runtime.receiver_busy_share",
            share("ana/", "/recv", |l| l.busy_s),
            "",
        ),
    ];
    match plan.transport {
        Transport::Mesh => entries.extend([
            (
                "span.storage_put_share",
                busy(SpanName::StoragePut) / p_wall,
                "",
            ),
            (
                "span.storage_get_share",
                busy(SpanName::StorageGet) / c_wall,
                "",
            ),
            (
                "storage.put_count",
                per_iteration(SpanName::StoragePut),
                "not-exact",
            ),
            (
                "storage.get_count",
                per_iteration(SpanName::StorageGet),
                "not-exact",
            ),
            (
                "runtime.net_backpressure_share",
                out.net_backpressure_s / (plan.producers as f64 * wall),
                "",
            ),
            (
                "runtime.writer_busy_share",
                share("sim/", "/writer", |l| l.busy_s),
                "",
            ),
        ]),
        Transport::Tcp => entries.extend([
            (
                "span.sender_send_share",
                busy(SpanName::SenderSend) / p_wall,
                "",
            ),
            (
                "sender.send_count",
                per_iteration(SpanName::SenderSend),
                "exact",
            ),
        ]),
    }
    pass_rows(&entries)
}

fn des_pass(
    w: Workload,
    seed: u64,
    scale: Scale,
    input: &mut Input,
    layers: &[Row],
    result: &mut RunResult,
) -> Vec<Row> {
    // One untraced iteration at the workload's own scale: the measured
    // cost of a simulated block.
    let cpu0 = process_cpu_s();
    let own = iterate(input, None, false);
    let own_cpu = process_cpu_s() - cpu0;
    result.absorb(&own);

    // Detail off and on at the reduced scale.
    let runs = des_runs_reduced(w, scale, seed);
    let sim_ranks: Vec<f64> = runs.iter().map(|r| r.spec.sim_ranks() as f64).collect();
    let mut reduced = Input::des(runs, seed);
    let mut timed = |detail: bool| -> (f64, Iteration) {
        let t0 = now();
        let it = iterate(&mut reduced, None, detail);
        (secs_since(t0), it)
    };
    let (plain_s, plain) = timed(false);
    let (detail_s, detailed) = timed(true);
    result.absorb(&plain);
    result.absorb(&detailed);

    let rank_seconds: f64 = sim_ranks
        .iter()
        .zip(&detailed.des)
        .map(|(ranks, o)| ranks * o.end_to_end_s)
        .sum();
    let sum = |f: fn(&DesOutcome) -> f64| detailed.des.iter().map(f).sum::<f64>();
    let unattributed = detailed
        .des
        .iter()
        .filter_map(|o| o.unattributed.as_ref().map(|u| u.1))
        .fold(0.0, f64::max);
    let engine_ns_per_event = (value_of(layers, "hpcsim.engine.pingpong_ns_per_event")
        + value_of(layers, "hpcsim.engine.buffer_ns_per_event"))
        / 2.0;
    let blocks = own.blocks.max(1) as f64;
    let reduced_scale = "exact, reduced scale";

    pass_rows(&[
        (
            "trace.overhead_ratio",
            detail_s / plain_s,
            "detail on / off, reduced scale",
        ),
        (
            "trace.unattributed_frac",
            unattributed,
            "report, do not gate",
        ),
        (
            "model.layer_sum_ns_per_block",
            own.events as f64 / blocks * engine_ns_per_event,
            "events per block x cache-resident engine cost",
        ),
        (
            "model.measured_ns_per_block",
            own_cpu * 1e9 / blocks,
            "cpu time, 10 ms ticks",
        ),
        (
            "sim.stall_share",
            sum(|o| o.stall_s) / rank_seconds,
            reduced_scale,
        ),
        (
            "sim.xmit_wait_share",
            sum(|o| o.xmit_wait_s) / rank_seconds,
            reduced_scale,
        ),
        (
            "sim.pfs_requests",
            sum(|o| o.pfs_requests as f64),
            reduced_scale,
        ),
        ("sim.events", detailed.events as f64, reduced_scale),
    ])
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(w: Workload, seed: u64, scale: Scale, scratch: &Path) -> RunResult {
    let mut result = RunResult::default();
    let layers = run_layers(scale, seed, scratch);
    let mut input = Input::new(w, scale, seed);
    let pass_rows = match &input {
        Input::Stream { plan, .. } => {
            let plan = plan.clone();
            stream_pass(&plan, &mut input, &layers, &mut result)
        }
        Input::Des { .. } => des_pass(w, seed, scale, &mut input, &layers, &mut result),
    };
    result.rows = layers;
    result.rows.extend(pass_rows);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SEED;

    #[test]
    fn every_traced_smoke_run_emits_the_same_rows_in_the_same_order() {
        let scratch = Path::new(".perf_ledger_tmp").join(format!("test-{}", std::process::id()));
        let mut names: Option<Vec<String>> = None;
        for w in Workload::ALL {
            let r = run_traced(w, DEFAULT_SEED, Scale::Smoke, &scratch);
            assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.problems);
            assert!(r
                .rows
                .iter()
                .all(|r| r.group == Group::PerLayer && r.value().is_finite()));
            let got: Vec<String> = r.rows.iter().map(|r| r.name.clone()).collect();
            assert!(got.ends_with(&TRACED_ROWS.map(|(n, _)| n.to_string())));
            let expected = names.get_or_insert(got.clone());
            assert_eq!(&got, expected, "{}", w.name());
            let ratio = value_of(&r.rows, "trace.overhead_ratio");
            assert!(ratio > 0.0, "{}: overhead ratio {ratio}", w.name());
            assert!(value_of(&r.rows, "model.measured_ns_per_block") >= 0.0);
            assert!(value_of(&r.rows, "model.layer_sum_ns_per_block") > 0.0);
        }
        let _ = std::fs::remove_dir_all(&scratch);
        let _ = std::fs::remove_dir(".perf_ledger_tmp");
    }
}
