//! Property-based tests over the core data structures and models.

use proptest::prelude::*;
use std::sync::Arc;
use zipper_model::{integrated_time, non_integrated_time};
use zipper_pfs::{MemFs, OstModel, OstModelConfig, Storage};
use zipper_trace::{
    stats, Bucket, CausalGraph, CausalLog, CounterId, CriticalPath, EdgeKind, GaugeId,
    HistogramSnapshot, KindBreakdown, Probe, Sampler, Span, SpanKind, Telemetry, TraceLog,
    TraceMode, TraceSink, VirtualClock, WallClock,
};
use zipper_types::block::deterministic_payload;
use zipper_types::{Block, BlockId, ByteSize, GlobalPos, Rank, SimTime, StepId};

proptest! {
    /// BlockId ↔ u64 key is a bijection over the supported ranges.
    #[test]
    fn block_id_key_round_trips(src in 0u32..(1 << 24), step in 0u64..(1 << 24), idx in 0u32..(1 << 16)) {
        let id = BlockId::new(Rank(src), StepId(step), idx);
        prop_assert_eq!(BlockId::from_u64(id.as_u64()), id);
    }

    /// Splitting a slab into blocks never loses or invents bytes.
    #[test]
    fn block_split_conserves_bytes(total in 1u64..10_000_000, block in 1u64..2_000_000) {
        let n = ByteSize::bytes(total).blocks_of(ByteSize::bytes(block));
        let full = (n - 1) * block;
        prop_assert!(full < total);
        prop_assert!(total <= n * block);
    }

    /// SimTime byte-transfer arithmetic is monotone in bytes and inverse in
    /// bandwidth.
    #[test]
    fn transfer_time_is_monotone(bytes in 1u64..1_000_000_000, bw in 1.0e3f64..1.0e12) {
        let t1 = SimTime::for_bytes(bytes, bw);
        let t2 = SimTime::for_bytes(bytes + 1, bw);
        prop_assert!(t2 >= t1);
        let faster = SimTime::for_bytes(bytes, bw * 2.0);
        prop_assert!(faster <= t1);
    }

    /// Deterministic payloads: same id+len → identical; different id →
    /// different (with overwhelming probability for len ≥ 16).
    #[test]
    fn payload_determinism(a in 0u32..1000, b in 0u32..1000, len in 16usize..512) {
        let ida = BlockId::new(Rank(a), StepId(0), 0);
        let idb = BlockId::new(Rank(b), StepId(0), 0);
        let pa = deterministic_payload(ida, len);
        prop_assert_eq!(pa.clone(), deterministic_payload(ida, len));
        if a != b {
            prop_assert_ne!(pa, deterministic_payload(idb, len));
        }
    }

    /// The integrated pipeline is never slower than the non-integrated
    /// design, and never faster than its two lower bounds (sum of one
    /// block's stages; n × slowest stage).
    #[test]
    fn pipeline_bounds(
        n in 1u64..200,
        s1 in 1u64..50, s2 in 1u64..50, s3 in 1u64..50, s4 in 1u64..50,
    ) {
        let stages = [
            SimTime::from_millis(s1),
            SimTime::from_millis(s2),
            SimTime::from_millis(s3),
            SimTime::from_millis(s4),
        ];
        let it = integrated_time(n, &stages);
        let ni = non_integrated_time(n, &stages);
        prop_assert!(it <= ni);
        let per_block: u64 = stages.iter().map(|t| t.as_nanos()).sum();
        prop_assert!(it >= SimTime::from_nanos(per_block), "one pass lower bound");
        let slowest = stages.iter().map(|t| t.as_nanos()).max().unwrap();
        prop_assert!(it >= SimTime::from_nanos(slowest * n), "bottleneck lower bound");
        // Exact closed form for constant-per-stage pipelines.
        prop_assert_eq!(
            it,
            SimTime::from_nanos(per_block + (n - 1) * slowest)
        );
    }

    /// OST model: completions never precede arrival + minimum service, and
    /// the same OST never serves two requests at once (drain time grows at
    /// least linearly in total served bytes / aggregate bandwidth).
    #[test]
    fn ost_model_conserves_capacity(
        reqs in proptest::collection::vec((0u64..1000u64, 1u64..4_000_000u64, 0u64..64u64), 1..60),
        n_osts in 1usize..16,
    ) {
        let cfg = OstModelConfig {
            n_osts,
            ost_bandwidth: 1e9,
            op_latency: SimTime::ZERO,
            stripe_size: ByteSize::mib(1),
            background_load: 0.0,
            background_jitter: 0.0,
            read_bandwidth_factor: 2.0,
        };
        let mut model = OstModel::new(cfg, 1);
        let mut total_bytes = 0u64;
        for (at_ms, bytes, key) in &reqs {
            let now = SimTime::from_millis(*at_ms);
            let done = model.submit(now, *bytes, *key);
            prop_assert!(done >= now + SimTime::for_bytes(*bytes / (*bytes).div_ceil(1 << 20).max(1), 1e9));
            total_bytes += bytes;
        }
        // Aggregate capacity: the drain horizon cannot beat perfect
        // parallelism over all OSTs.
        let ideal = SimTime::for_bytes(total_bytes, 1e9 * n_osts as f64);
        prop_assert!(model.drain_time() >= ideal.min(model.drain_time()));
        prop_assert_eq!(model.requests(), reqs.len() as u64);
    }

    /// MemFs storage: arbitrary interleavings of put/get/delete behave like
    /// a map.
    #[test]
    fn memfs_behaves_like_a_map(ops in proptest::collection::vec((0u32..40u32, 0usize..3usize), 1..80)) {
        let store = MemFs::new();
        let mut reference = std::collections::HashMap::new();
        for (idx, op) in ops {
            let id = BlockId::new(Rank(0), StepId(0), idx);
            match op {
                0 => {
                    let b = Block::from_payload(
                        Rank(0), StepId(0), idx, 40, GlobalPos::default(),
                        deterministic_payload(id, 8 + idx as usize),
                    );
                    store.put(&b).unwrap();
                    reference.insert(idx, b);
                }
                1 => {
                    let got = store.get(id).ok();
                    prop_assert_eq!(got.as_ref(), reference.get(&idx));
                }
                _ => {
                    store.delete(id).unwrap();
                    reference.remove(&idx);
                }
            }
            prop_assert_eq!(store.len(), reference.len());
        }
    }

    /// Variance accumulator merging is order-insensitive.
    #[test]
    fn variance_merge_is_order_insensitive(data in proptest::collection::vec(-1e3f64..1e3, 2..200), split in 1usize..100) {
        use zipper_apps::analysis::VarianceAccumulator;
        let split = split % data.len().max(1);
        let mut whole = VarianceAccumulator::new();
        whole.update(&data);

        let (a, b) = data.split_at(split);
        let mut left = VarianceAccumulator::new();
        left.update(a);
        let mut right = VarianceAccumulator::new();
        right.update(b);
        // Merge in both orders.
        let mut lr = left;
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        let v = whole.variance().unwrap();
        prop_assert!((lr.variance().unwrap() - v).abs() < 1e-6);
        prop_assert!((rl.variance().unwrap() - v).abs() < 1e-6);
    }

    /// Moment accumulator: merging partials equals a single pass, for all
    /// tracked orders.
    #[test]
    fn moments_merge_exactly(data in proptest::collection::vec(-10f64..10.0, 1..100), split in 0usize..100) {
        use zipper_apps::analysis::MomentAccumulator;
        let split = split % (data.len() + 1);
        let mut whole = MomentAccumulator::new(4);
        whole.update(&data);
        let mut merged = MomentAccumulator::new(4);
        let mut p1 = MomentAccumulator::new(4);
        p1.update(&data[..split]);
        let mut p2 = MomentAccumulator::new(4);
        p2.update(&data[split..]);
        merged.merge(&p1);
        merged.merge(&p2);
        for n in 1..=4 {
            let (w, m) = (whole.moment(n), merged.moment(n));
            match (w, m) {
                (Some(w), Some(m)) => prop_assert!((w - m).abs() <= 1e-9 * w.abs().max(1.0)),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }
}

proptest! {
    /// Spans produced by one lane recorder over a virtual clock are
    /// well-formed (`t1 >= t0`), mutually non-overlapping in time order,
    /// and the lane's per-kind totals are exactly the sum of its span
    /// durations — the invariant that lets metrics be derived views over
    /// the span log rather than separate bookkeeping.
    #[test]
    fn recorder_spans_are_ordered_and_totals_match(
        ops in proptest::collection::vec((0usize..3usize, 1u64..1000u64, 0u64..500u64), 1..60)
    ) {
        let clock = VirtualClock::new();
        let sink = TraceSink::new(TraceMode::Full, Arc::new(clock.clone()));
        let mut rec = sink.recorder("prop/lane");
        for (k, dur, gap) in &ops {
            // Random dead time between spans, then a timed op that
            // advances the shared clock while it runs.
            clock.advance(SimTime::from_nanos(*gap));
            let kind = [SpanKind::Compute, SpanKind::Send, SpanKind::Stall][*k];
            rec.time(kind, || clock.advance(SimTime::from_nanos(*dur)));
        }
        drop(rec);
        let log = sink.snapshot();
        let spans = log.spans();
        prop_assert_eq!(spans.len(), ops.len());
        let mut sum = KindBreakdown::default();
        for s in spans {
            prop_assert!(s.t1 >= s.t0);
            sum.add(s.kind, s.duration());
        }
        for w in spans.windows(2) {
            prop_assert!(w[0].t1 <= w[1].t0, "lane spans overlap: {:?} then {:?}", w[0], w[1]);
        }
        let totals = stats::total_breakdown(&log);
        for &k in SpanKind::ALL.iter() {
            prop_assert_eq!(totals.get(k), sum.get(k));
        }
    }

    /// A breakdown's `total()` is the sum of its parts, `overhead()` never
    /// exceeds it, and splitting the entry stream arbitrarily and merging
    /// the two halves reproduces the whole.
    #[test]
    fn breakdown_totals_are_sums_of_parts(
        entries in proptest::collection::vec((0usize..18usize, 0u64..1_000_000u64), 0..50),
        split in 0usize..50,
    ) {
        let mut whole = KindBreakdown::default();
        let mut left = KindBreakdown::default();
        let mut right = KindBreakdown::default();
        let split = split.min(entries.len());
        let mut nanos = 0u64;
        for (i, (k, d)) in entries.iter().enumerate() {
            let kind = SpanKind::ALL[k % SpanKind::ALL.len()];
            let dur = SimTime::from_nanos(*d);
            nanos += d;
            whole.add(kind, dur);
            if i < split { left.add(kind, dur) } else { right.add(kind, dur) }
        }
        prop_assert_eq!(whole.total(), SimTime::from_nanos(nanos));
        prop_assert!(whole.overhead() <= whole.total());
        left.merge(&right);
        for &k in SpanKind::ALL.iter() {
            prop_assert_eq!(left.get(k), whole.get(k));
        }
    }

    /// Windowed statistics partition additively: cutting `[0, end)` at any
    /// point yields two windows whose per-kind breakdowns sum back to the
    /// whole, and the whole window's breakdown equals the raw span time.
    #[test]
    fn window_stats_partition_additively(
        spans in proptest::collection::vec(
            (0u64..10_000u64, 1u64..5_000u64, 0usize..18usize, 0u64..8u64), 1..60),
        cut in 1u64..15_000u64,
    ) {
        let mut log = TraceLog::new();
        let lane = log.lane("prop/window");
        let mut horizon = 0u64;
        let mut per_kind = KindBreakdown::default();
        for (t0, dur, k, step) in &spans {
            let kind = SpanKind::ALL[k % SpanKind::ALL.len()];
            let (a, b) = (SimTime::from_nanos(*t0), SimTime::from_nanos(t0 + dur));
            log.record(Span::new(lane, kind, a, b).with_step(*step));
            per_kind.add(kind, SimTime::from_nanos(*dur));
            horizon = horizon.max(t0 + dur);
        }
        let end = horizon + 1;
        let cut = cut.clamp(1, end - 1).max(1);
        let whole = stats::window_stats(&log, SimTime::ZERO, SimTime::from_nanos(end));
        let first = stats::window_stats(&log, SimTime::ZERO, SimTime::from_nanos(cut));
        let second = stats::window_stats(&log, SimTime::from_nanos(cut), SimTime::from_nanos(end));
        for &k in SpanKind::ALL.iter() {
            prop_assert_eq!(whole.breakdown.get(k), per_kind.get(k));
            prop_assert_eq!(
                first.breakdown.get(k) + second.breakdown.get(k),
                whole.breakdown.get(k)
            );
        }
    }

    /// Critical-path invariants over arbitrary traces: whatever spans and
    /// cross edges are thrown at it (including backwards cross-lane
    /// timestamps, which the join clamps, and same-instant handoffs), in
    /// any recording order, the graph's node order
    /// stays topological — every extracted hop moves strictly forward, so
    /// the path is acyclic — the hops chain contiguously, time never
    /// decreases along the path, the attribution total never exceeds the
    /// makespan, and the ×1.0 what-if reproduces the measured makespan.
    #[test]
    fn critical_path_is_acyclic_and_bounded_by_makespan(
        spans in proptest::collection::vec(
            (0usize..4usize, 0u64..10_000_000u64, 1u64..2_000_000u64, 0usize..18usize), 1..30),
        links in proptest::collection::vec(
            (0usize..4usize, 0usize..4usize, 0u64..12_000_000u64, 0u64..12_000_000u64, 0usize..5usize), 0..12),
        queues in proptest::collection::vec(
            (0usize..3usize, 0usize..4usize, 0usize..4usize, 0u64..12_000_000u64, 0u64..12_000_000u64,
             0u64..1_000u64, 0u64..1_000u64), 0..8),
    ) {
        const LANES: [&str; 4] = ["sim/p0/comp", "sim/p0/send", "ana/q0/recv", "ana/q0/app"];
        const KINDS: [EdgeKind; 5] =
            [EdgeKind::Wire, EdgeKind::Eos, EdgeKind::Steal, EdgeKind::Gate, EdgeKind::Pfs];
        let mut log = TraceLog::new();
        let ids: Vec<_> = LANES.iter().map(|&l| log.lane(l)).collect();
        // A lane is one thread's timeline, so its spans never overlap
        // (the graph builder weighs intra segments by span overlap under
        // that invariant): lay each lane's spans out sequentially, the
        // generated start acting as a gap from the previous span.
        let mut cursor = [0u64; 4];
        for (l, gap, dur, k) in &spans {
            let kind = SpanKind::ALL[k % SpanKind::ALL.len()];
            let a = cursor[*l] + gap % 1_000_000;
            let b = a + dur;
            cursor[*l] = b;
            log.record(Span::new(
                ids[*l],
                kind,
                SimTime::from_nanos(a),
                SimTime::from_nanos(b),
            ));
        }
        // Across lanes, a half's stamp may read on either side of its
        // counterpart's; one lane stamps its own halves in program order.
        let stamps = |same_lane: bool, src: u64, dst: u64| {
            let (src, dst) = if same_lane { (src.min(dst), src.max(dst)) } else { (src, dst) };
            (SimTime::from_nanos(src), SimTime::from_nanos(dst))
        };
        let mut causal = CausalLog::new();
        for (i, &(s, d, st, dt, k)) in links.iter().enumerate() {
            let kind = KINDS[k % KINDS.len()];
            let (st, dt) = stamps(s == d, st, dt);
            causal.begin(kind, i as u64, LANES[s], st);
            causal.end(kind, i as u64, LANES[d], dt);
        }
        // Queue handoffs, one block each, their halves recorded in a
        // shuffled order (threads record after the operation, so any
        // interleaving is possible): identity pairing must join the same
        // edges as recording every push before its pop.
        let mut halves: Vec<(u64, usize, bool)> = Vec::new();
        for (block, &(.., kp, kc)) in queues.iter().enumerate() {
            halves.push((kp, block, true));
            halves.push((kc, block, false));
        }
        halves.sort();
        let record = |causal: &mut CausalLog, block: usize, push: bool| {
            let (q, pl, cl, pt, ct, ..) = queues[block];
            let name = ["q/a", "q/b", "q/c"][q];
            let (pt, ct) = stamps(pl == cl, pt, ct);
            if push {
                causal.queue_push(name, block as u64, LANES[pl], pt);
            } else {
                causal.queue_pop(name, block as u64, LANES[cl], ct);
            }
        };
        let mut in_order = CausalLog::new();
        for block in 0..queues.len() {
            record(&mut in_order, block, true);
            record(&mut in_order, block, false);
        }
        let edge_list = |c: &CausalLog| {
            let mut v: Vec<String> = c.edges().map(|e| format!("{e:?}")).collect();
            v.sort();
            v
        };
        let links_only = edge_list(&causal);
        for &(_, block, push) in &halves {
            record(&mut causal, block, push);
        }
        prop_assert_eq!(causal.unjoined(), 0);
        let mut want = links_only;
        want.extend(edge_list(&in_order));
        want.sort();
        prop_assert_eq!(edge_list(&causal), want, "queue halves pair by block, in any order");

        let graph = CausalGraph::build(&log, &causal);
        if let Some(path) = CriticalPath::extract(&graph) {
            prop_assert!(!path.hops.is_empty());
            for pair in path.hops.windows(2) {
                prop_assert_eq!(pair[0].dst, pair[1].src, "hops must chain contiguously");
            }
            for h in &path.hops {
                prop_assert!(h.src < h.dst, "topological order ⇒ acyclic path");
                prop_assert!(
                    graph.node(h.src).t <= graph.node(h.dst).t,
                    "time never decreases along the path"
                );
            }
            prop_assert!(
                path.attribution.total() <= graph.makespan(),
                "path weight {} exceeds makespan {}",
                path.attribution.total(),
                graph.makespan()
            );
            let wf = graph.what_if(Bucket::Comp, 1.0);
            let measured = graph.makespan().as_nanos() as f64;
            prop_assert!(
                (wf.predicted_ns - measured).abs() <= 1.0,
                "×1.0 what-if must reproduce the makespan: {} vs {measured}",
                wf.predicted_ns
            );
        }
    }
}

fn histogram_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    /// Histogram merge is associative and commutative: shards can be
    /// folded into the registry in any grouping and any order (threads
    /// exit in nondeterministic order) and the result is identical to a
    /// single-pass histogram over all observations.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(0u64..u64::MAX / 4, 0..40),
        ys in proptest::collection::vec(0u64..u64::MAX / 4, 0..40),
        zs in proptest::collection::vec(0u64..u64::MAX / 4, 0..40),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "associativity");
        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutativity");
        // And both equal the single-pass histogram.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&left, &histogram_of(&all), "merge == single pass");
    }

    /// The DES probe's series is monotone with samples on exact period
    /// boundaries, and cumulative counters never decrease along it —
    /// regardless of how event times interleave with the sampling grid.
    #[test]
    fn probe_series_is_monotone_on_the_virtual_clock(
        steps in proptest::collection::vec((1u64..5_000u64, 0u64..1_000u64), 1..50),
        period in 1u64..2_000u64,
    ) {
        let telemetry = Telemetry::on();
        let mut probe = Probe::new(SimTime::from_nanos(period));
        let mut now = SimTime::ZERO;
        for (advance, bytes) in &steps {
            now += SimTime::from_nanos(*advance);
            telemetry.add(CounterId::NetBytes, *bytes);
            telemetry.gauge_add(GaugeId::InboxDepth, (*bytes % 3) as i64 - 1);
            probe.poll(now, &telemetry);
        }
        let series = probe.finish(now, &telemetry);
        prop_assert!(!series.is_empty(), "finish() always samples");
        prop_assert!(series.is_monotone());
        // All but the final sample (stamped at `now`) sit on the grid.
        for p in &series.points[..series.len() - 1] {
            prop_assert_eq!(p.t.as_nanos() % period, 0, "off-boundary sample at {}", p.t);
        }
        let counters = series.counter_series(CounterId::NetBytes);
        prop_assert!(counters.windows(2).all(|w| w[0].1 <= w[1].1), "counters are cumulative");
        let total: u64 = steps.iter().map(|(_, b)| b).sum();
        prop_assert_eq!(counters.last().unwrap().1, total);
    }
}

proptest! {
    /// The wall-clock sampler's series is monotone and its cumulative
    /// counters never decrease, whatever the workload does in between.
    #[test]
    fn sampler_series_is_monotone_on_the_wall_clock(
        adds in proptest::collection::vec(1u64..1_000u64, 1..20),
    ) {
        let telemetry = Telemetry::on();
        let sampler = Sampler::spawn(
            telemetry.clone(),
            Arc::new(WallClock::default()),
            std::time::Duration::from_micros(200),
        );
        for v in &adds {
            telemetry.add(CounterId::NetBytes, *v);
            // Real-time pacing is the property under test (Sampler cadence).
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        let series = sampler.stop();
        prop_assert!(!series.is_empty(), "stop() always takes a final sample");
        prop_assert!(series.is_monotone());
        let counters = series.counter_series(CounterId::NetBytes);
        prop_assert!(counters.windows(2).all(|w| w[0].1 <= w[1].1), "counters are cumulative");
        prop_assert_eq!(counters.last().unwrap().1, adds.iter().sum::<u64>());
    }
}

/// The threaded block queue keeps FIFO order and loses nothing under a
/// randomized producer/stealer/consumer interleaving.
#[test]
fn block_queue_randomized_interleaving() {
    use std::sync::Arc;
    use zipper_core::BlockQueue;
    for trial in 0..10u64 {
        let q = Arc::new(BlockQueue::new(4));
        let n = 120u32;
        let qp = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let id = BlockId::new(Rank(0), StepId(trial), i);
                qp.push(Block::from_payload(
                    Rank(0),
                    StepId(trial),
                    i,
                    n,
                    GlobalPos::default(),
                    deterministic_payload(id, 16),
                ))
                .unwrap();
            }
            qp.close();
        });
        let qs = q.clone();
        let stealer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let (Some(b), _) = qs.steal(2) {
                got.push(b.id().idx);
            }
            got
        });
        let mut popped = Vec::new();
        while let (Some(b), _) = q.pop() {
            popped.push(b.id().idx);
        }
        producer.join().unwrap();
        let stolen = stealer.join().unwrap();
        let mut all: Vec<u32> = popped.iter().chain(stolen.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "trial {trial}");
        // Each consumer's view is individually FIFO (global order is split
        // between the two takers but never reordered within one).
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert!(stolen.windows(2).all(|w| w[0] < w[1]));
    }
}
