//! Shutdown races: the teardown orderings that used to hang or abort the
//! runtime. Every scenario here must end with the failure *typed* in the
//! [`WorkflowReport`] (or a `Result` at the queue layer) — never a hang,
//! which is why each workflow runs under a hard test-level deadline.

use bytes::Bytes;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use zipper_core::{BlockQueue, ChannelMesh, Consumer, Wire, WireSender};
use zipper_pfs::{MemFs, Storage};
use zipper_policy::{Channel, PolicyEvent, RetireReason};
use zipper_types::block::deterministic_payload;
use zipper_types::{
    BackpressureScript, Block, BlockId, ByteSize, GateRule, GlobalPos, PreserveMode, Rank,
    RuntimeError, StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow, run_workflow_with, NetworkOptions, RunOptions, StorageOptions, TraceOptions,
    WorkflowReport,
};

/// Run `f` on its own thread and panic if it does not finish within
/// `deadline` — the "never hang" half of every assertion in this file.
fn with_deadline<T: Send + 'static>(
    deadline: Duration,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(format!("deadline-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn deadline thread");
    let out = rx
        .recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("{name}: runtime hung past {deadline:?}"));
    thread.join().expect("deadline thread itself panicked");
    out
}

fn cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig {
        producers: 2,
        consumers: 1,
        steps: 6,
        bytes_per_rank_step: ByteSize::kib(64),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(8);
    cfg.tuning.producer_slots = 4;
    cfg.tuning.high_water_mark = 2;
    // Back-stop for anything this suite gets wrong: a leaked stream trips
    // the watchdog long before the test deadline.
    cfg.tuning.eos_timeout = Some(Duration::from_secs(5));
    cfg
}

/// Pushing into a closed queue is a typed error, not a panic — the
/// shutdown race where a runtime thread is mid-`push` while the consumer
/// side tears the queue down.
#[test]
fn push_after_close_is_an_error_not_a_panic() {
    let q = BlockQueue::new(4);
    let id = BlockId::new(Rank(0), StepId(0), 0);
    let block = Block::from_payload(
        Rank(0),
        StepId(0),
        0,
        1,
        GlobalPos::default(),
        deterministic_payload(id, 64),
    );
    q.push(block.clone()).unwrap();
    q.close();
    assert!(q.push(block).is_err(), "push after close must refuse");
    // The block accepted before the close still drains.
    assert!(q.pop().0.is_some());
    assert!(q.pop().0.is_none());
}

/// A producer application that dies mid-step: the panic is caught, the
/// rank's runtime tears down through its drop guards (the sender still
/// flushes EOS, so consumers terminate normally), and the report carries
/// the typed panic. The surviving producer's data all arrives.
#[test]
fn producer_app_panic_mid_step_is_reported_not_fatal() {
    let cfg = cfg();
    let healthy = cfg.steps * cfg.blocks_per_rank_step();
    let total = cfg.total_blocks();
    let (report, counts): (WorkflowReport, Vec<u64>) =
        with_deadline(Duration::from_secs(60), "producer-panic", move || {
            run_workflow(
                &cfg,
                NetworkOptions::default(),
                StorageOptions::Memory,
                |rank, writer| {
                    let steps = 6u64;
                    let slab = 64 << 10;
                    for s in 0..steps {
                        if rank == Rank(0) && s == 2 {
                            panic!("injected producer death at step {s}");
                        }
                        writer.write_slab(
                            StepId(s),
                            GlobalPos::default(),
                            Bytes::from(vec![rank.0 as u8; slab]),
                        );
                    }
                },
                |_r, reader| {
                    let mut n = 0u64;
                    while reader.read().is_some() {
                        n += 1;
                    }
                    n
                },
            )
        });
    let errors = report.errors();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            RuntimeError::AppPanicked {
                rank: Rank(0),
                role: "producer app",
                ..
            }
        )),
        "expected the caught producer panic, got {errors:?}"
    );
    // The healthy producer's full output arrived; the dead one delivered
    // at least its pre-panic steps.
    let delivered: u64 = counts.iter().sum();
    assert!(
        delivered >= healthy,
        "surviving producer lost data: {delivered} < {healthy}"
    );
    assert!(delivered < total, "dead producer cannot have finished");
}

/// A consumer application that dies mid-stream: its reader's drop guard
/// closes the queue, the receiver switches to discarding (so producers
/// never block on the dead rank's full inbox), and the report carries both
/// the typed panic and the abandoned stream. Producers still finish their
/// entire output under the deadline.
#[test]
fn consumer_dropped_mid_stream_is_reported_and_producers_finish() {
    let cfg = cfg();
    let total = cfg.total_blocks();
    let (report, results): (WorkflowReport, Vec<u64>) =
        with_deadline(Duration::from_secs(60), "consumer-death", move || {
            run_workflow(
                &cfg,
                // Tiny inbox: without the receiver's discard path, the
                // producers would wedge on the dead consumer's backpressure.
                NetworkOptions::unthrottled(2),
                StorageOptions::Memory,
                |rank, writer| {
                    for s in 0..6u64 {
                        writer.write_slab(
                            StepId(s),
                            GlobalPos::default(),
                            Bytes::from(vec![rank.0 as u8; 64 << 10]),
                        );
                    }
                },
                |_r, reader| {
                    let mut n = 0u64;
                    while reader.read().is_some() {
                        n += 1;
                        if n == 3 {
                            panic!("injected consumer death after {n} blocks");
                        }
                    }
                    n
                },
            )
        });
    // The dead consumer produced no result…
    assert!(
        results.is_empty(),
        "a dead consumer must not yield a result"
    );
    // …but every producer still flushed its entire stream.
    assert_eq!(report.producer_total().blocks_written, total);
    let errors = report.errors();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            RuntimeError::AppPanicked {
                role: "consumer app",
                ..
            }
        )),
        "expected the caught consumer panic, got {errors:?}"
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, RuntimeError::ReaderAbandoned { .. })),
        "expected the abandoned-stream report, got {errors:?}"
    );
}

/// Both shutdown races at once under repetition: a producer and a consumer
/// die in the same run, over several trials to widen the race windows. The
/// run must always terminate with typed errors — never hang, never abort.
#[test]
fn combined_producer_and_consumer_death_always_terminates() {
    for trial in 0..5 {
        let cfg = cfg();
        let (report, _results): (WorkflowReport, Vec<u64>) =
            with_deadline(Duration::from_secs(60), "combined-death", move || {
                run_workflow(
                    &cfg,
                    NetworkOptions::unthrottled(2),
                    StorageOptions::Memory,
                    move |rank, writer| {
                        for s in 0..6u64 {
                            if rank == Rank(1) && s == 3 {
                                panic!("injected producer death (trial {trial})");
                            }
                            writer.write_slab(
                                StepId(s),
                                GlobalPos::default(),
                                Bytes::from(vec![rank.0 as u8; 64 << 10]),
                            );
                        }
                    },
                    |_r, reader| {
                        let mut n = 0u64;
                        while reader.read().is_some() {
                            n += 1;
                            if n == 2 {
                                panic!("injected consumer death");
                            }
                        }
                        n
                    },
                )
            });
        let errors = report.errors();
        let producer_panics = errors
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RuntimeError::AppPanicked {
                        role: "producer app",
                        ..
                    }
                )
            })
            .count();
        let consumer_panics = errors
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RuntimeError::AppPanicked {
                        role: "consumer app",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(producer_panics, 1, "trial {trial}: {errors:?}");
        assert_eq!(consumer_panics, 1, "trial {trial}: {errors:?}");
    }
}

/// A store whose `put` and/or `get` panics instead of returning an error —
/// what any `StorageOptions::Custom` backend can do to the runtime thread
/// that called it.
struct PanickyFs {
    inner: MemFs,
    put_panics: bool,
    get_panics: bool,
}

impl Storage for PanickyFs {
    fn put(&self, block: &Block) -> zipper_types::Result<()> {
        assert!(!self.put_panics, "injected panic in Storage::put");
        self.inner.put(block)
    }
    fn get(&self, id: BlockId) -> zipper_types::Result<Block> {
        assert!(!self.get_panics, "injected panic in Storage::get");
        self.inner.get(id)
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
}

/// A panic in any runtime thread ends in a finished `join` carrying an
/// `AppPanicked` error naming the thread — never a hang. One producer, one
/// consumer, 24 blocks; each case breaks one thread.
///
/// The sender thread is not in the table: its panic is folded by
/// `Producer::join` like the others, but nothing announces EOS for it, so
/// the consumers end by the EOS watchdog — unchanged, and not extended
/// here.
#[test]
fn a_panic_in_any_runtime_thread_is_folded_into_a_finished_join() {
    struct Case {
        name: &'static str,
        role: &'static str,
        put_panics: bool,
        get_panics: bool,
        /// Slow mesh with a one-wire inbox, so blocks back up behind the
        /// sender and the writer is certain to steal.
        congested: bool,
        high_water_mark: usize,
        concurrent_transfer: bool,
        preserve: PreserveMode,
        backpressure: Option<BackpressureScript>,
        check: fn(&WorkflowReport),
    }
    /// The panicked writer is accounted like one that died of a fault:
    /// the kernel heard `writer_retired(Fault)`, one `WriterRetired` error,
    /// the stolen-but-unstored block is lost, every other block arrives.
    fn writer_died_like_a_fault(report: &WorkflowReport) {
        let retired = report
            .errors()
            .iter()
            .filter(|e| matches!(e, RuntimeError::WriterRetired { .. }))
            .count();
        assert_eq!(retired, 1, "{:?}", report.errors());
        let fault = PolicyEvent::WriterRetired {
            reason: RetireReason::Fault,
        };
        let decisions = report.producer_decisions[0].events();
        assert_eq!(decisions.iter().filter(|e| **e == fault).count(), 1);
        let p = report.producer_total();
        assert_eq!(p.blocks_stolen, 0, "the one steal never reached the PFS");
        assert_eq!(p.blocks_sent, p.blocks_written - 1);
        assert_eq!(report.consumer_total().blocks_delivered, p.blocks_sent);
    }
    let cases = [
        Case {
            name: "writer",
            role: "producer writer thread",
            put_panics: true,
            get_panics: false,
            congested: true,
            high_water_mark: 0,
            concurrent_transfer: true,
            preserve: PreserveMode::NoPreserve,
            backpressure: None,
            check: writer_died_like_a_fault,
        },
        Case {
            // The sender is parked at its first wire until the writer has
            // stolen a block; the writer dies stealing it. The dying writer
            // must fail the gate open or the sender is never released.
            name: "writer-with-armed-steal-window",
            role: "producer writer thread",
            put_panics: true,
            get_panics: false,
            congested: false,
            high_water_mark: 2,
            concurrent_transfer: true,
            preserve: PreserveMode::NoPreserve,
            backpressure: Some(BackpressureScript::new().with(
                Rank(0),
                1,
                GateRule::OpenAfterSteals(1),
            )),
            check: writer_died_like_a_fault,
        },
        Case {
            name: "consumer-reader",
            role: "consumer reader thread",
            put_panics: false,
            get_panics: true,
            congested: true,
            high_water_mark: 0,
            concurrent_transfer: true,
            preserve: PreserveMode::NoPreserve,
            backpressure: None,
            // The reader died on its first fetch: the stolen blocks are
            // lost, the message channel's all arrive.
            check: |report| {
                let p = report.producer_total();
                assert!(p.blocks_stolen > 0, "nothing was stolen, nothing fetched");
                assert_eq!(p.blocks_sent + p.blocks_stolen, p.blocks_written);
                assert_eq!(report.consumer_total().blocks_delivered, p.blocks_sent);
            },
        },
        Case {
            name: "consumer-output",
            role: "consumer output thread",
            put_panics: true,
            get_panics: false,
            congested: false,
            high_water_mark: 2,
            concurrent_transfer: false,
            preserve: PreserveMode::Preserve,
            backpressure: None,
            // Preservation is lost, delivery is not.
            check: |report| {
                let written = report.producer_total().blocks_written;
                assert_eq!(report.consumer_total().blocks_delivered, written);
                assert_eq!(report.consumer_total().blocks_stored, 0);
            },
        },
    ];
    for case in cases {
        let mut cfg = cfg();
        cfg.producers = 1;
        cfg.steps = 3;
        cfg.tuning.high_water_mark = case.high_water_mark;
        cfg.tuning.concurrent_transfer = case.concurrent_transfer;
        cfg.tuning.preserve = case.preserve;
        let opts = RunOptions {
            net: NetworkOptions {
                backpressure: case.backpressure,
                ..if case.congested {
                    NetworkOptions::throttled(1, 2e6, Duration::ZERO)
                } else {
                    NetworkOptions::default()
                }
            },
            storage: StorageOptions::Custom(Arc::new(PanickyFs {
                inner: MemFs::new(),
                put_panics: case.put_panics,
                get_panics: case.get_panics,
            })),
            trace: TraceOptions::default().with_policy(),
            ..Default::default()
        };
        let (report, _counts): (WorkflowReport, Vec<u64>) =
            with_deadline(Duration::from_secs(60), case.name, move || {
                run_workflow_with(
                    &cfg,
                    opts,
                    |rank, writer| {
                        for s in 0..3u64 {
                            writer.write_slab(
                                StepId(s),
                                GlobalPos::default(),
                                Bytes::from(vec![rank.0 as u8; 64 << 10]),
                            );
                        }
                    },
                    |_r, reader| reader.iter().count() as u64,
                )
                .expect("no preflight gate is set")
            });
        let errors = report.errors();
        let panics: Vec<_> = errors
            .iter()
            .filter(|e| matches!(e, RuntimeError::AppPanicked { .. }))
            .collect();
        assert!(
            matches!(panics[..], [RuntimeError::AppPanicked { role, .. }] if *role == case.role),
            "{}: expected one panic of the {}, got {errors:?}",
            case.name,
            case.role
        );
        assert_eq!(report.producer_total().blocks_written, 24, "{}", case.name);
        (case.check)(&report);
    }

    // The receiver: an EOS mark naming a producer that does not exist — a
    // hostile or confused peer can put one on the wire — trips the policy
    // kernel's range assertion inside the receiver thread. The reader
    // thread ends with it, the queue closes, the application's read ends.
    let errors = with_deadline(Duration::from_secs(60), "consumer-receiver", || {
        let mesh = ChannelMesh::new(1, 4);
        let mut cons = Consumer::spawn(
            Rank(0),
            cfg().tuning,
            1,
            mesh.take_receiver(Rank(0)).unwrap(),
            Arc::new(MemFs::new()),
        );
        let reader = cons.reader();
        let sender = mesh.sender();
        sender
            .send(Rank(0), Wire::Eos(Rank(7), Channel::Net))
            .unwrap();
        assert!(reader.read().is_none(), "the dead rank's stream ends");
        cons.join().errors
    });
    assert!(
        matches!(
            errors[..],
            [RuntimeError::AppPanicked {
                role: "consumer receiver thread",
                ..
            }]
        ),
        "{errors:?}"
    );
}
