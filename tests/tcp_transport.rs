//! End-to-end workflow over the TCP transport: producer and consumer
//! runtime modules exchanging mixed messages through real sockets —
//! the cross-process deployment shape of the paper's workflows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use zipper_core::{encode_wire, listen_consumers, Consumer, Producer, TcpSender, Wire, MAX_FRAME};
use zipper_pfs::MemFs;
use zipper_policy::Channel;
use zipper_types::block::deterministic_payload;
use zipper_types::MixedMessage;
use zipper_types::{
    Block, BlockId, ByteSize, GlobalPos, PreserveMode, Rank, RoutingPolicy, RuntimeError, StepId,
    ZipperTuning,
};

/// This binary's allocator: the system one, recording the largest single
/// request, so a test can show that no buffer was sized by a length
/// prefix alone.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Write `wire` to `raw` as one frame.
fn write_frame(raw: &mut TcpStream, wire: &Wire) {
    let body = encode_wire(wire);
    raw.write_all(&(body.len() as u64).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
}

fn tuning() -> ZipperTuning {
    ZipperTuning {
        block_size: ByteSize::kib(8),
        producer_slots: 8,
        high_water_mark: 5,
        consumer_slots: 64,
        concurrent_transfer: true,
        preserve: PreserveMode::NoPreserve,
        routing: RoutingPolicy::SourceAffine,
        eos_timeout: Some(std::time::Duration::from_secs(30)),
        recovery: Default::default(),
    }
}

#[test]
fn full_workflow_over_real_sockets() {
    let producers = 3usize;
    let consumers = 2usize;
    let blocks_per_producer = 40u32;
    let block_len = 8 << 10;

    // In a real deployment the consumer job binds and publishes its
    // addresses; the producer job connects. Here both run in one test
    // process, still through the loopback TCP stack.
    let (addrs, receivers) = listen_consumers(consumers, producers).unwrap();
    let storage = Arc::new(MemFs::new());

    let mut consumer_handles = Vec::new();
    for (q, rx) in receivers.into_iter().enumerate() {
        let mut c = Consumer::spawn(Rank(q as u32), tuning(), producers, rx, storage.clone());
        let reader = c.reader();
        consumer_handles.push((
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(b) = reader.read() {
                    assert_eq!(
                        b.payload,
                        deterministic_payload(b.id(), b.payload.len()),
                        "payload corrupted in TCP transit"
                    );
                    seen.push(b.id());
                }
                seen
            }),
            c,
        ));
    }

    let mut producer_handles = Vec::new();
    for p in 0..producers {
        let sender = TcpSender::connect(&addrs).unwrap();
        let mut prod = Producer::spawn(Rank(p as u32), tuning(), sender, storage.clone());
        let writer = prod.writer(block_len);
        producer_handles.push((
            std::thread::spawn(move || {
                for i in 0..blocks_per_producer {
                    let id = BlockId::new(Rank(p as u32), StepId(0), i);
                    writer.write(Block::from_payload(
                        Rank(p as u32),
                        StepId(0),
                        i,
                        blocks_per_producer,
                        GlobalPos::default(),
                        deterministic_payload(id, block_len),
                    ));
                }
                writer.finish();
            }),
            prod,
        ));
    }

    for (h, prod) in producer_handles {
        h.join().unwrap();
        let pm = prod.join();
        assert!(pm.errors.is_empty(), "{:?}", pm.errors);
    }
    let mut all = Vec::new();
    for (h, c) in consumer_handles {
        all.extend(h.join().unwrap());
        let m = c.join();
        assert!(m.errors.is_empty(), "{:?}", m.errors);
    }
    let unique: HashSet<BlockId> = all.iter().copied().collect();
    assert_eq!(all.len(), producers * blocks_per_producer as usize);
    assert_eq!(unique.len(), all.len(), "duplicate deliveries over TCP");
}

/// A frame drip-fed one byte at a time — length prefix included — must
/// reassemble on the consumer side exactly as if it arrived whole. TCP
/// gives no framing guarantees; the reader's `read_exact` loop is what
/// turns an arbitrary byte dribble back into frames.
#[test]
fn partial_writes_reassemble_into_whole_frames() {
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    raw.set_nodelay(true).unwrap();

    let id = BlockId::new(Rank(0), StepId(4), 1);
    let block = Block::from_payload(
        Rank(0),
        StepId(4),
        1,
        2,
        GlobalPos::default(),
        deterministic_payload(id, 512),
    );
    let body = encode_wire(&Wire::Msg(MixedMessage::data_only(block)));
    let mut frame = (body.len() as u64).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    // Byte-at-a-time: every read on the far side sees a short count.
    for b in &frame {
        raw.write_all(std::slice::from_ref(b)).unwrap();
        raw.flush().unwrap();
    }
    // A second frame split across the length-prefix boundary.
    let body2 = encode_wire(&Wire::Eos(Rank(0), zipper_policy::Channel::Net));
    let mut frame2 = (body2.len() as u64).to_le_bytes().to_vec();
    frame2.extend_from_slice(&body2);
    let (head, tail) = frame2.split_at(3);
    raw.write_all(head).unwrap();
    raw.flush().unwrap();
    raw.write_all(tail).unwrap();
    drop(raw);

    match receivers[0].recv().unwrap() {
        Wire::Msg(m) => {
            let b = m.data.unwrap();
            assert_eq!(b.id(), id);
            assert_eq!(b.payload, deterministic_payload(id, 512));
        }
        w => panic!("unexpected {w:?}"),
    }
    match receivers[0].recv().unwrap() {
        Wire::Eos(r, _) => assert_eq!(r, Rank(0)),
        w => panic!("unexpected {w:?}"),
    }
    // Clean close after the last frame ends the stream without an error
    // wire; the channel simply disconnects.
    assert!(receivers[0].recv().is_err());
}

/// A hostile length prefix (larger than [`MAX_FRAME`]) must drop the
/// connection instead of allocating the claimed buffer — the reader
/// rejects the frame before touching the allocator, so this returns
/// promptly rather than OOMing or hanging.
#[test]
fn oversized_length_prefix_drops_the_connection() {
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    raw.write_all(&((MAX_FRAME as u64) + 1).to_le_bytes())
        .unwrap();
    raw.flush().unwrap();
    // Reader thread rejects before touching the allocator, reports the
    // failure in-band as a typed transport fault, and exits. No wire ever
    // arrives.
    let err = receivers[0].recv().unwrap_err();
    assert!(
        matches!(
            err,
            zipper_types::Error::Runtime(zipper_types::RuntimeError::Transport { .. })
        ),
        "{err:?}"
    );
}

/// A length prefix of a full [`MAX_FRAME`] followed by a close: the
/// reader reserves a bounded buffer, not the gibibyte the prefix claims,
/// and the cut frame is a typed transport fault.
#[test]
fn a_gib_prefix_then_close_reserves_no_gib() {
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    raw.write_all(&(MAX_FRAME as u64).to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 10]).unwrap();
    drop(raw);
    let err = receivers[0].recv().unwrap_err();
    assert!(
        matches!(
            err,
            zipper_types::Error::Runtime(RuntimeError::Transport { .. })
        ),
        "{err:?}"
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < MAX_FRAME, "a {largest}-byte buffer was reserved");
}

/// A data block or EOS mark naming a producer rank the listener was not
/// built for is an in-band transport fault: the consumer records it and
/// ends on the real producer's marks, instead of its receiver panicking on
/// an unknown rank.
#[test]
fn a_foreign_producer_rank_is_a_transport_fault() {
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let rx = receivers.into_iter().next().unwrap();
    let mut c = Consumer::spawn(Rank(0), tuning(), 1, rx, Arc::new(MemFs::new()));
    let reader = c.reader();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    let payload = deterministic_payload(BlockId::new(Rank(9), StepId(0), 0), 16);
    write_frame(&mut raw, &frame_of(9, 0, &payload));
    for (p, channel) in [(7, Channel::Net), (0, Channel::Net), (0, Channel::Disk)] {
        write_frame(&mut raw, &Wire::Eos(Rank(p), channel));
    }
    assert!(reader.read().is_none(), "no foreign block is delivered");
    drop(reader);
    let m = c.join();
    assert!(
        matches!(
            m.errors[..],
            [
                RuntimeError::Transport { .. },
                RuntimeError::Transport { .. }
            ]
        ),
        "{:?}",
        m.errors
    );
}

/// An EOS mark from a valid producer rank that cannot route here is
/// ignored. Under SourceAffine with two consumers, consumer 0 waits for
/// producer 0 only; producer 1's forged marks on both channels, sent
/// between two of producer 0's blocks, must neither complete the stream
/// (the second block would be lost) nor crash the receiver.
#[test]
fn a_mark_from_a_non_routing_producer_neither_completes_nor_crashes() {
    let (addrs, receivers) = listen_consumers(2, 2).unwrap();
    let rx = receivers.into_iter().next().unwrap();
    let mut c = Consumer::spawn(Rank(0), tuning(), 2, rx, Arc::new(MemFs::new()));
    let reader = c.reader();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    let block = |idx| {
        let payload = deterministic_payload(BlockId::new(Rank(0), StepId(0), idx), 16);
        frame_of(0, idx, &payload)
    };
    write_frame(&mut raw, &block(0));
    for channel in [Channel::Net, Channel::Disk] {
        write_frame(&mut raw, &Wire::Eos(Rank(1), channel));
    }
    write_frame(&mut raw, &block(1));
    for channel in [Channel::Net, Channel::Disk] {
        write_frame(&mut raw, &Wire::Eos(Rank(0), channel));
    }
    let mut delivered = Vec::new();
    while let Some(b) = reader.read() {
        delivered.push(b.id().idx);
    }
    assert_eq!(
        delivered,
        vec![0, 1],
        "the stream outlived the forged marks"
    );
    drop(reader);
    let m = c.join();
    assert!(m.errors.is_empty(), "{:?}", m.errors);
    // Let both listeners finish accepting their two producers.
    for addr in [addrs[0], addrs[1], addrs[1]] {
        drop(TcpStream::connect(addr).unwrap());
    }
}

/// A stream that dies mid-body (short read) must not deliver a partial
/// wire: frames already completed arrive, the truncated one does not.
#[test]
fn truncated_frame_body_is_not_delivered() {
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let mut raw = TcpStream::connect(addrs[0]).unwrap();
    // One complete frame first.
    let ids = vec![BlockId::new(Rank(2), StepId(0), 5)];
    write_frame(&mut raw, &Wire::Msg(MixedMessage::disk_only(ids)));
    // Then a frame that claims 100 bytes but delivers 10 before dying.
    raw.write_all(&100u64.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 10]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    match receivers[0].recv().unwrap() {
        Wire::Msg(m) => assert_eq!(m.on_disk, vec![BlockId::new(Rank(2), StepId(0), 5)]),
        w => panic!("unexpected {w:?}"),
    }
    // The truncated frame surfaces as a typed transport fault, never as a
    // partial wire.
    let err = receivers[0].recv().unwrap_err();
    assert!(
        matches!(
            err,
            zipper_types::Error::Runtime(zipper_types::RuntimeError::Transport { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn source_affinity_survives_the_socket_path() {
    let (addrs, receivers) = listen_consumers(2, 2).unwrap();
    let storage = Arc::new(MemFs::new());
    let mut handles = Vec::new();
    for (q, rx) in receivers.into_iter().enumerate() {
        let mut c = Consumer::spawn(Rank(q as u32), tuning(), 2, rx, storage.clone());
        let reader = c.reader();
        handles.push((
            std::thread::spawn(move || {
                let mut srcs = HashSet::new();
                while let Some(b) = reader.read() {
                    srcs.insert(b.id().src.0);
                }
                srcs
            }),
            c,
        ));
    }
    for p in 0..2u32 {
        let sender = TcpSender::connect(&addrs).unwrap();
        let mut prod = Producer::spawn(Rank(p), tuning(), sender, storage.clone());
        let writer = prod.writer(1024);
        for i in 0..10u32 {
            let id = BlockId::new(Rank(p), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(p),
                StepId(0),
                i,
                10,
                GlobalPos::default(),
                deterministic_payload(id, 1024),
            ));
        }
        writer.finish();
        let pm = prod.join();
        assert!(pm.errors.is_empty(), "{:?}", pm.errors);
    }
    for (q, (h, c)) in handles.into_iter().enumerate() {
        let srcs = h.join().unwrap();
        assert_eq!(srcs, HashSet::from([q as u32]));
        c.join();
    }
}

fn frame_of(src: u32, idx: u32, payload: &bytes::Bytes) -> Wire {
    Wire::Msg(MixedMessage::data_only(Block::from_payload(
        Rank(src),
        StepId(0),
        idx,
        1,
        GlobalPos::default(),
        payload.clone(),
    )))
}

/// The consumer's inbox is bounded, so a consumer that does not read stops
/// its producers: 64 wires in the inbox, one in each reader's hands, what
/// the kernel's socket buffers hold — and then `TcpSender::send` blocks.
/// That wait is backpressure, not a fault: once the consumer drains,
/// every frame arrives once, in per-connection order.
///
/// A timing test by nature. The senders count as stalled once their
/// progress counter has not moved for 100 ms (they reach the plateau in
/// ~20 ms); the 5 s write timeout of `TcpSender::connect` must not expire
/// before the drain starts (~0.5 s in).
#[test]
// Real sockets, real time: "stalled" can only be observed by waiting.
#[allow(clippy::disallowed_methods)]
fn a_consumer_that_does_not_read_throttles_its_producers() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const CONNECTIONS: u32 = 2;
    const FRAMES_EACH: u32 = 5_000;
    let (addrs, receivers) = listen_consumers(1, CONNECTIONS as usize).unwrap();
    let payload = deterministic_payload(BlockId::new(Rank(0), StepId(0), 0), 64 << 10);
    let sent = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let senders: Vec<_> = (0..CONNECTIONS)
            .map(|p| {
                let (addrs, payload, sent) = (&addrs, &payload, &sent);
                s.spawn(move || {
                    let sender = TcpSender::connect(addrs).unwrap();
                    for i in 0..FRAMES_EACH {
                        zipper_core::WireSender::send(&sender, Rank(0), frame_of(p, i, payload))?;
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    zipper_types::Result::Ok(())
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut stalled_at = sent.load(Ordering::Relaxed);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let now = sent.load(Ordering::Relaxed);
            if now == stalled_at {
                break;
            }
            stalled_at = now;
        }
        eprintln!("senders stalled after {stalled_at} frames");
        assert!(
            stalled_at < 2_000,
            "{stalled_at} of 10,000 frames sent to a consumer that reads nothing: no backpressure"
        );
        assert!(senders.iter().all(|h| !h.is_finished()), "a sender gave up");

        let mut next = [0u32; CONNECTIONS as usize];
        for _ in 0..CONNECTIONS * FRAMES_EACH {
            match receivers[0].recv().expect("no transport fault") {
                Wire::Msg(m) => {
                    let b = m.data.expect("data wire");
                    let src = b.id().src.idx();
                    assert_eq!(b.id().idx, next[src], "out of order on connection {src}");
                    assert_eq!(b.payload, payload);
                    next[src] += 1;
                }
                w => panic!("unexpected {w:?}"),
            }
        }
        for h in senders {
            h.join().unwrap().expect("backpressure is not an error");
        }
        // Both senders closed their sockets after the last frame.
        assert!(matches!(
            receivers[0].recv(),
            Err(zipper_types::Error::Disconnected(_))
        ));
    });
}

/// A write that times out part-way through a frame leaves the stream
/// misaligned for good. The sender shuts the connection down and refuses
/// every later send at once (a retry must not resend onto a torn stream);
/// the receiver delivers the complete frames, reports the cut one as
/// exactly one `Transport` fault, and never decodes a mis-framed wire.
#[test]
fn a_torn_frame_poisons_the_connection() {
    use zipper_core::WireSender;
    use zipper_types::{Error, RetryPolicy, RuntimeError};
    let (addrs, receivers) = listen_consumers(1, 1).unwrap();
    let timeout = std::time::Duration::from_millis(50);
    let once = RetryPolicy::new(1, timeout, timeout);
    let sender = TcpSender::connect_with(&addrs, &once, timeout).unwrap();

    // Nobody drains the inbox: 64 of these fill it, the reader blocks with
    // the 65th in hand, the rest wait in the socket buffers (a few KiB).
    let small = deterministic_payload(BlockId::new(Rank(0), StepId(0), 0), 16);
    const SMALL_FRAMES: u32 = 70;
    for i in 0..SMALL_FRAMES {
        sender.send(Rank(0), frame_of(0, i, &small)).unwrap();
    }
    // More than any socket buffering can hold: the write is accepted in
    // part, then no byte moves for `timeout`.
    let huge = bytes::Bytes::from(vec![0u8; 64 << 20]);
    let torn = sender.send(Rank(0), frame_of(0, SMALL_FRAMES, &huge));
    assert!(matches!(torn, Err(Error::Storage(_))), "{torn:?}");
    for _ in 0..3 {
        let refused = sender.send(Rank(0), frame_of(0, 0, &small));
        assert!(
            matches!(refused, Err(Error::Disconnected(_))),
            "{refused:?}"
        );
    }
    let fault = RuntimeError::Transport {
        rank: Rank(0),
        detail: "scripted".into(),
    };
    assert!(matches!(
        sender.send_fault(Rank(0), fault),
        Err(Error::Disconnected(_))
    ));

    for i in 0..SMALL_FRAMES {
        match receivers[0].recv().expect("complete frames arrive") {
            Wire::Msg(m) => assert_eq!(m.data.expect("data wire").id().idx, i),
            w => panic!("unexpected {w:?}"),
        }
    }
    let cut = receivers[0].recv().unwrap_err();
    assert!(
        matches!(cut, Error::Runtime(RuntimeError::Transport { .. })),
        "{cut:?}"
    );
    let end = receivers[0].recv().unwrap_err();
    assert!(matches!(end, Error::Disconnected(_)), "{end:?}");
}
