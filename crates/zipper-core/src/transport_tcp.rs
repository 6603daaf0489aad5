//! A TCP transport for the Zipper runtime: the cross-process counterpart
//! of the in-process [`crate::ChannelMesh`], so producer and consumer
//! *applications* can run in separate OS processes (or separate machines)
//! exactly as the paper's workflows do — "each participant application is
//! launched by its own mpirun … such that there are multiple failure
//! domains" (§2).
//!
//! The wire format is a self-contained length-prefixed binary framing of
//! [`Wire`] (no external serializer): every field of the block header is
//! encoded explicitly, so the format is stable and inspectable.
//!
//! ```text
//! frame   := u64 body_len | body
//! body    := 0u8 msg | 1u8 eos
//! eos     := u32 producer_rank | u8 channel (0 = Net, 1 = Disk)
//! msg     := u32 n_ids | n_ids × u64 block_id_key
//!          | u8 has_data
//!          | [ u64 id_key | u64 pos.{x,y,z} | u32 blocks_in_step
//!            | u64 payload_len | payload ]
//! ```

// Threaded substrate: real socket timeouts/backoff are this module's job —
// the DES twin models the wire in virtual time.
#![allow(clippy::disallowed_methods)]
use crate::transport::{MeshReceiver, Wire, WireSender};
use bytes::Bytes;
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use zipper_policy::Channel;
use zipper_trace::{CounterId, HistogramId, SpanKind, Telemetry, TraceSink};
use zipper_types::{
    Block, BlockHeader, BlockId, Error, GlobalPos, MixedMessage, Rank, Result, RetryPolicy,
    RuntimeError,
};

/// Upper bound on a single frame body. A length prefix is attacker- (or
/// corruption-) controlled input: without a cap, a flipped bit in the
/// 8-byte prefix would make the reader allocate and zero an arbitrary
/// amount of memory before the first payload byte arrives. 1 GiB is far
/// above any real mixed message (block payloads are megabytes).
pub const MAX_FRAME: usize = 1 << 30;

/// Encode one wire into its frame body (without the length prefix).
pub fn encode_wire(wire: &Wire) -> Vec<u8> {
    let mut out = Vec::new();
    match wire {
        Wire::Eos(rank, channel) => {
            out.push(1u8);
            out.extend_from_slice(&rank.0.to_le_bytes());
            out.push(match channel {
                Channel::Net => 0u8,
                Channel::Disk => 1u8,
            });
        }
        Wire::Msg(m) => {
            out.push(0u8);
            out.extend_from_slice(&(m.on_disk.len() as u32).to_le_bytes());
            for id in &m.on_disk {
                out.extend_from_slice(&id.as_u64().to_le_bytes());
            }
            match &m.data {
                None => out.push(0u8),
                Some(b) => {
                    out.push(1u8);
                    let h = &b.header;
                    out.extend_from_slice(&h.id.as_u64().to_le_bytes());
                    out.extend_from_slice(&h.pos.x.to_le_bytes());
                    out.extend_from_slice(&h.pos.y.to_le_bytes());
                    out.extend_from_slice(&h.pos.z.to_le_bytes());
                    out.extend_from_slice(&h.blocks_in_step.to_le_bytes());
                    out.extend_from_slice(&h.len.to_le_bytes());
                    out.extend_from_slice(&b.payload);
                }
            }
        }
    }
    out
}

/// Decode one frame body back into a wire.
pub fn decode_wire(body: &[u8]) -> Result<Wire> {
    let bad = |what: &str| Error::Storage(format!("malformed TCP frame: {what}"));
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
        // checked_add: `n` can be a hostile 64-bit length; `at + n` must
        // not wrap around and alias an earlier slice.
        let end = at.checked_add(n).ok_or_else(|| bad("truncated"))?;
        let s = body.get(*at..end).ok_or_else(|| bad("truncated"))?;
        *at = end;
        Ok(s)
    };
    let kind = *take(&mut at, 1)?.first().unwrap();
    match kind {
        1 => {
            let rank = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            // The channel byte is mandatory: a 5-byte eos body is the only
            // valid shape. Bodies from the pre-channel format (4 bytes) are
            // rejected, which surfaces as an in-band Transport fault rather
            // than a silently mis-attributed EOS.
            let channel = match *take(&mut at, 1)?.first().unwrap() {
                0 => Channel::Net,
                1 => Channel::Disk,
                other => return Err(bad(&format!("eos channel byte {other}"))),
            };
            if at != body.len() {
                return Err(bad("trailing bytes"));
            }
            Ok(Wire::Eos(Rank(rank), channel))
        }
        0 => {
            let n_ids = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
            // The count is attacker-controlled: every ID takes 8 body
            // bytes, so a count the remaining body cannot hold is
            // malformed — reject it *before* sizing the Vec, otherwise a
            // 4-byte prefix could demand a 32 GiB allocation.
            if n_ids.saturating_mul(8) > body.len().saturating_sub(at) {
                return Err(bad("id count exceeds frame"));
            }
            let mut on_disk = Vec::with_capacity(n_ids);
            for _ in 0..n_ids {
                let key = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
                on_disk.push(BlockId::from_u64(key));
            }
            let has_data = *take(&mut at, 1)?.first().unwrap();
            let data = match has_data {
                0 => None,
                1 => {
                    let key = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
                    let x = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
                    let y = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
                    let z = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
                    let bis = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
                    let len = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap()) as usize;
                    let payload = take(&mut at, len)?;
                    let header = BlockHeader::new(
                        BlockId::from_u64(key),
                        GlobalPos::new(x, y, z),
                        len as u64,
                        bis,
                    );
                    Some(Block::new(header, Bytes::copy_from_slice(payload)))
                }
                other => return Err(bad(&format!("has_data byte {other}"))),
            };
            if at != body.len() {
                return Err(bad("trailing bytes"));
            }
            Ok(Wire::Msg(MixedMessage { data, on_disk }))
        }
        other => Err(bad(&format!("kind byte {other}"))),
    }
}

fn write_frame(stream: &mut TcpStream, wire: &Wire) -> Result<()> {
    let body = encode_wire(wire);
    stream.write_all(&(body.len() as u64).to_le_bytes())?;
    stream.write_all(&body)?;
    Ok(())
}

/// Read one length-prefixed frame body. `Ok(None)` is a clean connection
/// close between frames. `Err` means the stream itself failed or the
/// length prefix can no longer be trusted — no resync is possible. A body
/// that fails to *decode* is not this function's concern: the caller can
/// keep reading, because the length prefix kept the stream aligned.
fn read_body(stream: &mut TcpStream) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 8];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u64::from_le_bytes(len_buf);
    if len > MAX_FRAME as u64 {
        return Err(Error::Storage(format!("oversized TCP frame ({len} bytes)")));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Bind one listener per consumer rank and start acceptor/reader threads.
///
/// Returns the bound addresses (to hand to producers, e.g. through a job
/// launcher or a file) and one [`MeshReceiver`] per consumer rank, directly
/// usable with [`crate::Consumer::spawn`]. Each listener accepts exactly
/// `producers` connections; each connection gets a reader thread that
/// decodes frames into the consumer's wire channel.
pub fn listen_consumers(
    consumers: usize,
    producers: usize,
) -> Result<(Vec<SocketAddr>, Vec<MeshReceiver>)> {
    listen_consumers_traced(consumers, producers, &TraceSink::off())
}

/// [`listen_consumers`] with wire-level tracing: every frame decoded off a
/// socket is recorded as a `Recv` span on lane `net/q{rank}` of `sink`
/// (all connections of one consumer share the lane label, so their spans
/// merge into one timeline row).
fn listen_consumers_traced(
    consumers: usize,
    producers: usize,
    sink: &TraceSink,
) -> Result<(Vec<SocketAddr>, Vec<MeshReceiver>)> {
    assert!(consumers > 0 && producers > 0);
    let mut addrs = Vec::with_capacity(consumers);
    let mut receivers = Vec::with_capacity(consumers);
    for q in 0..consumers {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        let rank = Rank(q as u32);
        let (tx, rx) = unbounded();
        let sink = sink.clone();
        std::thread::Builder::new()
            .name(format!("zipper-tcp-accept-{q}"))
            .spawn(move || {
                for _ in 0..producers {
                    let stream = match listener.accept() {
                        Ok((stream, _peer)) => stream,
                        Err(e) => {
                            let _ = tx.send(Err(RuntimeError::Transport {
                                rank,
                                detail: format!("listener accept failed: {e}"),
                            }));
                            return;
                        }
                    };
                    let conn_tx = tx.clone();
                    let mut rec = sink.recorder(format!("net/q{q}"));
                    let spawned = std::thread::Builder::new()
                        .name("zipper-tcp-read".into())
                        .spawn(move || {
                            let mut stream = stream;
                            loop {
                                match rec.time(SpanKind::Recv, || read_body(&mut stream)) {
                                    Ok(Some(body)) => match decode_wire(&body) {
                                        Ok(wire) => {
                                            if conn_tx.send(Ok(wire)).is_err() {
                                                return;
                                            }
                                        }
                                        // A corrupt body leaves the
                                        // length-prefixed stream aligned on
                                        // the next frame: report the lost
                                        // message in-band and keep reading,
                                        // instead of silently dying and
                                        // leaving the consumer waiting on
                                        // this producer's EOS forever.
                                        Err(e) => {
                                            let fault = RuntimeError::Transport {
                                                rank,
                                                detail: e.to_string(),
                                            };
                                            if conn_tx.send(Err(fault)).is_err() {
                                                return;
                                            }
                                        }
                                    },
                                    Ok(None) => return,
                                    // The socket failed (or the length
                                    // prefix is untrustworthy): surface the
                                    // failure, then give up on this stream.
                                    Err(e) => {
                                        let _ = conn_tx.send(Err(RuntimeError::Transport {
                                            rank,
                                            detail: e.to_string(),
                                        }));
                                        return;
                                    }
                                }
                            }
                        });
                    if let Err(e) = spawned {
                        let _ = tx.send(Err(RuntimeError::Transport {
                            rank,
                            detail: format!("could not spawn tcp reader: {e}"),
                        }));
                        return;
                    }
                }
            })?;
        receivers.push(MeshReceiver::from_channel(rx));
    }
    Ok((addrs, receivers))
}

/// Producer-side TCP endpoint: one connection per consumer rank.
/// Implements [`WireSender`], so it plugs straight into
/// [`crate::Producer::spawn`].
pub struct TcpSender {
    streams: Vec<Mutex<TcpStream>>,
    telemetry: Telemetry,
}

impl TcpSender {
    /// Connect to every consumer listener with the default retry policy
    /// and a 5-second per-attempt timeout.
    pub fn connect(addrs: &[SocketAddr]) -> Result<Self> {
        Self::connect_with(addrs, &RetryPolicy::default(), Duration::from_secs(5))
    }

    /// Connect to every consumer listener, retrying failed attempts under
    /// `policy` with exponential backoff. `timeout` bounds each connect
    /// attempt *and* every subsequent frame write, so a wedged consumer
    /// surfaces as a typed error instead of hanging the sender thread.
    pub fn connect_with(
        addrs: &[SocketAddr],
        policy: &RetryPolicy,
        timeout: Duration,
    ) -> Result<Self> {
        let mut streams = Vec::with_capacity(addrs.len());
        for (i, a) in addrs.iter().enumerate() {
            let mut attempt = 1u32;
            let s = loop {
                match TcpStream::connect_timeout(a, timeout) {
                    Ok(s) => break s,
                    Err(_) if policy.should_retry(attempt) => {
                        std::thread::sleep(policy.backoff(attempt, i as u64));
                        attempt += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            s.set_nodelay(true)?;
            s.set_write_timeout(Some(timeout))?;
            streams.push(Mutex::new(s));
        }
        Ok(TcpSender {
            streams,
            telemetry: Telemetry::off(),
        })
    }

    /// Record per-frame write-blocked time (`net.tcp_stall_ns`) and wire
    /// traffic counters into `telemetry` — the socket-level analogue of
    /// the fabric's `XmitWait` counter.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl WireSender for TcpSender {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        let mut stream = self
            .streams
            .get(to.idx())
            .ok_or(Error::Disconnected("unknown consumer rank"))?
            .lock();
        if !self.telemetry.is_enabled() {
            return write_frame(&mut stream, &wire);
        }
        let t0 = std::time::Instant::now();
        let bytes = wire.wire_bytes();
        let res = write_frame(&mut stream, &wire);
        // Time inside the frame write is time the OS socket buffer (or the
        // peer) made us wait — the TCP sender's stall.
        self.telemetry.add_time(CounterId::TcpStallNs, t0.elapsed());
        if res.is_ok() {
            self.telemetry.add(CounterId::NetBytes, bytes);
            self.telemetry.add(CounterId::NetMessages, 1);
            self.telemetry.observe(HistogramId::SendBytes, bytes);
        }
        res
    }

    fn consumers(&self) -> usize {
        self.streams.len()
    }

    /// Deliver a scripted corruption over the real socket: a garbage body
    /// under a valid length prefix. The reader keeps the stream aligned
    /// (the length prefix is intact), fails to decode the body, and
    /// reports the loss in-band as a `Transport` fault — the same
    /// consumer-visible outcome the in-process mesh produces, but
    /// exercising the wire codec's corruption path for real.
    fn send_fault(&self, to: Rank, _fault: RuntimeError) -> Result<()> {
        let mut stream = self
            .streams
            .get(to.idx())
            .ok_or(Error::Disconnected("unknown consumer rank"))?
            .lock();
        let garbage: [u8; 4] = [0xDE, 0xAD, 0xBE, 0xEF];
        stream.write_all(&(garbage.len() as u64).to_le_bytes())?;
        stream.write_all(&garbage)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::block::deterministic_payload;
    use zipper_types::StepId;

    fn sample_block(len: usize) -> Block {
        let id = BlockId::new(Rank(3), StepId(9), 2);
        Block::new(
            BlockHeader::new(id, GlobalPos::new(7, 8, 9), len as u64, 5),
            deterministic_payload(id, len),
        )
    }

    #[test]
    fn wire_codec_round_trips_every_variant() {
        let wires = [
            Wire::Eos(Rank(42), Channel::Net),
            Wire::Eos(Rank(42), Channel::Disk),
            Wire::Msg(MixedMessage::data_only(sample_block(257))),
            Wire::Msg(MixedMessage::disk_only(vec![
                BlockId::new(Rank(1), StepId(2), 3),
                BlockId::new(Rank(4), StepId(5), 6),
            ])),
            Wire::Msg(MixedMessage::mixed(
                sample_block(64),
                vec![BlockId::new(Rank(0), StepId(0), 0)],
            )),
        ];
        for w in wires {
            let body = encode_wire(&w);
            let back = decode_wire(&body).unwrap();
            match (&w, &back) {
                (Wire::Eos(a, ca), Wire::Eos(b, cb)) => {
                    assert_eq!(a, b);
                    assert_eq!(ca, cb);
                }
                (Wire::Msg(a), Wire::Msg(b)) => assert_eq!(a, b),
                _ => panic!("variant changed in transit"),
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(decode_wire(&[]).is_err());
        assert!(decode_wire(&[9]).is_err()); // unknown kind
        assert!(decode_wire(&[1, 0]).is_err()); // truncated eos
                                                // Pre-channel eos body (rank only, no channel byte) is rejected.
        let mut legacy = vec![1u8];
        legacy.extend_from_slice(&3u32.to_le_bytes());
        assert!(decode_wire(&legacy).is_err());
        // Unknown channel byte.
        let mut bad_ch = vec![1u8];
        bad_ch.extend_from_slice(&3u32.to_le_bytes());
        bad_ch.push(7);
        assert!(decode_wire(&bad_ch).is_err());
        // Valid message with trailing garbage.
        let mut body = encode_wire(&Wire::Eos(Rank(1), Channel::Net));
        body[0] = 0; // claim it's a Msg -> structure no longer matches
        assert!(decode_wire(&body).is_err());
    }

    #[test]
    fn hostile_id_count_rejected_without_allocation() {
        // kind=Msg, n_ids = u32::MAX: claims ~32 GiB of IDs in a 5-byte
        // body. Must fail fast instead of pre-allocating.
        let body = [0u8, 0xFF, 0xFF, 0xFF, 0xFF];
        let err = decode_wire(&body).unwrap_err();
        assert!(err.to_string().contains("id count"), "{err}");
    }

    #[test]
    fn hostile_payload_length_rejected() {
        // A data block claiming a u64::MAX payload length: `take` must
        // not overflow its cursor arithmetic.
        let mut body = vec![0u8]; // Msg
        body.extend_from_slice(&0u32.to_le_bytes()); // no ids
        body.push(1); // has_data
        body.extend_from_slice(&[0u8; 8 * 4 + 4]); // id, pos xyz, blocks_in_step
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // payload len
        assert!(decode_wire(&body).is_err());
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (addrs, receivers) = listen_consumers(2, 1).unwrap();
        let sender = TcpSender::connect(&addrs).unwrap();
        assert_eq!(WireSender::consumers(&sender), 2);
        sender
            .send(
                Rank(0),
                Wire::Msg(MixedMessage::data_only(sample_block(1000))),
            )
            .unwrap();
        sender
            .send(Rank(1), Wire::Eos(Rank(7), Channel::Disk))
            .unwrap();
        match receivers[0].recv().unwrap() {
            Wire::Msg(m) => {
                let b = m.data.unwrap();
                assert_eq!(b.header.len, 1000);
                assert_eq!(b.payload, deterministic_payload(b.id(), 1000));
            }
            w => panic!("unexpected {w:?}"),
        }
        match receivers[1].recv().unwrap() {
            Wire::Eos(r, ch) => {
                assert_eq!(r, Rank(7));
                assert_eq!(ch, Channel::Disk);
            }
            w => panic!("unexpected {w:?}"),
        }
    }

    #[test]
    fn corrupt_frame_is_reported_in_band_and_stream_survives() {
        let (addrs, receivers) = listen_consumers(1, 1).unwrap();
        let mut raw = TcpStream::connect(addrs[0]).unwrap();
        // Garbage body under a valid length prefix: framing stays aligned.
        let garbage = [9u8, 1, 2, 3];
        raw.write_all(&(garbage.len() as u64).to_le_bytes())
            .unwrap();
        raw.write_all(&garbage).unwrap();
        // A valid frame right behind it must still get through.
        let body = encode_wire(&Wire::Eos(Rank(5), Channel::Net));
        raw.write_all(&(body.len() as u64).to_le_bytes()).unwrap();
        raw.write_all(&body).unwrap();
        let err = receivers[0].recv().unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RuntimeError::Transport { .. })),
            "{err:?}"
        );
        match receivers[0].recv().unwrap() {
            Wire::Eos(r, _) => assert_eq!(r, Rank(5)),
            w => panic!("unexpected {w:?}"),
        }
    }

    #[test]
    fn send_fault_surfaces_in_band_and_stream_survives() {
        let (addrs, receivers) = listen_consumers(1, 1).unwrap();
        let sender = TcpSender::connect(&addrs).unwrap();
        sender
            .send_fault(
                Rank(0),
                RuntimeError::Transport {
                    rank: Rank(0),
                    detail: "scripted".into(),
                },
            )
            .unwrap();
        sender
            .send(Rank(0), Wire::Eos(Rank(2), Channel::Net))
            .unwrap();
        let err = receivers[0].recv().unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RuntimeError::Transport { .. })),
            "{err:?}"
        );
        match receivers[0].recv().unwrap() {
            Wire::Eos(r, ch) => {
                assert_eq!(r, Rank(2));
                assert_eq!(ch, Channel::Net);
            }
            w => panic!("unexpected {w:?}"),
        }
    }

    #[test]
    fn connect_to_dead_consumer_errors_after_bounded_retry() {
        // Bind then drop so the port is closed when we dial it.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = RetryPolicy::new(2, Duration::from_millis(1), Duration::from_millis(2));
        let r = TcpSender::connect_with(&[addr], &policy, Duration::from_millis(200));
        assert!(r.is_err(), "connect to a dead listener must fail, not hang");
    }
}
