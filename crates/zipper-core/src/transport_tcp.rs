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
//!
//! A payload byte is never copied in user space on this path: the sender
//! writes it to the socket straight from the block's `Bytes`, beside a
//! separately encoded head; the reader hands out a block whose payload
//! aliases the buffer its frame was read into. Each consumer's inbox is
//! bounded, so a slow consumer throttles its producers through the socket
//! (DESIGN.md, "Failure semantics", states the stall chain once).

// Threaded substrate: real socket timeouts/backoff are this module's job —
// the DES twin models the wire in virtual time.
#![allow(clippy::disallowed_methods)]
use crate::transport::{MeshReceiver, Wire, WireItem, WireSender};
use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::Duration;
use zipper_policy::Channel;
use zipper_trace::{CounterId, HistogramId, Telemetry};
use zipper_types::{
    Block, BlockHeader, BlockId, Error, GlobalPos, MixedMessage, Rank, Result, RetryPolicy,
    RuntimeError,
};

/// Upper bound on a single frame body. A length prefix is attacker- (or
/// corruption-) controlled input: without a cap, a flipped bit in the
/// 8-byte prefix would make the reader reserve an arbitrary amount of
/// memory before the first payload byte arrives. 1 GiB is far above any
/// real mixed message (block payloads are megabytes).
pub const MAX_FRAME: usize = 1 << 30;

/// Most a frame's body buffer reserves before its bytes arrive; a longer
/// body grows the buffer as it is read, so a length prefix alone (up to
/// [`MAX_FRAME`]) cannot make the reader reserve more than this.
const MAX_RESERVE: usize = 1 << 20;

/// Wires a consumer's inbox holds before its socket readers block — the
/// capacity `NetworkOptions::default()` gives the in-process mesh. A full
/// inbox stops the readers, then the kernel's socket buffers fill, then
/// [`TcpSender::send`] blocks: the mesh's stall chain, over a socket.
const INBOX_CAPACITY: usize = 64;

/// Append everything of `wire`'s frame body that precedes a data payload
/// (`kind | ids | block header`) to `out` and return that payload (empty
/// when the wire carries none): the body is `out ++ payload`.
fn encode_head<'w>(out: &mut Vec<u8>, wire: &'w Wire) -> &'w [u8] {
    match wire {
        Wire::Eos(rank, channel) => {
            out.push(1u8);
            out.extend_from_slice(&rank.0.to_le_bytes());
            out.push(match channel {
                Channel::Net => 0u8,
                Channel::Disk => 1u8,
            });
            &[]
        }
        Wire::Msg(m) => {
            out.push(0u8);
            out.extend_from_slice(&(m.on_disk.len() as u32).to_le_bytes());
            for id in &m.on_disk {
                out.extend_from_slice(&id.as_u64().to_le_bytes());
            }
            match &m.data {
                None => {
                    out.push(0u8);
                    &[]
                }
                Some(b) => {
                    out.push(1u8);
                    let h = &b.header;
                    out.extend_from_slice(&h.id.as_u64().to_le_bytes());
                    out.extend_from_slice(&h.pos.x.to_le_bytes());
                    out.extend_from_slice(&h.pos.y.to_le_bytes());
                    out.extend_from_slice(&h.pos.z.to_le_bytes());
                    out.extend_from_slice(&h.blocks_in_step.to_le_bytes());
                    out.extend_from_slice(&h.len.to_le_bytes());
                    &b.payload
                }
            }
        }
    }
}

/// Encode one wire into its frame body (without the length prefix).
pub fn encode_wire(wire: &Wire) -> Vec<u8> {
    let payload_len = match wire {
        Wire::Msg(MixedMessage { data: Some(b), .. }) => b.payload.len(),
        _ => 0,
    };
    // 64 covers the fixed part of the head (50 bytes); IDs grow it.
    let mut out = Vec::with_capacity(64 + payload_len);
    let payload = encode_head(&mut out, wire);
    out.extend_from_slice(payload);
    out
}

/// Decode one frame body back into a wire.
pub fn decode_wire(body: &[u8]) -> Result<Wire> {
    parse_body(body, |at| Bytes::copy_from_slice(&body[at]))
}

/// Decode a frame body the caller owns: a data block's payload is a slice
/// of `frame` itself, so the block keeps the buffer the socket was read
/// into and no payload byte is copied.
fn decode_frame(frame: &Bytes) -> Result<Wire> {
    parse_body(frame, |at| frame.slice(at))
}

/// The one frame parser. `payload` materialises the block payload found at
/// a (bounds-checked) range of `body`: [`decode_wire`] copies it out of the
/// borrowed slice, [`decode_frame`] aliases the buffer it owns.
fn parse_body(body: &[u8], payload: impl FnOnce(Range<usize>) -> Bytes) -> Result<Wire> {
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
                    let start = at;
                    take(&mut at, len)?;
                    let header = BlockHeader::new(
                        BlockId::from_u64(key),
                        GlobalPos::new(x, y, z),
                        len as u64,
                        bis,
                    );
                    Some(Block::new(header, payload(start..at)))
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

/// Write the concatenation of `bufs` with one vectored write, looping only
/// when the socket accepts a part of it. On failure also reports how many
/// bytes had already gone out: anything but zero means the stream now holds
/// a torn frame.
fn write_all_vectored(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::result::Result<(), (usize, io::Error)> {
    let mut sent = 0usize;
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err((sent, io::ErrorKind::WriteZero.into())),
            Ok(n) => {
                sent += n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err((sent, e)),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame body. `Ok(None)` is a clean connection
/// close between frames. `Err` means the stream itself failed or the
/// length prefix can no longer be trusted — no resync is possible. A body
/// that fails to *decode* is not this function's concern: the caller can
/// keep reading, because the length prefix kept the stream aligned.
///
/// The body lands in a buffer that is reserved but never zeroed, sized by
/// the prefix up to [`MAX_RESERVE`] and grown as bytes arrive beyond it,
/// and is frozen without a copy: the block decoded from it keeps this very
/// allocation.
fn read_body(stream: &mut impl Read) -> Result<Option<Bytes>> {
    let mut len_buf = [0u8; 8];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u64::from_le_bytes(len_buf);
    if len > MAX_FRAME as u64 {
        return Err(Error::Storage(format!("oversized TCP frame ({len} bytes)")));
    }
    let mut body = Vec::with_capacity((len as usize).min(MAX_RESERVE));
    let got = stream.take(len).read_to_end(&mut body)?;
    if (got as u64) < len {
        return Err(Error::Storage(format!(
            "connection closed {got} bytes into a {len}-byte TCP frame"
        )));
    }
    Ok(Some(Bytes::from(body)))
}

/// Refuse an EOS mark or data block naming a producer rank at or above
/// `producers`: the consumer's EOS tracker indexes by that rank, so a peer
/// must not be able to name one the run does not have.
fn known_producer(wire: Wire, producers: usize) -> Result<Wire> {
    let src = match &wire {
        Wire::Eos(p, _) => Some(*p),
        Wire::Msg(m) => m.data.as_ref().map(|b| b.id().src),
    };
    match src {
        Some(p) if p.idx() >= producers => Err(Error::Storage(format!(
            "TCP frame names producer {p} of {producers}"
        ))),
        _ => Ok(wire),
    }
}

/// One connection's reader thread: frames off `stream` into the consumer's
/// inbox until the stream ends or the consumer is gone. A full inbox blocks
/// here — with the socket unread, the kernel's buffers fill and the
/// producer's write waits.
fn read_frames(mut stream: TcpStream, rank: Rank, producers: usize, inbox: Sender<WireItem>) {
    let fault = |e: Error| RuntimeError::Transport {
        rank,
        detail: e.to_string(),
    };
    loop {
        let item = match read_body(&mut stream) {
            // A corrupt body leaves the length-prefixed stream aligned on
            // the next frame: report the lost message in-band and keep
            // reading, instead of silently dying and leaving the consumer
            // waiting on this producer's EOS forever.
            Ok(Some(frame)) => decode_frame(&frame)
                .and_then(|w| known_producer(w, producers))
                .map_err(fault),
            Ok(None) => return,
            // The socket failed (or the length prefix is untrustworthy):
            // surface the failure, then give up on this stream.
            Err(e) => {
                let _ = inbox.send(Err(fault(e)));
                return;
            }
        };
        if inbox.send(item).is_err() {
            return;
        }
    }
}

/// Bind one listener per consumer rank and start acceptor/reader threads.
///
/// Returns the bound addresses (to hand to producers, e.g. through a job
/// launcher or a file) and one [`MeshReceiver`] per consumer rank, directly
/// usable with [`crate::Consumer::spawn`]. Each listener accepts exactly
/// `producers` connections; each connection gets a reader thread that
/// decodes frames into the consumer's wire channel. That channel is
/// bounded (64 wires, like the mesh's default inbox): a consumer that falls
/// behind blocks its readers, and through the socket buffers the producers'
/// [`TcpSender::send`]. A frame naming a producer rank at or above
/// `producers` arrives as an in-band [`RuntimeError::Transport`].
pub fn listen_consumers(
    consumers: usize,
    producers: usize,
) -> Result<(Vec<SocketAddr>, Vec<MeshReceiver>)> {
    assert!(consumers > 0 && producers > 0);
    let mut addrs = Vec::with_capacity(consumers);
    let mut receivers = Vec::with_capacity(consumers);
    for q in 0..consumers {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        let rank = Rank(q as u32);
        let (tx, rx) = bounded(INBOX_CAPACITY);
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
                    let inbox = tx.clone();
                    let spawned = std::thread::Builder::new()
                        .name("zipper-tcp-read".into())
                        .spawn(move || read_frames(stream, rank, producers, inbox));
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

/// One producer→consumer connection, with what a frame write needs beside
/// the socket so that both sit under the same lock.
struct Conn {
    stream: TcpStream,
    /// Scratch for the body's head (`kind | ids | block header`), reused by
    /// every frame: no allocation per send.
    head: Vec<u8>,
    /// A write failed part-way through a frame. The peer's reader is now
    /// misaligned for good, so the socket was shut down and nothing more
    /// may be written.
    torn: bool,
}

impl Conn {
    /// Frame and send one body: `body_head` appends the body's head to the
    /// scratch and returns the payload that follows it.
    fn send_frame<'p>(&mut self, body_head: impl FnOnce(&mut Vec<u8>) -> &'p [u8]) -> Result<()> {
        if self.torn {
            return Err(Error::Disconnected("tcp connection torn mid-frame"));
        }
        self.head.clear();
        let payload = body_head(&mut self.head);
        let len = ((self.head.len() + payload.len()) as u64).to_le_bytes();
        let mut frame = [
            IoSlice::new(&len),
            IoSlice::new(&self.head),
            IoSlice::new(payload),
        ];
        write_all_vectored(&mut self.stream, &mut frame).map_err(|(sent, e)| {
            if sent > 0 {
                self.torn = true;
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            e.into()
        })
    }
}

/// Producer-side TCP endpoint: one connection per consumer rank.
/// Implements [`WireSender`], so it plugs straight into
/// [`crate::Producer::spawn`].
pub struct TcpSender {
    conns: Vec<Mutex<Conn>>,
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
    /// attempt *and* every socket write, so a wedged consumer surfaces as a
    /// typed error instead of hanging the sender thread.
    ///
    /// The write timeout is per system call — "the peer accepted no byte
    /// for `timeout`" — not per frame. The consumer's inbox is bounded, so
    /// a send legitimately waits on a slow-but-alive consumer, and that
    /// wait is backpressure (it ends in the producer's stall), not a fault;
    /// but a consumer whose analysis keeps every buffer between it and this
    /// socket full for a whole `timeout` is indistinguishable from a wedged
    /// one and fails the send. A write that fails after part of its frame
    /// went out leaves the peer's reader misaligned: the connection is shut
    /// down (the peer reports one `Transport` fault for the cut frame) and
    /// every later `send` / `send_fault` to that rank returns
    /// [`Error::Disconnected`] at once — a retry must not resend onto it.
    pub fn connect_with(
        addrs: &[SocketAddr],
        policy: &RetryPolicy,
        timeout: Duration,
    ) -> Result<Self> {
        let mut conns = Vec::with_capacity(addrs.len());
        for (i, a) in addrs.iter().enumerate() {
            let s = policy.run(
                i as u64,
                |_| false,
                std::thread::sleep,
                || Ok(TcpStream::connect_timeout(a, timeout)?),
            )?;
            s.set_nodelay(true)?;
            s.set_write_timeout(Some(timeout))?;
            conns.push(Mutex::new(Conn {
                stream: s,
                head: Vec::new(),
                torn: false,
            }));
        }
        Ok(TcpSender {
            conns,
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

    fn conn(&self, to: Rank) -> Result<&Mutex<Conn>> {
        self.conns
            .get(to.idx())
            .ok_or(Error::Disconnected("unknown consumer rank"))
    }
}

impl WireSender for TcpSender {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        let mut conn = self.conn(to)?.lock();
        let t0 = self.telemetry.is_enabled().then(std::time::Instant::now);
        let res = conn.send_frame(|head| encode_head(head, &wire));
        if let Some(t0) = t0 {
            // Time inside the frame write is time the OS socket buffer (or
            // the peer) made us wait — the TCP sender's stall.
            self.telemetry.add_time(CounterId::TcpStallNs, t0.elapsed());
            if res.is_ok() {
                let bytes = wire.wire_bytes();
                self.telemetry.add(CounterId::NetBytes, bytes);
                self.telemetry.add(CounterId::NetMessages, 1);
                self.telemetry.observe(HistogramId::SendBytes, bytes);
            }
        }
        res
    }

    fn consumers(&self) -> usize {
        self.conns.len()
    }

    /// Deliver a scripted corruption over the real socket: a garbage body
    /// under a valid length prefix. The reader keeps the stream aligned
    /// (the length prefix is intact), fails to decode the body, and
    /// reports the loss in-band as a `Transport` fault — the same
    /// consumer-visible outcome the in-process mesh produces, but
    /// exercising the wire codec's corruption path for real.
    fn send_fault(&self, to: Rank, _fault: RuntimeError) -> Result<()> {
        self.conn(to)?
            .lock()
            .send_frame(|_| &[0xDE, 0xAD, 0xBE, 0xEF])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::block::deterministic_payload;
    use zipper_types::StepId;

    fn sample_block(len: usize) -> Block {
        let id = BlockId::new(Rank(0), StepId(9), 2);
        Block::new(
            BlockHeader::new(id, GlobalPos::new(7, 8, 9), len as u64, 5),
            deterministic_payload(id, len),
        )
    }

    /// Every shape a wire takes on the socket.
    fn every_shape() -> Vec<Wire> {
        vec![
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
            Wire::Msg(MixedMessage::data_only(sample_block(0))),
            Wire::Msg(MixedMessage::data_only(sample_block(1 << 20))),
        ]
    }

    fn same_wire(a: &Wire, b: &Wire) -> bool {
        match (a, b) {
            (Wire::Eos(ra, ca), Wire::Eos(rb, cb)) => ra == rb && ca == cb,
            (Wire::Msg(a), Wire::Msg(b)) => a == b,
            _ => false,
        }
    }

    /// The frame `wire` must occupy on the socket.
    fn framed(wire: &Wire) -> Vec<u8> {
        let body = encode_wire(wire);
        let mut frame = (body.len() as u64).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    #[test]
    fn wire_codec_round_trips_every_variant() {
        for w in every_shape() {
            let body = encode_wire(&w);
            assert!(same_wire(&w, &decode_wire(&body).unwrap()), "{w:?}");
            assert!(
                same_wire(&w, &decode_frame(&Bytes::from(body)).unwrap()),
                "{w:?}"
            );
        }
    }

    /// The wire format, seen from outside: whatever `TcpSender` writes, a
    /// raw peer reads `u64 len ++ encode_wire(wire)` and nothing else.
    #[test]
    fn sender_puts_len_then_encode_wire_on_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpSender::connect(&[listener.local_addr().unwrap()]).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let wires = every_shape();
        let expected: Vec<u8> = wires.iter().flat_map(framed).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for w in &wires {
                    sender.send(Rank(0), w.clone()).unwrap();
                }
                drop(sender);
            });
            let mut got = Vec::new();
            peer.read_to_end(&mut got).unwrap();
            assert_eq!(got.len(), expected.len());
            assert!(got == expected, "bytes on the socket differ from the codec");
        });
    }

    /// No payload byte is copied on receive: the block's payload lies
    /// inside the buffer the frame was read into.
    #[test]
    fn received_block_aliases_the_frame_buffer() {
        for len in [0usize, 1, 257, 1 << 20] {
            let block = sample_block(len);
            let stream = framed(&Wire::Msg(MixedMessage::mixed(
                block.clone(),
                vec![BlockId::new(Rank(1), StepId(2), 3)],
            )));
            let mut stream = &stream[..];
            let frame = read_body(&mut stream).unwrap().expect("one frame");
            assert!(stream.is_empty(), "the frame's bytes and no others");
            let Wire::Msg(m) = decode_frame(&frame).unwrap() else {
                panic!("variant changed in transit");
            };
            let got = m.data.unwrap();
            assert_eq!(got, block);
            let buffer = frame.as_ptr_range();
            let payload = got.payload.as_ptr_range();
            assert!(
                buffer.start <= payload.start && payload.end <= buffer.end,
                "payload {payload:?} was copied out of frame {buffer:?}"
            );
            assert_eq!(payload.end, buffer.end, "the payload ends the frame");
        }
    }

    /// Counts `write_vectored` calls and accepts at most `limit` bytes in
    /// each.
    struct CountingWriter {
        limit: usize,
        calls: usize,
        out: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.limit;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.limit - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_short_writes_are_resumed() {
        for wire in every_shape() {
            let mut head = Vec::new();
            let payload = encode_head(&mut head, &wire);
            let len = ((head.len() + payload.len()) as u64).to_le_bytes();
            let frame = || {
                [
                    IoSlice::new(&len),
                    IoSlice::new(&head),
                    IoSlice::new(payload),
                ]
            };
            let mut whole = CountingWriter {
                limit: usize::MAX,
                calls: 0,
                out: Vec::new(),
            };
            write_all_vectored(&mut whole, &mut frame()).unwrap();
            assert_eq!(whole.calls, 1, "{wire:?}");
            assert!(whole.out == framed(&wire));
            // A socket that takes 7 bytes at a time cuts inside the prefix,
            // the head and the payload.
            let mut dribble = CountingWriter {
                limit: 7,
                calls: 0,
                out: Vec::new(),
            };
            write_all_vectored(&mut dribble, &mut frame()).unwrap();
            assert_eq!(dribble.calls, whole.out.len().div_ceil(7));
            assert!(dribble.out == whole.out);
        }
    }

    #[test]
    fn failed_write_reports_the_bytes_already_sent() {
        /// Accepts `accept` bytes in all, then fails like a timed-out socket.
        struct Stalls {
            accept: usize,
        }
        impl Write for Stalls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.accept == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.accept);
                self.accept -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for accept in [0usize, 3, 11] {
            let (sent, e) = write_all_vectored(
                &mut Stalls { accept },
                &mut [IoSlice::new(&[1u8; 8]), IoSlice::new(&[2u8; 40])],
            )
            .unwrap_err();
            assert_eq!(sent, accept);
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        }
    }

    fn arb_wire(
        kind: u8,
        rank: u32,
        ids: Vec<u64>,
        header: (u64, u64, u64, u64, u32),
        payload: Vec<u8>,
    ) -> Wire {
        let on_disk: Vec<BlockId> = ids.into_iter().map(BlockId::from_u64).collect();
        let (key, x, y, z, blocks_in_step) = header;
        let block = |payload: Vec<u8>| {
            Block::new(
                BlockHeader::new(
                    BlockId::from_u64(key),
                    GlobalPos::new(x, y, z),
                    payload.len() as u64,
                    blocks_in_step,
                ),
                Bytes::from(payload),
            )
        };
        match kind {
            0 => Wire::Eos(Rank(rank), Channel::Net),
            1 => Wire::Eos(Rank(rank), Channel::Disk),
            2 => Wire::Msg(MixedMessage::disk_only(on_disk)),
            3 => Wire::Msg(MixedMessage::data_only(block(payload))),
            _ => Wire::Msg(MixedMessage::mixed(block(payload), on_disk)),
        }
    }

    proptest::proptest! {
        /// Any wire survives both decode entry points; the two agree on
        /// every input, valid or not; no truncation or extension of a
        /// valid body decodes; and no flipped byte makes the parser panic.
        #[test]
        fn codec_round_trips_and_rejects_every_mutation(
            kind in 0u8..5,
            rank in 0u32..=u32::MAX,
            ids in proptest::collection::vec(0u64..=u64::MAX, 0..6),
            header in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX),
            payload in proptest::collection::vec(0u8..=255, 0..300),
            cut in 0usize..10_000,
            flip in (0usize..10_000, 1u8..=255),
        ) {
            let wire = arb_wire(kind, rank, ids, header, payload);
            let body = encode_wire(&wire);
            let both = |body: &[u8]| {
                let copied = decode_wire(body);
                let aliased = decode_frame(&Bytes::copy_from_slice(body));
                match (&copied, &aliased) {
                    (Ok(a), Ok(b)) => assert!(same_wire(a, b), "entry points disagree"),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    _ => panic!("entry points disagree: {copied:?} vs {aliased:?}"),
                }
                copied
            };
            proptest::prop_assert!(same_wire(&wire, &both(&body).unwrap()));
            proptest::prop_assert!(both(&body[..cut % body.len()]).is_err());
            let mut longer = body.clone();
            longer.extend_from_slice(&body[..1 + cut % body.len()]);
            proptest::prop_assert!(both(&longer).is_err());
            let mut flipped = body.clone();
            flipped[flip.0 % body.len()] ^= flip.1;
            let _ = both(&flipped);
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
            .send(Rank(1), Wire::Eos(Rank(0), Channel::Disk))
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
                assert_eq!(r, Rank(0));
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
        let body = encode_wire(&Wire::Eos(Rank(0), Channel::Net));
        raw.write_all(&(body.len() as u64).to_le_bytes()).unwrap();
        raw.write_all(&body).unwrap();
        let err = receivers[0].recv().unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RuntimeError::Transport { .. })),
            "{err:?}"
        );
        match receivers[0].recv().unwrap() {
            Wire::Eos(r, _) => assert_eq!(r, Rank(0)),
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
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .unwrap();
        let err = receivers[0].recv().unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RuntimeError::Transport { .. })),
            "{err:?}"
        );
        match receivers[0].recv().unwrap() {
            Wire::Eos(r, ch) => {
                assert_eq!(r, Rank(0));
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
