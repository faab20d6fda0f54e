//! Kernel-space data transfer (paper §4.2, Fig. 4b).
//!
//! Co-located functions in separate sandboxes — each with its own shim —
//! exchange raw bytes over a Unix-domain socket. No serialization is
//! involved; the costs that remain are the user↔kernel copies, syscalls
//! and the receiver's wakeup context switch.
//!
//! Framing: an 8-byte little-endian length header, then the payload in
//! [`Shim::io_chunk`]-sized chunks.
//!
//! [`send`] and [`recv`] are the two halves, each run to completion;
//! [`move_outbox`], the plane's route, runs them in lockstep so at most
//! one chunk sits in the socket, as behind a bounded `SO_SNDBUF`.

use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::unix::UnixEndpoint;
use roadrunner_vkernel::VkError;

use crate::error::RoadrunnerError;
use crate::region::MemoryRegion;
use crate::shim::{Inbox, Shim};

/// The pending outbox of `module`.
fn take_outbox(shim: &mut Shim, module: &str) -> Result<MemoryRegion, RoadrunnerError> {
    shim.take_outbox(module)?.ok_or_else(|| {
        RoadrunnerError::Config(format!("module `{module}` has no pending outbox"))
    })
}

/// Sends the header framing `len` payload bytes.
fn send_header(endpoint: &UnixEndpoint, sandbox: &Sandbox, len: usize) -> Result<(), VkError> {
    endpoint.send(sandbox, &(len as u64).to_le_bytes()).map(drop)
}

/// Sends `data` one `chunk` at a time, straight from where it lies: the
/// user→kernel copy inside [`UnixEndpoint::send`] is the only one. After
/// each chunk `sent` sees the payload bytes sent so far.
fn send_chunks(
    endpoint: &UnixEndpoint,
    sandbox: &Sandbox,
    data: &[u8],
    chunk: usize,
    mut sent: impl FnMut(usize) -> Result<(), RoadrunnerError>,
) -> Result<(), RoadrunnerError> {
    let mut total = 0;
    for piece in data.chunks(chunk) {
        endpoint.send(sandbox, piece)?;
        total += piece.len();
        sent(total)?;
    }
    Ok(())
}

/// Sends the source module's pending outbox over `endpoint`, streaming
/// chunks of the region as it lies in linear memory. Returns the number of
/// payload bytes sent.
///
/// # Errors
///
/// [`RoadrunnerError::Config`] if no outbox is pending; shim and socket
/// errors otherwise.
pub fn send(
    shim: &mut Shim,
    module: &str,
    endpoint: &UnixEndpoint,
) -> Result<usize, RoadrunnerError> {
    let region = take_outbox(shim, module)?;
    // The VM I/O read is charged here, ahead of the first socket call.
    let data = shim.lend_region(module, region)?;
    let sandbox = shim.sandbox();
    send_header(endpoint, sandbox, data.len())?;
    send_chunks(endpoint, sandbox, data, shim.io_chunk(), |_| Ok(()))?;
    let sent = data.len();
    shim.deallocate(module, region)?;
    Ok(sent)
}

/// Reads the 8-byte length header, one `recv` per round, into a buffer on
/// the stack; `recv` is the endpoint's `recv_with` bound to `sandbox`, the
/// receiver. Returns the framed length and whatever payload shared the
/// header's last segment (none when the sender frames as [`send`] does,
/// and only then is anything allocated).
pub(crate) fn recv_header(
    sandbox: &Sandbox,
    mode: &str,
    mut recv: impl FnMut(&mut dyn FnMut(&[u8])) -> Result<Option<()>, VkError>,
) -> Result<(usize, Vec<u8>), RoadrunnerError> {
    let (mut header, mut filled, mut overshoot) = ([0u8; 8], 0, Vec::new());
    while filled < header.len() {
        let before = filled;
        recv(&mut |seg| {
            let (head, rest) = seg.split_at(seg.len().min(header.len() - filled));
            header[filled..filled + head.len()].copy_from_slice(head);
            filled += head.len();
            overshoot.extend_from_slice(rest);
            sandbox.account().count_copy(seg.len());
        })?
        .ok_or(VkError::Closed)?;
        if filled == before {
            return Err(RoadrunnerError::Config(format!("{mode} recv: no framed message pending")));
        }
    }
    Ok((u64::from_le_bytes(header) as usize, overshoot))
}

/// Receives one framed payload from `endpoint` into `module`'s memory:
/// each kernel segment is copied straight into the inbox. Returns the
/// filled inbox region; on any error the inbox is released again.
///
/// # Errors
///
/// [`RoadrunnerError::Kernel`] if the peer closed mid-message;
/// [`RoadrunnerError::AccessViolation`] if a segment overshoots the
/// framed length; shim errors otherwise.
pub fn recv(
    shim: &mut Shim,
    module: &str,
    endpoint: &UnixEndpoint,
) -> Result<MemoryRegion, RoadrunnerError> {
    let sandbox = shim.sandbox();
    let (total, extra) = recv_header(sandbox, "kernel-space", |sink| {
        endpoint.recv_with(sandbox, usize::MAX, sink)
    })?;
    shim.fill_inbox(module, total, |inbox| {
        Landing::start(inbox, &extra, total)?.until(endpoint, inbox, total)
    })
}

/// Moves `from`'s pending outbox in `src` into a fresh inbox of `to` in
/// `dst` over the connected pair `tx` → `rx`: [`send`] and [`recv`] in
/// lockstep. Each chunk lands in the inbox before the next is sent, so at
/// most one chunk is ever queued in the socket and the landing copy reads
/// a kernel buffer written a moment earlier. Every charge keeps its
/// amount and sandbox; only the order within the transfer differs, and
/// no clock read sits between the two halves. The source region is
/// released whether or not the payload landed. Returns the target region.
///
/// # Errors
///
/// As [`send`] and [`recv`].
pub fn move_outbox(
    src: &mut Shim,
    from: &str,
    dst: &mut Shim,
    to: &str,
    tx: &UnixEndpoint,
    rx: &UnixEndpoint,
) -> Result<MemoryRegion, RoadrunnerError> {
    let region = take_outbox(src, from)?;
    let data = src.lend_region(from, region)?;
    let landed = lockstep(src.sandbox(), data, src.io_chunk(), tx, rx, dst, to);
    // Best effort on failure: the transfer error is the one worth reporting.
    let freed = src.deallocate(from, region);
    let target = landed?;
    freed?;
    Ok(target)
}

/// [`move_outbox`] once the payload is lent: `data` leaves `sender` over
/// `tx` in `chunk`s, and each lands in `to` of `dst` off `rx` before the
/// next is sent.
fn lockstep(
    sender: &Sandbox,
    data: &[u8],
    chunk: usize,
    tx: &UnixEndpoint,
    rx: &UnixEndpoint,
    dst: &mut Shim,
    to: &str,
) -> Result<MemoryRegion, RoadrunnerError> {
    send_header(tx, sender, data.len())?;
    let receiver = dst.sandbox();
    let (total, extra) = recv_header(receiver, "kernel-space", |sink| {
        rx.recv_with(receiver, usize::MAX, sink)
    })?;
    dst.fill_inbox(to, total, |inbox| {
        let mut landing = Landing::start(inbox, &extra, total)?;
        send_chunks(tx, sender, data, chunk, |sent| landing.until(rx, inbox, sent))?;
        // Nothing left unless the header disagreed with `data` (bytes left
        // in the socket by an earlier peer): the inbox is only returned full.
        landing.until(rx, inbox, total)
    })
}

/// An inbox being filled from a socket, `offset` of `total` bytes landed.
struct Landing {
    offset: usize,
    total: usize,
}

impl Landing {
    /// Lands the payload bytes that shared the header's segment.
    fn start(inbox: &mut Inbox<'_>, extra: &[u8], total: usize) -> Result<Self, RoadrunnerError> {
        if !extra.is_empty() {
            inbox.write(0, extra)?;
        }
        Ok(Self { offset: extra.len(), total })
    }

    /// Copies queued segments straight from their kernel buffers into the
    /// inbox until `upto` bytes have landed.
    fn until(
        &mut self,
        endpoint: &UnixEndpoint,
        inbox: &mut Inbox<'_>,
        upto: usize,
    ) -> Result<(), RoadrunnerError> {
        let sandbox = inbox.sandbox();
        while self.offset < upto {
            let (offset, total) = (self.offset, self.total);
            self.offset += endpoint
                .recv_with(sandbox, usize::MAX, |seg| {
                    if seg.is_empty() {
                        return Err(RoadrunnerError::Config(format!(
                            "kernel-space recv: stream stalled at {offset}/{total} bytes"
                        )));
                    }
                    // `offset <= total` (a write past it is refused), and
                    // `total` fits the inbox's u32 length.
                    inbox.write(offset as u32, seg)?;
                    Ok(seg.len())
                })?
                .ok_or(VkError::Closed)??;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShimConfig;
    use crate::guest;
    use roadrunner_platform::FunctionBundle;
    use roadrunner_vkernel::unix::UnixConn;
    use roadrunner_vkernel::Testbed;
    use roadrunner_wasm::encode;
    use roadrunner_wasm::types::Value;
    use std::sync::Arc;

    fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("wf")
                .with_tenant("t"),
        )
    }

    fn shims(bed: &Testbed) -> (Shim, Shim) {
        let mut sa = Shim::new("a", bed.node(0), ShimConfig::default().with_load_costs(false));
        sa.load_module("a", bundle("a", guest::producer())).unwrap();
        let mut sb = Shim::new("b", bed.node(0), ShimConfig::default().with_load_costs(false));
        sb.load_module("b", bundle("b", guest::consumer())).unwrap();
        (sa, sb)
    }

    fn produce(shim: &mut Shim, module: &str, payload: &[u8]) {
        let region = shim.write_memory_host(module, payload).unwrap();
        shim.invoke(
            module,
            "produce",
            &[Value::I32(region.addr as i32), Value::I32(region.len as i32)],
        )
        .unwrap();
    }

    #[test]
    fn payload_crosses_sandboxes_intact() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        let payload: Vec<u8> = (0..250_000u32).map(|i| (i % 251) as u8).collect();
        produce(&mut sa, "a", &payload);
        let sent = send(&mut sa, "a", &ea).unwrap();
        assert_eq!(sent, payload.len());
        let region = recv(&mut sb, "b", &eb).unwrap();
        assert_eq!(&sb.peek_memory("b", region).unwrap()[..], &payload[..]);
    }

    /// The lockstep route against the two halves on a twin deployment:
    /// the same bytes land and every sandbox is charged, copies and peaks
    /// exactly as much, around every chunk boundary.
    #[test]
    fn lockstep_moves_and_charges_what_send_then_recv_do() {
        let chunk = Testbed::paper().cost().io_chunk_bytes;
        for len in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let run = |lockstep: bool| {
                let bed = Testbed::paper();
                let (mut sa, mut sb) = shims(&bed);
                let (ea, eb) = UnixConn::pair();
                produce(&mut sa, "a", &payload);
                let start = bed.clock().now();
                let region = if lockstep {
                    move_outbox(&mut sa, "a", &mut sb, "b", &ea, &eb).unwrap()
                } else {
                    send(&mut sa, "a", &ea).unwrap();
                    recv(&mut sb, "b", &eb).unwrap()
                };
                let advance = bed.clock().now() - start;
                let spent = |shim: &Shim| {
                    let account = shim.sandbox().account();
                    let charged = (account.user_ns(), account.kernel_ns());
                    (charged, account.copied_bytes(), account.ram_peak())
                };
                let telemetry = (spent(&sa), spent(&sb), advance);
                (sb.peek_memory("b", region).unwrap(), telemetry)
            };
            let (landed, lockstep) = run(true);
            assert_eq!(&landed[..], &payload[..], "len {len}");
            assert_eq!(run(false), (landed, lockstep), "len {len}");
        }
    }

    #[test]
    fn lockstep_releases_the_source_and_reports_a_missing_outbox() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        let src = sa.write_memory_host("a", &[4u8; 100]).unwrap();
        sa.invoke("a", "produce", &[Value::I32(src.addr as i32), Value::I32(100)]).unwrap();
        move_outbox(&mut sa, "a", &mut sb, "b", &ea, &eb).unwrap();
        assert!(sa.peek_memory("a", src).is_err(), "the source region is released");
        assert!(matches!(
            move_outbox(&mut sa, "a", &mut sb, "b", &ea, &eb),
            Err(RoadrunnerError::Config(_))
        ));
    }

    #[test]
    fn both_sides_pay_kernel_time_but_no_serialization() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        produce(&mut sa, "a", &vec![3u8; 1 << 20]);
        let ka = sa.sandbox().account().kernel_ns();
        send(&mut sa, "a", &ea).unwrap();
        assert!(sa.sandbox().account().kernel_ns() > ka, "sender enters the kernel");
        let kb = sb.sandbox().account().kernel_ns();
        recv(&mut sb, "b", &eb).unwrap();
        assert!(sb.sandbox().account().kernel_ns() > kb, "receiver enters the kernel");
    }

    #[test]
    fn empty_payload_round_trips() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        produce(&mut sa, "a", &[]);
        assert_eq!(send(&mut sa, "a", &ea).unwrap(), 0);
        let region = recv(&mut sb, "b", &eb).unwrap();
        assert_eq!(region.len, 0);
    }

    #[test]
    fn recv_without_message_fails_cleanly() {
        let bed = Testbed::paper();
        let (_sa, mut sb) = shims(&bed);
        let (_ea, eb) = UnixConn::pair();
        assert!(matches!(
            recv(&mut sb, "b", &eb),
            Err(RoadrunnerError::Config(_))
        ));
    }

    #[test]
    fn closed_peer_reports_kernel_error() {
        let bed = Testbed::paper();
        let (_sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        ea.close();
        assert!(matches!(
            recv(&mut sb, "b", &eb),
            Err(RoadrunnerError::Kernel(_))
        ));
    }

    #[test]
    fn failed_recv_releases_its_inbox() {
        let bed = Testbed::paper();
        // (framed length, bytes actually sent, expected error)
        type Check = fn(&RoadrunnerError) -> bool;
        let cases: [(u64, usize, Check); 2] = [
            // The peer closes mid-stream…
            (1000, 400, |e| matches!(e, RoadrunnerError::Kernel(_))),
            // …or a segment overshoots the framed length.
            (100, 200, |e| matches!(e, RoadrunnerError::AccessViolation(_))),
        ];
        for (framed, sent, expected) in cases {
            let (sa, mut sb) = shims(&bed);
            let (ea, eb) = UnixConn::pair();
            let probe = sb.allocate_inbox("b", 1).unwrap();
            sb.deallocate("b", probe).unwrap();
            ea.send(sa.sandbox(), &framed.to_le_bytes()).unwrap();
            ea.send(sa.sandbox(), &vec![1u8; sent]).unwrap();
            ea.close();
            let err = recv(&mut sb, "b", &eb).unwrap_err();
            assert!(expected(&err), "{err}");
            let leaked = MemoryRegion::new(probe.addr, framed as u32);
            assert!(sb.peek_memory("b", leaked).is_err(), "the inbox is revoked");
            assert_eq!(sb.allocate_inbox("b", 1).unwrap(), probe, "and freed in the guest");
        }
    }

    #[test]
    fn a_split_header_and_payload_behind_it_land_whole() {
        // A peer that does not frame as `send` does: the header arrives in
        // two pieces, the second carrying the first payload bytes.
        let bed = Testbed::paper();
        let (sa, mut sb) = shims(&bed);
        let (ea, eb) = UnixConn::pair();
        let payload: Vec<u8> = (0..100u8).collect();
        let mut framed = (payload.len() as u64).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload[..40]);
        ea.send(sa.sandbox(), &framed[..3]).unwrap();
        ea.send(sa.sandbox(), &framed[3..]).unwrap();
        ea.send(sa.sandbox(), &payload[40..]).unwrap();
        let copied = sb.sandbox().account().copied_bytes();
        let region = recv(&mut sb, "b", &eb).unwrap();
        assert_eq!(&sb.peek_memory("b", region).unwrap()[..], &payload[..]);
        // Socket → user for all 108 bytes, then the 40 staged ones again
        // on their way into the inbox (and the read-back just above).
        assert_eq!(sb.sandbox().account().copied_bytes() - copied, 108 + 40 + 100);
    }

    #[test]
    fn send_without_outbox_fails() {
        let bed = Testbed::paper();
        let (mut sa, _sb) = shims(&bed);
        let (ea, _eb) = UnixConn::pair();
        assert!(matches!(
            send(&mut sa, "a", &ea),
            Err(RoadrunnerError::Config(_))
        ));
    }
}
