//! The virtual data hose: network transfer (paper §4.3, Algorithm 1).
//!
//! Remote functions exchange data through a dedicated pipe + socket pair
//! using the kernel's reference-moving primitives:
//!
//! * source: `read_memory_host` → `vmsplice` gifts the host buffer's
//!   pages into the pipe → `splice` moves the references into the socket;
//! * wire: the NIC transmits (bandwidth/RTT from the link model);
//! * target: `splice` socket → pipe → pages land in user space →
//!   `write_memory_host` into the target VM.
//!
//! The only per-byte CPU work is the Wasm VM I/O at both ends; everything
//! in between is page-reference bookkeeping. Tests verify zero-copy by
//! pointer identity across the whole hose.

use roadrunner_vkernel::pipe::Pipe;
use roadrunner_vkernel::tcp::TcpEndpoint;
use roadrunner_vkernel::VkError;

use crate::error::RoadrunnerError;
use crate::kernelspace::recv_header;
use crate::region::MemoryRegion;
use crate::shim::Shim;

/// Hose pipe capacity: enlarged from the 64 KiB default with the
/// equivalent of `fcntl(F_SETPIPE_SZ)` so syscall counts stay low.
pub const HOSE_PIPE_CAPACITY: usize = 1 << 20;

/// Sends the source module's pending outbox through the virtual data
/// hose over `tcp`. Returns the payload byte count.
///
/// Implements the source half of Algorithm 1
/// (`network_data_transfer_source`).
///
/// # Errors
///
/// [`RoadrunnerError::Config`] if no outbox is pending; shim, pipe and
/// socket errors otherwise.
pub fn send(shim: &mut Shim, module: &str, tcp: &TcpEndpoint) -> Result<usize, RoadrunnerError> {
    let region = shim.take_outbox(module)?.ok_or_else(|| {
        RoadrunnerError::Config(format!("module `{module}` has no pending outbox"))
    })?;
    // ① read the data out of the Wasm VM (the unavoidable VM I/O copy):
    // the pages gifted below must be an owned buffer the kernel can keep
    // references to after this call returns, so this one staging copy
    // stays (a real vmsplice would gift the linear memory's own pages).
    let data = shim.read_memory_host(module, region)?;
    let sandbox = shim.sandbox();
    // ② create the virtual data hose — enlarged like `F_SETPIPE_SZ` so
    // each vmsplice/splice syscall moves up to 1 MiB of page references.
    let mut vdh = Pipe::new(HOSE_PIPE_CAPACITY);
    // Length header travels the ordinary way (8 bytes, negligible).
    tcp.send(sandbox, &(data.len() as u64).to_le_bytes())?;
    // ③ vmsplice the user pages in, ④ splice them on towards the socket.
    let chunk = vdh.capacity();
    let mut offset = 0usize;
    while offset < data.len() {
        let end = (offset + chunk).min(data.len());
        // `Bytes::slice` is a reference, not a copy — the gift is real.
        vdh.vmsplice_gift(sandbox, data.slice(offset..end))?;
        while let Some(seg) = vdh.splice_out(sandbox, chunk)? {
            if seg.is_empty() {
                break;
            }
            tcp.send_spliced(sandbox, seg)?;
        }
        offset = end;
    }
    shim.deallocate(module, region)?;
    Ok(data.len())
}

/// Receives one framed payload from the hose into `module`'s memory.
/// Returns the filled inbox region.
///
/// Implements the target half of Algorithm 1
/// (`network_data_transfer_target`).
///
/// # Errors
///
/// [`RoadrunnerError::Kernel`] if the peer closed mid-message; shim
/// errors otherwise.
pub fn recv(
    shim: &mut Shim,
    module: &str,
    tcp: &TcpEndpoint,
) -> Result<MemoryRegion, RoadrunnerError> {
    let sandbox = shim.sandbox();
    // Header arrives through the ordinary lane.
    let (total, overshoot) = recv_header(sandbox, "hose", |sink| tcp.recv_with(sandbox, sink))?;

    // ⑤ allocate the target region, then splice pages from the socket
    // through the target-side pipe and write them into the VM (the one
    // landing copy). On any error the region is released again.
    shim.fill_inbox(module, total, |inbox| {
        let sandbox = inbox.sandbox();
        let mut vdh = Pipe::new(HOSE_PIPE_CAPACITY);
        if !overshoot.is_empty() {
            inbox.write(0, &overshoot)?;
        }
        let mut offset = overshoot.len();
        while offset < total {
            match tcp.recv_spliced(sandbox)? {
                None => return Err(VkError::Closed.into()),
                Some(seg) if seg.is_empty() => {
                    return Err(RoadrunnerError::Config(format!(
                        "hose recv: stream stalled at {offset}/{total} bytes"
                    )))
                }
                Some(seg) => {
                    vdh.splice_in(sandbox, seg)?;
                    while let Some(pages) = vdh.splice_out(sandbox, usize::MAX)? {
                        if pages.is_empty() {
                            break;
                        }
                        // `offset <= total` (a write past it is refused),
                        // and `total` fits the inbox's u32 length.
                        inbox.write(offset as u32, &pages)?;
                        offset += pages.len();
                    }
                }
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShimConfig;
    use crate::guest;
    use roadrunner_platform::FunctionBundle;
    use roadrunner_vkernel::tcp::TcpConn;
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
        let mut sb = Shim::new("b", bed.node(1), ShimConfig::default().with_load_costs(false));
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
    fn payload_crosses_nodes_intact() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ta, tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.wan()));
        let payload: Vec<u8> = (0..500_000u32).map(|i| (i % 253) as u8).collect();
        produce(&mut sa, "a", &payload);
        assert_eq!(send(&mut sa, "a", &ta).unwrap(), payload.len());
        let region = recv(&mut sb, "b", &tb).unwrap();
        assert_eq!(&sb.peek_memory("b", region).unwrap()[..], &payload[..]);
    }

    #[test]
    fn wire_time_dominates_on_the_paper_wan() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ta, tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.wan()));
        let payload = vec![1u8; 10 << 20];
        produce(&mut sa, "a", &payload);
        let t0 = bed.clock().now();
        send(&mut sa, "a", &ta).unwrap();
        recv(&mut sb, "b", &tb).unwrap();
        let elapsed = bed.clock().now() - t0;
        let wire = bed.wan().wire_ns(10 << 20);
        assert!(elapsed >= wire, "elapsed {elapsed} < wire {wire}");
        // The hose adds less than 40% on top of raw wire time for 10 MB.
        assert!(elapsed < wire * 14 / 10, "elapsed {elapsed} vs wire {wire}");
    }

    #[test]
    fn hose_kernel_cost_is_page_maps_not_copies() {
        // Compare hose kernel time vs what copying the same payload
        // through a Unix socket costs: the hose must be much cheaper.
        let bed = Testbed::paper();
        let payload = vec![7u8; 8 << 20];
        let (mut sa, _sb) = shims(&bed);
        let (ta, _tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.loopback(0)));
        produce(&mut sa, "a", &payload);
        // Isolate the send path's kernel cost.
        let k0 = sa.sandbox().account().kernel_ns();
        send(&mut sa, "a", &ta).unwrap();
        let hose_kernel = sa.sandbox().account().kernel_ns() - k0;
        let copy_kernel = {
            let cost = bed.cost();
            // One user→kernel copy of 8 MiB at memcpy speed.
            cost.memcpy_ns(8 << 20)
        };
        assert!(
            hose_kernel < copy_kernel / 2,
            "hose kernel {hose_kernel} should be far below a copy {copy_kernel}"
        );
    }

    #[test]
    fn closed_peer_fails_recv() {
        let bed = Testbed::paper();
        let (_sa, mut sb) = shims(&bed);
        let sandbox = sb.sandbox().clone();
        let (ta, tb) = TcpConn::establish(&sandbox, Arc::clone(bed.wan()));
        ta.close();
        assert!(matches!(
            recv(&mut sb, "b", &tb),
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
            let (ta, tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.wan()));
            let probe = sb.allocate_inbox("b", 1).unwrap();
            sb.deallocate("b", probe).unwrap();
            ta.send(sa.sandbox(), &framed.to_le_bytes()).unwrap();
            ta.send_spliced(sa.sandbox(), bytes::Bytes::from(vec![1u8; sent])).unwrap();
            ta.close();
            let err = recv(&mut sb, "b", &tb).unwrap_err();
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
        let (ta, tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.wan()));
        let payload: Vec<u8> = (0..100u8).collect();
        let mut framed = (payload.len() as u64).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload[..40]);
        ta.send(sa.sandbox(), &framed[..3]).unwrap();
        ta.send(sa.sandbox(), &framed[3..]).unwrap();
        ta.send_spliced(sa.sandbox(), bytes::Bytes::copy_from_slice(&payload[40..])).unwrap();
        let region = recv(&mut sb, "b", &tb).unwrap();
        assert_eq!(&sb.peek_memory("b", region).unwrap()[..], &payload[..]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bed = Testbed::paper();
        let (mut sa, mut sb) = shims(&bed);
        let (ta, tb) = TcpConn::establish(sa.sandbox(), Arc::clone(bed.wan()));
        produce(&mut sa, "a", &[]);
        assert_eq!(send(&mut sa, "a", &ta).unwrap(), 0);
        assert_eq!(recv(&mut sb, "b", &tb).unwrap().len, 0);
    }
}
