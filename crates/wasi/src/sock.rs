//! The WASI socket: a descriptor over a virtual-kernel stream socket.

use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::socket::Endpoint;
use roadrunner_vkernel::VkError;

use crate::ctx::errno;

fn map_err(e: VkError) -> i32 {
    match e {
        VkError::Closed => errno::BADF,
        _ => errno::IO,
    }
}

/// A WASI socket over a virtual-kernel stream socket: a TCP connection
/// (the baselines' network path) or one end of a Unix pair (co-located
/// functions).
#[derive(Debug)]
pub struct EndpointSocket {
    endpoint: Endpoint,
}

/// The name the baselines' network path knows the adapter by.
pub type TcpSocket = EndpointSocket;

impl EndpointSocket {
    /// Wraps a connected endpoint.
    pub fn new(endpoint: Endpoint) -> Self {
        Self { endpoint }
    }

    /// Sends `data`, returning the bytes accepted.
    pub(crate) fn send(&self, sandbox: &Sandbox, data: &[u8]) -> Result<usize, i32> {
        self.endpoint.send(sandbox, data).map_err(map_err)
    }

    /// Lends at most `max` bytes of the next segment to `sink`, as
    /// [`Endpoint::recv_with`] does: `None` once the peer closed and the
    /// stream is drained, an empty slice when nothing is ready.
    pub(crate) fn recv_with<R>(
        &self,
        sandbox: &Sandbox,
        max: usize,
        sink: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, i32> {
        self.endpoint.recv_with(sandbox, max, sink).map_err(map_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_vkernel::net::Link;
    use roadrunner_vkernel::tcp::TcpConn;
    use roadrunner_vkernel::unix::UnixConn;
    use roadrunner_vkernel::{CostModel, VirtualClock};
    use std::sync::Arc;

    fn sandbox(name: &str) -> Sandbox {
        Sandbox::detached(name, VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
    }

    #[test]
    fn tcp_adapter_round_trips() {
        let sa = sandbox("a");
        let sb = sandbox("b");
        let (ea, eb) = TcpConn::establish(&sa, Link::loopback("lo"));
        let tx = TcpSocket::new(ea);
        let rx = TcpSocket::new(eb);
        assert_eq!(tx.send(&sa, b"hello").unwrap(), 5);
        let got = rx.recv_with(&sb, usize::MAX, <[u8]>::to_vec).unwrap().unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn unix_adapter_round_trips() {
        let sa = sandbox("a");
        let sb = sandbox("b");
        let (ea, eb) = UnixConn::pair();
        let tx = EndpointSocket::new(ea);
        let rx = EndpointSocket::new(eb);
        tx.send(&sa, b"ipc").unwrap();
        assert_eq!(rx.recv_with(&sb, usize::MAX, <[u8]>::to_vec).unwrap().unwrap(), b"ipc");
    }

    #[test]
    fn a_closed_stream_ends_and_refuses_sends() {
        let sb = sandbox("b");
        let (ea, eb) = UnixConn::pair();
        ea.close();
        let (tx, rx) = (EndpointSocket::new(ea), EndpointSocket::new(eb));
        assert_eq!(rx.recv_with(&sb, usize::MAX, <[u8]>::len).unwrap(), None);
        assert_eq!(tx.send(&sb, b"x").unwrap_err(), errno::BADF);
    }
}
