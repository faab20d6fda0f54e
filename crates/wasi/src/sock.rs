//! Socket adapters bridging WASI descriptors to virtual-kernel sockets.

use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::socket::Endpoint;
use roadrunner_vkernel::VkError;

use crate::ctx::{errno, WasiSocket};

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
}

impl WasiSocket for EndpointSocket {
    fn send(&mut self, sandbox: &Sandbox, data: &[u8]) -> Result<usize, i32> {
        self.endpoint.send(sandbox, data).map_err(map_err)
    }

    fn recv(&mut self, sandbox: &Sandbox) -> Result<Option<Vec<u8>>, i32> {
        match self.endpoint.recv(sandbox) {
            Ok(Some(seg)) => Ok(Some(seg.to_vec())),
            Ok(None) => Ok(None),
            Err(e) => Err(map_err(e)),
        }
    }
}

/// An in-process loopback socket for tests: everything sent is readable
/// back in FIFO order.
#[derive(Debug, Default)]
pub struct LoopbackSocket {
    queue: std::collections::VecDeque<Vec<u8>>,
    closed: bool,
}

impl LoopbackSocket {
    /// Creates an empty loopback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the loopback closed; subsequent receives report end of
    /// stream once drained.
    pub fn close(&mut self) {
        self.closed = true;
    }
}

impl WasiSocket for LoopbackSocket {
    fn send(&mut self, _sandbox: &Sandbox, data: &[u8]) -> Result<usize, i32> {
        if self.closed {
            return Err(errno::BADF);
        }
        self.queue.push_back(data.to_vec());
        Ok(data.len())
    }

    fn recv(&mut self, _sandbox: &Sandbox) -> Result<Option<Vec<u8>>, i32> {
        match self.queue.pop_front() {
            Some(seg) => Ok(Some(seg)),
            None if self.closed => Ok(None),
            None => Ok(Some(Vec::new())),
        }
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
        let mut tx = TcpSocket::new(ea);
        let mut rx = TcpSocket::new(eb);
        tx.send(&sa, b"hello").unwrap();
        let got = rx.recv(&sb).unwrap().unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn unix_adapter_round_trips() {
        let sa = sandbox("a");
        let sb = sandbox("b");
        let (ea, eb) = UnixConn::pair();
        let mut tx = EndpointSocket::new(ea);
        let mut rx = EndpointSocket::new(eb);
        tx.send(&sa, b"ipc").unwrap();
        assert_eq!(rx.recv(&sb).unwrap().unwrap(), b"ipc");
    }

    #[test]
    fn loopback_fifo_and_close() {
        let sb = sandbox("x");
        let mut lo = LoopbackSocket::new();
        lo.send(&sb, b"1").unwrap();
        lo.send(&sb, b"2").unwrap();
        assert_eq!(lo.recv(&sb).unwrap().unwrap(), b"1");
        lo.close();
        assert_eq!(lo.recv(&sb).unwrap().unwrap(), b"2");
        assert_eq!(lo.recv(&sb).unwrap(), None);
        assert_eq!(lo.send(&sb, b"3").unwrap_err(), errno::BADF);
    }
}
