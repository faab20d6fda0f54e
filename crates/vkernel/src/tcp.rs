//! TCP-like byte streams across links.
//!
//! A [`TcpConn`] carries bytes between two sandboxes over a [`Link`]
//! (inter-node WAN or host loopback). It is a
//! [`socket::Endpoint`](crate::socket::Endpoint) pair with a link: every
//! segment is stamped with its arrival time from the link's bandwidth/RTT
//! model, and receivers *wait* (advance the clock without consuming CPU)
//! until data lands. The copying lane is the standard path the paper's
//! baselines ride; Roadrunner's virtual data hose rides the zero-copy
//! `splice` lane.

use std::sync::Arc;

use crate::net::Link;
use crate::node::Sandbox;
use crate::socket::Endpoint;

/// One endpoint of an established TCP-like connection.
pub type TcpEndpoint = Endpoint;

/// Factory for established TCP-like connections.
#[derive(Debug)]
pub struct TcpConn;

impl TcpConn {
    /// Establishes a connection over `link`, charging the connecting
    /// sandbox one RTT of setup latency (SYN/SYN-ACK) plus two syscalls.
    pub fn establish(client: &Sandbox, link: Arc<Link>) -> (TcpEndpoint, TcpEndpoint) {
        let cost = client.cost();
        client.charge_kernel(2 * cost.syscall_ns);
        client.clock().advance(link.rtt_ns());
        Endpoint::pair(Some(link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::costmodel::CostModel;
    use crate::socket::table::{drain, socket_table, Conn};

    socket_table!(&[
        |sb| TcpConn::establish(sb, Link::loopback("lo")),
        |sb| TcpConn::establish(sb, Link::paper_wan("wan")),
    ]);

    #[test]
    fn establish_costs_one_rtt() {
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let a = Sandbox::detached("a", clock.clone(), cost);
        let link = Link::paper_wan("wan");
        let _conn = TcpConn::establish(&a, link.clone());
        assert!(clock.now() >= link.rtt_ns());
    }

    #[test]
    fn loopback_is_fast() {
        let c = Conn::new(|sb| TcpConn::establish(sb, Link::loopback("lo")));
        let start = c.sa.clock().now();
        c.a.send(&c.sa, &vec![0u8; 1_000_000]).unwrap();
        c.a.close();
        drain(&c.b, &c.sb);
        let elapsed = c.sb.clock().now() - start;
        assert!(elapsed < 3_000_000, "loopback took {elapsed} ns");
    }
}
