//! The RunC-like container baseline.
//!
//! Native functions in containers exchanging data over HTTP: serialize at
//! host speed, POST the document, parse and deserialize at the target.
//! The paper uses this as the performance *upper bound* achievable
//! without Roadrunner's mechanisms ("we compare against RunC (container)
//! as an upper bound for performance", §6.1): host-native serialization
//! is cheap (~15 % of transfer, Fig. 2b) and tokio-style streaming
//! overlaps stages.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner_http::{read_request, read_response, send_request, send_response, Request, Response};
use roadrunner_platform::{DataPlane, PlatformError, TransferTiming};
use roadrunner_serial::{text, Payload};
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::tcp::{TcpConn, TcpEndpoint};
use roadrunner_vkernel::Testbed;

use crate::common::BaselineOutcome;

/// A connected pair of container functions (`a` → `b`) exchanging data
/// over HTTP.
pub struct RuncPair {
    testbed: Arc<Testbed>,
    sandbox_a: Sandbox,
    sandbox_b: Sandbox,
    client: TcpEndpoint,
    server: TcpEndpoint,
}

impl std::fmt::Debug for RuncPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuncPair")
            .field("a", &self.sandbox_a.account().name())
            .field("b", &self.sandbox_b.account().name())
            .finish_non_exhaustive()
    }
}

impl RuncPair {
    /// Deploys the pair on `node_a`/`node_b` of `testbed` and establishes
    /// the HTTP connection (charging the TCP handshake).
    pub fn establish(testbed: Arc<Testbed>, node_a: usize, node_b: usize) -> Self {
        let sandbox_a = testbed.node(node_a).sandbox("runc-a");
        let sandbox_b = testbed.node(node_b).sandbox("runc-b");
        let link = Arc::clone(testbed.link_between(node_a, node_b));
        let (client, server) = TcpConn::establish(&sandbox_a, link);
        Self {
            testbed,
            sandbox_a,
            sandbox_b,
            client,
            server,
        }
    }

    /// Sandbox of the source container.
    pub fn sandbox_a(&self) -> &Sandbox {
        &self.sandbox_a
    }

    /// Sandbox of the target container.
    pub fn sandbox_b(&self) -> &Sandbox {
        &self.sandbox_b
    }

    /// Transfers one payload and returns the timing breakdown.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Transfer`] if the HTTP exchange or decoding
    /// fails.
    pub fn transfer(&mut self, payload: &Payload) -> Result<BaselineOutcome, PlatformError> {
        let clock = self.testbed.clock().clone();
        let cost = self.testbed.cost();
        let started = clock.now();

        // Source: host-speed serialization (the text codec really runs;
        // time is charged from the calibrated model). The container holds
        // its working state plus the serialized copy.
        self.sandbox_a.account().alloc(payload.flat().len() as u64);
        let encoded = text::to_text(payload.value());
        let encoded_len = encoded.len();
        self.sandbox_a.account().alloc(encoded_len as u64);
        let serialize_ns =
            cost.serialize_host_ns(payload.flat().len(), payload.value_nodes());
        self.sandbox_a.charge_user(serialize_ns);

        // HTTP POST to the target.
        let request = Request::post("/invoke", Bytes::from(encoded));
        send_request(&self.client, &self.sandbox_a, &request)
            .map_err(|e| PlatformError::Transfer(e.to_string()))?;

        // Target: read, parse, deserialize at host speed. The received
        // document and the decoded value coexist briefly.
        let received = read_request(&self.server, &self.sandbox_b)
            .map_err(|e| PlatformError::Transfer(e.to_string()))?;
        self.sandbox_b.account().alloc(received.body.len() as u64);
        let body = std::str::from_utf8(&received.body)
            .map_err(|e| PlatformError::Transfer(format!("body not UTF-8: {e}")))?;
        let value = text::from_text(body)
            .map_err(|e| PlatformError::Transfer(format!("deserialize failed: {e}")))?;
        self.sandbox_b.account().alloc(payload.flat().len() as u64);
        let deserialize_ns =
            cost.deserialize_host_ns(payload.flat().len(), payload.value_nodes());
        self.sandbox_b.charge_user(deserialize_ns);
        let latency_ns = clock.now() - started;
        self.sandbox_b.account().free((received.body.len() + payload.flat().len()) as u64);
        self.sandbox_a.account().free((payload.flat().len() + encoded_len) as u64);

        // Ack (tiny; outside the measured window like the paper's
        // "until the target function receives it").
        send_response(&self.server, &self.sandbox_b, &Response::ok(Bytes::from_static(b"ok")))
            .map_err(|e| PlatformError::Transfer(e.to_string()))?;
        let _ = read_response(&self.client, &self.sandbox_a)
            .map_err(|e| PlatformError::Transfer(e.to_string()))?;

        Ok(BaselineOutcome { latency_ns, serialize_ns, deserialize_ns, received_value: value })
    }
}

/// Workflow-engine integration: the pair carries any edge of the DAG
/// (its two containers stand in for whichever functions the edge names),
/// wrapping the raw bytes as an opaque payload that the HTTP path must
/// serialize and deserialize like any other value. There is one HTTP
/// path whatever the placement, so the instance's nodes are not read.
impl DataPlane for RuncPair {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        payload: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, TransferTiming), PlatformError> {
        let outcome = RuncPair::transfer(self, &Payload::opaque(payload))?;
        Ok((outcome.received_flat(), outcome.timing()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_serial::payload::PayloadKind;

    fn payload(size: usize) -> Payload {
        Payload::synthetic(PayloadKind::Text, 7, size)
    }

    #[test]
    fn intra_node_transfer_preserves_value() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 0);
        let p = payload(100_000);
        let out = pair.transfer(&p).unwrap();
        assert_eq!(&out.received_value, p.value());
        assert_eq!(&out.received_flat()[..], &p.flat()[..]);
        assert!(out.latency_ns > 0);
    }

    #[test]
    fn the_largest_figure_body_fits_the_http_body_limit() {
        // A Text document is the payload's characters in quotes, so the
        // largest body any figure posts is fig. 7/8's 500 MB plus two.
        let document = text::to_text(payload(1_000).value());
        let largest = 500_000_000 + document.len() - 1_000;
        assert_eq!(largest, 500_000_002);
        assert!(largest <= roadrunner_http::parse::MAX_BODY_BYTES);
    }

    #[test]
    fn inter_node_pays_wire_time() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 1);
        let p = payload(1_000_000);
        let out = pair.transfer(&p).unwrap();
        let wire = bed.link_between(0, 1).wire_ns(1_000_000);
        assert!(out.latency_ns >= wire, "{} < {wire}", out.latency_ns);
    }

    #[test]
    fn serialization_is_minor_share_at_host_speed() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 1);
        let p = payload(5_000_000);
        let out = pair.transfer(&p).unwrap();
        let share = out.serialization_ns() as f64 / out.latency_ns as f64;
        assert!(share < 0.25, "host serialization share was {share}");
    }

    #[test]
    fn both_containers_consume_cpu() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 0);
        pair.transfer(&payload(500_000)).unwrap();
        assert!(pair.sandbox_a().account().user_ns() > 0);
        assert!(pair.sandbox_a().account().kernel_ns() > 0);
        assert!(pair.sandbox_b().account().user_ns() > 0);
        assert!(pair.sandbox_b().account().kernel_ns() > 0);
    }

    #[test]
    fn structured_payloads_round_trip() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 0);
        let p = Payload::synthetic(PayloadKind::SensorRecords, 3, 10_000);
        let out = pair.transfer(&p).unwrap();
        assert_eq!(&out.received_value, p.value());
    }

    #[test]
    fn data_plane_transfer_breaks_down_phases() {
        let bed = Arc::new(Testbed::paper());
        let mut pair = RuncPair::establish(Arc::clone(&bed), 0, 1);
        let payload = Bytes::from(vec![0xABu8; 50_000]);
        let (received, timing) =
            pair.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
        assert_eq!(&received[..], &payload[..]);
        assert!(timing.prepare_ns > 0, "serialization charged to prepare");
        assert!(timing.consume_ns > 0, "deserialization charged to consume");
        assert!(timing.transfer_ns >= bed.link_between(0, 1).wire_ns(50_000));
    }
}
