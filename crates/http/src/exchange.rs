//! Request/response exchange over virtual-kernel streams.
//!
//! Provides the client/server halves the baselines use: helpers over a
//! kernel stream socket ([`Endpoint`], TCP or Unix) that pay the realistic
//! costs — head build/parse time and the copy assembling head and body
//! into one send buffer.

use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::socket::Endpoint;
use roadrunner_vkernel::VkError;

use crate::message::{Request, Response};
use crate::parse::{HttpError, MessageReader};

fn transport_err(e: VkError) -> HttpError {
    HttpError::Transport(e.to_string())
}

/// Sends `request` over `stream`, charging head-build time and the
/// head+body assembly copy to `caller`.
///
/// # Errors
///
/// [`HttpError::Transport`] if the stream rejects the send.
pub fn send_request(
    stream: &Endpoint,
    caller: &Sandbox,
    request: &Request,
) -> Result<(), HttpError> {
    let cost = caller.cost();
    caller.charge_user(cost.http_head_ns + cost.memcpy_ns(request.body.len()));
    let raw = request.to_bytes();
    stream.send(caller, &raw).map_err(transport_err)?;
    Ok(())
}

/// Sends `response` over `stream` (same cost shape as requests).
///
/// # Errors
///
/// [`HttpError::Transport`] if the stream rejects the send.
pub fn send_response(
    stream: &Endpoint,
    caller: &Sandbox,
    response: &Response,
) -> Result<(), HttpError> {
    let cost = caller.cost();
    caller.charge_user(cost.http_head_ns + cost.memcpy_ns(response.body.len()));
    let raw = response.to_bytes();
    stream.send(caller, &raw).map_err(transport_err)?;
    Ok(())
}

/// Maximum consecutive empty reads before the exchange reports
/// [`HttpError::Incomplete`] (in the simulator, data queued by a peer is
/// visible immediately, so emptiness means nothing more is coming).
const MAX_IDLE_READS: u32 = 3;

/// Polls a fresh reader with `poll` until a message comes out, landing
/// each segment the stream delivers straight in the reader's buffer: the
/// kernel→user copy of `recv(2)`, and the only copy a body makes.
fn read_message<M>(
    stream: &Endpoint,
    caller: &Sandbox,
    mut poll: impl FnMut(&mut MessageReader) -> Result<Option<M>, HttpError>,
) -> Result<M, HttpError> {
    let mut reader = MessageReader::new();
    let mut idle = 0;
    loop {
        if let Some(msg) = poll(&mut reader)? {
            let cost = caller.cost();
            caller.charge_user(cost.http_head_ns);
            return Ok(msg);
        }
        let landed = stream.recv_with(caller, usize::MAX, |seg| {
            caller.account().count_copy(seg.len());
            reader.feed(seg);
            seg.len()
        });
        match landed.map_err(transport_err)? {
            None => return Err(HttpError::Incomplete),
            Some(0) => {
                idle += 1;
                if idle >= MAX_IDLE_READS {
                    return Err(HttpError::Incomplete);
                }
            }
            Some(_) => idle = 0,
        }
    }
}

/// Reads one complete request from `stream`.
///
/// # Errors
///
/// [`HttpError::Incomplete`] if the peer closed or stalled mid-message,
/// [`HttpError::Parse`] on malformed bytes.
pub fn read_request(stream: &Endpoint, caller: &Sandbox) -> Result<Request, HttpError> {
    read_message(stream, caller, MessageReader::try_request)
}

/// Reads one complete response from `stream`.
///
/// # Errors
///
/// Same failure modes as [`read_request`].
pub fn read_response(stream: &Endpoint, caller: &Sandbox) -> Result<Response, HttpError> {
    read_message(stream, caller, MessageReader::try_response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_vkernel::net::Link;
    use roadrunner_vkernel::tcp::TcpConn;
    use roadrunner_vkernel::unix::UnixConn;
    use roadrunner_vkernel::{CostModel, VirtualClock};
    use std::sync::Arc;

    fn sandboxes() -> (Sandbox, Sandbox) {
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        (
            Sandbox::detached("client", clock.clone(), Arc::clone(&cost)),
            Sandbox::detached("server", clock, cost),
        )
    }

    #[test]
    fn full_exchange_over_tcp() {
        let (ca, sb) = sandboxes();
        let (client, server) = TcpConn::establish(&ca, Link::loopback("lo"));
        send_request(&client, &ca, &Request::post("/invoke", b"data".as_slice())).unwrap();
        let req = read_request(&server, &sb).unwrap();
        assert_eq!(req.path, "/invoke");
        assert_eq!(&req.body[..], b"data");
        send_response(&server, &sb, &Response::ok(b"done".as_slice())).unwrap();
        let resp = read_response(&client, &ca).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body[..], b"done");
    }

    #[test]
    fn full_exchange_over_unix() {
        let (ca, sb) = sandboxes();
        let (client, server) = UnixConn::pair();
        let resp_body = {
            send_request(&client, &ca, &Request::post("/f", vec![9u8; 200_000])).unwrap();
            let req = read_request(&server, &sb).unwrap();
            assert_eq!(req.body.len(), 200_000);
            send_response(&server, &sb, &Response::ok(req.body.clone())).unwrap();
            read_response(&client, &ca).unwrap().body
        };
        assert_eq!(resp_body.len(), 200_000);
        assert!(resp_body.iter().all(|&b| b == 9));
    }

    #[test]
    fn stalled_stream_reports_incomplete() {
        let (ca, sb) = sandboxes();
        let (client, server) = UnixConn::pair();
        // Send only half a message.
        let raw = Request::post("/x", vec![0u8; 64]).to_bytes();
        client.send(&ca, &raw[..raw.len() / 2]).unwrap();
        assert_eq!(read_request(&server, &sb).unwrap_err(), HttpError::Incomplete);
    }

    #[test]
    fn closed_stream_reports_incomplete() {
        let (ca, sb) = sandboxes();
        let (client, server) = UnixConn::pair();
        let _ = ca;
        client.close();
        assert_eq!(read_request(&server, &sb).unwrap_err(), HttpError::Incomplete);
    }

    #[test]
    fn exchange_charges_cpu_time() {
        let (ca, sb) = sandboxes();
        let (client, server) = UnixConn::pair();
        send_request(&client, &ca, &Request::post("/f", vec![1u8; 1 << 20])).unwrap();
        let _ = read_request(&server, &sb).unwrap();
        assert!(ca.account().user_ns() > 0, "client pays head build + body copy");
        assert!(ca.account().kernel_ns() > 0, "client pays socket copies");
        assert!(sb.account().kernel_ns() > 0, "server pays receive copies");
    }
}
