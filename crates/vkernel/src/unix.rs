//! Unix-domain stream sockets — the kernel-space IPC mechanism.
//!
//! The paper's kernel-space transfer (§4.2) moves raw bytes between two
//! co-located shims over a Unix socket: one user→kernel copy on `send`,
//! one kernel→user copy on `recv`, plus a context switch when the receiver
//! wakes. No serialization is involved — that is Roadrunner's saving — but
//! the copies and switches remain, which is why kernel-space mode sits
//! between user-space mode and the network path in every figure.
//!
//! A Unix pair is a [`socket::Endpoint`](crate::socket::Endpoint) pair
//! without a link: nothing but the charges moves the clock.

use crate::socket::Endpoint;

/// One endpoint of a connected Unix-domain socket pair.
pub type UnixEndpoint = Endpoint;

/// Factory for connected Unix-domain socket pairs.
#[derive(Debug)]
pub struct UnixConn;

impl UnixConn {
    /// Creates a connected pair, like `socketpair(2)`.
    ///
    /// ```
    /// # use roadrunner_vkernel::unix::UnixConn;
    /// let (a, b) = UnixConn::pair();
    /// # let _ = (a, b);
    /// ```
    pub fn pair() -> (UnixEndpoint, UnixEndpoint) {
        Endpoint::pair(None)
    }
}

#[cfg(test)]
mod tests {
    use super::UnixConn;

    crate::socket::table::socket_table!(&[|_| UnixConn::pair()]);
}
