//! Unified error type for the kernel network API.

use std::fmt;

use knet_simnic::TtError;
use knet_simos::OsError;

/// Errors surfaced by the network API layers (GM, MX, and the common core).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// Underlying OS/memory failure.
    Os(OsError),
    /// The buffer (or part of it) is not registered with the NIC and the
    /// port does not auto-register.
    NotRegistered,
    /// The NIC translation table is full.
    TableFull,
    /// The port ran out of send tokens (GM bounds pending requests).
    NoSendTokens,
    /// A channel's bounded backpressure queue overflowed: the transport was
    /// out of tokens *and* the channel already holds `send_queue_cap`
    /// deferred sends.
    SendQueueFull,
    /// No receive buffer of a suitable size class was provided (GM).
    NoRecvBuffer,
    /// Unknown or closed endpoint/port.
    BadEndpoint,
    /// Destination endpoint does not exist.
    BadDestination,
    /// The message exceeds what the protocol or buffer allows.
    TooLarge,
    /// A receive completed into a buffer smaller than the message.
    Truncated,
    /// The operation is not supported by this API in this mode (e.g.
    /// vectorial sends on stock GM, physical addressing without the patch).
    Unsupported,
    /// Ports/endpoints exhausted.
    OutOfPorts,
    /// The request id is unknown (already completed or never issued).
    UnknownRequest,
    /// An address class was used where it is not allowed (e.g. a user
    /// virtual address on a port opened without an address space).
    BadAddressClass,
    /// The driver's reliability window exhausted its retry budget against
    /// this peer (or the peer was already declared dead): no further
    /// traffic can reach it. Accompanied by a `TransportEvent::PeerDown`
    /// delivered to every channel bound to the peer.
    PeerUnreachable,
    /// The NIC admission point shed the send: the sender's tenant is over
    /// its token-bucket rate and its pacing lane is full (or the tenant is
    /// configured with a zero rate / a message larger than its burst, in
    /// which case admission can never succeed). Typed and synchronous —
    /// the send never entered any queue.
    Overload,
}

impl From<OsError> for NetError {
    fn from(e: OsError) -> Self {
        NetError::Os(e)
    }
}

/// How an RPC issued through `knet-rpc` can fail. This is the complete
/// caller-visible taxonomy: every call resolves with exactly one completion
/// (`knet_rpc::RpcCompletion`) carrying either a payload length or one of
/// these — never a hang.
///
/// The type lives here, next to [`NetError`]; the `knet-rpc` crate
/// re-exports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RpcError {
    /// The call's virtual-time deadline passed before a reply was
    /// observed — the caller's own, or, for a call without one, the RPC
    /// layer's `CALL_HORIZON`. Servers drop requests that arrive already
    /// expired, so a caller deadline is enforced on both ends of the wire.
    Deadline,
    /// The caller withdrew the call with `rpc_cancel`; its posted receive
    /// was cancelled and no reply will be observed.
    Cancelled,
    /// The peer's node is unreachable: the reliability layer declared it
    /// dead (`PeerDown`), or a send failed non-transiently. RPC itself
    /// never infers a death from silence.
    PeerUnreachable,
    /// The peer speaks a different RPC schema version (or the reply failed
    /// to decode); renegotiation is an application concern.
    VersionMismatch,
    /// The server shed the request (its reply pipeline was at capacity),
    /// or the caller's window or send queue was full. Final for the call;
    /// the caller may reissue.
    Overload,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Deadline => f.write_str("rpc deadline exceeded"),
            RpcError::Cancelled => f.write_str("rpc cancelled by caller"),
            RpcError::PeerUnreachable => f.write_str("rpc peer unreachable"),
            RpcError::VersionMismatch => f.write_str("rpc schema version mismatch"),
            RpcError::Overload => f.write_str("rpc server overloaded"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<TtError> for NetError {
    fn from(e: TtError) -> Self {
        match e {
            TtError::Full => NetError::TableFull,
            TtError::NotRegistered => NetError::NotRegistered,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Os(e) => write!(f, "os error: {e}"),
            NetError::NotRegistered => f.write_str("buffer not registered with the NIC"),
            NetError::TableFull => f.write_str("NIC translation table full"),
            NetError::NoSendTokens => f.write_str("no send tokens available"),
            NetError::SendQueueFull => f.write_str("channel send backpressure queue full"),
            NetError::NoRecvBuffer => f.write_str("no receive buffer provided"),
            NetError::BadEndpoint => f.write_str("unknown or closed endpoint"),
            NetError::BadDestination => f.write_str("unknown destination endpoint"),
            NetError::TooLarge => f.write_str("message too large"),
            NetError::Truncated => f.write_str("receive buffer too small"),
            NetError::Unsupported => f.write_str("operation not supported in this mode"),
            NetError::OutOfPorts => f.write_str("no free ports"),
            NetError::UnknownRequest => f.write_str("unknown request id"),
            NetError::BadAddressClass => f.write_str("address class not allowed here"),
            NetError::PeerUnreachable => f.write_str("peer unreachable (retry budget exhausted)"),
            NetError::Overload => f.write_str("tenant over its admission rate (send shed)"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(NetError::from(OsError::Fault), NetError::Os(OsError::Fault));
        assert_eq!(NetError::from(TtError::Full), NetError::TableFull);
        assert_eq!(
            NetError::from(TtError::NotRegistered),
            NetError::NotRegistered
        );
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", NetError::Os(OsError::OutOfMemory));
        assert!(s.contains("out of physical memory"));
    }
}
