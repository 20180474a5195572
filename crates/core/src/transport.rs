//! The unified kernel transport abstraction.
//!
//! ORFS and the zero-copy socket layer are written once, against this
//! interface, and run unchanged over GM or MX — which is precisely the
//! paper's experimental method (the same ORFS client measured on both
//! drivers). The composed world implements [`TransportWorld`] by routing
//! each call to the driver that owns the endpoint; driver-specific behaviour
//! (GM's registration cache and kernel-port overhead, MX's address classes
//! and copy protocols) stays inside the drivers.

use bytes::Bytes;
use knet_simnic::{NicWorld, Proto};
use knet_simos::NodeId;

use crate::error::NetError;
use crate::iovec::IoVec;
use crate::pace::Sent;
use crate::tenant::TenantId;

/// Which driver an endpoint belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TransportKind {
    Gm,
    Mx,
}

/// The wire protocol a driver's packets carry.
impl From<TransportKind> for Proto {
    fn from(kind: TransportKind) -> Proto {
        match kind {
            TransportKind::Gm => Proto::Gm,
            TransportKind::Mx => Proto::Mx,
        }
    }
}

/// The driver that owns a wire protocol; [`Proto::Raw`] fabric traffic
/// belongs to none and is handed back as the error.
impl TryFrom<Proto> for TransportKind {
    type Error = Proto;

    fn try_from(proto: Proto) -> Result<TransportKind, Proto> {
        match proto {
            Proto::Gm => Ok(TransportKind::Gm),
            Proto::Mx => Ok(TransportKind::Mx),
            Proto::Raw => Err(Proto::Raw),
        }
    }
}

/// A transport endpoint: a GM port or an MX endpoint on some node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Endpoint {
    pub kind: TransportKind,
    pub node: NodeId,
    /// Driver-local index (GM port number / MX endpoint id).
    pub idx: u32,
}

/// Completion and delivery notifications handed to an endpoint's owner.
#[derive(Clone, Debug)]
pub enum TransportEvent {
    /// A send completed; `ctx` is the caller's cookie.
    SendDone { ctx: u64 },
    /// A posted receive completed: `len` bytes matching `tag` landed in the
    /// posted io-vector, sent by `from`.
    RecvDone {
        ctx: u64,
        tag: u64,
        len: u64,
        from: Endpoint,
    },
    /// A message arrived with no matching posted receive. The payload is
    /// delivered inline from the driver's bounce buffers (the copy cost was
    /// charged by the driver).
    Unexpected {
        tag: u64,
        data: Bytes,
        from: Endpoint,
    },
    /// A send that was accepted but never left failed: the channel layer
    /// queued it under backpressure and its retry failed, or the driver's
    /// pacing lane parked it and gave it up at drain time (an endpoint
    /// closed, the peer died, the tenant's policy sheds it). No bytes left
    /// the node and no `SendDone` will ever arrive for `ctx`. Consumers
    /// must release whatever resources they tied to the context.
    SendFailed { ctx: u64, error: NetError },
    /// The driver's reliability window declared the peer's node dead (retry
    /// budget exhausted, or the node was killed). Delivered, on the node
    /// facing the dead peer, to the connected channels whose peer lives on
    /// it and to every accept-side channel of the transport (see
    /// `api::peer_down`, which owns the rule); further sends toward the
    /// node fail with [`NetError::PeerUnreachable`].
    ///
    /// `peer` is the channel's recorded peer endpoint when it lives on the
    /// dead node; otherwise (an accept-side channel serving many peers)
    /// `peer.idx` is `u32::MAX` and only `peer.kind`/`peer.node` identify
    /// the casualty — such consumers key their cleanup on the node.
    PeerDown { peer: Endpoint },
    /// A collective this endpoint initiated (or contributed to) completed.
    /// At the root of a broadcast/barrier/reduce this is the single
    /// aggregated completion; at a non-root member it is the local
    /// completion (contribution combined and forwarded / release wave
    /// arrived). For a reduce root, `data` carries the combined lane
    /// vector; otherwise it is empty.
    CollectiveDone { ctx: u64, group: u32, data: Bytes },
    /// A broadcast payload arrived at this member of `group` (delivered
    /// NIC-to-NIC down the tree; no posted receive is involved).
    CollectiveRecv { group: u32, tag: u64, data: Bytes },
    /// An outstanding collective cannot complete — typically a member died
    /// mid-round (`error` is [`NetError::PeerUnreachable`]). Delivered to
    /// every member with an outstanding context in the group; the group
    /// rejects further operations until re-created.
    CollectiveFailed {
        ctx: u64,
        group: u32,
        error: NetError,
    },
}

/// World capability: send/receive over whichever driver owns the endpoint.
/// The composed world implements it with one driver call per operation;
/// what a driver does for a send or a receive post (GM's registration
/// cache, MX's address-class checks and copy protocols) happens inside it.
///
/// Contract expected from implementations:
/// * `t_send_t` is asynchronous: data leaves via the driver's protocol and
///   a `SendDone { ctx }` event is eventually delivered to the *sender's*
///   owner.
/// * `t_post_recv` arms a tagged receive; when a message with that tag
///   arrives, its payload lands in the io-vector (zero-copy when the driver
///   can) and `RecvDone` is delivered to the endpoint's owner.
/// * Messages with no armed tag surface as `Unexpected`.
pub trait TransportWorld: NicWorld {
    /// Send on behalf of the sending consumer group's [`TenantId`], which
    /// the driver threads to its pacing lanes and the NIC admission point.
    /// The channel layer is the only caller — services never name tenants
    /// on the wire path. The [`Sent`] it returns says whether the payload
    /// was read already or will be read when the send's pacing lane
    /// drains.
    fn t_send_t(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
        tenant: TenantId,
    ) -> Result<Sent, NetError>;

    /// [`TransportWorld::t_send_t`] under [`TenantId::DEFAULT`], which has
    /// no QoS policy unless one was installed: the untenanted driver seam.
    fn t_send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
    ) -> Result<(), NetError> {
        self.t_send_t(from, to, tag, iov, ctx, TenantId::DEFAULT)
            .map(drop)
    }

    fn t_post_recv(&mut self, ep: Endpoint, tag: u64, iov: IoVec, ctx: u64)
        -> Result<(), NetError>;

    /// Withdraw a posted receive by tag.
    ///
    /// Contract — identical on GM and MX (tested by
    /// `tests/channel_api.rs::cancel_recv_contract_is_identical_on_gm_and_mx`):
    ///
    /// * Returns `true` **iff a posted receive was withdrawn**: one armed by
    ///   `t_post_recv` with this `tag` was still pending (not yet matched by
    ///   an inbound message) and has now been removed. Any resources the
    ///   driver took while arming it (MX pins user pages; GM holds the
    ///   provided buffer) are released.
    /// * Returns `false` when nothing was withdrawn: no receive with this
    ///   tag was ever posted, it already completed (`RecvDone` was or will
    ///   be delivered), or it was already cancelled. Cancelling is
    ///   idempotent — a second call with the same tag returns `false`.
    /// * A receive an **accepted rendezvous** was committed to (MX: the CTS
    ///   left, the sender is streaming into the buffer) is *consumed*, not
    ///   pending: cancelling it returns `false` and the transfer completes
    ///   normally.
    /// * A receive merely **captured** by an eager message that has not
    ///   finished arriving is still its owner's: cancel returns `true`, the
    ///   driver's resources are released, no `RecvDone` will arrive, and
    ///   the rest of that message is discarded (never matched against
    ///   another receive). This is what lets a consumer take its buffer
    ///   back from a sender that died mid-message.
    /// * **Payload-overtakes-descriptor**: when the payload arrived before
    ///   the receive was posted, it was delivered as `Unexpected` and the
    ///   later-posted receive stays armed forever (tags are not matched
    ///   retroactively). Cancelling it returns `true`. This is the case the
    ///   zero-copy socket layer relies on (`knet-zsock`): it withdraws the
    ///   now-useless descriptor and lands the bytes by copy.
    fn t_cancel_recv(&mut self, ep: Endpoint, tag: u64) -> bool;

    /// Whether a message is arriving into the receive posted on `ep` with
    /// this `tag`: it matched the receive (captured it, or an accepted
    /// rendezvous was committed to it) and has not finished. Its `RecvDone`
    /// follows, or the sender's death hands the receive back.
    fn t_recv_filling(&self, ep: Endpoint, tag: u64) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_value_types() {
        let a = Endpoint {
            kind: TransportKind::Gm,
            node: NodeId(0),
            idx: 3,
        };
        let b = Endpoint {
            kind: TransportKind::Mx,
            node: NodeId(0),
            idx: 3,
        };
        assert_ne!(a, b, "kind participates in identity");
        assert_eq!(a, a);
    }

    #[test]
    fn kinds_and_wire_protocols_convert_both_ways() {
        for kind in [TransportKind::Gm, TransportKind::Mx] {
            assert_eq!(TransportKind::try_from(Proto::from(kind)), Ok(kind));
        }
        assert_eq!(TransportKind::try_from(Proto::Raw), Err(Proto::Raw));
    }
}
