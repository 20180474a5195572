//! What the two drivers report the same way: the completion events of a
//! port / endpoint queue and the accounting of their recycled scratch
//! buffers. GM and MX differ in *how* a message moves (tokens and
//! registration versus eager/rendezvous); what they tell their owner about
//! it does not, so it is defined once, here.

use bytes::Bytes;

use crate::error::NetError;
use crate::transport::{Endpoint, TransportEvent};

/// Completion events in a driver port's / endpoint's queue. `Id` is the
/// driver's own endpoint identifier (`GmPortId`, `MxEndpointId`); the
/// drivers export this type as `GmEvent` / `MxEvent`.
#[derive(Clone, Debug)]
pub enum DriverEvent<Id> {
    /// A send completed locally: the buffer is reusable (and, on GM, the
    /// send token is back).
    SendDone { ctx: u64 },
    /// A message landed in a posted / provided receive buffer.
    RecvDone {
        ctx: u64,
        tag: u64,
        len: u64,
        from: Id,
    },
    /// A message arrived with no matching buffer and is delivered inline
    /// (GM: through the pre-registered bounce pool; MX: endpoints opened
    /// with `deliver_unexpected`). The extra host copy is already charged.
    Unexpected { tag: u64, data: Bytes, from: Id },
    /// A send the driver had parked in a tenant pacing lane failed at drain
    /// time (peer died, endpoint closed, policy shed it): no bytes left the
    /// node and no `SendDone` will arrive for `ctx`.
    SendFailed { ctx: u64, error: NetError },
}

impl<Id> DriverEvent<Id> {
    /// The transport-level form of this event; `endpoint_of` names the
    /// sending peer of a receive as a transport [`Endpoint`].
    pub fn into_transport(self, endpoint_of: impl FnOnce(Id) -> Endpoint) -> TransportEvent {
        match self {
            DriverEvent::SendDone { ctx } => TransportEvent::SendDone { ctx },
            DriverEvent::SendFailed { ctx, error } => TransportEvent::SendFailed { ctx, error },
            DriverEvent::RecvDone {
                ctx,
                tag,
                len,
                from,
            } => TransportEvent::RecvDone {
                ctx,
                tag,
                len,
                from: endpoint_of(from),
            },
            DriverEvent::Unexpected { tag, data, from } => TransportEvent::Unexpected {
                tag,
                data,
                from: endpoint_of(from),
            },
        }
    }
}

/// Observability for a driver's recycled scratch buffers (see
/// `tests/hotpath_alloc.rs`): steady state shows `uses` growing while
/// `grows` stays flat.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    /// Operations that borrowed scratch buffers.
    pub uses: u64,
    /// Borrows that had to grow a buffer (warm-up only, in steady state).
    pub grows: u64,
}

impl ScratchStats {
    /// Account one borrow whose capacity footprint went from `before` to
    /// `after`.
    pub fn note(&mut self, before: usize, after: usize) {
        self.uses += 1;
        if after > before {
            self.grows += 1;
        }
    }
}
