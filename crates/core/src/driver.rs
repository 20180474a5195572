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

/// Recycled receive-side reassembly buffers (MX's medium-message ring,
/// GM's bounce pool): a message that arrives in several chunks borrows one
/// for as long as it is incomplete, so the pool settles at the number of
/// concurrently reassembling messages and their largest size. A message
/// that arrives whole in one chunk never needs one.
#[derive(Default)]
pub struct RingPool {
    idle: Vec<Vec<u8>>,
}

impl RingPool {
    /// An empty buffer, recycled when one is idle.
    pub fn take(&mut self) -> Vec<u8> {
        self.idle.pop().unwrap_or_default()
    }

    /// Return a buffer (one that never held anything is simply dropped).
    pub fn give(&mut self, mut ring: Vec<u8>) {
        if ring.capacity() > 0 {
            ring.clear();
            self.idle.push(ring);
        }
    }

    /// Copy a chunk's `payload` into `ring` at `offset`, growing it to fit.
    /// Chunks may land in any order (reassembly is offset-based).
    pub fn stage(ring: &mut Vec<u8>, offset: u64, payload: &[u8]) {
        let (off, end) = (offset as usize, offset as usize + payload.len());
        if ring.len() < end {
            ring.resize(end, 0);
        }
        ring[off..end].copy_from_slice(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pool_recycles_buffers_and_stages_chunks_in_any_order() {
        let mut pool = RingPool::default();
        let mut ring = pool.take();
        assert_eq!(
            ring.capacity(),
            0,
            "a cold pool hands out nothing allocated"
        );
        RingPool::stage(&mut ring, 4, b"5678");
        RingPool::stage(&mut ring, 0, b"1234");
        assert_eq!(ring, b"12345678");
        let heap = ring.as_ptr();
        pool.give(ring);
        pool.give(Vec::new()); // never held anything: not kept
        let again = pool.take();
        assert!(
            again.is_empty() && again.as_ptr() == heap,
            "same buffer, cleared"
        );
        assert_eq!(pool.take().capacity(), 0, "the pool held exactly one");
    }
}
