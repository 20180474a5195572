//! Wire packets.
//!
//! The fabric is protocol-agnostic: GM and MX firmware define their own
//! header semantics in `meta`/`kind` and carry payload bytes opaquely.
//! Payloads use [`bytes::Bytes`] so staging in NIC SRAM and handing off to
//! the receive path never copies in host (simulator) memory — the *modeled*
//! copies are explicit cost-model charges.

use bytes::Bytes;
use knet_simcore::SimTime;

/// Identifier of a NIC attached to the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NicId(pub u32);

/// Driver protocol discriminator carried in every packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Proto {
    /// GM message-passing firmware.
    Gm,
    /// MX (Myrinet Express) firmware.
    Mx,
    /// Raw fabric tests.
    Raw,
}

/// One packet on the wire. Large messages travel as several MTU-sized
/// packets that pipeline through the DMA engines and links.
#[derive(Clone, Debug)]
pub struct Packet {
    pub src: NicId,
    pub dst: NicId,
    pub proto: Proto,
    /// Driver-defined packet kind (e.g. GM data, MX rendezvous RTS).
    pub kind: u8,
    /// Driver-defined header words (match bits, sequence numbers, …).
    pub meta: [u64; 4],
    /// Payload bytes actually carried.
    pub payload: Bytes,
    /// Wire-level size: payload plus the driver's header overhead. This is
    /// what occupies the link.
    pub wire_len: u64,
    /// Reliability sequence number on this packet's `(proto, src, dst)`
    /// link, assigned by the NIC-level window (`crate::rel`). `0` marks an
    /// unsequenced packet (raw fabric traffic). **Raw field** — only the
    /// reliability layer and the two drivers may touch it (grep-gated).
    /// (Acks are not packets: they ride the control stream inside the
    /// reliability layer; the cumulative ack and the 64-bit SACK bitmap
    /// therefore never appear as packet fields.)
    pub rel_seq: u64,
    /// Reliability timestamp: the instant this copy's last bit left the
    /// source link, stamped by [`crate::layer::wire_send`] on sequenced
    /// packets and echoed back in the ack it triggers — the sender's RTT
    /// estimator (SRTT/RTTVAR, `crate::rel`) feeds on the echo. Stamped at
    /// wire departure, not submission, so host/DMA pipeline backlog never
    /// inflates the RTT estimate. **Raw field**, grep-gated like the
    /// sequence number.
    pub rel_tsval: SimTime,
    /// Sending tenant (consumer group), stamped by the driver after
    /// admission so receive-side accounting can attribute wire traffic.
    /// `0` is the default tenant; untenanted raw fabric traffic also
    /// carries `0`.
    pub tenant: u32,
}

impl Packet {
    /// Build a packet; `header_bytes` is the driver's on-wire header size.
    pub fn new(
        src: NicId,
        dst: NicId,
        proto: Proto,
        kind: u8,
        meta: [u64; 4],
        payload: Bytes,
        header_bytes: u64,
    ) -> Self {
        let wire_len = payload.len() as u64 + header_bytes;
        Packet {
            src,
            dst,
            proto,
            kind,
            meta,
            payload,
            wire_len,
            rel_seq: 0,
            rel_tsval: SimTime::ZERO,
            tenant: 0,
        }
    }
}

/// The message header both drivers carry in [`Packet::meta`]: who the
/// message is for and from (driver-local port / endpoint indices), its
/// match tag, the sender's message id, and where this packet's payload sits
/// in the message. The one definition of the four header words — GM data
/// packets and every MX packet kind (eager, RTS, CTS, large) use it.
///
/// `offset` and `total` share the last word, 32 bits each: a message is at
/// most 4 GiB − 1 on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgHeader {
    pub dst: u32,
    pub src: u32,
    pub tag: u64,
    pub msg_id: u64,
    pub offset: u64,
    pub total: u64,
}

impl MsgHeader {
    pub fn new(dst: u32, src: u32, tag: u64, msg_id: u64, offset: u64, total: u64) -> Self {
        MsgHeader {
            dst,
            src,
            tag,
            msg_id,
            offset,
            total,
        }
    }

    pub fn pack(&self) -> [u64; 4] {
        [
            (self.dst as u64) | ((self.src as u64) << 32),
            self.tag,
            self.msg_id,
            (self.offset << 32) | (self.total & 0xFFFF_FFFF),
        ]
    }

    pub fn unpack(meta: &[u64; 4]) -> Self {
        MsgHeader {
            dst: (meta[0] & 0xFFFF_FFFF) as u32,
            src: (meta[0] >> 32) as u32,
            tag: meta[1],
            msg_id: meta[2],
            offset: meta[3] >> 32,
            total: meta[3] & 0xFFFF_FFFF,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_header_round_trips_every_field_at_its_limits() {
        let max32 = u32::MAX as u64;
        for h in [
            MsgHeader::new(3, 0x8000_0001, 0xDEAD_BEEF_0BAD_F00D, 42, 8192, 32768),
            MsgHeader::new(u32::MAX, u32::MAX, u64::MAX, u64::MAX, max32, max32),
            MsgHeader::new(0, 0, 0, 0, 0, 0),
            // The two halves of the shared word do not bleed into each other.
            MsgHeader::new(1, 2, 3, 4, max32, 0),
            MsgHeader::new(1, 2, 3, 4, 0, max32),
        ] {
            assert_eq!(MsgHeader::unpack(&h.pack()), h);
        }
    }

    #[test]
    fn wire_len_includes_header() {
        let p = Packet::new(
            NicId(0),
            NicId(1),
            Proto::Raw,
            0,
            [0; 4],
            Bytes::from_static(b"hello"),
            16,
        );
        assert_eq!(p.wire_len, 21);
        assert_eq!(&p.payload[..], b"hello");
    }
}
