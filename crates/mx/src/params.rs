//! MX cost parameters, calibrated to the paper's measurements.
//!
//! Anchors:
//! * 1-byte one-way latency ≈ 4.2 µs, identical from user space and from the
//!   kernel (§5.1: "latency and bandwidth do not differ between user and
//!   kernel communications");
//! * medium messages (128 B – 32 kB) are copied on both sides through
//!   pre-pinned rings; small messages use programmed I/O; large messages
//!   rendezvous and are pinned internally (§5.1);
//! * removing the send-side copy buys ≈17 % at 32 kB and ≈9 % for a single
//!   page; removing both copies is predicted to buy another ≈15 % (§5.1).
//!
//! The costs are constants: they are measurements of one testbed, not
//! settings.

use knet_simcore::SimTime;

/// Host cost to post a send or receive (identical user/kernel — the
/// "very generic core infrastructure" of §5.1).
pub const HOST_POST: SimTime = SimTime::from_nanos(450);
/// Host cost to consume a completion event.
pub const HOST_EVENT: SimTime = SimTime::from_nanos(450);
/// Firmware processing of a send command (MX's firmware is the reason
/// its latency beats GM's).
pub const FW_SEND: SimTime = SimTime::from_micros(1);
/// Firmware processing of an incoming message (match + completion).
pub const FW_RECV: SimTime = SimTime::from_micros(1);
/// Firmware handling per additional MTU chunk.
pub const FW_CHUNK: SimTime = SimTime::from_nanos(300);
/// Firmware handling of a rendezvous control packet (RTS/CTS).
pub const FW_RNDV: SimTime = SimTime::from_nanos(800);
/// PIO startup for inlining a small message into the command queue.
pub const PIO_BASE: SimTime = SimTime::from_nanos(80);
/// PIO cost per byte of inlined payload.
pub const PIO_PER_BYTE_NS: u64 = 2;
/// Messages strictly smaller than this are *small* (inlined): 128 B.
pub const SMALL_MAX: u64 = 128;
/// Messages up to this size are *medium* (two-sided copy): 32 kB.
pub const MEDIUM_MAX: u64 = 32 * 1024;
/// On-wire header bytes per packet.
pub const HEADER_BYTES: u64 = 32;

/// Which protocol a message of `len` bytes uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MxProtocol {
    /// `< 128 B`: payload inlined by PIO.
    Small,
    /// `128 B ..= 32 kB`: copied through pre-pinned rings on both sides.
    Medium,
    /// `> 32 kB`: rendezvous, internally pinned, zero-copy DMA.
    Large,
}

/// The protocol a message of `len` bytes travels by.
pub fn protocol_for(len: u64) -> MxProtocol {
    if len < SMALL_MAX {
        MxProtocol::Small
    } else if len <= MEDIUM_MAX {
        MxProtocol::Medium
    } else {
        MxProtocol::Large
    }
}

/// Host PIO cost to inline `len` bytes.
pub fn pio_cost(len: u64) -> SimTime {
    PIO_BASE + SimTime::from_nanos(len * PIO_PER_BYTE_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_boundaries_match_the_paper() {
        // "medium side messages (from 128 bytes to 32 kB)" (§5.1).
        assert_eq!(protocol_for(0), MxProtocol::Small);
        assert_eq!(protocol_for(127), MxProtocol::Small);
        assert_eq!(protocol_for(128), MxProtocol::Medium);
        assert_eq!(protocol_for(32 * 1024), MxProtocol::Medium);
        assert_eq!(protocol_for(32 * 1024 + 1), MxProtocol::Large);
    }

    #[test]
    fn pio_scales_with_bytes() {
        assert!(pio_cost(127) > pio_cost(1));
        assert_eq!(pio_cost(0), PIO_BASE);
    }
}
