//! Socket-layer cost parameters (§5.3).
//!
//! Anchors:
//! * SOCKETS-MX one-way latency ≈ 5 µs — "only a 1 µs overhead over raw MX
//!   latency … since a system call is involved (about 400 ns)";
//! * SOCKETS-GM ≈ 15 µs — GM kernel latency plus the extra *dispatching
//!   kernel thread* its limited completion notification requires;
//! * TCP/IP "is known to use 50 % of the overall transaction cost".
//!
//! The costs are constants: they are measurements of one testbed, not
//! settings.

use knet_simcore::{Bandwidth, SimTime};

// ---- the zero-copy socket layers ----------------------------------------

/// Socket-layer bookkeeping per call (after the syscall itself).
pub const SOCK_LAYER: SimTime = SimTime::from_nanos(250);
/// Per-incoming-message cost of the SOCKETS-GM dispatcher thread: a
/// wake-up and a context switch in, then one back out.
pub const GM_DISPATCH_SWITCHES: u64 = 2;
/// Per-event interrupt cost on SOCKETS-GM (its completion notification
/// is interrupt-driven through the dispatcher thread).
pub const GM_INTERRUPT: SimTime = SimTime::from_nanos(2_200);
/// Payloads up to this size ride inline behind the header on MX
/// (one message instead of two).
pub const INLINE_MAX_MX: u64 = 4096;
/// Inline threshold for GM.
pub const INLINE_MAX_GM: u64 = 1024;

// ---- the TCP/IP-over-Gigabit-Ethernet baseline --------------------------

/// Wire rate of the GigE link.
pub const WIRE_BW: Bandwidth = Bandwidth::mb_per_sec(125);
/// MTU (standard Ethernet).
pub const MTU: u64 = 1500;
/// One-way wire + switch latency.
pub const WIRE_LATENCY: SimTime = SimTime::from_micros(12);
/// Host protocol cost per packet (IP/TCP processing, interrupt share).
pub const PER_PACKET_HOST: SimTime = SimTime::from_micros(4);
/// Checksum computation bandwidth (touches every byte).
pub const CHECKSUM_BW: Bandwidth = Bandwidth::mb_per_sec(800);
/// Fixed per-send and per-receive host cost (syscall + socket).
pub const PER_CALL_HOST: SimTime = SimTime::from_micros(2);

/// Host CPU time to push or accept `bytes` through the TCP/IP stack
/// (fragmentation + checksum + per-packet processing), one side.
pub fn host_cost(bytes: u64) -> SimTime {
    let packets = bytes.div_ceil(MTU).max(1);
    PER_CALL_HOST + PER_PACKET_HOST * packets + CHECKSUM_BW.transfer_time(bytes)
}

/// GigE wire occupancy of `bytes` (with per-packet framing of 58 bytes).
pub fn wire_cost(bytes: u64) -> SimTime {
    let packets = bytes.div_ceil(MTU).max(1);
    WIRE_BW.transfer_time(bytes + packets * 58)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_host_cost_is_about_half_the_transaction() {
        // §5.3 cites [Sum00]: TCP/IP ≈ 50 % of the overall transaction cost.
        // For a 64 kB transfer: host (both sides) vs wire time.
        let host = host_cost(65536).micros() * 2.0;
        let total = host + wire_cost(65536).micros() + WIRE_LATENCY.micros();
        let share = host / total;
        assert!(
            (0.35..=0.6).contains(&share),
            "TCP host share = {share:.2} (paper: ≈0.5)"
        );
    }

    #[test]
    fn tcp_small_message_latency_is_tens_of_microseconds() {
        let one_way = host_cost(1) + wire_cost(1) + WIRE_LATENCY + host_cost(1);
        assert!(
            (20.0..=60.0).contains(&one_way.micros()),
            "GigE 1-byte one-way = {one_way}"
        );
    }

    #[test]
    fn gige_wire_is_eight_times_slower_than_myrinet_xe() {
        assert_eq!(WIRE_BW.raw() * 4, 500_000_000);
    }
}
