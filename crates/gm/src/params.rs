//! GM cost parameters, calibrated to the paper's measurements.
//!
//! Anchors (paper section in parentheses):
//! * 1-byte user-space one-way latency ≈ 6.7 µs (§5.1);
//! * kernel interface costs ≈ 2 µs more (§5.1: "Its small message latency is
//!   2 us higher in the kernel");
//! * page registration ≈ 3 µs/page, deregistration ≈ 200 µs base (§2.2.2);
//! * the physical-address primitives save ≈ 0.5 µs per side by skipping the
//!   NIC translation lookup (§3.3).
//!
//! The calibrated costs are constants: they are measurements of one
//! testbed, not settings. [`GmParams`] holds the two values a world may
//! change — the per-port send-token limit (tests force token exhaustion)
//! and the blocking-notification cost (the §5.2 ablation zeroes it).

use knet_simcore::SimTime;

/// Host cost to post a send from user space (library + doorbell PIO).
pub const HOST_SEND_POST: SimTime = SimTime::from_nanos(500);
/// Host cost to consume a completion event from user space.
pub const HOST_EVENT_POLL: SimTime = SimTime::from_nanos(550);
/// Extra host cost per operation through the kernel interface — GM "was
/// designed for user-level applications and thus lacks an efficient
/// in-kernel communication implementation".
pub const KERNEL_OP_EXTRA: SimTime = SimTime::from_micros(1);
/// Firmware (MCP) processing of one send command.
pub const FW_SEND: SimTime = SimTime::from_nanos(1_600);
/// Firmware processing of one incoming message (match + completion).
pub const FW_RECV: SimTime = SimTime::from_nanos(1_600);
/// Firmware handling of each additional MTU chunk.
pub const FW_CHUNK: SimTime = SimTime::from_nanos(400);
/// Firmware translation-table lookup per message when addressing is
/// virtual; the physical-address primitives skip exactly this.
pub const FW_TRANSLATE_BASE: SimTime = SimTime::from_nanos(500);
/// Additional translation cost per page beyond the first.
pub const FW_TRANSLATE_PAGE: SimTime = SimTime::from_nanos(40);
/// Host cost to enter the registration system call.
pub const REG_SYSCALL: SimTime = SimTime::from_nanos(400);
/// Registration cost per page (pin + table update): ≈3 µs.
pub const REG_PER_PAGE: SimTime = SimTime::from_micros(3);
/// Deregistration base cost (firmware synchronization): ≈200 µs.
pub const DEREG_BASE: SimTime = SimTime::from_micros(200);
/// Deregistration additional cost per page.
pub const DEREG_PER_PAGE: SimTime = SimTime::from_nanos(100);
/// On-wire header bytes per packet.
pub const HEADER_BYTES: u64 = 24;
/// Largest message the pre-registered bounce pool stages when no provided
/// buffer matched it; a larger unmatched message is dropped, so a header
/// naming a 4 GiB message cannot make the receiver stage one.
pub const BOUNCE_MAX: u64 = 4 << 20;

/// The GM settings a world may change. Plain scalars — `Copy`, so the hot
/// path reads it by value instead of cloning per operation.
#[derive(Clone, Copy, Debug)]
pub struct GmParams {
    /// Cost of waking a sleeping in-kernel consumer through GM's helper
    /// notification thread (two context switches + scheduler latency).
    /// Polling consumers (MPI, raw benchmarks) never pay this; blocking
    /// ones (ORFS) do — §5.2: GM's "limited completion notification
    /// mechanisms" are why the MX kernel API is "much more flexible".
    pub blocking_notify: SimTime,
    /// Pending-send limit per port ("some interfaces, especially GM, ask the
    /// user to limit the amount of pending requests", §4.1).
    pub send_tokens: usize,
}

impl Default for GmParams {
    fn default() -> Self {
        GmParams {
            blocking_notify: SimTime::from_nanos(6_500),
            send_tokens: 16,
        }
    }
}

/// Host cost of registering `pages` pages (Figure 1b "Memory
/// Registration" curve).
pub fn register_cost(pages: u64) -> SimTime {
    REG_SYSCALL + REG_PER_PAGE * pages
}

/// Host cost of deregistering `pages` pages (Figure 1b
/// "Memory De-registration" curve).
pub fn deregister_cost(pages: u64) -> SimTime {
    DEREG_BASE + DEREG_PER_PAGE * pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simos::PAGE_SIZE;

    #[test]
    fn registration_cost_matches_figure_1b() {
        // 256 kB = 64 pages → ≈192 µs registration.
        let pages = 256 * 1024 / PAGE_SIZE;
        let reg = register_cost(pages);
        assert!(
            (185.0..=205.0).contains(&reg.micros()),
            "256kB registration = {reg}"
        );
        // Deregistration is dominated by its 200 µs base.
        let dereg = deregister_cost(pages);
        assert!(
            (200.0..=215.0).contains(&dereg.micros()),
            "256kB deregistration = {dereg}"
        );
        // Single page registration ≈ 3 µs + syscall.
        assert!((3.0..=4.0).contains(&register_cost(1).micros()));
    }

    #[test]
    fn physical_api_saves_about_half_a_microsecond() {
        assert_eq!(FW_TRANSLATE_BASE.nanos(), 500);
    }
}
