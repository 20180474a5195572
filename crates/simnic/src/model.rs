//! NIC hardware models: the two Myrinet card generations of the paper.

use knet_simcore::{Bandwidth, SimTime};

/// Hardware parameters of a NIC.
///
/// Firmware *costs* are deliberately absent: the GM and MX drivers program
/// the same LANai processor with different control programs, and their very
/// different per-message costs are what the paper measures — so those
/// constants live in `knet-gm`/`knet-mx`, not here.
#[derive(Clone, Debug)]
pub struct NicModel {
    pub name: &'static str,
    /// Per-link wire bandwidth.
    pub link_bw: Bandwidth,
    /// Number of links (PCI-XE cards reach 500 MB/s "by using two links").
    pub links: usize,
    /// Host-memory DMA bandwidth over the PCI/PCI-X bus.
    pub dma_bw: Bandwidth,
    /// Per-descriptor DMA setup cost.
    pub dma_setup: SimTime,
    /// Wire propagation + switch cut-through latency between two nodes.
    pub wire_latency: SimTime,
    /// Maximum payload the firmware moves as one packet; larger messages are
    /// cut into MTU-sized chunks that pipeline across DMA and wire.
    pub mtu: u64,
    /// Capacity of the on-card address-translation table, in page entries.
    /// Bounded, as the paper stresses: "the amount of page translations that
    /// may be stored in the NIC is limited".
    pub ttable_entries: usize,
    /// SRAM available for staging buffers (bytes).
    pub sram_bytes: u64,
    /// Receive FIFO depth in bytes: how much backlog the receive side of a
    /// link absorbs before arriving packets are dropped on the floor
    /// (incast congestion — the loss the sender's control loop must avoid
    /// provoking).
    pub rx_fifo: u64,
}

impl NicModel {
    /// PCI-XD Myrinet card: 250 MB/s full-duplex, one link (§3.1).
    pub fn pci_xd() -> Self {
        NicModel {
            name: "PCI-XD",
            link_bw: Bandwidth::mb_per_sec(250),
            links: 1,
            dma_bw: Bandwidth::mb_per_sec(850),
            dma_setup: SimTime::from_nanos(250),
            wire_latency: SimTime::from_nanos(550),
            mtu: 4096,
            ttable_entries: 4096,
            sram_bytes: 2 * 1024 * 1024,
            rx_fifo: 64 * 1024,
        }
    }

    /// PCI-XE Myrinet card: 500 MB/s full-duplex using two links (§5.3).
    pub fn pci_xe() -> Self {
        NicModel {
            name: "PCI-XE",
            link_bw: Bandwidth::mb_per_sec(250),
            links: 2,
            dma_bw: Bandwidth::gb_per_sec_f64(1.4),
            dma_setup: SimTime::from_nanos(180),
            wire_latency: SimTime::from_nanos(450),
            mtu: 4096,
            ttable_entries: 8192,
            sram_bytes: 4 * 1024 * 1024,
            rx_fifo: 128 * 1024,
        }
    }

    /// The same card with a different link count (striping baselines: a
    /// PCI-XE constrained to one link isolates the lane-striping speedup).
    pub fn with_links(mut self, links: usize) -> Self {
        assert!((1..=4).contains(&links), "1..=4 links per card");
        self.links = links;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xd_sustains_250() {
        let m = NicModel::pci_xd();
        assert_eq!(m.link_bw.raw() * m.links as u64, 250_000_000);
        assert_eq!(m.links, 1);
    }

    #[test]
    fn xe_sustains_500_on_two_links() {
        let m = NicModel::pci_xe();
        assert_eq!(m.links, 2);
        assert_eq!(m.link_bw.raw() * m.links as u64, 500_000_000);
    }

    #[test]
    fn dma_is_faster_than_the_wire() {
        // Otherwise the bus, not the link, would bottleneck large messages —
        // contradicting the paper's ~245 MB/s sustained figures.
        for m in [NicModel::pci_xd(), NicModel::pci_xe()] {
            assert!(m.dma_bw.raw() > m.link_bw.raw());
        }
    }
}
