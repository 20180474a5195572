//! # knet-mx — the MX driver (Myrinet Express)
//!
//! The paper's primary vehicle: an interface that "almost provides an MPI
//! interface at the network level" (§4.2), whose **kernel API the authors
//! designed and contributed** — with native support for the three memory
//! address classes, vectorial buffers, no explicit registration, and a
//! completion interface flexible enough for in-kernel clients (§5.2).
//!
//! Protocol engine (§5.1):
//! * **small** (< 128 B): PIO-inlined;
//! * **medium** (128 B – 32 kB): copied through pre-pinned rings on both
//!   sides, except where the paper's send-copy removal applies — on by
//!   default, for kernel-virtual or physical, physically contiguous
//!   buffers ([`MxOpts::SEND_COPY`] is the MX before it) — and the
//!   *predicted* receive-copy removal as a simulated "future MX";
//! * **large** (> 32 kB): rendezvous (RTS/CTS), internally pinned,
//!   zero-copy DMA on both ends.

pub mod layer;
pub mod params;

#[cfg(test)]
mod tests;

pub use layer::{
    mx_cancel_recv, mx_close_endpoint, mx_coll_post, mx_irecv, mx_isend_t, mx_on_packet,
    mx_open_endpoint, mx_peer_down, mx_recv_filling, run_mx_ev, MxEndpoint, MxEndpointConfig,
    MxEndpointId, MxEv, MxLayer, MxMode, MxOpts, MxStats, MxWorld, PacedMxSend, MX_ANY_TAG,
};
pub use params::MxProtocol;
