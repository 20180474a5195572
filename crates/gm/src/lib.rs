//! # knet-gm — the GM driver (Myrinet's 2005 production interface)
//!
//! A functional model of GM 2.x as the paper characterizes it (§2.2.2), plus
//! the paper's own patches (§3):
//!
//! * message passing with send tokens; completions cost a completion-record
//!   DMA and a host poll, then go straight to the port's consumer;
//! * **explicit memory registration** — pin + NIC-table entry, 3 µs/page,
//!   200 µs deregistration base ([`params`]);
//! * a **kernel port** costing ≈2 µs more per operation;
//! * the **physical-address primitives** patch (`GmPortConfig::with_physical_api`)
//!   that lets in-kernel users hand page-cache pages straight to the NIC;
//! * **GMKRC**, the kernel registration cache, kept coherent by VMA SPY
//!   ([`cache`]). It is part of GM's interface, not of its callers: on a
//!   port with a cache, [`gm_send_t`] and [`gm_provide_receive_buffer`]
//!   first register whatever memory the NIC must translate, so every
//!   in-kernel user gets on-the-fly registration from one driver call.
//!
//! GM is deliberately *not* vectorial — "These primitives are not offered by
//! several interfaces such as GM" (§4.1) — sends take a single `MemRef`;
//! that asymmetry versus MX is part of what the figures measure.

pub mod cache;
pub mod layer;
pub mod params;

#[cfg(test)]
mod tests;

pub use cache::{gm_ensure_cached, gm_on_vma_event};
pub use layer::{
    gm_cancel_receive_buffer, gm_close_port, gm_coll_post, gm_deregister, gm_on_packet,
    gm_open_port, gm_peer_down, gm_provide_receive_buffer, gm_recv_filling, gm_register, gm_send_t,
    run_gm_ev, GmEv, GmLayer, GmPort, GmPortConfig, GmPortId, GmStats, GmWorld, PacedGmSend,
    PortMode, GM_ANY_TAG,
};
pub use params::GmParams;
