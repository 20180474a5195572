//! # knet-simnic — the Myrinet-like NIC and fabric substrate
//!
//! A functional model of the hardware the paper's software runs on:
//!
//! * [`model::NicModel`] — PCI-XD (250 MB/s) and PCI-XE (500 MB/s, two
//!   links) card generations;
//! * [`ttable::TransTable`] — the bounded on-card address-translation table
//!   (U-Net/MM style) with ASID-tagged keys (the paper's 64-bit-pointer
//!   firmware patch);
//! * [`layer`] — per-card DMA engine, firmware processor and transmit links
//!   as timed resources, plus a full-crossbar fabric.
//!
//! The GM and MX *firmware* logic lives in `knet-gm`/`knet-mx`; this crate
//! only provides the hardware they program.

pub mod coll;
pub mod fault;
pub mod layer;
pub mod model;
pub mod packet;
pub mod qos;
pub mod rel;
pub mod ttable;
pub mod txq;

pub use coll::{
    coll_inject, coll_on_packet, combine_lanes, is_coll_frame, CollCmd, CollEvent, CollNicStats,
    CollOp, CollState, PendKey, ReduceOp,
};
pub use fault::{FaultPlan, FaultStats};
pub use layer::{
    dma_charge, dma_gather, dma_scatter, fw_charge, run_nic_ev, wire_send, Nic, NicEv, NicLayer,
    NicStats, NicWorld,
};
pub use model::NicModel;
pub use packet::{MsgHeader, NicId, Packet, Proto};
pub use qos::{Admission, QosPolicy, QosState, QosTenantStats};
pub use rel::{
    rel_on_packet, rel_send, LinkKey, RelLinkStats, RelParams, RelState, RelStats, RelVerdict,
    CWND_FLOOR,
};
pub use ttable::{TransKey, TransTable, TtError, TtStats};
pub use txq::{tx_submit, TX_HORIZON_MTUS};
