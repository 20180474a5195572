//! # knet-nbd — the Network Block Device over the kernel network API
//!
//! The paper's declared third in-kernel application (§6): "This client
//! transmits low-level block device accesses to a remote server, allowing
//! remote partition mounting such as with iSCSI. Such a client manipulates
//! the page-cache in a similar way a distributed file system client does.
//! Our physical address based interface should thus be suitable in this
//! context."
//!
//! This crate implements exactly that prediction so it can be measured:
//!
//! * [`server`]: exports an in-memory virtual disk, serving sector-range
//!   reads and writes;
//! * [`client`]: a kernel block device whose *buffered* path caches disk
//!   blocks in the page-cache (pinned physical frames handed straight to
//!   the transport — the paper's physical-address API at work) and whose
//!   *raw* path moves sector ranges zero-copy to/from user memory.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{
    nbd_client_create, nbd_on_client_event, nbd_read, nbd_read_raw, nbd_wait, nbd_write, NbdClient,
    NbdClientId, NbdClientStats, NbdOp, NbdResult,
};
pub use proto::{NbdRequest, SECTOR_SIZE};
pub use server::{nbd_on_server_event, nbd_server_create, NbdServer, NbdServerId, VirtualDisk};

use knet_core::{DispatchWorld, ReqEv};

/// All NBD state in a world.
#[derive(Default)]
pub struct NbdLayer {
    pub servers: Vec<NbdServer>,
    pub clients: Vec<NbdClient>,
}

impl NbdLayer {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Capability trait: a world hosting NBD clients and servers.
pub trait NbdWorld: DispatchWorld {
    fn nbd(&self) -> &NbdLayer;
    fn nbd_mut(&mut self) -> &mut NbdLayer;

    /// Wrap a client's horizon timer into the world's event enum; the world
    /// runs it with `knet_core::StorageClient::horizon_fired`.
    fn lift_nbd(ev: ReqEv) -> <Self as knet_simcore::SimWorld>::Ev;
}
