//! ORFS world state: clients, servers, and their capability trait.

use knet_core::{DispatchWorld, ReqEv};

use crate::client::OrfsClient;
use crate::server::OrfsServer;

/// Identifier of an ORFS server instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrfsServerId(pub u32);

/// Identifier of an ORFA/ORFS client instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrfsClientId(pub u32);

/// All ORFS state in the world.
#[derive(Default)]
pub struct OrfsLayer {
    pub servers: Vec<OrfsServer>,
    pub clients: Vec<OrfsClient>,
}

impl OrfsLayer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn server(&self, id: OrfsServerId) -> &OrfsServer {
        &self.servers[id.0 as usize]
    }

    pub fn server_mut(&mut self, id: OrfsServerId) -> &mut OrfsServer {
        &mut self.servers[id.0 as usize]
    }

    pub fn client(&self, id: OrfsClientId) -> &OrfsClient {
        &self.clients[id.0 as usize]
    }

    pub fn client_mut(&mut self, id: OrfsClientId) -> &mut OrfsClient {
        &mut self.clients[id.0 as usize]
    }
}

/// Capability trait: a world hosting ORFS clients and servers on top of the
/// unified transport + dispatch registry.
pub trait OrfsWorld: DispatchWorld {
    fn orfs(&self) -> &OrfsLayer;
    fn orfs_mut(&mut self) -> &mut OrfsLayer;

    /// Wrap a client's horizon timer into the world's event enum; the world
    /// runs it with `knet_core::StorageClient::horizon_fired`.
    fn lift_orfs(ev: ReqEv) -> <Self as knet_simcore::SimWorld>::Ev;
}
