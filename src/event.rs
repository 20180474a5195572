//! `ClusterEv` — the composed world's typed event.
//!
//! Every layer schedules work through its `lift_*` hook; here those hooks
//! produce plain enum variants instead of boxed closures, so the steady-state
//! hot path (packet deliveries, reliability timers, driver completions,
//! collective progressions) moves through the scheduler's recycled slab
//! arena with **zero heap allocation per event** —
//! `tests/hotpath_alloc.rs` pins this down. Control code and cold paths
//! (harness setup, comparison stacks) still box through [`ClusterEv::Call`].

use knet_gm::{run_gm_ev, GmEv};
use knet_kv::{run_kv_ev, KvEv};
use knet_mx::{run_mx_ev, MxEv};
use knet_rpc::{run_rpc_ev, RpcEv};
use knet_simcore::SimEvent;
use knet_simnic::{run_nic_ev, NicEv};

use crate::world::ClusterWorld;

/// The typed event set of [`ClusterWorld`].
pub enum ClusterEv {
    /// NIC-layer events: packet arrivals, reliability timers/acks,
    /// collective deliveries and probes.
    Nic(NicEv),
    /// GM driver completions (send tokens, receive matches, unexpecteds).
    Gm(GmEv),
    /// MX driver completions (sends, matched receives, unexpecteds).
    Mx(MxEv),
    /// RPC timers: per-call deadlines and each client's horizon timer.
    Rpc(RpcEv),
    /// KV layer: paced operation reissues after failures.
    Kv(KvEv),
    /// Boxed cold path: setup code, comparison stacks, deferred frees.
    Call(Box<dyn FnOnce(&mut ClusterWorld) + Send>),
}

impl SimEvent<ClusterWorld> for ClusterEv {
    fn from_call(f: Box<dyn FnOnce(&mut ClusterWorld) + Send>) -> Self {
        ClusterEv::Call(f)
    }
    fn run(self, w: &mut ClusterWorld) {
        match self {
            ClusterEv::Nic(ev) => run_nic_ev(w, ev),
            ClusterEv::Gm(ev) => run_gm_ev(w, ev),
            ClusterEv::Mx(ev) => run_mx_ev(w, ev),
            ClusterEv::Rpc(ev) => run_rpc_ev(w, ev),
            ClusterEv::Kv(ev) => run_kv_ev(w, ev),
            ClusterEv::Call(f) => f(w),
        }
    }
}
