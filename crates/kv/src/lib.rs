//! # knet-kv — a replicated in-memory KV store, built only on `knet-rpc`
//!
//! The proof-of-API consumer for the typed RPC layer: a sharded
//! primary/backup key-value store that survives node kills.
//!
//! * **Writes go through the shard's primary**, which applies locally and
//!   replicates **synchronously** to the backup over a second, deferred
//!   RPC (`REPL`) before acknowledging the client — the caller's deadline
//!   propagates through both hops.
//! * **Reads go to any replica** of the shard (spread deterministically
//!   across primary and backup; a failed read retries on the other side).
//! * **Epoch-numbered failover**: the shard map (modelling an external
//!   configuration service) carries an epoch per shard; every request
//!   carries the client's believed epoch, and replicas answer
//!   `WRONG_EPOCH` when it is stale. When a primary's node is killed, the
//!   backup promotes (epoch bump), and clients re-resolve the map and
//!   reissue. A reissued write is a new write with a new sequence number:
//!   the RPC layer sends each request once, so no duplicate of it can
//!   reach a replica.
//! * **One failure detector**: a replica is marked dead only when the
//!   reliability layer declares its node dead — the server's peer-down
//!   hook, or a call failing `PeerUnreachable`, which only the channel's
//!   `PeerDown` produces. Silence and stale roles are not deaths.
//! * **Typed failure handling end to end**: every client operation
//!   resolves with a value or a typed error; `Overload`/`WRONG_EPOCH`
//!   reissue with bounded attempts, `Deadline`/`Cancelled` are terminal.
//!
//! The crate never touches `channel_send`/`channel_post_recv` directly —
//! that is the point (and CI greps for it): the RPC layer is a sufficient
//! substrate for a replicated service.
//!
//! [`kv_check`] implements a linearizability-lite audit over the recorded
//! history: acked writes must be readable from the surviving primary at
//! their acked sequence number or later, and no unacked write may
//! resurrect over a later acked one.

use std::collections::BTreeMap;
use std::sync::Arc;

use knet_core::wire::{Dec, Enc};
use knet_core::{Endpoint, RpcError};
use knet_rpc::{
    rpc_call, rpc_client_create, rpc_collect, rpc_server_create, rpc_server_reply, RpcCall,
    RpcCallOpts, RpcClientConfig, RpcClientId, RpcCompletion, RpcOutcome, RpcRequest,
    RpcServerConfig, RpcServerId, RpcWorld,
};
use knet_simcore::{emit_after, now, SimEvent, SimTime};
use knet_simos::NodeId;

/// KV method numbers on the RPC wire.
pub const METHOD_GET: u16 = 1;
pub const METHOD_PUT: u16 = 2;
/// Primary→backup replication (internal).
pub const METHOD_REPL: u16 = 3;

/// KV-level reply status (first payload byte of every KV response).
pub const KV_OK: u8 = 0;
pub const KV_NOT_FOUND: u8 = 1;
/// The request carried a stale epoch, or reached a replica that no longer
/// holds the role the client assumed: re-resolve the shard map and retry.
pub const KV_WRONG_EPOCH: u8 = 2;

// --------------------------------------------------------------- identifiers

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KvReplicaId(pub u32);

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KvClientId(pub u32);

/// Globally monotonic operation id (issue order — the history axis).
pub type KvOpId = u64;

// -------------------------------------------------------------- typed events

/// KV-layer typed engine events, lifted by the composed world like RPC's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvEv {
    /// Reissue a waiting operation (failure-triggered, paced by
    /// [`RETRY_DELAY`] so a dead primary is not hot-looped).
    Reissue { client: u32, op: u32 },
}

/// Execute one KV-layer event.
pub fn run_kv_ev<W: KvWorld>(w: &mut W, ev: KvEv) {
    match ev {
        KvEv::Reissue { client, op } => {
            let waiting = {
                let kv = w.kv();
                matches!(
                    kv.clients
                        .get(client as usize)
                        .and_then(|c| c.ops.get(op as usize)),
                    Some(o) if o.state == OpState::Waiting
                )
            };
            let node = w.kv().clients[client as usize].node;
            if waiting && !host_dead(w, node) {
                issue(w, client, op);
            }
        }
    }
}

/// World capability: hosts the KV layer (on top of the RPC layer).
pub trait KvWorld: RpcWorld {
    fn kv(&self) -> &KvLayer;
    fn kv_mut(&mut self) -> &mut KvLayer;

    /// Wrap a KV event into the world's typed event enum; the composed
    /// world overrides the boxing default with an enum variant.
    fn lift_kv(ev: KvEv) -> <Self as knet_simcore::SimWorld>::Ev {
        SimEvent::from_call(Box::new(move |w: &mut Self| run_kv_ev(w, ev)))
    }
}

// -------------------------------------------------------------------- layer

/// One shard's entry in the epoch-numbered map. The map lives in the
/// layer, modelling the external configuration service every party can
/// consult; `epoch` fences deposed roles — a request or replication
/// carrying a stale epoch is rejected, never silently applied.
#[derive(Clone, Copy, Debug)]
pub struct Shard {
    pub epoch: u64,
    pub primary: u32,
    pub backup: Option<u32>,
    /// Next write sequence number. Only the current primary assigns from
    /// it, and it survives failovers, so a promoted backup's writes
    /// always order after everything the old primary handed out.
    pub next_seq: u64,
}

struct PendingRepl {
    token: u64,
    seq: u64,
}

struct Replica {
    node: NodeId,
    server: RpcServerId,
    server_ep: Endpoint,
    /// The one replica this one replicates to / receives from.
    partner: Option<u32>,
    repl_client: Option<RpcClientId>,
    store: BTreeMap<Vec<u8>, (u64, Vec<u8>)>,
    /// In-flight REPL call → the deferred client-reply token it answers.
    pending_repl: BTreeMap<RpcCall, PendingRepl>,
    alive: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    Get,
    Put,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpState {
    InFlight,
    Waiting,
    Done,
}

struct KvOp {
    id: KvOpId,
    kind: OpKind,
    key: Vec<u8>,
    val: Vec<u8>,
    deadline: Option<SimTime>,
    attempts: u32,
    state: OpState,
}

struct KvClient {
    node: NodeId,
    /// One RPC client per replica (reads go to any of them).
    rpc: Vec<RpcClientId>,
    /// (replica, rpc call) → op slot.
    inflight: BTreeMap<(u32, RpcCall), u32>,
    ops: Vec<KvOp>,
}

/// A finished client operation, in completion order.
#[derive(Clone, Debug)]
pub struct KvOutcome {
    pub client: KvClientId,
    pub op: KvOpId,
    pub key: Vec<u8>,
    pub result: Result<KvResult, RpcError>,
}

#[derive(Clone, Debug)]
pub enum KvResult {
    Get { found: bool, seq: u64, val: Vec<u8> },
    Put { seq: u64 },
}

knet_simcore::counters! {
    /// Layer-aggregate KV counters (clients and replicas together).
    pub struct KvStats {
        pub puts: u64,
        pub gets: u64,
        pub acks: u64,
        pub failures: u64,
        pub reissues: u64,
        pub wrong_epoch: u64,
        pub promotions: u64,
        pub solo_demotions: u64,
        pub repl_applied: u64,
        pub repl_rejected: u64,
    }
}

/// Reissue budget per operation.
pub const OP_RETRIES: u32 = 8;
/// Pause before reissuing a failed operation, so failover has time to
/// converge and a dead primary is not hot-looped.
pub const RETRY_DELAY: SimTime = SimTime::from_millis(1);

/// All KV state in a world.
#[derive(Default)]
pub struct KvLayer {
    pub shards: Vec<Shard>,
    replicas: Vec<Replica>,
    clients: Vec<KvClient>,
    /// Completed operations, in completion order (the history record).
    pub outcomes: Vec<KvOutcome>,
    /// Every issued put: (op, key, value) in issue order.
    pub issued_puts: Vec<(KvOpId, Vec<u8>, Vec<u8>)>,
    pub stats: KvStats,
    next_op: u64,
    scratch: Vec<u8>,
    collect_buf: Vec<u8>,
}

impl KvLayer {
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, key: &[u8]) -> u32 {
        (fnv1a(key) % self.shards.len() as u64) as u32
    }

    pub fn replica_alive(&self, r: KvReplicaId) -> bool {
        self.replicas[r.0 as usize].alive
    }

    /// The RPC server a replica answers on (for stats drill-down).
    pub fn replica_server(&self, r: KvReplicaId) -> RpcServerId {
        self.replicas[r.0 as usize].server
    }

    /// A replica's current store contents (key, seq, value), sorted by
    /// key — deterministic, for dumps and fingerprints.
    pub fn store_dump(&self, r: KvReplicaId) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
        self.replicas[r.0 as usize]
            .store
            .iter()
            .map(|(k, (s, v))| (k.clone(), *s, v.clone()))
            .collect()
    }

    /// Ops not yet resolved across all clients.
    pub fn outstanding_ops(&self) -> usize {
        self.clients
            .iter()
            .flat_map(|c| c.ops.iter())
            .filter(|o| o.state != OpState::Done)
            .count()
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// -------------------------------------------------------------- wire codecs
//
// KV payloads ride inside RPC payloads, written through the shared
// `knet_core::wire` cursor (little-endian):
//
//   get  req : epoch u64 | klen u16 | key
//   put  req : epoch u64 | klen u16 | vlen u32 | key | val
//   repl req : epoch u64 | seq u64 | klen u16 | vlen u32 | key | val
//   get  resp: status u8 | seq u64 | vlen u32 | val
//   put/repl resp: status u8 | seq u64

fn enc_get(out: &mut Vec<u8>, epoch: u64, key: &[u8]) {
    out.clear();
    Enc::new(out).u64(epoch).bytes_u16(key);
}

fn dec_get(buf: &[u8]) -> Option<(u64, &[u8])> {
    let mut d = Dec::new(buf);
    Some((d.u64().ok()?, d.bytes_u16().ok()?))
}

/// Append the `klen u16 | vlen u32 | key | val` tail of a put or a
/// replication.
fn enc_key_val(e: Enc, key: &[u8], val: &[u8]) {
    e.u16(key.len() as u16)
        .u32(val.len() as u32)
        .bytes(key)
        .bytes(val);
}

fn dec_key_val<'a>(d: &mut Dec<'a>) -> Option<(&'a [u8], &'a [u8])> {
    let (klen, vlen) = (d.u16().ok()?, d.u32().ok()?);
    Some((d.take(klen.into()).ok()?, d.take(vlen as usize).ok()?))
}

fn enc_put(out: &mut Vec<u8>, epoch: u64, key: &[u8], val: &[u8]) {
    out.clear();
    enc_key_val(Enc::new(out).u64(epoch), key, val);
}

fn dec_put(buf: &[u8]) -> Option<(u64, &[u8], &[u8])> {
    let mut d = Dec::new(buf);
    let epoch = d.u64().ok()?;
    dec_key_val(&mut d).map(|(key, val)| (epoch, key, val))
}

fn enc_repl(out: &mut Vec<u8>, epoch: u64, seq: u64, key: &[u8], val: &[u8]) {
    out.clear();
    enc_key_val(Enc::new(out).u64(epoch).u64(seq), key, val);
}

fn dec_repl(buf: &[u8]) -> Option<(u64, u64, &[u8], &[u8])> {
    let mut d = Dec::new(buf);
    let (epoch, seq) = (d.u64().ok()?, d.u64().ok()?);
    dec_key_val(&mut d).map(|(key, val)| (epoch, seq, key, val))
}

fn enc_status_seq(out: &mut Vec<u8>, status: u8, seq: u64) {
    out.clear();
    Enc::new(out).u8(status).u64(seq);
}

fn dec_status_seq(buf: &[u8]) -> Option<(u8, u64)> {
    let mut d = Dec::new(buf);
    Some((d.u8().ok()?, d.u64().ok()?))
}

fn enc_get_resp(out: &mut Vec<u8>, status: u8, seq: u64, val: &[u8]) {
    out.clear();
    Enc::new(out).u8(status).u64(seq).bytes_u32(val);
}

fn dec_get_resp(buf: &[u8]) -> Option<(u8, u64, &[u8])> {
    let mut d = Dec::new(buf);
    Some((d.u8().ok()?, d.u64().ok()?, d.bytes_u32().ok()?))
}

// -------------------------------------------------------------------- setup

/// Create a replica: one RPC server on `server_ep` running the KV
/// service. Pair it with its replication partner via [`kv_pair`] before
/// assigning shards that use a backup.
pub fn kv_replica_create<W: KvWorld>(
    w: &mut W,
    server_ep: Endpoint,
    server_cfg: RpcServerConfig,
) -> KvReplicaId {
    let rid = KvReplicaId(w.kv().replicas.len() as u32);
    let r = rid.0;
    let server = rpc_server_create(
        w,
        server_ep,
        &format!("kv-replica-{}", r),
        server_cfg,
        move |w, req, payload, resp| kv_service(w, r, req, payload, resp),
        move |w, node| {
            // Observations from a killed host are void: its reliability
            // timers still fire locally, but dead hosts don't vote.
            let me = w.kv().replicas[r as usize].node;
            if !host_dead(w, me) {
                kv_on_node_down(w, node);
            }
        },
    )
    .expect("kv replica server");
    w.kv_mut().replicas.push(Replica {
        node: server_ep.node,
        server,
        server_ep,
        partner: None,
        repl_client: None,
        store: BTreeMap::new(),
        pending_repl: BTreeMap::new(),
        alive: true,
    });
    rid
}

/// Make `a` and `b` replication partners: each gets an RPC client (on its
/// own `repl_ep`) toward the other's server, used for `REPL` traffic.
pub fn kv_pair<W: KvWorld>(
    w: &mut W,
    a: KvReplicaId,
    a_repl_ep: Endpoint,
    b: KvReplicaId,
    b_repl_ep: Endpoint,
    rpc_cfg: RpcClientConfig,
) {
    for (me, my_ep, other) in [(a, a_repl_ep, b), (b, b_repl_ep, a)] {
        let other_server = w.kv().replicas[other.0 as usize].server_ep;
        let rid = me.0;
        let on_done = Arc::new(move |w: &mut W, comp: RpcCompletion| kv_on_repl_done(w, rid, comp));
        let rc = rpc_client_create(
            w,
            my_ep,
            other_server,
            &format!("kv-repl-{}-to-{}", me.0, other.0),
            on_done,
            rpc_cfg,
        )
        .expect("kv repl client");
        let kv = w.kv_mut();
        kv.replicas[me.0 as usize].partner = Some(other.0);
        kv.replicas[me.0 as usize].repl_client = Some(rc);
    }
}

/// Append `count` shards, all primaried on `primary` with `backup` as the
/// synchronous replica.
pub fn kv_add_shards<W: KvWorld>(
    w: &mut W,
    count: u32,
    primary: KvReplicaId,
    backup: Option<KvReplicaId>,
) {
    let kv = w.kv_mut();
    for _ in 0..count {
        kv.shards.push(Shard {
            epoch: 1,
            primary: primary.0,
            backup: backup.map(|b| b.0),
            next_seq: 1,
        });
    }
}

/// Create a KV client. `eps[i]` is the client-local endpoint used for the
/// RPC client toward replica `i`; one entry per existing replica.
pub fn kv_client_create<W: KvWorld>(
    w: &mut W,
    eps: &[Endpoint],
    rpc_cfg: RpcClientConfig,
) -> KvClientId {
    assert_eq!(
        eps.len(),
        w.kv().replicas.len(),
        "one client endpoint per replica"
    );
    let cid = KvClientId(w.kv().clients.len() as u32);
    w.kv_mut().clients.push(KvClient {
        node: eps[0].node,
        rpc: Vec::new(),
        inflight: BTreeMap::new(),
        ops: Vec::new(),
    });
    for (i, &ep) in eps.iter().enumerate() {
        let server_ep = w.kv().replicas[i].server_ep;
        let (c, r) = (cid.0, i as u32);
        let on_done = Arc::new(move |w: &mut W, comp: RpcCompletion| kv_on_rpc_done(w, c, r, comp));
        let rc = rpc_client_create(
            w,
            ep,
            server_ep,
            &format!("kv-cli-{}-r{}", cid.0, i),
            on_done,
            rpc_cfg,
        )
        .expect("kv client rpc");
        w.kv_mut().clients[cid.0 as usize].rpc.push(rc);
    }
    cid
}

// ---------------------------------------------------------------- client ops

/// Issue a write. Resolution arrives later as a [`KvOutcome`]; acked
/// writes carry the primary-assigned sequence number.
pub fn kv_put<W: KvWorld>(
    w: &mut W,
    cid: KvClientId,
    key: &[u8],
    val: &[u8],
    deadline: Option<SimTime>,
) -> KvOpId {
    let (op_id, op_slot) = {
        let kv = w.kv_mut();
        let op_id = kv.next_op;
        kv.next_op += 1;
        kv.stats.puts += 1;
        kv.issued_puts.push((op_id, key.to_vec(), val.to_vec()));
        let c = &mut kv.clients[cid.0 as usize];
        let slot = c.ops.len() as u32;
        c.ops.push(KvOp {
            id: op_id,
            kind: OpKind::Put,
            key: key.to_vec(),
            val: val.to_vec(),
            deadline,
            attempts: 0,
            state: OpState::Waiting,
        });
        (op_id, slot)
    };
    issue(w, cid.0, op_slot);
    op_id
}

/// Issue a read; served by any live replica of the key's shard.
pub fn kv_get<W: KvWorld>(
    w: &mut W,
    cid: KvClientId,
    key: &[u8],
    deadline: Option<SimTime>,
) -> KvOpId {
    let (op_id, op_slot) = {
        let kv = w.kv_mut();
        let op_id = kv.next_op;
        kv.next_op += 1;
        kv.stats.gets += 1;
        let c = &mut kv.clients[cid.0 as usize];
        let slot = c.ops.len() as u32;
        c.ops.push(KvOp {
            id: op_id,
            kind: OpKind::Get,
            key: key.to_vec(),
            val: Vec::new(),
            deadline,
            attempts: 0,
            state: OpState::Waiting,
        });
        (op_id, slot)
    };
    issue(w, cid.0, op_slot);
    op_id
}

/// Route and submit one operation attempt through the RPC layer.
fn issue<W: KvWorld>(w: &mut W, cid: u32, op_slot: u32) {
    let routed = {
        let kv = w.kv_mut();
        let mut scratch = std::mem::take(&mut kv.scratch);
        let c = &kv.clients[cid as usize];
        let o = &c.ops[op_slot as usize];
        let shard = kv.shard_of(&o.key);
        let sh = kv.shards[shard as usize];
        // Writes go through the primary; reads spread deterministically
        // over the shard's replicas (op id + attempt picks the side, so a
        // failed read retries on the other replica).
        let replica = match o.kind {
            OpKind::Put => sh.primary,
            OpKind::Get => match sh.backup {
                Some(b) if (o.id + o.attempts as u64) % 2 == 1 => b,
                _ => sh.primary,
            },
        };
        if !kv.replicas[replica as usize].alive {
            kv.scratch = scratch;
            None
        } else {
            let method = match o.kind {
                OpKind::Get => {
                    enc_get(&mut scratch, sh.epoch, &o.key);
                    METHOD_GET
                }
                OpKind::Put => {
                    enc_put(&mut scratch, sh.epoch, &o.key, &o.val);
                    METHOD_PUT
                }
            };
            let rpc_cid = c.rpc[replica as usize];
            let opts = RpcCallOpts {
                deadline: o.deadline,
            };
            Some((replica, rpc_cid, method, scratch, opts))
        }
    };
    let Some((replica, rpc_cid, method, scratch, opts)) = routed else {
        // The routed replica is known-dead and no promotion has filled
        // the role yet: count the attempt and wait for the map to
        // converge (or the budget to run out).
        retry_or_fail(w, cid, op_slot, RpcError::PeerUnreachable);
        return;
    };
    let res = rpc_call(w, rpc_cid, method, &scratch, opts);
    w.kv_mut().scratch = scratch;
    match res {
        Ok(call) => {
            let c = &mut w.kv_mut().clients[cid as usize];
            c.ops[op_slot as usize].state = OpState::InFlight;
            c.inflight.insert((replica, call), op_slot);
        }
        Err(e) => retry_or_fail(w, cid, op_slot, e),
    }
}

fn finish<W: KvWorld>(w: &mut W, cid: u32, op_slot: u32, result: Result<KvResult, RpcError>) {
    let kv = w.kv_mut();
    match &result {
        Ok(KvResult::Put { .. }) => kv.stats.acks += 1,
        Ok(KvResult::Get { .. }) => {}
        Err(_) => kv.stats.failures += 1,
    }
    let c = &mut kv.clients[cid as usize];
    let o = &mut c.ops[op_slot as usize];
    o.state = OpState::Done;
    let outcome = KvOutcome {
        client: KvClientId(cid),
        op: o.id,
        key: o.key.clone(),
        result,
    };
    kv.outcomes.push(outcome);
}

fn retry_or_fail<W: KvWorld>(w: &mut W, cid: u32, op_slot: u32, e: RpcError) {
    let decision = {
        let kv = w.kv_mut();
        let c = &mut kv.clients[cid as usize];
        let node = c.node;
        let o = &mut c.ops[op_slot as usize];
        o.attempts += 1;
        if o.attempts > OP_RETRIES {
            None
        } else {
            o.state = OpState::Waiting;
            kv.stats.reissues += 1;
            Some(node)
        }
    };
    match decision {
        Some(node) => emit_after(
            w,
            node.0,
            RETRY_DELAY,
            W::lift_kv(KvEv::Reissue {
                client: cid,
                op: op_slot,
            }),
        ),
        None => finish(w, cid, op_slot, Err(e)),
    }
}

/// An RPC toward a replica resolved — map it back onto the KV operation.
fn kv_on_rpc_done<W: KvWorld>(w: &mut W, cid: u32, replica: u32, comp: RpcCompletion) {
    let client_node = w.kv().clients[cid as usize].node;
    if host_dead(w, client_node) {
        w.kv_mut().clients[cid as usize]
            .inflight
            .remove(&(replica, comp.call));
        return drop_completion(w, comp);
    }
    let Some(op_slot) = w
        .kv_mut()
        .clients
        .get_mut(cid as usize)
        .and_then(|c| c.inflight.remove(&(replica, comp.call)))
    else {
        return drop_completion(w, comp);
    };
    match comp.result {
        Ok(_len) => {
            let mut buf = std::mem::take(&mut w.kv_mut().collect_buf);
            rpc_collect(w, comp.client, comp.call, &mut buf);
            let kind = w.kv().clients[cid as usize].ops[op_slot as usize].kind;
            let parsed = match kind {
                OpKind::Put => {
                    dec_status_seq(&buf).map(|(status, seq)| (status, KvResult::Put { seq }))
                }
                OpKind::Get => dec_get_resp(&buf).map(|(status, seq, val)| {
                    (
                        status,
                        KvResult::Get {
                            found: status == KV_OK,
                            seq,
                            val: val.to_vec(),
                        },
                    )
                }),
            };
            w.kv_mut().collect_buf = buf;
            match parsed {
                Some((KV_WRONG_EPOCH, _)) => {
                    // Stale routing: the map moved under us. Re-resolve
                    // and reissue.
                    w.kv_mut().stats.wrong_epoch += 1;
                    retry_or_fail(w, cid, op_slot, RpcError::PeerUnreachable);
                }
                Some((_, r)) => finish(w, cid, op_slot, Ok(r)),
                None => finish(w, cid, op_slot, Err(RpcError::VersionMismatch)),
            }
        }
        Err(RpcError::PeerUnreachable) => {
            // The reliability layer declared the replica's node dead:
            // tell the config service, then reissue against the new map.
            kv_report_dead(w, replica);
            retry_or_fail(w, cid, op_slot, RpcError::PeerUnreachable);
        }
        Err(RpcError::Overload) => retry_or_fail(w, cid, op_slot, RpcError::Overload),
        // Deadline and Cancelled are terminal by contract;
        // VersionMismatch means a broken deployment — surface it.
        Err(e) => finish(w, cid, op_slot, Err(e)),
    }
}

// ------------------------------------------------------------- replica side

/// The KV service function, dispatched by the replica's RPC server.
fn kv_service<W: KvWorld>(
    w: &mut W,
    rid: u32,
    req: RpcRequest,
    payload: &[u8],
    resp: &mut Vec<u8>,
) -> RpcOutcome {
    match req.method {
        METHOD_GET => {
            let Some((epoch, key)) = dec_get(payload) else {
                return RpcOutcome::Err(RpcError::VersionMismatch);
            };
            let kv = w.kv_mut();
            let shard = kv.shard_of(key);
            let sh = kv.shards[shard as usize];
            if epoch != sh.epoch || (sh.primary != rid && sh.backup != Some(rid)) {
                enc_get_resp(resp, KV_WRONG_EPOCH, 0, &[]);
                return RpcOutcome::Reply;
            }
            match kv.replicas[rid as usize].store.get(key) {
                Some((seq, val)) => enc_get_resp(resp, KV_OK, *seq, val),
                None => enc_get_resp(resp, KV_NOT_FOUND, 0, &[]),
            }
            RpcOutcome::Reply
        }
        METHOD_PUT => {
            let Some((epoch, key, val)) = dec_put(payload) else {
                return RpcOutcome::Err(RpcError::VersionMismatch);
            };
            let (seq, backup) = {
                let kv = w.kv_mut();
                let shard = kv.shard_of(key);
                let sh = &mut kv.shards[shard as usize];
                if epoch != sh.epoch || sh.primary != rid {
                    enc_status_seq(resp, KV_WRONG_EPOCH, 0);
                    return RpcOutcome::Reply;
                }
                let seq = sh.next_seq;
                sh.next_seq += 1;
                let backup = sh.backup;
                // Apply locally first; the write is durable here whether
                // or not the backup survives the next instant.
                kv.replicas[rid as usize]
                    .store
                    .insert(key.to_vec(), (seq, val.to_vec()));
                (seq, backup)
            };
            match backup {
                None => {
                    enc_status_seq(resp, KV_OK, seq);
                    RpcOutcome::Reply
                }
                Some(_) => {
                    // Synchronous replication: defer the client's reply
                    // until the backup acknowledges, propagating the
                    // client's remaining deadline through the second hop.
                    let (repl_cid, epoch_now) = {
                        let kv = w.kv();
                        (
                            kv.replicas[rid as usize].repl_client,
                            kv.shards[kv.shard_of(key) as usize].epoch,
                        )
                    };
                    let Some(repl_cid) = repl_cid else {
                        enc_status_seq(resp, KV_OK, seq);
                        return RpcOutcome::Reply;
                    };
                    let mut frame = std::mem::take(&mut w.kv_mut().scratch);
                    enc_repl(&mut frame, epoch_now, seq, key, val);
                    let deadline = (req.deadline != SimTime::NEVER).then_some(req.deadline);
                    let res = rpc_call(w, repl_cid, METHOD_REPL, &frame, RpcCallOpts { deadline });
                    w.kv_mut().scratch = frame;
                    match res {
                        Ok(call) => {
                            w.kv_mut().replicas[rid as usize].pending_repl.insert(
                                call,
                                PendingRepl {
                                    token: req.token,
                                    seq,
                                },
                            );
                            RpcOutcome::Defer
                        }
                        // The replication client's window or send queue is
                        // full. That is load, not a death: shed the PUT and
                        // let the client reissue it.
                        Err(_) => RpcOutcome::Err(RpcError::Overload),
                    }
                }
            }
        }
        METHOD_REPL => {
            let Some((epoch, seq, key, val)) = dec_repl(payload) else {
                return RpcOutcome::Err(RpcError::VersionMismatch);
            };
            let kv = w.kv_mut();
            let shard = kv.shard_of(key);
            let sh = kv.shards[shard as usize];
            // Epoch fencing: replication from a deposed primary must not
            // land after promotion (that would resurrect unacked writes).
            if epoch != sh.epoch || sh.backup != Some(rid) {
                kv.stats.repl_rejected += 1;
                enc_status_seq(resp, KV_WRONG_EPOCH, seq);
                return RpcOutcome::Reply;
            }
            let entry = kv.replicas[rid as usize]
                .store
                .entry(key.to_vec())
                .or_insert((0, Vec::new()));
            if seq >= entry.0 {
                *entry = (seq, val.to_vec());
            }
            kv.stats.repl_applied += 1;
            enc_status_seq(resp, KV_OK, seq);
            RpcOutcome::Reply
        }
        _ => RpcOutcome::Err(RpcError::VersionMismatch),
    }
}

/// Dead hosts don't run software: a replica (or client) whose node the
/// fault plan has killed must take no actions — in particular a killed
/// primary's replication RPC, failed when its own links die, must not
/// report the *live* backup dead (that split-brain would demote the only
/// promotion candidate).
fn host_dead<W: KvWorld>(w: &W, node: NodeId) -> bool {
    w.nics().node_dead(node, now(w))
}

/// A completion nobody answers: collect an `Ok` reply anyway, since until
/// then its call holds a slot of the client's request table.
fn drop_completion<W: KvWorld>(w: &mut W, comp: RpcCompletion) {
    if comp.result.is_ok() {
        let mut buf = std::mem::take(&mut w.kv_mut().collect_buf);
        rpc_collect(w, comp.client, comp.call, &mut buf);
        w.kv_mut().collect_buf = buf;
    }
}

/// A replication RPC resolved: answer the deferred client PUT.
fn kv_on_repl_done<W: KvWorld>(w: &mut W, rid: u32, comp: RpcCompletion) {
    let me = w.kv().replicas[rid as usize].node;
    if host_dead(w, me) {
        // Zombie completion on a killed node: drop it on the floor. The
        // deferred client reply can never leave this host anyway.
        w.kv_mut().replicas[rid as usize]
            .pending_repl
            .remove(&comp.call);
        return drop_completion(w, comp);
    }
    let Some(pr) = w.kv_mut().replicas[rid as usize]
        .pending_repl
        .remove(&comp.call)
    else {
        return drop_completion(w, comp);
    };
    let server = w.kv().replicas[rid as usize].server;
    let status = match comp.result {
        Ok(_len) => {
            let mut buf = std::mem::take(&mut w.kv_mut().collect_buf);
            rpc_collect(w, comp.client, comp.call, &mut buf);
            let status = dec_status_seq(&buf).map(|(s, _)| s);
            w.kv_mut().collect_buf = buf;
            // Anything but OK is WRONG_EPOCH from the backup: we were
            // deposed while the write was in flight. The client must not
            // treat this write as durable under the old regime; it
            // re-resolves the map and reissues to the new primary.
            if status == Some(KV_OK) {
                KV_OK
            } else {
                KV_WRONG_EPOCH
            }
        }
        Err(RpcError::PeerUnreachable) => {
            // The backup's node was declared dead. The write is applied
            // locally; demote to solo and ack — durability is single-copy
            // from here on, which is the contract once the pair degrades.
            let partner = w.kv().replicas[rid as usize].partner;
            if let Some(p) = partner {
                kv_report_dead(w, p);
            }
            KV_OK
        }
        Err(e) => {
            // Deadline (propagated and expired) or overload on the
            // replication path: fail the client PUT typed; the reply is
            // suppressed anyway if the client's deadline already passed.
            rpc_server_reply(w, server, pr.token, Err(e));
            return;
        }
    };
    let mut resp = std::mem::take(&mut w.kv_mut().scratch);
    enc_status_seq(&mut resp, status, pr.seq);
    rpc_server_reply(w, server, pr.token, Ok(&resp));
    w.kv_mut().scratch = resp;
}

// ----------------------------------------------------------------- failover

/// The failure detector's input: `node` was declared dead (reliability
/// layer / kill plan). Promote backups of every shard primaried there.
pub fn kv_on_node_down<W: KvWorld>(w: &mut W, node: NodeId) {
    let dead: Vec<u32> = w
        .kv()
        .replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| r.node == node && r.alive)
        .map(|(i, _)| i as u32)
        .collect();
    for d in dead {
        kv_report_dead(w, d);
    }
}

/// Mark a replica dead and run the epoch-numbered failover over the shard
/// map: backups promote (epoch bump), primaries that lost their backup go
/// solo (epoch bump too, so stale-routed reads re-resolve). Idempotent.
pub fn kv_report_dead<W: KvWorld>(w: &mut W, dead: u32) {
    let kv = w.kv_mut();
    if !kv.replicas[dead as usize].alive {
        return;
    }
    kv.replicas[dead as usize].alive = false;
    for s in 0..kv.shards.len() {
        let (primary, backup) = {
            let sh = &kv.shards[s];
            (sh.primary, sh.backup)
        };
        if primary == dead {
            if let Some(b) = backup.filter(|&b| kv.replicas[b as usize].alive) {
                let sh = &mut kv.shards[s];
                sh.epoch += 1;
                sh.primary = b;
                sh.backup = None;
                kv.stats.promotions += 1;
            }
            // No live backup: the shard is lost; ops exhaust their
            // retries and fail typed.
        } else if backup == Some(dead) {
            let sh = &mut kv.shards[s];
            sh.epoch += 1;
            sh.backup = None;
            kv.stats.solo_demotions += 1;
        }
    }
}

// ------------------------------------------------------------------ checker

/// Linearizability-lite audit over the recorded history and the surviving
/// stores. For every key with at least one acked write:
///
/// 1. **Acked writes survive**: the current primary of the key's shard
///    must hold the key at a sequence number ≥ the highest acked one; if
///    equal, the value must be the acked value.
/// 2. **No foreign values**: whatever the store holds must be the value
///    of some issued put for that key (nothing invented, nothing
///    corrupted); together with rule 1 this also forbids an unacked
///    write resurrecting over a later acked one.
///
/// Returns human-readable violations (empty = pass).
pub fn kv_check<W: KvWorld>(w: &W) -> Vec<String> {
    let kv = w.kv();
    let mut violations = Vec::new();
    let mut put_vals: BTreeMap<&[u8], Vec<&[u8]>> = BTreeMap::new();
    let mut val_of_op: BTreeMap<KvOpId, &[u8]> = BTreeMap::new();
    for (op, key, val) in &kv.issued_puts {
        put_vals.entry(key).or_default().push(val);
        val_of_op.insert(*op, val);
    }
    // Highest acked put per key.
    let mut acked: BTreeMap<&[u8], (u64, &[u8])> = BTreeMap::new();
    for o in &kv.outcomes {
        if let Ok(KvResult::Put { seq }) = &o.result {
            let val = val_of_op.get(&o.op).copied().unwrap_or(&[]);
            let e = acked.entry(&o.key).or_insert((0, &[]));
            if *seq > e.0 {
                *e = (*seq, val);
            }
        }
    }
    for (key, (ack_seq, ack_val)) in &acked {
        let shard = kv.shard_of(key);
        let sh = &kv.shards[shard as usize];
        if !kv.replicas[sh.primary as usize].alive {
            // Shard lost every replica: nothing left to audit against.
            continue;
        }
        let store = &kv.replicas[sh.primary as usize].store;
        match store.get(*key) {
            None => violations.push(format!(
                "acked write lost: key {:?} absent from primary r{} (acked seq {})",
                String::from_utf8_lossy(key),
                sh.primary,
                ack_seq
            )),
            Some((seq, val)) => {
                if seq < ack_seq {
                    violations.push(format!(
                        "acked write rolled back: key {:?} at seq {} < acked {}",
                        String::from_utf8_lossy(key),
                        seq,
                        ack_seq
                    ));
                } else if seq == ack_seq && val.as_slice() != *ack_val {
                    violations.push(format!(
                        "acked value mismatch at seq {}: key {:?}",
                        seq,
                        String::from_utf8_lossy(key)
                    ));
                }
                let known = put_vals
                    .get(*key)
                    .map(|vs| vs.contains(&val.as_slice()))
                    .unwrap_or(false);
                if !known {
                    violations.push(format!(
                        "foreign value surfaced for key {:?} (seq {}): not among issued puts",
                        String::from_utf8_lossy(key),
                        seq
                    ));
                }
            }
        }
    }
    violations
}

/// Deterministic digest of the whole KV state: stores, shard map, outcome
/// record. Equal seeds must yield equal fingerprints run over run.
pub fn kv_fingerprint<W: KvWorld>(w: &W) -> u64 {
    let kv = w.kv();
    let mut state = Vec::new();
    let mut e = Enc::new(&mut state);
    for r in &kv.replicas {
        e = e.u8(r.alive as u8);
        for (k, (seq, v)) in &r.store {
            e = e.bytes(k).u64(*seq).bytes(v);
        }
    }
    for sh in &kv.shards {
        e = e.u64(sh.epoch).u32(sh.primary).u64(sh.next_seq);
    }
    for o in &kv.outcomes {
        e = e.u64(o.op).bytes(&o.key);
        e = match &o.result {
            Ok(KvResult::Put { seq }) => e.bytes(b"P").u64(*seq),
            Ok(KvResult::Get { found, seq, val }) => {
                e.bytes(b"G").u8(*found as u8).u64(*seq).bytes(val)
            }
            Err(err) => e.bytes(b"E").bytes(format!("{:?}", err)),
        };
    }
    fnv1a(&state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_codecs_roundtrip() {
        let mut b = Vec::new();
        enc_get(&mut b, 7, b"key");
        assert_eq!(dec_get(&b), Some((7, &b"key"[..])));
        enc_put(&mut b, 9, b"key", b"value");
        assert_eq!(dec_put(&b), Some((9, &b"key"[..], &b"value"[..])));
        enc_repl(&mut b, 3, 42, b"k", b"v");
        assert_eq!(dec_repl(&b), Some((3, 42, &b"k"[..], &b"v"[..])));
        enc_status_seq(&mut b, KV_OK, 11);
        assert_eq!(dec_status_seq(&b), Some((KV_OK, 11)));
        enc_get_resp(&mut b, KV_OK, 5, b"val");
        assert_eq!(dec_get_resp(&b), Some((KV_OK, 5, &b"val"[..])));
        enc_get_resp(&mut b, KV_NOT_FOUND, 0, b"");
        assert_eq!(dec_get_resp(&b), Some((KV_NOT_FOUND, 0, &b""[..])));
    }

    /// Whether a payload's decoder takes the bytes.
    type Decodes = fn(&[u8]) -> bool;

    /// One payload of each kind, with its decoder's check.
    fn payloads() -> [(Vec<u8>, Decodes); 5] {
        let enc = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut b = Vec::new();
            f(&mut b);
            b
        };
        [
            (enc(&|b| enc_get(b, 7, b"key")), |b| dec_get(b).is_some()),
            (enc(&|b| enc_put(b, 9, b"key", b"value")), |b| {
                dec_put(b).is_some()
            }),
            (enc(&|b| enc_repl(b, 3, 42, b"k", b"v")), |b| {
                dec_repl(b).is_some()
            }),
            (enc(&|b| enc_status_seq(b, KV_WRONG_EPOCH, 11)), |b| {
                dec_status_seq(b).is_some()
            }),
            (enc(&|b| enc_get_resp(b, KV_OK, 5, b"val")), |b| {
                dec_get_resp(b).is_some()
            }),
        ]
    }

    /// Each payload's bytes, pinned: a layout change that encoder and
    /// decoder make together still shows here.
    #[test]
    fn kv_payloads_keep_their_golden_bytes() {
        let golden = [
            "0700000000000000 0300 6b6579",
            "0900000000000000 0300 05000000 6b6579 76616c7565",
            "0300000000000000 2a00000000000000 0100 01000000 6b 76",
            "02 0b00000000000000",
            "00 0500000000000000 03000000 76616c",
        ];
        for ((enc, _), row) in payloads().iter().zip(golden) {
            let hex: String = enc.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, row.replace(' ', ""));
        }
    }

    /// Every cut of every payload, inside the fixed fields, the key or the
    /// value, is refused.
    #[test]
    fn truncated_payloads_rejected() {
        for (enc, decodes) in payloads() {
            assert!(decodes(&enc), "{enc:?}");
            for cut in 0..enc.len() {
                assert!(!decodes(&enc[..cut]), "{enc:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn fnv_spreads_shards() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64u32 {
            seen.insert(fnv1a(format!("key-{}", i).as_bytes()) % 8);
        }
        assert!(seen.len() >= 6, "fnv should cover most of 8 shards");
    }
}
