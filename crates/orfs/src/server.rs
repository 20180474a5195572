//! The ORFA/ORFS server: executes requests against the ext2-like file
//! system and replies over the transport.
//!
//! Data flow on a read: file blocks are copied from the buffer cache into a
//! kernel staging ring (charged as a warm memcpy), then handed to the
//! transport as *kernel-virtual* memory — the server side is identical for
//! GM and MX, so client-side differences dominate the figures exactly as in
//! the paper.

use std::collections::BTreeMap;

use bytes::Bytes;
use knet_core::api::{channel_accept_handler, channel_post_recv, channel_send_to};
use knet_core::{
    ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, StagingRing, TransportEvent,
};
use knet_simcore::SimTime;
use knet_simfs::{FsError, InodeNo, SimFs};
use knet_simos::{cpu_charge, Asid};

use crate::layer::{OrfsServerId, OrfsWorld};
use crate::proto::{codec_cost, OrfsError, Request, Response, WireAttr, WireDirEntry};

/// Per-server counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub requests: u64,
    pub replies: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub errors: u64,
}

/// A large write announced by a client: the payload follows as a separate
/// message landing in the staging ring (the ORFS "write rendezvous").
struct PendingWrite {
    handle: u32,
    offset: u64,
    /// The staging-ring buffer posted for the payload, `len` bytes long.
    staging: MemRef,
    reply_to: Endpoint,
    via: Endpoint,
    tag: u64,
}

/// One ORFS server instance.
pub struct OrfsServer {
    pub id: OrfsServerId,
    pub ep: Endpoint,
    pub fs: SimFs,
    handles: Vec<Option<InodeNo>>,
    free_handles: Vec<u32>,
    pending_writes: BTreeMap<u64, PendingWrite>,
    /// Write payloads that overtook their announcement (possible on a
    /// delay-reordering fabric): stashed by data tag until the header
    /// arrives, then consumed directly instead of posting a buffer for
    /// bytes that already passed. Keyed by tag *and* attributed to their
    /// sender — tags are wire input, so an entry from one client must
    /// never satisfy another client's same-tag write (PeerDown cleanup
    /// purges a dead client's stash).
    early_payloads: BTreeMap<u64, (Endpoint, Bytes)>,
    /// Kernel staging ring for outgoing replies and announced writes.
    ring: StagingRing,
    /// Fixed CPU cost to accept and dispatch one request.
    pub handling_cost: SimTime,
    pub stats: ServerStats,
}

impl OrfsServer {
    /// Per-peer write staging currently held (pending write announcements
    /// plus stashed early payloads). Tests assert this drains to zero once
    /// flows quiesce — in particular after a peer dies, whose staging the
    /// `PeerDown` cleanup must reclaim.
    pub fn staging_len(&self) -> usize {
        self.pending_writes.len() + self.early_payloads.len()
    }
}

/// Size of the reply staging ring.
const RING_LEN: u64 = 4 << 20;

/// Create a server on the node owning `ep`, serving `fs`.
pub fn server_create<W: OrfsWorld>(
    w: &mut W,
    ep: Endpoint,
    fs: SimFs,
) -> Result<OrfsServerId, NetError> {
    let ring = w.os_mut().node_mut(ep.node).kalloc(RING_LEN)?;
    let id = OrfsServerId(w.orfs().servers.len() as u32);
    w.orfs_mut().servers.push(OrfsServer {
        id,
        ep,
        fs,
        handles: Vec::new(),
        free_handles: Vec::new(),
        pending_writes: BTreeMap::new(),
        early_payloads: BTreeMap::new(),
        ring: StagingRing::new(ring, Asid::KERNEL, RING_LEN),
        handling_cost: SimTime::from_nanos(700),
        stats: ServerStats::default(),
    });
    server_attach_endpoint(w, id, ep);
    Ok(id)
}

/// Attach the server to `ep` as an accept-side handler-backed channel
/// (no fixed peer — one endpoint serves every client; replies address
/// their destination through [`channel_send_to`]). `server_create` attaches
/// the primary endpoint; call this again to serve additional endpoints
/// (e.g. a GM port next to an MX endpoint on the same server).
pub fn server_attach_endpoint<W: OrfsWorld>(w: &mut W, sid: OrfsServerId, ep: Endpoint) {
    channel_accept_handler(
        w,
        ep,
        &format!("orfs-server-{}", sid.0),
        move |w, via, ev| server_on_event(w, sid, via, ev),
    );
}

/// The accept-side channel serving `via` (attached in
/// [`server_attach_endpoint`]).
fn server_channel<W: OrfsWorld>(w: &W, via: Endpoint) -> ChannelId {
    w.registry()
        .channel_of(via)
        .expect("server endpoint is channel-attached")
}

impl OrfsServer {
    fn handle_ino(&self, h: u32) -> Result<InodeNo, OrfsError> {
        self.handles
            .get(h as usize)
            .and_then(|x| *x)
            .ok_or(OrfsError::BadHandle)
    }

    pub fn open_handles(&self) -> usize {
        self.handles.iter().filter(|h| h.is_some()).count()
    }
}

/// Execute one metadata/namespace request. Returns the response.
fn execute(
    fs: &mut SimFs,
    server: &mut Vec<Option<InodeNo>>,
    free: &mut Vec<u32>,
    req: &Request,
    now: SimTime,
) -> Response {
    fn ino(i: u32) -> InodeNo {
        InodeNo(i)
    }
    // Directory-relative name ops go through lookup+direct fs calls; the fs
    // takes absolute paths only for path-style ops which the wire protocol
    // does not use (the client resolves component by component, as a real
    // VFS does).
    let r: Result<Response, OrfsError> = (|| {
        Ok(match req {
            Request::Lookup { dir, name } => Response::Ino(fs.lookup(ino(*dir), name)?.0),
            Request::Getattr { ino: i } => {
                Response::Attr(WireAttr::from_attr(&fs.getattr(ino(*i))?))
            }
            Request::SetattrMode { ino: i, mode } => {
                fs.setattr_mode(ino(*i), *mode, now)?;
                Response::Unit
            }
            Request::Create { dir, name, mode } => {
                let parent = ino(*dir);
                // Name-level create: emulate via a synthetic absolute walk.
                let child = create_in(fs, parent, name, *mode, false, now)?;
                Response::Ino(child.0)
            }
            Request::Mkdir { dir, name, mode } => {
                let child = create_in(fs, ino(*dir), name, *mode, true, now)?;
                Response::Ino(child.0)
            }
            Request::Unlink { dir, name } => {
                remove_in(fs, ino(*dir), name, false, now)?;
                Response::Unit
            }
            Request::Rmdir { dir, name } => {
                remove_in(fs, ino(*dir), name, true, now)?;
                Response::Unit
            }
            Request::Readdir { ino: i } => Response::Entries(
                fs.readdir(ino(*i))?
                    .iter()
                    .map(WireDirEntry::from_entry)
                    .collect(),
            ),
            Request::Symlink { dir, name, target } => {
                let path = synth_path(fs, ino(*dir), name)?;
                Response::Ino(fs.symlink(&path, target, now)?.0)
            }
            Request::Readlink { ino: i } => Response::Target(fs.readlink(ino(*i))?),
            Request::Rename {
                fdir,
                fname,
                tdir,
                tname,
            } => {
                let from = synth_path(fs, ino(*fdir), fname)?;
                let to = synth_path(fs, ino(*tdir), tname)?;
                fs.rename(&from, &to, now)?;
                Response::Unit
            }
            Request::Truncate { ino: i, size } => {
                fs.truncate(ino(*i), *size, now)?;
                Response::Unit
            }
            Request::Open { ino: i } => {
                fs.getattr(ino(*i))?; // existence check
                let h = if let Some(h) = free.pop() {
                    server[h as usize] = Some(ino(*i));
                    h
                } else {
                    server.push(Some(ino(*i)));
                    (server.len() - 1) as u32
                };
                Response::Handle(h)
            }
            Request::Close { handle } => {
                let slot = server
                    .get_mut(*handle as usize)
                    .ok_or(OrfsError::BadHandle)?;
                if slot.take().is_none() {
                    return Err(OrfsError::BadHandle);
                }
                free.push(*handle);
                Response::Unit
            }
            Request::Read { .. } | Request::Write { .. } => {
                unreachable!("data ops handled by the caller")
            }
        })
    })();
    match r {
        Ok(resp) => resp,
        Err(e) => Response::Err(e),
    }
}

/// The fs API is path-based for namespace mutation; build a path for
/// `name` under directory `dir` by walking back through the tree. Directory
/// trees in the benchmarks are shallow, so this stays cheap, and it keeps
/// `SimFs` presentable as a stand-alone file system.
fn synth_path(fs: &mut SimFs, dir: InodeNo, name: &str) -> Result<String, OrfsError> {
    fn path_of(fs: &mut SimFs, target: InodeNo, cur: InodeNo, prefix: &str) -> Option<String> {
        if cur == target {
            return Some(prefix.to_string());
        }
        let entries = fs.readdir(cur).ok()?;
        for e in entries {
            if e.ftype == knet_simfs::FileType::Directory {
                let p = format!("{prefix}/{}", e.name);
                if let Some(found) = path_of(fs, target, e.ino, &p) {
                    return Some(found);
                }
            }
        }
        None
    }
    let base = if dir == InodeNo::ROOT {
        String::new()
    } else {
        path_of(fs, dir, InodeNo::ROOT, "").ok_or(OrfsError::Fs(FsError::NotFound))?
    };
    Ok(format!("{base}/{name}"))
}

fn create_in(
    fs: &mut SimFs,
    dir: InodeNo,
    name: &str,
    mode: u16,
    is_dir: bool,
    now: SimTime,
) -> Result<InodeNo, OrfsError> {
    let path = synth_path(fs, dir, name)?;
    Ok(if is_dir {
        fs.mkdir(&path, mode, now)?
    } else {
        fs.create(&path, mode, now)?
    })
}

fn remove_in(
    fs: &mut SimFs,
    dir: InodeNo,
    name: &str,
    is_dir: bool,
    now: SimTime,
) -> Result<(), OrfsError> {
    let path = synth_path(fs, dir, name)?;
    if is_dir {
        fs.rmdir(&path, now)?;
    } else {
        fs.unlink(&path, now)?;
    }
    Ok(())
}

/// Transport upcall: a request (or write payload) arrived at server `sid`
/// via endpoint `via` (a server may listen on several transports).
pub fn server_on_event<W: OrfsWorld>(
    w: &mut W,
    sid: OrfsServerId,
    via: Endpoint,
    ev: TransportEvent,
) {
    match ev {
        TransportEvent::Unexpected { tag, data, from } if tag & crate::proto::DATA_TAG_BIT != 0 => {
            // An announced write's payload, delivered unexpectedly: it
            // overtook the announcement (delay-reordering fabric), or the
            // driver started assembling it before the staging buffer was
            // posted. Never a decodable request — consume it as data.
            // Tags are wire input (a well-behaved client's are unique,
            // see `knet_core::ReqTable`), so a pending write is consumed
            // only by *its own* client's payload; a colliding stranger's
            // payload is stashed under its sender instead.
            let own_pending = {
                let s = w.orfs_mut().server_mut(sid);
                if s.pending_writes
                    .get(&tag)
                    .is_some_and(|pw| pw.reply_to == from)
                {
                    s.pending_writes.remove(&tag)
                } else {
                    None
                }
            };
            if let Some(pw) = own_pending {
                // The announcement was processed and a buffer posted, but
                // the payload bounced past it: withdraw the useless post
                // and apply the write from the bounced bytes.
                let ch = server_channel(w, pw.via);
                knet_core::api::channel_cancel_recv(w, ch, tag);
                let n = (data.len() as u64).min(pw.staging.len());
                apply_write(
                    w,
                    sid,
                    pw.via,
                    pw.reply_to,
                    pw.tag,
                    pw.handle,
                    pw.offset,
                    &data[..n as usize],
                );
            } else if data.len() as u64 <= RING_LEN {
                // Payload before its announcement: stash until the header
                // arrives. (A payload the ring could never stage belongs
                // to a write that is refused whichever message comes
                // first; it is dropped here.)
                w.orfs_mut()
                    .server_mut(sid)
                    .early_payloads
                    .insert(tag, (from, data));
            }
        }
        TransportEvent::Unexpected { tag, data, from } => {
            server_handle_request(w, sid, via, tag, &data, from);
        }
        TransportEvent::RecvDone { tag, len, .. } => {
            // The payload of an announced (rendezvous) write landed in the
            // staging ring (correlated by tag — receive contexts are
            // channel-assigned).
            complete_pending_write(w, sid, tag, len);
        }
        TransportEvent::PeerDown { peer } => {
            // A client's node died: withdraw the staging buffers posted for
            // its announced writes — their payloads can never arrive, and
            // the posted receives would otherwise hold driver resources
            // forever.
            let stale: Vec<(u64, Endpoint)> = w
                .orfs()
                .server(sid)
                .pending_writes
                .iter()
                .filter(|(_, pw)| pw.reply_to.node == peer.node)
                .map(|(tag, pw)| (*tag, pw.via))
                .collect();
            for (tag, via) in stale {
                let ch = server_channel(w, via);
                knet_core::api::channel_cancel_recv(w, ch, tag);
                w.orfs_mut().server_mut(sid).pending_writes.remove(&tag);
            }
            // And the dead client's stashed early payloads: never applied,
            // never leaked, never misattributed to a later client reusing
            // the same request ids.
            w.orfs_mut()
                .server_mut(sid)
                .early_payloads
                .retain(|_, (f, _)| f.node != peer.node);
        }
        TransportEvent::SendDone { .. } | TransportEvent::SendFailed { .. } => {}
        // The file server does not participate in collective groups.
        TransportEvent::CollectiveDone { .. }
        | TransportEvent::CollectiveRecv { .. }
        | TransportEvent::CollectiveFailed { .. } => {}
    }
}

fn complete_pending_write<W: OrfsWorld>(w: &mut W, sid: OrfsServerId, tag: u64, got: u64) {
    let Some(pw) = w.orfs_mut().server_mut(sid).pending_writes.remove(&tag) else {
        return;
    };
    let node = w.orfs().server(sid).ep.node;
    let landed = IoVec::single(pw.staging.sub_range(0, got));
    let data = knet_core::read_iovec(w.os().node(node), &landed).expect("ring mapped");
    apply_write(
        w,
        sid,
        pw.via,
        pw.reply_to,
        pw.tag,
        pw.handle,
        pw.offset,
        &data,
    );
}

/// Execute a write's payload (inline behind its header, or announced and
/// landed since) against the file system and send the `Written` (or
/// error) reply.
#[allow(clippy::too_many_arguments)]
fn apply_write<W: OrfsWorld>(
    w: &mut W,
    sid: OrfsServerId,
    via: Endpoint,
    reply_to: Endpoint,
    tag: u64,
    handle: u32,
    offset: u64,
    data: &[u8],
) {
    let now = knet_simcore::now(w);
    let node = w.orfs().server(sid).ep.node;
    let (resp, fs_cost) = {
        let s = w.orfs_mut().server_mut(sid);
        let r = s
            .handle_ino(handle)
            .and_then(|ino| s.fs.write(ino, offset, data, now).map_err(OrfsError::from));
        let cost = s.fs.take_cost();
        match r {
            Ok(n) => {
                s.stats.bytes_written += n as u64;
                (Response::Written(n as u64), cost)
            }
            Err(e) => {
                s.stats.errors += 1;
                (Response::Err(e), cost)
            }
        }
    };
    cpu_charge(w, node, fs_cost);
    reply_meta(w, sid, tag, via, reply_to, resp);
}

fn server_handle_request<W: OrfsWorld>(
    w: &mut W,
    sid: OrfsServerId,
    via: Endpoint,
    tag: u64,
    payload: &[u8],
    from: Endpoint,
) {
    let now = knet_simcore::now(w);
    let node = w.orfs().server(sid).ep.node;
    let decoded = Request::decode(payload);
    let (req, header_len) = match decoded {
        Ok(x) => x,
        Err(_) => {
            w.orfs_mut().server_mut(sid).stats.errors += 1;
            reply_meta(w, sid, tag, via, from, Response::Err(OrfsError::Decode));
            return;
        }
    };
    {
        let s = w.orfs_mut().server_mut(sid);
        s.stats.requests += 1;
    }
    // Dispatch cost.
    let handling = w.orfs().server(sid).handling_cost + codec_cost();
    cpu_charge(w, node, handling);

    match req {
        Request::Read {
            handle,
            offset,
            len,
        } => {
            // Execute the read into the staging ring and send the data
            // message (tag = request id) the client posted a buffer for.
            let (result, fs_cost) = {
                let s = w.orfs_mut().server_mut(sid);
                let r = s.handle_ino(handle).and_then(|ino| {
                    // `len` is wire input: a read the ring could never
                    // stage is refused before anything is allocated.
                    if len > RING_LEN {
                        return Err(OrfsError::Fs(FsError::FileTooBig));
                    }
                    let mut buf = vec![0u8; len as usize];
                    let n =
                        s.fs.read(ino, offset, &mut buf, now)
                            .map_err(OrfsError::from)?;
                    buf.truncate(n);
                    Ok(buf)
                });
                (r, s.fs.take_cost())
            };
            cpu_charge(w, node, fs_cost);
            match result {
                Ok(buf) => {
                    let n = buf.len() as u64;
                    // Stage into the kernel ring (buffer-cache → NIC-visible
                    // memory) and send.
                    let copy = w.os().node(node).cpu.model.memcpy_cost(n);
                    cpu_charge(w, node, copy);
                    let seg = stage(w, sid, &[&buf]).expect("reads are bounded by RING_LEN");
                    let s = w.orfs_mut().server_mut(sid);
                    s.stats.bytes_read += n;
                    s.stats.replies += 1;
                    let ch = server_channel(w, via);
                    let _ = channel_send_to(w, ch, from, tag, IoVec::single(seg));
                }
                Err(e) => {
                    w.orfs_mut().server_mut(sid).stats.errors += 1;
                    // Zero-length data reply signals EOF/error to the posted
                    // buffer; benchmarks never hit this path.
                    let _ = e;
                    let ch = server_channel(w, via);
                    let _ = channel_send_to(w, ch, from, tag, IoVec::new());
                }
            }
        }
        Request::Write {
            handle,
            offset,
            len,
        } => {
            let data = &payload[header_len..];
            if data.is_empty() && len > 0 {
                // Announced (rendezvous) write: the payload follows as a
                // separate tagged message — unless it already overtook the
                // announcement and was stashed.
                let key = tag | crate::proto::DATA_TAG_BIT;
                let early = {
                    let s = w.orfs_mut().server_mut(sid);
                    // Consume only the *announcing client's own* payload —
                    // tags are wire input.
                    if s.early_payloads.get(&key).is_some_and(|(f, _)| *f == from) {
                        s.early_payloads.remove(&key).map(|(_, b)| b)
                    } else {
                        None
                    }
                };
                if let Some(bytes) = early {
                    let n = (bytes.len() as u64).min(len);
                    apply_write(w, sid, via, from, tag, handle, offset, &bytes[..n as usize]);
                    return;
                }
                // Post a staging-ring buffer for the payload to land in.
                // `len` is wire input: a write larger than the whole ring
                // is refused with a typed error and nothing is posted.
                let Some(staging) = w.orfs_mut().server_mut(sid).ring.reserve(len) else {
                    w.orfs_mut().server_mut(sid).stats.errors += 1;
                    let refusal = Response::Err(OrfsError::Fs(FsError::FileTooBig));
                    reply_meta(w, sid, tag, via, from, refusal);
                    return;
                };
                w.orfs_mut().server_mut(sid).pending_writes.insert(
                    key,
                    PendingWrite {
                        handle,
                        offset,
                        staging,
                        reply_to: from,
                        via,
                        tag,
                    },
                );
                let ch = server_channel(w, via);
                let _ = channel_post_recv(w, ch, key, IoVec::single(staging));
                return;
            }
            debug_assert_eq!(data.len() as u64, len, "write payload length");
            apply_write(w, sid, via, from, tag, handle, offset, data);
        }
        other => {
            let (resp, fs_cost) = {
                let s = w.orfs_mut().server_mut(sid);
                // Split the borrow: move handles out for `execute`.
                let mut handles = std::mem::take(&mut s.handles);
                let mut free = std::mem::take(&mut s.free_handles);
                let resp = execute(&mut s.fs, &mut handles, &mut free, &other, now);
                s.handles = handles;
                s.free_handles = free;
                if matches!(resp, Response::Err(_)) {
                    s.stats.errors += 1;
                }
                (resp, s.fs.take_cost())
            };
            cpu_charge(w, node, fs_cost);
            reply_meta(w, sid, tag, via, from, resp);
        }
    }
}

fn reply_meta<W: OrfsWorld>(
    w: &mut W,
    sid: OrfsServerId,
    tag: u64,
    via: Endpoint,
    to: Endpoint,
    resp: Response,
) {
    let node = w.orfs().server(sid).ep.node;
    cpu_charge(w, node, codec_cost());
    // A reply larger than the whole ring (a huge directory listing) is
    // answered with a typed error instead.
    let too_big = Response::Err(OrfsError::Fs(FsError::FileTooBig));
    let seg = stage(w, sid, &[&resp.encode()])
        .or_else(|| stage(w, sid, &[&too_big.encode()]))
        .expect("an error reply fits the ring");
    w.orfs_mut().server_mut(sid).stats.replies += 1;
    let ch = server_channel(w, via);
    let _ = channel_send_to(w, ch, to, tag, IoVec::single(seg));
}

/// Stage `parts` end to end in the server's ring, if they can ever fit.
fn stage<W: OrfsWorld>(w: &mut W, sid: OrfsServerId, parts: &[&[u8]]) -> Option<MemRef> {
    let node = w.orfs().server(sid).ep.node;
    ring_stage(w, node, |w| &mut w.orfs_mut().server_mut(sid).ring, parts)
}
