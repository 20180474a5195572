//! A request the server refuses resolves once, with a typed error, and
//! leaves the client quiet. The refusal is a message of its own under the
//! request's companion tag (`id | 1 << 63`, the bit request ids leave
//! free), so a reply buffer the client posted under the id is withdrawn
//! instead of taking the refusal as a 0-byte read.
//!
//! * ORFS: a direct read over the server's 4 MB staging ring is
//!   `FileTooBig`; a read of a handle the server closed is `BadHandle`.
//! * NBD: a write, a raw read and a buffered read one sector past the end
//!   of the device are `OutOfRange`, and the buffered read leaves no page
//!   behind. Neither does the refused write: its bytes were cached before
//!   the server answered, and a read of that sector must not be served them.

use knet::figures::{fs_fixture, FsOpts};
use knet::harness::{fsops, orfs_wait, ubuf};
use knet::prelude::*;
use knet_nbd::{
    nbd_client_create, nbd_read, nbd_read_raw, nbd_server_create, nbd_write, NbdClientId, NbdOp,
    NbdResult, SECTOR_SIZE,
};
use knet_orfs::{op_close, op_read, OrfsError, SysRet};
use knet_simfs::FsError;

#[test]
fn a_refused_orfs_read_resolves_typed_on_both_transports() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let len = 6 << 20;
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: len,
            ..FsOpts::default()
        });
        let (w, cid) = (&mut fx.w, fx.cid);
        let fd = fsops::open(w, cid, "/data", true).unwrap();
        let big = ubuf(w, fx.client_node, len);
        let refused = fsops::read(w, cid, fd, big.memref(len), 0);
        assert_eq!(
            refused,
            Err(OrfsError::Fs(FsError::FileTooBig)),
            "{kind:?}: a read over the server's ring"
        );
        // The server applies the close before the read sent behind it.
        let close = op_close(w, cid, fd);
        let read = op_read(w, cid, fd, fx.user.memref(4096), 0);
        assert_eq!(
            orfs_wait(w, cid, read),
            Err(OrfsError::BadHandle),
            "{kind:?}"
        );
        assert_eq!(orfs_wait(w, cid, close), Ok(SysRet::Unit), "{kind:?}");
        run_to_quiescence(w);
        let c = w.orfs.client(cid);
        assert!(c.completed.is_empty(), "{kind:?}: {:?}", c.completed);
        assert!(c.is_quiet(), "{kind:?}: the client holds nothing");
        assert_eq!(w.orfs.servers[0].stats.errors, 2, "{kind:?}");
    }
}

/// Sectors on the device.
const SECTORS: u64 = 16;

/// An NBD client on node 0 of a `SECTORS`-sector device served on node 1,
/// with a user buffer of one sector.
fn nbd() -> (ClusterWorld, NbdClientId, UBuf) {
    let (mut w, n0, n1) = two_nodes();
    let ce = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let se = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    nbd_server_create(&mut w, se, SECTORS).unwrap();
    let cid = nbd_client_create(&mut w, ce, se, 7).unwrap();
    let user = ubuf(&mut w, n0, SECTOR_SIZE);
    (w, cid, user)
}

/// Run to quiescence: `op`'s one result, with the client quiet.
fn resolve_once(w: &mut ClusterWorld, cid: NbdClientId, op: NbdOp) -> NbdResult {
    run_to_quiescence(w);
    let c = &mut w.nbd.clients[cid.0 as usize];
    let results: Vec<_> = c.completed.drain(..).collect();
    assert!(c.is_quiet(), "the client holds nothing");
    match results[..] {
        [(o, res)] if o == op => res,
        _ => panic!("op {op} resolved as {results:?}"),
    }
}

#[test]
fn an_nbd_write_past_the_device_is_refused() {
    let (mut w, cid, user) = nbd();
    let op = nbd_write(&mut w, cid, user.memref(SECTOR_SIZE), SECTORS * SECTOR_SIZE);
    assert_eq!(resolve_once(&mut w, cid, op), Err(NetError::OutOfRange));
    assert_eq!(w.nbd.servers[0].bytes_written, 0, "nothing was written");
}

#[test]
fn a_refused_nbd_write_leaves_nothing_cached_to_read() {
    let (mut w, cid, user) = nbd();
    let past = SECTORS * SECTOR_SIZE;
    let op = nbd_write(&mut w, cid, user.memref(SECTOR_SIZE), past);
    assert_eq!(resolve_once(&mut w, cid, op), Err(NetError::OutOfRange));
    let key = w.nbd.clients[cid.0 as usize].cache_key(SECTORS);
    assert!(w.os.node(user.node).page_cache.peek(key).is_none());
    let op = nbd_read(&mut w, cid, user.memref(SECTOR_SIZE), past);
    assert_eq!(
        resolve_once(&mut w, cid, op),
        Err(NetError::OutOfRange),
        "the read reaches the server"
    );
}

#[test]
fn an_nbd_raw_read_past_the_device_is_refused() {
    let (mut w, cid, user) = nbd();
    let op = nbd_read_raw(&mut w, cid, user.memref(SECTOR_SIZE), SECTORS);
    assert_eq!(resolve_once(&mut w, cid, op), Err(NetError::OutOfRange));
}

#[test]
fn an_nbd_buffered_read_past_the_device_is_refused_and_caches_nothing() {
    let (mut w, cid, user) = nbd();
    let n0 = user.node;
    let before = (
        w.os.node(n0).mem.allocated_frames(),
        w.os.node(n0).page_cache.len(),
    );
    let op = nbd_read(&mut w, cid, user.memref(SECTOR_SIZE), SECTORS * SECTOR_SIZE);
    assert_eq!(resolve_once(&mut w, cid, op), Err(NetError::OutOfRange));
    let after = (
        w.os.node(n0).mem.allocated_frames(),
        w.os.node(n0).page_cache.len(),
    );
    assert_eq!(after, before, "the sector's frame went back");
}
