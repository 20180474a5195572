//! The paper's future-work application, running: a Network Block Device
//! client mounting a remote disk over the kernel network API, exercising
//! the same page-cache + physical-address machinery as ORFS buffered access
//! (§6), compared across GM and MX.
//!
//! Run with: `cargo run --release --example network_block_device`

use knet::harness::ubuf;
use knet::prelude::*;
use knet_nbd::{
    nbd_client_create, nbd_read, nbd_read_raw, nbd_server_create, nbd_wait, nbd_write, SECTOR_SIZE,
};
use knet_simcore::{run_until, RunOutcome};

fn wait(w: &mut ClusterWorld, cid: knet_nbd::NbdClientId, op: knet_nbd::NbdOp) -> u64 {
    let outcome = run_until(w, |w| {
        w.nbd.clients[cid.0 as usize]
            .completed
            .iter()
            .any(|(o, _)| *o == op)
    });
    assert_eq!(outcome, RunOutcome::Satisfied);
    nbd_wait(&mut w.nbd.clients[cid.0 as usize], op)
        .unwrap()
        .unwrap()
}

fn session(kind: TransportKind) {
    let (mut w, n0, n1) = two_nodes();
    let user = ubuf(&mut w, n0, 4 << 20);
    let (cep, sep) = match kind {
        TransportKind::Mx => (
            w.open_mx(n0, MxEndpointConfig::kernel()).unwrap(),
            w.open_mx(n1, MxEndpointConfig::kernel()).unwrap(),
        ),
        TransportKind::Gm => {
            let cfg = GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(4096)
                .with_blocking_notify();
            (
                w.open_gm(n0, cfg.clone()).unwrap(),
                w.open_gm(n1, cfg).unwrap(),
            )
        }
    };
    let _server = nbd_server_create(&mut w, sep, 16 * 1024).unwrap(); // 64 MB disk
    let client = nbd_client_create(&mut w, cep, sep, 1000).unwrap();

    // Format: write a recognizable pattern across 1 MB of the device.
    let mb = 1u64 << 20;
    let pattern: Vec<u8> = (0..mb).map(|i| ((i / SECTOR_SIZE) % 251) as u8).collect();
    w.os.node_mut(n0)
        .write_virt(user.asid, user.addr, &pattern)
        .unwrap();
    let op = nbd_write(&mut w, client, user.memref(mb), 0);
    wait(&mut w, client, op);

    // Drop the (write-through) cached sectors so the first read is cold.
    let key = w.nbd.clients[client.0 as usize].cache_key(0);
    let os = w.os.node_mut(n0);
    let mut cache = std::mem::take(&mut os.page_cache);
    cache.evict_file(&mut os.mem, key.mount, key.inode).unwrap();
    w.os.node_mut(n0).page_cache = cache;

    // Cold buffered read of the whole megabyte (per-sector requests).
    let t0 = knet_simcore::now(&w);
    let op = nbd_read(&mut w, client, user.memref(mb), 0);
    let n = wait(&mut w, client, op);
    let cold = knet_simcore::now(&w) - t0;
    assert_eq!(n, mb);

    // Warm read: pure page-cache hits.
    let t0 = knet_simcore::now(&w);
    let op = nbd_read(&mut w, client, user.memref(mb), 0);
    wait(&mut w, client, op);
    let warm = knet_simcore::now(&w) - t0;

    // Raw (direct) read of the same range: one request, zero-copy.
    let t0 = knet_simcore::now(&w);
    let op = nbd_read_raw(&mut w, client, user.memref(mb), 0);
    wait(&mut w, client, op);
    let raw = knet_simcore::now(&w) - t0;

    // Verify contents end to end.
    let mut back = vec![0u8; mb as usize];
    w.os.node(n0)
        .read_virt(user.asid, user.addr, &mut back)
        .unwrap();
    assert_eq!(back, pattern, "device bytes survive the round trip");

    let stats = w.nbd.clients[client.0 as usize].stats;
    println!(
        "  {kind:?}: cold buffered {:>7.1} MB/s | warm (cache) {:>7.1} MB/s | raw {:>7.1} MB/s | sector hits/misses {}/{}",
        mb as f64 / cold.micros(),
        mb as f64 / warm.micros(),
        mb as f64 / raw.micros(),
        stats.sector_hits,
        stats.sector_misses,
    );
}

fn main() {
    println!("Network Block Device: remote 64 MB disk, 4 kB sectors\n");
    session(TransportKind::Gm);
    session(TransportKind::Mx);
    println!("\nas the paper predicts (§6), the NBD client behaves like ORFS");
    println!("buffered access: page-sized physical-address transfers, and the");
    println!("MX kernel interface carries them faster than GM.");
}
