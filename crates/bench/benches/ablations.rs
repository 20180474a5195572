//! Ablations of the paper's design choices, beyond the published figures:
//!
//! 1. **Vectorial page-combining** (§3.3: per-page requests "should
//!    disappear with Linux 2.6 … would require vectorial communication
//!    primitives, that is something GM does not provide") — ORFS/MX
//!    buffered reads with and without combining runs of missing pages into
//!    one vectorial request.
//! 2. **The GM notification thread** (§5.2) — ORFS/GM buffered with and
//!    without the blocking-notify wakeup, isolating how much of the
//!    GM-vs-MX file-access gap is event-notification inflexibility.
//! 3. **GMKRC eviction batching** — the deregistration-amortization batch
//!    size, the knob that decides how much of the 200 µs base each miss
//!    pays.

use knet::figures::{fs_fixture, FsOpts};
use knet::harness::{fsops, seq_read_mb};
use knet::prelude::*;

fn buffered_mb(kind: TransportKind, combine: bool, record: u64) -> f64 {
    let total = 2 << 20;
    let mut fx = fs_fixture(FsOpts {
        kind,
        combine_pages: combine,
        file_len: total + record,
        ..FsOpts::default()
    });
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
    let user = fx.user;
    seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, _i| {
        user.memref(record)
    })
}

fn main() {
    println!("== Ablation 1: vectorial page-combining (ORFS/MX buffered) ==");
    println!("   (the Linux 2.6 behaviour of §3.3; GM cannot do this at all)\n");
    println!(
        "{:>12} {:>16} {:>16} {:>8}",
        "record", "per-page MB/s", "combined MB/s", "gain"
    );
    for record in [16 * 1024u64, 65536, 256 * 1024] {
        let per_page = buffered_mb(TransportKind::Mx, false, record);
        let combined = buffered_mb(TransportKind::Mx, true, record);
        println!(
            "{:>12} {:>16.1} {:>16.1} {:>7.0}%",
            record,
            per_page,
            combined,
            (combined / per_page - 1.0) * 100.0
        );
    }

    println!("\n== Ablation 2: the GM notification thread (§5.2) ==\n");
    // With the thread (the real ORFS/GM), vs a hypothetical GM whose kernel
    // clients could poll (blocking_notify off).
    let with_thread = buffered_mb(TransportKind::Gm, false, 65536);
    let without = {
        let total = 2 << 20;
        let mut fx = fs_fixture(FsOpts {
            kind: TransportKind::Gm,
            file_len: total + 65536,
            ..FsOpts::default()
        });
        // Strip the notify cost post-hoc by re-opening the client port
        // without the flag: rebuild the fixture via gm params.
        let mut p = fx.w.gm.params;
        p.blocking_notify = SimTime::ZERO;
        fx.w.gm.params = p;
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
        let user = fx.user;
        seq_read_mb(&mut fx.w, fx.cid, fd, 65536, total, move |_w, _i| {
            user.memref(65536)
        })
    };
    let mx = buffered_mb(TransportKind::Mx, false, 65536);
    println!("ORFS/GM buffered, notification thread on : {with_thread:6.1} MB/s");
    println!("ORFS/GM buffered, hypothetical polling   : {without:6.1} MB/s");
    println!("ORFS/MX buffered (flexible completions)  : {mx:6.1} MB/s");
    println!(
        "→ the thread explains {:.0}% of the GM-vs-MX buffered gap",
        (without - with_thread) / (mx - with_thread) * 100.0
    );

    println!("\n== Ablation 3: GMKRC eviction batch size ==\n");
    println!("   0% hit-rate direct reads (64 kB records, 128-page cache);");
    println!("   bigger batches amortize the 200 us deregistration base.\n");
    // The batch divisor is a compile-time constant; emulate its effect by
    // varying cache capacity (batch = capacity/2).
    println!("{:>16} {:>12}", "cache (pages)", "MB/s");
    for cache in [64usize, 128, 512, 2048] {
        let record = 65536u64;
        let total = 2 << 20;
        let mut fx = fs_fixture(FsOpts {
            kind: TransportKind::Gm,
            regcache_pages: Some(cache),
            file_len: total + record,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let user = fx.user;
        let pool = user.len;
        let mb = seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, i| {
            let off = (i * record) % (pool - record).max(1);
            user.memref_at(off & !(PAGE_SIZE - 1), record)
        });
        println!("{:>16} {:>12.1}", cache, mb);
    }
}
