//! Ablations of the paper's design choices, beyond the published figures,
//! each pinned twice: as the claim it supports, and as an exact row table
//! of its virtual-time numbers (MB/s, to 0.1).
//!
//! 1. **Vectorial page-combining** (§3.3: per-page requests "should
//!    disappear with Linux 2.6 … would require vectorial communication
//!    primitives, that is something GM does not provide") — ORFS/MX
//!    buffered reads with and without combining runs of missing pages into
//!    one vectorial request.
//! 2. **The GM notification thread** (§5.2) — ORFS/GM buffered with and
//!    without the blocking-notify wakeup (`GmParams::blocking_notify`, set
//!    to zero here), isolating how much of the GM-vs-MX file-access gap is
//!    event-notification inflexibility.
//! 3. **GMKRC cache capacity** — direct reads through registration caches
//!    of 64 to 2 048 pages. The 512- and 2 048-page caches read the same:
//!    the working set fits from 512 pages on.

use knet::figures::{fs_fixture, FsFixture, FsOpts};
use knet::harness::{fsops, seq_read_mb};
use knet::prelude::*;

const RECORD: u64 = 64 * 1024;
const TOTAL: u64 = 2 << 20;

/// Sequential reads of `TOTAL` bytes in `record`-sized syscalls on a
/// freshly built fixture, opened `direct` or buffered; `tune` adjusts the
/// world first.
fn read_mb(opts: FsOpts, direct: bool, record: u64, tune: impl FnOnce(&mut FsFixture)) -> f64 {
    let mut fx = fs_fixture(FsOpts {
        file_len: TOTAL + record,
        ..opts
    });
    tune(&mut fx);
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", direct).unwrap();
    let user = fx.user;
    seq_read_mb(&mut fx.w, fx.cid, fd, record, TOTAL, move |_w, i| {
        // Direct reads cycle through the user pool, so the registration
        // cache sees new pages until the pool wraps.
        let off = if direct {
            ((i * record) % (user.len - record)) & !(PAGE_SIZE - 1)
        } else {
            0
        };
        user.memref_at(off, record)
    })
}

fn buffered_mb(kind: TransportKind, combine_pages: bool, record: u64) -> f64 {
    let opts = FsOpts {
        kind,
        combine_pages,
        ..FsOpts::default()
    };
    read_mb(opts, false, record, |_| {})
}

/// A number as the row tables hold it.
fn mb(x: f64) -> String {
    format!("{x:.1}")
}

/// (record, per-page MB/s, combined MB/s).
const COMBINING_ROWS: &[(u64, &str, &str)] = &[
    (16 * 1024, "93.6", "143.6"),
    (64 * 1024, "94.1", "186.6"),
    (256 * 1024, "94.3", "187.1"),
];

#[test]
fn page_combining_gains_half_again_from_64_kb_records() {
    let mut rows = Vec::new();
    for &(record, _, _) in COMBINING_ROWS {
        let per_page = buffered_mb(TransportKind::Mx, false, record);
        let combined = buffered_mb(TransportKind::Mx, true, record);
        if record >= 64 * 1024 {
            assert!(
                combined >= 1.5 * per_page,
                "{record} B: {combined:.1} vs {per_page:.1} MB/s"
            );
        }
        rows.push((record, mb(per_page), mb(combined)));
    }
    let pinned = COMBINING_ROWS
        .iter()
        .map(|&(r, a, b)| (r, a.into(), b.into()));
    assert_eq!(rows, pinned.collect::<Vec<(u64, String, String)>>());
}

#[test]
fn the_notification_thread_explains_most_of_the_gm_vs_mx_buffered_gap() {
    let with_thread = buffered_mb(TransportKind::Gm, false, RECORD);
    let gm = FsOpts {
        kind: TransportKind::Gm,
        ..FsOpts::default()
    };
    // A hypothetical GM whose kernel clients could poll.
    let polling = read_mb(gm, false, RECORD, |fx| {
        fx.w.gm.params.blocking_notify = SimTime::ZERO;
    });
    let mx = buffered_mb(TransportKind::Mx, false, RECORD);
    let explained = (polling - with_thread) / (mx - with_thread);
    assert!(
        with_thread < polling && polling < mx && explained > 0.5,
        "thread {with_thread:.1}, polling {polling:.1}, MX {mx:.1} MB/s"
    );
    assert_eq!(
        [with_thread, polling, mx].map(mb),
        ["66.8", "84.7", "94.1"],
        "ORFS buffered at 64 kB: GM with the thread, GM polling, MX"
    );
}

/// (cache capacity in pages, direct-read MB/s).
const CACHE_ROWS: &[(usize, &str)] = &[
    (64, "137.6"),
    (128, "153.8"),
    (512, "169.2"),
    (2048, "169.2"),
];

#[test]
fn a_larger_gmkrc_cache_is_never_slower() {
    let mut rows = Vec::new();
    for &(pages, _) in CACHE_ROWS {
        let opts = FsOpts {
            kind: TransportKind::Gm,
            regcache_pages: Some(pages),
            ..FsOpts::default()
        };
        rows.push((pages, read_mb(opts, true, RECORD, |_| {})));
    }
    for pair in rows.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "{pair:?}");
    }
    let rows: Vec<(usize, String)> = rows.into_iter().map(|(p, x)| (p, mb(x))).collect();
    let pinned = CACHE_ROWS.iter().map(|&(p, x)| (p, x.to_string()));
    assert_eq!(rows, pinned.collect::<Vec<_>>());
}
