//! Shape assertions on the reproduced evaluation: for every figure and for
//! Table 1, check the paper's *qualitative* claims — who wins, by roughly
//! what factor, and where the crossovers fall. (Absolute equality with a
//! 2005 testbed is out of scope; EXPERIMENTS.md records paper-vs-measured.)

use knet::figures::{self, fs_fixture, FsOpts};
use knet::harness::{fsops, seq_read_mb, sock_pingpong_us, ubuf};
use knet::prelude::*;
use knet_gm::params::{DEREG_BASE, REG_PER_PAGE};
use knet_simos::PAGE_SIZE as P;
use knet_zsock::sock_create;

// ---------------------------------------------------------------- Figure 1b

#[test]
fn fig1b_registration_vs_copy_shapes() {
    let fig = figures::fig1b();
    let copy_p3 = &fig.series[0];
    let copy_p4 = &fig.series[1];
    let reg = &fig.series[2];
    let dereg = &fig.series[3];
    // Copy cost grows linearly; P3 is at least twice the P4 cost at 256 kB.
    let big = 256 * 1024;
    assert!(copy_p3.exact(big).unwrap() > 2.0 * copy_p4.exact(big).unwrap());
    // Deregistration is dominated by its ~200 µs base: nearly flat.
    let d_small = dereg.exact(4096).unwrap();
    let d_big = dereg.exact(big).unwrap();
    assert!(
        d_small >= 195.0 && d_big <= 1.2 * d_small,
        "dereg base dominates"
    );
    // Registration (3 µs/page) is cheaper than a P3 copy at 256 kB but far
    // more expensive than any copy for one page — the paper's motivation
    // for copying small buffers instead of registering them (§2.2.2).
    assert!(reg.exact(big).unwrap() < copy_p3.exact(big).unwrap());
    assert!(reg.exact(4096).unwrap() > copy_p4.exact(4096).unwrap());
}

// ---------------------------------------------------------------- Figure 4a

#[test]
fn fig4a_physical_addressing_saves_a_microsecond() {
    let fig = figures::fig4a();
    let registered = &fig.series[0];
    let physical = &fig.series[1];
    for p in &registered.points {
        let phys = physical.exact(p.x).unwrap();
        let gain = p.y - phys;
        assert!(
            (0.7..=1.4).contains(&gain),
            "at {} B the physical API saves {gain:.2} µs (paper: ≈1.0)",
            p.x
        );
    }
}

// ------------------------------------------------------- Figure 4b (shape)

/// One fixture, one record size: (direct, buffered) throughput.
fn gm_direct_buffered_at(record: u64) -> (f64, f64) {
    let opts = FsOpts {
        kind: TransportKind::Gm,
        ..FsOpts::default()
    };
    let mut out = (0.0, 0.0);
    for (i, direct) in [(0, true), (1, false)] {
        let total = (record * 32).clamp(64 * 1024, 2 << 20);
        let mut fx = fs_fixture(FsOpts {
            file_len: total + record,
            ..opts
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", direct).unwrap();
        let user = fx.user;
        let mb = seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, _i| {
            user.memref(record)
        });
        if i == 0 {
            out.0 = mb;
        } else {
            out.1 = mb;
        }
    }
    out
}

#[test]
fn fig4b_buffered_wins_small_direct_wins_large() {
    // §3.3: "4 kB accesses are faster through the page-cache compared to
    // direct accesses, even if an additional copy ... is required"; large
    // requests are "much better in the direct case".
    let (direct_small, buffered_small) = gm_direct_buffered_at(1024);
    assert!(
        buffered_small > direct_small,
        "1 kB records: buffered {buffered_small:.1} must beat direct {direct_small:.1}"
    );
    let (direct_large, buffered_large) = gm_direct_buffered_at(256 * 1024);
    assert!(
        direct_large > 1.5 * buffered_large,
        "256 kB records: direct {direct_large:.1} must far exceed buffered {buffered_large:.1}"
    );
    // The buffered plateau sits at the per-page request rate.
    assert!((40.0..=120.0).contains(&buffered_large));
}

// ---------------------------------------------------------------- Figure 3b

#[test]
fn fig3b_cache_miss_penalty_is_about_twenty_percent() {
    // §3.2: "Without any cache hit, the performance is 20 % lower."
    let record = 64 * 1024u64;
    let total = 2 << 20;
    let run = |cache: usize, rotate: bool| {
        let mut fx = fs_fixture(FsOpts {
            kind: TransportKind::Gm,
            regcache_pages: Some(cache),
            file_len: total + record,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let user = fx.user;
        let pool = user.len;
        seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, i| {
            if rotate {
                let off = (i * record) % (pool - record).max(1);
                user.memref_at(off & !(P - 1), record)
            } else {
                user.memref(record)
            }
        })
    };
    let with_cache = run(4096, false);
    let without = run(128, true);
    let loss = 1.0 - without / with_cache;
    assert!(
        (0.12..=0.30).contains(&loss),
        "no-hit penalty = {:.0} % (paper: 20 %)",
        loss * 100.0
    );
}

#[test]
fn fig3b_orfa_beats_orfs_which_both_trail_raw_gm() {
    // §3.2: "ORFS performance is still lower than ORFA because of the
    // overhead of system calls and of the traversal of the VFS layers."
    let record = 16 * 1024u64;
    let total = 1 << 20;
    let run = |client: ClientKind| {
        let mut fx = fs_fixture(FsOpts {
            kind: TransportKind::Gm,
            client,
            file_len: total + record,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let user = fx.user;
        seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, _i| {
            user.memref(record)
        })
    };
    let orfa = run(ClientKind::UserLib);
    let orfs = run(ClientKind::KernelVfs);
    assert!(
        orfa > orfs,
        "ORFA ({orfa:.1}) must beat ORFS ({orfs:.1}) at 16 kB records"
    );
    assert!(orfa < 210.0, "both trail raw GM (~200 MB/s at 16 kB)");
}

// ---------------------------------------------------------------- Figure 7

#[test]
fn fig7b_mx_buffered_improvement() {
    // §5.2: "Buffered file access in ORFS on MX shows a 40 % improvement
    // over GM."
    let record = 64 * 1024u64;
    let total = 2 << 20;
    let run = |kind: TransportKind| {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: total + record,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
        let user = fx.user;
        seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, _i| {
            user.memref(record)
        })
    };
    let gm = run(TransportKind::Gm);
    let mx = run(TransportKind::Mx);
    let gain = mx / gm - 1.0;
    assert!(
        (0.20..=0.55).contains(&gain),
        "ORFS/MX buffered gain = {:.0} % over GM (paper: 40 %)",
        gain * 100.0
    );
}

#[test]
fn fig7a_mx_direct_at_least_as_good_at_large_records() {
    // Table 1: direct access on MX is "at least as good".
    let record = 512 * 1024u64;
    let total = 2 << 20;
    let run = |kind: TransportKind| {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: total + record,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let user = fx.user;
        seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, _i| {
            user.memref(record)
        })
    };
    let gm = run(TransportKind::Gm);
    let mx = run(TransportKind::Mx);
    assert!(
        mx > 0.97 * gm,
        "ORFS/MX direct ({mx:.1}) within noise of or above GM ({gm:.1})"
    );
}

// ---------------------------------------------------------------- Figure 8

fn sock_lat_and_peak(kind: TransportKind) -> (f64, f64) {
    let lat = {
        let (mut w, sa, sb, ba, bb) = sock_pair(kind);
        sock_pingpong_us(&mut w, sa, sb, ba.memref(1), bb.memref(1), 5)
    };
    let peak = {
        let (mut w, sa, sb, ba, bb) = sock_pair(kind);
        let n = 1u64 << 20;
        let us = sock_pingpong_us(&mut w, sa, sb, ba.memref(n), bb.memref(n), 3);
        n as f64 / us
    };
    (lat, peak)
}

fn sock_pair(
    kind: TransportKind,
) -> (
    ClusterWorld,
    knet_zsock::SockId,
    knet_zsock::SockId,
    knet::harness::UBuf,
    knet::harness::UBuf,
) {
    let (mut w, n0, n1) = two_nodes_xe();
    let ba = ubuf(&mut w, n0, 2 << 20);
    let bb = ubuf(&mut w, n1, 2 << 20);
    let (ea, eb) = match kind {
        TransportKind::Mx => (
            w.open_mx(n0, MxEndpointConfig::kernel()).unwrap(),
            w.open_mx(n1, MxEndpointConfig::kernel()).unwrap(),
        ),
        TransportKind::Gm => {
            let cfg = GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(4096);
            (
                w.open_gm(n0, cfg.clone()).unwrap(),
                w.open_gm(n1, cfg).unwrap(),
            )
        }
    };
    let sa = sock_create(&mut w, ea, eb).unwrap();
    let sb = sock_create(&mut w, eb, ea).unwrap();
    (w, sa, sb, ba, bb)
}

#[test]
fn fig8_socket_latency_and_capacity_claims() {
    let (mx_lat, mx_peak) = sock_lat_and_peak(TransportKind::Mx);
    let (gm_lat, gm_peak) = sock_lat_and_peak(TransportKind::Gm);
    // §5.3: "5 µs one-way latency ... with SOCKETS-MX"; "SOCKETS-GM gets
    // 15 µs".
    assert!(
        (4.0..=6.5).contains(&mx_lat),
        "Sockets-MX 1B = {mx_lat:.1} µs"
    );
    assert!(
        (12.0..=18.0).contains(&gm_lat),
        "Sockets-GM 1B = {gm_lat:.1} µs"
    );
    assert!(gm_lat / mx_lat > 2.5, "the 3× latency gap holds");
    // Table 1: Sockets-GM under 70 % of the 500 MB/s link; MX near it.
    assert!(
        gm_peak < 0.70 * 500.0,
        "Sockets-GM peak = {gm_peak:.0} MB/s"
    );
    assert!(
        mx_peak > 0.85 * 500.0,
        "Sockets-MX peak = {mx_peak:.0} MB/s"
    );
    assert!(
        mx_peak / gm_peak - 1.0 > 0.35,
        "large-message improvement (paper: up to 50 %)"
    );
}

// ---------------------------------------------------------------- Figure 6
// (§5.1's copy-removal anchors, as the figure reproduces them, and the
// medium/large boundary as a regime change)

/// Ping-pong bandwidth of `n`-byte kernel-virtual messages between two
/// default kernel MX endpoints, measured as fig. 6 measures its curves.
fn kernel_mx_mbps(n: u64) -> f64 {
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let a = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let b = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let ka = knet::harness::kbuf(&mut w, n0, n);
    let kb = knet::harness::kbuf(&mut w, n1, n);
    let us = knet::harness::transport_pingpong_us(&mut w, a, b, ka.iov(n), kb.iov(n), 3);
    n as f64 / us
}

/// The curve of `fig` named `name`.
fn curve<'a>(fig: &'a figures::Figure, name: &str) -> &'a knet_simcore::Series {
    fig.series
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{}: no curve {name:?}", fig.id))
}

/// What every in-kernel consumer gets, `MxEndpointConfig::kernel()`, is
/// the paper's MX after §5.1: fig. 6's no-send-copy curve, point for
/// point. Against the pre-§5.1 baseline that curve gains ≈17 % at 32 kB
/// and ≈9 % for a single page (knet-mx's tolerances).
#[test]
fn fig6_default_kernel_mx_is_the_no_send_copy_curve_and_gains_as_in_the_paper() {
    let fig = figures::fig6();
    let (copy, nosend) = (
        curve(&fig, "MX Kernel"),
        curve(&fig, "MX Kernel No-send-copy"),
    );
    for p in &nosend.points {
        let n = p.x;
        assert_eq!(kernel_mx_mbps(n), p.y, "{n} B: default kernel MX vs fig. 6");
    }
    let gain = |n| nosend.exact(n).unwrap() / copy.exact(n).unwrap() - 1.0;
    let (at_32k, at_page) = (gain(32 * 1024), gain(P));
    assert!(
        (0.10..=0.24).contains(&at_32k),
        "no-send-copy gain at 32 kB = {:.1} % (paper: 17 %)",
        at_32k * 100.0
    );
    assert!(
        (0.05..=0.15).contains(&at_page),
        "single-page no-send-copy gain = {:.1} % (paper: 9 %)",
        at_page * 100.0
    );
}

/// §5.1's "kernel = user" claim was measured before the send-copy removal:
/// fig. 5a's MX Kernel curve is that MX, and it is the MX User curve.
#[test]
fn fig5a_pre_copy_removal_kernel_mx_latency_equals_user_mx() {
    let fig = figures::fig5a();
    let (user, kernel) = (curve(&fig, "MX User"), curve(&fig, "MX Kernel"));
    assert_eq!(user.points.len(), kernel.points.len());
    for (u, k) in user.points.iter().zip(&kernel.points) {
        assert_eq!(u.x, k.x);
        assert_eq!(k.y, u.y, "{} B: kernel {} vs user {} µs", k.x, k.y, u.y);
    }
}

#[test]
fn fig6_regime_change_at_the_medium_boundary() {
    let medium_end = kernel_mx_mbps(32 * 1024); // the receive-side copy
    let large_start = kernel_mx_mbps(64 * 1024); // rendezvous, zero-copy
    assert!(
        large_start > medium_end * 1.15,
        "crossing into the rendezvous regime jumps: {medium_end:.0} → {large_start:.0} MB/s"
    );
}

// ---------------------------------------------------------------- Table 1

#[test]
fn table1_registration_costs_match_the_quoted_numbers() {
    // §2.2.2: "a 3 µs overhead per page registration, with the addition of
    // a 200 µs base for deregistration".
    assert_eq!(REG_PER_PAGE.micros(), 3.0);
    assert_eq!(DEREG_BASE.micros(), 200.0);
}
