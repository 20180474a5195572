//! Regenerators for every table and figure of the paper's evaluation.
//!
//! Each function rebuilds the exact experimental setup (node/NIC generation,
//! driver configuration, workload) and returns the same series the paper
//! plots. The benchmark binaries print them; the integration tests assert
//! the paper's qualitative claims on them (orderings, crossovers,
//! improvement factors).

use knet_core::{MemRef, TransportKind};
use knet_gm::params::{deregister_cost, register_cost};
use knet_gm::{gm_register, GmPortConfig, GmPortId};
use knet_mx::{MxEndpointConfig, MxOpts};
use knet_orfs::{client_create, server_create, ClientKind, OrfsClientId, VfsConfig};
use knet_simcore::{pow2_sizes, Series};
use knet_simfs::SimFs;
use knet_simos::{Asid, CpuModel, NodeId, PAGE_SIZE};
use knet_zsock::{sock_create, tcp_pair};

use crate::build::{two_nodes, two_nodes_xe, ClusterBuilder};
use crate::harness::{
    self, kbuf, make_server_file, seq_read_mb, sock_pingpong_us, tcp_pingpong_us,
    transport_pingpong_us, ubuf,
};
use crate::world::ClusterWorld;

/// A regenerated figure.
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub x_label: &'static str,
    pub y_label: &'static str,
    pub series: Vec<Series>,
}

// ---------------------------------------------------------------- Figure 1b

/// Figure 1b: copy vs memory registration/deregistration cost, 0–256 kB.
pub fn fig1b() -> Figure {
    let sizes = pow2_sizes(256, 256 * 1024);
    let p4 = CpuModel::p4_2600();
    let p3 = CpuModel::p3_1200();
    let mut copy_p3 = Series::new("Copy (P3 1.2 GHz)");
    let mut copy_p4 = Series::new("Copy (P4 2.6 GHz)");
    let mut reg = Series::new("Memory Registration");
    let mut dereg = Series::new("Memory De-registration");
    let mut both = Series::new("Register + Dereg.");
    for &s in &sizes {
        let pages = s.div_ceil(PAGE_SIZE);
        copy_p3.push(s, p3.memcpy_cost(s).micros());
        copy_p4.push(s, p4.memcpy_cost(s).micros());
        reg.push(s, register_cost(pages).micros());
        dereg.push(s, deregister_cost(pages).micros());
        both.push(s, (register_cost(pages) + deregister_cost(pages)).micros());
    }
    Figure {
        id: "fig1b",
        title: "Copy vs memory registration cost in GM",
        x_label: "message size (bytes)",
        y_label: "overhead (us)",
        series: vec![copy_p3, copy_p4, reg, dereg, both],
    }
}

// ---------------------------------------------------------------- raw pairs

/// GM user-mode endpoints with `len`-byte registered user buffers.
fn gm_user_registered(
    w: &mut ClusterWorld,
    n0: NodeId,
    n1: NodeId,
    len: u64,
) -> (
    knet_core::Endpoint,
    knet_core::Endpoint,
    harness::UBuf,
    harness::UBuf,
) {
    let cq = w.new_cq();
    let ba = ubuf(w, n0, len);
    let bb = ubuf(w, n1, len);
    let ea = w.open_gm_cq(n0, GmPortConfig::user(ba.asid), cq).unwrap();
    let eb = w.open_gm_cq(n1, GmPortConfig::user(bb.asid), cq).unwrap();
    gm_register(w, GmPortId(ea.idx), ba.asid, ba.addr, len).unwrap();
    gm_register(w, GmPortId(eb.idx), bb.asid, bb.addr, len).unwrap();
    (ea, eb, ba, bb)
}

/// GM kernel endpoints (optionally with the physical-address patch) and
/// kernel buffers, registered when the patch is off.
fn gm_kernel_pair(
    w: &mut ClusterWorld,
    n0: NodeId,
    n1: NodeId,
    len: u64,
    physical: bool,
) -> (knet_core::Endpoint, knet_core::Endpoint, MemRef, MemRef) {
    let cfg = if physical {
        GmPortConfig::kernel().with_physical_api()
    } else {
        GmPortConfig::kernel()
    };
    let cq = w.new_cq();
    let ea = w.open_gm_cq(n0, cfg.clone(), cq).unwrap();
    let eb = w.open_gm_cq(n1, cfg, cq).unwrap();
    let ka = kbuf(w, n0, len);
    let kb = kbuf(w, n1, len);
    let (ra, rb) = if physical {
        (
            MemRef::physical(ka.addr.kernel_to_phys().unwrap(), len),
            MemRef::physical(kb.addr.kernel_to_phys().unwrap(), len),
        )
    } else {
        gm_register(w, GmPortId(ea.idx), Asid::KERNEL, ka.addr, len).unwrap();
        gm_register(w, GmPortId(eb.idx), Asid::KERNEL, kb.addr, len).unwrap();
        (MemRef::kernel(ka.addr, len), MemRef::kernel(kb.addr, len))
    };
    (ea, eb, ra, rb)
}

fn clamp(m: &MemRef, len: u64) -> MemRef {
    match *m {
        MemRef::UserVirtual { asid, addr, len: l } => MemRef::user(asid, addr, l.min(len)),
        MemRef::KernelVirtual { addr, len: l } => MemRef::kernel(addr, l.min(len)),
        MemRef::Physical { addr, len: l } => MemRef::physical(addr, l.min(len)),
    }
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5a: GM vs MX small-message latency, user and kernel, 1 B–4 kB.
pub fn fig5a() -> Figure {
    let sizes = pow2_sizes(1, 4096);
    let mut out: Vec<Series> = Vec::new();

    // GM user.
    let mut s = Series::new("GM User");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let (ea, eb, ba, bb) = gm_user_registered(&mut w, n0, n1, 4096.max(n));
        let us = transport_pingpong_us(
            &mut w,
            ea,
            eb,
            knet_core::IoVec::single(ba.memref(n)),
            knet_core::IoVec::single(bb.memref(n)),
            5,
        );
        s.push(n, us);
    }
    out.push(s);

    // GM kernel (registered kernel memory — stock GM).
    let mut s = Series::new("GM Kernel");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let (ea, eb, ra, rb) = gm_kernel_pair(&mut w, n0, n1, 4096.max(n), false);
        let us = transport_pingpong_us(
            &mut w,
            ea,
            eb,
            knet_core::IoVec::single(clamp(&ra, n)),
            knet_core::IoVec::single(clamp(&rb, n)),
            5,
        );
        s.push(n, us);
    }
    out.push(s);

    // MX user.
    let mut s = Series::new("MX User");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let ba = ubuf(&mut w, n0, 4096.max(n));
        let bb = ubuf(&mut w, n1, 4096.max(n));
        let ea = w
            .open_mx_cq(n0, MxEndpointConfig::user(ba.asid), cq)
            .unwrap();
        let eb = w
            .open_mx_cq(n1, MxEndpointConfig::user(bb.asid), cq)
            .unwrap();
        let us = transport_pingpong_us(&mut w, ea, eb, ba.iov(n), bb.iov(n), 5);
        s.push(n, us);
    }
    out.push(s);

    // MX kernel, as measured for §5.1's "kernel = user" claim: before the
    // send-copy removal.
    let mut s = Series::new("MX Kernel");
    let cfg = MxEndpointConfig::kernel().with_opts(MxOpts::SEND_COPY);
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let ea = w.open_mx_cq(n0, cfg, cq).unwrap();
        let eb = w.open_mx_cq(n1, cfg, cq).unwrap();
        let ka = kbuf(&mut w, n0, 4096.max(n));
        let kb = kbuf(&mut w, n1, 4096.max(n));
        let us = transport_pingpong_us(&mut w, ea, eb, ka.iov(n), kb.iov(n), 5);
        s.push(n, us);
    }
    out.push(s);

    Figure {
        id: "fig5a",
        title: "MX vs GM small-message latency",
        x_label: "message size (bytes)",
        y_label: "latency (us)",
        series: out,
    }
}

/// Figure 5b: GM / MX-user / MX-kernel-physical bandwidth, 1 B–1 MB.
pub fn fig5b() -> Figure {
    let sizes = pow2_sizes(1, 1 << 20);
    let mut out: Vec<Series> = Vec::new();

    let mut s = Series::new("GM");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let (ea, eb, ba, bb) = gm_user_registered(&mut w, n0, n1, (1 << 20).max(n));
        let us = transport_pingpong_us(
            &mut w,
            ea,
            eb,
            knet_core::IoVec::single(ba.memref(n)),
            knet_core::IoVec::single(bb.memref(n)),
            3,
        );
        s.push(n, n as f64 / us);
    }
    out.push(s);

    let mut s = Series::new("MX User");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let ba = ubuf(&mut w, n0, (1 << 20).max(n));
        let bb = ubuf(&mut w, n1, (1 << 20).max(n));
        let ea = w
            .open_mx_cq(n0, MxEndpointConfig::user(ba.asid), cq)
            .unwrap();
        let eb = w
            .open_mx_cq(n1, MxEndpointConfig::user(bb.asid), cq)
            .unwrap();
        let us = transport_pingpong_us(&mut w, ea, eb, ba.iov(n), bb.iov(n), 3);
        s.push(n, n as f64 / us);
    }
    out.push(s);

    // Before the send-copy removal, like fig. 5a's kernel curve.
    let mut s = Series::new("MX Kernel Physical");
    let cfg = MxEndpointConfig::kernel().with_opts(MxOpts::SEND_COPY);
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let ea = w.open_mx_cq(n0, cfg, cq).unwrap();
        let eb = w.open_mx_cq(n1, cfg, cq).unwrap();
        let ka = kbuf(&mut w, n0, (1 << 20).max(n));
        let kb = kbuf(&mut w, n1, (1 << 20).max(n));
        let pa = MemRef::physical(ka.addr.kernel_to_phys().unwrap(), n);
        let pb = MemRef::physical(kb.addr.kernel_to_phys().unwrap(), n);
        let us = transport_pingpong_us(
            &mut w,
            ea,
            eb,
            knet_core::IoVec::single(pa),
            knet_core::IoVec::single(pb),
            3,
        );
        s.push(n, n as f64 / us);
    }
    out.push(s);

    Figure {
        id: "fig5b",
        title: "MX vs GM bandwidth",
        x_label: "message size (bytes)",
        y_label: "bandwidth (MB/s)",
        series: out,
    }
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: medium-message copy removal, 1 kB–256 kB.
pub fn fig6() -> Figure {
    let sizes = pow2_sizes(1024, 256 * 1024);
    let mut out: Vec<Series> = Vec::new();

    let mut user = Series::new("MX User");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let ba = ubuf(&mut w, n0, n);
        let bb = ubuf(&mut w, n1, n);
        let ea = w
            .open_mx_cq(n0, MxEndpointConfig::user(ba.asid), cq)
            .unwrap();
        let eb = w
            .open_mx_cq(n1, MxEndpointConfig::user(bb.asid), cq)
            .unwrap();
        let us = transport_pingpong_us(&mut w, ea, eb, ba.iov(n), bb.iov(n), 3);
        user.push(n, n as f64 / us);
    }
    out.push(user);

    for (name, opts) in [
        ("MX Kernel", MxOpts::SEND_COPY),
        ("MX Kernel No-send-copy", MxOpts::default()),
        (
            "MX Kernel No-copy (predicted)",
            MxOpts {
                no_recv_copy: true,
                ..MxOpts::default()
            },
        ),
    ] {
        let mut s = Series::new(name);
        for &n in &sizes {
            let (mut w, n0, n1) = two_nodes();
            let cq = w.new_cq();
            let cfg = MxEndpointConfig::kernel().with_opts(opts);
            let ea = w.open_mx_cq(n0, cfg, cq).unwrap();
            let eb = w.open_mx_cq(n1, cfg, cq).unwrap();
            let ka = kbuf(&mut w, n0, n);
            let kb = kbuf(&mut w, n1, n);
            let us = transport_pingpong_us(&mut w, ea, eb, ka.iov(n), kb.iov(n), 3);
            s.push(n, n as f64 / us);
        }
        out.push(s);
    }

    Figure {
        id: "fig6",
        title: "Impact of removing the medium-message copies",
        x_label: "message size (bytes)",
        y_label: "bandwidth (MB/s)",
        series: out,
    }
}

// ---------------------------------------------------------------- Figure 4a

/// Figure 4a: in-kernel GM latency, registered-virtual vs physical, 16 B–4 kB.
pub fn fig4a() -> Figure {
    let sizes = pow2_sizes(16, 4096);
    let mut out = Vec::new();
    for (name, physical) in [("Memory Registration", false), ("Physical Address", true)] {
        let mut s = Series::new(name);
        for &n in &sizes {
            let (mut w, n0, n1) = two_nodes();
            let (ea, eb, ra, rb) = gm_kernel_pair(&mut w, n0, n1, 4096.max(n), physical);
            let us = transport_pingpong_us(
                &mut w,
                ea,
                eb,
                knet_core::IoVec::single(clamp(&ra, n)),
                knet_core::IoVec::single(clamp(&rb, n)),
                5,
            );
            s.push(n, us);
        }
        out.push(s);
    }
    Figure {
        id: "fig4a",
        title: "Kernel communication latency: registered vs physical addressing",
        x_label: "message size (bytes)",
        y_label: "latency (us)",
        series: out,
    }
}

// ----------------------------------------------------------- ORFS fixtures

/// An ORFS/ORFA deployment over the chosen transport.
pub struct FsFixture {
    pub w: ClusterWorld,
    pub cid: OrfsClientId,
    pub user: harness::UBuf,
    pub client_node: NodeId,
}

/// Options for [`fs_fixture`].
#[derive(Clone, Copy)]
pub struct FsOpts {
    pub kind: TransportKind,
    pub client: ClientKind,
    /// Registration-cache capacity in pages for GM ports (`None` = no cache).
    pub regcache_pages: Option<usize>,
    pub combine_pages: bool,
    pub file_len: u64,
}

impl Default for FsOpts {
    fn default() -> Self {
        FsOpts {
            kind: TransportKind::Mx,
            client: ClientKind::KernelVfs,
            regcache_pages: Some(4096),
            combine_pages: false,
            file_len: 8 << 20,
        }
    }
}

/// [`fs_fixture`] over a faulty fabric — the lossy-link scenario knob: the
/// same deployment, with a seeded `FaultPlan` installed before any traffic
/// flows (including per-link asymmetric overrides built with
/// `FaultPlan::for_link`). The drivers' reliability windows absorb the
/// injected faults, so every figure and test driven off the fixture must
/// produce identical bytes (the chaos suite asserts exactly that).
pub fn fs_fixture_faulty(opts: FsOpts, plan: knet_simnic::FaultPlan) -> FsFixture {
    let mut fx = fs_fixture(opts);
    fx.w.set_fault_plan(plan);
    fx
}

/// Build a server (node 1) + client (node 0) world with `/data` populated.
pub fn fs_fixture(opts: FsOpts) -> FsFixture {
    let mut w = ClusterBuilder::new().mem_frames(131_072).build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let user = ubuf(&mut w, n0, 4 << 20);

    let (client_ep, server_ep) = match opts.kind {
        TransportKind::Mx => {
            let c = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
            let s = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
            (c, s)
        }
        TransportKind::Gm => {
            // In-kernel ORFS sleeps between completions: GM's notification
            // thread is on its critical path (§5.2). The user-space ORFA
            // library busy-polls its own port instead.
            let mut ccfg = match opts.client {
                ClientKind::KernelVfs => GmPortConfig::kernel()
                    .with_physical_api()
                    .with_blocking_notify(),
                ClientKind::UserLib => GmPortConfig::user(user.asid),
            };
            if let Some(pages) = opts.regcache_pages {
                ccfg = ccfg.with_regcache(pages);
            }
            let scfg = GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(4096)
                .with_blocking_notify();
            let c = w.open_gm(n0, ccfg).unwrap();
            let s = w.open_gm(n1, scfg).unwrap();
            (c, s)
        }
    };
    let server = server_create(&mut w, server_ep, SimFs::with_defaults()).unwrap();
    let cid = client_create(
        &mut w,
        client_ep,
        server_ep,
        opts.client,
        user.asid,
        VfsConfig {
            combine_pages: opts.combine_pages,
            max_combine: 16,
        },
    )
    .unwrap();
    make_server_file(&mut w, server, "/data", opts.file_len);
    FsFixture {
        w,
        cid,
        user,
        client_node: n0,
    }
}

/// Sequential-read throughput series over record sizes, one fresh fixture
/// per point (cold page-cache, warm dentries after open).
fn fs_read_series(
    name: &str,
    sizes: &[u64],
    opts: FsOpts,
    direct: bool,
    rotate_pool: bool,
) -> Series {
    let mut s = Series::new(name);
    for &record in sizes {
        let total = (record * 32).clamp(64 * 1024, 4 << 20);
        let mut fx = fs_fixture(FsOpts {
            file_len: total + record,
            ..opts
        });
        let fd = harness::fsops::open(&mut fx.w, fx.cid, "/data", direct).expect("open");
        let user = fx.user;
        let pool_len = user.len;
        let mb = seq_read_mb(&mut fx.w, fx.cid, fd, record, total, move |_w, i| {
            if rotate_pool {
                // Rotate across a pool far larger than the registration
                // cache: every access misses (the paper's no-cache curve).
                let off = (i * record) % (pool_len - record).max(1);
                user.memref_at(off & !(PAGE_SIZE - 1), record)
            } else {
                user.memref(record)
            }
        });
        s.push(record, mb);
    }
    s
}

// ---------------------------------------------------------------- Figure 3b

/// Figure 3b: direct access with/without registration cache on GM.
pub fn fig3b() -> Figure {
    let sizes = pow2_sizes(1024, 512 * 1024);
    let mut out = Vec::new();

    // Raw GM reference (user-space, registered, 100 % reuse).
    let mut raw = Series::new("GM Raw");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let (ea, eb, ba, bb) = gm_user_registered(&mut w, n0, n1, (512 * 1024).max(n));
        let us = transport_pingpong_us(
            &mut w,
            ea,
            eb,
            knet_core::IoVec::single(ba.memref(n)),
            knet_core::IoVec::single(bb.memref(n)),
            3,
        );
        raw.push(n, n as f64 / us);
    }
    out.push(raw);

    let gm = |client, cache| FsOpts {
        kind: TransportKind::Gm,
        client,
        regcache_pages: cache,
        combine_pages: false,
        file_len: 8 << 20,
    };
    out.push(fs_read_series(
        "ORFA with Registration Cache",
        &sizes,
        gm(ClientKind::UserLib, Some(4096)),
        true,
        false,
    ));
    out.push(fs_read_series(
        "ORFS with Registration Cache",
        &sizes,
        gm(ClientKind::KernelVfs, Some(4096)),
        true,
        false,
    ));
    // 0 % hits: small cache, rotating pool.
    out.push(fs_read_series(
        "ORFS without Reg. Cache",
        &sizes,
        gm(ClientKind::KernelVfs, Some(128)),
        true,
        true,
    ));

    Figure {
        id: "fig3b",
        title: "ORFS direct access and the registration cache",
        x_label: "record size (bytes)",
        y_label: "throughput (MB/s)",
        series: out,
    }
}

// ---------------------------------------------------------------- Figure 4b

/// Figure 4b: ORFS/GM direct vs buffered access.
pub fn fig4b() -> Figure {
    let sizes = pow2_sizes(64, 1 << 20);
    let gm_opts = FsOpts {
        kind: TransportKind::Gm,
        client: ClientKind::KernelVfs,
        regcache_pages: Some(4096),
        combine_pages: false,
        file_len: 8 << 20,
    };
    let direct = fs_read_series("ORFS/GM Direct Access", &sizes, gm_opts, true, false);
    let buffered = fs_read_series("ORFS/GM Buffered Access", &sizes, gm_opts, false, false);
    Figure {
        id: "fig4b",
        title: "Direct vs buffered remote file access on GM",
        x_label: "record size (bytes)",
        y_label: "throughput (MB/s)",
        series: vec![direct, buffered],
    }
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7a/b: ORFS over GM vs MX, direct (`true`) or buffered (`false`).
pub fn fig7(direct: bool) -> Figure {
    let sizes = pow2_sizes(1024, 1 << 20);
    let gm_opts = FsOpts {
        kind: TransportKind::Gm,
        client: ClientKind::KernelVfs,
        regcache_pages: Some(4096),
        combine_pages: false,
        file_len: 8 << 20,
    };
    let mx_opts = FsOpts {
        kind: TransportKind::Mx,
        ..gm_opts
    };
    let mode = if direct { "Direct" } else { "Buffered" };
    let series = vec![
        fs_read_series(&format!("ORFS/GM {mode}"), &sizes, gm_opts, direct, false),
        fs_read_series(&format!("ORFS/MX {mode}"), &sizes, mx_opts, direct, false),
    ];
    Figure {
        id: if direct { "fig7a" } else { "fig7b" },
        title: if direct {
            "Direct file access: GM vs MX"
        } else {
            "Buffered file access: GM vs MX"
        },
        x_label: "record size (bytes)",
        y_label: "throughput (MB/s)",
        series,
    }
}

// ---------------------------------------------------------------- Figure 8

/// Build a SOCKETS-GM or SOCKETS-MX pair on the PCI-XE world.
fn sock_fixture(
    kind: TransportKind,
) -> (
    ClusterWorld,
    knet_zsock::SockId,
    knet_zsock::SockId,
    harness::UBuf,
    harness::UBuf,
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

/// Figure 8a: SOCKETS-GM vs SOCKETS-MX latency (1 B–4 kB, PCI-XE).
pub fn fig8a() -> Figure {
    let sizes = pow2_sizes(1, 4096);
    let mut out = Vec::new();
    for (name, kind) in [
        ("Sockets-GM", TransportKind::Gm),
        ("Sockets-MX", TransportKind::Mx),
    ] {
        let mut s = Series::new(name);
        for &n in &sizes {
            let (mut w, sa, sb, ba, bb) = sock_fixture(kind);
            let us = sock_pingpong_us(&mut w, sa, sb, ba.memref(n), bb.memref(n), 5);
            s.push(n, us);
        }
        out.push(s);
    }
    Figure {
        id: "fig8a",
        title: "Zero-copy socket latency (PCI-XE)",
        x_label: "message size (bytes)",
        y_label: "latency (us)",
        series: out,
    }
}

/// Figure 8b: SOCKETS-GM vs SOCKETS-MX bandwidth (1 B–1 MB, PCI-XE).
pub fn fig8b() -> Figure {
    let sizes = pow2_sizes(1, 1 << 20);
    let mut out = Vec::new();
    for (name, kind) in [
        ("Sockets-GM", TransportKind::Gm),
        ("Sockets-MX", TransportKind::Mx),
    ] {
        let mut s = Series::new(name);
        for &n in &sizes {
            let (mut w, sa, sb, ba, bb) = sock_fixture(kind);
            let us = sock_pingpong_us(&mut w, sa, sb, ba.memref(n), bb.memref(n), 3);
            s.push(n, n as f64 / us);
        }
        out.push(s);
    }
    Figure {
        id: "fig8b",
        title: "Zero-copy socket bandwidth (PCI-XE)",
        x_label: "message size (bytes)",
        y_label: "bandwidth (MB/s)",
        series: out,
    }
}

/// Extension: the TCP/IP-over-GigE baseline the paper name-drops ("A common
/// GIGA-ETHERNET network might get much more \[latency\]").
pub fn tcp_baseline() -> Figure {
    let sizes = pow2_sizes(1, 1 << 20);
    let mut lat = Series::new("TCP/IP GigE latency (us)");
    let mut bw = Series::new("TCP/IP GigE bandwidth (MB/s)");
    for &n in &sizes {
        let (mut w, n0, n1) = two_nodes();
        let ba = ubuf(&mut w, n0, (1 << 20).max(n));
        let bb = ubuf(&mut w, n1, (1 << 20).max(n));
        let (ta, tb) = tcp_pair(&mut w, n0, n1);
        let us = tcp_pingpong_us(&mut w, ta, tb, ba.memref(n), bb.memref(n), 3);
        lat.push(n, us);
        bw.push(n, n as f64 / us);
    }
    Figure {
        id: "tcp",
        title: "TCP/IP over Gigabit Ethernet (baseline)",
        x_label: "message size (bytes)",
        y_label: "latency (us) / bandwidth (MB/s)",
        series: vec![lat, bw],
    }
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1.
pub struct Table1Row {
    pub metric: &'static str,
    pub gm: String,
    pub mx: String,
}

/// Table 1: the summary comparison.
pub fn table1() -> Vec<Table1Row> {
    let f5a = fig5a();
    let gm_k = f5a.series[1].exact(1).unwrap_or(f64::NAN);
    let gm_u = f5a.series[0].exact(1).unwrap_or(f64::NAN);
    let mx_k = f5a.series[3].exact(1).unwrap_or(f64::NAN);
    let mx_u = f5a.series[2].exact(1).unwrap_or(f64::NAN);

    let f7b = fig7(false);
    let buf_gm = f7b.series[0].exact(65536).unwrap_or(f64::NAN);
    let buf_mx = f7b.series[1].exact(65536).unwrap_or(f64::NAN);

    let f7a = fig7(true);
    let dir_gm = f7a.series[0].exact(1 << 20).unwrap_or(f64::NAN);
    let dir_mx = f7a.series[1].exact(1 << 20).unwrap_or(f64::NAN);

    let f8a = fig8a();
    let sg_lat = f8a.series[0].exact(1).unwrap_or(f64::NAN);
    let sm_lat = f8a.series[1].exact(1).unwrap_or(f64::NAN);

    let f8b = fig8b();
    let sg_bw = f8b.series[0].peak();
    let sm_bw = f8b.series[1].peak();

    vec![
        Table1Row {
            metric: "Kernel latency (1B, one-way)",
            gm: format!("{gm_k:.1} us ({gm_u:.1} in user space)"),
            mx: format!("{mx_k:.1} us ({mx_u:.1} in user space)"),
        },
        Table1Row {
            metric: "Buffered remote file access (64kB records)",
            gm: format!("{buf_gm:.0} MB/s (needs physical API patch)"),
            mx: format!(
                "{buf_mx:.0} MB/s (+{:.0} %)",
                (buf_mx / buf_gm - 1.0) * 100.0
            ),
        },
        Table1Row {
            metric: "Direct remote file access (1MB records)",
            gm: format!("{dir_gm:.0} MB/s (needs kernel patching)"),
            mx: format!("{dir_mx:.0} MB/s"),
        },
        Table1Row {
            metric: "0-copy socket latency (1B)",
            gm: format!("{sg_lat:.1} us"),
            mx: format!("{sm_lat:.1} us"),
        },
        Table1Row {
            metric: "0-copy socket peak bandwidth",
            gm: format!("{sg_bw:.0} MB/s ({:.0} % of link)", sg_bw / 5.0),
            mx: format!("{sm_bw:.0} MB/s (+{:.0} %)", (sm_bw / sg_bw - 1.0) * 100.0),
        },
    ]
}

// --------------------------------------------------------------- collectives

/// A cluster with one kernel endpoint per node, all joined into a single
/// collective group — the deployment every collective test and chaos
/// scenario drives.
pub struct CollFixture {
    pub w: ClusterWorld,
    pub group: knet_coll::GroupId,
    /// Member endpoints, root first (member `i` lives on node `i`).
    pub eps: Vec<knet_core::Endpoint>,
    /// One 64 KiB kernel buffer per node (payload staging for broadcasts).
    pub bufs: Vec<harness::KBuf>,
}

/// Build an `n`-node cluster (GM or MX kernel endpoints, one per node,
/// each bound to its own completion queue) and wire all of them into one
/// collective group with fan-out `fanout`, rooted at node 0.
pub fn coll_fixture(kind: TransportKind, n: usize, fanout: usize) -> CollFixture {
    let frames = 32_768.max(n as u32 * 512);
    let mut w = ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(frames)
        .build();
    let mut eps = Vec::with_capacity(n);
    let mut bufs = Vec::with_capacity(n);
    for i in 0..n {
        let node = NodeId(i as u32);
        let cq = w.new_cq();
        let ep = match kind {
            TransportKind::Gm => w
                .open_gm_cq(node, GmPortConfig::kernel().with_physical_api(), cq)
                .unwrap(),
            TransportKind::Mx => w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap(),
        };
        eps.push(ep);
        bufs.push(kbuf(&mut w, node, 64 << 10));
    }
    let group = knet_coll::group_create(&mut w, eps[0], fanout).unwrap();
    for &ep in &eps[1..] {
        knet_coll::group_join(&mut w, group, ep).unwrap();
    }
    CollFixture {
        w,
        group,
        eps,
        bufs,
    }
}
