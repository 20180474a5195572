//! Golden equivalence table of the two drivers' data path.
//!
//! Every case drives three messages of one size between two nodes at the
//! driver seam (`t_send` / `t_post_recv`, no channel above it) and folds
//! what both endpoints observed — event kind, context, tag, length, the
//! virtual instant the completion was dispatched, a hash of the bytes that
//! landed — into one 64-bit value. The table below was recorded before the
//! drivers' segmentation / matching / reassembly code was merged into
//! `knet_core::driver`; a refactor of that code may not edit it. A changed
//! value means a byte, a tag match or a virtual-time charge moved.
//!
//! A second table folds the same observations without the virtual
//! instants (the per-event instant and the final quiescence instant), so a
//! change that moves only time — a loss repaired sooner — shows as a moved
//! timed entry beside an unmoved instant-free one. The timed table's lossy
//! entries were re-recorded where the tail-loss probe repairs a lone loss
//! sooner; the instant-free table was recorded on the tree just before it.
//!
//! Axes: message size × driver configuration × {receives posted first,
//! message arrives unexpected and the receives are posted late} × {clean
//! fabric, seeded 5 % drop + duplicate + delay-reorder}.

use std::sync::{Arc, Mutex};

use knet::build::ClusterBuilder;
use knet::harness::{kbuf, ubuf};
use knet::world::ClusterWorld;
use knet_core::{
    api, read_iovec, Endpoint, IoVec, MemRef, TransportEvent, TransportKind, TransportWorld,
};
use knet_gm::{gm_register, GmPortConfig, GmPortId};
use knet_mx::{mx_open_endpoint, MxEndpointConfig, MxOpts};
use knet_simcore::{now, run_to_quiescence, SimTime};
use knet_simnic::FaultPlan;
use knet_simos::{Asid, CpuModel, NodeId, VirtAddr, PAGE_SIZE};

const SIZES: [u64; 10] = [0, 1, 127, 128, 4095, 4096, 4097, 32768, 32769, 131072];
const MESSAGES: u64 = 3;
const ANY_TAG: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
enum Cfg {
    /// User port, buffers registered explicitly with `gm_register`.
    GmUserRegistered,
    /// Kernel port with GMKRC serving user buffers (the ORFS shape).
    GmKernelRegcache,
    /// Kernel port with the physical-address patch on kernel buffers.
    GmPhysical,
    MxUser {
        no_recv_copy: bool,
    },
    MxKernel {
        no_recv_copy: bool,
    },
    /// Kernel endpoint without unexpected delivery: unmatched eager
    /// messages queue for a later `mx_irecv` (MPI style).
    MxKernelMpi,
}

const CONFIGS: [Cfg; 8] = [
    Cfg::GmUserRegistered,
    Cfg::GmKernelRegcache,
    Cfg::GmPhysical,
    Cfg::MxUser {
        no_recv_copy: false,
    },
    Cfg::MxUser { no_recv_copy: true },
    Cfg::MxKernel {
        no_recv_copy: false,
    },
    Cfg::MxKernel { no_recv_copy: true },
    Cfg::MxKernelMpi,
];

/// One hash per size, for each (configuration, posted?, lossy?) in the
/// order `golden_rows` walks them. Recorded on the parent of the PR that
/// introduced `knet_core::driver`'s message engine; the `MxKernelMpi` rows
/// (default `MxOpts`) re-recorded when the send-copy removal became MX's
/// default, which moved their medium-send `SendDone` instants.
const GOLDEN: [[u64; SIZES.len()]; CONFIGS.len() * 4] = include!("driver_datapath_golden.in");

/// The same cases folded without the virtual instants: events, bytes,
/// tags, lengths and results only.
const GOLDEN_UNTIMED: [[u64; SIZES.len()]; CONFIGS.len() * 4] =
    include!("driver_datapath_golden_untimed.in");

#[derive(Clone, Copy)]
struct Region {
    /// `None`: kernel virtual memory.
    asid: Option<Asid>,
    addr: VirtAddr,
}

impl Region {
    fn memref(&self, offset: u64, len: u64) -> MemRef {
        match self.asid {
            Some(asid) => MemRef::user(asid, self.addr.add(offset), len),
            None => MemRef::kernel(self.addr.add(offset), len),
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_bytes(h: &mut u64, data: &[u8]) {
    for &b in data {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv(h: &mut u64, word: u64) {
    fnv_bytes(h, &word.to_le_bytes());
}

fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, data);
    h
}

fn region(w: &mut ClusterWorld, node: NodeId, len: u64, user: bool) -> Region {
    if user {
        let u = ubuf(w, node, len);
        Region {
            asid: Some(u.asid),
            addr: u.addr,
        }
    } else {
        Region {
            asid: None,
            addr: kbuf(w, node, len).addr,
        }
    }
}

fn open(w: &mut ClusterWorld, cfg: Cfg, node: NodeId, buf: Region, len: u64) -> Endpoint {
    let mx = |no_recv_copy| MxOpts {
        no_recv_copy,
        ..MxOpts::SEND_COPY
    };
    match cfg {
        Cfg::GmUserRegistered => {
            let asid = buf.asid.expect("user buffer");
            let ep = w.open_gm(node, GmPortConfig::user(asid)).unwrap();
            gm_register(w, GmPortId(ep.idx), asid, buf.addr, len).unwrap();
            ep
        }
        Cfg::GmKernelRegcache => w
            .open_gm(node, GmPortConfig::kernel().with_regcache(4096))
            .unwrap(),
        Cfg::GmPhysical => w
            .open_gm(node, GmPortConfig::kernel().with_physical_api())
            .unwrap(),
        Cfg::MxUser { no_recv_copy } => {
            let asid = buf.asid.expect("user buffer");
            w.open_mx(
                node,
                MxEndpointConfig::user(asid).with_opts(mx(no_recv_copy)),
            )
            .unwrap()
        }
        Cfg::MxKernel { no_recv_copy } => w
            .open_mx(node, MxEndpointConfig::kernel().with_opts(mx(no_recv_copy)))
            .unwrap(),
        Cfg::MxKernelMpi => {
            let id = mx_open_endpoint(w, node, MxEndpointConfig::kernel()).unwrap();
            Endpoint {
                kind: TransportKind::Mx,
                node,
                idx: id.0,
            }
        }
    }
}

/// What a case observed: the folded hash, and enough plain counts for
/// `golden_cases_are_not_degenerate` to check the cases reach their code.
#[derive(Default)]
struct Seen {
    hash: u64,
    /// The fold without the virtual instants.
    untimed: u64,
    recv_done: u32,
    unexpected: u32,
    /// Payload hashes of everything that landed, in arrival order.
    landed: Vec<u64>,
}

impl Seen {
    /// Fold a word into both hashes.
    fn fold(&mut self, word: u64) {
        fnv(&mut self.hash, word);
        fnv(&mut self.untimed, word);
    }

    /// Fold a virtual instant into the timed hash only.
    fn fold_instant(&mut self, at: SimTime) {
        fnv(&mut self.hash, at.nanos());
    }
}

/// Bind `ep` to a recorder folding every event it sees into `acc`.
fn record(
    w: &mut ClusterWorld,
    ep: Endpoint,
    acc: &Arc<Mutex<Seen>>,
    recv_buf: Region,
    stride: u64,
) {
    let acc = acc.clone();
    let cid = w.registry.register("golden", move |w, at, ev| {
        let mut seen = acc.lock().unwrap();
        let seen = &mut *seen;
        seen.fold(at.idx as u64 | (at.node.0 as u64) << 32);
        seen.fold_instant(now(w));
        match ev {
            TransportEvent::SendDone { ctx } => {
                seen.fold(1);
                seen.fold(ctx);
            }
            TransportEvent::RecvDone {
                ctx,
                tag,
                len,
                from,
            } => {
                let iov = IoVec::single(recv_buf.memref((ctx - 100) * stride, len));
                let landed = hash_bytes(&read_iovec(w.os.node(at.node), &iov).unwrap());
                for word in [2, ctx, tag, len, from.idx as u64, landed] {
                    seen.fold(word);
                }
                seen.recv_done += 1;
                seen.landed.push(landed);
            }
            TransportEvent::Unexpected { tag, data, from } => {
                let landed = hash_bytes(&data);
                for word in [3, tag, data.len() as u64, from.idx as u64, landed] {
                    seen.fold(word);
                }
                seen.unexpected += 1;
                seen.landed.push(landed);
            }
            TransportEvent::SendFailed { ctx, error } => {
                seen.fold(4);
                seen.fold(ctx);
                seen.fold(hash_bytes(format!("{error:?}").as_bytes()));
            }
            other => {
                seen.fold(5);
                seen.fold(hash_bytes(format!("{other:?}").as_bytes()));
            }
        }
    });
    api::bind(w, ep, cid);
}

fn run_case(case: u64, cfg: Cfg, size: u64, posted: bool, lossy: bool) -> Seen {
    let mut b = ClusterBuilder::new().nodes(2, CpuModel::xeon_2600());
    if lossy {
        b = b.fault_plan(
            FaultPlan::new(0x5EED_0000 + case)
                .with_drop(0.05)
                .with_dup(0.05)
                .with_delay(0.05, SimTime::from_micros(2), SimTime::from_micros(80)),
        );
    }
    let mut w = b.build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let stride = size.max(1).next_multiple_of(PAGE_SIZE);
    let len = stride * MESSAGES;
    let user = matches!(
        cfg,
        Cfg::GmUserRegistered | Cfg::GmKernelRegcache | Cfg::MxUser { .. }
    );
    let src = region(&mut w, n0, len, user);
    let dst = region(&mut w, n1, len, user);
    let a = open(&mut w, cfg, n0, src, len);
    let b = open(&mut w, cfg, n1, dst, len);

    let acc = Arc::new(Mutex::new(Seen {
        hash: FNV_OFFSET,
        untimed: FNV_OFFSET,
        ..Seen::default()
    }));
    record(&mut w, a, &acc, src, stride);
    record(&mut w, b, &acc, dst, stride);
    let fold = |word: u64| acc.lock().unwrap().fold(word);
    let fold_result = |r: Result<(), knet_core::NetError>| match r {
        Ok(()) => fold(0),
        Err(e) => fold(hash_bytes(format!("{e:?}").as_bytes())),
    };

    for i in 0..MESSAGES {
        let bytes = payload(i, size);
        let at = src.addr.add(i * stride);
        match src.asid {
            Some(asid) => w.os.node_mut(n0).write_virt(asid, at, &bytes).unwrap(),
            None => {
                w.os.node_mut(n0)
                    .write_virt(Asid::KERNEL, at, &bytes)
                    .unwrap()
            }
        }
    }

    // The middle receive is a wildcard, so first-fit order matters.
    let tags = [10, ANY_TAG, 12];
    let post_all = |w: &mut ClusterWorld| {
        for (i, &tag) in tags.iter().enumerate() {
            let iov = IoVec::single(dst.memref(i as u64 * stride, size.max(1)));
            fold_result(w.t_post_recv(b, tag, iov, 100 + i as u64));
        }
    };
    if posted {
        post_all(&mut w);
    }
    for i in 0..MESSAGES {
        let iov = IoVec::single(src.memref(i * stride, size));
        fold_result(w.t_send(a, b, 10 + i, iov, i));
    }
    run_to_quiescence(&mut w);
    if !posted {
        // The receives arrive late: MX matches queued rendezvous (and, MPI
        // style, queued eager messages) against them; GM's stay armed.
        post_all(&mut w);
        run_to_quiescence(&mut w);
    }
    for &tag in &tags {
        fold(w.t_cancel_recv(b, tag) as u64);
    }
    run_to_quiescence(&mut w);
    acc.lock().unwrap().fold_instant(now(&w));
    drop(w); // the recorders hold the other references
    Arc::into_inner(acc).unwrap().into_inner().unwrap()
}

/// Distinct, size-dependent payload of message `i`.
fn payload(i: u64, size: u64) -> Vec<u8> {
    (0..size)
        .map(|o| (o.wrapping_mul(31) ^ (o >> 8) ^ (i * 101 + size)) as u8)
        .collect()
}

fn golden_rows() -> Vec<(Cfg, bool, bool)> {
    let mut rows = Vec::new();
    for cfg in CONFIGS {
        for posted in [true, false] {
            for lossy in [false, true] {
                rows.push((cfg, posted, lossy));
            }
        }
    }
    rows
}

/// Run every case and compare the hash `pick` takes from it against
/// `golden`, panicking with the moved cases and the full observed table.
fn check_table(golden: &[[u64; SIZES.len()]], pick: fn(&Seen) -> u64) {
    let rows = golden_rows();
    let mut actual = Vec::new();
    for (r, &(cfg, posted, lossy)) in rows.iter().enumerate() {
        let mut row = [0u64; SIZES.len()];
        for (s, &size) in SIZES.iter().enumerate() {
            row[s] = pick(&run_case(
                (r * SIZES.len() + s) as u64,
                cfg,
                size,
                posted,
                lossy,
            ));
        }
        actual.push(row);
    }
    let mut wrong = Vec::new();
    for (r, row) in actual.iter().enumerate() {
        for (s, &h) in row.iter().enumerate() {
            if h != golden[r][s] {
                let (cfg, posted, lossy) = rows[r];
                wrong.push(format!(
                    "{cfg:?} posted={posted} lossy={lossy} size={}: {h:#018x} != {:#018x}",
                    SIZES[s], golden[r][s]
                ));
            }
        }
    }
    if !wrong.is_empty() {
        let mut table = String::from("[\n");
        for row in &actual {
            table.push_str("    [");
            for h in row {
                table.push_str(&format!("{h:#018x}, "));
            }
            table.push_str("],\n");
        }
        table.push(']');
        panic!(
            "{} of {} cases moved:\n{}\nfull table as observed:\n{table}",
            wrong.len(),
            rows.len() * SIZES.len(),
            wrong.join("\n")
        );
    }
}

#[test]
fn driver_data_path_matches_the_recorded_table() {
    check_table(&GOLDEN, |seen| seen.hash);
}

#[test]
fn driver_data_path_matches_the_recorded_instant_free_table() {
    check_table(&GOLDEN_UNTIMED, |seen| seen.untimed);
}

/// The cases must actually reach the code they pin: on every configuration
/// the messages land intact — in a posted buffer, or unexpected and then
/// through the late receive where the driver supports that; the same seed
/// repeats and another one does not.
#[test]
fn golden_cases_are_not_degenerate() {
    let mut sent: Vec<u64> = (0..MESSAGES)
        .map(|i| hash_bytes(&payload(i, 131072)))
        .collect();
    sent.sort_unstable();
    for (r, (cfg, posted, lossy)) in golden_rows().into_iter().enumerate() {
        let mut seen = run_case(r as u64, cfg, 131072, posted, lossy);
        let what = format!("{cfg:?} posted={posted} lossy={lossy}");
        let is_gm = matches!(
            cfg,
            Cfg::GmUserRegistered | Cfg::GmKernelRegcache | Cfg::GmPhysical
        );
        seen.landed.sort_unstable();
        if lossy {
            // Reordering can hand the wildcard buffer to the third message;
            // the second then bounces (GM) or waits for a receive that
            // never comes (an MX rendezvous). What lands is still intact.
            assert!(seen.landed.len() >= 2, "{what}");
            assert!(seen.landed.iter().all(|h| sent.contains(h)), "{what}");
        } else {
            let unexpected = if posted || !is_gm { 0 } else { 3 };
            assert_eq!(seen.unexpected, unexpected, "{what}");
            assert_eq!(seen.landed, sent, "{what}: bytes intact");
        }
    }
    let a = run_case(7, Cfg::GmPhysical, 32769, true, true).hash;
    assert_eq!(a, run_case(7, Cfg::GmPhysical, 32769, true, true).hash);
    assert_ne!(a, run_case(8, Cfg::GmPhysical, 32769, true, true).hash);
}
