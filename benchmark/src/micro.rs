//! Micro-drives (source M): each drives one layer's public functions
//! alone, outside any workload, for a tenth of a second or so of host time.
//! The host-clock ones put a floor under a layer's share of a workload's
//! cost; the virtual-clock ones pin the cost model of the three layers no
//! workload reaches (collectives, sockets, block device), so it cannot
//! drift unseen. None depends on the seed.

use std::hint::black_box;
use std::time::Instant;

use crate::host;
use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;

/// Median of `runs` timings of `f`, in ns per `per` units of work.
fn ns_per(runs: usize, per: u64, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    host::median(&mut ns)
}

/// The bare scheduler: 1000 nodes, each running a chain of typed no-op
/// events one microsecond apart — heap, arena and clock, nothing else.
fn sched_floor() -> f64 {
    struct Bare {
        sched: Scheduler<Bare>,
        left: u64,
    }
    struct Tick(u32);
    impl SimEvent<Bare> for Tick {
        fn from_call(_f: Box<dyn FnOnce(&mut Bare) + Send>) -> Self {
            unreachable!("the bare world schedules typed events only")
        }
        fn run(self, w: &mut Bare) {
            if w.left > 0 {
                w.left -= 1;
                let at = now(w) + SimTime::from_micros(1);
                emit_at(w, self.0, at, Tick(self.0));
            }
        }
    }
    impl SimWorld for Bare {
        type Ev = Tick;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    const EVENTS: u64 = 500_000;
    ns_per(3, EVENTS, || {
        let mut w = Bare {
            sched: Scheduler::new(),
            left: EVENTS - 1000,
        };
        for node in 0..1000 {
            emit_at(
                &mut w,
                node,
                SimTime::from_nanos(u64::from(node)),
                Tick(node),
            );
        }
        assert_eq!(run_to_quiescence(&mut w), EVENTS);
    })
}

fn physmem_new_us_per_kframe() -> f64 {
    const FRAMES: u32 = 65_536;
    ns_per(3, u64::from(FRAMES) / 1000, || {
        black_box(PhysMem::new(black_box(FRAMES)));
    }) / 1e3
}

fn ttable_ns_per_lookup() -> f64 {
    const PAGES: u64 = 4096;
    let mut t = TransTable::new(2 * PAGES as usize);
    for vpn in 0..PAGES {
        t.insert(TransKey { asid: Asid(1), vpn }, PhysAddr::new(vpn << 12))
            .expect("table has room");
    }
    ns_per(5, 16 * PAGES, || {
        let mut acc = 0u64;
        for _ in 0..16 {
            for vpn in 0..PAGES {
                acc += t
                    .lookup(Asid(1), VirtAddr::new(vpn << 12))
                    .expect("registered")
                    .raw();
            }
        }
        black_box(acc);
    })
}

fn regcache_ns_per_plan() -> f64 {
    const PAGES: u64 = 4096;
    let mut c = RegCache::new(PAGES as usize);
    for vpn in 0..PAGES {
        c.commit(RegKey { asid: Asid(1), vpn }, FrameIdx(vpn as u32));
    }
    ns_per(5, 16 * PAGES, || {
        for _ in 0..16 {
            for vpn in 0..PAGES {
                let plan = c.plan_range(Asid(1), VirtAddr::new(vpn << 12), PAGE_SIZE);
                assert_eq!(black_box(plan).hit_pages, 1);
            }
        }
    })
}

fn simfs_ns_per_4k_rw() -> f64 {
    const BLOCKS: u64 = 2048;
    let mut fs = SimFs::with_defaults();
    let ino = fs.create("/f", 0o644, SimTime::ZERO).expect("create");
    let mut block = vec![0xA5u8; 4096];
    ns_per(5, 2 * BLOCKS, || {
        for b in 0..BLOCKS {
            fs.write(ino, b * 4096, &block, SimTime::ZERO)
                .expect("write");
        }
        for b in 0..BLOCKS {
            fs.read(ino, b * 4096, &mut block, SimTime::ZERO)
                .expect("read");
        }
        black_box(&block);
    })
}

fn rpc_codec_ns_per_roundtrip() -> f64 {
    const CALLS: u64 = 50_000;
    let payload = [0x5Au8; 128];
    let mut wire = Vec::with_capacity(256);
    ns_per(5, CALLS, || {
        for corr in 0..CALLS {
            let req = ReqHeader {
                version: 1,
                method: 7,
                corr,
                deadline_ns: u64::MAX,
                idem: corr,
            };
            wire.clear();
            encode_request(&mut wire, req, &payload);
            let (got, body) = decode_request(black_box(&wire)).expect("own encoding decodes");
            assert!(got.corr == corr && body.len() == payload.len());
            let resp = RespHeader {
                version: 1,
                status: None,
                corr,
            };
            wire.clear();
            encode_response(&mut wire, resp, &payload);
            let (got, len) = decode_response(black_box(&wire)).expect("own encoding decodes");
            assert!(got.corr == corr && len == payload.len());
        }
    })
}

/// Virtual time of one barrier (until every member is released) and one
/// allreduce (reduce to the root, then broadcast of the result, each until
/// the root's completion) on a 64-node, fan-out-4 MX tree.
fn coll_us_64n() -> (f64, f64) {
    let mut fx = coll_fixture(TransportKind::Mx, 64, 4);
    let lanes: Vec<u64> = (0..8).collect();
    let result = fx.bufs[0].iov(8 * lanes.len() as u64);
    let mut barrier = 0;
    let mut allreduce = 0;
    // A collective is over when its completion is on the queue, not when the
    // fabric's last idle timer has fired.
    let await_done = |fx: &mut CollFixture, members: usize| {
        let eps = fx.eps[..members].to_vec();
        let outcome = run_until(&mut fx.w, |w| eps.iter().all(|&ep| w.has_event(ep)));
        assert_eq!(outcome, RunOutcome::Satisfied, "collective completes");
        let done = now(&fx.w);
        run_to_quiescence(&mut fx.w);
        for &ep in &fx.eps {
            while fx.w.take_event(ep).is_some() {}
        }
        done
    };
    // Round 0 warms link states and pools; round 1 is the pinned one.
    for round in 0..2 {
        let t0 = now(&fx.w);
        for &ep in &fx.eps.clone() {
            channel_barrier(&mut fx.w, fx.group, ep).expect("barrier");
        }
        barrier = (await_done(&mut fx, 64) - t0).nanos();

        let t0 = now(&fx.w);
        for &ep in &fx.eps.clone() {
            channel_reduce(&mut fx.w, fx.group, ep, ReduceOp::Sum, &lanes).expect("reduce");
        }
        let reduced = await_done(&mut fx, 1);
        let t1 = now(&fx.w);
        channel_bcast(&mut fx.w, fx.group, round, &result).expect("bcast");
        allreduce = (reduced - t0).nanos() + (await_done(&mut fx, 1) - t1).nanos();
    }
    (barrier as f64 / 1e3, allreduce as f64 / 1e3)
}

/// SOCKETS-MX on PCI-XE: one-way latency at 1 B, NetPIPE bandwidth at 64 kB.
fn zsock_pins() -> (f64, f64) {
    let (mut w, n0, n1) = two_nodes_xe();
    let (ba, bb) = (ubuf(&mut w, n0, 1 << 20), ubuf(&mut w, n1, 1 << 20));
    let ea = w
        .open_mx(n0, MxEndpointConfig::kernel())
        .expect("mx endpoint");
    let eb = w
        .open_mx(n1, MxEndpointConfig::kernel())
        .expect("mx endpoint");
    let sa = sock_create(&mut w, ea, eb).expect("socket");
    let sb = sock_create(&mut w, eb, ea).expect("socket");
    let tiny = sock_pingpong_us(&mut w, sa, sb, ba.memref(1), bb.memref(1), 10);
    const BULK: u64 = 64 * 1024;
    let bulk = sock_pingpong_us(&mut w, sa, sb, ba.memref(BULK), bb.memref(BULK), 5);
    (tiny, BULK as f64 / bulk)
}

/// NBD over MX: sixteen raw (direct) 64 kB reads of consecutive 4 kB-sector
/// ranges, bytes per virtual µs.
fn nbd_read_mbps_64k() -> f64 {
    const RECORD: u64 = 64 * 1024;
    let (mut w, n0, n1) = two_nodes();
    let user = ubuf(&mut w, n0, 1 << 20);
    let cep = w
        .open_mx(n0, MxEndpointConfig::kernel())
        .expect("mx endpoint");
    let sep = w
        .open_mx(n1, MxEndpointConfig::kernel())
        .expect("mx endpoint");
    nbd_server_create(&mut w, sep, 1024).expect("nbd server");
    let client = nbd_client_create(&mut w, cep, sep, 1000).expect("nbd client");
    let read = |w: &mut ClusterWorld, i: u64| {
        let op = nbd_read_raw(w, client, user.memref(RECORD), i * (RECORD / PAGE_SIZE));
        assert_eq!(nbd_await(w, client, op), RECORD);
    };
    read(&mut w, 0);
    let t0 = now(&w);
    for i in 1..=16 {
        read(&mut w, i);
    }
    (16 * RECORD) as f64 / (now(&w) - t0).micros()
}

/// Run every micro-drive, each under its own span.
pub fn drive_all(tr: &mut Trace, layer: &mut LayerValues) {
    fn spanned<T>(tr: &mut Trace, name: &'static str, drive: impl FnOnce() -> T) -> T {
        let span = tr.enter(name);
        let out = drive();
        tr.exit(span);
        out
    }
    layer.set(
        "simcore.sched_floor_ns_per_event",
        spanned(tr, "micro:simcore", sched_floor),
    );
    layer.set(
        "simos.physmem_new_us_per_kframe",
        spanned(tr, "micro:simos", physmem_new_us_per_kframe),
    );
    layer.set(
        "simnic.ttable_ns_per_lookup",
        spanned(tr, "micro:simnic", ttable_ns_per_lookup),
    );
    layer.set(
        "core.regcache_ns_per_plan",
        spanned(tr, "micro:core", regcache_ns_per_plan),
    );
    layer.set(
        "simfs.ns_per_4k_rw",
        spanned(tr, "micro:simfs", simfs_ns_per_4k_rw),
    );
    layer.set(
        "rpc.codec_ns_per_roundtrip",
        spanned(tr, "micro:rpc", rpc_codec_ns_per_roundtrip),
    );
    let (barrier, allreduce) = spanned(tr, "micro:coll", coll_us_64n);
    layer.set("coll.barrier_us_64n", barrier);
    layer.set("coll.allreduce_us_64n", allreduce);
    let (tiny, bulk) = spanned(tr, "micro:zsock", zsock_pins);
    layer.set("zsock.pingpong_us_1b", tiny);
    layer.set("zsock.stream_mbps_64k", bulk);
    layer.set(
        "nbd.read_mbps_64k",
        spanned(tr, "micro:nbd", nbd_read_mbps_64k),
    );
}
