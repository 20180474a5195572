//! `orfs_rw` — the paper's headline application: ORFS, the in-kernel remote
//! file system, using the transport as request/response with on-the-fly
//! registration and page-cache physical addresses. Writes sit beside reads
//! so a read-path gain that costs writes shows.
//!
//! Closed loop, one syscall at a time. Two deployments of
//! `figures::fs_fixture` (kernel-VFS client over GM with a 4096-page GMKRC,
//! and over MX), each with a 16 MB `/data`: the lower 8 MB is the buffered
//! region, the upper 8 MB the `O_DIRECT` region, so no result depends on
//! page-cache coherence between the two modes. Per repetition and
//! deployment:
//!
//! 1. the client's cached pages of `/data` are dropped, then 2048 buffered
//!    sequential reads of about 4 kB;
//! 2. 128 direct reads of about 64 kB into user buffers rotated over the
//!    4 MB pool;
//! 3. 2048 buffered writes of about 4 kB, then `fsync`;
//! 4. 128 direct writes of about 64 kB.
//!
//! Reads : writes = 1 : 1 by op count. Lengths are drawn from the seed
//! (3585..=4096 B and 61441..=65536 B). Every read is compared with a
//! host-side image of the file that every write updates, and after the last
//! repetition the server's copy of the file must equal the image.

use std::time::Instant;

use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{fill_pattern, lap, scaled, Phases, Rep, Rng, Workload};

const PAGE: u64 = 4096;
const RECORD: u64 = 64 * 1024;
const REGION: u64 = 8 << 20;
const POOL: u64 = 4 << 20;

struct Deployment {
    fx: FsFixture,
    fd_buffered: u32,
    fd_direct: u32,
    /// What `/data` must hold.
    image: Vec<u8>,
}

pub struct OrfsRw {
    deployments: Vec<Deployment>,
    seed: u64,
    /// Buffered and direct ops per phase.
    small_ops: u64,
    large_ops: u64,
    buf: Vec<u8>,
    read_bytes: u64,
    read_ns: u64,
    write_bytes: u64,
    write_ns: u64,
}

/// Submit one syscall and wait for it: returns its result and its virtual
/// latency.
fn syscall(
    d: &mut Deployment,
    ph: &mut Phases,
    tr: &Trace,
    submit: impl FnOnce(&mut ClusterWorld, OrfsClientId) -> SyscallId,
) -> (SysResult, u64) {
    let (w, cid) = (&mut d.fx.w, d.fx.cid);
    let t0 = now(w);
    let c = tr.clock();
    let sid = submit(w, cid);
    lap(c, &mut ph.submit);
    let c = tr.clock();
    let res = orfs_wait(w, cid, sid);
    lap(c, &mut ph.run);
    (res, (now(w) - t0).nanos())
}

fn open(d: &mut Deployment, direct: bool) -> u32 {
    let (res, _) = syscall(d, &mut Phases::default(), &Trace::new(false), |w, cid| {
        op_open(w, cid, "/data", direct)
    });
    match res {
        Ok(SysRet::Fd(fd)) => fd,
        other => panic!("orfs_rw: open failed: {other:?}"),
    }
}

/// What one repetition accumulates while it runs.
struct Pass<'a> {
    ph: Phases,
    tr: &'a Trace,
    lat: &'a mut Vec<u64>,
    attempted: u64,
    ok: u64,
    broken: u64,
    bytes: u64,
    span_ns: u64,
}

impl<'a> Pass<'a> {
    fn new(tr: &'a Trace, lat: &'a mut Vec<u64>) -> Self {
        Pass {
            ph: Phases::default(),
            tr,
            lat,
            attempted: 0,
            ok: 0,
            broken: 0,
            bytes: 0,
            span_ns: 0,
        }
    }

    /// Book one syscall that moved `bytes` in `ns`, or broke.
    fn book(&mut self, good: bool, bytes: u64, ns: u64) {
        self.attempted += 1;
        if good {
            self.ok += 1;
            self.bytes += bytes;
            self.lat.push(ns);
        } else {
            self.broken += 1;
        }
    }
}

impl OrfsRw {
    /// One read of `len` bytes at `offset` into the user pool, checked
    /// against the image.
    fn read(&mut self, p: &mut Pass, di: usize, fd: u32, offset: u64, len: u64) {
        let d = &mut self.deployments[di];
        let pool_off = offset % POOL;
        let dest = d.fx.user.memref_at(pool_off, len);
        let (res, ns) = syscall(d, &mut p.ph, p.tr, |w, cid| {
            op_read(w, cid, fd, dest, offset)
        });
        let c = p.tr.clock();
        let out = &mut self.buf[..len as usize];
        uread(&d.fx.w, &d.fx.user, pool_off, out);
        let good = matches!(res, Ok(SysRet::Bytes(n)) if n == len)
            && out[..] == d.image[offset as usize..(offset + len) as usize];
        lap(c, &mut p.ph.verify);
        p.book(good, len, ns);
        self.read_bytes += if good { len } else { 0 };
        self.read_ns += ns;
    }

    /// One write of `len` fresh bytes (the pattern of `key`) at `offset`;
    /// the image follows.
    fn write(&mut self, p: &mut Pass, di: usize, fd: u32, offset: u64, len: u64, key: u64) {
        let d = &mut self.deployments[di];
        let pool_off = offset % POOL;
        let c = p.tr.clock();
        let data = &mut self.buf[..len as usize];
        fill_pattern(data, key);
        uwrite(&mut d.fx.w, &d.fx.user, pool_off, data);
        d.image[offset as usize..(offset + len) as usize].copy_from_slice(data);
        lap(c, &mut p.ph.verify);
        let src = d.fx.user.memref_at(pool_off, len);
        let (res, ns) = syscall(d, &mut p.ph, p.tr, |w, cid| {
            op_write(w, cid, fd, src, offset)
        });
        let good = matches!(res, Ok(SysRet::Bytes(n)) if n == len);
        p.book(good, len, ns);
        self.write_bytes += if good { len } else { 0 };
        self.write_ns += ns;
    }

    /// The four phases on one deployment.
    fn pass(&mut self, p: &mut Pass, di: usize, rng: &mut Rng) {
        let (fd_b, fd_d) = {
            let d = &mut self.deployments[di];
            orfs_drop_cached(&mut d.fx.w, d.fx.cid, d.fd_buffered);
            (d.fd_buffered, d.fd_direct)
        };
        let v0 = now(&self.deployments[di].fx.w);
        let (small, large) = (self.small_ops, self.large_ops);
        for i in 0..small {
            self.read(p, di, fd_b, i * PAGE, PAGE - rng.below(512));
        }
        for i in 0..large {
            self.read(p, di, fd_d, REGION + i * RECORD, RECORD - rng.below(PAGE));
        }
        for i in 0..small {
            let (len, key) = (PAGE - rng.below(512), rng.next_u64());
            self.write(p, di, fd_b, i * PAGE, len, key);
        }
        let (res, ns) = syscall(&mut self.deployments[di], &mut p.ph, p.tr, |w, cid| {
            op_fsync(w, cid, fd_b)
        });
        p.book(res.is_ok(), 0, ns);
        self.write_ns += ns;
        for i in 0..large {
            let (len, key) = (RECORD - rng.below(PAGE), rng.next_u64());
            self.write(p, di, fd_d, REGION + i * RECORD, len, key);
        }
        p.span_ns += (now(&self.deployments[di].fx.w) - v0).nanos();
    }
}

impl Workload for OrfsRw {
    const NAME: &'static str = "orfs_rw";
    const LOSSLESS: bool = true;
    const SUBMIT_METRIC: &'static str = "orfs.syscall_submit_ns";

    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self {
        let image: Vec<u8> = (0..2 * REGION).map(pattern_byte).collect();
        let deployments = [TransportKind::Gm, TransportKind::Mx]
            .into_iter()
            .map(|kind| {
                let fx = fs_fixture(FsOpts {
                    kind,
                    client: ClientKind::KernelVfs,
                    regcache_pages: Some(4096),
                    combine_pages: false,
                    file_len: 2 * REGION,
                });
                let mut d = Deployment {
                    fx,
                    fd_buffered: 0,
                    fd_direct: 0,
                    image: image.clone(),
                };
                d.fd_buffered = open(&mut d, false);
                d.fd_direct = open(&mut d, true);
                d
            })
            .collect();
        let mut wl = OrfsRw {
            deployments,
            seed,
            small_ops: scaled(2048, scale, 16),
            large_ops: scaled(128, scale, 2),
            buf: vec![0; RECORD as usize],
            read_bytes: 0,
            read_ns: 0,
            write_bytes: 0,
            write_ns: 0,
        };
        // Warm-up: one full pass registers the pool, fills the dentry cache
        // and grows every ring.
        let mut rng = Rng::stream(seed, u64::MAX);
        let mut scratch = Vec::new();
        let mut warm = Pass::new(tr, &mut scratch);
        for di in 0..wl.deployments.len() {
            wl.pass(&mut warm, di, &mut rng);
        }
        assert_eq!(warm.broken, 0, "orfs_rw: warm-up pass broke");
        (wl.read_bytes, wl.read_ns, wl.write_bytes, wl.write_ns) = (0, 0, 0, 0);
        wl
    }

    fn rep(&mut self, rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep {
        let mut rng = Rng::stream(self.seed, u64::from(rep));
        let before: Vec<Counters> = self.deployments.iter().map(|d| snapshot(&d.fx.w)).collect();
        let mut p = Pass::new(tr, lat_ns);
        let began = Instant::now();
        for di in 0..self.deployments.len() {
            self.pass(&mut p, di, &mut rng);
        }
        let wall = began.elapsed();
        let Pass {
            ph,
            attempted,
            ok,
            broken,
            bytes,
            span_ns,
            ..
        } = p;
        ph.record(tr, attempted);
        let mut counters = Counters::default();
        for (d, b) in self.deployments.iter().zip(&before) {
            counters.add_delta(b, &snapshot(&d.fx.w));
        }
        Rep {
            attempted,
            ok,
            broken,
            payload_bytes: bytes,
            virt_span_ns: span_ns,
            wall,
            counters,
            setup: None,
        }
    }

    fn nodes(&self) -> usize {
        2 * self.deployments.len()
    }

    fn finish(&mut self, _tr: &mut Trace, layer: &mut LayerValues, violations: &mut Vec<String>) {
        for d in &mut self.deployments {
            if orfs_server_file(&mut d.fx.w, "/data", d.image.len()) != d.image {
                violations.push("the server's /data differs from what was written".into());
            }
        }
        // bytes per microsecond = MB/s
        layer.set(
            "orfs.read_mbps",
            self.read_bytes as f64 / (self.read_ns as f64 / 1e3),
        );
        layer.set(
            "orfs.write_mbps",
            self.write_bytes as f64 / (self.write_ns as f64 / 1e3),
        );
    }
}
