//! The three wire decoders a peer's bytes reach — ORFS's request and
//! response, RPC's request and response frames, NBD's request header —
//! answer every input with a value or a typed error, never a panic: seeded
//! random buffers of 0–256 bytes, each of those with a valid opcode or kind
//! planted where the decoder dispatches on it, and every truncation of a
//! valid encoding of each message kind.
//!
//! An NBD server acts on the header it decodes: every range a peer can
//! name is served or refused, typed, never a panic or an acknowledgement
//! of a write off the disk.
//!
//! One layer down, the GM and MX receive paths act on whatever header words
//! a packet carries (`MsgHeader::unpack` cannot fail, so the drivers must
//! judge the fields): seeded packets with arbitrary kinds and header words
//! — offsets past the message, chunks running over it, empty messages with
//! a payload, destinations that are closed, out of range or on another
//! card — are each dropped or fail typed, never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use knet_core::api::{channel_connect, channel_send};
use knet_core::{RpcError, TransportEvent};
use knet_nbd::proto::HEADER_LEN;
use knet_nbd::{nbd_server_create, NbdRequest, SECTOR_SIZE};
use knet_orfs::proto::{Request, Response, WireAttr, WireDirEntry};
use knet_orfs::OrfsError;
use knet_rpc::codec::{
    decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
    NO_DEADLINE, RESP_HEADER_LEN, RPC_SCHEMA_VERSION,
};
use knet_simfs::FsError;

use knet::build::ClusterBuilder;
use knet::harness::{kbuf, KBuf};
use knet::world::ClusterWorld;
use knet_core::{Endpoint, TransportWorld};
use knet_gm::GmPortConfig;
use knet_mx::MxEndpointConfig;
use knet_simcore::{now, run_to_quiescence};
use knet_simnic::{wire_send, MsgHeader, Packet, Proto};
use knet_simos::{Asid, CpuModel, NodeId};

/// Random buffers per decoder, and the seed they are drawn from.
const CASES: usize = 20_000;
const SEED: u64 = 0x5EED_DEC0;

/// splitmix64: a seeded, dependency-free byte source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn buffer(&mut self) -> Vec<u8> {
        let len = (self.next() % 257) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Call `decode` on `input`; a panic fails the test naming the input.
fn no_panic<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| decode(input)))
        .unwrap_or_else(|_| panic!("{what} panicked on {} bytes: {input:02x?}", input.len()))
}

/// Every decoder on one input.
fn decode_all(input: &[u8]) {
    let _ = no_panic("orfs Request::decode", input, Request::decode);
    let _ = no_panic("orfs Response::decode", input, Response::decode);
    no_panic("rpc decode_request", input, |b| decode_request(b).is_some());
    no_panic("rpc decode_response", input, decode_response);
    no_panic("NbdRequest::decode", input, NbdRequest::decode);
}

fn orfs_requests() -> Vec<Request> {
    let name = || "name".to_string();
    vec![
        Request::Lookup {
            dir: 1,
            name: name(),
        },
        Request::Getattr { ino: 2 },
        Request::SetattrMode {
            ino: 3,
            mode: 0o640,
        },
        Request::Create {
            dir: 1,
            name: name(),
            mode: 0o644,
        },
        Request::Mkdir {
            dir: 1,
            name: name(),
            mode: 0o755,
        },
        Request::Unlink {
            dir: 1,
            name: name(),
        },
        Request::Rmdir {
            dir: 1,
            name: name(),
        },
        Request::Readdir { ino: 1 },
        Request::Symlink {
            dir: 1,
            name: name(),
            target: "/a/b".into(),
        },
        Request::Readlink { ino: 9 },
        Request::Rename {
            fdir: 1,
            fname: name(),
            tdir: 2,
            tname: "new".into(),
        },
        Request::Truncate {
            ino: 5,
            size: 12_345,
        },
        Request::Open { ino: 6 },
        Request::Close { handle: 3 },
        Request::Read {
            handle: 1,
            offset: 1 << 40,
            len: 65_536,
        },
        Request::Write {
            handle: 2,
            offset: 0,
            len: 4096,
        },
    ]
}

fn orfs_responses() -> Vec<Response> {
    let entry = |name: &str, ino| WireDirEntry {
        name: name.into(),
        ino,
        ftype: 0,
    };
    vec![
        Response::Err(OrfsError::Fs(FsError::NotFound)),
        Response::Err(OrfsError::BadHandle),
        Response::Ino(77),
        Response::Attr(WireAttr {
            ino: 3,
            ftype: 1,
            size: 999,
            nlink: 2,
            mode: 0o755,
            mtime_ns: 123_456_789,
        }),
        Response::Handle(12),
        Response::Written(4096),
        Response::Entries(vec![entry("a", 2), entry("bc", 3)]),
        Response::Target("/x/y".into()),
        Response::Unit,
    ]
}

/// Valid RPC frames: a request, a success response and one response per
/// error, each with a payload.
fn rpc_frames() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut request = Vec::new();
    let hdr = ReqHeader {
        version: RPC_SCHEMA_VERSION,
        method: 7,
        corr: (3 << 32) | 9,
        deadline_ns: NO_DEADLINE,
        idem: 0,
    };
    encode_request(&mut request, hdr, b"payload!");
    let statuses = [
        None,
        Some(RpcError::Deadline),
        Some(RpcError::Cancelled),
        Some(RpcError::PeerUnreachable),
        Some(RpcError::VersionMismatch),
        Some(RpcError::Overload),
    ];
    let responses = statuses
        .into_iter()
        .map(|status| {
            let mut frame = Vec::new();
            let hdr = RespHeader {
                version: RPC_SCHEMA_VERSION,
                status,
                corr: 5,
            };
            encode_response(&mut frame, hdr, b"xyz");
            frame
        })
        .collect();
    (vec![request], responses)
}

fn nbd_requests() -> Vec<NbdRequest> {
    vec![
        NbdRequest::Read {
            sector: 123,
            count: 8,
        },
        NbdRequest::Write {
            sector: u64::MAX / 2,
            count: 1,
        },
        // Off any disk, where an unchecked `sector + count` overflows.
        NbdRequest::Read {
            sector: u64::MAX,
            count: u32::MAX,
        },
        NbdRequest::Write {
            sector: u64::MAX,
            count: 1,
        },
    ]
}

#[test]
fn random_bytes_never_panic_a_wire_decoder() {
    let mut rng = Rng(SEED);
    for _ in 0..CASES {
        let mut buf = rng.buffer();
        decode_all(&buf);
        // The same bytes behind a valid dispatch byte: ORFS opcodes and
        // response kinds sit in byte 0 (NBD's too), RPC's frame kind in
        // byte 2.
        if let Some(first) = buf.first_mut() {
            *first %= 20;
        }
        if let Some(kind) = buf.get_mut(2) {
            *kind %= 2;
        }
        decode_all(&buf);
    }
}

#[test]
fn every_truncation_of_a_valid_message_decodes_to_a_typed_error() {
    for req in orfs_requests() {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc), Ok((req.clone(), enc.len())));
        for cut in 0..enc.len() {
            let got = no_panic("orfs Request::decode", &enc[..cut], Request::decode);
            assert_eq!(got, Err(OrfsError::Decode), "{req:?} cut at {cut}");
        }
    }
    for resp in orfs_responses() {
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc), Ok(resp.clone()));
        for cut in 0..enc.len() {
            let got = no_panic("orfs Response::decode", &enc[..cut], Response::decode);
            assert_eq!(got, Err(OrfsError::Decode), "{resp:?} cut at {cut}");
        }
    }
    let (requests, responses) = rpc_frames();
    for frame in requests {
        assert!(decode_request(&frame).is_some());
        for cut in 0..frame.len() {
            let got = no_panic("rpc decode_request", &frame[..cut], |b| {
                decode_request(b).is_some()
            });
            assert!(!got, "rpc request cut at {cut}");
        }
    }
    for frame in responses {
        let (hdr, len) = decode_response(&frame).unwrap();
        assert_eq!(len, frame.len() - RESP_HEADER_LEN);
        for cut in 0..frame.len() {
            let got = no_panic("rpc decode_response", &frame[..cut], decode_response);
            // The header decodes on its own (a receiver may hold only it);
            // anything shorter is refused.
            let expect = (cut >= RESP_HEADER_LEN).then_some((hdr, len));
            assert_eq!(got, expect, "rpc response cut at {cut}");
        }
    }
    for req in nbd_requests() {
        let enc = req.encode();
        assert_eq!(NbdRequest::decode(&enc), Some((req, enc.len())));
        for cut in 0..enc.len() {
            let got = no_panic("NbdRequest::decode", &enc[..cut], NbdRequest::decode);
            assert_eq!(got, None, "{req:?} cut at {cut}");
        }
    }
}

/// Each of `nbd_requests` sent to a 1 024-sector disk (a write with one
/// sector behind its header): the read in range is answered under its tag,
/// every range off the disk is refused under the tag's companion
/// (`tag | 1 << 63`) with an empty message.
#[test]
fn an_nbd_server_refuses_every_range_off_its_disk() {
    let mut w = ClusterBuilder::new().build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let server = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    nbd_server_create(&mut w, server, 1024).unwrap();
    let cq = w.new_cq();
    let client = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let ch = channel_connect(&mut w, client, server, cq);
    let buf = kbuf(&mut w, n0, HEADER_LEN as u64 + SECTOR_SIZE);
    let (mut answers, mut events) = (Vec::new(), Vec::new());
    for (tag, req) in nbd_requests().into_iter().enumerate() {
        let mut msg = req.encode().to_vec();
        if let NbdRequest::Write { .. } = req {
            msg.resize(HEADER_LEN + SECTOR_SIZE as usize, 0xAB);
        }
        let node = w.os.node_mut(n0);
        node.write_virt(Asid::KERNEL, buf.addr, &msg).unwrap();
        channel_send(&mut w, ch, tag as u64, buf.iov(msg.len() as u64)).unwrap();
        catch_unwind(AssertUnwindSafe(|| run_to_quiescence(&mut w)))
            .unwrap_or_else(|_| panic!("{req:?} panicked the server"));
        w.take_events(client, usize::MAX, &mut events);
        answers.extend(events.iter().filter_map(|e| match &e.event {
            TransportEvent::Unexpected { tag, data, .. } => Some((*tag, data.len())),
            _ => None,
        }));
    }
    let refused = 1 << 63;
    let expect = [
        (0, 8 * 4096),
        (1 | refused, 0),
        (2 | refused, 0),
        (3 | refused, 0),
    ];
    assert_eq!(answers, expect);
    assert_eq!(w.nbd.servers[0].bytes_written, 0, "nothing was written");
}

// ------------------------------------------------------ driver receive paths

/// Injected packets, and the tag the receivers post under.
const PACKETS: usize = 6_000;
const POSTED_TAG: u64 = 7;
const POSTED_LEN: u64 = 8192;

/// A receiving node's GM port and MX endpoint, with a kernel buffer each
/// to post receives into.
struct Receiver {
    gm: Endpoint,
    mx: Endpoint,
    gm_buf: KBuf,
    mx_buf: KBuf,
}

fn repost(w: &mut ClusterWorld, r: &Receiver) {
    for (ep, buf) in [(r.gm, &r.gm_buf), (r.mx, &r.mx_buf)] {
        for (ctx, tag) in [(1, POSTED_TAG), (2, u64::MAX)] {
            w.t_post_recv(ep, tag, buf.iov(POSTED_LEN), ctx).unwrap();
        }
    }
}

/// One packet from node 0 to `dst`'s card with header fields drawn to hit
/// the edges a well-behaved sender never produces.
fn hostile_packet(rng: &mut Rng, w: &ClusterWorld, recv: &[Receiver], dst: usize) -> Packet {
    let proto = if rng.next().is_multiple_of(2) {
        Proto::Gm
    } else {
        Proto::Mx
    };
    let kind = match rng.next() % 3 {
        0 => 0,
        1 => (rng.next() % 5) as u8,
        _ => rng.next() as u8,
    };
    let pick = |rng: &mut Rng, eps: [u32; 3]| match rng.next() % 4 {
        0 | 1 => eps[0],
        2 => eps[1],
        _ => rng.next() as u32,
    };
    let idx = |ep: Endpoint| ep.idx;
    let (here, elsewhere) = (&recv[dst], &recv[3 - dst]);
    let dst_ep = match proto {
        Proto::Gm => pick(rng, [idx(here.gm), idx(elsewhere.gm), 0]),
        _ => pick(rng, [idx(here.mx), idx(elsewhere.mx), 0]),
    };
    let len = match rng.next() % 4 {
        0 => 0,
        1 => 1 + rng.next() % 64,
        2 => 4096,
        _ => rng.next() % 4097,
    };
    let total = match rng.next() % 6 {
        0 => 0,
        1 => len,
        2 => POSTED_LEN,
        3 => 4 * 4096,
        4 => 1 + rng.next() % 100_000,
        _ => rng.next() & 0xFFFF_FFFF,
    };
    let offset = match rng.next() % 5 {
        0 => 0,
        1 => total,
        2 => total.saturating_sub(len / 2),
        3 => rng.next() % (total + 1),
        _ => rng.next() & 0xFFFF_FFFF,
    };
    let tag = if rng.next().is_multiple_of(3) {
        rng.next()
    } else {
        POSTED_TAG
    };
    let msg_id = rng.next() % 4;
    // One in four is a whole message a peer could have sent, so the
    // receivers keep completing and keep a table of half-arrived ones.
    let (kind, dst_ep, total, offset) = if rng.next().is_multiple_of(4) {
        let ep = match proto {
            Proto::Gm => here.gm,
            _ => here.mx,
        };
        (0, ep.idx, len, 0)
    } else {
        (kind, dst_ep, total, offset)
    };
    let meta = if rng.next().is_multiple_of(8) {
        [rng.next(), rng.next(), rng.next(), rng.next()]
    } else {
        MsgHeader::new(dst_ep, (rng.next() % 3) as u32, tag, msg_id, offset, total).pack()
    };
    let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let src = w.nics.nic_of_node(NodeId(0)).unwrap();
    let dst = w.nics.nic_of_node(NodeId(dst as u32)).unwrap();
    Packet::new(src, dst, proto, kind, meta, payload.into(), 32)
}

/// Three nodes, each with a GM port and an MX endpoint to receive on.
fn receivers() -> (ClusterWorld, Vec<Receiver>) {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .build();
    let mut recv = Vec::new();
    for n in 0..3 {
        let node = NodeId(n);
        let cq = w.new_cq();
        let gm_cfg = GmPortConfig::kernel().with_physical_api();
        let gm = w.open_gm_cq(node, gm_cfg, cq).unwrap();
        let mx = w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap();
        let gm_buf = kbuf(&mut w, node, POSTED_LEN);
        let mx_buf = kbuf(&mut w, node, POSTED_LEN);
        recv.push(Receiver {
            gm,
            mx,
            gm_buf,
            mx_buf,
        });
    }
    (w, recv)
}

/// A well-formed whole message that reaches node 1's card but names the
/// port / endpoint of node 2, where a receive is posted: neither driver
/// may land it there (GM used to panic, MX wrote node 2's buffer).
#[test]
fn a_message_naming_an_endpoint_on_another_card_is_dropped() {
    let (mut w, recv) = receivers();
    repost(&mut w, &recv[2]);
    let src = w.nics.nic_of_node(NodeId(0)).unwrap();
    let dst = w.nics.nic_of_node(NodeId(1)).unwrap();
    for (proto, ep) in [(Proto::Gm, recv[2].gm), (Proto::Mx, recv[2].mx)] {
        let hdr = MsgHeader::new(ep.idx, 0, POSTED_TAG, 1, 0, 64);
        let pkt = Packet::new(src, dst, proto, 0, hdr.pack(), vec![7u8; 64].into(), 32);
        let at = now(&w);
        wire_send(&mut w, pkt, at);
        run_to_quiescence(&mut w);
    }
    let mut events = Vec::new();
    for r in &recv {
        assert_eq!(w.take_events(r.gm, usize::MAX, &mut events), 0);
        assert_eq!(w.take_events(r.mx, usize::MAX, &mut events), 0);
    }
    assert_eq!((w.gm.malformed(), w.mx.malformed()), (1, 1));
    assert_eq!(w.stats().engine.errors, 0);
}

#[test]
fn hostile_header_words_never_panic_a_driver_receive_path() {
    let (mut w, recv) = receivers();
    let mut rng = Rng(SEED ^ 0xD21E);
    let mut events = Vec::new();
    let mut completions = 0;
    for i in 0..PACKETS {
        if i % 64 == 0 {
            for r in &recv[1..] {
                repost(&mut w, r);
            }
        }
        let dst = 1 + (rng.next() % 2) as usize;
        let pkt = hostile_packet(&mut rng, &w, &recv, dst);
        let shown = format!(
            "{:?} kind {} meta {:x?} {} B -> node {dst}",
            pkt.proto,
            pkt.kind,
            pkt.meta,
            pkt.payload.len()
        );
        catch_unwind(AssertUnwindSafe(|| {
            let at = now(&w);
            wire_send(&mut w, pkt, at);
            run_to_quiescence(&mut w);
        }))
        .unwrap_or_else(|_| panic!("packet {i} panicked a receive path: {shown}"));
        for r in &recv {
            completions += w.take_events(r.gm, usize::MAX, &mut events);
            completions += w.take_events(r.mx, usize::MAX, &mut events);
        }
    }
    // The cases reach both sides of the judgement: messages complete into
    // posted buffers or as unexpected ones, and both drivers drop some.
    assert!(completions > 100, "only {completions} completions");
    assert!(w.gm.malformed() > 100, "GM dropped {}", w.gm.malformed());
    assert!(w.mx.malformed() > 100, "MX dropped {}", w.mx.malformed());
    assert_eq!(w.stats().engine.errors, 0, "no engine errors");
}
