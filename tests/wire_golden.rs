//! Golden bytes: one message per wire codec, pinned as hex. A round-trip
//! test cannot see a layout change that the encoder and the decoder make
//! together; these rows can. Each row is checked both ways: the value
//! encodes to exactly these bytes, and these bytes decode to the value.
//!
//! The socket stream header is captured off the wire: a socket sends one
//! small message to a bare endpoint, which receives it as header ++
//! payload. KV's payloads are private to `knet-kv` and pinned beside their
//! codec (`kv_payloads_keep_their_golden_bytes`).

use knet::prelude::*;
use knet_nbd::NbdRequest;
use knet_orfs::proto::{Request, Response, WireAttr};
use knet_orfs::OrfsError;
use knet_rpc::codec::{
    decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
    RPC_SCHEMA_VERSION,
};
use knet_simfs::FsError;
use knet_zsock::sock_create;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A golden row as written, fields spaced for the reader.
fn golden(spaced: &str) -> String {
    spaced.replace(' ', "")
}

#[test]
fn rpc_frames_keep_their_golden_bytes() {
    let mut buf = Vec::new();
    let req = ReqHeader {
        version: RPC_SCHEMA_VERSION,
        method: 7,
        corr: (3 << 32) | 9,
        deadline_ns: 123_456,
        idem: 0,
    };
    encode_request(&mut buf, req, b"ping");
    assert_eq!(
        hex(&buf),
        golden("0100 00 0700 0900000003000000 40e2010000000000 0000000000000000 04000000 70696e67")
    );
    assert_eq!(decode_request(&buf), Some((req, &b"ping"[..])));

    let resp = RespHeader {
        version: RPC_SCHEMA_VERSION,
        status: Some(RpcError::Overload),
        corr: 5,
    };
    encode_response(&mut buf, resp, b"xyz");
    assert_eq!(
        hex(&buf),
        golden("0100 01 05 0500000000000000 03000000 78797a")
    );
    assert_eq!(decode_response(&buf), Some((resp, 3)));
}

#[test]
fn orfs_messages_keep_their_golden_bytes() {
    let requests = [
        (
            Request::Lookup {
                dir: 1,
                name: "etc".into(),
            },
            "01 01000000 0300 657463",
        ),
        (
            Request::Read {
                handle: 2,
                offset: 1 << 40,
                len: 65_536,
            },
            "0f 02000000 0000000000010000 0000010000000000",
        ),
        (
            Request::Write {
                handle: 3,
                offset: 4096,
                len: 24_576,
            },
            "10 03000000 0010000000000000 0060000000000000",
        ),
    ];
    for (req, row) in requests {
        let enc = req.encode();
        assert_eq!(hex(&enc), golden(row), "{req:?}");
        assert_eq!(Request::decode(&enc), Ok((req, enc.len())));
    }
    let responses = [
        (
            Response::Attr(WireAttr {
                ino: 3,
                ftype: 1,
                size: 999,
                nlink: 2,
                mode: 0o755,
                mtime_ns: 123_456_789,
            }),
            "02 03000000 01 e703000000000000 02000000 ed01 15cd5b0700000000",
        ),
        (
            Response::Err(OrfsError::Fs(FsError::FileTooBig)),
            "00 00 0a",
        ),
        (Response::Err(OrfsError::BadHandle), "00 02 00"),
    ];
    for (resp, row) in responses {
        let enc = resp.encode();
        assert_eq!(hex(&enc), golden(row), "{resp:?}");
        assert_eq!(Response::decode(&enc), Ok(resp));
    }
}

#[test]
fn nbd_requests_keep_their_golden_bytes() {
    for (req, row) in [
        (
            NbdRequest::Read {
                sector: 123,
                count: 8,
            },
            "01 7b00000000000000 08000000",
        ),
        (
            NbdRequest::Write {
                sector: u64::MAX / 2,
                count: 1,
            },
            "02 ffffffffffffff7f 01000000",
        ),
    ] {
        let enc = req.encode();
        assert_eq!(hex(&enc), golden(row), "{req:?}");
        assert_eq!(NbdRequest::decode(&enc), Some((req, enc.len())));
    }
}

/// A 4-byte socket send to a bare MX endpoint arrives as one message under
/// the stream's header tag: `seq` and `len` as two little-endian words,
/// then the payload inline.
#[test]
fn the_socket_stream_header_keeps_its_golden_bytes() {
    let (mut w, n0, n1) = two_nodes();
    let ea = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cq = w.new_cq();
    let eb = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let sid = sock_create(&mut w, ea, eb).unwrap();
    let src = kbuf(&mut w, n0, 4);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, src.addr, b"knet")
        .unwrap();
    knet_zsock::sock_send(&mut w, sid, src.memref(4));
    run_to_quiescence(&mut w);
    let mut events = Vec::new();
    w.take_events(eb, usize::MAX, &mut events);
    let frames: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TransportEvent::Unexpected { tag, data, .. } => Some((*tag, hex(data))),
            _ => None,
        })
        .collect();
    assert_eq!(
        frames,
        [(
            1 << 62,
            golden("0000000000000000 0400000000000000 6b6e6574")
        )]
    );
}
