//! The three wire decoders a peer's bytes reach — ORFS's request and
//! response, RPC's request and response frames, NBD's request header —
//! answer every input with a value or a typed error, never a panic: seeded
//! random buffers of 0–256 bytes, each of those with a valid opcode or kind
//! planted where the decoder dispatches on it, and every truncation of a
//! valid encoding of each message kind.

use std::panic::{catch_unwind, AssertUnwindSafe};

use knet_core::RpcError;
use knet_nbd::NbdRequest;
use knet_orfs::proto::{Request, Response, WireAttr, WireDirEntry};
use knet_orfs::OrfsError;
use knet_rpc::codec::{
    decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
    NO_DEADLINE, RESP_HEADER_LEN, RPC_SCHEMA_VERSION,
};
use knet_simfs::FsError;

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
