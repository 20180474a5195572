//! The schema-versioned request/response codec.
//!
//! The wire format is deliberately transport-agnostic: frames are byte
//! strings, moved through channels by the client and server in the crate
//! root (`rpc_client_create` / `rpc_server_create`).
//!
//! Frames:
//!
//! ```text
//! request  := version:u16 kind:u8(=0) method:u16 corr:u64 deadline_ns:u64 idem:u64 len:u32 payload
//! response := version:u16 kind:u8(=1) status:u8        corr:u64                   len:u32 payload
//! ```
//!
//! `deadline_ns` is an **absolute virtual-time deadline** (u64::MAX when
//! none): the caller's deadline rides the wire, so a server can drop work
//! that is already dead instead of answering it. `status` is `0` for
//! success, else the [`RpcError`]'s code in the one table both ends read.

use knet_core::wire::{self, Dec, Enc};
use knet_core::RpcError;

/// The one schema version this tree speaks. Requests carrying any other
/// version are answered with [`RpcError::VersionMismatch`] (the reply
/// itself is always encoded at the responder's version).
pub const RPC_SCHEMA_VERSION: u16 = 1;

/// Absolute-deadline encoding for "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// Encoded request header length.
pub const REQ_HEADER_LEN: usize = 2 + 1 + 2 + 8 + 8 + 8 + 4;
/// Encoded response header length.
pub const RESP_HEADER_LEN: usize = 2 + 1 + 1 + 8 + 4;

/// A decoded request header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqHeader {
    pub version: u16,
    pub method: u16,
    /// Generation-tagged correlation id minted by the caller's call slab.
    pub corr: u64,
    /// Absolute virtual-time deadline in nanoseconds ([`NO_DEADLINE`] when
    /// unset), propagated so the callee can drop expired work.
    pub deadline_ns: u64,
    /// Reserved: sent as 0 and ignored by the server. It keeps the
    /// request layout (and so every request's wire size) fixed.
    pub idem: u64,
}

/// A decoded response header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RespHeader {
    pub version: u16,
    /// `None` = success; `Some` carries the typed failure.
    pub status: Option<RpcError>,
    pub corr: u64,
}

/// Response status codes: `ERRORS[i]` travels as `i + 1`, 0 is success.
const ERRORS: [RpcError; 5] = [
    RpcError::Deadline,
    RpcError::Cancelled,
    RpcError::PeerUnreachable,
    RpcError::VersionMismatch,
    RpcError::Overload,
];

/// The frame's schema version, if the frame is of `kind`.
fn version_of(d: &mut Dec, kind: u8) -> Option<u16> {
    let version = d.u16().ok()?;
    (d.u8().ok()? == kind).then_some(version)
}

/// Encode a request into `out` (cleared first; re-using a recycled scratch
/// buffer keeps the warm path allocation-free).
pub fn encode_request(out: &mut Vec<u8>, hdr: ReqHeader, payload: &[u8]) {
    out.clear();
    Enc::new(out)
        .u16(hdr.version)
        .u8(KIND_REQUEST)
        .u16(hdr.method)
        .u64(hdr.corr)
        .u64(hdr.deadline_ns)
        .u64(hdr.idem)
        .bytes_u32(payload);
}

/// Decode a request frame into its header and payload slice.
pub fn decode_request(buf: &[u8]) -> Option<(ReqHeader, &[u8])> {
    let mut d = Dec::new(buf);
    let hdr = ReqHeader {
        version: version_of(&mut d, KIND_REQUEST)?,
        method: d.u16().ok()?,
        corr: d.u64().ok()?,
        deadline_ns: d.u64().ok()?,
        idem: d.u64().ok()?,
    };
    Some((hdr, d.bytes_u32().ok()?))
}

/// Encode a response into `out` (cleared first).
pub fn encode_response(out: &mut Vec<u8>, hdr: RespHeader, payload: &[u8]) {
    out.clear();
    Enc::new(out)
        .u16(hdr.version)
        .u8(KIND_RESPONSE)
        .u8(hdr.status.map_or(0, |e| wire::code_of(&ERRORS, e)))
        .u64(hdr.corr)
        .bytes_u32(payload);
}

/// Decode a response header from the front of a frame; the payload is
/// `buf[RESP_HEADER_LEN..RESP_HEADER_LEN + len]`. Returns the header and
/// payload length (the caller may hold only the header bytes).
pub fn decode_response(buf: &[u8]) -> Option<(RespHeader, usize)> {
    let mut d = Dec::new(buf);
    let hdr = RespHeader {
        version: version_of(&mut d, KIND_RESPONSE)?,
        status: match d.u8().ok()? {
            0 => None,
            code => Some(wire::from_code(&ERRORS, code)?),
        },
        corr: d.u64().ok()?,
    };
    Some((hdr, d.u32().ok()? as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        let hdr = ReqHeader {
            version: RPC_SCHEMA_VERSION,
            method: 7,
            corr: (3u64 << 32) | 9,
            deadline_ns: 123_456,
            idem: 42,
        };
        encode_request(&mut buf, hdr, b"payload!");
        let (dec, payload) = decode_request(&buf).expect("decodes");
        assert_eq!(dec, hdr);
        assert_eq!(payload, b"payload!");
    }

    #[test]
    fn response_roundtrip_ok_and_error() {
        let mut buf = Vec::new();
        let ok = RespHeader {
            version: RPC_SCHEMA_VERSION,
            status: None,
            corr: 5,
        };
        encode_response(&mut buf, ok, b"xyz");
        let (dec, len) = decode_response(&buf).expect("decodes");
        assert_eq!(dec, ok);
        assert_eq!(len, 3);

        for e in [
            RpcError::Deadline,
            RpcError::Cancelled,
            RpcError::PeerUnreachable,
            RpcError::VersionMismatch,
            RpcError::Overload,
        ] {
            let hdr = RespHeader {
                version: RPC_SCHEMA_VERSION,
                status: Some(e),
                corr: 5,
            };
            encode_response(&mut buf, hdr, b"");
            let (dec, _) = decode_response(&buf).expect("decodes");
            assert_eq!(dec.status, Some(e));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_request(&[]).is_none());
        assert!(decode_response(&[]).is_none());
        assert!(decode_request(&[0u8; REQ_HEADER_LEN - 1]).is_none());
        // A request frame is not a response and vice versa.
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            ReqHeader {
                version: 1,
                method: 0,
                corr: 0,
                deadline_ns: NO_DEADLINE,
                idem: 0,
            },
            b"",
        );
        assert!(decode_response(&buf).is_none());
    }
}
