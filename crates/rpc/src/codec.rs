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
//! success or an [`RpcError`] discriminant.

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

fn err_code(e: RpcError) -> u8 {
    match e {
        RpcError::Deadline => 1,
        RpcError::Cancelled => 2,
        RpcError::PeerUnreachable => 3,
        RpcError::VersionMismatch => 4,
        RpcError::Overload => 5,
    }
}

fn err_from_code(c: u8) -> Option<RpcError> {
    match c {
        1 => Some(RpcError::Deadline),
        2 => Some(RpcError::Cancelled),
        3 => Some(RpcError::PeerUnreachable),
        4 => Some(RpcError::VersionMismatch),
        5 => Some(RpcError::Overload),
        _ => None,
    }
}

/// Encode a request into `out` (cleared first; re-using a recycled scratch
/// buffer keeps the warm path allocation-free).
pub fn encode_request(out: &mut Vec<u8>, hdr: ReqHeader, payload: &[u8]) {
    out.clear();
    out.extend_from_slice(&hdr.version.to_le_bytes());
    out.push(KIND_REQUEST);
    out.extend_from_slice(&hdr.method.to_le_bytes());
    out.extend_from_slice(&hdr.corr.to_le_bytes());
    out.extend_from_slice(&hdr.deadline_ns.to_le_bytes());
    out.extend_from_slice(&hdr.idem.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode a request frame into its header and payload slice.
pub fn decode_request(buf: &[u8]) -> Option<(ReqHeader, &[u8])> {
    if buf.len() < REQ_HEADER_LEN || buf[2] != KIND_REQUEST {
        return None;
    }
    let hdr = ReqHeader {
        version: u16::from_le_bytes(buf[0..2].try_into().ok()?),
        method: u16::from_le_bytes(buf[3..5].try_into().ok()?),
        corr: u64::from_le_bytes(buf[5..13].try_into().ok()?),
        deadline_ns: u64::from_le_bytes(buf[13..21].try_into().ok()?),
        idem: u64::from_le_bytes(buf[21..29].try_into().ok()?),
    };
    let len = u32::from_le_bytes(buf[29..33].try_into().ok()?) as usize;
    let payload = buf.get(REQ_HEADER_LEN..REQ_HEADER_LEN + len)?;
    Some((hdr, payload))
}

/// Encode a response into `out` (cleared first).
pub fn encode_response(out: &mut Vec<u8>, hdr: RespHeader, payload: &[u8]) {
    out.clear();
    out.extend_from_slice(&hdr.version.to_le_bytes());
    out.push(KIND_RESPONSE);
    out.push(hdr.status.map(err_code).unwrap_or(0));
    out.extend_from_slice(&hdr.corr.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode a response header from the front of a frame; the payload is
/// `buf[RESP_HEADER_LEN..RESP_HEADER_LEN + len]`. Returns the header and
/// payload length (the caller may hold only the header bytes).
pub fn decode_response(buf: &[u8]) -> Option<(RespHeader, usize)> {
    if buf.len() < RESP_HEADER_LEN || buf[2] != KIND_RESPONSE {
        return None;
    }
    let code = buf[3];
    let status = if code == 0 {
        None
    } else {
        Some(err_from_code(code)?)
    };
    let hdr = RespHeader {
        version: u16::from_le_bytes(buf[0..2].try_into().ok()?),
        status,
        corr: u64::from_le_bytes(buf[4..12].try_into().ok()?),
    };
    let len = u32::from_le_bytes(buf[12..16].try_into().ok()?) as usize;
    Some((hdr, len))
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
