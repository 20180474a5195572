//! The NBD wire protocol: sector-addressed block transfers.

use knet_core::wire::{Dec, Enc};

/// Sector size: one page, matching the page-cache granularity the client
/// manipulates (the paper's Linux 2.4 NBD moved page-sized bios).
pub const SECTOR_SIZE: u64 = 4096;

/// A block request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NbdRequest {
    /// Read `count` sectors starting at `sector`; the reply is a bare data
    /// message under the request tag.
    Read { sector: u64, count: u32 },
    /// Write `count` sectors starting at `sector`; payload follows inline.
    Write { sector: u64, count: u32 },
}

const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
/// Encoded request header size.
pub const HEADER_LEN: usize = 1 + 8 + 4;

impl NbdRequest {
    pub fn encode(&self) -> Vec<u8> {
        let (op, sector, count) = match *self {
            NbdRequest::Read { sector, count } => (OP_READ, sector, count),
            NbdRequest::Write { sector, count } => (OP_WRITE, sector, count),
        };
        let mut v = Vec::with_capacity(HEADER_LEN);
        Enc::new(&mut v).u8(op).u64(sector).u32(count);
        v
    }

    pub fn decode(buf: &[u8]) -> Option<(NbdRequest, usize)> {
        let mut d = Dec::new(buf);
        let (op, sector, count) = (d.u8().ok()?, d.u64().ok()?, d.u32().ok()?);
        let req = match op {
            OP_READ => NbdRequest::Read { sector, count },
            OP_WRITE => NbdRequest::Write { sector, count },
            _ => return None,
        };
        Some((req, d.pos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for r in [
            NbdRequest::Read {
                sector: 123,
                count: 8,
            },
            NbdRequest::Write {
                sector: u64::MAX / 2,
                count: 1,
            },
        ] {
            let enc = r.encode();
            assert_eq!(enc.len(), HEADER_LEN);
            let (dec, used) = NbdRequest::decode(&enc).unwrap();
            assert_eq!(dec, r);
            assert_eq!(used, HEADER_LEN);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(NbdRequest::decode(&[]).is_none());
        assert!(NbdRequest::decode(&[9u8; HEADER_LEN]).is_none());
        assert!(NbdRequest::decode(&[1u8; 4]).is_none());
    }
}
