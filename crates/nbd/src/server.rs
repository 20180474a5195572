//! The NBD server: a virtual disk behind a transport endpoint.

use knet_core::api::{channel_accept_handler, channel_send_to};
use knet_core::{
    ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, StagingRing, TransportEvent,
    REQ_ID_MASK,
};
use knet_simcore::SimTime;
use knet_simos::{cpu_charge, Asid};

use crate::proto::{NbdRequest, SECTOR_SIZE};
use crate::NbdWorld;

/// Identifier of an NBD server instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NbdServerId(pub u32);

/// An in-memory virtual disk with a per-sector access-time model (warm
/// server cache, as for the ORFS evaluation).
pub struct VirtualDisk {
    sectors: Vec<Option<Box<[u8]>>>,
    pub sector_access: SimTime,
}

impl VirtualDisk {
    pub fn new(sector_count: u64) -> Self {
        let mut sectors = Vec::with_capacity(sector_count as usize);
        sectors.resize_with(sector_count as usize, || None);
        VirtualDisk {
            sectors,
            sector_access: SimTime::from_nanos(400),
        }
    }

    pub fn sector_count(&self) -> u64 {
        self.sectors.len() as u64
    }

    /// Read `count` sectors; unwritten sectors read as zeroes. Returns
    /// `None` when the range is out of bounds.
    pub fn read(&self, sector: u64, count: u32) -> Option<Vec<u8>> {
        let end = sector.checked_add(count as u64)?;
        if end > self.sector_count() {
            return None;
        }
        let mut out = vec![0u8; count as usize * SECTOR_SIZE as usize];
        for i in 0..count as usize {
            if let Some(data) = &self.sectors[sector as usize + i] {
                let off = i * SECTOR_SIZE as usize;
                out[off..off + SECTOR_SIZE as usize].copy_from_slice(data);
            }
        }
        Some(out)
    }

    /// Write sector-aligned data; returns false when out of bounds.
    pub fn write(&mut self, sector: u64, data: &[u8]) -> bool {
        let count = data.len() as u64 / SECTOR_SIZE;
        let end = sector.checked_add(count);
        if !(data.len() as u64).is_multiple_of(SECTOR_SIZE)
            || end.is_none_or(|e| e > self.sector_count())
        {
            return false;
        }
        for i in 0..count as usize {
            let off = i * SECTOR_SIZE as usize;
            let slot = &mut self.sectors[sector as usize + i];
            let dst =
                slot.get_or_insert_with(|| vec![0u8; SECTOR_SIZE as usize].into_boxed_slice());
            dst.copy_from_slice(&data[off..off + SECTOR_SIZE as usize]);
        }
        true
    }
}

/// One NBD server.
pub struct NbdServer {
    pub id: NbdServerId,
    pub ep: Endpoint,
    /// The accept-side channel serving every client of `ep` (replies go
    /// out with [`channel_send_to`]).
    pub ch: ChannelId,
    pub disk: VirtualDisk,
    /// Kernel staging ring for outgoing replies.
    ring: StagingRing,
    pub requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

const RING: u64 = 4 << 20;

/// Create a server exporting a `sector_count`-sector disk behind `ep`.
pub fn nbd_server_create<W: NbdWorld>(
    w: &mut W,
    ep: Endpoint,
    sector_count: u64,
) -> Result<NbdServerId, NetError> {
    let ring = w.os_mut().node_mut(ep.node).kalloc(RING)?;
    let id = NbdServerId(w.nbd().servers.len() as u32);
    // Accept-side handler-backed channel: one endpoint, many clients.
    let ch = channel_accept_handler(
        w,
        ep,
        &format!("nbd-server-{}", id.0),
        move |w, _via, ev| nbd_on_server_event(w, id, ev),
    );
    w.nbd_mut().servers.push(NbdServer {
        id,
        ep,
        ch,
        disk: VirtualDisk::new(sector_count),
        ring: StagingRing::new(ring, Asid::KERNEL, RING),
        requests: 0,
        bytes_read: 0,
        bytes_written: 0,
    });
    Ok(id)
}

/// Stage a reply in the server's ring (`None`: it can never fit).
fn stage<W: NbdWorld>(w: &mut W, sid: NbdServerId, reply: &[u8]) -> Option<MemRef> {
    let node = w.nbd().servers[sid.0 as usize].ep.node;
    ring_stage(
        w,
        node,
        |w| &mut w.nbd_mut().servers[sid.0 as usize].ring,
        &[reply],
    )
}

/// Transport upcall for NBD server `sid`.
pub fn nbd_on_server_event<W: NbdWorld>(w: &mut W, sid: NbdServerId, ev: TransportEvent) {
    let TransportEvent::Unexpected { tag, data, from } = ev else {
        return;
    };
    let Some((req, used)) = NbdRequest::decode(&data) else {
        return;
    };
    let node = w.nbd().servers[sid.0 as usize].ep.node;
    let ch = w.nbd().servers[sid.0 as usize].ch;
    // Request dispatch cost.
    cpu_charge(w, node, SimTime::from_nanos(600));
    w.nbd_mut().servers[sid.0 as usize].requests += 1;
    // A range off the end of the disk is refused: the reply goes under
    // the request's companion tag, and the client fails the op typed.
    let refused = tag | !REQ_ID_MASK;
    match req {
        NbdRequest::Read { sector, count } => {
            let (payload, access) = {
                let s = &mut w.nbd_mut().servers[sid.0 as usize];
                let access = s.disk.sector_access * count as u64;
                // `count` is wire input: a range the ring could never
                // stage is refused like one off the end of the disk,
                // before anything is read for it.
                let fits = count as u64 * SECTOR_SIZE <= RING;
                (fits.then(|| s.disk.read(sector, count)).flatten(), access)
            };
            cpu_charge(w, node, access);
            let Some(payload) = payload else {
                let seg = stage(w, sid, &[]).expect("an empty refusal fits the ring");
                let _ = channel_send_to(w, ch, from, refused, IoVec::single(seg));
                return;
            };
            let n = payload.len() as u64;
            // Stage into the kernel ring (disk cache → network memory).
            let copy = w.os().node(node).cpu.model.memcpy_cost(n);
            cpu_charge(w, node, copy);
            let seg = stage(w, sid, &payload).expect("reads are bounded by RING");
            w.nbd_mut().servers[sid.0 as usize].bytes_read += n;
            let _ = channel_send_to(w, ch, from, tag, IoVec::single(seg));
        }
        NbdRequest::Write { sector, .. } => {
            let payload = data.slice(used..);
            let (ok, access) = {
                let s = &mut w.nbd_mut().servers[sid.0 as usize];
                let ok = s.disk.write(sector, &payload);
                if ok {
                    s.bytes_written += payload.len() as u64;
                }
                let access = s.disk.sector_access * (payload.len() as u64 / SECTOR_SIZE).max(1);
                (ok, access)
            };
            cpu_charge(w, node, access);
            // Acknowledge with a 1-byte status message, or refuse.
            let (reply, status): (u64, &[u8]) = if ok { (tag, &[0]) } else { (refused, &[]) };
            let seg = stage(w, sid, status).expect("one status byte fits the ring");
            let _ = channel_send_to(w, ch, from, reply, IoVec::single(seg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_rw_roundtrip() {
        let mut d = VirtualDisk::new(16);
        let data = vec![7u8; 2 * SECTOR_SIZE as usize];
        assert!(d.write(3, &data));
        let back = d.read(3, 2).unwrap();
        assert_eq!(back, data);
        // Unwritten sectors read as zeroes.
        let z = d.read(0, 1).unwrap();
        assert!(z.iter().all(|&b| b == 0));
    }

    #[test]
    fn disk_bounds_checked() {
        let mut d = VirtualDisk::new(4);
        assert!(d.read(3, 2).is_none());
        assert!(d.read(4, 1).is_none());
        assert!(!d.write(3, &vec![0u8; 2 * SECTOR_SIZE as usize]));
        assert!(!d.write(0, &[1u8; 100])); // unaligned
        assert!(!d.write(u64::MAX, &[0u8; SECTOR_SIZE as usize])); // overflows
    }
}
