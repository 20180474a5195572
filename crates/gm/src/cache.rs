//! GMKRC wiring: transparent on-the-fly registration for GM sends and
//! receive buffers.
//!
//! The paper's GM kernel registration cache (§3.2): buffers are registered
//! the first time they are used; deregistration is deferred until the NIC
//! translation table (or the cache's own budget) runs out, and then done in
//! LRU batches to amortize the 200 µs deregistration base. VMA SPY keeps the
//! cache coherent: `munmap`/`mprotect`/exit drop the affected entries and
//! pay a real deregistration.

use knet_core::{MemRef, NetError, RegKey};
use knet_simcore::SimTime;
use knet_simnic::TransKey;
use knet_simos::{cpu_charge, Asid, FrameIdx, NodeId, VirtAddr, VmaEvent};

use crate::layer::{GmPortId, GmWorld};
use crate::params::{deregister_cost, DEREG_PER_PAGE, REG_PER_PAGE, REG_SYSCALL};

/// Evictions happen in batches of this fraction of the cache capacity, so
/// one 200 µs deregistration pays for many future registrations (the
/// pin-down cache's whole point, §2.2.2).
const EVICT_BATCH_DIVISOR: usize = 2;

/// Ensure `[addr, addr+len)` of `asid` is registered through the port's
/// registration cache, registering (and evicting) as needed. Returns when
/// the host-side work completes. Errors if the port has no cache.
pub fn gm_ensure_cached<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    asid: Asid,
    addr: VirtAddr,
    len: u64,
) -> Result<SimTime, NetError> {
    let (node, nic, is_kernel) = {
        let p = w.gm().port(port_id)?;
        if p.regcache.is_none() {
            return Err(NetError::Unsupported);
        }
        (p.node, p.nic, p.mode.is_kernel())
    };

    // Take the cache and the layer's scratch out while we work (split
    // borrows; the scratch makes the steady-state hit path allocation-free).
    let mut cache = w
        .gm_mut()
        .port_mut(port_id)?
        .regcache
        .take()
        .expect("checked above");
    let mut plan = std::mem::take(&mut w.gm_mut().scratch.plan);
    let mut victims = std::mem::take(&mut w.gm_mut().scratch.victims);
    let cap_before = plan.missing.capacity() + victims.capacity();

    cache.plan_range_into(asid, addr, len, &mut plan);
    let mut registered_pages = 0u64;
    let mut deregistered_pages = 0u64;
    let mut dereg_batches = 0u64;
    let mut failure: Option<NetError> = None;

    if !plan.missing.is_empty() {
        // Budget pressure: evict a batch before registering. Victim
        // selection is O(1) per entry off the cache's intrusive LRU tail.
        let over = cache.pressure(plan.missing.len());
        if over > 0 {
            let batch = over.max(cache.capacity() / EVICT_BATCH_DIVISOR);
            cache.evict_lru_into(batch.min(cache.len()), &mut victims);
            deregistered_pages += victims.len() as u64;
            dereg_batches += 1;
            drop_registrations(w, nic, node, &victims);
        }
        for page in &plan.missing {
            match register_one(w, nic, node, asid, *page) {
                Ok(frame) => {
                    cache.commit(RegKey::of(asid, *page), frame);
                    registered_pages += 1;
                }
                Err(NetError::TableFull) => {
                    // Someone else exhausted the NIC table: evict harder.
                    cache.evict_lru_into((cache.len() / 2).max(1), &mut victims);
                    if victims.is_empty() {
                        failure = Some(NetError::TableFull);
                        break;
                    }
                    deregistered_pages += victims.len() as u64;
                    dereg_batches += 1;
                    drop_registrations(w, nic, node, &victims);
                    match register_one(w, nic, node, asid, *page) {
                        Ok(frame) => {
                            cache.commit(RegKey::of(asid, *page), frame);
                            registered_pages += 1;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
    }

    // Put the cache and the scratch back, and account.
    {
        let cap_after = plan.missing.capacity() + victims.capacity();
        let scratch = &mut w.gm_mut().scratch;
        victims.clear();
        scratch.plan = plan;
        scratch.victims = victims;
        scratch.stats.note(cap_before, cap_after);
    }
    {
        let p = w.gm_mut().port_mut(port_id)?;
        p.regcache = Some(cache);
        p.stats.pages_registered += registered_pages;
        p.stats.pages_deregistered += deregistered_pages;
        p.stats.dereg_batches += dereg_batches;
    }
    if let Some(e) = failure {
        return Err(e);
    }

    // Host cost: per-page registration (+ one syscall per miss batch from
    // user space), plus any amortized deregistration batches.
    let mut cost = REG_PER_PAGE * registered_pages;
    if registered_pages > 0 && !is_kernel {
        cost += REG_SYSCALL;
    }
    for _ in 0..dereg_batches {
        cost += deregister_cost(0);
    }
    cost += DEREG_PER_PAGE * deregistered_pages;
    Ok(cpu_charge(w, node, cost))
}

fn register_one<W: GmWorld>(
    w: &mut W,
    nic: knet_simnic::NicId,
    node: NodeId,
    asid: Asid,
    page: VirtAddr,
) -> Result<FrameIdx, NetError> {
    // Kernel direct-map memory is unswappable: no pinning, translation by
    // subtraction. Only the NIC-table entry is needed (stock GM requires
    // kernel buffers to be registered like any other, §2.2.2 / Table 1).
    let phys = if asid.is_kernel() {
        page.kernel_to_phys()
            .ok_or(knet_core::NetError::BadAddressClass)?
    } else {
        w.os_mut().node_mut(node).pin_range(asid, page, 1)?;
        w.os().node(node).space(asid)?.translate(page)?
    };
    let frame = FrameIdx::from_phys(phys);
    let tt = &mut w.nics_mut().get_mut(nic).ttable;
    if let Err(e) = tt.insert(
        TransKey {
            asid,
            vpn: page.vpn(),
        },
        phys,
    ) {
        if !asid.is_kernel() {
            w.os_mut().node_mut(node).mem.unpin(frame).ok();
        }
        return Err(e.into());
    }
    Ok(frame)
}

fn drop_registrations<W: GmWorld>(
    w: &mut W,
    nic: knet_simnic::NicId,
    node: NodeId,
    victims: &[(RegKey, FrameIdx)],
) {
    for (key, frame) in victims {
        w.nics_mut().get_mut(nic).ttable.remove(TransKey {
            asid: key.asid,
            vpn: key.vpn,
        });
        // Kernel pages were never pinned by the cache (direct map).
        if !key.asid.is_kernel() {
            w.os_mut().node_mut(node).mem.unpin(*frame).ok();
        }
    }
}

/// GMKRC's rule, the first step of [`crate::gm_send_t`] and
/// [`crate::gm_provide_receive_buffer`] on a port with a cache: register
/// user memory on the fly and, on a stock port (no physical-address
/// patch), kernel memory too — the channel layer's coalescing staging
/// buffers and an in-kernel client's receive buffers take that path.
pub(crate) fn register_on_the_fly<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    seg: &MemRef,
) -> Result<(), NetError> {
    let p = w.gm().port(port_id)?;
    if p.regcache.is_none() {
        return Ok(());
    }
    let (asid, addr, len) = match *seg {
        MemRef::UserVirtual { asid, addr, len } => (asid, addr, len),
        MemRef::KernelVirtual { addr, len } if !p.physical_api => (Asid::KERNEL, addr, len),
        _ => return Ok(()),
    };
    gm_ensure_cached(w, port_id, asid, addr, len).map(drop)
}

/// VMA SPY subscriber for GM: invalidate every port cache on `node` that the
/// event touches, deregistering and unpinning the stale pages. The composed
/// world routes `OsWorld::vma_event` here.
pub fn gm_on_vma_event<W: GmWorld>(w: &mut W, node: NodeId, ev: &VmaEvent) {
    let ports: Vec<GmPortId> = w.gm().ports_on(node).collect();
    let mut dropped = std::mem::take(&mut w.gm_mut().scratch.victims);
    for pid in ports {
        let Ok(port) = w.gm_mut().port_mut(pid) else {
            continue;
        };
        let Some(mut cache) = port.regcache.take() else {
            continue;
        };
        let nic = port.nic;
        cache.invalidate_into(ev, &mut dropped);
        if let Ok(p) = w.gm_mut().port_mut(pid) {
            p.regcache = Some(cache);
            if !dropped.is_empty() {
                p.stats.pages_deregistered += dropped.len() as u64;
                p.stats.dereg_batches += 1;
            }
        }
        if !dropped.is_empty() {
            drop_registrations(w, nic, node, &dropped);
            // The kernel pays a real deregistration in the munmap path.
            let cost = deregister_cost(dropped.len() as u64);
            cpu_charge(w, node, cost);
        }
    }
    dropped.clear();
    w.gm_mut().scratch.victims = dropped;
}
