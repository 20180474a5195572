//! The memory a cluster costs before it does anything, *asserted*.
//!
//! Per-node state must materialize on first use: a node's frame metadata
//! when the allocator first hands the frame out, a NIC's translation index
//! at the first registration, the registry's and the reliability layer's
//! records at the first endpoint and the first packet. This test builds a
//! 1000-node cluster at the builder's default memory size — 65 536 frames
//! per node, where one eager 40-byte record per frame alone would be
//! 2.6 GB — and holds the live heap to a budget that leaves room for
//! nothing per-frame and little per-node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use knet::build::ClusterBuilder;
use knet::harness::kbuf;
use knet_core::api::{channel_connect, channel_post_recv, channel_send};
use knet_mx::MxEndpointConfig;
use knet_simos::{CpuModel, NodeId};

/// Counts live heap bytes of the whole process (statistics only: `Relaxed`).
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const NODES: usize = 1000;
const BUDGET: usize = 64 << 20;

#[test]
fn a_thousand_default_sized_nodes_fit_the_heap_budget() {
    let before = LIVE.load(Relaxed);
    let mut w = ClusterBuilder::new()
        .nodes(NODES, CpuModel::xeon_2600())
        .build();
    let cq = w.new_cq();
    let eps: Vec<_> = (0..NODES as u32)
        .map(|n| {
            w.open_mx_cq(NodeId(n), MxEndpointConfig::kernel(), cq)
                .unwrap()
        })
        .collect();
    let built = LIVE.load(Relaxed) - before;
    assert!(
        built <= BUDGET,
        "{NODES} idle nodes hold {} MB of heap (budget {} MB): \
         something is pre-allocated per node or per frame again",
        built >> 20,
        BUDGET >> 20
    );

    // The world is a working one: every node sends its ring neighbour one
    // small message, and the budget still holds with the traffic's state
    // (kernel buffers, channels, link windows) in place.
    let bufs: Vec<_> = (0..NODES as u32)
        .map(|n| kbuf(&mut w, NodeId(n), 4096))
        .collect();
    let chans: Vec<_> = (0..NODES)
        .map(|n| channel_connect(&mut w, eps[n], eps[(n + 1) % NODES], cq))
        .collect();
    for n in 0..NODES {
        channel_post_recv(&mut w, chans[n], 1, bufs[n].iov(64)).unwrap();
    }
    for n in 0..NODES {
        channel_send(&mut w, chans[n], 1, bufs[n].iov(64)).unwrap();
    }
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(
        w.registry.cq_len(cq),
        2 * NODES,
        "a SendDone and a RecvDone each"
    );
    let peak = PEAK.load(Relaxed) - before;
    assert!(
        peak <= BUDGET,
        "one ring round peaked at {} MB of heap (budget {} MB)",
        peak >> 20,
        BUDGET >> 20
    );
}
