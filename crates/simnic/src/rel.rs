//! Driver-level reliability: a **selective-repeat** ack/retransmit window
//! per `(proto, src, dst)` link.
//!
//! GM and MX present a *reliable* message service to their clients; on real
//! Myrinet hardware that reliability is implemented by the NIC control
//! program (the Yu et al. line of work on NIC-level retransmission windows).
//! This module is that firmware seam: the drivers hand every protocol
//! packet to [`rel_send`] instead of the raw wire, and filter every inbound
//! packet through [`rel_on_packet`] — everything above `channel_send` keeps
//! the exact contract it has on a perfect fabric.
//!
//! Mechanics:
//!
//! * every data/control packet carries a per-link sequence number
//!   (`Packet::rel_seq`, assigned here; only this crate and the two drivers
//!   may touch the raw field — enforced by the grep gate);
//! * at most [`RelParams::window`] packets are unacked per link; excess
//!   sends park in submission order and go out as acks arrive;
//! * the receiver dedupes against a 64-bit window bitmap, delivers fresh
//!   packets immediately (upper-layer reassembly is offset-based, so
//!   arrival order does not matter), and returns a **cumulative ack plus a
//!   64-bit SACK bitmap** of everything received beyond the cumulative
//!   point;
//! * acks are not packets: they ride the Myrinet control stream as
//!   control symbols — cut-through latency, no data-link bandwidth, no
//!   host/firmware charge (the drivers' calibrated per-message costs
//!   already subsume the real firmware's internal ack handling), and the
//!   arrival event updates the sender's window directly without
//!   re-entering the drivers. Each ack also echoes the wire-departure
//!   timestamp of the packet that triggered it (`Packet::rel_tsval`,
//!   stamped by `wire_send`), feeding the sender's RTT estimator;
//! * the retransmit timer is **adaptive**: SRTT/RTTVAR in virtual time
//!   (RFC 6298 smoothing over the ack-echoed timestamps), RTO =
//!   `clamp(srtt + 4·rttvar, min_rto, max_rto)`, doubled on every
//!   fruitless round (exponential backoff) and re-derived from the
//!   estimator once acks progress again;
//! * when the timer finds a stale link it performs **selective repeat**:
//!   only the *holes* — unacked packets the SACK state has not covered —
//!   are resent; SACKed packets inside the window are never retransmitted
//!   (counted in [`RelStats::sack_repairs`] as the resends a go-back-N
//!   round would have wasted). [`RelParams::max_retries`] fruitless rounds
//!   declare the link **dead**: the window is torn down, subsequent sends
//!   fail synchronously, and the composed world is told through
//!   [`NicWorld::nic_link_dead`] so `PeerDown` reaches the channels above
//!   that face the dead node.
//! * a retransmission that turns out to have been unnecessary — the ack
//!   that finally progresses echoes a timestamp *older* than the last RTO
//!   round, so the original copy had arrived all along (Eifel detection) —
//!   is counted in [`RelStats::spurious_rtos`], and the backed-off RTO is
//!   restored to its pre-backoff value on the spot (the doubling was paid
//!   for a timeout that never happened);
//! * the sender also runs a **congestion control loop** on top of the
//!   fixed window ([`RelParams::cc`]): a per-link AIMD congestion window
//!   gates how much of the 64-packet cap may be in flight. The window
//!   opens at the full cap — a clean fabric never parks a packet it would
//!   not have parked before — and the loop engages on the first loss
//!   indication: multiplicative decrease to half on a fast retransmit, a
//!   collapse to [`CWND_FLOOR`] on an RTO, slow-start (one packet per
//!   acked packet) back to `ssthresh`, then additive increase (one packet
//!   per acked round) to the cap;
//! * **SACK fast retransmit** ([`RelParams::dupack_k`]): an ack that
//!   carries SACK bits but no cumulative progress is a duplicate-SACK loss
//!   indication — the receiver holds data beyond a hole. `dupack_k` of
//!   them repair the holes below the highest SACKed sequence immediately,
//!   without waiting for the RTO, with one multiplicative decrease per
//!   recovery episode (no second cut until the window base passes the
//!   episode's entry point). The default of 3 tolerates the depth-1
//!   reorder that dual-link striping introduces;
//! * retransmission rounds — RTO and fast alike — are **paced** across the
//!   link serialization time (packet *i* of a round is released `i`
//!   packet-times after the first) instead of blasted at one instant, so
//!   recovery traffic drains at line rate instead of re-congesting the
//!   path that just dropped it;
//! * the receiver acks **every packet** at its arrival instant —
//!   duplicates included, so a lost ack is repaired by the retransmission
//!   it caused — echoing that packet's timestamp, so RTT samples are
//!   undistorted;
//! * dead links are **reclaimed**: retry-budget exhaustion removes the
//!   sender ring, the receiver bitmap of the reverse direction and the
//!   lazily-derived fault dice streams of the node pair (when no other
//!   live link shares them), leaving only a tombstone — the link's record
//!   with both halves dropped — so [`RelState::link_dead`] keeps failing
//!   fast and stragglers are swallowed: link churn no longer grows the
//!   rings forever.
//! * link state is found by **one probe per packet**: both halves and the
//!   tombstone of a directed link live in one record of one table, hashed
//!   with `knet_simcore::IdHasher` — link keys are NIC ids this program
//!   minted, so they need no SipHash, and without per-process hash state
//!   the table's iteration order repeats across runs and processes.
//!
//! Lossless-path invariance: within the window, transmissions are the very
//! same `wire_send` calls at the very same instants as without the window,
//! and acks are cost-free — so calibrated latency/bandwidth figures do not
//! move. The congestion window starts wide open and only narrows on loss,
//! so a clean fabric takes exactly the pre-control-loop event sequence. The window structures are recycled
//! (`RelStats::grows` stays flat in steady state, asserted by
//! `tests/hotpath_alloc.rs`); the SACK bitmap is one machine word per link
//! and the RTT estimator three inline fields, so ack processing allocates
//! nothing — the congestion state is five more inline integers under the
//! same contract.

use std::collections::VecDeque;

use knet_simcore::{IdHashMap, SimTime};

use crate::fault::FaultVerdict;
use crate::layer::{wire_send, NicEv, NicWorld};
use crate::packet::{NicId, Packet, Proto};

/// Tuning of the reliability window.
#[derive(Clone, Copy, Debug)]
pub struct RelParams {
    /// Maximum unacked packets per link (≤ 64: the receiver dedupe bitmap
    /// and the SACK bitmap are one word).
    pub window: usize,
    /// Initial retransmit-timer period, used until the first RTT sample
    /// seeds the estimator.
    pub rto: SimTime,
    /// Floor of the adaptive RTO: even on a fast fabric the timer never
    /// fires earlier than this after the last transmission/ack progress
    /// (guards against spurious retransmits from ack-processing jitter).
    pub min_rto: SimTime,
    /// Ceiling of the adaptive RTO and of its exponential backoff.
    pub max_rto: SimTime,
    /// Fruitless retransmission rounds before the link is declared dead.
    pub max_retries: u32,
    /// Duplicate-SACK indications (acks carrying SACK bits but no
    /// cumulative progress) that trigger a fast retransmit. `0` disables
    /// fast retransmit entirely (the pre-control-loop sender). The default
    /// of 3 tolerates the depth-1 reorder dual-link striping introduces.
    pub dupack_k: u32,
    /// Run the AIMD congestion window. When off, the fixed
    /// [`RelParams::window`] is the only in-flight bound (the
    /// pre-control-loop sender).
    pub cc: bool,
}

/// Smallest congestion window the control loop will shrink to: an RTO
/// collapses `cwnd` here (a minimal two-packet pipeline keeps the RTT
/// estimator fed during recovery), and a multiplicative decrease never
/// goes below it.
pub const CWND_FLOOR: usize = 2;

impl Default for RelParams {
    fn default() -> Self {
        RelParams {
            window: 64,
            rto: SimTime::from_micros(200),
            min_rto: SimTime::from_micros(50),
            max_rto: SimTime::from_millis(2),
            max_retries: 8,
            dupack_k: 3,
            cc: true,
        }
    }
}

impl RelParams {
    /// The pre-control-loop sender: fixed 64-deep window, no fast
    /// retransmit. The incast bench measures the control loop against
    /// exactly this baseline.
    pub fn fixed_window() -> Self {
        RelParams {
            cc: false,
            dupack_k: 0,
            ..Self::default()
        }
    }
}

knet_simcore::counters! {
    /// Reliability counters (observable by tests, figures and reports).
    pub struct RelStats {
        /// Sequenced packets handed to the window.
        pub data_packets: u64,
        /// Cumulative acks emitted.
        pub acks_sent: u64,
        /// Inbound packets dropped as duplicates (loss recovery working).
        pub dup_dropped: u64,
        /// Packets resent by retransmission rounds (holes only — a SACKed
        /// packet is never among them).
        pub retransmits: u64,
        /// Timer periods that elapsed with zero ack progress.
        pub timeouts: u64,
        /// Sends parked because the window was full.
        pub parked: u64,
        /// Links declared dead after an exhausted retry budget.
        pub dead_links: u64,
        /// Cumulative acks received.
        pub acks_recv: u64,
        /// Received acks that advanced a window base.
        pub ack_progress: u64,
        /// Link states ever created (flat in steady state).
        pub links: u64,
        /// Structure-growth events — ring reallocations while queueing
        /// (warm-up only in steady state).
        pub grows: u64,
        /// Window entries marked received via the SACK bitmap (ahead of the
        /// cumulative ack).
        pub sacked: u64,
        /// Packets a retransmission round *skipped* because SACK state showed
        /// the receiver already has them — exactly the resends go-back-N would
        /// have wasted.
        pub sack_repairs: u64,
        /// RTT samples fed to the estimator (one per ack arrival).
        pub rtt_samples: u64,
        /// Retransmission rounds later proven unnecessary: the ack that
        /// progressed echoed a pre-RTO timestamp (Eifel detection).
        pub spurious_rtos: u64,
        /// Latest smoothed RTT observed on any link, in nanoseconds.
        pub srtt_ns: u64 = Gauge,
        /// Latest adaptive RTO derived on any link, in nanoseconds.
        pub rto_ns: u64 = Gauge,
        /// Fast-retransmit rounds fired by duplicate-SACK indications (the
        /// packets they resent are in `retransmits`).
        pub fast_retransmits: u64,
        /// Multiplicative decreases of a congestion window (one per recovery
        /// episode or RTO collapse).
        pub cwnd_cuts: u64,
        /// Sequenced packets swallowed because their link was already dead
        /// (stragglers after reclaim).
        pub dead_dropped: u64,
        /// Drop notifications sent by a receiver NIC whose rx FIFO shed a
        /// sequenced packet (GM-style NACKs).
        pub nacks: u64,
        /// Packets resent immediately in response to a NACK (also counted in
        /// `retransmits`).
        pub nack_resends: u64,
    }
}

/// One transmitted-but-unacked packet in a sender window.
struct TxEntry {
    pkt: Packet,
    /// Receiver has SACKed this sequence: never retransmit it.
    acked: bool,
}

/// Per-link slice of the aggregate [`RelStats`] counters (sender side),
/// kept inline in the link state — no extra map, no steady-state cost
/// beyond a few adds.
#[derive(Clone, Copy, Default, Debug)]
struct LinkCounters {
    data_packets: u64,
    retransmits: u64,
    timeouts: u64,
    sacked: u64,
    sack_repairs: u64,
    rtt_samples: u64,
    spurious_rtos: u64,
    fast_retransmits: u64,
}

/// One row of the per-link reliability breakdown
/// ([`RelState::link_breakdown`]): the counters of a single directed link,
/// so a hot link (a collective tree's root edge, an asymmetric-loss
/// victim) is attributable instead of averaged into [`RelStats`].
#[derive(Clone, Copy, Debug)]
pub struct RelLinkStats {
    pub proto: Proto,
    pub src: NicId,
    pub dst: NicId,
    /// Data packets sequenced onto this link.
    pub data_packets: u64,
    /// Hole packets resent by selective-repeat rounds.
    pub retransmits: u64,
    /// Retransmission rounds fired.
    pub timeouts: u64,
    /// Window entries marked received-out-of-order by SACK.
    pub sacked: u64,
    /// Resends a go-back-N would have made that SACK state spared.
    pub sack_repairs: u64,
    /// RTT samples fed to this link's estimator.
    pub rtt_samples: u64,
    /// Retransmission rounds proven unnecessary by timestamp echo.
    pub spurious_rtos: u64,
    /// Smoothed RTT in ns (0 until the first sample).
    pub srtt_ns: u64,
    /// Current adaptive RTO in ns.
    pub rto_ns: u64,
    /// Packets currently unacked + parked.
    pub in_flight: usize,
    /// Retry budget exhausted — the link is dead.
    pub dead: bool,
    /// Fast-retransmit rounds fired on this link.
    pub fast_retransmits: u64,
    /// Current congestion window in packets (= the fixed window until the
    /// first loss indication).
    pub cwnd: usize,
}

/// Sender half of one link.
struct TxLink {
    /// Next sequence number to assign (sequences start at 1; 0 marks an
    /// unsequenced packet).
    next_seq: u64,
    /// Lowest unacked sequence. The front entry of `unacked` always has
    /// exactly this sequence, so `seq - base` indexes the ring.
    base: u64,
    /// Transmitted, unacked packets (`rel_seq` ∈ `[base, base+window)`),
    /// kept for selective retransmission.
    unacked: VecDeque<TxEntry>,
    /// Sequenced but not yet transmitted: the window was full.
    parked: VecDeque<(Packet, SimTime)>,
    /// Fruitless timer rounds since the last ack progress.
    retries: u32,
    /// Instant the latest transmission left the source link. Drivers
    /// legitimately schedule wire slots far in the future (host/DMA
    /// pipeline backlog), so staleness is measured from here — never from
    /// submission time.
    last_tx_done: SimTime,
    /// Instant of the latest ack progress (window-base advance).
    last_progress: SimTime,
    /// Smoothed RTT in nanoseconds (None until the first sample).
    srtt_ns: Option<u64>,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// Current retransmission timeout: seeded from `RelParams::rto`,
    /// re-derived from the estimator on ack progress, doubled on backoff.
    rto_cur: SimTime,
    /// Instant of the most recent retransmission round (Eifel baseline).
    last_rto_at: SimTime,
    /// A retransmission round happened since the last ack progress.
    rto_outstanding: bool,
    /// `rto_cur` as it stood when the current backoff episode began —
    /// restored verbatim when Eifel proves the episode spurious.
    rto_prev: SimTime,
    /// A retransmit timer is scheduled.
    armed: bool,
    dead: bool,
    /// AIMD congestion window in packets: how much of the fixed window may
    /// be in flight. Opens at the full window; narrows only on loss.
    cwnd: usize,
    /// Slow-start threshold: below it each acked packet grows `cwnd` by
    /// one (exponential per round); at or above it growth is additive.
    ssthresh: usize,
    /// Acked packets accumulated toward the next additive +1.
    acked_accum: usize,
    /// Consecutive duplicate-SACK indications since the last progress.
    dup_ind: u32,
    /// Inside a loss-recovery episode: no second multiplicative decrease
    /// until `base` passes `recover_seq`.
    in_recovery: bool,
    /// `next_seq` at recovery entry — the episode ends when `base`
    /// reaches it.
    recover_seq: u64,
    /// This link's slice of the aggregate counters.
    counts: LinkCounters,
}

impl TxLink {
    fn new(p: &RelParams) -> Self {
        TxLink {
            next_seq: 1,
            base: 1,
            unacked: VecDeque::new(),
            parked: VecDeque::new(),
            retries: 0,
            last_tx_done: SimTime::ZERO,
            last_progress: SimTime::ZERO,
            srtt_ns: None,
            rttvar_ns: 0,
            rto_cur: p.rto,
            last_rto_at: SimTime::ZERO,
            rto_outstanding: false,
            rto_prev: p.rto,
            armed: false,
            dead: false,
            cwnd: p.window,
            ssthresh: p.window,
            acked_accum: 0,
            dup_ind: 0,
            in_recovery: false,
            recover_seq: 0,
            counts: LinkCounters::default(),
        }
    }

    /// Packets allowed in flight right now: the congestion window capped
    /// by the fixed window (just the fixed window when the loop is off).
    fn eff_window(&self, p: &RelParams) -> usize {
        if p.cc {
            self.cwnd.min(p.window)
        } else {
            p.window
        }
    }

    /// Enter a loss-recovery episode: one multiplicative decrease, no
    /// second until `base` passes the current `next_seq`. Returns whether
    /// a cut was applied (false when already inside an episode).
    fn enter_recovery(&mut self, p: &RelParams, to_floor: bool) -> bool {
        self.dup_ind = 0;
        if self.in_recovery {
            return false;
        }
        self.in_recovery = true;
        self.recover_seq = self.next_seq;
        if p.cc {
            self.ssthresh = (self.cwnd / 2).max(CWND_FLOOR);
            self.cwnd = if to_floor { CWND_FLOOR } else { self.ssthresh };
            self.acked_accum = 0;
            true
        } else {
            false
        }
    }

    /// Grow the congestion window for `n` newly acked packets: slow start
    /// below `ssthresh`, additive increase (one per acked round) above,
    /// capped at the fixed window.
    fn cc_on_acked(&mut self, n: usize, p: &RelParams) {
        if !p.cc || self.cwnd >= p.window {
            return;
        }
        let mut n = n;
        if self.cwnd < self.ssthresh {
            let grown = (self.cwnd + n).min(self.ssthresh);
            n = n.saturating_sub(grown - self.cwnd);
            self.cwnd = grown;
        }
        if n > 0 && self.cwnd >= self.ssthresh {
            self.acked_accum += n;
            while self.acked_accum >= self.cwnd && self.cwnd < p.window {
                self.acked_accum -= self.cwnd;
                self.cwnd += 1;
            }
        }
        self.cwnd = self.cwnd.min(p.window);
    }

    /// A link is stale at `deadline` if neither a transmission completed
    /// nor an ack progressed after `deadline - rto_cur`.
    fn deadline(&self) -> SimTime {
        self.last_tx_done.max(self.last_progress) + self.rto_cur
    }

    /// Feed one RTT sample (RFC 6298 smoothing) and, outside backoff,
    /// re-derive the adaptive RTO.
    fn rtt_sample(&mut self, rtt: SimTime, p: &RelParams) -> (u64, u64) {
        let r = rtt.nanos();
        let (srtt, rttvar) = match self.srtt_ns {
            None => (r, r / 2),
            Some(s) => {
                let diff = s.abs_diff(r);
                ((7 * s + r) / 8, (3 * self.rttvar_ns + diff) / 4)
            }
        };
        self.srtt_ns = Some(srtt);
        self.rttvar_ns = rttvar;
        if self.retries == 0 {
            // Backoffed links keep their inflated RTO until progress.
            self.derive_rto(p);
        }
        (srtt, self.rto_cur.nanos())
    }

    /// `RTO = clamp(srtt + 4·rttvar, min, max)` — the one place the
    /// formula lives (no-op until the estimator has sampled).
    fn derive_rto(&mut self, p: &RelParams) {
        if let Some(s) = self.srtt_ns {
            self.rto_cur = SimTime::from_nanos(s + 4 * self.rttvar_ns)
                .max(p.min_rto)
                .min(p.max_rto);
        }
    }
}

/// Receiver half of one link.
struct RxLink {
    /// All sequences `< rx_next` received (the cumulative ack value).
    rx_next: u64,
    /// Bitmap of received sequences in `[rx_next, rx_next + 64)` — bit 0
    /// is always clear (else `rx_next` would have advanced), so the set
    /// bits are exactly the out-of-order packets the SACK advertises.
    seen: u64,
}

/// A directed reliability link: `(proto, src nic, dst nic)`. Public so the
/// composed world's typed event enum can carry timer/ack events for it.
pub type LinkKey = (Proto, u32, u32);

fn key(proto: Proto, src: NicId, dst: NicId) -> LinkKey {
    (proto, src.0, dst.0)
}

/// Everything the fabric knows about one directed link. The sender half
/// lives where the source NIC's node does and the receiver half where the
/// destination's does — the same world unless the cluster is sharded.
#[derive(Default)]
struct Link {
    tx: Option<TxLink>,
    rx: Option<RxLink>,
    /// Tombstone of a reclaimed link: both halves are gone for good, so
    /// `link_dead` keeps failing fast after the ring state is freed and
    /// limping stragglers are swallowed instead of resurrecting a window.
    dead: bool,
}

/// All reliability state on the fabric (one instance in the `NicLayer`;
/// sequence spaces are disjoint per protocol and direction).
pub struct RelState {
    pub params: RelParams,
    links: IdHashMap<LinkKey, Link>,
    /// Recycled scratch for collecting retransmissions/releases outside the
    /// state borrow.
    burst: Vec<(Packet, SimTime)>,
    pub stats: RelStats,
}

impl Default for RelState {
    fn default() -> Self {
        Self::new(RelParams::default())
    }
}

impl RelState {
    pub fn new(params: RelParams) -> Self {
        assert!(
            (1..=64).contains(&params.window),
            "reliability window must be 1..=64 (one-word receiver/SACK bitmaps)"
        );
        RelState {
            params,
            links: IdHashMap::default(),
            burst: Vec::new(),
            stats: RelStats::default(),
        }
    }

    /// Is this link dead (retry budget exhausted)? Drivers check before
    /// committing a send so the failure is synchronous.
    pub fn link_dead(&self, proto: Proto, src: NicId, dst: NicId) -> bool {
        self.links
            .get(&key(proto, src, dst))
            .is_some_and(|l| l.dead || l.tx.as_ref().is_some_and(|t| t.dead))
    }

    /// The sender half of a link, if it has ever sent.
    fn tx(&self, k: &LinkKey) -> Option<&TxLink> {
        self.links.get(k)?.tx.as_ref()
    }

    fn tx_mut(&mut self, k: &LinkKey) -> Option<&mut TxLink> {
        self.links.get_mut(k)?.tx.as_mut()
    }

    /// Live link halves, `(sender windows, receiver bitmaps)` — the churn
    /// regression asserts these stay bounded as links die and new ones are
    /// created.
    pub fn live_links(&self) -> (usize, usize) {
        let halves = |half: fn(&Link) -> bool| self.links.values().filter(|l| half(l)).count();
        (halves(|l| l.tx.is_some()), halves(|l| l.rx.is_some()))
    }

    /// Records the link table can hold before it grows again (flat once a
    /// workload's links exist; asserted by `tests/hotpath_alloc.rs`).
    pub fn table_capacity(&self) -> usize {
        self.links.capacity()
    }

    /// The congestion window of a link, if it has ever sent.
    pub fn link_cwnd(&self, proto: Proto, src: NicId, dst: NicId) -> Option<usize> {
        self.tx(&key(proto, src, dst)).map(|l| l.cwnd)
    }

    /// Packets currently unacked + parked on a link (tests).
    pub fn in_flight(&self, proto: Proto, src: NicId, dst: NicId) -> usize {
        self.tx(&key(proto, src, dst))
            .map(|l| l.unacked.len() + l.parked.len())
            .unwrap_or(0)
    }

    /// Packets occupying the unacked window of a link — never exceeds
    /// [`RelParams::window`] (tests assert this under chaos schedules).
    pub fn window_load(&self, proto: Proto, src: NicId, dst: NicId) -> usize {
        self.tx(&key(proto, src, dst))
            .map(|l| l.unacked.len())
            .unwrap_or(0)
    }

    /// Sum of unacked + parked packets across every link (tests: bounded
    /// teardown — zero once flows quiesce or die).
    pub fn buffered_total(&self) -> usize {
        self.links
            .values()
            .filter_map(|l| l.tx.as_ref())
            .map(|l| l.unacked.len() + l.parked.len())
            .sum()
    }

    /// The RTT estimator of a link: `(srtt, current rto)`, if it has
    /// sampled at least once (tests, figures).
    pub fn link_rtt(&self, proto: Proto, src: NicId, dst: NicId) -> Option<(SimTime, SimTime)> {
        let l = self.tx(&key(proto, src, dst))?;
        l.srtt_ns.map(|s| (SimTime::from_nanos(s), l.rto_cur))
    }

    fn link_row(&self, k: &LinkKey, l: &TxLink) -> RelLinkStats {
        RelLinkStats {
            proto: k.0,
            src: NicId(k.1),
            dst: NicId(k.2),
            data_packets: l.counts.data_packets,
            retransmits: l.counts.retransmits,
            timeouts: l.counts.timeouts,
            sacked: l.counts.sacked,
            sack_repairs: l.counts.sack_repairs,
            rtt_samples: l.counts.rtt_samples,
            spurious_rtos: l.counts.spurious_rtos,
            srtt_ns: l.srtt_ns.unwrap_or(0),
            rto_ns: l.rto_cur.nanos(),
            in_flight: l.unacked.len() + l.parked.len(),
            dead: l.dead,
            fast_retransmits: l.counts.fast_retransmits,
            cwnd: l.cwnd,
        }
    }

    /// The counters of one directed link, if it has ever sent.
    pub fn link_stats(&self, proto: Proto, src: NicId, dst: NicId) -> Option<RelLinkStats> {
        let k = key(proto, src, dst);
        self.tx(&k).map(|l| self.link_row(&k, l))
    }

    /// Every link's counters, deterministically ordered (protocol, then
    /// source, then destination) — the per-link breakdown behind the
    /// aggregate [`RelStats`], summing back to it on the shared fields.
    pub fn link_breakdown(&self) -> Vec<RelLinkStats> {
        let mut rows: Vec<RelLinkStats> = self
            .links
            .iter()
            .filter_map(|(k, l)| Some(self.link_row(k, l.tx.as_ref()?)))
            .collect();
        rows.sort_by_key(|r| (r.proto as u8, r.src.0, r.dst.0));
        rows
    }
}

/// Verdict of [`rel_on_packet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelVerdict {
    /// Fresh protocol packet: process it.
    Deliver,
    /// Link-level ack or duplicate: fully handled here, drop it.
    Consumed,
}

/// Send `pkt` under its link's reliability window, no earlier than `ready`.
///
/// Within the window this is exactly `wire_send(pkt, ready)` plus a stored
/// clone (`Bytes` payloads are refcounted — no copy); beyond it the packet
/// parks until acks free a slot. On a dead link the packet is silently
/// dropped — callers check [`RelState::link_dead`] first and surface the
/// error synchronously.
pub fn rel_send<W: NicWorld>(w: &mut W, mut pkt: Packet, ready: SimTime) {
    debug_assert!(pkt.proto != Proto::Raw, "raw fabric traffic is unsequenced");
    let k = key(pkt.proto, pkt.src, pkt.dst);
    let action = {
        let rel = &mut w.nics_mut().rel;
        let params = rel.params;
        let record = rel.links.entry(k).or_default();
        if record.dead {
            // Reclaimed link: the rings are gone, only the tombstone
            // remains — drop silently, like the pre-reclaim dead flag.
            rel.stats.dead_dropped += 1;
            return;
        }
        let link = record.tx.get_or_insert_with(|| {
            rel.stats.links += 1;
            TxLink::new(&params)
        });
        if link.dead {
            return;
        }
        pkt.rel_seq = link.next_seq;
        link.next_seq += 1;
        link.counts.data_packets += 1;
        rel.stats.data_packets += 1;
        let in_window = (pkt.rel_seq - link.base) < link.eff_window(&params) as u64;
        if in_window {
            let cap = link.unacked.capacity();
            link.unacked.push_back(TxEntry {
                pkt: pkt.clone(),
                acked: false,
            });
            if link.unacked.capacity() > cap {
                rel.stats.grows += 1;
            }
            Some(pkt)
        } else {
            let cap = link.parked.capacity();
            link.parked.push_back((pkt, ready));
            if link.parked.capacity() > cap {
                rel.stats.grows += 1;
            }
            rel.stats.parked += 1;
            None
        }
    };
    if let Some(pkt) = action {
        let tx_done = wire_send(w, pkt, ready);
        note_tx(w, k, tx_done);
        arm_timer(w, k);
    }
}

/// Record a transmission's link-departure instant (staleness baseline).
fn note_tx<W: NicWorld>(w: &mut W, k: LinkKey, tx_done: SimTime) {
    if let Some(link) = w.nics_mut().rel.tx_mut(&k) {
        link.last_tx_done = link.last_tx_done.max(tx_done);
    }
}

/// Ensure one retransmit timer is pending for the link, scheduled at its
/// current staleness deadline.
fn arm_timer<W: NicWorld>(w: &mut W, k: LinkKey) {
    let deadline = {
        let Some(link) = w.nics_mut().rel.tx_mut(&k) else {
            return;
        };
        if link.armed || link.dead || link.unacked.is_empty() {
            return;
        }
        link.armed = true;
        link.deadline()
    };
    // The timer is the sender's event: it targets the node driving the
    // link's tx side, so the shard owning that node executes it.
    let node = w.nics().get(NicId(k.1)).node.0;
    let ev = W::lift_nic(NicEv::RelTimer { key: k });
    knet_simcore::emit_at(w, node, deadline, ev);
}

/// The per-link retransmit timer. Fires at the link's staleness deadline;
/// when neither a transmission completed nor an ack progressed for a full
/// adaptive RTO, the sender performs a selective-repeat round — resending
/// only the holes the SACK state has not covered — and backs the RTO off.
/// `max_retries` fruitless rounds declare the link dead.
pub(crate) fn rel_timeout<W: NicWorld>(w: &mut W, k: LinkKey) {
    enum Outcome {
        Idle,
        Rearm,
        Retransmit,
        Dead,
    }
    let now = knet_simcore::now(w);
    // Pacing quantum: each resent packet is released one serialization time
    // after the previous, so the recovery round drains at line rate.
    let link_bw = w.nics().get(NicId(k.1)).model.link_bw;
    let outcome = {
        let rel = &mut w.nics_mut().rel;
        let params = rel.params;
        let Some(link) = rel.links.get_mut(&k).and_then(|l| l.tx.as_mut()) else {
            return;
        };
        link.armed = false;
        if link.dead || link.unacked.is_empty() {
            Outcome::Idle
        } else if now < link.deadline() {
            // Progress since arming, or the pipeline is still feeding the
            // wire: keep watching from the new deadline.
            Outcome::Rearm
        } else {
            if link.retries == 0 {
                // Entering a backoff episode: remember the pre-backoff RTO
                // so Eifel detection can restore it if the episode turns
                // out to be spurious.
                link.rto_prev = link.rto_cur;
            }
            link.retries += 1;
            link.counts.timeouts += 1;
            rel.stats.timeouts += 1;
            if link.retries > params.max_retries {
                link.dead = true;
                link.unacked.clear();
                link.parked.clear();
                rel.stats.dead_links += 1;
                Outcome::Dead
            } else {
                // An RTO is the strongest loss signal the sender gets:
                // collapse the congestion window to the floor and slow-start
                // back toward the (halved) threshold.
                let cut = link.enter_recovery(&params, true);
                if params.cc && link.cwnd > CWND_FLOOR {
                    // Backoff round inside an already-open episode still
                    // collapses the window (no second ssthresh cut).
                    link.cwnd = CWND_FLOOR;
                    link.acked_accum = 0;
                }
                rel.stats.cwnd_cuts += cut as u64;
                // Selective repeat: resend the holes, and only the holes —
                // a SACKed packet is already in the receiver's reassembly
                // window and never crosses the wire again. The round is
                // paced: packet i departs i serialization quanta after the
                // first instead of the whole burst hitting the link at one
                // instant.
                let mut burst = std::mem::take(&mut rel.burst);
                burst.clear();
                let mut spared = 0u64;
                let mut off = SimTime::ZERO;
                for e in &mut link.unacked {
                    if e.acked {
                        spared += 1;
                    } else {
                        burst.push((e.pkt.clone(), now + off));
                        off += link_bw.transfer_time(e.pkt.wire_len);
                    }
                }
                link.counts.retransmits += burst.len() as u64;
                link.counts.sack_repairs += spared;
                rel.stats.retransmits += burst.len() as u64;
                rel.stats.sack_repairs += spared;
                rel.burst = burst;
                link.last_rto_at = now;
                link.rto_outstanding = true;
                // Exponential backoff until acks progress again.
                link.rto_cur =
                    SimTime::from_nanos(link.rto_cur.nanos().saturating_mul(2)).min(params.max_rto);
                Outcome::Retransmit
            }
        }
    };
    match outcome {
        Outcome::Idle => {}
        Outcome::Rearm => arm_timer(w, k),
        Outcome::Retransmit => {
            let mut burst = std::mem::take(&mut w.nics_mut().rel.burst);
            let mut last = now;
            for (pkt, ready) in burst.drain(..) {
                last = last.max(wire_send(w, pkt, ready));
            }
            w.nics_mut().rel.burst = burst;
            note_tx(w, k, last);
            arm_timer(w, k);
        }
        Outcome::Dead => {
            let (proto, src, dst) = (k.0, NicId(k.1), NicId(k.2));
            // Reclaim the dead direction's state before telling the world,
            // so PeerDown handlers observe the final (empty) rings.
            reclaim_link(w, k);
            w.nic_link_dead(proto, src, dst);
        }
    }
}

/// Free a dead link's ring and bitmap, leaving its record as a tombstone,
/// and — when no other live link shares the node pair —
/// the lazily-derived fault dice streams of both directions (the data
/// direction and the one its acks ride). Streams pinned by an explicit
/// per-link plan are part of the scenario and stay.
fn reclaim_link<W: NicWorld>(w: &mut W, k: LinkKey) {
    let (src_node, dst_node, shared) = {
        let nl = w.nics();
        let (src_node, dst_node) = (nl.get(NicId(k.1)).node, nl.get(NicId(k.2)).node);
        let on_pair = |kk: &LinkKey| {
            if *kk == k {
                return false;
            }
            let p = (nl.get(NicId(kk.1)).node, nl.get(NicId(kk.2)).node);
            p == (src_node, dst_node) || p == (dst_node, src_node)
        };
        let live = |l: &Link| l.tx.is_some() || l.rx.is_some();
        let shared = nl.rel.links.iter().any(|(kk, l)| live(l) && on_pair(kk));
        (src_node, dst_node, shared)
    };
    w.nics_mut().rel.links.insert(
        k,
        Link {
            dead: true,
            ..Link::default()
        },
    );
    if !shared {
        w.nics_mut().reclaim_fault_stream(src_node, dst_node);
        w.nics_mut().reclaim_fault_stream(dst_node, src_node);
    }
}

/// Filter an inbound GM/MX packet through the reliability layer at `nic`.
///
/// Acks advance the local sender window (releasing parked packets);
/// sequenced data is deduped against the receive bitmap and acked with the
/// cumulative point plus the SACK bitmap of everything received beyond it.
/// Returns whether the driver should process the packet.
pub fn rel_on_packet<W: NicWorld>(w: &mut W, pkt: &Packet) -> RelVerdict {
    if pkt.rel_seq == 0 {
        return RelVerdict::Deliver; // unsequenced (raw fabric tests)
    }
    let k = key(pkt.proto, pkt.src, pkt.dst);
    let (fresh, cum, sack) = {
        let rel = &mut w.nics_mut().rel;
        let record = rel.links.entry(k).or_default();
        if record.dead {
            // A straggler (in-fabric retransmission) of a reclaimed link:
            // swallowing it here keeps a recreated bitmap from re-delivering
            // sequences the dead window already delivered.
            rel.stats.dead_dropped += 1;
            return RelVerdict::Consumed;
        }
        let rx = record.rx.get_or_insert(RxLink {
            rx_next: 1,
            seen: 0,
        });
        let seq = pkt.rel_seq;
        let fresh = if seq < rx.rx_next {
            false
        } else {
            let off = seq - rx.rx_next;
            // The sender window is ≤ 64, so a live sender can never be
            // this far ahead of the cumulative ack; treat as duplicate.
            if off >= 64 || rx.seen & (1 << off) != 0 {
                false
            } else {
                rx.seen |= 1 << off;
                while rx.seen & 1 != 0 {
                    rx.seen >>= 1;
                    rx.rx_next += 1;
                }
                true
            }
        };
        if !fresh {
            rel.stats.dup_dropped += 1;
        }
        rel.stats.acks_sent += 1;
        (fresh, rx.rx_next, rx.seen)
    };
    // Cumulative ack + SACK bitmap back to the sender at this packet's own
    // arrival — also for duplicates, so a lost ack is repaired by the
    // retransmission it caused.
    schedule_ack(w, k, cum, sack, pkt.rel_tsval);
    if fresh {
        RelVerdict::Deliver
    } else {
        RelVerdict::Consumed
    }
}

/// Put an ack on the control stream. Acks are not packets: they ride the
/// Myrinet control symbols interleaved with the data stream, so they
/// traverse the crossbar with cut-through latency but occupy no link
/// bandwidth, charge no host/firmware time, and never re-enter the
/// drivers — the arrival event updates the sender's window directly. They
/// carry the cumulative ack, the 64-bit SACK bitmap (bit `i` =
/// `cum + i` received out of order) and the echoed wire-departure
/// timestamp of the packet that triggered them. They are subject to the
/// same fault plan as data packets (acks get lost, delayed and duplicated
/// too; cumulative acking absorbs all three).
fn schedule_ack<W: NicWorld>(w: &mut W, k: LinkKey, cum: u64, sack: u64, echo: SimTime) {
    let now = knet_simcore::now(w);
    let (data_src, data_dst) = (NicId(k.1), NicId(k.2));
    let (latency, ack_src_node, ack_dst_node) = {
        let nl = w.nics();
        (
            nl.get(data_dst).model.wire_latency,
            nl.get(data_dst).node,
            nl.get(data_src).node,
        )
    };
    let FaultVerdict::Deliver {
        extra,
        duplicate,
        dup_extra,
    } = w.nics_mut().fault_verdict(ack_src_node, ack_dst_node, now)
    else {
        return; // lost in the fabric
    };
    let arrival = now + latency + extra;
    // Ack arrivals mutate the *sender's* window: they target the data
    // source's node and cross shards through the engine mailboxes.
    let node = ack_dst_node.0;
    if duplicate {
        let at2 = arrival + dup_extra;
        let ev = W::lift_nic(NicEv::RelCtrl {
            key: k,
            cum,
            sack,
            echo,
        });
        knet_simcore::emit_at(w, node, at2, ev);
    }
    let ev = W::lift_nic(NicEv::RelCtrl {
        key: k,
        cum,
        sack,
        echo,
    });
    knet_simcore::emit_at(w, node, arrival, ev);
}

/// The receiver NIC's rx FIFO shed a sequenced packet: tell the sender
/// *now* (a GM-style NACK riding the reverse direction like an ack)
/// instead of leaving the hole to a queueing-inflated RTO. Incast drops
/// hit the tail of a burst, so there is usually nothing behind them to
/// generate duplicate-SACK indications — without the NACK the only
/// repair is the retransmission timer.
pub(crate) fn rel_on_rx_drop<W: NicWorld>(w: &mut W, pkt: &Packet, backlog: SimTime) {
    if pkt.rel_seq == 0 {
        return; // unsequenced frame: nothing for the window to repair
    }
    let k = key(pkt.proto, pkt.src, pkt.dst);
    if w.nics().rel.links.get(&k).is_some_and(|l| l.dead) {
        return;
    }
    let now = knet_simcore::now(w);
    let (data_src, data_dst) = (NicId(k.1), NicId(k.2));
    let (latency, nack_src_node, nack_dst_node) = {
        let nl = w.nics();
        (
            nl.get(data_dst).model.wire_latency,
            nl.get(data_dst).node,
            nl.get(data_src).node,
        )
    };
    // The notification rides the fabric like an ack: same direction, same
    // fault dice, same latency floor (which is also the cross-shard
    // lookahead bound).
    let FaultVerdict::Deliver { extra, .. } =
        w.nics_mut()
            .fault_verdict(nack_src_node, nack_dst_node, now)
    else {
        return; // lost in the fabric; the RTO backstop still exists
    };
    w.nics_mut().rel.stats.nacks += 1;
    let ev = W::lift_nic(NicEv::RelNack {
        key: k,
        seq: pkt.rel_seq,
        hold: backlog,
    });
    knet_simcore::emit_at(w, nack_dst_node.0, now + latency + extra, ev);
}

/// A drop notification arrived at the sender: resend exactly the shed
/// packet and treat the episode as congestion (one multiplicative
/// decrease, like a fast retransmit). The resend departs only after the
/// receiver's reported backlog (`hold`) has had time to drain — an
/// immediate resend would dive straight back into the queue that shed
/// the original. The pre-control-loop sender (`cc: false`) ignores
/// NACKs — repair stays RTO-driven, which is the incast bench's
/// baseline.
pub(crate) fn nack_arrival<W: NicWorld>(w: &mut W, k: LinkKey, seq: u64, hold: SimTime) {
    let now = knet_simcore::now(w);
    let resend = {
        let rel = &mut w.nics_mut().rel;
        let params = rel.params;
        if !params.cc {
            return;
        }
        let Some(link) = rel.links.get_mut(&k).and_then(|l| l.tx.as_mut()) else {
            return;
        };
        if link.dead || seq < link.base {
            return; // already repaired (cumulative progress passed it)
        }
        let pkt = match link.unacked.get((seq - link.base) as usize) {
            Some(e) if !e.acked => {
                debug_assert_eq!(e.pkt.rel_seq, seq, "window ring indexed by seq - base");
                e.pkt.clone()
            }
            _ => return, // gone, or a later copy already landed
        };
        let cut = link.enter_recovery(&params, false);
        link.counts.retransmits += 1;
        rel.stats.cwnd_cuts += cut as u64;
        rel.stats.retransmits += 1;
        rel.stats.nack_resends += 1;
        Some(pkt)
    };
    if let Some(pkt) = resend {
        wire_send(w, pkt, now + hold);
    }
}

/// An ack arrived: sample the RTT from the echoed timestamp, mark SACKed
/// window entries (they will never be retransmitted), and on cumulative
/// progress drop acked packets from the window, release parked packets
/// into the freed slots and reset the retry budget.
pub(crate) fn ack_arrival<W: NicWorld>(w: &mut W, k: LinkKey, cum: u64, sack: u64, echo: SimTime) {
    let now = knet_simcore::now(w);
    // Pacing quantum for a fast-retransmit round (same rule as RTO rounds).
    let link_bw = w.nics().get(NicId(k.1)).model.link_bw;
    let send_burst = {
        let rel = &mut w.nics_mut().rel;
        rel.stats.acks_recv += 1;
        let params = rel.params;
        let Some(link) = rel.links.get_mut(&k).and_then(|l| l.tx.as_mut()) else {
            return;
        };
        if link.dead {
            return;
        }
        // Every ack carries a valid echo — even a duplicate's tells the
        // true RTT of the copy that triggered it.
        let (srtt, rto) = link.rtt_sample(now.saturating_sub(echo), &params);
        link.counts.rtt_samples += 1;
        rel.stats.rtt_samples += 1;
        rel.stats.srtt_ns = srtt;
        rel.stats.rto_ns = rto;
        // SACK bits are relative to *this ack's* cumulative point; stale
        // acks (smaller cum than our base) still carry true information —
        // a receiver never un-receives a packet.
        let mut bits = sack;
        while bits != 0 {
            let i = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            let seq = cum + i;
            if seq >= link.base {
                if let Some(e) = link.unacked.get_mut((seq - link.base) as usize) {
                    debug_assert_eq!(e.pkt.rel_seq, seq, "window ring indexed by seq - base");
                    if !e.acked {
                        e.acked = true;
                        link.counts.sacked += 1;
                        rel.stats.sacked += 1;
                    }
                }
            }
        }
        if cum <= link.base {
            // No cumulative progress. An ack at exactly the window base
            // carrying SACK bits is a duplicate-SACK loss indication: the
            // receiver holds data beyond a hole. `dupack_k` of them fire a
            // fast retransmit — once per recovery episode.
            if params.dupack_k > 0
                && cum == link.base
                && sack != 0
                && !link.in_recovery
                && !link.unacked.is_empty()
            {
                link.dup_ind += 1;
                if link.dup_ind >= params.dupack_k {
                    let cut = link.enter_recovery(&params, false);
                    rel.stats.cwnd_cuts += cut as u64;
                    link.counts.fast_retransmits += 1;
                    rel.stats.fast_retransmits += 1;
                    // Resend the unacked holes below the highest SACKed
                    // sequence (everything the receiver provably jumped
                    // over), paced like an RTO round.
                    let high = cum + 63 - sack.leading_zeros() as u64;
                    let mut burst = std::mem::take(&mut rel.burst);
                    burst.clear();
                    let mut off = SimTime::ZERO;
                    for e in &mut link.unacked {
                        if !e.acked && e.pkt.rel_seq < high {
                            burst.push((e.pkt.clone(), now + off));
                            off += link_bw.transfer_time(e.pkt.wire_len);
                        }
                    }
                    link.counts.retransmits += burst.len() as u64;
                    rel.stats.retransmits += burst.len() as u64;
                    rel.burst = burst;
                    true
                } else {
                    false
                }
            } else {
                false
            }
        } else {
            link.dup_ind = 0;
            // Eifel detection: progress whose echo predates the last
            // retransmission round means the original copy had arrived all
            // along — that RTO was spurious. The backoff was paid for a
            // timeout that never happened: restore the pre-backoff RTO on
            // the spot, and skip this ack's re-derive (the delayed
            // original's sample has just inflated the estimator).
            let spurious = link.rto_outstanding && echo < link.last_rto_at;
            if spurious {
                link.counts.spurious_rtos += 1;
                rel.stats.spurious_rtos += 1;
                link.rto_cur = link.rto_prev;
            }
            link.rto_outstanding = false;
            rel.stats.ack_progress += 1;
            let n_acked = (cum - link.base) as usize;
            while link.unacked.front().is_some_and(|e| e.pkt.rel_seq < cum) {
                link.unacked.pop_front();
            }
            link.base = cum;
            link.retries = 0;
            link.last_progress = now;
            if link.in_recovery && link.base >= link.recover_seq {
                link.in_recovery = false; // episode repaired end to end
            }
            link.cc_on_acked(n_acked, &params);
            // Progress ends any backoff: re-derive the RTO from the
            // estimator (rtt_sample above skipped the re-derive while
            // retries > 0) — unless Eifel just restored the pre-backoff
            // value.
            if !spurious {
                link.derive_rto(&params);
            }
            rel.stats.rto_ns = link.rto_cur.nanos();
            // Release parked packets into the freed congestion-window
            // slots.
            let eff = link.eff_window(&params);
            let mut burst = std::mem::take(&mut rel.burst);
            burst.clear();
            while link.unacked.len() < eff {
                let Some((pkt, ready)) = link.parked.pop_front() else {
                    break;
                };
                link.unacked.push_back(TxEntry {
                    pkt: pkt.clone(),
                    acked: false,
                });
                burst.push((pkt, ready));
            }
            rel.burst = burst;
            true
        }
    };
    if !send_burst {
        return;
    }
    let mut burst = std::mem::take(&mut w.nics_mut().rel.burst);
    let mut last = SimTime::ZERO;
    for (pkt, ready) in burst.drain(..) {
        last = last.max(wire_send(w, pkt, ready));
    }
    w.nics_mut().rel.burst = burst;
    note_tx(w, k, last);
    arm_timer(w, k);
}

#[cfg(test)]
mod tests {
    //! White-box checks of the selective-repeat sender: these reach into
    //! the private state machine (ack injection, hole accounting) that the
    //! black-box equivalence suite (`tests/rel_equivalence.rs`) can only
    //! observe statistically.

    use super::*;
    use crate::layer::NicLayer;
    use crate::model::NicModel;
    use bytes::Bytes;
    use knet_simcore::{run_to_quiescence, run_until, RunOutcome, Scheduler, SimWorld};
    use knet_simos::{CpuModel, OsLayer, OsWorld};

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        os: OsLayer,
        nics: NicLayer,
        delivered: Vec<(u64, SimTime)>,
        dead: Vec<(Proto, NicId, NicId)>,
        /// Run arrivals through the receiver half (dedupe + acks) like a
        /// driver does; off, tests inject acks by hand.
        acking: bool,
    }

    impl SimWorld for TestWorld {
        type Ev = knet_simcore::BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    impl OsWorld for TestWorld {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
    }
    impl NicWorld for TestWorld {
        fn nics(&self) -> &NicLayer {
            &self.nics
        }
        fn nics_mut(&mut self) -> &mut NicLayer {
            &mut self.nics
        }
        fn nic_rx(&mut self, _nic: NicId, pkt: Packet) {
            if self.acking && rel_on_packet(self, &pkt) == RelVerdict::Consumed {
                return;
            }
            let at = knet_simcore::now(self);
            self.delivered.push((pkt.meta[0], at));
        }
        fn nic_link_dead(&mut self, proto: Proto, local: NicId, remote: NicId) {
            self.dead.push((proto, local, remote));
        }
    }

    fn world() -> (TestWorld, NicId, NicId) {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            delivered: Vec::new(),
            dead: Vec::new(),
            acking: false,
        };
        let n0 = w.os.add_node(CpuModel::xeon_2600(), 64);
        let n1 = w.os.add_node(CpuModel::xeon_2600(), 64);
        let a = w.nics.add_nic(n0, NicModel::pci_xd());
        let b = w.nics.add_nic(n1, NicModel::pci_xd());
        (w, a, b)
    }

    fn pkt(src: NicId, dst: NicId, idx: u64) -> Packet {
        Packet::new(
            src,
            dst,
            Proto::Gm,
            0,
            [idx; 4],
            Bytes::from_static(b"payload"),
            16,
        )
    }

    /// The heart of selective repeat: with the receiver's SACK state
    /// showing two of five packets received, a retransmission round resends
    /// exactly the three holes.
    #[test]
    fn retransmission_round_resends_only_the_holes() {
        // Drop all data on the wire so acks must be injected by hand (the
        // per-link plan keeps the reverse direction semantically clean).
        let (mut w, a, b) = world();
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(2).with_drop(1.0),
        ));
        for i in 0..5 {
            rel_send(&mut w, pkt(a, b, i), SimTime::ZERO);
        }
        let k = key(Proto::Gm, a, b);
        // Receiver-side state after "seq 1 lost, seqs 2 and 3 arrived":
        // cum = 1, SACK bits 1 and 2 (relative to cum).
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        assert_eq!(w.nics.rel.stats.sacked, 2);
        // Let the retransmit timer fire once.
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.timeouts >= 1);
        assert_eq!(outcome, RunOutcome::Satisfied);
        // Holes are seqs 1, 4, 5 — three resends; the two SACKed packets
        // (seqs 2, 3) were spared.
        assert_eq!(w.nics.rel.stats.retransmits, 3, "only holes are resent");
        assert_eq!(
            w.nics.rel.stats.sack_repairs, 2,
            "SACKed packets are never retransmitted"
        );
    }

    /// Acks echo wire-departure timestamps; the estimator converges on the
    /// true network RTT and derives a clamped RTO.
    #[test]
    fn rtt_estimator_feeds_on_echoed_timestamps() {
        let (mut w, a, b) = world();
        for i in 0..8 {
            rel_send(&mut w, pkt(a, b, i), SimTime::ZERO);
        }
        // TestWorld::nic_rx does not ack, so no samples flow on their own.
        // Inject an ack at t=100µs echoing a 90µs departure: rtt == 10 µs
        // (well before the first 200µs timer round, so no backoff is in
        // play).
        let k = key(Proto::Gm, a, b);
        knet_simcore::call_at(
            &mut w,
            0,
            SimTime::from_micros(100),
            move |w: &mut TestWorld| {
                ack_arrival(w, k, 3, 0, SimTime::from_micros(90));
            },
        );
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.rtt_samples >= 1);
        assert_eq!(outcome, RunOutcome::Satisfied);
        assert_eq!(w.nics.rel.stats.srtt_ns, 10_000, "first sample seeds SRTT");
        // rto = srtt + 4*rttvar = 10 + 20 = 30 µs, clamped to min_rto 50 µs.
        assert_eq!(w.nics.rel.stats.rto_ns, 50_000, "RTO clamps to the floor");
        let (srtt, rto) = w.nics.rel.link_rtt(Proto::Gm, a, b).unwrap();
        assert_eq!(srtt, SimTime::from_micros(10));
        assert_eq!(rto, SimTime::from_micros(50));
    }

    /// A link whose packets never arrive dies after exactly
    /// `max_retries + 1` fruitless timer rounds, with exponential backoff
    /// between them, and tears its rings down.
    #[test]
    fn retry_budget_exhaustion_kills_the_link() {
        let (mut w, a, b) = world();
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(2).with_drop(1.0),
        ));
        for i in 0..3 {
            rel_send(&mut w, pkt(a, b, i), SimTime::ZERO);
        }
        run_to_quiescence(&mut w);
        let max_retries = w.nics.rel.params.max_retries;
        assert_eq!(
            w.nics.rel.stats.timeouts,
            max_retries as u64 + 1,
            "death happens exactly when the budget is exhausted"
        );
        assert_eq!(w.nics.rel.stats.dead_links, 1);
        assert!(w.nics.rel.link_dead(Proto::Gm, a, b));
        assert_eq!(w.nics.rel.in_flight(Proto::Gm, a, b), 0, "rings torn down");
        assert_eq!(w.dead, vec![(Proto::Gm, a, b)], "world told exactly once");
        // Backoff doubled the RTO on the way down: 9 rounds from 200 µs,
        // capped at 2 ms, is far beyond the initial period.
        assert!(
            knet_simcore::now(&w) > SimTime::from_millis(5),
            "exponential backoff spaced the rounds out"
        );
    }

    /// Retransmission rounds are paced: under a 20 %-loss schedule on a
    /// dual-link card, the resends of one RTO round arrive one link
    /// serialization quantum apart — never two lanes firing at the same
    /// instant (the pre-pacing burst re-congested the very path that just
    /// dropped it).
    #[test]
    fn rto_round_is_paced_across_link_serialization() {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            delivered: Vec::new(),
            dead: Vec::new(),
            acking: false,
        };
        let n0 = w.os.add_node(CpuModel::xeon_2600(), 64);
        let n1 = w.os.add_node(CpuModel::xeon_2600(), 64);
        // PCI-XE: two transmit lanes — an unpaced burst would put two
        // resends on the wire at the same instant.
        let a = w.nics.add_nic(n0, NicModel::pci_xe());
        let b = w.nics.add_nic(n1, NicModel::pci_xe());
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        // 20 % loss on the data direction; TestWorld never acks, so the
        // timer fires a full retransmission round.
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(0x20C4).with_drop(0.2),
        ));
        for i in 0..20 {
            rel_send(&mut w, pkt(a, b, i), SimTime::ZERO);
        }
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.timeouts >= 1);
        assert_eq!(outcome, RunOutcome::Satisfied);
        let round_start = knet_simcore::now(&w);
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.timeouts >= 2);
        assert_eq!(outcome, RunOutcome::Satisfied);
        let occ = w
            .nics
            .get(a)
            .model
            .link_bw
            .transfer_time(pkt(a, b, 0).wire_len);
        // Deliveries between the two timer rounds are exactly the survivors
        // of the first (paced) retransmission round.
        let mut arrivals: Vec<SimTime> = w
            .delivered
            .iter()
            .filter(|(_, at)| *at > round_start)
            .map(|&(_, at)| at)
            .collect();
        arrivals.sort();
        assert!(
            arrivals.len() >= 2,
            "a 20% schedule leaves most of the round alive ({} arrivals)",
            arrivals.len()
        );
        for pair in arrivals.windows(2) {
            let gap = pair[1].saturating_sub(pair[0]);
            assert!(
                gap >= occ,
                "paced resends keep one serialization quantum apart \
                 (gap {:?} < occupancy {:?})",
                gap,
                occ
            );
        }
    }

    /// Eifel detection restores the pre-backoff RTO the moment a spurious
    /// episode is proven — not one fresh-progress cycle later, and not from
    /// the estimator the delayed original just polluted.
    #[test]
    fn eifel_restores_the_pre_backoff_rto() {
        let (mut w, a, b) = world();
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(2).with_drop(1.0),
        ));
        rel_send(&mut w, pkt(a, b, 0), SimTime::ZERO);
        let k = key(Proto::Gm, a, b);
        // Two fruitless rounds: 200 µs doubles to 400, then 800.
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.timeouts >= 2);
        assert_eq!(outcome, RunOutcome::Satisfied);
        // The original ack limps in, echoing a pre-RTO departure: the whole
        // backoff episode was spurious.
        ack_arrival(&mut w, k, 2, 0, SimTime::from_micros(1));
        assert_eq!(w.nics.rel.stats.spurious_rtos, 1);
        let (_, rto) = w.nics.rel.link_rtt(Proto::Gm, a, b).unwrap();
        assert_eq!(
            rto,
            SimTime::from_micros(200),
            "the pre-backoff RTO is restored at detection time"
        );
    }

    /// K duplicate-SACK indications fire a fast retransmit of the holes
    /// below the highest SACKed sequence, with exactly one window cut per
    /// recovery episode.
    #[test]
    fn fast_retransmit_fires_after_k_dup_sacks_and_cuts_once() {
        let (mut w, a, b) = world();
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(2).with_drop(1.0),
        ));
        for i in 0..5 {
            rel_send(&mut w, pkt(a, b, i), SimTime::ZERO);
        }
        let k = key(Proto::Gm, a, b);
        // "Seq 1 lost; 2 and 3 keep arriving": dup-SACK indications at the
        // window base.
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        assert_eq!(w.nics.rel.stats.fast_retransmits, 0, "below dupack_k");
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        assert_eq!(w.nics.rel.stats.fast_retransmits, 1);
        assert_eq!(
            w.nics.rel.stats.retransmits, 1,
            "only the hole below the highest SACKed seq (seq 1) is resent"
        );
        assert_eq!(w.nics.rel.stats.cwnd_cuts, 1);
        assert_eq!(
            w.nics.rel.link_cwnd(Proto::Gm, a, b),
            Some(32),
            "multiplicative decrease halves the 64-packet window"
        );
        // Further dup indications inside the episode never fire again.
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        ack_arrival(&mut w, k, 1, 0b110, SimTime::ZERO);
        assert_eq!(w.nics.rel.stats.fast_retransmits, 1, "one cut per episode");
        assert_eq!(w.nics.rel.stats.cwnd_cuts, 1);
        // Full repair ends the episode; the window stays at the threshold.
        ack_arrival(&mut w, k, 6, 0, SimTime::ZERO);
        assert_eq!(w.nics.rel.link_cwnd(Proto::Gm, a, b), Some(32));
        assert_eq!(w.nics.rel.in_flight(Proto::Gm, a, b), 0);
    }

    /// Dead links are reclaimed: rings, receiver bitmaps and lazily-derived
    /// fault dice streams are freed (a tombstone swallows stragglers), so
    /// link churn never grows the maps.
    #[test]
    fn dead_link_reclaim_bounds_state_under_churn() {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            delivered: Vec::new(),
            dead: Vec::new(),
            acking: false,
        };
        let mut nics = Vec::new();
        for _ in 0..4 {
            let n = w.os.add_node(CpuModel::xeon_2600(), 64);
            nics.push(w.nics.add_nic(n, NicModel::pci_xd()));
        }
        // A black-hole fabric: every link dies after its retry budget.
        w.nics
            .set_fault_plan(crate::FaultPlan::new(9).with_drop(1.0));
        let pairs = [(0, 1), (1, 0), (2, 3), (3, 2)];
        for &(s, d) in &pairs {
            for i in 0..3 {
                rel_send(&mut w, pkt(nics[s], nics[d], i), SimTime::ZERO);
            }
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.nics.rel.stats.dead_links, 4);
        assert_eq!(w.dead.len(), 4, "every death reached the world");
        assert_eq!(
            w.nics.rel.live_links(),
            (0, 0),
            "rings and bitmaps are reclaimed"
        );
        assert_eq!(w.nics.rel.buffered_total(), 0);
        assert_eq!(
            w.nics.fault_streams(),
            0,
            "lazily-derived dice streams are reclaimed with their links"
        );
        // Sends on a reclaimed link are swallowed by the tombstone — no
        // ring is ever recreated.
        rel_send(&mut w, pkt(nics[0], nics[1], 99), SimTime::ZERO);
        assert!(w.nics.rel.link_dead(Proto::Gm, nics[0], nics[1]));
        assert_eq!(w.nics.rel.stats.dead_dropped, 1);
        assert_eq!(w.nics.rel.live_links(), (0, 0));
    }

    /// One seed, one lossy all-to-all exchange (with one black-holed link
    /// so the table also holds a tombstone): the link table in iteration
    /// order — what a default-hasher map reshuffles per instance and per
    /// process — followed by the per-link rows, folded to one word.
    fn link_table_digest() -> u64 {
        use std::hash::Hasher;
        let (mut w, _, _) = world();
        w.acking = true;
        for _ in 2..6 {
            let n = w.os.add_node(CpuModel::xeon_2600(), 64);
            w.nics.add_nic(n, NicModel::pci_xd());
        }
        let (n0, n1) = (w.nics.get(NicId(0)).node, w.nics.get(NicId(1)).node);
        let lossy = crate::FaultPlan::new(0x5EED).with_drop(0.2);
        let black_hole = crate::FaultPlan::new(1).with_drop(1.0);
        w.nics.set_fault_plan(lossy.for_link(n0, n1, black_hole));
        for i in 0..8 {
            for src in 0..6 {
                for dst in (0..6).filter(|d| *d != src) {
                    rel_send(&mut w, pkt(NicId(src), NicId(dst), i), SimTime::ZERO);
                }
            }
        }
        run_to_quiescence(&mut w);
        let rel = &w.nics.rel;
        assert!(rel.link_dead(Proto::Gm, NicId(0), NicId(1)) && rel.stats.retransmits > 0);
        let order: Vec<&LinkKey> = rel.links.keys().collect();
        let mut fold = knet_simcore::IdHasher::default();
        fold.write(format!("{order:?} {:?}", rel.link_breakdown()).as_bytes());
        fold.finish()
    }

    /// The link table's iteration order and the per-link breakdown are a
    /// function of the seed alone: equal for two worlds in one process and
    /// for two processes (the test re-runs itself as a child to see one).
    #[test]
    fn link_table_order_repeats_within_and_across_processes() {
        const CHILD: &str = "KNET_REL_DIGEST_CHILD";
        let digest = link_table_digest();
        if std::env::var_os(CHILD).is_some() {
            println!("\ndigest={digest}");
            return;
        }
        assert_eq!(digest, link_table_digest(), "two worlds, one process");
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "--nocapture", "--test-threads=1"])
            .arg("rel::tests::link_table_order_repeats_within_and_across_processes")
            .env(CHILD, "1")
            .output()
            .expect("re-run the test binary");
        let out = String::from_utf8_lossy(&child.stdout);
        let theirs = out.lines().find_map(|l| l.strip_prefix("digest="));
        assert_eq!(
            theirs,
            Some(digest.to_string().as_str()),
            "child said:\n{out}"
        );
    }

    /// An ack that progresses but echoes a pre-RTO timestamp proves the
    /// retransmission was unnecessary — Eifel detection counts it.
    #[test]
    fn spurious_rto_detected_via_timestamp_echo() {
        let (mut w, a, b) = world();
        let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
        w.nics.set_fault_plan(crate::FaultPlan::new(1).for_link(
            na,
            nb,
            crate::FaultPlan::new(2).with_drop(1.0),
        ));
        rel_send(&mut w, pkt(a, b, 0), SimTime::ZERO);
        let original_departure = SimTime::from_micros(1); // before any RTO
        let k = key(Proto::Gm, a, b);
        let outcome = run_until(&mut w, |w: &TestWorld| w.nics.rel.stats.timeouts >= 1);
        assert_eq!(outcome, RunOutcome::Satisfied);
        // The "original" ack limps in after the retransmission round.
        ack_arrival(&mut w, k, 2, 0, original_departure);
        assert_eq!(w.nics.rel.stats.spurious_rtos, 1);
        assert_eq!(w.nics.rel.stats.ack_progress, 1, "progress still counted");
    }
}
