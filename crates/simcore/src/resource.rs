//! Serially-reusable timed resources.
//!
//! Links, DMA engines, firmware processors and host CPUs are all modeled as
//! resources that can serve one transfer at a time; a request issued while the
//! resource is busy starts when the resource frees up. This is what produces
//! pipelining in the model: a 1 MB message cut into 4 kB chunks occupies the
//! DMA engine and the wire as two overlapping chains of [`Busy::acquire`]
//! reservations.

use crate::time::SimTime;

/// A resource that serves requests one at a time, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct Busy {
    free_at: SimTime,
    busy_total: SimTime,
}

impl Busy {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur`, starting no earlier than `now`.
    /// Returns the `(start, end)` of the reservation.
    pub fn acquire(&mut self, now: SimTime, dur: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let end = start + dur;
        self.free_at = end;
        self.busy_total += dur;
        (start, end)
    }

    /// Earliest instant a new reservation could start.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent busy over the simulation so far.
    #[inline]
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }
}

/// A bank of identical parallel resources (e.g. the two links of a PCI-XE
/// Myrinet card). Each reservation picks the lane that frees up first.
#[derive(Clone, Debug)]
pub struct LaneBank {
    lanes: Vec<Busy>,
}

impl LaneBank {
    /// A bank of `n` lanes (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a lane bank needs at least one lane");
        LaneBank {
            lanes: vec![Busy::new(); n],
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Reserve `dur` on the first-free lane; returns `(lane, start, end)`.
    pub fn acquire(&mut self, now: SimTime, dur: SimTime) -> (usize, SimTime, SimTime) {
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(i, b)| (b.free_at(), *i))
            .map(|(i, _)| i)
            .expect("lane bank is never empty");
        let (start, end) = self.lanes[lane].acquire(now, dur);
        (lane, start, end)
    }

    /// Earliest instant any lane is free.
    pub fn free_at(&self) -> SimTime {
        self.lanes
            .iter()
            .map(Busy::free_at)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total busy time across all lanes.
    pub fn busy_total(&self) -> SimTime {
        self.lanes.iter().map(Busy::busy_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: fn(u64) -> SimTime = SimTime::from_micros;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut b = Busy::new();
        let (s, e) = b.acquire(US(10), US(5));
        assert_eq!(s, US(10));
        assert_eq!(e, US(15));
    }

    #[test]
    fn busy_resource_queues() {
        let mut b = Busy::new();
        b.acquire(US(0), US(10));
        let (s, e) = b.acquire(US(2), US(3));
        assert_eq!(s, US(10));
        assert_eq!(e, US(13));
        assert_eq!(b.busy_total(), US(13));
    }

    #[test]
    fn resource_goes_idle_after_gap() {
        let mut b = Busy::new();
        b.acquire(US(0), US(5));
        let (s, _) = b.acquire(US(20), US(1));
        assert_eq!(s, US(20));
    }

    #[test]
    fn lane_bank_spreads_load() {
        let mut bank = LaneBank::new(2);
        let (l0, s0, _) = bank.acquire(US(0), US(10));
        let (l1, s1, _) = bank.acquire(US(0), US(10));
        assert_ne!(l0, l1, "second transfer must use the other lane");
        assert_eq!(s0, US(0));
        assert_eq!(s1, US(0));
        // Third transfer waits for whichever lane frees first.
        let (_, s2, _) = bank.acquire(US(0), US(10));
        assert_eq!(s2, US(10));
        assert_eq!(bank.busy_total(), US(30));
    }

    #[test]
    fn lane_bank_width_one_serializes() {
        let mut bank = LaneBank::new(1);
        bank.acquire(US(0), US(4));
        let (_, s, _) = bank.acquire(US(0), US(4));
        assert_eq!(s, US(4));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn lane_bank_rejects_zero_width() {
        let _ = LaneBank::new(0);
    }
}
