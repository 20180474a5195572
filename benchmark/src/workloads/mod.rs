//! The six workloads and what they share: the repetition contract the
//! runner drives, the seeded input generator, and the payload pattern every
//! delivered byte is checked against.

use std::time::{Duration, Instant};

use crate::metrics::LayerValues;
use crate::probe::Counters;
use crate::trace::Trace;

pub mod bulk_lossy;
pub mod kv_failover;
pub mod orfs_rw;
pub mod p2p_small;
pub mod ring_1k;
pub mod tenant_mix;

/// What one repetition reports. Op counts are fixed by the workload and the
/// scale, never by a duration, so every virtual-time figure is a function of
/// code and seed alone.
pub struct Rep {
    /// Ops submitted.
    pub attempted: u64,
    /// Ops delivered with a verified payload.
    pub ok: u64,
    /// Ops that broke the contract: wrong bytes, resolved twice, never
    /// resolved. (`attempted - ok - broken` ops were refused *typed* — shed,
    /// failed over, timed out — which is an outcome, not a defect.)
    pub broken: u64,
    /// Verified payload bytes handed to the consumer.
    pub payload_bytes: u64,
    /// Virtual time from the first submit to the last completion.
    pub virt_span_ns: u64,
    /// Host time of the timed region.
    pub wall: Duration,
    /// C-counter delta over the repetition.
    pub counters: Counters,
    /// Host time the repetition spent building a fresh world, outside the
    /// timed region (workloads that need one per repetition).
    pub setup: Option<Duration>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// No fault dice and no self-inflicted overflow: every reliability
    /// recovery counter must read 0.
    const LOSSLESS: bool;
    /// The per-layer metric the `submit` span is reported under.
    const SUBMIT_METRIC: &'static str;
    /// Fixed repetitions the virtual metrics and C counters come from.
    const FIXED_REPS: u32 = 5;

    /// Build the world, open every endpoint, run the warm-up. All of it is
    /// set-up time.
    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self;

    /// Run one repetition, pushing one virtual latency (ns) per completed op.
    fn rep(&mut self, rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep;

    /// Nodes in the world (for `knet.build_ms_per_node`).
    fn nodes(&self) -> usize;

    /// After the last repetition: record violated checks and the per-layer
    /// values only this workload can compute; in a traced run also its
    /// shadow runs and sweeps.
    fn finish(&mut self, tr: &mut Trace, layer: &mut LayerValues, violations: &mut Vec<String>);
}

/// Host time a repetition spent in each kind of call into the program,
/// summed over the repetition and recorded as four aggregate spans (traced
/// run only: [`lap`] reads no clock otherwise).
#[derive(Default)]
pub struct Phases {
    pub submit: Duration,
    pub run: Duration,
    pub drain: Duration,
    pub verify: Duration,
}

impl Phases {
    pub fn record(self, tr: &mut Trace, ops: u64) {
        tr.aggregate("submit", self.submit, ops);
        tr.aggregate("run", self.run, ops);
        tr.aggregate("drain", self.drain, ops);
        tr.aggregate("verify", self.verify, ops);
    }
}

/// Add the time since `since` (a [`Trace::clock`] reading) to `into`.
pub fn lap(since: Option<Instant>, into: &mut Duration) {
    if let Some(t) = since {
        *into += t.elapsed();
    }
}

/// `full` scaled to `scale` percent, at least `min`.
pub fn scaled(full: u64, scale: u32, min: u64) -> u64 {
    (full * u64::from(scale) / 100).max(min)
}

/// SplitMix64: the benchmark's own input generator, so the inputs of a seed
/// do not move when the repository's generators do.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below what any
    /// metric resolves).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Fill `buf` with the byte pattern of `key`: what the receiver must find.
pub fn fill_pattern(buf: &mut [u8], key: u64) {
    let mut r = Rng::stream(key, 0x5041_5454);
    for chunk in buf.chunks_mut(8) {
        let word = r.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Does `buf` hold exactly the pattern of `key`?
pub fn check_pattern(buf: &[u8], key: u64) -> bool {
    let mut r = Rng::stream(key, 0x5041_5454);
    buf.chunks(8).all(|chunk| {
        let word = r.next_u64().to_le_bytes();
        chunk == &word[..chunk.len()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b, mut c) = (Rng::stream(7, 0), Rng::stream(7, 0), Rng::stream(8, 0));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| a.below(10) < 10 && a.unit() < 1.0));
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn pattern_is_checked_byte_for_byte() {
        let mut buf = [0u8; 61];
        fill_pattern(&mut buf, 42);
        assert!(check_pattern(&buf, 42));
        assert!(!check_pattern(&buf, 43));
        buf[60] ^= 1;
        assert!(!check_pattern(&buf, 42));
        assert_eq!(scaled(300, 1, 5), 5);
        assert_eq!(scaled(300, 100, 5), 300);
    }
}
