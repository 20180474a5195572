//! Host-side measurement: the counting allocator, peak RSS, order
//! statistics, the percentile rule, and the one JSON emitter every output
//! of the benchmark goes through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------- allocator

/// Counts every heap allocation of the process and the bytes live on the
/// heap (the benchmark's own bookkeeping included — it is the same code on
/// both sides of a comparison).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Forget the heap's high-water mark: the next [`peak_heap_mb`] reports the
/// peak from here on.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Most bytes live on the heap at once since the last reset, in MB. Unlike
/// the resident set it is a function of the allocation sequence alone: no
/// allocator arenas, no transparent huge pages, no page-cache luck.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------- memory

/// Peak resident set of the process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

// ---------------------------------------------------------------- order statistics

/// Median of `v` (sorts it). Panics on an empty slice: every caller has
/// at least one repetition.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `v` (sorts it), by the
/// rule of Python's `statistics.quantiles(v, n=4)` — the rule the driver
/// applies to the ten-seed spread — so `selfcheck` and the driver agree.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The percentile ladder the tail rule chooses from, in hundredths of a
/// percent (integers, so "ten samples beyond" is decided exactly).
const LADDER: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// The percentile rule: the highest rung of the ladder that still has at
/// least ten of the `n` samples beyond it (so a tail figure is never one
/// or two outliers). 50 when even p90 is unsupported.
pub fn tail_pct(n: usize) -> f64 {
    let rung = LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as u64 * (10_000 - p) >= 10 * 10_000)
        .unwrap_or(LADDER[0]);
    rung as f64 / 100.0
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// ---------------------------------------------------------------- JSON

/// A tiny streaming JSON writer: objects, and string / number / bool /
/// null members. Keys are the benchmark's own identifiers; string values
/// are escaped.
pub struct Json {
    buf: String,
    /// One flag per open object: has it a member yet?
    open: Vec<bool>,
}

impl Default for Json {
    fn default() -> Self {
        Self::new()
    }
}

impl Json {
    /// Start a document whose root is an object.
    pub fn new() -> Self {
        Json {
            buf: String::from("{"),
            open: vec![false],
        }
    }

    fn key(&mut self, key: &str) {
        let has_member = self.open.last_mut().expect("an open object");
        if *has_member {
            self.buf.push_str(", ");
        }
        *has_member = true;
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\": ");
    }

    pub fn begin(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push('{');
        self.open.push(false);
        self
    }

    pub fn end(&mut self) -> &mut Self {
        self.open.pop();
        assert!(!self.open.is_empty(), "end() closes the root");
        self.buf.push('}');
        self
    }

    /// A number with all its digits (Rust prints the shortest decimal that
    /// round-trips, never an exponent).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "metric {key} is not a finite number: {v}");
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// One `name: {"value": v, "unit": u}` member — the shape of every
    /// reported metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.begin(name).num("value", value).str("unit", unit).end()
    }

    /// Close the root and return the document (one line).
    pub fn finish(mut self) -> String {
        assert_eq!(self.open.len(), 1, "unclosed object");
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&mut [40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(50), 50.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(999), 90.0);
        assert_eq!(tail_pct(1_000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
        assert_eq!(tail_pct(100_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn vm_hwm_is_parsed_and_reported() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n"),
            Some(123_456)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn json_nests_escapes_and_keeps_digits() {
        let mut j = Json::new();
        j.bool("correct", true).int("attempted", 3);
        j.begin("metrics").metric("lat", 1.2034, "us").end();
        j.str("why", "a \"b\"\n").null("claim");
        assert_eq!(
            j.finish(),
            "{\"correct\": true, \"attempted\": 3, \"metrics\": {\"lat\": {\"value\": 1.2034, \"unit\": \"us\"}}, \"why\": \"a \\\"b\\\"\\n\", \"claim\": null}"
        );
    }

    #[test]
    fn allocations_and_live_bytes_are_counted() {
        let a0 = allocs();
        reset_peak_heap();
        let before = peak_heap_mb();
        let v: Vec<u8> = Vec::with_capacity(8 << 20);
        std::hint::black_box(&v);
        drop(v);
        assert!(allocs() > a0);
        // Other tests allocate concurrently, so only a lower bound holds.
        assert!(peak_heap_mb() >= before + 7.9);
    }
}
