//! Small online-statistics helpers used by benchmarks and layer counters.

use std::fmt;

/// How one counter field combines when stats blocks are merged — shard
/// worlds into a cluster aggregate, per-tenant or per-NIC rows into a total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Running total: what each input gained is added.
    Total,
    /// High-water mark: the largest value any input reached.
    HighWater,
    /// Latest-value gauge (sampled state such as `srtt_ns`, not a count):
    /// merged as the maximum over the inputs, so it depends on the partition
    /// and is never compared across shard counts.
    Gauge,
}

/// A block of counters that knows how its fields merge: the leaf cells
/// (`u64`, `[u64; N]`) and, through [`counters!`](crate::counters), every
/// stats struct. Blocks nest, so a whole tree merges and walks in one call.
pub trait Counters: Copy + Default {
    /// Fold `later` into `self` as a field of `kind`: a total gains
    /// `later − earlier`, a mark or gauge rises to `later`. A block ignores
    /// `kind` and applies its own fields' declared kinds.
    fn fold(&mut self, kind: Merge, later: &Self, earlier: &Self);
    /// Push `(dotted name, kind, value)` for every leaf under `name`.
    fn walk(&self, name: &str, kind: Merge, out: &mut Vec<(String, Merge, u64)>);

    /// `self += later − earlier`, each field by its declared kind.
    fn accumulate(&mut self, later: &Self, earlier: &Self) {
        self.fold(Merge::Total, later, earlier);
    }
    /// The merge of `parts` (rows, shards) starting from zero.
    fn merged(parts: impl IntoIterator<Item = Self>) -> Self {
        let mut out = Self::default();
        for p in parts {
            out.accumulate(&p, &Self::default());
        }
        out
    }
    /// Every leaf as `(dotted name, kind, value)`, in declaration order.
    fn fields(&self) -> Vec<(String, Merge, u64)> {
        let mut out = Vec::new();
        self.walk("", Merge::Total, &mut out);
        out
    }
}

impl Counters for u64 {
    fn fold(&mut self, kind: Merge, later: &u64, earlier: &u64) {
        *self = match kind {
            // Modular, so a total that dipped (a refund) still nets out.
            Merge::Total => self.wrapping_add(*later).wrapping_sub(*earlier),
            Merge::HighWater | Merge::Gauge => (*self).max(*later),
        };
    }
    fn walk(&self, name: &str, kind: Merge, out: &mut Vec<(String, Merge, u64)>) {
        out.push((name.to_string(), kind, *self));
    }
}

impl<const N: usize> Counters for [u64; N]
where
    Self: Default,
{
    fn fold(&mut self, kind: Merge, later: &Self, earlier: &Self) {
        for i in 0..N {
            self[i].fold(kind, &later[i], &earlier[i]);
        }
    }
    fn walk(&self, name: &str, kind: Merge, out: &mut Vec<(String, Merge, u64)>) {
        for (i, v) in self.iter().enumerate() {
            v.walk(&format!("{name}[{i}]"), kind, out);
        }
    }
}

/// Declare a stats block: a `Copy` struct of public counter fields plus its
/// [`Counters`] impl. Every field is a [`Merge::Total`] unless marked
/// `= HighWater` or `= Gauge` after its type; a field may itself be a block.
#[macro_export]
macro_rules! counters {
    ($(#[$sm:meta])* pub struct $name:ident {
        $($(#[$fm:meta])* pub $f:ident : $t:ty $(= $kind:ident)?),* $(,)?
    }) => {
        $(#[$sm])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name { $($(#[$fm])* pub $f: $t,)* }

        impl $crate::Counters for $name {
            fn fold(&mut self, _: $crate::Merge, later: &Self, earlier: &Self) {
                $($crate::Counters::fold(
                    &mut self.$f, $crate::counters!(@kind $($kind)?), &later.$f, &earlier.$f,
                );)*
            }
            fn walk(&self, name: &str, _: $crate::Merge, out: &mut Vec<(String, $crate::Merge, u64)>) {
                let dot = if name.is_empty() { "" } else { "." };
                $($crate::Counters::walk(
                    &self.$f, &format!("{name}{dot}{}", stringify!($f)),
                    $crate::counters!(@kind $($kind)?), out,
                );)*
            }
        }
    };
    (@kind) => { $crate::Merge::Total };
    (@kind $kind:ident) => { $crate::Merge::$kind };
}

/// Online summary of a stream of samples: count, mean, min, max.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

/// One point of a figure series: message size on the x-axis, a measured value
/// (latency in µs or throughput in MB/s) on the y-axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    pub x: u64,
    pub y: f64,
}

/// A named series of measurements, as plotted in the paper's figures.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub name: String,
    pub points: Vec<SeriesPoint>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: u64, y: f64) {
        self.points.push(SeriesPoint { x, y });
    }

    /// Linear interpolation of `y` at `x` (clamps outside the domain).
    /// Used by shape assertions ("MX beats GM at every size").
    pub fn at(&self, x: u64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if x <= self.points[0].x {
            return Some(self.points[0].y);
        }
        if let Some(last) = self.points.last() {
            if x >= last.x {
                return Some(last.y);
            }
        }
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.x <= x && x <= b.x {
                let f = (x - a.x) as f64 / (b.x - a.x).max(1) as f64;
                return Some(a.y + f * (b.y - a.y));
            }
        }
        None
    }

    /// Maximum y value (e.g. peak bandwidth).
    pub fn peak(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The y value at the exact x sample, if present.
    pub fn exact(&self, x: u64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }
}

/// The standard message-size sweep used across the paper's figures:
/// powers of two from `lo` to `hi` inclusive, optionally with `1` prepended.
pub fn pow2_sizes(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo >= 1 && lo <= hi, "invalid sweep bounds");
    let mut v = Vec::new();
    let mut s = lo.next_power_of_two();
    if lo == 1 {
        v.push(1);
        s = 2;
    } else if s != lo {
        v.push(lo);
    }
    while s <= hi {
        v.push(s);
        s = s.saturating_mul(2);
    }
    if *v.last().unwrap() != hi {
        v.push(hi);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        /// A leaf block with one field of each kind.
        pub struct Leaf {
            /// Things done.
            pub done: u64,
            pub deepest: u64 = HighWater,
            pub latest: u64 = Gauge,
            pub lanes: [u64; 2],
        }
    }
    crate::counters! {
        pub struct Tree {
            pub a: Leaf,
            pub b: Leaf,
        }
    }

    fn leaf(done: u64, deepest: u64, latest: u64) -> Leaf {
        Leaf {
            done,
            deepest,
            latest,
            lanes: [done, 0],
        }
    }

    #[test]
    fn blocks_merge_by_declared_kind_and_nest() {
        // Two shards that both started from `base`: totals add the gains
        // once over the shared base, marks and gauges take the maximum.
        let base = leaf(10, 2, 5);
        let (s0, s1) = (leaf(13, 7, 6), leaf(11, 4, 9));
        let mut sum = base;
        sum.accumulate(&s0, &base);
        sum.accumulate(&s1, &base);
        assert_eq!(sum, leaf(14, 7, 9));
        assert_eq!(Leaf::merged([s0, s1]), leaf(24, 7, 9));

        let tree = Tree { a: s0, b: s1 };
        let both = Tree::merged([tree, tree]);
        assert_eq!((both.a.done, both.b.deepest), (26, 4));
        let names: Vec<(String, Merge, u64)> = tree.fields();
        assert_eq!(names.len(), 10);
        assert_eq!(names[0], ("a.done".to_string(), Merge::Total, 13));
        assert_eq!(names[4], ("a.lanes[1]".to_string(), Merge::Total, 0));
        assert_eq!(names[7], ("b.latest".to_string(), Merge::Gauge, 9));
    }

    #[test]
    fn a_total_that_dipped_below_its_base_still_nets_out() {
        let mut acc = 5u64;
        acc.fold(Merge::Total, &3, &5); // one shard refunded two
        acc.fold(Merge::Total, &9, &5);
        assert_eq!(acc, 7);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.push(1.0);
        let mut b = Summary::new();
        b.push(5.0);
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5.0);
        assert_eq!(a.min(), 1.0);
        a.merge(&Summary::new());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn series_interpolates() {
        let mut s = Series::new("t");
        s.push(0, 0.0);
        s.push(10, 100.0);
        assert_eq!(s.at(5), Some(50.0));
        assert_eq!(s.at(0), Some(0.0));
        assert_eq!(s.at(100), Some(100.0)); // clamp right
        assert_eq!(s.exact(10), Some(100.0));
        assert_eq!(s.exact(5), None);
        assert_eq!(s.peak(), 100.0);
    }

    #[test]
    fn empty_series_has_no_values() {
        let s = Series::new("e");
        assert_eq!(s.at(3), None);
    }

    #[test]
    fn pow2_sweep_includes_endpoints() {
        assert_eq!(pow2_sizes(1, 8), vec![1, 2, 4, 8]);
        assert_eq!(pow2_sizes(4, 10), vec![4, 8, 10]);
        assert_eq!(pow2_sizes(3, 16), vec![3, 4, 8, 16]);
    }

    #[test]
    #[should_panic(expected = "invalid sweep bounds")]
    fn pow2_sweep_rejects_bad_bounds() {
        let _ = pow2_sizes(8, 4);
    }
}
