//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into a layer; nothing inside the program under test is instrumented.
//! They stay in memory and are written out once, after the last
//! measurement. With tracing off every method is a branch on one bool and
//! reads no clock.

use std::time::{Duration, Instant};

use crate::host::Json;

/// One recorded interval. `calls > 1` marks an *aggregate*: a hot loop's
/// many short calls into one layer, timed individually and summed, so a
/// round of a thousand submits costs one span rather than a thousand.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Repetition the span belongs to — the identifier its spans share.
    pub rep: u32,
    pub calls: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    rep: u32,
}

/// Handle of an open span (`None` while tracing is off).
pub type SpanId = Option<u32>;

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between repetitions (the traced run
    /// interleaves untraced repetitions to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            calls: 1,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// A clock reading for an aggregate, `None` while tracing is off.
    pub fn clock(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Record an aggregate child of the innermost open span: `calls` calls
    /// that together took `total`.
    pub fn aggregate(&mut self, name: &'static str, total: Duration, calls: u64) {
        if !self.on || calls == 0 {
            return;
        }
        let parent = self.open.last().copied();
        let start = parent.map_or(0, |p| self.spans[p as usize].start_ns);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + total.as_nanos() as u64,
            parent,
            rep: self.rep,
            calls,
        });
    }

    /// Self time (duration minus the part its children cover) and call
    /// count, summed over every span called `name` in repetitions `reps`.
    pub fn self_time(&self, name: &str, reps: &std::ops::Range<u32>) -> (u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name && reps.contains(&s.rep))
            .fold((0, 0), |(ns, calls), (s, c)| {
                (ns + s.dur_ns().saturating_sub(*c), calls + s.calls)
            })
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The whole trace as one JSON document: an object of span objects
    /// keyed by span index.
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        j.int("spans", self.spans.len() as u64);
        for (i, s) in self.spans.iter().enumerate() {
            j.begin(&i.to_string())
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("rep", u64::from(s.rep))
                .int("calls", s.calls);
            match s.parent {
                Some(p) => j.int("parent", u64::from(p)),
                None => j.null("parent"),
            };
            j.end();
        }
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_reads_no_clock() {
        let mut t = Trace::new(false);
        let id = t.enter("rep");
        assert!(id.is_none() && t.clock().is_none());
        t.aggregate("submit", Duration::from_nanos(5), 3);
        t.exit(id);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        t.set_rep(2);
        let rep = t.enter("rep");
        let run = t.enter("run");
        t.exit(run);
        t.aggregate("submit", Duration::from_nanos(400), 4);
        t.exit(rep);
        // Pin the clock readings so the arithmetic is checked exactly.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1_000;
        t.spans[1].start_ns = 100;
        t.spans[1].end_ns = 350;
        t.spans[2].start_ns = 0;
        t.spans[2].end_ns = 400;
        assert_eq!(t.self_time("rep", &(0..5)), (1_000 - 250 - 400, 1));
        assert_eq!(t.self_time("run", &(0..5)), (250, 1));
        assert_eq!(t.self_time("submit", &(2..3)), (400, 4));
        assert_eq!(t.self_time("submit", &(0..2)), (0, 0));
        assert_eq!(t.self_time("absent", &(0..5)), (0, 0));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].rep, 2);
        let doc = t.to_json();
        assert!(doc.starts_with("{\"spans\": 3, \"0\": {\"name\": \"rep\""));
        assert!(doc.contains("\"parent\": null") && doc.contains("\"parent\": 0"));
    }
}
