//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a crate's
//! public functions (and one root span per op). Each span records its name,
//! op id, parent, wall start and end, and the allocations made while it was
//! open. Spans stay in memory and are written out once, when the run ends.

use crate::alloc;
use nsql_bench::wall_clock::{self, Stopwatch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    allocs: u64,
}

/// Records spans when on; every method is a no-op when off.
pub struct Tracer {
    on: bool,
    epoch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Per-name totals over every recorded span.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub incl_us: f64,
    pub self_us: f64,
    pub incl_allocs: u64,
    pub self_allocs: u64,
}

impl SpanTotals {
    /// Mean inclusive wall time per span, in µs (0 when none was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.incl_us / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: wall_clock::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start the next op: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_us: self.epoch.elapsed_micros(),
            end_us: 0.0,
            allocs: alloc::count(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        let s = &mut self.spans[i];
        s.end_us = self.epoch.elapsed_micros();
        s.allocs = alloc::count() - s.allocs;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Totals per span name. Self time and self allocations are a span's
    /// own figures minus those of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_us - s.start_us;
            t.count += 1;
            t.incl_us += dur;
            t.self_us += dur - child_us[i];
            t.incl_allocs += s.allocs;
            t.self_allocs += s.allocs - child_allocs[i];
        }
        out
    }

    /// Every span as one tab-separated line:
    /// `id parent op name start_us end_us allocs` (parent `-` for roots).
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_us\tend_us\tallocs\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}\t{}",
                s.op, s.name, s.start_us, s.end_us, s.allocs
            );
        }
        out
    }
}
