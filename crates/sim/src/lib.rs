#![warn(missing_docs)]
//! Deterministic simulation substrate for the NonStop SQL reproduction.
//!
//! The paper's measurements are message counts, message bytes, disk I/O
//! counts, audit volume, and path length ("CPU work"). All of those are
//! captured here as per-entity [`measure`] counters, viewed globally as a
//! [`MetricsSnapshot`], and latency shape is captured by a
//! virtual [`Clock`] advanced according to a [`CostModel`]. Nothing in the
//! system reads wall-clock time, so every experiment is exactly reproducible.

pub mod clock;
pub mod cost;
pub mod measure;
pub mod metrics;
pub mod rng;
pub mod span;
pub mod sync;
pub mod trace;

pub use clock::{Clock, Micros, Wait, WaitProfile, WAIT_CATEGORIES};
pub use cost::CostModel;
pub use measure::{
    Ctr, EntityKind, FlightDump, FlightEntry, FlightRecorder, MeasureRecord, MeasureRegistry,
    MeasureReport, MeasureSnapshot, AUDIT_PROCESS, COUNTER_NAMES,
};
pub use metrics::MetricsSnapshot;
pub use rng::{SimRng, Zipf};
pub use span::{current_span, SpanAllocator, SpanGuard, SpanHeader};
pub use trace::{
    assemble_spans, chrome_trace, format_sequence, FaultAction, Histogram, Histograms, SpanNode,
    TraceEvent, TraceEventKind, TraceMsgClass, TraceRecorder,
};

use std::sync::Arc;

/// Shared simulation context handed to every component of a cluster.
///
/// Cloning is cheap (all members are `Arc`s); all clones observe the same
/// virtual time and the same counters.
#[derive(Clone)]
pub struct Sim {
    /// The virtual clock.
    pub clock: Arc<Clock>,
    /// The cost model all components charge against.
    pub cost: Arc<CostModel>,
    /// Event-level trace recorder (off by default; see [`trace`]).
    pub trace: Arc<TraceRecorder>,
    /// Always-on latency/size distributions (see [`trace::Histograms`]).
    pub hist: Arc<Histograms>,
    /// MEASURE-style per-entity counter records (see [`measure`]).
    pub measure: Arc<MeasureRegistry>,
    /// Always-on per-process flight rings and crash dumps (see [`measure`]).
    pub flight: Arc<FlightRecorder>,
    /// The cluster-wide MEASURE record (`system SYSTEM`).
    pub system: Arc<MeasureRecord>,
    /// Trace/span id allocator for causal tracing (see [`span`]).
    pub spans: Arc<SpanAllocator>,
}

impl Sim {
    /// Create a simulation context with the default 1988-flavoured cost model.
    pub fn new() -> Self {
        Self::with_cost(CostModel::default())
    }

    /// Create a simulation context with an explicit cost model.
    pub fn with_cost(cost: CostModel) -> Self {
        let measure = Arc::new(MeasureRegistry::new());
        Sim {
            system: measure.entity(EntityKind::System, "SYSTEM"),
            clock: Arc::new(Clock::new()),
            cost: Arc::new(cost),
            trace: Arc::new(TraceRecorder::new()),
            hist: Arc::new(Histograms::new()),
            measure,
            flight: Arc::new(FlightRecorder::new()),
            spans: Arc::new(SpanAllocator::new()),
        }
    }

    /// Snapshot every entity's counters at the current virtual time.
    pub fn measure_snapshot(&self) -> MeasureSnapshot {
        self.measure.snapshot(self.now())
    }

    /// The paper's counters, computed from every entity's MEASURE record
    /// and the per-statement wait histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_measure(&self.measure_snapshot(), &self.hist.stmt_wait_totals())
    }

    /// Dump `process`'s flight ring with the current counter snapshot —
    /// called by the fault plane, TMF dooming, and typed FS errors.
    pub fn flight_dump(&self, process: &str, reason: &str) {
        self.flight
            .dump(process, reason, self.now(), self.measure_snapshot());
    }

    /// Record a trace event at the current virtual time. The closure runs
    /// only when tracing is enabled, so callers pay one atomic load when off.
    pub fn trace_emit(&self, make: impl FnOnce() -> TraceEventKind) {
        self.trace.emit(self.clock.now(), make);
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> Micros {
        self.clock.now()
    }

    /// Account for `units` of CPU work in layer `layer`, advancing virtual
    /// time by `units * cost.cpu_work_unit_us`.
    pub fn cpu_work(&self, layer: CpuLayer, units: u64) {
        let ctr = match layer {
            CpuLayer::Executor => Ctr::CpuExecutor,
            CpuLayer::FileSystem => Ctr::CpuFs,
            CpuLayer::DiskProcess => Ctr::CpuDp,
        };
        self.system.add(ctr, units);
        self.clock
            .advance_in(Wait::Cpu, units * self.cost.cpu_work_unit_us);
    }

    /// Current per-category wait ledger (see [`Clock::profile`]). Two
    /// snapshots subtract to a window's exact latency decomposition.
    pub fn wait_profile(&self) -> WaitProfile {
        self.clock.profile()
    }

    /// Open a root span for a new statement: fresh trace id, no parent.
    pub fn span_root(&self, label: &str, track: &str) -> SpanGuard {
        let header = SpanHeader {
            trace: self.spans.trace_id(),
            span: self.spans.span_id(),
            parent: 0,
        };
        SpanGuard::open(self.clock.clone(), self.trace.clone(), header, label, track)
    }

    /// Open a span under the innermost open span on this thread — a fresh
    /// root trace when none is open (e.g. utility operations outside a
    /// statement).
    pub fn span_child(&self, label: &str, track: &str) -> SpanGuard {
        let cur = current_span();
        let header = SpanHeader {
            trace: if cur.span == 0 {
                self.spans.trace_id()
            } else {
                cur.trace
            },
            span: self.spans.span_id(),
            parent: cur.span,
        };
        SpanGuard::open(self.clock.clone(), self.trace.clone(), header, label, track)
    }

    /// Open a span under an identity carried on the wire — the Disk Process
    /// side of a request: same trace, parent = the request's span.
    pub fn span_enter(&self, carried: SpanHeader, label: &str, track: &str) -> SpanGuard {
        let header = SpanHeader {
            trace: carried.trace,
            span: self.spans.span_id(),
            parent: carried.span,
        };
        SpanGuard::open(self.clock.clone(), self.trace.clone(), header, label, track)
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// The layer on whose behalf CPU work is being accounted.
///
/// The paper argues that increased path length at *higher* levels (SQL
/// executor) is paid for by savings at the *lower* levels (File System and
/// Disk Process); separating the counters lets experiments show exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuLayer {
    /// SQL executor / application-level requester code.
    Executor,
    /// File System library (client side of the FS-DP interface).
    FileSystem,
    /// Disk Process (server side of the FS-DP interface).
    DiskProcess,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_work_advances_clock_and_counters() {
        let sim = Sim::new();
        let t0 = sim.now();
        sim.cpu_work(CpuLayer::DiskProcess, 10);
        assert_eq!(sim.snapshot().cpu_dp, 10);
        assert_eq!(sim.now() - t0, 10 * sim.cost.cpu_work_unit_us);
    }

    #[test]
    fn clones_share_state() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.clock.advance(100);
        assert_eq!(sim2.now(), 100);
        sim2.system.add(Ctr::RowsReturned, 3);
        assert_eq!(sim.snapshot().rows_returned, 3);
    }
}
