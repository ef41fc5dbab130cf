//! The repository benchmark: three seeded, single-thread workloads driven
//! through the public API, with end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run. See README.md.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perf -- \
//!     --workload sql_oltp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod contended;
mod cpu_clock;
mod probes;
mod report;
mod spans;
mod sql_oltp;
mod wisc_scan;

use nsql_bench::wall_clock;
use nsql_core::Cluster;
use nsql_sim::{Ctr, MeasureReport, MetricsSnapshot, WaitProfile};
use nsql_tmf::AUDIT_PROCESS;
use spans::Tracer;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Rounds measured after the warm-up round, at the least, even when the
/// requested seconds run out first.
const MIN_ROUNDS: usize = 3;

/// The program's own counters over a window of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Virtual time the window took.
    pub virt_us: u64,
    /// `MetricsSnapshot` delta, by counter name.
    pub metrics: Vec<(&'static str, u64)>,
    /// Wait-ledger delta.
    pub wait: WaitProfile,
    /// MEASURE delta, each counter summed over every entity.
    pub measure: [u64; Ctr::COUNT],
}

impl Delta {
    /// A `MetricsSnapshot` counter, by field name.
    pub fn get(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
            .1
    }

    pub fn add(&mut self, other: &Delta) {
        self.virt_us += other.virt_us;
        for ((_, a), (_, b)) in self.metrics.iter_mut().zip(&other.metrics) {
            *a += b;
        }
        for (a, b) in self.wait.us.iter_mut().zip(other.wait.us) {
            *a += b;
        }
        for (a, b) in self.measure.iter_mut().zip(other.measure) {
            *a += b;
        }
    }
}

/// Counter readings at the start of a window. Taking one moves neither the
/// virtual clock nor any counter.
struct Mark {
    at: u64,
    metrics: MetricsSnapshot,
    wait: WaitProfile,
    measure: MeasureReport,
}

impl Mark {
    fn take(db: &Cluster) -> Mark {
        Mark {
            at: db.sim.now(),
            metrics: db.snapshot(),
            wait: db.sim.wait_profile(),
            measure: MeasureReport::capture(&db.sim),
        }
    }

    fn delta(&self, db: &Cluster) -> Delta {
        let mut measure = [0u64; Ctr::COUNT];
        let now = MeasureReport::capture(&db.sim).since(&self.measure);
        for vals in now.snap.entities.values() {
            for (m, v) in measure.iter_mut().zip(vals) {
                *m += v;
            }
        }
        Delta {
            virt_us: db.sim.now() - self.at,
            metrics: (db.snapshot() - self.metrics).iter().collect(),
            wait: db.sim.wait_profile() - self.wait,
            measure,
        }
    }
}

/// What a round's timed ops measured.
pub struct Timed<R> {
    /// What each op returned, in order.
    pub results: Vec<R>,
    /// Wall seconds of all the ops.
    pub wall_s: f64,
    /// Wall µs of each op.
    pub wall_us: Vec<f64>,
    /// Host CPU seconds of all the ops.
    pub cpu_s: f64,
    /// Host CPU µs of each op.
    pub cpu_us: Vec<f64>,
    /// Virtual µs of each op.
    pub virt_us: Vec<u64>,
    /// Heap allocations made by the ops.
    pub allocs: u64,
    /// Counter deltas over the ops.
    pub delta: Delta,
}

/// Run `op` once per input, each call one timed op under a root span named
/// `op`. In the traced run the counters are also read before and after each
/// op: each op's wait-ledger delta must sum exactly to its virtual latency,
/// and the ops' deltas must add up exactly to the whole window's.
pub fn timed_ops<T, R>(
    db: &Cluster,
    tr: &mut Tracer,
    inputs: &[T],
    mut op: impl FnMut(&T, &mut Tracer) -> R,
) -> Result<Timed<R>, String> {
    let mut results = Vec::with_capacity(inputs.len());
    let mut wall_us = Vec::with_capacity(inputs.len());
    let mut cpu_us = Vec::with_capacity(inputs.len());
    let mut virt_us = Vec::with_capacity(inputs.len());
    let mut sum: Option<Delta> = None;
    let window = Mark::take(db);
    let a0 = alloc::count();
    let clock = wall_clock::start();
    let cpu = cpu_clock::start();
    for (i, input) in inputs.iter().enumerate() {
        let mark = tr.on().then(|| Mark::take(db));
        tr.next_op();
        let v0 = db.sim.now();
        let t = wall_clock::start();
        let c = cpu_clock::start();
        tr.enter("op");
        results.push(op(input, tr));
        tr.exit();
        cpu_us.push(c.elapsed_micros());
        wall_us.push(t.elapsed_micros());
        virt_us.push(db.sim.now() - v0);
        if let Some(m) = mark {
            let d = m.delta(db);
            if d.wait.total() != d.virt_us {
                return Err(format!(
                    "op {i}: wait ledger sums to {} us, virtual latency is {} us",
                    d.wait.total(),
                    d.virt_us
                ));
            }
            match &mut sum {
                None => sum = Some(d),
                Some(s) => s.add(&d),
            }
        }
    }
    let cpu_s = cpu.elapsed_secs();
    let wall_s = clock.elapsed_secs();
    let allocs = alloc::count() - a0;
    let delta = window.delta(db);
    if tr.on() && sum.as_ref() != Some(&delta) {
        return Err("per-op counter deltas do not add up to the round's".into());
    }
    Ok(Timed {
        results,
        wall_s,
        wall_us,
        cpu_s,
        cpu_us,
        virt_us,
        allocs,
        delta,
    })
}

/// Simulated cost of one round's timed ops. A round is a pure function of
/// the seed, so every round of a run must produce an equal `SimCost`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCost {
    /// Ops completed (transactions or queries).
    pub ops: u64,
    /// Transactions committed by the ops.
    pub txns: u64,
    /// Virtual latency of each op (`contended_oltp`: of each committed
    /// transaction, from its arrival).
    pub virt_us: Vec<u64>,
    /// Counter deltas over the timed ops.
    pub delta: Delta,
    /// Workload-specific simulated figures, such as `virt_tps_at_slo`.
    pub extra: Vec<(&'static str, f64)>,
}

impl SimCost {
    pub fn extra(&self, name: &str) -> f64 {
        self.extra
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Frames of the 256-frame DP cache in use, and blocks on the volume.
pub fn working_set(db: &Cluster) -> Vec<(&'static str, f64)> {
    let dp = db.dp("$DATA1");
    vec![
        ("cache.frames_used", dp.pool().cached_frames() as f64),
        ("volume.blocks", dp.pool().disk().len_blocks() as f64),
    ]
}

/// Unregister the cluster's servers and its path-switch hook from its bus.
/// The bus and what is registered on it keep each other alive, so without
/// this a dropped `Cluster` is never freed and each round would add its
/// whole memory to the process.
pub fn teardown(db: &Cluster) {
    db.bus.set_path_switch(Arc::new(|_: &str| false));
    for volume in db.volumes() {
        db.bus.deregister(&volume);
    }
    db.bus.deregister(AUDIT_PROCESS);
}

/// What one round measured.
pub struct Round {
    /// Wall seconds of each cluster build plus table load in the round.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed ops.
    pub wall_s: f64,
    /// Wall latency samples in µs (one per op; `contended_oltp`: one per
    /// `run_load` call, divided by the transactions it committed).
    pub wall_us: Vec<f64>,
    /// Host CPU time samples in µs, taken like `wall_us`.
    pub cpu_us: Vec<f64>,
    /// Heap allocations made by the timed ops.
    pub allocs: u64,
    pub sim: SimCost,
    pub attempted: u64,
    /// Ops that failed: errors, gave-ups and wrong answers.
    pub failed: u64,
    /// Wrong answers and failed end-of-round checks.
    pub wrong: u64,
    /// Host-side probe timings, taken only in traced rounds.
    pub probes: probes::Probes,
}

type RoundFn = fn(u64, &mut Tracer) -> Result<Round, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            // `cargo bench` appends this flag to the arguments it passes.
            "--bench" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

struct Workload {
    round: RoundFn,
    /// Whether a round that does not reproduce the warm-up round's
    /// simulated cost fails the run. `wisc_scan` only reports such rounds:
    /// `BufferPool` eviction picks its victim among frames of equal
    /// last use (the blocks of one bulk read) in `HashMap` order, which
    /// differs between map instances, so under cache pressure the same
    /// seed can read a block more or less often.
    exact: bool,
}

fn workload(name: &str) -> Result<Workload, String> {
    let (round, exact): (RoundFn, bool) = match name {
        "sql_oltp" => (sql_oltp::round, true),
        "wisc_scan" => (wisc_scan::round, false),
        "contended_oltp" => (contended::round, true),
        other => {
            return Err(format!(
                "unknown workload {other} (sql_oltp, wisc_scan, contended_oltp)"
            ))
        }
    };
    Ok(Workload { round, exact })
}

/// What differs between two simulated costs of the same seed.
fn divergence(a: &SimCost, b: &SimCost) -> String {
    let ops = a
        .virt_us
        .iter()
        .zip(&b.virt_us)
        .filter(|(x, y)| x != y)
        .count();
    let mut out = format!("{ops} ops with another virtual latency");
    for ((name, x), (_, y)) in a.delta.metrics.iter().zip(&b.delta.metrics) {
        if x != y {
            out += &format!(", {name} {y} -> {x}");
        }
    }
    out
}

/// Rounds run until `seconds` of wall time have passed (and at least
/// [`MIN_ROUNDS`]), each checked against the warm-up round's simulated
/// cost, with the number of rounds that did not reproduce it.
fn rounds(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: &SimCost,
    tr: &mut Tracer,
) -> Result<(Vec<Round>, u64), String> {
    let clock = wall_clock::start();
    let mut out: Vec<Round> = Vec::new();
    let mut diverged = 0;
    while out.len() < MIN_ROUNDS || clock.elapsed_secs() < seconds {
        let r = (w.round)(seed, tr)?;
        if r.sim != *reference {
            let msg = format!(
                "round {} of seed {seed} (traced: {}) did not reproduce the warm-up round's \
                 simulated cost: {}",
                out.len() + 1,
                tr.on(),
                divergence(&r.sim, reference)
            );
            if w.exact {
                return Err(msg);
            }
            eprintln!("perfbench: warning: {msg}");
            diverged += 1;
        }
        out.push(r);
    }
    Ok((out, diverged))
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let w = workload(&args.workload)?;
    // Warm-up round with allocation counting off: its simulated cost is the
    // reference the counted rounds must reproduce.
    alloc::set_counting(false);
    let warm = (w.round)(args.seed, &mut Tracer::new(false))?;
    // Read after set-up and one full round, before the per-round results
    // the run keeps add to it.
    let peak_rss_mb = report::peak_rss_mb();
    alloc::set_counting(true);
    let reference = warm.sim.clone();
    if !args.trace {
        let (measured, diverged) = rounds(
            &w,
            args.seed,
            args.seconds,
            &reference,
            &mut Tracer::new(false),
        )?;
        return Ok(report::end_to_end(
            &args.workload,
            &warm,
            &measured,
            diverged,
            peak_rss_mb,
        ));
    }
    let half = args.seconds / 2.0;
    let (plain, d1) = rounds(&w, args.seed, half, &reference, &mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let (traced, d2) = rounds(&w, args.seed, half, &reference, &mut tr)?;
    let out = report::per_layer(&args.workload, &warm, &plain, &traced, &tr, d1 + d2);
    report::write_spans(&args.workload, args.seed, &tr)?;
    Ok(out)
}

fn main() {
    alloc::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
