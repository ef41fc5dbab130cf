//! Turns measured rounds into the benchmark's metrics and prints them: a
//! readable table first, then the one-line JSON result last.

use crate::spans::Tracer;
use crate::{probes::Probes, sql_oltp, wisc_scan, Round, SimCost};
use nsql_sim::{Ctr, Wait};

pub struct Outcome {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite number as JSON; NaN and infinities (0/0 ratios) print as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Percentile `q` in `[0, 1]`: the sorted sample at index `⌈q·(n−1)⌉`
/// (numpy's `higher` method), so always a measured value; 0 for no
/// samples. For an even count the median is the upper middle sample.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let i = (q * (v.len() - 1) as f64).ceil() as usize;
    v[i.min(v.len() - 1)]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// FNV-1a of the simulated cost: equal for every run of one seed.
fn fingerprint(sim: &SimCost) -> u64 {
    format!("{sim:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

fn virt_pct(sim: &SimCost, q: f64) -> f64 {
    let mut v: Vec<f64> = sim.virt_us.iter().map(|&x| x as f64).collect();
    percentile(&mut v, q)
}

fn virt_ops_per_s(sim: &SimCost) -> f64 {
    ratio(sim.ops * 1_000_000, sim.delta.virt_us)
}

/// The highest offered rate whose virtual p99 meets the workload's limit.
/// `contended_oltp` walks its ladder; a closed loop with one client has one
/// rate, its own throughput.
fn virt_tps_at_slo(workload: &str, sim: &SimCost) -> f64 {
    let limit_us = match workload {
        "sql_oltp" => sql_oltp::SLO_P99_US,
        "wisc_scan" => wisc_scan::SLO_P99_US,
        _ => return sim.extra("virt_tps_at_slo"),
    };
    if virt_pct(sim, 0.99) <= limit_us as f64 {
        virt_ops_per_s(sim)
    } else {
        0.0
    }
}

/// The process's resident-memory high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tally(warm: &Round, rounds: &[&Round]) -> (bool, u64, u64) {
    let all = std::iter::once(warm).chain(rounds.iter().copied());
    let (mut wrong, mut attempted, mut failed) = (0, 0, 0);
    for r in all {
        wrong += r.wrong;
        attempted += r.attempted;
        failed += r.failed;
    }
    (wrong == 0, attempted, failed)
}

fn notes(
    workload: &str,
    warm: &Round,
    attempted: u64,
    failed: u64,
    rounds: usize,
    diverged: u64,
) -> Vec<String> {
    let sim = &warm.sim;
    let mut n = vec![
        format!("workload {workload}"),
        format!(
            "error_rate {} ({failed} failed of {attempted} attempted)",
            ratio(failed, attempted)
        ),
        format!("simulated fingerprint {:016x}", fingerprint(sim)),
        format!(
            "{diverged} of {rounds} rounds did not reproduce the warm-up round's simulated cost"
        ),
    ];
    for (name, v) in &sim.extra {
        n.push(format!("{name} {v}"));
    }
    n
}

/// Host figures of `rounds`: the median over rounds of each round's
/// throughput and of its wall and CPU latency p50 and p99. A median over
/// rounds keeps a short stall of the host from moving the result.
struct Host {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// The same two percentiles over host CPU time.
    cpu_p50_us: f64,
    cpu_p99_us: f64,
}

fn host_figures(rounds: &[&Round]) -> Host {
    let mut rate: Vec<f64> = rounds.iter().map(|r| r.sim.ops as f64 / r.wall_s).collect();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu_p50 = Vec::new();
    let mut cpu_p99 = Vec::new();
    for r in rounds {
        let mut lat = r.wall_us.clone();
        p50.push(percentile(&mut lat, 0.5));
        p99.push(percentile(&mut lat, 0.99));
        let mut cpu = r.cpu_us.clone();
        cpu_p50.push(percentile(&mut cpu, 0.5));
        cpu_p99.push(percentile(&mut cpu, 0.99));
    }
    Host {
        ops_per_s: percentile(&mut rate, 0.5),
        p50_us: percentile(&mut p50, 0.5),
        p99_us: percentile(&mut p99, 0.5),
        cpu_p50_us: percentile(&mut cpu_p50, 0.5),
        cpu_p99_us: percentile(&mut cpu_p99, 0.5),
    }
}

pub fn end_to_end(
    workload: &str,
    warm: &Round,
    rounds: &[Round],
    diverged: u64,
    peak_rss_mb: f64,
) -> Outcome {
    let rs: Vec<&Round> = rounds.iter().collect();
    let (correct, attempted, failed) = tally(warm, &rs);
    let sim = &warm.sim;
    let d = &sim.delta;
    let ops = sim.ops;
    let mut setup: Vec<f64> = rs.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let host = host_figures(&rs);
    let total_ops: u64 = rs.iter().map(|r| r.sim.ops).sum();
    let allocs: u64 = rs.iter().map(|r| r.allocs).sum();
    let mut notes = notes(workload, warm, attempted, failed, rs.len(), diverged);
    let samples: usize = rs.iter().map(|r| r.wall_us.len()).sum();
    notes.push(format!("{samples} wall samples, {} setups", setup.len()));
    // Wall figures count the time the host runs other work, so they swing
    // with its load by more than any bound a gate could hold (see
    // README.md). They are printed here and reported, ungated, as `host.*`
    // metrics of the traced run; the gated host costs are CPU time.
    notes.push(format!("ops_per_s {} op/s", host.ops_per_s));
    notes.push(format!("wall_us_p50 {} us", host.p50_us));
    notes.push(format!("wall_us_p99 {} us", host.p99_us));
    let metrics = vec![
        ("setup_s", percentile(&mut setup, 0.5), "s"),
        ("cpu_us_p50", host.cpu_p50_us, "us"),
        ("cpu_us_p99", host.cpu_p99_us, "us"),
        ("virt_us_p50", virt_pct(sim, 0.5), "virt_us"),
        ("virt_us_p99", virt_pct(sim, 0.99), "virt_us"),
        ("virt_ops_per_s", virt_ops_per_s(sim), "op/virt_s"),
        (
            "virt_tps_at_slo",
            virt_tps_at_slo(workload, sim),
            "txn/virt_s",
        ),
        ("fsdp_msgs_per_op", ratio(d.get("msgs_fs_dp"), ops), "msgs"),
        (
            "msg_bytes_per_op",
            ratio(d.get("msg_bytes_total"), ops),
            "B",
        ),
        (
            "disk_ios_per_op",
            ratio(d.get("disk_reads") + d.get("disk_writes"), ops),
            "ios",
        ),
        ("allocs_per_op", ratio(allocs, total_ops), "allocs"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

pub fn per_layer(
    workload: &str,
    warm: &Round,
    plain: &[Round],
    traced: &[Round],
    tr: &Tracer,
    diverged: u64,
) -> Outcome {
    let all: Vec<&Round> = plain.iter().chain(traced).collect();
    let (correct, attempted, failed) = tally(warm, &all);
    let sim = &warm.sim;
    let d = &sim.delta;
    let ops = sim.ops;
    let txns = sim.txns;
    let m = |name: &str| d.get(name);
    let per_op = |name: &str| ratio(m(name), ops);
    let per_txn = |name: &str| ratio(m(name), txns);
    let wait = |w: Wait| d.wait.get(w);
    let mut probes = Probes::default();
    for r in traced {
        probes.extend(&r.probes);
    }
    let spans = tr.totals();
    let span_us = |name: &str| spans.get(name).map_or(0.0, |t| t.mean_us());
    let host = host_figures(&plain.iter().collect::<Vec<_>>());
    let traced_rate = host_figures(&traced.iter().collect::<Vec<_>>()).ops_per_s;

    let mut notes = notes(workload, warm, attempted, failed, all.len(), diverged);
    notes.push("span totals: name count incl_us self_us incl_allocs self_allocs".into());
    for (name, t) in &spans {
        notes.push(format!(
            "span {name} {} {:.1} {:.1} {} {}",
            t.count, t.incl_us, t.self_us, t.incl_allocs, t.self_allocs
        ));
    }
    let metrics = vec![
        ("host.ops_per_s", host.ops_per_s, "op/s"),
        ("host.wall_us_p50", host.p50_us, "us"),
        ("host.wall_us_p99", host.p99_us, "us"),
        ("sql.parse.us", probes.us("probe.sql.parse"), "us"),
        ("sql.plan.us", probes.us("probe.sql.plan"), "us"),
        (
            "sql.parse.allocs",
            probes.allocs("probe.sql.parse"),
            "allocs",
        ),
        ("sql.plan.allocs", probes.allocs("probe.sql.plan"), "allocs"),
        (
            "core.execute.us.select",
            span_us("core.execute.select"),
            "us",
        ),
        (
            "core.execute.us.update",
            span_us("core.execute.update"),
            "us",
        ),
        (
            "core.execute.us.insert",
            span_us("core.execute.insert"),
            "us",
        ),
        (
            "core.execute.us.commit",
            span_us("core.execute.commit"),
            "us",
        ),
        (
            "sql.examined_per_returned",
            ratio(m("dp_records_examined"), m("rows_returned")),
            "ratio",
        ),
        (
            "sim.metrics_snapshot.us",
            probes.us("probe.sim.metrics_snapshot"),
            "us",
        ),
        (
            "sim.measure_capture.us",
            probes.us("probe.sim.measure_capture"),
            "us",
        ),
        ("fs.msgs.per_op", per_op("msgs_fs_dp"), "msgs"),
        ("fs.redrives.per_op", per_op("msgs_redrive"), "msgs"),
        ("fs.retries", m("fs_retries") as f64, "count"),
        ("fs.read_by_pk.us", probes.us("probe.fs.read_by_pk"), "us"),
        ("msg.total.per_op", per_op("msgs_total"), "msgs"),
        (
            "msg.bytes.per_msg",
            ratio(m("msg_bytes_total"), m("msgs_total")),
            "B",
        ),
        ("msg.audit.per_op", per_op("msgs_audit"), "msgs"),
        ("msg.wait_us.per_op", ratio(wait(Wait::Msg), ops), "virt_us"),
        ("dp.examined.per_op", per_op("dp_records_examined"), "rows"),
        (
            "dp.selected_ratio",
            ratio(m("dp_records_selected"), m("dp_records_examined")),
            "ratio",
        ),
        ("dp.cpu_units.per_op", per_op("cpu_dp"), "units"),
        ("dp.scbs.per_op", per_op("subset_control_blocks"), "count"),
        (
            "dp.cpu_wait_us.per_op",
            ratio(wait(Wait::Cpu), ops),
            "virt_us",
        ),
        (
            "cache.hit_ratio",
            ratio(m("cache_hits"), m("cache_hits") + m("cache_misses")),
            "ratio",
        ),
        (
            "cache.prefetch_hit_ratio",
            ratio(m("prefetch_hits"), m("cache_hits")),
            "ratio",
        ),
        ("cache.steals", m("cache_steals") as f64, "count"),
        (
            "cache.writebehind.per_op",
            per_op("writebehind_writes"),
            "ios",
        ),
        ("cache.read.us", probes.us("probe.cache.read"), "us"),
        (
            "cache.read.allocs",
            probes.allocs("probe.cache.read"),
            "allocs",
        ),
        ("btree.get.us", probes.us("probe.btree.get"), "us"),
        (
            "btree.get.allocs",
            probes.allocs("probe.btree.get"),
            "allocs",
        ),
        ("disk.reads.per_op", per_op("disk_reads"), "ios"),
        ("disk.writes.per_op", per_op("disk_writes"), "ios"),
        (
            "disk.blocks_per_read",
            ratio(m("disk_blocks_read"), m("disk_reads")),
            "blocks",
        ),
        ("disk.bulk.per_op", per_op("disk_bulk_ios"), "ios"),
        (
            "disk.wait_us.per_op",
            ratio(wait(Wait::Disk), ops),
            "virt_us",
        ),
        (
            "records.row_decode.us",
            probes.us("probe.records.row_decode"),
            "us",
        ),
        (
            "records.row_encode.us",
            probes.us("probe.records.row_encode"),
            "us",
        ),
        (
            "records.expr_eval.us",
            probes.us("probe.records.expr_eval"),
            "us",
        ),
        ("lock.waits.per_txn", per_txn("lock_waits"), "count"),
        (
            "lock.deadlocks.per_ktxn",
            1000.0 * ratio(d.measure[Ctr::DeadlockVictims as usize], txns),
            "count",
        ),
        (
            "lock.timeouts",
            d.measure[Ctr::LockWaitTimeouts as usize] as f64,
            "count",
        ),
        (
            "lock.wait_us.per_txn",
            ratio(wait(Wait::Lock), txns),
            "virt_us",
        ),
        ("tmf.audit_bytes.per_txn", per_txn("audit_bytes"), "B"),
        ("tmf.audit_flushes.per_txn", per_txn("audit_flushes"), "ios"),
        (
            "tmf.piggyback_ratio",
            ratio(m("group_commit_piggybacks"), m("txns_committed")),
            "ratio",
        ),
        (
            "tmf.commit_wait_us.per_txn",
            ratio(wait(Wait::Commit), txns),
            "virt_us",
        ),
        ("tmf.aborts.per_txn", per_txn("txns_aborted"), "count"),
        (
            "load.admission_wait_us.per_txn",
            sim.extra("load.admission_wait_us") / txns.max(1) as f64,
            "virt_us",
        ),
        (
            "load.retries.per_txn",
            sim.extra("load.retries") / txns.max(1) as f64,
            "count",
        ),
        ("load.gave_up", sim.extra("load.gave_up"), "count"),
        ("sim.divergent_rounds", diverged as f64, "count"),
        (
            "bench.trace_overhead_pct",
            100.0 * (host.ops_per_s / traced_rate - 1.0),
            "%",
        ),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Write every span of the traced run to a tab-separated file under the
/// package's `target/perfbench-spans/`.
pub fn write_spans(workload: &str, seed: u64, tr: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    std::fs::write(&path, tr.dump()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}
