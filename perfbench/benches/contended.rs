//! `contended_oltp`: the open-loop multi-terminal DebitCredit engine
//! (`nsql_workloads::run_load`) over a fixed ladder of offered rates.
//!
//! Twelve terminals draw exponential think times (open loop), pick accounts
//! from a Zipf hotspot (theta 1.0) over a 100-account bank, update the
//! three balances in a shuffled order (so waits-for cycles and deadlock
//! victims occur) and pass an admission gate of six in-flight
//! transactions. Latency is timed from arrival, so admission queueing
//! counts. The SQL front end is bypassed entirely: the lock manager,
//! deadlock victims with UNDO, group commit and the cooperative scheduler do
//! the work. Each rung runs on a freshly built and loaded cluster.

use crate::cpu_clock;
use crate::probes::{self, ProbeInput};
use crate::spans::Tracer;
use crate::{teardown, timed_ops, Round, SimCost};
use nsql_core::ClusterBuilder;
use nsql_records::{ArithOp, Expr, Value};
use nsql_workloads::{run_load, Bank, LoadConfig};

const TERMINALS: usize = 12;
const ZIPF_THETA: f64 = 1.0;
const MAX_INFLIGHT: usize = 6;
const BRANCHES: u32 = 10;
const ACCOUNTS_PER_BRANCH: u32 = 10;
/// The rate ladder: each rung's offered rate in transactions per virtual
/// second, and the names its achieved rate, virtual p99 and drain tail are
/// reported under.
const LADDER: [(f64, [&str; 3]); 5] = [
    (30.0, ["rung30.tps", "rung30.p99_us", "rung30.drain_us"]),
    (60.0, ["rung60.tps", "rung60.p99_us", "rung60.drain_us"]),
    (80.0, ["rung80.tps", "rung80.p99_us", "rung80.drain_us"]),
    (120.0, ["rung120.tps", "rung120.p99_us", "rung120.drain_us"]),
    (160.0, ["rung160.tps", "rung160.p99_us", "rung160.drain_us"]),
];
/// Arrival window of each rung, in virtual µs.
const RUNG_US: u64 = 240_000_000;
/// A rung meets the limit when its virtual p99 and its drain tail (the
/// time to finish the work in flight and queued when arrivals stop) are
/// both within this bound.
const SLO_P99_US: u64 = 105_000;
/// Virtual-time interval of the engine's sampler in the traced run.
const SAMPLE_EVERY_US: u64 = 1_000_000;

fn config(seed: u64, rung: usize, offered_tps: f64, traced: bool) -> LoadConfig {
    LoadConfig {
        terminals: TERMINALS,
        duration_us: RUNG_US,
        mean_think_us: TERMINALS as f64 * 1e6 / offered_tps,
        zipf_theta: ZIPF_THETA,
        max_inflight: MAX_INFLIGHT,
        sample_every_us: if traced { SAMPLE_EVERY_US } else { 0 },
        seed: seed
            .wrapping_mul(LADDER.len() as u64)
            .wrapping_add(rung as u64),
        ..LoadConfig::default()
    }
}

pub fn round(seed: u64, tr: &mut Tracer) -> Result<Round, String> {
    let mut setup_s = Vec::new();
    let (mut wall_s, mut allocs, mut attempted, mut failed, mut wrong) = (0.0, 0, 0, 0, 0);
    let mut wall_us = Vec::new();
    let mut cpu_us = Vec::new();
    let mut virt_us = Vec::new();
    let mut committed = 0u64;
    let mut extra = Vec::new();
    let mut tps_at_slo = 0.0;
    let mut passing = true;
    let mut sum: Option<crate::Delta> = None;
    let (mut admission_wait_us, mut retries, mut gave_up) = (0u64, 0u64, 0u64);
    let mut probes = probes::Probes::default();

    for (rung, &(offered_tps, [tps_name, p99_name, drain_name])) in LADDER.iter().enumerate() {
        let setup = cpu_clock::start();
        let db = tr.span("setup.cluster_build", || {
            ClusterBuilder::new().volume("$DATA1", 0, 1).build()
        });
        let bank = tr
            .span("setup.bank_create", || {
                Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, "$DATA1")
            })
            .map_err(|e| e.to_string())?;
        setup_s.push(setup.elapsed_secs());
        let initial = bank.total_balance(&db).map_err(|e| e.to_string())?;
        let cfg = config(seed, rung, offered_tps, tr.on());

        let timed = timed_ops(&db, tr, &[cfg], |cfg, tr| {
            tr.span("workloads.run_load", || run_load(&db, &bank, cfg))
        })?;
        let out = &timed.results[0];
        let wall = timed.wall_s;
        allocs += timed.allocs;
        let mut delta = timed.delta;
        if tr.on() {
            // Each interval the engine's sampler closed must sum exactly to
            // its span, as the whole run's ledger does.
            for (k, iv) in out.intervals.iter().enumerate() {
                let span = iv.end_us - iv.start_us;
                if iv.wait_total_us() != span {
                    return Err(format!(
                        "rung {rung} interval {k}: wait ledger {} us != span {span} us",
                        iv.wait_total_us()
                    ));
                }
            }
            // The sampler counts its own intervals; nothing else moves.
            delta.measure[nsql_sim::Ctr::SamplerIntervals as usize] = 0;
        }

        let total = bank.total_balance(&db).map_err(|e| e.to_string())?;
        if total != initial + out.net_delta || out.arrivals != out.committed + out.gave_up {
            eprintln!(
                "contended_oltp: rung {rung}: balance {total} != {initial} + {}, or \
                 {} arrivals != {} committed + {} gave up",
                out.net_delta, out.arrivals, out.committed, out.gave_up
            );
            wrong += 1;
        }
        attempted += out.arrivals;
        failed += out.gave_up + out.other_errors;
        wall_s += wall;
        if out.committed > 0 {
            wall_us.push(wall * 1e6 / out.committed as f64);
            cpu_us.push(timed.cpu_s * 1e6 / out.committed as f64);
        }
        committed += out.committed;
        admission_wait_us += out.admission_wait_us;
        retries += out.deadlock_retries;
        gave_up += out.gave_up;
        virt_us.extend(&out.latencies_us);

        let p99 = out.percentile_us(99.0);
        let drain = out.elapsed_us.saturating_sub(RUNG_US);
        passing &= p99 <= SLO_P99_US && drain <= SLO_P99_US;
        if passing {
            tps_at_slo = out.tps();
        }
        extra.push((tps_name, out.tps()));
        extra.push((p99_name, p99 as f64));
        extra.push((drain_name, drain as f64));
        match &mut sum {
            None => sum = Some(delta),
            Some(s) => s.add(&delta),
        }

        if tr.on() && rung == LADDER.len() - 1 {
            probes = probes::run(
                tr,
                &ProbeInput {
                    db: &db,
                    table: "ACCOUNT",
                    key_lo: 0,
                    sql: &[],
                    expr: Expr::Arith(
                        Box::new(Expr::Field(2)),
                        ArithOp::Add,
                        Box::new(Expr::lit(Value::Double(1.0))),
                    ),
                },
            )?;
        }
        teardown(&db);
    }
    let delta = sum.ok_or("empty ladder")?;
    extra.push(("virt_tps_at_slo", tps_at_slo));
    extra.push(("load.admission_wait_us", admission_wait_us as f64));
    extra.push(("load.retries", retries as f64));
    extra.push(("load.gave_up", gave_up as f64));
    Ok(Round {
        setup_s,
        wall_s,
        wall_us,
        cpu_us,
        allocs,
        sim: SimCost {
            ops: committed,
            txns: committed,
            virt_us,
            delta,
            extra,
        },
        attempted,
        failed,
        wrong,
        probes,
    })
}
