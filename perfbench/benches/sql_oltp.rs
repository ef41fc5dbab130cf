//! `sql_oltp`: closed loop, one client, DebitCredit as SQL text.
//!
//! Each op is one transaction issued through `Session::execute`: BEGIN, a
//! point SELECT of the account balance, three pushed-down balance UPDATEs,
//! a HISTORY INSERT and COMMIT. The bank (4 branches, 40 tellers, 4,000
//! accounts) fits in the 256-frame DP cache, so the op path is the SQL front
//! end, FS point calls, messages, DP point handlers, B-tree descent, cache
//! hits and commit, with almost no disk reads and no lock contention.

use crate::cpu_clock;
use crate::probes::{self, ProbeInput};
use crate::spans::Tracer;
use crate::{teardown, timed_ops, working_set, Round, SimCost};
use nsql_core::{Cluster, ClusterBuilder, Outcome, Session};
use nsql_records::{ArithOp, Expr, Value};
use nsql_sim::SimRng;
use nsql_workloads::Bank;

const BRANCHES: u32 = 4;
const ACCOUNTS_PER_BRANCH: u32 = 1_000;
/// Transactions timed per round.
const TXNS: usize = 1_000;
/// Closed-loop latency limit on virtual p99 behind `virt_tps_at_slo`.
pub const SLO_P99_US: u64 = 50_000;
const INITIAL_BALANCE: f64 = 1000.0;

/// The inputs of one transaction, drawn from the seed before any is run.
struct Txn {
    aid: usize,
    delta: f64,
    sql: [String; 7],
}

const KINDS: [&str; 7] = [
    "core.execute.begin",
    "core.execute.select",
    "core.execute.update",
    "core.execute.update",
    "core.execute.update",
    "core.execute.insert",
    "core.execute.commit",
];

fn inputs(bank: &Bank, seed: u64) -> Vec<Txn> {
    let mut rng = SimRng::seed_from(seed);
    (0..TXNS)
        .map(|hid| {
            let (aid, tid, bid, delta) = bank.draw(&mut rng);
            Txn {
                aid: aid as usize,
                delta,
                sql: [
                    "BEGIN WORK".to_string(),
                    format!("SELECT ABALANCE FROM ACCOUNT WHERE AID = {aid}"),
                    format!(
                        "UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta:.1} WHERE AID = {aid}"
                    ),
                    format!("UPDATE TELLER SET TBALANCE = TBALANCE + {delta:.1} WHERE TID = {tid}"),
                    format!("UPDATE BRANCH SET BBALANCE = BBALANCE + {delta:.1} WHERE BID = {bid}"),
                    // HISTORY ids are the op's index: unique within the round.
                    format!(
                        "INSERT INTO HISTORY VALUES ({hid}, {aid}, {tid}, {bid}, {delta:.1}, '{}')",
                        "H".repeat(24)
                    ),
                    "COMMIT WORK".to_string(),
                ],
            }
        })
        .collect()
}

/// Run one transaction; returns the balance its SELECT read. A failed
/// statement rolls the transaction back.
fn run_txn(s: &mut Session<'_>, t: &Txn, tr: &mut Tracer) -> Result<f64, String> {
    let mut read = None;
    for (sql, kind) in t.sql.iter().zip(KINDS) {
        match tr.span(kind, || s.execute(sql)) {
            Ok(Outcome::Rows(r)) => {
                read = match r.rows.as_slice() {
                    [row] => row.0.first().and_then(number),
                    _ => None,
                };
            }
            Ok(_) => {}
            Err(e) => {
                if s.in_txn() {
                    s.execute("ROLLBACK WORK").map_err(|e| e.to_string())?;
                }
                return Err(format!("{sql}: {e}"));
            }
        }
    }
    read.ok_or_else(|| format!("SELECT of account {} returned no single balance", t.aid))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Double(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::SmallInt(x) => Some(*x as f64),
        Value::LargeInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// A single-value aggregate query, as a number.
fn scalar(db: &Cluster, sql: &str) -> Result<f64, String> {
    let r = db.session().query(sql).map_err(|e| format!("{sql}: {e}"))?;
    r.rows
        .first()
        .and_then(|row| row.0.first())
        .and_then(number)
        .ok_or_else(|| format!("{sql}: no numeric result"))
}

pub fn round(seed: u64, tr: &mut Tracer) -> Result<Round, String> {
    let setup = cpu_clock::start();
    let db = tr.span("setup.cluster_build", || {
        ClusterBuilder::new().volume("$DATA1", 0, 1).build()
    });
    let bank = tr
        .span("setup.bank_create", || {
            Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, "$DATA1")
        })
        .map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed_secs();
    let txns = inputs(&bank, seed);

    let mut s = db.session();
    let timed = timed_ops(&db, tr, &txns, |t, tr| run_txn(&mut s, t, tr))?;
    drop(s);

    let mut balances = vec![INITIAL_BALANCE; bank.accounts as usize];
    let (mut committed_delta, mut committed, mut failed, mut wrong) = (0.0, 0u64, 0u64, 0u64);
    for (i, (t, res)) in txns.iter().zip(&timed.results).enumerate() {
        match res {
            Ok(read) if *read == balances[t.aid] => {
                balances[t.aid] += t.delta;
                committed_delta += t.delta;
                committed += 1;
            }
            Ok(read) => {
                eprintln!(
                    "sql_oltp: op {i}: account {} read {read}, expected {}",
                    t.aid, balances[t.aid]
                );
                failed += 1;
                wrong += 1;
            }
            Err(e) => {
                eprintln!("sql_oltp: op {i}: {e}");
                failed += 1;
            }
        }
    }
    let sim = SimCost {
        ops: TXNS as u64,
        txns: committed,
        virt_us: timed.virt_us,
        delta: timed.delta,
        extra: working_set(&db),
    };

    let bad = check(&db, &bank, committed_delta, committed)?;
    failed += bad;
    wrong += bad;
    let probes = if tr.on() {
        let sample: Vec<String> = txns.iter().take(16).flat_map(|t| t.sql.clone()).collect();
        let (aid, delta) = txns.first().map_or((0, 0.0), |t| (t.aid, t.delta));
        probes::run(
            tr,
            &ProbeInput {
                db: &db,
                table: "ACCOUNT",
                key_lo: aid.min(bank.accounts as usize - probes::ROWS) as i64,
                sql: &sample,
                expr: Expr::Arith(
                    Box::new(Expr::Field(2)),
                    ArithOp::Add,
                    Box::new(Expr::lit(Value::Double(delta))),
                ),
            },
        )?
    } else {
        probes::Probes::default()
    };
    teardown(&db);
    Ok(Round {
        setup_s: vec![setup_s],
        wall_s: timed.wall_s,
        wall_us: timed.wall_us,
        cpu_us: timed.cpu_us,
        allocs: timed.allocs,
        sim,
        attempted: TXNS as u64,
        failed,
        wrong,
        probes,
    })
}

/// Money and HISTORY conservation; returns the number of failed checks.
fn check(db: &Cluster, bank: &Bank, delta: f64, committed: u64) -> Result<u64, String> {
    let want_accounts = bank.accounts as f64 * INITIAL_BALANCE + delta;
    let checks = [
        ("SELECT SUM(ABALANCE) FROM ACCOUNT", want_accounts),
        ("SELECT SUM(TBALANCE) FROM TELLER", delta),
        ("SELECT SUM(BBALANCE) FROM BRANCH", delta),
        ("SELECT COUNT(*) FROM HISTORY", committed as f64),
    ];
    let mut failed = 0;
    for (sql, want) in checks {
        let got = scalar(db, sql)?;
        if got != want {
            eprintln!("sql_oltp: {sql} = {got}, expected {want}");
            failed += 1;
        }
    }
    Ok(failed)
}
