//! `wisc_scan`: closed loop, one client, Wisconsin set queries.
//!
//! The 8,000-row table (~208-byte rows in about 800 blocks, 3.2 MB) is over
//! three times the 256-frame (1 MB) DP cache. Each op is one set query;
//! every four ops are a seeded order of the four kinds below, with seeded
//! offsets. The DP row loop, predicate evaluation, re-drives, prefetch,
//! bulk I/O, the disk model and write-behind do most of the work; point
//! descent, locks and commit do little. The UPDATE puts writes beside the
//! reads on the same cache and disk.

use crate::cpu_clock;
use crate::probes::{self, ProbeInput};
use crate::spans::Tracer;
use crate::{teardown, timed_ops, working_set, Round, SimCost};
use nsql_core::{ClusterBuilder, Outcome};
use nsql_records::{CmpOp, Expr, Value};
use nsql_sim::SimRng;
use nsql_workloads::Wisconsin;

const ROWS: u32 = 8_000;
/// Queries timed per round.
const QUERIES: usize = 400;
/// Closed-loop latency limit on virtual p99 behind `virt_tps_at_slo`.
pub const SLO_P99_US: u64 = 5_000_000;

#[derive(Clone, Copy)]
enum Kind {
    /// 1% projection, non-clustered predicate (VSBB).
    Project1,
    /// 10% clustered range.
    Range10,
    /// `MIN` grouped by a 100-value attribute.
    MinGrouped,
    /// 1% set UPDATE on a clustered range.
    Update1,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Project1 | Kind::Range10 | Kind::MinGrouped => "core.execute.select",
            Kind::Update1 => "core.execute.update",
        }
    }

    /// Rows (or groups, or updated rows) the query must return.
    fn cardinality(self) -> u64 {
        match self {
            Kind::Project1 | Kind::Update1 => (ROWS / 100) as u64,
            Kind::Range10 => (ROWS / 10) as u64,
            Kind::MinGrouped => 100,
        }
    }
}

struct Query {
    kind: Kind,
    lo: u32,
    sql: String,
}

fn inputs(seed: u64) -> Vec<Query> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::with_capacity(QUERIES);
    while out.len() < QUERIES {
        let mut kinds = [
            Kind::Project1,
            Kind::Range10,
            Kind::MinGrouped,
            Kind::Update1,
        ];
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let width = kind.cardinality() as u32;
            let lo = rng.below((ROWS - width + 1) as u64) as u32;
            let hi = lo + width - 1;
            let sql = match kind {
                Kind::Project1 => {
                    format!("SELECT UNIQUE2, UNIQUE1 FROM WISC WHERE UNIQUE1 BETWEEN {lo} AND {hi}")
                }
                Kind::Range10 => {
                    format!("SELECT * FROM WISC WHERE UNIQUE2 BETWEEN {lo} AND {hi}")
                }
                Kind::MinGrouped => {
                    "SELECT HUNDRED, MIN(THOUSAND) AS M FROM WISC GROUP BY HUNDRED".to_string()
                }
                Kind::Update1 => format!(
                    "UPDATE WISC SET THOUSAND = THOUSAND + 1 WHERE UNIQUE2 BETWEEN {lo} AND {hi}"
                ),
            };
            out.push(Query { kind, lo, sql });
        }
    }
    out.truncate(QUERIES);
    out
}

pub fn round(seed: u64, tr: &mut Tracer) -> Result<Round, String> {
    let setup = cpu_clock::start();
    let db = tr.span("setup.cluster_build", || {
        ClusterBuilder::new().volume("$DATA1", 0, 1).build()
    });
    tr.span("setup.wisconsin_create", || {
        Wisconsin::create(&db, "WISC", ROWS, &["$DATA1"], seed)
    })
    .map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed_secs();
    let queries = inputs(seed);

    let mut s = db.session();
    // Each op keeps only its row count, so the rows are freed inside it.
    let timed = timed_ops(&db, tr, &queries, |q, tr| {
        tr.span(q.kind.span(), || s.execute(&q.sql))
            .map(|out| match out {
                Outcome::Rows(r) => r.rows.len() as u64,
                Outcome::Count(n) => n,
                Outcome::Done => 0,
            })
    })?;
    drop(s);

    let (mut failed, mut wrong) = (0u64, 0u64);
    for (i, (q, res)) in queries.iter().zip(&timed.results).enumerate() {
        let got = match res {
            Ok(n) => *n,
            Err(e) => {
                eprintln!("wisc_scan: op {i} ({}): {e}", q.sql);
                failed += 1;
                continue;
            }
        };
        if got != q.kind.cardinality() {
            eprintln!(
                "wisc_scan: op {i} ({}) returned {got} rows, expected {}",
                q.sql,
                q.kind.cardinality()
            );
            failed += 1;
            wrong += 1;
        }
    }
    let sim = SimCost {
        ops: QUERIES as u64,
        txns: timed.delta.get("txns_committed"),
        virt_us: timed.virt_us,
        delta: timed.delta,
        extra: working_set(&db),
    };

    let probes = if tr.on() {
        let lo = queries.first().map_or(0, |q| q.lo);
        let lo = lo.min(ROWS - probes::ROWS as u32) as i32;
        let hi = lo + (ROWS / 100) as i32 - 1;
        let sample: Vec<String> = queries.iter().map(|q| q.sql.clone()).collect();
        probes::run(
            tr,
            &ProbeInput {
                db: &db,
                table: "WISC",
                key_lo: lo as i64,
                sql: &sample,
                // The 1% projection's predicate: UNIQUE1 BETWEEN lo AND hi.
                expr: Expr::and(
                    Expr::field_cmp(1, CmpOp::Ge, Value::Int(lo)),
                    Expr::field_cmp(1, CmpOp::Le, Value::Int(hi)),
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
        attempted: QUERIES as u64,
        failed,
        wrong,
        probes,
    })
}
