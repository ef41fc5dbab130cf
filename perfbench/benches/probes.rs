//! Probes of the traced run: direct calls to single public functions of one
//! layer, on the workload's own rows, keys, statements and cache, timed in
//! batches so one clock read covers many calls.

use crate::alloc;
use crate::spans::Tracer;
use nsql_bench::wall_clock;
use nsql_btree::{BTreeFile, MemStore};
use nsql_core::Cluster;
use nsql_dp::ReadLock;
use nsql_records::key::encode_record_key;
use nsql_records::row::{decode_row, encode_row};
use nsql_records::{Expr, Row};
use nsql_sim::MeasureReport;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Rows of the workload's table that the record and B-tree probes use.
pub const ROWS: usize = 500;
/// Timed batches per probe per traced round.
const BATCHES: usize = 7;
/// Cache blocks the cache probe keeps resident and re-reads.
const CACHE_BLOCKS: usize = 64;
/// Point reads per batch of the File System probe.
const FS_READS: usize = 64;
/// Calls per batch of the counter-read probes.
const SNAPSHOTS: usize = 64;

/// What the probes read from the workload.
pub struct ProbeInput<'a> {
    pub db: &'a Cluster,
    /// The workload's main table; its first field is the primary key.
    pub table: &'a str,
    /// First primary key of the [`ROWS`] rows the probes use.
    pub key_lo: i64,
    /// A sample of the workload's statements (empty when the workload does
    /// not use the SQL front end).
    pub sql: &'a [String],
    /// An expression the workload evaluates against the table's rows.
    pub expr: Expr,
}

/// Per-call wall µs and allocations of each batch, by probe name.
#[derive(Default)]
pub struct Probes {
    pub batches: BTreeMap<&'static str, Vec<(f64, f64)>>,
}

impl Probes {
    pub fn extend(&mut self, other: &Probes) {
        for (name, b) in &other.batches {
            self.batches.entry(name).or_default().extend(b);
        }
    }

    /// Median per-call wall µs over all batches (0 when never probed).
    pub fn us(&self, name: &str) -> f64 {
        self.median(name, |b| b.0)
    }

    /// Median per-call allocations over all batches.
    pub fn allocs(&self, name: &str) -> f64 {
        self.median(name, |b| b.1)
    }

    fn median(&self, name: &str, f: impl Fn(&(f64, f64)) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .batches
            .get(name)
            .map_or(Vec::new(), |b| b.iter().map(f).collect());
        crate::report::percentile(&mut v, 0.5)
    }
}

/// Time `calls` calls made by `f` as one batch, under a span named after
/// the probe.
fn batch(
    out: &mut Probes,
    tr: &mut Tracer,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    batch_with(out, tr, name, calls, || Ok(()), |()| f())
}

/// [`batch`] with an untimed `prepare` step before each batch, whose
/// output the timed calls consume.
fn batch_with<S>(
    out: &mut Probes,
    tr: &mut Tracer,
    name: &'static str,
    calls: usize,
    mut prepare: impl FnMut() -> Result<S, String>,
    mut f: impl FnMut(S) -> Result<(), String>,
) -> Result<(), String> {
    if calls == 0 {
        return Ok(());
    }
    for _ in 0..BATCHES {
        let input = prepare()?;
        let a0 = alloc::count();
        let t = wall_clock::start();
        tr.enter(name);
        let res = f(input);
        tr.exit();
        let us = t.elapsed_micros();
        res?;
        let allocs = (alloc::count() - a0) as f64;
        out.batches
            .entry(name)
            .or_default()
            .push((us / calls as f64, allocs / calls as f64));
    }
    Ok(())
}

pub fn run(tr: &mut Tracer, p: &ProbeInput<'_>) -> Result<Probes, String> {
    let mut out = Probes::default();
    let db = p.db;
    let of = db.catalog.table(p.table).map_err(|e| e.to_string())?.open;
    let desc = &of.desc;
    let pk = &desc.fields[0].name;
    let sql = format!(
        "SELECT * FROM {} WHERE {pk} BETWEEN {} AND {}",
        p.table,
        p.key_lo,
        p.key_lo + ROWS as i64 - 1
    );
    let rows: Vec<Row> = db
        .session()
        .query(&sql)
        .map_err(|e| format!("{sql}: {e}"))?
        .rows;
    let encoded = rows
        .iter()
        .map(|r| encode_row(desc, &r.0).map_err(|e| format!("{e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let keys: Vec<Vec<u8>> = rows.iter().map(|r| encode_record_key(desc, &r.0)).collect();

    // records: the row codec and expression evaluation.
    batch(&mut out, tr, "probe.records.row_encode", rows.len(), || {
        for r in &rows {
            black_box(encode_row(desc, &r.0).map_err(|e| format!("{e:?}"))?);
        }
        Ok(())
    })?;
    batch(
        &mut out,
        tr,
        "probe.records.row_decode",
        encoded.len(),
        || {
            for b in &encoded {
                black_box(decode_row(desc, b).map_err(|e| format!("{e:?}"))?);
            }
            Ok(())
        },
    )?;
    batch(&mut out, tr, "probe.records.expr_eval", rows.len(), || {
        for r in &rows {
            black_box(p.expr.eval(r).map_err(|e| format!("{e:?}"))?);
        }
        Ok(())
    })?;

    // btree: point gets on a private in-memory tree of the same rows.
    let store = MemStore::new();
    let tree = BTreeFile::open(&store, BTreeFile::create(&store));
    for (k, v) in keys.iter().zip(&encoded) {
        tree.insert(k, v).map_err(|e| e.to_string())?;
    }
    batch(&mut out, tr, "probe.btree.get", keys.len(), || {
        for k in &keys {
            black_box(tree.get(k).ok_or("probe key missing from B-tree")?);
        }
        Ok(())
    })?;

    // cache: re-reads of resident blocks of the workload's own DP cache.
    let dp = db.dp(&of.partitions[0].process);
    let pool = dp.pool();
    let len = pool.disk().len_blocks();
    let blocks: Vec<u32> = (0..CACHE_BLOCKS.min(len))
        .map(|i| (i * len / CACHE_BLOCKS.min(len)) as u32)
        .collect();
    for &b in &blocks {
        pool.read(b).map_err(|e| e.to_string())?;
    }
    batch(&mut out, tr, "probe.cache.read", blocks.len(), || {
        for &b in &blocks {
            black_box(pool.read(b).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;

    // fs: point reads by primary key through the File System.
    let session = db.session();
    let pks: Vec<_> = rows.iter().take(FS_READS).map(|r| r.0[0].clone()).collect();
    batch(&mut out, tr, "probe.fs.read_by_pk", pks.len(), || {
        for v in &pks {
            let row = session
                .fs()
                .read_by_pk(None, &of, std::slice::from_ref(v), ReadLock::None)
                .map_err(|e| e.to_string())?;
            black_box(row.ok_or("probe key missing from table")?);
        }
        Ok(())
    })?;

    // sim: the two counter reads `Session::execute` makes per statement.
    batch(
        &mut out,
        tr,
        "probe.sim.metrics_snapshot",
        SNAPSHOTS,
        || {
            for _ in 0..SNAPSHOTS {
                black_box(db.snapshot());
            }
            Ok(())
        },
    )?;
    batch(&mut out, tr, "probe.sim.measure_capture", SNAPSHOTS, || {
        for _ in 0..SNAPSHOTS {
            black_box(MeasureReport::capture(&db.sim));
        }
        Ok(())
    })?;

    // sql: parse, then plan, of the workload's statements.
    batch(&mut out, tr, "probe.sql.parse", p.sql.len(), || {
        for s in p.sql {
            black_box(nsql_sql::parse(s).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    batch_with(
        &mut out,
        tr,
        "probe.sql.plan",
        p.sql.len(),
        || {
            p.sql
                .iter()
                .map(|s| nsql_sql::parse(s).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        },
        |parsed| {
            for stmt in parsed {
                black_box(nsql_sql::plan(&db.catalog, stmt).map_err(|e| e.to_string())?);
            }
            Ok(())
        },
    )?;
    Ok(out)
}
